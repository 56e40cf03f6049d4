#!/usr/bin/env python3
"""CI check: every PR recorded in CHANGES.md ships its bench artifact.

Each "- PR N:" line in CHANGES.md is expected to have a matching
BENCH_prN.json checked into the repository root — the per-PR
google-benchmark JSON trace the perf history is reconstructed from. A PR
whose artifact is legitimately absent (no bench-worthy change, or the file
was lost before this check existed) must say so in its CHANGES.md line
with the literal marker "no bench artifact" or "bench artifact lost", so
the absence is a recorded decision instead of a silent drop.

Every artifact present is parsed. An artifact that does not parse fails
the check when its PR number is FIRST_PARSED_PR or higher; an older one
only warns: BENCH_pr2.json was truncated by the interrupted run that
produced it, and rewriting history is worse than recording the defect.
An empty (0-byte) artifact always fails — that is a fresh placeholder,
not a legacy truncation.

Usage: check_bench_artifacts.py [REPO_ROOT]
"""

import json
import os
import re
import sys

MARKERS = ("no bench artifact", "bench artifact lost")

# Artifacts from this PR on must parse; older truncations only warn.
FIRST_PARSED_PR = 11


def main() -> int:
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    changes = os.path.join(root, "CHANGES.md")
    with open(changes, encoding="utf-8") as f:
        lines = f.read().splitlines()

    failures = []
    checked = 0
    for line in lines:
        match = re.match(r"-\s*PR\s+(\d+):", line)
        if not match:
            continue
        number = int(match.group(1))
        artifact = os.path.join(root, f"BENCH_pr{number}.json")
        lowered = line.lower()
        if any(marker in lowered for marker in MARKERS):
            if os.path.exists(artifact):
                failures.append(
                    f"PR {number}: CHANGES.md claims no artifact but "
                    f"BENCH_pr{number}.json exists"
                )
            continue
        checked += 1
        if not os.path.exists(artifact):
            failures.append(
                f"PR {number}: BENCH_pr{number}.json is missing and its "
                "CHANGES.md line carries no 'no bench artifact' / "
                "'bench artifact lost' marker"
            )
            continue
        if os.path.getsize(artifact) == 0:
            failures.append(f"PR {number}: BENCH_pr{number}.json is empty")
            continue
        try:
            with open(artifact, encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as error:
            if number >= FIRST_PARSED_PR:
                failures.append(
                    f"PR {number}: BENCH_pr{number}.json does not parse ({error})"
                )
            else:
                print(
                    f"WARN: PR {number}: BENCH_pr{number}.json does not parse "
                    f"({error}) — legacy truncation, kept as-is",
                    file=sys.stderr,
                )
            continue
        if not data.get("benchmarks"):
            failures.append(f"PR {number}: BENCH_pr{number}.json has no benchmark rows")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"bench artifacts OK ({checked} artifacts checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
