#!/usr/bin/env python3
"""CI report: change / parent time ratios inside one bench artifact.

A BENCH_prN.json artifact holds the parent commit's rows under a "parent/"
prefix next to the change's rows, both run on one machine (a prefix before
"parent/", such as "round2/", names a second round and pairs within it).
For every "<prefix>parent/<row>" that has a matching "<prefix><row>" this
prints the median real_time of each and their ratio (change / parent),
marking a ratio above 1.10 with WARN, then lists the parent rows that have
no change row.

Only rows inside one artifact are compared: artifacts of different PRs ran
on different hosts, so a ratio across them measures the host. A row's
median is its "median" aggregate when the artifact has one, else the median
of its per-run rows.

Exit status: 0 when the artifact parses, warnings included (CI hosts are
noisy); 1 when it is missing or does not parse.

Usage: bench_compare.py [ARTIFACT.json | REPO_ROOT]
  With a directory (default "."), the artifact with the highest PR number.
"""

import json
import os
import re
import statistics
import sys

WARN_RATIO = 1.10

TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def newest_artifact(root):
    best = None
    for name in os.listdir(root):
        match = re.fullmatch(r"BENCH_pr(\d+)\.json", name)
        if match and (best is None or int(match.group(1)) > best[0]):
            best = (int(match.group(1)), name)
    return None if best is None else os.path.join(root, best[1])


def row_medians(benchmarks):
    """Median real_time in ms per row name."""
    aggregates = {}
    runs = {}
    for row in benchmarks:
        name = row.get("run_name", row["name"])
        time_ms = float(row["real_time"]) * TO_MS[row.get("time_unit", "ns")]
        if row.get("run_type") == "aggregate":
            if row.get("aggregate_name") == "median":
                aggregates[name] = time_ms
        else:
            runs.setdefault(name, []).append(time_ms)
    medians = {name: statistics.median(times) for name, times in runs.items()}
    medians.update(aggregates)
    return medians


def main():
    target = sys.argv[1] if len(sys.argv) > 1 else "."
    path = newest_artifact(target) if os.path.isdir(target) else target
    if path is None:
        print(f"FAIL: no BENCH_prN.json under {target}", file=sys.stderr)
        return 1
    try:
        with open(path, encoding="utf-8") as f:
            medians = row_medians(json.load(f)["benchmarks"])
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"FAIL: {path} does not parse ({error!r})", file=sys.stderr)
        return 1

    pairs = []
    unpaired = []
    for name in sorted(medians):
        prefix, sep, row = name.partition("parent/")
        if not sep:
            continue
        if prefix + row in medians:
            pairs.append((prefix + row, medians[name], medians[prefix + row]))
        else:
            unpaired.append(name)
    print(f"{os.path.basename(path)}: {len(pairs)} parent/change pairs "
          f"(median real_time, ratio = change / parent)")
    warnings = 0
    for row, parent_ms, change_ms in pairs:
        ratio = change_ms / parent_ms if parent_ms > 0 else float("inf")
        flag = ""
        if ratio > WARN_RATIO:
            flag = "  WARN"
            warnings += 1
        print(f"  {row:<52} {parent_ms:12.3f} ms {change_ms:12.3f} ms "
              f"{ratio:7.3f}{flag}")
    for name in unpaired:
        print(f"  {name:<52} no change row")
    print(f"{warnings} row(s) above {WARN_RATIO:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
