#!/usr/bin/env python3
"""CI gate: each fixed mutation of the source must make its named test fail.

Every mutation is an exact string replacement that must match its file
exactly once, so a refactor that moves the mutated line breaks this script
loudly instead of silently testing nothing. For each mutation alone the
script patches the file, builds only the named test target in the build
directory (configured as Release), runs that test through ctest, and
requires the build to succeed and the test to fail. The file is restored
in a `finally` block, and the run ends with `git diff --exit-code` on the
mutated files, so a mutation that leaked into the tree fails the step.

Before any mutation the named tests are built and run on the clean tree and
must pass; otherwise a broken test would look like a caught mutation.

Each mutant test binary stays in the build directory until its target is
next built, so in a shared build tree run this after every other use of it.

Exit status: 0 when every mutation is caught; 1 otherwise.

Usage: mutation_smoke.py [--build-dir DIR]
  Run from the repository root (default build directory: build-mutation).
"""

import argparse
import os
import subprocess
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class Mutation:
    name: str
    path: str
    old: str
    new: str
    test: str  # The ctest name, which is also the build target.


MUTATIONS = [
    Mutation(
        name="refiner skip-largest rule ignores the pending flag",
        path="src/aut/refinement.cc",
        old="const uint32_t skip = pending_[c_start] ? c_start : largest_start;",
        new="const uint32_t skip = largest_start;",
        test="refinement_test",
    ),
    Mutation(
        name="a copy row drops its other-cell neighbours' copies",
        path="src/ksym/orbit_copy.cc",
        old=("    } else {\n"
             "      // Rule 1: every copy of a neighbour in another cell"),
        new=("    } else if (row.step == 0) {\n"
             "      // Rule 1: every copy of a neighbour in another cell"),
        test="orbit_copy_test",
    ),
    Mutation(
        name="sybil distinctness check dropped",
        path="src/attack/sybil.cc",
        old=("           release_.Degree(v) >= plan_.planted_degrees[position] &&\n"
             "           !IsAssigned(v, position);"),
        new="           release_.Degree(v) >= plan_.planted_degrees[position];",
        test="attack_harness_test",
    ),
    Mutation(
        name="sybil last-position fingerprint tests non-adjacency",
        path="src/attack/sybil.cc",
        old="      return release_.HasEdge(u, v);\n",
        new="      return !release_.HasEdge(u, v);\n",
        test="attack_harness_test",
    ),
    Mutation(
        name="sybil candidate set loses its members when its table grows",
        path="src/attack/sybil.cc",
        old=("      slots_.assign(std::max<size_t>(4, 2 * members.size()), "
             "kInvalidVertex);\n"
             "    }\n"),
        new=("      slots_.assign(std::max<size_t>(4, 2 * members.size()), "
             "kInvalidVertex);\n"
             "      members.clear();\n"
             "    }\n"),
        test="attack_harness_test",
    ),
    Mutation(
        name="sybil base index files every target in the top-less slot",
        path="src/attack/sybil.cc",
        old="      targets_of_[base][fingerprint == base ? 0 : 1] = t;\n",
        new="      targets_of_[base][0] = t;\n",
        test="attack_harness_test",
    ),
    Mutation(
        name="pair distance gives up at depth 6",
        path="src/graph/algorithms.cc",
        old=("  while (true) {\n"
             "    const uint32_t side = volume[1] < volume[0] ? 1 : 0;"),
        new=("  while (true) {\n"
             "    if (depth[0] + depth[1] >= 6) return -1;\n"
             "    const uint32_t side = volume[1] < volume[0] ? 1 : 0;"),
        test="stats_test",
    ),
    Mutation(
        name="twin key ignores colour",
        path="src/aut/twins.cc",
        old="      candidates.push_back({colors[v], hash, v});",
        new="      candidates.push_back({0, hash, v});",
        test="automorphism_oracle_test",
    ),
    Mutation(
        name="direct leaf test checks degrees only",
        path="src/aut/search.cc",
        old=("    for (const auto& [x, image] : moves_) {\n"
             "      for (VertexId y : graph_.Neighbors(x)) {\n"
             "        if (!graph_.HasEdge(image, first_leaf_[p.PositionOf(y)])) {\n"
             "          return Outcome::kContinue;\n"
             "        }\n"
             "      }\n"
             "    }\n"),
        new="",
        test="search_test",
    ),
    Mutation(
        name="edit rebuild ignores delete edits",
        path="src/dyn/edits.cc",
        old=("      if (ri < removed.size() && removed[ri] == Arc{v, w}) {\n"
             "        ++ri;\n"
             "        continue;\n"
             "      }\n"),
        new="",
        test="dyn_test",
    ),
    Mutation(
        name="a copy's in-cell neighbour is emitted as the original",
        path="src/ksym/orbit_copy.cc",
        old="        *out++ = plan_.FirstCopy(*copied) + (row.step - 1) * stride;\n",
        new="        *out++ = *copied;\n",
        test="orbit_copy_test",
    ),
    Mutation(
        name="resilience sweep reads each point one vertex early",
        path="src/stats/resilience.cc",
        old="    while (next > removed) {\n",
        new="    while (next > removed + 1) {\n",
        test="stats_test",
    ),
    # orbit_golden_test's approximate-sample goldens catch this one too.
    Mutation(
        name="a removed sum-tree leaf keeps its ancestors' sums",
        path="src/common/rng.cc",
        old=("  for (node /= 2; node > 0; node /= 2) {\n"
             "    nodes_[node] = nodes_[2 * node] + nodes_[2 * node + 1];\n"
             "  }\n"),
        new="",
        test="common_test",
    ),
    Mutation(
        name="4-vertex ego-net components are keyed by size and edge count",
        path="src/attack/measures.cc",
        old=("        default:\n"
             "          large |= component;\n"),
        new=("        case 4:\n"
             "          key.push_back(DegreeSum(component) / 2);\n"
             "          break;\n"
             "        default:\n"
             "          large |= component;\n"),
        test="neighborhood_oracle_test",
    ),
    Mutation(
        name="backbone takes 4-vertex components with a matching key as copies",
        path="src/ksym/backbone.cc",
        old=("      if (Members(c).size() <= 3 || "
             "sharing[key_label[c]] == 1) continue;\n"),
        new=("      if (Members(c).size() <= 4 || "
             "sharing[key_label[c]] == 1) continue;\n"),
        test="backbone_test",
    ),
    Mutation(
        name="minimal chooser checks only component 1 against component 0",
        path="src/ksym/minimal.cc",
        old="    for (uint32_t c = 1; c < classes.NumComponents(); ++c) {\n",
        new="    for (uint32_t c = 1; c < 2 && c < classes.NumComponents(); ++c) {\n",
        test="minimal_test",
    ),
    Mutation(
        name="text release reader drops its vertex id range check",
        path="src/ksym/release_io.cc",
        old="      if (!parse_field(index, &value) || value >= kInvalidVertex) {\n",
        new="      if (!parse_field(index, &value)) {\n",
        test="release_io_test",
    ),
]


def run(cmd):
    print("+ " + " ".join(cmd), flush=True)
    return subprocess.run(cmd).returncode


def build_and_test(build_dir, test):
    """(built, passed) for one test target."""
    if run(["cmake", "--build", build_dir, "--target", test,
            "-j", str(os.cpu_count() or 1)]) != 0:
        return False, False
    passed = run(["ctest", "--test-dir", build_dir, "-R", f"^{test}$",
                  "--output-on-failure"]) == 0
    return True, passed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build-mutation")
    args = parser.parse_args()

    for m in MUTATIONS:
        with open(m.path, encoding="utf-8") as f:
            count = f.read().count(m.old)
        if count != 1:
            print(f"FAIL {m.name}: pattern matches {count} times in {m.path}")
            return 1

    if run(["cmake", "-B", args.build_dir, "-S", ".",
            "-DCMAKE_BUILD_TYPE=Release"]) != 0:
        return 1
    for test in sorted({m.test for m in MUTATIONS}):
        built, passed = build_and_test(args.build_dir, test)
        if not (built and passed):
            print(f"FAIL {test} does not pass on the clean tree")
            return 1

    failures = []
    for m in MUTATIONS:
        with open(m.path, encoding="utf-8") as f:
            original = f.read()
        try:
            with open(m.path, "w", encoding="utf-8") as f:
                f.write(original.replace(m.old, m.new))
            built, passed = build_and_test(args.build_dir, m.test)
        finally:
            with open(m.path, "w", encoding="utf-8") as f:
                f.write(original)
        if not built:
            verdict = "FAIL (mutant does not build)"
            failures.append(m.name)
        elif passed:
            verdict = f"FAIL (survived {m.test})"
            failures.append(m.name)
        else:
            verdict = f"caught by {m.test}"
        print(f"{verdict}: {m.name}", flush=True)

    # The clean sources back in place, so the next build is not a mutant.
    if run(["git", "diff", "--exit-code", "--"] +
           sorted({m.path for m in MUTATIONS})) != 0:
        print("FAIL mutated sources were not restored")
        return 1
    if failures:
        print(f"{len(failures)} of {len(MUTATIONS)} mutations survived")
        return 1
    print(f"all {len(MUTATIONS)} mutations caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
