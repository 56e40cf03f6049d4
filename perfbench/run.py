#!/usr/bin/env python3
"""Builds the ksym benchmark program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload release_tdv --seed 1 --seconds 35 --trace 0

The program is configured as a Release build under .bench_build/perfbench
(once) and rebuilt incrementally on every call; build output goes to
stderr so that the last line of stdout is the program's result object.
Scratch files go to .bench_work and run records (metadata, result, spans)
to .bench_out. Any build or set-up failure exits non-zero without a result.
"""

import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "ksym_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("error: no ksym sources under %s/src\n" % ROOT)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(
        ["cmake", "--build", BUILD, "--target", "ksym_perfbench", "-j", jobs],
        stdout=sys.stderr).returncode == 0


def commit_id():
    """The git commit when run from a clone, else a digest of the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    if not build():
        sys.stderr.write("error: benchmark build failed\n")
        return 1
    # Relative scratch paths keep the daemon's unix socket path short.
    command = [BINARY] + sys.argv[1:] + [
        "--work-dir", ".bench_work", "--out-dir", ".bench_out",
        "--commit", commit_id()]
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
