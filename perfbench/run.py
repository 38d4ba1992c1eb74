#!/usr/bin/env python3
"""Builds and runs the ECO performance benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload tune_cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds the repository and the benchmark
program into .bench_build/perfbench (a Release build through the
repository's own CMakeLists.txt); later calls only rebuild what changed.
The program's standard output is passed through unchanged; its last line is
the JSON result. Build output goes to .bench_build/perfbench-build.log.
"""

import fcntl
import hashlib
import os
import subprocess
import sys

BUILD_ROOT = ".bench_build"
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_LOG = os.path.join(BUILD_ROOT, "perfbench-build.log")
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170
HASHED_DIRS = ("src", "perfbench")
HASHED_FILES = ("CMakeLists.txt",)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_hash():
    """Content hash of the sources the benchmark builds (the checkout it
    runs in need not be a git repository)."""
    h = hashlib.sha256()
    paths = list(HASHED_FILES)
    for top in HASHED_DIRS:
        for root, dirs, files in os.walk(top):
            dirs.sort()
            paths += [os.path.join(root, f) for f in sorted(files)]
    for path in paths:
        if path.endswith(".pyc"):
            continue
        h.update(path.encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD's commit read straight from .git (no git process, nothing read
    outside the checkout); "none" outside a git work tree."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = os.path.join(".git", ref)
            if os.path.isfile(loose):
                with open(loose) as f:
                    return f.read().strip()[:12]
            with open(os.path.join(".git", "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0][:12]
            return "none"
        return head[:12]
    except OSError:
        return "none"


def build(targets):
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock, \
            open(BUILD_LOG, "a") as log:
        # Concurrent first runs must not race one configure/build.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                      "--target"] + targets)
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                fail("build failed: %s (see %s)" % (" ".join(cmd), BUILD_LOG))


def run(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % RUN_TIMEOUT_S)


def main():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the root of an ECO checkout (no src/CMakeLists.txt)")
    args = sys.argv[1:]
    if args == ["--self-test"]:
        build(["perfbench_test"])
        sys.exit(run([os.path.join(BUILD_DIR, "perfbench_test")]))
    build(["perfbench"])
    stamp = ["--git-sha", git_sha(), "--source-hash", source_hash()]
    sys.exit(run([os.path.join(BUILD_DIR, "perfbench")] + args + stamp))


if __name__ == "__main__":
    main()
