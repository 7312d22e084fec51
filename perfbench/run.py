#!/usr/bin/env python3
"""Builds the benchmark against the repo's libraries and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the
durable homes of a run live under that directory and are removed when the
run ends. The last line of standard output is the run's JSON result; build
output goes to standard error.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir, targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no library sources at %s/src\n" % ROOT)
        return False
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"] +
                 targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target_dir, "perfbench"))
    if sys.argv[1:] == ["--selftest"]:
        if not build(build_dir, ["perfbench_checker_test"]):
            return 1
        return subprocess.run(
            [os.path.join(build_dir, "perfbench_checker_test")]).returncode
    if not build(build_dir, ["wfrm_perfbench"]):
        return 1
    cmd = [os.path.join(build_dir, "wfrm_perfbench")] + sys.argv[1:] + [
        "--home-root", os.path.join(build_dir, "homes")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
