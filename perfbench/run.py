#!/usr/bin/env python3
"""Build the CLEAR-Serve benchmark from source and run one workload.

    python3 perfbench/run.py --workload cold-start --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR, else
.bench_build; run files go to .bench_out. The benchmark binary prints the
JSON result as its last line, and this script passes its output and exit code
through unchanged.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure once, then an incremental Release build of both targets."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "perfbench", "perfbench_selftest"],
                   check=True, stdout=sys.stderr)


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the program's sources are missing next to "
              + HERE, file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if argv == ["--self-test"]:
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")]
                              ).returncode
    cmd = [os.path.join(build_dir, "perfbench"), *argv,
           "--out", os.path.join(ROOT, ".bench_out")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
