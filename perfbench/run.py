#!/usr/bin/env python3
"""Build the served-path benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the repository root; the first run configures and builds,
later runs rebuild only what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. The exit status is the
benchmark's: non-zero on a build failure, a correctness failure or a timeout.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found next to perfbench/")
    obj = os.path.join(bdir, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", obj, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(obj, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", obj, "-j", jobs,
                 "--target", "perfbench", "perfbench_selftest"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return obj


def main(argv):
    bdir = build_dir()
    obj = build(bdir)
    if argv == ["--selftest"]:
        cmd = [os.path.join(obj, "perfbench_selftest")]
    else:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        opts = dict(zip(argv[0::2], argv[1::2]))
        name = "%s-seed%s.json" % (opts.get("--workload", "x"), opts.get("--seed", "1"))
        cmd = [os.path.join(obj, "perfbench"), *argv,
               "--uds", os.path.relpath(os.path.join(bdir, "pb-%d.sock" % os.getpid()), ROOT),
               "--trace-out", os.path.join(traces, name)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: timed out after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
