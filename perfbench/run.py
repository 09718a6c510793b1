#!/usr/bin/env python3
"""Build and run the QUICsand benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the root of a source tree. The first run configures and builds
the benchmark (perfbench/CMakeLists.txt, which compiles ../src) under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. The last line of standard output is the result
JSON (correct, attempted, failed, metrics). Results with run metadata,
and the chrome://tracing JSON of traced runs, go to <build dir>/results.

--selfcheck runs every workload briefly, untraced and traced, on a seed
that is not a benchmark seed and fails unless every output check passes.

Exit codes: 0 all output checks passed, 1 an output check failed,
2 the benchmark could not be built or run.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gen_backscatter", "pcap_quicscan", "live_loopback")
BUILD_TYPE = "RelWithDebInfo"
RUN_LIMIT_S = 170
HELD_OUT_SEED = 990331
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build the benchmark binary; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no QUICsand sources at %s/src; run from a source tree" % ROOT)
    build_dir = os.path.join(build_root(), "perfbench-" + BUILD_TYPE)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "quicsand_perfbench", "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as tail:
                    sys.stderr.write("".join(tail.readlines()[-30:]))
                fail("build failed (full log: %s)" % log_path)
    binary = os.path.join(build_dir, "quicsand_perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no benchmark binary")
    return binary


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                     "--", "src", "perfbench"],
                                    capture_output=True, text=True, timeout=10)
            return head.stdout.strip() + ("+dirty" if status.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run(binary, workload, seed, seconds, trace, commit, deadline_s):
    """Run the benchmark binary once; return (exit code, stdout lines)."""
    results = os.path.join(build_root(), "results")
    os.makedirs(results, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", commit, "--out-dir", results]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=max(deadline_s, 1))
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, deadline_s))
    return out.returncode, out.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) and set(result) == RESULT_KEYS else None


def selfcheck(binary, commit):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run(binary, workload, HELD_OUT_SEED, 2, trace, commit,
                              RUN_LIMIT_S)
            result = parse_result(lines)
            passed = code == 0 and result is not None and result["correct"] \
                and result["failed"] == 0
            ok = ok and passed
            print("selfcheck %-16s trace=%d seed=%d: %s" %
                  (workload, trace, HELD_OUT_SEED, "pass" if passed else "FAIL"))
            if not passed:
                print("\n".join(lines[-15:]))
    return 0 if ok else 1


def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not args.selfcheck and (args.seed < 0 or args.seconds < 1):
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    commit = source_id()
    if args.selfcheck:
        return selfcheck(binary, commit)
    remaining = RUN_LIMIT_S - (time.monotonic() - start)
    if remaining < args.seconds:
        # A build this long only happens on the first run in a tree.
        remaining = RUN_LIMIT_S
    code, lines = run(binary, args.workload, args.seed, args.seconds,
                      args.trace, commit, remaining)
    result = parse_result(lines)
    if result is None:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("%s printed no result (exit code %d)" % (args.workload, code))
    print("\n".join(lines))
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
