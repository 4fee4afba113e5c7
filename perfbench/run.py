#!/usr/bin/env python3
"""SIMTVec end-to-end benchmark: build, pin the environment, run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/ (the SIMTVec libraries from src/ plus simtbench) into
$CARGO_TARGET_DIR, or .bench_build when unset, then runs simtbench with a
scrubbed environment and a fresh artifact store that is removed afterwards.

With --trace 0 a run is PARTS simtbench processes, one after another. Each sets
up afresh and measures a PARTS-th of --seconds. setup_s and peak_rss_mb are
the median over the processes; the time metrics (BEST_OF) are the best
process's, which on the batch workloads and cold_start is already read off
that process's least-disturbed stretch, so a run reports its quietest
stretch of host time. attempted and failed are summed.
--trace 1 runs one process over the full --seconds, reports the per-layer
metrics and keeps the recorded spans under <build dir>/traces/. The last line
of standard output is the result object
{"correct", "attempted", "failed", "metrics"}.

--self-test builds simtbench and runs the tests of the benchmark's own
statistics (perfbench/stats_test.cpp).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch_uniform", "batch_divergent", "serve_mixed", "cold_start")
PARTS = 2
# Time metrics merged by taking the best process: a host shared with other
# tenants slows a whole process at times, and one slow process should not
# move the run.
BEST_OF = {"threads_per_s": max, "rtt_p50_s": min}
# A run must finish within 180 s; leave room for process teardown.
RUN_DEADLINE_S = 170
BUILD_TIMEOUT_S = 850
# Knobs that would change the program being measured if the caller's shell
# set them. SIMTVEC_CACHE_DIR and TMPDIR are set per process below.
CLEARED_ENV = (
    "SIMTVEC_JIT", "SIMTVEC_SIMD", "SIMTVEC_BRANCH", "SIMTVEC_TRACE",
    "SIMTVEC_TRACE_BUFFER", "SIMTVEC_POOL_THREADS", "SIMTVEC_CACHE_MAX_BYTES",
    "SIMTVEC_CACHE_DIR", "SIMTVEC_JIT_CXX", "SIMTVEC_JIT_INCLUDE",
    "SIMTVEC_JIT_KEEP",
)
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo", "MinSizeRel")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def check_checkout():
    for rel in ("src/runtime/Runtime.cpp", "src/workloads/Registry.cpp",
                "include/simtvec/runtime/Runtime.h",
                "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            fail(f"{rel} is missing: run from a SIMTVec checkout")


def cache_entry(cache_text, key):
    for line in cache_text.splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def build(out):
    """Configures (once) and builds simtbench; returns the cmake build dir."""
    cdir = os.path.join(out, "cmake")
    os.makedirs(cdir, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    cmds = []
    if not os.path.isfile(os.path.join(cdir, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", cdir,
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", cdir, "-j", str(os.cpu_count() or 2),
                 "--target", "simtbench", "stats_test"])
    start = time.monotonic()
    with open(log_path, "w") as log:
        for cmd in cmds:
            left = BUILD_TIMEOUT_S - (time.monotonic() - start)
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=max(left, 1)).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (see " + log_path + ")", 1)
    with open(os.path.join(cdir, "CMakeCache.txt")) as f:
        cache = f.read()
    build_type = cache_entry(cache, "CMAKE_BUILD_TYPE")
    flags = " ".join(cache_entry(cache, k) for k in (
        "CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_" + build_type.upper()))
    if build_type not in OPTIMIZED_BUILD_TYPES:
        fail(f"refusing to measure an unoptimized build ({build_type!r})")
    if "-fsanitize" in flags:
        fail("refusing to measure a sanitizer build")
    return cdir


def clean_env(tmp_root):
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["TMPDIR"] = tmp_root
    return env


def run_simtbench(binary, argv, tmp_root, deadline):
    """Runs simtbench in a fresh temporary dir with a fresh, empty artifact
    store; returns its stdout lines. Kills the whole process group (the JIT's
    compiler children included) on timeout."""
    work = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    store = os.path.join(work, "store")
    os.makedirs(store)
    env = clean_env(tmp_root)
    env["SIMTVEC_CACHE_DIR"] = store
    proc = subprocess.Popen([binary] + argv + ["--tmp", work], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("the run exceeded its time limit", 1)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray background children
        except ProcessLookupError:
            pass
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(err)
    lines = out.splitlines()
    if not lines:
        fail(f"simtbench exited with {proc.returncode} and no output", 1)
    return proc.returncode, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    check_checkout()
    out = build_dir()
    cdir = build(out)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.self_test:
        sys.exit(subprocess.run([os.path.join(cdir, "stats_test")]).returncode)
    if not args.workload:
        fail("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = os.path.join(cdir, "simtbench")
    tmp_root = os.path.join(out, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(out, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        argv += ["--seconds", repr(args.seconds), "--trace-out",
                 os.path.join(trace_dir, f"{args.workload}-{args.seed}")]
        parts = [argv]
    else:
        parts = [argv + ["--seconds", repr(args.seconds / PARTS),
                         "--part", str(p)] for p in range(PARTS)]

    results = []
    for part_argv in parts:
        rc, lines = run_simtbench(binary, part_argv, tmp_root, deadline)
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(line)
        if rc != 0 or not result.get("correct"):
            print(json.dumps(result))
            sys.exit(1)
        results.append(result)

    merged = {
        "correct": True,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        merge = BEST_OF.get(name, statistics.median)
        merged["metrics"][name] = {"value": merge(values), "unit": m["unit"]}
        if len(values) > 1:
            print(f"# {name} per process: {values}")
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
