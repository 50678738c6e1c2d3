#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/CMakeLists.txt (the libraries under src/, trap_serve and
the perfbench binary) into .bench_build/, or into
$CARGO_TARGET_DIR when set, then runs the workload with TRAP_THREADS pinned
to the workload's stated pool size. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1
the per-layer metrics (a layer the workload does not exercise reads 0).
Earlier "info" lines give the environment and the output digest. Build
output and diagnostics go to standard error. Exit code 0 on a completed
run, non-zero (and no result line) when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Pool size (TRAP_THREADS) per workload. Every workload runs one lane: on a
# shared 4-core machine identical 4-lane runs of advise_tpcds varied from 62
# to 137 recommendations/s and of assess_tpch by 12%, one-lane runs by 2-3%.
# The 4-lane pool is measured by the traced what-if sweeps instead. For
# serve_mixed, one server thread plus one client connection fit 4 cores.
POOL_THREADS = {
    "assess_tpch": 1,
    "advise_tpcds": 1,
    "serve_mixed": 1,
}
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def source_digest():
    """sha256 over every source file the build reads, so runs of the same
    code can be matched where no git metadata exists."""
    h = hashlib.sha256()
    for top in ("src", "tools", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build(build_dir, jobs):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", str(jobs)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def run_binary(cmd, cwd, env):
    """Runs the benchmark binary in its own process group, so a timeout
    also stops the servers and workers it spawned."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("perfbench exited with %d" % proc.returncode)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=None,
                        help="override the workload's pool size (for "
                             "determinism checks; not used in measurements)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    if not os.path.isfile(os.path.join(ROOT, "src", "common", "CMakeLists.txt")):
        fail("no TRAP sources under %s/src; run from a full checkout" % ROOT)

    nproc = os.cpu_count() or 1
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, target)
    build_dir = os.path.join(build_root, "perfbench")
    work_dir = os.path.join(build_root, "perfbench-run")
    os.makedirs(work_dir, exist_ok=True)
    build(build_dir, min(nproc, 4))

    threads = args.threads or min(POOL_THREADS[args.workload], nproc)
    env = dict(os.environ, TRAP_THREADS=str(threads))
    out = run_binary(
        [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(args.seconds),
         "--trace", str(args.trace), "--bin-dir", build_dir],
        work_dir, env)

    lines = out.strip().splitlines()
    if not lines:
        fail("perfbench printed nothing")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON: " + lines[-1])

    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    values = raw["values"]
    unknown = sorted(set(values) - set(units))
    if unknown:
        fail("metrics missing from BENCHMARK.json %s: %s" % (key, unknown))
    missing = sorted(set(units) - set(values))
    if missing and not args.trace:
        fail("end-to-end metrics not measured: %s" % missing)
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}

    print("info run: workload=%s seed=%d seconds=%s trace=%d nproc=%d "
          "TRAP_THREADS=%d build=%s commit=%s sources=%s"
          % (args.workload, args.seed, args.seconds, args.trace, nproc,
             threads, BUILD_TYPE, commit(), source_digest()))
    print(json.dumps({"correct": bool(raw["correct"]),
                      "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
