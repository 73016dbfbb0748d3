#!/usr/bin/env python3
"""The LazyMC benchmark: one command, one workload (or all of them).

    python3 lmcbench/run.py --workload dense-bio|social-vc|sparse-web|all
                            [--seed N] [--seconds S] [--trace 0|1]

Builds the `lmcbench` program and the lazymc libraries from this source
tree (Release, under .bench_build/lmcbench/build), generates the seeded
inputs afresh on every call (under .bench_build/lmcbench/inputs, before
any timing, so stores always carry this tree's order, zone and format),
then runs `lmcbench run` and forwards what it prints.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 1 the per-layer spans are also written as Chrome
trace-event JSON under .bench_build/lmcbench/traces.

Expected clique numbers come from lmcbench/expected.json.  They hold for
every seed, because a seed other than 0 only relabels the suite graphs.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "lmcbench")
WORKLOADS = ["dense-bio", "social-vc", "sparse-web"]
GEN_TIMEOUT_S = 120


def log(message):
    print(f"lmcbench: {message}", file=sys.stderr, flush=True)


def call(cmd, timeout=None):
    """Runs cmd with its output on stderr; exits on failure."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=timeout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        sys.exit(f"lmcbench: {' '.join(cmd[:3])} ... failed: {e}")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("lmcbench: no lazymc source tree next to lmcbench/; "
                 "nothing to benchmark")
    build_dir = os.path.join(WORK, "build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        call(["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release", *generator])
    call(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 4)])
    return os.path.join(build_dir, "lmcbench")


def inputs(binary, workload, seed):
    """Generates the workload's inputs for `seed`; returns the dir."""
    path = os.path.join(WORK, "inputs", workload)
    shutil.rmtree(path, ignore_errors=True)
    call([binary, "gen", "--workload", workload, "--seed", str(seed),
          "--out", path], timeout=GEN_TIMEOUT_S)
    return path


def run_workload(binary, workload, args):
    input_dir = inputs(binary, workload, args.seed)
    # Rounds stop starting once the next would pass --seconds; the margin
    # covers set-up and a round slower than the one before it.
    timeout = 3 * args.seconds + 60
    with open(os.path.join(HERE, "expected.json")) as f:
        omegas = json.load(f)["omega"][workload]
    cmd = [binary, "run", "--workload", workload, "--inputs", input_dir,
           "--expect", ",".join(f"{k}={v}" for k, v in sorted(omegas.items())),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(WORK, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace = os.path.join(trace_dir, f"{workload}-seed{args.seed}.json")
        cmd += ["--trace-out", trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"lmcbench: {workload} did not finish in {timeout} s")
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"lmcbench: {workload} ended without a result "
                 f"(exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    if args.trace:
        log(f"spans written to {trace}")
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    binary = build()
    if args.workload != "all":
        code, result = run_workload(binary, args.workload, args)
        print(json.dumps(result), flush=True)
        return code

    code, combined = 0, {"correct": True, "attempted": 0, "failed": 0,
                         "metrics": {}}
    for workload in WORKLOADS:
        rc, result = run_workload(binary, workload, args)
        code = code or rc
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
