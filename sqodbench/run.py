#!/usr/bin/env python3
"""Builds the sqod benchmark harness from source and runs it.

One run (the form BENCHMARK.json's command takes):

    python3 sqodbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

builds sqodbench/ (and the sqod libraries it drives) into .bench_build, or
$CARGO_TARGET_DIR when set, then runs one workload. The last line of stdout
is the result JSON; the exit code is non-zero when an answer check fails.

Every workload, untraced then traced:

    python3 sqodbench/run.py --all [--seeds 1,2,3] [--seconds 10] [--out FILE]

prints every metric with its name and unit, writes the results to FILE
(the input of sqodbench/compare.py), and exits non-zero when any run fails
an answer check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve", "load", "churn")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds the harness; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: configuring the benchmark failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", out, "--target", "sqod_bench",
                   "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: building the benchmark failed")
    return os.path.join(out, "sqod_bench")


def run_one(binary, workload, seed, seconds, trace, capture):
    """Runs the harness once; returns (exit code, stdout text or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # The harness stops itself after `seconds` plus set-up; the timeout only
    # guards against a hang, and subprocess.run kills and reaps on expiry.
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=120 + 3 * float(seconds))
    except subprocess.TimeoutExpired:
        print("run.py: %s seed %s timed out" % (workload, seed),
              file=sys.stderr)
        return 1, None
    return proc.returncode, proc.stdout


def run_all(binary, seeds, seconds, out_path):
    results = []
    ok = True
    for workload in WORKLOADS:
        for seed in seeds:
            for trace in (0, 1):
                code, text = run_one(binary, workload, seed, seconds, trace,
                                     capture=True)
                sys.stdout.write(text or "")
                lines = (text or "").strip().splitlines()
                result = None
                if lines:
                    try:
                        result = json.loads(lines[-1])
                    except ValueError:
                        result = None
                if code != 0 or result is None or not result.get("correct"):
                    ok = False
                    print("run.py: FAILED %s seed %s trace %d (exit %d)" %
                          (workload, seed, trace, code))
                results.append({"workload": workload, "seed": seed,
                                 "trace": trace, "result": result})
    if out_path:
        with open(out_path, "w") as f:
            json.dump({"seconds": seconds, "runs": results}, f, indent=1)
    print("run.py: %s" % ("all answer checks passed" if ok else
                          "answer checks FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--out")
    args = parser.parse_args()

    if args.all:
        seconds = args.seconds
        if seconds is None:
            with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
                seconds = json.load(f)["run_seconds"]
        seeds = [int(s) for s in args.seeds.split(",") if s]
        return run_all(build(), seeds, seconds, args.out)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required "
                     "(or --all)")
    code, _ = run_one(build(), args.workload, args.seed, args.seconds,
                      args.trace, capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
