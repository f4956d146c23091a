#!/usr/bin/env python3
"""Build and run the DeepSeq end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fresh --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --check-steady 10 [--sets 2] [--workload eco] [--seconds 10]
    python3 perfbench/run.py --record-train > perfbench/expected_train.txt

The first form builds the release `deepseq-serve` server and the
`perfbench` binary, runs one workload and prints, as its last line, one
JSON object with `correct`, `attempted`, `failed` and `metrics`.
`--check-steady N` is an A/A test. It runs each workload of BENCHMARK.json
(or the one named by --workload) in `--sets` sets of N runs back to back,
each run with its own seed, and prints every run. For each set and metric
it prints the median, the quartiles and the distance between the quartiles
over the median; from the second set on, also how far the median moved
from the first set's, in the metric's worse direction. It exits nonzero
when a quartile spread (of any metric but `setup_s`) or a median shift
exceeds the metric's bound in BENCHMARK.json. `--record-train` prints the
fingerprint the `train` workload checks every job against.

Builds go to $CARGO_TARGET_DIR (default: .bench_build); per-run scratch
files go to .perfbench_tmp and are removed when the run ends.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
WORKLOADS = ["fresh", "repeat", "eco", "train"]
# Settings that change what the program computes or records; every run
# starts without them (the benchmark sets what it needs explicitly).
CLEARED_ENV = ["DEEPSEQ_TRACE", "DEEPSEQ_FAULT", "DEEPSEQ_KERNEL", "DEEPSEQ_THREADS"]
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Builds both binaries; returns (perfbench, deepseq-serve) paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    common = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path"]
    for cmd in (
        common + [os.path.join(REPO_DIR, "Cargo.toml"), "-p", "deepseq-serve", "--bin", "deepseq-serve"],
        common + [os.path.join(BENCH_DIR, "Cargo.toml")],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "deepseq-serve")


def bench_env():
    return {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}


def run_once(bins, workload, seed, seconds, trace, capture):
    cmd = [
        bins[0], "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--server-bin", bins[1],
    ]
    try:
        return subprocess.run(
            cmd, env=bench_env(), timeout=RUN_TIMEOUT_S,
            stdout=subprocess.PIPE if capture else None, text=True,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} run exceeded {RUN_TIMEOUT_S} s")


def load_spec():
    with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def check_steady(bins, runs, sets, workloads, seconds):
    """Runs `sets` sets of `runs` runs of each workload; compares each
    set's quartile spread and the shift of its median with the bounds."""
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = seconds or spec["run_seconds"]
    ok = True
    for workload in workloads:
        medians = []
        for s in range(sets):
            values = {}
            print(f"\n{workload}, set {s + 1}: {runs} runs of {seconds} s", flush=True)
            for seed in range(s * runs + 1, (s + 1) * runs + 1):
                result = run_once(bins, workload, seed, seconds, 0, capture=True)
                lines = result.stdout.strip().splitlines()
                if result.returncode != 0 or not lines:
                    print(f"  seed {seed}: run failed (exit {result.returncode})", flush=True)
                    ok = False
                    continue
                report = json.loads(lines[-1])
                if not report["correct"] or report["failed"]:
                    print(f"  seed {seed}: output check failed")
                    ok = False
                for name, metric in report["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                shown = " ".join(f"{n}={m['value']:.5g}" for n, m in report["metrics"].items())
                print(f"  seed {seed}: attempted {report['attempted']} failed {report['failed']} {shown}", flush=True)
            print(f"  {'metric':<22}{'median':>12}{'q1':>12}{'q3':>12}{'iqr/med':>9}{'shift':>8}{'bound':>7}")
            set_medians = {}
            for name, vals in values.items():
                q1, med, q3 = quartiles(vals)
                set_medians[name] = med
                spec_m = metrics.get(name, {"bound": 0.0, "better": "lower"})
                bound = spec_m["bound"]
                iqr = (q3 - q1) / med if med else 0.0
                flags = []
                if name != "setup_s" and iqr > bound:
                    flags.append("SPREAD EXCEEDS BOUND")
                shift = 0.0
                if medians and medians[0].get(name):
                    first = medians[0][name]
                    shift = (med - first) / first
                    if spec_m["better"] == "higher":
                        shift = -shift
                    if shift > bound:
                        flags.append("MEDIAN SHIFT EXCEEDS BOUND")
                ok = ok and not flags
                print(f"  {name:<22}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{iqr:>9.3f}{shift:>8.3f}{bound:>7.2f}  {' '.join(flags)}")
            medians.append(set_medians)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--check-steady", type=int, metavar="N")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--record-train", action="store_true")
    args = parser.parse_args()

    bins = build()
    if args.record_train:
        sys.exit(subprocess.run([bins[0], "--record-train"], env=bench_env()).returncode)
    if args.check_steady:
        workloads = [args.workload] if args.workload else [w["name"] for w in load_spec()["workloads"]]
        steady = check_steady(bins, args.check_steady, args.sets, workloads, args.seconds)
        sys.exit(0 if steady else 1)
    if not args.workload:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    result = run_once(bins, args.workload, args.seed, seconds, args.trace, capture=False)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
