#!/usr/bin/env python3
"""Re-measures the README's reference figures.

Runs the benchmark command of BENCHMARK.json once per seed on each workload
and prints, per end-to-end metric, the median of the runs and their spread:
the distance between the first and third quartile as a share of the median
(statistics.quantiles, n=4), next to the metric's bound. Run from the
repository root:

    python3 perfbench/spread.py                 # 10 seeds, every workload
    python3 perfbench/spread.py --runs 5 --workloads tcp_hs_n4

Exits 1 if a run fails, reports an incorrect result, or a spread (other than
setup_s) exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return lines, json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    chosen = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        chosen = [w for w in chosen if w in args.workloads.split(",")]
    ok = True
    for workload in chosen:
        results = []
        for seed in range(1, args.runs + 1):
            lines, result = run_once(command, workload, seed, seconds, 0)
            if seed == 1:
                print(lines[0])
            results.append(result)
            ok &= result["correct"]
        failed = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {args.runs} runs of {seconds} s, all correct: "
              f"{all(r['correct'] for r in results)}, failed share {sorted(failed)}")
        print("| metric | unit | median | spread | bound |")
        print("|---|---|---|---|---|")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            s = spread(values) if len(values) > 1 else 0.0
            if name != "setup_s" and s > bound:
                ok = False
            print(f"| {name} | {unit} | {statistics.median(values):.4g} | {s:.3f} | {bound} |")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
