"""Steadiness mode: run workloads over many seeds, print medians, quartiles and spreads.

    python3 bench/steady.py --runs 10 --save a.json       # every workload, end to end
    python3 bench/steady.py --runs 1 --trace              # plus one traced run per workload
    python3 bench/steady.py --compare a.json b.json       # second set against the first

Each run is a fresh ``run.py`` process with its own seed (``--first-seed``,
``--first-seed + 1``, ...).  The spread of a metric is the distance between
its first and third quartile, as ``statistics.quantiles(values, n=4)``
gives them, over its median; it is marked ``ok`` below a third of the
metric's bound in BENCHMARK.json, ``wide`` up to the bound and ``UNSTEADY``
beyond.  ``--compare`` marks a metric ``WORSE`` when the second set's
median is worse than the first's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> tuple[float, float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return median, q1, q3


def report(runs: dict, metrics: list) -> None:
    for workload, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"== {workload}: {len(results)} runs, {attempted} ops, {failed} failed, correct={correct}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            median, q1, q3 = summary(values)
            spread = (q3 - q1) / median if median else 0.0
            bound = m.get("bound")
            mark = ""
            if bound is not None:
                mark = "ok" if spread < bound / 3 else "wide" if spread <= bound else "UNSTEADY"
                mark = f"spread {spread:.3f} of bound {bound} {mark}"
            print(f"  {m['name']:<34} {median:>12.6g} {m['unit']:<6} q1 {q1:<10.6g} q3 {q3:<10.6g} {mark}")


def compare(first: dict, second: dict, metrics: list) -> int:
    worse = 0
    for workload in first:
        if workload not in second:
            continue
        for m in metrics:
            a = statistics.median(r["metrics"][m["name"]]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in second[workload])
            change = (b - a) / a if m["better"] == "lower" else (a - b) / a
            verdict = "WORSE" if change > m["bound"] else "ok"
            worse += verdict == "WORSE"
            print(f"{workload:<12} {m['name']:<12} {a:>12.6g} -> {b:<12.6g} {m['unit']:<6} worse by {change:+.3f} (bound {m['bound']}) {verdict}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated names (default: all in BENCHMARK.json)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", action="store_true", help="also make one traced run per workload")
    parser.add_argument("--save", help="write the raw results here")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"), help="compare two saved sets")
    args = parser.parse_args(argv)
    bench = spec()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, encoding="utf-8") as handle:
                sets.append(json.load(handle)["end_to_end"])
        return compare(sets[0], sets[1], bench["end_to_end"])
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    saved: dict = {"end_to_end": {}, "per_layer": {}}
    for workload in names:
        saved["end_to_end"][workload] = [
            run_once(workload, seed, seconds, 0) for seed in range(args.first_seed, args.first_seed + args.runs)
        ]
        if args.trace:
            saved["per_layer"][workload] = [run_once(workload, args.first_seed, seconds, 1)]
    report(saved["end_to_end"], bench["end_to_end"])
    if args.trace:
        print("-- per layer, one traced run each")
        report(saved["per_layer"], bench["per_layer"])
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump(saved, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
