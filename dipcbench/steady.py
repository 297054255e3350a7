#!/usr/bin/env python3
"""Checks that the benchmark is steady enough to judge a change by.

    python3 dipcbench/steady.py

For every workload of BENCHMARK.json it runs dipcbench/run.py once per seed
1..10, for BENCHMARK.json's run_seconds each, and reports every end-to-end
metric's median and its spread: the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median. Every spread
must stay within the metric's bound. It also runs seed 1 a second time,
whose simulated metrics must be identical to the first run's, and the
held-out seed 1009, reported as its own column and left out of the spreads,
so later claims can be checked on a seed that was not used to write them.
Exits non-zero when a run fails or a check does not hold.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))
HELD_OUT = 1009


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return None
    if proc.returncode != 0 or not result["correct"]:
        return None
    return {k: m["value"] for k, m in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    ok = True
    for wl in [w["name"] for w in bench["workloads"]]:
        rows = {seed: run(wl, seed, seconds) for seed in SEEDS}
        repeat = run(wl, SEEDS[0], seconds)
        held = run(wl, HELD_OUT, seconds)
        for seed, row in rows.items():
            if row is None:
                print("%s seed %d: FAILED" % (wl, seed))
                ok = False
        good = [r for r in rows.values() if r is not None]
        print("=== %s: %d seeds ===" % (wl, len(good)))
        print("  %-16s %14s %9s %7s  %-12s %s" %
              ("metric", "median", "spread", "bound", "seed %d" % HELD_OUT, "verdict"))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [r[name] for r in good]
            if len(values) < 2:
                continue
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            verdict = ("ok" if spread <= bound / 3 else
                       "within bound" if spread <= bound else "TOO WIDE")
            ok = ok and spread <= bound
            print("  %-16s %14.6g %8.2f%% %6.0f%%  %-12s %s" %
                  (name, med, 100 * spread, 100 * bound,
                   "%.6g" % held[name] if held else "FAILED", verdict))
        if repeat is None or rows[SEEDS[0]] is None:
            ok = False
            print("  repeat of seed %d: FAILED" % SEEDS[0])
        else:
            sim = [n for n in repeat if n.startswith("sim_")]
            same = all(repeat[n] == rows[SEEDS[0]][n] for n in sim)
            ok = ok and same
            print("  repeat of seed %d: simulated metrics %s" %
                  (SEEDS[0], "identical" if same else "DIFFER"))
        ok = ok and held is not None
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
