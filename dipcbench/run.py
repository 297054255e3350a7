#!/usr/bin/env python3
"""Builds and runs the dIPC benchmark for one workload.

    python3 dipcbench/run.py --workload calls --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout. The first run configures and
builds dipcbench/ (the simulator sources plus the runner) into
$CARGO_TARGET_DIR/dipcbench, or .bench_build/dipcbench when that variable is
unset; later runs only rebuild what changed.

The runner binary runs one round and prints it as one JSON line. This script
starts it once per round, so every round begins in a fresh process, and
repeats rounds until --seconds is spent (at least three). Host values are
medians over the rounds; simulated values come from round 1, and every other
round, traced or not, must reproduce them exactly.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones: it alternates untraced and traced rounds and adds each span
layer's self time and the host cost of tracing. A metric a workload cannot
observe (dipcbench/metrics.json lists them) is reported as 0.

The last line of output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

The exit code is 0 only when every check passed; a build or runner failure
exits non-zero without a result line.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_SAMPLES = 16  # set-up-only runs, besides each round's own set-up
MAX_ROUNDS = 200
CHILD_TIMEOUT_S = 60


def fail(msg):
    print("dipcbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "dipcbench")


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "dipcbench")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def run_child(cmd):
    """Runs the runner once. Returns its result (None if it printed none)
    with the process's peak resident memory in MB under "rss_mb"."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        result = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        return None
    result["rss_mb"] = usage.ru_maxrss / 1024.0  # KiB on Linux
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    doc = load_json(os.path.join(HERE, "metrics.json"))
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload " + args.workload)
    exe = build()
    base = [exe, "--workload", args.workload, "--seed", str(args.seed)]
    spans_out = None
    if args.trace:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans_out = os.path.join(spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))

    # Round 1, the set-up-only runs, then rounds while the budget lasts.
    deadline = time.monotonic() + args.seconds
    untraced, traced = [], []

    def run_round(trace):
        cmd = base + ["--mode", "traced" if trace else "round"]
        if trace and not traced:
            cmd += ["--spans-out", spans_out]
        t0 = time.monotonic()
        (traced if trace else untraced).append(run_child(cmd))
        return time.monotonic() - t0

    round_s = run_round(False)
    setup = [run_child(base + ["--mode", "setup"]) for _ in range(SETUP_SAMPLES)]
    min_rounds = 3 + args.trace
    while True:
        done = len(untraced) + len(traced)
        if done >= MAX_ROUNDS or (done >= min_rounds and time.monotonic() + round_s >= deadline):
            break
        run_round(args.trace == 1 and len(traced) < len(untraced))

    # Checks: each round's own, a round that did not finish, and determinism.
    failed = 0
    attempted = 0
    first = untraced[0]
    for kind, rounds in (("untraced", untraced), ("traced", traced)):
        for i, r in enumerate(rounds, 1):
            if r is None:
                failed += 1
                print("CHECK FAILED: %s round %d did not finish" % (kind, i))
                continue
            attempted += r["attempted"]
            failed += r["failed"]
            for e in r["errors"]:
                print("CHECK FAILED (%s round %d): %s" % (kind, i, e))
            if first is not None and r["sim"] != first["sim"]:
                failed += 1
                print("CHECK FAILED: %s round %d did not reproduce round 1's simulated values"
                      % (kind, i))
    if first is None:
        fail("round 1 did not finish")
    bad = sorted(k for k, v in first["sim"].items() if v is None)
    if bad:
        failed += 1
        print("CHECK FAILED: non-finite simulated values: " + ", ".join(bad))
    attempted = max(attempted, 1)
    for line in first["report"]:
        print(line)

    def median(rounds, field):
        vals = [field(r) for r in rounds if r is not None]
        return statistics.median(vals) if vals else 0.0

    host_s = median(untraced, lambda r: r["host_s"])
    values = {"fail_ratio": failed / attempted}
    if args.trace == 0:
        setup_s = [s["setup_host_s"] for s in setup if s is not None]
        setup_s += [r["setup_host_s"] for r in untraced if r is not None]
        values["setup_s"] = statistics.median(setup_s)
        values["host_s"] = host_s
        values["host_rss_mb"] = median(untraced, lambda r: r["rss_mb"])
        for k in ("sim_ops_per_s", "sim_lat_p50_ns", "sim_lat_p99_ns", "paper_err"):
            if k in first["sim"]:
                values[k] = first["sim"][k]
    else:
        values.update(first["sim"])
        if first["events"] > 0:  # workloads that run their own event loop
            values["sim.host_ns_per_event"] = median(
                untraced, lambda r: r["event_host_s"] * 1e9 / max(r["events"], 1))
        traced_host = median(traced, lambda r: r["host_s"])
        values["trace.host_overhead"] = traced_host / host_s - 1
        t0 = traced[0] or {"spans": 0, "self": {}}
        values["trace.spans"] = t0["spans"]
        # Self time per span layer and per module (the layer up to its first
        # dot), per operation of the round.
        ops = max(first["ops"], 1.0)
        print("traced run: self time per span, per op (first traced round)")
        print("  %-16s %10s %16s %16s" % ("span", "count", "self sim ns", "self host ns"))
        modules = {}
        for layer, t in sorted(t0["self"].items()):
            print("  %-16s %10d %16.1f %16.1f" %
                  (layer, t["count"], t["sim_ns"] / ops, t["host_ns"] / ops))
            m = modules.setdefault(layer.split(".")[0], [0.0, 0.0])
            m[0] += t["sim_ns"]
            m[1] += t["host_ns"]
        for module, (sim_ns, host_ns) in modules.items():
            values["span.%s.self_sim_ns" % module] = sim_ns / ops
            values["span.%s.self_host_ns" % module] = host_ns / ops
        print("traced run: host %.4f s traced vs %.4f s untraced, overhead %+.2f%%" %
              (traced_host, host_s, 100 * values["trace.host_overhead"]))
    print("host_s per untraced round: " +
          " ".join("%.4f" % r["host_s"] for r in untraced if r is not None))
    print("rounds: %d untraced, %d traced, %d set-up samples, seed %d" %
          (len(untraced), len(traced), len([s for s in setup if s is not None]), args.seed))

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics, missing = {}, []
    for spec in specs:
        name = spec["name"]
        if values.get(name) is not None:
            metrics[name] = {"value": values[name], "unit": spec["unit"]}
            continue
        if args.workload not in doc["per_layer"].get(name, {}).get("not_observable", []):
            print("CHECK FAILED: the runner reported no %s" % name)
            failed += 1
        metrics[name] = {"value": 0, "unit": spec["unit"]}
        missing.append(name)

    units = {s["name"]: s["unit"] for s in bench["end_to_end"] + bench["per_layer"]}
    print("--- %s, seed %d, trace %d ---" % (args.workload, args.seed, args.trace))
    shown = dict(metrics)
    if not args.trace:
        # paper_err and fail_ratio are end-to-end too; they ride along here.
        for name in ("paper_err", "fail_ratio"):
            shown[name] = {"value": values[name], "unit": units[name]} if name in values else None
    for name, m in shown.items():
        if m is None:
            print("  %-32s %18s" % (name, "n/a (no paper reference)"))
        elif name in missing:
            print("  %-32s %18s" % (name, "n/a (not observable)"))
        else:
            print("  %-32s %18.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
