#!/usr/bin/env python3
"""Checks that the working tree simulates exactly what <git-ref> simulates.

    python3 tools/sim_identity.py <git-ref> [--workdir DIR] [--jobs N]

Run it from anywhere inside a source checkout. It exports <git-ref> with
`git archive` into a temporary directory (read-only on the repository: no
worktree is registered, so an interrupted run leaves nothing behind in
.git), builds that tree and the working tree side by side there, and then
compares:

  1. the 10 deterministic benches, run with `--json --metrics`: every
     BENCH_<name>.json must be byte-identical. That is every bench except
     bench_s531_unwind, which times host exceptions;
  2. the repository benchmark's runner, `dipcbench --mode round`, for the
     calls, stream, fabric and oltp workloads at seeds 1 and 1009: the
     `sim`, `report` and `events` fields of its JSON must be equal. The
     other fields are host measurements.

It exits 0 when everything matches, 1 at the first difference (after
printing it) and 2 when a build or a run fails. A host-side refactor or
optimisation that claims "same numbers" proves it with this script.
"""
import argparse
import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BENCHES = [
    "bench_chan_batch",
    "bench_chan_designpoints",
    "bench_fig1_breakdown",
    "bench_fig2_ipc_breakdown",
    "bench_fig5_sync_calls",
    "bench_fig6_argsize",
    "bench_fig7_driver",
    "bench_fig8_oltp",
    "bench_s75_ablation",
    "bench_table1_archcmp",
]
WORKLOADS = ["calls", "stream", "fabric", "oltp"]
SEEDS = [1, 1009]
ROUND_FIELDS = ["sim", "report", "events"]


class RunError(Exception):
    pass


def run(cmd, cwd=None, stdout=subprocess.DEVNULL):
    proc = subprocess.run(cmd, cwd=cwd, stdout=stdout, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RunError("%s (exit %d)\n%s" % (" ".join(cmd), proc.returncode, proc.stderr[-2000:]))
    return proc.stdout


def export_ref(ref, dest):
    """Writes the files of `ref` into `dest`."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", ref], stdout=subprocess.PIPE)
    tar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or tar.returncode != 0:
        raise RunError("cannot export %s" % ref)


def build(src, out, jobs):
    """Builds the benches of source tree `src` and its dipcbench runner under
    `out`; returns (bench directory, runner path)."""
    bench_dir = os.path.join(out, "main")
    runner_dir = os.path.join(out, "dipcbench")
    # Release-like flags, as the benches are normally built; warnings stay
    # warnings so an older ref still builds with a newer compiler.
    run(["cmake", "-S", src, "-B", bench_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
         "-DDIPC_WERROR=OFF"])
    run(["cmake", "--build", bench_dir, "-j", str(jobs), "--target"] + BENCHES)
    run(["cmake", "-S", os.path.join(src, "dipcbench"), "-B", runner_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run(["cmake", "--build", runner_dir, "-j", str(jobs)])
    return bench_dir, os.path.join(runner_dir, "dipcbench")


def run_bench(exe, cwd):
    """Runs one bench in its own directory; returns its JSON file's bytes."""
    os.makedirs(cwd)
    run([exe, "--json", "--metrics"], cwd=cwd)
    name = os.path.basename(exe)[len("bench_"):]
    with open(os.path.join(cwd, "BENCH_%s.json" % name), "rb") as f:
        return f.read()


def run_round(exe, workload, seed):
    out = run([exe, "--workload", workload, "--seed", str(seed), "--mode", "round"],
              stdout=subprocess.PIPE)
    try:
        result = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        raise RunError("dipcbench %s seed %d printed no result" % (workload, seed))
    return {k: result.get(k) for k in ROUND_FIELDS}


def first_diff(a, b):
    """The first line where two texts differ, as each side has it."""
    la, lb = a.splitlines(), b.splitlines()
    i = next((i for i, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))

    def line(lines):
        return lines[i][:300] if i < len(lines) else "<end of text>"

    return "  line %d\n  ref:          %s\n  working tree: %s" % (i + 1, line(la), line(lb))


def compare(pool, sides, workdir):
    """Yields (what, ok, detail) for every comparison, in a fixed order."""
    jobs = {}
    for bench in BENCHES:
        for side, (bench_dir, _) in sides.items():
            jobs[(bench, side)] = pool.submit(
                run_bench, os.path.join(bench_dir, bench), os.path.join(workdir, "run", side, bench))
    for workload in WORKLOADS:
        for seed in SEEDS:
            for side, (_, runner) in sides.items():
                jobs[((workload, seed), side)] = pool.submit(run_round, runner, workload, seed)

    for bench in BENCHES:
        ref, head = jobs[(bench, "ref")].result(), jobs[(bench, "head")].result()
        detail = "" if ref == head else first_diff(ref.decode(errors="replace"),
                                                   head.decode(errors="replace"))
        yield "%s --json --metrics" % bench, ref == head, detail
    for workload in WORKLOADS:
        for seed in SEEDS:
            ref = jobs[((workload, seed), "ref")].result()
            head = jobs[((workload, seed), "head")].result()
            for field in ROUND_FIELDS:
                a = json.dumps(ref[field], indent=1, sort_keys=True)
                b = json.dumps(head[field], indent=1, sort_keys=True)
                yield ("dipcbench %s seed %d %s" % (workload, seed, field), a == b,
                       "" if a == b else first_diff(a, b))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ref", help="git revision to compare the working tree against")
    ap.add_argument("--workdir", help="directory for the builds and runs, kept afterwards "
                    "(default: a new temporary directory, removed afterwards)")
    ap.add_argument("--jobs", type=int, default=2,
                    help="parallel build jobs and parallel runs (default 2)")
    args = ap.parse_args()

    workdir = args.workdir or tempfile.mkdtemp(prefix="sim_identity.")
    os.makedirs(workdir, exist_ok=True)
    status = 0
    try:
        ref_src = os.path.join(workdir, "src")
        if os.path.exists(ref_src):
            shutil.rmtree(ref_src)
        export_ref(args.ref, ref_src)
        sides = {}
        for side, src in (("ref", ref_src), ("head", ROOT)):
            print("building %s ..." % ("the working tree" if side == "head" else args.ref),
                  flush=True)
            sides[side] = build(src, os.path.join(workdir, "build", side), args.jobs)
        shutil.rmtree(os.path.join(workdir, "run"), ignore_errors=True)
        with concurrent.futures.ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
            for what, ok, detail in compare(pool, sides, workdir):
                print("%-44s %s" % (what, "same" if ok else "DIFFERENT"), flush=True)
                if not ok:
                    print(detail)
                    status = 1
                    pool.shutdown(wait=True, cancel_futures=True)  # skip the runs not started
                    break
    except RunError as e:
        print("sim_identity: %s" % e, file=sys.stderr)
        status = 2
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    if status == 0:
        print("simulated results identical to %s" % args.ref)
    return status


if __name__ == "__main__":
    sys.exit(main())
