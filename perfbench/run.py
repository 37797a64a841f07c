"""Ring-solver benchmark: one workload run, or every workload with a report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a checkout. A single-workload run prints one line per
metric (name, value, unit, direction) and, as its last line, the JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics BENCHMARK.json lists, with --trace 1 its per-layer
metrics. `--workload all` runs every workload untraced and traced and
prints every end-to-end and per-layer metric, the self-time accounting of
the traced run, the tracing overhead and the baseline self-check.

Each workload run happens in a fresh interpreter (perfbench/workload.py)
with one BLAS/OpenMP thread. README.md says why each workload exists and
which end-to-end metric each layer metric moves.
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

from catalog import BASELINE, END_TO_END, PER_LAYER, WORKLOADS
from tracing import check_metric_name

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
# setup_s is the median of this many fresh-interpreter table builds: the
# workload process's own build plus SETUP_PROBES extra processes
SETUP_PROBES = 2
# a single-workload run ends within this many seconds or fails
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_benchmark():
    """Metric names BENCHMARK.json asks for, checked against the catalogue."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        bench = json.load(f)
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    for names, catalogue in ((e2e, END_TO_END), (layer, PER_LAYER)):
        for m in names:
            check_metric_name(m)
            if m not in catalogue:
                raise BenchError("BENCHMARK.json names unknown metric %r" % m)
    return e2e, layer


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # one BLAS/OpenMP thread: with two, the sparse solve inside
    # diagnostics_record varied 3.04-3.47 s between calls on a shared
    # 2-core machine, against 3.35-3.38 s with one
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, out_path, deadline):
    """Run workload.py with args in a fresh interpreter; return its record."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before %s" % " ".join(args))
    cmd = [sys.executable, os.path.join(HERE, "workload.py")] + args + \
        ["--out", out_path]
    t0 = time.monotonic()
    try:
        # the child's chatter (CLI progress lines) goes to our stderr so
        # that stdout ends with the result line
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                              stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("workload process exceeded the deadline")
    if proc.returncode != 0:
        raise BenchError("workload process exited with %d" % proc.returncode)
    with open(out_path) as f:
        rec = json.load(f)
    rec["wall_s"] = time.monotonic() - t0
    return rec


def measure(name, seed, seconds, trace, deadline):
    """Set-up probes plus whole repetitions of the workload: more
    repetitions run only while the next one is projected to end within
    `seconds` of measuring. A traced run makes one repetition."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=name + "-", dir=WORK_ROOT)
    try:
        setup = []
        for k in range(SETUP_PROBES):
            out = os.path.join(work, "probe%d.json" % k)
            rec = run_child(["--workload", name, "--setup-probe"], out,
                            deadline)
            setup.append(rec["setup_s"])
        reps = []
        t0 = time.monotonic()
        while True:
            rep_dir = os.path.join(work, "rep%d" % len(reps))
            os.makedirs(rep_dir)
            rec = run_child(["--workload", name, "--seed", str(seed),
                             "--trace", str(trace), "--work", rep_dir],
                            os.path.join(rep_dir, "record.json"), deadline)
            reps.append(rec)
            setup.append(rec["setup_s"])
            elapsed = time.monotonic() - t0
            if trace or elapsed + rec["wall_s"] > seconds \
                    or time.monotonic() + rec["wall_s"] > deadline:
                break
        if trace:
            shutil.copy(os.path.join(work, "rep0", "spans.json"),
                        os.path.join(WORK_ROOT, name + ".spans.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(reps, setup)


def summarize(reps, setup):
    """End-to-end metrics (medians over repetitions) and the counts."""
    per_rep = []
    for rec in reps:
        solves = rec["solves"]
        solve_s = sum(s["solve_s"] for s in solves)
        iterations = sum(s["iterations"] for s in solves)
        bad = sum(s["status"] != "ok" for s in solves)
        per_rep.append({
            "solve_s": solve_s,
            "diagnostics_s": sum(s.get("diagnostics_s", 0.0) for s in solves),
            "total_s": rec["total_s"],
            "iterations": iterations,
            "ms_per_iteration": solve_s * 1e3 / iterations
            if iterations else float("inf"),
            "peak_rss_mb": rec["peak_rss_mb"],
            "energy": sum(s["energy"] for s in solves),
            "solves_failed": bad / len(solves),
            "solves_ok_share": 1.0 - bad / len(solves),
        })
    metrics = {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
    metrics["setup_s"] = statistics.median(setup)
    solves = [s for rec in reps for s in rec["solves"]]
    # a solve that raised or failed its output check is a failed operation;
    # an iteration-capped solve with valid output is not, but it counts in
    # solves_failed
    failed = sum(s["status"] not in ("ok", "capped") for s in solves)
    # every repetition runs the same configs, so the exact outputs agree
    exact = {(r["iterations"], r["energy"]) for r in per_rep}
    return {
        "metrics": metrics,
        "attempted": len(solves),
        "failed": failed,
        "correct": failed == 0 and len(exact) == 1,
        "reps": reps,
    }


def self_check(name, seed, summary):
    """Compare the traced run's exact counts with the recorded baseline,
    one `match` or `MISMATCH` line per count. The baseline covers seed 0
    only."""
    if seed != 0:
        return ["skipped: the baseline covers seed 0 only"]
    base = BASELINE[name]
    rec = summary["reps"][0]
    got = {"iterations": summary["metrics"]["iterations"]}
    if "mass_evals_per_iter" in base:
        got["mass_evals_per_iter"] = \
            rec["layers"]["solver.mass_evals_per_iter"]
    out = []
    for key, want in base.items():
        # compared at the precision the baseline quotes
        digits = len(str(want).partition(".")[2])
        if round(got[key], digits) != want:
            out.append("MISMATCH %s: %s, baseline %s" % (key, got[key], want))
        else:
            out.append("match %s: %s (baseline %s)" % (key, got[key], want))
    return out


def metric_line(name, value, unit, better, note=""):
    return "%-32s %16.6f %-6s %-7s %s" % (name, value, unit, better, note)


def print_run(name, summary, trace):
    print("workload %s: %d solves, %d failed, statuses: %s" % (
        name, summary["attempted"], summary["failed"],
        ", ".join(s["status"] for r in summary["reps"] for s in r["solves"])))
    for key, (unit, better) in END_TO_END.items():
        print(metric_line(key, summary["metrics"][key], unit, better))
    if trace:
        rec = summary["reps"][0]
        if rec["missing_spans"]:
            print("spans not installed (their metrics read 0): %s"
                  % ", ".join(rec["missing_spans"]))
        for key, (unit, better, moves, where) in PER_LAYER.items():
            print(metric_line(key, rec["layers"][key], unit, better,
                              "moves %s on %s" % (moves, where)))


def result_line(summary, names, values, units):
    return json.dumps({
        "correct": bool(summary["correct"]),
        "attempted": int(summary["attempted"]),
        "failed": int(summary["failed"]),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in names},
    }, allow_nan=False)


def single(args, e2e, layer):
    deadline = time.monotonic() + DEADLINE_S
    summary = measure(args.workload, args.seed, args.seconds, args.trace,
                      deadline)
    print_run(args.workload, summary, args.trace)
    if args.trace:
        for line in self_check(args.workload, args.seed, summary):
            print("self-check " + line)
        values = summary["reps"][0]["layers"]
        units = {k: v[0] for k, v in PER_LAYER.items()}
        print(result_line(summary, layer, values, units))
    else:
        units = {k: v[0] for k, v in END_TO_END.items()}
        print(result_line(summary, e2e, summary["metrics"], units))
    return 0


def report_all(args):
    """Every workload untraced and traced, with the full report."""
    merged = {"correct": True, "attempted": 0, "failed": 0}
    values, units = {}, {}
    for name in WORKLOADS:
        plain = measure(name, args.seed, args.seconds, 0, float("inf"))
        traced = measure(name, args.seed, args.seconds, 1, float("inf"))
        print("=" * 78)
        print("%s: %s" % (name, WORKLOADS[name]["why"]))
        print_run(name, plain, 0)
        print("-- traced run")
        print_run(name, traced, 1)
        rec = traced["reps"][0]
        accounted = sum(t for _, t in rec["self_times"])
        layers = rec["layers"]
        print("-- self time by span (sums to traced total_s %.3f s)"
              % layers["trace.total_s"])
        for span, t in rec["self_times"]:
            print("   %-36s %10.3f s %6.1f%%" % (
                span, t, 100.0 * t / layers["trace.total_s"]))
        by_layer = {}
        for span, t in rec["self_times"]:
            layer = span.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + t
        print("   by layer: " + ", ".join(
            "%s %.3f s" % kv for kv in sorted(by_layer.items(),
                                              key=lambda kv: -kv[1])))
        print("   accounted %.3f s; unattributed (benchmark code outside "
              "any span) %.3f s" % (accounted, layers["trace.unattributed_s"]))
        print("   tracing overhead: traced total_s - untraced total_s = "
              "%.3f s (one run each; compare with the run-to-run spread)"
              % (traced["metrics"]["total_s"] - plain["metrics"]["total_s"]))
        for line in self_check(name, args.seed, traced):
            print("   self-check " + line)
        for s in (plain, traced):
            merged["correct"] = merged["correct"] and s["correct"]
            merged["attempted"] += s["attempted"]
            merged["failed"] += s["failed"]
        for key, (unit, _) in END_TO_END.items():
            values[name + "." + key] = plain["metrics"][key]
            units[name + "." + key] = unit
    print(result_line(merged, list(values), values, units))
    return 0


def main(argv=None):
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the workload process and the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vortexring",
                                       "__init__.py")):
        print("error: no package source at %s; run from a checkout of the "
              "repository" % os.path.join(ROOT, "src", "vortexring"),
              file=sys.stderr)
        return 2
    try:
        e2e, layer = load_benchmark()
        if args.workload == "all":
            return report_all(args)
        return single(args, e2e, layer)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
