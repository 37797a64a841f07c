"""Run one workload in this interpreter and write its raw record as JSON.

run.py starts this script in a fresh interpreter for every workload run:

    python3 perfbench/workload.py --workload NAME --seed N --trace 0|1 \
        --work DIR --out FILE
    python3 perfbench/workload.py --workload NAME --setup-probe --out FILE

The package is driven only through its public entry points: ProblemConfig,
make_generator, run, greens.get_stream_operator, grid.load_field_csv and
cli.main. With --trace 1 the public functions of each module are wrapped
from here (the package itself is not modified), every call records a span,
and the per-layer metrics are computed from the spans when the run ends.
"""

import argparse
import contextlib
import csv
import json
import os
import sys
import time
import types

from catalog import WORKLOADS, workload_configs
from checks import check_solve
from tracing import Tracer, maxrss_mb, tail_percentile

# span name -> (module, attribute path). Every place in the package that
# holds the same function object is patched, so calls through imported
# names (solver's `eval_i`, cli's `run`, ...) are recorded too.
TRACED = {
    "greens.StreamOperator.__init__": ("greens", "StreamOperator.__init__"),
    "greens.StreamOperator.apply": ("greens", "StreamOperator.apply"),
    "greens.get_stream_operator": ("greens", "get_stream_operator"),
    "greens.fd_solve": ("greens", "fd_solve"),
    "profiles.eval_i": ("profiles", "eval_i"),
    "profiles.eval_J": ("profiles", "eval_J"),
    "profiles.eval_dJds": ("profiles", "eval_dJds"),
    "profiles.check_assumptions": ("profiles", "check_assumptions"),
    "solver.run": ("solver", "run"),
    "solver.solve_mu": ("solver", "solve_mu"),
    "solver.energy": ("solver", "energy"),
    "solver.kkt_residual": ("solver", "kkt_residual"),
    "rearrange.steiner_symmetrize_z": ("rearrange", "steiner_symmetrize_z"),
    "diagnostics.diagnostics_record": ("diagnostics", "diagnostics_record"),
    "diagnostics.far_field_check": ("diagnostics", "far_field_check"),
    "diagnostics.support_stats": ("diagnostics", "support_stats"),
    "grid.dump_field_csv": ("grid", "dump_field_csv"),
    "cli.solve_to_dir": ("cli", "solve_to_dir"),
    "cli.main": ("cli", "main"),
}
RSS_SPANS = {"diagnostics.far_field_check"}
# cells of the padded box fd_solve returns its field on
RESULT_HOOKS = {"greens.fd_solve": lambda f: f.spec.n_r * f.spec.n_z}
# solve_mu bisects at most 300 times; a call that used (nearly) all of
# them did the most wasted work
MU_SEARCH_CAP = 300


def import_package():
    """The package modules, looked up by attribute at call time so that
    traced wrappers installed later are the ones called."""
    import vortexring
    from vortexring import (cli, diagnostics, greens, grid, profiles,
                            rearrange, solver)
    return types.SimpleNamespace(
        vortexring=vortexring, cli=cli, diagnostics=diagnostics,
        greens=greens, grid=grid, profiles=profiles, rearrange=rearrange,
        solver=solver)


def install_tracer(tracer, pkg):
    """Wrap every TRACED function; return the targets that were missing."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "vortexring" or n.startswith("vortexring.")]
    missing = []
    for span_name, (mod_name, path) in TRACED.items():
        owner = getattr(pkg, mod_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            missing.append(span_name)
            continue
        if isinstance(owner, type):
            sites = [(owner, attr)]
        else:
            sites = [(m, a) for m in modules for a, v in vars(m).items()
                     if v is fn]
        tracer.patch(span_name, fn, sites, track_rss=span_name in RSS_SPANS,
                     on_result=RESULT_HOOKS.get(span_name))
    return missing


def solve_one(pkg, cfg, span):
    """Run one solve through the public API and check its output."""
    rec = {"epsilon": cfg["epsilon"], "solve_s": 0.0, "iterations": 0,
           "energy": 0.0, "converged": False, "failures": []}
    t0 = time.perf_counter()
    try:
        problem = pkg.vortexring.ProblemConfig(
            epsilon=cfg["epsilon"], n_r=cfg["n_r"], n_z=cfg["n_z"])
        gen = pkg.vortexring.make_generator(cfg["family"], **cfg["params"])
        result = pkg.vortexring.run(problem, gen)
    except Exception as exc:  # counted as a failed solve, the run goes on
        rec["solve_s"] = time.perf_counter() - t0
        rec["status"] = "raised %s: %s" % (type(exc).__name__, exc)
        return rec
    rec["solve_s"] = time.perf_counter() - t0
    with span("perfbench.check"):
        zeta = result.state.zeta
        failures = check_solve(
            zeta.values, zeta.spec.nu_weights(), problem.epsilon,
            problem.kappa, problem.resolved_lambda(gen), result.state.mu,
            result.energy_trace, result.converged, result.kkt,
            problem.tol_mu)
    return _finish(rec, result.iterations, result.state.energy,
                   result.converged, failures)


def _finish(rec, iterations, energy, converged, failures):
    rec.update(iterations=int(iterations), energy=float(energy),
               converged=bool(converged), failures=failures)
    if failures:
        rec["status"] = "check failed: " + "; ".join(failures)
    else:
        rec["status"] = "ok" if converged else "capped"
    return rec


def sweep(pkg, configs, work_dir, span):
    """`vortexring sweep` through cli.main, then check every row from the
    files it wrote (sweep.csv, manifest.json, result.json, zeta.csv)."""
    first = configs[0]
    cfg = {"epsilons": [c["epsilon"] for c in configs],
           "grid": {"n_r": first["n_r"], "n_z": first["n_z"]},
           "profile": {"family": first["family"], **first["params"]}}
    cfg_path = os.path.join(work_dir, "sweep.json")
    out_dir = os.path.join(work_dir, "sweep_out")
    with open(cfg_path, "w") as f:
        json.dump(cfg, f)
    pkg.cli.main(["sweep", "--config", cfg_path, "--out", out_dir])
    return check_sweep(pkg, configs, out_dir, span)


def check_sweep(pkg, configs, out_dir, span):
    """One record per sweep config, read back from the sweep's files."""
    status = {}
    sweep_csv = os.path.join(out_dir, "sweep.csv")
    if os.path.exists(sweep_csv):
        with open(sweep_csv) as f:
            status = {float(r["epsilon"]): r["status"]
                      for r in csv.DictReader(f)}

    recs = []
    for c in configs:
        eps = c["epsilon"]
        rec = {"epsilon": eps, "solve_s": 0.0, "diagnostics_s": 0.0,
               "iterations": 0, "energy": 0.0, "converged": False,
               "failures": []}
        row_dir = os.path.join(out_dir, "eps_%g" % eps)
        row_status = status.get(eps, "missing from sweep.csv")
        if row_status not in ("converged", "nonconverged"):
            rec["status"] = "raised: %s" % row_status
            recs.append(rec)
            continue
        with span("perfbench.check"):
            with open(os.path.join(row_dir, "manifest.json")) as f:
                clock = json.load(f)["wall_clock_seconds"]
            with open(os.path.join(row_dir, "result.json")) as f:
                payload = json.load(f)
            out = payload["outcome"]
            problem = pkg.vortexring.ProblemConfig(
                epsilon=eps, n_r=c["n_r"], n_z=c["n_z"])
            gen = pkg.vortexring.make_generator(c["family"], **c["params"])
            spec = problem.domain_grid()
            zeta = pkg.grid.load_field_csv(
                spec, os.path.join(row_dir, "zeta.csv"))
            failures = check_solve(
                zeta.values, spec.nu_weights(), eps, problem.kappa,
                problem.resolved_lambda(gen), out["mu"],
                payload["energy_trace"], out["converged"],
                out["kkt_residual"], problem.tol_mu)
        rec["solve_s"] = float(clock["solve"])
        rec["diagnostics_s"] = float(clock["diagnostics"])
        recs.append(_finish(rec, out["iterations"], out["energy"],
                            out["converged"], failures))
    return recs


def run_workload(name, seed, work_dir, tracer=None):
    """Set up, solve and check one workload; return the raw record."""
    pkg = import_package()
    missing = install_tracer(tracer, pkg) if tracer else []
    span = tracer.span if tracer else (lambda _name: contextlib.nullcontext())
    spec = WORKLOADS[name]
    configs = workload_configs(name, seed)
    try:
        t0 = time.perf_counter()
        with span("workload"):
            grid = pkg.vortexring.ProblemConfig(
                epsilon=configs[0]["epsilon"], n_r=spec["n"],
                n_z=spec["n"]).domain_grid()
            ts = time.perf_counter()
            pkg.greens.get_stream_operator(grid)
            setup_s = time.perf_counter() - ts
            if spec["kind"] == "solve":
                solves = [solve_one(pkg, c, span) for c in configs]
            else:
                solves = sweep(pkg, configs, work_dir, span)
        total_s = time.perf_counter() - t0
    finally:
        if tracer:
            tracer.restore()
    rec = {"workload": name, "seed": seed, "configs": configs,
           "setup_s": setup_s, "total_s": total_s, "solves": solves,
           "peak_rss_mb": maxrss_mb()}
    if tracer:
        rec["missing_spans"] = missing
        rec["layers"] = layer_metrics(tracer, spec, solves, work_dir)
        rec["self_times"] = tracer.self_time_table()
    return rec


def layer_metrics(tracer, spec, solves, work_dir):
    """Per-layer metrics from the recorded spans (see catalog.PER_LAYER)."""
    n_r = n_z = spec["n"]
    table_bytes = n_r * n_r * (n_z + 1) * 8
    # one apply reads the real table and the transformed input and writes
    # the transformed output (complex, n_z + 1 frequencies per row)
    apply_bytes = table_bytes + 2 * n_r * (n_z + 1) * 16
    dur = tracer.durations()

    def samples(name):
        return [dur[i] for i in tracer.by_name(name)]

    def pct(name, q):
        xs = samples(name)
        return 1e3 * tail_percentile(xs, q)[0] if xs else 0.0

    apply_p50 = pct("greens.StreamOperator.apply", 0.5)
    mass_evals = tracer.child_counts("solver.solve_mu", "profiles.eval_i")
    fd_cells = sum(tracer.results.get(i, 0)
                   for i in tracer.by_name("greens.fd_solve"))
    rss = [tracer.rss_rise[i]
           for i in tracer.by_name("diagnostics.far_field_check")]
    csv_bytes = 0
    for root, _, files in os.walk(work_dir):
        csv_bytes += sum(os.path.getsize(os.path.join(root, f))
                         for f in files if f in ("zeta.csv", "psi.csv"))
    root_idx = tracer.by_name("workload")[0]
    return {
        "greens.table_build_s": tracer.total("greens.StreamOperator.__init__"),
        "greens.table_mb": table_bytes / 1e6,
        "greens.apply_calls": len(samples("greens.StreamOperator.apply")),
        "greens.apply_ms_p50": apply_p50,
        "greens.apply_ms_p90": pct("greens.StreamOperator.apply", 0.9),
        "greens.apply_gbps_computed":
            apply_bytes / (apply_p50 * 1e-3) / 1e9 if apply_p50 else 0.0,
        "greens.fd_solve_s": tracer.total("greens.fd_solve"),
        "greens.fd_cells": fd_cells,
        "profiles.eval_i_calls": len(tracer.by_name("profiles.eval_i")),
        "profiles.eval_i_s": tracer.total("profiles.eval_i"),
        "profiles.eval_J_s": tracer.total("profiles.eval_J"),
        "profiles.eval_dJds_s": tracer.total("profiles.eval_dJds"),
        "profiles.check_assumptions_s":
            tracer.total("profiles.check_assumptions"),
        "solver.solve_mu_calls": len(mass_evals),
        "solver.solve_mu_ms_p50": pct("solver.solve_mu", 0.5),
        "solver.solve_mu_ms_p90": pct("solver.solve_mu", 0.9),
        "solver.mass_evals_per_iter":
            sum(mass_evals) / len(mass_evals) if mass_evals else 0.0,
        "solver.mu_search_capped_share":
            sum(m >= MU_SEARCH_CAP for m in mass_evals) / len(mass_evals)
            if mass_evals else 0.0,
        "solver.energy_s": tracer.total("solver.energy"),
        "solver.kkt_s": tracer.total("solver.kkt_residual"),
        "solver.run_self_s": tracer.self_total("solver.run"),
        "solver.iterations_capped":
            sum(s["status"] == "capped" for s in solves),
        "rearrange.steiner_calls":
            len(tracer.by_name("rearrange.steiner_symmetrize_z")),
        "rearrange.steiner_s": tracer.total("rearrange.steiner_symmetrize_z"),
        "diagnostics.far_field_self_s":
            tracer.self_total("diagnostics.far_field_check"),
        "diagnostics.support_s": tracer.total("diagnostics.support_stats"),
        "diagnostics.far_field_rss_mb": sum(rss),
        "grid.dump_field_csv_s": tracer.total("grid.dump_field_csv"),
        "grid.csv_mb": csv_bytes / 1e6,
        "cli.solve_to_dir_self_s": tracer.self_total("cli.solve_to_dir"),
        "trace.total_s": dur[root_idx],
        "trace.unattributed_s": tracer.self_times()[root_idx],
    }


def setup_probe(name):
    """Time one greens.get_stream_operator build in a fresh interpreter."""
    pkg = import_package()
    cfg = workload_configs(name, 0)[0]
    grid = pkg.vortexring.ProblemConfig(
        epsilon=cfg["epsilon"], n_r=cfg["n_r"], n_z=cfg["n_z"]).domain_grid()
    t0 = time.perf_counter()
    pkg.greens.get_stream_operator(grid)
    return {"setup_s": time.perf_counter() - t0}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-probe", action="store_true")
    args = p.parse_args(argv)
    if args.setup_probe:
        rec = setup_probe(args.workload)
    else:
        if args.work is None:
            p.error("--work is required for a workload run")
        tracer = Tracer() if args.trace else None
        rec = run_workload(args.workload, args.seed, args.work, tracer)
        if tracer:
            spans = [[n, s, e, q] for n, s, e, q in zip(
                tracer.names, tracer.starts, tracer.ends, tracer.parents)]
            with open(os.path.join(args.work, "spans.json"), "w") as f:
                json.dump(spans, f)
    with open(args.out, "w") as f:
        json.dump(rec, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
