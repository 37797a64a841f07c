"""Workload definitions, the seed rule, the metric catalogue and the
recorded baseline counts.

Nothing here imports the package under test, so the parent process can
validate arguments and metric names before anything is built.
"""

import math
import random

# Seed 0 runs exactly these configs. Any other seed multiplies each epsilon
# by exp(u), u uniform in [-JITTER_LOG, JITTER_LOG]; README.md records why
# the jitter is +-0.5% rather than a wider one.
JITTER_LOG = math.log(1.005)

WORKLOADS = {
    "solve-turkington-192": {
        "kind": "solve",
        "family": "turkington",
        "params": {"alpha": 1.0},
        "n": 192,
        "epsilons": (0.1,),
        "why": "multiplier-bound: solve_mu runs about 214 mass evaluations "
               "per outer iteration",
    },
    "solve-powerlaw-192": {
        "kind": "solve",
        "family": "power_law",
        "params": {"p": 1.0},
        "n": 192,
        "epsilons": (0.1,),
        "why": "operator-bound: the StreamOperator.apply einsum over the "
               "57 MB kernel table dominates each iteration",
    },
    "sweep-powerlaw-96": {
        "kind": "sweep",
        "family": "power_law",
        "params": {"p": 1.0},
        "n": 96,
        "epsilons": (0.2, 0.1, 0.05, 0.025),
        "why": "CLI sweep: one cached table for 4 solves, far-field "
               "diagnostics, result files, and two iteration-capped solves",
    },
}

# Exact counts recorded in ROADMAP.md for seed 0. The traced run compares
# its own counts against these and reports every mismatch.
BASELINE = {
    "solve-turkington-192": {"iterations": 250, "mass_evals_per_iter": 214},
    "solve-powerlaw-192": {"iterations": 348, "mass_evals_per_iter": 36.5},
    "sweep-powerlaw-96": {"iterations": 1407},
}


def workload_configs(name, seed):
    """The generated solve configs of one workload run, as plain dicts."""
    spec = WORKLOADS[name]
    rng = random.Random(seed)
    out = []
    for eps in spec["epsilons"]:
        if seed != 0:
            eps = eps * math.exp(rng.uniform(-JITTER_LOG, JITTER_LOG))
        out.append({"epsilon": eps, "family": spec["family"],
                    "params": dict(spec["params"]),
                    "n_r": spec["n"], "n_z": spec["n"]})
    return out


# name -> (unit, better). End-to-end metrics are those a user of the solver
# sees (README.md defines each); the run prints all of them, BENCHMARK.json
# bounds the ones every workload has.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "solve_s": ("s", "lower"),
    "diagnostics_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "iterations": ("count", "lower"),
    "ms_per_iteration": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "energy": ("1", "higher"),
    "solves_failed": ("ratio", "lower"),
    "solves_ok_share": ("ratio", "higher"),
}

# name -> (unit, better, end-to-end metric it should move, workload where
# it shows most). Filled by the traced run.
PER_LAYER = {
    "greens.table_build_s": ("s", "lower", "setup_s", "both 192 solves"),
    "greens.table_mb": ("MB", "lower", "peak_rss_mb", "both 192 solves"),
    "greens.apply_calls": ("count", "lower", "ms_per_iteration",
                           "solve-powerlaw-192"),
    "greens.apply_ms_p50": ("ms", "lower", "ms_per_iteration",
                            "solve-powerlaw-192"),
    "greens.apply_ms_p90": ("ms", "lower", "ms_per_iteration",
                            "solve-powerlaw-192"),
    "greens.apply_gbps_computed": ("GB/s", "higher", "ms_per_iteration",
                                   "solve-powerlaw-192"),
    "greens.fd_solve_s": ("s", "lower", "diagnostics_s", "sweep-powerlaw-96"),
    "greens.fd_cells": ("count", "lower", "peak_rss_mb", "sweep-powerlaw-96"),
    "profiles.eval_i_calls": ("count", "lower", "ms_per_iteration",
                              "solve-turkington-192"),
    "profiles.eval_i_s": ("s", "lower", "ms_per_iteration",
                          "solve-turkington-192"),
    "profiles.eval_J_s": ("s", "lower", "solve_s", "all"),
    "profiles.eval_dJds_s": ("s", "lower", "solve_s", "all"),
    "profiles.check_assumptions_s": ("s", "lower", "solve_s", "all"),
    "solver.solve_mu_calls": ("count", "lower", "iterations", "all"),
    "solver.solve_mu_ms_p50": ("ms", "lower", "ms_per_iteration",
                               "solve-turkington-192"),
    "solver.solve_mu_ms_p90": ("ms", "lower", "ms_per_iteration",
                               "solve-turkington-192"),
    "solver.mass_evals_per_iter": ("count", "lower", "ms_per_iteration",
                                   "solve-turkington-192"),
    "solver.mu_search_capped_share": ("ratio", "lower", "ms_per_iteration",
                                      "solve-turkington-192"),
    "solver.energy_s": ("s", "lower", "solve_s", "all"),
    "solver.kkt_s": ("s", "lower", "solve_s", "all"),
    "solver.run_self_s": ("s", "lower", "solve_s", "all"),
    "solver.iterations_capped": ("count", "lower", "iterations",
                                 "sweep-powerlaw-96"),
    "rearrange.steiner_calls": ("count", "lower", "ms_per_iteration", "all"),
    "rearrange.steiner_s": ("s", "lower", "ms_per_iteration", "all"),
    "diagnostics.far_field_self_s": ("s", "lower", "diagnostics_s",
                                     "sweep-powerlaw-96"),
    "diagnostics.support_s": ("s", "lower", "diagnostics_s",
                              "sweep-powerlaw-96"),
    "diagnostics.far_field_rss_mb": ("MB", "lower", "peak_rss_mb",
                                     "sweep-powerlaw-96"),
    "grid.dump_field_csv_s": ("s", "lower", "total_s", "sweep-powerlaw-96"),
    "grid.csv_mb": ("MB", "lower", "total_s", "sweep-powerlaw-96"),
    "cli.solve_to_dir_self_s": ("s", "lower", "total_s", "sweep-powerlaw-96"),
    "trace.total_s": ("s", "lower", "total_s", "all"),
    "trace.unattributed_s": ("s", "lower", "total_s", "all"),
}
