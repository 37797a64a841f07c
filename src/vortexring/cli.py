"""Command line front end: single solves, epsilon sweeps, validation
suites, and sweep reports.

Configs are JSON, field dumps are CSV, summaries are JSON. Solver output
is deterministic for a fixed config and package version, and result.json
is byte-identical across reruns; manifest.json carries wall-clock timings
and is the one file excluded from that guarantee.

Exit codes: 0 success (and convergence for `solve`), 2 a solve ran but
did not converge (files are still written), 1 configuration or usage
error.
"""

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import ConfigurationError, complaint
from .grid import dump_field_csv
from .profiles import FAMILIES, make_generator
from .solver import FIELDS, ProblemConfig, check_problem, run
from . import diagnostics as dg


# each family's parameter key; the numeric ones get rows like FIELDS', with
# no ProblemConfig field: they are passed on to make_generator as given
_PARAMETERS = {"profile." + name: law for name, law in FAMILIES.values()}
_PROFILE_NUMBERS = {key: (None, 0.0, None, False)
                    for key, law in _PARAMETERS.items() if law}
_SOLVE_KEYS = {*FIELDS, *_PARAMETERS, "profile.family"}
_SWEEP_KEYS = (_SOLVE_KEYS - {"epsilon"}) | {"epsilons"}
_SECTIONS = {key.partition(".")[0] for key in _SOLVE_KEYS if "." in key}


def _flatten(cfg):
    """cfg with each section's keys lifted to "section.key"; a section
    that is not an object stays under its own name."""
    flat = {}
    for key, v in cfg.items():
        if key in _SECTIONS and isinstance(v, dict):
            flat.update((key + "." + k, x) for k, x in v.items())
        else:
            flat[key] = v
    return flat


def validate_config(cfg, allowed, require):
    """Schema check raising one ConfigurationError, a line per complaint."""
    if not isinstance(cfg, dict):
        raise ConfigurationError("config root must be a JSON object")
    flat = _flatten(cfg)
    # a dotted key at the top level would pass for a section's key
    unknown = (set(flat) - allowed) | {key for key in cfg if "." in key}
    errors = ["%s: %s" % (key, "must be an object, got %r" % (flat[key],)
                          if key in _SECTIONS else "unknown key")
              for key in sorted(unknown)]
    errors += ["%s: required key is missing" % key
               for key in require if key not in flat]
    rows = {**FIELDS, **_PROFILE_NUMBERS}
    for key, (field, lo, hi, integer) in rows.items():
        # null stands for a field whose default is None (Lambda)
        null_ok = field and getattr(ProblemConfig, field, 0) is None
        if key in flat and not (flat[key] is None and null_ok):
            why = complaint(flat[key], lo, hi, integer)
            if why:
                errors.append("%s: %s" % (key, why))
    if "epsilons" in flat:
        eps = flat["epsilons"]
        if (not isinstance(eps, list) or not eps
                or any(complaint(e, *FIELDS["epsilon"][1:]) for e in eps)):
            errors.append("epsilons: must be a nonempty list of numbers in "
                          "(0, 1), got %r" % (eps,))
        else:
            # sweep writes the row of each distinct epsilon to eps_%g
            dirs = {}
            for e in dict.fromkeys(eps):
                first = dirs.setdefault("eps_%g" % e, e)
                if first != e:
                    errors.append("epsilons: %r and %r would both write %s"
                                  % (first, e, "eps_%g" % e))
    fam = flat.get("profile.family", "power_law")
    if not isinstance(fam, str) or fam not in FAMILIES:
        errors.append("profile.family: must be one of %s, got %r"
                      % ("/".join(FAMILIES), fam))
    else:
        # a family takes its own parameter and no other; the table family
        # has no default for its table_path
        name, law = FAMILIES[fam]
        errors += ["%s: not a parameter of family %r" % (key, fam)
                   for key in sorted(set(_PARAMETERS) & set(flat))
                   if key != "profile." + name]
        if not law and "profile." + name not in flat:
            errors.append("profile.%s: required for the %s family"
                          % (name, fam))
    if not isinstance(flat.get("profile.table_path", ""), str):
        errors.append("profile.table_path: must be a string")
    if errors:
        raise ConfigurationError("\n".join(errors))


def build_problem(cfg):
    """ProblemConfig + GeneratorPair from a validated config dict."""
    flat = _flatten(cfg)
    kwargs = {field: int(flat[key]) if integer else flat[key]
              for key, (field, _, _, integer) in FIELDS.items()
              if key in flat}
    pspec = dict(cfg.get("profile", {}))
    gen = make_generator(pspec.pop("family", "power_law"), **pspec)
    return ProblemConfig(**kwargs), gen


def _config_echo(problem, gen, profile_cfg):
    """The solve config that rebuilds problem and gen."""
    echo = {"profile": {**profile_cfg, "family": gen.family}}
    for key, (field, *_) in FIELDS.items():
        section, _, name = key.rpartition(".")
        into = echo.setdefault(section, {}) if section else echo
        into[name] = getattr(problem, field)
    return echo


def _grid_hash(spec):
    # the interpreter's own SHA-256, which hashlib falls back to, so that
    # writing a manifest loads no OpenSSL; hashlib only where it has none
    try:
        from _sha2 import sha256  # CPython >= 3.12
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10-3.11
        except ImportError:
            from hashlib import sha256
    h = sha256()
    h.update(np.ascontiguousarray(spec.r_centers).tobytes())
    h.update(np.ascontiguousarray(spec.z_centers).tobytes())
    return h.hexdigest()


@contextlib.contextmanager
def _atomic_open(path):
    """A text file to write path through: a temporary that replaces path
    when the block ends, and is removed, leaving path as it was, when the
    block raises."""
    tmp = path + ".tmp"
    f = open(tmp, "w")
    try:
        with f:
            yield f
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)


def _atomic_write(path, data):
    with _atomic_open(path) as f:
        f.write(data)


def _json_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def solve_to_dir(problem, gen, gen_cfg, out_dir):
    """Run one solve, write result.json / zeta.csv / psi.csv /
    manifest.json into out_dir, and return (result, record). out_dir is
    created only once the solve has returned, so a rejected config
    leaves nothing behind."""
    stages = {}
    t0 = time.perf_counter()
    result = run(problem, gen)
    stages["solve"] = time.perf_counter() - t0
    os.makedirs(out_dir, exist_ok=True)

    t0 = time.perf_counter()
    record = dg.diagnostics_record(result)
    stages["diagnostics"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    payload = {
        "version": __version__,
        "config": _config_echo(problem, gen, gen_cfg),
        "outcome": {
            "converged": result.converged,
            "stop_reason": result.stop_reason,
            "iterations": result.iterations,
            "mu": result.state.mu,
            "energy": result.state.energy,
            "kkt_residual": result.kkt,
            "patch_measure": result.patch_measure,
            "mass": result.mass,
            "degenerate_epsilon": problem.degenerate_epsilon,
        },
        "diagnostics": vars(record),
        "energy_trace": [float(x) for x in result.energy_trace],
        "mu_trace": [float(x) for x in result.mu_trace],
        "l1_change_trace": [float(x) for x in result.l1_change_trace],
        "support_trace": [int(x) for x in result.support_trace],
        "mass_evals_trace": [int(x) for x in result.mass_evals_trace],
        "apply_rows_trace": [int(x) for x in result.apply_rows_trace],
    }
    # one file at a time, each field streamed row by row
    _atomic_write(os.path.join(out_dir, "result.json"), _json_dumps(payload))
    for name, fld in (("zeta.csv", result.state.zeta),
                      ("psi.csv", result.state.psi)):
        with _atomic_open(os.path.join(out_dir, name)) as f:
            dump_field_csv(fld, f)
    stages["write"] = time.perf_counter() - t0

    manifest = {
        "version": __version__,
        "config": payload["config"],
        "grid_sha256": _grid_hash(result.state.zeta.spec),
        "files": ["psi.csv", "result.json", "zeta.csv", "manifest.json"],
        "wall_clock_seconds": {k: round(v, 6) for k, v in stages.items()},
        "layer_seconds": {k: round(v, 6)
                          for k, v in result.layer_seconds.items()},
    }
    _atomic_write(os.path.join(out_dir, "manifest.json"),
                  _json_dumps(manifest))
    return result, record


def _load_config(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        raise ConfigurationError("cannot read config %s: %s"
                                 % (path, exc.strerror))
    except json.JSONDecodeError as exc:
        raise ConfigurationError("config %s is not valid JSON: %s"
                                 % (path, exc))


def resolve_out_dir(arg):
    return arg or os.environ.get("RING_DESING_OUT") or "out"


def cmd_solve(args):
    cfg = _load_config(args.config)
    validate_config(cfg, _SOLVE_KEYS, require=("epsilon",))
    problem, gen = build_problem(cfg)
    out_dir = resolve_out_dir(args.out)
    result, _ = solve_to_dir(problem, gen, cfg.get("profile", {}), out_dir)
    if not result.converged:
        print("solve did not converge: stop_reason %s after %d iterations "
              "(results written to %s)"
              % (result.stop_reason, result.iterations, out_dir),
              file=sys.stderr)
        return 2
    print("converged in %d iterations; results in %s"
          % (result.iterations, out_dir))
    return 0


# sweep.csv columns in order, each with the key its cell is read from:
# epsilon, log_inv_eps and status are the row's own, diam_over_eps is
# derived, and the rest come from the solve's diagnostics record (nan
# when the solve failed)
_SWEEP = {
    "epsilon": "epsilon", "log_inv_eps": "log_inv_eps", "mu": "mu",
    "E": "energy", "R_center": "center_r", "theta_minus": "theta_minus",
    "theta_plus": "theta_plus", "diam": "diam_supp",
    "diam_over_eps": "diam_over_eps", "dist_to_ring": "dist_to_ring",
    "mass": "mass", "kkt_residual": "kkt_residual",
    "patch_measure": "patch_measure", "simply_connected": "simply_connected",
    "far_vz": "far_field_vz", "core_radius": "core_radius",
    "support_on_edge": "support_on_edge", "status": "status",
}
SWEEP_COLUMNS = list(_SWEEP)


def _csv_text(rows):
    """CSV text of a header row and then the cell rows: floats in %.17g,
    booleans in lowercase, anything else as str."""
    return "".join(",".join(
        str(v).lower() if isinstance(v, bool) else
        "%.17g" % v if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in rows)


def cmd_sweep(args):
    cfg = _load_config(args.config)
    validate_config(cfg, _SWEEP_KEYS, require=("epsilons",))
    eps_list = [float(e) for e in cfg["epsilons"]]
    for i, e in enumerate(eps_list):
        if e in eps_list[:i]:
            print("warning: duplicate epsilon %g dropped" % e, file=sys.stderr)
    eps_list = sorted(set(eps_list), reverse=True)
    # one problem and generator for every row, checked before any write
    problem, gen = build_problem({**cfg, "epsilon": eps_list[0]})
    check_problem(problem, gen)
    out_dir = resolve_out_dir(args.out)
    os.makedirs(out_dir, exist_ok=True)
    gen_cfg = cfg.get("profile", {})

    def one(eps):
        row = {"epsilon": eps, "log_inv_eps": float(np.log(1.0 / eps))}
        try:
            _, record = solve_to_dir(
                dataclasses.replace(problem, epsilon=eps), gen, gen_cfg,
                os.path.join(out_dir, "eps_%g" % eps))
            row.update(vars(record), diam_over_eps=record.diam_supp / eps,
                       status="converged" if record.converged
                       else "nonconverged")
        except Exception as exc:  # recorded per row, sweep continues
            row["status"] = "error: %s" % str(exc).replace(",", ";")
        return row

    rows = [one(e) for e in eps_list]

    _atomic_write(os.path.join(out_dir, "sweep.csv"), _csv_text(
        [SWEEP_COLUMNS] + [[row.get(key, "nan") for key in _SWEEP.values()]
                           for row in rows]))
    n_bad = sum(1 for r in rows if r["status"].startswith("error"))
    print("sweep wrote %d rows to %s (%d failed)"
          % (len(rows), os.path.join(out_dir, "sweep.csv"), n_bad))
    return 1 if n_bad == len(rows) else 0


def cmd_report(args):
    cfg = _load_config(args.config) if args.config else {}
    if cfg:
        validate_config(cfg, _SWEEP_KEYS | {"epsilon"}, require=())
    kappa = float(cfg.get("kappa", ProblemConfig.kappa))
    w_speed = float(cfg.get("W", ProblemConfig.W))
    out_dir = resolve_out_dir(args.out)
    sweep_path = os.path.join(out_dir, "sweep.csv")
    try:
        with open(sweep_path) as f:
            rows = list(csv.DictReader(f))
    except OSError as exc:
        raise ConfigurationError("cannot read %s: %s"
                                 % (sweep_path, exc.strerror))
    good = [r for r in rows if r.get("status") == "converged"]
    if len(good) < 3:
        raise ConfigurationError("need at least 3 converged sweep rows, "
                                 "found %d" % len(good))
    eps = np.array([float(r["epsilon"]) for r in good])
    mus = np.array([float(r["mu"]) for r in good])
    ens = np.array([float(r["E"]) for r in good])
    ehat = np.array([float(r["core_radius"]) for r in good])
    fit = dg.asymptotic_fit(eps, mus, ens)
    pred_mu, pred_e = dg.predicted_slopes(kappa, w_speed)
    kh = dg.kelvin_hicks_check(eps, ehat, kappa, w_speed)
    payload = {
        "version": __version__,
        "kappa": kappa,
        "W": w_speed,
        "n_points": len(good),
        "fit": vars(fit),
        "predicted": {"slope_mu": pred_mu, "slope_E": pred_e},
        "relative_error": {
            "slope_mu": abs(fit.slope_mu - pred_mu) / abs(pred_mu),
            "slope_E": abs(fit.slope_E - pred_e) / abs(pred_e),
        },
        "kelvin_hicks": kh,
    }
    _atomic_write(os.path.join(out_dir, "report.json"),
                  _json_dumps(payload))
    print("report written to %s" % os.path.join(out_dir, "report.json"))
    return 0


def _validate_greens(seed):
    from scipy.fft import dct
    from .greens import (StreamOperator, build_kernel_block, kernel_bound,
                         kernel_closed_form, kernel_quadrature,
                         expansion_remainder, sigma)
    from .grid import build_grid
    rng = np.random.default_rng(seed)
    rows = []
    worst = 0.0
    bound_ok = True
    four_pi_violations = 0
    while len(rows) < 200:
        r, rp = rng.uniform(0.5, 2.0, 2)
        z, zp = rng.uniform(-1.0, 1.0, 2)
        if sigma(r, z, rp, zp) < 1e-6:
            continue
        closed = kernel_closed_form(r, z, rp, zp).value
        quad = kernel_quadrature(r, z, rp, zp).value
        rel = abs(closed - quad) / abs(quad)
        worst = max(worst, rel)
        if not (0.0 < closed <= kernel_bound(r, z, rp, zp, coef=0.5)
                * (1 + 1e-12)):
            bound_ok = False
        quarter_bound = kernel_bound(r, z, rp, zp, coef=0.25)
        if closed > quarter_bound:
            four_pi_violations += 1
        rows.append((r, z, rp, zp, sigma(r, z, rp, zp), quad, closed, rel,
                     quarter_bound))

    def rem_sup(n):
        rr = rng.uniform(0.5, 2.0, (n, 2))
        zz = rng.uniform(-1.0, 1.0, (n, 2))
        keep = sigma(rr[:, 0], zz[:, 0], rr[:, 1], zz[:, 1]) > 1e-9
        vals = expansion_remainder(rr[keep, 0], zz[keep, 0],
                                   rr[keep, 1], zz[keep, 1])
        return float(np.max(np.abs(vals)))

    coarse, fine = rem_sup(100), rem_sup(400)

    # the even apply against its explicit-summation oracle on a non-square
    # grid, on fields on a band of source rows: on every z-row, on two; also
    # on target rows across the band's edge, and the bound on every row
    op = StreamOperator(build_grid(0.5, 2.0, -1.0, 1.0, 16, 20))
    wide, narrow = np.zeros((2, 16, 10))
    wide[3:11] = rng.uniform(0.0, 1.0, (8, 20))[:, 10:]
    narrow[3:11, :2] = rng.uniform(0.0, 1.0, (8, 2))
    op_diff, window_diff, row_bound_ok = 0.0, 0.0, True
    # the table against the weighted DCT-I of the block of ordered pairs, on
    # the n_z frequencies it holds
    block = build_kernel_block(op.spec)
    symmetric = bool(np.array_equal(block, block.transpose(1, 0, 2)))
    ref = dct(np.concatenate((block.T, np.zeros((1, 16, 16)))), type=1,
              axis=0)[:-1]
    ref *= (op.spec.r_centers * op.spec.cell_area)[:, None]
    table_diff = float(np.max(np.abs(op._table - ref)) / np.max(np.abs(ref)))
    for upper in (wide, narrow):
        direct = op.apply_direct(np.hstack((upper[:, ::-1], upper)))[:, 10:]
        scale = np.max(np.abs(direct))
        err = np.max(np.abs(op.apply_even(upper) - direct))
        op_diff = max(op_diff, float(err / scale))
        err = np.max(np.abs(op.apply_even(upper, rows=(8, 14)) - direct)[8:14])
        window_diff = max(window_diff, float(err / scale))
        row_bound_ok &= bool(np.all(direct.max(axis=1) <= op.row_bound(upper)))
    summary = {
        "pairs": len(rows),
        "max_rel_diff": worst,
        "closed_vs_quadrature_ok": bool(worst <= 1e-10),
        "positive_and_under_halfpi_bound": bool(bound_ok),
        "quarter_pi_bound_violations": int(four_pi_violations),
        "remainder_sup_coarse": coarse,
        "remainder_sup_fine": fine,
        "remainder_bounded": bool(fine <= 1.05 * max(coarse, 1e-12)),
        "operator_max_rel_diff": op_diff,
        "operator_vs_direct_ok": bool(op_diff <= 1e-12),
        "window_max_rel_diff": window_diff,
        "row_bound_ok": row_bound_ok,
        "kernel_symmetric_ok": symmetric,
        "table_vs_block_max_rel_diff": table_diff,
    }
    summary["pass"] = bool(summary["closed_vs_quadrature_ok"]
                           and bound_ok and summary["remainder_bounded"]
                           and summary["operator_vs_direct_ok"]
                           and window_diff <= 1e-12 and row_bound_ok
                           and symmetric and table_diff <= 1e-15)
    return summary, _csv_text(
        ["r,z,rp,zp,sigma,K_quad,K_closed,rel_err,bound".split(",")] + rows)


def _validate_profiles(seed):
    from .profiles import (check_assumptions, eval_I, eval_J, eval_J_numeric,
                           eval_dJds, eval_i)
    rng = np.random.default_rng(seed)
    t13 = np.linspace(0.0, 60.0, 13)
    families = [("%s(%s=%g)" % (fam, FAMILIES[fam][0], v),
                 make_generator(fam, **{FAMILIES[fam][0]: v}))
                for fam, v in (("power_law", 1.0), ("power_law", 2.0),
                               ("turkington", 1.0), ("beltrami", 1.0),
                               ("mixed", 1.0))]
    # last, so the seeded draws of the families above stay put
    families.append(("table(13-node power_law p=1)", make_generator(
        "table", table=(t13, np.zeros(13), t13))))
    out = {}
    for name, gen in families:
        rs = rng.uniform(0.5, 2.0, 24)
        ts = rng.uniform(1e-3, 8.0, 24)
        svals = eval_i(gen, rs, ts)
        ok_pos = svals > gen.g0plus * (1 + 1e-9) + 1e-12
        jc = eval_J(gen, rs, svals)
        jn = np.array([eval_J_numeric(gen, r, s)
                       for r, s in zip(rs, svals)])
        scale = np.maximum(np.abs(jc), 1e-12)
        j_err = float(np.max(np.abs(jc - jn) / scale))
        back = eval_dJds(gen, rs[ok_pos], svals[ok_pos])
        round_err = float(np.max(np.abs(back - ts[ok_pos])
                                 / np.maximum(ts[ok_pos], 1e-12))) \
            if np.any(ok_pos) else 0.0
        fy = np.abs(jc - (ts * svals - eval_I(gen, rs, ts)))
        fy_err = float(np.max(fy / np.maximum(np.abs(jc), 1e-9)))
        checks = check_assumptions(gen, n_sample=120)
        out[name] = {
            "closed_vs_numeric_J": j_err,
            "inverse_roundtrip": round_err,
            "fenchel_young": fy_err,
            "assumptions": bool(checks["all_pass"]),
            "pass": bool(j_err <= 1e-6 and round_err <= 1e-8
                         and fy_err <= 1e-8 and checks["all_pass"]),
        }
    return out, all(entry["pass"] for entry in out.values())


def _validate_bathtub(seed):
    from .rearrange import MeasureSpace, bathtub_maximize
    rng = np.random.default_rng(seed)
    worst = 0.0
    structure_ok = True
    trials = 200
    for _ in range(trials):
        n = int(rng.integers(2, 11))
        w = rng.uniform(0.2, 2.0, n)
        h = np.round(rng.uniform(-1.0, 3.0, n), 1)
        cap = rng.uniform(0.05, 0.95) * float(np.sum(w))
        space = MeasureSpace(weights=w, values=h, capacity=cap)
        sol = bathtub_maximize(space)
        best = _bathtub_brute(w, h, cap)
        worst = max(worst, abs(sol.value - best))
        lvl = sol.level
        om = sol.omega
        if np.any((h > max(lvl, 0.0)) & (om < 1 - 1e-12)):
            structure_ok = False
        if np.any((h < lvl) & (om > 1e-12)):
            structure_ok = False
        if lvl > 0 and abs(float(np.sum(om * w)) - cap) > 1e-9 * (1 + cap):
            structure_ok = False
    return {
        "trials": trials,
        "max_value_gap": worst,
        "structure_ok": bool(structure_ok),
        "pass": bool(worst <= 1e-12 and structure_ok),
    }


def _bathtub_brute(w, h, cap):
    """Exact LP optimum by vertex enumeration: full cells on a subset,
    at most one fractional cell."""
    n = len(w)
    masks = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
    wsum = masks @ w
    gain = masks @ (h * w)  # objective is the weighted integral of omega h
    feas = wsum <= cap * (1 + 1e-12)
    best = float(np.max(np.where(feas, gain, -np.inf)))
    for j in range(n):
        free = (masks[:, j] == 0) & feas
        frac = np.clip((cap - wsum[free]) / w[j], 0.0, 1.0)
        vals = gain[free] + frac * h[j] * w[j]
        if vals.size:
            best = max(best, float(np.max(vals)))
    return best


def cmd_validate(args):
    suites = ("greens", "profiles", "bathtub")
    name = args.suite
    if name not in suites + ("all",):
        raise ConfigurationError("unknown suite %r; choose from %s or all"
                                 % (name, "/".join(suites)))
    chosen = suites if name == "all" else (name,)
    out_dir = resolve_out_dir(args.out)
    os.makedirs(out_dir, exist_ok=True)
    summary = {"version": __version__, "seed": args.seed}
    ok = True
    for suite in chosen:
        if suite == "greens":
            res, kernel_csv = _validate_greens(args.seed)
            _atomic_write(os.path.join(out_dir, "kernel_pairs.csv"),
                          kernel_csv)
        elif suite == "profiles":
            res, suite_ok = _validate_profiles(args.seed)
            res = {"families": res, "pass": suite_ok}
        else:
            res = _validate_bathtub(args.seed)
        summary[suite] = res
        ok = ok and res["pass"]
    summary["all_pass"] = bool(ok)
    _atomic_write(os.path.join(out_dir, "validation.json"),
                  _json_dumps(summary))
    print("validation %s; summary in %s"
          % ("passed" if ok else "FAILED",
             os.path.join(out_dir, "validation.json")))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="vortexring",
        description="Steady vortex ring solver and diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None,
                       help="output directory (default: $RING_DESING_OUT "
                            "or ./out)")

    p_solve = sub.add_parser("solve", help="run one solve from a JSON config")
    p_solve.add_argument("--config", required=True)
    add_common(p_solve)

    p_sweep = sub.add_parser("sweep", help="run an epsilon sweep")
    p_sweep.add_argument("--config", required=True)
    add_common(p_sweep)

    p_val = sub.add_parser("validate", help="run module validation suites")
    p_val.add_argument("suite", nargs="?", default="all")
    p_val.add_argument("--seed", type=int, default=0,
                       help="sampling seed for validation suites")
    add_common(p_val)

    p_rep = sub.add_parser("report", help="fit asymptotics on a sweep.csv")
    p_rep.add_argument("--config", default=None)
    add_common(p_rep)

    args = parser.parse_args(argv)
    handlers = {"solve": cmd_solve, "sweep": cmd_sweep,
                "validate": cmd_validate, "report": cmd_report}
    try:
        return handlers[args.command](args)
    except ConfigurationError as exc:
        for msg in str(exc).splitlines():
            print("config error: %s" % msg, file=sys.stderr)
        return 1
    except Exception as exc:  # surface a one-line failure, not a traceback
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
