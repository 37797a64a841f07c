"""End-to-end acceptance checks.

Each test is one numbered criterion (criteria five through seven run once
per profile family) and prints a single summary line with the measured
numbers; the assertion repeats the numbers so a failing criterion shows
exactly what was measured. Full-resolution sweeps are shared through
session fixtures.
"""

import time

import numpy as np
import pytest

from vortexring.cli import _bathtub_brute, _validate_profiles
from vortexring.diagnostics import (angular_variation, asymptotic_fit,
                                    center_of_vorticity, core_radius,
                                    far_field_check, kelvin_hicks_check,
                                    predicted_slopes, scaled_profile,
                                    support_on_edge, support_stats,
                                    topology_check, velocity_field)
from vortexring.greens import (apply_stream_operator, default_extended_box,
                               fd_solve, kernel_bound, kernel_closed_form,
                               kernel_quadrature, expansion_remainder,
                               restrict_to_grid, sigma)
from vortexring.grid import ScalarField, build_grid
from vortexring.profiles import make_generator
from vortexring.rearrange import MeasureSpace, bathtub_maximize
from vortexring.solver import ProblemConfig, run

EPSILONS = (0.2, 0.1, 0.05, 0.025)


def _report(label, ok, detail):
    tag = "PASS" if ok else "FAIL"
    line = "%s %s: %s" % (tag, label, detail)
    print(line)
    return line


def _sweep(family, **gen_kwargs):
    gen = make_generator(family, **gen_kwargs)
    t0 = time.perf_counter()
    rows = []
    for eps in EPSILONS:
        result = run(ProblemConfig(epsilon=eps), gen)
        zeta = result.state.zeta
        R, Z = center_of_vorticity(zeta)
        tm, tp, diam, dist = support_stats(zeta)
        supp = zeta.values > 0
        rows.append({
            "eps": eps,
            "result": result,
            "converged": result.converged,
            "kkt": result.kkt,
            "mass": result.mass,
            "patch": result.patch_measure,
            "mu": result.state.mu,
            "E": result.state.energy,
            "R": R,
            "Z": Z,
            "diam": diam,
            "dist": dist,
            "core_radius": core_radius(zeta),
            "edge_free": not (supp[0, :].any() or supp[-1, :].any()
                              or supp[:, 0].any() or supp[:, -1].any()),
            "even": bool(np.array_equal(zeta.values, zeta.values[:, ::-1])),
            "disc": topology_check(zeta),
        })
    elapsed = time.perf_counter() - t0
    return {"rows": rows, "elapsed": elapsed, "gen": gen}


@pytest.fixture(scope="session")
def sweep_power_law():
    return _sweep("power_law", p=1.0)


@pytest.fixture(scope="session")
def sweep_turkington():
    return _sweep("turkington", alpha=1.0)


def test_criterion_01_kernel_oracle():
    """The 1/(2 pi) envelope is sharp at every separation; the 1/(4 pi)
    one holds only for sigma >= 0.1631 (see greens.kernel_bound), so it
    is asserted on sigma >= 0.2 and its close-in excess only reported."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    made = 0
    max_rel = 0.0
    half_violations = 0
    half_worst = 0.0
    quarter_violations = 0
    quarter_worst = 0.0
    close_in_quarter_violations = 0
    while made < 1000:
        r, rp = rng.uniform(0.5, 2.0, 2)
        z, zp = rng.uniform(-1.0, 1.0, 2)
        s = sigma(r, z, rp, zp)
        if s < 1e-6:
            continue
        made += 1
        closed = kernel_closed_form(r, z, rp, zp).value
        quad = kernel_quadrature(r, z, rp, zp).value
        max_rel = max(max_rel, abs(closed - quad) / abs(quad))
        half = kernel_bound(r, z, rp, zp, coef=0.5)
        if not (0.0 < closed <= half):
            half_violations += 1
        if closed / half > half_worst:
            half_worst = closed / half
            example = (float(r), float(z), float(rp), float(zp), float(s))
        quarter = kernel_bound(r, z, rp, zp, coef=0.25)
        if s >= 0.2:
            quarter_violations += int(closed > quarter)
            quarter_worst = max(quarter_worst, closed / quarter)
        else:
            close_in_quarter_violations += int(closed > quarter)

    def rem_sup(n):
        rr = rng.uniform(0.5, 2.0, (n, 2))
        zz = rng.uniform(-1.0, 1.0, (n, 2))
        keep = sigma(rr[:, 0], zz[:, 0], rr[:, 1], zz[:, 1]) > 1e-9
        return float(np.max(np.abs(expansion_remainder(
            rr[keep, 0], zz[keep, 0], rr[keep, 1], zz[keep, 1]))))

    coarse, fine = rem_sup(200), rem_sup(800)
    elapsed = time.perf_counter() - t0
    agree_ok = max_rel <= 1e-10
    bound_ok = half_violations == 0 and quarter_violations == 0
    remainder_ok = fine <= 1.05 * coarse
    time_ok = elapsed <= 30.0
    ok = agree_ok and bound_ok and remainder_ok and time_ok
    detail = ("closed-vs-quadrature max rel %.2e (need <= 1e-10); "
              "0 < K <= sqrt(rr')/(2 pi) asinh(1/sigma) violated on "
              "%d/1000 pairs (need 0), worst K/bound = %.3f at "
              "(r,z,r',z',sigma) = %s; K <= sqrt(rr')/(4 pi) "
              "asinh(1/sigma) violated on %d pairs with sigma >= 0.2 "
              "(need 0), worst K/bound = %.3f; for information, %d pairs "
              "with sigma < 0.2 exceed the 1/(4 pi) form; remainder sup "
              "coarse %.4f fine %.4f (need fine <= 1.05 coarse); %.1f s "
              "(need <= 30)"
              % (max_rel, half_violations, half_worst,
                 tuple(round(v, 4) for v in example),
                 quarter_violations, quarter_worst,
                 close_in_quarter_violations, coarse, fine, elapsed))
    _report("criterion 1 (kernel oracle)", ok, detail)
    assert ok, detail


def test_criterion_02_cross_operator():
    t0 = time.perf_counter()
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 64, 64)
    rr = spec.r_centers[:, None]
    zz = spec.z_centers[None, :]
    patch = ScalarField(spec, np.where(np.hypot(rr - 1.0, zz) <= 0.25,
                                       1.0, 0.0))
    psi_k = apply_stream_operator(patch)
    errs = []
    for margin in (2.0, 4.0):
        box = default_extended_box(spec, margin_factor=margin,
                                   cells_per_unit=30.0, max_cells=1200)
        psi_fd = restrict_to_grid(fd_solve(patch, box=box), spec)
        num = float(np.sqrt(np.sum((psi_fd.values - psi_k.values) ** 2)))
        den = float(np.sqrt(np.sum(psi_k.values ** 2)))
        errs.append(num / den)
    elapsed = time.perf_counter() - t0
    ok = errs[0] <= 0.05 and errs[1] < errs[0] and elapsed <= 120.0
    detail = ("rel L2 error %.4f at base box, %.4f at doubled box "
              "(need <= 0.05 and decreasing); %.1f s (need <= 120)"
              % (errs[0], errs[1], elapsed))
    _report("criterion 2 (operator cross-validation)", ok, detail)
    assert ok, detail


def test_criterion_03_bathtub_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    structure_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 11))
        w = rng.uniform(0.2, 2.0, n)
        h = np.round(rng.uniform(-1.0, 3.0, n), 1)
        cap = rng.uniform(0.05, 0.95) * float(np.sum(w))
        sol = bathtub_maximize(MeasureSpace(weights=w, values=h,
                                            capacity=cap))
        worst = max(worst, abs(sol.value - _bathtub_brute(w, h, cap)))
        om = sol.omega
        lvl = sol.level
        if np.any((h > max(lvl, 0.0)) & (om < 1 - 1e-12)):
            structure_ok = False
        if np.any((h < lvl) & (om > 1e-12)):
            structure_ok = False
        if lvl > 0 and abs(float(np.sum(om * w)) - cap) > 1e-9 * (1 + cap):
            structure_ok = False
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and structure_ok and elapsed <= 5.0
    detail = ("max value gap vs brute force %.2e (need <= 1e-12); "
              "level/fill structure %s; %.1f s (need <= 5)"
              % (worst, "ok" if structure_ok else "VIOLATED", elapsed))
    _report("criterion 3 (bathtub equivalence)", ok, detail)
    assert ok, detail


def test_criterion_04_conjugacy_suite():
    t0 = time.perf_counter()
    table, all_ok = _validate_profiles(seed=0)
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed <= 30.0
    worst = {k: max(v["closed_vs_numeric_J"], v["inverse_roundtrip"],
                    v["fenchel_young"]) for k, v in table.items()}
    detail = ("families %s; worst per-family error %s; %.1f s (need <= 30)"
              % (",".join(sorted(table)),
                 ", ".join("%s=%.1e" % kv for kv in sorted(worst.items())),
                 elapsed))
    _report("criterion 4 (conjugacy suite)", ok, detail)
    assert ok, detail


def _criterion_05(sweep, label):
    rows = sweep["rows"]
    conv = [r["converged"] for r in rows]
    mass_rel = [abs(r["mass"] - 4 * np.pi) / (4 * np.pi) for r in rows]
    kkts = [r["kkt"] for r in rows]
    traces_ok = []
    for r in rows:
        tr = r["result"].energy_trace
        floor = -1e-9 * np.maximum(np.abs(tr[:-1]), 1.0)
        traces_ok.append(bool(np.all(np.diff(tr) >= floor)))
    patches = [r["patch"] for r in rows]
    inside = [r["edge_free"] for r in rows]
    even = [r["even"] for r in rows]
    monotone = []
    for r in rows:
        v = r["result"].state.zeta.values
        half = v.shape[1] // 2
        neg = v[:, :half][:, ::-1]
        pos = v[:, half:]
        monotone.append(bool(np.all(np.diff(neg, axis=1) <= 0)
                             and np.all(np.diff(pos, axis=1) <= 0)))
    elapsed = sweep["elapsed"]
    ok = (all(conv) and max(mass_rel) <= 1e-8 and all(traces_ok)
          and max(kkts) <= 1e-3 and max(patches) == 0.0 and all(inside)
          and all(even) and all(monotone) and elapsed <= 1200.0)
    detail = ("eps %s: converged %s; mass rel err %s (need <= 1e-8); "
              "trace nondecreasing %s; kkt %s (need <= 1e-3); patch "
              "measure %s (need 0); support inside box %s; even %s; "
              "column monotone %s; sweep %.0f s (need <= 1200)"
              % (list(EPSILONS), conv,
                 ["%.1e" % m for m in mass_rel], traces_ok,
                 ["%.1e" % k for k in kkts], patches, inside, even,
                 monotone, elapsed))
    line = _report("criterion 5 (%s solver invariants)" % label, ok, detail)
    print("criterion 5 (%s) support_on_edge per eps: %s" % (label, ", ".join(
        "%g %s" % (r["eps"], support_on_edge(r["result"].state.zeta))
        for r in rows)))
    assert ok, line


def test_criterion_05_solver_invariants_power_law(sweep_power_law):
    _criterion_05(sweep_power_law, "power_law")


def test_criterion_05_solver_invariants_turkington(sweep_turkington):
    _criterion_05(sweep_turkington, "turkington")


def _criterion_06(sweep, label):
    rows = sweep["rows"]
    r_err = [abs(r["R"] - 1.0) for r in rows]
    dists = [r["dist"] for r in rows]
    ratios = [r["diam"] / r["eps"] for r in rows]
    final_ok = r_err[-1] <= 0.15
    r_decreasing = all(b < a for a, b in zip(r_err, r_err[1:]))
    d_decreasing = all(b < a for a, b in zip(dists, dists[1:]))
    band_ok = max(ratios) / min(ratios) <= 2.0
    ok = final_ok and r_decreasing and d_decreasing and band_ok
    detail = ("|R - 1| %s (need final <= 0.15 and decreasing); "
              "dist_to_ring %s (need decreasing); diam/eps %s "
              "(need max/min <= 2, got %.2f)"
              % (["%.3f" % e for e in r_err], ["%.3f" % d for d in dists],
                 ["%.2f" % x for x in ratios],
                 max(ratios) / min(ratios)))
    line = _report("criterion 6 (%s localization)" % label, ok, detail)
    assert ok, line


def test_criterion_06_localization_power_law(sweep_power_law):
    _criterion_06(sweep_power_law, "power_law")


def test_criterion_06_localization_turkington(sweep_turkington):
    _criterion_06(sweep_turkington, "turkington")


def _criterion_07(sweep, label):
    rows = sweep["rows"]
    fit = asymptotic_fit([r["eps"] for r in rows], [r["mu"] for r in rows],
                         [r["E"] for r in rows])
    pred_mu, pred_e = predicted_slopes(4.0 * np.pi, 1.0)
    err_mu = abs(fit.slope_mu - pred_mu) / pred_mu
    err_e = abs(fit.slope_E - pred_e) / pred_e
    ok = err_mu <= 0.2 and err_e <= 0.2
    detail = ("slope_mu %.4f vs %.4f (rel err %.0f%%, need <= 20%%); "
              "slope_E %.4f vs %.4f (rel err %.0f%%, need <= 20%%)"
              % (fit.slope_mu, pred_mu, 100 * err_mu,
                 fit.slope_E, pred_e, 100 * err_e))
    line = _report("criterion 7 (%s asymptotic slopes)" % label, ok, detail)
    assert ok, line


def test_criterion_07_asymptotic_slopes_power_law(sweep_power_law):
    _criterion_07(sweep_power_law, "power_law")


def test_criterion_07_asymptotic_slopes_turkington(sweep_turkington):
    _criterion_07(sweep_turkington, "turkington")


def test_criterion_08_structure(sweep_power_law, sweep_turkington):
    discs = []
    for sweep in (sweep_power_law, sweep_turkington):
        discs += [r["disc"] for r in sweep["rows"] if r["converged"]]
    row = sweep_power_law["rows"][-1]
    prof = scaled_profile(row["result"].state.zeta, (row["R"], row["Z"]),
                          row["eps"])
    target = 4.0 * np.pi
    mass_err = abs(prof.planar_mass - target) / target
    av = angular_variation(prof)
    ok = all(discs) and mass_err <= 0.10 and av <= 0.05
    detail = ("topological disc on %d/%d converged runs; scaled-profile "
              "planar mass %.3f vs 4 pi W = %.3f at eps = 0.025 "
              "(rel err %.0f%%, need <= 10%%); angular variation %.3f "
              "(need <= 0.05)"
              % (sum(discs), len(discs), prof.planar_mass, target,
                 100 * mass_err, av))
    line = _report("criterion 8 (core structure)", ok, detail)
    assert ok, line


def test_criterion_09_far_field_and_axis(sweep_power_law, sweep_turkington):
    far_devs = []
    for sweep in (sweep_power_law, sweep_turkington):
        for r in sweep["rows"]:
            if r["converged"]:
                far_devs.append(far_field_check(r["result"])["worst_rel_dev"])
    far_ok = bool(far_devs) and max(far_devs) <= 0.10

    axis_ok = True
    axis_detail = []
    for sweep in (sweep_power_law, sweep_turkington):
        row = next(r for r in sweep["rows"] if r["converged"])
        zeta = row["result"].state.zeta
        box = default_extended_box(zeta.spec, margin_factor=3.0)
        psi0 = fd_solve(zeta, box=box)
        ratio = np.abs(psi0.values) / box.r_centers[:, None] ** 2
        near = float(np.max(ratio[box.r_centers < 0.25]))
        mid = float(np.max(ratio[(box.r_centers > 0.5)
                                 & (box.r_centers < 1.0)]))
        axis_ok = axis_ok and near <= 2.0 * mid
        axis_detail.append("%.2f/%.2f" % (near, mid))

    swirl_free = [float(np.max(np.abs(velocity_field(
        r["result"].state.psi, sweep_power_law["gen"], r["eps"])[1].values)))
        for r in sweep_power_law["rows"]]
    swirl_free_ok = max(swirl_free) == 0.0
    core_match = []
    for r in sweep_turkington["rows"]:
        if not r["converged"]:
            continue
        res = r["result"]
        v_theta = velocity_field(res.state.psi, sweep_turkington["gen"],
                                 r["eps"])[1]
        core_match.append(int(np.count_nonzero(
            (v_theta.values > 0) != (res.state.zeta.values > 0))))
    core_ok = max(core_match) == 0

    ok = far_ok and axis_ok and swirl_free_ok and core_ok
    detail = ("far-field worst rel dev %.3f over %d converged runs "
              "(need <= 0.10); |psi|/r^2 near-axis/mid-range sups %s "
              "(need bounded); max swirl in no-swirl runs %.1e (need 0); "
              "swirl-vs-core mask mismatches per run %s (need 0)"
              % (max(far_devs) if far_devs else float("nan"), len(far_devs),
                 axis_detail, max(swirl_free), core_match))
    line = _report("criterion 9 (far field and axis)", ok, detail)
    assert ok, line


def test_criterion_10_kelvin_hicks(sweep_power_law):
    rows = sweep_power_law["rows"]
    kh = kelvin_hicks_check([r["eps"] for r in rows],
                            [r["core_radius"] for r in rows],
                            4.0 * np.pi, 1.0)
    spread = kh["difference_spread"]
    ok = spread <= 0.25
    detail = ("speed difference per eps %s; max - min = %.3f "
              "(need <= 0.25 W)"
              % (["%.3f" % d for d in kh["difference"]], spread))
    line = _report("criterion 10 (Kelvin-Hicks consistency)", ok, detail)
    assert ok, line
