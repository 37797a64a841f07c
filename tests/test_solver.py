"""Solver: configuration, initialization, the multiplier search, the outer
ascent loop, and the optimality residual."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from vortexring import solver
from vortexring.errors import ConfigurationError, NumericalError
from vortexring.grid import ScalarField, integrate_nu
from vortexring.greens import apply_stream_operator, get_stream_operator
from vortexring.profiles import (cell_law, eval_dJds, eval_i, eval_J,
                                 make_generator)
from vortexring.rearrange import steiner_symmetrize_z, threshold_fill
from vortexring.solver import (ProblemConfig, SolveState, background_field,
                               energy, initialize, kkt_residual, l1_change,
                               patch_measure, run, solve_mu)


def _cells(config, gen):
    """run's per-cell constants (solver.Cells) on config's full grid: what
    the loop's helpers take in place of the generator."""
    return solver._grid_constants(config, gen, config.domain_grid())


def _support(*fields):
    """The sorted flat index of the cells where any of fields is nonzero."""
    return np.flatnonzero(np.logical_or.reduce([f.ravel() != 0.0
                                                for f in fields]))


def test_problem_config_validation():
    for bad_eps in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ConfigurationError):
            ProblemConfig(epsilon=bad_eps)
    with pytest.raises(ConfigurationError):
        ProblemConfig(epsilon=0.1, kappa=-1.0)
    with pytest.raises(ConfigurationError):
        ProblemConfig(epsilon=0.1, W=0.0)
    with pytest.raises(ConfigurationError):
        ProblemConfig(epsilon=0.1, lambda_cap=-3.0)


@pytest.mark.parametrize("bad", [
    {"tol_zeta": math.inf}, {"max_iterations": 0}, {"n_r": 24.5},
    {"kappa": math.inf}, {"W": math.inf}, {"tol_mu": 0.0},
], ids=lambda bad: "%s=%r" % next(iter(bad.items())))
def test_problem_config_rejects_what_the_cli_rejects(bad):
    # each of these used to build a config that run then solved wrongly
    # or failed on deep inside
    with pytest.raises(ConfigurationError, match=next(iter(bad))):
        ProblemConfig(**dict(dict(epsilon=0.1, n_r=24, n_z=24), **bad))


def test_problem_config_accepts_numpy_scalars():
    cfg = ProblemConfig(epsilon=np.float64(0.1), n_r=np.int64(24),
                        n_z=np.int64(24))
    assert cfg.domain_grid().n_r == 24


def test_problem_config_derived_quantities():
    cfg = ProblemConfig(epsilon=0.1)
    np.testing.assert_allclose(cfg.r_star, 1.0, rtol=1e-15)
    np.testing.assert_allclose(cfg.log_inv_eps, np.log(10.0), rtol=1e-15)
    assert not cfg.degenerate_epsilon
    assert ProblemConfig(epsilon=0.5, kappa=8 * np.pi).degenerate_epsilon
    spec = cfg.domain_grid()
    assert (spec.r_min, spec.r_max) == (0.5, 2.0)
    assert (spec.z_min, spec.z_max) == (-1.0, 1.0)

    pl = make_generator("power_law", p=1.0)
    tk = make_generator("turkington", alpha=2.0)
    assert cfg.resolved_lambda(pl) == 40.0
    assert cfg.resolved_lambda(tk) == 80.0
    with pytest.raises(ConfigurationError):
        ProblemConfig(epsilon=0.1, lambda_cap=0.5).resolved_lambda(pl)


def test_background_field_values():
    cfg = ProblemConfig(epsilon=0.1, n_r=6, n_z=4)
    spec = cfg.domain_grid()
    bg = background_field(cfg, spec)
    expect = 0.5 * spec.r_centers[:, None] ** 2 * np.log(10.0)
    np.testing.assert_allclose(bg, np.broadcast_to(expect, bg.shape),
                               rtol=1e-15)


def test_initialize_ball_geometry():
    cfg = ProblemConfig(epsilon=0.1, n_r=96, n_z=96)
    gen = make_generator("power_law", p=1.0)
    zeta = initialize(cfg, gen)
    np.testing.assert_allclose(integrate_nu(zeta), cfg.kappa, rtol=1e-12)
    spec = zeta.spec
    rr = spec.r_centers[:, None]
    zz = spec.z_centers[None, :]
    supp = zeta.values > 0
    dist = np.hypot(rr - 1.0, np.broadcast_to(zz, zeta.values.shape))
    radius = cfg.epsilon * np.sqrt(cfg.kappa / np.pi)
    cell = np.hypot(spec.dr, spec.dz)
    assert np.all(dist[supp] <= radius + cell)
    # uniform density with eps^2 zeta near one, far below the cap
    c = np.max(zeta.values)
    assert np.all((zeta.values == 0) | (zeta.values == c))
    np.testing.assert_allclose(cfg.epsilon ** 2 * c, 1.0, rtol=0.1)


def test_initialize_grows_a_ball_that_holds_no_cell():
    # at eps = 0.01 on 48^2 the ball of radius eps * sqrt(kappa / pi) =
    # 0.02 misses every cell centre; two 25% steps reach the four nearest
    cfg = ProblemConfig(epsilon=0.01, n_r=48, n_z=48)
    zeta = initialize(cfg, make_generator("power_law", p=1.0))
    spec = zeta.spec
    dist = np.hypot(spec.r_centers[:, None] - cfg.r_star,
                    spec.z_centers[None, :])
    radius = cfg.epsilon * np.sqrt(cfg.kappa / (np.pi * cfg.r_star))
    assert np.all(dist > radius)
    assert np.count_nonzero(zeta.values) == 4
    assert np.all(zeta.values[dist <= 1.25 ** 2 * radius] > 0.0)
    np.testing.assert_allclose(integrate_nu(zeta), cfg.kappa, rtol=1e-12)


def test_initialize_rejects_oversized_ball():
    gen = make_generator("power_law", p=1.0)
    with pytest.raises(ConfigurationError):
        initialize(ProblemConfig(epsilon=0.9, n_r=32, n_z=32), gen)
    with pytest.raises(ConfigurationError):
        initialize(ProblemConfig(epsilon=0.3, n_r=32, n_z=32), gen)


def test_energy_zero_field_and_scaling():
    cfg = ProblemConfig(epsilon=0.1, n_r=24, n_z=24)
    gen = make_generator("power_law", p=1.0)
    spec = cfg.domain_grid()
    cells = _cells(cfg, gen)
    zero = np.zeros((24, 24))
    assert energy(cfg, zero, zero, _support(zero), cells) == 0.0

    zeta = initialize(cfg, gen)
    psi0 = apply_stream_operator(zeta)
    idx = _support(zeta.values)
    e1 = energy(cfg, zeta.values, psi0.values, idx, cells)
    e2 = energy(cfg, 2.0 * zeta.values, 2.0 * psi0.values, idx, cells)
    # power_law(1): kernel and penalty terms are quadratic, the impulse
    # term is linear, so E(2 zeta) - 4 E(zeta) = 2 * impulse term
    w = spec.nu_weights()
    impulse = 0.5 * cfg.W * cfg.log_inv_eps * float(
        np.sum(zeta.values * spec.r_centers[:, None] ** 2 * w))
    np.testing.assert_allclose(e2 - 4.0 * e1, 2.0 * impulse,
                               rtol=1e-10, atol=1e-12)


def _energy_full_grid(config, gen, zeta, psi0):
    """The functional with every term summed over the whole grid: the
    reference for energy, which sums over the support alone."""
    eps2 = config.epsilon ** 2
    spec = zeta.spec
    w = spec.nu_weights()
    kern = 0.5 * float(np.sum(zeta.values * psi0.values * w))
    r2 = spec.r_centers[:, None] ** 2
    impulse = float(np.sum(zeta.values * r2 * w))
    u = eps2 * zeta.values
    nz = u > 0
    penalty = 0.0
    if np.any(nz):
        rr = np.repeat(spec.r_centers[:, None], spec.n_z, axis=1)
        jvals = eval_J(gen, rr[nz], u[nz])
        penalty = float(np.sum(np.asarray(jvals) * w[nz]))
    return kern - 0.5 * config.W * config.log_inv_eps * impulse - penalty / eps2


def test_energy_matches_full_grid_sum(coarse_turkington, coarse_power_law,
                                      rng):
    for result in (coarse_turkington, coarse_power_law):
        cfg, zeta = result.config, result.state.zeta
        psi0 = apply_stream_operator(zeta)
        ref = _energy_full_grid(cfg, result.gen, zeta, psi0)
        got = energy(cfg, zeta.values, psi0.values, _support(zeta.values),
                     _cells(cfg, result.gen))
        assert abs(got - ref) <= 1e-13 * abs(ref)
    # a nonnegative field with no symmetry and holes in its support
    cfg = ProblemConfig(epsilon=0.1, n_r=16, n_z=16)
    spec = cfg.domain_grid()
    vals = np.where(rng.random((16, 16)) < 0.6,
                    rng.uniform(0.0, 300.0, (16, 16)), 0.0)
    zeta = ScalarField(spec, vals)
    psi0 = ScalarField(spec, get_stream_operator(spec).apply_direct(vals))
    zero = ScalarField(spec, np.zeros((16, 16)))
    for gen in (make_generator("power_law", p=1.0),
                make_generator("turkington", alpha=1.0)):
        cells = _cells(cfg, gen)
        ref = _energy_full_grid(cfg, gen, zeta, psi0)
        got = energy(cfg, zeta.values, psi0.values, _support(vals), cells)
        assert abs(got - ref) <= 1e-13 * abs(ref)
        assert energy(cfg, zero.values, psi0.values, _support(zero.values),
                      cells) == 0.0


def test_solve_mu_pointwise_cases():
    # W grows with kappa, so the domain stays (0.5, 2) x (-1, 1) while the
    # mass budget sits far above the update's mass: mu = 0 and each cell
    # gets min(Lambda, i(r, head)) on its own
    cfg = ProblemConfig(epsilon=0.1, kappa=4e3 * np.pi, W=1e3, n_r=4, n_z=4)
    gen = make_generator("power_law", p=1.0)
    spec = cfg.domain_grid()
    bg = background_field(cfg, spec)
    head = np.zeros((4, 4))
    head[0, 0] = -1.0
    head[1, 1] = 0.5
    head[2, 2] = 100.0
    psi0 = bg + head
    mu, out, *_ = solve_mu(cfg, psi0, _cells(cfg, gen))
    eps2 = cfg.epsilon ** 2
    assert mu == 0.0
    assert out[0, 0] == 0.0
    # i(r, t) = t for power_law p=1, at the head solve_mu sees
    np.testing.assert_allclose(out[1, 1], (psi0 - bg)[1, 1] / eps2,
                               rtol=1e-15)
    np.testing.assert_allclose(out[2, 2], 40.0 / eps2, rtol=1e-15)
    assert np.count_nonzero(out) == 2


def test_solve_mu_zero_stream():
    cfg = ProblemConfig(epsilon=0.1, n_r=16, n_z=16)
    gen = make_generator("power_law", p=1.0)
    mu, zeta, *_ = solve_mu(cfg, np.zeros((16, 16)), _cells(cfg, gen))
    assert mu == 0.0
    assert np.all(zeta == 0.0)


_TABLE_T = np.linspace(0.0, 60.0, 13)


_HUMP_FAMILIES = [
    ("turkington", "turkington", {"alpha": 1.0}),
    ("power_law-p1", "power_law", {"p": 1.0}),
    ("power_law-p2", "power_law", {"p": 2.0}),
    ("mixed-p1.5", "mixed", {"p": 1.5}),
    ("beltrami-p1", "beltrami", {"p": 1.0}),
    # the table twin of power_law p=1
    ("table-power_law-p1", "table",
     {"table": (_TABLE_T, np.zeros(13), _TABLE_T)}),
]


# the ids of the 32^2 cases are the bare family ids
@pytest.mark.parametrize("family, params, n", [
    pytest.param(family, params, n,
                 id=name if n == 32 else "%s-n%d" % (name, n))
    for n in (32, 64, 96) for name, family, params in _HUMP_FAMILIES])
def test_solve_mu_active_mass_constraint(family, params, n, monkeypatch):
    sizes, n_cand = _solve_mu_on_hump(n, family, params, monkeypatch)
    # the multiplier search is a search over the candidate heads plus a
    # bounded bracketed root-find, not a fixed-count bisection
    assert len(sizes) <= math.ceil(math.log2(n_cand)) + 10


@pytest.mark.parametrize("family, params", [
    pytest.param("power_law", {"p": 1.0}, id="power_law-p1"),
    pytest.param("beltrami", {"p": 1.0}, id="beltrami-p1"),
])
def test_solve_mu_grows_the_band_without_restarting(family, params,
                                                    monkeypatch):
    # 64^2 cells put ~700 cells above mu, more than 4096 // 8 = 512: a
    # cold call sorts every positive head, so the search reaches them in
    # its one band without restarting, and the 32^2 call bound still holds
    sizes, n_cand = _solve_mu_on_hump(64, family, params, monkeypatch)
    assert max(sizes) > 512
    assert len(sizes) <= math.ceil(math.log2(n_cand)) + 10


def _solve_mu_on_hump(n, family, params, monkeypatch):
    """solve_mu on an n x n grid under a broad quadratic hump over the
    background, whose raw update holds far more than kappa; checks the
    mass constraint and the cap, and returns the cell count of every
    call of the loop's law i on a band (one per mass evaluation) and the
    number of cells under the hump."""
    cfg = ProblemConfig(epsilon=0.1, n_r=n, n_z=n)
    gen = make_generator(family, **params)
    spec = cfg.domain_grid()
    bg = background_field(cfg, spec)
    rr = spec.r_centers[:, None]
    zz = spec.z_centers[None, :]
    hump = 3.0 * np.maximum(0.25 - (rr - 1.0) ** 2 - zz ** 2, 0.0)
    sizes = []

    def counted_law(gen, r):
        law_i, law_J = cell_law(gen, r)
        band_law = law_i.at

        def at(idx):
            band = band_law(idx)

            def counted(t):
                sizes.append(np.size(t))
                return band(t)
            return counted
        law_i.at = at
        return law_i, law_J

    monkeypatch.setattr(solver, "cell_law", counted_law)
    mu, zeta, *_ = solve_mu(cfg, bg + hump, _cells(cfg, gen))
    assert mu > 0.0
    mass = integrate_nu(ScalarField(spec, zeta))
    assert mass <= cfg.kappa
    np.testing.assert_allclose(mass, cfg.kappa, rtol=1e-12)
    lam = cfg.resolved_lambda(gen)
    assert np.max(cfg.epsilon ** 2 * zeta) <= lam
    return sizes, int(np.count_nonzero(hump > 0.0))


def _warm_band_checked(monkeypatch):
    """Wrap solver.threshold_fill: each call runs cold, then again from the
    cold call's count of cells above mu with a cut mu / 20 below mu, the
    band run picks after a step that left mu in place, and from a start past
    every head with a cut below 0, whose band is every positive head. Both
    must return the cold (mu, fills, count, filled cells) bit for bit, the
    first with no more fill calls than the cold call. Returns the list of
    cold calls."""
    cold_calls = []

    def checked(h, w, budget, fill, start=0, cut=None):
        calls = []

        def counted(cells):
            band = fill(cells)

            def law(t):
                calls.append(t.size)
                return band(t)
            return law

        mu, u, count, filled = threshold_fill(h, w, budget, counted)
        cold_calls.append(len(calls))
        for warm, cut in ((count, mu - 0.05 * mu), (h.size // 4 + 1, -1.0)):
            del calls[:]
            mu_w, u_w, count_w, filled_w = threshold_fill(h, w, budget,
                                                          counted, warm, cut)
            assert (mu_w, count_w) == (mu, count)
            np.testing.assert_array_equal(u_w, u)
            np.testing.assert_array_equal(filled_w, filled)
            assert warm > count or len(calls) <= cold_calls[-1]
        return mu, u, count, filled

    monkeypatch.setattr(solver, "threshold_fill", checked)
    return cold_calls


@pytest.mark.parametrize("family, params, n", [
    pytest.param(family, params, n, id="%s-n%d" % (name, n))
    for n in (32, 64, 96) for name, family, params in _HUMP_FAMILIES])
def test_warm_band_on_the_hump(family, params, n, monkeypatch):
    cold_calls = _warm_band_checked(monkeypatch)
    _solve_mu_on_hump(n, family, params, monkeypatch)
    assert len(cold_calls) == 1


def test_warm_band_on_the_ledge(monkeypatch):
    # the plateau of test_solve_mu_ledge_fill_for_jump_generator
    cfg = ProblemConfig(epsilon=0.1, n_r=32, n_z=32)
    spec = cfg.domain_grid()
    rr = spec.r_centers[:, None]
    zz = spec.z_centers[None, :]
    plateau = ((np.abs(rr - 1.0) < 0.35) & (np.abs(zz) < 0.35)).astype(float)
    cold_calls = _warm_band_checked(monkeypatch)
    cells = _cells(cfg, make_generator("turkington", alpha=1.0))
    mu, *_ = solve_mu(cfg, background_field(cfg, spec) + plateau, cells)
    assert mu > 0.0 and len(cold_calls) == 1


def test_solve_mu_ledge_fill_for_jump_generator():
    cfg = ProblemConfig(epsilon=0.1, n_r=32, n_z=32)
    gen = make_generator("turkington", alpha=1.0)
    lam = cfg.resolved_lambda(gen)
    eps2 = cfg.epsilon ** 2
    spec = cfg.domain_grid()
    bg = background_field(cfg, spec)
    # a flat plateau of height one: the update mass is a step function of
    # mu across the plateau heads and never equals kappa on the continuous
    # part, so mu lands on a head and that level set fills fractionally
    rr = spec.r_centers[:, None]
    zz = spec.z_centers[None, :]
    plateau = ((np.abs(rr - 1.0) < 0.35) & (np.abs(zz) < 0.35)).astype(float)
    psi0 = bg + plateau
    mu, zeta, *_ = solve_mu(cfg, psi0, _cells(cfg, gen))
    # (bg + 1) - bg leaves the plateau heads a few ulp apart
    head = psi0 - bg
    assert mu in set(head[plateau == 1.0])
    r = np.broadcast_to(rr, head.shape)
    above, ledge, below = head > mu, head == mu, head < mu
    assert np.any(ledge)
    np.testing.assert_array_equal(
        zeta[above],
        np.minimum(lam, eval_i(gen, r[above], head[above] - mu)) / eps2)
    # the level set shares one fraction theta of the jump alpha
    u_ledge = eps2 * zeta[ledge]
    assert np.all(u_ledge == u_ledge[0])
    assert 0.0 <= u_ledge[0] < gen.alpha
    assert np.all(zeta[below] == 0.0)
    np.testing.assert_allclose(integrate_nu(ScalarField(spec, zeta)),
                               cfg.kappa, rtol=1e-12)
    # an even stream field yields an even update
    np.testing.assert_array_equal(zeta, zeta[:, ::-1])


def test_l1_change():
    cfg = ProblemConfig(epsilon=0.1, n_r=8, n_z=8)
    w = cfg.domain_grid().nu_weights().ravel()
    a = np.ones((8, 8))
    idx = _support(a)
    assert l1_change(a, a, idx, w) == 0.0
    np.testing.assert_allclose(l1_change(a, 1.5 * a, idx, w), 0.5,
                               rtol=1e-14)


def test_energy_and_l1_change_on_the_support_index(rng):
    # run hands energy the iterate's index and l1_change the union of two
    # iterates' indices; both match the sums over the whole grid
    cfg = ProblemConfig(epsilon=0.1, n_r=16, n_z=16)
    spec = cfg.domain_grid()
    gen = make_generator("power_law", p=1.0)
    cells = _cells(cfg, gen)
    a, b = (np.where(rng.random((16, 16)) < 0.2,
                     rng.uniform(0.0, 300.0, (16, 16)), 0.0) for _ in range(2))
    ia, ib = _support(a), _support(b)
    psi0 = get_stream_operator(spec).apply_direct(a)
    ref = _energy_full_grid(cfg, gen, ScalarField(spec, a),
                            ScalarField(spec, psi0))
    assert abs(energy(cfg, a, psi0, ia, cells) - ref) <= 1e-13 * abs(ref)
    w = spec.nu_weights()
    ref = float(np.sum(np.abs(b - a) * w)) / float(np.sum(np.abs(a) * w))
    np.testing.assert_allclose(l1_change(a, b, np.union1d(ia, ib), cells.w),
                               ref, rtol=1e-13)


def test_support_trace_on_every_iteration(monkeypatch):
    cfg = ProblemConfig(epsilon=0.1, n_r=48, n_z=48, max_iterations=60)
    counts = []

    def counting(*args):
        mu, zeta, *search = solve_mu(*args)
        counts.append(2 * np.count_nonzero(zeta))
        return mu, zeta, *search

    monkeypatch.setattr(solver, "solve_mu", counting)
    result = run(cfg, make_generator("power_law", p=1.0))
    assert result.support_trace.tolist() == counts
    assert len(counts) == result.iterations


def _captured_step(result):
    """The operator, the rows z > 0 of result's final vorticity on the box
    of mirror pairs run iterates on, their support and run's constants."""
    cfg = result.config
    spec = cfg.domain_grid()
    half = spec.n_z // 2
    pairs = dataclasses.replace(spec, n_z=half)
    zeta = result.state.zeta.values[:, half:].copy()
    return (get_stream_operator(spec), zeta,
            np.flatnonzero(zeta.ravel() != 0.0),
            solver._grid_constants(cfg, result.gen, pairs))


def test_window_holds_every_row_that_can_reach_the_cut(coarse_power_law):
    # each row whose bound less the background passes the cut, and the
    # source rows energy reads, lie in the window; from a cut just under
    # the top row's to one far below mu
    op, zeta, idx, grid = _captured_step(coarse_power_law)
    half = zeta.shape[1]
    reach = op.row_bound(zeta) - grid.bg[::half]
    band = idx[0] // half, idx[-1] // half + 1
    top, mu = float(np.max(reach)), coarse_power_law.state.mu
    assert 0.0 < mu < top
    for cut in (top * (1.0 - 1e-6), 0.5 * (top + mu), mu, 0.9 * mu, 0.1 * mu):
        a0, a1 = solver._window(op, zeta, idx, grid.bg, cut)
        hit = np.flatnonzero(reach > cut)
        assert a0 <= min(hit[0], band[0]) and a1 >= max(hit[-1] + 1, band[1])
        outside = np.r_[reach[:a0], reach[a1:]]
        assert np.all(outside <= cut), cut


def _recorded_step(result, cut):
    """solver.step on result's final state from a cold start with cut, the
    full-apply search it must match, and the layers it timed."""
    cfg, gen = result.config, result.gen
    op, zeta, idx, grid = _captured_step(result)
    layers = []

    def timed(layer, f, *args):
        layers.append(layer)
        return f(*args)

    got = solver.step(op, cfg, zeta, idx, grid, 0, cut, timed)
    full = op.apply_even(zeta)
    return got, full, solve_mu(cfg, full, grid, 0, cut), layers


@pytest.mark.parametrize("share", [None, -1.0, 0.9])
def test_step_applies_the_rows_that_can_reach_the_cut(coarse_power_law,
                                                      share):
    # no cut, or one <= 0, applies every target row; a cut below mu only
    # the rows whose heads can pass it, and the search finds the same mu
    result = coarse_power_law
    n_r = result.config.n_r
    cut = None if share is None else share * result.state.mu
    (psi0, mu, update, above, n, nxt, rows), full, want, layers = \
        _recorded_step(result, cut)
    mu_f, update_f, above_f, n_f, nxt_f = want
    if share is not None and share > 0.0:
        assert layers == ["window", "apply_even", "solve_mu"]
        assert 0 < rows < n_r
        assert abs(mu - mu_f) <= 4.0 * np.spacing(mu_f)
        np.testing.assert_allclose(update, update_f, rtol=1e-13, atol=0.0)
        assert (above, n) == (above_f, n_f)
        np.testing.assert_array_equal(nxt, nxt_f)
        return
    assert layers == ["apply_even", "solve_mu"] and rows == n_r
    np.testing.assert_array_equal(psi0, full)
    assert (mu, above, n) == (mu_f, above_f, n_f)
    np.testing.assert_array_equal(update, update_f)


def test_step_falls_back_to_a_full_apply(coarse_power_law):
    # with a cut above every head the windowed search has no band and
    # returns mu below the cut, having read rows the window left at 0: the
    # step applies the full field and searches again, and must match a
    # full-apply search bit for bit, counting both applies and searches
    result = coarse_power_law
    n_r = result.config.n_r
    op, zeta, _, _ = _captured_step(result)
    cut = 2.0 * float(np.max(op.apply_even(zeta)))
    (psi0, mu, update, above, n, nxt, rows), full, want, layers = \
        _recorded_step(result, cut)
    mu_f, update_f, above_f, n_f, nxt_f = want
    assert mu == mu_f < cut
    np.testing.assert_array_equal(update, update_f)
    assert above == above_f
    np.testing.assert_array_equal(nxt, nxt_f)
    np.testing.assert_array_equal(psi0, full)
    assert layers == ["window", "apply_even", "solve_mu",
                      "apply_even", "solve_mu"]
    assert n_r < rows < 2 * n_r and n > n_f


@pytest.mark.parametrize("which", ["coarse_turkington", "coarse_power_law"])
@pytest.mark.parametrize("cut", ["none", "-mu", "0.9mu", "above"])
def test_windowed_search_matches_the_full_rows(which, cut, request):
    # a window's stream holds 0 on the rows it left out, whose heads lie
    # below 0: the search on the window's rows alone, cold and from the
    # cold call's count, returns what the search on every row returns, mu,
    # update, count above mu, fill calls and index, bit for bit
    result = request.getfixturevalue(which)
    cfg, mu = result.config, result.state.mu
    op, zeta, idx, grid = _captured_step(result)
    rows = solver._window(op, zeta, idx, grid.bg, 0.9 * mu)
    assert 0 < rows[1] - rows[0] < cfg.n_r
    psi0 = op.apply_even(zeta, idx, rows)
    cut = {"none": None, "-mu": -mu, "0.9mu": 0.9 * mu,
           "above": 2.0 * float(np.max(psi0))}[cut]
    for start in (0, solve_mu(cfg, psi0, grid)[2]):
        windowed = solve_mu(cfg, psi0, grid, start, cut, rows)
        full = solve_mu(cfg, psi0, grid, start, cut)
        assert windowed[0] == full[0] and windowed[2:4] == full[2:4]
        for a, b in ((windowed[1], full[1]), (windowed[4], full[4])):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_mu_rejects_a_non_finite_stream(bad, coarse_power_law):
    # a non-finite stream on a searched row raises; the rows outside the
    # search are not read
    result = coarse_power_law
    cfg = result.config
    op, zeta, idx, grid = _captured_step(result)
    a0, a1 = rows = solver._window(op, zeta, idx, grid.bg,
                                   0.9 * result.state.mu)
    assert 0 < a0 and a1 < cfg.n_r
    psi0 = op.apply_even(zeta, idx, rows)
    want = solve_mu(cfg, psi0, grid, rows=rows)
    for row in (a0, a1 - 1):
        broken = psi0.copy()
        broken[row, -1] = bad
        with pytest.raises(NumericalError, match="not finite"):
            solve_mu(cfg, broken, grid, rows=rows)
    broken = psi0.copy()
    broken[[a0 - 1, a1]] = bad
    got = solve_mu(cfg, broken, grid, rows=rows)
    assert got[0] == want[0]
    np.testing.assert_array_equal(got[1], want[1])
    with pytest.raises(NumericalError, match="not finite"):
        solve_mu(cfg, broken, grid)


def test_layer_seconds(coarse_turkington):
    seconds = coarse_turkington.layer_seconds
    assert sorted(seconds) == ["apply_even", "energy", "other", "solve_mu",
                               "window"]
    assert all(s > 0.0 for s in seconds.values())


def _admissibility_checks(result):
    cfg = result.config
    zeta = result.state.zeta
    lam = cfg.resolved_lambda(result.gen)
    assert np.all(zeta.values >= 0.0)
    assert np.max(cfg.epsilon ** 2 * zeta.values) <= lam
    mass = integrate_nu(zeta)
    assert mass <= cfg.kappa
    np.testing.assert_allclose(mass, cfg.kappa, rtol=1e-8)
    np.testing.assert_allclose(result.mass, mass, rtol=1e-15)


def _shape_checks(result):
    zeta = result.state.zeta
    np.testing.assert_array_equal(zeta.values, zeta.values[:, ::-1])
    half = zeta.spec.n_z // 2
    neg = zeta.values[:, :half][:, ::-1]
    pos = zeta.values[:, half:]
    assert np.all(np.diff(neg, axis=1) <= 0.0)
    assert np.all(np.diff(pos, axis=1) <= 0.0)
    # support strictly inside the box
    supp = zeta.values > 0
    assert not supp[0, :].any() and not supp[-1, :].any()
    assert not supp[:, 0].any() and not supp[:, -1].any()


def _trace_checks(result):
    trace = result.energy_trace
    assert trace.size == result.iterations + 1
    floor = -1e-9 * np.maximum(np.abs(trace[:-1]), 1.0)
    assert np.all(np.diff(trace) >= floor)
    assert result.state.energy == trace[-1]


def test_run_invariants_turkington(coarse_turkington):
    result = coarse_turkington
    assert result.converged
    _admissibility_checks(result)
    _shape_checks(result)
    _trace_checks(result)
    assert result.kkt <= 1e-6
    assert result.patch_measure == 0.0
    assert result.state.mu > 0.0
    # the shifted stream is negative on the box boundary
    psi = result.state.psi.values
    boundary_max = max(psi[0, :].max(), psi[-1, :].max(),
                       psi[:, 0].max(), psi[:, -1].max())
    assert boundary_max < 0.0


def test_run_invariants_power_law(coarse_power_law):
    result = coarse_power_law
    _admissibility_checks(result)
    _shape_checks(result)
    _trace_checks(result)
    assert result.state.mu > 0.0
    assert result.patch_measure == 0.0


def test_psi_is_the_full_apply_less_background_and_mu(coarse_turkington,
                                                      coarse_power_law):
    # run keeps no psi0: psi is the final state's apply, less the
    # background and mu, bit for bit
    for result in (coarse_turkington, coarse_power_law):
        state, spec = result.state, result.state.zeta.spec
        want = (apply_stream_operator(state.zeta).values
                - background_field(result.config, spec)) - state.mu
        np.testing.assert_array_equal(state.psi.values, want)


def test_stop_reason_on_conftest_runs(coarse_turkington, coarse_power_law):
    assert coarse_turkington.stop_reason == "converged"
    assert coarse_turkington.iterations < coarse_turkington.config.max_iterations
    assert coarse_power_law.stop_reason == "iteration_cap"
    assert not coarse_power_law.converged
    assert coarse_power_law.iterations == coarse_power_law.config.max_iterations


def test_run_table_with_jump_and_swirl_converges():
    # f = t / 2, g = 1 + t on 13 nodes: g jumps at 0 and f feeds swirl
    cfg = ProblemConfig(epsilon=0.1, n_r=48, n_z=48, max_iterations=400)
    t = np.linspace(0.0, 60.0, 13)
    result = run(cfg, make_generator("table", table=(t, 0.5 * t, 1.0 + t)))
    assert result.converged
    _admissibility_checks(result)
    _trace_checks(result)
    assert result.kkt <= 1e-6


def test_run_table_twin_matches_power_law():
    cfg = ProblemConfig(epsilon=0.1, n_r=48, n_z=48, max_iterations=400)
    closed = run(cfg, make_generator("power_law", p=1.0))
    assert closed.converged
    # the 9-node table ends at t = 40, below the t_max = 50 the closed
    # families are checked on; the heads never leave either table
    for t in (np.linspace(0.0, 60.0, 13), np.linspace(0.0, 40.0, 9)):
        twin = run(cfg, make_generator("table", table=(t, 0.0 * t, t)))
        assert twin.converged
        assert twin.iterations == closed.iterations
        # same iterates; only the energy's conjugate term is evaluated apart
        np.testing.assert_array_equal(twin.state.zeta.values,
                                      closed.state.zeta.values)
        np.testing.assert_allclose(twin.state.mu, closed.state.mu,
                                   rtol=1e-12)
        np.testing.assert_allclose(twin.energy_trace, closed.energy_trace,
                                   rtol=1e-12)


def _is_steiner(zeta):
    return np.array_equal(steiner_symmetrize_z(zeta).values, zeta.values)


@pytest.mark.parametrize("family, params", [
    pytest.param("turkington", {"alpha": 1.0}, id="turkington"),
    pytest.param("power_law", {"p": 1.0}, id="power_law-p1"),
])
def test_one_step_maps_steiner_fields_to_steiner_fields(family, params, rng):
    # the loop invariant run relies on: K of a field whose columns are even
    # and nonincreasing in |z|, averaged in z, has such columns too, and
    # solve_mu's update of it is a fixed point of the symmetrization
    cfg = ProblemConfig(epsilon=0.1, n_r=16, n_z=16)
    gen = make_generator(family, **params)
    spec = cfg.domain_grid()
    op = get_stream_operator(spec)
    cells = _cells(cfg, gen)
    for _ in range(5):
        raw = rng.uniform(0.0, 1.0, (16, 16))
        raw[rng.uniform(size=(16, 16)) < 0.6] = 0.0
        zeta = steiner_symmetrize_z(ScalarField(spec, raw))
        zeta.values *= cfg.kappa / integrate_nu(zeta)
        vals = op.apply_direct(zeta.values)
        psi0 = 0.5 * (vals + vals[:, ::-1])
        np.testing.assert_array_equal(psi0, psi0[:, ::-1])
        assert np.all(np.diff(psi0[:, 8:], axis=1) <= 0.0)
        _, update, *_ = solve_mu(cfg, psi0, cells)
        assert np.any(update > 0.0)
        assert _is_steiner(ScalarField(spec, update))


@pytest.mark.parametrize("family, params, max_iterations", [
    pytest.param("turkington", {"alpha": 1.0}, 400, id="turkington"),
    pytest.param("power_law", {"p": 1.0}, 150, id="power_law-p1"),
    pytest.param("table",
                 {"table": (_TABLE_T, 0.5 * _TABLE_T, 1.0 + _TABLE_T)},
                 400, id="table-jump-and-swirl"),
])
def test_run_iterates_stay_steiner_symmetric(family, params, max_iterations,
                                             monkeypatch):
    cfg = ProblemConfig(epsilon=0.1, n_r=48, n_z=48,
                        max_iterations=max_iterations)
    gen = make_generator(family, **params)
    assert _is_steiner(initialize(cfg, gen))
    spec = cfg.domain_grid()
    checked = []

    def checking(*args):
        # the loop's iterates are the rows z > 0 of even fields: mirror
        # each one onto the full grid before checking it
        mu, zeta, *search = solve_mu(*args)
        assert zeta.shape == (spec.n_r, spec.n_z // 2)
        full = np.hstack((zeta[:, ::-1], zeta))
        checked.append(_is_steiner(ScalarField(spec, full)))
        return mu, zeta, *search

    monkeypatch.setattr(solver, "solve_mu", checking)
    result = run(cfg, gen)
    assert len(checked) == result.iterations
    assert all(checked)


def _full_grid_run(cfg, gen):
    """The loop on the full grid, with psi0 = K zeta by explicit summation
    and averaged in z: the reference for run, which iterates on the rows
    z > 0 alone by the even apply. Returns
    the iteration count, the energy and multiplier traces and the final
    vorticity."""
    op = get_stream_operator(cfg.domain_grid())
    cells = _cells(cfg, gen)
    zeta = initialize(cfg, gen).values
    trace, mus = [], []

    def stream(zeta):
        vals = op.apply_direct(zeta)
        psi0 = 0.5 * (vals + vals[:, ::-1])
        trace.append(energy(cfg, zeta, psi0, _support(zeta), cells))
        return psi0

    for it in range(1, cfg.max_iterations + 1):
        mu, update, *_ = solve_mu(cfg, stream(zeta), cells)
        mus.append(mu)
        change = l1_change(zeta, update, _support(zeta, update), cells.w)
        zeta = update
        if change <= cfg.tol_zeta:
            break
    stream(zeta)
    return it, np.asarray(trace), np.asarray(mus), zeta


@pytest.mark.parametrize("n", [32, 48])
@pytest.mark.parametrize("family, params", [
    pytest.param("turkington", {"alpha": 1.0}, id="turkington"),
    pytest.param("power_law", {"p": 1.0}, id="power_law-p1"),
])
def test_half_plane_run_matches_full_grid_loop(family, params, n,
                                               monkeypatch):
    cfg = ProblemConfig(epsilon=0.1, n_r=n, n_z=n, max_iterations=150)
    gen = make_generator(family, **params)
    iterations, trace, mus, zeta = _full_grid_run(cfg, gen)
    cells = _cells(cfg, gen)
    ulps, gaps = [], []

    def paired(config, psi0, grid, start, cut, rows):
        # each half-plane search, on the rows step searched, against a cold
        # full-grid search on the mirrored stream: the same multiplier and
        # the mirrored update
        mu, update, *search = solve_mu(config, psi0, grid, start, cut, rows)
        full = np.hstack((psi0[:, ::-1], psi0))
        mu_full, update_full, *_ = solve_mu(config, full, cells)
        ulps.append(abs(mu - mu_full) / np.spacing(abs(mu_full)))
        top = update_full[:, n // 2:]
        gaps.append(np.max(np.abs(update - top)) / np.max(top))
        return mu, update, *search

    monkeypatch.setattr(solver, "solve_mu", paired)
    result = run(cfg, gen)
    assert max(ulps) <= 4.0
    assert max(gaps) <= 1e-13
    # the loops apply K by different transforms, so their iterates part
    # at roundoff, and the multiplier, a level of psi0 less the background,
    # inherits the cancellation: compare both traces relatively
    assert result.iterations == iterations
    assert (result.mu_trace.size == result.l1_change_trace.size
            == result.support_trace.size == iterations)
    assert result.state.mu == result.mu_trace[-1]
    err = np.abs(result.energy_trace - trace) / np.abs(trace)
    assert np.max(err) <= 1e-13
    err = np.abs(result.mu_trace - mus) / np.abs(mus)
    assert np.max(err) <= 1e-13
    np.testing.assert_allclose(result.state.zeta.values, zeta,
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("family, params", [
    pytest.param("turkington", {"alpha": 1.0}, id="turkington"),
    pytest.param("power_law", {"p": 1.0}, id="power_law-p1"),
])
def test_warm_multiplier_search_matches_cold(family, params, monkeypatch):
    # run starts each search from the previous one's count of cells above
    # mu, and from the second on with a band cut below the previous mu; the
    # same search from a cold start on the same heads must find mu to 4 ulp
    # and close the mass at least as well, up to 2e-15
    cfg = ProblemConfig(epsilon=0.1, n_r=48, n_z=48, max_iterations=150)
    starts, cuts, counts, ulps = [], [], [], []

    def compared(h, w, budget, fill, start, cut):
        mu, u, count, filled = threshold_fill(h, w, budget, fill, start, cut)
        mu_cold, u_cold, _, filled_cold = threshold_fill(h, w, budget, fill)
        starts.append(start)
        cuts.append(cut)
        counts.append(count)
        ulps.append(abs(mu - mu_cold) / np.spacing(mu_cold))
        # the masses, each over the cells its search filled
        warm = abs(float(np.dot(w[filled], u)) - budget)
        cold = abs(float(np.dot(w[filled_cold], u_cold)) - budget)
        assert warm <= max(cold, 2e-15 * budget)
        return mu, u, count, filled

    monkeypatch.setattr(solver, "threshold_fill", compared)
    result = run(cfg, make_generator(family, **params))
    assert len(ulps) == result.iterations
    assert max(ulps) <= 4.0
    assert starts == [0] + counts[:-1]
    assert cuts[0] is None and None not in cuts[1:]


@pytest.mark.parametrize("breaks", [
    # run's iterates are the rows z > 0 of even fields (16 x 8 here), so
    # both breaks leave the unfolded state even: rolled by a cell, the
    # empty edge cell lands next to z = 0
    lambda v: np.roll(v, 1, axis=1),
    # reversed, so columns grow towards the edge
    lambda v: np.hstack((v[:, :8][:, ::-1], v[:, 8:][:, ::-1])),
], ids=["shifted", "hollow"])
def test_run_rejects_a_final_state_that_is_not_steiner(breaks, monkeypatch):
    def broken(*args):
        mu, zeta, *search = solve_mu(*args)
        return mu, breaks(zeta), *search

    monkeypatch.setattr(solver, "solve_mu", broken)
    cfg = ProblemConfig(epsilon=0.1, n_r=16, n_z=16, max_iterations=1)
    with pytest.raises(NumericalError, match="not Steiner-symmetric"):
        run(cfg, make_generator("power_law", p=1.0))


def test_steiner_check_reads_the_held_rows():
    # the closing check reads the rows z > 0 from the first to the last
    # that holds the support: an empty support passes, a row outside them
    # is not read, and a hollow column on the held rows raises
    upper = np.zeros((16, 8))
    solver._check_steiner(upper, np.array([], dtype=np.intp))
    upper[5:9, :2] = 1.0
    upper[6, 2] = 0.5
    idx = np.flatnonzero(upper.ravel())
    upper[12, 3] = 1.0
    solver._check_steiner(upper, idx)
    upper[7, 0] = 0.0
    with pytest.raises(NumericalError, match="not Steiner-symmetric"):
        solver._check_steiner(upper, idx)


def test_steiner_check_raises_exactly_when_the_sort_moves_a_cell(rng):
    # on even fields whose rows z > 0 are nonincreasing outward but for one
    # swapped pair per row, the check raises exactly when
    # steiner_symmetrize_z changes the field; values on a lattice of
    # quarters, so that many swaps exchange equal values
    spec = ProblemConfig(epsilon=0.1, n_r=3, n_z=16).domain_grid()
    rows = np.arange(3)
    raised = []
    for _ in range(300):
        upper = -np.sort(-rng.integers(0, 5, (3, 8)) / 4.0, axis=1)
        a, b = rng.integers(0, 8, (2, 3))
        upper[rows, a], upper[rows, b] = upper[rows, b], upper[rows, a]
        full = ScalarField(spec, np.hstack((upper[:, ::-1], upper)))
        moved = not np.array_equal(steiner_symmetrize_z(full).values,
                                   full.values)
        try:
            solver._check_steiner(upper, np.flatnonzero(upper.ravel()))
            raised.append(False)
        except NumericalError:
            raised.append(True)
        assert raised[-1] == moved
    assert 0 < sum(raised) < len(raised)


def test_kkt_residual_detects_perturbation(coarse_turkington):
    base = coarse_turkington
    assert base.kkt <= 1e-6
    vals = base.state.zeta.values.copy()
    i, j = np.unravel_index(np.argmax(vals), vals.shape)
    vals[i, j] *= 1.1
    zeta = ScalarField(base.state.zeta.spec, vals)
    state = SolveState(zeta=zeta, mu=base.state.mu, psi=base.state.psi,
                       energy=base.state.energy)
    bumped = dataclasses.replace(base, state=state)
    res = kkt_residual(bumped)
    assert res > 100.0 * base.kkt
    assert res > 1e-3


def test_kkt_residual_on_capped_cells():
    # with Lambda = 1.5 the converged core reaches the cap on a few cells,
    # where optimality asks psi >= dJds(r, Lambda)
    cfg = ProblemConfig(epsilon=0.1, lambda_cap=1.5, n_r=32, n_z=32)
    base = run(cfg, make_generator("turkington", alpha=1.0))
    assert base.converged and base.kkt <= 1e-8
    u = cfg.epsilon ** 2 * base.state.zeta.values
    capped = np.argwhere(u >= 1.5 * (1.0 - 1e-12))
    assert len(capped) > 0
    i, j = capped[0]
    spec = base.state.psi.spec
    thresh = eval_dJds(base.gen, spec.r_centers[i], 1.5)
    psi = base.state.psi.values
    scale = float(np.max(np.abs(psi)))
    assert thresh < psi[i, j] < scale

    def residual_with(value):
        vals = psi.copy()
        vals[i, j] = value
        state = dataclasses.replace(base.state, psi=ScalarField(spec, vals))
        return kkt_residual(dataclasses.replace(base, state=state))

    # still above the threshold: no change; below it: the gap, normalized
    assert residual_with(0.5 * (thresh + psi[i, j])) == base.kkt
    res = residual_with(thresh - 0.01 * scale)
    np.testing.assert_allclose(res, 0.01, rtol=1e-12)
    assert res >= 100.0 * base.kkt


def test_patch_measure_reports_capped_cells():
    cfg = ProblemConfig(epsilon=0.1, n_r=8, n_z=8)
    gen = make_generator("power_law", p=1.0)
    spec = cfg.domain_grid()
    vals = np.zeros((8, 8))
    vals[3, 3] = 40.0 / cfg.epsilon ** 2
    assert patch_measure(cfg, gen, ScalarField(spec, vals)) > 0.0
    vals[3, 3] *= 0.5
    assert patch_measure(cfg, gen, ScalarField(spec, vals)) == 0.0


def _full_grid_kkt(result):
    """kkt_residual evaluated on every cell of the grid: the reference for
    the version that reads only the cells where zeta != 0 or psi > 0."""
    config, gen = result.config, result.gen
    state = result.state
    lam = config.resolved_lambda(gen)
    eps2 = config.epsilon ** 2
    u = eps2 * state.zeta.values
    psi = state.psi.values
    spec = state.zeta.spec
    rr = np.repeat(spec.r_centers[:, None], spec.n_z, axis=1)
    scale_psi = float(np.max(np.abs(psi))) or 1.0

    target = np.minimum(lam, eval_i(gen, rr, psi))
    a_form = np.abs(u - target) / lam
    b_form = np.empty_like(u)
    pos = u > 0.0
    b_form[~pos] = np.maximum(psi[~pos], 0.0) / scale_psi
    b_form[pos] = np.abs(psi[pos] - eval_dJds(gen, rr[pos], u[pos])) / scale_psi
    below = u < lam * (1.0 - 1e-12)
    viol = np.zeros_like(u)
    viol[below] = np.minimum(a_form[below], b_form[below])
    capped = ~below
    thresh = eval_dJds(gen, rr[capped], lam)
    viol[capped] = np.maximum(thresh - psi[capped], 0.0) / scale_psi
    neg_on_support = np.maximum(-psi, 0.0) / scale_psi
    viol[pos] = np.maximum(viol[pos], neg_on_support[pos])
    return float(np.max(viol)) if viol.size else 0.0


def _full_grid_patch(config, gen, zeta):
    """patch_measure summed over the masked cells of the whole grid."""
    lam = config.resolved_lambda(gen)
    mask = config.epsilon ** 2 * zeta.values >= 0.999 * lam
    return float(np.sum(zeta.spec.nu_weights()[mask]))


def _bits(x):
    return np.float64(x).tobytes()


def test_closing_checks_match_the_full_grid(coarse_turkington,
                                            coarse_power_law):
    # the KKT residual and the patch measure read the support (and, for
    # the residual, the cells with psi > 0): bit for bit the full grid's,
    # on both conftest states, a power_law state capped after 5 steps,
    # with psi > 0 off its support, and one whose cap binds on cells
    early = run(ProblemConfig(epsilon=0.1, n_r=48, n_z=48, max_iterations=5),
                make_generator("power_law", p=1.0))
    off = (early.state.zeta.values == 0.0) & (early.state.psi.values > 0.0)
    assert not early.converged and off.any()
    capped = run(ProblemConfig(epsilon=0.1, lambda_cap=1.5, n_r=32, n_z=32),
                 make_generator("turkington", alpha=1.0))
    for result in (coarse_turkington, coarse_power_law, early, capped):
        assert _bits(result.kkt) == _bits(_full_grid_kkt(result))
        assert _bits(result.patch_measure) == _bits(_full_grid_patch(
            result.config, result.gen, result.state.zeta))
    assert capped.patch_measure > 0.0


def test_run_peaks_at_the_state_it_returns():
    # with the grid's table built, a run holds its per-cell constants, a
    # few iterates on the rows z > 0 and the state it returns, whose
    # closing checks read the support: its traced peak stays within 8
    # full-grid arrays (147 kB at 48 x 48) of the arrays it returns
    cfg = ProblemConfig(epsilon=0.1, n_r=48, n_z=48, max_iterations=400)
    gen = make_generator("turkington", alpha=1.0)
    get_stream_operator(cfg.domain_grid())
    tracemalloc.start()
    try:
        result = run(cfg, gen)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    state = result.state
    returned = sum(a.nbytes for a in (
        state.zeta.values, state.psi.values,
        result.energy_trace, result.mu_trace, result.l1_change_trace,
        result.support_trace, result.mass_evals_trace,
        result.apply_rows_trace))
    assert peak - returned <= 8 * cfg.n_r * cfg.n_z * 8


def test_run_warns_in_degenerate_regime():
    cfg = ProblemConfig(epsilon=0.5, kappa=8.0 * np.pi, n_r=24, n_z=24,
                        max_iterations=2)
    gen = make_generator("power_law", p=1.0)
    with pytest.warns(RuntimeWarning):
        result = run(cfg, gen)
    assert result.config.degenerate_epsilon


def test_run_rejects_odd_grid_with_symmetrization():
    # the config itself refuses an odd n_z, before run is reached
    gen = make_generator("power_law", p=1.0)
    with pytest.raises(ConfigurationError, match="even n_z"):
        run(ProblemConfig(epsilon=0.1, n_r=24, n_z=25), gen)


@pytest.mark.parametrize("energies, max_iterations, message", [
    pytest.param([1.0, 0.0], 3, "energy decreased at iteration 2: 1 -> 0",
                 id="3-energy decreased at iteration 2: 1 -> 0"),
    pytest.param([1.0, 0.0], 1, "final energy fell below the trace",
                 id="1-final energy fell below the trace"),
    pytest.param([1.0, 2.0, np.nan, 3.0, 4.0], 5, "energy is not finite: nan",
                 id="5-energy is not finite: nan"),
])
def test_run_rejects_energy_descent(energies, max_iterations, message,
                                    monkeypatch):
    # the second energy evaluation drops, inside the loop or for the final
    # state after a one-iteration loop; or the third is NaN, which no
    # comparison with the trace catches
    values = iter(energies)
    monkeypatch.setattr(solver, "energy", lambda *args: next(values))
    cfg = ProblemConfig(epsilon=0.1, n_r=16, n_z=16,
                        max_iterations=max_iterations)
    with pytest.raises(NumericalError, match="^%s$" % message):
        run(cfg, make_generator("power_law", p=1.0))


def test_energy_gain_over_initial_ball(coarse_turkington):
    trace = coarse_turkington.energy_trace
    assert trace[-1] > trace[0]
