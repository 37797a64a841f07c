"""Threshold fill, bathtub maximizer and Steiner symmetrization."""

import gc

import numpy as np
import pytest
from scipy.optimize import brentq

from vortexring import solver
from vortexring.cli import _bathtub_brute
from vortexring.errors import ConfigurationError
from vortexring.grid import GridSpec, ScalarField, build_grid, integrate_nu
from vortexring.greens import apply_stream_operator, get_stream_operator
from vortexring.profiles import eval_i
from vortexring.rearrange import (MeasureSpace, bathtub_maximize,
                                  steiner_symmetrize_z, threshold_fill)

TINY = np.finfo(float).tiny


def _threshold_fill_oracle(h, w, budget, fill):
    """Reference multiplier search over the full arrays: fill(t) sees every
    cell at every probed mu, and a binary search runs over all distinct
    positive heads from mu = 0 up. Same contract as threshold_fill, with
    a fill that takes t shaped like h."""
    u = fill(h)
    masses = {0.0: float(np.sum(w * u))}
    if masses[0.0] <= budget:
        return 0.0, u

    def excess(mu):
        if mu not in masses:
            masses[mu] = float(np.sum(w * fill(h - mu)))
        return masses[mu] - budget

    levels = np.unique(h[h > 0.0])
    masses[float(levels[-1])] = 0.0
    a, b = -1, levels.size - 1
    while b - a > 1:
        mid = (a + b) // 2
        if excess(float(levels[mid])) > 0.0:
            a = mid
        else:
            b = mid
    lo = float(levels[a]) if a >= 0 else 0.0
    hi = float(levels[b])

    ledge = h == hi
    t = h - hi
    t[ledge] = TINY
    u = fill(t)
    on_ledge = float(np.sum(w[ledge] * u[ledge]))
    if masses[hi] + on_ledge > budget:
        u[ledge] *= (budget - masses[hi]) / on_ledge
        return hi, u
    mu = brentq(excess, lo, hi, xtol=TINY)
    return float(mu), fill(h - mu)


def _fills(rng, n):
    """(name, per-cell fill law F(t, cell)) for the three fill shapes: a
    capped power with a per-cell coefficient, a jump at the origin, and
    the bathtub step."""
    coef = rng.uniform(0.5, 2.0, n)
    return [
        ("capped-power", lambda t, i: np.where(
            t > 0.0, np.minimum(3.0, coef[i] * np.maximum(t, 0.0) ** 1.5),
            0.0)),
        ("jump", lambda t, i: np.where(t > 0.0, 0.7 + t, 0.0)),
        ("step", lambda t, i: (t > 0.0).astype(float)),
    ]


def _check_against_oracle(h, w, budget, law, warm=False, cuts=()):
    """threshold_fill against the oracle, plus the prefix contract: every
    fill call gets a super-level set of the heads, with t > 0 throughout
    and the left-limit argument only on the lowest head of the call. The
    search must return the count of cells above mu, and cells to fill that
    hold every nonzero fill. With warm, it is repeated from starts around
    that count, below it and past it, and must give the same result from
    each. Each of cuts picks the band of a call from the top and one from
    the count, which must return the cold result bit for bit. Returns mu
    and the fill calls of the cold search."""
    mu_ref, u_ref = _threshold_fill_oracle(
        h, w, budget, lambda t: law(t, np.arange(h.size)))
    scale = float(np.max(np.abs(u_ref))) if u_ref.size else 0.0

    def check(start, cut=None):
        calls = []

        def fill(cells):
            def band(t):
                idx = cells[:t.size]
                calls.append((t.copy(), idx.copy()))
                return law(t, idx)
            return band

        mu, fills, count, filled = threshold_fill(h, w, budget, fill, start,
                                                  cut)
        # the fills come as the nonzero ones of the ascending cells filled
        assert np.all(np.diff(filled) > 0) and np.all(fills != 0.0)
        u = np.zeros(h.size)
        u[filled] = fills
        assert abs(mu - mu_ref) <= 1e-12 * abs(mu_ref)
        np.testing.assert_allclose(u, u_ref, rtol=1e-12, atol=1e-12 * scale)
        if mu > 0.0:
            np.testing.assert_allclose(float(np.sum(w * u)), budget,
                                       rtol=1e-12)
        assert count == np.count_nonzero(h > mu)
        assert np.all(u[np.setdiff1d(np.arange(h.size), filled)] == 0.0)
        for t, idx in calls:
            assert idx.size and np.all(t > 0.0)
            heads = h[idx]
            low = float(np.min(heads))
            np.testing.assert_array_equal(np.sort(idx),
                                          np.flatnonzero(h >= low))
            assert np.all(heads[t == TINY] == low)
        return (mu, u, count, filled), calls

    cold, calls = check(0)
    count = cold[2]
    if warm:
        # starts around the count, a quarter of the way into the heads (at
        # least 128 cells) and past every head
        for start in (1, count, count - 1, count + 1, 3 * count,
                      2 * max(h.size // 8, 64), h.size):
            check(start)
    for cut in cuts:
        for start in (0, count):
            got, warm_calls = check(start, cut)
            assert got[0] == cold[0] and got[2] == cold[2], cut
            for a, b in zip(got[1::2], cold[1::2]):
                np.testing.assert_array_equal(a, b)
            if np.any((h > cold[0]) & (h <= cut)):
                # a head between mu and the cut: the search ran again
                # with no cut
                assert min(np.min(h[i]) for _, i in warm_calls) <= cut
    return cold[0], calls


def test_threshold_fill_matches_full_array_search(rng):
    for _ in range(60):
        n = int(rng.integers(5, 400))
        # heads on a coarse lattice: many ties, about a quarter negative
        h = np.round(rng.uniform(-1.0, 3.0, n), 1)
        w = rng.uniform(0.1, 2.0, n)
        for _, law in _fills(rng, n):
            full = float(np.sum(w * law(h, np.arange(n))))
            if full == 0.0:
                continue
            budget = rng.uniform(0.02, 0.98) * full
            mu, _ = _check_against_oracle(h, w, budget, law)
            assert mu > 0.0


def test_threshold_fill_across_growing_bands(rng):
    # budgets of 0.3 to 0.98 of the full mass put mu low enough that the
    # fill calls reach past the n // 8 largest heads; heads on a 0.1 or
    # 0.01 lattice put ties on every level
    for _ in range(40):
        n = int(rng.integers(600, 3001))
        h = np.round(rng.uniform(-1.0, 3.0, n), int(rng.integers(1, 3)))
        w = rng.uniform(0.1, 2.0, n)
        for _, law in _fills(rng, n):
            full = float(np.sum(w * law(h, np.arange(n))))
            budget = rng.uniform(0.3, 0.98) * full
            mu, calls = _check_against_oracle(h, w, budget, law, warm=True)
            assert mu > 0.0
            assert max(idx.size for _, idx in calls) > n // 8


def test_threshold_fill_value_band(rng):
    # a warm call sorts only the heads above its cut. Cuts below mu, at
    # it, on heads above it and above every head (the search must run
    # again with no cut), and below 0 (every positive head); heads on a
    # 0.1 lattice put ties exactly on the cuts
    for _ in range(10):
        n = int(rng.integers(600, 3001))
        h = np.round(rng.uniform(-1.0, 3.0, n), 1)
        w = rng.uniform(0.1, 2.0, n)
        for _, law in _fills(rng, n):
            full = float(np.sum(w * law(h, np.arange(n))))
            budget = rng.uniform(0.3, 0.98) * full
            mu, _ = _check_against_oracle(h, w, budget, law)
            heads = np.unique(h)
            below, above = heads[heads < mu], heads[heads > mu]
            _check_against_oracle(h, w, budget, law, cuts=(
                -1.0, 0.0, below[-3], below[-1], mu - 1e-3 * mu, mu,
                above[0], above[above.size // 2], above[-1], above[-1] + 1.0))


def test_threshold_fill_warm_start_on_a_ledge(rng):
    # a jump fill on heads of a 0.1 lattice, with a budget inside the jump
    # at the head 1.0 or at its top, the left-limit mass there: mu is that
    # head from every start and under every cut, the cuts above it
    # included
    n = 2000
    h = np.round(rng.uniform(-1.0, 3.0, n), 1)
    w = rng.uniform(0.1, 2.0, n)
    law = _fills(rng, n)[1][1]
    above, on = h > 1.0, h == 1.0
    full = float(np.sum(w[above] * law(h[above] - 1.0, None)))
    left = np.full(np.count_nonzero(on), TINY)
    jump = float(np.sum(w[on] * law(left, None)))
    cuts = (-1.0, 0.9, 1.0 - 1e-3, 1.0, 1.1, 3.0)
    mu, _ = _check_against_oracle(h, w, full + 0.5 * jump, law, warm=True,
                                  cuts=cuts)
    assert mu == 1.0
    # at the top the oracle's root lies within roundoff below the head
    mu, _ = _check_against_oracle(h, w, full + jump, law, warm=True,
                                  cuts=cuts)
    assert abs(mu - 1.0) <= 1e-12


def test_threshold_fill_zero_multiplier_when_the_fill_fits(rng):
    n = 50
    h = rng.uniform(-1.0, 2.0, n)
    w = rng.uniform(0.1, 2.0, n)
    for name, law in _fills(rng, n):
        full = float(np.sum(w * law(h, np.arange(n))))
        # a budget equal to the full mass would sit on roundoff: the two
        # searches sum the same terms in different orders
        for budget in ((1.0 + 1e-9) * full, 1.5 * full):
            mu, calls = _check_against_oracle(h, w, budget, law)
            assert mu == 0.0, name
            # the last call is the mass at mu = 0 over every positive head
            np.testing.assert_array_equal(np.sort(calls[-1][1]),
                                          np.flatnonzero(h > 0.0))
    # no positive head: nothing fills and fill is never called
    mu, calls = _check_against_oracle(-np.abs(h), w, 1.0, _fills(rng, n)[0][1])
    assert mu == 0.0 and calls == []


def test_threshold_fill_single_level(rng):
    n = 40
    h = np.where(rng.random(n) < 0.6, 1.5, -rng.uniform(0.0, 1.0, n))
    w = rng.uniform(0.1, 2.0, n)
    on = h > 0.0
    for name, law in _fills(rng, n):
        full = float(np.sum(w * law(h, np.arange(n))))
        idx = np.flatnonzero(on)
        left_limit = float(np.sum(w[on] * law(np.full(idx.size, TINY), idx)))
        for share in (0.1, 0.5, 0.9):
            mu, _ = _check_against_oracle(h, w, share * full, law)
            if share * full < left_limit:
                # the mass jumps across the budget at the one head: mu sits
                # on it and the level set shares the budget
                assert mu == 1.5, name
            else:
                assert 0.0 < mu < 1.5, name
    # the step fill on one level is the bathtub ledge: fractions w-blind
    mu, fills, _, filled = threshold_fill(
        h, w, 0.5 * float(np.sum(w[on])),
        lambda idx: lambda t: (t > 0.0).astype(float))
    u = np.zeros(n)
    u[filled] = fills
    np.testing.assert_allclose(u[on], 0.5, rtol=1e-14)
    assert np.all(u[~on] == 0.0)


def test_threshold_fill_leaves_no_arrays_in_reference_cycles(rng):
    # arrays held by a closure in a reference cycle would outlive the call
    # until a cyclic collection; across solver iterations that raised the
    # peak memory. A cut above every head makes the search run again with
    # no cut, so the guard covers that call too
    n = 200
    h = rng.uniform(-1.0, 3.0, n)
    w = rng.uniform(0.1, 2.0, n)
    law = _fills(rng, n)[0][1]
    budget = 0.3 * float(np.sum(w * law(h, np.arange(n))))
    for cut in (None, float(np.max(h)) + 1.0):
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            mu, *_ = threshold_fill(
                h, w, budget, lambda idx: lambda t: law(t, idx[:t.size]), 0,
                cut)
            gc.collect()
            held = [r for o in gc.garbage for r in gc.get_referents(o)
                    if isinstance(r, np.ndarray)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert 0.0 < mu < float(np.max(h))
        assert held == []


@pytest.mark.parametrize("which", ["coarse_turkington", "coarse_power_law"])
def test_solve_mu_matches_full_array_search(which, request):
    result = request.getfixturevalue(which)
    config, gen = result.config, result.gen
    psi0 = apply_stream_operator(result.state.zeta)
    mu, zeta, *_ = solver.solve_mu(config, psi0.values, solver._grid_constants(
        config, gen, psi0.spec))

    # the full-array update of solve_mu, through the oracle search
    spec = psi0.spec
    lam = config.resolved_lambda(gen)
    eps2 = config.epsilon ** 2
    head = psi0.values - solver.background_field(config, spec)
    cand = head > 0.0
    rc = np.repeat(spec.r_centers[:, None], spec.n_z, axis=1)[cand]
    mu_ref, uc = _threshold_fill_oracle(
        head[cand], spec.nu_weights()[cand], config.kappa * eps2,
        lambda t: np.minimum(lam, eval_i(gen, rc, t)))
    vals = np.zeros(head.shape)
    vals[cand] = uc / eps2
    zeta_ref = ScalarField(spec, vals)
    solver._capped(vals, config, lam, integrate_nu(zeta_ref))

    assert mu > 0.0
    assert abs(mu - mu_ref) <= 1e-12 * mu_ref
    scale = float(np.max(zeta_ref.values))
    assert float(np.max(np.abs(zeta - zeta_ref.values))) <= 1e-12 * scale


def test_bathtub_worked_example():
    space = MeasureSpace(weights=[1.0, 1.0, 1.0], values=[3.0, 2.0, 1.0],
                         capacity=1.5)
    sol = bathtub_maximize(space)
    assert sol.level == 2.0
    np.testing.assert_array_equal(sol.omega, [1.0, 0.5, 0.0])
    assert sol.value == 4.0


def test_bathtub_all_negative_fills_nothing():
    space = MeasureSpace(weights=[1.0, 2.0], values=[-3.0, -0.5],
                         capacity=1.0)
    sol = bathtub_maximize(space)
    np.testing.assert_array_equal(sol.omega, [0.0, 0.0])
    assert sol.value == 0.0


def test_bathtub_slack_capacity():
    # capacity exceeds the weight of the positive part, so the constraint
    # is inactive and only the sign cutoff matters
    space = MeasureSpace(weights=[1.0, 1.0], values=[1.0, -1.0],
                         capacity=1.5)
    sol = bathtub_maximize(space)
    np.testing.assert_array_equal(sol.omega, [1.0, 0.0])
    assert sol.value == 1.0
    assert sol.level <= 0.0


def test_bathtub_matches_brute_force(rng):
    for _ in range(200):
        n = int(rng.integers(2, 11))
        w = rng.uniform(0.1, 2.0, n)
        h = rng.uniform(-2.0, 4.0, n)
        cap = rng.uniform(0.05, 0.95) * float(np.sum(w))
        sol = bathtub_maximize(MeasureSpace(weights=w, values=h,
                                            capacity=cap))
        ref = _bathtub_brute(w, h, cap)
        assert abs(sol.value - ref) <= 1e-12 * (1.0 + abs(ref))
        assert np.all(sol.omega >= 0.0) and np.all(sol.omega <= 1.0)
        assert float(np.sum(w * sol.omega)) <= cap * (1.0 + 1e-12)


def test_bathtub_value_monotone_in_capacity(rng):
    w = rng.uniform(0.1, 2.0, 8)
    h = rng.uniform(-1.0, 3.0, 8)
    total = float(np.sum(w))
    caps = np.linspace(0.05, 0.95, 12) * total
    vals = [bathtub_maximize(MeasureSpace(weights=w, values=h,
                                          capacity=c)).value
            for c in caps]
    assert np.all(np.diff(vals) >= -1e-12)


def test_measure_space_validation():
    with pytest.raises(ConfigurationError):
        MeasureSpace(weights=[], values=[], capacity=1.0)
    with pytest.raises(ConfigurationError):
        MeasureSpace(weights=[1.0, -1.0], values=[1.0, 2.0], capacity=0.5)
    with pytest.raises(ConfigurationError):
        MeasureSpace(weights=[1.0], values=[1.0, 2.0], capacity=0.5)
    with pytest.raises(ConfigurationError):
        MeasureSpace(weights=[1.0, 1.0], values=[1.0, 2.0], capacity=2.0)
    with pytest.raises(ConfigurationError):
        MeasureSpace(weights=[1.0, 1.0], values=[1.0, 2.0], capacity=0.0)


def _small_grid(n_r=3, n_z=4):
    return build_grid(0.5, 2.0, -1.0, 1.0, n_r, n_z)


def test_steiner_slot_order():
    spec = _small_grid()
    vals = np.zeros((3, 4))
    vals[1] = [0.0, 3.0, 1.0, 0.0]
    out = steiner_symmetrize_z(ScalarField(spec, vals))
    # largest value just below z = 0, next just above, then outward
    np.testing.assert_array_equal(out.values[1], [0.0, 3.0, 1.0, 0.0])
    vals2 = np.zeros((3, 4))
    vals2[0] = [5.0, 3.0, 2.0, 8.0]
    out2 = steiner_symmetrize_z(ScalarField(spec, vals2))
    np.testing.assert_array_equal(out2.values[0], [3.0, 8.0, 5.0, 2.0])


def test_steiner_idempotent(rng):
    spec = _small_grid(5, 8)
    fld = ScalarField(spec, rng.uniform(0.0, 4.0, (5, 8)))
    once = steiner_symmetrize_z(fld)
    twice = steiner_symmetrize_z(once)
    np.testing.assert_array_equal(once.values, twice.values)


def test_steiner_even_and_monotone(rng):
    spec = _small_grid(4, 10)
    out = steiner_symmetrize_z(ScalarField(spec, rng.uniform(0.0, 1.0, (4, 10))))
    v = out.values
    half = 10 // 2
    # nonincreasing in |z| along each side of every column
    neg = v[:, :half][:, ::-1]   # center outward
    pos = v[:, half:]
    assert np.all(np.diff(neg, axis=1) <= 0.0)
    assert np.all(np.diff(pos, axis=1) <= 0.0)
    # center-out interleaving: ranks alternate sides, negative side first
    assert np.all(neg >= pos)
    assert np.all(pos[:, :-1] >= neg[:, 1:])
    # a column of tied pairs comes out exactly even
    paired = np.repeat(rng.uniform(0.0, 1.0, (4, 5)), 2, axis=1)
    sym = steiner_symmetrize_z(ScalarField(spec, paired)).values
    np.testing.assert_array_equal(sym, sym[:, ::-1])


def test_steiner_preserves_column_multisets_and_mass(rng):
    spec = _small_grid(4, 6)
    fld = ScalarField(spec, rng.uniform(0.0, 2.0, (4, 6)))
    out = steiner_symmetrize_z(fld)
    for i in range(4):
        np.testing.assert_array_equal(np.sort(out.values[i]),
                                      np.sort(fld.values[i]))
    # columns are permutations, so the integral matches up to summation order
    np.testing.assert_allclose(integrate_nu(out), integrate_nu(fld),
                               rtol=1e-13)


def _kernel_energy(op, fld):
    return float(np.sum(fld.values * op.apply_direct(fld.values)
                        * fld.spec.nu_weights()))


def test_steiner_does_not_decrease_kernel_energy(rng):
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 10, 12)
    op = get_stream_operator(spec)
    for _ in range(4):
        vals = np.zeros((10, 12))
        npts = int(rng.integers(4, 12))
        ii = rng.integers(0, 10, npts)
        jj = rng.integers(0, 12, npts)
        vals[ii, jj] = rng.uniform(0.5, 2.0, npts)
        fld = ScalarField(spec, vals)
        sym = steiner_symmetrize_z(fld)
        e0 = _kernel_energy(op, fld)
        e1 = _kernel_energy(op, sym)
        assert e1 >= e0 - 1e-6 * (1.0 + abs(e0))


def test_steiner_rejects_bad_inputs():
    bad_spec = build_grid(0.5, 2.0, -0.5, 1.0, 3, 4)
    with pytest.raises(ConfigurationError):
        steiner_symmetrize_z(ScalarField(bad_spec, np.ones((3, 4))))
    odd_spec = build_grid(0.5, 2.0, -1.0, 1.0, 3, 5)
    with pytest.raises(ConfigurationError):
        steiner_symmetrize_z(ScalarField(odd_spec, np.ones((3, 5))))
    good = _small_grid()
    vals = np.ones((3, 4))
    vals[0, 0] = -0.1
    with pytest.raises(ConfigurationError):
        steiner_symmetrize_z(ScalarField(good, vals))
