"""Ring kernel evaluation, the stream operator, and the fd cross-check.

The reference value for K(1,0,1,0.1) was produced by fixed-order
trapezoid quadrature of the azimuthal integral at 10^6 nodes in an
independent scratch script before this module was built, and is frozen
here as an oracle.
"""

import tracemalloc

import numpy as np
import pytest

from vortexring.errors import (ConfigurationError, GridMismatchError,
                               SingularEvaluationError)
from scipy.fft import dct

from vortexring.greens import (_elliptic_kernel, apply_stream_operator,
                               build_kernel_block,
                               default_extended_box,
                               expansion_remainder, fd_solve,
                               StreamOperator, get_stream_operator,
                               kernel_bound,
                               kernel_closed_form, kernel_quadrature,
                               restrict_to_grid, ring_velocity_z, sigma)
from vortexring.grid import ScalarField, build_grid, integrate_nu

K_REFERENCE_1_0_1_01 = 0.38031872677820611
COINCIDENCE_REMAINDER = (np.log(2.0) - 2.0) / (2.0 * np.pi)


def test_sigma_values():
    assert sigma(1.0, 0.0, 1.0, 0.0) == 0.0
    np.testing.assert_allclose(sigma(1.0, 0.0, 1.0, 2.0), 1.0, rtol=1e-15)
    np.testing.assert_allclose(sigma(2.0, 0.0, 0.5, 0.0), 0.75, rtol=1e-15)
    with pytest.raises(ConfigurationError):
        sigma(0.0, 0.0, 1.0, 0.0)
    with pytest.raises(ConfigurationError):
        sigma(1.0, 0.0, -1.0, 0.0)


def test_quadrature_reference_value():
    got = kernel_quadrature(1.0, 0.0, 1.0, 0.1)
    np.testing.assert_allclose(got.value, K_REFERENCE_1_0_1_01, rtol=1e-9)
    closed = kernel_closed_form(1.0, 0.0, 1.0, 0.1)
    np.testing.assert_allclose(closed.value, K_REFERENCE_1_0_1_01, rtol=1e-12)


def test_quadrature_bound_at_sigma_one():
    val = kernel_quadrature(1.0, 0.0, 1.0, 2.0).value
    bound = np.log(1.0 + np.sqrt(2.0)) / (4.0 * np.pi)
    np.testing.assert_allclose(kernel_bound(1.0, 0.0, 1.0, 2.0), bound,
                               rtol=1e-12)
    assert 0.0 < val <= bound


def test_kernel_symmetry_and_z_translation(rng):
    for _ in range(40):
        r, rp = rng.uniform(0.5, 2.0, 2)
        z, zp = rng.uniform(-1.0, 1.0, 2)
        if sigma(r, z, rp, zp) < 1e-8:
            continue
        a = kernel_closed_form(r, z, rp, zp).value
        b = kernel_closed_form(rp, zp, r, z).value
        assert abs(a - b) <= 1e-12 * a
        c = kernel_closed_form(r, z + 0.37, rp, zp + 0.37).value
        assert abs(a - c) <= 1e-12 * a


def test_elliptic_kernel_is_symmetric_and_pointwise(rng):
    # the in-place evaluation on broadcast arrays, as the table build calls
    # it: bitwise symmetric under (r, z) <-> (r', z') and, pair by pair,
    # the scalar evaluation of kernel_closed_form
    r, rp = rng.uniform(0.5, 2.0, (2, 12, 1))
    z, zp = rng.uniform(-1.0, 1.0, (12, 1)), rng.uniform(-1.0, 1.0, 9)
    val, _ = _elliptic_kernel(r, z, rp, zp)
    assert val.shape == (12, 9)
    assert np.array_equal(val, _elliptic_kernel(rp, zp, r, z)[0])
    pointwise = [[kernel_closed_form(r[i, 0], z[i, 0], rp[i, 0], zp[j]).value
                  for j in range(9)] for i in range(12)]
    assert np.array_equal(val, pointwise)


def test_elliptic_kernel_matches_its_scalar_calls(rng):
    # numpy scalars take other paths than arrays (x ** 2 is pow() there):
    # each of 2000 pairs alone, as kernel_closed_form evaluates it, gives
    # the array's value bit for bit
    r, rp = rng.uniform(0.5, 2.0, (2, 2000))
    z, zp = rng.uniform(-1.0, 1.0, (2, 2000))
    alone = [kernel_closed_form(*pair).value for pair in zip(r, z, rp, zp)]
    assert np.array_equal(_elliptic_kernel(r, z, rp, zp)[0], alone)


def test_far_pairs_keep_their_values_beside_a_near_pair():
    # 100,000 far pairs (dz 10 to 1e4) converge in fewer AGM steps than one
    # near pair (r' = r + 1e-9, dz = 0); beside it in one array, each held
    # pair keeps the value it has alone, and every 50th the scalar value
    rng = np.random.default_rng(7)
    r, rp = rng.uniform(0.5, 2.0, (2, 100_000))
    dz = 10.0 ** rng.uniform(1.0, 4.0, 100_000)
    alone, _ = _elliptic_kernel(r, 0.0, rp, dz)
    joined, _ = _elliptic_kernel(np.append(r, 1.0), 0.0,
                                 np.append(rp, 1.0 + 1e-9), np.append(dz, 0.0))
    assert np.array_equal(joined[:-1], alone)
    scalar = [kernel_closed_form(a, 0.0, b, c).value
              for a, b, c in zip(r[::50], rp[::50], dz[::50])]
    assert np.array_equal(alone[::50], scalar)


@pytest.mark.parametrize("fn", [kernel_closed_form, expansion_remainder,
                                ring_velocity_z])
def test_non_finite_pair_raises(fn):
    # inf and NaN in each argument
    good = (1.0, 0.0, 1.5, 0.3)
    bad = [good[:i] + (v,) + good[i + 1:] for i in range(4)
           for v in (np.inf, np.nan)]
    for pair in bad:
        with np.errstate(invalid="ignore", over="ignore"), \
                pytest.raises(SingularEvaluationError):
            fn(*pair)


@pytest.mark.parametrize("fn, degree", [
    (lambda *pair: kernel_closed_form(*pair).value, 1),
    (expansion_remainder, 0), (ring_velocity_z, -1)],
    ids=["kernel_closed_form", "expansion_remainder", "ring_velocity_z"])
def test_pointwise_kernels_scale_with_length(fn, degree):
    # K has degree 1 in length, its remainder 0 and the axial velocity -1.
    # A power of two scales exactly, so at 2^k times a pair each is 2^(k
    # degree) times its unit value bit for bit, and stays finite far from
    # unit scale: a far pair, an offset one, and a near one
    for pair in ((1.0, 0.0, 2.0, 0.0), (0.7, 0.3, 1.9, -0.4),
                 (1.3, 0.0, 1.3 + 1e-9, 0.0)):
        unit = fn(*pair)
        for k in (20, -20, 500, -500):
            got = fn(*(np.ldexp(x, k) for x in pair))
            assert np.isfinite(got) and got == np.ldexp(unit, k * degree)
    # at r = 1e200 the weighted first term of the AGM sum overflowed
    # unscaled, and at 1e-160 r1^2 r2^2 underflowed
    for c in (1e200, 1e-160):
        np.testing.assert_allclose(fn(c, 0.0, 2.0 * c, 0.0) / c ** degree,
                                   fn(1.0, 0.0, 2.0, 0.0), rtol=1e-14)


def test_closed_form_matches_quadrature(rng):
    worst = 0.0
    for _ in range(60):
        r, rp = rng.uniform(0.5, 2.0, 2)
        z, zp = rng.uniform(-1.0, 1.0, 2)
        if sigma(r, z, rp, zp) < 1e-6:
            continue
        qv = kernel_quadrature(r, z, rp, zp).value
        cv = kernel_closed_form(r, z, rp, zp).value
        worst = max(worst, abs(qv - cv) / qv)
    assert worst <= 1e-10


def _kernel_mp(r, z, rp, zp):
    # Lamb's form through the complete elliptic integrals at 40 digits
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        r, z, rp, zp = (mpmath.mpf(float(x)) for x in (r, z, rp, zp))
        r1 = mpmath.sqrt((r - rp) ** 2 + (z - zp) ** 2)
        r2 = mpmath.sqrt((r + rp) ** 2 + (z - zp) ** 2)
        lam2 = ((r2 - r1) / (r2 + r1)) ** 2
        return float((r1 + r2) * (mpmath.ellipk(lam2) - mpmath.ellipe(lam2))
                     / (2 * mpmath.pi))


@pytest.mark.parametrize("dz", [10.0, 30.0])
def test_closed_form_far_along_the_axis(dz):
    # K ~ (r r')^2 / (4 dz^3) far out, where the elliptic-integral form
    # loses digits to a difference of large terms
    ref = _kernel_mp(1.0, 0.0, 1.0, dz)
    got = kernel_closed_form(1.0, 0.0, 1.0, dz).value
    assert abs(got - ref) <= 1e-14 * ref


@pytest.mark.parametrize("far", [False, True], ids=["box", "far"])
def test_closed_form_matches_mpmath(far, rng):
    # 200 pairs on the unit box; 100 at dz = 5 to 50, where r2 - r1 alone
    # would leave c_1 a difference of close numbers
    worst = 0.0
    for _ in range(100 if far else 200):
        r, rp = rng.uniform(0.5, 2.0, 2)
        z, zp = (0.0, rng.uniform(5.0, 50.0)) if far else rng.uniform(
            -1.0, 1.0, 2)
        ref = _kernel_mp(r, z, rp, zp)
        worst = max(worst, abs(kernel_closed_form(r, z, rp, zp).value - ref)
                    / ref)
    assert worst <= 2e-15


def test_singular_evaluation_raises():
    with pytest.raises(SingularEvaluationError):
        kernel_closed_form(1.0, 0.3, 1.0, 0.3)
    with pytest.raises(SingularEvaluationError):
        kernel_quadrature(1.0, 0.3, 1.0, 0.3)


@pytest.mark.parametrize("d", [1e-155, 1e-160])
def test_closed_form_at_subnormal_m1(d):
    # m1 = d^2 / 4 is subnormal (2.5e-311, 2.5e-321), and the elliptic form
    # still gives the near-coincidence law (log(4/k') - 2) / (2 pi) there
    m1 = d * d / 4.0
    assert 0.0 < m1 < 1e-300
    law = (np.log(4.0 / np.sqrt(m1)) - 2.0) / (2.0 * np.pi)
    np.testing.assert_allclose(kernel_closed_form(1.0, 0.0, 1.0, d).value,
                               law, rtol=1e-15)


def test_log_leading_behavior_bounded():
    # K * 2 pi / sqrt(r r') - log(1/sigma) stays bounded as sigma -> 0
    vals = []
    for d in (1e-2, 1e-4, 1e-6, 1e-8):
        k = kernel_closed_form(1.0, 0.0, 1.0, d).value
        s = sigma(1.0, 0.0, 1.0, d)
        vals.append(k * 2.0 * np.pi - np.log(1.0 / s))
    vals = np.asarray(vals)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 2.0
    # and the centered remainder tends to the coincidence constant
    rem = expansion_remainder(1.0, 0.0, 1.0, 1e-8)
    np.testing.assert_allclose(rem, COINCIDENCE_REMAINDER, rtol=1e-5)


def test_remainder_sigma_one_identity():
    # at sigma = 1 the log(1/sigma) term vanishes, leaving
    # l = K/sqrt(rr') - log(1+sqrt(2))/(2 pi)
    r, z, rp = 1.3, 0.2, 0.8
    zp = z + np.sqrt(4 * r * rp - (r - rp) ** 2)
    np.testing.assert_allclose(sigma(r, z, rp, zp), 1.0, rtol=1e-14)
    k = kernel_closed_form(r, z, rp, zp).value
    expect = k / np.sqrt(r * rp) - np.log(1.0 + np.sqrt(2.0)) / (2.0 * np.pi)
    np.testing.assert_allclose(expansion_remainder(r, z, rp, zp), expect,
                               rtol=1e-12)


def test_remainder_bounded_two_resolutions(rng):
    def sup(n):
        rr = rng.uniform(0.5, 2.0, (n, 2))
        zz = rng.uniform(-1.0, 1.0, (n, 2))
        keep = sigma(rr[:, 0], zz[:, 0], rr[:, 1], zz[:, 1]) > 1e-9
        vals = expansion_remainder(rr[keep, 0], zz[keep, 0], rr[keep, 1],
                                   zz[keep, 1])
        return float(np.max(np.abs(vals)))

    coarse = sup(300)
    fine = sup(1200)
    assert np.isfinite(fine)
    assert fine <= 1.05 * coarse


def test_half_pi_bound_holds_quarter_pi_fails_close_in(rng):
    """The asinh envelope with the 1/(2 pi) prefactor dominates K at every
    separation; the tighter 1/(4 pi) variant is provably violated once
    sigma drops below about 0.163, because K ~ (sqrt(rr')/2 pi) log(1/sigma)
    while that envelope only carries half the log coefficient."""
    for _ in range(200):
        r, rp = rng.uniform(0.5, 2.0, 2)
        z, zp = rng.uniform(-1.0, 1.0, 2)
        if sigma(r, z, rp, zp) < 1e-9:
            continue
        k = kernel_closed_form(r, z, rp, zp).value
        assert 0.0 < k <= kernel_bound(r, z, rp, zp, coef=0.5) * (1 + 1e-12)
    # documented counterexample to the 1/(4 pi) variant
    r = rp = 1.0
    z, zp = 0.0, 0.1  # sigma = 0.05
    k = kernel_closed_form(r, z, rp, zp).value
    assert k > kernel_bound(r, z, rp, zp, coef=0.25)


def test_stream_operator_zero_and_linearity(rng):
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 24, 24)
    op = get_stream_operator(spec)
    zero = np.zeros((24, 12))
    assert np.all(op.apply_even(zero) == 0.0)
    a = np.abs(rng.standard_normal((24, 12)))
    b = np.abs(rng.standard_normal((24, 12)))
    combo = op.apply_even(2.0 * a + 3.0 * b)
    parts = 2.0 * op.apply_even(a) + 3.0 * op.apply_even(b)
    scale = np.max(np.abs(combo))
    assert np.max(np.abs(combo - parts)) <= 1e-12 * scale


def test_stream_operator_deterministic(rng):
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 20, 20)
    op = get_stream_operator(spec)
    z = np.abs(rng.standard_normal((20, 10)))
    one = op.apply_even(z)
    two = op.apply_even(z.copy())
    assert np.array_equal(one, two)


def _row_fields(n_r, n_z, rng):
    band = np.zeros((n_r, n_z))
    band[2:n_r - 3] = rng.uniform(0.0, 1.0, (n_r - 5, n_z))
    first = np.zeros((n_r, n_z))
    first[0] = rng.uniform(0.0, 1.0, n_z)
    last = np.zeros((n_r, n_z))
    last[-1] = rng.uniform(0.0, 1.0, n_z)
    dense = rng.uniform(0.0, 1.0, (n_r, n_z))
    # fields on fewer z-rows than the box: the even apply transforms only
    # the z-rows up to the last one holding vorticity
    z_first = np.zeros((n_r, n_z))
    z_first[:, 0] = rng.uniform(0.0, 1.0, n_r)
    z_last = np.zeros((n_r, n_z))
    z_last[:, -1] = rng.uniform(0.0, 1.0, n_r)
    single = np.zeros((n_r, n_z))
    single[n_r // 2, n_z // 2] = 1.0
    return {"band": band, "first row": first, "last row": last,
            "dense": dense, "first z-row": z_first, "last z-row": z_last,
            "single cell": single, "empty": np.zeros((n_r, n_z))}


@pytest.mark.parametrize("n_r,n_z", [(13, 18), (20, 10), (16, 16)])
def test_apply_even_matches_direct_summation(n_r, n_z, rng):
    op = StreamOperator(build_grid(0.5, 2.0, -1.0, 1.0, n_r, n_z))
    half = n_z // 2
    for name, vals in _row_fields(n_r, half, rng).items():
        # the even field whose rows z > 0 are vals
        even = np.hstack((vals[:, ::-1], vals))
        direct = op.apply_direct(even)[:, half:]
        got = op.apply_even(vals)
        assert got.shape == (n_r, half)
        assert got.flags.c_contiguous, name
        if name == "empty":
            assert np.all(got == 0.0) and np.all(direct == 0.0)
            continue
        err = np.max(np.abs(got - direct)) / np.max(np.abs(direct))
        assert err <= 1e-13, (name, err)
    assert np.all(op.apply_even(np.zeros((n_r, half))) == 0.0)


@pytest.mark.parametrize("box", [(-1.0, 1.0, 9), (-1.0, 0.5, 10)],
                         ids=["odd n_z", "off-centre box"])
def test_apply_even_needs_a_z_symmetric_grid(box):
    z_min, z_max, n_z = box
    op = StreamOperator(build_grid(0.5, 2.0, z_min, z_max, 6, n_z))
    with pytest.raises(ConfigurationError):
        op.apply_even(np.ones((6, n_z // 2)))


@pytest.mark.parametrize("shape", [(16, 20), (16, 7), (12, 10)],
                         ids=["full width", "short rows", "short columns"])
def test_apply_even_rejects_a_field_of_another_shape(shape):
    # the rows z > 0 of a 16 x 20 grid are (16, 10): a full-width field
    # must not be read as 20 half-rows, nor a short one drop source rows
    op = StreamOperator(build_grid(0.5, 2.0, -1.0, 1.0, 16, 20))
    with pytest.raises(GridMismatchError):
        op.apply_even(np.ones(shape))


def test_apply_even_band_from_a_given_index(rng):
    # run passes the sorted flat index of the nonzero cells it already
    # holds; the band of source rows it gives must match the scan's
    op = StreamOperator(build_grid(0.5, 2.0, -1.0, 1.0, 13, 18))
    for vals in _row_fields(13, 9, rng).values():
        idx = np.flatnonzero(vals.ravel() != 0.0)
        np.testing.assert_array_equal(op.apply_even(vals, idx),
                                      op.apply_even(vals))


@pytest.mark.parametrize("n_r,n_z", [(13, 18), (20, 10), (16, 16)])
def test_apply_even_on_a_row_range(n_r, n_z, rng):
    # the solver applies only the target rows whose heads can reach its
    # cut: those rows must be the full apply's, to roundoff, and the
    # others exactly zero
    op = StreamOperator(build_grid(0.5, 2.0, -1.0, 1.0, n_r, n_z))
    ranges = [(0, n_r), (0, 1), (n_r - 1, n_r), (2, n_r - 4), (n_r // 2, n_r)]
    for name, vals in _row_fields(n_r, n_z // 2, rng).items():
        full = op.apply_even(vals)
        scale = max(np.max(full), 1e-300)
        for a0, a1 in ranges:
            got = op.apply_even(vals, rows=(a0, a1))
            assert got.shape == full.shape and got.flags.c_contiguous
            err = np.max(np.abs(got[a0:a1] - full[a0:a1])) / scale
            assert err <= 1e-14, (name, a0, a1, err)
            assert not got[:a0].any() and not got[a1:].any(), (name, a0, a1)
        assert np.array_equal(op.apply_even(vals, rows=(0, n_r)), full)


@pytest.mark.parametrize("box", [
    (0.5, 2.0, 0.1, 13, 18), (0.5, 2.0, 0.1, 20, 10), (0.5, 2.0, 0.1, 16, 16),
    (1.21, 1.81, 0.3, 16, 16)], ids=["13x18", "20x10", "16x16", "inner box"])
def test_row_bound_holds_every_row(box, rng):
    # psi0(a, .) <= U(a) = sum_b bound[b, a] * (row b's full-field sum) for
    # any nonnegative field: the solver skips the rows whose U less the
    # background lies below its cut; given the source rows [b0, b1) that
    # hold the field, from b0 on, the bound is the same to roundoff
    r_min, r_max, z_half, n_r, n_z = box
    op = StreamOperator(build_grid(r_min, r_max, -z_half, z_half, n_r, n_z))
    fields = dict(_row_fields(n_r, n_z // 2, rng))
    fields.update({"Steiner " + name: -np.sort(-vals, axis=1)
                   for name, vals in list(fields.items())})
    for name, vals in fields.items():
        bound = op.row_bound(vals)
        assert bound.shape == (n_r,)
        assert np.all(np.max(op.apply_even(vals), axis=1) <= bound), name
        held = np.flatnonzero(vals.any(axis=1))
        if held.size:
            b0, b1 = held[0], held[-1] + 1
            np.testing.assert_allclose(op.row_bound(vals[b0:b1], b0), bound,
                                       rtol=1e-14, atol=0.0)
    assert np.all(op.bound > 0.0)


def test_apply_stream_operator_needs_an_even_field():
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 8, 10)
    vals = np.zeros((8, 10))
    vals[3, 4:6] = 1.0
    psi = apply_stream_operator(ScalarField(spec, vals))
    np.testing.assert_array_equal(psi.values, psi.values[:, ::-1])
    assert np.all(psi.values > 0.0)
    # one ulp off even in a single cell
    vals[3, 4] = np.nextafter(1.0, 2.0)
    with pytest.raises(ConfigurationError):
        apply_stream_operator(ScalarField(spec, vals))


def test_operator_build_holds_one_table():
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 48, 40)
    table_bytes = spec.n_r ** 2 * spec.n_z * 8
    # numpy keeps freed buffers under 1 kB in a per-process cache that
    # tracemalloc still counts, and a process's first build fills it: in a
    # fresh process the build holds 773.2 kB, 0.95 kB under the bound,
    # against 769.8 kB (the table, the bound and the two cosine matrices
    # take 768.5 kB) once warm. A small build first keeps that cache out of
    # the count, whatever ran before this test
    StreamOperator(build_grid(0.5, 2.0, -1.0, 1.0, 4, 4))
    tracemalloc.start()
    try:
        op = StreamOperator(spec)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not hasattr(op, "block")
    assert held <= 1.05 * table_bytes
    assert peak <= 1.25 * table_bytes


@pytest.mark.parametrize("box", [
    (0.5, 2.0, 16, 200), (6.25, 25.0, 96, 96), (25.0, 100.0, 64, 128),
    (0.5, 2.0, 200, 16)],
    ids=["default 16x200", "W=0.08 96x96", "W=0.02 64x128", "default 200x16"])
def test_kernel_lines_do_not_rise_with_the_offset(box):
    # the solver's Steiner invariant needs K[a, b, dj] nonincreasing in dj;
    # on cells 9-75 times wider than tall (the first three boxes) that
    # needs the near-field correction to reach as far in z as in r
    r_min, r_max, n_r, n_z = box
    block = build_kernel_block(build_grid(r_min, r_max, -1.0, 1.0, n_r, n_z))
    assert np.all(np.diff(block, axis=2) <= 0.0)


@pytest.mark.parametrize("n_r,n_z", [(13, 17), (20, 9), (48, 40), (3, 2)])
def test_stream_table_matches_block_build(n_r, n_z):
    # the triangle build against the block of every ordered pair, in the
    # build's order: the DCT-I over the offsets, then the source-row
    # weight, on the n_z frequencies the table holds; at (3, 2) the
    # near-diagonal band is wider than the grid
    spec = build_grid(0.5, 2.0, -1.0, 1.0, n_r, n_z)
    w = spec.r_centers * spec.cell_area
    block = build_kernel_block(spec)
    assert np.array_equal(block, block.transpose(1, 0, 2))
    ref = dct(np.concatenate((block.transpose(2, 1, 0),
                              np.zeros((1, n_r, n_r)))), type=1, axis=0)[:-1]
    ref *= w[None, :, None]
    table = StreamOperator(spec)._table
    assert np.max(np.abs(table - ref)) <= 1e-15 * np.max(np.abs(ref))
    assert np.array_equal(table, ref)


def test_single_cell_matches_pointwise_kernel():
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 32, 32)
    op = get_stream_operator(spec)
    # one cell of the rows z > 0 and its mirror image below z = 0
    upper = np.zeros((32, 16))
    i0, j0 = 8, 0
    upper[i0, j0] = 1.0
    psi = op.apply_even(upper)
    mass = spec.r_centers[i0] * spec.cell_area
    # a target far from both sees the plain kernel times the mass of each
    i1, j1 = 28, 12
    r1, z1 = spec.r_centers[i1], spec.z_centers[16 + j1]
    r0, z0 = spec.r_centers[i0], spec.z_centers[16 + j0]
    k = (kernel_closed_form(r1, z1, r0, z0).value
         + kernel_closed_form(r1, z1, r0, -z0).value)
    np.testing.assert_allclose(psi[i1, j1], k * mass, rtol=5e-13)


def test_extended_box_has_an_even_n_z():
    # 2 z_half * cells_per_unit = 714 cells, capped at an odd 301: the box
    # takes 302 so that it stays z-symmetric
    box = default_extended_box(build_grid(0.5, 2.0, -1.0, 1.0, 8, 8),
                               max_cells=301)
    assert (box.n_r, box.n_z) == (301, 302) and box.z_symmetric()


def test_fd_solve_zero_and_maximum_principle(rng):
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 16, 16)
    zero = ScalarField(spec, np.zeros((16, 16)))
    box = default_extended_box(spec, cells_per_unit=8.0)
    out = fd_solve(zero, box=box)
    assert np.all(out.values == 0.0)
    vals = np.zeros((16, 16))
    vals[6:9, 7:10] = rng.uniform(0.5, 1.5, (3, 3))
    out = fd_solve(ScalarField(spec, vals), box=box)
    assert np.min(out.values) >= 0.0
    assert np.max(out.values) > 0.0


def test_fd_matches_kernel_summation_on_patch():
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 24, 24)
    vals = np.zeros((24, 24))
    vals[10:14, 10:14] = 1.0
    zeta = ScalarField(spec, vals)
    psi_kernel = apply_stream_operator(zeta)
    box = default_extended_box(spec, cells_per_unit=20.0)
    psi_fd = restrict_to_grid(fd_solve(zeta, box=box), spec)
    num = np.sqrt(np.sum((psi_fd.values - psi_kernel.values) ** 2))
    den = np.sqrt(np.sum(psi_kernel.values ** 2))
    assert num / den < 0.05


def test_operator_cache_reuses_tables():
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 12, 12)
    assert get_stream_operator(spec) is get_stream_operator(spec)


def test_operator_cache_holds_one_grid():
    get_stream_operator(build_grid(0.5, 2.0, -1.0, 1.0, 12, 12))
    get_stream_operator(build_grid(0.5, 2.0, -1.0, 1.0, 10, 14))
    assert get_stream_operator.cache_info().currsize == 1


def test_ring_velocity_matches_quadrature_derivative():
    # (1/r) dK/dr by a centred difference of the quadrature kernel, which
    # shares none of the elliptic-integral identities
    rng = np.random.default_rng(7)
    made = 0
    while made < 20:
        r, rp = rng.uniform(0.5, 2.0, 2)
        z, zp = rng.uniform(-1.0, 1.0, 2)
        if np.hypot(r - rp, z - zp) < 0.5:
            continue
        made += 1
        h = 1e-4 * r
        k_plus = kernel_quadrature(r + h, z, rp, zp, tol=1e-12).value
        k_minus = kernel_quadrature(r - h, z, rp, zp, tol=1e-12).value
        expect = (k_plus - k_minus) / (2.0 * h * r)
        np.testing.assert_allclose(ring_velocity_z(r, z, rp, zp), expect,
                                   rtol=1e-5)


def test_ring_velocity_matches_mpmath(rng):
    # the far-field check's geometry: a circle of radius 6 around the ring,
    # sources in a core of radius 0.3; Lamb's form at 40 digits
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(40):
        for t in rng.uniform(-1.2, 1.2, 200):
            r, z = 1.0 + 6.0 * np.cos(t), 6.0 * np.sin(t)
            rp, zp = 1.0 + rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)
            a, b, c, d = (mpmath.mpf(float(x)) for x in (r, z, rp, zp))
            dz2, den = (b - d) ** 2, (a + c) ** 2 + (b - d) ** 2
            m = 4 * a * c / den
            ref = float((mpmath.ellipk(m) + (c * c - a * a - dz2)
                         / ((a - c) ** 2 + dz2) * mpmath.ellipe(m))
                        / (2 * mpmath.pi * mpmath.sqrt(den)))
            worst = max(worst, abs(ring_velocity_z(r, z, rp, zp) - ref)
                        / abs(ref))
    assert worst <= 1e-13


def test_mass_conservation_in_fd_resampling():
    # the conservative resample behind fd_solve preserves total vorticity,
    # checked indirectly: psi0 from a resampled source stays close to the
    # kernel answer even when the extended grid is much coarser
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 20, 20)
    vals = np.zeros((20, 20))
    vals[8:12, 9:12] = 2.0
    zeta = ScalarField(spec, vals)
    mass = integrate_nu(zeta)
    box = default_extended_box(spec, cells_per_unit=10.0)
    psi = fd_solve(zeta, box=box)
    assert np.isfinite(psi.values).all()
    assert mass > 0
