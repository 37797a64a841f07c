"""Diagnostics: support geometry, centroids, scaled core profiles,
topology, velocities, far field, and sweep asymptotics."""

import numpy as np
import pytest

from vortexring.diagnostics import (DiagnosticsRecord, angular_variation,
                                    asymptotic_fit, center_of_vorticity,
                                    core_radius, diagnostics_record,
                                    far_field_check, kelvin_hicks_check,
                                    predicted_slopes, ScaledProfile,
                                    scaled_profile, support_mask,
                                    support_on_edge, support_stats,
                                    topology_check, velocity_field)
from vortexring.errors import ConfigurationError, NumericalError
from vortexring.greens import default_extended_box, fd_solve
from vortexring.grid import GridSpec, ScalarField, bilinear_sample, build_grid
from vortexring.profiles import make_generator
from vortexring.solver import ProblemConfig, initialize


def test_support_mask_validation():
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 4, 4)
    zero = ScalarField(spec, np.zeros((4, 4)))
    with pytest.raises(NumericalError):
        support_mask(zero)


def test_support_stats_single_cell():
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 5, 5)
    vals = np.zeros((5, 5))
    vals[2, 2] = 1.0
    c = spec.r_centers[2]
    assert spec.z_centers[2] == 0.0
    tm, tp, diam, dist = support_stats(ScalarField(spec, vals), r_star=c)
    assert (tm, tp, diam, dist) == (c, c, 0.0, 0.0)


def test_support_stats_off_the_middle_rows():
    # a support clear of the rows nearest z = 0 takes its radii from
    # every support row
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 6, 8)
    vals = np.zeros((6, 8))
    vals[1, 6] = vals[4, 7] = 1.0
    tm, tp, _, _ = support_stats(ScalarField(spec, vals))
    assert (tm, tp) == (spec.r_centers[1], spec.r_centers[4])


def test_center_of_vorticity_on_an_asymmetric_grid():
    spec = build_grid(0.5, 2.0, -1.0, 0.5, 6, 10)
    assert not spec.z_symmetric()
    vals = np.zeros((6, 10))
    vals[2, 3] = vals[2, 7] = 1.0
    r, z = center_of_vorticity(ScalarField(spec, vals))
    np.testing.assert_allclose(r, spec.r_centers[2], rtol=1e-15)
    np.testing.assert_allclose(
        z, 0.5 * (spec.z_centers[3] + spec.z_centers[7]), rtol=1e-14)


def test_support_diameter_matches_all_pairs(rng):
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 30, 26)
    vals = np.where(rng.uniform(size=(30, 26)) < 0.3, 1.0, 0.0)
    vals[8:20, 5:15] = 1.0
    rr, zz = np.meshgrid(spec.r_centers, spec.z_centers, indexing="ij")
    r, z = rr[vals > 0], zz[vals > 0]
    brute = np.sqrt(np.max((r[:, None] - r[None, :]) ** 2
                           + (z[:, None] - z[None, :]) ** 2))
    assert support_stats(ScalarField(spec, vals))[2] == brute


def test_support_stats_on_initial_ball():
    cfg = ProblemConfig(epsilon=0.1, n_r=96, n_z=96)
    zeta = initialize(cfg, make_generator("power_law", p=1.0))
    tm, tp, diam, dist = support_stats(zeta, r_star=1.0)
    radius = 0.2
    cell = np.hypot(zeta.spec.dr, zeta.spec.dz)
    np.testing.assert_allclose(diam, 2.0 * radius, atol=3.0 * cell)
    np.testing.assert_allclose(dist, radius, atol=2.0 * cell)
    np.testing.assert_allclose(tm, 1.0 - radius, atol=2.0 * cell)
    np.testing.assert_allclose(tp, 1.0 + radius, atol=2.0 * cell)
    assert tm <= tp


def test_centroid_translation_by_one_cell():
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 8, 8)
    a = np.zeros((8, 8))
    b = np.zeros((8, 8))
    a[2, 3] = 5.0
    b[2, 4] = 5.0
    ra, za = center_of_vorticity(ScalarField(spec, a))
    rb, zb = center_of_vorticity(ScalarField(spec, b))
    assert ra == rb
    assert zb - za == spec.dz == 0.25


def test_centroid_even_field_has_exactly_zero_z(rng, coarse_turkington):
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 6, 10)
    half = rng.uniform(0.0, 1.0, (6, 5))
    vals = np.concatenate([half, half[:, ::-1]], axis=1)
    _, z = center_of_vorticity(ScalarField(spec, vals))
    assert z == 0.0
    _, z_solved = center_of_vorticity(coarse_turkington.state.zeta)
    assert z_solved == 0.0


def _disc_field(n=128, center=(1.1, 0.0), rho=0.12, height=3.0):
    spec = build_grid(0.5, 2.0, -1.0, 1.0, n, n)
    rr = spec.r_centers[:, None]
    zz = spec.z_centers[None, :]
    vals = np.where(np.hypot(rr - center[0], zz - center[1]) <= rho,
                    height, 0.0)
    return ScalarField(spec, vals)


def test_scaled_profile_disc_mass():
    zeta = _disc_field()
    eps = 0.1
    prof = scaled_profile(zeta, (1.1, 0.0), eps)
    expect = 3.0 * np.pi * 0.12 ** 2
    np.testing.assert_allclose(prof.planar_mass, expect, rtol=5e-2)
    assert prof.window_halfwidth >= 0.24 / eps
    # eps^2 times the height at the center, zero well outside the core
    spec = prof.field.spec
    rho = np.hypot(spec.r_centers[:, None], spec.z_centers[None, :])
    np.testing.assert_allclose(prof.field.values[rho < 0.5],
                               3.0 * eps ** 2, rtol=1e-12)
    assert np.all(prof.field.values[rho > 0.9 * prof.window_halfwidth] == 0.0)


def test_scaled_profile_clip_error():
    zeta = _disc_field()
    with pytest.raises(NumericalError):
        scaled_profile(zeta, (1.9, 0.9), 0.1)


def test_angular_variation_radial_disc():
    prof = scaled_profile(_disc_field(), (1.1, 0.0), 0.1)
    var = angular_variation(prof)
    assert var < 0.1


def _window_profile(halfwidth, shape):
    """A ScaledProfile holding shape(rho, theta) sampled exactly at the
    cell centres of the 96 x 96 window scaled_profile builds."""
    win = GridSpec(-halfwidth, halfwidth, -halfwidth, halfwidth, 96, 96)
    x, y = win.r_centers[:, None], win.z_centers[None, :]
    vals = shape(np.hypot(x, y), np.arctan2(y, x))
    return ScaledProfile(field=ScalarField(win, vals), planar_mass=0.0,
                         window_halfwidth=halfwidth)


@pytest.mark.parametrize("halfwidth", [5.6, 6.0, 7.3, 8.0])
def test_angular_variation_reads_radial_profiles_as_radial(halfwidth):
    # the window's diagonal cells lie on sector boundaries, half in each
    # of their two sectors: radial profiles read 0 up to roundoff
    for radial in (lambda rho: np.where(rho <= 2.0, 1.0, 0.0),
                   lambda rho: np.where(rho <= 2.5, np.cos(
                       0.5 * np.pi * rho / 2.5), 0.0),
                   lambda rho: np.exp(-rho ** 2)):
        prof = _window_profile(halfwidth, lambda rho, th: radial(rho))
        assert angular_variation(prof) <= 1e-12


@pytest.mark.parametrize("halfwidth", [5.6, 6.0, 7.3, 8.0])
def test_angular_variation_of_a_cos_2theta_profile(halfwidth):
    # sector means of 1 + 0.1 cos 2 theta over 45 degree sectors run from
    # 1 - 0.2 / pi to 1 + 0.2 / pi, whatever the radial factor: 0.4 / pi
    prof = _window_profile(halfwidth, lambda rho, th: np.exp(-rho ** 2)
                           * (1.0 + 0.1 * np.cos(2.0 * th)))
    np.testing.assert_allclose(angular_variation(prof), 0.4 / np.pi,
                               rtol=0.05)


def test_topology_check_shapes():
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 64, 64)
    rr = spec.r_centers[:, None]
    zz = spec.z_centers[None, :]
    d = np.hypot(rr - 1.2, zz)
    disc = ScalarField(spec, np.where(d <= 0.3, 1.0, 0.0))
    assert topology_check(disc)
    annulus = ScalarField(spec, np.where((d <= 0.3) & (d >= 0.12), 1.0, 0.0))
    assert not topology_check(annulus)
    blobs = np.zeros((64, 64))
    blobs[10, 10] = 1.0
    blobs[50, 50] = 1.0
    assert not topology_check(ScalarField(spec, blobs))


def _test_masks(rng):
    # random masks (holes and diagonal-only contacts at every density),
    # rings, corner-touching pairs, and supports on the grid edge
    for _ in range(200):
        n_r, n_z = rng.integers(2, 30, 2)
        yield rng.uniform(size=(n_r, n_z)) < rng.uniform(0.1, 0.9)
    for _ in range(50):
        n_r, n_z = rng.integers(5, 30, 2)
        rr, zz = np.indices((n_r, n_z))
        d = np.hypot(rr - rng.uniform(0, n_r), zz - rng.uniform(0, n_z))
        outer = rng.uniform(2.0, 10.0)
        yield (d <= outer) & (d >= rng.uniform(0.0, outer))
    for _ in range(50):
        mask = np.zeros(rng.integers(3, 20, 2), dtype=bool)
        i, j = rng.integers(0, np.array(mask.shape) - 1)
        mask[i, j] = mask[i + 1, j + 1] = True
        if rng.uniform() < 0.5:
            mask[i + 1, j] = True
        yield np.flipud(mask) if rng.uniform() < 0.5 else mask
    for _ in range(50):
        mask = rng.uniform(size=rng.integers(2, 25, 2)) < 0.6
        mask[[0, -1][rng.integers(2)], :] = True
        mask[:, [0, -1][rng.integers(2)]] = rng.uniform() < 0.5
        yield mask


def test_topology_and_edge_cells_match_ndimage(rng):
    # the numpy label propagation and erosion against scipy.ndimage
    from scipy import ndimage
    from vortexring.diagnostics import _count_pieces, _edge_cells
    cross = ndimage.generate_binary_structure(2, 1)
    seen = np.zeros(3, dtype=int)
    for mask in _test_masks(rng):
        if not mask.any():
            continue
        pieces = ndimage.label(mask, structure=cross)[1]
        holes = ndimage.label(~np.pad(mask, 1), structure=cross)[1] - 1
        framed = np.pad(mask, 1)
        assert _count_pieces(framed) == pieces
        assert _count_pieces(np.pad(~framed, 1)) - 1 == holes
        edge = mask & ~ndimage.binary_erosion(mask, structure=cross)
        assert np.array_equal(_edge_cells(mask), edge)
        spec = build_grid(0.5, 2.0, -1.0, 1.0, *mask.shape)
        zeta = ScalarField(spec, mask.astype(float))
        assert topology_check(zeta) == (pieces == 1 and holes == 0)
        i, j = np.nonzero(edge)
        r, z = spec.r_centers[i], spec.z_centers[j]
        diam = np.sqrt(np.max((r[:, None] - r[None, :]) ** 2
                              + (z[:, None] - z[None, :]) ** 2))
        assert support_stats(zeta)[2] == diam
        seen += (pieces > 1, holes > 0, mask[[0, -1]].any()
                 or mask[:, [0, -1]].any())
    # each kind of mask occurred
    assert np.all(seen >= 20), seen


def test_velocity_field_of_quadratic_stream():
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 32, 32)
    W, L = 1.0, np.log(10.0)
    psi = ScalarField(spec, -0.5 * W * spec.r_centers[:, None] ** 2 * L
                      + 0.0 * spec.z_centers[None, :])
    gen = make_generator("power_law", p=1.0)
    v_r, v_theta, v_z = velocity_field(psi, gen, 0.1)
    np.testing.assert_allclose(v_r.values, 0.0, atol=1e-14)
    assert np.all(v_theta.values == 0.0)
    # centered differences are exact on a parabola away from the edges
    np.testing.assert_allclose(v_z.values[1:-1, :], -W * L, rtol=1e-12)


def test_swirl_support_matches_stream_sign(coarse_turkington,
                                           coarse_power_law):
    res = coarse_turkington
    _, v_theta, _ = velocity_field(res.state.psi, res.gen,
                                   res.config.epsilon)
    np.testing.assert_array_equal(v_theta.values > 0.0,
                                  res.state.psi.values > 0.0)
    res0 = coarse_power_law
    _, v0, _ = velocity_field(res0.state.psi, res0.gen, res0.config.epsilon)
    assert np.all(v0.values == 0.0)


def test_asymptotic_fit_recovers_synthetic_slopes():
    eps = np.array([0.2, 0.1, 0.05, 0.025])
    x = np.log(1.0 / eps)
    fit = asymptotic_fit(eps, 1.5 * x + 0.3, 2.0 * np.pi * x - 2.0)
    np.testing.assert_allclose(fit.slope_mu, 1.5, rtol=1e-12)
    np.testing.assert_allclose(fit.intercept_mu, 0.3, rtol=1e-10)
    np.testing.assert_allclose(fit.slope_E, 2.0 * np.pi, rtol=1e-12)
    np.testing.assert_allclose(fit.r_squared_mu, 1.0, atol=1e-12)
    with pytest.raises(ConfigurationError):
        asymptotic_fit([0.1, 0.05], [1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ConfigurationError):
        asymptotic_fit([0.1, 0.1, 0.1], [1, 2, 3], [1, 2, 3])


def test_predicted_slopes_defaults():
    slope_mu, slope_e = predicted_slopes(4.0 * np.pi, 1.0)
    np.testing.assert_allclose(slope_mu, 1.5, rtol=1e-15)
    np.testing.assert_allclose(slope_e, 2.0 * np.pi, rtol=1e-15)


def test_kelvin_hicks_proportional_core():
    eps = np.array([0.2, 0.1, 0.05, 0.025])
    out = kelvin_hicks_check(eps, 0.9 * eps, 4.0 * np.pi, 1.0)
    np.testing.assert_allclose(out["difference_spread"], 0.0, atol=1e-12)
    np.testing.assert_allclose(out["core_ratio_spread"], 1.0, rtol=1e-12)
    with pytest.raises(ConfigurationError):
        kelvin_hicks_check(eps, eps[:2], 4.0 * np.pi, 1.0)


def test_core_radius_of_disc():
    np.testing.assert_allclose(core_radius(_disc_field()), 0.12, rtol=5e-2)


def test_far_field_check_on_solved_ring(coarse_turkington):
    out = far_field_check(coarse_turkington)
    assert out["radius"] >= 6.0
    assert out["n_samples"] > 0
    assert out["target"] == pytest.approx(-np.log(10.0))
    assert out["worst_rel_dev"] <= 0.2
    np.testing.assert_allclose(out["far_vz"], out["target"], rtol=0.15)


def test_far_field_matches_fd_on_a_wide_box(coarse_turkington):
    # the induced velocity from an independent finite-difference solve
    # whose zero wall sits 18 units beyond the sample circle
    out = far_field_check(coarse_turkington)
    zeta = coarse_turkington.state.zeta
    spec = zeta.spec
    diag = float(np.hypot(spec.r_max - spec.r_min, spec.z_max - spec.z_min))
    box = default_extended_box(spec, margin_factor=(out["radius"] + 18.0)
                               / diag, cells_per_unit=10.0)
    psi = fd_solve(zeta, box=box)
    vz = ScalarField(box, np.gradient(psi.values, box.dr, axis=0)
                     / box.r_centers[:, None])
    center_r, center_z = center_of_vorticity(zeta)
    angles = (np.arange(48) + 0.5) * 2.0 * np.pi / 48
    pr = center_r + out["radius"] * np.cos(angles)
    pz = center_z + out["radius"] * np.sin(angles)
    keep = pr >= 0.25
    assert np.count_nonzero(keep) == out["n_samples"]
    induced_fd = float(np.mean(bilinear_sample(vz, pr[keep], pz[keep])))
    induced = out["far_vz"] - out["target"]
    assert induced > 0.0
    np.testing.assert_allclose(induced, induced_fd, rtol=0.1)


def _edge_field(i, j):
    vals = np.zeros((8, 8))
    vals[3:5, 3:5] = 1.0
    if i is not None:
        vals[i, j] = 0.5
    return ScalarField(build_grid(0.5, 2.0, -1.0, 1.0, 8, 8), vals)


@pytest.mark.parametrize("i, j", [(0, 4), (-1, 3), (4, 0), (3, -1)],
                         ids=["r_min", "r_max", "z_min", "z_max"])
def test_support_on_edge_flags_each_edge(i, j):
    assert support_on_edge(_edge_field(i, j)) is True


def test_support_on_edge_flags_a_trace_cell():
    # the support is where zeta > 0: an edge cell at 1e-8 of the peak is
    # in it, as it is in the solver's support trace
    zeta = _edge_field(0, 4)
    zeta.values[0, 4] = 1e-8
    assert support_on_edge(zeta) is True
    assert np.count_nonzero(support_mask(zeta)) == 5


def test_support_off_edge_is_not_flagged():
    assert support_on_edge(_edge_field(None, None)) is False


def test_diagnostics_record_assembly(coarse_turkington):
    rec = diagnostics_record(coarse_turkington)
    assert rec.converged
    assert rec.simply_connected
    assert rec.swirl_max > 0.0
    assert rec.theta_minus <= rec.center_r <= rec.theta_plus
    assert rec.center_z == 0.0
    assert rec.mass == pytest.approx(4.0 * np.pi, rel=1e-8)
    assert rec.patch_measure == 0.0
    assert rec.kkt_residual <= 1e-6
    assert rec.mu > 0.0


def test_record_swirl_max_is_the_velocity_field_max(coarse_turkington):
    res = coarse_turkington
    _, v_theta, _ = velocity_field(res.state.psi, res.gen, res.config.epsilon)
    swirl_max = diagnostics_record(res).swirl_max
    assert swirl_max > 0.0
    assert swirl_max == float(np.max(np.abs(v_theta.values)))


def test_record_invariant_guard():
    rec = DiagnosticsRecord(
        epsilon=0.1, theta_minus=1.5, theta_plus=1.6, diam_supp=0.1,
        dist_to_ring=0.5, center_r=1.0, center_z=0.0, mu=1.0, energy=1.0,
        simply_connected=True, far_field_vz=-2.3, far_field_rel_dev=0.05,
        swirl_max=0.0, core_radius=0.1, mass=1.0, kkt_residual=0.0,
        patch_measure=0.0, converged=True, support_on_edge=False)
    with pytest.raises(NumericalError):
        rec.check_invariants()
