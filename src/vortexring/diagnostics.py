"""Post-processing of solver output: support geometry, concentration
measures, flow fields, and sweep asymptotics.

All quantities are pure functions of solve results. The support is the
set of cells where zeta > 0, the cells the solver itself counts; a
support reaching the grid edge is flagged (`support_on_edge`).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .greens import ring_velocity_z
from .grid import GridSpec, ScalarField, bilinear_sample
from .profiles import eval_H


def support_mask(zeta):
    """Boolean cell mask of the support: the cells where zeta > 0."""
    mask = zeta.values > 0.0
    if not mask.any():
        raise NumericalError("field has empty support")
    return mask


def _edge_cells(mask):
    """The cells of mask with one of their four neighbours outside it, the
    grid's outside included."""
    pad = np.pad(mask, 1)
    return mask & ~(pad[:-2, 1:-1] & pad[2:, 1:-1] & pad[1:-1, :-2]
                    & pad[1:-1, 2:])


def support_stats(zeta, r_star=1.0):
    """Support geometry: (theta_minus, theta_plus, diam, dist_to_ring).

    theta_minus / theta_plus are the smallest and largest radii of support
    cells in the row nearest z = 0, diam is the largest pairwise distance
    between support cell centers, and dist_to_ring is the farthest any
    support cell sits from the ring circle (r_star, 0) in the meridional
    plane.
    """
    mask = support_mask(zeta)
    spec = zeta.spec
    i, j = np.nonzero(mask)
    pts_r, pts_z = spec.r_centers[i], spec.z_centers[j]

    j_mid = int(np.argmin(np.abs(spec.z_centers)))
    near = np.abs(np.abs(spec.z_centers) - np.abs(spec.z_centers[j_mid])) \
        <= 1e-12 * max(1.0, abs(spec.z_centers[j_mid]))
    row_mask = mask[:, near]
    row_r = spec.r_centers[np.any(row_mask, axis=1)]
    if row_r.size == 0:
        # support misses the middle row entirely; fall back to all rows
        row_r = pts_r
    theta_minus = float(np.min(row_r))
    theta_plus = float(np.max(row_r))

    # the farthest pair are hull vertices, and a cell with all four
    # neighbours in the support is the midpoint of two of them
    i, j = np.nonzero(_edge_cells(mask))
    er, ez = spec.r_centers[i], spec.z_centers[j]
    dr2 = (er[:, None] - er[None, :]) ** 2
    dz2 = (ez[:, None] - ez[None, :]) ** 2
    diam = float(np.sqrt(np.max(dr2 + dz2)))
    dist = float(np.max(np.hypot(pts_r - r_star, pts_z)))
    return theta_minus, theta_plus, diam, dist


def center_of_vorticity(zeta):
    """Centroid (R, Z) of zeta under the planar measure dr dz.

    For a field exactly even in z on a z-symmetric grid the returned Z is
    exactly zero: the z-moment is accumulated in mirror pairs, each of
    which cancels in floating point.
    """
    spec = zeta.spec
    vals = zeta.values
    mass = float(np.sum(vals)) * spec.cell_area
    if mass <= 0.0:
        raise NumericalError("cannot take the centroid of a massless field")
    mr = float(np.sum(vals * spec.r_centers[:, None])) * spec.cell_area
    wz = vals * spec.z_centers[None, :]
    if spec.z_symmetric():
        half = spec.n_z // 2
        folded = wz[:, :half] + wz[:, :half - spec.n_z - 1:-1]
        mz = float(np.sum(folded)) * spec.cell_area
    else:
        mz = float(np.sum(wz)) * spec.cell_area
    return mr / mass, mz / mass


@dataclass
class ScaledProfile:
    """Core profile in blown-up coordinates x = (point - center) / eps."""

    field: ScalarField
    planar_mass: float
    window_halfwidth: float


def scaled_profile(zeta, center, epsilon):
    """Resample eps^2 zeta around the center in core units, on 96 x 96
    cells.

    The window is the square |x_i| <= 2 * (diam / eps), which always
    contains the support when the center lies in its convex hull; if any
    support cell still falls outside the window this raises. The returned
    grid axes are scaled offsets, not radii, so only planar (cell-area)
    integrals of the profile are meaningful.
    """
    spec = zeta.spec
    i, j = np.nonzero(support_mask(zeta))
    cr, cz = center
    diam = support_stats(zeta)[2]
    halfwidth = 2.0 * max(diam, 4.0 * max(spec.dr, spec.dz)) / epsilon
    far = np.max(np.maximum(np.abs(spec.r_centers[i] - cr),
                            np.abs(spec.z_centers[j] - cz))) / epsilon
    if far > halfwidth:
        raise NumericalError(
            "scaled-profile window clips the support: %.3g > %.3g"
            % (far, halfwidth))

    win = GridSpec(-halfwidth, halfwidth, -halfwidth, halfwidth, 96, 96)
    xs = win.r_centers
    sample_r = cr + epsilon * xs[:, None] + 0.0 * xs[None, :]
    sample_z = cz + 0.0 * xs[:, None] + epsilon * xs[None, :]
    phi = epsilon ** 2 * bilinear_sample(zeta, sample_r, sample_z)
    fld = ScalarField(win, phi)
    pmass = float(np.sum(phi)) * win.cell_area
    return ScaledProfile(field=fld, planar_mass=pmass,
                         window_halfwidth=halfwidth)


def angular_variation(profile):
    """Relative spread of sector averages of the scaled profile.

    Splits the disc rho <= halfwidth / 2 into 8 equal angular sectors,
    averages the profile over each, and returns (max - min) / mean. Small
    values mean the core is nearly radial. The window's lattice is
    symmetric about the centre, so its diagonal cells (|x| = |y|) lie on
    sector boundaries, up to roundoff: each gives half its weight to
    either side.
    """
    n_sectors = 8
    fld = profile.field
    xx, yy = fld.spec.r_centers[:, None], fld.spec.z_centers[None, :]
    inside = np.hypot(xx, yy) <= 0.5 * profile.window_halfwidth
    ang = np.mod(np.arctan2(yy, xx), 2.0 * np.pi)[inside]
    pos = ang / (2.0 * np.pi) * n_sectors
    # a cell within 1e-9 sectors of a boundary is counted half in each
    sector = np.floor(np.concatenate((pos - 1e-9, pos + 1e-9))).astype(int)
    sector %= n_sectors
    counts = np.bincount(sector, minlength=n_sectors)
    if not np.all(counts):
        raise NumericalError("empty angular sector in profile check")
    means = np.bincount(sector, np.tile(fld.values[inside], 2),
                        n_sectors) / counts
    mean_all = float(np.mean(means))
    if mean_all <= 0.0:
        raise NumericalError("profile vanishes on the core disc")
    return float((np.max(means) - np.min(means)) / mean_all)


def _count_pieces(mask):
    """Number of 4-connected pieces of a boolean mask with an all-False
    border.

    Each cell of the mask starts with its own flat index as its label.
    Each round gives it the smallest label among itself and its four
    neighbours, then points every label at the label of the cell it names
    until none moves. At the fixed point each piece carries the index of
    one of its cells, the one cell that carries its own.
    """
    size = mask.size
    inside = mask.ravel()
    label = np.where(inside, np.arange(size), size)  # size: not in the mask
    while True:
        grid = label.reshape(mask.shape)
        low = grid.copy()
        inner = low[1:-1, 1:-1]
        for nb in (grid[:-2, 1:-1], grid[2:, 1:-1], grid[1:-1, :-2],
                   grid[1:-1, 2:]):
            np.minimum(inner, nb, out=inner)
        low = np.where(inside, low.ravel(), size)
        while not np.array_equal(jump := np.append(low, size)[low], low):
            low = jump
        if np.array_equal(low, label):
            return int(np.count_nonzero(label == np.arange(size)))
        label = low


def topology_check(zeta):
    """True when the support is one 4-connected piece with no holes.

    The complement is examined inside the support's one-cell-padded
    bounding box, whose padding ring is one piece of it: every other piece
    is a hole. A support region touching the grid edge therefore still
    counts as hole-free as long as its complement stays connected.
    """
    i, j = np.nonzero(support_mask(zeta))
    box = np.zeros((np.ptp(i) + 3, np.ptp(j) + 3), dtype=bool)
    box[i - i.min() + 1, j - j.min() + 1] = True
    return _count_pieces(box) == 1 == _count_pieces(np.pad(~box, 1))


def velocity_field(psi, gen, epsilon):
    """Meridional and swirl velocities from a stream field.

    v_r = -(1/r) dpsi/dz, v_z = (1/r) dpsi/dr by centered differences
    (one-sided at edges), v_theta = H(psi) / (eps r), which vanishes
    wherever psi <= 0.
    """
    spec = psi.spec
    rr = np.repeat(spec.r_centers[:, None], spec.n_z, axis=1)
    dpsi_dr = np.gradient(psi.values, spec.dr, axis=0)
    dpsi_dz = np.gradient(psi.values, spec.dz, axis=1)
    v_r = ScalarField(spec, -dpsi_dz / rr)
    v_z = ScalarField(spec, dpsi_dr / rr)
    v_theta = ScalarField(spec, eval_H(gen, psi.values) / (epsilon * rr))
    return v_r, v_theta, v_z


def far_field_check(result):
    """Far-field axial velocity against the traveling-frame value.

    Samples v_z at 48 angles, where r >= r_star / 4, on a circle of radius
    max(10 * diam, 6 r_star) around the core center: -W log(1/eps) plus
    the free-space velocity induced by the support, the sum over its cells
    of `ring_velocity_z` times zeta nu. The floor of 6 r_star keeps the
    circle outside the ring's dipole near zone, whose 1/rho^3 tail
    otherwise dominates the comparison. Returns a dict with the mean
    sampled v_z, the worst relative deviation, and the radius.
    """
    config = result.config
    zeta = result.state.zeta
    _, _, diam, _ = support_stats(zeta, r_star=config.r_star)
    center_r, center_z = center_of_vorticity(zeta)
    radius = max(10.0 * diam, 6.0 * config.r_star)

    target = -config.W * config.log_inv_eps
    angles = (np.arange(48) + 0.5) * 2.0 * np.pi / 48
    pr = center_r + radius * np.cos(angles)
    pz = center_z + radius * np.sin(angles)
    keep = pr >= 0.25 * config.r_star
    if not np.any(keep):
        raise NumericalError("no usable far-field sample points")
    spec = zeta.spec
    i, j = np.nonzero(zeta.values)
    r_s, z_s = spec.r_centers[i], spec.z_centers[j]
    weights = zeta.values[i, j] * r_s * spec.cell_area
    # eight sample points at a time: their pairs with the support, not all
    # 48 points', are held at once
    pr, pz = pr[keep, None], pz[keep, None]
    samples = np.empty(pr.shape[0])
    for k in range(0, samples.size, 8):
        samples[k:k + 8] = ring_velocity_z(pr[k:k + 8], pz[k:k + 8], r_s,
                                           z_s) @ weights
    samples += target
    rel = np.abs(samples - target) / abs(target)
    return {
        "far_vz": float(np.mean(samples)),
        "target": float(target),
        "worst_rel_dev": float(np.max(rel)),
        "radius": float(radius),
        "n_samples": int(np.count_nonzero(keep)),
    }


def support_on_edge(zeta):
    """True when a cell where zeta > 0, however small, lies in the first
    or last row or column of the grid, so the box may be clipping it."""
    mask = support_mask(zeta)
    return bool(mask[[0, -1], :].any() or mask[:, [0, -1]].any())


def core_radius(zeta):
    """Radius of the circle with the same planar support area."""
    mask = support_mask(zeta)
    area = float(np.count_nonzero(mask)) * zeta.spec.cell_area
    return float(np.sqrt(area / np.pi))


@dataclass
class DiagnosticsRecord:
    """One solve summarized for sweep tables."""

    epsilon: float
    theta_minus: float
    theta_plus: float
    diam_supp: float
    dist_to_ring: float
    center_r: float
    center_z: float
    mu: float
    energy: float
    simply_connected: bool
    far_field_vz: float
    far_field_rel_dev: float
    swirl_max: float
    core_radius: float
    mass: float
    kkt_residual: float
    patch_measure: float
    converged: bool
    support_on_edge: bool

    def check_invariants(self):
        if not (self.theta_minus <= self.center_r + 1e-12):
            raise NumericalError("center left of theta_minus")
        if not (self.center_r <= self.theta_plus + 1e-12):
            raise NumericalError("center right of theta_plus")


def diagnostics_record(result):
    """Assemble the full record for one solve result."""
    config = result.config
    zeta = result.state.zeta
    tm, tp, diam, dist = support_stats(zeta, r_star=config.r_star)
    cr, cz = center_of_vorticity(zeta)
    far = far_field_check(result)
    v_theta = eval_H(result.gen, result.state.psi.values) / (
        config.epsilon * zeta.spec.r_centers[:, None])
    rec = DiagnosticsRecord(
        epsilon=config.epsilon,
        theta_minus=tm,
        theta_plus=tp,
        diam_supp=diam,
        dist_to_ring=dist,
        center_r=cr,
        center_z=cz,
        mu=result.state.mu,
        energy=result.state.energy,
        simply_connected=topology_check(zeta),
        far_field_vz=far["far_vz"],
        far_field_rel_dev=far["worst_rel_dev"],
        swirl_max=float(np.max(np.abs(v_theta))),
        core_radius=core_radius(zeta),
        mass=result.mass,
        kkt_residual=result.kkt,
        patch_measure=result.patch_measure,
        converged=result.converged,
        support_on_edge=support_on_edge(zeta),
    )
    rec.check_invariants()
    return rec


@dataclass
class AsymptoticFit:
    """Linear fits of mu and E against log(1/eps)."""

    slope_mu: float
    intercept_mu: float
    r_squared_mu: float
    slope_E: float
    intercept_E: float
    r_squared_E: float


def asymptotic_fit(epsilons, mus, energies):
    """Least-squares slopes of mu and E in log(1/eps).

    The growth constants for the defaults are slope_mu = 3 kappa^2 /
    (32 pi^2 W) and slope_E = kappa^3 / (32 pi^2 W); callers compare the
    fitted slopes against those.
    """
    eps = np.asarray(epsilons, dtype=float)
    if eps.size < 3 or np.unique(eps).size < 3:
        raise ConfigurationError("need at least 3 distinct sweep points")
    x = np.log(1.0 / eps)
    fits = []
    for y in (np.asarray(mus, dtype=float), np.asarray(energies, dtype=float)):
        slope, intercept = np.polyfit(x, y, 1)
        pred = slope * x + intercept
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - np.mean(y)) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        fits.append((float(slope), float(intercept), r2))
    return AsymptoticFit(
        slope_mu=fits[0][0], intercept_mu=fits[0][1], r_squared_mu=fits[0][2],
        slope_E=fits[1][0], intercept_E=fits[1][1], r_squared_E=fits[1][2],
    )


def predicted_slopes(kappa, W):
    """Closed-form growth constants for mu and E."""
    slope_mu = 3.0 * kappa ** 2 / (32.0 * np.pi ** 2 * W)
    slope_e = kappa ** 3 / (32.0 * np.pi ** 2 * W)
    return slope_mu, slope_e


def kelvin_hicks_check(epsilons, core_radii, kappa, W):
    """Translation speed versus the classical thin-ring formula.

    Compares W log(1/eps) with (kappa / 4 pi r_star)(log(8 r_star /
    eps_hat) - 1/4), where eps_hat is the measured area-equivalent core
    radius. The leading log coefficients agree by the choice of r_star,
    so the difference should stay bounded across a sweep.
    """
    eps = np.asarray(epsilons, dtype=float)
    ehat = np.asarray(core_radii, dtype=float)
    if eps.shape != ehat.shape or eps.size == 0:
        raise ConfigurationError("epsilons and core_radii must match")
    r_star = kappa / (4.0 * np.pi * W)
    frame_speed = W * np.log(1.0 / eps)
    ring_speed = (kappa / (4.0 * np.pi * r_star)) \
        * (np.log(8.0 * r_star / ehat) - 0.25)
    diff = frame_speed - ring_speed
    ratio = ehat / eps
    return {
        "epsilons": eps.tolist(),
        "frame_speed": frame_speed.tolist(),
        "ring_speed": ring_speed.tolist(),
        "difference": diff.tolist(),
        "difference_spread": float(np.max(diff) - np.min(diff)),
        "core_ratio": ratio.tolist(),
        "core_ratio_spread": float(np.max(ratio) / np.min(ratio)),
    }
