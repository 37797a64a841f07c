"""Cell-centered grids on the meridional half-plane and fields on them.

The working coordinates are (r, z) with r > 0 the distance to the symmetry
axis. All integrals use the measure nu = r dr dz, which is the planar
measure weighted by the ring circumference factor (up to 2 pi, which the
formulation absorbs). Grids are uniform and cell-centered so nothing is
ever evaluated on the axis r = 0.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, GridMismatchError


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered grid on [r_min, r_max] x [z_min, z_max].

    Cell (i, j) has center (r_min + (i + 1/2) dr, z_mid + (j + 1/2 - n_z/2) dz)
    with z_mid the midpoint of the z-extent. Writing the z centers relative
    to the midpoint keeps them exactly symmetric in floating point whenever
    the extent is symmetric, which the solver's symmetry check relies on.
    """

    r_min: float
    r_max: float
    z_min: float
    z_max: float
    n_r: int
    n_z: int

    @property
    def dr(self):
        return (self.r_max - self.r_min) / self.n_r

    @property
    def dz(self):
        return (self.z_max - self.z_min) / self.n_z

    @property
    def r_centers(self):
        return self.r_min + (np.arange(self.n_r) + 0.5) * self.dr

    @property
    def z_centers(self):
        z_mid = 0.5 * (self.z_min + self.z_max)
        return z_mid + (np.arange(self.n_z) + 0.5 - self.n_z / 2) * self.dz

    @property
    def cell_area(self):
        return self.dr * self.dz

    def nu_weights(self):
        """Per-cell nu-measure as an (n_r, n_z) array: r_i * dr * dz."""
        w = self.r_centers * self.cell_area
        return np.repeat(w[:, None], self.n_z, axis=1)

    def z_symmetric(self):
        """True when the z-extent is centered on 0 with an even cell count,
        so that cells pair exactly under z -> -z."""
        return self.n_z % 2 == 0 and self.z_min == -self.z_max


def build_grid(r_min, r_max, z_min, z_max, n_r, n_z):
    """Validate bounds and return a GridSpec.

    Raises ConfigurationError when the extent is empty, the radial strip
    touches the axis, or a cell count is below 2.
    """
    if not (0.0 < r_min < r_max):
        raise ConfigurationError(
            "need 0 < r_min < r_max, got r_min=%r r_max=%r" % (r_min, r_max)
        )
    if not (z_min < z_max):
        raise ConfigurationError(
            "need z_min < z_max, got z_min=%r z_max=%r" % (z_min, z_max)
        )
    if n_r < 2 or n_z < 2:
        raise ConfigurationError(
            "need n_r, n_z >= 2, got n_r=%r n_z=%r" % (n_r, n_z)
        )
    return GridSpec(float(r_min), float(r_max), float(z_min), float(z_max),
                    int(n_r), int(n_z))


@dataclass
class ScalarField:
    """A real field stored cell-wise on a GridSpec.

    values has shape (n_r, n_z), index (i, j) for the (r, z) cell.
    """

    spec: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.spec.n_r, self.spec.n_z):
            raise GridMismatchError(
                "field shape %s does not match grid (%d, %d)"
                % (self.values.shape, self.spec.n_r, self.spec.n_z)
            )
        if not np.isfinite(self.values).all():
            raise ConfigurationError("field contains non-finite values")


def bilinear_sample(f, r, z):
    """Bilinear interpolation of a cell-centered field at points (r, z).

    The field counts as zero outside its cells: samples within one cell
    width beyond the outermost centers interpolate towards zero, and
    samples further out are zero.
    """
    spec = f.spec
    gi = (np.asarray(r) - spec.r_centers[0]) / spec.dr + 1.0
    gj = (np.asarray(z) - spec.z_centers[0]) / spec.dz + 1.0
    i0 = np.floor(gi).astype(int)
    j0 = np.floor(gj).astype(int)
    tr = gi - i0
    tz = gj - j0
    inside = (i0 >= 0) & (i0 <= spec.n_r) & (j0 >= 0) & (j0 <= spec.n_z)
    i0 = np.clip(i0, 0, spec.n_r)
    j0 = np.clip(j0, 0, spec.n_z)
    v = np.pad(f.values, 1)
    val = ((1 - tr) * (1 - tz) * v[i0, j0] + tr * (1 - tz) * v[i0 + 1, j0]
           + (1 - tr) * tz * v[i0, j0 + 1] + tr * tz * v[i0 + 1, j0 + 1])
    return np.where(inside, val, 0.0)


def integrate_nu(f):
    """Midpoint-rule integral of f against nu = r dr dz.

    Exact for integrands constant or linear in r on each cell column.
    Only the nonzero cells are summed, in a fixed order (flattened C
    order), so repeated runs give bit-identical results.
    """
    spec = f.spec
    idx = np.flatnonzero(f.values.ravel() != 0.0)
    r = spec.r_centers[idx // spec.n_z]
    return float(np.sum(f.values.ravel()[idx] * r)) * spec.cell_area


def dump_field_csv(f):
    """A field as CSV text: rows r,z,value in %.17g, row-major over cells."""
    # a row is one %-format: its r joined in front of each ",z,%.17g\n";
    # a row of +0.0 alone joins the tail formatted once with 0
    tail = [""] + [",%.17g,%%.17g\n" % z for z in f.spec.z_centers]
    zero = [""] + [cell % 0.0 for cell in tail[1:]]
    blank = ~(f.values.any(axis=1) | np.signbit(f.values).any(axis=1))
    return "r,z,value\n" + "".join(
        ("%.17g" % r).join(zero) if empty else
        ("%.17g" % r).join(tail) % tuple(row.tolist())
        for r, row, empty in zip(f.spec.r_centers.tolist(), f.values,
                                 blank.tolist()))


def load_field_csv(spec, path):
    """Read a field written by dump_field_csv back onto a known grid. The
    file's r and z columns must equal the grid's cell centres exactly, as
    %.17g round-trips them; GridMismatchError otherwise."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.shape[0] != spec.n_r * spec.n_z:
        raise GridMismatchError(
            "csv has %d rows, grid wants %d" % (data.shape[0], spec.n_r * spec.n_z)
        )
    if not (np.array_equal(data[:, 0], np.repeat(spec.r_centers, spec.n_z))
            and np.array_equal(data[:, 1], np.tile(spec.z_centers, spec.n_r))):
        raise GridMismatchError("csv cell centres differ from the grid's")
    vals = data[:, 2].reshape(spec.n_r, spec.n_z)
    return ScalarField(spec, vals)
