"""The ring kernel, the induced stream function, and a finite-difference
cross-check.

The stream operator inverts

    L = -(1/r) d/dr((1/r) d/dr) - (1/r^2) d^2/dz^2

on the half-plane r > 0 with decay at infinity. Its kernel is the stream
function of a unit circular vortex filament,

    K(r, z, r', z') = (r r' / 4 pi) * integral_{-pi}^{pi}
        cos t dt / sqrt((z - z')^2 + r^2 + r'^2 - 2 r r' cos t),

which reduces to complete elliptic integrals: with r1 and r2 the nearest
and farthest distances to the filament, K = (r1 + r2)(K(l) - E(l)) / 2 pi
at the modulus l = (r2 - r1) / (r2 + r1) (Lamb, Hydrodynamics, section
161). Both forms are provided: the quadrature form is the slow reference,
Lamb's form the production path, evaluated in numpy alone by the
arithmetic-geometric mean of r2 and r1, down to the closest separation a
float resolves. `StreamOperator` evaluates psi0 = K zeta for fields even
in z on a box centred at z = 0, the only fields the solver holds: the
z-translation invariance makes the cell-to-cell table block-Toeplitz,
its offset transform is built once per grid, a DCT-I (the real FFT of the
even extension) along the offset line of each pair r <= r' of the
symmetric kernel, and stored frequency-major (frequency, source row,
target row), and `apply_even` works on the rows z > 0 alone by symmetric
convolution (Martucci, IEEE Trans. Signal Process. 1994): a DCT-II and a
DCT-III as products with cosine matrices, between them one batched real
matmul over the source rows that hold vorticity and a given range of
target rows, which a row bound from each table entry's max over the
z-offsets picks. `apply_direct` sums over source cells explicitly, for
any field, and is its oracle.
`ring_velocity_z` is (1/r) dK/dr in closed form, for the far field.
`fd_solve` solves L psi0 = zeta by finite differences on a much larger
box, the Kronecker sum of a tridiagonal r part and z part; it is only an
independent check on the kernel path, in the tests and demos.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.fft import rfft

from .errors import (
    ConfigurationError,
    GridMismatchError,
    NumericalError,
    QuadratureToleranceError,
    SingularEvaluationError,
)
from .grid import ScalarField, bilinear_sample, build_grid, integrate_nu

TWO_PI = 2.0 * np.pi
# cells around the diagonal whose log part is averaged over the source cell
NCORR = 2


@dataclass
class KernelEval:
    """One kernel evaluation and its estimated error."""

    value: float
    estimated_error: float


def sigma(r, z, rp, zp):
    """Normalized separation sqrt((r-r')^2 + (z-z')^2) / sqrt(4 r r').

    Vanishes exactly at coincident points; scale-invariant under
    (r, z) -> (c r, c z).
    """
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    if np.any(r <= 0) or np.any(rp <= 0):
        raise ConfigurationError("sigma needs strictly positive radii")
    d2 = (np.asarray(r) - rp) ** 2 + (np.asarray(z) - np.asarray(zp)) ** 2
    out = np.sqrt(d2 / (4.0 * r * rp))
    return float(out) if out.ndim == 0 else out


def kernel_bound(r, z, rp, zp, coef=0.25):
    """Envelope sqrt(r r') * (coef / pi) * asinh(1 / sigma).

    With m = k^2 = 1/(1 + sigma^2), K / sqrt(r r') depends on sigma
    alone, so the ratio of K to this envelope does too. Near coincidence
    K ~ (sqrt(r r') / 2 pi) * (log(1/sigma) + log 4 - 2), while
    asinh(1/sigma) ~ log(2/sigma). coef=0.5, the 1/(2 pi) envelope, holds
    at every separation and is sharp: the ratio tends to 1 from below as
    sigma -> 0. coef=0.25, the 1/(4 pi) envelope, holds exactly for
    sigma >= sigma_c ~ 0.1631; closer in the ratio grows towards 2.
    """
    s = sigma(r, z, rp, zp)
    r = np.asarray(r, dtype=float)
    rp = np.asarray(rp, dtype=float)
    out = np.sqrt(r * rp) * (coef / np.pi) * np.arcsinh(1.0 / s)
    return float(out) if np.ndim(out) == 0 else out


def _elliptic_kernel(r, z, rp, zp, work=None):
    """Vectorized kernel, in Lamb's form, by the arithmetic-geometric mean.

    With r1 and r2 the nearest and farthest distances from (r, z) to the
    filament, r1^2 = (r-r')^2 + dz^2 and r2^2 = r1^2 + 4 r r', the AGM
    from (a_0, b_0) = (r2, r1) sets c_n = (a_{n-1} - b_{n-1}) / 2,
    a_n = (a_{n-1} + b_{n-1}) / 2 and b_n = sqrt(a_{n-1} b_{n-1}); then

        K = S / (2 M),  M = lim a_n,  S = sum_{n >= 1} 2^(n-2) c_n^2,

    which is Lamb's (r1 + r2)(K(l) - E(l)) / 2 pi (Hydrodynamics, section
    161) with no difference of large terms. The first term is taken as
    c_1 = r r' / a_1, since r2 - r1 loses the digits of a far pair; each
    later c_n = (a - b) / 2 is off by about an ulp of a, which moves its
    term by less than an ulp of the term before it.

    A pair is held fixed, b set to a, once c_n <= 2^(-(n + 52) / 2) b_n
    (at most 2^-26.5 b_n): the next step would move a and S by less than
    2^-55 of themselves, and with b = a every later step is an exact no-op,
    so a pair's value does not depend on what else shares its array. The
    AGM steps until every pair is held, each step on the leading rows
    (first index) up to the last that holds an unheld pair, so arrays
    whose later rows converge sooner cost less. Coincident pairs (r1 = 0) are held
    from the start: their value is finite but meaningless. A pair whose r2
    is not finite raises SingularEvaluationError. Every step writes into
    `work`, five float arrays and one boolean of the broadcast shape (new
    ones if None), the first of them the K returned, so a caller that
    passes the same work allocates nothing. Returns (K, M).
    """
    r, z, rp, zp = (np.asarray(x, dtype=float) for x in (r, z, rp, zp))
    if work is None:
        shape = np.broadcast(r, z, rp, zp).shape
        work = [*np.empty((5,) + (shape or (1,))), np.empty(shape or 1, bool)]
    else:
        shape = work[0].shape
    val, a, b, c, prod, held = work
    # r1^2 and r2^2 = r1^2 + 4 r r', broadcast by copies alone: a ufunc
    # that broadcasts buffers its operands. np.square, not ** 2, which on a
    # numpy scalar is pow() and can differ from an array's square by an ulp
    np.copyto(b, np.square(z - zp))
    np.copyto(a, np.square(r - rp))
    b += a
    np.copyto(a, 4.0 * (r * rp))
    a += b
    np.sqrt(a, out=a)
    np.sqrt(b, out=b)
    if not np.isfinite(np.max(a)):
        raise SingularEvaluationError("kernel pair is not finite")
    np.copyto(b, a, where=np.equal(b, 0.0, out=held))
    val.fill(0.0)
    m, n = len(a), 0
    while m:
        # step k = n + 1, on the leading m rows
        v, a_, b_, c_, p_, h_ = (w[:m] for w in work)
        np.subtract(a_, b_, out=c_)
        np.multiply(a_, b_, out=p_)
        a_ += b_
        a_ *= 0.5
        np.sqrt(p_, out=b_)
        if n == 0:
            # c_1 = r r' / a_1: r2 - r1 would lose the digits of a far pair
            np.copyto(c_, 2.0 * (r * rp))
            c_ /= a_
        # c holds 2 c_k; its square weighted by 2^(k + 50), a power of two,
        # goes into val and is set against b_k^2 = prod: a pair is held once
        # c_k <= 2^(-(k + 52) / 2) b_k
        c_ *= c_
        c_ *= 2.0 ** (n + 51)
        v += c_
        np.less_equal(c_, p_, out=h_)
        np.copyto(b_, a_, where=h_)
        if h_[-1].all():
            open_rows = ~h_.reshape(m, -1).all(axis=1)
            m = 1 + np.maximum.reduce(np.flatnonzero(open_rows), initial=-1)
        n += 1
    val *= 2.0 ** -55
    val /= a
    return val.reshape(shape), a.reshape(shape)


def _unit_pair(r, z, rp, zp):
    """(r, z - z', r') scaled by the power of two 2^s that brings the
    largest of r, r' and |z - z'| into [1, 2), and s. A power of two
    scales without rounding, and K has degree 1 in length, so the pointwise
    kernels evaluate there and scale back exactly, far from unit scale
    too; a pair that is not finite keeps s = 1 and stays not finite."""
    r, rp = np.asarray(r, dtype=float), np.asarray(rp, dtype=float)
    dz = np.asarray(z, dtype=float) - np.asarray(zp, dtype=float)
    s = 1 - np.frexp(np.maximum(np.maximum(r, rp), np.abs(dz)))[1]
    return np.ldexp(r, s), np.ldexp(dz, s), np.ldexp(rp, s), s


def ring_velocity_z(r, z, rp, zp):
    """Axial velocity (1/r) dK/dr at (r, z) of the unit filament at (r', z').

    The classical form (Lamb, Hydrodynamics, section 161), with
    m = 4 r r' / r2^2 and r1, r2 the nearest and farthest distances to
    the filament:

        v_z = (K(m) + (r'^2 - r^2 - dz^2) / r1^2 * E(m)) / (2 pi r2),

    where the AGM of `_elliptic_kernel`, with its M and S, gives
    K(m) = pi r2 / (2 M) and E(m) = K(m) (r1^2 + r2^2 - 4 S) / (2 r2^2).
    Expanded, the sum's leading terms cancel exactly, and what is left is

        v_z = (r'^2 (r'^2 - r^2 + dz^2) - (r'^2 - r^2 - dz^2) S)
              / (2 M r1^2 r2^2).

    For well-separated points only: it is singular at the filament, and
    near a cell it is not the velocity of the cell. Vectorized; v_z has
    degree -1 in length, evaluated at unit scale (_unit_pair).
    """
    r, dz, rp, s = _unit_pair(r, z, rp, zp)
    dz2 = np.square(dz)
    kern, agm = _elliptic_kernel(r, dz, rp, 0.0)
    diff = rp * rp - r * r
    near2, far2 = np.square(r - rp) + dz2, np.square(r + rp) + dz2
    return np.ldexp((rp * rp * (diff + dz2) - (diff - dz2) * 2.0 * agm * kern)
                    / (2.0 * agm * near2 * far2), s)


def kernel_closed_form(r, z, rp, zp):
    """Production kernel evaluation at a single point pair, by Lamb's
    form and the AGM alone, bit for bit the value an array of pairs gives.

    Agrees with kernel_quadrature to better than 1e-10 relative, and with
    the elliptic-integral form at 40 digits to about 1e-15 on the unit
    box and 1e-14 at dz = 30 r. With no difference of close numbers
    anywhere it stays exact to the last separation a float resolves:
    with (r1 / r2)^2 subnormal it still equals the near-coincidence law
    (sqrt(r r')/2 pi)(log(4 r2 / r1) - 2). It is evaluated at unit scale
    (_unit_pair), so a finite pair far from it has a finite value.
    Raises SingularEvaluationError at coincidence, on a point that is not
    finite, or on a value that is not finite.
    """
    r, dz, rp, scale = _unit_pair(r, z, rp, zp)
    s = sigma(r, dz, rp, 0.0)
    if s == 0.0:
        raise SingularEvaluationError("kernel evaluated at coincident points")
    val = float(np.ldexp(_elliptic_kernel(r, dz, rp, 0.0)[0], -scale))
    if not np.isfinite(val):
        raise SingularEvaluationError("kernel is not finite at sigma=%.3e" % s)
    return KernelEval(value=val, estimated_error=1e-13 * abs(val))


def kernel_quadrature(r, z, rp, zp, tol=1e-10):
    """Reference kernel evaluation by adaptive quadrature in the angle.

    Slow but independent of the elliptic-integral identities; used as the
    oracle for kernel_closed_form. Raises SingularEvaluationError when the
    points coincide and QuadratureToleranceError when the requested
    relative tolerance is not reached.
    """
    from scipy import integrate
    if tol <= 0:
        raise ConfigurationError("quadrature tolerance must be positive")
    s = sigma(r, z, rp, zp)
    if s == 0.0:
        raise SingularEvaluationError("kernel evaluated at coincident points")
    dz2 = (z - zp) ** 2
    a = dz2 + r * r + rp * rp

    def integrand(t):
        return np.cos(t) / np.sqrt(a - 2.0 * r * rp * np.cos(t))

    # integrand is even in t: integrate half the range. full_output=1 keeps
    # scipy from warning; the error estimate is inspected instead.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = integrate.quad(integrand, 0.0, np.pi, epsabs=0.0, epsrel=tol,
                             limit=400, full_output=1)
    y, abserr = res[0], res[1]
    if len(res) > 3:
        raise QuadratureToleranceError("kernel quadrature failed: %s" % res[3])
    value = (r * rp / (4.0 * np.pi)) * 2.0 * y
    err = (r * rp / (4.0 * np.pi)) * 2.0 * abserr
    if value != 0.0 and err > 100.0 * tol * abs(value):
        raise QuadratureToleranceError(
            "kernel quadrature error %.3e exceeds tolerance at sigma=%.3e"
            % (err / abs(value), s)
        )
    return KernelEval(value=value, estimated_error=err)


def expansion_remainder(r, z, rp, zp):
    """Bounded remainder of the near-coincidence kernel expansion.

    Returns l = [K - (sqrt(r r')/2 pi)(log(1/sigma) + log(1 + sqrt(sigma^2+1)))]
    / sqrt(r r'). The leading terms capture the logarithmic blowup, so l
    stays bounded down to sigma = 0 (limit (log 2 - 2)/(2 pi)) and decays
    for well-separated points. Accepts scalars or arrays; l has degree 0
    in length, evaluated at unit scale (_unit_pair).
    """
    r, dz, rp, _ = _unit_pair(r, z, rp, zp)
    s = sigma(r, dz, rp, 0.0)
    if np.any(np.asarray(s) == 0.0):
        raise SingularEvaluationError("remainder evaluated at coincident points")
    val, _ = _elliptic_kernel(r, dz, rp, 0.0)
    root = np.sqrt(r * rp)
    lead = (root / TWO_PI) * (np.log(1.0 / s) + np.log(1.0 + np.sqrt(s * s + 1.0)))
    out = (val - lead) / root
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# grid operator


def _log_mean_rect(x0, x1, y0, y1):
    """Exact mean of log(1/rho) over each rectangle [x0,x1] x [y0,y1], for
    arrays of corners off the axes, as _near_corrector's are.

    rho is the distance to the origin. Uses the antiderivative

        F(x, y) = x y log sqrt(x^2+y^2) - 3/2 x y
                  + x^2/2 atan(y/x) + y^2/2 atan(x/y)

    whose mixed second derivative is log sqrt(x^2+y^2); the singularity at
    the origin is integrable and F extends continuously by 0 there. Plain
    atan, not arctan2, keeps one branch for negative x or y.
    """

    def F(x, y):
        return (x * y * 0.5 * np.log(x * x + y * y) - 1.5 * x * y
                + 0.5 * x * x * np.arctan(y / x)
                + 0.5 * y * y * np.arctan(x / y))

    area = (x1 - x0) * (y1 - y0)
    return -(F(x1, y1) - F(x1, y0) - F(x0, y1) + F(x0, y0)) / area


def _near_corrector(spec):
    """correct(lines, t, s) corrects in place the kernel lines K[t, s, :]
    of the pairs (t, s) within NCORR rows, on NCORR + 1 offsets or, when
    dr >= 1.5 dz, on those within NCORR row widths, so that wide cells keep
    each line decreasing in the offset: the midpoint value of the log
    part becomes its exact average over the source cell, which keeps the
    operator's near-diagonal second-order despite the singularity, and the
    self cell (t = s, offset 0) the near-coincidence law averaged over the
    cell. Each correction is computed once per |t - s| and offset, so a
    symmetric set of pairs stays symmetric bit for bit."""
    r, dr, dz = spec.r_centers, spec.dr, spec.dz
    n_off = min(int(NCORR * max(dr / dz, 1.0)) + 1, spec.n_z)
    di, dj = np.mgrid[:NCORR + 1, :n_off]
    x0, y0 = di * dr - 0.5 * dr, dj * dz - 0.5 * dz
    avg = _log_mean_rect(x0, x0 + dr, y0, y0 + dz)
    with np.errstate(divide="ignore"):
        corr = (avg - np.log(1.0 / np.hypot(di * dr, dj * dz))) / TWO_PI
    corr[0, 0] = 0.0  # the self cell is replaced, not corrected
    # K ~ (r/2 pi)(log(8 r / rho) - 2) near coincidence
    self_cell = (r / TWO_PI) * (avg[0, 0] + np.log(8.0 * r) - 2.0)

    def correct(lines, t, s):
        near = np.flatnonzero(np.abs(s - t) <= NCORR)
        t, s = t[near], s[near]
        lines[near, :corr.shape[1]] += (np.sqrt(r[t] * r[s])[:, None]
                                        * corr[np.abs(s - t)])
        lines[near[t == s], 0] = self_cell[t[t == s]]

    return correct


def build_kernel_block(spec):
    """Tabulate cell-to-cell kernel values K[i_target, i_source, |dj|].

    The z-translation invariance of the kernel collapses the table to the
    z-offset magnitude. Every ordered pair is evaluated, so the block is
    an independent check on the triangle build of `StreamOperator`, and
    its symmetry in (i_target, i_source) a check on the kernel's; the
    near-diagonal entries are corrected as there.
    """
    r, n_r, n_z = spec.r_centers, spec.n_r, spec.n_z
    t, s = np.indices((n_r, n_r)).reshape(2, -1)
    block, _ = _elliptic_kernel(r[t, None], 0.0, r[s, None],
                                spec.dz * np.arange(n_z))
    _near_corrector(spec)(block, t, s)
    return block.reshape(n_r, n_r, n_z)


def _transformed_triangle(spec):
    """The kernel lines of the pairs (a, b), b >= a, as their DCT-I over
    the z-offsets in table[:, a, b], frequencies 0 to n_z - 1, and their
    max over the offsets in peak[a, b]: the entries below the diagonal are
    left unset.

    The pairs of rows a and n_r - 1 - a are evaluated together, offset-
    major, over one offset more than the grid's, whose row becomes the
    DCT-I's trailing 0; the lines and their mirror image are copied into
    their even extension of length 2 n_z, whose real FFT is the DCT-I, so
    each frequency is one contiguous row of the table; its last, n_z, is
    not kept, as the even apply never reads it. The far offsets
    converge first, so the AGM's later steps run on the near offsets
    alone, and every buffer is reused.
    """
    r, n_r, n_z = spec.r_centers, spec.n_r, spec.n_z
    zs = spec.dz * np.arange(n_z + 1)
    correct = _near_corrector(spec)
    table, peak = np.empty((n_z, n_r, n_r)), np.empty((n_r, n_r))
    work = [*np.empty((5, n_z + 1, n_r + 1)),
            np.empty((n_z + 1, n_r + 1), dtype=bool)]
    ext = np.empty((2 * n_z, n_r + 1))
    freq = np.empty((n_z + 1, n_r + 1), dtype=complex)
    p = np.arange(n_r + 1)
    for a in range((n_r + 1) // 2):
        # the pairs (t, s), s >= t, of rows a and n_r - 1 - a (an odd
        # n_r's middle row twice)
        in_a = p < n_r - a
        t, s = np.where(in_a, a, n_r - 1 - a), np.where(in_a, a + p, p - 1)
        lines, _ = _elliptic_kernel(r[t], zs[:, None], r[s], 0.0, work)
        correct(lines.T, t, s)
        peak[t, s] = lines[:n_z].max(axis=0)
        lines[n_z] = 0.0
        ext[:n_z + 1], ext[n_z + 1:] = lines, lines[n_z - 1:0:-1]
        dct = rfft(ext, axis=0, out=freq).real
        table[:, a, a:] = dct[:n_z, :n_r - a]
        table[:, n_r - 1 - a, n_r - 1 - a:] = dct[:n_z, n_r - a:]
    return table, peak


class StreamOperator:
    """psi0 = K zeta on a fixed grid, for fields even in z.

    The kernel table K[a, b, dj] (target row a, source row b, z-offset dj)
    is transformed once in the offset index, the DCT-I of [K[a, b, 0], ...,
    K[a, b, n_z - 1], 0] (the real transform of its even extension to
    length 2 n_z), then weighted by nu(cell b), and stored frequency-major
    as one C-contiguous float64 array T[f, b, a] of its n_z frequencies
    that the apply reads, shape (n_z, n_r, n_r), n_r^2 n_z * 8 bytes (the
    last, f = n_z, is not kept). The kernel is symmetric in (r, r'), so
    the build transforms the lines of the triangle b >= a, rows a and
    n_r - 1 - a at a time, writes them as rows T[:, a, a:], and then
    mirrors and weights each frequency in place. `bound`[b, a] = nu(cell b)
    max_dj K[a, b, dj] is kept apart (n_r^2 * 8 bytes) for `row_bound`.

    `apply_even` takes the rows z > 0 of a field even about z = 0 (an
    even n_z on a box centred at 0). Zero-padded to n_z, their half-sample
    symmetric extension is the field's 2 n_z-periodic sequence, so the
    convolution is a DCT-II of the source rows [b0, b1) between the first
    and the last row holding a nonzero cell, one real row per frequency
    against T[:, b0:b1, a0:a1] for the target rows [a0, a1) asked for,
    and a DCT-III back, whose first n_z / 2 samples are psi0 on those rows
    (0 on the others). Both are products with cosine matrices: the DCT-II
    reads only the z-rows up to the last nonzero cell, and the DCT-III
    writes only the samples kept, C-contiguous.
    """

    def __init__(self, spec):
        self.spec = spec
        n_r, n_z = spec.n_r, spec.n_z
        table, peak = _transformed_triangle(spec)
        # mirror the triangle's transpose below it, then weight source row b
        lower = np.tri(n_r, k=-1, dtype=bool)
        w = (spec.r_centers * spec.cell_area)[:, None]
        for f in (peak, *table):
            np.copyto(f, f.T, where=lower)
            f *= w
        self.bound, self._table = peak, table
        # the DCT-II of the rows z > 0 zero-padded to n_z, and the first
        # n_z / 2 samples of its inverse, as (n_z, n_z / 2) cosine matrices
        k = np.arange(n_z)[:, None]
        c = np.cos(np.pi * k * (2 * np.arange(n_z // 2) + 1) / (2 * n_z))
        self._dct2, self._dct3 = 2.0 * c, np.where(k == 0, 0.5, 1.0) * c / n_z

    def apply_even(self, upper, idx=None, rows=None):
        """psi0 on the rows z > 0 of a field even in z, C-contiguous, from
        those rows: (n_r, n_z / 2) arrays ordered outward from z = 0, else
        GridMismatchError; idx, upper's sorted nonzero flat index, or None;
        rows, the target rows [a0, a1) computed (None: all), 0 elsewhere."""
        n_r, half = self.spec.n_r, self.spec.n_z // 2
        if not self.spec.z_symmetric():
            raise ConfigurationError("the even apply needs a z-symmetric grid")
        if upper.shape != (n_r, half):
            raise GridMismatchError("%s is not (n_r, n_z/2)" % (upper.shape,))
        idx = np.flatnonzero(upper.ravel() != 0.0) if idx is None else idx
        out = np.zeros((n_r, half))
        if idx.size == 0:
            return out
        a0, a1 = (0, n_r) if rows is None else rows
        b0, b1 = idx[0] // half, idx[-1] // half + 1
        j1 = int(np.max(idx % half)) + 1
        vhat = self._dct2[:, :j1] @ upper[b0:b1, :j1].T
        phat = np.matmul(vhat[:, None, :], self._table[:, b0:b1, a0:a1])
        np.matmul(phat[:, 0, :].T, self._dct3, out=out[a0:a1])
        return out

    def row_bound(self, upper, b0=0):
        """U(a) = sum_b bound[b, a] * (row b's full-field sum), from the rows
        z > 0 of a nonnegative even field, upper holding its source rows
        from b0 on and the rest 0: max_j psi0(a, j) <= U(a)."""
        return 2.0 * np.add.reduce(upper, 1) @ self.bound[b0:b0 + len(upper)]

    def apply_direct(self, values):
        """Slow reference: explicit summation over source cells, on a
        kernel block built for this call."""
        spec = self.spec
        block = build_kernel_block(spec)
        w = spec.r_centers * spec.cell_area
        out = np.zeros((spec.n_r, spec.n_z))
        jj = np.arange(spec.n_z)
        for i_s, j_s in zip(*np.nonzero(values)):
            out += block[:, i_s, np.abs(jj - j_s)] * (values[i_s, j_s] * w[i_s])
        return out


@functools.lru_cache(maxsize=1)
def get_stream_operator(spec):
    """Shared operator of the last grid used, keyed by the frozen GridSpec:
    one kernel table serves every solve on a grid, and a new grid replaces
    it rather than adding a second."""
    return StreamOperator(spec)


def apply_stream_operator(zeta):
    """psi0 = K zeta for a nonnegative vorticity field even in z.

    The returned field is strictly positive wherever zeta is not
    identically zero. A field that is not exactly even in z, or a grid
    that is not z-symmetric, raises ConfigurationError.
    """
    vals = zeta.values
    if np.any(vals < 0):
        raise ConfigurationError("stream operator expects zeta >= 0")
    if not np.array_equal(vals, vals[:, ::-1]):
        raise ConfigurationError("stream operator expects a field even in z")
    upper = get_stream_operator(zeta.spec).apply_even(
        vals[:, zeta.spec.n_z // 2:])
    return ScalarField(zeta.spec, np.hstack((upper[:, ::-1], upper)))


# ---------------------------------------------------------------------------
# finite-difference cross-check


def default_extended_box(spec, margin_factor=3.0, cells_per_unit=42.0,
                         max_cells=900):
    """Build the enlarged grid fd_solve uses.

    The box keeps a margin of margin_factor times the diagonal of the
    source domain on the outer sides, is symmetric in z, and starts at the
    axis offset r_min/8 where the solution is pinned to zero.
    """
    diam = float(np.hypot(spec.r_max - spec.r_min, spec.z_max - spec.z_min))
    margin = margin_factor * diam
    r_axis = spec.r_min / 8.0
    r_hi = spec.r_max + margin
    z_half = max(abs(spec.z_min), abs(spec.z_max)) + margin
    n_r = int(min(max_cells, np.ceil((r_hi - r_axis) * cells_per_unit)))
    n_z = int(min(max_cells, np.ceil(2.0 * z_half * cells_per_unit)))
    if n_z % 2:
        n_z += 1
    return build_grid(r_axis, r_hi, -z_half, z_half, n_r, n_z)


def _resample_conservative(zeta, ext):
    """Piecewise-constant transfer of zeta onto the extended grid with a
    global rescale that preserves the nu-integral exactly."""
    src = zeta.spec
    # cells outside the source grid read the zero border of the padded field
    ri = np.floor((ext.r_centers - src.r_min) / src.dr).astype(int)
    zj = np.floor((ext.z_centers - src.z_min) / src.dz).astype(int)
    out = ScalarField(ext, np.pad(zeta.values, 1)[np.ix_(
        np.clip(ri, -1, src.n_r) + 1, np.clip(zj, -1, src.n_z) + 1)])
    total_src, total_ext = integrate_nu(zeta), integrate_nu(out)
    if total_ext > 0.0 and total_src > 0.0:
        out.values *= total_src / total_ext
    return out


def fd_solve(zeta, box):
    """Solve L psi0 = zeta by second-order finite differences on a large
    box with zero Dirichlet data on its boundary and at the axis offset.

    zeta lives on the (small) solve grid and is extended by zero; box, for
    instance from default_extended_box, must strictly contain that grid.
    The r^2-scaled operator -r d/dr((1/r) d/dr) - d^2/dz^2, an M-matrix,
    is the Kronecker sum of its tridiagonal r and z parts. Returns psi0 on
    box. Independent of the kernel table in every respect, which is what
    makes it useful as a cross-check.
    """
    from scipy import sparse
    from scipy.sparse.linalg import spsolve
    if not (box.r_min < zeta.spec.r_min and box.r_max > zeta.spec.r_max
            and box.z_min < zeta.spec.z_min and box.z_max > zeta.spec.z_max):
        raise ConfigurationError("extended box must strictly contain the source domain")
    src = _resample_conservative(zeta, box)
    hr, b, r = box.dr, 1.0 / (box.dz * box.dz), box.r_centers
    a_plus = r / ((r + 0.5 * hr) * hr * hr)
    a_minus = r / ((r - 0.5 * hr) * hr * hr)
    # ghost-cell Dirichlet: the reflected ghost adds the face coefficient
    # back onto the diagonal of the first and last row of each part
    d_r, d_z = a_plus + a_minus, np.full(box.n_z, 2.0 * b)
    d_r[[0, -1]] += a_minus[0], a_plus[-1]
    d_z[[0, -1]] += b
    part_r = sparse.diags([d_r, -a_plus[:-1], -a_minus[1:]], [0, 1, -1])
    part_z = sparse.diags([d_z, -b, -b], [0, 1, -1], shape=(box.n_z,) * 2)
    # unknowns row-major (i * n_z + j): z is the inner index
    A = sparse.kronsum(part_z, part_r, format="csc")
    rhs = (src.values * (r * r)[:, None]).ravel()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        psi = spsolve(A, rhs)
    if not np.all(np.isfinite(psi)):
        raise NumericalError("finite-difference solve produced non-finite values")
    return ScalarField(box, psi.reshape(box.n_r, box.n_z))


def restrict_to_grid(fext, spec):
    """Sample a field on the extended grid at the cell centers of the
    solve grid (bilinear interpolation)."""
    return ScalarField(spec, bilinear_sample(fext, spec.r_centers[:, None],
                                             spec.z_centers[None, :]))
