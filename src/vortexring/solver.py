"""Constrained maximization of the ring energy over the capped vorticity
class.

The functional is

    E(zeta) = 1/2 <zeta, K zeta>_nu - (W/2) log(1/eps) int r^2 zeta dnu
              - eps^-2 int J(r, eps^2 zeta) dnu

over 0 <= zeta <= Lambda/eps^2 supported in the box D, with circulation
int zeta dnu <= kappa. Each outer step linearizes the quadratic kernel
term at the current iterate and solves the resulting separable concave
subproblem exactly: pointwise thresholding through the inverse graph of
the conjugate, with the mass multiplier mu found exactly by the threshold
routine the bathtub shares (rearrange.threshold_fill). This is the
linearize-then-bathtub iteration of Eydeland & Turkington (J. Comput.
Phys. 1988). Because the kernel term is convex, every step is an ascent
step on E, which the loop asserts.

Steiner symmetry in z (each r-column even and nonincreasing in |z|) is a
loop invariant, not a step: the starting ball has it, the kernel table
is strictly decreasing in the z-offset so K maps such columns to such
columns, and the update is nondecreasing in the head with r fixed along
a column. On cells over 1.5 times wider than tall the table decreases
because its near-field correction spans NCORR row widths in z; an
8 x 400 default box still keeps one line rising by 2e-5. run uses the
evenness: it iterates on the rows z > 0 alone, each cell weighted for
itself and its mirror image, and applies K to them by
greens.StreamOperator.apply_even. It builds each cell's radius, nu
weight, background, and i and J (profiles.cell_law) once (Cells), so
the fills and the energy run unchecked; it takes each iterate's sorted
nonzero flat index from the cells the search filled, for the mass, the
cap clamp, the energy, the L1 change, the support count and the apply's
band; and it applies K only on the target rows whose bound can reach
the search's cut (step). Every pass outside the apply then costs in
proportion to those rows and the search's band, not to the grid: the
iterates and their stream fields are plain arrays, the search reads the
applied rows alone, the row bound sums the support's source rows alone,
and the L1 change marks two supports over their span only. At a few
hundred cells a numpy call's fixed cost is most of its time, so these
passes sum by np.add.reduce, the pairwise sum of ndarray.sum without
its Python-level wrapper. A non-finite stream on a searched row or a
non-finite energy raises NumericalError, as does a returned state that
is not symmetric; the full fields are built and checked once, for that
state.

The optimality profile of the converged state is

    eps^2 zeta = Lambda        where psi >= dJds(r, Lambda),
    eps^2 zeta = i(r, psi)     where 0 < psi < dJds(r, Lambda),
    zeta = 0                   where psi < 0,

with psi = K zeta - (W r^2 / 2) log(1/eps) - mu, and freedom only on the
level set psi = 0 (the bathtub ledge), which is where generators with a
jump at the origin place their fractional cells.
"""

import math
import time
import warnings
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, NumericalError, complaint
from .grid import ScalarField, build_grid, integrate_nu
from .greens import get_stream_operator
from .profiles import cell_law, check_assumptions, eval_dJds, eval_i
from .rearrange import threshold_fill


# Each numeric config key ("section.key" inside a section of a CLI config):
# the ProblemConfig field it sets, its lower bound (exclusive for a number,
# inclusive for an integer), its upper bound, and whether it is an integer.
# ProblemConfig's own check, the CLI's schema check, build_problem and the
# result.json echo all read it.
FIELDS = {
    "epsilon": ("epsilon", 0.0, 1.0, False),
    "kappa": ("kappa", 0.0, None, False),
    "W": ("W", 0.0, None, False),
    "Lambda": ("lambda_cap", 0.0, None, False),
    "grid.n_r": ("n_r", 2, None, True),
    "grid.n_z": ("n_z", 2, None, True),
    "tol.zeta": ("tol_zeta", 0.0, None, False),
    "tol.mu": ("tol_mu", 0.0, None, False),
    "max_iterations": ("max_iterations", 1, None, True),
}


@dataclass
class ProblemConfig:
    """Physical and numerical parameters of one solve.

    The ring radius scale is r_star = kappa / (4 pi W) and the domain is
    D = (r_star/2, 2 r_star) x (-1, 1). lambda_cap = None means
    40 * max(1, g(0+)), resolved once the generator is known. Each field
    is checked against its FIELDS row, as the CLI checks a config, so the
    API accepts exactly what the CLI accepts; n_z must also be even, so
    that cells pair under z -> -z.
    """

    epsilon: float
    kappa: float = 4.0 * np.pi
    W: float = 1.0
    lambda_cap: float | None = None
    n_r: int = 192
    n_z: int = 192
    tol_zeta: float = 1e-8
    tol_mu: float = 1e-10
    max_iterations: int = 500

    def __post_init__(self):
        for name, lo, hi, integer in FIELDS.values():
            v = getattr(self, name)
            why = (v is not None or name != "lambda_cap") and complaint(
                v, lo, hi, integer)
            if why:
                raise ConfigurationError("%s %s" % (name, why))
        if self.n_z % 2:
            raise ConfigurationError("the solver needs an even n_z")

    @property
    def r_star(self):
        return self.kappa / (4.0 * np.pi * self.W)

    @property
    def log_inv_eps(self):
        return float(np.log(1.0 / self.epsilon))

    @property
    def degenerate_epsilon(self):
        """Large-core regime: the solve still runs but the asymptotic
        diagnostics are unreliable."""
        return self.epsilon >= 0.5

    def domain_grid(self):
        rs = self.r_star
        return build_grid(0.5 * rs, 2.0 * rs, -1.0, 1.0, self.n_r, self.n_z)

    def resolved_lambda(self, gen):
        cap = self.lambda_cap
        if cap is None:
            cap = 40.0 * max(1.0, gen.g0plus)
        if cap <= max(1.0, gen.g0plus):
            raise ConfigurationError(
                "lambda_cap must exceed max(1, g(0+)) = %r"
                % (max(1.0, gen.g0plus),))
        return float(cap)


@dataclass
class SolveState:
    """The final iterate: vorticity, multiplier, and the shifted stream
    psi = K zeta - (W r^2/2) log(1/eps) - mu."""

    zeta: ScalarField
    mu: float
    psi: ScalarField
    energy: float


@dataclass
class SolveResult:
    """Final state plus the run record."""

    config: ProblemConfig
    gen: object
    state: SolveState
    converged: bool
    iterations: int
    energy_trace: np.ndarray = field(repr=False)
    mu_trace: np.ndarray = field(repr=False)
    l1_change_trace: np.ndarray = field(repr=False)
    support_trace: np.ndarray = field(repr=False)
    mass_evals_trace: np.ndarray = field(repr=False)
    apply_rows_trace: np.ndarray = field(repr=False)
    kkt: float = np.nan
    patch_measure: float = np.nan
    mass: float = np.nan
    layer_seconds: dict = field(default_factory=dict, repr=False)

    @property
    def stop_reason(self):
        """Why the loop stopped: "converged" when the L1 change fell below
        tol_zeta, "iteration_cap" when max_iterations ran out first."""
        return "converged" if self.converged else "iteration_cap"


def background_field(config, spec):
    """(W r^2 / 2) log(1/eps) sampled on the grid, as a read-only broadcast
    of its per-row values."""
    b = 0.5 * config.W * spec.r_centers ** 2 * config.log_inv_eps
    return np.broadcast_to(b[:, None], (spec.n_r, spec.n_z))


def energy(config, zeta, psi0, idx, grid):
    """The three-term functional at (zeta, psi0 = K zeta), arrays on the
    box of grid (run's Cells), for a nonnegative zeta, summed over its
    sorted flat support idx."""
    _, eps2, r, w, _, _, J, _ = grid
    r, w = r[idx], w[idx]
    z = zeta.ravel()[idx]
    kern = 0.5 * float(np.add.reduce(z * psi0.ravel()[idx] * w))
    impulse = float(np.add.reduce(z * r ** 2 * w))
    penalty = float(np.add.reduce(J(eps2 * z, idx) * w))
    return kern - 0.5 * config.W * config.log_inv_eps * impulse - penalty / eps2


# run's per-run constants of one box: the cap, eps^2, each flat cell's r,
# nu weight and background, i and J resolved per cell (profiles.cell_law),
# and the box
Cells = namedtuple("Cells", "lam eps2 r w bg i J spec")


def _grid_constants(config, gen, spec):
    """The Cells of spec."""
    r = np.repeat(spec.r_centers, spec.n_z)
    return Cells(config.resolved_lambda(gen), config.epsilon ** 2, r,
                 spec.nu_weights().ravel(),
                 background_field(config, spec).ravel(), *cell_law(gen, r),
                 spec)


def solve_mu(config, psi0, grid, start=0, cut=None, rows=None):
    """Multiplier and updated vorticity of one outer step from psi0, an
    array on the box of grid (run's per-run Cells), searched on its rows
    [a0, a1) = rows (all if None): returns mu, the update (a new array of
    psi0's shape), the count of cells above mu (the next step's start; 0
    is cold), the fill calls and the sorted flat index of the update's
    nonzero cells.

    The update at multiplier mu is eps^2 zeta = min(Lambda, i(r, head - mu))
    with head = psi0 less the per-row background, and its mass is
    nonincreasing in mu. Only the heads, weights and cells of the searched
    rows are read; the update is 0 on the other rows, which is exact when
    their heads lie below every level searched, as the rows step leaves
    unapplied do. A non-finite head raises NumericalError.
    rearrange.threshold_fill returns the smallest mu >= 0 whose update fits
    the mass budget: zero when the unconstrained update fits; a head value
    when the mass jumps across the budget there, as it does for generators
    with a jump at the origin, in which case the cells on that level set
    (the ledge psi = 0) are filled fractionally; and a root between two
    heads, to a few ulp of the budget, otherwise. Each mass evaluation is
    one call of i on the cells above the probed mu; cut, a level below mu,
    picks its band (None: every positive head).
    """
    lam, eps2, r, w, bg, law_i, _, spec = grid
    a0, a1 = rows or (0, psi0.shape[0])
    lo, hi = a0 * psi0.shape[1], a1 * psi0.shape[1]
    head = psi0[a0:a1].ravel() - bg[lo:hi]
    if np.count_nonzero(np.isfinite(head)) < head.size:
        raise NumericalError("stream field is not finite on rows %d to %d"
                             % (a0, a1))
    evals = 0

    def fill(cells):
        law = law_i.at(cells + lo if lo else cells)

        def band(t):
            nonlocal evals
            evals += 1
            return np.minimum(lam, law(t))
        return band

    mu, u, above, idx = threshold_fill(head, w[lo:hi], config.kappa * eps2,
                                       fill, start, cut)
    if lo:
        idx += lo
    z = np.divide(u, eps2, out=u)
    mass = float(np.add.reduce(z * r[idx])) * spec.cell_area
    if mu > 0.0 and abs(mass - config.kappa) > config.tol_mu * config.kappa:
        raise NumericalError("multiplier search missed the mass budget: "
                             "%.3e vs %.3e" % (mass, config.kappa))
    update = np.zeros(psi0.shape)
    update.ravel()[idx] = _capped(z, config, lam, mass)
    return mu, update, above, evals, idx


def _capped(vals, config, lam, mass):
    """Clamp roundoff in place so admissibility holds exactly: mass <= kappa
    and eps^2 zeta <= Lambda, for the values vals of a zeta of mass mass."""
    if mass > config.kappa:
        vals *= (config.kappa / mass) * (1.0 - 1e-15)
    return np.minimum(vals, lam / config.epsilon ** 2, out=vals)


def initialize(config, gen):
    """Starting vorticity: a uniform ball at (r_star, 0) of radius
    eps * sqrt(kappa / (pi r_star)), normalized to full mass.

    The scaling makes eps^2 zeta = 1 up to quadrature wobble, safely
    under the cap; if the discrete cap still binds the radius grows by
    25% steps. A ball that cannot fit inside the domain raises
    ConfigurationError.
    """
    lam = config.resolved_lambda(gen)
    spec = config.domain_grid()
    rs = config.r_star
    radius = config.epsilon * np.sqrt(config.kappa / (np.pi * rs))
    room = min(rs - spec.r_min, spec.r_max - rs,
               abs(spec.z_min), abs(spec.z_max))
    dr2 = (spec.r_centers - rs) ** 2
    z2 = spec.z_centers ** 2
    w = spec.r_centers * spec.cell_area
    for _ in range(40):
        if radius > room:
            raise ConfigurationError(
                "initialization ball of radius %.3g exceeds the domain "
                "(room %.3g); epsilon too large for this box" % (radius, room))
        # a rounded sum of two nonnegative terms is at least each term, so
        # the ball's cells lie on the rows and columns whose own term is
        # within radius^2: the ball is placed on those alone
        i = np.flatnonzero(dr2 <= radius ** 2)
        j = np.flatnonzero(z2 <= radius ** 2)
        mask = dr2[i, None] + z2[j] <= radius ** 2
        volume = float(np.sum(np.broadcast_to(w[i, None], mask.shape)[mask]))
        if volume > 0.0:
            c = config.kappa / volume
            if c * config.epsilon ** 2 <= lam:
                vals = np.zeros((spec.n_r, spec.n_z))
                vals[np.ix_(i, j)] = np.where(mask, c, 0.0)
                return ScalarField(spec, vals)
        radius *= 1.25
    raise ConfigurationError("could not place the initialization ball")


def l1_change(a, b, idx, w):
    """Relative L1(nu) change between iterates over idx, the sorted cells
    where either is nonzero, with flat nu weights w."""
    w = w[idx]
    a, b = a.ravel()[idx], b.ravel()[idx]
    denom = float(np.add.reduce(np.abs(a) * w))
    return float(np.add.reduce(np.abs(b - a) * w)) / max(denom, 1e-300)


def _window(op, upper, idx, bg, cut):
    """Target rows [a0, a1) holding each row whose heads psi0 - bg (bg per
    cell) can pass cut less a margin far above roundoff, as psi0 <=
    op.row_bound, joined with the source band of upper's support idx. The
    row bound sums the support's source rows [b0, b1) alone."""
    half = upper.shape[1]
    b0, b1 = idx[0] // half, idx[-1] // half + 1
    bound = op.row_bound(upper[b0:b1], b0)
    level = cut - 1e-9 * np.maximum.reduce(bound)
    hit = (bound - bg[::half] > level).nonzero()[0]
    return (min(b0, hit[0]), max(b1, hit[-1] + 1)) if hit.size else (b0, b1)


def step(op, config, zeta, idx, grid, start, cut, timed):
    """One outer step: psi0 = K zeta, then solve_mu from start with cut,
    for zeta the rows z > 0 of an even iterate nonzero on idx, all plain
    arrays. A positive cut applies and searches _window's rows alone,
    and all if mu ends below the cut, as that search read rows left 0.
    Returns psi0, solve_mu's values with both searches' fill calls, and
    the rows applied; timed(layer, f, *args) calls f (run's timer, or a
    plain call)."""
    full = rows = (0, zeta.shape[0])
    if cut is not None and cut > 0.0:
        rows = timed("window", _window, op, zeta, idx, grid.bg, cut)
    applied = evals = 0
    while True:
        psi0 = timed("apply_even", op.apply_even, zeta, idx, rows)
        mu, update, above, n, nxt = timed(
            "solve_mu", solve_mu, config, psi0, grid, start, cut, rows)
        applied, evals = applied + rows[1] - rows[0], evals + n
        if rows == full or mu >= cut:
            return psi0, mu, update, above, evals, nxt, applied
        rows = full


def _union(a, b):
    """The sorted union of two sorted flat indices, by a mask over the
    span up to their last cell, read from their first."""
    if a.size == b.size and not np.count_nonzero(a != b):
        return b  # the support stayed
    if not (a.size and b.size):
        return a if b.size == 0 else b
    lo = min(a[0], b[0])
    mask = np.zeros(max(a[-1], b[-1]) + 1, dtype=bool)
    mask[a] = mask[b] = True
    return mask[lo:].nonzero()[0] + lo


def check_problem(config, gen):
    """Reject what run cannot solve before any work is done: a generator
    that fails its structural checks, or a cap at or below max(1, g(0+)).
    Returns the resolved cap."""
    report = check_assumptions(gen, r_max=2.0 * config.r_star, n_sample=80)
    if not report["all_pass"]:
        raise ConfigurationError(
            "generator fails its structural checks: %s"
            % {k: v for k, v in report.items() if k != "all_pass"})
    return config.resolved_lambda(gen)


def _check_steiner(upper, idx):
    """Raise NumericalError when a row of upper rises outward from z = 0,
    on the rows from the first to the last that holds a cell of idx. For
    upper the rows z > 0 of a nonnegative field even in z, nonzero on the
    flat index idx alone, that is exactly when the field is not a fixed
    point of rearrange.steiner_symmetrize_z, bit for bit; an empty idx
    passes."""
    if idx.size:
        b0, b1 = idx[0] // upper.shape[1], idx[-1] // upper.shape[1] + 1
        if np.any(np.diff(upper[b0:b1], axis=1) > 0):
            raise NumericalError(
                "final vorticity is not Steiner-symmetric in z")


def run(config, gen):
    """Outer majorize-maximize loop.

    Iterates psi0 = K zeta_k, (mu, zeta_{k+1}) = solve_mu until the relative
    L1(nu) change drops below tol_zeta or max_iterations is hit. The energy
    trace is recorded per iterate and asserted finite and nondecreasing
    (1e-9 relative slack); mu, the L1 change, the full field's count of
    nonzero cells, the multiplier search's mass evaluations and the target
    rows applied are recorded per iteration, and the seconds spent over
    the run in layer_seconds: in _window's row bound, apply_even, solve_mu
    and energy, and in the rest of the loop up to the final state's energy
    (other), so the five sum to the loop's wall time. Each step (see step)
    starts from the last one's count of cells above mu, on the heads above
    the last mu less twice its last move and mu / 20. The returned
    vorticity must be a fixed point of rearrange.steiner_symmetrize_z, bit
    for bit (_check_steiner), or NumericalError is raised. The final state
    gets a fresh stream field from a full apply so the reported optimality
    residual and patch measure are self-consistent. check_problem runs
    first.
    """
    lam = check_problem(config, gen)
    spec = config.domain_grid()
    op = get_stream_operator(spec)
    # the loop holds the rows z > 0 of its even iterates on the box with
    # n_z / 2 cells of height 2 dz, each standing for a mirror pair: the nu
    # weights double, so masses and energies are those of the even field
    half = spec.n_z // 2
    zeta = initialize(config, gen).values[:, half:]
    grid = _grid_constants(config, gen, replace(spec, n_z=half))

    trace, mus, changes, supports, evals, applied = [], [], [], [], [], []
    seconds = dict.fromkeys(
        ("window", "apply_even", "solve_mu", "energy", "other"), 0.0)

    def timed(layer, f, *args):
        t0 = time.perf_counter()
        out = f(*args)
        seconds[layer] += time.perf_counter() - t0
        return out

    def ascend(zeta, psi0, idx, it):
        """The energy of zeta (nonzero on idx, psi0 = K zeta) joins the
        trace after the ascent check. it is None for the final state."""
        e = timed("energy", energy, config, zeta, psi0, idx, grid)
        if not math.isfinite(e):
            raise NumericalError("energy is not finite: %r" % e)
        if trace and e < trace[-1] - 1e-9 * abs(trace[-1]):
            if it is None:
                raise NumericalError("final energy fell below the trace")
            raise NumericalError(
                "energy decreased at iteration %d: %.15g -> %.15g"
                % (it, trace[-1], e))
        trace.append(e)
        return psi0

    mu, above, cut = 0.0, 0, None
    idx = np.flatnonzero(zeta.ravel() != 0.0)
    t0 = time.perf_counter()
    for it in range(1, config.max_iterations + 1):
        psi0, mu, zeta_next, above, n, nxt, m = step(
            op, config, zeta, idx, grid, above, cut, timed)
        ascend(zeta, psi0, idx, it)
        cut = mu - 2.0 * abs(mu - (mus[-1] if mus else 0.0)) - 0.05 * mu
        mus.append(mu)
        evals.append(n)
        applied.append(m)
        changes.append(l1_change(zeta, zeta_next, _union(idx, nxt), grid.w))
        supports.append(2 * nxt.size)
        zeta, idx = zeta_next, nxt
        if changes[-1] <= config.tol_zeta:
            break
    iterations = len(changes)
    converged = iterations > 0 and changes[-1] <= config.tol_zeta

    def unfold(f):
        return ScalarField(spec, np.hstack((f[:, ::-1], f)))

    # the full field sums its mass in another order: clamp it once more
    zeta = unfold(zeta)
    _capped(zeta.values, config, lam, integrate_nu(zeta))
    upper = zeta.values[:, half:]
    _check_steiner(upper, idx)
    psi = unfold(ascend(upper, timed("apply_even", op.apply_even, upper, idx),
                        idx, None))
    del grid  # the loop's per-cell constants, unread by the closing checks
    seconds["other"] = time.perf_counter() - t0 - sum(seconds.values())
    psi.values -= background_field(config, spec)
    psi.values -= mu
    state = SolveState(zeta=zeta, mu=float(mu), psi=psi, energy=trace[-1])
    result = SolveResult(
        config=config, gen=gen, state=state, converged=converged,
        iterations=iterations, energy_trace=np.asarray(trace),
        mu_trace=np.asarray(mus), l1_change_trace=np.asarray(changes),
        support_trace=np.asarray(supports), mass_evals_trace=np.asarray(evals),
        apply_rows_trace=np.asarray(applied), layer_seconds=seconds,
    )
    result.mass = integrate_nu(zeta)
    result.patch_measure = patch_measure(config, gen, zeta)
    result.kkt = kkt_residual(result)
    if config.degenerate_epsilon:
        warnings.warn("epsilon >= 0.5: asymptotic diagnostics are unreliable",
                      RuntimeWarning)
    return result


def patch_measure(config, gen, zeta):
    """nu-measure of the near-cap set {eps^2 zeta >= 0.999 Lambda}, summed
    over the nonzero cells in C order."""
    lam = config.resolved_lambda(gen)
    spec = zeta.spec
    idx = np.flatnonzero(zeta.values.ravel() != 0.0)
    u = config.epsilon ** 2 * zeta.values.ravel()[idx]
    w = spec.r_centers[idx // spec.n_z] * spec.cell_area
    return float(np.sum(w[u >= 0.999 * lam]))


def kkt_residual(result):
    """Worst-cell optimality violation of the final state.

    Cases, each normalized (vorticity mismatches by Lambda, stream
    mismatches by max |psi|):

    - cells below the cap: distance of (psi, eps^2 zeta) to the update
      graph, as the smaller of the vorticity-side mismatch
      |eps^2 zeta - min(Lambda, i(r, psi_+))| and the stream-side
      mismatch |psi - dJds(r, eps^2 zeta)|. The two agree for continuous
      generators; the stream-side form is what vanishes on the ledge
      cells of jump generators.
    - capped cells: positive part of dJds(r, Lambda) - psi.
    - support cells: positive part of -psi.

    Only the cells where zeta != 0 or psi > 0 are evaluated: on every
    other cell i(r, psi <= 0) = 0 and psi_+ = 0, so each case reads 0.
    """
    config, gen = result.config, result.gen
    state = result.state
    lam = config.resolved_lambda(gen)
    zeta, psi = state.zeta.values.ravel(), state.psi.values.ravel()
    spec = state.zeta.spec
    scale_psi = float(max(psi.max(), -psi.min())) or 1.0
    cells = np.flatnonzero((zeta != 0.0) | (psi > 0.0))
    u = config.epsilon ** 2 * zeta[cells]
    psi = psi[cells]
    rr = spec.r_centers[cells // spec.n_z]

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
