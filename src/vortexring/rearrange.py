"""Discrete rearrangement tools: one exact threshold fill, the capped
bathtub maximizer built on it, and Steiner symmetrization in z.

threshold_fill finds the multiplier mu of a mass-constrained threshold
update: each cell i holds fill(h_i - mu, i) for a fill that is
nondecreasing in t and vanishes for t <= 0, and mu is the smallest value
>= 0 whose total weight fits the budget. Only cells with h_i > mu fill,
so the positive heads are sorted once in descending order and each mass
evaluation calls fill on the prefix above the probed mu; the search for
mu runs down from the top head. The solver's multiplier search is the
case fill(t, i) = min(Lambda, i(r_i, t)); the bathtub problem

    maximize sum_i w_i h_i om_i  over 0 <= om_i <= 1, sum_i w_i om_i <= cap

is the case fill = 1 on t > 0, whose solution fills super-level sets of h
down to a level, with freedom only on the level set itself. The
symmetrization redistributes each r-column of a field so it is even in z
and nonincreasing in |z|, exactly preserving the column's value multiset.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigurationError
from .grid import ScalarField


@dataclass
class MeasureSpace:
    """Weighted atoms (w_i > 0, h_i) with a capacity 0 < cap < sum w_i."""

    weights: np.ndarray
    values: np.ndarray
    capacity: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.weights.size == 0:
            raise ConfigurationError("bathtub needs at least one atom")
        if self.weights.shape != self.values.shape or self.weights.ndim != 1:
            raise ConfigurationError("weights and values must be matching 1-d arrays")
        if np.any(self.weights <= 0):
            raise ConfigurationError("atom weights must be strictly positive")
        if not (0.0 < self.capacity < float(np.sum(self.weights))):
            raise ConfigurationError("capacity must lie in (0, total weight)")


@dataclass
class BathtubSolution:
    """Fill fractions per atom, the fill level, and the optimal value."""

    omega: np.ndarray
    level: float
    value: float


def threshold_fill(h, w, budget, fill):
    """Smallest mu >= 0 with sum_i w_i fill(h_i - mu, i) <= budget, and the
    fills at it, with the budget met exactly whenever mu > 0.

    h and w are matching 1-d float arrays of heads and weights. fill(t, idx)
    maps the arguments t of the cells idx (indices into h) to their fills;
    it must be nondecreasing in t and zero for t <= 0, so mass(mu) is
    nonincreasing, continuous between the distinct positive heads, and
    drops only at them. Only cells with h_i > mu fill at mu, so the
    positive heads are sorted in descending order once and every mass
    evaluation calls fill on the sorted prefix above the probed mu alone.

    The search runs over the distinct positive heads from the top, where
    the mass is zero, down: it doubles the level index until the mass
    exceeds the budget, then bisects, and ends with adjacent levels
    lo < hi with mass(lo) > budget >= mass(hi). The mass at mu = 0, over
    every positive head, is evaluated only when the search gets there, and
    mu = 0 is returned when it fits. Each probe of a head also hands fill
    the cells on that head with t = tiny, the left limit t -> 0+, so the
    left-limit mass(hi-) costs no extra call. If it still exceeds the
    budget, mu = hi and the cells with h == hi share the rest of the
    budget in proportion to their left-limit fill (the level set of the
    bathtub); otherwise brentq closes the crossing inside (lo, hi), where
    the cells above mu are the fixed prefix h >= hi.
    """
    out = np.zeros(h.shape)
    pos = np.flatnonzero(h > 0.0)
    if pos.size == 0:
        return 0.0, out
    order = pos[np.argsort(-h[pos])]
    hs, ws = h[order], w[order]
    # level k is the k-th distinct head from the top, with above[k] cells
    # strictly above it; level n_levels is mu = 0, with no cell on it
    above = np.flatnonzero(np.diff(hs, prepend=np.inf))
    n_levels = above.size
    levels = np.append(hs[above], 0.0)
    above = np.append(above, [hs.size, hs.size])

    def level_fill(k):
        """Mass at mu = levels[k], the left-limit mass of the cells on that
        level (t -> 0+), and the fills of both, from one fill call."""
        c, e = above[k], above[k + 1]
        t = hs[:e] - levels[k]
        t[c:] = np.finfo(float).tiny
        u = fill(t, order[:e])
        return float(np.dot(ws[:c], u[:c])), float(np.dot(ws[c:e], u[c:])), u

    # mass(levels[0]) = 0: no cell lies above the top head. Double the
    # index until a level holds too much, then bisect.
    evals = {}
    good, bad = 0, None
    while bad is None or bad - good > 1:
        k = min(2 * good + 1, n_levels) if bad is None else (good + bad) // 2
        evals[k] = level_fill(k)
        if evals[k][0] > budget:
            bad = k
        elif k == n_levels:
            out[order] = evals[k][2]
            return 0.0, out
        else:
            good = k
    if good not in evals:
        evals[good] = level_fill(good)
    mass_hi, on_ledge, u = evals[good]
    hi, lo = float(levels[good]), float(levels[bad])
    top, m = above[good], above[bad]  # cells above hi; cells at or above hi

    if mass_hi + on_ledge > budget:
        u[top:] *= (budget - mass_hi) / on_ledge
        out[order[:m]] = u
        return hi, out

    # brentq starts by evaluating its bracket ends, which the search has,
    # and returns one of the points it evaluated
    masses = {hi: mass_hi, lo: evals[bad][0]}
    fills = {}
    mu = brentq(_prefix_excess, lo, hi, xtol=np.finfo(float).tiny,
                args=(hs[:m], ws[:m], order[:m], fill, budget, masses, fills))
    out[order[:m]] = fills[mu] if mu in fills else fill(hs[:m] - mu, order[:m])
    return float(mu), out


def _prefix_excess(mu, hs, ws, idx, fill, budget, masses, fills):
    """Mass at mu of the cells idx less the budget, for brentq, caching the
    mass and fills by mu. brentq wraps its objective in a self-referencing
    closure, so a nested function here would keep every array it captured
    alive until the next cyclic garbage collection; passing the data as
    arguments leaves nothing behind when the call returns."""
    if mu not in masses:
        fills[mu] = fill(hs - mu, idx)
        masses[mu] = float(np.dot(ws, fills[mu]))
    return masses[mu] - budget


def bathtub_maximize(space):
    """Exact solution of the capped, mass-constrained linear maximization:
    the fill = 1 case of threshold_fill.

    The level is zero when the positive atoms fit the capacity, and
    otherwise the head at which the super-level weight crosses it; atoms
    strictly above the level fill completely, atoms on the level set share
    the residual capacity in proportion to weight, and nothing at or below
    0 ever fills.
    """
    level, omega = threshold_fill(space.values, space.weights, space.capacity,
                                  lambda t, idx: (t > 0.0).astype(float))
    value = float(np.sum(space.weights * space.values * omega))
    return BathtubSolution(omega=omega, level=level, value=value)


def steiner_symmetrize_z(zeta):
    """Rearrange each r-column of a nonnegative field to be even in z and
    nonincreasing in |z|.

    Values sort descending into z-slots center-out, negative side first:
    the largest value lands just below z = 0, the next just above, and so
    on outward. Ties pair across z = 0, so a column whose values come in
    equal pairs ends up exactly even. The multiset of each column is
    preserved, hence so is every integral of the form sum phi(r, zeta).
    """
    spec = zeta.spec
    if not spec.z_symmetric():
        raise ConfigurationError(
            "symmetrization needs an even cell count on a z-interval centered at 0"
        )
    if np.any(zeta.values < 0):
        raise ConfigurationError("symmetrization expects a nonnegative field")
    n = spec.n_z
    half = n // 2
    order = np.empty(n, dtype=int)
    m = np.arange(half)
    order[0::2] = half - 1 - m
    order[1::2] = half + m
    sorted_desc = -np.sort(-zeta.values, axis=1)
    out = np.empty_like(sorted_desc)
    out[:, order] = sorted_desc
    return ScalarField(spec, out)
