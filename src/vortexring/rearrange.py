"""Discrete rearrangement tools: one exact threshold fill, the capped
bathtub maximizer built on it, and Steiner symmetrization in z.

threshold_fill finds the multiplier mu of a mass-constrained threshold
update: each cell i holds fill(h_i - mu) for a nondecreasing fill that
vanishes for t <= 0, and mu is the smallest value >= 0 whose total weight
fits the budget. The solver's multiplier search is the case
fill(t) = min(Lambda, i(r, t)); the bathtub problem

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
    """Smallest mu >= 0 with sum_i w_i fill(h_i - mu) <= budget, and the
    fills at it, with the budget met exactly whenever mu > 0.

    h and w are matching float arrays of heads and weights. fill maps an
    array of arguments t shaped like h to per-cell fills; it must be
    nondecreasing in t and zero for t <= 0, so mass(mu) is nonincreasing,
    continuous between the distinct positive heads, and drops only at
    them. mu = 0 when the unconstrained fill fits. Otherwise a binary
    search over the sorted distinct positive heads finds lo < hi with
    mass(lo) > budget >= mass(hi). If the left limit mass(hi-) still
    exceeds the budget, mu = hi and the cells with h == hi share the rest
    of the budget in proportion to their left-limit fill (the level set
    of the bathtub); otherwise brentq closes the crossing inside (lo, hi).
    """
    u = fill(h)
    # mass by multiplier; brentq starts by evaluating its bracket ends,
    # which the search below has already evaluated
    masses = {0.0: float(np.sum(w * u))}
    if masses[0.0] <= budget:
        return 0.0, u

    def excess(mu):
        if mu not in masses:
            masses[mu] = float(np.sum(w * fill(h - mu)))
        return masses[mu] - budget

    levels = np.unique(h[h > 0.0])
    masses[float(levels[-1])] = 0.0  # no cell lies above the top head
    a, b = -1, levels.size - 1  # index -1 stands for mu = 0
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
    t[ledge] = np.finfo(float).tiny  # the left limit t -> 0+
    u = fill(t)
    on_ledge = float(np.sum(w[ledge] * u[ledge]))
    if masses[hi] + on_ledge > budget:
        u[ledge] *= (budget - masses[hi]) / on_ledge
        return hi, u
    mu = brentq(excess, lo, hi, xtol=np.finfo(float).tiny)
    return float(mu), fill(h - mu)


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
                                  lambda t: (t > 0.0).astype(float))
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
