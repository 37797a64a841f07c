"""Discrete rearrangement tools: one exact threshold fill, the capped
bathtub maximizer built on it, and Steiner symmetrization in z.

threshold_fill finds the multiplier mu of a mass-constrained threshold
update: each cell i holds F_i(h_i - mu) for a fill that is nondecreasing
in t and vanishes for t <= 0, and mu is the smallest value >= 0 whose
total weight fits the budget. Only cells with h_i > mu fill, so each mass
evaluation fills the prefix of the descending heads above the probed mu;
only the heads above a given cut are sorted (every positive head without
one), and no pass reads the heads outside that band more than once. The
search starts at the head with a given count of cells above it (the last
call's), brackets mu between two heads by a gallop and a regula falsi
over the heads, and closes on the fixed prefix by an Illinois regula
falsi. The solver's multiplier search is the case F_i(t) =
min(Lambda, i(r_i, t)); the bathtub problem

    maximize sum_i w_i h_i om_i  over 0 <= om_i <= 1, sum_i w_i om_i <= cap

is the case fill = 1 on t > 0, whose solution fills super-level sets of h
down to a level, with freedom only on the level set itself. The
symmetrization redistributes each r-column of a field so it is even in z
and nonincreasing in |z|, exactly preserving the column's value multiset.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

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


def threshold_fill(h, w, budget, fill, start=0, cut=None):
    """Smallest mu >= 0 with sum_i w_i F_i(h_i - mu) <= budget, with the
    budget met to a few ulp whenever mu > 0: returns mu, the nonzero fills
    at it, the count of cells above mu and the ascending index of the cells
    those fills belong to. A later call on nearby heads takes the count as
    its start (0 searches from the top) and a level below its mu as its cut
    (None, or a cut <= 0, sorts every positive head).

    h and w are matching 1-d float arrays of heads and weights. fill(idx),
    called once per band with the band's cells idx (indices into h) in
    descending order of head, returns their fill law: a function mapping
    the arguments t of the first t.size of those cells to their fills, so
    the law can gather its per-cell constants once. Each fill must be
    nondecreasing in t and zero for t <= 0, so mass(mu) is nonincreasing,
    continuous between the distinct positive heads, and drops only at
    them. Only cells with h_i > mu fill at mu, so every mass evaluation
    calls the law on the cells above the probed mu alone.

    Only a band of the heads is sorted: those above a positive cut, less
    those on the lowest of them, which is the floor (the largest head if
    none lies above the cut); with no positive cut, every positive head,
    over a floor of 0. Equal heads sort by cell, so that every band orders
    them alike. The search runs over the band's distinct heads, from the
    top, where the mass is zero, to the floor, where it is exact as no cell
    below the band fills. It probes the level with start cells above it,
    gallops from there with doubling steps, down while the mass fits and up
    while it does not, then probes the level nearest the secant root of
    mass - budget (the middle one after two probes on one side) until
    adjacent levels lo < hi hold mass(lo) > budget >= mass(hi). If the mass
    at a floor of 0 fits, mu = 0; if it fits at a positive floor, the cut
    lay above mu and the search runs again with no cut. Each probe of a head
    also hands the law the cells on that head with t = tiny, the left limit
    t -> 0+, so the left-limit mass(hi-) costs no extra call. If it exceeds
    the budget, mu = hi and the cells with h == hi share the rest of the
    budget in proportion to their left-limit fill (the level set of the
    bathtub); otherwise an Illinois regula falsi from mass(lo) and mass(hi-)
    closes the crossing on the fixed prefix h >= hi, to a few ulp of the
    budget or until the bracket collapses, and returns the evaluated point
    closest to it: one call when the fill is linear in t.
    """
    warm = cut is not None and cut > 0.0
    cells = (h > (cut if warm else 0.0)).nonzero()[0]
    # descending heads; equal heads, in no set order here, go by cell below
    hs = h[cells]
    rank = hs.argsort()[::-1]
    hs = hs[rank]
    # heads[k] is the k-th distinct head from the top and above[k] the count
    # of cells above it, the first cell on it: hs and k unless a head repeats
    new = hs[1:] != hs[:-1]
    heads, above = hs, range(hs.size + 1)
    if np.count_nonzero(new) < new.size:
        above = np.flatnonzero(np.concatenate(([True], new, [True])))
        heads = hs[above[:-1]]
        for k in np.flatnonzero(np.diff(above) > 1):  # sort the cells of
            rank[above[k]:above[k + 1]].sort()        # a repeated head
    order = cells[rank]
    floor = 0.0
    if warm:  # the lowest head of the band is its floor
        floor = max(float(hs[-1] if hs.size else np.max(h)), 0.0)
        above = above[:-1]
    # levels 0 .. last - 1 are the distinct heads above the floor, and the
    # floor is level last, with no cell on it; n cells lie above the floor
    last = len(above) - 1
    n = int(above[-1]) if len(above) else 0
    if n == 0:
        # no cell above the floor: mu = 0 at a zero floor, else the cut
        # is above mu
        if floor > 0.0:
            return threshold_fill(h, w, budget, fill, start)
        return 0.0, np.zeros(0), 0, cells
    ws, law = w[order[:n]], fill(order[:n])

    def level(k):
        return float(heads[k]) if k < last else floor

    def level_fill(k):
        """Mass at mu = level(k), the left-limit mass of the cells on that
        level (t -> 0+), and the fills of both, from one call of the law."""
        c = above[k]
        e = above[k + 1] if k < last else c
        t = hs[:e] - level(k)
        t[c:] = 2.0 ** -1022  # the least normal float: t -> 0+
        u = law(t)
        # a level of one cell, the common case: a one-term dot is its one
        # rounded product
        on = ws[c] * u[c] if e - c == 1 else np.dot(ws[c:e], u[c:])
        return float(np.dot(ws[:c], u[:c])), float(on), u

    def result(mu, u, count):
        """mu, the nonzero ones of the fills u of the band's first u.size
        cells, count, and their cells, ascending: cells ascends, so a
        scatter into the band puts them in order without a sort."""
        vals = np.zeros(cells.size)
        vals[rank[:u.size]] = u
        keep = vals != 0.0
        return mu, vals[keep], count, cells[keep]

    evals = {}
    good, bad = 0, None  # the mass at level 0 is 0: no cell lies above it

    def probe(k):
        """Whether level k fits; moves the bracket end it falls on. A level
        whose left-limit mass exceeds the budget holds mu itself."""
        nonlocal good, bad
        mass, on_level, _ = evals[k] = level_fill(k)
        if mass > budget:
            bad = k
        else:
            good, bad = k, k + 1 if mass + on_level > budget else bad
        return mass <= budget

    k = min(bisect.bisect_right(above, start) - 1, last)
    step = 1
    if k > 0 and not probe(k):
        while good == 0 and bad > step:  # gallop up
            probe(bad - step)
            step *= 2
    while bad is None:  # gallop down
        if good == last:
            # the floor fits: mu = 0 at a zero floor, else the cut is above mu
            if floor > 0.0:
                return threshold_fill(h, w, budget, fill, start)
            return result(0.0, evals[good][2], n)
        probe(min(good + step, last))
        step *= 2
    sides = []
    while bad - good > 1:  # regula falsi over the levels
        if sides[-2:] in ([True, True], [False, False]):
            k = (good + bad) // 2
        else:
            g = sum(evals[good][:2]) if good in evals else 0.0
            mu = level(good) + (level(bad) - level(good)) * (
                (budget - g) / (evals[bad][0] - g))
            # the levels strictly between good and bad lie above the floor
            k = good + 1 + int(np.abs(heads[good + 1:bad] - mu).argmin())
        sides.append(probe(k))
    if good not in evals:
        evals[good] = level_fill(good)
    mass_hi, on_ledge, u = evals[good]
    hi, lo = level(good), level(bad)
    top, m = above[good], above[bad]  # cells above hi; cells at or above hi

    if mass_hi + on_ledge > budget:
        u[top:] *= (budget - mass_hi) / on_ledge
        return result(hi, u, top)

    # Illinois regula falsi between lo and hi-, whose left-limit fills
    # stand for mu = hi; an end kept twice in a row has its excess halved
    f_hi, f_lo = mass_hi + on_ledge - budget, evals[bad][0] - budget
    best = min((abs(f_hi), hi, u, top), (abs(f_lo), lo, evals[bad][2][:m], m),
               key=lambda p: p[0])
    side = 0
    while best[0] > 4.0 * math.ulp(budget):
        mu = lo - f_lo * (lo - hi) / (f_lo - f_hi)
        mu = min(max(mu, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        if not lo < mu < hi:
            break  # the bracket has collapsed
        v = law(hs[:m] - mu)
        f = float(np.dot(ws[:m], v)) - budget
        best = min(best, (abs(f), mu, v, m), key=lambda p: p[0])
        if f > 0.0:
            lo, f_lo, f_hi, side = mu, f, f_hi / (1 + (side > 0)), 1
        else:
            hi, f_hi, f_lo, side = mu, f, f_lo / (1 + (side < 0)), -1
    return result(float(best[1]), best[2], best[3])


def bathtub_maximize(space):
    """Exact solution of the capped, mass-constrained linear maximization:
    the fill = 1 case of threshold_fill.

    The level is zero when the positive atoms fit the capacity, and
    otherwise the head at which the super-level weight crosses it; atoms
    strictly above the level fill completely, atoms on the level set share
    the residual capacity in proportion to weight, and nothing at or below
    0 ever fills.
    """
    level, fills, _, idx = threshold_fill(
        space.values, space.weights, space.capacity,
        lambda idx: lambda t: (t > 0.0).astype(float))
    omega = np.zeros(space.values.shape)
    omega[idx] = fills
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
