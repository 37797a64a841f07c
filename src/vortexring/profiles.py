"""Vorticity profile generators and their convex conjugates.

A generator pair (f, g) fixes the relation between the stream function and
the vorticity through

    i(r, t) = g(t) + f(t) / r^2,    i(r, t) = 0 for t <= 0,

with f feeding the swirl through H (H H' = f, H(0) = 0) and g the Bernoulli
part. The energy penalty uses the modified conjugate

    J(r, s) = sup_t [s t - I(r, t)]  for s >= 0,  J = 0 for s < 0,

where I is the t-primitive of i. The maps i(r, .) and dJds(r, .) are
inverse graphs of each other, which is what the solver's update relies on.

FAMILIES is the one table of built-in families. Each of the four named
ones takes one parameter and is one law with different coefficients: for
t > 0, g(t) = jump + a t^q and f(t) = b t^q, so i(r, t) = jump + c(r) t^q
with c(r) = a + b / r^2:

    family       parameter   jump   a   b   q
    power_law    p           0      1   0   p
    turkington   alpha       alpha  0   1   1
    beltrami     p           0      0   1   p
    mixed        p           0      1   1   p

and in closed form

    I = jump t + c t^(q+1) / (q+1),
    J = q/(q+1) c^(-1/q) (s - jump)_+^(1+1/q),
    dJds = ((s - jump)_+ / c)^(1/q),
    H = sqrt(2b / (q+1)) t^((q+1)/2).

The table family covers everything else: f and g are linear between
nodes t_0 < ... < t_n, constant on (0, t_0] and past t_n. So I and H^2 are
piecewise quadratic, dJds inverts the piecewise-linear i(r, .) segment by
segment, and J = s t - I(r, t) at t = dJds(r, s): exact closed forms too.
eval_J_numeric, a direct maximization of s t - I(r, t) by scipy's bounded
scalar search, is the reference for every family.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, complaint

# family -> (the parameter it takes, its (jump, a, b, q) row of the shared
# law g = jump + a t^q, f = b t^q as a function of that parameter). The
# table family has no law: it takes its node rows, as table=(t, f, g) or
# from a CSV file at table_path.
FAMILIES = {
    "power_law": ("p", lambda p: (0.0, 1.0, 0.0, p)),
    "turkington": ("alpha", lambda alpha: (alpha, 0.0, 1.0, 1.0)),
    "beltrami": ("p", lambda p: (0.0, 0.0, 1.0, p)),
    "mixed": ("p", lambda p: (0.0, 1.0, 1.0, p)),
    "table": ("table_path", None),
}


def _scalar(out):
    """out, as a float when 0-d."""
    return float(out) if out.ndim == 0 else out


@dataclass
class GeneratorPair:
    """A profile family with vectorized evaluators.

    family is a key of FAMILIES: power_law(p), turkington(alpha),
    beltrami(p) and mixed(p) share one closed-form law (see the module
    docstring) of a finite positive number (errors.complaint), and table holds
    piecewise-linear f, g given on a t-grid, constant past its last node.
    g0plus is the jump of g at 0+, nonzero only for turkington-type
    generators; it sets the lower edge of the admissible cap parameter.
    """

    family: str
    p: float = 1.0
    alpha: float = 1.0
    table_t: np.ndarray | None = field(default=None, repr=False)
    table_f: np.ndarray | None = field(default=None, repr=False)
    table_g: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError("unknown generator family %r" % self.family)
        name, law = FAMILIES[self.family]
        if law:
            if complaint(v := getattr(self, name), 0.0, None, False):
                raise ConfigurationError("%s %s must be positive"
                                         % (self.family, name))
            self._law = law(float(v))
            return
        t, f, g = (np.asarray(v, dtype=float)
                   for v in (self.table_t, self.table_f, self.table_g))
        if t.ndim != 1 or t.size < 2 or f.shape != t.shape or g.shape != t.shape:
            raise ConfigurationError("table generator needs matching 1-d t,f,g")
        if np.any(np.diff(t) <= 0) or t[0] < 0:
            raise ConfigurationError("table t-grid must be increasing and >= 0")
        if t[0] > 0:
            # f and g hold their first values on (0, t[0]], as np.interp does
            t, f, g = np.r_[0.0, t], np.r_[f[0], f], np.r_[g[0], g]
        # rows g, f: node values, slopes on [t_k, t_k+1) (0 past the last
        # node) and the exact primitives at the nodes
        y, h = np.stack([g, f]), np.diff(t)
        self._knots, self._y = t, y
        self._slope = np.c_[np.diff(y) / h, np.zeros(2)]
        self._prim = np.c_[np.zeros(2),
                           np.cumsum(0.5 * (y[:, 1:] + y[:, :-1]) * h, axis=1)]

    def _pair(self, t):
        """g(t) and f(t) for t > 0 (not zeroed at t <= 0): the law's
        powers, or the table's node rows interpolated."""
        if self.family == "table":
            return [np.interp(t, self._knots, y) for y in self._y]
        jump, a, b, q = self._law
        tq = np.maximum(t, 0.0) ** q
        return jump + a * tq, b * tq

    def _primitives(self, tp):
        """Exact primitives of the table's g and f at tp >= 0 (rows 0, 1):
        prim_k + y_k tau + slope_k tau^2 / 2 on the segment [t_k, t_k+1)
        holding tp, with tau = tp - t_k."""
        k = np.searchsorted(self._knots, tp, side="right") - 1
        tau = tp - self._knots[k]
        return self._prim[:, k] + (self._y[:, k]
                                   + 0.5 * self._slope[:, k] * tau) * tau

    @property
    def g0plus(self):
        """Jump of g at 0+ (right limit; g(0) itself is irrelevant)."""
        if self.family == "table":
            return float(self._y[0, 0])
        return self._law[0]

    # -- raw pair ----------------------------------------------------------

    def f(self, t):
        t = np.asarray(t, dtype=float)
        return _scalar(np.where(t > 0, self._pair(t)[1], 0.0))

    def g(self, t):
        t = np.asarray(t, dtype=float)
        return _scalar(np.where(t > 0, self._pair(t)[0], 0.0))


def _pointwise(fn):
    """fn(gen, r, x) on float arrays, with r > 0 checked here and a 0-d
    result returned as a float."""
    @functools.wraps(fn)
    def checked(gen, r, x):
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise ConfigurationError("%s(r, .) needs r > 0" % fn.__name__[5:])
        return _scalar(fn(gen, r, np.asarray(x, dtype=float)))
    return checked


def cell_law(gen, r):
    """i(r, t) for t > 0 and J(r, s) of gen on cells of radius r > 0,
    unchecked, as functions of (x, idx) on the cells idx (all by default),
    with r^2, c = a + b / r^2 and J's prefactor resolved here once.
    i.at(idx) is i on the cells idx with their constants gathered once, as
    a function of the arguments t of their first t.size cells."""
    r2 = r * r
    if gen.family == "table":
        def law(t, k):  # k: the cells' r^2
            gv, fv = gen._pair(t)
            return gv + fv / k

        def J(s, idx=...):  # the Fenchel-Young line at t = dJds(r, s)
            t = _invert_table(gen, r[idx], np.maximum(s, 0.0))
            return np.maximum(s, 0.0) * t - eval_I.__wrapped__(gen, r[idx], t)
        k = r2
    else:
        jump, a, b, q = gen._law
        k = a + b / r2
        pre, power = q / (q + 1.0) * k ** (-1.0 / q), 1.0 + 1.0 / q

        def law(t, k):  # k: the cells' c. t ** 1.0 runs the pow loop, so
            # the linear laws skip it, and the add of a 0 jump (bit for bit)
            v = k * (t if q == 1.0 else t ** q)
            return v + jump if jump else v

        def J(s, idx=...):
            return pre[idx] * np.maximum(s - jump, 0.0) ** power

    def i(t, idx=...):
        return law(t, k[idx])

    def at(idx):
        band = k[idx]
        return lambda t: law(t, band[:t.size])
    i.at = at
    return i, J


@_pointwise
def eval_i(gen, r, t):
    """i(r, t) = g(t) + f(t)/r^2, zero for t <= 0, right-continuous
    branch for t > 0 when g jumps at the origin."""
    return np.where(t > 0, cell_law(gen, r)[0](np.maximum(t, 0.0)), 0.0)


@_pointwise
def eval_I(gen, r, t):
    """Primitive of i in t with I(r, 0) = 0."""
    tp = np.maximum(t, 0.0)
    if gen.family == "table":
        gp, fp = gen._primitives(tp)
        return gp + fp / (r * r)
    jump, a, b, q = gen._law
    return jump * tp + (a + b / (r * r)) * tp ** (q + 1.0) / (q + 1.0)


@_pointwise
def eval_J(gen, r, s):
    """The conjugate J(r, s): the closed form of the shared law, and for a
    table the Fenchel-Young line J = s t - I(r, t) at t = dJds(r, s),
    exact because the table's I is piecewise quadratic."""
    return np.asarray(cell_law(gen, r)[1](s))


def eval_J_numeric(gen, r, s):
    """Conjugate by direct maximization of s t - I(r, t) over t >= 0, the
    slow reference for eval_J; it uses neither closed form of J nor dJds.

    The objective is concave in t (its derivative s - i(r, t) is
    nonincreasing). The right end t_end doubles from 1 until that
    derivative is negative there, so the sup lies in [0, t_end], and
    scipy's bounded Brent search (minimize_scalar, method="bounded") finds
    it on that interval.
    """
    from scipy.optimize import minimize_scalar
    if s <= 0:
        return 0.0
    t_end = 1.0
    for _ in range(200):
        if s - eval_i(gen, r, t_end) < 0:
            break
        t_end *= 2.0
    else:
        raise ConfigurationError("conjugate sup not bracketed (i too flat)")
    res = minimize_scalar(lambda t: eval_I(gen, r, t) - s * t,
                          bounds=(0.0, t_end), method="bounded",
                          options={"xatol": 1e-14 * t_end})
    return max(-res.fun, 0.0)


@_pointwise
def eval_dJds(gen, r, s):
    """Derivative of the conjugate in s, the inverse graph of i(r, .): the
    largest t with i(r, t) <= s, so 0 for s <= 0 and below the jump of i at
    0+. Closed form for the shared law, piecewise linear for a table."""
    if gen.family == "table":
        return _invert_table(gen, r, s)
    jump, a, b, q = gen._law
    return (np.maximum(s - jump, 0.0) / (a + b / (r * r))) ** (1.0 / q)


def _invert_table(gen, r, s):
    """Invert the piecewise-linear i(r, .) of a table per cell: a binary
    search finds the count of nodes with i_k = g_k + f_k / r^2 <= s, and t
    is interpolated on the segment after the last of them. i is flat past
    the last node, so s above i(r, t_end) raises ConfigurationError."""
    w, s = np.broadcast_arrays(1.0 / (r * r), s)
    gk, fk = gen._y
    m = gk.size
    if np.any(s > gk[-1] + fk[-1] * w):
        raise ConfigurationError("s above i(r, t_end): the table is too short")
    # the count lies in [lo, hi]; s <= 0 searches the empty range
    lo = np.zeros(s.shape, dtype=np.intp)
    hi = np.where(s > 0, m, 0)
    for _ in range(m.bit_length()):
        mid = (lo + hi) // 2
        k = np.minimum(mid, m - 1)
        le = (mid < hi) & (gk[k] + fk[k] * w <= s)
        lo = np.where(le, mid + 1, lo)
        hi = np.where(le, hi, mid)
    t = gen._knots
    out = np.where(lo == m, t[-1], 0.0)
    inner = (lo > 0) & (lo < m)
    k, wi = lo[inner] - 1, w[inner]
    ik = gk[k] + fk[k] * wi
    out[inner] = t[k] + (s[inner] - ik) * (t[k + 1] - t[k]) \
        / (gk[k + 1] + fk[k + 1] * wi - ik)
    return out


def eval_H(gen, t):
    """Swirl generator H(t) = sqrt(2 * integral_0^{t+} f), the nonnegative
    solution of H H' = f with H(0) = 0."""
    tp = np.maximum(np.asarray(t, dtype=float), 0.0)
    if gen.family == "table":
        return _scalar(np.sqrt(2.0 * gen._primitives(tp)[1]))
    jump, a, b, q = gen._law
    return _scalar(math.sqrt(2.0 * b / (q + 1.0)) * tp ** ((q + 1.0) / 2.0))


def make_generator(family, **params):
    """Construct a GeneratorPair.

    family is a key of FAMILIES, and params holds at most the one
    parameter FAMILIES names for it, a number (not a string or a bool).
    The table family takes table=(t, f, g) arrays or table_path, a CSV
    with header t,f,g; any other keyword, and a table_path that is missing
    or does not hold three numeric columns, raises ConfigurationError.
    """
    if family not in FAMILIES:
        raise ConfigurationError("unknown generator family %r" % (family,))
    name, law = FAMILIES[family]
    extra = set(params) - ({name} if law else {"table", "table_path"})
    if extra:
        raise ConfigurationError("family %s takes no %s"
                                 % (family, ", ".join(sorted(extra))))
    if law:
        return GeneratorPair(family, **params)
    table = params.get("table")
    if table is None:
        path = params.get("table_path")
        if path is None:
            raise ConfigurationError("table generator needs table or table_path")
        try:
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).T
        except (OSError, ValueError) as exc:
            raise ConfigurationError("table_path %s: %s" % (path, exc))
        if len(table) < 3:
            raise ConfigurationError("table_path %s: needs 3 columns" % path)
    t, f, g = table[:3]
    return GeneratorPair("table", table_t=t, table_f=f, table_g=g)


def _golden(n):
    """The fractional parts of k / phi, k = 1 .. n, in (0, 1)."""
    return np.modf(np.arange(1, n + 1) * (math.sqrt(5.0) - 1.0) / 2.0)[0]


def check_assumptions(gen, r_max=2.0, n_sample=200):
    """Sampled verification of the structural assumptions on (f, g).

    (a1) f, g nonnegative and nondecreasing; (a2) i strictly increasing in
    t on (0, inf) and zero for t <= 0; (a3) existence of delta0 in (0, 1),
    delta1 >= 0 with I <= delta0 * i * t + delta1 * i on the sample; (a4)
    i(r, t) e^{-tau t} eventually decreasing to 0 along geometric t.

    t is sampled on (0, 50), and for a table on (0, t_end) below its
    last node instead, since its i is flat past t_end, and r on (0, r_max),
    both at the fractional parts of k / phi (k = 1, 2, ...), a fixed
    sample spread evenly at every count. Sampling cannot prove the
    universal statements; the report says which sampled checks passed and
    with which witnesses.
    """
    t_max = float(gen._knots[-1]) if gen.family == "table" else 50.0
    ts = np.sort(1e-6 + (t_max - 1e-6) * _golden(n_sample))
    rs = (1e-3 + (r_max - 1e-3) * _golden(16))[:, None]
    report = {}

    report["a1"] = {"pass": all(
        np.all(v >= -1e-14)
        and np.all(np.diff(v) >= -1e-10 * (1.0 + np.abs(v[:-1])))
        for v in (gen.f(ts), gen.g(ts)))}

    # i once, at -ts and ts on each sampled r: (a2) reads both halves,
    # (a3) the second
    iv = eval_i(gen, rs, np.r_[-ts, ts])
    neg, iv = iv[:, :ts.size], iv[:, ts.size:]
    report["a2"] = {"pass": bool(np.all(neg == 0.0)
                                 and np.all(np.diff(iv, axis=1) > 0))}

    Iv = eval_I(gen, rs, ts)
    found = next(((float(d0), float(d1))
                  for d0 in np.arange(0.1, 0.95, 0.1)
                  for d1 in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)
                  if np.all(Iv <= d0 * iv * ts + d1 * iv + 1e-12)), None)
    report["a3"] = {"pass": found is not None, "witness": found}

    # axis 0: tau = 0.5, 1, 2; axis 1: the first four sampled r; axis 2:
    # t = 2^k
    t_seq = 2.0 ** np.arange(0, 16)
    vals = eval_i(gen, rs[:4], t_seq) \
        * np.exp(-np.array([0.5, 1.0, 2.0])[:, None, None] * t_seq)
    tail = vals[..., 2:]
    report["a4"] = {"pass": bool(
        np.all(np.diff(tail, axis=-1) <= 1e-14)
        and np.all(tail[..., -1] <= 1e-6 * (1.0 + vals.max(axis=-1))))}

    report["all_pass"] = all(report[k]["pass"] for k in ("a1", "a2", "a3", "a4"))
    return report
