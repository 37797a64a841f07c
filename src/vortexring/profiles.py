"""Vorticity profile generators and their convex conjugates.

A generator pair (f, g) fixes the relation between the stream function and
the vorticity through

    i(r, t) = g(t) + f(t) / r^2,    i(r, t) = 0 for t <= 0,

with f feeding the swirl through H (H H' = f, H(0) = 0) and g the Bernoulli
part. The energy penalty uses the modified conjugate

    J(r, s) = sup_t [s t - I(r, t)]  for s >= 0,  J = 0 for s < 0,

where I is the t-primitive of i. The maps i(r, .) and dJds(r, .) are
inverse graphs of each other, which is what the solver's update relies on.

The four built-in families are one law with different coefficients. For
t > 0, g(t) = jump + a t^q and f(t) = b t^q, so i(r, t) = jump + c(r) t^q
with c(r) = a + b / r^2:

    family       jump   a   b   q
    power_law    0      1   0   p
    turkington   alpha  0   1   1
    beltrami     0      0   1   p
    mixed        0      1   1   p

and in closed form

    I = jump t + c t^(q+1) / (q+1),
    J = q/(q+1) c^(-1/q) (s - jump)_+^(1+1/q),
    dJds = ((s - jump)_+ / c)^(1/q),
    H = sqrt(2b / (q+1)) t^((q+1)/2).

A table generator covers everything else: f and g are linear between
nodes t_0 < ... < t_n, constant on (0, t_0] and past t_n. So I and H^2 are
piecewise quadratic, dJds inverts the piecewise-linear i(r, .) segment by
segment, and J = s t - I(r, t) at t = dJds(r, s): exact closed forms too.
eval_J_numeric, direct maximization, is the reference for every family.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

# family -> (jump, a, b, q) of the shared law g = jump + a t^q, f = b t^q
_LAWS = {
    "power_law": lambda p, alpha: (0.0, 1.0, 0.0, p),
    "turkington": lambda p, alpha: (alpha, 0.0, 1.0, 1.0),
    "beltrami": lambda p, alpha: (0.0, 0.0, 1.0, p),
    "mixed": lambda p, alpha: (0.0, 1.0, 1.0, p),
}
FAMILIES = (*_LAWS, "table")


@dataclass
class GeneratorPair:
    """A profile family with vectorized evaluators.

    family is one of power_law(p), turkington(alpha), beltrami(p),
    mixed(p), which share one closed-form law (see the module docstring),
    or table (piecewise-linear f, g given on a t-grid, held constant
    past its last node).
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
        if self.family in ("power_law", "beltrami", "mixed") and self.p <= 0:
            raise ConfigurationError("power p must be positive")
        if self.family == "turkington" and self.alpha <= 0:
            raise ConfigurationError("turkington alpha must be positive")
        if self.family != "table":
            self._law = _LAWS[self.family](self.p, self.alpha)
            return
        t, f, g = (np.asarray(v, dtype=float)
                   for v in (self.table_t, self.table_f, self.table_g))
        if t.ndim != 1 or t.size < 2 or f.shape != t.shape or g.shape != t.shape:
            raise ConfigurationError("table generator needs matching 1-d t,f,g")
        if np.any(np.diff(t) <= 0) or t[0] < 0:
            raise ConfigurationError("table t-grid must be increasing and >= 0")
        self.table_t, self.table_f, self.table_g = t, f, g
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
        if self.family != "table":
            return self._law[0]
        # g holds table_g[0] below the first grid point, as np.interp does
        return float(self.table_g[0])

    # -- raw pair ----------------------------------------------------------

    def f(self, t):
        t = np.asarray(t, dtype=float)
        tp = np.maximum(t, 0.0)
        if self.family == "table":
            out = np.where(t > 0, np.interp(tp, self.table_t, self.table_f), 0.0)
        else:
            jump, a, b, q = self._law
            out = np.where(t > 0, b * tp ** q, 0.0)
        return float(out) if out.ndim == 0 else out

    def g(self, t):
        t = np.asarray(t, dtype=float)
        tp = np.maximum(t, 0.0)
        if self.family == "table":
            out = np.where(t > 0, np.interp(tp, self.table_t, self.table_g), 0.0)
        else:
            jump, a, b, q = self._law
            out = np.where(t > 0, jump + a * tp ** q, 0.0)
        return float(out) if out.ndim == 0 else out


def _shaped(out, r, x):
    """out at the broadcast shape of (r, x), as a float when 0-d."""
    shape = np.broadcast(r, x).shape
    if out.shape != shape:
        out = np.broadcast_to(out, shape).copy()
    return float(out) if out.ndim == 0 else out


def eval_i(gen, r, t):
    """i(r, t) = g(t) + f(t)/r^2, zero for t <= 0, right-continuous
    branch for t > 0 when g jumps at the origin."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ConfigurationError("i(r, t) needs r > 0")
    t = np.asarray(t, dtype=float)
    if gen.family == "table":
        out = np.where(t > 0, np.interp(t, gen._knots, gen._y[0])
                       + np.interp(t, gen._knots, gen._y[1]) / (r * r), 0.0)
    else:
        jump, a, b, q = gen._law
        out = np.where(t > 0, jump + (a + b / (r * r)) * np.maximum(t, 0.0) ** q,
                       0.0)
    return _shaped(out, r, t)


def eval_I(gen, r, t):
    """Primitive of i in t with I(r, 0) = 0."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ConfigurationError("I(r, t) needs r > 0")
    t = np.asarray(t, dtype=float)
    tp = np.maximum(t, 0.0)
    if gen.family == "table":
        gp, fp = gen._primitives(tp)
        out = gp + fp / (r * r)
    else:
        jump, a, b, q = gen._law
        out = jump * tp + (a + b / (r * r)) * tp ** (q + 1.0) / (q + 1.0)
    return _shaped(out, r, t)


def eval_J(gen, r, s):
    """The conjugate J(r, s): the closed form of the shared law, and for a
    table the Fenchel-Young line J = s t - I(r, t) at t = dJds(r, s),
    exact because the table's I is piecewise quadratic."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ConfigurationError("J(r, s) needs r > 0")
    s = np.asarray(s, dtype=float)
    if gen.family == "table":
        sp = np.maximum(s, 0.0)
        t = eval_dJds(gen, r, sp)
        out = np.asarray(sp * t - eval_I(gen, r, t))
    else:
        jump, a, b, q = gen._law
        out = q / (q + 1.0) * (a + b / (r * r)) ** (-1.0 / q) \
            * np.maximum(s - jump, 0.0) ** (1.0 + 1.0 / q)
    return _shaped(out, r, s)


def eval_J_numeric(gen, r, s):
    """Conjugate by direct maximization of s t - I(r, t) over t >= 0, the
    slow reference for eval_J.

    The objective is concave in t (its derivative s - i(r, t) is
    nonincreasing), so a 64-point scan plus golden-section refinement is
    exact to the requested precision. The scan range doubles until the
    derivative is negative at its end.
    """
    if s <= 0:
        return 0.0
    t_end = 1.0
    for _ in range(200):
        if s - eval_i(gen, r, t_end) < 0:
            break
        t_end *= 2.0
    else:
        raise ConfigurationError("conjugate sup not bracketed (i too flat)")

    def obj(t):
        return s * t - eval_I(gen, r, t)

    n = 64
    ts = np.linspace(0.0, t_end, n)
    vals = np.array([obj(t) for t in ts])
    k = int(np.argmax(vals))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = ts[max(k - 1, 0)], ts[min(k + 1, n - 1)]
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = obj(c), obj(d)
    for _ in range(120):
        if b - a < 1e-13 * (1.0 + abs(b)):
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = obj(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = obj(d)
    return max(obj(0.5 * (a + b)), vals[k], 0.0)


def eval_dJds(gen, r, s):
    """Derivative of the conjugate in s, the inverse graph of i(r, .): the
    largest t with i(r, t) <= s, so 0 for s <= 0 and below the jump of i at
    0+. Closed form for the shared law, piecewise linear for a table."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ConfigurationError("dJds(r, s) needs r > 0")
    s = np.asarray(s, dtype=float)
    if gen.family == "table":
        out = _invert_table(gen, r, s)
    else:
        jump, a, b, q = gen._law
        out = (np.maximum(s - jump, 0.0) / (a + b / (r * r))) ** (1.0 / q)
    return _shaped(out, r, s)


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
    t = np.asarray(t, dtype=float)
    tp = np.maximum(t, 0.0)
    if gen.family == "table":
        out = np.sqrt(2.0 * gen._primitives(tp)[1])
    else:
        jump, a, b, q = gen._law
        out = math.sqrt(2.0 * b / (q + 1.0)) * tp ** ((q + 1.0) / 2.0)
    return float(out) if out.ndim == 0 else out


def make_generator(family, p=1.0, alpha=1.0, table=None, table_path=None):
    """Construct a GeneratorPair.

    family: power_law, turkington, beltrami, mixed, or table.
    table: (t, f, g) arrays for the table family; table_path: CSV with
    header t,f,g.
    """
    if family == "table":
        if table is None and table_path is None:
            raise ConfigurationError("table generator needs table or table_path")
        if table is None:
            data = np.loadtxt(table_path, delimiter=",", skiprows=1)
            table = (data[:, 0], data[:, 1], data[:, 2])
        t, f, g = table
        return GeneratorPair(family="table", table_t=np.asarray(t, dtype=float),
                             table_f=np.asarray(f, dtype=float),
                             table_g=np.asarray(g, dtype=float))
    return GeneratorPair(family=family, p=float(p), alpha=float(alpha))


def check_assumptions(gen, r_max=2.0, t_max=50.0, n_sample=200):
    """Sampled verification of the structural assumptions on (f, g).

    (a1) f, g nonnegative and nondecreasing; (a2) i strictly increasing in
    t on (0, inf) and zero for t <= 0; (a3) existence of delta0 in (0, 1),
    delta1 >= 0 with I <= delta0 * i * t + delta1 * i on the sample; (a4)
    i(r, t) e^{-tau t} eventually decreasing to 0 along geometric t.

    t is sampled on (0, t_max), and for a table on (0, t_end) below its
    last node instead, since its i is flat past t_end. Sampling cannot
    prove the universal statements; the report says which sampled checks
    passed and with which witnesses.
    """
    rng = np.random.default_rng(7)
    if gen.family == "table":
        t_max = float(gen.table_t[-1])
    ts = np.sort(rng.uniform(1e-6, t_max, n_sample))
    rs = rng.uniform(1e-3, r_max, 16)
    report = {}

    fv = np.asarray(gen.f(ts))
    gv = np.asarray(gen.g(ts))
    a1 = bool(np.all(fv >= -1e-14) and np.all(gv >= -1e-14)
              and np.all(np.diff(fv) >= -1e-10 * (1.0 + np.abs(fv[:-1])))
              and np.all(np.diff(gv) >= -1e-10 * (1.0 + np.abs(gv[:-1]))))
    report["a1"] = {"pass": a1}

    a2 = True
    for r in rs:
        iv = np.asarray(eval_i(gen, r, ts))
        if not np.all(np.diff(iv) > 0):
            a2 = False
            break
        if not np.all(np.asarray(eval_i(gen, r, -ts)) == 0.0):
            a2 = False
            break
    report["a2"] = {"pass": bool(a2)}

    found = None
    d0_grid = np.arange(0.1, 0.95, 0.1)
    d1_grid = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0])
    rr, tt = np.meshgrid(rs, ts, indexing="ij")
    iv = np.asarray(eval_i(gen, rr, tt))
    Iv = np.asarray(eval_I(gen, rr, tt))
    for d0 in d0_grid:
        for d1 in d1_grid:
            if np.all(Iv <= d0 * iv * tt + d1 * iv + 1e-12):
                found = (float(d0), float(d1))
                break
        if found:
            break
    report["a3"] = {"pass": found is not None, "witness": found}

    a4 = True
    t_seq = 2.0 ** np.arange(0, 16)
    for r in rs[:4]:
        for tau in (0.5, 1.0, 2.0):
            vals = np.asarray(eval_i(gen, r, t_seq)) * np.exp(-tau * t_seq)
            tail = vals[2:]
            if not (np.all(np.diff(tail) <= 1e-14) and tail[-1] <= 1e-6 * (1.0 + vals.max())):
                a4 = False
    report["a4"] = {"pass": bool(a4)}

    report["all_pass"] = all(report[k]["pass"] for k in ("a1", "a2", "a3", "a4"))
    return report
