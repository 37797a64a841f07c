"""Generator families: the nonlinearity i, its primitive, the conjugate,
and the structural assumption checker."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

from vortexring.errors import ConfigurationError
from vortexring.profiles import (FAMILIES, GeneratorPair, cell_law,
                                 check_assumptions, eval_H, eval_I, eval_J,
                                 eval_J_numeric, eval_dJds, eval_i,
                                 make_generator)

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

ALL_FAMILIES = [
    make_generator("power_law", p=1.0),
    make_generator("power_law", p=2.0),
    make_generator("power_law", p=0.5),
    make_generator("turkington", alpha=1.0),
    make_generator("turkington", alpha=0.5),
    make_generator("beltrami", p=1.0),
    make_generator("beltrami", p=2.0),
    make_generator("mixed", p=1.0),
    make_generator("mixed", p=0.5),
    make_generator("mixed", p=2.0),
]

# per-family conjugate, its derivative and the swirl generator, written
# out family by family: (J(r, s), dJds(r, s), H(t)) with sp = max(s, 0)
_TEXTBOOK = {
    "power_law": lambda g, r, s, sp, t: (
        g.p / (g.p + 1.0) * sp ** (1.0 + 1.0 / g.p),
        sp ** (1.0 / g.p),
        np.zeros_like(t)),
    "turkington": lambda g, r, s, sp, t: (
        0.5 * np.maximum(s - g.alpha, 0.0) ** 2 * r * r,
        np.maximum(s - g.alpha, 0.0) * r * r,
        t),
    "beltrami": lambda g, r, s, sp, t: (
        g.p / (g.p + 1.0) * r ** (2.0 / g.p) * sp ** (1.0 + 1.0 / g.p),
        (r * r * sp) ** (1.0 / g.p),
        np.sqrt(2.0 / (g.p + 1.0)) * t ** ((g.p + 1.0) / 2.0)),
    "mixed": lambda g, r, s, sp, t: (
        g.p / (g.p + 1.0) * (r * r / (r * r + 1.0)) ** (1.0 / g.p)
        * sp ** (1.0 + 1.0 / g.p),
        (r * r * sp / (r * r + 1.0)) ** (1.0 / g.p),
        np.sqrt(2.0 / (g.p + 1.0)) * t ** ((g.p + 1.0) / 2.0)),
}


@pytest.mark.parametrize(
    "gen", ALL_FAMILIES,
    ids=lambda g: "%s-p%g-alpha%g" % (g.family, g.p, g.alpha))
def test_shared_law_matches_textbook_forms(gen, rng):
    rs = rng.uniform(0.3, 3.0, 200)
    ss = rng.uniform(-1.0, 40.0, 200)
    ts = rng.uniform(0.0, 20.0, 200)
    J, dJds, H = _TEXTBOOK[gen.family](gen, rs, ss, np.maximum(ss, 0.0), ts)
    np.testing.assert_allclose(eval_J(gen, rs, ss), J, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(eval_dJds(gen, rs, ss), dJds, rtol=1e-14,
                               atol=0.0)
    np.testing.assert_allclose(eval_H(gen, ts), H, rtol=1e-14, atol=0.0)


def test_eval_i_examples():
    pl = make_generator("power_law", p=1.0)
    assert eval_i(pl, 2.0, 3.0) == 3.0
    tk = make_generator("turkington", alpha=1.0)
    np.testing.assert_allclose(eval_i(tk, 2.0, 3.0), 1.75, rtol=1e-15)
    for gen in ALL_FAMILIES:
        assert eval_i(gen, 1.3, -1.0) == 0.0
        assert eval_i(gen, 1.3, 0.0) == 0.0


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cell_law_is_the_public_law_bit_for_bit(family, rng):
    # the law the solve loop resolves once on its cells, taken on random
    # cells (repeats and any order) at t > 0 (the least normal float too)
    # and at any s, against the public evaluators and against the formulas
    # written out in their order of operations; the table has a jump at 0
    # and swirl
    t40 = np.linspace(0.0, 40.0, 17)
    f40, g40 = 0.5 * t40 ** 0.7, 1.0 + t40 ** 1.3
    name, law = FAMILIES[family]
    gen = make_generator(family, **({name: 1.7} if law
                                    else {"table": (t40, f40, g40)}))
    r = rng.uniform(0.3, 3.0, 400)
    idx = rng.integers(0, r.size, 150)
    ri = r[idx]
    t = np.r_[2.0 ** -1022, rng.uniform(1e-9, 20.0, 149)]
    s = rng.uniform(-1.0, 40.0, 150)
    law_i, law_J = cell_law(gen, r)
    got_i, got_J = law_i(t, idx), law_J(s, idx)
    assert got_i.tobytes() == eval_i(gen, ri, t).tobytes()
    assert got_J.tobytes() == eval_J(gen, ri, s).tobytes()
    if law:
        jump, a, b, q = law(1.7)
        want_i = jump + (a + b / (ri * ri)) * t ** q
        want_J = q / (q + 1.0) * (a + b / (ri * ri)) ** (-1.0 / q) \
            * np.maximum(s - jump, 0.0) ** (1.0 + 1.0 / q)
        assert got_J.tobytes() == want_J.tobytes()
    else:
        want_i = np.interp(t, t40, g40) + np.interp(t, t40, f40) / (ri * ri)
    assert got_i.tobytes() == want_i.tobytes()
    # every cell by default
    s_all = rng.uniform(-1.0, 40.0, r.size)
    assert law_J(s_all).tobytes() == eval_J(gen, r, s_all).tobytes()
    # the public evaluators keep their check on r
    for bad in (0.0, -1.0):
        rb = np.r_[r[:3], bad]
        for fn, x, tag in ((eval_i, t[:4], "i"), (eval_J, s[:4], "J")):
            with pytest.raises(ConfigurationError,
                               match=r"^%s\(r, \.\) needs r > 0$" % tag):
                fn(gen, rb, x)


def test_eval_J_examples():
    pl = make_generator("power_law", p=1.0)
    np.testing.assert_allclose(eval_J(pl, 1.0, 2.0), 2.0, rtol=1e-15)
    tk = make_generator("turkington", alpha=1.0)
    np.testing.assert_allclose(eval_J(tk, 2.0, 3.0), 8.0, rtol=1e-15)
    for gen in ALL_FAMILIES:
        assert eval_J(gen, 1.0, -5.0) == 0.0


def test_eval_dJds_examples_and_roundtrips(rng):
    p2 = make_generator("power_law", p=2.0)
    np.testing.assert_allclose(eval_dJds(p2, 1.0, 4.0), 2.0, rtol=1e-14)
    tk = make_generator("turkington", alpha=1.0)
    np.testing.assert_allclose(eval_dJds(tk, 2.0, 3.0), 8.0, rtol=1e-14)
    for gen in ALL_FAMILIES:
        rs = rng.uniform(0.5, 2.0, 30)
        ts = rng.uniform(1e-3, 10.0, 30)
        svals = eval_i(gen, rs, ts)
        back = eval_dJds(gen, rs, svals)
        np.testing.assert_allclose(back, ts, rtol=1e-8)
        # other direction, on values safely inside the range of i
        ss = svals * (1.0 + 1e-3) + 1e-6
        tt = eval_dJds(gen, rs, ss)
        forward = eval_i(gen, rs, tt)
        np.testing.assert_allclose(forward, ss, rtol=1e-8)


def test_numeric_conjugate_matches_closed_forms(rng):
    for gen in ALL_FAMILIES:
        rs = rng.uniform(0.5, 2.0, 12)
        ss = rng.uniform(0.0, 20.0, 12)
        closed = eval_J(gen, rs, ss)
        numeric = np.array([eval_J_numeric(gen, r, s)
                            for r, s in zip(rs, ss)])
        np.testing.assert_allclose(numeric, closed,
                                   rtol=1e-6, atol=1e-9)
        assert eval_J_numeric(gen, 1.0, 0.0) == 0.0


def test_fenchel_young(rng):
    for gen in ALL_FAMILIES:
        rs = rng.uniform(0.5, 2.0, 24)
        ts = rng.uniform(1e-2, 8.0, 24)
        # equality at s = i(r, t)
        ss = eval_i(gen, rs, ts)
        lhs = eval_I(gen, rs, ts) + eval_J(gen, rs, ss)
        np.testing.assert_allclose(lhs, ts * ss, rtol=1e-8, atol=1e-12)
        # inequality elsewhere
        s_other = rng.uniform(0.0, 10.0, 24)
        gap = eval_I(gen, rs, ts) + eval_J(gen, rs, s_other) - ts * s_other
        assert np.all(gap >= -1e-9 * (1.0 + np.abs(ts * s_other)))


def test_J_convex_in_s(rng):
    for gen in ALL_FAMILIES:
        r = 1.2
        s1 = rng.uniform(0.0, 30.0, 50)
        s2 = rng.uniform(0.0, 30.0, 50)
        mid = eval_J(gen, r, 0.5 * (s1 + s2))
        avg = 0.5 * (eval_J(gen, r, s1) + eval_J(gen, r, s2))
        assert np.all(mid <= avg + 1e-12 * (1.0 + np.abs(avg)))


def test_eval_H():
    tk = make_generator("turkington", alpha=1.0)
    for t in (0.3, 1.0, 4.2):
        np.testing.assert_allclose(eval_H(tk, t), t, rtol=1e-14)
    bl = make_generator("beltrami", p=1.0)
    np.testing.assert_allclose(eval_H(bl, 3.0), 3.0, rtol=1e-14)
    for gen in ALL_FAMILIES:
        assert eval_H(gen, 0.0) == 0.0
        assert eval_H(gen, -1.0) == 0.0
    pl = make_generator("power_law", p=2.0)
    assert eval_H(pl, 5.0) == 0.0


def test_H_squared_is_twice_primitive_of_f(rng):
    from scipy.integrate import quad
    for gen in ALL_FAMILIES:
        for t in rng.uniform(0.1, 6.0, 4):
            ref, _ = quad(lambda s: gen.f(s), 0.0, t, limit=200)
            np.testing.assert_allclose(eval_H(gen, t) ** 2, 2.0 * ref,
                                       rtol=1e-10, atol=1e-12)


def test_check_assumptions_families_pass():
    for gen in ALL_FAMILIES:
        report = check_assumptions(gen, n_sample=120)
        assert report["all_pass"], report
    pl = make_generator("power_law", p=1.0)
    report = check_assumptions(pl, n_sample=120)
    d0, d1 = report["a3"]["witness"]
    assert 0.0 < d0 < 1.0
    assert d1 >= 0.0
    # a table is sampled below its last node: its i is flat past t = 40,
    # so sampling up to the closed families' t_max = 50 would fail (a2)
    t = np.linspace(0.0, 40.0, 9)
    short = make_generator("table", table=(t, np.zeros(9), t))
    assert check_assumptions(short, n_sample=120)["all_pass"]


def test_check_assumptions_rejects_decreasing_g():
    ts = np.linspace(0.0, 10.0, 64)
    bad = GeneratorPair(family="table", table_t=ts,
                        table_f=np.zeros_like(ts), table_g=10.0 - ts)
    report = check_assumptions(bad, n_sample=60)
    assert not report["a1"]["pass"]
    assert not report["all_pass"]


def test_table_family_tracks_closed_form(rng):
    # tables (t, 0, t) and (t, t, t) are power_law p=1 and mixed p=1 on
    # their range, exactly: I is piecewise quadratic, dJds piecewise linear
    rs = rng.uniform(0.3, 3.0, 300)
    ss = rng.uniform(-1.0, 50.0, 300)
    ts = rng.uniform(-1.0, 70.0, 300)
    for n in (13, 4001):
        t = np.linspace(0.0, 60.0, n)
        for f, closed in ((np.zeros(n), make_generator("power_law", p=1.0)),
                          (t, make_generator("mixed", p=1.0))):
            tab = make_generator("table", table=(t, f, t))
            tin = np.minimum(ts, 60.0)
            np.testing.assert_allclose(eval_I(tab, rs, tin),
                                       eval_I(closed, rs, tin), rtol=1e-12)
            np.testing.assert_allclose(eval_H(tab, tin), eval_H(closed, tin),
                                       rtol=1e-12)
            np.testing.assert_allclose(eval_J(tab, rs, ss),
                                       eval_J(closed, rs, ss), rtol=1e-12)
            np.testing.assert_allclose(eval_dJds(tab, rs, ss),
                                       eval_dJds(closed, rs, ss), rtol=1e-12)
    # past the last node f and g hold their last values: I grows linearly
    tab = make_generator("table", table=(t, t, t))
    np.testing.assert_allclose(
        eval_I(tab, 1.0, 70.0), eval_I(tab, 1.0, 60.0) + 10.0 * 120.0,
        rtol=1e-14)
    with pytest.raises(ConfigurationError):
        eval_dJds(tab, 1.0, 121.0)


def test_table_primitive_and_conjugate_are_exact(rng):
    from scipy.integrate import quad
    # nonuniform nodes from t = 0.5, a jump of g at 0+, and swirl
    t = np.concatenate([[0.5], np.sort(rng.uniform(0.6, 40.0, 20)), [60.0]])
    tab = make_generator("table", table=(t, 0.5 * t ** 0.7, 1.0 + t ** 1.3))
    rs = rng.uniform(0.5, 2.0, 8)
    ts = rng.uniform(0.01, 59.0, 8)
    for r, tt in zip(rs, ts):
        ref, _ = quad(lambda x: eval_i(tab, r, x), 0.0, tt,
                      points=t[t < tt], limit=200)
        np.testing.assert_allclose(eval_I(tab, r, tt), ref, rtol=1e-10)
    ss = eval_i(tab, rs, ts)
    jt = eval_J(tab, rs, ss)
    np.testing.assert_allclose(eval_I(tab, rs, ts) + jt, ts * ss, rtol=1e-12)
    np.testing.assert_allclose(eval_dJds(tab, rs, ss), ts, rtol=1e-12)
    jn = np.array([eval_J_numeric(tab, r, s) for r, s in zip(rs, ss)])
    np.testing.assert_allclose(jt, jn, rtol=1e-9)
    # below the jump i(r, 0+) = 1 + 0.5 * 0.5^0.7 / r^2 nothing is taken
    assert np.all(eval_dJds(tab, rs, rng.uniform(0.0, 1.0, 8)) == 0.0)
    assert np.all(eval_J(tab, rs, rng.uniform(-1.0, 1.0, 8)) == 0.0)


def test_make_generator_validation(tmp_path):
    with pytest.raises(ConfigurationError):
        make_generator("no_such_family")
    with pytest.raises(ConfigurationError):
        make_generator("power_law", p=-1.0)
    with pytest.raises(ConfigurationError):
        make_generator("turkington", alpha=0.0)
    # integer and numpy parameters are numbers, as in ProblemConfig
    for p in (2, np.float64(2.0)):
        assert eval_i(make_generator("power_law", p=p), 1.0, 3.0) == 9.0
    path = tmp_path / "tab.csv"
    path.write_text("t,f,g\n0,0,0\n1,0,1\n2,0,2\n")
    gen = make_generator("table", table_path=str(path))
    assert gen.family == "table"
    np.testing.assert_allclose(eval_i(gen, 1.0, 1.5), 1.5, rtol=1e-12)


@pytest.mark.parametrize("text", [
    None, "t,f,g\n0,0\n1,1\n2,2\n", "t,f,g\n0,0,0,0\n1,0,1,0\n2,0,2,0\n",
    "t,f,g\n0,0,0\n1,1\n2,0,2\n", "t,f,g\n0,0,0\n1,x,1\n", "t,f,g\n",
], ids=["missing", "two columns", "four columns", "ragged", "not a number",
        "header only"])
def test_table_path_errors_name_the_file(text, tmp_path, recwarn):
    path = tmp_path / "tab.csv"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ConfigurationError, match="^table_path %s: "
                       % re.escape(str(path))) as info:
        make_generator("table", table_path=str(path))
    assert str(info.value).count(str(path)) == 1
    # numpy's warning of a file without rows is the error, not an extra line
    assert not recwarn.list
    if text == "t,f,g\n":
        assert str(info.value).endswith(": no data rows")


@pytest.mark.parametrize("k", [0, 1, 2], ids=["t", "f", "g"])
def test_table_values_must_be_finite(k):
    # a NaN or an infinity anywhere in the table is refused when it is
    # built, not by eval_i's warnings or check_problem's structural report
    table = [np.linspace(0.0, 2.0, 5), np.zeros(5), np.linspace(0.0, 2.0, 5)]
    for bad in (np.nan, np.inf, -np.inf):
        table[k][2] = bad
        with pytest.raises(ConfigurationError, match="finite t,f,g"):
            make_generator("table", table=table)


def test_each_family_takes_its_own_parameter_only():
    with pytest.raises(ConfigurationError, match="takes no alpha"):
        make_generator("power_law", alpha=2.0)
    t = np.linspace(0.0, 2.0, 3)
    for family, (name, law) in FAMILIES.items():
        own = {name: 2.0} if law else {"table": (t, t, t)}
        assert make_generator(family, **own).family == family
        for other in {"p", "alpha", "table_path"} - {name}:
            with pytest.raises(ConfigurationError, match="takes no " + other):
                make_generator(family, **dict(own, **{other: 2.0}))
    with pytest.raises(ConfigurationError, match="alpha must be positive"):
        GeneratorPair("turkington", alpha=-1.0)


@pytest.mark.parametrize("value", [np.inf, np.nan, "2", True])
def test_law_parameter_must_be_finite(value):
    # the CLI rejects profile.p: Infinity, "2" and true; the API does too
    with pytest.raises(ConfigurationError, match="p must be positive"):
        make_generator("power_law", p=value)


def _run_demo(script):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_profile_families_demo_runs():
    # the demo calls every evaluator, the numeric conjugate and the checks
    out = _run_demo("profile_families.py")
    assert "all_pass = True" in out
    assert "all_pass = False" not in out


@pytest.mark.parametrize("script", sorted(
    name for name in os.listdir(os.path.join(ROOT, "demos"))
    if name.endswith(".py") and name != "profile_families.py"))
def test_demo_runs(script):
    # every other demo, so that an API change that breaks one fails here
    _run_demo(script)
