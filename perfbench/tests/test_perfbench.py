"""Tests for the benchmark's own code: span accounting, the percentile
rule, metric names, failure counting and the output checks.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import contextlib
import itertools
import json
import os
import shutil
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import catalog  # noqa: E402
import checks  # noqa: E402
import run as runner  # noqa: E402
import workload  # noqa: E402
from tracing import Tracer, check_metric_name, tail_percentile  # noqa: E402


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


# -- spans -------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    tr = Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    with tr.span("root"):
        with tr.span("a"):
            with tr.span("a1"):
                pass
        with tr.span("b"):
            pass
    assert tr.parents == [-1, 0, 1, 0]
    assert tr.self_times() == [3, 2, 1, 4]
    assert sum(tr.self_times()) == tr.durations()[0]
    assert tr.self_time_table()[0] == ("b", 4)
    assert tr.child_counts("root", "a") == [1]
    assert tr.child_counts("a", "b") == [0]


def test_self_time_merges_overlapping_children():
    tr = Tracer()
    tr.names = ["root", "x", "y"]
    tr.starts = [0.0, 1.0, 3.0]
    tr.ends = [10.0, 5.0, 7.0]
    tr.parents = [-1, 0, 0]
    assert tr.self_times()[0] == pytest.approx(4.0)


def test_wrapped_function_records_span_and_is_restored():
    mod = types.SimpleNamespace(f=lambda x: 2 * x)
    original = mod.f
    tr = Tracer(clock=fake_clock(itertools.count()))
    tr.patch("mod.f", original, [(mod, "f")], on_result=lambda v: v + 1)
    assert mod.f(3) == 6
    assert tr.names == ["mod.f"] and tr.results == {0: 7}
    tr.restore()
    assert mod.f is original


def test_failing_call_still_closes_its_span():
    tr = Tracer(clock=fake_clock(itertools.count()))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.wrap(boom, "boom")()
    assert tr.durations() == [1]
    assert tr._stack == []


# -- percentiles -------------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert tail_percentile(range(1, 101), 0.9) == (90, 0.9, 100)
    value, q, n = tail_percentile(range(1, 100), 0.9)
    assert (value, n) == (89, 99) and q == pytest.approx(89 / 99)
    assert 99 - value == 10
    # too few samples for any tail: fall back to the median
    assert tail_percentile(range(1, 16), 0.9) == (8, 0.5, 15)
    assert tail_percentile([5.0], 0.9) == (5.0, 0.5, 1)
    with pytest.raises(ValueError):
        tail_percentile([], 0.9)


def test_p50_is_the_median():
    assert tail_percentile([4, 1, 3, 2] * 10, 0.5)[0] == 2
    assert tail_percentile(range(1, 101), 0.5) == (50, 0.5, 100)


# -- metric names ------------------------------------------------------------


@pytest.mark.parametrize("name", ["setup_s", "greens.apply_ms_p50",
                                  "9-a_b.c", "x" * 64])
def test_valid_metric_names(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", ".x", "a/b", "a b", "a:b",
                                  "x" * 65, None, "é"])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_benchmark_json_matches_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(catalog.WORKLOADS)
    for section, cat in (("end_to_end", catalog.END_TO_END),
                         ("per_layer", catalog.PER_LAYER)):
        for m in bench[section]:
            check_metric_name(m["name"])
            assert (m["unit"], m["better"]) == cat[m["name"]][:2]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for name in list(catalog.END_TO_END) + list(catalog.PER_LAYER):
        check_metric_name(name)


def test_seed_zero_is_exact_and_other_seeds_jitter_within_bounds():
    for name, spec in catalog.WORKLOADS.items():
        assert [c["epsilon"] for c in catalog.workload_configs(name, 0)] \
            == list(spec["epsilons"])
        for seed in (1, 2, 12345):
            cfgs = catalog.workload_configs(name, seed)
            assert cfgs == catalog.workload_configs(name, seed)
            for c, eps in zip(cfgs, spec["epsilons"]):
                assert c["epsilon"] != eps
                assert abs(np.log(c["epsilon"] / eps)) <= catalog.JITTER_LOG


# -- failure counting --------------------------------------------------------


def test_solve_that_raises_is_counted_failed():
    def run(problem, gen):
        raise FloatingPointError("diverged")

    pkg = types.SimpleNamespace(vortexring=types.SimpleNamespace(
        ProblemConfig=lambda **kw: kw, make_generator=lambda fam, **kw: fam,
        run=run))
    cfg = catalog.workload_configs("solve-powerlaw-192", 0)[0]
    rec = workload.solve_one(pkg, cfg, no_span)
    assert rec["status"].startswith("raised FloatingPointError")

    def solve(status, iterations=10):
        return {"status": status, "solve_s": 1.0, "iterations": iterations,
                "energy": 1.0}

    solves = [solve("ok"), dict(rec), solve("capped"),
              solve("check failed: zeta is not exactly even")]
    reps = [{"total_s": 5.0, "peak_rss_mb": 1.0,
             "setup_s": 0.1, "solves": solves}]
    summary = runner.summarize(reps, [0.1])
    assert summary["attempted"] == 4
    assert summary["failed"] == 2
    assert summary["correct"] is False
    assert summary["metrics"]["solves_failed"] == 0.75
    assert summary["metrics"]["solves_ok_share"] == 0.25
    assert summary["metrics"]["iterations"] == 30


def test_repetitions_that_disagree_are_not_correct():
    rep = {"total_s": 5.0, "peak_rss_mb": 1.0, "setup_s": 0.1,
           "solves": [{"status": "ok", "solve_s": 1.0, "iterations": 10,
                       "energy": 1.0}]}
    other = json.loads(json.dumps(rep))
    other["solves"][0]["energy"] = 1.0 + 1e-15
    assert runner.summarize([rep, rep], [0.1])["correct"] is True
    assert runner.summarize([rep, other], [0.1])["correct"] is False


def test_printed_metrics_and_result_line(capsys):
    rep = {"total_s": 5.0, "peak_rss_mb": 1.0, "setup_s": 0.1,
           "missing_spans": [], "layers": dict.fromkeys(catalog.PER_LAYER, 1),
           "solves": [{"status": "ok", "solve_s": 1.0, "iterations": 10,
                       "energy": 1.0}]}
    summary = runner.summarize([rep], [0.1])
    runner.print_run("solve-powerlaw-192", summary, 1)
    printed = capsys.readouterr().out.splitlines()
    for name in list(catalog.END_TO_END) + list(catalog.PER_LAYER):
        assert any(line.split()[0] == name for line in printed)
    units = {k: v[0] for k, v in catalog.END_TO_END.items()}
    line = runner.result_line(summary, ["setup_s", "solve_s"],
                              summary["metrics"], units)
    assert json.loads(line) == {
        "correct": True, "attempted": 1, "failed": 0,
        "metrics": {"setup_s": {"value": 0.1, "unit": "s"},
                    "solve_s": {"value": 1.0, "unit": "s"}}}
    with pytest.raises(ValueError):
        runner.result_line(summary, ["solve_s"],
                           {"solve_s": float("inf")}, units)


def test_self_check_reports_mismatches():
    def summary(iterations, evals):
        return {"metrics": {"iterations": iterations},
                "reps": [{"layers": {"solver.mass_evals_per_iter": evals}}]}

    ok = runner.self_check("solve-powerlaw-192", 0, summary(348, 36.543))
    assert [line.split()[0] for line in ok] == ["match", "match"]
    bad = runner.self_check("solve-powerlaw-192", 0, summary(347, 36.6))
    assert [line.split()[0] for line in bad] == ["MISMATCH", "MISMATCH"]
    assert runner.self_check("solve-powerlaw-192", 3, summary(1, 1))[0] \
        .startswith("skipped")


# -- output checks -----------------------------------------------------------


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """One real `vortexring sweep` row on a coarse grid, via cli.main."""
    work = str(tmp_path_factory.mktemp("sweep"))
    configs = [{"epsilon": 0.1, "family": "turkington",
                "params": {"alpha": 1.0}, "n_r": 32, "n_z": 32}]
    pkg = workload.import_package()
    recs = workload.sweep(pkg, configs, work, no_span)
    return pkg, configs, os.path.join(work, "sweep_out"), recs


def no_span(name):
    return contextlib.nullcontext()


def _tampered_copy(swept, tmp_path, edit):
    pkg, configs, out_dir, _ = swept
    dst = str(tmp_path / "out")
    shutil.copytree(out_dir, dst)
    row = os.path.join(dst, "eps_%g" % configs[0]["epsilon"])
    edit(row)
    return workload.check_sweep(pkg, configs, dst, no_span)[0]


def test_untampered_sweep_row_passes(swept):
    rec = swept[3][0]
    assert rec["status"] == "ok", rec["status"]
    assert rec["iterations"] > 0 and rec["solve_s"] > 0


def test_tampered_zeta_csv_is_rejected(swept, tmp_path):
    def edit(row):
        path = os.path.join(row, "zeta.csv")
        with open(path) as f:
            lines = f.read().splitlines()
        # find a nonzero cell and bump it, breaking the z-symmetry
        for k in range(1, len(lines)):
            r, z, v = lines[k].split(",")
            if float(v) > 0:
                lines[k] = "%s,%s,%.17g" % (r, z, float(v) * (1 + 1e-9))
                break
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")

    rec = _tampered_copy(swept, tmp_path, edit)
    assert rec["status"].startswith("check failed")
    assert "zeta is not exactly even in z" in rec["failures"]


def test_tampered_result_json_is_rejected(swept, tmp_path):
    def edit(row):
        path = os.path.join(row, "result.json")
        with open(path) as f:
            payload = json.load(f)
        payload["energy_trace"][-1] -= 1.0
        payload["outcome"]["kkt_residual"] = 1e-3
        with open(path, "w") as f:
            json.dump(payload, f)

    rec = _tampered_copy(swept, tmp_path, edit)
    assert "energy trace is not nondecreasing" in rec["failures"]
    assert any(f.startswith("converged but KKT") for f in rec["failures"])


def test_check_solve_catches_each_violation():
    n = 4
    w = np.ones((n, n))
    zeta = np.zeros((n, n))
    zeta[1, 1:3] = 2.0
    good = dict(zeta=zeta, weights=w, epsilon=0.5, kappa=4.0, lam=1.0,
                mu=1.0, energy_trace=[1.0, 2.0, 2.0], converged=True,
                kkt=1e-10, tol_mu=1e-10)
    assert checks.check_solve(**good) == []

    def fails(**change):
        return checks.check_solve(**dict(good, **change))

    assert any("exceeds kappa" in f for f in fails(kappa=3.0))
    assert any("tol_mu" in f for f in fails(kappa=4.5))
    assert fails(kappa=4.5, mu=0.0) == []
    assert any("> Lambda" in f for f in fails(lam=0.4))
    neg = zeta.copy()
    neg[2, 1:3] = -1.0
    assert any("< 0" in f for f in fails(zeta=neg, kappa=2.0))
    assert fails(energy_trace=[1.0, 2.0, 1.5]) == \
        ["energy trace is not nondecreasing"]
    assert fails(kkt=1e-3) != [] and fails(kkt=1e-3, converged=False) == []
    odd = zeta.copy()
    odd[1, 0] = 1e-300
    assert "zeta is not exactly even in z" in fails(zeta=odd)
