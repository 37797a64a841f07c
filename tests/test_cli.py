"""Command line front end: config validation, solve outputs, sweeps,
validation suites, and reports."""

import csv
import errno
import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from vortexring import cli
from vortexring.cli import (SWEEP_COLUMNS, _SOLVE_KEYS, _SWEEP_KEYS,
                            build_problem, main, solve_to_dir, validate_config)
from vortexring.errors import ConfigurationError, NumericalError

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _write_config(path, **overrides):
    cfg = {
        "epsilon": 0.1,
        "profile": {"family": "turkington", "alpha": 1.0},
        "grid": {"n_r": 48, "n_z": 48},
        "max_iterations": 400,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_solve")
    cfg = _write_config(base / "cfg.json")
    out = str(base / "run1")
    rc = main(["solve", "--config", cfg, "--out", out])
    return rc, out, cfg, base


def test_solve_converged_writes_all_outputs(solved_dir):
    rc, out, _, _ = solved_dir
    assert rc == 0
    for name in ("result.json", "zeta.csv", "psi.csv", "manifest.json"):
        assert os.path.exists(os.path.join(out, name))
    payload = json.loads(open(os.path.join(out, "result.json")).read())
    assert payload["outcome"]["converged"] is True
    assert payload["outcome"]["stop_reason"] == "converged"
    assert payload["outcome"]["mu"] > 0.0
    assert payload["config"]["epsilon"] == 0.1
    assert payload["config"]["profile"]["family"] == "turkington"
    assert payload["diagnostics"]["simply_connected"] is True
    assert len(payload["energy_trace"]) == payload["outcome"]["iterations"] + 1
    # one multiplier and one L1 change per iteration, the last mu reported
    assert len(payload["mu_trace"]) == payload["outcome"]["iterations"]
    assert len(payload["l1_change_trace"]) == payload["outcome"]["iterations"]
    assert payload["mu_trace"][-1] == payload["outcome"]["mu"]
    assert payload["l1_change_trace"][-1] <= payload["config"]["tol"]["zeta"]
    # the support after each iteration, the last that of the written field
    assert len(payload["support_trace"]) == payload["outcome"]["iterations"]
    with open(os.path.join(out, "zeta.csv")) as fh:
        nonzero = sum(float(row["value"]) != 0.0 for row in csv.DictReader(fh))
    assert payload["support_trace"][-1] == nonzero
    # the multiplier search's fill calls, one count per iteration
    evals = payload["mass_evals_trace"]
    assert len(evals) == payload["outcome"]["iterations"]
    assert all(isinstance(n, int) and n >= 1 for n in evals)
    # the target rows each iteration applied: all 48 before the first cut,
    # then a window of them, or a window and all 48 when a search fell back
    rows = payload["apply_rows_trace"]
    assert len(rows) == payload["outcome"]["iterations"]
    assert rows[0] == 48
    assert all(isinstance(n, int) and 1 <= n < 2 * 48 for n in rows)
    assert min(rows) < 48
    manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert "grid_sha256" in manifest
    assert sorted(manifest["files"]) == ["manifest.json", "psi.csv",
                                         "result.json", "zeta.csv"]


def test_solve_reruns_are_byte_identical(solved_dir):
    rc, out, cfg, base = solved_dir
    assert rc == 0
    out2 = str(base / "run2")
    assert main(["solve", "--config", cfg, "--out", out2]) == 0
    for name in ("result.json", "zeta.csv", "psi.csv"):
        a = open(os.path.join(out, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, "%s differs between reruns" % name


def test_field_files_match_the_per_cell_writer(tmp_path, per_cell_csv):
    cfg = json.loads(open(_write_config(tmp_path / "cfg.json",
                                        grid={"n_r": 24, "n_z": 24})).read())
    problem, gen = build_problem(cfg)
    result, _ = solve_to_dir(problem, gen, cfg["profile"], str(tmp_path))
    for name, fld in (("zeta.csv", result.state.zeta),
                      ("psi.csv", result.state.psi)):
        assert (tmp_path / name).read_bytes() == per_cell_csv(fld).encode()


@pytest.mark.parametrize("before", [None, "r,z,value\n"],
                         ids=["absent", "existing"])
def test_failed_write_leaves_the_destination_as_it_was(before, tmp_path):
    # a writer that raises after its first chunk: the file it was writing
    # stays absent, or keeps its old text, and no temporary is left
    path = tmp_path / "zeta.csv"
    if before is not None:
        path.write_text(before)
    with pytest.raises(RuntimeError, match="disk full"):
        with cli._atomic_open(str(path)) as f:
            f.write("r,z,value\n0.5,-1,0\n")
            f.flush()
            raise RuntimeError("disk full")
    assert os.listdir(tmp_path) == ([] if before is None else ["zeta.csv"])
    if before is not None:
        assert path.read_text() == before


def test_manifest_holds_the_layer_seconds(solved_dir):
    # timings differ between reruns, so they stay out of result.json
    _, out, _, _ = solved_dir
    with open(os.path.join(out, "manifest.json")) as f:
        manifest = json.load(f)
    layers = manifest["layer_seconds"]
    assert sorted(layers) == ["apply_even", "energy", "other", "solve_mu",
                              "window"]
    assert 0.0 < sum(layers.values()) < manifest["wall_clock_seconds"]["solve"]
    with open(os.path.join(out, "result.json")) as f:
        assert "layer_seconds" not in f.read()


def test_solve_nonconverged_exits_two(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", max_iterations=1)
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "did not converge" in err and "iteration_cap" in err
    # partial results are still on disk
    payload = json.loads((tmp_path / "o" / "result.json").read_text())
    assert payload["outcome"]["stop_reason"] == "iteration_cap"


def test_result_config_rebuilds_the_problem(solved_dir):
    # the echo in result.json is itself a solve config for the same problem
    _, out, cfg, _ = solved_dir
    with open(os.path.join(out, "result.json")) as f:
        echo = json.load(f)["config"]
    with open(cfg) as f:
        given = json.load(f)
    validate_config(echo, _SOLVE_KEYS, require=("epsilon",))
    assert build_problem(echo) == build_problem(given)
    assert echo["Lambda"] is None and echo["grid"] == {"n_r": 48, "n_z": 48}


def test_readme_config_example_is_valid():
    with open(README) as f:
        text = f.read()
    block = re.search(r"`solve` accepts\n\n```json\n(.*?)```", text, re.S)
    cfg = json.loads(block.group(1))
    validate_config(cfg, _SOLVE_KEYS, require=("epsilon",))
    problem, gen = build_problem(cfg)
    assert problem.n_z == 192 and problem.lambda_cap is None
    assert gen.family == "turkington"


def test_integral_floats_count_as_integers(tmp_path, capsys):
    # a one-iteration solve stops at the cap whichever way 1 is written
    runs = {}
    for name, n, cap in (("int", 16, 1), ("float", 16.0, 1.0)):
        cfg = _write_config(tmp_path / (name + ".json"), max_iterations=cap,
                            grid={"n_r": n, "n_z": n})
        runs[name] = str(tmp_path / name)
        assert main(["solve", "--config", cfg, "--out", runs[name]]) == 2
        assert "iteration_cap" in capsys.readouterr().err
    for name in ("result.json", "zeta.csv", "psi.csv"):
        a = open(os.path.join(runs["int"], name), "rb").read()
        assert a == open(os.path.join(runs["float"], name), "rb").read()


def test_invalid_config_lists_every_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "epsilon": 1.5,
        "kappa": -1.0,
        "banana": 7,
        "symmetrize": True,
        "grid": {"n_r": 0, "n_q": 3},
        "profile": {"family": "nope"},
        "tol.mu": 1e-9,
    }))
    rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    for needle in ("epsilon", "kappa", "banana", "symmetrize: unknown key",
                   "grid.n_r", "grid.n_q", "profile.family",
                   "tol.mu: unknown key"):
        assert needle in err, "missing complaint about %s" % needle
    assert not os.path.exists(tmp_path / "o")


def test_table_path_needs_the_table_family(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"epsilon": 0.1,
                                "profile": {"table_path": "tab.csv"}}))
    rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "profile.table_path" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("cfg, message", [
    ([0.1], "config root must be a JSON object"),
    ({"epsilons": []}, "epsilons: must be a nonempty list"),
    ({"epsilons": [0.1], "profile": {"family": "table"}},
     "profile.table_path: required for the table family"),
    ({"epsilons": [0.1], "profile": {"family": "table", "table_path": 3}},
     "profile.table_path: must be a string"),
], ids=["root", "empty epsilons", "no table_path", "table_path type"])
def test_sweep_config_errors(cfg, message):
    with pytest.raises(ConfigurationError) as info:
        validate_config(cfg, _SWEEP_KEYS, require=("epsilons",))
    assert any(m.startswith(message) for m in str(info.value).splitlines())


def test_each_complaint_is_one_config_error_line(tmp_path, capsys):
    # three complaints, three lines on stderr, each with the prefix, and
    # nothing on stdout
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"epsilon": 1.5, "kappa": -1.0, "banana": 7}))
    rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "config error: banana: unknown key",
        "config error: epsilon: must be a finite number in (0, 1), got 1.5",
        "config error: kappa: must be a finite number > 0, got -1.0"]


def test_failed_solve_prints_one_error_line(tmp_path, capsys, monkeypatch):
    # a solve that fails inside run: main reports it on one line instead of
    # a traceback, and writes nothing
    def failing(problem, gen):
        raise NumericalError("energy is not finite: nan")

    monkeypatch.setattr(cli, "run", failing)
    path = _write_config(tmp_path / "cfg.json")
    rc = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: NumericalError: energy is not finite: nan"]
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("text", [
    None, "t,f,g\n0,0\n1,1\n2,2\n", "t,f,g\n0,0,0,0\n1,0,1,0\n2,0,2,0\n",
    "t,f,g\n0,0,0\n1,1\n2,0,2\n", "t,f,g\n",
], ids=["missing", "two columns", "four columns", "ragged", "header only"])
def test_bad_table_file_is_a_config_error(text, tmp_path, capsys, recwarn):
    # a table_path passes the schema; the loader names it on one line, and
    # no warning adds its own
    table = tmp_path / "tab.csv"
    if text is not None:
        table.write_text(text)
    path = _write_config(tmp_path / "cfg.json", profile={
        "family": "table", "table_path": str(table)})
    rc = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: table_path %s: " % table)
    assert err[0].count(str(table)) == 1
    assert not recwarn.list
    if text == "t,f,g\n":
        assert err[0].endswith(": no data rows")
    assert not os.path.exists(tmp_path / "o")


def test_sweep_reads_its_table_once(tmp_path, monkeypatch):
    # one problem and one generator serve every epsilon: a table_path
    # sweep builds its generator, and reads its file, once
    t = np.linspace(0.0, 60.0, 13)
    table = tmp_path / "tab.csv"
    table.write_text("t,f,g\n" + "".join("%g,0,%g\n" % (x, x) for x in t))
    make_generator, built = cli.make_generator, []

    def counting(*args, **kwargs):
        built.append(args)
        return make_generator(*args, **kwargs)

    monkeypatch.setattr(cli, "make_generator", counting)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "epsilons": [0.2, 0.15, 0.1], "grid": {"n_r": 24, "n_z": 24},
        "profile": {"family": "table", "table_path": str(table)}}))
    out = str(tmp_path / "sw")
    assert main(["sweep", "--config", str(path), "--out", out]) == 0
    assert built == [("table",)]
    with open(os.path.join(out, "sweep.csv")) as f:
        status = [row["status"] for row in csv.DictReader(f)]
    assert status == ["converged"] * 3


def test_solve_leaves_the_oracle_modules_unloaded(tmp_path):
    # only the oracles and validate load scipy and numpy.random, on demand:
    # solve, sweep and report through the CLI, with the diagnostics record
    # of every solve, load no module under either
    grid = {"n_r": 24, "n_z": 24}
    solve = _write_config(tmp_path / "solve.json", grid=grid)
    sweep = str(tmp_path / "sweep.json")
    with open(sweep, "w") as f:
        json.dump({"epsilons": [0.2, 0.15, 0.1], "grid": grid,
                   "profile": {"family": "turkington", "alpha": 1.0}}, f)
    out = str(tmp_path / "o")
    code = ("import sys, vortexring.cli as cli; "
            "rc = [cli.main([c, '--config', p, '--out', %r]) for c, p in "
            "(('solve', %r), ('sweep', %r), ('report', %r))]; "
            "print(*rc, *[m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('numpy.random')])"
            % (out, solve, sweep, sweep))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["0", "0", "0"], \
        proc.stdout + proc.stderr
    for name in ("result.json", "eps_0.1/result.json", "sweep.csv",
                 "report.json"):
        assert os.path.exists(os.path.join(out, name))


def test_cli_import_leaves_openssl_unloaded(tmp_path):
    # the manifest's grid hash takes the interpreter's own sha256: importing
    # the CLI, building a problem and a solve load no _hashlib, and the
    # solve still writes the sha256 of the grid's cell centres
    solve = _write_config(tmp_path / "solve.json", grid={"n_r": 24, "n_z": 24})
    out = str(tmp_path / "o")
    code = ("import json, sys, vortexring.cli as cli; "
            "cli.build_problem(json.load(open(%r))); "
            "loaded = '_hashlib' in sys.modules; "
            "rc = cli.main(['solve', '--config', %r, '--out', %r]); "
            "print(loaded, rc, '_hashlib' in sys.modules)"
            % (solve, solve, out))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["False", "0", "False"], \
        proc.stdout + proc.stderr
    with open(os.path.join(out, "manifest.json")) as f:
        manifest = json.load(f)
    spec = build_problem(json.loads(open(solve).read()))[0].domain_grid()
    grid = hashlib.sha256(spec.r_centers.tobytes() + spec.z_centers.tobytes())
    assert manifest["grid_sha256"] == grid.hexdigest()


def test_parameter_of_another_family_is_rejected(tmp_path, capsys):
    # turkington takes alpha alone: a p is reported, not dropped
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"epsilon": 0.1, "profile": {
        "family": "turkington", "p": 3}}))
    rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "profile.p: not a parameter of family 'turkington'" in err
    assert "profile.alpha" not in err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("key", ["kappa", "W", "Lambda", "tol.zeta",
                                 "tol.mu", "profile.p", "profile.alpha"])
def test_non_finite_numbers_are_rejected(key, tmp_path, capsys):
    # json parses Infinity; a key with no upper bound must still refuse it
    section, _, name = key.rpartition(".")
    cfg = {section: {name: float("inf")}} if section else {name: float("inf")}
    if name == "alpha":
        cfg["profile"]["family"] = "turkington"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(cfg, epsilon=0.1,
                                    grid={"n_r": 16, "n_z": 16},
                                    max_iterations=5)))
    rc = main(["solve", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert ("%s: must be a finite number > 0, got inf" % key
            in capsys.readouterr().err)
    assert not os.path.exists(tmp_path / "o")


def test_sweep_rows_may_not_share_a_directory(tmp_path, capsys):
    # each row is written to eps_%g, and %g keeps six significant digits
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"epsilons": [0.2, 0.2000001, 0.1, 0.05],
                                "grid": {"n_r": 16, "n_z": 16},
                                "max_iterations": 2}))
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert ("epsilons: 0.2 and 0.2000001 would both write eps_0.2"
            in capsys.readouterr().err)
    assert not os.path.exists(tmp_path / "o")


# configs that pass the schema but that the solver rejects; the table,
# written to the working directory, has g falling from 2 to 1 on [1, 2],
# which run's structural check rejects
_REJECTED_BY_RUN = pytest.mark.parametrize("cfg", [
    {"Lambda": 0.5, "grid": {"n_r": 16, "n_z": 16}},
    {"grid": {"n_r": 16, "n_z": 15}},
    {"profile": {"family": "table", "table_path": "tab.csv"},
     "grid": {"n_r": 16, "n_z": 16}},
], ids=["cap-below-one", "odd-n_z", "table-fails-checks"])


def _assert_writes_nothing(command, cfg, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tab.csv").write_text("t,f,g\n0,0,0\n1,1,2\n2,1,1\n")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "config error" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


@_REJECTED_BY_RUN
def test_solve_rejected_by_run_writes_nothing(cfg, tmp_path, capsys,
                                              monkeypatch):
    _assert_writes_nothing("solve", dict(cfg, epsilon=0.1), tmp_path, capsys,
                           monkeypatch)


@_REJECTED_BY_RUN
def test_sweep_rejected_by_run_writes_nothing(cfg, tmp_path, capsys,
                                              monkeypatch):
    # rejected up front, not with one error row per epsilon
    _assert_writes_nothing("sweep", dict(cfg, epsilons=[0.2, 0.1]), tmp_path,
                           capsys, monkeypatch)


def test_unreadable_or_malformed_config(tmp_path, capsys):
    rc = main(["solve", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 1


def test_sweep_rows_and_dedup(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "epsilons": [0.1, 0.2, 0.1],
        "profile": {"family": "turkington", "alpha": 1.0},
        "grid": {"n_r": 32, "n_z": 32},
        "max_iterations": 2,
    }))
    out = str(tmp_path / "sw")
    rc = main(["sweep", "--config", str(path), "--out", out])
    assert rc == 0
    assert "duplicate epsilon" in capsys.readouterr().err
    lines = open(os.path.join(out, "sweep.csv")).read().splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split(",")
    second = lines[2].split(",")
    # descending epsilon order, two-iteration runs cannot converge
    assert float(first[0]) == 0.2 and float(second[0]) == 0.1
    assert first[-1] == "nonconverged" and second[-1] == "nonconverged"
    for eps in ("0.2", "0.1"):
        assert os.path.exists(os.path.join(out, "eps_" + eps, "result.json"))


def test_sweep_row_error_does_not_stop_the_sweep(tmp_path, capsys):
    # at epsilon = 0.3 the start ball (radius 0.6) does not fit the 0.5 of
    # room in the box; the up-front check does not depend on epsilon, so
    # it passes, and only that row fails
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "epsilons": [0.3, 0.2],
        "profile": {"family": "turkington", "alpha": 1.0},
        "grid": {"n_r": 16, "n_z": 16},
    }))
    out = str(tmp_path / "sw")
    assert main(["sweep", "--config", str(path), "--out", out]) == 0
    assert "(1 failed)" in capsys.readouterr().out
    with open(os.path.join(out, "sweep.csv")) as f:
        rows = list(csv.DictReader(f))
    assert [float(row["epsilon"]) for row in rows] == [0.3, 0.2]
    assert rows[0]["status"].startswith("error: initialization ball")
    assert rows[0]["mu"] == "nan"
    assert rows[1]["status"] == "converged"
    assert not os.path.exists(os.path.join(out, "eps_0.3"))
    assert os.path.exists(os.path.join(out, "eps_0.2", "result.json"))


def test_sweep_flags_support_on_edge(tmp_path):
    # at 32x32 both solves converge; the epsilon = 0.2 core reaches the
    # outer box edge r = 2 r_star, the epsilon = 0.1 core stays inside
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "epsilons": [0.2, 0.1],
        "profile": {"family": "turkington", "alpha": 1.0},
        "grid": {"n_r": 32, "n_z": 32},
        "max_iterations": 200,
    }))
    out = str(tmp_path / "sw")
    assert main(["sweep", "--config", str(path), "--out", out]) == 0
    with open(os.path.join(out, "sweep.csv")) as f:
        header = f.readline().strip().split(",")
        f.seek(0)
        rows = list(csv.DictReader(f))
    assert "support_on_edge" in header
    flags = {}
    for row in rows:
        assert row["status"] == "converged"
        eps = float(row["epsilon"])
        with open(os.path.join(out, "eps_%g" % eps, "result.json")) as f:
            diag = json.load(f)["diagnostics"]
        assert row["support_on_edge"] == str(diag["support_on_edge"]).lower()
        flags[eps] = row["support_on_edge"]
    assert flags == {0.2: "true", 0.1: "false"}


def test_sweep_requires_epsilons(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"epsilon": 0.1}))
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "epsilons" in err


def test_out_dir_falls_back_to_environment(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("RING_DESING_OUT", str(target))
    monkeypatch.chdir(tmp_path)
    rc = main(["validate", "bathtub"])
    assert rc == 0
    assert (target / "validation.json").exists()
    # an explicit --out wins over the environment
    rc = main(["validate", "bathtub", "--out", str(tmp_path / "explicit")])
    assert rc == 0
    assert (tmp_path / "explicit" / "validation.json").exists()


def test_validate_bathtub_passes(tmp_path):
    out = str(tmp_path / "v")
    assert main(["validate", "bathtub", "--out", out]) == 0
    summary = json.loads(open(os.path.join(out, "validation.json")).read())
    assert summary["bathtub"]["pass"] is True
    assert summary["bathtub"]["max_value_gap"] <= 1e-12
    assert summary["all_pass"] is True


def test_validate_greens_writes_pair_table(tmp_path):
    out = str(tmp_path / "v")
    assert main(["validate", "greens", "--out", out]) == 0
    lines = open(os.path.join(out, "kernel_pairs.csv")).read().splitlines()
    assert lines[0] == "r,z,rp,zp,sigma,K_quad,K_closed,rel_err,bound"
    assert len(lines) > 100
    summary = json.loads(open(os.path.join(out, "validation.json")).read())
    assert summary["greens"]["closed_vs_quadrature_ok"] is True
    assert summary["greens"]["operator_vs_direct_ok"] is True
    assert 0.0 <= summary["greens"]["operator_max_rel_diff"] <= 1e-12
    assert 0.0 <= summary["greens"]["window_max_rel_diff"] <= 1e-12
    assert summary["greens"]["row_bound_ok"] is True
    assert summary["greens"]["kernel_symmetric_ok"] is True
    assert 0.0 <= summary["greens"]["table_vs_block_max_rel_diff"] <= 1e-15
    assert summary["greens"]["pass"] is True


def test_validate_profiles_passes(tmp_path):
    out = str(tmp_path / "v")
    assert main(["validate", "profiles", "--out", out]) == 0
    summary = json.loads(open(os.path.join(out, "validation.json")).read())
    families = summary["profiles"]["families"]
    assert len(families) == 6
    for name, entry in families.items():
        assert entry["pass"] is True, name
        assert entry["closed_vs_numeric_J"] <= 1e-6, name
    assert summary["profiles"]["pass"] is True
    assert summary["all_pass"] is True


def test_validate_unknown_suite(tmp_path, capsys):
    rc = main(["validate", "nosuch", "--out", str(tmp_path / "v")])
    assert rc == 1
    assert "unknown suite" in capsys.readouterr().err


def _synthetic_sweep_csv(out_dir, eps_values):
    os.makedirs(out_dir, exist_ok=True)
    rows = [",".join(SWEEP_COLUMNS)]
    for eps in eps_values:
        x = np.log(1.0 / eps)
        cells = {c: "0" for c in SWEEP_COLUMNS}
        cells.update({
            "epsilon": "%.17g" % eps,
            "log_inv_eps": "%.17g" % x,
            "mu": "%.17g" % (1.5 * x + 0.3),
            "E": "%.17g" % (2.0 * np.pi * x - 2.0),
            "core_radius": "%.17g" % (0.9 * eps),
            "simply_connected": "true",
            "status": "converged",
        })
        rows.append(",".join(cells[c] for c in SWEEP_COLUMNS))
    with open(os.path.join(out_dir, "sweep.csv"), "w") as f:
        f.write("\n".join(rows) + "\n")


def test_report_fits_sweep_table(tmp_path):
    out = str(tmp_path / "rep")
    _synthetic_sweep_csv(out, [0.2, 0.1, 0.05, 0.025])
    assert main(["report", "--out", out]) == 0
    rep = json.loads(open(os.path.join(out, "report.json")).read())
    assert rep["n_points"] == 4
    np.testing.assert_allclose(rep["fit"]["slope_mu"], 1.5, rtol=1e-9)
    np.testing.assert_allclose(rep["fit"]["slope_E"], 2.0 * np.pi, rtol=1e-9)
    np.testing.assert_allclose(rep["predicted"]["slope_mu"], 1.5, rtol=1e-12)
    assert rep["relative_error"]["slope_mu"] < 1e-9
    assert rep["kelvin_hicks"]["difference_spread"] < 1e-9


def test_report_reads_kappa_and_w_from_its_config(tmp_path):
    out = str(tmp_path / "rep")
    _synthetic_sweep_csv(out, [0.2, 0.1, 0.05, 0.025])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kappa": 2.0 * np.pi, "W": 0.5,
                                "epsilons": [0.2, 0.1]}))
    assert main(["report", "--config", str(path), "--out", out]) == 0
    rep = json.loads(open(os.path.join(out, "report.json")).read())
    assert (rep["kappa"], rep["W"]) == (2.0 * np.pi, 0.5)
    # 3 kappa^2 / (32 pi^2 W) and kappa^3 / (32 pi^2 W)
    np.testing.assert_allclose(rep["predicted"]["slope_mu"], 0.75,
                               rtol=1e-14)
    np.testing.assert_allclose(rep["predicted"]["slope_E"], 0.5 * np.pi,
                               rtol=1e-14)


def test_report_needs_three_converged_rows(tmp_path, capsys):
    out = str(tmp_path / "rep")
    _synthetic_sweep_csv(out, [0.2, 0.1])
    assert main(["report", "--out", out]) == 1
    assert "at least 3" in capsys.readouterr().err
    # and a missing sweep.csv is a clean failure too
    assert main(["report", "--out", str(tmp_path / "empty")]) == 1


@pytest.mark.parametrize("argv, missing", [
    (["solve", "--config", "{d}/c.json", "--out", "{d}"], "config {d}/c.json"),
    (["sweep", "--config", "{d}/c.json", "--out", "{d}"], "config {d}/c.json"),
    (["report", "--out", "{d}"], "{d}/sweep.csv"),
], ids=["solve", "sweep", "report"])
def test_unreadable_file_is_named_once(argv, missing, tmp_path, capsys):
    # the config, and report's sweep.csv, are named once, with the OS's
    # reason alone
    d = str(tmp_path)
    assert main([a.format(d=d) for a in argv]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "config error: cannot read %s: %s"
        % (missing.format(d=d), os.strerror(errno.ENOENT))]


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("argv", [
    ["solve", "--config", "missing.json"],
    ["sweep", "--config", "missing.json"],
    ["report"],
    ["validate", "bathtub"],
], ids=["solve", "sweep", "report", "validate"])
def test_threads_is_not_an_option(argv, tmp_path):
    with pytest.raises(SystemExit):
        main(argv + ["--threads", "2", "--out", str(tmp_path)])


@pytest.mark.parametrize("argv", [
    ["solve", "--config", "missing.json"],
    ["sweep", "--config", "missing.json"],
    ["report"],
], ids=["solve", "sweep", "report"])
def test_seed_is_a_validate_only_option(argv, tmp_path):
    with pytest.raises(SystemExit):
        main(argv + ["--seed", "5", "--out", str(tmp_path)])
