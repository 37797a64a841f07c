"""Grid construction, measures, and field storage."""

import errno
import io
import os
import re

import numpy as np
import pytest

from vortexring.errors import ConfigurationError, GridMismatchError
from vortexring.grid import (ScalarField, build_grid, dump_field_csv,
                             integrate_nu, load_field_csv)


def test_cell_centers_three_by_two():
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 3, 2)
    np.testing.assert_allclose(spec.r_centers, [0.75, 1.25, 1.75], rtol=0,
                               atol=1e-15)
    assert spec.dr == 0.5
    assert spec.dz == 1.0


def test_invalid_grids_raise():
    with pytest.raises(ConfigurationError):
        build_grid(0.5, 2.0, -1.0, 1.0, 0, 2)
    with pytest.raises(ConfigurationError):
        build_grid(0.0, 2.0, -1.0, 1.0, 4, 4)
    with pytest.raises(ConfigurationError):
        build_grid(-0.5, 2.0, -1.0, 1.0, 4, 4)
    with pytest.raises(ConfigurationError):
        build_grid(0.5, 2.0, 1.0, -1.0, 4, 4)
    with pytest.raises(ConfigurationError):
        build_grid(2.0, 0.5, -1.0, 1.0, 4, 4)


def test_z_centers_exactly_symmetric():
    for n_z in (2, 6, 48, 96):
        spec = build_grid(0.5, 2.0, -1.0, 1.0, 4, n_z)
        zs = spec.z_centers
        assert np.all(zs == -zs[::-1])
        assert spec.z_symmetric()
    asym = build_grid(0.5, 2.0, -1.0, 0.5, 4, 4)
    assert not asym.z_symmetric()


def test_integrate_nu_zero_and_constant():
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 24, 24)
    zero = ScalarField(spec, np.zeros((24, 24)))
    assert integrate_nu(zero) == 0.0
    ones = ScalarField(spec, np.ones((24, 24)))
    # int r dr dz over [0.5,2]x[-1,1]; midpoint is exact for linear r
    np.testing.assert_allclose(integrate_nu(ones), 3.75, rtol=1e-14)


def test_integrate_nu_linear_field_refinement():
    # field = r: exact integral of r^2 over the box is 5.25; midpoint error
    # is O(dr^2), so refining 2x should cut it by about 4
    errs = []
    for n in (16, 32):
        spec = build_grid(0.5, 2.0, -1.0, 1.0, n, 8)
        fld = ScalarField(spec, np.repeat(spec.r_centers[:, None], 8, axis=1))
        errs.append(abs(integrate_nu(fld) - 5.25))
    assert errs[0] < 5.25 * 1e-3
    assert errs[1] < 0.3 * errs[0]


def test_scalar_field_validation():
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 4, 4)
    with pytest.raises(GridMismatchError):
        ScalarField(spec, np.zeros((4, 5)))
    bad = np.zeros((4, 4))
    bad[1, 1] = np.nan
    with pytest.raises(ConfigurationError):
        ScalarField(spec, bad)


def test_field_csv_roundtrip(rng, tmp_path):
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 7, 5)
    fld = ScalarField(spec, rng.standard_normal((7, 5)))
    path = tmp_path / "field.csv"
    with open(path, "w") as f:
        dump_field_csv(fld, f)
    back = load_field_csv(spec, str(path))
    np.testing.assert_array_equal(back.values, fld.values)
    text = path.read_text().splitlines()
    assert text[0] == "r,z,value"
    assert len(text) == 1 + 7 * 5


@pytest.mark.parametrize("other", [
    (0.5, 2.0, -1.0, 1.0, 6, 4),
    (0.5, 3.0, -1.0, 1.0, 4, 6),
    (0.5, 2.0, -2.0, 2.0, 4, 6),
], ids=["transposed", "other-r-extent", "other-z-extent"])
def test_field_csv_refuses_another_grid(other, rng, tmp_path):
    # each grid holds the 24 cells of the file's, at other centres
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 4, 6)
    path = tmp_path / "field.csv"
    with open(path, "w") as f:
        dump_field_csv(ScalarField(spec, rng.standard_normal((4, 6))), f)
    with pytest.raises(GridMismatchError, match="cell centres"):
        load_field_csv(build_grid(*other), str(path))


@pytest.mark.parametrize("text, message", [
    (None, os.strerror(errno.ENOENT)),
    ("r,z,value\n", "no data rows"),
    ("r,z,value\n0.875,-0.5,1\n", "1 rows, grid wants 4"),
    ("r,z,value\n0.875,-0.5\n0.875,0.5\n1.625,-0.5\n1.625,0.5\n",
     "2 columns, wants 3"),
    ("r,z,value\n0.875,-0.5,1,0\n0.875,0.5,1,0\n1.625,-0.5,1,0\n"
     "1.625,0.5,1,0\n", "4 columns, wants 3"),
    ("r,z,value\n0.875,-0.5,1\n0.875,0.5\n", "the number of columns"),
], ids=["missing", "header only", "one row", "two columns", "four columns",
        "ragged"])
def test_malformed_field_csv_is_one_grid_mismatch(text, message, tmp_path,
                                                  recwarn):
    # a missing or malformed file is named, once, by one GridMismatchError,
    # with no warning of numpy's beside it
    path = tmp_path / "field.csv"
    if text is not None:
        path.write_text(text)
    with pytest.raises(GridMismatchError, match="^csv %s: %s"
                       % (re.escape(str(path)), message)) as info:
        load_field_csv(build_grid(0.5, 2.0, -1.0, 1.0, 2, 2), str(path))
    assert str(info.value).count(str(path)) == 1
    assert not recwarn.list


def test_dump_matches_the_per_cell_writer(rng, per_cell_csv):
    # zeros of both signs, a subnormal, huge values of both signs, and
    # random values over the whole exponent range; a row of +0.0 (written
    # from its own tail), and rows of zeros but for a -0.0 or a subnormal
    spec = build_grid(0.5, 2.0, -1.0, 1.0, 7, 6)
    vals = rng.standard_normal((7, 6)) * 10.0 ** rng.integers(-300, 300, (7, 6))
    vals.flat[:6] = 0.0, -0.0, 5e-324, 1e300, -1e300, 3.3e-310
    vals[2:5] = 0.0
    vals[3, 5], vals[4, 0] = -0.0, 5e-324
    fld = ScalarField(spec, vals)
    out = io.StringIO()
    dump_field_csv(fld, out)
    text = out.getvalue()
    assert text == per_cell_csv(fld)
    assert "\n0.6071428571428571,-0.5,-0\n" in text
    assert "\n1.0357142857142856,0.83333333333333326,0\n" in text
    assert "\n1.25,0.83333333333333326,-0\n" in text
