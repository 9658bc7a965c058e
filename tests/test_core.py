import math

import numpy as np
import pytest

from sigdrift.core import (QoSSeries, Signature, TrialExperience, json_text,
                           read_signature, write_signature)
from sigdrift.errors import ConstantSeriesError, ParseError

from conftest import raw_signature, unit_signature, wavy_row


def test_population_std_is_ddof_zero():
    # mean 2.5, squared deviations (2.25, .25, .25, 2.25) -> var 1.25
    assert raw_signature([[1.0, 2.0, 3.0, 4.0]]).row_stds[0] == pytest.approx(
        math.sqrt(1.25), abs=1e-15)


def test_grid_rejects_short_lengths():
    with pytest.raises(ValueError, match="rows need at least two points, got 1"):
        Signature(("cpu",), [[1.0]])
    assert Signature(("cpu",), [[1.0, 2.0]]).matrix.shape == (1, 2)


def test_series_rejects_nan_and_inf():
    with pytest.raises(ValueError):
        Signature(("cpu",), [[1.0, np.nan, 2.0]])
    with pytest.raises(ValueError):
        Signature(("cpu",), [[1.0, np.inf, 2.0]])
    with pytest.raises(ValueError):
        Signature(("cpu",), [1.0, 2.0, 3.0])  # a row must be a matrix row
    with pytest.raises(ValueError):
        Signature(("cpu",), [[[1.0, 2.0, 3.0]]])
    with pytest.raises(ValueError):
        Signature(("",), [[1.0, 2.0, 3.0]])


def test_series_values_are_frozen():
    values = np.array([[1.0, 2.0, 3.0]])
    sig = Signature(("cpu",), values)
    values[0, 0] = 9.0  # the signature holds its own copy
    assert sig.matrix[0, 0] == 1.0
    row = sig.row("cpu")
    assert isinstance(row, QoSSeries) and row.parameter == "cpu"
    assert np.shares_memory(row.values, sig.matrix)
    for frozen in (sig.matrix[0], row.values, sig.rows[0].values):
        with pytest.raises(ValueError):
            frozen[0] = 9.0
    with pytest.raises(KeyError):
        sig.row("io")


def test_signature_shape_checks():
    row = [0.5, -0.5, 1.5, -1.5]
    with pytest.raises(ValueError):
        Signature((), np.empty((0, 4)))
    with pytest.raises(ValueError):
        Signature(("cpu", "cpu"), [row, row])  # duplicate parameter name
    with pytest.raises(ValueError):
        Signature(("cpu", "io"), [row])  # fewer rows than parameters
    with pytest.raises(ConstantSeriesError):
        Signature(("cpu",), [[2.0, 2.0, 2.0, 2.0]])


def test_constant_row_error_names_the_first_constant_row():
    flat = [2.0, 2.0, 2.0, 2.0]
    with pytest.raises(ConstantSeriesError, match="row 'io' is constant"):
        Signature(("cpu", "io", "net"), [[0.5, -0.5, 1.5, -1.5], flat, flat])


def test_equality_ignores_provider_id():
    a = unit_signature(wavy_row(30), provider_id="a")
    b = unit_signature(wavy_row(30), provider_id="b")
    assert a == b
    c = unit_signature(wavy_row(30, seed=9), provider_id="a")
    assert a != c


def test_trial_experience_window():
    exp = TrialExperience("u1", "cpu", np.array([1.0, 2.0, 3.0]), trial_start=7)
    assert exp.window == (7, 3)
    assert exp.trial_length == 3
    with pytest.raises(ValueError):
        TrialExperience("u1", "cpu", np.array([1.0, 2.0]), trial_start=-1)
    with pytest.raises(ValueError):
        TrialExperience("u1", "cpu", np.array([1.0]), trial_start=0)


def test_signature_round_trip_is_bit_exact(tmp_path):
    sig = unit_signature(np.vstack([wavy_row(40, 1), wavy_row(40, 2)]),
                         parameters=["cpu", "io"])
    path = tmp_path / "sig.csv"
    write_signature(sig, path)
    back = read_signature(path)
    assert back == sig
    np.testing.assert_array_equal(back.matrix, sig.matrix)
    assert back.parameters == ("cpu", "io")
    # provider id defaults to the file stem
    assert back.provider_id == "sig"


def test_read_renormalizes_off_unit_rows(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("parameter,t0,t1,t2,t3\ncpu,0.5,-0.5,1.5,-1.5\n")
    sig = read_signature(path)
    # population std of the raw row is sqrt(1.25) ~ 1.118; reader rescales
    assert abs(np.std(sig.matrix[0]) - 1.0) < 1e-12
    np.testing.assert_allclose(
        sig.matrix[0], np.array([0.5, -0.5, 1.5, -1.5]) / math.sqrt(1.25))


def test_read_rejects_constant_row(tmp_path):
    path = tmp_path / "const.csv"
    path.write_text("parameter,t0,t1,t2\ncpu,1,1,1\n")
    with pytest.raises(ConstantSeriesError):
        read_signature(path)


@pytest.mark.parametrize("text", [
    "nonsense\n",
    "parameter,t0,t1\ncpu,1.0\n",
    "parameter,t0,t1\ncpu,1.0,abc\n",
    "",
    "parameter,t0,t1\ncpu,1.0,2.5",
])
def test_read_rejects_malformed_files(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ParseError):
        read_signature(path)


def test_json_text_sorts_keys_and_refuses_what_json_cannot_spell():
    assert json_text({"b": 1, "a": [0.5]}) == '{"a": [0.5], "b": 1}\n'
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError):
            json_text({"x": value})


def test_file_has_header_and_one_line_per_row(tmp_path):
    matrix = np.vstack([wavy_row(12, s) for s in range(5)])
    sig = unit_signature(matrix)
    path = tmp_path / "five.csv"
    write_signature(sig, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("parameter,t0,")


def test_raw_signature_helper_keeps_values():
    sig = raw_signature([[1.0, 2.0, 4.0]])
    np.testing.assert_array_equal(sig.matrix[0], [1.0, 2.0, 4.0])
    assert abs(np.std(sig.matrix[0]) - 1.0) > 1e-9
