import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigdrift.core import TrialExperience
from sigdrift.errors import AlignmentError, ConstantSeriesError
from sigdrift.signature import generate_signature, read_experiences, write_experiences


def _experiences(parameter, users, start=0):
    return [TrialExperience(f"u{i}", parameter, np.asarray(vals, dtype=float), start)
            for i, vals in enumerate(users)]


# ---------------------------------------------------- signature generation

def test_generate_signature_single_user_fixture():
    experiences = _experiences("cpu", [[2.0, 4.0, 6.0]])
    sig = generate_signature(experiences, "p1")
    np.testing.assert_allclose(sig.matrix[0], [1.22474487, 2.44948975, 3.67423461],
                               atol=1e-8)
    assert sig.provider_id == "p1"


def test_generate_signature_constant_mean_rejected():
    experiences = _experiences("cpu", [[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
    with pytest.raises(ConstantSeriesError):
        generate_signature(experiences)


def test_identical_users_collapse_to_one():
    v = [5.0, 1.0, 3.0, 7.0]
    one = generate_signature(_experiences("cpu", [v]))
    many = generate_signature(_experiences("cpu", [v] * 6))
    np.testing.assert_allclose(one.matrix, many.matrix, atol=1e-12)


def test_user_order_does_not_matter():
    rng = np.random.default_rng(3)
    users = [rng.normal(size=10).tolist() for _ in range(5)]
    a = generate_signature(_experiences("cpu", users))
    b = generate_signature(_experiences("cpu", users[::-1]))
    np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.floats(1e-3, 1e3))
def test_common_positive_scale_cancels(seed, scale):
    rng = np.random.default_rng(seed)
    users = rng.normal(size=(4, 8))
    a = generate_signature(_experiences("cpu", users))
    b = generate_signature(_experiences("cpu", scale * users))
    np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-9)


def test_generate_requires_full_grid_window():
    experiences = _experiences("cpu", [[1.0, 2.0, 3.0]], start=1)
    with pytest.raises(AlignmentError):
        generate_signature(experiences)
    with pytest.raises(ValueError):
        generate_signature([])


def test_generation_rejects_a_window_that_does_not_cover_the_grid():
    exps = [TrialExperience("a", "cpu", np.array([1.0, 2.0]), 0),
            TrialExperience("b", "cpu", np.array([1.0, 2.0]), 3)]
    with pytest.raises(AlignmentError, match="user 'b' covers \\(3, 2\\)"):
        generate_signature(exps)


def test_generation_groups_rows_by_parameter_in_order_of_first_appearance():
    rng = np.random.default_rng(2)
    io, cpu = rng.normal(size=(2, 6)), rng.normal(size=(3, 6))
    io_exps, cpu_exps = _experiences("io", io), _experiences("cpu", cpu)
    interleaved = [io_exps[0], cpu_exps[0], cpu_exps[1], io_exps[1], cpu_exps[2]]
    sig = generate_signature(interleaved)
    assert sig.parameters == ("io", "cpu")
    for name, exps in (("io", io_exps), ("cpu", cpu_exps)):
        alone = generate_signature(exps)
        assert sig.row(name).values.tobytes() == alone.matrix[0].tobytes()


# ------------------------------------------------------------- CSV files

def test_cohort_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    experiences = (_experiences("cpu", rng.normal(size=(3, 6)))
                   + _experiences("io", rng.normal(size=(2, 6)), start=4))
    path = tmp_path / "cohorts.csv"
    write_experiences(experiences, path)
    back = read_experiences(path)
    assert len(back) == len(experiences)
    for e0, e1 in zip(experiences, back):
        assert (e1.user_id, e1.parameter, e1.window) == (e0.user_id, e0.parameter, e0.window)
        np.testing.assert_array_equal(e1.values, e0.values)


def test_cohort_csv_needs_equal_widths(tmp_path):
    experiences = _experiences("cpu", [[1.0, 2.0, 3.0]]) + _experiences("io", [[1.0, 2.0]])
    with pytest.raises(AlignmentError, match="equal-length windows"):
        write_experiences(experiences, tmp_path / "cohorts.csv")
    with pytest.raises(ValueError, match="nothing to write"):
        write_experiences([], tmp_path / "cohorts.csv")
    assert not (tmp_path / "cohorts.csv").exists()


def test_read_experiences_allows_mixed_windows(tmp_path):
    path = tmp_path / "hist.csv"
    path.write_text("user_id,parameter,start,v0,v1\n"
                    "u1,cpu,0,1.0,2.0\n"
                    "u2,cpu,5,3.0,1.0\n")
    exps = read_experiences(path)
    assert [e.trial_start for e in exps] == [0, 5]
    # but signature generation insists that every window covers the grid
    with pytest.raises(AlignmentError, match="user 'u2'"):
        generate_signature(exps)
