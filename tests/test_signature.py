import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigdrift.core import TimeGrid, TrialExperience
from sigdrift.errors import AlignmentError, ConstantSeriesError
from sigdrift.signature import (generate_signature, paa, paa_boundaries, read_experiences,
                                write_experiences)


def _experiences(parameter, users, start=0):
    return [TrialExperience(f"u{i}", parameter, np.asarray(vals, dtype=float), start)
            for i, vals in enumerate(users)]


# ---------------------------------------------------------------- PAA

def test_paa_fixture():
    np.testing.assert_array_equal(paa([1.0, 2.0, 3.0, 4.0], 2), [1.5, 3.5])


def test_paa_identity():
    v = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
    np.testing.assert_array_equal(paa(v, 5), v)


def test_paa_boundaries_round_half_up():
    # frame j of m over length L starts at round(j*L/m) with .5 rounding up
    L, m = 10, 4
    bounds = paa_boundaries(L, m)
    expected = [(2 * j * L + m) // (2 * m) for j in range(m)] + [L]
    np.testing.assert_array_equal(bounds, expected)


def test_paa_matches_bruteforce_on_trace_scale():
    rng = np.random.default_rng(8)
    raw = rng.normal(size=6486)
    out = paa(raw, 360)
    assert out.shape == (360,)
    bounds = paa_boundaries(6486, 360)
    assert bounds[0] == 0 and bounds[-1] == 6486
    assert np.all(np.diff(bounds) >= 1)
    for j in (0, 1, 100, 359):
        np.testing.assert_allclose(out[j], raw[bounds[j]:bounds[j + 1]].mean(),
                                   atol=1e-12)
    # ~18 raw points per day at this trace length
    assert 17 <= np.diff(bounds).max() <= 19


def test_paa_constant_stays_constant():
    np.testing.assert_array_equal(paa(np.full(30, 2.5), 7), np.full(7, 2.5))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), shape=st.sampled_from([(1,), (3,), (2, 3)]),
       length=st.integers(1, 1500), fortran=st.booleans())
def test_paa_of_stacked_series_is_paa_of_each_series(data, shape, length, fortran):
    """Frames of 8 or more points take numpy's pairwise sum, so this
    reaches it; every series must get the bytes a 1-D call gives it."""
    target = data.draw(st.integers(1, length))
    seed = data.draw(st.integers(0, 2**32 - 1))
    values = np.random.default_rng(seed).normal(size=shape + (length,)) * 1e3
    if fortran:
        values = np.asfortranarray(values)
    out = paa(values, target)
    assert out.shape == shape + (target,)
    for index in np.ndindex(*shape):
        assert out[index].tobytes() == paa(values[index], target).tobytes()


def test_paa_needs_a_series():
    with pytest.raises(ValueError):
        paa(3.0, 1)


# ---------------------------------------------------- signature generation

def test_generate_signature_single_user_fixture():
    experiences = _experiences("cpu", [[2.0, 4.0, 6.0]])
    sig = generate_signature(experiences, TimeGrid(3), "p1")
    np.testing.assert_allclose(sig.matrix[0], [1.22474487, 2.44948975, 3.67423461],
                               atol=1e-8)
    assert sig.provider_id == "p1"


def test_generate_signature_constant_mean_rejected():
    experiences = _experiences("cpu", [[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
    with pytest.raises(ConstantSeriesError):
        generate_signature(experiences, TimeGrid(3))


def test_identical_users_collapse_to_one():
    v = [5.0, 1.0, 3.0, 7.0]
    one = generate_signature(_experiences("cpu", [v]), TimeGrid(4))
    many = generate_signature(_experiences("cpu", [v] * 6), TimeGrid(4))
    np.testing.assert_allclose(one.matrix, many.matrix, atol=1e-12)


def test_user_order_does_not_matter():
    rng = np.random.default_rng(3)
    users = [rng.normal(size=10).tolist() for _ in range(5)]
    a = generate_signature(_experiences("cpu", users), TimeGrid(10))
    b = generate_signature(_experiences("cpu", users[::-1]), TimeGrid(10))
    np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.floats(1e-3, 1e3))
def test_common_positive_scale_cancels(seed, scale):
    rng = np.random.default_rng(seed)
    users = rng.normal(size=(4, 8))
    a = generate_signature(_experiences("cpu", users), TimeGrid(8))
    b = generate_signature(_experiences("cpu", scale * users), TimeGrid(8))
    np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-9)


def test_generate_requires_full_grid_window():
    experiences = _experiences("cpu", [[1.0, 2.0, 3.0]], start=1)
    with pytest.raises(AlignmentError):
        generate_signature(experiences, TimeGrid(4))
    with pytest.raises(ValueError):
        generate_signature([], TimeGrid(4))


def test_generation_rejects_a_window_that_does_not_cover_the_grid():
    exps = [TrialExperience("a", "cpu", np.array([1.0, 2.0]), 0),
            TrialExperience("b", "cpu", np.array([1.0, 2.0]), 3)]
    with pytest.raises(AlignmentError, match="user 'b' covers \\(3, 2\\)"):
        generate_signature(exps, TimeGrid(2))


def test_generation_groups_rows_by_parameter_in_order_of_first_appearance():
    rng = np.random.default_rng(2)
    io, cpu = rng.normal(size=(2, 6)), rng.normal(size=(3, 6))
    io_exps, cpu_exps = _experiences("io", io), _experiences("cpu", cpu)
    interleaved = [io_exps[0], cpu_exps[0], cpu_exps[1], io_exps[1], cpu_exps[2]]
    sig = generate_signature(interleaved, TimeGrid(6))
    assert sig.parameters == ("io", "cpu")
    for name, exps in (("io", io_exps), ("cpu", cpu_exps)):
        alone = generate_signature(exps, TimeGrid(6))
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
        generate_signature(exps, TimeGrid(2))
