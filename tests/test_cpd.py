from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigdrift.core import TrialExperience
from sigdrift.cpd import (AnomalyThreshold, ChangePoint, EventConfig, calibrate,
                          detect_events, is_anomalous, read_flags, write_flags)
from sigdrift.errors import AlignmentError, ConstantSeriesError, ParseError
from sigdrift.similarity import SimilarityMethod, similarity

from conftest import brute_events, unit_signature

RAMP_SIG = unit_signature(np.arange(12.0), parameters=["cpu"])
UP = np.array([1.0, 2.0, 3.0, 4.0])
DOWN = np.array([4.0, 3.0, 2.0, 1.0])


def _exp(values, start, user="u"):
    return TrialExperience(user, "cpu", np.asarray(values, dtype=float), start)


def _measured(exp, method):
    """The similarity of a user's trial, scaled to unit std by ``np.std``."""
    seg = RAMP_SIG.row("cpu").values[exp.trial_start:exp.trial_start + 4]
    return similarity(seg, exp.values / np.std(exp.values), method)


# ------------------------------------------------------- threshold calibration

def test_similarity_threshold_is_worst_pcc():
    past = [_exp(UP, 0), _exp(DOWN, 2), _exp(UP, 4)]
    thr, _ = calibrate(past, RAMP_SIG, SimilarityMethod.PCC, 6)
    sims = [_measured(e, SimilarityMethod.PCC) for e in past]
    assert thr.value == min(sims)
    assert thr.value == pytest.approx(-1.0, abs=1e-12)  # the reversed user
    assert thr.method is SimilarityMethod.PCC


def test_distance_threshold_polarity_flips_to_max():
    # for distances the worst similarity is the LARGEST distance
    rng = np.random.default_rng(4)
    past = [_exp(rng.normal(size=4) + 2.0, s) for s in (0, 3, 6)]
    for method in (SimilarityMethod.ED, SimilarityMethod.RMSE):
        thr, _ = calibrate(past, RAMP_SIG, method, 6)
        assert thr.value == max(_measured(e, method) for e in past)


def test_single_user_threshold():
    past = [_exp(UP, 0)]
    thr, cfg = calibrate(past, RAMP_SIG, SimilarityMethod.PCC, 6)
    assert thr.value == _measured(past[0], SimilarityMethod.PCC)
    assert cfg.frequency_threshold == 1  # the one user ties itself


@pytest.mark.parametrize("method", list(SimilarityMethod))
def test_calibration_matches_a_reference_that_scales_by_np_std(method):
    rng = np.random.default_rng(11)
    past = [_exp(UP, 0), _exp(DOWN, 2), _exp(DOWN, 3, "d"), _exp(UP * 3.0 + 1.0, 4)]
    past += [_exp(rng.normal(size=4) * 10.0 ** rng.uniform(-3, 3) + 2.0, s, f"r{s}")
             for s in range(8)]
    thr, cfg = calibrate(past, RAMP_SIG, method, 6)
    sims = [_measured(e, method) for e in past]
    assert [is_anomalous(e, RAMP_SIG, thr)[1].hex() for e in past] == [s.hex() for s in sims]
    worst = min(sims) if method.higher_is_more_similar else max(sims)
    assert thr.value.hex() == worst.hex()
    ties = Counter(e.trial_start // 6 for e, s in zip(past, sims) if s == worst)
    assert cfg.frequency_threshold == max(ties.values())


def test_a_constant_trial_is_an_error_naming_its_parameter():
    with pytest.raises(ConstantSeriesError, match="row 'cpu' is constant"):
        calibrate([_exp(UP, 0), _exp([2.0] * 4, 2)], RAMP_SIG, SimilarityMethod.PCC, 6)


def test_empty_history_rejected():
    with pytest.raises(ValueError):
        calibrate([], RAMP_SIG, SimilarityMethod.PCC, 6)


def test_frequency_threshold_counts_boundary_users():
    # five reversed-ramp users share the worst similarity inside window 0
    past = [_exp(DOWN, s, f"b{s}") for s in range(5)]
    past += [_exp(UP, s, f"g{s}") for s in (0, 3, 6)]
    _, cfg = calibrate(past, RAMP_SIG, SimilarityMethod.PCC, window_length=6)
    assert cfg.frequency_threshold == 5
    assert cfg.window_length == 6


def test_frequency_threshold_takes_max_over_windows():
    past = [_exp(DOWN, 0), _exp(DOWN, 1)]                 # 2 in window 0
    past += [_exp(DOWN, 6), _exp(DOWN, 7), _exp(DOWN, 6, "x"), _exp(DOWN, 7, "y")]
    _, cfg = calibrate(past, RAMP_SIG, SimilarityMethod.PCC, window_length=6)
    assert cfg.frequency_threshold == 4


# ------------------------------------------------------------- is_anomalous

def test_matching_slice_is_not_anomalous():
    seg = RAMP_SIG.row("cpu").values[2:6]
    flag, value = is_anomalous(_exp(seg, 2), RAMP_SIG,
                               AnomalyThreshold(SimilarityMethod.PCC, 0.6))
    assert not flag
    assert value == pytest.approx(1.0, abs=1e-12)


def test_reversed_slice_is_anomalous():
    seg = RAMP_SIG.row("cpu").values[2:6]
    flag, value = is_anomalous(_exp(seg[::-1].copy(), 2), RAMP_SIG,
                               AnomalyThreshold(SimilarityMethod.PCC, -0.5))
    assert flag
    assert value == pytest.approx(-1.0, abs=1e-12)


def test_anomaly_test_is_strict():
    seg = RAMP_SIG.row("cpu").values[0:4]
    exp = _exp(seg, 0)
    value = _measured(exp, SimilarityMethod.PCC)
    flag, _ = is_anomalous(exp, RAMP_SIG,
                           AnomalyThreshold(SimilarityMethod.PCC, value))
    assert not flag  # equal to the threshold is not "worse"


def test_distance_anomaly_polarity():
    rng = np.random.default_rng(9)
    exp = _exp(rng.normal(size=4) + 1.5, 0)
    value = _measured(exp, SimilarityMethod.ED)
    worse = AnomalyThreshold(SimilarityMethod.ED, value - 0.01)
    better = AnomalyThreshold(SimilarityMethod.ED, value + 0.01)
    assert is_anomalous(exp, RAMP_SIG, worse)[0]
    assert not is_anomalous(exp, RAMP_SIG, better)[0]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31), st.floats(1e-2, 1e2), st.floats(-50.0, 50.0))
def test_pcc_anomaly_affine_invariance(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=4) + 1.0
    thr = AnomalyThreshold(SimilarityMethod.PCC, 0.0)
    f0, v0 = is_anomalous(_exp(vals, 1), RAMP_SIG, thr)
    f1, v1 = is_anomalous(_exp(alpha * vals + beta, 1), RAMP_SIG, thr)
    assert v1 == pytest.approx(v0, abs=1e-9)
    if abs(v0) > 1e-6:
        assert f0 == f1


def test_window_must_fit_the_grid():
    with pytest.raises(AlignmentError):
        is_anomalous(_exp(np.arange(12.0) + 1, 0), RAMP_SIG,
                     AnomalyThreshold(SimilarityMethod.PCC, 0.0))
    with pytest.raises(AlignmentError):
        is_anomalous(_exp(UP, 10), RAMP_SIG,
                     AnomalyThreshold(SimilarityMethod.PCC, 0.0))


# ------------------------------------------------------------- detect_events

def test_event_fixture_two_windows():
    flags = [(i, i < 3) for i in range(10)] + [(10 + i, i < 6) for i in range(10)]
    events = detect_events(flags, EventConfig(10, 5))
    assert events == [ChangePoint(19, 6, (10, 10))]


def test_no_events_on_all_false():
    flags = [(i, False) for i in range(40)]
    assert detect_events(flags, EventConfig(10, 2)) == []


def test_count_equal_to_threshold_is_not_an_event():
    flags = [(i, True) for i in range(5)]
    assert detect_events(flags, EventConfig(10, 5)) == []
    assert len(detect_events(flags, EventConfig(10, 4))) == 1


def test_flags_must_be_sorted_and_non_negative():
    with pytest.raises(ValueError):
        detect_events([(3, True), (1, False)], EventConfig(5, 1))
    with pytest.raises(ValueError):
        detect_events([(-1, True)], EventConfig(5, 1))


def _first_bad_flag(flags):
    """The error for the first flag that is negative or below the one
    before it, or None when every flag is in grid order."""
    for i, (idx, _) in enumerate(flags):
        if idx < 0:
            return "grid indices must be non-negative"
        if i and idx < flags[i - 1][0]:
            return "anomaly flags must be sorted by grid index"
    return None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 40), st.booleans()), max_size=40),
       st.booleans(), st.integers(1, 12), st.integers(1, 6))
def test_events_or_the_first_bad_flag_match_bruteforce(pairs, in_order, width, thresh):
    """One pass over a stream, as from a generator, gives the recount's
    events, or the error of the first flag out of range or order."""
    flags = sorted(pairs) if in_order else pairs
    config = EventConfig(width, thresh)
    error = _first_bad_flag(flags)
    if error is None:
        assert detect_events(iter(flags), config) == brute_events(flags, width, thresh)
    else:
        with pytest.raises(AlignmentError, match=f"^{error}$"):
            detect_events(iter(flags), config)


def test_events_match_bruteforce():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(1, 200))
        idx = np.sort(rng.integers(0, 150, size=n))
        flagged = rng.random(n) < 0.4
        flags = list(zip(idx.tolist(), flagged.tolist()))
        config = EventConfig(int(rng.integers(1, 20)), int(rng.integers(1, 6)))
        assert detect_events(flags, config) == brute_events(flags, config.window_length,
                                                           config.frequency_threshold)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 60), st.booleans()), max_size=80),
       st.integers(1, 12), st.integers(1, 8))
def test_raising_threshold_never_adds_events(pairs, width, thresh):
    flags = sorted(pairs)
    low = detect_events(flags, EventConfig(width, thresh))
    high = detect_events(flags, EventConfig(width, thresh + 1))
    assert len(high) <= len(low)
    assert {e.window for e in high} <= {e.window for e in low}


def test_event_config_validation():
    with pytest.raises(ValueError):
        EventConfig(0, 5)
    with pytest.raises(ValueError):
        EventConfig(5, 0)


# ------------------------------------------------------------------ flag CSV

def test_flag_round_trip(tmp_path):
    flags = [(0, True, 0.31), (4, False, 0.92), (4, True, 0.11)]
    path = tmp_path / "flags.csv"
    write_flags(flags, path)
    assert read_flags(path) == flags


@pytest.mark.parametrize("text", [
    "bogus header\n0,1,0.5\n",
    "index,flag,similarity\n0,2,0.5\n",
    "index,flag,similarity\n0,1\n",
    "index,flag,similarity\nx,1,0.5\n",
])
def test_flag_parse_errors(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ParseError):
        read_flags(path)
