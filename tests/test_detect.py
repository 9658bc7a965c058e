import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sigdrift.detect import (DetectorThresholds, Verdict, cusum_detect,
                             sliding_window_detect, snr_detect)
from sigdrift.errors import AlignmentError
from sigdrift.noisegen import (AttenuationNoise, DistortionNoise, NoiseProfile,
                               SnrValue, SpikeNoise, inject,
                               learn_noise_profile)
from sigdrift.similarity import pcc

from conftest import direct_deletion_pcc, raw_signature, unit_signature, wavy_row

TH = DetectorThresholds()


@pytest.fixture
def ex():
    return unit_signature(wavy_row(360, seed=3))


def test_threshold_validation():
    with pytest.raises(ValueError):
        DetectorThresholds(similarity_floor=1.5)
    with pytest.raises(ValueError):
        DetectorThresholds(distance_ceiling=-0.1)
    with pytest.raises(ValueError):
        DetectorThresholds(distance_ceiling=0.6, attenuation_ceiling=0.5)
    with pytest.raises(ValueError):
        DetectorThresholds(scan_window=0)
    assert TH.similarity_floor == 0.60
    assert TH.distance_ceiling == 0.20
    assert TH.attenuation_ceiling == 0.50
    assert TH.scan_window == 6


# ------------------------------------------------------------ sliding window

def test_sw_identical_is_no_change(ex):
    out = sliding_window_detect(ex, ex, TH)
    assert out.verdict is Verdict.NO_CHANGE
    d = out.rows[0].diagnostics
    assert d["pcc"] == 1.0 and d["rmse"] == 0.0


def test_sw_attenuation_branch():
    # mean-shifted row so 0.8x lands between the two distance thresholds:
    # rmse = 0.2 * rms(row) = 0.2 * sqrt(1 + 1.5^2) ~ 0.36
    shifted = unit_signature(wavy_row(360, seed=3, mean=1.5))
    att = inject(shifted, AttenuationNoise(0.8), seed=0)
    out = sliding_window_detect(shifted, att, TH)
    assert out.verdict is Verdict.NOISE
    assert out.noise_kind == "attenuation"
    d = out.rows[0].diagnostics
    assert d["pcc"] == pytest.approx(1.0, abs=1e-12)
    assert d["rmse"] == pytest.approx(0.2 * np.sqrt(1 + 1.5 ** 2), abs=1e-9)


def test_sw_spike_branch_recovers_window():
    base = unit_signature(wavy_row(60, seed=4))
    noisy = inject(base, SpikeNoise(position=30, width=3, magnitude=9.0), seed=0)
    out = sliding_window_detect(base, noisy, TH)
    assert out.verdict is Verdict.NOISE
    assert out.noise_kind == "spike"
    d = out.rows[0].diagnostics
    assert d["pcc"] < TH.similarity_floor
    assert d["best_window_pcc"] >= TH.similarity_floor
    start = d["removed_window_start"]
    # deleted window [start, start+6) must cover part of the spike [30, 33)
    assert start < 33 and start + TH.scan_window > 30


def test_sw_change_branch_on_mirrored_segment(ex):
    mixed = ex.matrix[0].copy()
    mixed[180:270] = -mixed[180:270]
    out = sliding_window_detect(ex, raw_signature(mixed), TH)
    assert out.verdict is Verdict.CHANGE
    d = out.rows[0].diagnostics
    assert d["pcc"] < TH.similarity_floor
    assert d["best_window_pcc"] < TH.similarity_floor


def test_sw_scan_window_bound(ex):
    short = unit_signature(wavy_row(8))
    with pytest.raises(ValueError):
        sliding_window_detect(short, short, DetectorThresholds(scan_window=7))


def test_sw_scan_matches_bruteforce_deletion(ex):
    from sigdrift._kernels import deletion_pcc_scan

    rng = np.random.default_rng(12)
    x = rng.normal(size=80)
    y = x + rng.normal(scale=0.6, size=80)
    scan = deletion_pcc_scan(x, y, 6)
    assert scan.shape == (75,)
    for start in range(0, 75, 7):
        assert scan[start] == pytest.approx(direct_deletion_pcc(x, y, start, 6), abs=1e-9)


@pytest.mark.parametrize("height", [1e8, 2e8, 1e9, 1e10, 1e100])
def test_sw_scan_matches_the_direct_deletion_at_a_huge_spike(height):
    """The spike windows hold nearly all of the row's deviation from its
    mean.  Formed as total - window, their remainders read 0.93 at 2e8
    and NaN from 1e9 on, where the remainder's PCC is 1.0."""
    from sigdrift._kernels import deletion_pcc_scan
    from sigdrift.core import Signature
    from sigdrift.datagen import build_base_signatures

    existing = build_base_signatures(seed=42)[0]
    x = existing.matrix[0]
    y = x.copy()
    y[100:103] += height
    window = TH.scan_window
    direct = [direct_deletion_pcc(x, y, start, window) for start in range(x.size - window + 1)]
    np.testing.assert_allclose(deletion_pcc_scan(x, y, window), direct, rtol=0, atol=1e-9)
    np.testing.assert_allclose(deletion_pcc_scan(y, x, window), direct, rtol=0, atol=1e-9)
    outcome = sliding_window_detect(existing, Signature(existing.parameters, y[None, :],
                                                        existing.provider_id))
    assert (outcome.verdict, outcome.noise_kind) == (Verdict.NOISE, SpikeNoise.kind)


@st.composite
def _mixed_scale_rows(draw):
    """Two O(1) rows, one of them with up to four cells set to
    ±10**k for k up to 100, in either order, and a scan window they admit."""
    n = draw(st.integers(8, 400))
    thousandths = st.integers(-10_000, 10_000).map(lambda i: i / 1000)
    small = hnp.arrays(np.float64, n, elements=thousandths)
    plain, spiked = draw(small), draw(small)
    for cell in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)):
        spiked[cell] = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(0, 100))
    window = draw(st.integers(1, min(12, n - 2)))
    return (plain, spiked, window) if draw(st.booleans()) else (spiked, plain, window)


@settings(max_examples=300, deadline=None)
@given(rows=_mixed_scale_rows())
def test_deletion_scan_matches_the_direct_deletion_on_mixed_scale_rows(rows):
    """Away from the windows it takes directly, the scan keeps each
    variance term's rounding below about 1e6 rounding units of it."""
    from sigdrift._kernels import deletion_pcc_scan

    x, y, window = rows
    direct = [direct_deletion_pcc(x, y, start, window) for start in range(x.size - window + 1)]
    np.testing.assert_allclose(deletion_pcc_scan(x, y, window), direct, rtol=0, atol=1e-6)


def _sine_and_ripple():
    """A 360-point sine row and a copy of it with a 0.01 ripple."""
    t = np.arange(360)
    x = np.sin(2 * np.pi * t / 60)
    return x, x + 0.01 * np.cos(2 * np.pi * t / 17)


def _fsum_pcc(x, y):
    """PCC with exact sums and two roots."""
    mx, my = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx, dy = [v - mx for v in x], [v - my for v in y]
    return (math.fsum(a * b for a, b in zip(dx, dy))
            / (math.sqrt(math.fsum(a * a for a in dx)) * math.sqrt(math.fsum(b * b for b in dy))))


def test_pcc_of_two_rows_with_a_cell_near_1e100():
    """The product of the two sums of squares overflows: its root read
    inf, so pcc read 0.0 and sw scanned the windows of a near copy."""
    x, y = _sine_and_ripple()
    x[100] = y[100] = 1e100
    assert pcc(x, y) == pytest.approx(_fsum_pcc(x, y), abs=1e-9)
    assert sliding_window_detect(raw_signature(x), raw_signature(y)).verdict is Verdict.NO_CHANGE


def test_deletion_scan_of_two_rows_with_cells_near_1e100():
    """Every window that keeps both spikes multiplies two variance terms
    of about 3.5e202, whose product passes the largest double."""
    from sigdrift._kernels import deletion_pcc_scan

    x, y = _sine_and_ripple()
    x[100] = y[200] = 1e100
    window = TH.scan_window
    direct = [direct_deletion_pcc(x, y, start, window) for start in range(x.size - window + 1)]
    np.testing.assert_allclose(deletion_pcc_scan(x, y, window), direct, rtol=0, atol=1e-9)


def test_deletion_scan_reads_nan_where_the_remainders_squares_underflow():
    """Deleting the spike leaves a 1e-200 ripple whose squares are 0.0,
    so `pcc` of the remainders raises ConstantSeriesError: the scan reads
    NaN at the three spike windows, with no exception and no warning."""
    from sigdrift._kernels import deletion_pcc_scan

    x = 1e-200 * np.cos(np.arange(60.0))
    x[30] = 1.0
    y = x.copy()
    y[30] = 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scan = deletion_pcc_scan(x, y, 3)
    assert np.isnan(scan).nonzero()[0].tolist() == [28, 29, 30]


def test_sw_multi_row_aggregation(ex):
    quiet = wavy_row(360, seed=3)
    mixed = quiet.copy()
    mixed[180:270] = -mixed[180:270]
    two = unit_signature(np.vstack([quiet, quiet]), parameters=["a", "b"])
    suspect = raw_signature(np.vstack([quiet, mixed]), parameters=["a", "b"])
    out = sliding_window_detect(two, suspect, TH)
    assert out.verdict is Verdict.CHANGE  # any changed row wins
    assert [r.verdict for r in out.rows] == [Verdict.NO_CHANGE, Verdict.CHANGE]


def test_sw_change_row_outranks_an_earlier_noise_row():
    quiet = wavy_row(360, seed=3)
    mixed = quiet.copy()
    mixed[180:270] = -mixed[180:270]
    two = unit_signature(np.vstack([wavy_row(360, seed=3, mean=1.5), quiet]),
                         parameters=["a", "b"])
    # row a: 0.8x damping lands in the attenuation band; row b: mirrored segment
    suspect = raw_signature(np.vstack([0.8 * two.matrix[0], mixed]), parameters=["a", "b"])
    out = sliding_window_detect(two, suspect, TH)
    assert [(r.verdict, r.noise_kind) for r in out.rows] == [
        (Verdict.NOISE, "attenuation"), (Verdict.CHANGE, None)]
    assert out.verdict is Verdict.CHANGE
    assert out.noise_kind is None
    assert out.diagnostics == out.rows[1].diagnostics


def test_sw_pair_checks(ex):
    other = unit_signature(wavy_row(100))
    with pytest.raises(AlignmentError):
        sliding_window_detect(ex, other, TH)
    renamed = unit_signature(wavy_row(360, seed=3), parameters=["different"])
    with pytest.raises(AlignmentError):
        sliding_window_detect(ex, renamed, TH)


# -------------------------------------------------------------------- cusum

def test_cusum_identical_is_quiet(ex):
    out = cusum_detect(ex, ex)
    assert out.verdict is Verdict.NO_CHANGE
    d = out.rows[0].diagnostics
    assert d["cusum_max_pos"] == 0.0
    assert d["cusum_max_neg"] == 0.0
    assert d["alarm_index"] == -1


def test_cusum_step_alarms_fast(ex):
    # +2 std from index 180: drift (2 - 0.5) per step crosses h=5 in 4 steps
    stepped = ex.matrix[0].copy()
    stepped[180:] += 2.0
    out = cusum_detect(ex, raw_signature(stepped))
    assert out.verdict is Verdict.CHANGE
    assert out.rows[0].diagnostics["alarm_index"] == 183


def test_cusum_cannot_discount_a_spike(ex):
    spiked = ex.matrix[0].copy()
    spiked[100:103] += 5.0
    out = cusum_detect(ex, raw_signature(spiked))
    # (5 - 0.5) * 3 = 13.5 accumulates past h=5: the expected false alarm
    assert out.verdict is Verdict.CHANGE
    d = out.rows[0].diagnostics
    assert d["cusum_max_pos"] == 13.5
    assert d["alarm_index"] == 101


def test_cusum_threshold_is_strict(ex):
    nudged = ex.matrix[0].copy()
    nudged[50:55] += 1.5  # five steps of (1.5 - 0.5) reach exactly 5.0
    out = cusum_detect(ex, raw_signature(nudged))
    assert out.verdict is Verdict.NO_CHANGE
    assert out.rows[0].diagnostics["cusum_max_pos"] == 5.0
    assert out.rows[0].diagnostics["alarm_index"] == -1


def test_cusum_negative_drift_alarms(ex):
    dropped = ex.matrix[0].copy()
    dropped[200:] -= 2.0
    out = cusum_detect(ex, raw_signature(dropped))
    assert out.verdict is Verdict.CHANGE
    d = out.rows[0].diagnostics
    assert d["cusum_max_neg"] > 5.0
    assert d["alarm_index"] == 203


def test_cusum_fires_on_mild_attenuation_where_sw_stays_calm():
    # sustained scale loss reads as drift to cusum but as noise to the
    # similarity tree: the disagreement the benchmark is built around
    sw_change = cusum_change = 0
    for seed in range(10):
        base = unit_signature(wavy_row(360, seed=seed, mean=11.0))
        factor = 0.9 + 0.004 * seed
        noisy = inject(base, AttenuationNoise(factor), seed=seed)
        if sliding_window_detect(base, noisy, TH).verdict is Verdict.CHANGE:
            sw_change += 1
        if cusum_detect(base, noisy).verdict is Verdict.CHANGE:
            cusum_change += 1
    assert cusum_change > sw_change
    assert cusum_change == 10 and sw_change == 0


# ---------------------------------------------------------------------- snr

def _flat_profile(ratio, segments=6, seg_len=60):
    return NoiseProfile(tuple(SnrValue(ratio) for _ in range(segments)), seg_len)


def test_snr_zero_residual_is_no_change(ex):
    out = snr_detect(ex, ex, _flat_profile(100.0))
    assert out.verdict is Verdict.NO_CHANGE
    assert out.diagnostics["violated_segment"] == -1
    assert out.diagnostics["snr_current"] == [np.inf] * 6
    assert out.to_dict()["diagnostics"]["snr_current"] == [None] * 6


def test_snr_flags_the_noisy_segment(ex):
    # alternating residual sized for a current ratio of exactly 50 in
    # segment 2, against a learned floor of 100
    values = ex.matrix[0].copy()
    seg = slice(120, 180)
    amp = np.sqrt(np.mean(values[seg] ** 2) / 50.0)
    values[seg] += amp * np.tile([1.0, -1.0], 30)
    out = snr_detect(ex, raw_signature(values), _flat_profile(100.0))
    assert out.verdict is Verdict.CHANGE
    assert out.diagnostics["violated_segment"] == 2
    assert out.diagnostics["snr_current"][2] == pytest.approx(50.0, abs=1e-9)


def test_snr_rejects_a_profile_that_leaves_grid_points_unchecked():
    # 6 segments of 60 cover 360 of 365 points; a +50-std shift in the last
    # 5 is a change that cusum sees and snr must not pass as "no change"
    ex = unit_signature(wavy_row(365, seed=3))
    values = ex.matrix[0].copy()
    values[360:] += 50.0
    rec = raw_signature(values)
    assert cusum_detect(ex, rec).verdict is Verdict.CHANGE
    with pytest.raises(AlignmentError, match="covers 360 points, the grid 365"):
        snr_detect(ex, rec, _flat_profile(100.0))


def test_snr_equal_baseline_is_not_a_change(ex):
    noisy = inject(ex, DistortionNoise(20.0), seed=3)
    learned = learn_noise_profile(ex, noisy, 6)
    # the baseline was learned from this exact pair: strictly-below never holds
    assert snr_detect(ex, noisy, learned).verdict is Verdict.NO_CHANGE


def test_snr_scale_invariance(ex):
    noisy = inject(ex, DistortionNoise(18.0), seed=3)
    base_verdict = snr_detect(ex, noisy, learn_noise_profile(ex, noisy, 6)).verdict

    alpha = 3.7
    ex_s = raw_signature(alpha * ex.matrix[0])
    noisy_s = raw_signature(alpha * noisy.matrix[0])
    scaled_verdict = snr_detect(
        ex_s, noisy_s, learn_noise_profile(ex_s, noisy_s, 6)).verdict
    assert scaled_verdict is base_verdict


def test_snr_overflowing_current_ratio_is_unbounded():
    # residual [0, 5.18e-153]: the ratio overflows, and an unbounded SNR
    # is never below a baseline
    ex = raw_signature([99.0, 0.0])
    rec = raw_signature([99.0, -5.18e-153])
    out = snr_detect(ex, rec, NoiseProfile((SnrValue(100.0),), 2))
    assert out.verdict is Verdict.NO_CHANGE
    assert out.diagnostics["snr_current"] == [np.inf]
    assert out.to_dict()["diagnostics"]["snr_current"] == [None]


def test_snr_profile_must_fit_grid(ex):
    with pytest.raises(AlignmentError):
        snr_detect(ex, ex, _flat_profile(100.0, segments=7, seg_len=60))


# ----------------------------------------------------------------- outcomes

def test_outcome_serialization(ex):
    mixed = ex.matrix[0].copy()
    mixed[180:270] = -mixed[180:270]
    out = sliding_window_detect(ex, raw_signature(mixed), TH)
    payload = out.to_dict()
    assert payload["verdict"] == "change"
    assert payload["noise_kind"] is None
    assert payload["diagnostics"]["rows"][0]["parameter"] == "q0"


def test_nan_diagnostics_serialize_as_null(ex):
    # all the variation sits inside every deletion window, so each
    # remainder is constant and the whole scan is NaN
    x = np.zeros(8)
    x[3:5] = [3.0, -3.0]
    y = np.zeros(8)
    y[3:5] = [-3.0, 3.0]
    out = sliding_window_detect(raw_signature(x), raw_signature(y),
                                DetectorThresholds(scan_window=6))
    payload = out.to_dict()
    row = payload["diagnostics"]["rows"][0]
    assert row["best_window_pcc"] is None
    assert row["removed_window_start"] == -1
    assert row["verdict"] == "change"


@pytest.mark.parametrize("detect", [
    lambda ex, rec: sliding_window_detect(ex, rec, TH),
    lambda ex, rec: snr_detect(ex, rec, _flat_profile(100.0)),
    cusum_detect,
])
def test_every_detector_rejects_a_misaligned_pair_alike(ex, detect):
    # a 100-point pair also misfits the profile: the pair check comes first
    for other, got in ((unit_signature(wavy_row(100)), "('q0',) on 100"),
                       (unit_signature(wavy_row(360, seed=3), parameters=["different"]),
                        "('different',) on 360")):
        message = ("signatures must share grid and parameters: existing ('q0',) on 360 "
                   f"points, recomputed {got} points")
        with pytest.raises(AlignmentError, match=f"^{re.escape(message)}$"):
            detect(ex, other)
