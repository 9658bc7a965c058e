"""Bit-for-bit parity of the hot-path primitives with plain numpy.

Verdicts sit on rounding ties (a spike pair can match its learned SNR
baseline exactly), so the per-pair primitives must reproduce the numpy
expressions they stand for to the last bit.  Each reference below is the
straightforward numpy form (``np.mean``, ``np.std``, ``np.nanargmax``,
separate cumulative sums); the program computes the same ufunc sequence
with fewer calls.

The detectors keep the existing signature's half of the deletion scan
and its segment mean squares in ``Signature.memo``; the tests at the end
check that an outcome does not depend on whether that memo was warm.
"""
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sigdrift._kernels import (cusum_scan, deletion_pcc_scan, deletion_scan_base,
                               deletion_scan_finish)
from sigdrift.config import DetectorThresholds
from sigdrift.detect import _first_max, cusum_detect, sliding_window_detect, snr_detect
from sigdrift.errors import ConstantSeriesError
from sigdrift.noisegen import SnrValue, profile_from_ratios, snr, snr_ratios
from sigdrift.similarity import pcc, rmse
from test_metamorphic import _edited, _pair, _sig

FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
# Values on which fmin and minimum, or a packed and a separate sum, could
# part: zeros of both signs, NaN, infinities, and exact small numbers.
SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 0.5, -0.5, 1.0])
# Few distinct values, so scans meet constant runs and exact ties.
STEPS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0])


def _rows(min_len, max_len=200):
    return hnp.arrays(np.float64, st.integers(min_len, max_len), elements=FINITE)


def _same(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


# ----------------------------------------------------------- references

def _ref_pcc(x, y):
    dx = x - x.mean()
    dy = y - y.mean()
    denom = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if denom <= 0.0:
        return None
    return float(min(1.0, max(-1.0, float(dx @ dy) / denom)))


def _ref_rmse(x, y):
    return float(np.sqrt(np.mean((x - y) ** 2)))


def _ref_snr(signal, noise):
    """Unbounded when the noise mean square is zero or the ratio overflows."""
    denom = float(np.mean(noise ** 2))
    if denom <= 0.0:
        return SnrValue(math.inf)
    ratio = float(np.mean(signal ** 2)) / denom
    return SnrValue(math.inf) if math.isinf(ratio) else SnrValue(ratio)


def _ref_direct_pcc(x, y, start, window):
    a = np.delete(x, np.s_[start:start + window])
    b = np.delete(y, np.s_[start:start + window])
    if np.all(a == a[0]) or np.all(b == b[0]):
        return math.nan
    a = a - a.mean()
    b = b - b.mean()
    norm = math.sqrt((a * a).sum()) * math.sqrt((b * b).sum())
    if not norm > 0.0:
        return math.nan
    return min(1.0, max(-1.0, float((a * b).sum()) / norm))


def _ref_deletion_pcc_scan(x, y, window):
    """Remainder sums as whole-row sum less window sum, except at windows
    where a remainder's variance term falls below 1e-6 of m times its
    row's whole sum of squares: there that subtraction cancels, so the
    window is taken directly from the raw rows."""
    n = x.size
    x0 = x - x.mean()
    y0 = y - y.mean()
    zeros = np.zeros(1)
    cs = [np.concatenate([zeros, np.cumsum(a)])
          for a in (x0, y0, x0 * x0, y0 * y0, x0 * y0)]
    sx, sy, sxx, syy, sxy = (c[-1] - (c[window:] - c[:-window]) for c in cs)
    m = n - window
    num = m * sxy - sx * sy
    varx = m * sxx - sx * sx
    vary = m * syy - sy * sy
    cancelled = (varx < 1e-6 * m * cs[2][-1]) | (vary < 1e-6 * m * cs[3][-1])
    denom = np.sqrt(np.clip(varx, 0.0, None) * np.clip(vary, 0.0, None))
    out = np.full(n - window + 1, np.nan)
    ok = denom > 0.0
    out[ok] = num[ok] / denom[ok]
    np.clip(out, -1.0, 1.0, out=out)
    for start in np.flatnonzero(cancelled):
        out[start] = _ref_direct_pcc(x, y, start, window)
    return out


def _ref_cusum_scan(z, slack, threshold):
    """Each side on its own, running minimum by ``np.minimum.accumulate``."""
    def one_side(a):
        s = np.concatenate([[0.0], np.cumsum(a)])
        return s[1:] - np.minimum.accumulate(s)[1:]
    pos = one_side(z - slack)
    neg = one_side(-z - slack)
    crossed = (pos > threshold) | (neg > threshold)
    alarm = int(np.argmax(crossed)) if crossed.any() else -1
    return float(pos.max()), float(neg.max()), alarm


def _bits(snrs):
    """The exact bits of a list of SnrValues."""
    return [(v.infinite, v.ratio.hex()) for v in snrs()]


# ---------------------------------------------------------------- tests

@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 400))
def test_pcc_and_rmse_match_the_numpy_formulas(data, n):
    x = data.draw(hnp.arrays(np.float64, n, elements=FINITE))
    y = data.draw(hnp.arrays(np.float64, n, elements=FINITE))
    assert _same(rmse(x, y), _ref_rmse(x, y))
    want = _ref_pcc(x, y)
    if want is None:
        with pytest.raises(ConstantSeriesError):
            pcc(x, y)
    else:
        assert _same(pcc(x, y), want)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), rows=st.sampled_from([1, 3]),
       segments=st.sampled_from([1, 2, 3, 6, 12]), seg_len=st.integers(2, 40),
       zero_segment=st.integers(-1, 11))
def test_snr_ratios_match_snr_of_each_column_block(data, rows, segments, seg_len,
                                                     zero_segment):
    shape = (rows, segments * seg_len)
    signal = data.draw(hnp.arrays(np.float64, shape, elements=FINITE))
    noise = data.draw(hnp.arrays(np.float64, shape, elements=FINITE))
    if zero_segment < segments:  # an all-zero noise segment is unbounded
        noise[:, zero_segment * seg_len:(zero_segment + 1) * seg_len] = 0.0
    want = _bits(lambda: [_ref_snr(signal[:, a:a + seg_len], noise[:, a:a + seg_len])
                          for a in range(0, shape[1], seg_len)])
    assert _bits(lambda: map(SnrValue, snr_ratios(signal, noise, segments).tolist())) == want
    assert _bits(lambda: [snr(signal, noise)]) == _bits(lambda: [_ref_snr(signal, noise)])


@settings(max_examples=300, deadline=None)
@given(scan=hnp.arrays(np.float64, st.integers(1, 60),
                       elements=st.sampled_from([np.nan, -1.0, -0.25, 0.0, 0.5,
                                                 0.61, 0.61, 1.0])),
       lead=st.integers(0, 5))
def test_first_max_is_nanargmax(scan, lead):
    scan = np.concatenate([np.full(lead, np.nan), scan])  # leading NaNs
    start, best = _first_max(scan)
    if np.isnan(scan).all():
        assert start == -1 and math.isnan(best)
    else:
        assert start == int(np.nanargmax(scan))
        assert best == float(scan[start])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(4, 400), window=st.integers(1, 12))
def test_deletion_scan_matches_separate_prefix_sums(data, n, window):
    window = min(window, n - 2)
    x = data.draw(hnp.arrays(np.float64, n, elements=FINITE))
    y = x + data.draw(hnp.arrays(np.float64, n, elements=FINITE))
    assert _same(deletion_pcc_scan(x, y, window), _ref_deletion_pcc_scan(x, y, window))


@settings(max_examples=150, deadline=None)
@given(z=_rows(1, 400), slack=st.floats(0.0, 2.0), threshold=st.floats(0.5, 20.0))
def test_cusum_scan_matches_one_side_at_a_time(z, slack, threshold):
    assert repr(cusum_scan(z / 1e5, slack, threshold)) == \
        repr(_ref_cusum_scan(z / 1e5, slack, threshold))


@settings(max_examples=300, deadline=None)
@given(z=hnp.arrays(np.float64, st.integers(1, 60), elements=st.one_of(SPECIAL, FINITE)),
       slack=st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 2.0)),
       threshold=st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-1.0, 20.0)))
def test_cusum_scan_matches_on_zeros_nan_and_infinities(z, slack, threshold):
    with np.errstate(all="ignore"):
        assert repr(cusum_scan(z, slack, threshold)) == \
            repr(_ref_cusum_scan(z, slack, threshold))


def test_cusum_scan_keeps_positive_zero_maxima():
    # fmin.accumulate leaves a -0.0 side here; minimum.accumulate does not.
    assert repr(cusum_scan(np.array([0.0]), 0.0, 1.0)) == "(0.0, 0.0, -1)"
    assert repr(cusum_scan(np.array([-0.0, 0.0]), 0.0, 1.0)) == \
        repr(_ref_cusum_scan(np.array([-0.0, 0.0]), 0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(4, 120), window=st.integers(1, 12))
def test_deletion_scan_matches_on_constant_runs_and_ties(data, n, window):
    window = min(window, n - 2)
    x = data.draw(hnp.arrays(np.float64, n, elements=STEPS))
    y = data.draw(hnp.arrays(np.float64, n, elements=STEPS))
    assert _same(deletion_pcc_scan(x, y, window), _ref_deletion_pcc_scan(x, y, window))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(4, 120), window=st.integers(1, 12),
       elements=st.sampled_from([FINITE, STEPS, st.one_of(SPECIAL, FINITE)]))
def test_one_scan_base_serves_every_y_as_the_whole_scan_does(data, n, window, elements):
    window = min(window, n - 2)
    x = data.draw(hnp.arrays(np.float64, n, elements=elements))
    ys = [data.draw(hnp.arrays(np.float64, n, elements=elements)) for _ in range(3)]
    with np.errstate(all="ignore"):
        base = deletion_scan_base(x, window)
        for y in ys:
            assert _same(deletion_scan_finish(base, y),
                         _ref_deletion_pcc_scan(x, y, window))


SEGMENT_COUNTS = (2, 3)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(2, 40))
def test_a_warm_memo_gives_the_outcomes_of_a_fresh_existing(data, k):
    length = 6 * k  # splits into either segment count
    existing_m, first = data.draw(_pair(st.just(length)))
    recomputed = [first] + [np.stack([data.draw(_edited(row)) for row in existing_m])
                            for _ in range(2)]
    windows = data.draw(st.lists(st.integers(1, min(12, length - 2)),
                                 min_size=2, max_size=2, unique=True))
    factor = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
    calls = [(sliding_window_detect, DetectorThresholds(scan_window=w)) for w in windows]
    for segments in SEGMENT_COUNTS:
        own = snr_ratios(existing_m, existing_m - first, segments)
        profile = profile_from_ratios(own * factor, length // segments)
        calls.append((snr_detect, profile))
    calls.append((cusum_detect,))

    existing = _sig(existing_m)
    for rec in map(_sig, recomputed):  # warm the memo
        for fn, *args in calls:
            fn(existing, rec, *args)
    assert {("snr", s) for s in SEGMENT_COUNTS} <= set(existing.memo)
    copied = pickle.loads(pickle.dumps(existing))
    assert existing == _sig(existing_m) and copied == existing
    for rec in map(_sig, recomputed):
        for fn, *args in calls:
            want = repr(fn(_sig(existing_m), rec, *args))
            assert repr(fn(existing, rec, *args)) == want
            assert repr(fn(copied, rec, *args)) == want
        assert "memo" not in vars(rec)
