"""Bit-for-bit parity of the hot-path primitives with plain numpy.

Verdicts sit on rounding ties (a spike pair can match its learned SNR
baseline exactly), so the per-pair primitives must reproduce the numpy
expressions they stand for to the last bit.  Each reference below is the
straightforward numpy form (``np.mean``, ``np.std``, ``np.nanargmax``,
separate cumulative sums); the program computes the same ufunc sequence
with fewer calls.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sigdrift._kernels import cusum_scan, deletion_pcc_scan
from sigdrift.core import population_std
from sigdrift.detect import _first_max
from sigdrift.errors import ConstantSeriesError
from sigdrift.noisegen import SnrValue, snr, snr_ratios
from sigdrift.similarity import pcc, rmse

FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


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
        return SnrValue.unbounded()
    ratio = float(np.mean(signal ** 2)) / denom
    return SnrValue.unbounded() if math.isinf(ratio) else SnrValue(ratio)


def _ref_deletion_pcc_scan(x, y, window):
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
    denom = np.sqrt(np.clip(varx, 0.0, None) * np.clip(vary, 0.0, None))
    out = np.full(n - window + 1, np.nan)
    ok = denom > 0.0
    out[ok] = num[ok] / denom[ok]
    np.clip(out, -1.0, 1.0, out=out)
    return out


def _ref_cusum_scan(z, slack, threshold):
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
@given(x=_rows(1))
def test_population_std_is_np_std(x):
    assert _same(population_std(x), float(np.std(x)))
    grid = np.stack([x, x[::-1] * 3.0])
    assert _same(population_std(grid), float(np.std(grid)))


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
