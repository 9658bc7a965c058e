"""Numeric kernels for the detector inner loops, in plain numpy.

``tests/test_kernels.py`` pins both outputs bit for bit: verdicts that sit
on a threshold are decided by rounding, so summation order matters.
"""
from __future__ import annotations

import numpy as np

# Kept for reports and benchmarks that record which kernels ran.
backend = "python"


def deletion_pcc_scan(x: np.ndarray, y: np.ndarray, window: int) -> np.ndarray:
    """Pearson correlation of x and y after deleting each length-`window` block.

    For every start position w in 0..n-window the points [w, w+window) are
    removed from both series and the correlation of the remainder is
    computed.  Returns an array of length n-window+1; entries where the
    remainder is constant in either series are NaN.

    Uses prefix sums, so the whole scan is O(n) instead of the naive
    O(n * window).
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    n = x.size
    if y.size != n:
        raise ValueError("series must have equal length")
    if not 1 <= window < n - 1:
        raise ValueError("window must leave at least two points behind")

    # Centering by the global means keeps the running sums small and the
    # variance subtraction below well conditioned.
    x0 = x - x.mean()
    y0 = y - y.mean()

    zeros = np.zeros(1)
    csx = np.concatenate([zeros, np.cumsum(x0)])
    csy = np.concatenate([zeros, np.cumsum(y0)])
    csxx = np.concatenate([zeros, np.cumsum(x0 * x0)])
    csyy = np.concatenate([zeros, np.cumsum(y0 * y0)])
    csxy = np.concatenate([zeros, np.cumsum(x0 * y0)])

    # Sums over each deletion block [w, w+window).
    wsx = csx[window:] - csx[:-window]
    wsy = csy[window:] - csy[:-window]
    wsxx = csxx[window:] - csxx[:-window]
    wsyy = csyy[window:] - csyy[:-window]
    wsxy = csxy[window:] - csxy[:-window]

    m = n - window
    sx = csx[-1] - wsx
    sy = csy[-1] - wsy
    sxx = csxx[-1] - wsxx
    syy = csyy[-1] - wsyy
    sxy = csxy[-1] - wsxy

    num = m * sxy - sx * sy
    varx = m * sxx - sx * sx
    vary = m * syy - sy * sy
    denom = np.sqrt(np.clip(varx, 0.0, None) * np.clip(vary, 0.0, None))
    out = np.full(n - window + 1, np.nan)
    ok = denom > 0.0
    out[ok] = num[ok] / denom[ok]
    np.clip(out, -1.0, 1.0, out=out)
    return out


def cusum_scan(z: np.ndarray, slack: float, threshold: float):
    """Two-sided CUSUM over standardized deviations z.

    Returns ``(max_pos, max_neg, alarm_index)`` where the maxima are the
    largest values reached by the upper and lower sums

        C+_t = max(0, C+_{t-1} + z_t - slack)
        C-_t = max(0, C-_{t-1} - z_t - slack)

    and alarm_index is the first t with C+_t > threshold or
    C-_t > threshold (strict), or -1 when neither side ever crosses.

    The recursion max(0, prev + a_t) equals S_t - min(S_0..S_t) with
    S the running sum of a, which is what lets numpy do this without a
    Python-level loop.
    """
    z = np.ascontiguousarray(z, dtype=np.float64)
    if z.size == 0:
        return 0.0, 0.0, -1

    def one_side(a: np.ndarray) -> np.ndarray:
        s = np.concatenate([[0.0], np.cumsum(a)])
        running_min = np.minimum.accumulate(s)
        return s[1:] - running_min[1:]

    pos = one_side(z - slack)
    neg = one_side(-z - slack)
    crossed = (pos > threshold) | (neg > threshold)
    alarm = int(np.argmax(crossed)) if crossed.any() else -1
    return float(pos.max()), float(neg.max()), alarm
