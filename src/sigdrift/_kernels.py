"""Numeric kernels for the detector inner loops, in plain numpy.

``tests/test_kernels.py`` pins both outputs bit for bit: verdicts that sit
on a threshold are decided by rounding, so summation order matters.  The
per-pair code here, in ``similarity``, ``noisegen`` and ``core`` cuts
numpy calls only in ways that keep every sum the same
(``tests/test_parity.py`` checks each against the plain numpy form):

- ``cumsum`` and ``ufunc.accumulate`` along an axis add in sequence, so
  one call on stacked rows equals one call per row.
- ``np.add.reduce(a, axis) / n`` is the ufunc sequence ``a.mean(axis)``
  runs (pairwise summation along a contiguous axis), without its Python
  wrapper; ``core._std`` does the same for ``a.std(axis)``.
- Not allowed until rounding-decided verdicts are handled explicitly:
  ``einsum``, and dot products reordered or moved off BLAS ``@``, which
  round differently.
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
    terms = np.empty((5, n))  # rows x0, y0, x0*x0, y0*y0, x0*y0
    xy0 = terms[:2]
    xy0[0] = x
    xy0[1] = y
    xy0 -= np.add.reduce(xy0, axis=1, keepdims=True) / n
    np.square(xy0, out=terms[2:4])
    np.multiply(xy0[0], xy0[1], out=terms[4])

    # Prefix sums of each row after a leading zero; then the sums left
    # over after deleting each block [w, w+window): sx, sy, sxx, syy, sxy.
    cs = np.zeros((5, n + 1))
    terms.cumsum(axis=1, out=cs[:, 1:])
    rest = np.subtract(cs[:, window:], cs[:, :-window])
    np.subtract(cs[:, -1:], rest, out=rest)

    m = n - window
    num = m * rest[4] - rest[0] * rest[1]
    var = m * rest[2:4] - rest[:2] * rest[:2]  # varx, vary
    var.clip(0.0, None, out=var)
    denom = np.sqrt(var[0] * var[1])
    out = np.full(n - window + 1, np.nan)
    np.divide(num, denom, out=out, where=denom > 0.0)
    out.clip(-1.0, 1.0, out=out)
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

    a = np.empty((2, z.size))  # the upper side's steps, then the lower's
    np.subtract(z, slack, out=a[0])
    np.subtract(-z, slack, out=a[1])
    s = np.zeros((2, z.size + 1))
    a.cumsum(axis=1, out=s[:, 1:])
    # Written over the steps: one large temporary fewer, which on long
    # rows is most of the cost.
    sides = np.subtract(s[:, 1:], np.minimum.accumulate(s, axis=1)[:, 1:], out=a)
    crossed = (sides > threshold).any(axis=0)
    alarm = int(crossed.argmax())
    if not crossed[alarm]:
        alarm = -1
    max_pos, max_neg = sides.max(axis=1).tolist()
    return max_pos, max_neg, alarm
