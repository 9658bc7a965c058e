"""Numeric kernels for the detector inner loops, in plain numpy.

``tests/test_kernels.py`` pins both outputs bit for bit: verdicts that sit
on a threshold are decided by rounding, so summation order matters.  The
per-pair code here, in ``similarity`` and in ``noisegen`` cuts numpy
calls only in ways that keep every sum the same (``tests/test_parity.py``
checks each against the plain numpy form):

- ``cumsum`` and ``ufunc.accumulate`` along an axis add in sequence, so
  one call on stacked rows equals one call per row.
- A ``complex128`` cumsum adds the real parts in sequence and the
  imaginary parts in sequence (a complex add is one IEEE add per part),
  so two float series packed as the parts of one complex series get the
  same prefix sums as two real cumsums, at the cost of one chain.
  Subtracting complex values is likewise exact per part; multiplying
  them is not, so products are taken on the float view.
- ``np.add.reduce(a, axis) / n`` is the ufunc sequence ``a.mean(axis)``
  runs (pairwise summation along a contiguous axis), without its Python
  wrapper.
- For S - min(S_0..S_t), ``fmin.accumulate`` gives what
  ``minimum.accumulate`` gives, up to the sign of a zero: the two differ
  only on NaN (S stays NaN from its first NaN on, so the difference is
  NaN at the same places) and on which of 0.0 and -0.0 a tie keeps.  A
  -0.0 difference compares like 0.0, and adding 0.0 to a maximum turns
  it back into the 0.0 that ``minimum.accumulate`` yields.
- ``np.maximum``/``np.minimum`` clamp exactly as ``ndarray.clip`` does,
  NaN included, without its Python wrapper.
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

    # Five series in three complex rows, x0|y0, x0*x0|y0*y0 and x0*y0|0,
    # each after a leading zero.  Centering by the global means keeps the
    # running sums small and the variance subtraction below well
    # conditioned.
    terms = np.zeros((3, n + 1, 2))
    xy0 = terms[0, 1:]
    np.subtract(x, np.add.reduce(x) / n, out=xy0[:, 0])
    np.subtract(y, np.add.reduce(y) / n, out=xy0[:, 1])
    np.square(xy0, out=terms[1, 1:])
    np.multiply(xy0[:, 0], xy0[:, 1], out=terms[2, 1:, 0])

    # Prefix sums, then the sums left over after deleting each block
    # [w, w+window): sx|sy, sxx|syy, sxy|0.
    cs = terms.view(np.complex128)[..., 0]
    np.cumsum(cs[:, 1:], axis=1, out=cs[:, 1:])
    rest = np.subtract(cs[:, window:], cs[:, :-window])
    np.subtract(cs[:, -1:], rest, out=rest)
    sums = rest.view(np.float64).reshape(3, -1, 2)

    m = n - window
    num = m * sums[2, :, 0] - sums[0, :, 0] * sums[0, :, 1]
    var = m * sums[1] - sums[0] * sums[0]  # varx|vary
    np.maximum(var, 0.0, out=var)
    denom = np.sqrt(var[:, 0] * var[:, 1])
    out = np.full(n - window + 1, np.nan)
    np.divide(num, denom, out=out, where=denom > 0.0)
    np.minimum(np.maximum(out, -1.0, out=out), 1.0, out=out)
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

    # Row t+1 holds the upper and lower side's step t (-slack - z is
    # -z - slack to the bit), row 0 the zero each sum starts from; one
    # complex cumsum runs both sums.
    s = np.zeros((z.size + 1, 2))
    np.subtract(z, slack, out=s[1:, 0])
    np.subtract(-slack, z, out=s[1:, 1])
    pairs = s.view(np.complex128)[1:, 0]
    np.cumsum(pairs, out=pairs)
    low = np.fmin.accumulate(s, axis=0)
    sides = np.subtract(s, low, out=low)[1:]
    # One uint16 per row of bools: non-zero when either side crossed.
    crossed = (sides > threshold).view(np.uint16)[:, 0] != 0
    alarm = int(crossed.argmax())
    if not crossed[alarm]:
        alarm = -1
    # Column by column: a max over axis 0 of an (n, 2) array runs one
    # pair at a time.  `+ 0.0` turns a -0.0 that fmin left into 0.0.
    return float(sides[:, 0].max()) + 0.0, float(sides[:, 1].max()) + 0.0, alarm
