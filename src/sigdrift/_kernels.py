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
- Likewise ``np.add.accumulate``, ``np.maximum.reduce`` and ``np.empty``
  plus ``fill`` are the calls ``np.cumsum``, ``ndarray.max`` and
  ``np.full`` make, without their wrappers, so the bits are the same.
- ``deletion_pcc_scan`` is split in two: :func:`deletion_scan_base`
  takes what depends on x alone (x0, and sx and the clamped varx after
  each deletion), :func:`deletion_scan_finish` the rest for one y.  The
  detectors keep the first half per existing row, so a row checked
  against many recomputed ones is centered and summed once;
  ``deletion_pcc_scan`` is the two halves composed.  Its lanes are the
  ones the packed three-row form had (x0|y0, x0*x0|y0*y0, x0*y0|0),
  regrouped as x0|x0*x0, y0|y0*y0 and a real x0*y0.  By the rule above
  a lane's prefix sums are the same bits whichever lane shares its
  complex row, and every step after the sums is elementwise, so the
  output is bit-identical to the packed form.
- The scan has two arithmetic paths.  Every window takes the prefix
  path above, except where a remainder's variance term cancels (see
  :func:`_cancelled`): such a window, as at a spike of 1e9 on O(1)
  values, is taken again directly from the raw rows: its value is
  :func:`similarity.pcc` of the two remainders.  No window of the
  paper's data comes near that bound (its smallest ratio is about 0.6
  against 1e-6), so their bits and verdicts are the prefix path's.
  Where two rows' variance terms multiply past the largest double, as
  for cells near 1e100, the denominator takes two roots in place of the
  root of their product (:func:`_root_of_product`); rows whose bounds
  cannot overflow never check.
- Not allowed until rounding-decided verdicts are handled explicitly:
  ``einsum``, and dot products reordered or moved off BLAS ``@``, which
  round differently.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConstantSeriesError
from .similarity import pcc

# Kept for reports and benchmarks that record which kernels ran.
backend = "python"


def _deleted_sums(terms: np.ndarray, window: int):
    """For an ``(n + 1, 2)`` array of a leading zero row and two series,
    each series' sum over the points left after deleting [w, w+window),
    for every w, and the second series' whole sum.  One complex cumsum
    runs both prefix sums, in place."""
    cs = terms.view(np.complex128)[:, 0]
    np.add.accumulate(cs[1:], out=cs[1:])
    rest = np.subtract(cs[window:], cs[:-window])
    np.subtract(cs[-1:], rest, out=rest)
    return rest.real, rest.imag, float(cs[-1].imag)


def _cancelled(var: np.ndarray, m: int, total_sq: float) -> np.ndarray:
    """Where a remainder's variance term ``m * sum(r0**2) - sum(r0)**2``
    (r0 the m points left, centred by the whole row's mean) is below
    1e-6 of ``m`` times the whole row's ``total_sq = sum(x0**2)``.

    Each remainder sum is a whole-row sum less a window's, and the term
    is a difference of two such, so both lose about ``total_sq`` times
    the rounding unit.  Past this bound that loss can be the whole term:
    at a window that holds nearly all of a row's deviation from its
    mean, such as a spike of 1e9 on O(1) values, the term reads 0 or
    noise where the remainder still varies.
    """
    return var < 1e-6 * m * total_sq


def _direct_pcc(x: np.ndarray, y: np.ndarray, start: int, window: int) -> float:
    """:func:`similarity.pcc` of what is left of the raw rows x and y once
    [start, start+window) is deleted, or NaN when either remainder is
    constant."""
    cut = np.s_[start:start + window]
    a = np.delete(x, cut)
    b = np.delete(y, cut)
    # Checked as written: a rounded mean leaves a constant run a little off zero.
    if (a == a[0]).all() or (b == b[0]).all():
        return math.nan
    try:
        return pcc(a, b)
    except ConstantSeriesError:  # squares that underflow to 0.0, as of a 1e-200 ripple
        return math.nan


def _root_of_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.sqrt(a * b)``, but ``sqrt(a) * sqrt(b)`` where the product
    overflows, as it does for two rows with cells near 1e100.  Two roots
    round differently from one, so they are taken only there."""
    with np.errstate(over="ignore"):
        product = a * b
    over = np.isinf(product)
    np.sqrt(product, out=product)
    product[over] = np.sqrt(a[over]) * np.sqrt(b[over])
    return product


def deletion_scan_base(x: np.ndarray, window: int):
    """The half of :func:`deletion_pcc_scan` that depends on x alone.

    Returns ``(x, x0, sx, varx, redo, varx_bound)``: x as a float64
    array, and, each read-only, x centered by its mean, for every
    deleted block [w, w+window) the sum of x0 over the remainder and
    m * sum(x0**2) - sx**2 (clamped at 0), with m the remainder's
    length, and whether that term cancelled (see :func:`_cancelled`);
    then m times the whole row's sum(x0**2), a bound on every varx.
    A caller that scans one x against many y keeps this and passes it to
    :func:`deletion_scan_finish` for each y.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.size
    if not 1 <= window < n - 1:
        raise ValueError("window must leave at least two points behind")

    # x0|x0*x0 as one complex row after a leading zero.  Centering by
    # the global mean keeps the running sums small and the variance
    # subtraction below well conditioned, except where it cancels.
    x0 = np.subtract(x, np.add.reduce(x) / n)
    terms = np.zeros((n + 1, 2))
    terms[1:, 0] = x0
    np.square(x0, out=terms[1:, 1])
    sx, sxx, total_sq = _deleted_sums(terms, window)
    varx = (n - window) * sxx - sx * sx
    redo = _cancelled(varx, n - window, total_sq)
    np.maximum(varx, 0.0, out=varx)
    sx = sx.copy()  # a view would keep the complex sums, twice its size, alive
    for a in (x0, sx, varx, redo):
        a.setflags(write=False)
    return x, x0, sx, varx, redo, (n - window) * total_sq


def deletion_scan_finish(base, y: np.ndarray) -> np.ndarray:
    """:func:`deletion_pcc_scan` of the x and window that
    :func:`deletion_scan_base` turned into ``base``, against y."""
    x, x0, sx, varx, redo_x, varx_bound = base
    y = np.ascontiguousarray(y, dtype=np.float64)
    n = y.size
    if x0.size != n:
        raise ValueError("series must have equal length")
    window = n + 1 - sx.size

    # y0|y0*y0 as one complex row, x0*y0 as one real row, each after a
    # leading zero; the product is taken before the sums overwrite y0.
    terms = np.zeros((n + 1, 2))
    y0 = terms[1:, 0]
    np.subtract(y, np.add.reduce(y) / n, out=y0)
    np.square(y0, out=terms[1:, 1])
    xy = np.zeros(n + 1)
    np.multiply(x0, y0, out=xy[1:])
    sy, syy, total_sq = _deleted_sums(terms, window)
    np.add.accumulate(xy[1:], out=xy[1:])
    sxy = np.subtract(xy[window:], xy[:-window])
    np.subtract(xy[-1:], sxy, out=sxy)

    m = n - window
    num = m * sxy - sx * sy
    vary = m * syy - sy * sy
    redo = _cancelled(vary, m, total_sq)
    redo |= redo_x
    np.maximum(vary, 0.0, out=vary)
    # Each variance term is at most m times its row's sum of squares, so
    # rows whose bounds multiply well below the largest double (every row
    # the paper's data holds) take the root of the product with no check.
    if varx_bound * (m * total_sq) < 1e300:
        denom = np.sqrt(varx * vary)
    else:
        denom = _root_of_product(varx, vary)
    out = np.empty(n - window + 1)
    out.fill(np.nan)
    np.divide(num, denom, out=out, where=denom > 0.0)
    np.minimum(np.maximum(out, -1.0, out=out), 1.0, out=out)
    for start in redo.nonzero()[0].tolist():
        out[start] = _direct_pcc(x, y, start, window)
    return out


def deletion_pcc_scan(x: np.ndarray, y: np.ndarray, window: int) -> np.ndarray:
    """Pearson correlation of x and y after deleting each length-`window` block.

    For every start position w in 0..n-window the points [w, w+window) are
    removed from both series and the correlation of the remainder is
    computed.  Returns an array of length n-window+1; entries where the
    remainder is constant in either series are NaN.

    Uses prefix sums, so the whole scan is O(n) instead of the naive
    O(n * window).  It is :func:`deletion_scan_base` of x, then
    :func:`deletion_scan_finish` with y.
    """
    return deletion_scan_finish(deletion_scan_base(x, window), y)


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

    Past a deviation of about 1e15 the maxima lose precision, since each
    later value is a difference of sums that large (three points raised
    by 1e15 make ``max_neg`` read 0.5 for 0.380; see the README).  The
    alarm index does not: the point itself alarms, on exact earlier sums.
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
    np.add.accumulate(pairs, out=pairs)
    low = np.fmin.accumulate(s, axis=0)
    sides = np.subtract(s, low, out=low)[1:]
    # One uint16 per row of bools: non-zero when either side crossed.
    crossed = (sides > threshold).view(np.uint16)[:, 0] != 0
    alarm = int(crossed.argmax())
    if not crossed[alarm]:
        alarm = -1
    # Column by column: a max over axis 0 of an (n, 2) array runs one
    # pair at a time.  `+ 0.0` turns a -0.0 that fmin left into 0.0.
    return (float(np.maximum.reduce(sides[:, 0])) + 0.0,
            float(np.maximum.reduce(sides[:, 1])) + 0.0, alarm)
