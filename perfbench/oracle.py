"""Independent reference implementation of what the benchmark checks.

Plain Python over lists of floats, with ``math.fsum`` for every sum.  It
imports nothing from sigdrift: the kernels, the similarity measures, the
SNR and the confusion counting are all written again here, the slow and
obvious way, so that a fault in the program and a fault here are unlikely
to agree.  :func:`self_check` runs the hand fixtures first, so a broken
oracle fails loudly instead of passing a broken program.
"""
from __future__ import annotations

import math

INF = math.inf


class OracleError(AssertionError):
    """The oracle disagrees with its own hand fixtures."""


def mean(v) -> float:
    return math.fsum(v) / len(v)


def pstd(v) -> float:
    """Population (ddof=0) standard deviation."""
    m = mean(v)
    return math.sqrt(math.fsum((x - m) * (x - m) for x in v) / len(v))


def mean_square(v) -> float:
    return math.fsum(x * x for x in v) / len(v)


def pcc(a, b) -> float:
    """Pearson correlation, clamped to [-1, 1]; NaN for a constant side."""
    ma, mb = mean(a), mean(b)
    da = [x - ma for x in a]
    db = [y - mb for y in b]
    denom = math.sqrt(math.fsum(x * x for x in da) * math.fsum(y * y for y in db))
    if denom <= 0.0:
        return math.nan
    return min(1.0, max(-1.0, math.fsum(x * y for x, y in zip(da, db)) / denom))


def rmse(a, b) -> float:
    return math.sqrt(math.fsum((x - y) * (x - y) for x, y in zip(a, b)) / len(a))


def deletion_scan(x, y, window: int) -> list[float]:
    """PCC of x and y after deleting each block [w, w+window); O(n * window).

    The five sums over the whole series are taken once; for each start
    the block's own terms are summed afresh and subtracted, with no
    running or prefix sums.  NaN where the remainder is constant.
    """
    n = len(x)
    mx, my = mean(x), mean(y)
    cx = [v - mx for v in x]
    cy = [v - my for v in y]
    cxx = [v * v for v in cx]
    cyy = [v * v for v in cy]
    cxy = [a * b for a, b in zip(cx, cy)]
    totals = [math.fsum(s) for s in (cx, cy, cxx, cyy, cxy)]
    m = n - window
    out = []
    for w in range(n - window + 1):
        sx, sy, sxx, syy, sxy = (
            math.fsum([t] + [-v for v in s[w:w + window]])
            for t, s in zip(totals, (cx, cy, cxx, cyy, cxy))
        )
        varx = max(m * sxx - sx * sx, 0.0)
        vary = max(m * syy - sy * sy, 0.0)
        denom = math.sqrt(varx * vary)
        if denom > 0.0:
            out.append(min(1.0, max(-1.0, (m * sxy - sx * sy) / denom)))
        else:
            out.append(math.nan)
    return out


def cusum(z, slack: float, threshold: float) -> dict:
    """Two-sided CUSUM by the textbook recursion, one step at a time.

    Returns the maxima of both sums, the first index where either sum
    is strictly above the threshold (-1 if none), and per step the
    larger sum minus the threshold, so a caller can tell a crossing
    from a floating-point tie.
    """
    pos = neg = 0.0
    max_pos = max_neg = 0.0
    alarm = -1
    margins = []
    for t, v in enumerate(z):
        pos = max(0.0, pos + v - slack)
        neg = max(0.0, neg - v - slack)
        max_pos = max(max_pos, pos)
        max_neg = max(max_neg, neg)
        margins.append(max(pos, neg) - threshold)
        if alarm < 0 and (pos > threshold or neg > threshold):
            alarm = t
    return {"max_pos": max_pos, "max_neg": max_neg, "alarm": alarm, "margins": margins}


def snr(signal, noise) -> float:
    """Mean-square signal over mean-square noise; inf for an all-zero noise."""
    if all(v == 0.0 for v in noise):
        return INF
    return mean_square(signal) / mean_square(noise)


def segment_snrs(existing: dict, recomputed: dict, segments: int,
                 seg_len: int) -> list[float]:
    """SNR of each of ``segments`` slices of ``seg_len`` points, pooling
    every row of a signature (rows as ``{parameter: values}``); points
    past the last slice are not looked at."""
    out = []
    for i in range(segments):
        signal, noise = [], []
        part = slice(i * seg_len, (i + 1) * seg_len)
        for name, x in existing.items():
            signal += x[part]
            noise += [a - b for a, b in zip(x[part], recomputed[name][part])]
        out.append(snr(signal, noise))
    return out


def learn_profiles(monitoring, segments: int) -> dict[str, list[float]]:
    """Baseline SNR per segment from ``(provider, existing rows, recomputed
    rows)`` monitoring pairs: per provider, and pooled under "", the lowest
    SNR each segment showed."""
    profiles: dict[str, list[float]] = {}
    for provider, existing, recomputed in monitoring:
        seg_len = len(next(iter(existing.values()))) // segments
        snrs = segment_snrs(existing, recomputed, segments, seg_len)
        for key in (provider, ""):
            old = profiles.get(key)
            profiles[key] = snrs if old is None else [min(a, b) for a, b in zip(old, snrs)]
    return profiles


def confusion(labels, verdicts) -> tuple[int, int, int, int]:
    """(tp, fp, tn, fn) with "change" as the positive call on "changed" pairs."""
    tp = fp = tn = fn = 0
    for label, verdict in zip(labels, verdicts):
        if label == "changed":
            if verdict == "change":
                tp += 1
            else:
                fn += 1
        elif verdict == "change":
            fp += 1
        else:
            tn += 1
    return tp, fp, tn, fn


def rates(tp: int, fp: int, tn: int, fn: int) -> dict:
    total = tp + fp + tn + fn
    return {
        "fp_rate": fp / (fp + tn) if fp + tn else None,
        "tp_rate": tp / (tp + fn) if tp + fn else None,
        "accuracy": (tp + tn) / total if total else None,
        "f1": 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else None,
    }


def renormalize(values) -> list[float]:
    """What reading a signature file does to a row: scale it to unit std
    when its population std is off 1 by more than 1e-9."""
    std = pstd(values)
    return [v / std for v in values] if abs(std - 1.0) > 1e-9 else list(values)


def read_signature_rows(path) -> dict[str, list[float]]:
    """Parse a signature CSV (header parameter,t0..) and re-normalize each row."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    rows = {}
    for ln in lines[1:]:
        name, *cells = ln.split(",")
        rows[name] = renormalize([float(c) for c in cells])
    return rows


def _expect(what: str, got, want, tol: float = 0.0) -> None:
    same = (got == want if tol == 0.0 or got is None or want is None
            else abs(got - want) <= tol)
    if not same:
        raise OracleError(f"oracle self-check {what}: got {got!r}, want {want!r}")


def self_check() -> None:
    """Hand fixtures: confusion (3, 1, 5, 1), similarity identities on a
    ramp, a one-point outlier for the deletion scan, a step for CUSUM and
    a constant pair for the SNR."""
    r = rates(*confusion(["changed"] * 4 + ["noisy"] * 6,
                         ["change"] * 3 + ["noise"] + ["change"] + ["no_change"] * 5))
    _expect("fp_rate", round(r["fp_rate"], 4), 0.1667)
    _expect("tp_rate", r["tp_rate"], 0.75)
    _expect("accuracy", r["accuracy"], 0.8)
    _expect("f1", r["f1"], 0.75)

    ramp = [1.0, 2.0, 3.0]
    _expect("pcc identity", pcc(ramp, ramp), 1.0)
    _expect("pcc reversal", pcc(ramp, ramp[::-1]), -1.0)
    _expect("rmse identity", rmse(ramp, ramp), 0.0)
    _expect("rmse offset", rmse(ramp, [v + 2.0 for v in ramp]), 2.0, 1e-15)

    x = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    y = list(x)
    y[3] += 100.0
    scan = deletion_scan(x, y, 1)
    best = max(range(len(scan)), key=lambda w: scan[w])
    _expect("deletion scan argmax", best, 3)
    _expect("deletion scan peak", scan[3], 1.0, 1e-12)
    _expect("deletion scan width", len(deletion_scan(x, y, 3)), 6)

    c = cusum([0.0, 0.0, 3.0, 3.0, 0.0], 0.5, 4.0)
    _expect("cusum alarm", c["alarm"], 3)
    _expect("cusum max_pos", c["max_pos"], 5.0)
    _expect("cusum max_neg", c["max_neg"], 0.0)
    _expect("cusum quiet", cusum([0.4, -0.4] * 10, 0.5, 4.0)["alarm"], -1)

    _expect("snr ratio", snr([1.0] * 4, [0.5] * 4), 4.0)
    _expect("snr unbounded", snr([1.0] * 4, [0.0] * 4), INF)
    _expect("renormalize", pstd(renormalize([2.0, 4.0, 6.0, 8.0])), 1.0, 1e-12)
