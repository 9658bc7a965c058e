"""Output checks: the program's outcomes against the oracle, and the
properties of the method that every workload's results must show.

Outcomes are compared in the JSON form the CLI prints
(``DetectionOutcome.to_dict()``), so the in-process workloads and the
subprocess workload go through the same code.  A value within ``TOL`` of
a threshold is a floating-point tie: the two implementations may fall
either side of it, so the decision it feeds is counted as ambiguous and
not compared.  Every numeric value is still compared.
"""
from __future__ import annotations

import math

import oracle

TOL = 1e-9  # PCC, RMSE and SNR ratios; CUSUM sums get TOL per grid point
# A residual at rounding level (an attenuated row read back re-normalized)
# gives an SNR above this on both sides, but no two sums agree on its value.
ROUNDING_SNR = 1e20


class CheckFailed(AssertionError):
    """The program's output is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(got, want, tol: float = TOL, relative: bool = False) -> bool:
    """None and NaN on both sides agree; inf agrees only with inf or None."""
    if got is None or want is None or _nan(got) or _nan(want):
        return (got is None or _nan(got)) and (want is None or _nan(want) or math.isinf(want))
    if math.isinf(want) or math.isinf(got):
        return got == want
    scale = max(abs(want), 1.0) if relative else 1.0
    return abs(got - want) <= tol * scale


def _nan(v) -> bool:
    return isinstance(v, float) and math.isnan(v)


class Thresholds:
    """The paper-default detector settings the workloads run with."""
    floor = 0.60
    ceiling = 0.20
    attenuation = 0.50
    window = 6
    slack = 0.5
    interval = 5.0


def _aggregate(verdicts: list[str]) -> str:
    if "change" in verdicts:
        return "change"
    return "noise" if "noise" in verdicts else "no_change"


def _gate(row: dict, p: float, r: float, where: str):
    """The first gate of ``sw`` on one row, given the oracle's PCC ``p``
    and RMSE ``r``: the row's PCC and RMSE, and whether the program
    settled it (no change or attenuation) or passed it to the deletion
    scan, as the oracle does.  Returns ``(verdict, noise_kind)`` for a
    settled row, ``None`` for a scanned one, and ``"tie"`` when an input
    is within ``TOL`` of a threshold."""
    require(close(row["pcc"], p), f"{where}: sw pcc {row['pcc']} vs oracle {p}")
    require(close(row["rmse"], r), f"{where}: sw rmse {row['rmse']} vs oracle {r}")
    if min(abs(p - Thresholds.floor), abs(r - Thresholds.ceiling),
           abs(r - Thresholds.attenuation)) <= TOL:
        return "tie"
    if p >= Thresholds.floor and r <= Thresholds.ceiling:
        settled = ("no_change", None)
    elif p >= Thresholds.floor and r <= Thresholds.attenuation:
        settled = ("noise", "attenuation")
    else:
        settled = None
    scanned = settled is None
    require(("removed_window_start" in row) == scanned,
            f"{where}: sw gate {'passed' if scanned else 'settled'} the row "
            f"but the program {'did not scan' if scanned else 'scanned'}")
    if settled is not None:
        require((row["verdict"], row["noise_kind"]) == settled,
                f"{where}: sw row verdict {row['verdict']}/{row['noise_kind']}, "
                f"oracle {settled[0]}/{settled[1]}")
    return settled


def check_sw_gate(existing: dict, recomputed: dict, payload: dict, where: str) -> int:
    """The first gate of every row of a ``sw`` outcome, without the
    deletion scan.  Returns the number of rows skipped as ties."""
    ties = 0
    for row in payload["diagnostics"]["rows"]:
        x, y = existing[row["parameter"]], recomputed[row["parameter"]]
        ties += _gate(row, oracle.pcc(x, y), oracle.rmse(x, y), where) == "tie"
    return ties


def check_sw(existing: dict, recomputed: dict, payload: dict, where: str) -> int:
    """Sliding-window outcome: each row's gate, the best deletion window
    and its start, and the verdict.  Returns the number of decisions
    skipped as ties."""
    ties = 0
    verdicts = []
    for row in payload["diagnostics"]["rows"]:
        x, y = existing[row["parameter"]], recomputed[row["parameter"]]
        settled = _gate(row, oracle.pcc(x, y), oracle.rmse(x, y), where)
        if settled == "tie":
            ties += 1
            verdicts.append(row["verdict"])
            continue
        if settled is not None:
            verdicts.append(settled[0])
            continue
        scan = oracle.deletion_scan(x, y, Thresholds.window)
        finite = [v for v in scan if not math.isnan(v)]
        start = row["removed_window_start"]
        if not finite:
            require(start == -1 and row["best_window_pcc"] is None,
                    f"{where}: sw scan is all NaN but the program chose {start}")
            best = math.nan
        else:
            best = max(finite)
            require(0 <= start < len(scan) and close(scan[start], best),
                    f"{where}: sw removed window {start} scores "
                    f"{scan[start] if 0 <= start < len(scan) else None}, best is {best}")
            require(close(row["best_window_pcc"], best),
                    f"{where}: sw best window pcc {row['best_window_pcc']} vs {best}")
            # Windows that all cover a spike score 1.0 up to rounding;
            # the start is pinned only when one window is clearly best.
            near = [w for w, v in enumerate(scan) if v >= best - TOL]
            if len(near) == 1:
                require(start == near[0],
                        f"{where}: sw removed window {start}, oracle {near[0]}")
        if not math.isnan(best) and abs(best - Thresholds.floor) <= TOL:
            ties += 1
            verdicts.append(row["verdict"])
            continue
        if not math.isnan(best) and best >= Thresholds.floor:
            want, kind = "noise", "spike"
        else:
            want, kind = "change", None
        require(row["verdict"] == want and row["noise_kind"] == kind,
                f"{where}: sw row verdict {row['verdict']}/{row['noise_kind']}, "
                f"oracle {want}/{kind}")
        verdicts.append(want)
    if not ties:
        require(payload["verdict"] == _aggregate(verdicts),
                f"{where}: sw verdict {payload['verdict']}, oracle {_aggregate(verdicts)}")
    return ties


def check_cusum(existing: dict, recomputed: dict, payload: dict, where: str) -> int:
    """CUSUM outcome: both maxima and the alarm index of each row, and the
    verdict.  An alarm index is accepted anywhere between the first step
    that is above the threshold by more than the tolerance and the first
    step within the tolerance of it, provided it is at such a step."""
    ties = 0
    verdicts = []
    for row in payload["diagnostics"]["rows"]:
        x, y = existing[row["parameter"]], recomputed[row["parameter"]]
        std = oracle.pstd(x)
        c = oracle.cusum([(b - a) / std for a, b in zip(x, y)],
                         Thresholds.slack, Thresholds.interval)
        tol = TOL * len(x)
        require(close(row["cusum_max_pos"], c["max_pos"], tol),
                f"{where}: cusum max_pos {row['cusum_max_pos']} vs {c['max_pos']}")
        require(close(row["cusum_max_neg"], c["max_neg"], tol),
                f"{where}: cusum max_neg {row['cusum_max_neg']} vs {c['max_neg']}")
        n = len(x)
        strict = next((t for t, m in enumerate(c["margins"]) if m > tol), n)
        loose = next((t for t, m in enumerate(c["margins"]) if m > -tol), n)
        alarm = row["alarm_index"]
        at = alarm if alarm >= 0 else n
        require(loose <= at <= strict and (alarm < 0 or c["margins"][alarm] > -tol),
                f"{where}: cusum alarm {alarm}, oracle {c['alarm']}")
        if loose != strict:
            ties += 1
        require(row["verdict"] == ("change" if alarm >= 0 else "no_change"),
                f"{where}: cusum row verdict {row['verdict']} with alarm {alarm}")
        verdicts.append(row["verdict"])
    require(payload["verdict"] == _aggregate(verdicts),
            f"{where}: cusum verdict {payload['verdict']} vs rows {verdicts}")
    return ties


def check_profiles(program: dict, oracle_profiles: dict, where: str) -> None:
    """Learned baselines: same providers, same segment SNRs."""
    require(sorted(program) == sorted(oracle_profiles),
            f"{where}: profile keys {sorted(program)} vs {sorted(oracle_profiles)}")
    for key, want in oracle_profiles.items():
        got = [math.inf if s.infinite else s.ratio for s in program[key].segment_snrs]
        same = len(got) == len(want) and all(close(g, w, relative=True)
                                             for g, w in zip(got, want))
        require(same, f"{where}: profile {key or 'pooled'} {got} vs oracle {want}")


def check_snr(existing: dict, recomputed: dict, payload: dict, baseline: list[float],
              seg_len: int, where: str) -> int:
    """SNR outcome: each segment's current SNR, the baseline, the first
    violated segment and the verdict."""
    diag = payload["diagnostics"]
    current = oracle.segment_snrs(existing, recomputed, len(baseline), seg_len)
    for i, (got, want) in enumerate(zip(diag["snr_current"], current)):
        rounding = want > ROUNDING_SNR and (got is None or got > ROUNDING_SNR / 100)
        require(rounding or close(got, want, relative=True),
                f"{where}: snr segment {i} {got} vs {want}")
    for i, (got, want) in enumerate(zip(diag["snr_baseline"], baseline)):
        require(close(got, want, relative=True), f"{where}: snr baseline {i} {got} vs {want}")
    require(len(diag["snr_current"]) == len(baseline),
            f"{where}: snr has {len(diag['snr_current'])} segments, profile {len(baseline)}")
    violated = next((i for i, (c, b) in enumerate(zip(current, baseline)) if c < b), -1)
    last = violated if violated >= 0 else len(baseline) - 1
    ties = sum(1 for c, b in zip(current[:last + 1], baseline[:last + 1])
               if not math.isinf(b) and not math.isinf(c) and abs(c - b) <= TOL * max(b, 1.0))
    if not ties:
        require(diag["violated_segment"] == violated,
                f"{where}: snr violated segment {diag['violated_segment']}, oracle {violated}")
        require(payload["verdict"] == ("change" if violated >= 0 else "no_change"),
                f"{where}: snr verdict {payload['verdict']}, oracle violated {violated}")
    return ties


def check_order(values: dict, order: list[str], higher_first: bool, what: str) -> None:
    """``values[order[0]] < values[order[1]] < ...`` (or ``>`` when
    ``higher_first``), strictly."""
    pairs = list(zip(order, order[1:]))
    ok = all((values[a] > values[b]) if higher_first else (values[a] < values[b])
             for a, b in pairs)
    sign = " > " if higher_first else " < "
    require(ok, f"{what} order {sign.join(order)} does not hold: "
                + ", ".join(f"{k}={values[k]}" for k in order))
