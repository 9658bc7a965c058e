"""Scoring, the four benchmark metrics, and the experiment harness.

Binarization: a "change" verdict on a changed pair is a true positive;
any other verdict there is a false negative.  On a noisy pair, "change"
is a false positive and both "noise" and "no change" count as true
negatives (the detector correctly refused to call a change).

Rates with a zero denominator return None and serialize as JSON null.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .core import block_slices
from .datagen import CorpusParams, Label, LabeledPair, build_base_signatures, build_corpus
from .detect import (DetectionOutcome, DetectorThresholds, Verdict, cusum_detect,
                     sliding_window_detect, snr_detect)
from .errors import AlignmentError
from .noisegen import NoiseProfile, check_aligned, profile_from_ratios, snr_ratios


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def score(labeled_verdicts) -> ConfusionCounts:
    """Fold (Label, Verdict) pairs into confusion counts."""
    tp = fp = tn = fn = 0
    for label, verdict in labeled_verdicts:
        changed = label is Label.CHANGED
        called_change = verdict is Verdict.CHANGE
        if changed and called_change:
            tp += 1
        elif changed:
            fn += 1
        elif called_change:
            fp += 1
        else:
            tn += 1
    return ConfusionCounts(tp, fp, tn, fn)


def fp_rate(c: ConfusionCounts) -> float | None:
    denom = c.fp + c.tn
    return c.fp / denom if denom else None


def tp_rate(c: ConfusionCounts) -> float | None:
    denom = c.tp + c.fn
    return c.tp / denom if denom else None


def accuracy(c: ConfusionCounts) -> float | None:
    return (c.tp + c.tn) / c.total if c.total else None


def f1(c: ConfusionCounts) -> float | None:
    denom = c.tp + 0.5 * (c.fp + c.fn)
    return c.tp / denom if denom else None


METRICS = {"fp_rate": fp_rate, "tp_rate": tp_rate, "accuracy": accuracy, "f1": f1}

DETECTOR_NAMES = ("sw", "snr", "cusum")


def _check_distinct(name: str, values) -> None:
    """A list setting names at least one value, each once: an empty list
    would run nothing and a repeated value would share one report key."""
    if not values or len(set(values)) != len(values):
        raise ValueError(f"{name} must list at least one value, each once; got {list(values)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one benchmark run depends on, minus the seed."""

    n_changed: int = 3000
    n_noisy: int = 3000
    distortion_fraction: float = 0.5
    sample_sizes: tuple[int, ...] = (1000, 2000, 3000, 4000, 5000)
    repeats: int = 30
    detectors: tuple[str, ...] = DETECTOR_NAMES
    thresholds: DetectorThresholds = field(default_factory=DetectorThresholds)
    cusum_slack: float = 0.5
    cusum_interval: float = 5.0
    snr_segments: int = 6
    snr_mode: str = "segments"
    monitor_fraction: float = 0.2
    corpus: CorpusParams = field(default_factory=CorpusParams)

    def __post_init__(self):
        object.__setattr__(self, "sample_sizes", tuple(self.sample_sizes))
        object.__setattr__(self, "detectors", tuple(self.detectors))
        if self.repeats < 1:
            raise ValueError("need at least one repeat")
        for name in ("sample_sizes", "detectors"):
            _check_distinct(name, getattr(self, name))
        unknown = set(self.detectors) - set(DETECTOR_NAMES)
        if unknown:
            raise ValueError(f"unknown detectors: {sorted(unknown)}")
        total = self.n_changed + self.n_noisy
        if any(s < 1 or s > total for s in self.sample_sizes):
            raise ValueError("sample sizes must lie in [1, corpus size]")
        if not 0.0 < self.monitor_fraction <= 1.0:
            raise ValueError("monitor fraction must be in (0, 1]")
        if self.snr_segments < 1:
            raise ValueError("need at least one SNR segment")

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["sample_sizes"] = list(self.sample_sizes)
        payload["detectors"] = list(self.detectors)
        return payload


def learn_monitoring_profiles(pairs: list[LabeledPair], segments: int
                              ) -> dict[str, NoiseProfile]:
    """Per-provider baseline: segment-wise worst SNR over monitoring pairs.

    Each monitoring pair gives one SNR ratio per segment, of its existing
    signature against the residual of its recomputed one; the minimum
    keeps the noisiest level ever observed per segment.  A pooled profile
    under the key "" covers providers that never appeared.  All pairs
    share one matrix shape, whose grid must split into `segments` equal
    parts.  The ratios are computed over stacked pairs, a bounded block
    at a time.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no monitoring pairs to learn from")
    shape = pairs[0].existing.matrix.shape
    blocks = []
    for block in block_slices(len(pairs), 2 * pairs[0].existing.matrix.nbytes):
        chunk = pairs[block]
        for pair in chunk:
            if pair.existing.matrix.shape != shape:
                raise AlignmentError("monitoring pairs must share grid and row count")
            check_aligned(pair.existing, pair.recomputed)
        signal = np.stack([pair.existing.matrix for pair in chunk])
        noise = np.stack([pair.recomputed.matrix for pair in chunk])
        blocks.append(snr_ratios(signal, np.subtract(signal, noise, out=noise), segments))
    ratios = np.concatenate(blocks)
    by_provider: dict[str, list[int]] = {}
    for i, pair in enumerate(pairs):
        by_provider.setdefault(pair.existing.provider_id, []).append(i)
    segment_length = shape[1] // segments
    merged = {pid: profile_from_ratios(np.minimum.reduce(ratios[indices], axis=0),
                                       segment_length)
              for pid, indices in by_provider.items()}
    merged[""] = profile_from_ratios(np.minimum.reduce(ratios, axis=0), segment_length)
    return merged


def detect_pair(pair: LabeledPair, detector: str, config: ExperimentConfig,
                profiles: dict[str, NoiseProfile]) -> DetectionOutcome:
    if detector == "sw":
        return sliding_window_detect(pair.existing, pair.recomputed, config.thresholds)
    if detector == "cusum":
        return cusum_detect(pair.existing, pair.recomputed,
                            config.cusum_slack, config.cusum_interval)
    if detector == "snr":
        profile = profiles.get(pair.existing.provider_id, profiles[""])
        return snr_detect(pair.existing, pair.recomputed, profile, config.snr_mode)
    raise ValueError(f"unknown detector {detector!r}")


def repeat_streams(seed: int, repeats: int) -> list[np.random.SeedSequence]:
    """One random stream per repeat; stream r does not depend on `repeats`."""
    return np.random.SeedSequence(seed).spawn(repeats)


def repeat_seeds(stream: np.random.SeedSequence
                 ) -> tuple[int, int, int, np.random.SeedSequence]:
    """Seeds of one repeat: base signatures, corpus, monitoring corpus, and
    the stream that draws the evaluation samples."""
    sig_ss, corpus_ss, monitor_ss, sample_ss = stream.spawn(4)
    return (int(sig_ss.generate_state(1)[0]), int(corpus_ss.generate_state(1)[0]),
            int(monitor_ss.generate_state(1)[0]), sample_ss)


def monitoring_size(monitor_fraction: float, corpus_size: int) -> int:
    """Pairs in the monitoring corpus that a repeat learns SNR profiles from."""
    return max(1, int(round(monitor_fraction * corpus_size)))


def _run_repeat(config: ExperimentConfig, repeat_stream: np.random.SeedSequence
                ) -> dict:
    """One simulation repeat: fresh corpus, verdicts, per-size metrics."""
    sig_seed, corpus_seed, monitor_seed, sample_ss = repeat_seeds(repeat_stream)
    signatures = build_base_signatures(sig_seed, config.corpus)

    # Profiles first: a setting they reject fails before the corpus is built.
    profiles: dict[str, NoiseProfile] = {}
    if "snr" in config.detectors:
        n_monitor = monitoring_size(config.monitor_fraction, config.n_changed + config.n_noisy)
        monitoring = build_corpus(0, n_monitor, config.distortion_fraction, monitor_seed,
                                  signatures=signatures, params=config.corpus)
        profiles = learn_monitoring_profiles(monitoring, config.snr_segments)
    corpus = build_corpus(config.n_changed, config.n_noisy,
                          config.distortion_fraction, corpus_seed,
                          signatures=signatures, params=config.corpus)

    # Keep verdicts and sw's noise kinds, not outcomes, so memory does not
    # grow with the outcomes' diagnostics.
    labels = [pair.label for pair in corpus]
    verdicts: dict[str, list[Verdict]] = {det: [] for det in config.detectors}
    sw_kinds: list[str | None] = []
    for det in config.detectors:
        for pair in corpus:
            outcome = detect_pair(pair, det, config, profiles)
            verdicts[det].append(outcome.verdict)
            if det == "sw":
                sw_kinds.append(outcome.noise_kind)

    rng = np.random.default_rng(sample_ss)
    cells: dict[str, dict[int, dict[str, float | None]]] = {
        det: {} for det in config.detectors
    }
    for size in config.sample_sizes:
        chosen = rng.choice(len(corpus), size=size, replace=False)
        for det in config.detectors:
            counts = score((labels[i], verdicts[det][i]) for i in chosen)
            cells[det][size] = {name: fn(counts) for name, fn in METRICS.items()}

    out = {"cells": cells}
    if "sw" in config.detectors:
        noisy = [(pair.noise.kind, verdict, kind)
                 for pair, verdict, kind in zip(corpus, verdicts["sw"], sw_kinds)
                 if pair.label is Label.NOISY]
        if noisy:
            hits = sum(1 for truth, verdict, kind in noisy
                       if verdict is Verdict.NOISE and kind == truth)
            out["sw_noise_kind_accuracy"] = hits / len(noisy)
    return out


def _summary(values: list) -> dict:
    clean = [v for v in values if v is not None]
    if len(clean) != len(values) or not clean:
        return {"mean": None, "std": None, "values": values}
    arr = np.asarray(clean, dtype=np.float64)
    return {"mean": float(arr.mean()), "std": float(arr.std()), "values": values}


def run_experiment(config: ExperimentConfig, seed: int, jobs: int = 1) -> dict:
    """Run `repeats` fresh corpora and aggregate metrics per detector and size."""
    configs = [config] * config.repeats
    streams = repeat_streams(seed, config.repeats)
    if jobs > 1 and config.repeats > 1:
        # Imported here: the pool's modules would slow every CLI start.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, config.repeats)) as pool:
            results = list(pool.map(_run_repeat, configs, streams))
    else:
        results = list(map(_run_repeat, configs, streams))

    detectors: dict[str, dict[str, dict[str, dict]]] = {}
    for det in config.detectors:
        detectors[det] = {}
        for size in config.sample_sizes:
            per_metric = {}
            for metric in METRICS:
                values = [r["cells"][det][size][metric] for r in results]
                per_metric[metric] = _summary(values)
            detectors[det][str(size)] = per_metric

    report = {
        "config": config.to_dict(),
        "seed": seed,
        "detectors": detectors,
    }
    if all("sw_noise_kind_accuracy" in r for r in results) and "sw" in config.detectors:
        report["diagnostics"] = {
            "sw_noise_kind_accuracy": _summary(
                [r["sw_noise_kind_accuracy"] for r in results]
            )
        }
    return report


def sensitivity_analysis(config: ExperimentConfig, seed: int,
                         levels: tuple[float, ...] = (0.5, 0.25, 0.0),
                         jobs: int = 1) -> dict:
    """Re-run the experiment at several distortion fractions, same seed."""
    _check_distinct("sensitivity levels", [_level_key(level) for level in levels])
    runs = {}
    for level in levels:
        level_config = replace(config, distortion_fraction=level)
        runs[_level_key(level)] = run_experiment(level_config, seed, jobs)
    return {
        "seed": seed,
        "levels": [_level_key(level) for level in levels],
        "runs": runs,
    }


def _level_key(level: float) -> str:
    return repr(float(level))


def report_to_csv(report: dict) -> str:
    """Flatten a report for plotting: detector,sample_size,metric,mean,std."""
    lines = ["detector,sample_size,metric,mean,std"]
    for det in sorted(report["detectors"]):
        for size in sorted(report["detectors"][det], key=int):
            for metric in sorted(report["detectors"][det][size]):
                cell = report["detectors"][det][size][metric]
                mean = "" if cell["mean"] is None else repr(cell["mean"])
                std = "" if cell["std"] is None else repr(cell["std"])
                lines.append(f"{det},{size},{metric},{mean},{std}")
    return "\n".join(lines) + "\n"
