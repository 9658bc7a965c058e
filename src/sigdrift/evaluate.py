"""Scoring, the four benchmark metrics, and the experiment harness.

Binarization: a "change" verdict on a changed pair is a true positive;
any other verdict there is a false negative.  On a noisy pair, "change"
is a false positive and both "noise" and "no change" count as true
negatives (the detector correctly refused to call a change).

Rates with a zero denominator return None and serialize as JSON null.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import ExperimentConfig, RunSettings, _check_distinct
from .core import block_slices
from .datagen import Label, LabeledPair, build_base_signatures, build_corpus, corpus_blocks
from .detect import Verdict, cusum_detect, sliding_window_detect, snr_detect
from .errors import AlignmentError, SettingError
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


def score(changed: np.ndarray, called: np.ndarray) -> ConfusionCounts:
    """Confusion counts of two boolean arrays over the same pairs: the
    pair is changed, and the detector called a change."""
    tp = int(np.count_nonzero(changed & called))
    fp = int(np.count_nonzero(called)) - tp
    fn = int(np.count_nonzero(changed)) - tp
    return ConfusionCounts(tp, fp, changed.size - tp - fp - fn, fn)


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
    # The monitoring corpus is dropped as soon as they are learned.
    profiles: dict[str, NoiseProfile] = {}
    if "snr" in config.detectors:
        n_monitor = monitoring_size(config.monitor_fraction, config.n_changed + config.n_noisy)
        profiles = learn_monitoring_profiles(
            build_corpus(0, n_monitor, config.distortion_fraction, monitor_seed,
                         signatures=signatures, params=config.corpus),
            config.snr_segments)

    # Keep, per pair, whether it is changed and, per detector, whether the
    # detector called a change and whether it called noise of the pair's own
    # kind, not pairs or outcomes, so memory grows with neither the corpus's
    # matrices nor the outcomes' diagnostics: each block of pairs is dropped
    # once every detector has judged it.  Each call looks its detector up
    # when it runs and passes existing and recomputed first, so a swapped
    # module global sees both.
    calls = {
        "sw": lambda p: sliding_window_detect(p.existing, p.recomputed, config.thresholds),
        "snr": lambda p: snr_detect(p.existing, p.recomputed,
                                    profiles.get(p.existing.provider_id, profiles[""])),
        "cusum": lambda p: cusum_detect(p.existing, p.recomputed,
                                        config.cusum_slack, config.cusum_interval),
    }
    n_pairs = config.n_changed + config.n_noisy
    changed = np.zeros(n_pairs, dtype=bool)
    called = {det: np.zeros(n_pairs, dtype=bool) for det in config.detectors}
    named = {det: np.zeros(n_pairs, dtype=bool) for det in config.detectors}
    start = 0
    for block in corpus_blocks(config.n_changed, config.n_noisy,
                               config.distortion_fraction, corpus_seed,
                               signatures=signatures, params=config.corpus):
        changed[start:start + len(block)] = [pair.label is Label.CHANGED for pair in block]
        for det in config.detectors:
            call = calls[det]
            for i, pair in enumerate(block, start):
                outcome = call(pair)
                called[det][i] = outcome.verdict is Verdict.CHANGE
                named[det][i] = (outcome.verdict is Verdict.NOISE and pair.noise is not None
                                 and outcome.noise_kind == pair.noise.kind)
        start += len(block)

    rng = np.random.default_rng(sample_ss)
    cells: dict[str, dict[int, dict[str, float | None]]] = {det: {} for det in config.detectors}
    for size in config.sample_sizes:
        chosen = rng.choice(n_pairs, size=size, replace=False)
        for det in config.detectors:
            counts = score(changed[chosen], called[det][chosen])
            cells[det][size] = {name: fn(counts) for name, fn in METRICS.items()}

    out = {"cells": cells}
    if "sw" in config.detectors and config.n_noisy:
        out["sw_noise_kind_accuracy"] = int(np.count_nonzero(named["sw"])) / config.n_noisy
    return out


def _summary(values: list) -> dict:
    clean = [v for v in values if v is not None]
    if len(clean) != len(values) or not clean:
        return {"mean": None, "std": None, "values": values}
    arr = np.asarray(clean, dtype=np.float64)
    return {"mean": float(arr.mean()), "std": float(arr.std()), "values": values}


def run_experiment(config: ExperimentConfig, seed: int, jobs: int = 1) -> dict:
    """Run `repeats` fresh corpora and aggregate metrics per detector and size."""
    # Not an ExperimentConfig check: gen-data writes corpora of any size.
    total = config.n_changed + config.n_noisy
    if max(config.sample_sizes) > total:
        raise SettingError(f"sample_sizes = {list(config.sample_sizes)} must each be at most "
                         f"n_changed + n_noisy = {total}")
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

    report = {"config": config.to_dict(), "seed": seed, "detectors": detectors}
    if all("sw_noise_kind_accuracy" in r for r in results) and "sw" in config.detectors:
        report["diagnostics"] = {
            "sw_noise_kind_accuracy": _summary(
                [r["sw_noise_kind_accuracy"] for r in results]
            )
        }
    return report


def sensitivity_analysis(config: ExperimentConfig, seed: int,
                         levels: tuple[float, ...] = RunSettings.sensitivity_levels,
                         jobs: int = 1) -> dict:
    """Re-run the experiment at several distortion fractions, same seed.
    Every level's settings are checked before the first run."""
    keys = [_level_key(level) for level in levels]
    _check_distinct("sensitivity_levels", keys)
    configs = [replace(config, distortion_fraction=level) for level in levels]
    return {
        "seed": seed,
        "levels": keys,
        "runs": {key: run_experiment(level_config, seed, jobs)
                 for key, level_config in zip(keys, configs)},
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
