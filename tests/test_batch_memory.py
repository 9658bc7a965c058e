"""Synthesis, the corpus build and profile learning work one bounded
block at a time: the memory they use beyond what they return must stay
below the size of the data they reduce.  Synthesis never holds a
``(nodes, raw)`` float matrix, and an evaluate repeat streams its corpus,
so it never holds the corpus at all."""
import tracemalloc

import numpy as np

from sigdrift.config import CorpusParams, ExperimentConfig
from sigdrift.datagen import build_base_signatures, build_corpus
from sigdrift.evaluate import learn_monitoring_profiles, run_experiment
from sigdrift.noisegen import learn_noise_profile

from conftest import unit_signature, wavy_row

LENGTH = 23_040  # the long grid: one pair (184 KB) fills a block
PAIRS = 64


def _peak_above_result(fn):
    """``fn()`` and the peak of traced memory during it above the memory
    still held when it returns."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - held


def test_corpus_build_and_profile_learning_stay_within_blocks():
    bases = [unit_signature(wavy_row(LENGTH, seed=s), provider_id=f"p{s}") for s in range(3)]
    corpus_bytes = PAIRS * LENGTH * 8

    corpus, extra = _peak_above_result(
        lambda: build_corpus(PAIRS // 2, PAIRS // 2, 0.5, 11, signatures=bases))
    assert len(corpus) == PAIRS
    assert extra < corpus_bytes, f"build_corpus: {extra} B above its result"

    monitoring = build_corpus(0, PAIRS, 0.5, 12, signatures=bases)
    profiles, extra = _peak_above_result(lambda: learn_monitoring_profiles(monitoring, 6))
    assert extra < corpus_bytes, f"learn_monitoring_profiles: {extra} B above its result"

    # Several blocks were folded: the pooled floor is still the per-pair minimum.
    ratios = np.array([[s.ratio for s in learn_noise_profile(p.existing, p.recomputed, 6)
                        .segment_snrs] for p in monitoring])
    pooled = np.array([s.ratio for s in profiles[""].segment_snrs])
    assert pooled.tobytes() == ratios.min(axis=0).tobytes()


def test_synthesis_holds_one_block_of_nodes_at_a_time():
    build_base_signatures(42)  # first-call caches out of the traced peak
    _, extra = _peak_above_result(lambda: build_base_signatures(42))
    assert extra < 1_000_000, f"paper defaults: {extra} B above the signatures"

    params = CorpusParams(raw_length=LENGTH * 2, grid_length=LENGTH)
    _, extra = _peak_above_result(lambda: build_base_signatures(42, params))
    raw_matrix_bytes = params.nodes * params.raw_length * 8
    assert extra < raw_matrix_bytes, f"long grid: {extra} B above the signatures"


def test_an_evaluate_repeat_holds_its_corpus_one_block_at_a_time():
    config = ExperimentConfig(n_changed=1000, n_noisy=1000, sample_sizes=(500,), repeats=1)
    corpus_bytes = 2000 * config.corpus.grid_length * 8
    run_experiment(config, 3)  # first-call caches out of the traced peak
    report, extra = _peak_above_result(lambda: run_experiment(config, 3))
    assert report["detectors"]["sw"]["500"]["f1"]["values"][0] is not None
    assert extra < corpus_bytes / 2, f"one repeat: {extra} B above its report"
