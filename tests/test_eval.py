import numpy as np
import pytest

from sigdrift.datagen import Label, LabeledPair, build_base_signatures, build_corpus
from sigdrift.detect import Verdict
from sigdrift.errors import AlignmentError
from sigdrift.evaluate import (ConfusionCounts, ExperimentConfig, accuracy, f1,
                               fp_rate, learn_monitoring_profiles,
                               report_to_csv, run_experiment,
                               sensitivity_analysis, score, tp_rate)
from sigdrift.noisegen import learn_noise_profile

from conftest import raw_signature, unit_signature, wavy_row

TINY = ExperimentConfig(n_changed=8, n_noisy=8, distortion_fraction=0.5,
                        sample_sizes=(16,), repeats=2, monitor_fraction=0.2)


# ------------------------------------------------------------------- score

def test_score_all_hits():
    counts = score([(Label.CHANGED, Verdict.CHANGE)] * 7)
    assert counts == ConfusionCounts(tp=7, fp=0, tn=0, fn=0)


def test_score_hand_count():
    pairs = ([(Label.CHANGED, Verdict.CHANGE)] * 3 +
             [(Label.NOISY, Verdict.CHANGE)] * 1 +
             [(Label.NOISY, Verdict.NO_CHANGE)] * 3 +
             [(Label.NOISY, Verdict.NOISE)] * 2 +
             [(Label.CHANGED, Verdict.NOISE)] * 1)
    counts = score(pairs)
    # noise verdicts on noisy pairs are correct rejections
    assert counts == ConfusionCounts(tp=3, fp=1, tn=5, fn=1)


def test_score_empty():
    assert score([]) == ConfusionCounts(0, 0, 0, 0)


# ------------------------------------------------------------------ metrics

def test_metric_fixture():
    c = ConfusionCounts(tp=3, fp=1, tn=5, fn=1)
    assert round(fp_rate(c), 4) == 0.1667
    assert tp_rate(c) == 0.75
    assert accuracy(c) == 0.8
    assert f1(c) == 0.75


def test_perfect_detector():
    c = ConfusionCounts(tp=4, fp=0, tn=6, fn=0)
    assert fp_rate(c) == 0.0
    assert tp_rate(c) == 1.0
    assert accuracy(c) == 1.0
    assert f1(c) == 1.0


def test_zero_denominators_return_none():
    assert fp_rate(ConfusionCounts(tp=1, fn=1)) is None
    assert tp_rate(ConfusionCounts(fp=1, tn=1)) is None
    assert accuracy(ConfusionCounts()) is None
    assert f1(ConfusionCounts(tn=5)) is None


def test_metrics_against_bruteforce():
    rng = np.random.default_rng(21)
    for _ in range(25):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 500, size=4))
        c = ConfusionCounts(tp, fp, tn, fn)
        if fp + tn:
            assert abs(fp_rate(c) - fp / (fp + tn)) < 1e-12
        if tp + fn:
            assert abs(tp_rate(c) - tp / (tp + fn)) < 1e-12
        if c.total:
            assert abs(accuracy(c) - (tp + tn) / (tp + fp + tn + fn)) < 1e-12
        if 2 * tp + fp + fn:
            assert abs(f1(c) - 2 * tp / (2 * tp + fp + fn)) < 1e-12


def test_f1_ignores_true_negatives():
    base = f1(ConfusionCounts(tp=5, fp=2, tn=0, fn=3))
    for tn in (1, 10, 1000):
        assert f1(ConfusionCounts(tp=5, fp=2, tn=tn, fn=3)) == base


# ------------------------------------------------------------------- config

def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(repeats=0)
    with pytest.raises(ValueError):
        ExperimentConfig(monitor_fraction=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(sample_sizes=(0,))
    with pytest.raises(ValueError):
        ExperimentConfig(n_changed=5, n_noisy=5, sample_sizes=(11,))
    with pytest.raises(ValueError):
        ExperimentConfig(detectors=("sw", "psychic"))
    payload = TINY.to_dict()
    assert payload["sample_sizes"] == [16]
    assert payload["thresholds"]["similarity_floor"] == 0.60


@pytest.mark.parametrize("field, value", [
    ("detectors", ()), ("detectors", ("sw", "snr", "sw")),
    ("sample_sizes", ()), ("sample_sizes", (8, 16, 8)),
])
def test_list_settings_name_each_value_once(field, value):
    with pytest.raises(ValueError, match="each once"):
        ExperimentConfig(n_changed=8, n_noisy=8, **{field: value})


@pytest.mark.parametrize("levels", [(), (0.5, 0.25, 0.5), (0, 0.0)])
def test_sensitivity_levels_name_each_fraction_once(levels):
    with pytest.raises(ValueError, match="each once"):
        sensitivity_analysis(TINY, seed=11, levels=levels, jobs=1)


# --------------------------------------------------------------- monitoring

def test_monitoring_profiles_cover_all_providers_plus_pooled():
    sigs = build_base_signatures(seed=42)
    monitor = build_corpus(0, 20, 0.5, seed=5, signatures=sigs)
    profiles = learn_monitoring_profiles(monitor, segments=6)
    assert "" in profiles
    for pid in {p.existing.provider_id for p in monitor}:
        assert pid in profiles
    for profile in profiles.values():
        assert profile.segments == 6
        assert profile.segment_length == 60
    with pytest.raises(ValueError):
        learn_monitoring_profiles([], segments=6)


def test_monitoring_profiles_reject_a_grid_segments_do_not_split():
    monitor = build_corpus(0, 4, 0.5, seed=5, signatures=build_base_signatures(seed=42))
    with pytest.raises(AlignmentError, match="360-point grid"):
        learn_monitoring_profiles(monitor, segments=7)


def _monitoring_pair(existing, residual_rows):
    recomputed = raw_signature(existing.matrix - np.asarray(residual_rows),
                               existing.provider_id, existing.parameters)
    return LabeledPair(existing, recomputed, Label.NOISY, None, {})


def test_monitoring_profiles_keep_the_noisiest_segment():
    """Lowest baseline per segment, and an infinite one above any finite."""
    a = unit_signature(wavy_row(20, seed=1), provider_id="a")
    b = unit_signature(wavy_row(20, seed=2), provider_id="b")
    quiet_start = _monitoring_pair(a, [[0.0] * 10 + [0.1] * 10])
    loud = _monitoring_pair(a, [[0.2] * 10 + [0.05] * 10])
    silent = _monitoring_pair(b, [[0.0] * 20])
    profiles = learn_monitoring_profiles([quiet_start, loud, silent], segments=2)
    first, second = (learn_noise_profile(p.existing, p.recomputed, 2).segment_snrs
                     for p in (quiet_start, loud))
    assert first[0].infinite and not second[0].infinite and second[1].ratio > first[1].ratio
    assert profiles["a"].segment_snrs == (second[0], first[1])
    assert profiles["b"].segment_snrs == learn_noise_profile(b, b, 2).segment_snrs
    assert all(s.infinite for s in profiles["b"].segment_snrs)
    assert profiles[""] == profiles["a"]
    assert profiles["a"].segment_length == 10
    longer = unit_signature(wavy_row(40, seed=3), provider_id="c")
    with pytest.raises(AlignmentError, match="share grid"):
        learn_monitoring_profiles([loud, _monitoring_pair(longer, [[0.1] * 40])], segments=2)


def test_pooled_profile_is_segmentwise_worst():
    sigs = build_base_signatures(seed=42)
    monitor = build_corpus(0, 12, 0.5, seed=6, signatures=sigs)
    profiles = learn_monitoring_profiles(monitor, segments=6)
    pooled = profiles[""]
    for i in range(6):
        for pid, prof in profiles.items():
            assert not prof.segment_snrs[i] < pooled.segment_snrs[i]


# -------------------------------------------------------------- experiment

def test_run_experiment_report_shape_and_determinism():
    a = run_experiment(TINY, seed=11, jobs=1)
    b = run_experiment(TINY, seed=11, jobs=2)
    assert a == b  # worker count must not leak into results
    assert sorted(a["detectors"].keys()) == ["cusum", "snr", "sw"]
    cell = a["detectors"]["sw"]["16"]
    assert set(cell) == {"fp_rate", "tp_rate", "accuracy", "f1"}
    assert len(cell["f1"]["values"]) == TINY.repeats
    assert cell["f1"]["mean"] == pytest.approx(
        float(np.mean(cell["f1"]["values"])), abs=1e-12)
    assert a["config"]["n_changed"] == 8
    assert a["seed"] == 11
    c = run_experiment(TINY, seed=12, jobs=1)
    assert c != a


def test_run_experiment_metrics_are_rates():
    report = run_experiment(TINY, seed=11, jobs=1)
    for det in report["detectors"].values():
        for cell in det.values():
            for metric in cell.values():
                for v in metric["values"]:
                    assert v is None or 0.0 <= v <= 1.0


def test_sensitivity_levels_are_keyed_by_fraction():
    out = sensitivity_analysis(TINY, seed=11, levels=(0.5, 0.0), jobs=1)
    assert out["levels"] == ["0.5", "0.0"]
    assert sorted(out["runs"].keys()) == ["0.0", "0.5"]
    for run in out["runs"].values():
        assert "detectors" in run
        assert run["config"]["repeats"] == TINY.repeats
    assert out["runs"]["0.0"]["config"]["distortion_fraction"] == 0.0
    # the default-level run is the plain experiment under the same seed
    assert out["runs"]["0.5"] == run_experiment(TINY, seed=11, jobs=1)


# ------------------------------------------------------------------ reports

def test_report_to_csv():
    report = run_experiment(TINY, seed=11, jobs=1)
    text = report_to_csv(report)
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == "detector,sample_size,metric,mean,std"
    # 3 detectors x 1 sample size x 4 metrics
    assert len(lines) == 1 + 12
