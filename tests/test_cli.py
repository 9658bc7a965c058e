import json

import numpy as np
import pytest

from sigdrift.cli import main
from sigdrift.core import read_signature, write_signature
from sigdrift.cpd import write_flags
from sigdrift.datagen import CorpusParams, build_base_signatures, build_corpus
from sigdrift.evaluate import learn_monitoring_profiles
from sigdrift.noisegen import NoiseProfile, SnrValue, read_profile, write_profile

from conftest import raw_signature, unit_signature, wavy_row


def _csv_row_values(path):
    line = path.read_text().splitlines()[1]
    return np.array([float(tok) for tok in line.split(",")[1:]])


def _write_pair(tmp_path, mirror=False):
    base = unit_signature(wavy_row(360, seed=3), provider_id="alpha")
    ex_path = tmp_path / "existing.csv"
    write_signature(base, ex_path)
    values = base.matrix[0].copy()
    if mirror:
        values[180:270] = -values[180:270]
    rec_path = tmp_path / "recomputed.csv"
    write_signature(raw_signature(values, provider_id="alpha"), rec_path)
    return ex_path, rec_path


def test_usage_errors_are_exit_one(capsys):
    assert main([]) == 1
    assert main(["detect"]) == 1  # missing required flags
    capsys.readouterr()


def test_version_and_help_exit_zero(capsys):
    assert main(["--version"]) == 0
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_detect_no_change_exit_zero(tmp_path, capsys):
    ex, rec = _write_pair(tmp_path, mirror=False)
    out = tmp_path / "outcome.json"
    code = main(["detect", "--existing", str(ex), "--recomputed", str(rec),
                 "--detector", "sw", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "no_change"
    assert payload["config"]["similarity_floor"] == 0.6


def test_detect_change_exit_two(tmp_path, capsys):
    ex, rec = _write_pair(tmp_path, mirror=True)
    out = tmp_path / "outcome.json"
    code = main(["detect", "--existing", str(ex), "--recomputed", str(rec),
                 "--detector", "sw", "--out", str(out)])
    assert code == 2
    assert json.loads(out.read_text())["verdict"] == "change"


def test_detect_cusum_on_sustained_shift(tmp_path):
    base = unit_signature(wavy_row(360, seed=1, mean=11.0))
    ex = tmp_path / "ex.csv"
    write_signature(base, ex)
    rec = tmp_path / "rec.csv"
    # a constant offset keeps the row at unit std, so it survives the
    # normalizing read intact (a pure rescale would not)
    write_signature(raw_signature(base.matrix[0] + 0.8), rec)
    out = tmp_path / "o.json"
    code = main(["detect", "--existing", str(ex), "--recomputed", str(rec),
                 "--detector", "cusum", "--out", str(out)])
    assert code == 2  # persistent drift accumulates past the decision bound


def test_detect_snr_requires_profile(tmp_path, capsys):
    ex, rec = _write_pair(tmp_path)
    assert main(["detect", "--existing", str(ex), "--recomputed", str(rec),
                 "--detector", "snr"]) == 1
    profile = NoiseProfile(tuple(SnrValue(100.0) for _ in range(6)), 60)
    prof_path = tmp_path / "profile.json"
    write_profile(profile, prof_path)
    out = tmp_path / "o.json"
    assert main(["detect", "--existing", str(ex), "--recomputed", str(rec),
                 "--detector", "snr", "--profile", str(prof_path),
                 "--out", str(out)]) == 0
    capsys.readouterr()


def test_detect_snr_profile_must_cover_the_grid(tmp_path, capsys):
    base = unit_signature(wavy_row(365, seed=3))
    ex = tmp_path / "ex.csv"
    write_signature(base, ex)
    values = base.matrix[0].copy()
    values[360:] += 50.0
    rec = tmp_path / "rec.csv"
    write_signature(raw_signature(values), rec)
    prof_path = tmp_path / "profile.json"
    write_profile(NoiseProfile(tuple(SnrValue(100.0) for _ in range(6)), 60), prof_path)
    assert main(["detect", "--existing", str(ex), "--recomputed", str(rec),
                 "--detector", "snr", "--profile", str(prof_path)]) == 1
    assert capsys.readouterr().out == ""


def test_detect_missing_file_is_exit_one(tmp_path, capsys):
    ex, _ = _write_pair(tmp_path)
    assert main(["detect", "--existing", str(ex),
                 "--recomputed", str(tmp_path / "nope.csv")]) == 1
    capsys.readouterr()


def test_inject_spike_via_spec_file(tmp_path):
    ex, _ = _write_pair(tmp_path)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"kind": "spike", "position": 100, "width": 3, "magnitude": 5.0}))
    out = tmp_path / "noisy.csv"
    assert main(["inject", "--signature", str(ex), "--spec", str(spec),
                 "--out", str(out), "--seed", "1"]) == 0
    # compare the stored values directly: reading back would re-normalize the
    # spiked row and smear the burst across the whole series
    before = _csv_row_values(ex)
    after = _csv_row_values(out)
    delta = after - before
    np.testing.assert_array_equal(np.nonzero(delta)[0], [100, 101, 102])
    np.testing.assert_allclose(delta[100:103], 5.0, rtol=0, atol=1e-12)


def test_gen_signature_from_cohorts(tmp_path):
    cohorts = tmp_path / "cohorts.csv"
    cohorts.write_text(
        "user_id,parameter,start,v0,v1,v2,v3\n"
        "u1,cpu,0,1.0,2.0,3.0,4.0\n"
        "u2,cpu,0,2.0,4.0,6.0,8.0\n")
    out = tmp_path / "sig.csv"
    assert main(["gen-signature", "--cohorts", str(cohorts),
                 "--provider", "p9", "--out", str(out)]) == 0
    sig = read_signature(out)
    assert sig.provider_id == "sig"  # stem wins on read; file stores values only
    assert sig.grid.length == 4


def test_calibrate_emits_thresholds(tmp_path):
    sig_path = tmp_path / "sig.csv"
    write_signature(unit_signature(np.arange(12.0), parameters=["cpu"]), sig_path)
    cohorts = tmp_path / "hist.csv"
    cohorts.write_text(
        "user_id,parameter,start,v0,v1,v2,v3\n"
        "u1,cpu,0,1.0,2.0,3.0,4.0\n"
        "u2,cpu,0,4.0,3.0,2.0,1.0\n")
    out = tmp_path / "calib.json"
    assert main(["calibrate", "--signature", str(sig_path),
                 "--cohorts", str(cohorts), "--method", "pcc",
                 "--window-length", "6", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "pcc"
    assert payload["similarity_threshold"] == pytest.approx(-1.0, abs=1e-9)
    assert payload["frequency_threshold"] == 1
    assert payload["window_length"] == 6


def test_events_fixture_through_cli(tmp_path):
    flags = [(i, i < 3, 0.5) for i in range(10)]
    flags += [(10 + i, i < 6, 0.5) for i in range(10)]
    flag_path = tmp_path / "flags.csv"
    write_flags(flags, flag_path)
    out = tmp_path / "events.json"
    assert main(["events", "--flags", str(flag_path), "--window-length", "10",
                 "--f-thresh", "5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["events"] == [
        {"grid_index": 19, "anomaly_count": 6, "window": [10, 10]}]


def test_gen_data_writes_a_complete_layout(tmp_path):
    out = tmp_path / "data"
    code = main(["gen-data", "--out", str(out), "--seed", "1",
                 "--nodes", "5", "--raw-length", "720",
                 "--n-changed", "3", "--n-noisy", "3"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["pairs"]) == 6
    assert sorted(p.name for p in (out / "signatures").iterdir()) == [
        "alpha.csv", "bravo.csv", "charlie.csv", "delta.csv", "echo.csv"]
    assert (out / "snr_profiles" / "pooled.json").exists()
    assert (out / "trace.csv").exists()
    for entry in manifest["pairs"]:
        assert (out / entry["recomputed_path"]).exists()
        assert (out / entry["existing_path"]).exists()


def test_gen_data_writes_repeat_zero_of_evaluate(tmp_path):
    out = tmp_path / "data"
    assert main(["gen-data", "--out", str(out), "--seed", "5",
                 "--nodes", "5", "--raw-length", "720",
                 "--n-changed", "3", "--n-noisy", "4"]) == 0
    # `evaluate --seed 5` draws repeat 0 from the first child of
    # SeedSequence(5), split into signature, corpus, monitoring and
    # sampling streams
    sig_ss, corpus_ss, monitor_ss, _ = np.random.SeedSequence(5).spawn(1)[0].spawn(4)
    params = CorpusParams(nodes=5, raw_length=720)
    signatures = build_base_signatures(int(sig_ss.generate_state(1)[0]), params)
    corpus = build_corpus(3, 4, 0.5, int(corpus_ss.generate_state(1)[0]),
                          signatures=signatures, params=params)
    monitoring = build_corpus(0, 1, 0.5, int(monitor_ss.generate_state(1)[0]),
                              signatures=signatures, params=params)

    for sig in signatures:
        np.testing.assert_array_equal(
            _csv_row_values(out / "signatures" / f"{sig.provider_id}.csv"), sig.matrix[0])
    entries = json.loads((out / "manifest.json").read_text())["pairs"]
    assert [e["index"] for e in entries] == list(range(len(corpus)))
    for entry, pair in zip(entries, corpus):
        assert entry["label"] == pair.label.value
        assert entry["existing_path"] == f"signatures/{pair.existing.provider_id}.csv"
        np.testing.assert_array_equal(
            _csv_row_values(out / entry["recomputed_path"]), pair.recomputed.matrix[0])
    assert read_profile(out / "snr_profiles" / "pooled.json") == \
        learn_monitoring_profiles(monitoring, 6)[""]


def test_gen_data_unwritable_destination(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert main(["gen-data", "--out", str(blocker / "sub"), "--seed", "1",
                 "--nodes", "4", "--raw-length", "720",
                 "--n-changed", "2", "--n-noisy", "2"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("flag, value", [("--snr-segments", "7"),
                                         ("--grid-length", "365")])
def test_gen_data_writes_nothing_when_a_setting_fails(tmp_path, capsys, flag, value):
    out = tmp_path / "data"
    assert main(["gen-data", "--out", str(out), "--seed", "1",
                 "--nodes", "4", "--raw-length", "720",
                 "--n-changed", "2", "--n-noisy", "2", flag, value]) == 1
    assert not out.exists()
    capsys.readouterr()


def test_jobs_is_only_accepted_where_it_is_read(tmp_path, capsys):
    ex, rec = _write_pair(tmp_path)
    assert main(["detect", "--existing", str(ex), "--recomputed", str(rec),
                 "--jobs", "2"]) == 1
    assert "--jobs" in capsys.readouterr().err


def _tiny_eval_args(out, seed="42"):
    return ["evaluate", "--seed", seed, "--jobs", "1",
            "--n-changed", "8", "--n-noisy", "8", "--repeats", "1",
            "--sample-sizes", "16", "--monitor-fraction", "0.2",
            "--out", str(out)]


def test_evaluate_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(_tiny_eval_args(a)) == 0
    assert main(_tiny_eval_args(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["seed"] == 42
    assert set(payload["detectors"]) == {"sw", "snr", "cusum"}


def test_evaluate_csv_companion(tmp_path):
    out = tmp_path / "r.json"
    csv = tmp_path / "r.csv"
    assert main(_tiny_eval_args(out) + ["--csv", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "detector,sample_size,metric,mean,std"
    assert len(lines) == 13


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("SIGDRIFT_SEED", "77")
    out = tmp_path / "r.json"
    args = _tiny_eval_args(out)
    args.remove("--seed")
    args.remove("42")
    assert main(args) == 0
    assert json.loads(out.read_text())["seed"] == 77
    # explicit flag still wins
    out2 = tmp_path / "r2.json"
    assert main(_tiny_eval_args(out2, seed="5")) == 0
    assert json.loads(out2.read_text())["seed"] == 5


def test_sensitivity_tiny_run(tmp_path):
    out = tmp_path / "s.json"
    assert main(["sensitivity", "--seed", "1", "--jobs", "1",
                 "--n-changed", "6", "--n-noisy", "6", "--repeats", "1",
                 "--sample-sizes", "12", "--levels", "0.5,0.0",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["levels"] == ["0.5", "0.0"]
    assert set(payload["runs"]) == {"0.5", "0.0"}


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_changed = 8\nn_noisy = 8\nrepeats = 1\n"
                   "sample_sizes = 16\nmonitor_fraction = 0.2\nseed = 3\n")
    out = tmp_path / "r.json"
    assert main(["evaluate", "--config", str(cfg), "--jobs", "1",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["seed"] == 3
    assert payload["config"]["n_changed"] == 8
