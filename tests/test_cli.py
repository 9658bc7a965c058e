import contextlib
import io
import json
import logging
import warnings

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


def test_usage_errors_are_exit_one(tmp_path, capsys):
    assert main([]) == 1
    assert main(["detect"]) == 1  # missing required flags
    capsys.readouterr()
    assert main(["calibrate", "--signature", str(tmp_path / "sig.csv"),
                 "--cohorts", str(tmp_path / "hist.csv"), "--method", "dtw"]) == 1
    assert "invalid choice: 'dtw'" in capsys.readouterr().err


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


@pytest.mark.parametrize("detector", ["sw", "cusum"])
def test_detect_rejects_a_profile_for_a_detector_that_reads_none(tmp_path, monkeypatch, caplog,
                                                                 detector):
    import sigdrift.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started")
    monkeypatch.setattr(cli, "read_signature", no_work)
    monkeypatch.setattr(cli, "read_profile", no_work)
    out = tmp_path / "o.json"
    # No file exists: the flag is refused before the config file is read.
    assert main(["detect", "--detector", detector, "--config", str(tmp_path / "run.cfg"),
                 "--existing", str(tmp_path / "ex.csv"), "--recomputed", str(tmp_path / "rec.csv"),
                 "--profile", str(tmp_path / "p.json"), "--out", str(out)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"--profile is read only by detector snr, not {detector}"]
    assert not out.exists()


def test_detect_snr_with_an_overflowing_ratio_is_no_change(tmp_path, capsys):
    # unit-std rows that read back unchanged; the residual [0, 1e-154]
    # has a mean square of 5e-309, so the SNR ratio overflows to unbounded
    ex, rec, prof = tmp_path / "ex.csv", tmp_path / "rec.csv", tmp_path / "p.json"
    write_signature(raw_signature([2.0, 0.0]), ex)
    write_signature(raw_signature([2.0, -1e-154]), rec)
    write_profile(NoiseProfile((SnrValue(100.0),), 2), prof)
    out = tmp_path / "o.json"
    assert main(["detect", "--existing", str(ex), "--recomputed", str(rec),
                 "--detector", "snr", "--profile", str(prof), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "no_change"
    assert payload["diagnostics"]["snr_current"] == [None]
    capsys.readouterr()


def test_detect_rejects_a_profile_with_non_numbers_in_one_line(tmp_path, caplog, capsys):
    ex, rec = _write_pair(tmp_path)
    prof = tmp_path / "profile.json"
    prof.write_text('{"segment_length": true, "segment_snrs": [true, "7", 5.0]}\n')
    assert main(["detect", "--existing", str(ex), "--recomputed", str(rec),
                 "--detector", "snr", "--profile", str(prof)]) == 1
    assert [r.getMessage() for r in caplog.records] == [
        f"{prof}: bad noise profile: segment_snrs[0]: expected a number, got True"]
    assert capsys.readouterr().out == ""


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


def test_inject_rejects_a_distortion_beyond_300_db(tmp_path, caplog):
    ex, _ = _write_pair(tmp_path)
    out = tmp_path / "noisy.csv"
    assert main(["inject", "--signature", str(ex), "--out", str(out), "--spec",
                 '{"kind": "distortion", "target_snr_db": 4000}']) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "target_snr_db = 4000.0 must be in [-300, 300]" in errors[0]
    assert not out.exists()


def test_inject_rejects_a_spike_beyond_the_cap(tmp_path, caplog):
    ex, _ = _write_pair(tmp_path)
    out = tmp_path / "noisy.csv"
    assert main(["inject", "--signature", str(ex), "--out", str(out), "--spec",
                 '{"kind": "spike", "position": 0, "magnitude": 1e308}']) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "magnitude = 1e+308 must be at most 1e+06" in errors[0]
    assert not out.exists()


def test_inject_rejects_a_spike_beyond_the_grid_naming_where(tmp_path, caplog):
    ex, _ = _write_pair(tmp_path)
    out = tmp_path / "noisy.csv"
    assert main(["inject", "--signature", str(ex), "--out", str(out), "--spec",
                 '{"kind": "spike", "position": 400}']) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["spike at position = 400 with width = 3 exceeds the grid of 360 points"]
    assert not out.exists()


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
    assert main(["gen-signature", "--cohorts", str(cohorts), "--out", str(out)]) == 0
    sig = read_signature(out)
    assert sig.provider_id == "sig"  # stem wins on read; file stores values only
    assert sig.matrix.shape == (1, 4)


def test_gen_signature_header_only_cohort_file_is_exit_one(tmp_path, caplog):
    cohorts = tmp_path / "cohorts.csv"
    cohorts.write_text("user_id,parameter,start,v0,v1,v2,v3\n")
    assert main(["gen-signature", "--cohorts", str(cohorts),
                 "--out", str(tmp_path / "sig.csv")]) == 1
    assert [r.getMessage() for r in caplog.records] == [f"{cohorts}: no data rows"]
    assert not (tmp_path / "sig.csv").exists()


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--config", "missing.cfg"],
                                  ["--provider", "p9"]])
def test_gen_signature_rejects_settings_it_does_not_read(tmp_path, flag):
    cohorts = tmp_path / "cohorts.csv"
    cohorts.write_text("user_id,parameter,start,v0,v1,v2\nu1,cpu,0,1.0,2.0,4.0\n")
    assert main(["gen-signature", "--cohorts", str(cohorts),
                 "--out", str(tmp_path / "sig.csv"), *flag]) == 1


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


def _calibrate(tmp_path, window):
    sig_path = tmp_path / "sig.csv"
    write_signature(unit_signature(np.arange(12.0), parameters=["cpu"]), sig_path)
    cohorts = tmp_path / "hist.csv"
    cohorts.write_text("user_id,parameter,start,v0,v1,v2,v3\n"
                       "u1,cpu,0,1.0,2.0,3.0,4.0\n")
    out = tmp_path / "calib.json"
    code = main(["calibrate", "--signature", str(sig_path), "--cohorts", str(cohorts),
                 "--window-length", window, "--out", str(out)])
    return code, out


def test_calibrate_names_the_cohort_file_of_a_parameter_with_no_row(tmp_path, caplog):
    sig_path = tmp_path / "sig.csv"
    write_signature(unit_signature(wavy_row(40, seed=1), parameters=["cpu"]), sig_path)
    cohorts = tmp_path / "hist.csv"
    cohorts.write_text("user_id,parameter,start,v0,v1,v2,v3\n"
                       "u1,io,0,1.0,2.0,3.0,4.0\n")
    out = tmp_path / "calib.json"
    assert main(["calibrate", "--signature", str(sig_path), "--cohorts", str(cohorts),
                 "--out", str(out)]) == 1
    assert [r.getMessage() for r in caplog.records] == [
        f"{cohorts}: user 'u1' is for parameter 'io', which the signature has no row for"]
    assert not out.exists()


def test_detect_on_a_grid_too_short_for_the_scan_window_names_both(tmp_path, capsys):
    ex, rec = tmp_path / "ex.csv", tmp_path / "rec.csv"
    write_signature(unit_signature(wavy_row(7, seed=3)), ex)
    write_signature(unit_signature(wavy_row(7, seed=4)), rec)
    assert main(["detect", "--existing", str(ex), "--recomputed", str(rec)]) == 1
    assert capsys.readouterr() == (
        "", "ERROR scan_window = 6 must be less than the grid length 7 minus 1\n")


def test_detect_on_a_header_only_signature_file_is_exit_one(tmp_path, capsys):
    ex, rec = _write_pair(tmp_path)
    header_only = tmp_path / "header.csv"
    header_only.write_text(ex.read_text().splitlines()[0] + "\n")
    assert main(["detect", "--existing", str(header_only), "--recomputed", str(rec)]) == 1
    assert capsys.readouterr() == ("", f"ERROR {header_only}: no data rows\n")


def test_detect_on_a_profile_whose_snr_overflows_a_float_is_exit_one(tmp_path, capsys):
    ex, rec = _write_pair(tmp_path)
    prof = tmp_path / "profile.json"
    prof.write_text('{"segment_length": 60, "segment_snrs": [%s, 5.0]}\n' % ("9" * 400))
    assert main(["detect", "--existing", str(ex), "--recomputed", str(rec),
                 "--detector", "snr", "--profile", str(prof)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"ERROR {prof}: bad noise profile: segment_snrs[0]: 999")


def test_gen_signature_names_the_cohort_file_of_a_user_off_the_start(tmp_path, capsys):
    cohorts = tmp_path / "cohorts.csv"
    cohorts.write_text("user_id,parameter,start,v0,v1,v2,v3\n"
                       "u1,cpu,0,1.0,2.0,3.0,4.0\n"
                       "u2,cpu,1,2.0,4.5,6.0,8.0\n")
    out = tmp_path / "sig.csv"
    assert main(["gen-signature", "--cohorts", str(cohorts), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"ERROR {cohorts}: user 'u2' covers (1, 4) for 'cpu', "
                                       "signature generation needs (0, 4)\n")
    assert not out.exists()


def test_each_call_of_main_logs_to_its_own_stderr(tmp_path):
    argv = ["events", "--flags", str(tmp_path / "none.csv"), "--f-thresh", "1"]
    first, second = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(first):
        assert main(argv) == 1
    with contextlib.redirect_stderr(second):
        assert main([*argv, "--verbose"]) == 1
    line = first.getvalue()
    assert line.startswith("ERROR ") and line.count("\n") == 1
    assert second.getvalue() == line
    logger = logging.getLogger("sigdrift")
    assert (logger.handlers, logger.level) == ([], logging.NOTSET)


def test_a_key_error_is_a_fault_not_a_user_error(tmp_path, monkeypatch):
    import sigdrift.cli as cli

    def broken(*args, **kwargs):
        raise KeyError("index")
    monkeypatch.setattr(cli, "read_flags", broken)
    with pytest.raises(KeyError):
        main(["events", "--flags", str(tmp_path / "flags.csv"), "--f-thresh", "1"])


def test_calibrate_reports_the_window_it_used(tmp_path):
    code, out = _calibrate(tmp_path, "6")
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["window_length"] == payload["config"]["trial_length"] == 6


def test_a_zero_trial_window_is_exit_one(tmp_path, capsys):
    code, out = _calibrate(tmp_path, "0")
    assert code == 1
    assert not out.exists()
    flag_path = tmp_path / "flags.csv"
    write_flags([(0, True, 0.5)], flag_path)
    assert main(["events", "--flags", str(flag_path), "--window-length", "0",
                 "--f-thresh", "1"]) == 1
    assert capsys.readouterr().out == ""


def test_events_checks_f_thresh_before_reading_the_flags(tmp_path, monkeypatch, caplog):
    import sigdrift.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started")
    monkeypatch.setattr(cli, "read_flags", no_work)
    out = tmp_path / "events.json"
    assert main(["events", "--flags", str(tmp_path / "flags.csv"), "--f-thresh", "-1",
                 "--out", str(out)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["--f-thresh = -1 must be at least 1"]
    assert not out.exists()


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


def test_gen_data_manifest_names_the_snr_profile_of_every_pair(tmp_path):
    out = tmp_path / "data"
    assert main(["gen-data", "--seed", "3", "--n-changed", "10", "--n-noisy", "10",
                 "--out", str(out)]) == 0
    entries = json.loads((out / "manifest.json").read_text())["pairs"]
    # The monitoring corpus at this seed draws no echo or alpha pair, so
    # those providers are judged by the pooled profile, as in `evaluate`.
    pooled = {e["provider"] for e in entries
              if e["snr_profile_path"] == "snr_profiles/pooled.json"}
    assert pooled == {"alpha", "echo"}
    for entry in entries:
        own = out / "snr_profiles" / f"{entry['provider']}.json"
        if own.exists():
            assert entry["snr_profile_path"] == f"snr_profiles/{entry['provider']}.json"
        assert main(["detect", "--detector", "snr",
                     "--existing", str(out / entry["existing_path"]),
                     "--recomputed", str(out / entry["recomputed_path"]),
                     "--profile", str(out / entry["snr_profile_path"])]) in (0, 2)


def test_gen_data_unwritable_destination(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert main(["gen-data", "--out", str(blocker / "sub"), "--seed", "1",
                 "--nodes", "4", "--raw-length", "720",
                 "--n-changed", "2", "--n-noisy", "2"]) == 1
    capsys.readouterr()


def test_evaluate_fails_before_building_the_evaluation_corpus(tmp_path, caplog,
                                                              monkeypatch):
    import sigdrift.evaluate as evaluate

    asked = []

    def recording(build):
        def recorded(n_changed, n_noisy, *args, **kwargs):
            asked.append((n_changed, n_noisy))
            return build(n_changed, n_noisy, *args, **kwargs)
        return recorded
    monkeypatch.setattr(evaluate, "build_corpus", recording(evaluate.build_corpus))
    monkeypatch.setattr(evaluate, "corpus_blocks", recording(evaluate.corpus_blocks))
    assert main(["evaluate", "--seed", "1", "--jobs", "1", "--snr-segments", "7",
                 "--out", str(tmp_path / "r.json")]) == 1
    assert "does not split into 7 equal segments" in caplog.text
    assert asked == []


def test_jobs_is_only_accepted_where_it_is_read(tmp_path, capsys):
    ex, rec = _write_pair(tmp_path)
    assert main(["detect", "--existing", str(ex), "--recomputed", str(rec),
                 "--jobs", "2"]) == 1
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("detect", ["--seed", "1"]), ("calibrate", ["--seed", "1"]), ("events", ["--seed", "1"]),
    ("detect", ["--snr-mode", "segments"]), ("evaluate", ["--snr-mode", "segments"]),
    ("sensitivity", ["--snr-mode", "segments"])])
def test_a_flag_of_no_effect_is_a_usage_error(tmp_path, capsys, command, flag):
    """``--seed`` where nothing is drawn, and the deleted ``--snr-mode``."""
    argv = {"detect": ["--existing", "ex.csv", "--recomputed", "rec.csv"],
            "calibrate": ["--signature", "sig.csv", "--cohorts", "hist.csv"],
            "events": ["--flags", "flags.csv", "--f-thresh", "1"]}.get(
        command, ["--jobs", "1", "--out", str(tmp_path / "r.json")])
    assert main([command, *argv, *flag]) == 1
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


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


@pytest.mark.parametrize("grid", [
    ["--nodes", "3", "--raw-length", "60", "--grid-length", "36", "--changed-segment", "9"],
    ["--nodes", "2", "--raw-length", "23040", "--grid-length", "23040",
     "--changed-segment", "5760"]], ids=["36-points", "23040-points"])
def test_evaluate_at_the_spike_and_awgn_caps_warns_of_no_overflow(tmp_path, grid):
    for awgn_db in ("-300", "300"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["evaluate", "--seed", "1", "--jobs", "1", *grid,
                         "--n-changed", "2", "--n-noisy", "8", "--sample-sizes", "10",
                         "--repeats", "1", "--spike-magnitude", "1e6",
                         "--awgn-db", awgn_db, "--out", str(tmp_path / "r.json")]) == 0


def test_sensitivity_tiny_run(tmp_path):
    out = tmp_path / "s.json"
    assert main(["sensitivity", "--seed", "1", "--jobs", "1",
                 "--n-changed", "6", "--n-noisy", "6", "--repeats", "1",
                 "--sample-sizes", "12", "--levels", "0.5,0.0",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["levels"] == ["0.5", "0.0"]
    assert set(payload["runs"]) == {"0.5", "0.0"}


@pytest.mark.parametrize("command, flag, value, message", [
    ("evaluate", "--detectors", "", "each once"),
    ("evaluate", "--sample-sizes", "", "each once"),
    ("evaluate", "--detectors", "sw,sw", "each once"),
    ("evaluate", "--sample-sizes", "8,8", "each once"),
    ("sensitivity", "--levels", "", "each once"),
    ("sensitivity", "--levels", "0.5,0.5", "each once"),
    ("evaluate", "--jobs", "-3", "0 (one worker per core) or positive"),
    ("sensitivity", "--jobs", "-3", "0 (one worker per core) or positive"),
    pytest.param("gen-data", "--spike-width", "400",
                 "spike_width = 400 exceeds grid_length = 360", id="gen-data-spike-width"),
    pytest.param("evaluate", "--spike-width", "400",
                 "spike_width = 400 exceeds grid_length = 360", id="evaluate-spike-width"),
    pytest.param("gen-data", "--spike-width", "0",
                 "spike_width = 0 must be at least 1", id="gen-data-spike-width-0"),
    pytest.param("evaluate", "--spike-width", "0",
                 "spike_width = 0 must be at least 1", id="evaluate-spike-width-0"),
    pytest.param("gen-data", "--spike-magnitude", "-1",
                 "spike_magnitude = -1.0 must be positive", id="gen-data-spike-magnitude"),
    pytest.param("evaluate", "--spike-magnitude", "0",
                 "spike_magnitude = 0.0 must be positive", id="evaluate-spike-magnitude"),
    pytest.param("gen-data", "--spike-magnitude", "1e308",
                 "spike_magnitude = 1e+308 must be at most 1e+06",
                 id="gen-data-spike-magnitude-overflow"),
    pytest.param("evaluate", "--spike-magnitude", "1e152",
                 "spike_magnitude = 1e+152 must be at most 1e+06",
                 id="evaluate-spike-magnitude-overflow"),
    pytest.param("gen-data", "--awgn-db", "4000",
                 "awgn_db = 4000.0 must be in [-300, 300]", id="gen-data-awgn-db"),
    pytest.param("evaluate", "--awgn-db", "-4000",
                 "awgn_db = -4000.0 must be in [-300, 300]", id="evaluate-awgn-db"),
    pytest.param("gen-data", "--config",
                 "grid_length = 12\nchanged_segment = 3\nspike_width = 20\n",
                 "spike_width = 20 exceeds grid_length = 12", id="gen-data-small-grid"),
    pytest.param("evaluate", "--config", "scan_window = 359\n",
                 "scan_window = 359 must be less than grid_length - 1 = 359",
                 id="evaluate-scan-window"),
    pytest.param("gen-data", "--monitor-fraction", "0",
                 "monitor_fraction = 0.0 must be in (0, 1]", id="gen-data-monitor-fraction-0"),
    pytest.param("gen-data", "--monitor-fraction", "5",
                 "monitor_fraction = 5.0 must be in (0, 1]", id="gen-data-monitor-fraction-5"),
    pytest.param("gen-data", "--config", "cusum_slack = -1\n",
                 "cusum_slack = -1.0 must be non-negative", id="gen-data-cusum-slack"),
    pytest.param("evaluate", "--config", "cusum_slack = -1\n",
                 "cusum_slack = -1.0 must be non-negative", id="evaluate-cusum-slack"),
    pytest.param("gen-data", "--config", "cusum_interval = 0\n",
                 "cusum_interval = 0.0 must be positive", id="gen-data-cusum-interval"),
    pytest.param("gen-data", "--grid-length", ["800", "--raw-length", "720"],
                 "grid_length = 800 exceeds raw_length = 720", id="gen-data-grid-over-raw"),
    pytest.param("gen-data", "--distortion-fraction", "2",
                 "distortion_fraction = 2.0 must be in [0, 1]",
                 id="gen-data-distortion-fraction"),
    pytest.param("evaluate", "--distortion-fraction", "2",
                 "distortion_fraction = 2.0 must be in [0, 1]",
                 id="evaluate-distortion-fraction"),
    pytest.param("gen-data", "--n-changed", "-2",
                 "n_changed = -2 must be non-negative", id="gen-data-n-changed"),
    pytest.param("evaluate", "--n-changed", "-2",
                 "n_changed = -2 must be non-negative", id="evaluate-n-changed"),
    pytest.param("gen-data", "--snr-segments", "7",
                 "grid_length = 360 does not split into 7 equal segments of at least 2 points "
                 "(snr_segments = 7)", id="gen-data-snr-segments"),
    pytest.param("gen-data", "--grid-length", "365",
                 "grid_length = 365 does not split into 6 equal segments",
                 id="gen-data-grid-length"),
])
def test_bad_list_or_jobs_setting_exits_1_before_any_work(tmp_path, monkeypatch, caplog,
                                                          command, flag, value, message):
    import sigdrift.cli as cli
    import sigdrift.evaluate as evaluate

    def no_work(*args, **kwargs):
        raise AssertionError("work started")
    monkeypatch.setattr(evaluate, "build_base_signatures", no_work)
    monkeypatch.setattr(cli, "synthesize_trace", no_work)
    monkeypatch.setattr(cli, "read_signature", no_work)
    if flag == "--config":
        (tmp_path / "run.cfg").write_text(value)
        value = str(tmp_path / "run.cfg")
    # The report, the outcome, or for gen-data the output directory.
    out = tmp_path / "out"
    run = {"gen-data": ["--n-changed", "8", "--n-noisy", "8"]}.get(
        command, ["--n-changed", "8", "--n-noisy", "8", "--jobs", "1", "--repeats", "1",
                  "--sample-sizes", "8"])
    values = [value] if isinstance(value, str) else value
    assert main([command, "--seed", "1", *run, flag, *values, "--out", str(out)]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and message in errors[0]
    assert not out.exists()


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
