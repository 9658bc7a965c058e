"""The configuration surface: keys, defaults, routing, precedence, flags."""
import argparse
import json
import logging
import os
from dataclasses import fields

import pytest

from sigdrift.cli import build_parser, main
from sigdrift.config import RunConfig, load_config, parse_config_file
from sigdrift.errors import ParseError
from sigdrift.evaluate import ExperimentConfig

DEFAULTS = {
    "attenuation_ceiling": 0.5,
    "attenuation_high": 0.98,
    "attenuation_low": 0.93,
    "attenuation_share": 0.1,
    "awgn_db": 20.0,
    "changed_segment": 90,
    "cusum_interval": 5.0,
    "cusum_slack": 0.5,
    "detectors": ["sw", "snr", "cusum"],
    "distance_ceiling": 0.2,
    "distortion_fraction": 0.5,
    "grid_length": 360,
    "jobs": 0,
    "monitor_fraction": 0.2,
    "n_changed": 3000,
    "n_noisy": 3000,
    "nodes": 31,
    "paper_faithful": False,
    "parameter": "throughput",
    "raw_length": 6486,
    "repeats": 30,
    "sample_sizes": [1000, 2000, 3000, 4000, 5000],
    "scan_window": 6,
    "seed": 0,
    "sensitivity_levels": [0.5, 0.25, 0.0],
    "similarity_floor": 0.6,
    "snr_mode": "segments",
    "snr_segments": 6,
    "spike_magnitude": 7.0,
    "spike_width": 3,
    "trial_length": 30,
}

TYPES = {
    "attenuation_ceiling": "float", "attenuation_high": "float",
    "attenuation_low": "float", "attenuation_share": "float", "awgn_db": "float",
    "changed_segment": "int", "cusum_interval": "float", "cusum_slack": "float",
    "detectors": "tuple[str, ...]", "distance_ceiling": "float",
    "distortion_fraction": "float", "grid_length": "int", "jobs": "int",
    "monitor_fraction": "float", "n_changed": "int", "n_noisy": "int",
    "nodes": "int", "paper_faithful": "bool", "parameter": "str",
    "raw_length": "int", "repeats": "int", "sample_sizes": "tuple[int, ...]",
    "scan_window": "int", "seed": "int", "sensitivity_levels": "tuple[float, ...]",
    "similarity_floor": "float", "snr_mode": "str", "snr_segments": "int",
    "spike_magnitude": "float", "spike_width": "int", "trial_length": "int",
}

# key: (config-file text, parsed value, where it lands in ExperimentConfig;
# None for run-level settings that configure no component)
NON_DEFAULT = {
    "seed": ("11", 11, None),
    "jobs": ("2", 2, None),
    "trial_length": ("12", 12, None),
    "sensitivity_levels": ("0.4, 0.1", (0.4, 0.1), None),
    "n_changed": ("2999", 2999, "n_changed"),
    "n_noisy": ("2998", 2998, "n_noisy"),
    "distortion_fraction": ("0.25", 0.25, "distortion_fraction"),
    "sample_sizes": ("10, 20", (10, 20), "sample_sizes"),
    "repeats": ("3", 3, "repeats"),
    "detectors": ("sw, cusum", ("sw", "cusum"), "detectors"),
    "cusum_slack": ("0.75", 0.75, "cusum_slack"),
    "cusum_interval": ("4.5", 4.5, "cusum_interval"),
    "snr_segments": ("5", 5, "snr_segments"),
    "snr_mode": ("aggregate", "aggregate", "snr_mode"),
    "monitor_fraction": ("0.3", 0.3, "monitor_fraction"),
    "similarity_floor": ("0.55", 0.55, "thresholds.similarity_floor"),
    "distance_ceiling": ("0.15", 0.15, "thresholds.distance_ceiling"),
    "attenuation_ceiling": ("0.45", 0.45, "thresholds.attenuation_ceiling"),
    "scan_window": ("7", 7, "thresholds.window"),
    "nodes": ("12", 12, "corpus.nodes"),
    "raw_length": ("700", 700, "corpus.raw_length"),
    "grid_length": ("300", 300, "corpus.grid_length"),
    "parameter": ("latency", "latency", "corpus.parameter"),
    "spike_width": ("4", 4, "corpus.spike_width"),
    "spike_magnitude": ("6.5", 6.5, "corpus.spike_magnitude"),
    "attenuation_low": ("0.9", 0.9, "corpus.attenuation_low"),
    "attenuation_high": ("0.97", 0.97, "corpus.attenuation_high"),
    "awgn_db": ("15.5", 15.5, "corpus.awgn_db"),
    "attenuation_share": ("0.2", 0.2, "corpus.attenuation_share"),
    "changed_segment": ("80", 80, "corpus.changed_segment"),
    "paper_faithful": ("yes", True, "corpus.paper_faithful"),
}

COMMON = ["--config", "--help", "--seed", "--verbose", "-h"]
CORPUS_FLAGS = ["--awgn-db", "--changed-segment", "--distortion-fraction",
                "--grid-length", "--monitor-fraction", "--n-changed", "--n-noisy",
                "--nodes", "--paper-faithful", "--raw-length", "--snr-segments",
                "--spike-magnitude", "--spike-width"]
EXPERIMENT_FLAGS = CORPUS_FLAGS + ["--detectors", "--repeats", "--sample-sizes",
                                   "--snr-mode"]
OPTIONS = {
    "gen-data": COMMON + CORPUS_FLAGS + ["--out"],
    "gen-signature": ["--cohorts", "--help", "--out", "--verbose", "-h"],
    "inject": COMMON + ["--out", "--signature", "--spec"],
    "detect": COMMON + ["--detector", "--existing", "--out", "--profile",
                        "--recomputed", "--snr-mode"],
    "calibrate": COMMON + ["--cohorts", "--method", "--out", "--signature",
                           "--window-length"],
    "events": COMMON + ["--f-thresh", "--flags", "--out", "--window-length"],
    "evaluate": COMMON + EXPERIMENT_FLAGS + ["--csv", "--jobs", "--out"],
    "sensitivity": COMMON + EXPERIMENT_FLAGS + ["--jobs", "--levels", "--out"],
}


def _type_name(kind) -> str:
    return kind.__name__ if isinstance(kind, type) else str(kind)


def _lookup(obj, path: str):
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _write(tmp_path, text: str):
    """A config file of `text`; a lone surrogate "\\udcXX" writes the byte 0xXX."""
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8", errors="surrogateescape")
    return path


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("SIGDRIFT_SEED", raising=False)


def test_default_keys_and_values_snapshot():
    assert RunConfig().as_dict() == DEFAULTS
    # == takes 20 for 20.0; the JSON text does not
    assert json.dumps(RunConfig().as_dict(), sort_keys=True) == json.dumps(
        DEFAULTS, sort_keys=True)


def test_key_types_snapshot():
    assert {f.name: _type_name(f.type) for f in fields(RunConfig)} == TYPES


def test_defaults_build_the_default_experiment():
    assert RunConfig().build(ExperimentConfig) == ExperimentConfig()


def test_non_default_table_covers_every_key():
    assert set(NON_DEFAULT) == set(DEFAULTS)
    for key, (_, value, _) in NON_DEFAULT.items():
        default = DEFAULTS[key]
        assert (list(value) if isinstance(value, tuple) else value) != default, key


@pytest.mark.parametrize("key", sorted(NON_DEFAULT))
def test_every_key_reaches_its_component(tmp_path, key):
    raw, value, path = NON_DEFAULT[key]
    config = load_config(_write(tmp_path, f"# one knob\n{key} = {raw}\n"))
    assert getattr(config, key) == value
    expected = list(value) if isinstance(value, tuple) else value
    assert config.as_dict() == {**DEFAULTS, key: expected}
    if path is not None:
        assert _lookup(config.build(ExperimentConfig), path) == value


def test_precedence_flag_over_file_over_env_over_default(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "seed = 3\nn_changed = 40\n")
    assert load_config().seed == 0
    monkeypatch.setenv("SIGDRIFT_SEED", "77")
    assert load_config().seed == 77
    assert load_config(cfg).seed == 3
    config = load_config(cfg, {"seed": 5, "n_changed": None, "n_noisy": 9})
    assert (config.seed, config.n_changed, config.n_noisy) == (5, 40, 9)


def test_precedence_through_the_cli(tmp_path, monkeypatch):
    cfg = _write(tmp_path, "n_changed = 8\nn_noisy = 8\nrepeats = 1\n"
                           "sample_sizes = 16\nseed = 3\n")
    monkeypatch.setenv("SIGDRIFT_SEED", "77")
    out = tmp_path / "r.json"
    base = ["evaluate", "--config", str(cfg), "--jobs", "1", "--out", str(out)]
    assert main(base) == 0
    assert json.loads(out.read_text())["seed"] == 3
    assert main(base + ["--seed", "5", "--n-noisy", "9", "--sample-sizes", "17"]) == 0
    report = json.loads(out.read_text())
    assert report["seed"] == 5
    assert report["config"]["n_noisy"] == 9
    assert report["config"]["sample_sizes"] == [17]


def test_tuple_values_parse_from_comma_lists(tmp_path):
    cfg = _write(tmp_path, "sample_sizes = 16, 32,\ndetectors = snr ,cusum\n")
    assert parse_config_file(cfg) == {"sample_sizes": (16, 32),
                                      "detectors": ("snr", "cusum")}


@pytest.mark.parametrize("text, lineno, message", [
    ("window = 6\n", 1, "unknown config key 'window'"),
    ("resolution = hour\n", 1, "unknown config key 'resolution'"),
    ("n_changed = 4\npaper_faithful = maybe\n", 2, "bad value for paper_faithful"),
    ("\n# comment\nn_changed = 1.5\n", 3, "bad value for n_changed"),
    ("snr_segments\n", 1, "expected 'key = value'"),
    ("cusum_interval = nan\n", 1, "bad value for cusum_interval: not a finite number"),
    ("sensitivity_levels = 0.5, inf\n", 1, "bad value for sensitivity_levels"),
    ("n_changed = 4\r\nseed = 7\udcff\r\n", 2, "not UTF-8 text (invalid start byte)"),
])
def test_parse_errors_name_file_and_line(tmp_path, text, lineno, message):
    cfg = _write(tmp_path, text)
    with pytest.raises(ParseError) as info:
        parse_config_file(cfg)
    assert str(info.value).startswith(f"{cfg}:{lineno}: ")
    assert message in str(info.value)


def test_non_integer_env_seed_is_exit_one(tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("SIGDRIFT_SEED", "seven")
    with pytest.raises(ParseError):
        load_config()
    with caplog.at_level(logging.ERROR, logger="sigdrift"):
        code = main(["evaluate", "--jobs", "1", "--n-changed", "8", "--n-noisy", "8",
                     "--repeats", "1", "--sample-sizes", "16",
                     "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "SIGDRIFT_SEED" in caplog.text
    assert not (tmp_path / "r.json").exists()


def test_subcommand_option_snapshot():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: sorted(opt for action in p._actions for opt in action.option_strings)
        for name, p in sub.choices.items()
    }
    assert got == {name: sorted(opts) for name, opts in OPTIONS.items()}


def test_flags_parse_to_the_same_values_as_the_config_file():
    from sigdrift.cli import _config_from_args

    argv = ["sensitivity"]
    expected = {}
    for flag in OPTIONS["sensitivity"]:
        if flag in ("-h", "--help", "--config", "--verbose", "--out"):
            continue
        key = "sensitivity_levels" if flag == "--levels" else flag[2:].replace("-", "_")
        raw, value, _ = NON_DEFAULT[key]
        argv += [flag] if isinstance(value, bool) else [flag, raw.replace(" ", "")]
        expected[key] = value
    config = _config_from_args(build_parser().parse_args(argv))
    assert {key: getattr(config, key) for key in expected} == expected
    untouched = set(DEFAULTS) - set(expected)
    assert {k: config.as_dict()[k] for k in untouched} == {k: DEFAULTS[k] for k in untouched}


def test_jobs_zero_means_every_core_and_negative_is_an_error():
    assert RunConfig(jobs=0).effective_jobs() == (os.cpu_count() or 1)
    assert RunConfig(jobs=3).effective_jobs() == 3
    with pytest.raises(ValueError, match=r"jobs must be 0 \(one worker per core\) or positive"):
        RunConfig(jobs=-3).effective_jobs()
