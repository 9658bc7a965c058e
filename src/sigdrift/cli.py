"""Command-line interface.

stdout carries machine-readable results only; progress and diagnostics
go to stderr.  Exit codes: 0 success (for `detect`: no change or noise),
1 error, 2 change detected (only from `detect`).
"""
from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import __version__
from .config import DETECTOR_NAMES, KINDS, PARSERS, RunConfig, load_config
from .core import json_text, parse_json, read_signature, write_signature, write_text
from .cpd import EventConfig, calibrate, detect_events, read_flags
from .datagen import (base_signature_seeds, build_corpus, build_provider_signatures,
                      default_profiles, manifest_entry, synthesize_trace, write_manifest,
                      write_trace)
from .datagen import write_profile as write_provider_profile
from .detect import Verdict, cusum_detect, sliding_window_detect, snr_detect
from .errors import AlignmentError, SettingError, SigdriftError
from .evaluate import (learn_monitoring_profiles, monitoring_size, repeat_seeds,
                       repeat_streams, report_to_csv, run_experiment, sensitivity_analysis)
from .noisegen import (inject, read_profile, read_spec, spec_from_dict,
                       write_profile)
from .signature import generate_signature, read_experiences
from .similarity import SimilarityMethod

log = logging.getLogger("sigdrift")


def _add_verbose(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    _add_verbose(parser)


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, help="parallel workers for evaluation")


_OVERRIDE_FLAGS = {
    "seed": "random seed (overrides SIGDRIFT_SEED)",
    "n_changed": "changed pairs in the corpus",
    "n_noisy": "noisy pairs in the corpus",
    "distortion_fraction": "fraction of noisy pairs carrying AWGN",
    "repeats": "simulation repeats",
    "monitor_fraction": "monitoring corpus size relative to the corpus",
    "snr_segments": "segments in the learned noise profile",
    "spike_magnitude": "corpus spike height in row-stds",
    "spike_width": "corpus spike width in grid steps",
    "awgn_db": "distortion target SNR in dB",
    "changed_segment": "spliced segment length for changed pairs",
    "nodes": "trace nodes (trial users)",
    "raw_length": "raw trace timestamps",
    "grid_length": "observation grid length",
    "sample_sizes": "comma-separated evaluation sample sizes",
    "detectors": "comma-separated detector names (sw,snr,cusum)",
}


def _add_override(parser: argparse.ArgumentParser, name: str, help_text: str,
                  flag: str | None = None) -> None:
    flag = flag or "--" + name.replace("_", "-")
    parser.add_argument(flag, dest=name, type=PARSERS[KINDS[name]],
                        default=None, help=help_text)


def _add_overrides(parser: argparse.ArgumentParser, names) -> None:
    for name in names:
        _add_override(parser, name, _OVERRIDE_FLAGS[name])


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {
        key: getattr(args, key)
        for key in KINDS
        if hasattr(args, key)
    }
    return load_config(args.config, overrides)


def _spec_from_arg(raw: str):
    if raw.lstrip().startswith("{"):
        return parse_json(raw, spec_from_dict, "--spec")
    return read_spec(raw)


def _emit(payload: dict, out: str | None) -> None:
    text = json_text(payload, indent=2)
    if out:
        write_text(out, text)
        log.info("wrote %s", out)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_gen_data(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    out = Path(args.out)
    experiment = config.experiment
    params = experiment.corpus
    # The files are repeat 0 of `evaluate` at the same seed.
    sig_seed, corpus_seed, monitor_seed, _ = repeat_seeds(repeat_streams(config.seed, 1)[0])
    trace_seed, perf_seed = base_signature_seeds(sig_seed)

    # Build everything before writing, so a setting that fails leaves no
    # partial tree behind.
    profiles = default_profiles()
    log.info("synthesizing trace and provider signatures")
    cores = synthesize_trace(params.nodes, params.raw_length, trace_seed)
    signatures = build_provider_signatures(profiles, cores, params.grid_length,
                                           seed=perf_seed)
    n_monitor = monitoring_size(experiment.monitor_fraction,
                                experiment.n_changed + experiment.n_noisy)
    monitoring = build_corpus(0, n_monitor, experiment.distortion_fraction, monitor_seed,
                              signatures=signatures, params=params)
    snr_profiles = learn_monitoring_profiles(monitoring, experiment.snr_segments)
    log.info("building corpus: %d changed, %d noisy", experiment.n_changed, experiment.n_noisy)
    corpus = build_corpus(experiment.n_changed, experiment.n_noisy,
                          experiment.distortion_fraction, corpus_seed,
                          signatures=signatures, params=params)

    for sub in ("profiles", "signatures", "snr_profiles", "pairs"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    write_trace(cores, out / "trace.csv")
    for profile in profiles:
        write_provider_profile(profile, out / "profiles" / f"{profile.provider_id}.json")
    for sig in signatures:
        write_signature(sig, out / "signatures" / f"{sig.provider_id}.csv")
    profile_paths = {provider: f"snr_profiles/{provider or 'pooled'}.json"
                     for provider in snr_profiles}
    for provider, profile in sorted(snr_profiles.items()):
        write_profile(profile, out / profile_paths[provider])

    entries = []
    for pair in corpus:
        index = pair.provenance["index"]
        rec_path = f"pairs/{index:06d}.recomputed.csv"
        write_signature(pair.recomputed, out / rec_path)
        entries.append(manifest_entry(
            pair,
            existing_path=f"signatures/{pair.existing.provider_id}.csv",
            recomputed_path=rec_path,
            # The profile `evaluate` judges the pair by: the pooled one
            # for a provider the monitoring corpus never drew.
            snr_profile_path=profile_paths.get(pair.existing.provider_id, profile_paths[""]),
        ))
    write_manifest(entries, config.as_dict(), config.seed, out / "manifest.json")
    log.info("wrote %s", out / "manifest.json")
    return 0


def cmd_gen_signature(args: argparse.Namespace) -> int:
    experiences = read_experiences(args.cohorts)
    try:
        sig = generate_signature(experiences)
    except AlignmentError as exc:
        raise AlignmentError(f"{args.cohorts}: {exc}") from None
    write_signature(sig, args.out)
    return 0


def cmd_inject(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    sig = read_signature(args.signature)
    spec = _spec_from_arg(args.spec)
    write_signature(inject(sig, spec, config.seed), args.out)
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    if args.detector == "snr" and not args.profile:
        raise SettingError("detector snr needs --profile")
    if args.detector != "snr" and args.profile is not None:
        raise SettingError(f"--profile is read only by detector snr, not {args.detector}")
    config = _config_from_args(args)
    experiment = config.experiment
    existing = read_signature(args.existing)
    recomputed = read_signature(args.recomputed)
    if args.detector == "sw":
        outcome = sliding_window_detect(existing, recomputed, experiment.thresholds)
    elif args.detector == "cusum":
        outcome = cusum_detect(existing, recomputed, experiment.cusum_slack,
                               experiment.cusum_interval)
    else:  # "snr": argparse admits only DETECTOR_NAMES
        outcome = snr_detect(existing, recomputed, read_profile(args.profile))
    payload = outcome.to_dict()
    payload["config"] = config.as_dict()
    _emit(payload, args.out)
    return 2 if outcome.verdict is Verdict.CHANGE else 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    sig = read_signature(args.signature)
    past = read_experiences(args.cohorts)
    try:
        threshold, event_config = calibrate(past, sig, SimilarityMethod(args.method),
                                            config.trial_length)
    except AlignmentError as exc:
        raise AlignmentError(f"{args.cohorts}: {exc}") from None
    _emit(
        {
            "method": threshold.method.value,
            "similarity_threshold": threshold.value,
            "frequency_threshold": event_config.frequency_threshold,
            "window_length": event_config.window_length,
            "config": config.as_dict(),
        },
        args.out,
    )
    return 0


def cmd_events(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if args.f_thresh < 1:
        raise SettingError(f"--f-thresh = {args.f_thresh} must be at least 1")
    flags = ((idx, flag) for idx, flag, _ in read_flags(args.flags))
    event_config = EventConfig(config.trial_length, args.f_thresh)
    try:
        events = detect_events(flags, event_config)
    except AlignmentError as exc:
        raise AlignmentError(f"{args.flags}: {exc}") from None
    _emit(
        {
            "window_length": event_config.window_length,
            "frequency_threshold": args.f_thresh,
            "events": [
                {"grid_index": e.grid_index, "anomaly_count": e.anomaly_count,
                 "window": list(e.window)}
                for e in events
            ],
        },
        args.out,
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    log.info("running experiment: %d repeats, sizes %s",
             config.repeats, list(config.sample_sizes))
    report = run_experiment(config.experiment, config.seed, config.effective_jobs())
    _emit(report, args.out)
    if args.csv:
        write_text(args.csv, report_to_csv(report))
    return 0


def cmd_sensitivity(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = sensitivity_analysis(config.experiment, config.seed,
                                  config.sensitivity_levels,
                                  config.effective_jobs())
    _emit(result, args.out)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigdrift",
        description="Detect long-term change in service performance signatures",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize trace, signatures, and corpus")
    _add_common(p)
    _add_overrides(p, ["seed", "n_changed", "n_noisy", "distortion_fraction",
                       "monitor_fraction", "snr_segments", "spike_magnitude",
                       "spike_width", "awgn_db", "changed_segment",
                       "nodes", "raw_length", "grid_length"])
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("gen-signature", help="build a signature from trial cohorts")
    _add_verbose(p)
    p.add_argument("--cohorts", required=True, help="trial cohort CSV")
    p.add_argument("--out", required=True, help="signature CSV to write")
    p.set_defaults(func=cmd_gen_signature)

    p = sub.add_parser("inject", help="apply a noise spec to a signature")
    _add_common(p)
    _add_overrides(p, ["seed"])
    p.add_argument("--signature", required=True, help="input signature CSV")
    p.add_argument("--spec", required=True,
                   help="noise spec JSON file, or an inline JSON object")
    p.add_argument("--out", required=True, help="noisy signature CSV to write")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("detect", help="compare two signatures")
    _add_common(p)
    p.add_argument("--existing", required=True, help="existing signature CSV")
    p.add_argument("--recomputed", required=True, help="recomputed signature CSV")
    p.add_argument("--detector", default="sw", choices=DETECTOR_NAMES)
    p.add_argument("--profile", help="noise profile JSON (snr detector)")
    p.add_argument("--out", help="write the outcome JSON here instead of stdout")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("calibrate", help="derive anomaly thresholds from history")
    _add_common(p)
    p.add_argument("--signature", required=True, help="current signature CSV")
    p.add_argument("--cohorts", required=True, help="past trial users CSV")
    p.add_argument("--method", default="pcc", choices=[m.value for m in SimilarityMethod],
                   help="similarity measure")
    _add_override(p, "trial_length", "trial window (grid steps)", flag="--window-length")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("events", help="change points from an anomaly-flag stream")
    _add_common(p)
    p.add_argument("--flags", required=True, help="anomaly-flag CSV")
    _add_override(p, "trial_length", "trial window (grid steps)", flag="--window-length")
    p.add_argument("--f-thresh", required=True, type=int,
                   help="frequency threshold (exclusive)")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_events)

    p = sub.add_parser("evaluate", help="run the benchmark experiment")
    _add_common(p)
    _add_jobs(p)
    _add_overrides(p, sorted(_OVERRIDE_FLAGS))
    p.add_argument("--out", help="report JSON path (default: stdout)")
    p.add_argument("--csv", help="also write a flattened CSV here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sensitivity", help="evaluate across distortion levels")
    _add_common(p)
    _add_jobs(p)
    _add_overrides(p, sorted(_OVERRIDE_FLAGS))
    _add_override(p, "sensitivity_levels", "comma-separated distortion fractions",
                  flag="--levels")
    p.add_argument("--out", help="result JSON path (default: stdout)")
    p.set_defaults(func=cmd_sensitivity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; 2 is reserved for
        # "change detected", so remap.
        return 0 if exc.code in (0, None) else 1

    # A handler of this call's own, on this call's stderr: a second call in
    # one process logs where it runs, at its own level.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    level = log.level
    log.setLevel(logging.INFO if getattr(args, "verbose", False) else logging.WARNING)
    log.addHandler(handler)
    try:
        return args.func(args)
    except (SigdriftError, OSError) as exc:
        log.error("%s", exc)
        return 1
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
