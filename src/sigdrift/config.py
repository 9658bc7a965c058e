"""Run settings: the settings classes, defaults, flat config files,
environment, overrides.

Every field of ExperimentConfig, DetectorThresholds and CorpusParams is
a config key under its own name, with its type and default, plus the
run-level settings of RunSettings.  Config files are flat
``key = value`` lines (# starts a comment).  Precedence, weakest first:
built-in defaults, SIGDRIFT_SEED, config file, command-line flags.

Each class checks its fields when it is built, in messages that name
the keys.  This module imports nothing of the package but ``errors``.
"""
from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, fields, is_dataclass, make_dataclass
from pathlib import Path
from typing import get_type_hints

from .errors import ParseError, SettingError

DETECTOR_NAMES = ("sw", "snr", "cusum")

#: Largest |target SNR| in dB a distortion may ask for; 10 ** (dB / 10)
#: overflows past about 3,080 dB and the noise turns infinite before that.
MAX_ABS_DB = 300.0

#: Largest spike height in row-stds, in a corpus or an injected spec,
#: far above the paper's 5-7.
#: The detectors' sums of squares grow as magnitude² × grid length² and
#: overflow past about 1e151 on a 36-point grid.
MAX_SPIKE_MAGNITUDE = 1e6

#: Largest |value| in a signature or cohort file: the detectors' sums of
#: (2v)² over a grid of L points stay finite for any L below 1e107.
MAX_ABS_VALUE = 1e100


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise SettingError(message)


def _check_distinct(name: str, values) -> None:
    """A list setting names at least one value, each once: an empty list
    would run nothing and a repeated value would share one report key."""
    _check(0 < len(values) == len(set(values)),
           f"{name} must list at least one value, each once; got {list(values)}")


@dataclass(frozen=True)
class DetectorThresholds:
    similarity_floor: float = 0.60   # s_p: minimum PCC to call shapes alike
    distance_ceiling: float = 0.20   # s_r: maximum RMSE for "no change"
    attenuation_ceiling: float = 0.50  # t_d: maximum RMSE still explainable as damping
    scan_window: int = 6             # W: deletion window width for the spike scan

    def __post_init__(self):
        _check(-1.0 <= self.similarity_floor <= 1.0,
               f"similarity_floor = {self.similarity_floor} must be in [-1, 1]")
        _check(0.0 <= self.distance_ceiling <= self.attenuation_ceiling,
               f"distance_ceiling = {self.distance_ceiling} must be non-negative and at most "
               f"attenuation_ceiling = {self.attenuation_ceiling}")
        _check(self.scan_window >= 1, f"scan_window = {self.scan_window} must be at least 1")


@dataclass(frozen=True)
class CorpusParams:
    """Everything about corpus construction that is not a pair count."""

    nodes: int = 31
    raw_length: int = 6486
    grid_length: int = 360
    spike_width: int = 3
    spike_magnitude: float = 7.0
    attenuation_low: float = 0.93
    attenuation_high: float = 0.98
    awgn_db: float = 20.0
    attenuation_share: float = 0.10
    changed_segment: int = 90

    def __post_init__(self):
        _check(self.nodes >= 1, f"nodes = {self.nodes} must be at least 1")
        _check(self.grid_length <= self.raw_length,
               f"grid_length = {self.grid_length} exceeds raw_length = {self.raw_length}")
        _check(0.0 <= self.attenuation_share < 1.0,
               f"attenuation_share = {self.attenuation_share} must be in [0, 1)")
        # A damped unit-std row has the factor as its std, and the signature
        # checks call a row with std <= 1e-12 constant: keep a wide margin.
        _check(1e-9 <= self.attenuation_low <= self.attenuation_high < 1.0,
               f"attenuation_low = {self.attenuation_low} and attenuation_high = "
               f"{self.attenuation_high} must satisfy 1e-9 <= low <= high < 1")
        _check(1 <= self.changed_segment < self.grid_length,
               f"changed_segment = {self.changed_segment} must be at least 1 and less than "
               f"grid_length = {self.grid_length}")
        _check(self.spike_width >= 1, f"spike_width = {self.spike_width} must be at least 1")
        _check(self.spike_magnitude > 0,
               f"spike_magnitude = {self.spike_magnitude} must be positive")
        _check(self.spike_magnitude <= MAX_SPIKE_MAGNITUDE,
               f"spike_magnitude = {self.spike_magnitude} must be at most {MAX_SPIKE_MAGNITUDE:g}")
        _check(abs(self.awgn_db) <= MAX_ABS_DB,
               f"awgn_db = {self.awgn_db} must be in [-{MAX_ABS_DB:g}, {MAX_ABS_DB:g}]")
        _check(self.spike_width <= self.grid_length,
               f"spike_width = {self.spike_width} exceeds grid_length = {self.grid_length}")


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
    monitor_fraction: float = 0.2
    corpus: CorpusParams = field(default_factory=CorpusParams)

    def __post_init__(self):
        object.__setattr__(self, "sample_sizes", tuple(self.sample_sizes))
        object.__setattr__(self, "detectors", tuple(self.detectors))
        _check(self.repeats >= 1, f"repeats = {self.repeats} must be at least 1")
        for name, count in (("n_changed", self.n_changed), ("n_noisy", self.n_noisy)):
            _check(count >= 0, f"{name} = {count} must be non-negative")
        _check(0.0 <= self.distortion_fraction <= 1.0,
               f"distortion_fraction = {self.distortion_fraction} must be in [0, 1]")
        for name in ("sample_sizes", "detectors"):
            _check_distinct(name, getattr(self, name))
        _check(min(self.sample_sizes) >= 1,
               f"sample_sizes = {list(self.sample_sizes)} must each be at least 1")
        unknown = sorted(set(self.detectors) - set(DETECTOR_NAMES))
        _check(not unknown, f"detectors = {list(self.detectors)} names unknown detectors "
                            f"{unknown}; known: {', '.join(DETECTOR_NAMES)}")
        _check(self.cusum_slack >= 0, f"cusum_slack = {self.cusum_slack} must be non-negative")
        _check(self.cusum_interval > 0,
               f"cusum_interval = {self.cusum_interval} must be positive")
        grid = self.corpus.grid_length
        _check(self.snr_segments >= 1 and grid % self.snr_segments == 0
               and grid // self.snr_segments >= 2,
               f"grid_length = {grid} does not split into {self.snr_segments} equal segments "
               f"of at least 2 points (snr_segments = {self.snr_segments})")
        _check(0.0 < self.monitor_fraction <= 1.0,
               f"monitor_fraction = {self.monitor_fraction} must be in (0, 1]")
        _check(self.thresholds.scan_window < grid - 1,
               f"scan_window = {self.thresholds.scan_window} must be less than "
               f"grid_length - 1 = {grid - 1}")

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["sample_sizes"] = list(self.sample_sizes)
        payload["detectors"] = list(self.detectors)
        return payload


ENV_SEED = "SIGDRIFT_SEED"


def finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw.strip()!r}")
    return value


def _comma_list(item):
    def parse(raw: str) -> tuple:
        return tuple(item(p.strip()) for p in raw.split(",") if p.strip())
    parse.__name__ = f"comma-separated {item.__name__}"
    return parse


# Text -> value for each annotation a setting may carry; config files and
# command-line flags both parse through it.
PARSERS = {
    int: int,
    float: finite_float,
    tuple[int, ...]: _comma_list(int),
    tuple[float, ...]: _comma_list(finite_float),
    tuple[str, ...]: _comma_list(str),
}


def _settable(cls) -> list:
    """(field, resolved annotation) for each field of `cls`."""
    hints = get_type_hints(cls)
    return [(f, hints[f.name]) for f in fields(cls)]


def _flat_fields(cls) -> list:
    """Component fields as flat RunConfig fields, nested components inlined."""
    flat = []
    for f, kind in _settable(cls):
        if is_dataclass(kind):
            flat += _flat_fields(kind)
        else:
            flat.append((f.name, kind,
                         field(default=f.default, default_factory=f.default_factory)))
    return flat


@dataclass(frozen=True)
class RunSettings:
    """Settings of a run that belong to no component.  Building a
    RunConfig checks them and builds ``experiment``, its ExperimentConfig,
    which every subcommand reads its components from."""

    seed: int = 0
    jobs: int = 0  # 0 means one worker per available core
    trial_length: int = 30
    sensitivity_levels: tuple[float, ...] = (0.5, 0.25, 0.0)

    def __post_init__(self):
        _check(self.seed >= 0, f"seed = {self.seed} must be non-negative")
        _check(self.jobs >= 0,
               f"jobs must be 0 (one worker per core) or positive, got {self.jobs}")
        _check(self.trial_length >= 1, f"trial_length = {self.trial_length} must be at least 1")
        _check(all(0.0 <= level <= 1.0 for level in self.sensitivity_levels),
               f"sensitivity_levels = {list(self.sensitivity_levels)} must each be in [0, 1]")
        object.__setattr__(self, "experiment", self.build(ExperimentConfig))

    def as_dict(self) -> dict:
        payload = asdict(self)
        for key, value in payload.items():
            if isinstance(value, tuple):
                payload[key] = list(value)
        return payload

    def build(self, cls):
        """The component `cls`, nested components included, from the flat keys."""
        return cls(**{
            f.name: self.build(kind) if is_dataclass(kind)
            else getattr(self, f.name)
            for f, kind in _settable(cls)
        })

    def effective_jobs(self) -> int:
        return self.jobs or (os.cpu_count() or 1)


RunConfig = make_dataclass("RunConfig", _flat_fields(ExperimentConfig),
                           bases=(RunSettings,), frozen=True,
                           namespace={"__module__": __name__})
KINDS = get_type_hints(RunConfig)


def parse_config_file(path) -> dict:
    """Read a flat key = value file into a typed override dict."""
    path = Path(path)
    overrides = {}
    # Lines split as universal newlines split them, each decoded on its
    # own, so that bytes that are not UTF-8 are named by their line.
    for lineno, raw_line in enumerate(path.read_bytes().splitlines(), 1):
        try:
            line = raw_line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in KINDS:
            raise ParseError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            overrides[key] = PARSERS[KINDS[key]](raw)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    return overrides


def load_config(config_path=None, cli_overrides: dict | None = None) -> RunConfig:
    """Layer defaults, SIGDRIFT_SEED, the config file, then CLI flags,
    into one checked RunConfig."""
    values = {}
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        try:
            values["seed"] = int(env_seed)
        except ValueError:
            raise ParseError(f"{ENV_SEED} must be an integer, got {env_seed!r}") from None
    if config_path is not None:
        values.update(parse_config_file(config_path))
    values.update((key, value) for key, value in (cli_overrides or {}).items()
                  if value is not None)
    return RunConfig(**values)
