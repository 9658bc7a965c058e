"""Run configuration: defaults, flat config files, environment, overrides.

Every field of ExperimentConfig, DetectorThresholds and CorpusParams is
a config key under its own name, with its type and default, plus the
run-level settings of RunSettings.  Two exceptions: DetectorThresholds'
``window`` is addressed as ``scan_window``, and CorpusParams'
``resolution`` is not a key.  Config files are flat ``key = value``
lines (# starts a comment).  Precedence, weakest first: built-in
defaults, SIGDRIFT_SEED, config file, command-line flags.
"""
from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field, fields, is_dataclass, make_dataclass
from pathlib import Path
from typing import get_type_hints

from .errors import ParseError
from .evaluate import ExperimentConfig

ENV_SEED = "SIGDRIFT_SEED"
RENAMED = {"window": "scan_window"}
HIDDEN = {"resolution"}


def _boolean(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw.strip()!r}")


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
    bool: _boolean,
    str: str.strip,
    tuple[int, ...]: _comma_list(int),
    tuple[float, ...]: _comma_list(finite_float),
    tuple[str, ...]: _comma_list(str),
}


def _settable(cls) -> list:
    """(field, resolved annotation) for each field of `cls` a run may set."""
    hints = get_type_hints(cls)
    return [(f, hints[f.name]) for f in fields(cls) if f.name not in HIDDEN]


def _flat_fields(cls) -> list:
    """Component fields as flat RunConfig fields, nested components inlined."""
    flat = []
    for f, kind in _settable(cls):
        if is_dataclass(kind):
            flat += _flat_fields(kind)
        else:
            flat.append((RENAMED.get(f.name, f.name), kind,
                         field(default=f.default, default_factory=f.default_factory)))
    return flat


@dataclass
class RunSettings:
    """Settings of a run that belong to no component."""

    seed: int = 0
    jobs: int = 0  # 0 means one worker per available core
    trial_length: int = 30
    sensitivity_levels: tuple[float, ...] = (0.5, 0.25, 0.0)

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
            else getattr(self, RENAMED.get(f.name, f.name))
            for f, kind in _settable(cls)
        })

    def effective_jobs(self) -> int:
        if self.jobs < 0:
            raise ValueError(f"jobs must be 0 (one worker per core) or positive, got {self.jobs}")
        return self.jobs or (os.cpu_count() or 1)


RunConfig = make_dataclass("RunConfig", _flat_fields(ExperimentConfig),
                           bases=(RunSettings,),
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
    """Layer defaults, SIGDRIFT_SEED, the config file, then CLI flags."""
    config = RunConfig()
    env_seed = os.environ.get(ENV_SEED)
    if env_seed is not None:
        try:
            config.seed = int(env_seed)
        except ValueError:
            raise ParseError(f"{ENV_SEED} must be an integer, got {env_seed!r}") from None
    if config_path is not None:
        for key, value in parse_config_file(config_path).items():
            setattr(config, key, value)
    for key, value in (cli_overrides or {}).items():
        if value is not None:
            setattr(config, key, value)
    return config
