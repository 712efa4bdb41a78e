"""Flat key-value run configuration.

Format: one ``key = value`` per line, ``#`` starts a comment, keys are
case-insensitive.  ``model`` selects ``ipgg`` or ``bg``; the bribery keys
(h, gamma, p, q) are required for ``bg`` and rejected for ``ipgg``.
Numeric controls (step, t_max, conv_tol, samples, seed) are optional and
default to the values below.  All game invariants are re-validated on
load; a pool multiplier outside (1, n) is recorded as a warning, not an
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .games import BriberyParams, CoreParams, Model, ParameterError

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_pairs", "config_from_pairs"]

CORE_KEYS = ("n", "b", "c", "tau", "f", "alpha", "beta", "r_p")
BG_KEYS = ("h", "gamma", "p", "q")
CONTROL_DEFAULTS = {
    "step": 0.01,
    "t_max": 1e4,
    "conv_tol": 1e-10,
    "samples": 1_000_000,
    "seed": 42,
}


class ConfigError(ValueError):
    """Configuration text failed to parse or validate."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass
class RunConfig:
    """Validated run configuration for the CLI and the scripts."""

    model: str
    n: int
    b: float
    c: float
    tau: float
    f: float
    alpha: float
    beta: float
    r_p: float
    h: float | None = None
    gamma: float | None = None
    p: float | None = None
    q: float | None = None
    step: float = CONTROL_DEFAULTS["step"]
    t_max: float = CONTROL_DEFAULTS["t_max"]
    conv_tol: float = CONTROL_DEFAULTS["conv_tol"]
    samples: int = CONTROL_DEFAULTS["samples"]
    seed: int = CONTROL_DEFAULTS["seed"]
    warnings: list[str] = field(default_factory=list)

    def build_model(self) -> Model:
        core = CoreParams(self.n, self.b, self.c, self.tau, self.f, self.alpha, self.beta, self.r_p)
        if self.model == "bg":
            return BriberyParams(core, self.h, self.gamma, self.p, self.q)
        return core

    def metadata_items(self) -> list[tuple[str, str]]:
        """Deterministic key/value echo for emitted-file headers."""
        items = [("model", self.model)]
        items += [(key, repr(getattr(self, key))) for key in CORE_KEYS]
        if self.model == "bg":
            items += [(key, repr(getattr(self, key))) for key in BG_KEYS]
        items += [(key, repr(getattr(self, key))) for key in CONTROL_DEFAULTS]
        return items


def parse_pairs(text: str) -> dict[str, tuple[str, int | None]]:
    """Key -> (raw value, line number) from flat key=value text."""
    pairs: dict[str, tuple[str, int | None]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw_line.strip()!r}", lineno)
        key, value = line.split("=", 1)
        key = key.strip().lower()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", lineno)
        if not value:
            raise ConfigError(f"empty value for key {key!r}", lineno)
        if key in pairs:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        pairs[key] = (value, lineno)
    return pairs


def _parse_float(key: str, raw: str, line: int | None) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}", line) from None


def _parse_int(key: str, raw: str, line: int | None) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}", line) from None


def config_from_pairs(pairs: dict[str, tuple[str, int | None]]) -> RunConfig:
    """Validate raw pairs into a RunConfig, naming the offending key on error."""
    remaining = dict(pairs)
    if "model" not in remaining:
        raise ConfigError("missing required key 'model'")
    model_raw, model_line = remaining.pop("model")
    model = model_raw.lower()
    if model not in ("ipgg", "bg"):
        raise ConfigError(f"model must be 'ipgg' or 'bg', got {model_raw!r}", model_line)

    known = set(CORE_KEYS) | set(BG_KEYS) | set(CONTROL_DEFAULTS)
    for key, (_, line) in pairs.items():
        if key != "model" and key not in known:
            raise ConfigError(f"unknown key {key!r}", line)

    values: dict[str, float | int] = {}
    for key in CORE_KEYS:
        if key not in remaining:
            raise ConfigError(f"missing required key {key!r}")
        raw, line = remaining.pop(key)
        values[key] = _parse_int(key, raw, line) if key == "n" else _parse_float(key, raw, line)

    bg_values: dict[str, float | None] = {key: None for key in BG_KEYS}
    for key in BG_KEYS:
        if key in remaining:
            raw, line = remaining.pop(key)
            if model != "bg":
                raise ConfigError(f"key {key!r} only applies to model = bg", line)
            bg_values[key] = _parse_float(key, raw, line)
        elif model == "bg":
            raise ConfigError(f"missing required key {key!r} for model = bg")

    controls = dict(CONTROL_DEFAULTS)
    for key in CONTROL_DEFAULTS:
        if key in remaining:
            raw, line = remaining.pop(key)
            controls[key] = (
                _parse_int(key, raw, line) if key in ("samples", "seed") else _parse_float(key, raw, line)
            )

    config = RunConfig(model=model, **values, **bg_values, **controls)
    for key in ("step", "t_max", "conv_tol"):
        value = getattr(config, key)
        if not 0 < value < math.inf:
            raise ConfigError(f"{key} must be finite and > 0, got {value}")
    if config.samples < 2:
        raise ConfigError(f"samples must be >= 2, got {config.samples}")
    if config.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {config.seed}")
    try:
        built = config.build_model()
    except ParameterError as err:
        raise ConfigError(str(err)) from None
    config.warnings = list(built.validation_warnings)
    return config


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document."""
    return config_from_pairs(parse_pairs(text))
