"""Flat key-value run configuration.

Format: one ``key = value`` per line, ``#`` starts a comment, keys are
case-insensitive.  ``model`` selects ``ipgg`` or ``bg``; the game keys are
the fields of :class:`CoreParams` and, for ``bg`` only, of
:class:`BriberyParams` (h, gamma, p, q).  Numeric controls (step, t_max,
conv_tol, samples, seed) are optional; the integration defaults are
:mod:`pgg_bribery.dynamics`' own.  ``RunConfig.model`` is the validated
parameter record, so every game invariant is checked on load; a pool
multiplier outside (1, n) is recorded in its ``validation_warnings``, not
raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .dynamics import DEFAULT_CONV_TOL, DEFAULT_STEP, DEFAULT_T_MAX
from .games import BriberyParams, CoreParams, Model, ParameterError, core_of

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_pairs", "config_from_pairs"]

CORE_KEYS = tuple(f.name for f in fields(CoreParams) if f.init)
BG_KEYS = tuple(f.name for f in fields(BriberyParams) if f.name != "core")


class ConfigError(ValueError):
    """Configuration text failed to parse or validate."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration: the game model plus the numeric controls."""

    model: Model
    step: float = DEFAULT_STEP
    t_max: float = DEFAULT_T_MAX
    conv_tol: float = DEFAULT_CONV_TOL
    samples: int = 1_000_000
    seed: int = 42

    def build_model(self) -> Model:
        """The validated model; the same object as ``model``."""
        return self.model

    def metadata_items(self) -> list[tuple[str, str]]:
        """Deterministic key/value echo for emitted-file headers."""
        core = core_of(self.model)
        items = [("model", "ipgg" if core is self.model else "bg")]
        items += [(key, repr(getattr(core, key))) for key in CORE_KEYS]
        if core is not self.model:
            items += [(key, repr(getattr(self.model, key))) for key in BG_KEYS]
        items += [(key, repr(getattr(self, key))) for key in CONTROL_DEFAULTS]
        return items


CONTROL_DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.name != "model"}


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

    bg_values: dict[str, float] = {}
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
    for key in ("step", "t_max", "conv_tol"):
        if not 0 < controls[key] < math.inf:
            raise ConfigError(f"{key} must be finite and > 0, got {controls[key]}")
    if controls["samples"] < 2:
        raise ConfigError(f"samples must be >= 2, got {controls['samples']}")
    if controls["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {controls['seed']}")
    try:
        core = CoreParams(**values)
        built = BriberyParams(core, **bg_values) if model == "bg" else core
    except ParameterError as err:
        raise ConfigError(str(err)) from None
    return RunConfig(built, **controls)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document."""
    return config_from_pairs(parse_pairs(text))
