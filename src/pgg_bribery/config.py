"""Flat key-value run configuration.

Format: one ``key = value`` per line, ``#`` starts a comment, keys are
case-insensitive.  ``model`` selects ``ipgg`` or ``bg``; the game keys are
the fields of the one flat model record: ``games.CORE_FIELDS`` for both,
plus ``games.BRIBERY_FIELDS`` (h, gamma, p, q) for ``bg`` only, which
builds a :class:`BriberyParams`, a :class:`CoreParams` with those four
more.  Numeric controls (step, t_max, conv_tol, samples, seed) are
optional; the integration defaults are :mod:`pgg_bribery.dynamics`' own,
and ``samples`` is at most ``montecarlo.MAX_SAMPLES``.  ``n``, ``samples``
and ``seed`` are integers, the rest floats, read in one pass (core,
bribery, controls) that reports the first fault.  ``RunConfig.model`` is
the validated parameter record, so every game invariant is checked on
load, before ``RunConfig`` checks its own controls; a pool multiplier
outside (1, n) is reported by its ``validation_warnings``, not raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Real

from .dynamics import DEFAULT_CONV_TOL, DEFAULT_STEP, DEFAULT_T_MAX
from .games import BRIBERY_FIELDS, CORE_FIELDS, BriberyParams, CoreParams, Model, _as_int
from .montecarlo import MAX_SAMPLES

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_line", "parse_pairs", "config_from_pairs"]


class ConfigError(ValueError):
    """Configuration text failed to parse or validate."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration: the game model plus the numeric controls.

    The record checks its own fields with ``ValueError`` in the config's
    one-pass order, as the model record checks its fields: the model is a
    ``CoreParams`` record, ``step``, ``t_max`` and ``conv_tol`` real numbers
    but not bools, and ``samples`` and ``seed`` are read as ``n`` is, a
    whole float as its int, a bool or a fraction refused.
    """

    model: Model
    step: float = DEFAULT_STEP
    t_max: float = DEFAULT_T_MAX
    conv_tol: float = DEFAULT_CONV_TOL
    samples: int = 1_000_000
    seed: int = 42

    def __post_init__(self):
        if not isinstance(self.model, CoreParams):
            raise ValueError(f"model must be a CoreParams or BriberyParams record, got {self.model!r}")
        for key in ("step", "t_max", "conv_tol"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{key} must be a real number, got {value!r}")
            if not 0 < value < math.inf:
                raise ValueError(f"{key} must be finite and > 0, got {value}")
        for key in ("samples", "seed"):
            object.__setattr__(self, key, _as_int(getattr(self, key), key))
        if self.samples < 2:
            raise ValueError(f"samples must be >= 2, got {self.samples}")
        if self.samples > MAX_SAMPLES:
            raise ValueError(f"samples must be <= MAX_SAMPLES = {MAX_SAMPLES}, got {self.samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def build_model(self) -> Model:
        """The validated model; the same object as ``model``."""
        return self.model

    def metadata_items(self) -> list[tuple[str, str]]:
        """Deterministic key/value echo for emitted-file headers."""
        items = [("model", "bg" if isinstance(self.model, BriberyParams) else "ipgg")]
        items += [(key, repr(value)) for key, value in vars(self.model).items()]
        items += [(key, repr(getattr(self, key))) for key in CONTROL_DEFAULTS]
        return items


CONTROL_DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.name != "model"}


def parse_line(raw_line: str, lineno: int | None = None) -> tuple[str, str] | None:
    """(key, raw value) from one ``key = value`` line; None when it is blank or a comment."""
    line = raw_line.split("#", 1)[0].strip()
    if not line:
        return None
    if "=" not in line:
        raise ConfigError(f"expected 'key = value', got {raw_line.strip()!r}", lineno)
    key, value = line.split("=", 1)
    key = key.strip().lower()
    value = value.strip()
    if not key:
        raise ConfigError("empty key", lineno)
    if not value:
        raise ConfigError(f"empty value for key {key!r}", lineno)
    return key, value


def parse_pairs(text: str) -> dict[str, tuple[str, int | None]]:
    """Key -> (raw value, line number) from flat key=value text."""
    pairs: dict[str, tuple[str, int | None]] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        pair = parse_line(raw_line, lineno)
        if pair is None:
            continue
        key, value = pair
        if key in pairs:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        pairs[key] = (value, lineno)
    return pairs


def _parse(key: str, raw: str, line: int | None) -> float | int:
    kind, noun = (int, "an integer") if key in ("n", "samples", "seed") else (float, "a number")
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{key} must be {noun}, got {raw!r}", line) from None


def config_from_pairs(pairs: dict[str, tuple[str, int | None]]) -> RunConfig:
    """Validate raw pairs into a RunConfig, naming the offending key on error."""
    if "model" not in pairs:
        raise ConfigError("missing required key 'model'")
    model_raw, model_line = pairs["model"]
    model = model_raw.lower()
    if model not in ("ipgg", "bg"):
        raise ConfigError(f"model must be 'ipgg' or 'bg', got {model_raw!r}", model_line)

    keys = CORE_FIELDS + BRIBERY_FIELDS + tuple(CONTROL_DEFAULTS)
    for key, (_, line) in pairs.items():
        if key != "model" and key not in keys:
            raise ConfigError(f"unknown key {key!r}", line)

    values: dict[str, float | int] = {}
    for key in keys:
        bg_only = key in BRIBERY_FIELDS
        if key in pairs:
            raw, line = pairs[key]
            if bg_only and model != "bg":
                raise ConfigError(f"key {key!r} only applies to model = bg", line)
            values[key] = _parse(key, raw, line)
        elif key in CORE_FIELDS or (bg_only and model == "bg"):
            raise ConfigError(f"missing required key {key!r}" + (" for model = bg" if bg_only else ""))

    controls = {key: values.pop(key, default) for key, default in CONTROL_DEFAULTS.items()}
    try:
        return RunConfig(BriberyParams(**values) if model == "bg" else CoreParams(**values), **controls)
    except ValueError as err:  # the record's ParameterError, or a control
        raise ConfigError(str(err)) from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document."""
    return config_from_pairs(parse_pairs(text))
