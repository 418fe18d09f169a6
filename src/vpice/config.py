"""Flat key = value run configuration.

Grammar: one ``key = value`` assignment per line; ``#`` starts a comment;
keys are dot-scoped (rheology.e, grid.nx, ...); values are integers,
decimals (optional exponent), strings or booleans (true/false).  Unknown
keys, type mismatches and range violations are reported with their line
number, and so is a key assigned twice.  Missing keys take the documented
defaults, so the empty file is a valid configuration and the result is
independent of assignment order.
A solver key ``<section>.<field name, lower-cased>`` takes its type, default
and range from that field of the section's dataclass (SECTIONS), and a
section's values are in range when it can be built from them.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field, fields

from .dynamics import StepperConfig
from .grid import Grid
from .params import InvalidStateError, RheologyParams, VpiceError
from .stability import Equilibrium


class ConfigError(VpiceError, ValueError):
    """Parse, unknown-key or range error, carrying the offending line."""

    exit_code = 2

    def __init__(self, message: str, line_number: int | None = None):
        prefix = f"line {line_number}: " if line_number is not None else ""
        super().__init__(prefix + message)
        self.line_number = line_number


SECTIONS = {"rheology": RheologyParams, "grid": Grid,
            "stepper": StepperConfig, "equilibrium": Equilibrium}

# defaults of the section fields that have none in their dataclass
FIELD_DEFAULTS = {"grid.nx": 17, "grid.ny": 17,
                  "stepper.dt": 0.004, "stepper.t_end": 0.3,
                  "equilibrium.h_star": 1.0, "equilibrium.a_star": 0.8}

# the experiment keys configure no dataclass: name -> (type, default, minimum)
EXPERIMENT_KEYS = {
    "experiment.seed": (int, 0, 0),
    "experiment.n_samples": (int, 1000, 1),
    "experiment.perturbation_scale": (float, 1e-3, 0.0),  # relative to h*, a*
    "experiment.output_dir": (str, "out", None),
    "experiment.snapshot_every": (int, 0, 0),  # steps; 0 = no snapshots
    # Re lambda of an ls-check probe is (lambda_re_min + U(0, 1)) 10^U(-2, 2),
    # at least lambda_re_min / 100
    "experiment.lambda_re_min": (float, 0.0, 0.0),
    "experiment.emit_ppm": (bool, False, None),  # PPM heatmaps per snapshot
}


def _section_fields(section):
    """(key, field) for each field of a section's dataclass, in field order."""
    return [(f"{section}.{f.name.lower()}", f)
            for f in fields(SECTIONS[section])]


def _build(section, values):
    return SECTIONS[section](**{f.name: values[key]
                                for key, f in _section_fields(section)})


def _solver_keys():
    """(key, (type, default)) for each section field, in section order."""
    for section, cls in SECTIONS.items():
        types = typing.get_type_hints(cls)
        for key, f in _section_fields(section):
            yield key, (types[f.name], FIELD_DEFAULTS.get(key, f.default))


# name -> (python type, default), in manifest order
KEYS = {**dict(_solver_keys()),
        **{key: spec[:2] for key, spec in EXPERIMENT_KEYS.items()}}
DEFAULTS = {key: spec[1] for key, spec in KEYS.items()}
NUMBER_NAMES = {int: "an integer", float: "a number"}


@dataclass
class RunConfig:
    """Validated configuration with typed accessors for the solver objects."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = {**DEFAULTS, **self.values}

    def __getitem__(self, key):
        return self.values[key]

    def rheology_params(self) -> RheologyParams:
        return _build("rheology", self.values)

    def grid(self) -> Grid:
        return _build("grid", self.values)

    def stepper(self) -> StepperConfig:
        return _build("stepper", self.values)

    def equilibrium(self) -> Equilibrium:
        return _build("equilibrium", self.values)


def _parse_value(key, raw, line_number):
    if not raw:
        raise ConfigError(f"key {key} has an empty value", line_number)
    expected = KEYS[key][0]
    if expected is bool:
        low = raw.lower()
        if low not in ("true", "false"):
            raise ConfigError(f"key {key} expects true/false, got {raw!r}",
                              line_number)
        return low == "true"
    value = raw
    if expected in NUMBER_NAMES:
        try:
            value = expected(raw)
        except ValueError:
            raise ConfigError(f"key {key} expects {NUMBER_NAMES[expected]}, "
                              f"got {raw!r}", line_number) from None
    if key in EXPERIMENT_KEYS:  # a section key is checked with its section
        minimum = EXPERIMENT_KEYS[key][2]
        if isinstance(value, float) and not math.isfinite(value):
            raise _range_error(key, value, "must be finite", line_number)
        if minimum is not None and not value >= minimum:
            raise _range_error(key, value, f"must be >= {minimum}",
                               line_number)
    return value


def _range_error(key, value, reason, line_number) -> ConfigError:
    return ConfigError(f"key {key} = {value!r} violates its range: {reason}",
                       line_number)


def _check_section(section, values, lines) -> None:
    """Build the section from ``values``.  A rejection is reported on the
    line of the first assigned key that the section rejects on its own
    (with the defaults), or else, for a rule across keys such as the step
    count t_end / dt, on the section's last assigned line."""
    try:
        _build(section, values)
        return
    except InvalidStateError as exc:
        reason = exc
    assigned = sorted((lines[key], key) for key, _ in _section_fields(section)
                      if key in lines)
    for line_number, key in assigned:
        try:
            _build(section, {**DEFAULTS, key: values[key]})
        except InvalidStateError as exc:
            raise _range_error(key, values[key], exc, line_number) from None
    line_number, key = assigned[-1]
    raise _range_error(key, values[key], reason, line_number) from None


def parse_config(text: str) -> RunConfig:
    """Parse flat key = value text into a validated RunConfig."""
    values, lines = {}, {}
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw_line.strip()!r}",
                              line_number)
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"unknown key {key!r}", line_number)
        if key in lines:
            raise ConfigError(f"{key} is assigned again, first at line "
                              f"{lines[key]}", line_number)
        values[key] = _parse_value(key, raw, line_number)
        lines[key] = line_number
    config = RunConfig(values)
    for section in SECTIONS:
        _check_section(section, config.values, lines)
    return config


def load_config(path) -> RunConfig:
    """Read and parse a config file.  A missing file raises
    FileNotFoundError; any other file that cannot be read (an OSError, or
    not UTF-8 text) is a ConfigError that names the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise
    except IsADirectoryError:
        raise ConfigError(f"{path} is a directory, not a config file") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text ({exc.reason} at byte "
                          f"{exc.start})") from None
    except OSError as exc:
        raise ConfigError(f"{path} cannot be read: {exc.strerror}") from None
    return parse_config(text)
