"""Flat key = value run configuration.

Grammar: one ``key = value`` assignment per line; ``#`` starts a comment;
keys are dot-scoped (rheology.e, grid.nx, ...); values are integers,
decimals (optional exponent), strings or booleans (true/false).  Unknown
keys, type mismatches and range violations are reported with their line
number.  Missing keys take the documented defaults, so the empty file is a
valid configuration and the result is independent of assignment order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dynamics import StepperConfig
from .grid import Grid
from .params import RheologyParams
from .stability import Equilibrium


class ConfigError(ValueError):
    """Parse, unknown-key or range error, carrying the offending line."""

    def __init__(self, message: str, line_number: int | None = None):
        prefix = f"line {line_number}: " if line_number is not None else ""
        super().__init__(prefix + message)
        self.line_number = line_number


def _positive(x):
    return x > 0


def _nonnegative(x):
    return x >= 0


def _unit_interval(x):
    return 0.0 <= x <= 1.0


# name -> (python type, default, range predicate or allowed set, description)
KEY_TABLE = {
    "rheology.e": (float, 2.0, _positive, "yield-ellipse axis ratio"),
    "rheology.delta": (float, 1e-12, _positive, "regularization, s^-2"),
    "rheology.p_star": (float, 27.5e3, _positive, "ice strength, N m^-2"),
    "rheology.c": (float, 20.0, _positive, "strength decay rate"),
    "rheology.kappa": (float, 0.1, _positive, "open-water threshold, m"),
    "rheology.rho_ice": (float, 900.0, _positive, "ice density, kg m^-3"),
    "rheology.rho_atm": (float, 1.3, _positive, "air density, kg m^-3"),
    "rheology.rho_ocean": (float, 1026.0, _positive, "water density, kg m^-3"),
    "rheology.c_atm": (float, 1.2e-3, _positive, "air drag coefficient"),
    "rheology.c_ocean": (float, 5.5e-3, _positive, "water drag coefficient"),
    "rheology.theta_atm": (float, 0.0, None, "air drag rotation, rad"),
    "rheology.theta_ocean": (float, 0.0, None, "water drag rotation, rad"),
    "rheology.c_cor": (float, 1.46e-4, _nonnegative, "Coriolis parameter, s^-1"),
    "rheology.g": (float, 9.81, _positive, "gravity, m s^-2"),
    "rheology.d_h": (float, 1.0, _positive, "thickness diffusivity, m^2 s^-1"),
    "rheology.d_a": (float, 1.0, _positive, "compactness diffusivity, m^2 s^-1"),
    "grid.nx": (int, 17, lambda x: x >= 3, "nodes in x (>= 3)"),
    "grid.ny": (int, 17, lambda x: x >= 3, "nodes in y (>= 3)"),
    "grid.lx": (float, 1.0, _positive, "domain extent in x, m"),
    "grid.ly": (float, 1.0, _positive, "domain extent in y, m"),
    "stepper.dt": (float, 0.004, _positive, "time step, s"),
    "stepper.t_end": (float, 0.3, _positive, "final time, s"),
    "stepper.scheme": (str, "frozen-coefficient",
                       {"frozen-coefficient", "picard"}, "stepping scheme"),
    "stepper.picard_max": (int, 25, lambda x: x >= 1, "max picard sweeps"),
    "stepper.picard_tol": (float, 1e-10, _positive, "picard update tolerance"),
    "equilibrium.h_star": (float, 1.0, _positive, "equilibrium thickness, m"),
    "equilibrium.a_star": (float, 0.8, _unit_interval, "equilibrium compactness"),
    "experiment.seed": (int, 0, _nonnegative, "sampling seed"),
    "experiment.n_samples": (int, 1000, lambda x: x >= 1, "sample count"),
    "experiment.perturbation_scale": (float, 1e-3, _nonnegative,
                                      "relative perturbation size"),
    "experiment.output_dir": (str, "out", None, "output directory"),
    "experiment.snapshot_every": (int, 0, _nonnegative,
                                  "snapshot cadence in steps (0 = none)"),
    "experiment.lambda_re_min": (float, 0.0, _nonnegative,
                                 "lower bound for Re lambda in probes"),
    "experiment.emit_ppm": (bool, False, None, "write PPM heatmaps"),
}


@dataclass
class RunConfig:
    """Validated configuration with typed accessors for the solver objects."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {key: spec[1] for key, spec in KEY_TABLE.items()}
        merged.update(self.values)
        self.values = merged

    def __getitem__(self, key):
        return self.values[key]

    def rheology_params(self) -> RheologyParams:
        v = self.values
        return RheologyParams(
            e=v["rheology.e"], delta=v["rheology.delta"],
            p_star=v["rheology.p_star"], c=v["rheology.c"],
            kappa=v["rheology.kappa"], rho_ice=v["rheology.rho_ice"],
            rho_atm=v["rheology.rho_atm"], rho_ocean=v["rheology.rho_ocean"],
            C_atm=v["rheology.c_atm"], C_ocean=v["rheology.c_ocean"],
            theta_atm=v["rheology.theta_atm"],
            theta_ocean=v["rheology.theta_ocean"],
            c_cor=v["rheology.c_cor"], g=v["rheology.g"],
            d_h=v["rheology.d_h"], d_a=v["rheology.d_a"],
        )

    def grid(self) -> Grid:
        v = self.values
        return Grid(v["grid.nx"], v["grid.ny"], v["grid.lx"], v["grid.ly"])

    def stepper(self) -> StepperConfig:
        v = self.values
        return StepperConfig(
            dt=v["stepper.dt"], t_end=v["stepper.t_end"],
            scheme=v["stepper.scheme"], picard_max=v["stepper.picard_max"],
            picard_tol=v["stepper.picard_tol"],
        )

    def equilibrium(self) -> Equilibrium:
        return Equilibrium(self.values["equilibrium.h_star"],
                           self.values["equilibrium.a_star"])

    def echo(self) -> list:
        """Deterministic (key, printed value) pairs for manifests."""
        out = []
        for key in KEY_TABLE:
            value = self.values[key]
            if isinstance(value, bool):
                printed = "true" if value else "false"
            elif isinstance(value, float):
                printed = format(value, ".17g")
            else:
                printed = str(value)
            out.append((key, printed))
        return out


def _parse_value(key, raw, line_number):
    expected = KEY_TABLE[key][0]
    constraint = KEY_TABLE[key][2]
    if expected is bool:
        low = raw.lower()
        if low not in ("true", "false"):
            raise ConfigError(f"key {key} expects true/false, got {raw!r}",
                              line_number)
        return low == "true"
    if expected is int:
        try:
            value = int(raw, 10)
        except ValueError:
            raise ConfigError(f"key {key} expects an integer, got {raw!r}",
                              line_number) from None
    elif expected is float:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"key {key} expects a number, got {raw!r}",
                              line_number) from None
    else:
        value = raw
    if isinstance(constraint, set):
        if value not in constraint:
            raise ConfigError(
                f"key {key} must be one of {sorted(constraint)}, got {value!r}",
                line_number)
    elif constraint is not None and not constraint(value):
        raise ConfigError(f"key {key} = {value!r} violates its range",
                          line_number)
    return value


def parse_config(text: str) -> RunConfig:
    """Parse flat key = value text into a validated RunConfig."""
    values = {}
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw_line.strip()!r}",
                              line_number)
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in KEY_TABLE:
            raise ConfigError(f"unknown key {key!r}", line_number)
        values[key] = _parse_value(key, raw, line_number)
    return RunConfig(values)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
