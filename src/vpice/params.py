"""Physical and regularization constants of the viscous-plastic sea-ice model.

All quantities are SI.  The defaults are literature-standard values for
Hibler-type models (axis ratio e = 2, ice strength p* = 27.5 kPa, strength
decay c = 20, ice/air/water densities, quadratic drag coefficients); every
one of them can be overridden per run.  The regularization constant ``delta``
carries units of s^-2 so that the regularized deformation measure
sqrt(delta + Delta^2) keeps units of s^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

STATE_SLACK = 1e-10  # drift of a outside [0, 1] that is clamped, not rejected


class VpiceError(Exception):
    """Base of every package error; ``exit_code`` is the command's exit
    status when it ends in this error: 2 for bad input, 1 for a run that
    failed."""

    exit_code = 1


class InvalidStateError(VpiceError, ValueError):
    """A state (h, a) or parameter set left its admissible range."""

    exit_code = 2


def check_compactness(a) -> None:
    """Raise InvalidStateError when a compactness value lies outside [0, 1]
    by more than STATE_SLACK.  One reduction per bound; fmin/fmax skip NaN,
    which fails every comparison, so a NaN entry hides no bad one, and the
    initial values admit an empty array."""
    if (np.fmin.reduce(a, axis=None, initial=np.inf) < -STATE_SLACK
            or np.fmax.reduce(a, axis=None, initial=-np.inf)
            > 1.0 + STATE_SLACK):
        raise InvalidStateError(
            f"compactness left [0, 1] beyond slack {STATE_SLACK!r}: range "
            f"[{float(a.min())!r}, {float(a.max())!r}]")


def check_thickness(h, kappa: float) -> None:
    """Raise InvalidStateError when a thickness value of a state lies below
    kappa, the open-water threshold; no slack."""
    if np.fmin.reduce(h, axis=None, initial=np.inf) < kappa:
        raise InvalidStateError(f"thickness fell below kappa = {kappa!r}: "
                                f"min h = {float(h.min())!r}")


def check_finite(obj) -> None:
    """Raise InvalidStateError when a float field of a dataclass is nan or
    infinite; every range rule of the settings assumes finite values."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidStateError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class RheologyParams:
    """Constants of the rheology, drag forcing and balance laws.

    Attributes
    ----------
    e : ratio of major to minor axis of the elliptical yield curve.
    delta : regularization constant under the square root, s^-2.
    p_star : ice strength scale, N m^-2.
    c : strength decay rate with open-water fraction, dimensionless.
    kappa : thickness threshold below which a cell is open water, m.
    rho_ice, rho_atm, rho_ocean : densities, kg m^-3.
    C_atm, C_ocean : air and water drag coefficients, dimensionless.
    theta_atm, theta_ocean : drag rotation angles, rad.
    c_cor : Coriolis parameter, s^-1.
    g : gravity, m s^-2.
    d_h, d_a : thickness/compactness diffusivities, m^2 s^-1.
    """

    e: float = 2.0
    delta: float = 1e-12
    p_star: float = 27.5e3
    c: float = 20.0
    kappa: float = 0.1
    rho_ice: float = 900.0
    rho_atm: float = 1.3
    rho_ocean: float = 1026.0
    C_atm: float = 1.2e-3
    C_ocean: float = 5.5e-3
    theta_atm: float = 0.0
    theta_ocean: float = 0.0
    c_cor: float = 1.46e-4
    g: float = 9.81
    d_h: float = 1.0
    d_a: float = 1.0

    def __post_init__(self):
        check_finite(self)
        positive = (
            "e", "delta", "p_star", "c", "kappa", "rho_ice", "rho_atm",
            "rho_ocean", "C_atm", "C_ocean", "g", "d_h", "d_a",
        )
        for name in positive:
            value = getattr(self, name)
            if not value > 0.0:
                raise InvalidStateError(f"parameter {name} must be > 0, got {value!r}")
        if not self.c_cor >= 0.0:
            raise InvalidStateError(
                f"parameter c_cor must be >= 0, got {self.c_cor!r}")
        e_sq = self.e * self.e  # Python's e**2 raises on overflow, e * e does not
        if not (e_sq > 0.0 and 0.0 < 1.0 / e_sq < math.inf):
            raise InvalidStateError(
                f"parameter e must have 1/e^2 positive and finite, got {self.e!r}")

    def with_(self, **kwargs) -> "RheologyParams":
        """Copy with selected fields replaced."""
        return replace(self, **kwargs)


def scaled_params(**overrides) -> RheologyParams:
    """Nondimensional parameter set used by desk-scale experiments.

    Unit ice density and strength keep all assembled operators O(1) so that
    identity checks can run at absolute tolerances near machine precision.
    """
    base = dict(
        e=2.0, delta=1e-6, p_star=1.0, c=2.0, kappa=0.1,
        rho_ice=1.0, rho_atm=1.3e-3, rho_ocean=1.1,
        C_atm=1.2e-3, C_ocean=5.5e-3, c_cor=0.0, g=1.0,
        d_h=1.0, d_a=1.0,
    )
    base.update(overrides)
    return RheologyParams(**base)
