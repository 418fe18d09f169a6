"""Desk-scale numerical laboratory for Hibler's viscous-plastic sea-ice model.

Subpackages:
  params       physical and regularization constants
  rheology     pointwise constitutive law and coefficient tensor
  symbols      principal symbol, ellipticity and boundary-condition checks
  grid         structured vertex grid, fields and difference stencils
  operators    sparse assembly of the coupled quasilinear operator
  dynamics     forcing, sources and IMEX time integration
  stability    linearized operator, spectra and decay experiments
  config       flat key = value run configuration
  io_formats   every file written: CSV, key-value text, snapshots, PPM, COO
  cli          subcommand front end (simulate, symbol, ls-check, spectrum,
               decay, selftest)
"""

from .params import (
    InvalidStateError,
    RheologyParams,
    VpiceError,
    scaled_params,
)
from .rheology import StrainRate, Stress2x2

__all__ = [
    "VpiceError",
    "InvalidStateError",
    "RheologyParams",
    "scaled_params",
    "StrainRate",
    "Stress2x2",
]

__version__ = "0.1.0"
