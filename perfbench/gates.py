"""Correctness gates of the benchmark that are more than one comparison.

The tolerances are the ones every workload checks on every job; the
comparisons themselves are written out where ``workloads.py`` evaluates
them.  ``selftest.py`` shows that each gate trips when the program is given
a fault or the job a wrong reference value.
"""

from __future__ import annotations

import csv

import numpy as np

CONSERVATION_RTOL = 1e-9
SOLVE_RTOL = 1e-10
STATE_RTOL = 1e-9
GAP_RTOL = 1e-8
KERNEL_RESIDUAL_RTOL = 1e-12
RESTRICTION_RTOL = 1e-10


def close(value: float, reference: float, rtol: float) -> bool:
    """|value - reference| <= rtol |reference|."""
    return abs(value - reference) <= rtol * abs(reference)


def relative_residual(matrix, rhs: np.ndarray, x: np.ndarray) -> float:
    """||rhs - A x|| / ||rhs||, 0 for a zero right-hand side."""
    norm = np.linalg.norm(rhs)
    return float(np.linalg.norm(rhs - matrix @ x) / norm) if norm else 0.0


def state_matches(samples: dict, reference: dict, rtols: dict) -> bool:
    """Sampled final-state fields agree with the reference.

    For each field f, max |f_i - ref_i| <= rtol_f * max |ref_i| over the
    sampled nodes.
    """
    for name, rtol in rtols.items():
        got = np.asarray(samples[name], dtype=float)
        ref = np.asarray(reference[name], dtype=float)
        if got.shape != ref.shape:
            return False
        if not np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref)):
            return False
    return True


def csv_rows(path) -> list:
    """Data rows of a CSV report as dicts (header excluded)."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def symbol_rows_failed(rows: list) -> int:
    """Probes that break ellipticity, by the rule of ``vpice symbol``."""
    return sum(1 for r in rows
               if float(r["min_eigenvalue"]) <= 0.0
               or float(r["relative_margin"]) < -1e-10)


def ls_rows_failed(rows: list) -> int:
    """Probes that break the Lopatinskii-Shapiro condition."""
    return sum(1 for r in rows if float(r["margin"]) <= 0.0)
