"""Forcing, thermodynamic sources and IMEX time integration.

One backward-Euler step of the coupled system freezes the quasilinear
coefficients at the current state and treats momentum advection, the
ocean drag and the sources explicitly:

    (I + dt A(v_n)) v_{n+1} = v_n + dt F(v_n).

The Coriolis rotation is a term of A (``operators.coupled_terms``), so it
is implicit, as in EVP and JFNK sea-ice solvers: an explicit rotation
multiplies an inertial oscillation by sqrt(1 + (c_cor dt)^2) per step.

Advection of h and a is discretized in flux form with the divergence matrix
that is the exact negative adjoint of the centered gradient, so nodal
totals of h and a are conserved to rounding whenever the growth function
vanishes.

A growth function left out adds no source, equal to f == 0 bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import FieldSet, diff_ops
from .operators import (
    assemble_coupled,
    divergence_matrix,
    solve_linear,
)
from .params import RheologyParams, StepperConfig, VpiceError, check_thickness


class StepError(VpiceError):
    """A time step failed; carries the step index and simulation time."""

    def __init__(self, step_index: int, time: float, cause: Exception):
        super().__init__(f"step {step_index} at t = {time:.6g} failed: {cause}")
        self.step_index = step_index
        self.time = time
        self.cause = cause


@dataclass(frozen=True)
class ForcingInputs:
    """Prescribed thermodynamics.

    f_growth : C^1 growth function of thickness, callable on arrays; None
               means no freezing or melting (f == 0), bit for bit.
    """

    f_growth: Optional[Callable] = None


def momentum_advection(v: FieldSet) -> tuple:
    """(u . grad) u by centered differences, as flat (adv1, adv2)."""
    ops = diff_ops(v.grid)
    u1, u2 = v.u1.ravel(), v.u2.ravel()
    return tuple(u1 * (ops["dx"] @ w) + u2 * (ops["dy"] @ w) for w in (u1, u2))


def transport(v: FieldSet) -> tuple:
    """Flux-form transport (div(u h), div(u a)) by the divergence matrix,
    as flat arrays."""
    div = divergence_matrix(v.grid)
    return tuple(div @ np.concatenate([(v.u1 * f).ravel(), (v.u2 * f).ravel()])
                 for f in (v.h, v.a))


def compute_forcing(v: FieldSet, params: RheologyParams) -> tuple:
    """Explicit velocity-space forcing, zero on Dirichlet boundary rows:
    -(u . grad) u (``momentum_advection``) plus the quadratic ocean drag
    (rho_ocean C_ocean / rho_ice) / h |w| R(theta_ocean) w on w = 0.0 - u,
    the ice velocity relative to an ocean at rest.  0.0 - u, not -u: at
    u = +0.0 it is +0.0, where -u would be -0.0.

    The Coriolis rotation is not here: it is implicit, in
    ``operators.coupled_terms``.  Thickness under kappa raises
    InvalidStateError (``check_thickness``).
    """
    check_thickness(v.h, params.kappa)
    g = v.grid

    adv1, adv2 = momentum_advection(v)
    f1 = -adv1.reshape(g.ny, g.nx)
    f2 = -adv2.reshape(g.ny, g.nx)

    w1, w2 = 0.0 - v.u1, 0.0 - v.u2
    drag = (params.rho_ocean * params.C_ocean / params.rho_ice / v.h
            * np.hypot(w1, w2))
    c, s = np.cos(params.theta_ocean), np.sin(params.theta_ocean)
    f1 += drag * (c * w1 - s * w2)
    f2 += drag * (s * w1 + c * w2)

    boundary = g.boundary_mask()
    f1[boundary] = 0.0
    f2[boundary] = 0.0
    return f1, f2


def source_terms(v: FieldSet, inputs: ForcingInputs,
                 params: RheologyParams) -> tuple:
    """Thermodynamic sources (S_h, S_a).

    S_h = f(h/a) a + (1 - a) f(0), with the f(h/a) a term contributing zero
    where a = 0.  S_a adds (f(0)/kappa)(1 - a) when f(0) > 0 and
    (a / (2h)) S_h when S_h < 0; the boundary cases f(0) = 0 and S_h = 0
    contribute zero (the continuous extension of the branch values).
    """
    shape = (v.grid.ny, v.grid.nx)
    if inputs.f_growth is None:
        return np.zeros(shape), np.zeros(shape)
    f = inputs.f_growth
    f0 = float(f(0.0))
    covered = v.a > 0.0
    ratio = np.divide(v.h, v.a, out=np.zeros_like(v.h), where=covered)
    s_h = np.where(covered, np.asarray(f(ratio), dtype=float) * v.a, 0.0)
    s_h = s_h + (1.0 - v.a) * f0
    s_a = np.zeros(shape)
    if f0 > 0.0:
        s_a += (f0 / params.kappa) * (1.0 - v.a)
    s_a += np.where(s_h < 0.0, v.a / (2.0 * v.h) * s_h, 0.0)
    return s_h, s_a


def _explicit_rhs(v: FieldSet, inputs: ForcingInputs,
                  params: RheologyParams) -> np.ndarray:
    f1, f2 = compute_forcing(v, params)
    div_h, div_a = transport(v)
    rhs_h, rhs_a = -div_h, -div_a
    # no growth function adds no source: its +0.0 would only turn -0.0 into
    # +0.0, which v_n + dt rhs hides unless v_n is -0.0 there
    if inputs.f_growth is not None:
        s_h, s_a = source_terms(v, inputs, params)
        rhs_h += s_h.ravel()
        rhs_a += s_a.ravel()
    return np.concatenate([f1.ravel(), f2.ravel(), rhs_h, rhs_a])


def step(v_n: FieldSet, inputs: ForcingInputs, params: RheologyParams,
         cfg: StepperConfig) -> FieldSet:
    """Advance one backward-Euler step; returns the validated new state.

    The coefficients and the explicit terms are frozen at v_n.  Raises
    InvalidStateError when v_n (checked by the assembly) or the new state
    leaves the admissible set (thickness under kappa or compactness
    outside [0, 1] beyond STATE_SLACK), or I + dt A has a non-finite entry.
    """
    grid = v_n.grid
    op = assemble_coupled(v_n, grid, params, dt=cfg.dt)  # I + dt A(v_n)
    # the Dirichlet rows of rhs are +0.0: v_n passed validation, and
    # compute_forcing zeroes its boundary rows
    rhs = v_n.to_vector() + cfg.dt * _explicit_rhs(v_n, inputs, params)
    vec = solve_linear(op, rhs)
    vec[op.dirichlet_mask] = 0.0  # impose the known boundary values exactly
    return FieldSet.from_vector(grid, vec).validate(params)


@dataclass
class RunSinks:
    """Optional per-step consumers of diagnostics and snapshots."""

    on_diagnostics: Optional[Callable] = None
    on_snapshot: Optional[Callable] = None
    snapshot_every: int = 0


@dataclass
class RunResult:
    times: np.ndarray
    kinetic_energy: np.ndarray
    mean_h: np.ndarray
    mean_a: np.ndarray
    max_u: np.ndarray
    perturbation_norm: np.ndarray
    final_state: FieldSet
    n_steps: int


def diagnostics_row(v: FieldSet, t: float, params: RheologyParams,
                    reference: FieldSet) -> dict:
    g = v.grid
    area = g.cell_area
    speed2 = v.u1 * v.u1 + v.u2 * v.u2
    du = v.to_vector()
    du -= reference.to_vector()
    return {
        "time": t,
        "kinetic_energy": 0.5 * params.rho_ice * area * float((v.h * speed2).sum()),
        "mean_h": float(v.h.mean()),
        "mean_a": float(v.a.mean()),
        "max_u": math.sqrt(speed2.max()),
        "perturbation_norm": math.sqrt(area) * float(np.linalg.norm(du)),
    }


def run(v0: FieldSet, inputs: ForcingInputs, params: RheologyParams,
        cfg: StepperConfig, sinks: Optional[RunSinks] = None) -> RunResult:
    """Integrate from v0 until t_end, streaming per-step diagnostics.

    The perturbation norm is measured against the mean-value equilibrium
    (0, mean h0, mean a0), the expected limit of unforced dynamics.  Step
    failures are re-raised as StepError with the step index and time
    attached.
    """
    v0 = v0.validate(params)
    reference = FieldSet.constant(v0.grid, float(np.mean(v0.h)),
                                  float(np.mean(v0.a)))
    sinks = sinks or RunSinks()
    v, rows = v0, []
    for k in range(cfg.n_steps + 1):
        t = k * cfg.dt
        if k:  # row 0 is the initial state
            try:
                v = step(v, inputs, params, cfg)
            except Exception as exc:
                raise StepError(k, t, exc) from exc
        rows.append(diagnostics_row(v, t, params, reference))
        if sinks.on_diagnostics:
            sinks.on_diagnostics(rows[-1])
        if (sinks.on_snapshot and sinks.snapshot_every > 0
                and k % sinks.snapshot_every == 0):
            sinks.on_snapshot(k, t, v)
    series = {key: np.array([r[key] for r in rows]) for key in rows[0]}
    series["times"] = series.pop("time")
    return RunResult(**series, final_state=v, n_steps=cfg.n_steps)
