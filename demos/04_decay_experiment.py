"""Nonlinear relaxation toward the mean-value equilibrium.

Perturbs a constant equilibrium, integrates the unforced coupled system,
and compares the fitted exponential decay rate of the perturbation norm
with the spectral gap of the independently assembled linearization.
Writes the trajectory figure when matplotlib is available.
"""

import numpy as np

from vpice.dynamics import StepperConfig
from vpice.grid import Grid
from vpice.params import scaled_params
from vpice.stability import Equilibrium, decay_experiment

params = scaled_params(delta=1e-6, c_cor=0.0)
eq = Equilibrium(h_star=1.0, a_star=0.8)
grid = Grid(17, 17)
cfg = StepperConfig(dt=0.004, t_end=0.3)

print(f"equilibrium: h* = {eq.h_star}, a* = {eq.a_star}, "
      f"P* = {eq.p_star(params):.5f}")
print(f"grid {grid.nx}x{grid.ny}, dt = {cfg.dt}, t_end = {cfg.t_end}, "
      f"perturbation 1e-3 h*\n")

result = decay_experiment(eq, 1e-3, grid, params, cfg)
traj = result.trajectory

print(f"{'t':>8} {'perturbation norm':>18} {'kinetic energy':>16}")
for k in range(0, len(traj.times), 10):
    print(f"{traj.times[k]:8.3f} {traj.perturbation_norm[k]:18.6e} "
          f"{traj.kinetic_energy[k]:16.6e}")

print(f"\nfitted decay rate      : {result.fitted_rate:.4f}")
print(f"linearization gap      : {result.predicted_gap:.4f}")
print(f"relative disagreement  : {100 * result.relative_gap_error:.2f}%")
print(f"limit-state mismatch   : {result.limit_mismatch:.3e}")
print(f"mean drifts (h, a)     : {result.mean_h_drift:.2e}, "
      f"{result.mean_a_drift:.2e}")
print("\nthe trajectory relaxes to the equilibrium fixed by the initial "
      "mean thickness and compactness, at the rate the spectrum predicts.")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the decay figure")
else:
    fig, ax = plt.subplots(figsize=(5, 4))
    ax.semilogy(traj.times, traj.perturbation_norm, "b.-", ms=3,
                label="perturbation norm")
    start = traj.times[int(0.4 * len(traj.times))]
    ref = traj.perturbation_norm[int(0.4 * len(traj.times))]
    ax.semilogy(traj.times, ref * np.exp(-result.predicted_gap
                                         * (traj.times - start)),
                "k--", lw=1, label="gap prediction")
    ax.set_xlabel("time")
    ax.set_ylabel("|| v - v_inf ||")
    ax.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("demo04_decay.png", dpi=130)
    print("wrote demo04_decay.png")
