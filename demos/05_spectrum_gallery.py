"""Spectrum of the linearized operator across the regularization sweep.

Assembles the linearization at a constant equilibrium, prints the kernel
and gap structure and the dense blocks the spectrum is split into, sweeps
the regularization constant, and (optionally) plots the eigenvalue cloud
with and without rotation.
"""

import numpy as np

from vpice.grid import Grid
from vpice.params import scaled_params
from vpice.stability import (
    Equilibrium, assemble_A0, delta_gap_sweep, semisimplicity_proxy, spectrum,
    symmetry_blocks,
)

eq = Equilibrium(1.0, 0.8)
grid = Grid(13, 13)

params = scaled_params(delta=1e-6, c_cor=0.0)
op = assemble_A0(eq, grid, params)
rep = spectrum(op, grid)
proxy = semisimplicity_proxy(op, grid)
print(f"grid {grid.nx}x{grid.ny}: {len(rep.eigenvalues)} interior unknowns")
print(f"kernel dimension       : {rep.kernel_dim}")
print(f"symmetry group         : {rep.symmetry_group}, dense blocks "
      f"(size, copies) {rep.block_sizes}")


def print_blocks(params, label):
    """The dense blocks behind the spectrum and the structures that cut
    them: the grid symmetry group always, and with d_h == d_a the pure
    diffusion of q = (a* h - h* a) / r, whose eigenvalues are d times the
    closed-form Neumann ones."""
    group, blocks, q_values = symmetry_blocks(assemble_A0(eq, grid, params),
                                              grid)
    split = len(q_values) > 0
    print(f"{label}: {group} symmetry"
          + (" and the (p, q) diffusion split" if split else " only"))
    for block in blocks:
        count = block.copies * (1 + block.conjugate)
        size = block.matrix.shape[0] - block.kernel.shape[1]  # as solved
        print(f"    {'u p' if split else 'u h a':5s} block of {size:3d}"
              + (f", counted {count}x" if count > 1 else ""))
    if split:
        print(f"    q     eigenvalues {len(q_values):3d} in closed form")


print_blocks(params, "d_h == d_a")
print_blocks(params.with_(d_a=0.5), "d_a = d_h / 2")
print(f"spectral gap           : {rep.spectral_gap:.5f}")
print(f"semi-simplicity        : {'certified' if proxy.certified else 'NOT certified'}, "
      f"kernel residuals {proxy.right_residual:.1e} (right), "
      f"{proxy.left_residual:.1e} (left) vs max|A0_ij| = "
      f"{proxy.operator_norm:.3e}")

smallest = np.sort(rep.eigenvalues.real)[:8]
print(f"smallest real parts    : {np.round(smallest, 5)}")

print("\nregularization sweep (gap stays positive for small delta):")
deltas = np.logspace(-9, -3, 7)
gaps = delta_gap_sweep(eq, grid, params, deltas)
for d, g in zip(deltas, gaps):
    print(f"  delta = {d:8.1e}   gap = {g:.6f}")

params_cor = scaled_params(delta=1e-6, c_cor=0.5)
rep_cor = spectrum(assemble_A0(eq, grid, params_cor), grid)
print(f"\nwith rotation c_cor = 0.5: {rep_cor.symmetry_group}, dense blocks "
      f"(size, copies) {rep_cor.block_sizes}, kernel dim {rep_cor.kernel_dim}, "
      f"min Re = {rep_cor.eigenvalues.real.min():.3e} "
      f"(stays nonnegative), max |Im| = "
      f"{np.abs(rep_cor.eigenvalues.imag).max():.3e}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the eigenvalue figure")
else:
    fig, axes = plt.subplots(1, 2, figsize=(9, 4), sharey=True)
    for ax, r, title in ((axes[0], rep, "no rotation"),
                         (axes[1], rep_cor, "c_cor = 0.5")):
        ax.plot(r.eigenvalues.real, r.eigenvalues.imag, ".", ms=3)
        ax.axvline(0.0, color="k", lw=0.5)
        ax.set_xscale("symlog", linthresh=1e-2)
        ax.set_xlabel("Re")
        ax.set_title(title, fontsize=9)
    axes[0].set_ylabel("Im")
    fig.tight_layout()
    fig.savefig("demo05_spectrum.png", dpi=130)
    print("wrote demo05_spectrum.png")
