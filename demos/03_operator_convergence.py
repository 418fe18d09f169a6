"""Grid-refinement study of the assembled operators.

Runs ``vpice.selftest.convergence_check``, the rule of acceptance criterion
6 and of the ``operator-structure`` selftest suite, on a longer refinement
ladder: the constant-coefficient velocity operator and the Neumann
diffusion blocks applied to manufactured smooth fields, their interior
errors against the exact actions in the cell-weighted L2 norm, and the
observed convergence orders (expected: 2).
"""

import numpy as np

from vpice.grid import Grid
from vpice.params import scaled_params
from vpice.selftest import convergence_check

sizes = (17, 33, 65, 129)
_, errors, orders = convergence_check(sizes, scaled_params(delta=1e-2))

print("manufactured fields: u = (sin(pi x) sin(2 pi y), sin(2 pi x) sin(pi y)),"
      "  f = cos(pi x) cos(2 pi y)\n")
print(f"{'grid':>8} {'dx':>10} {'velocity-op error':>18} {'laplacian error':>16}")
for n, ((err_u, _), (err_l, _)) in zip(sizes, errors):
    print(f"{n:>4}x{n:<3} {Grid(n, n).dx:10.5f} {err_u:18.6e} {err_l:16.6e}")

print(f"\nobserved orders, velocity operator: {np.round(orders[:, 0, 0], 3)}")
print(f"observed orders, diffusion blocks:  {np.round(orders[:, 1, 0], 3)}")
