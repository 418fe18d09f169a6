"""Tour of the viscous-plastic constitutive law.

Walks a loading path of strain rates through the regularized rheology:
pressure, viscosities, principal stresses, and where each stress state sits
relative to the elliptical yield curve.  Saves a yield-plane figure when
matplotlib is available.
"""

import numpy as np

from vpice.params import RheologyParams
from vpice.rheology import (
    StrainRate, delta_reg, pressure, stress_sigma_delta, viscosities,
    yield_diagnostics,
)

params = RheologyParams(p_star=1.0, c=2.0, delta=1e-9, kappa=0.05)
h, a = 1.0, 0.9
P = pressure(h, a, params)
print(f"ice strength P(h={h}, a={a}) = {P:.6f} (scaled units)")
print(f"axis ratio e = {params.e}, regularization delta = {params.delta:g}\n")

print("strain magnitude sweep (pure divergence eps = s*I):")
print(f"{'s':>10} {'Delta_delta':>12} {'zeta':>12} {'eta':>12}")
for s in np.logspace(-6, 0, 7):
    eps = StrainRate(s, 0.0, s)
    dreg = delta_reg(eps, params)
    zeta, eta = viscosities(eps, P, params)
    print(f"{s:10.1e} {dreg:12.4e} {zeta:12.4e} {eta:12.4e}")

print("\nstress states along a mixed loading path:")
print(f"{'t':>6} {'sigma_d':>12} {'sigma_s':>12} {'ellipse residual':>18}")
path = np.linspace(0.0, 1.0, 9)
points = []
for t in path:
    eps = StrainRate(0.5 * t, 0.3 * t * (1 - t), -0.2 * t)
    sig = stress_sigma_delta(eps, h, a, params)
    diag = yield_diagnostics(sig, P, params)
    points.append((diag.sigma_d, diag.sigma_s))
    print(f"{t:6.2f} {diag.sigma_d:12.5f} {diag.sigma_s:12.5f} "
          f"{diag.ellipse_residual:18.3e}")

print("\nat rest the stress is -(P/2) I: strictly inside the ellipse "
      "(residual -P^2); strong deformation pushes states onto the curve.")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the yield-plane figure")
else:
    theta = np.linspace(0.0, 2.0 * np.pi, 200)
    ellipse_d = -P + P * np.cos(theta)
    ellipse_s = P / params.e * np.sin(theta)
    fig, ax = plt.subplots(figsize=(5, 4))
    ax.plot(ellipse_d, ellipse_s, "k-", lw=1, label="yield curve")
    pd, ps = zip(*points)
    ax.plot(pd, ps, "o-", ms=4, label="loading path")
    ax.plot([-P], [0.0], "rs", label="rest state")
    ax.set_xlabel("compressive stress sigma_d")
    ax.set_ylabel("shear stress sigma_s")
    ax.legend(loc="upper left", fontsize=8)
    fig.tight_layout()
    fig.savefig("demo01_yield_plane.png", dpi=130)
    print("wrote demo01_yield_plane.png")
