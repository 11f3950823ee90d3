"""Gaussian moments of activations: closed forms against the quadrature oracle.

Every infinite-width quantity in this library is built from a handful of
one-dimensional Gaussian expectations of an activation and its
derivatives.  Each has an exact closed form, which the library uses, and
an independent composite quadrature, which serves only as an oracle; this
script shows them agreeing to near machine precision across six orders
of magnitude in the kernel.
"""

import numpy as np

from jacprop import Activation, MomentKind, moment_closed, moment_quadrature

acts = {
    "relu": Activation.relu(),
    "scale-inv(2,1)": Activation.scale_invariant(2.0, 1.0),
    "erf": Activation.erf(),
    "gelu": Activation.gelu(),
}

print(f"{'activation':>15s} {'moment':>7s} {'K':>8s} {'closed':>20s} {'quadrature':>20s} {'|diff|':>9s}")
for name, act in acts.items():
    for kind in MomentKind:
        for K in (1e-3, 1.0, 10.0):
            closed = moment_closed(act, kind, K)
            quad = moment_quadrature(act, kind, K, nodes=120)
            print(f"{name:>15s} {kind.value:>7s} {K:8.3f} {closed:20.15f} "
                  f"{quad:20.15f} {abs(closed - quad):9.1e}")

# The curvature moment <phi''^2 + phi''' phi'> vanishes for the
# scale-invariant family.  It is negative for erf (the derivative profile
# flattens with scale) and positive for GELU near the origin.
print("\ncurvature moments at K = 1 (closed form, 200-node quadrature):")
for name in ("erf", "gelu"):
    closed = moment_closed(acts[name], MomentKind.DELTA, 1.0)
    quad = moment_quadrature(acts[name], MomentKind.DELTA, 1.0, nodes=200)
    print(f"  {name}: {closed:+.15f} {quad:+.15f}")

# Worst-case disagreement over a dense kernel grid
grid = np.geomspace(1e-3, 10, 50)
worst = 0.0
for act in acts.values():
    for kind in MomentKind:
        for K in grid:
            c = moment_closed(act, kind, K)
            q = moment_quadrature(act, kind, K)
            worst = max(worst, abs(c - q) / max(1, abs(c)))
print(f"\nworst relative deviation over the grid: {worst:.2e}")
