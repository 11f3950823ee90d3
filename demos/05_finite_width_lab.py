"""Finite-width reality check: random networks against the theory.

Builds real random MLPs, measures exact partial-Jacobian norms, and
compares the near-output multiplier with the infinite-width fixed point.
Shrunk to desk scale (width 400, 12 inits) so it runs in seconds; the
acceptance suite repeats this at width 1000 over 81 hyperparameter cells.
"""

import math

import numpy as np

from jacprop import (
    Activation,
    EnsembleConfig,
    Hyper,
    NormMode,
    empirical_chi,
    ensemble_ntk,
    find_fixed_point,
    jacobian_profile,
    n0_correction_check,
)
from jacprop.ensemble import resolve_input
from jacprop.meanfield import trace

cells = [
    ("relu", Activation.relu(), NormMode.VANILLA, Hyper(math.sqrt(2), 0.0)),
    ("relu", Activation.relu(), NormMode.PRE_LN, Hyper(3.0, 1.0)),
    ("erf", Activation.erf(), NormMode.POST_LN, Hyper(1.0, 0.5)),
    ("gelu", Activation.gelu(), NormMode.PRE_LN, Hyper(2.0, 0.35)),
]
# The cells share sizes, members and seed, so one sweep per member serves
# them all: each layer is drawn once.
ests = empirical_chi([
    EnsembleConfig(width=400, input_dim=100, depth=30, n_init=12, seed=42,
                   hyper=hp, norm=mode, act=act)
    for name, act, mode, hp in cells
])
print("near-output multiplier J^{L-2,L-1}, ensemble vs fixed point:")
for (name, act, mode, hp), est in zip(cells, ests):
    fp = find_fixed_point(act, mode, hp)
    print(f"  {name:5s} {mode.value:8s} chi* = {fp.chi_j_star:.4f}   "
          f"measured {est.mean:.4f} +- {est.stderr:.4f}")

# Depth profile: ordered-phase ReLU decays geometrically with chi = 1/2.
cfg = EnsembleConfig(width=400, input_dim=64, depth=20, n_init=10, seed=1,
                     hyper=Hyper(1.0, 0.0), act=Activation.relu())
prof = jacobian_profile(cfg, l0=0)
ratios = prof.per_layer[3:10] / prof.per_layer[2:9]
print("\nReLU sigma_w=1 layer ratios (expect 0.5):",
      np.round(ratios, 4))

# The O(1/N0) input correction: at input dimension 16 the corrected
# first-layer multiplier is visibly better than the naive product.
cfg = EnsembleConfig(width=1024, input_dim=16, depth=2, n_init=50, seed=7,
                     hyper=Hyper(1.0, 0.0), act=Activation.erf())
rep = n0_correction_check(cfg)
print(f"\ninput correction at N0=16: measured {rep.measured:.5f}, "
      f"corrected {rep.corrected_pred:.5f}, uncorrected {rep.uncorrected_pred:.5f}")

# Exact NTK of a small network vs the infinite-width recursion.
cfg = EnsembleConfig(width=128, input_dim=32, depth=8, n_init=10, seed=3,
                     hyper=Hyper(math.sqrt(2), 0.0), act=Activation.relu())
x = resolve_input(cfg, 0)
k1 = cfg.hyper.sw2 * float(x @ x) / cfg.input_dim
theory = trace(cfg.act, NormMode.VANILLA, cfg.hyper, depth=cfg.depth, k0=k1, l0=0)
est = ensemble_ntk(cfg)
print(f"\nNTK at depth {cfg.depth}: ensemble {est.mean:.3f} +- {est.stderr:.3f}, "
      f"theory {theory.theta[cfg.depth]:.3f}")
