"""Least-squares extraction of decay laws and phase-diagram grids.

Depth series of partial-Jacobian norms follow one of two laws: algebraic
``J ~ l**(-zeta)`` at criticality, fitted on log-log axes, or exponential
``J ~ exp(+-l / xi)`` away from it, fitted on semilog axes.  Both fits
are plain unweighted least squares on the transformed data, which is also
how the reference results they are compared against were produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .activations import Activation
from .critical import find_fixed_point
from .meanfield import Hyper, NormMode

__all__ = [
    "FitResult",
    "PhaseGrid",
    "fit_power_law",
    "fit_exponential",
    "phase_grid",
    "chi_one_crossings",
]

#: Slopes smaller than this are reported as an infinite correlation length.
FLAT_SLOPE = 1e-12


@dataclass(frozen=True)
class FitResult:
    """Ordinary least-squares line fit on transformed (x, log J) data."""

    slope: float
    intercept: float
    stderr_slope: float
    window: tuple[int, int]
    r_squared: float

    @property
    def xi(self) -> float:
        """Correlation length implied by an exponential fit, 1 / |slope|."""
        if abs(self.slope) < FLAT_SLOPE:
            return math.inf
        return 1.0 / abs(self.slope)

    @property
    def phase(self) -> str:
        """Sign of an exponential-fit slope: growing, decaying, or flat."""
        if abs(self.slope) < FLAT_SLOPE:
            return "critical"
        return "chaotic" if self.slope > 0 else "ordered"


def _window_points(series, l_min: int):
    """Extract (layer, value) pairs with layer >= l_min.

    ``series`` may be a mapping layer -> J or an array indexed by layer.
    NaN entries, the unused layers l <= l0 of a trace, are skipped; an
    infinite one, where a trace was truncated, is refused.
    """
    if isinstance(series, Mapping):
        items = sorted(series.items())
    else:
        items = enumerate(np.asarray(series, dtype=float).tolist())
    pts = [(l, v) for l, v in items if l >= l_min and not math.isnan(v)]
    inf = [l for l, v in pts if math.isinf(v)]
    if inf:
        raise ValueError(f"the series is infinite at layer {inf[0]}, inside the fit window")
    if len(pts) < 10:
        raise ValueError(f"need at least 10 points in the window, got {len(pts)}")
    ls = np.array([p[0] for p in pts], dtype=float)
    vs = np.array([p[1] for p in pts], dtype=float)
    return ls, vs


def _ols(x: np.ndarray, y: np.ndarray, window: tuple[int, int]) -> FitResult:
    n = x.size
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - ym) ** 2))
    stderr = math.sqrt(ss_res / (n - 2) / sxx)
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return FitResult(slope, intercept, stderr, window, r2)


def fit_power_law(series, l_min: int) -> FitResult:
    """Fit ``log J = intercept + slope * log l``; slope estimates ``-zeta``."""
    ls, vs = _window_points(series, max(l_min, 1))
    if np.any(vs <= 0):
        raise ValueError("power-law fit needs strictly positive values")
    window = (int(ls[0]), int(ls[-1]))
    return _ols(np.log(ls), np.log(vs), window)


def fit_exponential(series, l_min: int) -> FitResult:
    """Fit ``log J = intercept + slope * l``; ``xi = 1 / |slope|``."""
    ls, vs = _window_points(series, l_min)
    if np.any(vs <= 0):
        raise ValueError("exponential fit needs strictly positive values")
    window = (int(ls[0]), int(ls[-1]))
    return _ols(ls, np.log(vs), window)


@dataclass(frozen=True)
class PhaseGrid:
    """Fixed-point multiplier sampled on a hyperparameter rectangle.

    ``chi[i, j]`` corresponds to ``(sigma_w[i], sigma_b[j])``; cells whose
    kernel diverged carry the saturated large-kernel multiplier and are
    flagged in ``diverged``.  ``iterations`` is each cell's
    :attr:`~jacprop.critical.FixedPoint.iterations`.
    """

    sigma_w: np.ndarray
    sigma_b: np.ndarray
    chi: np.ndarray
    diverged: np.ndarray
    iterations: np.ndarray


def phase_grid(
    act: Activation,
    mode: NormMode,
    sigma_w: Sequence[float],
    sigma_b: Sequence[float],
) -> PhaseGrid:
    """Evaluate ``chi_star`` on the outer product of the two sweeps."""
    sw = np.asarray(list(sigma_w), dtype=float)
    sb = np.asarray(list(sigma_b), dtype=float)
    shape = (sw.size, sb.size)
    chi = np.empty(shape)
    div = np.zeros(shape, dtype=bool)
    iters = np.zeros(shape, dtype=int)
    for i, w in enumerate(sw):
        for j, b in enumerate(sb):
            fp = find_fixed_point(act, mode, Hyper(w, b))
            chi[i, j] = fp.chi_j_star
            div[i, j] = fp.diverged
            iters[i, j] = fp.iterations
    return PhaseGrid(sigma_w=sw, sigma_b=sb, chi=chi, diverged=div, iterations=iters)


def chi_one_crossings(grid: PhaseGrid) -> np.ndarray:
    """Per-``sigma_w`` linear interpolation of the ``chi = 1`` contour.

    Returns one ``sigma_b`` value per grid row (NaN when the row never
    crosses one); used to check the grid against the critical-line solver.
    """
    out = np.full(grid.sigma_w.size, np.nan)
    for i in range(grid.sigma_w.size):
        row = grid.chi[i]
        for j in range(row.size - 1):
            a, b = row[j] - 1.0, row[j + 1] - 1.0
            if not (np.isfinite(a) and np.isfinite(b)):
                continue
            if a == 0.0:
                out[i] = grid.sigma_b[j]
                break
            if a * b < 0:
                frac = a / (a - b)
                out[i] = grid.sigma_b[j] + frac * (
                    grid.sigma_b[j + 1] - grid.sigma_b[j]
                )
                break
    return out
