"""Infinite-width layer recursions for deep MLPs.

For a depth-``L`` MLP in NTK parametrization (standard-normal weights and
biases, explicit ``sigma_w / sqrt(N)`` and ``sigma_b`` scaling) the
infinite-width limit closes four per-layer scalars into recursions:

* the preactivation second moment ``K[l]`` (the GP kernel diagonal),
  ``K[l+1] = sigma_w^2 <phi(h)^2> + sigma_b^2`` with ``h ~ N(0, K[l])``;
* the Jacobian multiplier ``chi_j[l] = sigma_w^2 <phi'(h)^2>``, which
  propagates squared Frobenius norms of layer-to-layer Jacobians,
  ``J[l0, l+1] = chi_j[l] * J[l0, l]``, seeded by ``J[l0, l0+1] =
  chi_j[l0]``;
* the curvature moment ``chi_delta[l] = sigma_w^2 <phi''^2 + phi''' phi'>``
  entering the O(1/N0) input correction and the LayerNorm NTK;
* the NTK diagonal ``Theta[l]``.

Normalization modes change where the Gaussian moments are evaluated:
LayerNorm on preactivations pins the post-normalization kernel to 1 and
divides the Jacobian multiplier by the running kernel; LayerNorm on
activations pins the kernel to ``sigma_w^2 + sigma_b^2`` and divides by
the activation variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .activations import Activation, MomentKind, moment_closed

__all__ = [
    "Hyper",
    "NormMode",
    "MeanFieldTrace",
    "kernel_step",
    "chi_jacobian",
    "chi_kernel",
    "chi_delta",
    "ntk_step",
    "trace",
    "j0_corrected",
]

#: Kernel / Jacobian magnitudes beyond this are treated as divergent.
DEFAULT_OVERFLOW = 1e300


@dataclass(frozen=True)
class Hyper:
    """Weight and bias standard-deviation multipliers."""

    sigma_w: float
    sigma_b: float

    def __post_init__(self):
        for name in ("sigma_w", "sigma_b"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")

    @property
    def sw2(self) -> float:
        return self.sigma_w * self.sigma_w

    @property
    def sb2(self) -> float:
        return self.sigma_b * self.sigma_b


class NormMode(Enum):
    """Where (if anywhere) LayerNorm acts inside each layer."""

    VANILLA = "vanilla"
    PRE_LN = "pre_ln"    # normalize preactivations, then apply phi
    POST_LN = "post_ln"  # apply phi, then normalize the activations


def kernel_step(act: Activation, mode: NormMode, hp: Hyper, k: float) -> float:
    """One layer of the kernel recursion; returns inf on overflow.

    Vanilla propagates the running kernel; LayerNorm on preactivations
    feeds unit-variance inputs into phi regardless of ``k``; LayerNorm on
    activations pins the next kernel to ``sigma_w^2 + sigma_b^2`` exactly.
    """
    if mode is NormMode.POST_LN:
        return hp.sw2 + hp.sb2
    if mode is NormMode.PRE_LN:
        return hp.sw2 * moment_closed(act, MomentKind.PHI2, 1.0) + hp.sb2
    if not math.isfinite(k):
        return math.inf
    if k < 0:
        raise ValueError(f"kernel must be nonnegative, got {k}")
    out = hp.sw2 * moment_closed(act, MomentKind.PHI2, k) + hp.sb2
    return out if math.isfinite(out) else math.inf


def _post_ln_variance(act: Activation, q: float) -> float:
    """Variance of phi(h) under h ~ N(0, q); the PostLN denominator."""
    return (
        moment_closed(act, MomentKind.PHI2, q)
        - moment_closed(act, MomentKind.PHI1, q) ** 2
    )


def chi_jacobian(act: Activation, mode: NormMode, hp: Hyper, k: float) -> float:
    """Per-layer multiplier of the partial-Jacobian recursion.

    For the pre-LN mode ``k`` is the *current* kernel (it enters the
    denominator; the derivative moment itself is taken at unit variance).
    For the post-LN mode the moments are taken at the pinned kernel
    ``sigma_w^2 + sigma_b^2`` and ``k`` is ignored.
    """
    if mode is NormMode.VANILLA:
        if not math.isfinite(k):
            return math.nan
        return hp.sw2 * moment_closed(act, MomentKind.DPHI2, k)
    if mode is NormMode.PRE_LN:
        if k <= 0:
            raise ValueError(f"pre-LN multiplier needs a positive kernel, got {k}")
        return hp.sw2 * moment_closed(act, MomentKind.DPHI2, 1.0) / k
    q = hp.sw2 + hp.sb2
    var = _post_ln_variance(act, q)
    if var <= 0:
        raise ValueError(
            f"degenerate activation variance {var} at kernel {q}; "
            "post-LN multiplier undefined"
        )
    return hp.sw2 * moment_closed(act, MomentKind.DPHI2, q) / var


def chi_kernel(act: Activation, mode: NormMode, hp: Hyper, k: float) -> float:
    """Slope ``d kernel_step / dK`` of the kernel map at kernel ``k``.

    In the vanilla mode this is ``sigma_w^2 d<phi^2>/dK = sigma_w^2
    <phi'^2 + phi phi''>`` (the parallel susceptibility ``sigma_w^2 <h phi
    phi'> / K`` of Roberts, Yaida & Hanin 2022), in closed form.  Both
    LayerNorm maps are constant in ``k``, so their slope is exactly zero.
    """
    if mode is not NormMode.VANILLA:
        return 0.0
    return hp.sw2 * moment_closed(act, MomentKind.PHI2_D1, k)


def chi_delta(act: Activation, hp: Hyper, k: float) -> float:
    """Curvature moment sigma_w^2 <phi''^2 + phi''' phi'> at kernel ``k``.

    Identically zero for scale-invariant activations.
    """
    return hp.sw2 * moment_closed(act, MomentKind.DELTA, k)


def ntk_step(
    mode: NormMode,
    chi_j: float,
    chi_d: float,
    kernel_term: float,
    sigma_w: float,
    theta_prev: float,
    chi_j_unit: float | None = None,
) -> float:
    """One layer of the NTK recursion.

    ``chi_j`` is the mode's Jacobian multiplier at the previous layer and
    ``kernel_term`` the kernel entering additively.  LayerNorm modes add
    the gain/shift parameter gradients: pre-LN needs ``chi_j_unit``, the
    plain ``sigma_w^2 <phi'^2>`` at unit variance (not divided by the
    kernel), together with ``chi_d`` at unit variance; post-LN adds a
    constant ``2 sigma_w^2``.
    """
    base = chi_j * theta_prev + kernel_term
    if mode is NormMode.VANILLA:
        return base
    if mode is NormMode.PRE_LN:
        if chi_j_unit is None:
            raise ValueError("pre-LN NTK step requires chi_j_unit")
        return base + 2.0 * chi_j_unit + 2.0 * chi_d
    return base + 2.0 * sigma_w * sigma_w


@dataclass
class MeanFieldTrace:
    """Layer-indexed output of :func:`trace`.

    Arrays have length ``depth + 1`` and are indexed by layer, entry 0
    being a placeholder (``chi_j[0]`` alone is meaningful: it is the
    multiplier ``sigma_w^2`` of the linear input layer, which seeds
    ``J[1]`` when ``l0 == 0``).  ``J[l]`` holds the partial Jacobian from
    layer ``l0`` to layer ``l`` and is NaN for ``l <= l0``.
    """

    act: Activation
    mode: NormMode
    hp: Hyper
    depth: int
    l0: int
    K: np.ndarray = field(repr=False)
    chi_j: np.ndarray = field(repr=False)
    chi_delta: np.ndarray = field(repr=False)
    J: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)
    diverged: bool = False
    truncated_at: int | None = None


def trace(
    act: Activation,
    mode: NormMode,
    hp: Hyper,
    depth: int,
    k0: float,
    l0: int = 0,
    *,
    overflow: float = DEFAULT_OVERFLOW,
    ntk_kernel_lag: bool = False,
) -> MeanFieldTrace:
    """Run the coupled kernel / Jacobian / NTK recursions for ``depth`` layers.

    ``k0`` is the first-layer kernel ``K[1] = sigma_w^2 |x|^2 / N0 +
    sigma_b^2``, computed by the caller from a concrete input.  ``l0`` is
    the starting layer of the recorded partial Jacobian.  When a kernel or
    Jacobian entry exceeds ``overflow`` the trace is truncated there, the
    remaining entries are set to inf and ``diverged`` is flagged; nothing
    raises, so phase-diagram sweeps over chaotic regions run to completion.

    ``ntk_kernel_lag`` selects the variant NTK recursion in which the
    additive kernel term enters with one layer of lag (``K[l-1]`` instead
    of ``K[l]``); the default follows the term-by-term derivation.
    """
    if depth < 2:
        raise ValueError(f"depth must be >= 2, got {depth}")
    if not 0 <= l0 < depth:
        raise ValueError(f"l0 must satisfy 0 <= l0 < depth, got {l0}")
    if not (math.isfinite(k0) and k0 >= 0):
        raise ValueError(f"k0 must be finite and nonnegative, got {k0}")

    n = depth + 1
    K = np.full(n, np.nan)
    cj = np.full(n, np.nan)
    cd = np.full(n, np.nan)
    J = np.full(n, np.nan)
    theta = np.full(n, np.nan)

    cj[0] = hp.sw2  # linear input layer: d h^1 / d h^0 carries sigma_w/sqrt(N0)
    K[1] = k0

    # kernel at which chi_delta is evaluated, per mode
    if mode is NormMode.PRE_LN:
        delta_kernel = lambda k: 1.0  # noqa: E731 - tiny local dispatch
        chi_j_unit = hp.sw2 * moment_closed(act, MomentKind.DPHI2, 1.0)
    elif mode is NormMode.POST_LN:
        delta_kernel = lambda k: hp.sw2 + hp.sb2  # noqa: E731
        chi_j_unit = None
    else:
        delta_kernel = lambda k: k  # noqa: E731
        chi_j_unit = None

    diverged = False
    truncated_at = None

    for l in range(1, depth + 1):
        if not math.isfinite(K[l]) or K[l] > overflow:
            diverged = True
            truncated_at = l
            K[l:] = np.inf
            cj[l:] = np.inf
            cd[l:] = np.inf
            break
        cj[l] = chi_jacobian(act, mode, hp, K[l])
        cd[l] = chi_delta(act, hp, delta_kernel(K[l]))
        if l < depth:
            K[l + 1] = kernel_step(act, mode, hp, K[l])

    last = truncated_at if truncated_at is not None else depth + 1

    J[l0 + 1] = cj[l0]
    for l in range(l0 + 1, depth):
        if l + 1 >= last or not np.isfinite(J[l]) or abs(J[l]) > overflow:
            if not diverged and np.isfinite(J[l]) and abs(J[l]) > overflow:
                diverged = True
                truncated_at = l
            J[l + 1 :] = np.inf
            break
        J[l + 1] = cj[l] * J[l]

    theta[1] = K[1]
    for l in range(2, min(depth, last - 1) + 1):
        kterm = K[l - 1] if ntk_kernel_lag else K[l]
        theta[l] = ntk_step(
            mode, cj[l - 1], cd[l - 1], kterm, hp.sigma_w, theta[l - 1], chi_j_unit
        )
    if last <= depth:
        theta[last:] = np.inf

    return MeanFieldTrace(
        act=act,
        mode=mode,
        hp=hp,
        depth=depth,
        l0=l0,
        K=K,
        chi_j=cj,
        chi_delta=cd,
        J=J,
        theta=theta,
        diverged=diverged,
        truncated_at=truncated_at,
    )


def j0_corrected(
    act: Activation,
    hp: Hyper,
    tr: MeanFieldTrace,
    n0: int,
    input_norm: float,
    layer: int | None = None,
) -> float:
    """Partial Jacobian from the input with the finite-``N0`` correction.

    The first-layer factor ``chi_j[1]`` acquires the shift ``(2 sigma_w^2
    / N0) * chi_delta[1] * input_norm`` (``input_norm`` is ``|x|^2 / N0``);
    the remaining factors are taken from the trace unchanged, so
    activations with vanishing curvature moment reproduce ``tr.J[layer]``
    exactly, as does the ``N0 -> inf`` limit.
    """
    if tr.l0 != 0:
        raise ValueError("the input correction applies to traces with l0 == 0")
    if n0 < 1:
        raise ValueError(f"n0 must be >= 1, got {n0}")
    layer = tr.depth if layer is None else layer
    if not 2 <= layer <= tr.depth:
        raise ValueError(f"layer must be in 2..{tr.depth}, got {layer}")
    first = tr.chi_j[1] + (2.0 * hp.sw2 / n0) * tr.chi_delta[1] * input_norm
    rest = float(np.prod(tr.chi_j[2:layer])) if layer > 2 else 1.0
    return hp.sw2 * first * rest
