"""Infinite-width layer recursions for deep MLPs.

For a depth-``L`` MLP in NTK parametrization (standard-normal weights and
biases, explicit ``sigma_w / sqrt(N)`` and ``sigma_b`` scaling) the
infinite-width limit closes four per-layer scalars into recursions:

* the preactivation second moment ``K[l]`` (the GP kernel diagonal),
  ``K[l+1] = sigma_w^2 m2 + sigma_b^2`` with ``m2`` the second moment of
  the block's output under ``h ~ N(0, K[l])``;
* the Jacobian multiplier ``chi_j[l] = sigma_w^2 <phi'(h)^2> / divisor``,
  which propagates squared Frobenius norms of layer-to-layer Jacobians,
  ``J[l0, l+1] = chi_j[l] * J[l0, l]``, seeded by ``J[l0, l0+1] =
  chi_j[l0]``;
* the curvature moment ``chi_delta[l] = sigma_w^2 <phi''^2 + phi''' phi'>``
  entering the O(1/N0) input correction and the LayerNorm NTK;
* the NTK diagonal ``Theta[l]``.

A normalization mode is the order of a block's stages, and every quantity
above is read off the block's law at kernel ``K`` (:func:`block_law`):
LayerNorm on preactivations feeds phi unit variance and divides by the
kernel; LayerNorm on activations divides by the activation variance and
pins the next kernel to ``sigma_w^2 + sigma_b^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .activations import _DPHI2, _PHI1, _PHI2, Activation, MomentKind, moment_closed

__all__ = [
    "Hyper",
    "NormMode",
    "BlockLaw",
    "MeanFieldTrace",
    "block_law",
    "kernel_step",
    "chi_jacobian",
    "chi_kernel",
    "chi_delta",
    "trace",
    "j0_corrected",
]

#: Kernel / Jacobian magnitudes beyond this are treated as divergent, here
#: and by the fixed-point and critical-line solvers.
OVERFLOW = 1e300


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
    """Where (if anywhere) LayerNorm acts inside each layer.

    Each mode is its hidden block h^l -> z^l as a chain of stages, in the
    order applied (``stages``): the Monte-Carlo blocks run these stages,
    and :func:`block_law` walks them for the infinite-width law.
    """

    VANILLA = ("vanilla", ("phi",))
    PRE_LN = ("pre_ln", ("norm", "phi"))   # normalize preactivations, then apply phi
    POST_LN = ("post_ln", ("phi", "norm"))  # apply phi, then normalize the activations

    def __new__(cls, value: str, stages: tuple):
        mode = object.__new__(cls)
        mode._value_ = value
        mode.stages = stages
        # True when the block has a norm stage
        mode.normalizes = "norm" in stages
        # each stage with the stages behind it, for the walk in block_law
        mode._walk = tuple((st, stages[i + 1:]) for i, st in enumerate(stages))
        return mode


class BlockLaw(NamedTuple):
    """A block's infinite-width law at input kernel ``K`` (:func:`block_law`)."""

    q: float  # the variance phi sees
    divisor: float  # the variance the norm divides by; 1 without a norm
    m2: float  # the second moment of the block's output
    after_norm: tuple | None  # the stages behind the norm; None without one


def block_law(act: Activation, mode: NormMode, k: float) -> BlockLaw:
    """Walk the mode's stages from an N(0, ``k``) preactivation.

    phi sees the current variance as ``q`` and leaves ``<phi^2>(q)``; a
    norm divides by the variance of its input (the kernel itself, or
    ``<phi^2> - <phi>^2`` after phi) and leaves unit variance:

    ========  =====  ===========  ==========
    mode      q      divisor      m2
    ========  =====  ===========  ==========
    vanilla   K      1            <phi^2>(K)
    pre-LN    1      K            <phi^2>(1)
    post-LN   K      Var phi(K)   1
    ========  =====  ===========  ==========
    """
    q, divisor, var, m2, after_norm = k, 1.0, k, k, None
    for stage, behind in mode._walk:
        if stage == "phi":
            q, m2, var = var, moment_closed(act, _PHI2, var), None
        else:
            if var is None:  # phi's output, whose mean is not zero
                var = m2 - moment_closed(act, _PHI1, q) ** 2
            divisor, var, m2, after_norm = var, 1.0, 1.0, behind
    return tuple.__new__(BlockLaw, (q, divisor, m2, after_norm))


def kernel_step(act: Activation, mode: NormMode, hp: Hyper, k: float) -> float:
    """One layer of the kernel recursion, ``sigma_w^2 m2 + sigma_b^2``.

    A norm fixes ``m2`` (``<phi^2>(1)`` before phi, 1 after it), so both
    LayerNorm maps are constant in ``k``.  A diverged kernel stays inf,
    and so does a step that overflows.
    """
    if not 0 <= k < math.inf:
        if k < 0:
            raise ValueError(f"kernel must be nonnegative, got {k}")
        return math.inf
    out = hp.sw2 * block_law(act, mode, k).m2 + hp.sb2
    return out if out < math.inf else math.inf


def chi_jacobian(act: Activation, mode: NormMode, hp: Hyper, k: float) -> float:
    """Per-layer multiplier of the partial-Jacobian recursion at kernel ``k``.

    ``sigma_w^2 <phi'^2>(q) / divisor`` from :func:`block_law`: pre-LN
    takes the derivative moment at unit variance and divides by ``k``,
    post-LN takes it at ``k`` and divides by the activation variance
    there.  A non-finite ``k`` gives NaN; a nonpositive divisor raises.
    """
    if not math.isfinite(k):
        return math.nan
    return _chi_j(act, mode, hp, block_law(act, mode, k), k)[0]


def _chi_j(act: Activation, mode: NormMode, hp: Hyper, law: BlockLaw, k: float):
    """The multiplier and its numerator ``sigma_w^2 <phi'^2>(q)``."""
    if law.divisor <= 0:
        if mode.stages[0] == "norm":  # it divides by the kernel itself
            raise ValueError(f"pre-LN multiplier needs a positive kernel, got {k}")
        raise ValueError(
            f"degenerate activation variance {law.divisor} at kernel {law.q}; "
            "post-LN multiplier undefined"
        )
    top = hp.sw2 * moment_closed(act, _DPHI2, law.q)
    return top / law.divisor, top


def chi_kernel(act: Activation, mode: NormMode, hp: Hyper, k: float) -> float:
    """Slope ``d kernel_step / dK`` of the kernel map at kernel ``k``.

    Without a norm this is ``sigma_w^2 d<phi^2>/dK = sigma_w^2
    <phi'^2 + phi phi''>`` (the parallel susceptibility ``sigma_w^2 <h phi
    phi'> / K`` of Roberts, Yaida & Hanin 2022), in closed form.  A
    normalizing block's map is constant in ``k``, so its slope is exactly
    zero.
    """
    if mode.normalizes:
        return 0.0
    return hp.sw2 * moment_closed(act, MomentKind.PHI2_D1, k)


def chi_delta(act: Activation, hp: Hyper, k: float) -> float:
    """Curvature moment sigma_w^2 <phi''^2 + phi''' phi'> at kernel ``k``.

    Identically zero for scale-invariant activations.
    """
    return hp.sw2 * moment_closed(act, MomentKind.DELTA, k)


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
) -> MeanFieldTrace:
    """Run the coupled kernel / Jacobian / NTK recursions for ``depth`` layers.

    ``k0`` is the first-layer kernel ``K[1] = sigma_w^2 |x|^2 / N0 +
    sigma_b^2``, computed by the caller from a concrete input; every layer,
    the first included, reads its multipliers off the block law at its own
    kernel.  ``l0`` is the starting layer of the recorded partial
    Jacobian.  When a kernel or Jacobian entry exceeds :data:`OVERFLOW` the
    trace is truncated there, the remaining entries are set to inf and
    ``diverged`` is flagged; nothing raises, so phase-diagram sweeps over
    chaotic regions run to completion.  The NTK is ``Theta[l] = chi_j[l-1]
    Theta[l-1] + K[l]`` plus the gain and shift terms of layer ``l-1``'s norm.
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
    gains = [()] * n

    cj[0] = hp.sw2  # linear input layer: d h^1 / d h^0 carries sigma_w/sqrt(N0)
    K[1] = k0

    diverged = False
    truncated_at = None

    for l in range(1, depth + 1):
        k = K[l]
        if not math.isfinite(k) or k > OVERFLOW:
            diverged = True
            truncated_at = l
            K[l:] = np.inf
            cj[l:] = np.inf
            cd[l:] = np.inf
            break
        law = block_law(act, mode, k)
        cj[l], top = _chi_j(act, mode, hp, law, k)
        cd[l] = chi_delta(act, hp, law.q)
        if law.after_norm is not None:
            # the norm's gain and shift add sigma_w^2 <g'(u)^2 (1 + u^2)> over
            # its unit-variance output u, g the stages behind it: 2 sigma_w^2
            # alone, and by Gaussian integration by parts 2 sigma_w^2 <phi'^2>
            # + 2 chi_delta through phi
            gains[l] = (2.0 * top, 2.0 * cd[l]) if law.after_norm else (2.0 * hp.sw2,)
        if l < depth:
            K[l + 1] = hp.sw2 * law.m2 + hp.sb2  # a non-finite one truncates next

    last = truncated_at if truncated_at is not None else depth + 1

    J[l0 + 1] = cj[l0]
    for l in range(l0 + 1, depth):
        if l + 1 >= last or not np.isfinite(J[l]) or abs(J[l]) > OVERFLOW:
            if not diverged and np.isfinite(J[l]) and abs(J[l]) > OVERFLOW:
                diverged = True
                truncated_at = l
            J[l + 1 :] = np.inf
            break
        J[l + 1] = cj[l] * J[l]

    theta[1] = K[1]
    for l in range(2, min(depth, last - 1) + 1):
        t = cj[l - 1] * theta[l - 1] + K[l]
        for term in gains[l - 1]:
            t = t + term
        theta[l] = t
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
