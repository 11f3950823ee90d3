"""Pointwise activations, their derivatives, and Gaussian moments.

Every infinite-width quantity in this library reduces to one-dimensional
expectations of the form

.. math::

    \\langle f(h) \\rangle = \\frac{1}{\\sqrt{2\\pi K}}
        \\int dh\\, f(h)\\, e^{-h^2 / 2K},

where ``f`` is built from an activation and its derivatives and ``K`` is
the variance of the preactivation distribution.  Three activation families
are supported:

* scale-invariant, ``phi(x) = a_plus * x`` for ``x > 0`` and
  ``a_minus * x`` for ``x < 0`` (ReLU is ``a_plus=1, a_minus=0``);
* erf, ``phi(x) = erf(x)``;
* GELU, ``phi(x) = x/2 * (1 + erf(x / sqrt(2)))``.

Every moment of every family has a closed form, served by
:func:`moment_closed`; the library computes with nothing else.  The
composite Gauss-Legendre quadrature at the end of this module is an
independent oracle that only the tests and demos call, to validate the
closed forms.

The closed forms need only :mod:`math`, so the theory half loads no
scipy.  ``scipy.special`` is imported on first use: by the first erf or
GELU array evaluation in :meth:`Activation.eval` (the Monte-Carlo half,
whose erf bits are scipy's) and by the first quadrature call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

__all__ = [
    "Activation",
    "MomentKind",
    "moment_closed",
    "moment_quadrature",
    "moment_integrand",
]

_TWO_PI = 2.0 * math.pi
_SQRT_2PI = math.sqrt(_TWO_PI)
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

# Truncation of the substituted variable t = h / sqrt(2K).  exp(-t^2) at
# t = 13.5 is ~1e-80, far below any polynomial growth of the integrands.
_T_MAX = 13.5
# All non-polynomial structure of the supported activations lives within
# |h| <~ 4; panels are split there so spectral accuracy survives large K.
_FEATURE_SCALE = 4.0


def _erf(x):
    """scipy's array erf, the bit source of every erf and GELU member.

    The first call imports it and rebinds this module's ``_erf`` to it, so
    later calls go straight to the ufunc; the theory half never gets here.
    """
    global _erf
    from scipy.special import erf as _erf

    return _erf(x)


@dataclass(frozen=True)
class Activation:
    """An activation family plus its slope parameters.

    ``a_plus`` and ``a_minus`` are meaningful only for the scale-invariant
    family; they are carried (and ignored) for the smooth families so the
    type stays a plain value object.
    """

    family: str
    a_plus: float = 1.0
    a_minus: float = 0.0

    _FAMILIES = ("scale_invariant", "erf", "gelu")

    def __post_init__(self):
        if self.family not in self._FAMILIES:
            raise ValueError(f"unknown activation family: {self.family!r}")

    @classmethod
    def relu(cls) -> "Activation":
        return cls("scale_invariant", 1.0, 0.0)

    @classmethod
    def scale_invariant(cls, a_plus: float, a_minus: float) -> "Activation":
        return cls("scale_invariant", float(a_plus), float(a_minus))

    @classmethod
    def erf(cls) -> "Activation":
        return cls("erf")

    @classmethod
    def gelu(cls) -> "Activation":
        return cls("gelu")

    @property
    def smooth(self) -> bool:
        """True when the activation has no kink (erf, GELU)."""
        return self.family != "scale_invariant"

    def eval(self, x, order: int = 0):
        """Evaluate the activation or one of its derivatives.

        ``order`` selects phi (0), phi' (1), phi'' (2), phi''' (3) or
        phi'''' (4).  Accepts scalars or numpy arrays.  For the
        scale-invariant family the derivative at exactly 0 is taken from
        the ``a_minus`` branch and orders >= 2 are identically zero; the
        convention is measure zero under every Gaussian average.
        """
        if order not in (0, 1, 2, 3, 4):
            raise ValueError(f"derivative order must be in 0..4, got {order}")
        x = np.asarray(x, dtype=float)
        if self.family == "scale_invariant":
            if order == 0:
                return np.where(x > 0, self.a_plus * x, self.a_minus * x)
            if order == 1:
                return np.where(x > 0, self.a_plus, self.a_minus) * np.ones_like(x)
            return np.zeros_like(x)
        if self.family == "erf":
            if order == 0:
                return _erf(x)
            g = _TWO_OVER_SQRT_PI * np.exp(-x * x)
            if order == 1:
                return g
            if order == 2:
                return -2.0 * x * g
            if order == 3:
                return (4.0 * x * x - 2.0) * g
            return (12.0 * x - 8.0 * x * x * x) * g
        # gelu: x * Phi(x) with Phi the standard normal CDF
        if order < 2:
            cdf = 0.5 * (1.0 + _erf(x / math.sqrt(2.0)))
            if order == 0:
                return x * cdf
        pdf = np.exp(-0.5 * x * x) / _SQRT_2PI
        if order == 1:
            return cdf + x * pdf
        if order == 2:
            return (2.0 - x * x) * pdf
        if order == 3:
            return x * (x * x - 4.0) * pdf
        return (7.0 * x * x - x**4 - 4.0) * pdf

    def __call__(self, x, order: int = 0):
        return self.eval(x, order)


class MomentKind(Enum):
    """Which Gaussian expectation of the activation is requested."""

    PHI2 = "phi2"      # <phi(h)^2>
    DPHI2 = "dphi2"    # <phi'(h)^2>
    PHI1 = "phi1"      # <phi(h)>
    DELTA = "delta"    # <phi''(h)^2 + phi'''(h) phi'(h)>
    # d/dK <phi^2> and d^2/dK^2 <phi^2>, by d/dK <f> = <f''> / 2
    PHI2_D1 = "phi2_d1"  # <phi'(h)^2 + phi(h) phi''(h)>
    PHI2_D2 = "phi2_d2"  # <3 phi''^2 + 4 phi' phi''' + phi phi''''> / 2


# bound once: an Enum attribute lookup costs more than most closed forms
_PHI2, _DPHI2, _PHI1 = MomentKind.PHI2, MomentKind.DPHI2, MomentKind.PHI1
_DELTA, _PHI2_D1, _PHI2_D2 = MomentKind.DELTA, MomentKind.PHI2_D1, MomentKind.PHI2_D2


def moment_integrand(act: Activation, kind: MomentKind):
    """Return the plain function of h whose N(0, K) average is the moment."""
    if kind is MomentKind.PHI2:
        return lambda h: act.eval(h, 0) ** 2
    if kind is MomentKind.DPHI2:
        return lambda h: act.eval(h, 1) ** 2
    if kind is MomentKind.PHI1:
        return lambda h: act.eval(h, 0)
    if kind is MomentKind.DELTA:
        return lambda h: act.eval(h, 2) ** 2 + act.eval(h, 3) * act.eval(h, 1)
    if kind is MomentKind.PHI2_D1:
        return lambda h: act.eval(h, 1) ** 2 + act.eval(h, 0) * act.eval(h, 2)
    if kind is MomentKind.PHI2_D2:
        return lambda h: 0.5 * (
            3.0 * act.eval(h, 2) ** 2
            + 4.0 * act.eval(h, 1) * act.eval(h, 3)
            + act.eval(h, 0) * act.eval(h, 4)
        )
    raise ValueError(f"unknown moment kind: {kind!r}")


#: Above this kernel the erf and GELU moments equal their leading large-K
#: terms to double precision (the next are K^(-1/2) < 1e-75 smaller); below
#: it no closed form overflows (GELU's ``K * K`` would from 1.3e154).
K_LARGE = 1e150
_GELU_R3 = 1.0 / (8.0 * math.sqrt(2.0) * math.pi)  # GELU DELTA ~ -_GELU_R3 K^(-3/2)


def _large_kernel(family: str, kind: MomentKind, K: float) -> float:
    """Leading large-K term of an erf or GELU moment, in powers of K^(-1/2);
    the decaying ones underflow rather than overflow, and K = inf is the limit."""
    r = 1.0 / math.sqrt(K)
    r3 = r * r * r
    if family == "erf":
        return {_PHI2: 1.0, _DPHI2: (2.0 / math.pi) * r, _PHI1: 0.0,
                _DELTA: -r3 / math.pi, _PHI2_D1: r3 / math.pi,
                _PHI2_D2: -(1.5 / math.pi) * r3 * r * r}[kind]
    return {_PHI2: 0.5 * K, _DPHI2: 0.5, _PHI1: math.sqrt(K / _TWO_PI),
            _DELTA: -_GELU_R3 * r3, _PHI2_D1: 0.5,
            _PHI2_D2: -5.0 * _GELU_R3 * r3 * r * r}[kind]


def moment_closed(act: Activation, kind: MomentKind, K: float) -> float:
    """Exact Gaussian moment of the activation under h ~ N(0, K).

    The erf and GELU curvature moments follow from the same Gaussian
    integrals as the erf arcsine kernel (Williams 1997); the two kernel
    derivatives of ``<phi^2>`` are those of its closed form.  A NaN kernel
    is rejected rather than propagated.  GELU's ``DELTA`` and ``PHI2_D2``
    are rational in K and sqrt(1 + 2K); they are written in x = K/(1+K),
    p = 1/(1+K), q = 1/(1+2K) and y = K/(1+2K), all in [0, 1], so they
    neither overflow nor cancel at any kernel.  Above :data:`K_LARGE`, K = inf
    included, the smooth families give their leading large-K terms, so no
    power or product in the closed forms can overflow.
    """
    if not K >= 0:
        raise ValueError(f"kernel K must be nonnegative, got {K}")
    K = float(K)
    if act.family == "scale_invariant":
        ap, am = act.a_plus, act.a_minus
        s2 = 0.5 * (ap * ap + am * am)
        if kind is _PHI2:
            return s2 * K
        if kind in (_DPHI2, _PHI2_D1):
            return s2
        if kind is _PHI1:
            return (ap - am) * math.sqrt(K / _TWO_PI) if ap != am else 0.0
        return 0.0
    if K > K_LARGE:
        return _large_kernel(act.family, kind, K)
    if act.family == "erf":
        if kind is _PHI2:
            return (2.0 / math.pi) * math.asin(2.0 * K / (1.0 + 2.0 * K))
        if kind is _DPHI2:
            return (4.0 / math.pi) / math.sqrt(1.0 + 4.0 * K)
        if kind is _PHI1:
            return 0.0
        if kind is _PHI2_D1:
            return (4.0 / math.pi) / ((1.0 + 2.0 * K) * math.sqrt(1.0 + 4.0 * K))
        if kind is _PHI2_D2:
            a, b = 1.0 + 2.0 * K, 1.0 + 4.0 * K
            return -(16.0 / math.pi) * (1.0 + 3.0 * K) / (a * a * b * math.sqrt(b))
        return -8.0 / (math.pi * (1.0 + 4.0 * K) ** 1.5)
    # gelu
    if kind is _PHI2:
        return (
            K / 4.0
            + (K / _TWO_PI) * math.asin(K / (1.0 + K))
            + K * K / (math.pi * (1.0 + K) * math.sqrt(1.0 + 2.0 * K))
        )
    if kind is _DPHI2:
        return 0.25 + (1.0 / _TWO_PI) * (
            math.asin(K / (1.0 + K))
            + K * (3.0 + 5.0 * K) / ((1.0 + K) * (1.0 + 2.0 * K) ** 1.5)
        )
    if kind is _PHI1:
        return K / math.sqrt(2.0 * math.pi * (1.0 + K))
    if kind is _PHI2_D1:
        a, t = 1.0 + 2.0 * K, K / (1.0 + K)
        return 0.25 + (1.0 / _TWO_PI) * (
            math.asin(t)
            + t * (5.0 + 11.0 * K + 4.0 * K * K) / ((1.0 + K) * a * math.sqrt(a))
        )
    # DELTA = -(K^3 - 9K^2 - 12K - 4) / (2 pi (1+K)^2 (1+2K)^(5/2)) and
    # PHI2_D2 = -(5K^3 - 11K^2 - 18K - 6) / (2 pi (1+K)^3 (1+2K)^(5/2))
    x, p = K / (1.0 + K), 1.0 / (1.0 + K)
    q, y = 1.0 / (1.0 + 2.0 * K), K / (1.0 + 2.0 * K)
    root = _TWO_PI * math.sqrt(1.0 + 2.0 * K)
    if kind is _DELTA:
        return -q * (x * x * y - q * (9.0 * x * x + 12.0 * x * p + 4.0 * p * p)) / root
    return -q * q * (5.0 * x * x * x - p * (11.0 * x * x + 18.0 * x * p + 6.0 * p * p)) / root


@lru_cache(maxsize=32)
def _legendre_nodes(n: int):
    from scipy.special import roots_legendre  # the oracle's only scipy use

    return roots_legendre(n)


def moment_quadrature(
    act: Activation, kind: MomentKind, K: float, nodes: int = 120
) -> float:
    """Numerical oracle for the Gaussian moment under h ~ N(0, K).

    Substitutes h = sqrt(2K) t and integrates f(h) exp(-t^2) / sqrt(pi)
    with a composite Gauss-Legendre rule of ``nodes`` points per panel.
    Panels are split at t = 0 (so the scale-invariant kink always sits on
    a panel boundary) and at the activation feature scale |h| ~ 4 (so the
    transition region stays resolved when K is large).  K = 0 collapses
    the measure to a point mass and returns the integrand at 0.
    """
    if not K >= 0:
        raise ValueError(f"kernel K must be nonnegative, got {K}")
    if nodes < 16:
        raise ValueError(f"quadrature needs at least 16 nodes, got {nodes}")
    f = moment_integrand(act, kind)
    if K == 0.0:
        return float(f(np.array([0.0]))[0])
    scale = math.sqrt(2.0 * K)
    breaks = [0.0]
    if _FEATURE_SCALE / scale < _T_MAX:
        breaks.append(_FEATURE_SCALE / scale)
    breaks.append(_T_MAX)
    x, w = _legendre_nodes(nodes)
    total = 0.0
    panels = list(zip(breaks[:-1], breaks[1:]))
    panels += [(-hi, -lo) for lo, hi in panels]
    for a, b in panels:
        t = 0.5 * (b - a) * x + 0.5 * (b + a)
        total += 0.5 * (b - a) * np.sum(w * f(scale * t) * np.exp(-t * t))
    return float(total / math.sqrt(math.pi))
