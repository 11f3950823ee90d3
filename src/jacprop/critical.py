"""Fixed points of the kernel recursion and the criticality condition.

A hyperparameter pair ``(sigma_w, sigma_b)`` is critical when the
fixed-point Jacobian multiplier equals one: gradients then neither vanish
nor explode exponentially with depth.  Solving ``chi_j_star = 1`` traces a
line in the ``sigma_b``-``sigma_w`` plane; adding the kernel-stability
condition ``chi_k_star = 1`` pins isolated critical points.  Away from
the line the Jacobian norms behave like ``exp(+-l / xi)`` with
correlation length ``xi = 1 / |log chi_star|``; on it they decay
algebraically, ``J ~ l**(-zeta)``, with an activation-dependent exponent
that this module extracts numerically.

Every fixed point is the one Picard iteration of the kernel map ``g``
reaches, found without iterating.  An affine map (a scale-invariant phi,
or a norm) has a closed form.  For erf and GELU, ``g`` is increasing, so
Picard moves monotonically to the nearest root of ``f = g - K`` in the
direction of ``f(k_init)``, or diverges.  ``f`` is concave on ``[0, inf)``
for erf; for GELU it is convex up to the one zero ``K_c ~ 3.37`` of
``<phi^2>''`` and concave beyond.  On each piece ``f'`` is monotone, so
the sign of ``f`` at the piece's end and at its one extremum (where
``chi_k = 1``) tell whether a root lies ahead.  Every root here, a line's
``K*`` too, comes from one bracket walk and one Brent solve (:func:`_root`),
to rounding in tens of evaluations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .activations import Activation, MomentKind, moment_closed
from .meanfield import (
    OVERFLOW,
    Hyper,
    NormMode,
    block_law,
    chi_delta,
    chi_jacobian,
    chi_kernel,
    kernel_step,
    trace,
)

__all__ = [
    "FixedPoint",
    "CriticalLinePoint",
    "ExponentEstimate",
    "find_fixed_point",
    "chi_star",
    "critical_line",
    "critical_point",
    "correlation_length",
    "exponent_numeric",
    "expansion_coefficient",
    "gelu_parametric_line",
]

#: Below this kernel the solver takes ``g(K) - K`` as its Taylor
#: polynomial about zero (:func:`_zero_taylor`), whose roots it resolves.
ZERO_FLOOR = 1e-14


@dataclass(frozen=True)
class FixedPoint:
    """The fixed point Picard iteration of the kernel map reaches
    (:func:`find_fixed_point`).

    A diverging kernel has an infinite ``k_star``.  ``iterations`` counts
    the evaluations of the map and of its slope that found it.
    """

    k_star: float
    chi_k_star: float
    chi_j_star: float
    iterations: int

    @property
    def diverged(self) -> bool:
        return math.isinf(self.k_star)


@dataclass(frozen=True)
class CriticalLinePoint:
    """A solution of ``chi_star = 1`` at fixed ``sigma_w``.

    ``sigma_b`` is NaN when the solver found no root for this ``sigma_w``
    (the sweep keeps going regardless).
    """

    sigma_w: float
    sigma_b: float
    residual: float
    k_star: float

    @property
    def found(self) -> bool:
        return not math.isnan(self.sigma_b)


def find_fixed_point(
    act: Activation,
    mode: NormMode,
    hp: Hyper,
    k_init: float = 1.0,
) -> FixedPoint:
    """The fixed point that Picard iteration of the kernel map reaches from
    ``k_init``, solved for directly.

    An affine kernel map -- a scale-invariant phi, or any block with a
    norm, whose map is constant -- takes the closed form ``K* = g(0) / (1 -
    chi_k)``.  A smooth phi without a norm has its root solved for on the
    map's convex and concave pieces (:func:`_attractor`), to rounding, and
    below :data:`ZERO_FLOOR` on the map's Taylor polynomial about zero.
    ``chi_k_star`` is the exact map derivative
    :func:`~jacprop.meanfield.chi_kernel`, never a finite difference.
    Divergence yields an infinite ``k_star`` rather than an exception.
    ``iterations`` counts the evaluations of the map and of its slope; the
    affine closed form takes none.
    """
    if not (math.isfinite(k_init) and k_init >= 0):
        raise ValueError(f"k_init must be finite and nonnegative, got {k_init}")

    if act.family == "scale_invariant" or mode.normalizes:
        # The map is affine, g(K) = g(0) + chi_k K: phi is linear on each
        # half-line, or a norm makes the map constant (chi_k = 0).
        chi_k = chi_kernel(act, mode, hp, k_init)  # the same at every kernel
        g0 = kernel_step(act, mode, hp, 0.0)
        if chi_k < 1.0:
            k_star = g0 / (1.0 - chi_k)
        elif chi_k == 1.0 and g0 == 0.0:
            k_star = float(k_init)  # every kernel is fixed
        else:
            k_star = math.inf
        evals = 0
    else:
        k_star, evals = _attractor(act, hp, float(k_init))
    if math.isinf(k_star):
        return FixedPoint(math.inf, math.inf, _saturated_chi(act, hp), evals)
    chi_k = chi_kernel(act, mode, hp, k_star)
    chi_j = chi_jacobian(act, mode, hp, k_star)
    return FixedPoint(k_star, chi_k, chi_j, evals)


#: An extremum of ``g(K) - K`` within this many K of zero is a double
#: (half-stable) root: there the map's rounding cannot tell a tangent root
#: from a near miss, and Picard crawls through both alike.  Below
#: :data:`ZERO_FLOOR` the Taylor polynomial tells them apart.
DOUBLE_ROOT = 1e-10
#: Brent's absolute tolerance on a kernel, far below :data:`ZERO_FLOOR`, so
#: its relative one, 4 eps, rules every kernel above that.  Bisecting a
#: bracket [lo, 4] to it takes about 100 halvings; without it, a root near
#: 1e-168 in [0, 1] would take about 600, past :data:`_KERNEL_MAXITER`.
_KERNEL_XTOL = 1e-30
#: Brent's iteration cap on a kernel.  Next to the erf critical point
#: (sigma_w a few ulps above sqrt(pi / 4), sigma_b = 0), zero is barely
#: repelling, so a climb from a tiny k_init meets a root near 1e-16 to
#: 1e-13: Brent bisects [k_init, 4] down to it, and where g - K is rounding
#: (above :data:`ZERO_FLOOR`) interpolates on noise, to 4 eps relative.
#: Over 800 000 solves of erf and GELU next to their critical sigma_w that
#: took up to 172 iterations on the float map throughout, and takes up to
#: 135 over 20 000 with its Taylor polynomial below ZERO_FLOOR (a cap of
#: 100, as scipy's, left 3 % of the former unsolved).  A solve that
#: converges within 100 iterations is unchanged.
_KERNEL_MAXITER = 400

#: The one zero of each smooth family's curvature moments, filled on first use.
_MOMENT_ZERO: dict = {}


def _moment_zero(act: Activation, kind: MomentKind) -> float:
    """Where the moment ``kind`` turns negative, or 0 if it never is positive.

    ``PHI2_D2 = <phi^2>''`` ends the convex piece of ``g - K``, and ``DELTA
    = d<phi'^2>/dK`` is where a vanilla line's ``sigma_w(K*)`` turns: for
    GELU the real roots of ``5K^3 - 11K^2 - 18K - 6`` (about 3.37) and
    ``K^3 - 9K^2 - 12K - 4`` (about 10.21).  Both are negative for erf.
    """
    key = (act.family, kind)
    k_zero = _MOMENT_ZERO.get(key)
    if k_zero is None:
        m = lambda k: moment_closed(act, kind, k)  # noqa: E731
        m0 = m(0.0)
        k_zero = _root(m, 0.0, m0) if m0 > 0 else 0.0
        _MOMENT_ZERO[key] = k_zero
    return k_zero


def _attractor(act: Activation, hp: Hyper, k0: float) -> tuple[float, int]:
    """The fixed point Picard reaches from ``k0`` (inf if it diverges),
    and the evaluations of the map and its slope spent finding it.

    ``g`` is increasing (``PHI2_D1 > 0``), so from ``f(k0) > 0`` Picard
    climbs to the first root above ``k0`` and from ``f(k0) < 0`` it falls
    to the last root below it, which exists since ``f(0) = sigma_b^2 >=
    0``.  ``f`` is convex on ``[0, K_c]`` and concave beyond
    (:func:`_moment_zero`), so on each piece ``f'`` is monotone and
    :func:`_piece_root` settles whether a root lies ahead.  On the last,
    unbounded piece, ``f'`` falls toward ``chi_k(inf) - 1``: a climb there
    diverges at once if that limit is not negative, and otherwise meets
    the one root where ``f`` turns negative, up to ``OVERFLOW``.  Below
    :data:`ZERO_FLOOR`, ``f`` and ``f'`` come from :func:`_zero_taylor`.
    """
    mode = NormMode.VANILLA
    evals = 0
    sb2, d0, c2 = _zero_taylor(act, hp)

    def f(k):
        nonlocal evals
        evals += 1
        if k < ZERO_FLOOR:
            q = d0 + c2 * k
            kq = k * q
            if kq == 0 and k and q:  # underflowed: f keeps the sign of k q
                kq = math.copysign(math.ulp(0.0), q)
            return sb2 + kq
        return kernel_step(act, mode, hp, k) - k

    def slope(k):
        nonlocal evals
        evals += 1
        if k < ZERO_FLOOR:
            return d0 + 2.0 * c2 * k
        return chi_kernel(act, mode, hp, k) - 1.0

    f0 = f(k0)
    if f0 == 0:
        return k0, evals
    k_c = _moment_zero(act, MomentKind.PHI2_D2)
    if f0 < 0:
        k, fk = k0, f0
        if k > k_c:  # the concave piece, below which f may rise to a root
            root, fk = _piece_root(f, slope, k, fk, k_c, bends=True)
            if root is not None:  # always, when k_c = 0
                return root, evals
            k = k_c
        root, _ = _piece_root(f, slope, k, fk, 0.0, bends=False)
        return root, evals
    k, fk = k0, f0
    if k < k_c:  # the convex piece, above which f may dip to a root
        root, fk = _piece_root(f, slope, k, fk, k_c, bends=True)
        if root is not None:
            return root, evals
        k = k_c
    if slope(math.inf) >= 0:  # f increases on the whole last piece
        return math.inf, evals
    f_top = f(OVERFLOW)
    if f_top > 0:  # the root lies beyond any finite kernel
        return math.inf, evals
    return _root(f, k, fk, OVERFLOW, f_top), evals


#: pi to about 32 digits: ``math.pi`` plus its rounding error, ``sin(math.pi)``.
_PI = Fraction(math.pi) + Fraction(math.sin(math.pi))


def _zero_taylor(act: Activation, hp: Hyper) -> tuple[float, float, float]:
    """``(sigma_b^2, d, c)`` of ``f(K) = g(K) - K = sigma_b^2 + d K + c K^2 +
    O(K^3)`` for erf or GELU, the expansion the solver takes below
    :data:`ZERO_FLOOR`, where the cubic term is a few K^3.

    Within a few ulps of a critical sigma_w (erf's sqrt(pi / 4), GELU's 2)
    the slope ``d = sigma_w^2 <phi^2>'(0) - 1`` is smaller than the float
    map's relative rounding, which then decides the sign of ``f`` next to
    zero and misplaces its roots there.  So a ``d`` below 1e-6, where its
    few eps of rounding would pass 1e-9 relative, is taken in exact
    rationals: ``<phi^2>'(0)`` is 4 / pi for erf and 1 / 4 for GELU.
    """
    d0 = hp.sw2 * moment_closed(act, MomentKind.PHI2_D1, 0.0) - 1.0
    if abs(d0) < 1e-6:
        sw2 = Fraction(hp.sigma_w) ** 2
        d0 = float(sw2 * 4 / _PI - 1 if act.family == "erf" else sw2 / 4 - 1)
    c2 = 0.5 * hp.sw2 * moment_closed(act, MomentKind.PHI2_D2, 0.0)
    return hp.sb2, d0, c2


def _piece_root(f, slope, start: float, f_start: float, end: float, bends: bool):
    """The root of ``f`` nearest ``start`` toward ``end`` on a piece where
    ``f'`` is monotone, or None; and ``f(end)``.

    ``f(start)`` is nonzero.  A sign change at ``end`` holds exactly one
    root, since a convex or concave function crosses zero at most twice.
    Without one, a piece that curves away from zero (``bends`` False:
    convex below zero, concave above it) lies beyond its chord and holds
    no root before ``end``; one that ``bends`` may turn back at its single
    extremum, where ``f' = 0``.  An extremum within :data:`DOUBLE_ROOT` of
    zero is the root; one past zero puts a root between it and ``start``.
    """
    f_end = f(end)
    if f_end != 0 and (f_end < 0) != (f_start < 0):
        return _root(f, start, f_start, end, f_end), f_end
    at_end = (end if f_end == 0 else None), f_end
    if not bends:
        return at_end
    s_start = slope(start)
    if s_start == 0 or (s_start < 0) != ((f_start > 0) == (end > start)):
        return at_end  # f leaves zero behind
    s_end = slope(end)
    if s_end == 0:
        ext, f_ext = end, f_end
    elif (s_end < 0) != (s_start < 0):
        ext = _root(slope, start, s_start, end, s_end)
        f_ext = f(ext)
    else:
        return at_end  # f nears zero all the way to end
    if abs(f_ext) <= DOUBLE_ROOT * ext and ext >= ZERO_FLOOR:
        return ext, f_end
    if (f_ext < 0) != (f_start < 0):
        return _root(f, start, f_start, ext, f_ext), f_end
    return at_end


def _root(fn, a: float, f_a: float, b: float = OVERFLOW, f_b: float | None = None):
    """The root of ``fn`` between ``a`` and ``b``, where it changes sign at
    most once, or None if ``fn`` has the same sign at both.

    ``f_a`` is ``fn(a)``, and ``f_b`` is ``fn(b)`` or None if the caller
    does not know it.  Brent bisects a wide bracket a factor 2 at a time,
    so a bracket wider than ``4 max(lo, 1)`` from its lower end ``lo`` is
    first narrowed to one that wide, by growing from ``lo`` by factors of
    4.  One Brent solve, given the values at both ends, then finds the
    root to rounding.
    """
    if f_b is None:
        f_b = fn(b)
    if f_b != 0 and (f_b < 0) == (f_a < 0):
        return None
    (lo, f_lo), (hi, f_hi) = sorted(((a, f_a), (b, f_b)))
    x = 4.0 * max(lo, 1.0)
    while x < hi:
        fx = fn(x)
        if fx == 0 or (fx < 0) != (f_lo < 0):
            hi, f_hi = x, fx
            break
        lo, f_lo, x = x, fx, 4.0 * x
    return _brentq(fn, lo, f_lo, hi, f_hi, xtol=_KERNEL_XTOL, maxiter=_KERNEL_MAXITER)[0]


def _saturated_chi(act: Activation, hp: Hyper) -> float:
    """Limit of the Jacobian multiplier along a divergent kernel."""
    return hp.sw2 * moment_closed(act, MomentKind.DPHI2, math.inf)


def chi_star(
    act: Activation, mode: NormMode, hp: Hyper, k_init: float = 1.0
) -> float:
    """Fixed-point Jacobian multiplier; the order/chaos indicator.

    When the kernel diverges (possible only for unbounded activations in
    the vanilla mode) the saturated large-kernel limit of the multiplier
    is returned, which is the value the layer multiplier actually
    approaches with depth.
    """
    fp = find_fixed_point(act, mode, hp, k_init=k_init)
    return fp.chi_j_star


def correlation_length(chi: float) -> float:
    """Depth scale ``1 / |log chi|`` over which gradients stay appreciable."""
    if chi <= 0:
        raise ValueError(f"chi must be positive, got {chi}")
    if chi == 1.0:
        return math.inf
    return 1.0 / abs(math.log(chi))


def critical_line(
    act: Activation,
    mode: NormMode,
    sweep: Sequence[float],
) -> list[CriticalLinePoint]:
    """Solve ``chi_star(sigma_w, sigma_b) = 1`` for each ``sigma_w``.

    Every family and mode is served by one parametrization of the line by
    its fixed kernel (:func:`gelu_parametric_line`): each ``sigma_w`` is
    inverted for ``K*`` by one bracketed Brent solve (:func:`_root`) on a
    piece where ``sigma_w(K*)`` is monotone, and ``K*`` gives ``sigma_b``.
    ``sigma_w(K*)`` rises for vanilla erf and every LayerNorm line, and is
    constant for a vanilla scale-invariant phi: the piece is ``[0, inf)``.
    For vanilla GELU, whose half-stable points no iteration from a start
    kernel can reach, it falls from 2 to 1.39850 at ``K_turn ~ 10.2133``,
    where ``d<phi'^2>/dK`` vanishes, and then creeps back toward sqrt(2):
    the piece is ``[0, K_turn]``, so where two kernels are critical
    (``1.39850 < sigma_w < sqrt(2)``) the lower one is reported.  A sweep
    value admitting no root (zero among them) produces a NaN entry and the
    scan continues; a NaN, infinite or negative one raises.
    """
    sweep = [float(sigma_w) for sigma_w in sweep]
    for sigma_w in sweep:
        if not (math.isfinite(sigma_w) and sigma_w >= 0):
            raise ValueError(f"sigma_w must be finite and nonnegative, got {sigma_w}")
    return [_invert_line(act, mode, sigma_w) for sigma_w in sweep]


#: A line residual ``chi - 1`` this small at the ``K* = 0`` end of the
#: line (vanilla erf at sqrt(pi/4), vanilla GELU at 2, and the whole
#: degenerate vanilla scale-invariant line) puts the point there.
_LINE_END = 1e-10


def _invert_line(act: Activation, mode: NormMode, sigma_w: float) -> CriticalLinePoint:
    no_solution = CriticalLinePoint(sigma_w, math.nan, math.nan, math.nan)
    if sigma_w == 0:
        return no_solution
    sw_of_k = lambda k: gelu_parametric_line(k, act, mode)[0]  # noqa: E731
    sw0 = sw_of_k(0.0)
    ratio = sigma_w / sw0 if sw0 > 0 else math.inf
    if abs(ratio * ratio - 1.0) <= _LINE_END:
        k_star = 0.0
    else:  # sigma_w(K*) is monotone up to the zero of DELTA, if it has one
        k_turn = 0.0 if mode.normalizes else _moment_zero(act, MomentKind.DELTA)
        k_star = _root(lambda k: sw_of_k(k) - sigma_w, 0.0, sw0 - sigma_w,
                       k_turn or OVERFLOW)
        if k_star is None:
            return no_solution
    _, sigma_b = gelu_parametric_line(k_star, act, mode)
    if math.isnan(sigma_b):
        return no_solution
    residual = abs(chi_jacobian(act, mode, Hyper(sigma_w, sigma_b), k_star) - 1.0)
    return CriticalLinePoint(sigma_w, sigma_b, residual, k_star)


#: Brent's relative tolerance, scipy's smallest (and default) ``rtol``.
_BRENT_RTOL = 4.0 * sys.float_info.epsilon


def _brentq(f, xa: float, fa: float, xb: float, fb: float, xtol: float = 1e-13,
            maxiter: int = 100) -> tuple[float, int]:
    """Root of ``f`` in the sign-changing bracket ``[xa, xb]``, and the
    iteration count, by Brent's zeroin (Brent 1973, "Algorithms for
    Minimization without Derivatives", ch. 4).

    A statement-for-statement port of scipy's ``brentq.c``, with its
    ``rtol`` and ``maxiter`` defaults, sign test and stopping rule, so it
    takes the same iterates to the same bits without loading
    ``scipy.optimize``; the caller hands in ``fa = f(xa)`` and ``fb =
    f(xb)``.  The root is bracketed to within ``xtol + 4 eps |x|``.  A root
    at a bracket end takes 0 iterations.  A bracket without a sign change,
    a NaN value or ``maxiter`` iterations without convergence raise.
    """
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fa, fb
    if math.isnan(fpre) or math.isnan(fcur):
        raise ValueError("brentq: the function is NaN at a bracket end")
    if fpre == 0:
        return xpre, 0
    if fcur == 0:
        return xcur, 0
    if (fpre < 0) == (fcur < 0):
        raise ValueError("brentq: f(a) and f(b) must have different signs")
    for it in range(1, maxiter + 1):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, it
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if math.isnan(fcur):
            raise ValueError(f"brentq: the function is NaN at {xcur!r}")
    raise RuntimeError(f"brentq: no convergence after {maxiter} iterations, value is {xcur!r}")


#: A negative sigma_b^2 = K* - sigma_w^2 m2 above this many K* is rounding
#: in the difference of two terms of size K*, read as zero.
_SB2_ROUNDING = 1e-12


def gelu_parametric_line(
    k_star: float, act: Activation | None = None, mode: NormMode = NormMode.VANILLA
):
    """Exact critical pair ``(sigma_w, sigma_b)`` whose fixed kernel is ``k_star``.

    The block law at ``K*`` (:func:`~jacprop.meanfield.block_law`) fixes
    both parameters: the criticality condition ``sigma_w^2 <phi'^2>(q) /
    divisor = 1`` gives ``sigma_w^2 = divisor / <phi'^2>(q)``, and the
    fixed-point condition ``K* = sigma_w^2 m2 + sigma_b^2`` then gives
    ``sigma_b^2``.  Scanning ``K*`` draws the whole line, in every mode.
    ``act`` defaults to GELU and ``mode`` to vanilla, where the pair is
    ``(1 / sqrt(<phi'^2>), sqrt(K* - <phi^2> / <phi'^2>))`` at ``K*``, as
    :func:`critical_point` uses it.  ``sigma_w`` is inf when ``<phi'^2>``
    vanishes and ``sigma_b`` is NaN when none is real.
    """
    act = act or Activation.gelu()
    law = block_law(act, mode, k_star)
    d = moment_closed(act, MomentKind.DPHI2, law.q)
    sw2 = law.divisor / d if d > 0 else math.inf
    sb2 = k_star - sw2 * law.m2
    if -_SB2_ROUNDING * k_star <= sb2 < 0:
        sb2 = 0.0
    return math.sqrt(sw2), math.sqrt(sb2) if sb2 >= 0 else math.nan


#: Fixed kernels of the vanilla critical points, the zeros of
#: ``<phi phi''>(K)`` (derived in :func:`critical_point`).
_CRITICAL_KERNELS = {"erf": (0.0,), "gelu": (0.0, (3.0 + math.sqrt(17.0)) / 2.0)}


def critical_point(
    act: Activation, mode: NormMode = NormMode.VANILLA
) -> list[CriticalLinePoint]:
    """Solve ``chi_j_star = 1`` and ``chi_k_star = 1`` simultaneously.

    Only the vanilla mode has isolated critical points (the LayerNorm
    modes satisfy the kernel condition trivially and are critical on
    lines).  The Jacobian condition at a fixed kernel ``K*`` is
    ``sigma_w^2 = 1 / <phi'^2>(K*)``.  There the kernel slope is
    ``chi_k = sigma_w^2 <phi'^2 + phi phi''> = 1 + <phi phi''> /
    <phi'^2>`` (see :func:`~jacprop.meanfield.chi_kernel`), so the critical
    kernels are exactly the zeros of ``<phi phi''> = PHI2_D1 - DPHI2``:

    * erf: ``-(8K/pi) / ((1+2K) sqrt(1+4K))``, zero only at ``K* = 0``;
    * GELU: ``K (2 + 3K - K^2) / (2 pi (1+K)^2 (1+2K)^(3/2))``, zero at
      ``K* = 0`` and ``K* = (3 + sqrt(17)) / 2``;
    * scale-invariant: identically zero, and every ``K*`` gives the same
      pair ``(1/sqrt(<phi'^2>), 0)``, reported once with ``K* = 0``; with
      ``a_plus = a_minus = 0`` no ``sigma_w`` is critical, and the one
      point is all NaN, like a line point with no solution.

    Each ``K*`` is mapped to ``(sigma_w, sigma_b)`` by
    :func:`gelu_parametric_line`.  No root finder is involved; the points
    are ordered by increasing kernel.
    """
    if mode.normalizes:
        raise ValueError("critical points exist only in the vanilla mode")

    if act.family == "scale_invariant":
        d = moment_closed(act, MomentKind.DPHI2, 0.0)
        if d == 0:  # phi' = 0: no sigma_w is critical, as on the line
            return [CriticalLinePoint(math.nan, math.nan, math.nan, math.nan)]
        return [CriticalLinePoint(math.sqrt(1.0 / d), 0.0, 0.0, 0.0)]

    points = []
    for k_star in _CRITICAL_KERNELS[act.family]:
        sigma_w, sigma_b = gelu_parametric_line(k_star, act)
        hp = Hyper(sigma_w, sigma_b)
        residual = abs(chi_jacobian(act, NormMode.VANILLA, hp, k_star) - 1.0)
        points.append(CriticalLinePoint(sigma_w, sigma_b, residual, k_star))
    return points


@dataclass(frozen=True)
class ExponentEstimate:
    """Numerical critical exponent and the kernel-expansion diagnostic."""

    zeta: float
    dk_coeff: float
    window: tuple[int, int]


def exponent_numeric(
    act: Activation,
    mode: NormMode,
    hp: Hyper,
    depth: int,
    fit_from: int,
    k0: float | None = None,
) -> ExponentEstimate:
    """Extract the critical exponent from a deep trace at criticality.

    At a critical configuration the layer multiplier approaches one as
    ``chi[l] = 1 - zeta / l``, so ``zeta`` is estimated as the mean of
    ``l * (1 - chi[l])`` over ``l >= fit_from``; the companion diagnostic
    ``dk_coeff`` is the mean of ``l * (K[l] - K*)``.  The configuration
    must actually be critical (``|chi_star - 1| <= 0.01``), otherwise the
    multipliers converge to a non-unit constant and the estimator grows
    linearly instead of converging.  ``k0`` seeds the kernel; half-stable
    fixed points must be approached from their attracting side.
    """
    if fit_from < 1 or depth < 2 * fit_from:
        raise ValueError("need depth >= 2 * fit_from and fit_from >= 1")
    if k0 is None:
        k0 = 1.0 if mode.normalizes else 0.3
    fp = find_fixed_point(act, mode, hp, k_init=k0)
    if not abs(fp.chi_j_star - 1.0) <= 1e-2:
        raise ValueError(
            f"configuration is not critical: chi_star = {fp.chi_j_star!r}"
        )
    tr = trace(act, mode, hp, depth, k0, l0=0)
    ls = np.arange(fit_from, depth + 1)
    zeta = float(np.mean(ls * (1.0 - tr.chi_j[fit_from:])))
    k_ref = fp.k_star if math.isfinite(fp.k_star) else math.nan
    dk = float(np.mean(ls * (tr.K[fit_from:] - k_ref)))
    return ExponentEstimate(zeta=zeta, dk_coeff=dk, window=(fit_from, depth))


def expansion_coefficient(act: Activation, hp: Hyper, k_star: float) -> float:
    """Asymptotic value of ``l * (1 - chi[l])`` along the attracting branch.

    Expanding the kernel map to second order around a marginal fixed
    point (``chi_k = 1``) gives ``K[l] - K* ~ -1 / (c l)`` with ``c`` half
    the second derivative of the map, and hence ``l (1 - chi[l]) ->
    chi_j'(K*) / c``.  Since ``d/dK <f> = <f''> / 2`` under N(0, K),
    ``chi_j'`` is exactly the curvature moment :func:`chi_delta` and the
    map's second derivative is ``sigma_w^2`` times the ``PHI2_D2`` moment
    ``d^2 <phi^2> / dK^2``; both are closed forms.  ``k_star`` must be an
    interior (> 0) fixed point.
    """
    if k_star <= 0:
        raise ValueError("expansion coefficient needs an interior fixed point")
    g_pp = hp.sw2 * moment_closed(act, MomentKind.PHI2_D2, k_star)
    return 2.0 * chi_delta(act, hp, k_star) / g_pp
