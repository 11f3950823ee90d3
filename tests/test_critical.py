"""Fixed-point, critical-line/point, correlation-length and exponent tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jacprop import critical
from jacprop.activations import K_LARGE, Activation, MomentKind, moment_closed
from jacprop.critical import (
    _brentq,
    chi_star,
    correlation_length,
    critical_line,
    critical_point,
    expansion_coefficient,
    exponent_numeric,
    find_fixed_point,
    gelu_parametric_line,
)
from jacprop.analysis import phase_grid
from jacprop.meanfield import OVERFLOW, Hyper, NormMode, chi_delta, chi_kernel, kernel_step

RELU = Activation.relu()
ERF = Activation.erf()
GELU = Activation.gelu()
PI = math.pi

ERF_CRIT = Hyper(math.sqrt(PI / 4), 0.0)


def gelu_critical_point() -> tuple[Hyper, float]:
    """Exact nontrivial GELU critical pair and its fixed kernel."""
    k_star = (3 + math.sqrt(17)) / 2
    sw, sb = gelu_parametric_line(k_star)
    return Hyper(sw, sb), k_star


def kernel_derivative(act, mode, hp, k, step=1e-6):
    """Oracle: d kernel_step / dK at ``k`` by second-order finite differences.

    Central where ``k`` exceeds the step, one-sided (forward) next to zero.
    The library computes the same slope in closed form (``chi_kernel``).
    """
    g = lambda x: kernel_step(act, mode, hp, x)  # noqa: E731
    h = step * max(1.0, abs(k))
    if k >= h:
        return (g(k + h) - g(k - h)) / (2.0 * h)
    return (-3.0 * g(k) + 4.0 * g(k + h) - g(k + 2.0 * h)) / (2.0 * h)


def picard_fixed_point(act, hp, k_init):
    """Oracle: the fixed point of the vanilla kernel map by Picard iteration.

    The library's former solver, kept as the reference the direct solver
    must agree with.  Picard runs from ``k_init`` until a step moves the
    kernel by at most 1e-12 relative, for at most 100 000 steps; a kernel
    past ``K_LARGE`` (when the K -> inf slope exceeds one) or past
    ``OVERFLOW`` diverges.  A stalled run is polished by Newton's method on
    ``g(K) - K``.  Returns K* (inf when it diverges), with a root below
    1e-14 read as zero, or None where Picard gives no verdict:

    * a stop at a repelling point (slope above one), which Picard leaves
      unless it starts on it, or a climb through a point neutral to
      rounding (slope one), which ``f``'s second order decides; the step
      rule stops at both next to zero;
    * a stop below 1e-14 but a fall by more than 1e-14 relative, about the
      map's rounding.  The absolute step rule stops a climb there at once,
      and within a few ulps of a critical sigma_w rounding hides whether
      Picard climbs or falls;
    * a polish that is no root, or lands behind the last iterate.  Picard
      moves monotonically and never crosses a root, so such a root is one
      it moved away from.  The former solver returned it, or inf.
    """
    g = lambda k: kernel_step(act, NormMode.VANILLA, hp, k)  # noqa: E731
    slope = lambda k: chi_kernel(act, NormMode.VANILLA, hp, k)  # noqa: E731
    k_cap = K_LARGE if slope(math.inf) > 1.0 else OVERFLOW
    k = float(k_init)
    for _ in range(100_000):
        k_next = g(k)
        if not k_next <= k_cap:
            return math.inf
        if abs(k_next - k) <= 1e-12 * max(1.0, k_next):
            s = slope(k_next)
            if k_next != k and (s > 1.0 or s == 1.0 and k_next > k):
                return None
            if 0 < k_next < 1e-14 and k - k_next <= 1e-14 * k_next:
                return None
            return 0.0 if k_next < 1e-14 else k_next
        k = k_next
    last, ahead = k, g(k) > k
    for _ in range(200):
        fp = slope(k) - 1.0
        if fp == 0.0:
            break
        k_new = k - (g(k) - k) / fp
        if k_new < 0.0:
            k_new = 0.5 * k
        if abs(k_new - k) <= 1e-12 * max(1.0, abs(k_new)):
            k = k_new
            break
        k = k_new
    k = max(k, 0.0)
    if k < 1e-14:
        k = 0.0
    if abs(g(k) - k) > 1e-10 * max(1.0, k) or (k > last) != ahead:
        return None
    return k


def assert_first_root_on_the_way(act, hp, k_init, fp):
    """Oracle where Picard gives no verdict: its monotone sequence stops at
    the first root in the direction of ``f(k_init) = g(k_init) - k_init``,
    so on a fine log scan from ``k_init`` to K* ``f`` keeps that sign, and
    K* is a root.  A divergent kernel climbs, with ``f > 0`` on the scan up
    to 1e10, and a K -> inf slope of at least one, without which ``f``
    falls to -inf.  Where ``|f| <= 1e-9 K``, which bounds the rounding of g
    and K up to 1e10 (GELU's arcsine loses about eps sqrt(K) there), and
    below K = 1e-300, where g underflows, its sign is read at 50 digits or
    more (:func:`mp_map_gap`)."""
    f = lambda k: kernel_step(act, NormMode.VANILLA, hp, k) - k  # noqa: E731

    def rises(k):
        fk = f(k)
        if abs(fk) > 1e-9 * k and k > 1e-300:
            return fk > 0
        return mp_map_gap(act, hp, k) > 0

    up = rises(k_init)
    end = max(k_init, 1e10) if fp.diverged else fp.k_star
    if fp.diverged:
        assert up and chi_kernel(act, NormMode.VANILLA, hp, math.inf) >= 1.0

    lo, hi = sorted((k_init, end))
    scan = np.geomspace(max(k_init, 1e-30), max(end, 1e-30), 4000)[:-1]
    assert all(rises(k) == up for k in scan if lo <= k <= hi), (act.family, hp, k_init, fp)
    if not fp.diverged:
        assert abs(f(fp.k_star)) <= 1e-12 * max(1.0, fp.k_star)


def assert_same_attractor(act, hp, k_init):
    """The solver's K* is Picard's: both diverge, or they agree to Picard's
    own error, a step of 1e-12 max(1, K) left short by a factor chi_k / (1
    - chi_k), with a hundredfold margin.  Where Picard gives no verdict,
    the sign scan decides."""
    fp = find_fixed_point(act, NormMode.VANILLA, hp, k_init=k_init)
    k_oracle = picard_fixed_point(act, hp, k_init)
    case = (act.family, hp, k_init, fp.k_star, k_oracle)
    if k_oracle is None:
        assert_first_root_on_the_way(act, hp, k_init, fp)
    elif math.isinf(k_oracle):
        assert fp.diverged, case
    else:
        assert not fp.diverged, case
        slack = 1e-10 * max(1.0, k_oracle) / max(1.0 - fp.chi_k_star, 1e-4)
        assert abs(fp.k_star - k_oracle) <= slack, case
    return k_oracle


def saddle_node(k_star):
    """The vanilla GELU pair ``(sigma_w^2, sigma_b^2)`` whose kernel map has
    a double root at ``k_star``: ``g' = 1`` and ``g = K`` there."""
    sw2 = 1.0 / moment_closed(GELU, MomentKind.PHI2_D1, k_star)
    return sw2, k_star - sw2 * moment_closed(GELU, MomentKind.PHI2, k_star)


def mp_map_gap(act, hp, k):
    """Oracle: ``g(K) - K`` of the vanilla map at 50 digits plus one for
    each decade of K below one, from the closed-form ``<phi^2>`` of erf
    (the arcsine kernel) or of GELU.  At a critical sigma_w and sigma_b = 0
    the gap is second order, K times smaller than K itself, so a fixed 50
    digits would round it away below K = 1e-50."""
    import mpmath as mp

    with mp.workdps(50 + (max(0, -math.floor(math.log10(k))) if k > 0 else 0)):
        sw2, sb2, k = mp.mpf(hp.sigma_w) ** 2, mp.mpf(hp.sigma_b) ** 2, mp.mpf(k)
        if act.family == "erf":
            phi2 = 2 / mp.pi * mp.asin(2 * k / (1 + 2 * k))
        else:
            phi2 = (k / 4 + k / (2 * mp.pi) * mp.asin(k / (1 + k))
                    + k * k / (mp.pi * (1 + k) * mp.sqrt(1 + 2 * k)))
        return sw2 * phi2 + sb2 - k


def mp_fixed_point(act, hp, k_star):
    """Oracle: the 50-digit root of ``sigma_w^2 <phi^2>(K) + sigma_b^2 - K``
    next to ``k_star``.

    erf takes ``<phi^2> = (2/pi) asin(2K / (1 + 2K))`` and mpmath's secant
    solver.  GELU takes ``<phi^2>`` by 50-digit quadrature of ``(h Phi(h))^2``
    and one secant step from ``k_star`` through ``k_star (1 + 1e-9)``, whose
    error is about the product of the two points' distances to the root:
    below 1e-20 from a start within 1e-12.
    """
    import mpmath as mp

    with mp.workdps(50):
        sw2, sb2 = mp.mpf(hp.sigma_w) ** 2, mp.mpf(hp.sigma_b) ** 2
        if act.family == "erf":
            f = lambda k: sw2 * 2 / mp.pi * mp.asin(2 * k / (1 + 2 * k)) + sb2 - k  # noqa: E731
            return mp.findroot(f, mp.mpf(k_star))

        def f(k):
            density = lambda h: mp.exp(-h * h / (2 * k)) / mp.sqrt(2 * mp.pi * k)  # noqa: E731
            phi2 = lambda h: (h * mp.ncdf(h)) ** 2 * density(h)  # noqa: E731
            return sw2 * mp.quad(phi2, [-mp.inf, -4, 0, 4, mp.inf]) + sb2 - k

        k0, k1 = mp.mpf(k_star), mp.mpf(k_star) * (1 + mp.mpf("1e-9"))
        f0, f1 = f(k0), f(k1)
        return k1 - f1 * (k1 - k0) / (f1 - f0)


def sigma_b_search(act, mode, sigma_w):
    """Oracle: the line's sigma_b at ``sigma_w`` by a nested search.

    Brent's method over sigma_b on ``chi_star - 1``, every evaluation
    iterating the kernel map to its fixed point from K = 0, with the
    bracket ``[0, 10 sigma_w]`` doubling until the residual changes sign;
    a residual within 1e-10 at sigma_b = 0 is that root, and NaN means no
    root.  From K = 0 the iteration sees the lowest fixed point, so on the
    vanilla GELU line it finds the order/chaos boundary of the attracting
    branch, not the half-stable line.
    """
    from scipy.optimize import brentq

    def residual(sigma_b):
        return chi_star(act, mode, Hyper(sigma_w, sigma_b), k_init=0.0) - 1.0

    r0 = residual(0.0)
    if abs(r0) <= 1e-10:
        return 0.0
    lo, hi = 0.0, 10.0 * sigma_w
    r_hi = residual(hi)
    for _ in range(60):
        if r_hi * r0 <= 0:
            break
        lo, hi = hi, 2.0 * hi
        r_hi = residual(hi)
    if r_hi * r0 > 0:
        return math.nan
    return brentq(residual, lo, hi, xtol=1e-12, rtol=8.9e-16)


def scanned_critical_kernels(act, k_max=50.0, k_grid=400):
    """Oracle: roots of chi_k - 1 on sigma_w^2 = 1 / <phi'^2>, by a K-grid
    scan and Brent refinement of the finite-difference residual."""
    from scipy.optimize import brentq

    def residual(k):
        sw2 = 1.0 / moment_closed(act, MomentKind.DPHI2, k)
        return kernel_derivative(act, NormMode.VANILLA, Hyper(math.sqrt(sw2), 0.0), k) - 1.0

    roots = [0.0] if abs(residual(0.0)) <= 1e-8 else []
    grid = np.linspace(0.0, k_max, k_grid + 1)
    vals = [residual(k) for k in grid]
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa * fb < 0:
            k_star = brentq(residual, a, b, xtol=1e-13)
            if k_star > 1e-9:  # the boundary root was already collected
                roots.append(k_star)
    return roots


class TestKernelSlope:
    @settings(deadline=None)
    @given(
        log_k=st.floats(math.log(1e-3), math.log(100.0)),
        sigma_w=st.floats(0.1, 3.0),
        sigma_b=st.floats(0.0, 2.0),
        a_plus=st.floats(-3.0, 3.0),
        a_minus=st.floats(-3.0, 3.0),
    )
    def test_chi_kernel_matches_the_finite_difference(
        self, log_k, sigma_w, sigma_b, a_plus, a_minus
    ):
        k = math.exp(log_k)
        hp = Hyper(sigma_w, sigma_b)
        for act in (ERF, GELU, Activation.scale_invariant(a_plus, a_minus)):
            for mode in NormMode:
                exact = chi_kernel(act, mode, hp, k)
                fd = kernel_derivative(act, mode, hp, k)
                # the floor covers the finite difference's rounding, at
                # most ulp(g) / 2h = 4.4e-10 for maps below 8 at K < 1
                assert math.isclose(exact, fd, rel_tol=1e-7, abs_tol=1e-9), (
                    act, mode, k, exact, fd)

    def test_ln_maps_have_zero_slope(self):
        for mode in (NormMode.PRE_LN, NormMode.POST_LN):
            assert chi_kernel(GELU, mode, Hyper(1.3, 0.4), 2.0) == 0.0

    def test_fixed_point_reports_the_exact_slope(self):
        hp = Hyper(1.0, 0.2)
        fp = find_fixed_point(ERF, NormMode.VANILLA, hp)
        assert fp.chi_k_star == chi_kernel(ERF, NormMode.VANILLA, hp, fp.k_star)
        assert fp.chi_k_star == pytest.approx(
            kernel_derivative(ERF, NormMode.VANILLA, hp, fp.k_star), rel=1e-8)


class TestFindFixedPoint:
    def test_relu_closed_form_and_iteration_agree(self):
        hp = Hyper(1.0, 1.0)
        fp = find_fixed_point(RELU, NormMode.VANILLA, hp)
        assert not fp.diverged
        assert fp.k_star == pytest.approx(2.0, rel=1e-12)
        k = 0.123
        for _ in range(200):
            k = kernel_step(RELU, NormMode.VANILLA, hp, k)
        assert k == pytest.approx(fp.k_star, rel=1e-12)

    def test_erf_critical_kernel_is_exactly_zero(self):
        fp = find_fixed_point(ERF, NormMode.VANILLA, ERF_CRIT, k_init=0.3)
        assert not fp.diverged
        assert fp.k_star == 0.0
        assert fp.chi_j_star == pytest.approx(1.0, abs=1e-12)

    def test_gelu_nontrivial_kernel(self):
        # a double root, whose extremum is taken as the root: 100 000
        # Picard steps and a Newton polish reached it only to 1.8e-7
        hp, k_star = gelu_critical_point()
        fp = find_fixed_point(GELU, NormMode.VANILLA, hp, k_init=1.5 * k_star)
        assert not fp.diverged
        assert abs(fp.k_star - k_star) <= 1e-12
        # from below, the kernel falls to the attracting root under it
        low = find_fixed_point(GELU, NormMode.VANILLA, hp, k_init=0.9 * k_star)
        assert low.k_star < 0.9 * k_star and low.chi_k_star < 1.0

    def test_post_ln_immediate(self):
        # a norm makes the kernel map constant: the affine closed form
        fp = find_fixed_point(ERF, NormMode.POST_LN, Hyper(1.0, 2.0))
        assert fp.k_star == 5.0 and fp.iterations == 0
        assert fp.chi_k_star == 0.0

    def test_divergence_reported_not_raised(self):
        fp = find_fixed_point(RELU, NormMode.VANILLA, Hyper(2.0, 0.5))
        assert fp.diverged and math.isinf(fp.k_star)
        # scale-invariant chi is kernel-free, so the limit is still defined
        assert fp.chi_j_star == pytest.approx(2.0)

    def test_divergent_gelu_carries_the_exact_saturated_multiplier(self):
        fp = find_fixed_point(GELU, NormMode.VANILLA, Hyper(3.0, 0.0))
        assert fp.diverged
        assert fp.chi_j_star == 4.5  # sigma_w^2 <phi'^2>(K = inf) = 9 / 2

    @pytest.mark.parametrize("k_init", [math.nan, math.inf])
    def test_non_finite_start_rejected(self, k_init):
        with pytest.raises(ValueError):
            find_fixed_point(GELU, NormMode.VANILLA, Hyper(1.5, 0.2), k_init=k_init)

    def test_pre_ln_zero_kernel_rejected(self):
        # sigma_w = sigma_b = 0 pins the pre-LN kernel to zero: no multiplier
        with pytest.raises(ValueError):
            find_fixed_point(ERF, NormMode.PRE_LN, Hyper(0.0, 0.0))

    def test_stability_ordering_for_erf(self):
        for hp in (Hyper(1.0, 0.2), Hyper(1.4, 0.5), ERF_CRIT):
            fp = find_fixed_point(ERF, NormMode.VANILLA, hp)
            assert fp.chi_k_star <= fp.chi_j_star + 1e-9


class TestFixedPointOracles:
    """The direct solver against Picard iteration and 50-digit roots."""

    @settings(max_examples=300, deadline=None)
    @given(
        act=st.sampled_from([ERF, GELU]),
        sigma_w=st.one_of(st.floats(0.0, 3.0), st.builds(
            lambda base, ulps: base + ulps * math.ulp(base),
            st.sampled_from([math.sqrt(PI / 4), 2.0, math.sqrt(2.0)]), st.integers(-8, 8))),
        sigma_b=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        k_init=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 10.0),
                         st.floats(10.0, 1e3), st.floats(1e3, 1e6),
                         st.floats(-300.0, 0.0).map(lambda e: 10.0**e)),
    )
    def test_picards_attractor_or_its_divergence(self, act, sigma_w, sigma_b, k_init):
        # sigma_w also lands within 8 ulps of erf's critical sqrt(pi / 4)
        # and GELU's 2 and sqrt 2, where zero or infinity is barely
        # repelling, with k_init down to 1e-300
        assert_same_attractor(act, Hyper(sigma_w, sigma_b), k_init)

    @pytest.mark.parametrize("k_double", [0.5, 1.0, 2.0, 10.0])
    def test_grid_around_the_gelu_tangent_bifurcation(self, k_double):
        # Double roots at k_double <= 3.37 are minima of g - K, above it
        # maxima.  Shifting sigma_b^2 splits one into two roots or leaves
        # a bottleneck Picard crawls through; 1e-4 keeps the crawl (and
        # Picard's slowest convergence) well inside its 100 000 steps.
        sw2, sb2 = saddle_node(k_double)
        for dsw2 in (-1e-3, 0.0, 1e-3):
            for dsb2 in (-1e-2, -1e-4, 1e-4, 1e-2):
                hp = Hyper(math.sqrt(sw2 + dsw2), math.sqrt(sb2 + dsb2))
                for k_init in (0.0, 0.5 * k_double, 2.0 * k_double, 100.0):
                    assert_same_attractor(GELU, hp, k_init)

    def test_grid_around_sigma_w_squared_two(self):
        # The K -> inf slope of the GELU map is sigma_w^2 / 2: the kernel
        # can run away above 2 and creeps to a large root just below it.
        # Next to 2, Picard outlasts its steps and the sign scan decides.
        verdicts = []
        for sw2 in (1.99, 1.999, 2.0, 2.001, 2.01):
            for sb2 in (0.0, 0.01, 0.1, 1.0):
                for k_init in (0.0, 1.0, 1e3):
                    hp = Hyper(math.sqrt(sw2), math.sqrt(sb2))
                    verdicts.append(assert_same_attractor(GELU, hp, k_init))
        assert sum(v is not None for v in verdicts) >= len(verdicts) // 2

    @pytest.mark.parametrize("act, sigma_w, sigma_b, k_init, k_star", [
        (GELU, math.sqrt(2.001), math.sqrt(0.1), 10.0, math.inf),
        (GELU, math.sqrt(2.0), 0.1, 1e3, 0.020798461803590764),
        (ERF, 1.0, 0.0, 5e-82, 0.14192376531379713),
        (GELU, 1.9999986203467428, 4.156468984727962e-06, 0.0, math.inf),
        (GELU, 2.0, 6.37700620870634e-35, 0.0, math.inf),
        (ERF, float.fromhex("0x1.c5bf891b4ef6cp-1"), 0.0, 1e-20, 0.0),
        (ERF, float.fromhex("0x1.c5bf891b4ef6cp-1"), 0.0, 1e-300, 0.0),
        (ERF, float.fromhex("0x1.c5bf891b4ef6cp-1"), 1.2770692017602304e-33, 0.0,
         1.6852933562737518e-16),
        (GELU, 2.0, 0.0, 1e-20, math.inf),
        (GELU, math.nextafter(2.0, 3.0), 0.0, 5e-324, math.inf),
        (GELU, math.nextafter(2.0, 3.0), 0.0, 1e-320, math.inf),
        (GELU, math.nextafter(2.0, 3.0), 0.0, 1e-310, math.inf),
    ], ids=["runaway", "slow-fall", "off-zero", "ghost", "neutral-zero",
            "near-erf-critical-20", "near-erf-critical-300", "near-erf-critical-bias",
            "neutral-climb", "subnormal-climb-324", "subnormal-climb-320",
            "subnormal-climb-310"])
    def test_where_picard_gave_no_verdict(self, act, sigma_w, sigma_b, k_init, k_star):
        # The former solver reported a root that Picard moves away from:
        # its Newton polish jumped back to 9.98 (runaway) and to 1404.7
        # (slow-fall) once 100 000 steps ran out, and its step rule stopped
        # at once next to the unstable zero (off-zero).  It also took the
        # bottleneck at K = 3.6e-7, where g - K is 1.7e-11, for a root, by
        # an absolute tolerance of 1e-10 (ghost).  At sigma_w = 2 the GELU
        # map's slope at zero is one, and g - K = sigma_b^2 + 6 K^2 / pi is
        # lost in rounding from K = 4e-53 to 6e-17, where Picard's step rule
        # stops at once (neutral-zero).  Two ulps above erf's critical
        # sqrt(pi / 4), zero is barely repelling and the climb meets a root
        # below ZERO_FLOOR where g - K is rounding; the solver's Brent solve
        # on [k_init, 4] outlasted 100 iterations there and raised
        # (near-erf-critical).  With a bias, g - K = sigma_b^2 + d K - 2 K^2
        # climbs to its root d / 2 = 1.69e-16, for d = 3.4e-16, which the
        # float map rounds: the solver's root was 2.22e-16, past it
        # (near-erf-critical-bias).  At sigma_w = 2, g - K = 6 K^2 / pi is
        # lost in rounding at 1e-20, where Picard's first step stops; the
        # Picard oracle read that stop as a zero root (neutral-climb).  One
        # ulp above sigma_w = 2, g - K = d K + 6 K^2 / pi with d = 4.4e-16
        # is positive at every K > 0, but at a subnormal k_init the Taylor
        # branch's K (d + c K) underflowed to zero, which the solver took for
        # a root at k_init (subnormal-climb).
        hp = Hyper(sigma_w, sigma_b)
        fp = find_fixed_point(act, NormMode.VANILLA, hp, k_init=k_init)
        assert picard_fixed_point(act, hp, k_init) is None
        assert_first_root_on_the_way(act, hp, k_init, fp)
        assert fp.k_star == pytest.approx(k_star, rel=1e-14)

    @pytest.mark.parametrize("act, sigma_w, sigma_b", [
        (ERF, 1.3, 0.4), (ERF, 1.0, 0.2), (ERF, 2.5, 1.0), (ERF, 0.5, 1.4),
        (ERF, 0.63, 0.11), (GELU, 1.3, 0.4), (GELU, 1.0, 0.2), (GELU, 1.2, 1.5),
    ], ids=lambda v: getattr(v, "family", v))
    def test_within_rounding_of_the_50_digit_root(self, act, sigma_w, sigma_b):
        hp = Hyper(sigma_w, sigma_b)
        fp = find_fixed_point(act, NormMode.VANILLA, hp)
        root = mp_fixed_point(act, hp, fp.k_star)
        assert abs(fp.k_star - root) <= 1e-14 * root, (fp.k_star, root)

    @pytest.mark.parametrize("kind, cubic", [
        (MomentKind.PHI2_D2, [5, -11, -18, -6]),  # the map's convex end K_c
        (MomentKind.DELTA, [1, -9, -12, -4]),     # where sigma_w(K*) turns
    ], ids=lambda v: getattr(v, "name", ""))
    def test_moment_zero_is_the_one_sign_change_of_the_moment(self, kind, cubic):
        ks = np.concatenate([[0.0], np.logspace(-6, math.log10(K_LARGE), 4000)])
        for act in (ERF, GELU):
            # (erf's moments underflow to -0.0 at large K)
            positive = np.array([moment_closed(act, kind, k) > 0 for k in ks])
            changes = np.flatnonzero(positive[1:] != positive[:-1])
            k_zero = critical._moment_zero(act, kind)
            if act is ERF:
                assert not positive.any() and k_zero == 0.0
            else:
                (i,) = changes
                assert ks[i] < k_zero < ks[i + 1]
                # the real root of the cubic in the moment's numerator
                (root,) = [r.real for r in np.roots(cubic) if abs(r.imag) < 1e-9]
                assert k_zero == pytest.approx(root, rel=1e-14)

    @pytest.mark.parametrize("act, most", [(ERF, 4066), (GELU, 2164)],
                             ids=lambda v: getattr(v, "family", v))
    def test_the_default_grid_takes_few_evaluations(self, act, most):
        # iterating the GELU map to a 1e-12 step takes 182 356 steps on
        # this grid, up to 3 020 in one cell
        grid = phase_grid(act, NormMode.VANILLA, np.sqrt(np.linspace(0.1, 9.0, 20)),
                          np.sqrt(np.linspace(0.0, 4.0, 20)))
        assert grid.iterations.max() <= 40 and grid.iterations.sum() <= most


class TestChiStar:
    def test_relu_at_he_for_any_bias(self):
        for sb in (0.0, 0.5, 2.0):
            assert chi_star(RELU, NormMode.VANILLA, Hyper(math.sqrt(2), sb)) == pytest.approx(1.0)

    def test_relu_pre_ln(self):
        assert chi_star(RELU, NormMode.PRE_LN, Hyper(3.0, 1.0)) == pytest.approx(9 / 11)

    def test_erf_two_stage(self):
        hp = Hyper(1.0, 0.0)
        fp = find_fixed_point(ERF, NormMode.VANILLA, hp)
        expect = (4 * hp.sw2 / PI) / math.sqrt(1 + 4 * fp.k_star)
        assert chi_star(ERF, NormMode.VANILLA, hp) == pytest.approx(expect, rel=1e-10)


class TestCriticalLine:
    def test_relu_post_ln_slope(self):
        pts = critical_line(RELU, NormMode.POST_LN, [0.5, 1.0, 2.0, 3.0])
        for p in pts:
            assert p.found and p.residual <= 1e-8
            assert p.sigma_b / p.sigma_w == pytest.approx(1 / math.sqrt(PI - 1), rel=1e-8)

    def test_erf_vanilla_against_closed_form(self):
        for sw in (1.0, 1.2, 1.6):
            (p,) = critical_line(ERF, NormMode.VANILLA, [sw])
            arg = (16 * sw**4 - PI**2) / (16 * sw**4 + PI**2)
            sb = math.sqrt(
                (16 * sw**4 - PI**2) / (4 * PI**2)
                - (2 * sw**2 / PI) * math.asin(arg)
            )
            assert p.sigma_b == pytest.approx(sb, abs=1e-8)
            assert p.residual <= 1e-8

    def test_erf_vanilla_endpoint(self):
        (p,) = critical_line(ERF, NormMode.VANILLA, [math.sqrt(PI / 4)])
        assert p.found and p.sigma_b == pytest.approx(0.0, abs=1e-6)

    def test_no_solution_rows_keep_scanning(self):
        pts = critical_line(ERF, NormMode.VANILLA, [0.5, 1.2])
        assert not pts[0].found and pts[1].found

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
    def test_non_finite_or_negative_sweep_value_rejected(self, bad):
        # a NaN once came back as a "no solution" row after ~250 bracket growths
        with pytest.raises(ValueError, match=f"sigma_w must be finite and nonnegative, got {bad}"):
            critical_line(ERF, NormMode.VANILLA, [1.2, bad])

    def test_zero_sweep_value_has_no_solution(self):
        (p,) = critical_line(ERF, NormMode.VANILLA, [0.0])
        assert not p.found and p.sigma_w == 0.0

    def test_scale_invariant_pre_ln_line_is_zero_bias(self):
        pts = critical_line(RELU, NormMode.PRE_LN, [0.7, 1.3, 2.9])
        for p in pts:
            assert p.found and p.sigma_b == 0.0

    def test_gelu_parametric_line_residual_and_quadrature_route(self):
        # The half-stable line points coexist with a lower attracting
        # fixed point, so no iteration-based scan can recover them; the
        # parametric construction is checked instead against (a) its own
        # residual and (b) the same construction built from quadrature
        # moments rather than closed forms.
        from jacprop.activations import MomentKind, moment_quadrature

        for sw in (1.5, 1.8):
            (para,) = critical_line(GELU, NormMode.VANILLA, [sw])
            assert para.found and para.residual <= 1e-10
            k = para.k_star
            sw_q = 1.0 / math.sqrt(moment_quadrature(GELU, MomentKind.DPHI2, k, 200))
            sb_q = math.sqrt(k - sw_q**2 * moment_quadrature(GELU, MomentKind.PHI2, k, 200))
            assert para.sigma_w == pytest.approx(sw_q, rel=1e-10)
            assert para.sigma_b == pytest.approx(sb_q, rel=1e-8)

    def test_gelu_generic_scan_finds_nearby_bifurcation_boundary(self):
        # From-zero iteration sees the lower attracting branch; its
        # order/chaos boundary sits near (not on) the half-stable line.
        (para,) = critical_line(GELU, NormMode.VANILLA, [1.8])
        generic = sigma_b_search(GELU, NormMode.VANILLA, 1.8)
        assert not math.isnan(generic)
        assert abs(generic - para.sigma_b) < 0.05

    # every family and mode but vanilla GELU, whose half-stable line the
    # search cannot see (test_gelu_generic_scan_finds_nearby_bifurcation_boundary)
    @pytest.mark.parametrize("act, mode", [
        (act, mode)
        for act in (RELU, Activation.scale_invariant(1.0, -0.3), ERF, GELU)
        for mode in NormMode
        if not (act is GELU and mode is NormMode.VANILLA)
    ], ids=lambda v: v.name if isinstance(v, NormMode) else f"{v.family}:{v.a_minus}")
    def test_parametric_line_matches_the_sigma_b_search(self, act, mode):
        sweep = [0.6, 0.9, 1.5, 2.5]
        if act.family == "scale_invariant" and mode is NormMode.VANILLA:
            sweep.append(1.0 / math.sqrt(moment_closed(act, MomentKind.DPHI2, 0.0)))
        for sw, p in zip(sweep, critical_line(act, mode, sweep)):
            oracle = sigma_b_search(act, mode, sw)
            assert p.found == (not math.isnan(oracle)), (sw, p, oracle)
            if p.found:
                assert abs(p.sigma_b - oracle) <= 1e-9, (sw, p, oracle)
                assert p.residual <= 1e-12
                # K* is a fixed point of the map at the point found
                gap = kernel_step(act, mode, Hyper(sw, p.sigma_b), p.k_star) - p.k_star
                assert abs(gap) <= 1e-12 * max(1.0, p.k_star)

    def test_line_ends(self):
        # the K* = 0 ends, and the constant sigma_w(K*) of a vanilla scale-invariant phi
        (erf_end,) = critical_line(ERF, NormMode.VANILLA, [math.sqrt(PI / 4)])
        (gelu_end,) = critical_line(GELU, NormMode.VANILLA, [2.0])
        (relu,) = critical_line(RELU, NormMode.VANILLA, [math.sqrt(2)])
        for p in (erf_end, gelu_end, relu):
            assert p.k_star == 0.0 and p.sigma_b == 0.0 and p.residual <= 1e-15
        off, = critical_line(RELU, NormMode.VANILLA, [math.sqrt(2) * (1 + 1e-9)])
        assert not off.found

    def test_gelu_line_outside_admissible_range(self):
        pts = critical_line(GELU, NormMode.VANILLA, [1.0, 2.5])
        assert not pts[0].found and not pts[1].found

    def test_gelu_line_is_found_on_its_falling_piece(self):
        # sigma_w(K*) falls from 2 to 1.39850 at K_turn ~ 10.2133 and then
        # creeps back toward sqrt(2); where two kernels are critical
        # (1.39850 < sigma_w < sqrt(2)), the lower one is reported
        k_turn = critical._moment_zero(GELU, MomentKind.DELTA)
        pts = critical_line(GELU, NormMode.VANILLA, np.linspace(1.3986, 2.0, 600))
        ks = np.array([p.k_star for p in pts])
        assert all(p.found and p.residual <= 1e-12 for p in pts)
        assert ks.max() <= k_turn and np.all(np.diff(ks) < 0)

    @pytest.mark.parametrize("sigma_w", [1.3986, 1.399])
    def test_gelu_line_next_to_its_turn_against_the_50_digit_root(self, sigma_w):
        import mpmath as mp

        (p,) = critical_line(GELU, NormMode.VANILLA, [sigma_w])
        with mp.workdps(50):
            def dphi2(k):  # <phi'^2>(K) for GELU
                return mp.mpf(1) / 4 + (mp.asin(k / (1 + k)) + k * (3 + 5 * k)
                                        / ((1 + k) * (1 + 2 * k) ** 1.5)) / (2 * mp.pi)

            target = 1 / mp.mpf(sigma_w) ** 2
            k_turn = critical._moment_zero(GELU, MomentKind.DELTA)
            root = mp.findroot(lambda k: dphi2(k) - target, (mp.mpf(1), mp.mpf(k_turn)),
                               solver="anderson")
        assert abs(p.k_star - root) <= 1e-13 * root, (p.k_star, root)

    @pytest.mark.parametrize("eps, rel", [(1e-5, 1e-11), (1e-7, 1e-8)])
    def test_erf_line_next_to_its_zero_kernel_end(self, eps, rel):
        # sigma_w^2 = (pi / 4) sqrt(1 + 4 K*) on the vanilla erf line; below
        # these bounds K* is limited by the rounding of sigma_w(K*)
        import mpmath as mp

        sigma_w = math.sqrt(PI / 4) * (1 + eps)
        (p,) = critical_line(ERF, NormMode.VANILLA, [sigma_w])
        with mp.workdps(50):
            exact = ((4 * mp.mpf(sigma_w) ** 2 / mp.pi) ** 2 - 1) / 4
        assert abs(p.k_star - exact) <= rel * exact, (p.k_star, exact)


class TestCriticalPoint:
    def test_relu(self):
        (p,) = critical_point(RELU)
        assert (p.sigma_w, p.sigma_b) == pytest.approx((math.sqrt(2), 0.0))

    def test_scale_invariant_family(self):
        act = Activation.scale_invariant(2.0, 1.0)
        (p,) = critical_point(act)
        assert p.sigma_w == pytest.approx(math.sqrt(2 / 5))

    def test_erf(self):
        (p,) = critical_point(ERF)
        assert p.sigma_w == pytest.approx(math.sqrt(PI / 4), abs=1e-9)
        assert p.sigma_b == pytest.approx(0.0, abs=1e-9)

    def test_gelu_two_points(self):
        pts = critical_point(GELU)
        assert len(pts) == 2
        assert pts[0].sigma_w == pytest.approx(2.0, abs=1e-6)
        assert pts[0].sigma_b == pytest.approx(0.0, abs=1e-6)
        assert pts[1].sigma_w == pytest.approx(1.408, abs=1e-3)
        assert pts[1].sigma_b == pytest.approx(0.416, abs=1e-3)
        assert pts[1].k_star == (3 + math.sqrt(17)) / 2

    @pytest.mark.parametrize("act", [ERF, GELU], ids=["erf", "gelu"])
    def test_closed_form_kernels_match_the_oracle_scan(self, act):
        # the scan on the finite-difference residual finds the same roots
        # of <phi phi''> to the finite difference's accuracy
        scanned = scanned_critical_kernels(act)
        exact = [p.k_star for p in critical_point(act)]
        assert len(scanned) == len(exact)
        for k_scan, k_exact in zip(scanned, exact):
            assert k_scan == pytest.approx(k_exact, rel=1e-8, abs=1e-12)

    def test_kernel_condition_holds_exactly(self):
        for act in (ERF, GELU):
            for p in critical_point(act):
                hp = Hyper(p.sigma_w, p.sigma_b)
                assert chi_kernel(act, NormMode.VANILLA, hp, p.k_star) == pytest.approx(
                    1.0, rel=1e-14)

    def test_points_lie_on_lines(self):
        for act in (RELU, ERF, GELU):
            for p in critical_point(act):
                if p.sigma_w <= 1.0e-9:
                    continue
                line = critical_line(act, NormMode.VANILLA, [p.sigma_w])
                if line[0].found:
                    assert line[0].sigma_b == pytest.approx(p.sigma_b, abs=1e-6)

    def test_no_slope_gives_the_lines_no_solution_row(self):
        # <phi'^2> = 0: no sigma_w is critical, on the line or at a point
        act = Activation.scale_invariant(0.0, 0.0)
        (p,) = critical_point(act)
        assert all(math.isnan(v) for v in (p.sigma_w, p.sigma_b, p.residual, p.k_star))
        line = critical_line(act, NormMode.VANILLA, [0.5, math.sqrt(2), 3.0])
        assert not p.found and not any(q.found for q in line)

    def test_ln_modes_rejected(self):
        with pytest.raises(ValueError):
            critical_point(RELU, NormMode.PRE_LN)

    def test_line_and_point_share_the_rounding_clamp(self):
        # sigma_b^2 = K - <phi^2> / <phi'^2> vanishes exactly for a
        # scale-invariant phi; at this K* it rounds to -5.8e-11, which the
        # line used to read as no solution and the point as sigma_b = 0
        act = Activation.scale_invariant(1.0, -0.3)
        sigma_w, sigma_b = gelu_parametric_line(396268.86387014785, act)
        assert sigma_w == pytest.approx(math.sqrt(2.0 / 1.09), rel=1e-14)
        assert sigma_b == 0.0


class TestCorrelationLength:
    def test_values(self):
        assert correlation_length(math.e) == pytest.approx(1.0)
        assert correlation_length(0.5) == pytest.approx(1 / math.log(2))
        assert math.isinf(correlation_length(1.0))

    def test_domain(self):
        with pytest.raises(ValueError):
            correlation_length(0.0)
        with pytest.raises(ValueError):
            correlation_length(-0.3)

    def test_diverges_approaching_relu_criticality_from_both_sides(self):
        xs = [1.2, 1.3, 1.40, 1.414]
        xis_below = [
            correlation_length(chi_star(RELU, NormMode.VANILLA, Hyper(sw, 0.0)))
            for sw in xs
        ]
        assert all(a < b for a, b in zip(xis_below, xis_below[1:]))
        xs_above = [1.7, 1.6, 1.5, 1.43]
        xis_above = [
            correlation_length(chi_star(RELU, NormMode.VANILLA, Hyper(sw, 0.0)))
            for sw in xs_above
        ]
        assert all(a < b for a, b in zip(xis_above, xis_above[1:]))


class TestScaleInvariantPreLnBound:
    def test_chi_below_one_with_equality_only_at_zero_bias(self):
        for sw in (0.5, 1.0, 2.0, 4.0):
            assert chi_star(RELU, NormMode.PRE_LN, Hyper(sw, 0.0)) == pytest.approx(1.0)
            for sb in (0.1, 1.0, 3.0):
                assert chi_star(RELU, NormMode.PRE_LN, Hyper(sw, sb)) < 1.0


class TestHalfStableGeluFixedPoint:
    def test_attracting_from_above(self):
        hp, k_star = gelu_critical_point()
        k = k_star + 0.5
        for _ in range(200_000):
            k = kernel_step(GELU, NormMode.VANILLA, hp, k)
        assert k > k_star  # never crosses
        assert abs(k - k_star) < 0.05  # has moved most of the way in

    def test_drifts_away_from_below(self):
        hp, k_star = gelu_critical_point()
        start = k_star - 0.2
        k = start
        for _ in range(200_000):
            k = kernel_step(GELU, NormMode.VANILLA, hp, k)
        assert abs(k - k_star) > abs(start - k_star)


class TestExponentNumeric:
    def test_relu_exactly_zero(self):
        # sqrt(2)**2 is one ulp away from 2, so the multiplier differs
        # from 1 at machine precision; the estimator is zero up to that.
        est = exponent_numeric(RELU, NormMode.VANILLA, Hyper(math.sqrt(2), 0.0), 400, 100)
        assert abs(est.zeta) <= 5e-13
        # with an exactly representable critical point the zero is exact
        lin = Activation.scale_invariant(1.0, 1.0)
        est = exponent_numeric(lin, NormMode.VANILLA, Hyper(1.0, 0.0), 400, 100)
        assert est.zeta == 0.0

    def test_erf_unit_exponent(self):
        est = exponent_numeric(ERF, NormMode.VANILLA, ERF_CRIT, 2000, 500)
        assert est.zeta == pytest.approx(1.0, abs=0.05)
        assert est.dk_coeff == pytest.approx(0.5, abs=0.02)

    def test_ln_modes_have_no_algebraic_decay(self):
        sw = 1.5
        (p,) = critical_line(ERF, NormMode.PRE_LN, [sw])
        est = exponent_numeric(ERF, NormMode.PRE_LN, Hyper(p.sigma_w, p.sigma_b), 600, 200)
        assert abs(est.zeta) <= 0.01

    def test_non_critical_rejected(self):
        with pytest.raises(ValueError):
            exponent_numeric(RELU, NormMode.VANILLA, Hyper(1.0, 0.0), 400, 100)

    @pytest.mark.parametrize("depth, fit_from", [(400, 0), (399, 200)])
    def test_window_checked(self, depth, fit_from):
        with pytest.raises(ValueError, match=r"depth >= 2 \* fit_from and fit_from >= 1"):
            exponent_numeric(RELU, NormMode.VANILLA, Hyper(math.sqrt(2), 0.0), depth, fit_from)


class TestExpansionCoefficient:
    def test_gelu_value_and_trace_consistency(self):
        hp, k_star = gelu_critical_point()
        coef = expansion_coefficient(GELU, hp, k_star)
        # frozen from two independent derivative paths (closed forms and
        # pure quadrature); the kernel approaches its fixed point from
        # above, so the multiplier exceeds one and the coefficient is
        # negative.
        assert coef == pytest.approx(-64.985, rel=1e-3)
        assert coef == 2.0 * chi_delta(GELU, hp, k_star) / (
            hp.sw2 * moment_closed(GELU, MomentKind.PHI2_D2, k_star))
        assert coef == pytest.approx(-64.984845, abs=1e-6)
        # the deep-trace estimator moves toward the same limit from above
        from jacprop.meanfield import trace

        tr = trace(GELU, NormMode.VANILLA, hp, depth=200_000, k0=1.5 * k_star, l0=0)
        vals = np.arange(1, 200_001) * (1.0 - tr.chi_j[1:])
        assert -66.0 < vals[-1] < -50.0
        assert abs(vals[-1] - coef) < abs(vals[10_000] - coef)

    def test_map_curvature_matches_the_richardson_oracle(self):
        hp, k_star = gelu_critical_point()
        g = lambda k: kernel_step(GELU, NormMode.VANILLA, hp, k)  # noqa: E731

        def d2(h):
            return (g(k_star + h) - 2.0 * g(k_star) + g(k_star - h)) / (h * h)

        richardson = (4.0 * d2(5e-3) - d2(1e-2)) / 3.0
        exact = hp.sw2 * moment_closed(GELU, MomentKind.PHI2_D2, k_star)
        assert exact == pytest.approx(richardson, rel=1e-6)

    def test_interior_point_required(self):
        with pytest.raises(ValueError):
            expansion_coefficient(ERF, ERF_CRIT, 0.0)


class TestBrentq:
    """``_brentq`` is scipy's ``brentq``: the same bits in the same iterations."""

    @staticmethod
    def scipy_brentq(f, a, b, **kw):
        from scipy.optimize import brentq

        root, info = brentq(f, a, b, xtol=kw.get("xtol", 1e-13),
                            maxiter=kw.get("maxiter", 100), full_output=True)
        # at a root on a bracket end scipy returns before its loop and leaves
        # the iteration count unset (it reads stale memory); none ran
        return root, 0 if f(a) == 0 or f(b) == 0 else info.iterations

    def assert_same(self, f, a, b, **kw):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        ours = _brentq(counted, a, f(a), b, f(b), **kw)
        theirs = self.scipy_brentq(f, a, b, **kw)
        assert (ours[0].hex(), ours[1]) == (theirs[0].hex(), theirs[1])
        # given both end values, f runs once an iteration but the last,
        # which stops on its bracket, and never at an end
        assert len(calls) == max(ours[1] - 1, 0) and a not in calls and b not in calls
        return ours

    def test_every_line_inversion(self, monkeypatch):
        # each family x mode on the CLI's default sweep (0.5 .. 3, 26 steps)
        solves = []

        def checked(f, a, f_a, b, f_b, **kw):
            assert (f_a, f_b) == (f(a), f(b))
            solves.append(self.assert_same(f, a, b, **kw))
            return solves[-1]

        monkeypatch.setattr(critical, "_brentq", checked)
        sweep = np.linspace(0.5, 3.0, 26)
        for act in (RELU, Activation.scale_invariant(2.0, 1.0), ERF, GELU):
            for mode in NormMode:
                critical_line(act, mode, sweep)
        assert len(solves) > 200

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0),
        (lambda x: x - 1.0, 1.0, 3.0),                      # root at the left end
        (lambda x: x - 3.0, 1.0, 3.0),                      # root at the right end
        (lambda x: -1.0 if x < 0.3 else 1.0, 0.0, 1.0),    # a flat step
        (lambda x: math.exp(x) - 1e-3, -20.0, 5.0),
    ], ids=["cubic", "left-end", "right-end", "step", "exp"])
    def test_textbook_brackets(self, f, a, b):
        self.assert_same(f, a, b)
        self.assert_same(f, a, b, xtol=1e-3)

    def test_a_zero_iteration_cap_raises(self):
        with pytest.raises(RuntimeError, match="no convergence"):
            _brentq(lambda x: x ** 3 - 2 * x - 5, 2.0, -1.0, 3.0, 16.0, maxiter=0)

    def test_a_bracket_without_a_sign_change_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 2.0, 1.0, 2.0)

    def test_a_nan_end_value_raises(self):
        with pytest.raises(ValueError, match="NaN at a bracket end"):
            _brentq(lambda x: x, -1.0, math.nan, 1.0, 1.0)
