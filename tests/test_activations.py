"""Activation evaluation and Gaussian-moment tests.

The closed forms and the quadrature oracle are independent code paths;
their agreement over a kernel grid is the backbone check.  Golden values
for the curvature (DELTA) moments were computed with an adaptive
arbitrary-precision integrator before the closed forms were written and
are frozen here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jacprop.activations import (
    Activation,
    MomentKind,
    moment_closed,
    moment_integrand,
    moment_quadrature,
)

RELU = Activation.relu()
SI21 = Activation.scale_invariant(2.0, 1.0)
ERF = Activation.erf()
GELU = Activation.gelu()
ALL_ACTS = [RELU, SI21, ERF, GELU]

K_GRID = np.geomspace(1e-3, 10.0, 50)

# adaptive high-precision references for the curvature moments
ERF_DELTA_K1 = -0.22776401389349666
GELU_DELTA_K1 = 0.061258766157976894


class TestEval:
    def test_relu_positive_axis(self):
        assert RELU.eval(1.0, 0) == 1.0

    def test_gelu_derivative_at_zero(self):
        assert GELU.eval(0.0, 1) == pytest.approx(0.5, abs=1e-15)

    def test_erf_derivative_at_zero(self):
        assert ERF.eval(0.0, 1) == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-15)

    def test_scale_invariant_negative_branch(self):
        assert SI21.eval(-3.0, 0) == -3.0

    def test_odd_at_origin(self):
        assert ERF.eval(0.0, 0) == 0.0
        assert GELU.eval(0.0, 0) == 0.0

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            RELU.eval(1.0, 5)
        with pytest.raises(ValueError):
            GELU.eval(1.0, -1)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-5, 5, size=200)
        for c in (0.5, 2.0, 7.3):
            np.testing.assert_allclose(
                SI21.eval(c * x, 0), c * SI21.eval(x, 0), rtol=1e-14
            )

    def test_scale_invariant_higher_orders_vanish(self):
        x = np.linspace(-3, 3, 11)
        assert np.all(SI21.eval(x, 2) == 0)
        assert np.all(SI21.eval(x, 3) == 0)
        assert np.all(SI21.eval(x, 4) == 0)

    @pytest.mark.parametrize("act", [ERF, GELU])
    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_derivatives_match_finite_differences(self, act, order):
        x = np.linspace(-4, 4, 81)
        h = 1e-5
        numeric = (act.eval(x + h, order) - act.eval(x - h, order)) / (2 * h)
        np.testing.assert_allclose(numeric, act.eval(x, order + 1), atol=1e-6)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            Activation("tanh")


class TestClosedForms:
    def test_relu_phi2(self):
        assert moment_closed(RELU, MomentKind.PHI2, 2.0) == pytest.approx(1.0)

    def test_erf_dphi2_at_zero(self):
        assert moment_closed(ERF, MomentKind.DPHI2, 0.0) == pytest.approx(4 / math.pi)

    def test_erf_phi2_saturates(self):
        # approaches 1 like (2/pi)/sqrt(K)
        assert moment_closed(ERF, MomentKind.PHI2, 1e6) == pytest.approx(1.0, abs=1e-3)
        assert moment_closed(ERF, MomentKind.PHI2, 1e10) == pytest.approx(1.0, abs=1e-4)

    def test_gelu_phi1(self):
        assert moment_closed(GELU, MomentKind.PHI1, 1.0) == pytest.approx(
            1.0 / math.sqrt(4 * math.pi)
        )

    def test_scale_invariant_catalog(self):
        K = 1.7
        assert moment_closed(SI21, MomentKind.PHI2, K) == pytest.approx(2.5 * K)
        assert moment_closed(SI21, MomentKind.DPHI2, K) == pytest.approx(2.5)
        assert moment_closed(SI21, MomentKind.PHI1, K) == pytest.approx(
            math.sqrt(K / (2 * math.pi))
        )
        assert moment_closed(SI21, MomentKind.DELTA, K) == 0.0

    def test_negative_kernel_rejected(self):
        with pytest.raises(ValueError):
            moment_closed(ERF, MomentKind.PHI2, -0.5)

    @pytest.mark.parametrize("act", ALL_ACTS, ids=lambda a: a.family + str(a.a_plus))
    def test_nan_kernel_rejected(self, act):
        for kind in MomentKind:
            with pytest.raises(ValueError):
                moment_closed(act, kind, math.nan)

    LINEAR = Activation.scale_invariant(1.0, 1.0)
    INF_LIMITS = [
        (RELU, [math.inf, 0.5, math.inf, 0.0, 0.5, 0.0]),
        (SI21, [math.inf, 2.5, math.inf, 0.0, 2.5, 0.0]),
        (LINEAR, [math.inf, 1.0, 0.0, 0.0, 1.0, 0.0]),
        (ERF, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
        (GELU, [math.inf, 0.5, math.inf, 0.0, 0.5, 0.0]),
    ]

    @pytest.mark.parametrize("kind", list(MomentKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("act,limits", INF_LIMITS,
                             ids=["relu", "si21", "linear", "erf", "gelu"])
    def test_infinite_kernel_gives_the_limit(self, act, limits, kind):
        limit = limits[list(MomentKind).index(kind)]
        at_inf = moment_closed(act, kind, math.inf)
        assert not math.isnan(at_inf)
        assert at_inf == limit
        if math.isfinite(limit):
            # the slowest approach, erf PHI2, is 1 - (2/pi)/sqrt(2K)
            assert moment_closed(act, kind, 1e12) == pytest.approx(limit, abs=1e-5)
        else:
            assert moment_closed(act, kind, 1e12) > 1e5


class TestQuadratureOracle:
    @pytest.mark.parametrize("act", ALL_ACTS, ids=lambda a: a.family + str(a.a_plus))
    @pytest.mark.parametrize("kind", list(MomentKind))
    def test_closed_matches_quadrature_on_grid(self, act, kind):
        for K in K_GRID[::7]:
            closed = moment_closed(act, kind, K)
            quad = moment_quadrature(act, kind, K, nodes=120)
            assert abs(closed - quad) <= 1e-8 * max(1.0, abs(closed))

    def test_dirac_limit_at_zero_kernel(self):
        assert moment_quadrature(ERF, MomentKind.DPHI2, 0.0) == pytest.approx(
            4 / math.pi
        )
        f = moment_integrand(GELU, MomentKind.PHI2)
        assert moment_quadrature(GELU, MomentKind.PHI2, 0.0) == f(np.array([0.0]))[0]

    def test_relu_phi2_example(self):
        assert moment_quadrature(RELU, MomentKind.PHI2, 2.0, nodes=120) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_delta_golden_fixtures(self):
        assert moment_quadrature(ERF, MomentKind.DELTA, 1.0, nodes=200) == pytest.approx(
            ERF_DELTA_K1, rel=1e-11
        )
        assert moment_quadrature(GELU, MomentKind.DELTA, 1.0, nodes=200) == pytest.approx(
            GELU_DELTA_K1, rel=1e-11
        )
        # the closed forms reproduce the same references independently
        assert moment_closed(ERF, MomentKind.DELTA, 1.0) == pytest.approx(
            ERF_DELTA_K1, rel=1e-11
        )
        assert moment_closed(GELU, MomentKind.DELTA, 1.0) == pytest.approx(
            GELU_DELTA_K1, rel=1e-11
        )

    def test_gelu_delta_pointwise_limit(self):
        exact = GELU.eval(0.0, 2) ** 2 + GELU.eval(0.0, 3) * GELU.eval(0.0, 1)
        assert exact == pytest.approx(2 / math.pi)
        assert moment_quadrature(GELU, MomentKind.DELTA, 1e-6) == pytest.approx(
            exact, rel=1e-4
        )

    def test_preconditions(self):
        with pytest.raises(ValueError):
            moment_quadrature(ERF, MomentKind.PHI2, -1.0)
        with pytest.raises(ValueError):
            moment_quadrature(ERF, MomentKind.PHI2, 1.0, nodes=8)
        with pytest.raises(ValueError):
            moment_quadrature(ERF, MomentKind.PHI2, math.nan)

    @settings(deadline=None)
    @given(
        log_k=st.floats(math.log(1e-3), math.log(100.0)),
        a_plus=st.floats(-3.0, 3.0),
        a_minus=st.floats(-3.0, 3.0),
    )
    def test_closed_equals_quadrature_property(self, log_k, a_plus, a_minus):
        K = math.exp(log_k)
        for act in (Activation.scale_invariant(a_plus, a_minus), ERF, GELU):
            for kind in MomentKind:
                closed = moment_closed(act, kind, K)
                quad = moment_quadrature(act, kind, K)
                # the absolute floor only covers moments that vanish exactly
                assert math.isclose(closed, quad, rel_tol=1e-8, abs_tol=1e-12), (
                    act, kind, K, closed, quad)


class TestKernelDerivativeKinds:
    """PHI2_D1 and PHI2_D2 are the first two K-derivatives of PHI2."""

    @staticmethod
    def central_difference(act, kind, K):
        h = 1e-5 * K
        return (moment_closed(act, kind, K + h) - moment_closed(act, kind, K - h)) / (2 * h)

    @pytest.mark.parametrize("act", ALL_ACTS, ids=lambda a: a.family + str(a.a_plus))
    def test_phi2_d1_is_the_slope_of_phi2(self, act):
        for K in K_GRID[::7]:
            fd = self.central_difference(act, MomentKind.PHI2, K)
            assert moment_closed(act, MomentKind.PHI2_D1, K) == pytest.approx(
                fd, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("act", ALL_ACTS, ids=lambda a: a.family + str(a.a_plus))
    def test_phi2_d2_is_the_slope_of_phi2_d1(self, act):
        for K in K_GRID[::7]:
            fd = self.central_difference(act, MomentKind.PHI2_D1, K)
            assert moment_closed(act, MomentKind.PHI2_D2, K) == pytest.approx(
                fd, rel=1e-7, abs=1e-9)

    def test_gelu_kernel_derivatives_at_zero(self):
        # at K = 0 the measure is a point mass at h = 0
        assert moment_closed(GELU, MomentKind.PHI2_D1, 0.0) == 0.25
        assert moment_closed(GELU, MomentKind.PHI2_D2, 0.0) == pytest.approx(
            3 / math.pi, rel=1e-15)


class TestMomentProperties:
    @pytest.mark.parametrize("act", ALL_ACTS, ids=lambda a: a.family + str(a.a_plus))
    def test_variance_nonnegative(self, act):
        for K in K_GRID:
            phi2 = moment_closed(act, MomentKind.PHI2, K)
            phi1 = moment_closed(act, MomentKind.PHI1, K)
            assert phi2 >= phi1**2 - 1e-15

    def test_dphi2_constant_for_scale_invariant(self):
        vals = [moment_closed(SI21, MomentKind.DPHI2, K) for K in K_GRID]
        assert max(vals) == min(vals)

    def test_dphi2_strictly_decreasing_for_erf(self):
        vals = [moment_closed(ERF, MomentKind.DPHI2, K) for K in K_GRID]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestLargeKernels:
    """No closed form overflows at large finite K, and each meets its K -> inf limit."""

    @settings(deadline=None, max_examples=60)
    @given(log_k=st.floats(100.0, 308.0))
    def test_finite_and_on_the_limit(self, log_k):
        K = 10.0 ** log_k
        for act in ALL_ACTS:
            for kind in MomentKind:
                got = moment_closed(act, kind, K)
                limit = moment_closed(act, kind, math.inf)
                assert not math.isnan(got), (act, kind, K)
                if math.isfinite(limit):
                    if K >= 1e200:
                        assert math.isclose(got, limit, rel_tol=1e-6, abs_tol=1e-6), (
                            act, kind, K, got, limit)
                else:  # PHI2 and PHI1 grow without bound
                    assert 0 < moment_closed(act, kind, K / 2) <= got, (act, kind, K)

    @pytest.mark.parametrize("act", [ERF, GELU], ids=["erf", "gelu"])
    def test_leading_terms_continue_the_closed_forms(self, act):
        # across the switch to the leading large-K terms the value moves by
        # rounding only (GELU's curvature moments take their rational forms there)
        below, above = 1e150, math.nextafter(1e150, math.inf)
        for kind in MomentKind:
            a, b = moment_closed(act, kind, below), moment_closed(act, kind, above)
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300), (kind, a, b)

    def test_gelu_curvature_leading_terms(self):
        # the GELU closed forms of DELTA and PHI2_D2 in 120-digit arithmetic at
        # K = 1e30 against the leading terms -c K^(-3/2) and -5 c K^(-5/2)
        delta, d2 = gelu_curvature_exact(1e30)
        coef = 1 / (8 * math.sqrt(2) * math.pi)
        assert float(delta) * 1e45 == pytest.approx(-coef, rel=1e-12)
        assert float(d2) * 1e75 == pytest.approx(-5 * coef, rel=1e-12)
        big = 1e160
        assert moment_closed(GELU, MomentKind.DELTA, big) == pytest.approx(
            -coef * big ** -1.5, rel=1e-14)
        assert moment_closed(GELU, MomentKind.PHI2_D2, big) == 0.0  # K^(-5/2) underflows


def gelu_curvature_exact(K, dps=120):
    """Oracle: GELU's DELTA and PHI2_D2 closed forms in ``dps``-digit
    arithmetic, as mpmath numbers.  At K they lose about 2 log10(K) digits
    to cancellation, so 120 digits serve up to K = 1e30."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        K = mp.mpf(K)
        s2, t2 = K / (1 + 2 * K), K / (1 + K)
        even = (4 - 8 * s2 + 6 * s2 * s2) / (2 * mp.pi * mp.sqrt(1 + 2 * K))
        h_cdf = t2 / mp.sqrt(2 * mp.pi * (1 + t2))
        h3_cdf = t2 * (2 * h_cdf + h_cdf / (1 + t2))
        delta = even + (h3_cdf - 4 * h_cdf) / mp.sqrt(2 * mp.pi * (1 + K))
        a, c = 1 + 2 * K, 1 + K
        d2 = delta + (c - 17 + (35 + (4 / c - 21) / c) / c) / (2 * mp.pi * a ** 2.5)
        return +delta, +d2


class TestGeluCurvatureRationalForms:
    """GELU's DELTA and PHI2_D2 lose nothing to cancellation at any kernel."""

    KINDS = (MomentKind.DELTA, MomentKind.PHI2_D2)

    @pytest.mark.parametrize("K", [0.0, 1e-12, 1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0,
                                   50.0, 100.0, 1e3, 1e4, 1e6, 1e8, 1e10, 1e14, 1e20, 1e30])
    def test_matches_the_high_precision_closed_form(self, K):
        for kind, exact in zip(self.KINDS, gelu_curvature_exact(K)):
            assert moment_closed(GELU, kind, K) == pytest.approx(float(exact), rel=2e-15), kind

    def test_delta_keeps_its_value_at_large_kernels(self):
        # the general closed form read 0.0 here, where the value is -2.8e-32
        got = moment_closed(GELU, MomentKind.DELTA, 1e20)
        assert got == pytest.approx(-2.813488487990956e-32, rel=1e-15)
