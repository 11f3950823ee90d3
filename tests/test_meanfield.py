"""Layer-recursion tests: kernel, Jacobian multiplier, NTK, traces."""

import math

import numpy as np
import pytest

from jacprop.activations import Activation, MomentKind, moment_closed, moment_quadrature
from jacprop.meanfield import (
    Hyper,
    NormMode,
    chi_delta,
    chi_jacobian,
    j0_corrected,
    kernel_step,
    trace,
)

RELU = Activation.relu()
SI21 = Activation.scale_invariant(2.0, 1.0)
ERF = Activation.erf()
GELU = Activation.gelu()

PI = math.pi


class TestKernelStep:
    def test_relu_at_he_init_fixes_every_kernel(self):
        hp = Hyper(math.sqrt(2), 0.0)
        assert kernel_step(RELU, NormMode.VANILLA, hp, 1.0) == pytest.approx(1.0)
        assert kernel_step(RELU, NormMode.VANILLA, hp, 3.7) == pytest.approx(3.7)

    def test_post_ln_pins_kernel(self):
        hp = Hyper(1.0, 2.0)
        for k in (0.0, 1.0, 123.0):
            assert kernel_step(ERF, NormMode.POST_LN, hp, k) == 5.0

    def test_pre_ln_uses_unit_moments(self):
        hp = Hyper(1.0, 0.0)
        expect = (2 / PI) * math.asin(2 / 3)
        assert kernel_step(ERF, NormMode.PRE_LN, hp, 7.0) == pytest.approx(expect)
        assert kernel_step(ERF, NormMode.PRE_LN, hp, 0.2) == pytest.approx(expect)

    def test_gelu_kernel_step_matches_quadrature(self):
        hp = Hyper(1.3, 0.4)
        for k in (0.3, 2.0, 6.0):
            expect = hp.sw2 * moment_quadrature(GELU, MomentKind.PHI2, k) + hp.sb2
            assert kernel_step(GELU, NormMode.VANILLA, hp, k) == pytest.approx(
                expect, rel=1e-12
            )

    def test_overflow_returns_inf(self):
        # a diverged vanilla kernel stays inf; it never reaches the moments'
        # K = inf limits (erf's would give a finite next kernel)
        hp = Hyper(2.0, 0.0)
        for act in (RELU, SI21, ERF, GELU):
            assert kernel_step(act, NormMode.VANILLA, hp, math.inf) == math.inf

    def test_negative_kernel_rejected(self):
        with pytest.raises(ValueError):
            kernel_step(RELU, NormMode.VANILLA, Hyper(1, 0), -1.0)


class TestChiJacobian:
    def test_relu_vanilla_k_independent(self):
        hp = Hyper(math.sqrt(2), 0.9)
        for k in (0.0, 1.0, 50.0):
            assert chi_jacobian(RELU, NormMode.VANILLA, hp, k) == pytest.approx(1.0)

    def test_relu_pre_ln(self):
        # sigma_w^2 / (sigma_w^2 + 2 sigma_b^2) at the fixed kernel
        hp = Hyper(1.0, 1.0)
        k_fix = kernel_step(RELU, NormMode.PRE_LN, hp, 1.0)
        assert chi_jacobian(RELU, NormMode.PRE_LN, hp, k_fix) == pytest.approx(1 / 3)

    def test_erf_vanilla_critical(self):
        hp = Hyper(math.sqrt(PI / 4), 0.0)
        assert chi_jacobian(ERF, NormMode.VANILLA, hp, 0.0) == pytest.approx(1.0)

    def test_erf_pre_ln_closed_form(self):
        for sw, sb in ((1.0, 0.3), (2.0, 0.7)):
            hp = Hyper(sw, sb)
            k_fix = kernel_step(ERF, NormMode.PRE_LN, hp, 1.0)
            got = chi_jacobian(ERF, NormMode.PRE_LN, hp, k_fix)
            expect = 4 * sw**2 / (
                math.sqrt(5) * (2 * sw**2 * math.asin(2 / 3) + PI * sb**2)
            )
            assert got == pytest.approx(expect, rel=1e-12)

    def test_gelu_pre_ln_constant_at_zero_bias(self):
        expect = (6 * PI + 4 * math.sqrt(3)) / (6 * PI + 3 * math.sqrt(3))
        for sw in (0.7, 1.0, 2.5):
            hp = Hyper(sw, 0.0)
            k_fix = kernel_step(GELU, NormMode.PRE_LN, hp, 1.0)
            got = chi_jacobian(GELU, NormMode.PRE_LN, hp, k_fix)
            assert got == pytest.approx(expect, rel=1e-12)
        # the same number from the quadrature oracle
        q = moment_quadrature(GELU, MomentKind.DPHI2, 1.0, 200) / moment_quadrature(
            GELU, MomentKind.PHI2, 1.0, 200
        )
        assert q == pytest.approx(expect, rel=1e-10)

    def test_scale_invariant_post_ln_closed_form(self):
        ap, am = 2.0, 1.0
        hp = Hyper(1.4, 0.6)
        got = chi_jacobian(SI21, NormMode.POST_LN, hp, hp.sw2 + hp.sb2)  # the fixed kernel
        expect = (
            hp.sw2 / (hp.sw2 + hp.sb2)
            * PI * (ap**2 + am**2)
            / (PI * (ap**2 + am**2) - (ap - am) ** 2)
        )
        assert got == pytest.approx(expect, rel=1e-12)

    def test_erf_post_ln_closed_form(self):
        hp = Hyper(1.1, 0.8)
        q = hp.sw2 + hp.sb2
        got = chi_jacobian(ERF, NormMode.POST_LN, hp, q)
        expect = 2 * hp.sw2 / (
            math.sqrt(1 + 4 * q) * math.asin(2 * q / (1 + 2 * q))
        )
        assert got == pytest.approx(expect, rel=1e-12)

    def test_gelu_post_ln_closed_form(self):
        hp = Hyper(0.9, 0.7)
        q = hp.sw2 + hp.sb2
        b = math.asin(q / (1 + q))
        num = hp.sw2 * (1 + q) * (
            PI + 2 * b + 2 * q * (3 + 5 * q) / ((1 + q) * (1 + 2 * q) ** 1.5)
        )
        den = (
            PI * q * (1 + q)
            - 2 * q**2
            + 4 * q**2 / math.sqrt(1 + 2 * q)
            + 2 * q * (1 + q) * b
        )
        assert chi_jacobian(GELU, NormMode.POST_LN, hp, q) == pytest.approx(
            num / den, rel=1e-12
        )

    def test_pre_ln_needs_positive_kernel(self):
        with pytest.raises(ValueError):
            chi_jacobian(ERF, NormMode.PRE_LN, Hyper(1, 0), 0.0)


class TestChiDelta:
    def test_scale_invariant_exactly_zero(self):
        assert chi_delta(RELU, Hyper(1.7, 0.2), 3.0) == 0.0

    def test_erf_matches_quadrature(self):
        hp = Hyper(1.5, 0.0)
        got = chi_delta(ERF, hp, 1.0)
        assert got == pytest.approx(
            hp.sw2 * moment_quadrature(ERF, MomentKind.DELTA, 1.0, 200), rel=1e-9
        )

    def test_gelu_pointwise_limit(self):
        hp = Hyper(1.0, 0.0)
        exact = GELU.eval(0.0, 2) ** 2 + GELU.eval(0.0, 3) * GELU.eval(0.0, 1)
        assert chi_delta(GELU, hp, 0.0) == pytest.approx(exact)


class TestNtkRecursion:
    """The NTK diagonal as :func:`trace` builds it from the block law."""

    def test_vanilla_linear_recurrence(self):
        # ReLU at (1, 1) from its fixed kernel 2: chi_j = 1/2, Theta' = Theta/2 + 2
        tr = trace(RELU, NormMode.VANILLA, Hyper(1.0, 1.0), depth=4, k0=2.0)
        assert list(tr.theta[1:]) == [2.0, 3.0, 3.5, 3.75]

    def test_post_ln_relu(self):
        # the norm is the block's output: its gain and shift add 2 sigma_w^2
        chi_bar = PI / (PI - 1)
        tr = trace(RELU, NormMode.POST_LN, Hyper(1.0, 0.0), depth=3, k0=1.0)
        assert tr.chi_j[1] == pytest.approx(chi_bar, rel=1e-15)
        assert tr.theta[2] == pytest.approx(chi_bar * 1.0 + 1.0 + 2.0, rel=1e-15)

    def test_pre_ln_adds_unit_chi_and_curvature(self):
        # the norm feeds phi: 2 sigma_w^2 <phi'^2>(1) and then 2 chi_delta(1)
        tr = trace(RELU, NormMode.PRE_LN, Hyper(1.0, 0.0), depth=3, k0=0.5)
        assert list(tr.theta[1:]) == [0.5, 2.0, 3.5]
        hp = Hyper(1.2, 0.3)
        tr = trace(GELU, NormMode.PRE_LN, hp, depth=3, k0=0.8)
        unit = hp.sw2 * moment_closed(GELU, MomentKind.DPHI2, 1.0)
        assert tr.theta[2] == (
            tr.chi_j[1] * tr.theta[1] + tr.K[2] + 2.0 * unit + 2.0 * tr.chi_delta[1])


class TestTrace:
    def test_relu_geometric_decay(self):
        tr = trace(RELU, NormMode.VANILLA, Hyper(1.0, 0.0), depth=20, k0=1.0, l0=0)
        ls = np.arange(1, 21)
        np.testing.assert_allclose(tr.J[1:], tr.J[1] * 0.5 ** (ls - 1), rtol=1e-12)
        np.testing.assert_allclose(tr.K[1:], 0.5 ** (ls - 1), rtol=1e-12)

    def test_initial_condition_and_recurrence(self):
        tr = trace(ERF, NormMode.VANILLA, Hyper(1.1, 0.2), depth=30, k0=0.5, l0=3)
        assert tr.J[4] == tr.chi_j[3]
        for l in range(4, 30):
            assert tr.J[l + 1] == pytest.approx(tr.chi_j[l] * tr.J[l], rel=1e-15)
        assert np.all(np.isnan(tr.J[:4]))

    def test_product_structure(self):
        tr = trace(GELU, NormMode.VANILLA, Hyper(1.2, 0.3), depth=40, k0=1.0, l0=2)
        # J^{l0,l} = J^{l0,m} * prod_{m..l-1} chi = J^{l0,m} * J^{m,l}
        m, l = 10, 25
        j_m_l = np.prod(tr.chi_j[m:l])
        assert tr.J[l] == pytest.approx(tr.J[m] * j_m_l, rel=1e-12)

    def test_post_ln_kernel_constant_from_second_layer(self):
        hp = Hyper(1.0, 2.0)
        tr = trace(ERF, NormMode.POST_LN, hp, depth=10, k0=0.3, l0=0)
        np.testing.assert_allclose(tr.K[2:], 5.0)
        assert tr.K[1] == 0.3

    def test_post_ln_first_block_sees_the_input_kernel(self):
        # the first block's norm divides by the activation variance at k0
        hp = Hyper(1.5, 0.3)
        for act in (RELU, ERF, GELU):
            tr = trace(act, NormMode.POST_LN, hp, depth=4, k0=0.65, l0=0)
            assert tr.chi_j[1] == chi_jacobian(act, NormMode.POST_LN, hp, 0.65)
            assert tr.chi_j[2] == chi_jacobian(act, NormMode.POST_LN, hp, hp.sw2 + hp.sb2)
            assert tr.chi_j[1] != tr.chi_j[2]
            assert tr.J[2] == tr.chi_j[0] * tr.chi_j[1]

    def test_pre_ln_kernel_constant_from_second_layer(self):
        hp = Hyper(1.3, 0.5)
        tr = trace(ERF, NormMode.PRE_LN, hp, depth=10, k0=0.9, l0=0)
        k_fix = kernel_step(ERF, NormMode.PRE_LN, hp, 1.0)
        np.testing.assert_allclose(tr.K[2:], k_fix)

    def test_theta_seeded_by_first_kernel(self):
        tr = trace(ERF, NormMode.VANILLA, Hyper(1.0, 0.1), depth=5, k0=0.7, l0=0)
        assert tr.theta[1] == 0.7

    def test_theta_linear_growth_at_relu_criticality(self):
        hp = Hyper(math.sqrt(2), 0.0)
        tr = trace(RELU, NormMode.VANILLA, hp, depth=64, k0=1.0, l0=0)
        ls = np.arange(1, 65)
        np.testing.assert_allclose(tr.theta[1:], ls * 1.0, rtol=1e-12)

    def test_pre_ln_theta_includes_parameter_terms(self):
        hp = Hyper(1.0, 0.5)
        tr = trace(ERF, NormMode.PRE_LN, hp, depth=4, k0=1.0, l0=0)
        chi_j_unit = hp.sw2 * moment_closed(ERF, MomentKind.DPHI2, 1.0)
        expect = (
            tr.chi_j[1] * tr.theta[1] + tr.K[2] + 2 * chi_j_unit + 2 * tr.chi_delta[1]
        )
        assert tr.theta[2] == pytest.approx(expect, rel=1e-12)

    def test_divergence_flagged_not_raised(self):
        tr = trace(RELU, NormMode.VANILLA, Hyper(2.5, 0.1), depth=3000, k0=1.0, l0=0)
        assert tr.diverged
        assert tr.truncated_at is not None
        assert np.isinf(tr.K[tr.truncated_at])
        # entries before truncation are finite
        assert np.all(np.isfinite(tr.K[1 : tr.truncated_at]))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            trace(RELU, NormMode.VANILLA, Hyper(1, 0), depth=1, k0=1.0)
        with pytest.raises(ValueError):
            trace(RELU, NormMode.VANILLA, Hyper(1, 0), depth=5, k0=1.0, l0=5)
        with pytest.raises(ValueError):
            trace(RELU, NormMode.VANILLA, Hyper(1, 0), depth=5, k0=-1.0)

    @pytest.mark.parametrize("k0", [math.nan, math.inf])
    def test_non_finite_k0_rejected(self, k0):
        # a NaN or infinite input kernel is bad input, not divergence
        with pytest.raises(ValueError):
            trace(ERF, NormMode.VANILLA, Hyper(1, 0), depth=5, k0=k0)


class TestJ0Corrected:
    def test_scale_invariant_correction_vanishes(self):
        hp = Hyper(1.2, 0.1)
        tr = trace(SI21, NormMode.VANILLA, hp, depth=6, k0=1.0, l0=0)
        got = j0_corrected(SI21, hp, tr, n0=8, input_norm=1.0, layer=6)
        assert got == pytest.approx(tr.J[6], rel=1e-12)

    def test_large_n0_limit(self):
        hp = Hyper(1.0, 0.0)
        tr = trace(ERF, NormMode.VANILLA, hp, depth=5, k0=1.0, l0=0)
        got = j0_corrected(ERF, hp, tr, n0=10**9, input_norm=1.0, layer=5)
        assert got == pytest.approx(tr.J[5], rel=1e-6)

    def test_erf_formula(self):
        hp = Hyper(1.0, 0.0)
        rho = 1.0
        k1 = hp.sw2 * rho + hp.sb2
        tr = trace(ERF, NormMode.VANILLA, hp, depth=2, k0=k1, l0=0)
        n0 = 16
        got = j0_corrected(ERF, hp, tr, n0=n0, input_norm=rho, layer=2)
        chi1 = hp.sw2 * moment_closed(ERF, MomentKind.DPHI2, k1)
        delta1 = hp.sw2 * moment_quadrature(ERF, MomentKind.DELTA, k1, 200)
        expect = hp.sw2 * (chi1 + (2 * hp.sw2 / n0) * delta1 * rho)
        assert got == pytest.approx(expect, rel=1e-9)

    def test_requires_input_anchored_trace(self):
        hp = Hyper(1.0, 0.0)
        tr = trace(ERF, NormMode.VANILLA, hp, depth=5, k0=1.0, l0=1)
        with pytest.raises(ValueError):
            j0_corrected(ERF, hp, tr, n0=8, input_norm=1.0)


class TestCriticalLineMultipliers:
    """On the known critical lines the multiplier must be exactly one."""

    def test_relu_vanilla(self):
        hp = Hyper(math.sqrt(2), 0.3)
        assert abs(chi_jacobian(RELU, NormMode.VANILLA, hp, 1.0) - 1) <= 1e-10

    def test_relu_post_ln(self):
        sw = 1.7
        hp = Hyper(sw, sw / math.sqrt(PI - 1))
        k_fix = hp.sw2 + hp.sb2
        assert abs(chi_jacobian(RELU, NormMode.POST_LN, hp, k_fix) - 1) <= 1e-10

    def test_erf_pre_ln(self):
        sw = 1.9
        sb = sw * math.sqrt(2 / PI * (2 / math.sqrt(5) - math.asin(2 / 3)))
        hp = Hyper(sw, sb)
        k_fix = kernel_step(ERF, NormMode.PRE_LN, hp, 1.0)
        assert abs(chi_jacobian(ERF, NormMode.PRE_LN, hp, k_fix) - 1) <= 1e-10

    def test_gelu_pre_ln(self):
        sw = 1.1
        sb = sw / math.sqrt(6 * math.sqrt(3) * PI)
        hp = Hyper(sw, sb)
        k_fix = kernel_step(GELU, NormMode.PRE_LN, hp, 1.0)
        assert abs(chi_jacobian(GELU, NormMode.PRE_LN, hp, k_fix) - 1) <= 1e-10
