"""Fitting and phase-grid tests."""

import math

import numpy as np
import pytest

from jacprop.activations import Activation
from jacprop.analysis import (
    chi_one_crossings,
    fit_exponential,
    fit_power_law,
    phase_grid,
)
from jacprop.critical import chi_star, correlation_length, critical_line
from jacprop.meanfield import Hyper, NormMode, trace

RELU = Activation.relu()
ERF = Activation.erf()


class TestFitPowerLaw:
    def test_exact_power_law(self):
        series = {l: 7.0 * l**-1.0 for l in range(1, 200)}
        fit = fit_power_law(series, l_min=10)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(7.0), abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0)

    @pytest.mark.parametrize("zeta", [0.0, 0.5, 1.0, 2.0])
    def test_recovers_exponents(self, zeta):
        series = {l: 3.0 * l ** (-zeta) for l in range(1, 400)}
        fit = fit_power_law(series, l_min=20)
        assert -fit.slope == pytest.approx(zeta, abs=1e-10)

    def test_constant_series(self):
        fit = fit_power_law({l: 2.5 for l in range(1, 100)}, l_min=5)
        assert fit.slope == pytest.approx(0.0, abs=1e-14)

    def test_accepts_trace_arrays(self):
        tr = trace(RELU, NormMode.VANILLA, Hyper(1.0, 0.0), depth=40, k0=1.0, l0=0)
        fit = fit_exponential(tr.J, l_min=4)
        assert fit.slope == pytest.approx(math.log(0.5), rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fit_power_law({l: -1.0 for l in range(1, 50)}, l_min=1)
        with pytest.raises(ValueError):
            fit_power_law({1: 1.0, 2: 1.0}, l_min=1)

    @pytest.mark.parametrize("fit", [fit_power_law, fit_exponential])
    def test_non_finite_values_alike_for_mappings_and_arrays(self, fit):
        # NaN marks the unused layers l <= l0 and is skipped; inf marks a
        # truncated trace and is refused, naming its first layer
        arr = 2.0 / np.arange(1.0, 60.0) ** 1.5
        arr[:4] = math.nan
        series = dict(enumerate(arr))
        assert fit(series, 1) == fit(arr, 1)
        assert fit(arr, 1).window == (4, 58)
        arr[[40, 50]] = math.inf
        for given in (arr, dict(enumerate(arr))):
            with pytest.raises(ValueError, match="infinite at layer 40"):
                fit(given, 1)


class TestFitExponential:
    def test_exact_exponential(self):
        series = {l: math.exp(-l / 3.0) for l in range(1, 120)}
        fit = fit_exponential(series, l_min=5)
        assert fit.xi == pytest.approx(3.0, abs=1e-9)
        assert fit.phase == "ordered"

    def test_flat_series_infinite_length(self):
        fit = fit_exponential({l: 1.0 for l in range(1, 60)}, l_min=1)
        assert math.isinf(fit.xi)
        assert fit.phase == "critical"

    def test_chaotic_sign(self):
        fit = fit_exponential({l: math.exp(l / 5.0) for l in range(1, 60)}, l_min=1)
        assert fit.phase == "chaotic"
        assert fit.xi == pytest.approx(5.0, abs=1e-9)

    @pytest.mark.parametrize("sw", [1.0, 1.2, 1.38, 1.5, 1.8])
    def test_consistent_with_correlation_length(self, sw):
        hp = Hyper(sw, 0.0)
        chi = chi_star(RELU, NormMode.VANILLA, hp)
        tr = trace(RELU, NormMode.VANILLA, hp, depth=60, k0=1.0, l0=0)
        fit = fit_exponential(tr.J, l_min=10)
        assert fit.xi == pytest.approx(correlation_length(chi), rel=1e-2)

    def test_pre_ln_relu_length_saturates_at_large_gain(self):
        # with LayerNorm on preactivations the length approaches a finite
        # constant as sigma_w grows instead of collapsing to zero
        sb = 0.5
        xis = [
            correlation_length(chi_star(RELU, NormMode.PRE_LN, Hyper(sw, sb)))
            for sw in (3.0, 6.0, 12.0, 24.0)
        ]
        # chi = sw^2/(sw^2 + 2 sb^2) -> 1 from below, so xi keeps growing
        # with the gain and dwarfs the vanilla value at the same point
        assert all(a < b for a, b in zip(xis, xis[1:]))
        van = correlation_length(chi_star(RELU, NormMode.VANILLA, Hyper(3.0, sb)))
        assert xis[0] > van


class TestPhaseGrid:
    def test_relu_grid_is_bias_independent(self):
        sw = np.linspace(0.5, 2.5, 9)
        sb = np.linspace(0.0, 2.0, 5)
        grid = phase_grid(RELU, NormMode.VANILLA, sw, sb)
        for i, w in enumerate(sw):
            np.testing.assert_allclose(grid.chi[i], w * w / 2.0, rtol=1e-12)

    def test_contour_matches_line_solver(self):
        sw = np.linspace(1.0, 1.6, 7)
        sb = np.linspace(0.0, 1.2, 61)
        grid = phase_grid(ERF, NormMode.VANILLA, sw, sb)
        crossings = chi_one_crossings(grid)
        pts = critical_line(ERF, NormMode.VANILLA, sw)
        for got, p in zip(crossings, pts):
            if p.found and not math.isnan(got):
                assert got == pytest.approx(p.sigma_b, abs=1e-2)

    def test_pre_ln_band_wider_than_vanilla(self):
        sw = np.linspace(0.8, 2.2, 8)
        sb = np.linspace(0.1, 1.0, 8)
        vanilla = phase_grid(RELU, NormMode.VANILLA, sw, sb)
        pre = phase_grid(RELU, NormMode.PRE_LN, sw, sb)
        assert np.max(np.abs(pre.chi - 1)) < np.max(np.abs(vanilla.chi - 1))

    def test_divergence_flagged(self):
        grid = phase_grid(RELU, NormMode.VANILLA, [2.0], [0.5])
        assert grid.diverged[0, 0]
        # the multiplier still carries the saturated value
        assert grid.chi[0, 0] == pytest.approx(2.0)
