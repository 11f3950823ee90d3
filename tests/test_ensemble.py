"""Finite-width laboratory tests.

The exact Jacobian and NTK paths are validated against three independent
oracles: explicit dense-matrix composition (exact for linear networks),
dense central finite differences of the forward map (arbitrary networks,
including the normalization coupling terms), and parameter-by-parameter
finite differences of an independently written forward pass with explicit
gain/shift parameters.
"""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

from jacprop.activations import Activation
from jacprop.ensemble import (
    EnsembleConfig,
    NetworkParams,
    _SKETCH,
    _Block,
    _compose,
    _gn_stats,
    _gram_root,
    _member_bytes,
    _members,
    _ntk_member,
    _scalar_estimate,
    _span_root,
    _swept_member,
    empirical_chi,
    empirical_ntk,
    ensemble_ntk,
    first_kernel,
    forward,
    jacobian_profile,
    n0_correction_check,
    partial_jacobian_norm,
    resolve_input,
)
from jacprop.meanfield import Hyper, NormMode, j0_corrected, trace

RELU = Activation.relu()
ERF = Activation.erf()
GELU = Activation.gelu()
LINEAR = Activation.scale_invariant(1.0, 1.0)

ALL_MODES = [NormMode.VANILLA, NormMode.PRE_LN, NormMode.POST_LN]


@pytest.fixture
def in_process(monkeypatch):
    """Members run in the calling process: a forked worker neither sees a
    monkeypatch made after the fork nor reports what it counted or
    allocated."""
    monkeypatch.setenv("JACPROP_WORKERS", "1")


def _ntk_members(cfg):
    """The member values of ``ensemble_ntk(cfg)``, in member order."""
    (values,), _ = _members(_ntk_member, [cfg], None, cfg.depth)
    return values


def _swept(cfgs, l0, l):
    """Per-config member values of J^{l0, m} for m in (l0, l], rows by member."""
    return _members(_swept_member, cfgs, l0, l)[0]


def mini_forward(ws, bs, gammas, betas, act, hp, norm, x, groups=1):
    """Independent reimplementation with explicit LN parameters."""
    z = np.asarray(x, dtype=float)
    L = len(ws)
    for l in range(L):
        n_in = ws[l].shape[1]
        h = (hp.sigma_w / math.sqrt(n_in)) * (ws[l] @ z) + hp.sigma_b * bs[l]
        if l == L - 1:
            return h
        if norm is NormMode.VANILLA:
            z = act(h)
        elif norm is NormMode.PRE_LN:
            m = h.size // groups
            hg = h.reshape(groups, m)
            y = (hg - hg.mean(1, keepdims=True)) / np.sqrt(
                hg.var(1, keepdims=True) + 1e-12
            )
            z = act(gammas[l] * y.reshape(-1) + betas[l])
        else:
            a = act(h)
            m = a.size // groups
            ag = a.reshape(groups, m)
            y = (ag - ag.mean(1, keepdims=True)) / np.sqrt(
                ag.var(1, keepdims=True) + 1e-12
            )
            z = gammas[l] * y.reshape(-1) + betas[l]


def dense_block(act, norm, groups, h):
    """A hidden block's Jacobian d z / d h as an explicit matrix: each stage
    built densely -- diag(phi'), and per group (I - 1 1^T/m - y y^T/m) / s
    -- and the stages multiplied in order.  Also returns the product of the
    stages' diagonal parts (phi' and 1/s), which sizes the terms that the
    library's diagonal-plus-low-rank form adds."""
    n = h.size
    m = n // groups
    B, lam, v = np.eye(n), np.ones(n), np.asarray(h, dtype=float)
    for stage in norm.stages:
        if stage == "phi":
            S, d, v = np.diag(act(v, 1)), act(v, 1), act(v)
        else:
            S, d, y = np.zeros((n, n)), np.empty(n), np.empty(n)
            for g in range(groups):
                part = slice(g * m, (g + 1) * m)
                c = v[part] - v[part].mean()
                s = math.sqrt(np.mean(c * c) + 1e-12)
                y[part] = c / s
                S[part, part] = (np.eye(m) - 1.0 / m - np.outer(y[part], y[part]) / m) / s
                d[part] = 1.0 / s
            v = y
        B, lam = S @ B, d * lam
    return B, lam


def dense_layer_maps(params, act, hp, norm, x, groups=1):
    """Explicit per-layer Jacobian matrices, the blocks from :func:`dense_block`."""
    dims = params.layer_dims
    hs = forward(params, act, hp, norm, x, groups)
    maps = []
    for m in range(params.depth):
        scale = hp.sigma_w / math.sqrt(dims[m])
        if m == 0:
            maps.append(scale * params.weights[0])
        else:
            B = dense_block(act, norm, groups, hs[m])[0]
            maps.append(scale * params.weights[m] @ B)
    return maps


class TestForward:
    def test_hand_computed_first_layer(self):
        params = NetworkParams.draw([1, 1], seed=0)
        hp = Hyper(1.0, 0.0)
        c = 3.3
        hs = forward(params, RELU, hp, NormMode.VANILLA, np.array([c]))
        assert hs[1][0] == pytest.approx(params.weights[0][0, 0] * c)

    def test_bias_scaling(self):
        params = NetworkParams.draw([2, 3], seed=1)
        hp = Hyper(0.0, 2.0)
        hs = forward(params, RELU, hp, NormMode.VANILLA, np.zeros(2))
        np.testing.assert_allclose(hs[1], 2.0 * params.biases[0])

    def test_post_ln_normalization_is_exact(self):
        params = NetworkParams.draw([16, 64, 64, 64], seed=3)
        hp = Hyper(1.3, 0.4)
        x = np.random.default_rng(0).normal(size=16)
        hs = forward(params, GELU, hp, NormMode.POST_LN, x)
        for h in hs[1:-1]:
            z = _Block(GELU, NormMode.POST_LN, 1, h).z
            assert abs(np.mean(z)) <= 1e-12
            assert np.mean(z**2) == pytest.approx(1.0, abs=1e-9)

    def test_matches_independent_reimplementation(self):
        params = NetworkParams.draw([5, 8, 8, 8], seed=7)
        hp = Hyper(1.1, 0.6)
        x = np.random.default_rng(1).normal(size=5)
        gam = [np.ones(8)] * 2
        bet = [np.zeros(8)] * 2
        for norm in ALL_MODES:
            for act in (RELU, ERF, GELU):
                got = forward(params, act, hp, norm, x)[3]
                ref = mini_forward(params.weights, params.biases, gam, bet,
                                   act, hp, norm, x)
                np.testing.assert_allclose(got, ref, rtol=1e-13)

    def test_empirical_kernel_tracks_theory(self):
        # per-draw kernels random-walk by ~sqrt(l/N) per layer, so the
        # comparison averages over an ensemble
        width, depth, n = 2048, 12, 8
        hp = Hyper(math.sqrt(2), 0.1)
        x = np.random.default_rng(2).normal(size=64)
        k1 = hp.sw2 * float(x @ x) / 64 + hp.sb2
        tr = trace(RELU, NormMode.VANILLA, hp, depth=depth, k0=k1, l0=0)
        emp = np.zeros(depth + 1)
        for i in range(n):
            params = NetworkParams.draw([64] + [width] * depth, seed=5, init_index=i)
            hs = forward(params, RELU, hp, NormMode.VANILLA, x)
            for l in range(1, depth + 1):
                emp[l] += float(np.mean(hs[l] ** 2)) / n
        for l in range(1, depth + 1):
            assert emp[l] == pytest.approx(tr.K[l], rel=0.12)

    def test_wrong_input_shape_rejected(self):
        params = NetworkParams.draw([4, 8], seed=0)
        with pytest.raises(ValueError):
            forward(params, RELU, Hyper(1, 0), NormMode.VANILLA, np.zeros(5))
        # a non-finite entry must not come back as J = 0 (ReLU) or NaN
        params = NetworkParams.draw([4, 8, 8, 8], seed=0)
        hp = Hyper(1.4, 0.1)
        for bad, norm in ((math.nan, NormMode.VANILLA), (math.inf, NormMode.PRE_LN)):
            x = [bad, 1.0, 2.0, 3.0]
            with pytest.raises(ValueError, match="finite"):
                forward(params, RELU, hp, norm, x)
            with pytest.raises(ValueError, match="finite"):
                partial_jacobian_norm(params, RELU, hp, norm, x, 1, 3)
            cfg = EnsembleConfig(width=8, input_dim=4, depth=3, n_init=2, seed=0,
                                 hyper=hp, norm=norm, input_source=("array", x))
            with pytest.raises(ValueError, match="finite"):
                empirical_chi(cfg)


def dense_one_step(params, act, hp, norm, x, l0, groups=1):
    """J^{l0, l0+1} from the dense block transpose on the scaled W^T, and
    the size of the factor form's terms before they cancel,
    scale^2 |W|_F^2 max lam^2 / N_{l0+1}, which bounds its rounding."""
    dims = params.layer_dims
    scale = hp.sigma_w / math.sqrt(dims[l0])
    W = params.weights[l0]
    V, lam = scale * W.T, np.ones(1)
    if l0 > 0:
        B, lam = dense_block(act, norm, groups,
                             forward(params, act, hp, norm, x, groups)[l0])
        V = B.T @ V
    n = dims[l0 + 1]
    return float(np.sum(V * V)) / n, scale**2 * float(np.sum(W * W)) * np.max(lam**2) / n


class TestPartialJacobianNorm:
    def test_linear_network_dense_weight_oracle(self):
        dims = [8, 16, 12, 20, 10]
        params = NetworkParams.draw(dims, seed=3)
        hp = Hyper(0.9, 0.7)
        x = np.random.default_rng(4).normal(size=8)
        M = np.eye(8)
        for l in range(4):
            M = (hp.sigma_w / math.sqrt(dims[l])) * params.weights[l] @ M
        got = partial_jacobian_norm(params, LINEAR, hp, NormMode.VANILLA, x, 0, 4)
        assert got == pytest.approx(np.sum(M * M) / dims[4], rel=1e-12)

    def test_width_two_hand_chain_rule(self):
        dims = [2, 2, 2, 2]
        params = NetworkParams.draw(dims, seed=9)
        hp = Hyper(1.2, 0.3)
        x = np.array([0.4, -1.1])
        hs = forward(params, ERF, hp, NormMode.VANILLA, x)
        s = hp.sigma_w / math.sqrt(2)
        M1 = s * params.weights[1] @ np.diag(ERF(hs[1], 1))
        M2 = s * params.weights[2] @ np.diag(ERF(hs[2], 1))
        M = M2 @ M1
        got = partial_jacobian_norm(params, ERF, hp, NormMode.VANILLA, x, 1, 3)
        assert got == pytest.approx(np.sum(M * M) / 2, rel=1e-12)

    @pytest.mark.parametrize("norm", ALL_MODES)
    @pytest.mark.parametrize("groups", [1, 2])
    def test_dense_composition_oracle(self, norm, groups):
        dims = [12, 32, 32, 32, 32]
        params = NetworkParams.draw(dims, seed=13)
        hp = Hyper(1.4, 0.5)
        x = np.random.default_rng(5).normal(size=12)
        maps = dense_layer_maps(params, GELU, hp, norm, x, groups)
        M = maps[3] @ maps[2] @ maps[1]
        got = partial_jacobian_norm(params, GELU, hp, norm, x, 1, 4, groups=groups)
        assert got == pytest.approx(np.sum(M * M) / dims[4], rel=1e-10)

    @pytest.mark.parametrize("norm", [NormMode.PRE_LN, NormMode.POST_LN])
    def test_normalization_jacobian_against_finite_differences(self, norm):
        dims = [6, 12, 12, 12]
        params = NetworkParams.draw(dims, seed=11)
        hp = Hyper(1.3, 0.4)
        x = np.random.default_rng(6).normal(size=6)
        got = partial_jacobian_norm(params, GELU, hp, norm, x, 1, 3)

        hs = forward(params, GELU, hp, norm, x)
        eps = 1e-6

        def tail(h1):
            z = None
            h = h1
            for m in (1, 2):
                z = _Block(GELU, norm, 1, h).z
                scale = hp.sigma_w / math.sqrt(dims[m])
                h = scale * (params.weights[m] @ z) + hp.sigma_b * params.biases[m]
            return h

        J = np.zeros((dims[3], dims[1]))
        for i in range(dims[1]):
            e = np.zeros(dims[1])
            e[i] = eps
            J[:, i] = (tail(hs[1] + e) - tail(hs[1] - e)) / (2 * eps)
        assert got == pytest.approx(np.sum(J * J) / dims[3], rel=1e-6)

    def test_one_step_shortcut_equals_generic(self):
        # an explicit one-step norm carries the same tangent basis as the
        # profile's first layer above l0: the same bits
        dims = [6, 24, 24]
        params = NetworkParams.draw(dims, seed=2)
        hp = Hyper(1.1, 0.2)
        x = np.random.default_rng(7).normal(size=6)
        for groups in (1, 2):
            for norm in ALL_MODES:
                quick = partial_jacobian_norm(params, ERF, hp, norm, x, 1, 2, groups)
                prof = partial_jacobian_norm(params, ERF, hp, norm, x, 1, 2, groups,
                                             profile=True)
                assert quick.hex() == prof[2].hex(), (norm, groups)

    @pytest.mark.parametrize("dims, groups", [
        ([5, 8, 12, 6], 1), ([5, 8, 12, 6], 2),
        ([7, 12, 16, 24, 6], 1), ([7, 12, 16, 24, 6], 2), ([7, 12, 16, 24, 6], 4),
    ])
    @pytest.mark.parametrize("norm", ALL_MODES)
    @pytest.mark.parametrize("act", [RELU, ERF, GELU], ids=["relu", "erf", "gelu"])
    def test_one_step_factors_equal_the_dense_transpose(self, act, norm, dims, groups):
        params = NetworkParams.draw(dims, seed=29)
        hp = Hyper(1.2, 0.3)
        x = np.random.default_rng(12).normal(size=dims[0])
        hs = forward(params, act, hp, norm, x, groups)
        for l0 in range(len(dims) - 1):
            if l0 > 0:
                lam, U, V = _Block(act, norm, groups, hs[l0]).factors()
                np.testing.assert_allclose(np.diag(lam) + U @ V.T,
                                           dense_block(act, norm, groups, hs[l0])[0],
                                           rtol=1e-12, atol=1e-12 * np.max(np.abs(lam)))
            want, size = dense_one_step(params, act, hp, norm, x, l0, groups)
            got = partial_jacobian_norm(params, act, hp, norm, x, l0, l0 + 1, groups)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * size), l0

    @pytest.mark.parametrize("norm", [NormMode.PRE_LN, NormMode.POST_LN])
    @pytest.mark.parametrize("act", [ERF, GELU], ids=["erf", "gelu"])
    def test_one_unit_groups_give_exactly_zero(self, act, norm):
        # y = 0 and I - 1 1^T = 0 per group, at 1/s = 1e6: a cancelled sum
        # of the factor terms would leave ~1e-4 of rounding
        params = NetworkParams.draw([4, 6, 6, 5], seed=8)
        x = np.random.default_rng(13).normal(size=4)
        args = (params, act, Hyper(1.2, 0.3), norm, x)
        assert dense_one_step(*args, 1, groups=6)[0] == 0.0
        assert partial_jacobian_norm(*args, 1, 2, groups=6) == 0.0

    def test_factor_composition_is_the_matrix_product(self):
        rng = np.random.default_rng(14)
        dense = lambda f: np.diag(f[0]) + f[1] @ f[2].T
        first, then = [(rng.normal(size=9), rng.normal(size=(9, r)), rng.normal(size=(9, r)))
                       for r in (2, 3)]
        np.testing.assert_allclose(dense(_compose(first, then)), dense(then) @ dense(first),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.usefixtures("in_process")
    def test_each_block_composes_its_factors_once_and_only_when_used(self, monkeypatch):
        # a pre-LN block composes its two stages in one product, a one-stage
        # block none; forward-only layers compose none
        import jacprop.ensemble as ens

        calls = []
        compose = ens._compose
        monkeypatch.setattr(ens, "_compose", lambda *a: calls.append(1) or compose(*a))
        params = NetworkParams.draw([5, 8, 8, 8, 8, 8], seed=1)
        x = np.random.default_rng(2).normal(size=5)
        hp, norm = Hyper(1.3, 0.4), NormMode.PRE_LN
        cfg = EnsembleConfig(width=8, input_dim=5, depth=5, n_init=1, seed=1, hyper=hp,
                             norm=norm, act=GELU)
        for run, blocks in ((lambda: forward(params, GELU, hp, norm, x), 0),
                            (lambda: empirical_chi(cfg), 1),  # the block at h^3
                            (lambda: jacobian_profile(cfg, l0=2), 3),  # at h^2..h^4
                            (lambda: empirical_ntk(params, GELU, hp, norm, x), 4)):
            calls.clear()
            run()
            assert len(calls) == blocks

    @pytest.mark.parametrize("shape", [(128, 1200), (200, 200), (8, 8)])
    @pytest.mark.parametrize("groups", [1, 2, 4])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("norm", ALL_MODES)
    def test_block_tangent_updates_the_block_in_place(self, shape, groups, order, norm):
        # one order for every block size: the caller's, kept by working in
        # place; the rank update goes through the spare buffer of T's shape
        n, k = shape
        rng = np.random.default_rng(3)
        h = rng.normal(size=n)
        T = np.asarray(rng.normal(size=(n, k)), order=order)
        B, lam = dense_block(GELU, norm, groups, h)
        want, size = B @ T, np.max(np.abs(lam)) * np.max(np.abs(T))
        strides = T.strides
        got = _Block(GELU, norm, groups, h).tangent(T, np.empty((n, k)))
        assert np.shares_memory(got, T) and got.strides == strides
        # entries that cancel (all of them in two-unit groups) are held to
        # 1e-12 of the size of the terms that cancel
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * size)

    def test_single_layer_from_input_expectation(self):
        # J^{0,1} = sigma_w^2 |W|_F^2 / (N0 N1) -> sigma_w^2 in expectation
        vals = []
        for i in range(16):
            params = NetworkParams.draw([64, 64], seed=21, init_index=i)
            x = np.ones(64)
            vals.append(
                partial_jacobian_norm(params, RELU, Hyper(1.0, 0.0),
                                      NormMode.VANILLA, x, 0, 1)
            )
        mean = np.mean(vals)
        stderr = np.std(vals, ddof=1) / 4.0
        assert abs(mean - 1.0) < 4 * stderr + 0.01

    def test_layer_bounds_enforced(self):
        params = NetworkParams.draw([4, 8, 8], seed=0)
        hp = Hyper(1, 0)
        x = np.zeros(4)
        with pytest.raises(ValueError):
            partial_jacobian_norm(params, RELU, hp, NormMode.VANILLA, x, 1, 1)
        with pytest.raises(ValueError):
            partial_jacobian_norm(params, RELU, hp, NormMode.VANILLA, x, 0, 3)
        with pytest.raises(ValueError):
            partial_jacobian_norm(params, RELU, hp, NormMode.VANILLA, x, -1, 2)


class TestEmpiricalNtk:
    def test_depth_one_equals_first_kernel_per_draw(self):
        params = NetworkParams.draw([8, 32], seed=17)
        hp = Hyper(1.3, 0.7)
        x = np.random.default_rng(8).normal(size=8)
        theta = empirical_ntk(params, RELU, hp, NormMode.VANILLA, x)
        k1 = hp.sw2 * float(x @ x) / 8 + hp.sb2
        assert theta == pytest.approx(k1, rel=1e-12)

    @pytest.mark.parametrize("norm", ALL_MODES)
    def test_finite_difference_parameter_gradients(self, norm):
        cases = [([3, 2, 2], 1)]
        if norm is not NormMode.VANILLA:
            cases.append(([3, 6, 6, 6], 2))  # the gain/shift term per group
        for dims, groups in cases:
            params = NetworkParams.draw(dims, seed=5)
            hp = Hyper(1.1, 0.6)
            x = np.random.default_rng(9).normal(size=3)
            got = empirical_ntk(params, ERF, hp, norm, x, groups=groups)

            gam = [np.ones(n) for n in dims[1:-1]]
            bet = [np.zeros(n) for n in dims[1:-1]]
            eps = 1e-6
            total = 0.0
            packs = [("w", params.weights), ("b", params.biases)]
            if norm is not NormMode.VANILLA:
                packs += [("g", gam), ("e", bet)]
            for which, arrs in packs:
                for li, arr in enumerate(arrs):
                    it = np.nditer(arr, flags=["multi_index"])
                    for _ in it:
                        idx = it.multi_index

                        def run(sign):
                            ws = [a.copy() for a in params.weights]
                            bs = [b.copy() for b in params.biases]
                            gs = [g.copy() for g in gam]
                            es = [e.copy() for e in bet]
                            {"w": ws, "b": bs, "g": gs, "e": es}[which][li][idx] += sign * eps
                            return mini_forward(ws, bs, gs, es, ERF, hp, norm, x, groups)

                        g = (run(+1) - run(-1)) / (2 * eps)
                        total += float(np.sum(g * g))
            assert got == pytest.approx(total / dims[-1], rel=1e-6), (dims, groups)

    def test_mean_matches_theory_at_relu_criticality(self):
        hp = Hyper(math.sqrt(2), 0.0)
        depth, width, n0 = 10, 256, 64
        x = np.random.default_rng(10).normal(size=n0)
        k1 = hp.sw2 * float(x @ x) / n0
        tr = trace(RELU, NormMode.VANILLA, hp, depth=depth, k0=k1, l0=0)
        vals = [
            empirical_ntk(NetworkParams.draw([n0] + [width] * depth, 99, i),
                          RELU, hp, NormMode.VANILLA, x)
            for i in range(12)
        ]
        assert np.mean(vals) == pytest.approx(tr.theta[depth], rel=0.10)

    def test_size_guard(self):
        for dims in ([4, 257], [4] + [8] * 13):
            params = NetworkParams.draw(dims, seed=0)
            with pytest.raises(ValueError, match="width 256 and depth 12"):
                empirical_ntk(params, RELU, Hyper(1, 0), NormMode.VANILLA, np.zeros(4))
        params = NetworkParams.draw([4] + [256] * 12, seed=0)
        empirical_ntk(params, RELU, Hyper(1, 0), NormMode.VANILLA, np.zeros(4))


class TestGoldenBits:
    """Exact bits of every block path, so that no rewrite of the block moves a result.

    Per activation, mode and group count on one [5, 8, 8, 8] net at seed
    23: J^{1,2} and J^{1,3} (a tangent basis carried through the blocks),
    the profile J^{0,l} for l = 1..3 and the NTK (gradient rows stepped
    back through the blocks, plus the gain/shift term), as ``float.hex``;
    every block path reads the block's diagonal-plus-low-rank factors.
    """

    GOLDEN = {
        ("relu", "VANILLA", 1): (
            "0x1.6b2945b8e64b2p-1", "0x1.24307591938e2p-2", "0x1.d8095e255aeb4p+0",
            "0x1.0a32abb0d0221p+0", "0x1.90c774fecf4ccp-3", "0x1.08ccc6fa649eap+1",
        ),
        ("relu", "VANILLA", 2): (
            "0x1.6b2945b8e64b2p-1", "0x1.24307591938e2p-2", "0x1.d8095e255aeb4p+0",
            "0x1.0a32abb0d0221p+0", "0x1.90c774fecf4ccp-3", "0x1.08ccc6fa649eap+1",
        ),
        ("relu", "PRE_LN", 1): (
            "0x1.38a3fe05121b6p-2", "0x1.8fb41535529d6p-5", "0x1.d8095e255aeb4p+0",
            "0x1.098849be2056fp-1", "0x1.e63c0310258d3p-5", "0x1.57d4970b9709cp+1",
        ),
        ("relu", "PRE_LN", 2): (
            "0x1.310c977550963p+0", "0x1.37ee2c163181ap-2", "0x1.d8095e255aeb4p+0",
            "0x1.8abe50d81380ep+1", "0x1.9e7cb4b08df26p-1", "0x1.92b412bf4e30dp+1",
        ),
        ("relu", "POST_LN", 1): (
            "0x1.41bb1f36b0085p+0", "0x1.63de94f52e022p-2", "0x1.d8095e255aeb4p+0",
            "0x1.578e684b525dcp+1", "0x1.17d886dfab25dp-1", "0x1.10056f45fb354p+3",
        ),
        ("relu", "POST_LN", 2): (
            "0x1.2b630a8932e12p+3", "0x1.ec30b668be285p-1", "0x1.d8095e255aeb4p+0",
            "0x1.86663cbb534e4p+4", "0x1.3a15a03f0fea7p+1", "0x1.0ed0c2dac287ap+3",
        ),
        ("gelu", "VANILLA", 1): (
            "0x1.22ad2b591b5b5p-1", "0x1.90fbfcea30b34p-3", "0x1.d8095e255aeb4p+0",
            "0x1.aa5b69a927b38p-1", "0x1.9da98d7762240p-4", "0x1.8524d3becf466p+0",
        ),
        ("gelu", "VANILLA", 2): (
            "0x1.22ad2b591b5b5p-1", "0x1.90fbfcea30b34p-3", "0x1.d8095e255aeb4p+0",
            "0x1.aa5b69a927b38p-1", "0x1.9da98d7762240p-4", "0x1.8524d3becf466p+0",
        ),
        ("gelu", "PRE_LN", 1): (
            "0x1.c2926359431f8p-3", "0x1.17e58552e8566p-5", "0x1.d8095e255aeb4p+0",
            "0x1.c11541ea61404p-2", "0x1.241e90b2985eep-5", "0x1.56e2d06fb724ep+1",
        ),
        ("gelu", "PRE_LN", 2): (
            "0x1.62a906a039f14p+0", "0x1.f1fc6e201b3e6p-2", "0x1.d8095e255aeb4p+0",
            "0x1.d2264f5e3cc38p+1", "0x1.562dfec735617p+0", "0x1.d081bfddfad09p+1",
        ),
        ("gelu", "POST_LN", 1): (
            "0x1.78ae8186aa3cbp-1", "0x1.7556c608cf95ep-3", "0x1.d8095e255aeb4p+0",
            "0x1.641da6aceabe7p+0", "0x1.71134f822a2fbp-3", "0x1.f0dd3c736b9e6p+2",
        ),
        ("gelu", "POST_LN", 2): (
            "0x1.ef15620a4ac53p+1", "0x1.a3012aa92efcep-1", "0x1.d8095e255aeb4p+0",
            "0x1.2a6800471861ep+3", "0x1.822347afc7f64p+0", "0x1.1016c17a9b49fp+3",
        ),
    }

    @pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: "-".join(map(str, k)))
    def test_values_are_bit_identical(self, key):
        act_name, mode_name, groups = key
        act, norm = getattr(Activation, act_name)(), NormMode[mode_name]
        params = NetworkParams.draw([5, 8, 8, 8], seed=23)
        hp = Hyper(1.3, 0.4)
        x = np.array([0.7, -1.2, 0.3, 2.1, -0.4])
        prof = partial_jacobian_norm(params, act, hp, norm, x, 0, 3, groups, profile=True)
        got = [
            partial_jacobian_norm(params, act, hp, norm, x, 1, 2, groups),
            partial_jacobian_norm(params, act, hp, norm, x, 1, 3, groups),
            *prof[1:],
            empirical_ntk(params, act, hp, norm, x, groups),
        ]
        assert [float(v).hex() for v in got] == list(self.GOLDEN[key])


class TestDriverGoldenBits:
    """Exact bits of the ensemble drivers' routes, as ``float.hex``.

    At depth 5, seed 29, 3 members, 8 wide: ``empirical_chi`` (layers 1..3
    carry only the forward vector), a single J^{2,5} above two
    forward-only layers, a three-config batch; J^{0,5} on a 3-column and a
    12-column input at width 40 (span draws for layers 1..4, the second
    sketched to 8 columns, layer 5 integrated out); the n0 check; and
    ``ensemble_ntk``'s members at groups 2 (lean steps up, reverse span
    draws down).
    """

    CHI = {
        ("relu", "VANILLA", 1): ("0x1.d4b17e4b17e4cp-1", "0x1.206d3a06d3a08p-4"),
        ("relu", "VANILLA", 2): ("0x1.d4b17e4b17e4cp-1", "0x1.206d3a06d3a08p-4"),
        ("relu", "PRE_LN", 1): ("0x1.06a44caec3f12p+0", "0x1.986105a5a5c95p-2"),
        ("relu", "PRE_LN", 2): ("0x1.62126e842b369p-1", "0x1.2c189a78cd57fp-2"),
        ("relu", "POST_LN", 1): ("0x1.520881e5bb6c8p+1", "0x1.b58fea1ace69ep+0"),
        ("relu", "POST_LN", 2): ("0x1.4edefca84d21dp+1", "0x1.6795bd8d1def0p+0"),
        ("erf", "VANILLA", 1): ("0x1.eedc9310af088p-1", "0x1.d19254b4fe429p-4"),
        ("erf", "VANILLA", 2): ("0x1.eedc9310af088p-1", "0x1.d19254b4fe429p-4"),
        ("erf", "PRE_LN", 1): ("0x1.109c397ea8a9fp+0", "0x1.f43c1cafcda26p-3"),
        ("erf", "PRE_LN", 2): ("0x1.bb1655bc8c8e3p-1", "0x1.c0307cc519e29p-3"),
        ("erf", "POST_LN", 1): ("0x1.749aede24b0d8p+0", "0x1.0f172b7ecc4ffp-1"),
        ("erf", "POST_LN", 2): ("0x1.4fa09e2946be4p+0", "0x1.f1799e7d7e746p-2"),
        ("gelu", "VANILLA", 1): ("0x1.715de71478b3fp-1", "0x1.21e33e18c9c95p-4"),
        ("gelu", "VANILLA", 2): ("0x1.715de71478b3fp-1", "0x1.21e33e18c9c95p-4"),
        ("gelu", "PRE_LN", 1): ("0x1.38868475a985dp+0", "0x1.ee0b70e8baf64p-2"),
        ("gelu", "PRE_LN", 2): ("0x1.86a0a261acc15p-1", "0x1.604c352b06b1ep-2"),
        ("gelu", "POST_LN", 1): ("0x1.35b6adb9ec89fp+1", "0x1.4ccddaf85f60fp+0"),
        ("gelu", "POST_LN", 2): ("0x1.3ac6ab7392283p+1", "0x1.48c90f2c8ed58p+0"),
    }

    NTK = {
        ("relu", "VANILLA"): (
            "0x1.55621b2a104d0p+3", "0x1.a0d58368b359cp+0", "0x1.65d9297d897f9p+5"),
        ("relu", "PRE_LN"): (
            "0x1.c94dfcc17cf81p+3", "0x1.9805796b5b548p+3", "0x1.6e88eca239c21p+2"),
        ("relu", "POST_LN"): (
            "0x1.f9be44f732727p+5", "0x1.d8f61752f58d6p+2", "0x1.d57d1497e9217p+7"),
        ("erf", "VANILLA"): (
            "0x1.88ff144477afcp+1", "0x1.0592b4c45aa4cp+2", "0x1.83260ccdca354p+1"),
        ("erf", "PRE_LN"): (
            "0x1.d8ab25ed64dbdp+3", "0x1.49d9d943d88dap+6", "0x1.7b9e7dcfbd34ap+2"),
        ("erf", "POST_LN"): (
            "0x1.2b8345e11f848p+4", "0x1.64d9a6082070bp+4", "0x1.1c4fae49670c1p+4"),
        ("gelu", "VANILLA"): (
            "0x1.2e2cf8b9b6837p+3", "0x1.408bfd1434bc3p+0", "0x1.5ec0c4529007fp+5"),
        ("gelu", "PRE_LN"): (
            "0x1.745854d363e2bp+4", "0x1.abd06d1817731p+2", "0x1.5760f3194aa5bp+2"),
        ("gelu", "POST_LN"): (
            "0x1.31f8db747f106p+6", "0x1.7be76b138f529p+6", "0x1.54cf57ae26d0fp+7"),
    }

    @staticmethod
    def _cfg(**kw):
        base = dict(width=8, input_dim=5, depth=5, n_init=3, seed=29, hyper=Hyper(1.3, 0.4))
        base.update(kw)
        return EnsembleConfig(**base)

    @staticmethod
    def _hex(est):
        return float(est.mean).hex(), float(est.stderr).hex()

    @pytest.mark.parametrize("key", sorted(CHI), ids=lambda k: "-".join(map(str, k)))
    def test_chi_is_bit_identical(self, key):
        act_name, mode_name, groups = key
        cfg = self._cfg(act=getattr(Activation, act_name)(), norm=NormMode[mode_name],
                        groups=groups)
        assert self._hex(empirical_chi(cfg)) == self.CHI[key]

    @pytest.mark.parametrize("key", sorted(NTK), ids=lambda k: "-".join(k))
    def test_ntk_members_are_bit_identical(self, key):
        act_name, mode_name = key
        cfg = self._cfg(act=getattr(Activation, act_name)(), norm=NormMode[mode_name],
                        groups=2)
        assert tuple(float(v).hex() for v in _ntk_members(cfg)) == self.NTK[key]

    def test_single_jacobians_are_bit_identical(self):
        cfg = self._cfg(act=GELU, norm=NormMode.POST_LN, groups=2)
        assert [float(v).hex() for v in _swept([cfg], 2, 5)[0][:, 5]] == [
            "0x1.18819e5edd206p+3", "0x1.02ae284ddc634p+3", "0x1.4e04e51aabbcap+1"]
        thin = self._cfg(width=40, input_dim=3, act=ERF, norm=NormMode.PRE_LN)
        assert [float(v).hex() for v in _swept([thin], 0, 5)[0][:, 5]] == [
            "0x1.f843c38677621p-2", "0x1.2043aedc999fbp-3", "0x1.0e4096bb3c7f3p-3"]
        # 12 input columns, sketched to 8
        wide = self._cfg(width=40, input_dim=12, act=GELU, norm=NormMode.POST_LN, groups=2)
        assert [float(v).hex() for v in _swept([wide], 0, 5)[0][:, 5]] == [
            "0x1.4692b41f77573p-1", "0x1.643c3a880d82fp+1", "0x1.6534e9945afc7p+2"]

    def test_batch_is_bit_identical(self):
        batch = [self._cfg(act=GELU),
                 self._cfg(act=ERF, norm=NormMode.PRE_LN, hyper=Hyper(1.1, 0.2)),
                 self._cfg(act=RELU, norm=NormMode.POST_LN,
                           input_source=("gaussian", 0.0, 0.6))]
        assert [self._hex(e) for e in empirical_chi(batch)] == [
            ("0x1.715de71478b3fp-1", "0x1.21e33e18c9c95p-4"),
            ("0x1.66d10201d58e5p+0", "0x1.db9a852f7bc40p-2"),
            ("0x1.520881e5bb6c9p+1", "0x1.b58fea1ace6a0p+0"),
        ]
        assert [[float(v).hex() for v in e.per_layer[3:]]
                for e in jacobian_profile(batch, l0=2)] == [
            ["0x1.b4f28c5bf6549p-1", "0x1.a1e007823f0d3p-1", "0x1.b3ccc72b63dbcp-1"],
            ["0x1.2a133592fbd89p+0", "0x1.9e2ef8561bfa8p+0", "0x1.95b531610a8cfp+0"],
            ["0x1.0e401a1f616a8p+0", "0x1.ab89ae5bc86e0p+2", "0x1.70df286c91328p+2"],
        ]

    @pytest.mark.parametrize("groups", [1, 2, 4])
    @pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e1, 1e3])
    def test_group_stats_are_the_mean_and_var_bits(self, groups, scale):
        v = np.random.default_rng(21).normal(loc=0.3, size=96) * scale
        y, s = _gn_stats(v, groups)
        vg = v.reshape(groups, -1)
        s_want = np.sqrt(vg.var(axis=1) + 1e-12)
        y_want = (vg - vg.mean(axis=1, keepdims=True)) / s_want[:, None]
        assert s.tobytes() == s_want.tobytes()
        assert y.tobytes() == y_want.reshape(-1).tobytes()

    def test_n0_check_is_bit_identical(self):
        cfg = EnsembleConfig(width=16, input_dim=4, depth=2, n_init=3, seed=29,
                             hyper=Hyper(1.3, 0.4), act=ERF)
        report = n0_correction_check(cfg)
        assert (report.measured.hex(), report.measured_stderr.hex()) == (
            "0x1.c37934520cc73p-1", "0x1.99f9bf4204c47p-3")


class TestEnsembleDrivers:
    def _cfg(self, **kw):
        base = dict(width=128, input_dim=32, depth=8, n_init=6, seed=123,
                    hyper=Hyper(math.sqrt(2), 0.1), act=RELU)
        base.update(kw)
        return EnsembleConfig(**base)

    def test_determinism_bit_identical(self):
        a = empirical_chi(self._cfg())
        b = empirical_chi(self._cfg())
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_determinism_across_worker_counts(self):
        a = empirical_chi(self._cfg())
        os.environ["JACPROP_WORKERS"] = "3"
        try:
            b = empirical_chi(self._cfg())
        finally:
            del os.environ["JACPROP_WORKERS"]
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_profile_contains_chi_estimate_layer(self):
        est = jacobian_profile(self._cfg(), l0=0)
        assert est.per_layer is not None
        assert np.isnan(est.per_layer[0])
        assert (est.mean, est.stderr) == (est.per_layer[8], est.per_layer_stderr[8])

    def test_shared_vs_resampled_inputs(self):
        shared = self._cfg()
        assert np.array_equal(resolve_input(shared, 0), resolve_input(shared, 5))
        fresh = self._cfg(resample_inputs=True)
        assert not np.array_equal(resolve_input(fresh, 0), resolve_input(fresh, 5))

    @pytest.mark.parametrize("source", [("file", "input.bin"), ("array", np.ones(32))],
                             ids=["file", "array"])
    def test_one_input_cannot_be_resampled(self, source):
        # resolve_input once ignored the flag here, and every member ran on
        # the one vector under a config that claimed fresh inputs
        with pytest.raises(ValueError, match=f"a '{source[0]}' input source holds only one"):
            self._cfg(input_source=source, resample_inputs=True)

    def test_input_file_roundtrip(self, tmp_path):
        x = np.arange(32, dtype="<f4") / 7.0
        path = tmp_path / "input.bin"
        x.tofile(path)
        cfg = self._cfg(input_source=("file", str(path)))
        np.testing.assert_allclose(resolve_input(cfg, 0), x.astype(float))

    def test_groupnorm_counts_agree_within_errors(self):
        ests = {}
        for g in (1, 2, 4):
            cfg = self._cfg(width=256, depth=16, n_init=8, norm=NormMode.PRE_LN,
                            hyper=Hyper(1.6, 0.4), groups=g)
            ests[g] = empirical_chi(cfg)
        for g in (2, 4):
            gap = abs(ests[g].mean - ests[1].mean)
            assert gap <= 3 * (ests[g].stderr + ests[1].stderr) + 5e-3

    def test_kernel_error_shrinks_with_width(self):
        hp = Hyper(1.0, 0.3)
        layer = 6
        errs = {}
        for width in (256, 1024, 4096):
            rel = []
            for i in range(4):
                params = NetworkParams.draw([32] + [width] * layer, 31, i)
                x = resolve_input(self._cfg(), 0)
                hs = forward(params, ERF, hp, NormMode.VANILLA, x)
                k1 = first_kernel(self._cfg(hyper=hp))
                tr = trace(ERF, NormMode.VANILLA, hp, depth=layer, k0=k1, l0=0)
                rel.append(abs(np.mean(hs[layer] ** 2) - tr.K[layer]) / tr.K[layer])
            errs[width] = np.mean(rel)
        assert errs[4096] <= errs[256]

    def test_relu_pre_ln_closed_form_cell(self):
        # sigma_w = 3, sigma_b = 1: multiplier 9/11 from the pre-LN form
        cfg = self._cfg(width=400, depth=30, n_init=12, norm=NormMode.PRE_LN,
                        hyper=Hyper(3.0, 1.0), input_dim=100, seed=42)
        est = empirical_chi(cfg)
        assert abs(est.mean - 9 / 11) <= 3 * est.stderr

    def test_n0_correction_suppressed_at_large_input_dim(self):
        # at N0 = 4096 the corrected and uncorrected predictions agree
        # to better than 0.1%
        hp = Hyper(1.0, 0.0)
        tr = trace(ERF, NormMode.VANILLA, hp, depth=2, k0=1.0, l0=0)
        corr = j0_corrected(ERF, hp, tr, n0=4096, input_norm=1.0, layer=2)
        assert abs(corr - tr.J[2]) / tr.J[2] <= 1e-3

    def test_n0_predictions_average_the_members_own_inputs(self):
        # with resampled inputs each member sees its own input; the
        # predictions once came from member 0's input alone, and read 12
        # standard errors off the measurement at this seed
        cfg = self._cfg(act=ERF, hyper=Hyper(1.0, 0.0), width=1024, input_dim=16, depth=2,
                        n_init=200, seed=3, resample_inputs=True)
        rep = n0_correction_check(cfg)
        corrected, uncorrected = [], []
        for i in range(cfg.n_init):
            x = resolve_input(cfg, i)
            rho = float(x @ x) / cfg.input_dim
            tr = trace(ERF, NormMode.VANILLA, cfg.hyper, depth=2, k0=rho)
            corrected.append(j0_corrected(ERF, cfg.hyper, tr, cfg.input_dim, rho, layer=2))
            uncorrected.append(tr.J[2])
        assert rep.corrected_pred == pytest.approx(np.mean(corrected), rel=1e-12)
        assert rep.uncorrected_pred == pytest.approx(np.mean(uncorrected), rel=1e-12)
        assert rep.err_corrected <= 4 * rep.measured_stderr, rep

    def test_n0_correction_identical_for_scale_invariant(self):
        cfg = self._cfg(act=RELU, input_dim=8, depth=2, n_init=3)
        rep = n0_correction_check(cfg)
        assert rep.corrected_pred == rep.uncorrected_pred

    def test_n0_correction_rejects_ln_modes(self):
        cfg = self._cfg(norm=NormMode.PRE_LN, depth=2)
        with pytest.raises(ValueError):
            n0_correction_check(cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            self._cfg(depth=1)
        with pytest.raises(ValueError):
            self._cfg(n_init=0)
        with pytest.raises(ValueError):
            self._cfg(groups=3)  # does not divide 128
        for name in ("width", "input_dim", "groups"):
            for bad in (0, -4):
                with pytest.raises(ValueError, match=f"{name} must be >= 1"):
                    self._cfg(**{name: bad})
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            self._cfg(seed=-1)
        self._cfg(seed=0)

    def test_input_of_the_wrong_size_rejected(self, tmp_path):
        path = tmp_path / "input.bin"
        np.zeros(31, dtype="<f4").tofile(path)
        with pytest.raises(ValueError, match="input file holds 31 floats, expected 32"):
            resolve_input(self._cfg(input_source=("file", str(path))))
        with pytest.raises(ValueError, match="input vector has size 33, expected 32"):
            resolve_input(self._cfg(input_source=("array", np.ones(33))))

    def test_one_member_has_no_stderr(self):
        cfg = self._cfg(n_init=1)
        assert math.isnan(empirical_chi(cfg).stderr)
        assert math.isnan(ensemble_ntk(cfg).stderr)
        assert math.isnan(n0_correction_check(replace(cfg, depth=2)).measured_stderr)
        prof = jacobian_profile(cfg)
        assert math.isnan(prof.stderr) and np.isnan(prof.per_layer_stderr).all()
        assert np.isfinite(prof.per_layer[1:]).all()

    @pytest.mark.parametrize("l0", [-1, 8, 9, 100])
    def test_profile_l0_outside_the_network_rejected(self, l0):
        # l0 = 100 once raised IndexError from the memory check
        with pytest.raises(ValueError, match=rf"l0 must satisfy 0 <= l0 < depth \(8\), got {l0}"):
            jacobian_profile(self._cfg(), l0=l0)

    @pytest.mark.parametrize("norm", [NormMode.PRE_LN, NormMode.POST_LN])
    def test_one_unit_groups_rejected(self, norm):
        # a one-unit group normalizes to 0, so the network would be constant
        with pytest.raises(ValueError, match=r"groups \(128\)"):
            self._cfg(norm=norm, groups=128)
        self._cfg(norm=norm, groups=64)
        self._cfg(groups=128)  # vanilla ignores groups

    @pytest.mark.usefixtures("in_process")
    def test_run_larger_than_memory_refused_before_drawing(self):
        import tracemalloc

        # a sketched member holds O(N k), so only an N that big is too much
        cfg = self._cfg(width=2**31, input_dim=1_000_000, depth=3, n_init=2)
        tracemalloc.start()
        try:
            for run in (jacobian_profile, n0_correction_check,
                        lambda c: jacobian_profile([c, c], l0=1)):
                with pytest.raises(ValueError, match="physical memory"):
                    run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_memory_estimate_prices_the_drawn_layers(self):
        # the input check's shape: J^{0,2} draws only layer 1, in the span of
        # k = 8 of its 16 input columns: V, one span draw, three N x k
        # arrays and eight forward vectors of N
        n, n0, k = 4096, 16, 8
        assert _SKETCH == k
        cfg = self._cfg(width=n, input_dim=n0, depth=2)
        assert _member_bytes([cfg], 0, 2) == 8 * (n0 * k + n * (k + 2) + n * (3 * k + 8))
        # a thinner input keeps all of its columns
        thin = self._cfg(width=n, input_dim=4, depth=2)
        assert _member_bytes([thin], 0, 2) == 8 * (4 * 4 + n * (4 + 2) + n * (3 * 4 + 8))
        # a wider input is sketched to k columns; each config adds its own
        # arrays and, with a norm, 8 N per unit of its factors' rank 2 g
        wide = self._cfg(width=n, input_dim=784, depth=5, norm=NormMode.PRE_LN, groups=2)
        assert _member_bytes([wide, wide], 0, 5) == \
            8 * (784 * k + n * (k + 2) + 2 * n * (3 * k + 8 + 8 * 4))
        # a one-step mean draws no layer above l0
        assert _member_bytes([cfg], 1, 2) == 0
        # a thin run too large for the machine is still refused, naming the size
        huge = self._cfg(width=2**32, input_dim=k, depth=2)
        with pytest.raises(ValueError, match=r"about [0-9.e+]+ GiB .* physical memory"):
            n0_correction_check(huge)


class TestPostLnAgainstTheory:
    """Post-LN members against ``trace`` from the input's own kernel.

    With input std 0.5 the first kernel, about 0.65, is far from the
    sigma_w^2 + sigma_b^2 = 2.34 that every later post-LN layer sees, so
    the first block's multiplier tells the two apart (about 3.5 times in
    J^{0,2}).
    """

    HP = Hyper(1.5, 0.3)

    def _cfg(self, act, **kw):
        return EnsembleConfig(hyper=self.HP, norm=NormMode.POST_LN, act=act,
                              input_source=("gaussian", 0.0, 0.5), **kw)

    def _trace(self, cfg):
        return trace(cfg.act, NormMode.POST_LN, self.HP, cfg.depth, first_kernel(cfg))

    @pytest.mark.parametrize("act", [RELU, ERF], ids=["relu", "erf"])
    def test_profile_within_four_stderr(self, act):
        cfg = self._cfg(act, width=128, input_dim=64, depth=6, n_init=20, seed=5)
        est, tr = jacobian_profile(cfg), self._trace(cfg)
        # every member's J^{0,1} is its mean over W^1, sigma_w^2 exactly
        assert est.per_layer[1] == tr.J[1] and est.per_layer_stderr[1] == 0.0
        z = (est.per_layer[2:] - tr.J[2:]) / est.per_layer_stderr[2:]
        assert np.all(np.abs(z) <= 4.0), z

    @pytest.mark.parametrize("act", [RELU, ERF], ids=["relu", "erf"])
    def test_ntk_within_four_stderr(self, act):
        cfg = self._cfg(act, width=128, input_dim=64, depth=4, n_init=80, seed=6)
        est, tr = ensemble_ntk(cfg), self._trace(cfg)
        assert abs(est.mean - tr.theta[4]) <= 4.0 * est.stderr, (est, tr.theta[4])


class TestStreaming:
    """Layers are drawn one at a time, once per member for every config."""

    def _cfg(self, **kw):
        base = dict(width=48, input_dim=16, depth=6, n_init=2, seed=77,
                    hyper=Hyper(1.3, 0.4), act=GELU)
        base.update(kw)
        return EnsembleConfig(**base)

    def _batch(self):
        return [
            self._cfg(),
            self._cfg(act=ERF, norm=NormMode.PRE_LN, hyper=Hyper(1.1, 0.2)),
            self._cfg(act=RELU, norm=NormMode.POST_LN,
                      input_source=("gaussian", 0.0, 0.6)),
        ]

    def test_layers_reproduce_the_golden_draw(self):
        # math.fsum and the leading entries of the materialized draw of
        # [5, 7, 3] at seed 17, member 1, before layers were streamed
        golden = [
            (-9.494355678410475, [-0.9325572541645556, -0.6837847384318761]),
            (1.178326769779499, [0.3680246599082732, 0.964734091079519]),
            (3.8403771789469294, [0.5350281288614901, 0.45254551968142315]),
            (1.9139743228631139, [0.2851925319855623, 0.6399690110610416]),
        ]
        params = NetworkParams.draw([5, 7, 3], seed=17, init_index=1)
        drawn = [a for l in (1, 2) for a in params.layer(l)]
        assert [a.shape for a in drawn] == [(7, 5), (7,), (3, 7), (3,)]
        for a, (total, head) in zip(drawn, golden):
            assert math.fsum(a.ravel()) == total
            assert a.ravel()[:2].tolist() == head
        again = params.layer(2)
        assert np.array_equal(again[0], drawn[2]) and np.array_equal(again[1], drawn[3])
        assert np.array_equal(params.weights[1], drawn[2])
        assert np.array_equal(params.biases[0], drawn[1])

    @pytest.mark.parametrize("norm", ALL_MODES)
    @pytest.mark.usefixtures("in_process")
    def test_peak_memory_below_eight_layers(self, norm):
        import tracemalloc

        cfg = EnsembleConfig(width=256, input_dim=256, depth=40, n_init=1, seed=3,
                             hyper=Hyper(1.3, 0.4), act=GELU, norm=norm)
        layer_bytes = 256 * 256 * 8
        for run in (empirical_chi, jacobian_profile):
            tracemalloc.start()
            try:
                run(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * layer_bytes, (run.__name__, peak / layer_bytes)

    @pytest.mark.parametrize("norm, bits", [
        (NormMode.VANILLA, "0x1.4c641ea1fd521p+0"), (NormMode.PRE_LN, "0x1.4fb78f2878d88p+4"),
        (NormMode.POST_LN, "0x1.57fe567ff9264p+8"),
    ], ids=["vanilla", "pre-ln", "post-ln"])
    @pytest.mark.usefixtures("in_process")
    def test_explicit_ntk_peak_memory_below_eight_layers(self, norm, bits):
        # the dense NTK draws its forward pass a layer at a time and each W^l
        # again on the way down, so it holds one weight matrix at a time:
        # 3.1 layers measured vanilla and 5.3 in the normalizing modes (the
        # forward record and all N_L gradient rows), where a copy of the
        # network held 14-17; the value keeps the bits it had with that copy
        import tracemalloc

        params = NetworkParams.draw([256] + [256] * 12, seed=3)
        x = np.random.default_rng(1).normal(size=256)
        layer_bytes = 256 * 256 * 8
        tracemalloc.start()
        try:
            got = empirical_ntk(params, GELU, Hyper(1.3, 0.4), norm, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.hex() == bits
        assert peak < 8 * layer_bytes, peak / layer_bytes

    @pytest.mark.parametrize("norm", ALL_MODES)
    @pytest.mark.usefixtures("in_process")
    def test_one_step_peak_memory_below_a_fifth_of_a_layer(self, norm):
        # the one-step mean draws no layer above l0 and needs only the thin
        # factors of one block; 54 KiB measured in the normalizing modes
        import tracemalloc

        cfg = EnsembleConfig(width=256, input_dim=256, depth=40, n_init=1, seed=3,
                             hyper=Hyper(1.3, 0.4), act=GELU, norm=norm)
        layer_bytes = 256 * 256 * 8
        tracemalloc.start()
        try:
            empirical_chi(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.2 * layer_bytes, peak / layer_bytes

    @pytest.mark.parametrize("norm, groups", [
        (NormMode.VANILLA, 1), (NormMode.PRE_LN, 1), (NormMode.POST_LN, 2),
    ])
    @pytest.mark.usefixtures("in_process")
    def test_profile_member_peaks_below_its_estimate(self, norm, groups):
        # a sketched member carries k = 8 of the 784 input columns: its
        # draws, tangents and factors are O(N k), 1.1, 1.4 and 1.9 MB
        # measured at width 4096 (vanilla, pre-LN, post-LN g 2), where one
        # layer is 134 MB and an unsketched tangent 26 MB
        import tracemalloc

        cfg = EnsembleConfig(width=4096, input_dim=784, depth=6, n_init=1, seed=3,
                             hyper=Hyper(1.3, 0.4), act=GELU, norm=norm, groups=groups)
        need = _member_bytes([cfg], 0, 6)
        assert need < 4096 * 784 * 8 / 4
        GELU(np.zeros(1))  # scipy's erf loads outside the traced run
        tracemalloc.start()
        try:
            jacobian_profile(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= need, (peak, need)

    @pytest.mark.parametrize("norm", ALL_MODES)
    @pytest.mark.usefixtures("in_process")
    def test_one_step_peak_memory_below_a_sixteenth_of_a_layer(self, norm):
        # 258 KiB measured in the normalizing modes
        import tracemalloc

        cfg = EnsembleConfig(width=1024, input_dim=256, depth=40, n_init=1, seed=3,
                             hyper=Hyper(1.3, 0.4), act=GELU, norm=norm, groups=2)
        tracemalloc.start()
        try:
            empirical_chi(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024 * 8 / 16, peak / (1024 * 1024 * 8)

    @pytest.mark.usefixtures("in_process")
    def test_width_4096_input_check_peak_below_8_mb(self):
        # the check draws only layer 1, in the span of its 16 input columns
        # (4096 x 17 normals, 0.6 MB), and integrates layer 2 out
        import tracemalloc

        cfg = EnsembleConfig(width=4096, input_dim=16, depth=2, n_init=1, seed=3,
                             hyper=Hyper(1.0, 0.0), act=ERF)
        tracemalloc.start()
        try:
            n0_correction_check(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak

    @pytest.mark.parametrize("l0, layers", [(0, 1.25), (1, 3.25)])
    @pytest.mark.usefixtures("in_process")
    def test_explicit_profile_holds_one_layer_at_a_time(self, l0, layers):
        # each layer is drawn whole, 1024 x 1024 (8.4 MB), and dropped once
        # its products are formed, before the next is drawn: 1.03 layers
        # measured at the peak from l0 = 0.  From l0 = 1 the tangent is
        # 1024 x 1024 too, and two of them sit beside the layer: 3.0
        # measured, where W kept through the norm's squares gave 4.0
        import tracemalloc

        params = NetworkParams.draw([16, 1024, 1024, 1024, 1024], seed=3)
        x = np.random.default_rng(4).normal(size=16)
        layer_bytes = 1024 * 1024 * 8
        ERF(np.zeros(1))  # scipy's erf loads outside the traced run
        tracemalloc.start()
        try:
            partial_jacobian_norm(params, ERF, Hyper(1.0, 0.0), NormMode.VANILLA, x, l0, 4,
                                  profile=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < layers * layer_bytes, peak / layer_bytes

    @pytest.mark.usefixtures("in_process")
    def test_explicit_network_too_large_refused_before_drawing(self, monkeypatch):
        # a 2^31-wide handle allocates nothing; drawing a layer of it would fail
        import tracemalloc

        def never(self, l):
            raise AssertionError(f"layer {l} drawn")

        monkeypatch.setattr(NetworkParams, "layer", never)
        params = NetworkParams.draw([4, 2**31, 2**31, 4], seed=0)
        x, hp = np.ones(4), Hyper(1.0, 0.0)
        tracemalloc.start()
        try:
            for run in (lambda: forward(params, ERF, hp, NormMode.VANILLA, x),
                        lambda: partial_jacobian_norm(params, ERF, hp, NormMode.PRE_LN, x, 0, 3,
                                                      profile=True),
                        lambda: partial_jacobian_norm(params, ERF, hp, NormMode.VANILLA, x, 2, 3)):
                with pytest.raises(ValueError, match=r"about [0-9.e+]+ GiB .* physical memory"):
                    run()
            # the exact NTK's size guard refuses it first
            with pytest.raises(ValueError, match="width 256"):
                empirical_ntk(params, ERF, hp, NormMode.VANILLA, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @staticmethod
    def _count_draws(monkeypatch) -> dict:
        """Record the layer of every whole (``layer``), lean (``conditional``
        at k = 0) and span (``span``: ``conditional`` at k > 0) draw, and
        the l0 of every sketch."""
        calls = {"layer": [], "conditional": [], "span": [], "sketch": []}
        for name in ("layer", "conditional", "sketch"):
            def counted(self, l, *args, name=name, draw=getattr(NetworkParams, name)):
                span = name == "conditional" and args and args[0] > 0
                calls["span" if span else name].append(l)
                return draw(self, l, *args)

            monkeypatch.setattr(NetworkParams, name, counted)
        return calls

    @pytest.mark.parametrize("l0, l", [(4, 5), (0, 6), (2, 6), (0, 1), (1, 3)])
    @pytest.mark.usefixtures("in_process")
    def test_shared_draw_counts(self, l0, l, monkeypatch):
        # 2 members, three configs: J^{l0,l} takes a lean step on layers
        # 1..l0 and a span draw on layers l0+1..l-1, each one draw for all
        # three configs in all three modes, and averages over layer l; no
        # layer is drawn whole, and layer l and above are never drawn
        calls = self._count_draws(monkeypatch)
        _swept(self._batch(), l0, l)
        assert sorted(calls["conditional"]) == sorted(list(range(1, l0 + 1)) * 2)
        assert sorted(calls["span"]) == sorted(list(range(l0 + 1, l)) * 2)
        # one sketch per member, and none for a one-step mean
        assert calls["sketch"] == ([l0] * 2 if l > l0 + 1 else [])
        assert not calls["layer"]
        for name in calls:
            calls[name].clear()
        jacobian_profile(self._batch(), l0=l0)
        # a profile draws layers l0+1..L-1 in their span, and never layer L
        assert sorted(calls["conditional"]) == sorted(list(range(1, l0 + 1)) * 2)
        assert sorted(calls["span"]) == sorted(list(range(l0 + 1, 6)) * 2)
        assert not calls["layer"]

    @pytest.mark.usefixtures("in_process")
    def test_explicit_networks_draw_every_weight(self, monkeypatch):
        calls = self._count_draws(monkeypatch)
        params = NetworkParams.draw([4, 48, 48, 48], seed=7)
        x = np.random.default_rng(8).normal(size=4)
        for norm in ALL_MODES:
            forward(params, GELU, Hyper(1.3, 0.4), norm, x)
            partial_jacobian_norm(params, GELU, Hyper(1.3, 0.4), norm, x, 0, 3, profile=True)
            for l0 in (0, 1, 2):
                # the dense oracle of the drivers' means: it draws its last layer
                calls["layer"].clear()
                partial_jacobian_norm(params, RELU, Hyper(1.4, 0.0), norm, x, l0, l0 + 1)
                assert calls["layer"] == list(range(1, l0 + 2))
            empirical_ntk(params, GELU, Hyper(1.3, 0.4), norm, x)
        assert not calls["conditional"] and not calls["span"] and not calls["sketch"]

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    @pytest.mark.parametrize("input_dim", [16, 4])
    def test_batch_bit_identical_to_single_runs(self, workers, input_dim, monkeypatch):
        cfgs = [replace(c, input_dim=input_dim) for c in self._batch()]
        runs = (empirical_chi, jacobian_profile, lambda c: jacobian_profile(c, l0=1),
                _end_to_end)
        monkeypatch.setenv("JACPROP_WORKERS", "1")
        want = [[_bits(run(cfg)) for cfg in cfgs] for run in runs]
        monkeypatch.setenv("JACPROP_WORKERS", workers)
        for run, bits in zip(runs, want):
            assert [_bits(e) for e in run(cfgs)] == bits
            assert [_bits(run(cfg)) for cfg in cfgs] == bits

    def test_concurrent_drivers_share_one_pool(self, monkeypatch):
        # every driver call with 3 workers hands its members' ranges to the
        # same kept process pool; callers on other threads must still get
        # their own bits
        import sys
        from concurrent.futures import ThreadPoolExecutor

        import jacprop.ensemble as ens

        monkeypatch.setenv("JACPROP_WORKERS", "3")
        cfgs = [replace(cfg, n_init=3) for cfg in self._batch()]
        want = [_bits(empirical_chi(cfg)) for cfg in cfgs] * 2
        pool = ens._pool(3)
        assert pool is not None and empirical_chi(cfgs[0]).workers == 3
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as callers:
                futures = [callers.submit(empirical_chi, cfg) for cfg in cfgs * 2]
                got = [_bits(f.result(timeout=60)) for f in futures]
        finally:
            sys.setswitchinterval(old)
        assert got == want
        assert ens._pool(3) is pool

    def test_pool_that_cannot_start_leaves_members_in_this_process(self, monkeypatch):
        import errno

        import jacprop.ensemble as ens

        cfg = self._cfg()
        monkeypatch.setenv("JACPROP_WORKERS", "1")
        want = [_bits(jacobian_profile(cfg)), _bits(ensemble_ntk(cfg))]

        def refused():
            raise OSError(errno.EAGAIN, "fork refused")

        monkeypatch.setattr(ens, "_POOLS", {})  # a cache of this test's own
        monkeypatch.setattr(os, "fork", refused)
        monkeypatch.setenv("JACPROP_WORKERS", "2")
        got = [jacobian_profile(cfg), ensemble_ntk(cfg)]
        assert [_bits(e) for e in got] == want
        assert [e.workers for e in got] == [1, 1]
        assert ens._POOLS == {(os.getpid(), 2): None}  # remembered: no second try

    def test_pool_whose_worker_died_is_replaced(self, monkeypatch):
        import signal
        import time

        import jacprop.ensemble as ens

        cfg = self._cfg()
        monkeypatch.setenv("JACPROP_WORKERS", "1")
        want = _bits(empirical_chi(cfg))
        monkeypatch.setattr(ens, "_POOLS", {})
        monkeypatch.setenv("JACPROP_WORKERS", "2")
        first = ens._pool(2)
        try:
            os.kill(next(iter(first._processes)), signal.SIGKILL)
            deadline = time.monotonic() + 30
            while not first._broken and time.monotonic() < deadline:
                time.sleep(0.01)
            # the call that finds the pool broken runs its members here
            est = empirical_chi(cfg)
            assert _bits(est) == want and est.workers == 1
            est = empirical_chi(cfg)
            assert _bits(est) == want and est.workers == 2
            assert ens._pool(2) is not first
        finally:
            for pool in filter(None, ens._POOLS.values()):
                pool.shutdown()

    def test_one_pool_per_worker_count(self, monkeypatch):
        # runs of 2 and then 3 members on 3 workers share one kept pool of 3
        # processes; the run of 2 uses two of them
        import multiprocessing

        import jacprop.ensemble as ens

        monkeypatch.setattr(ens, "_POOLS", {})
        monkeypatch.setenv("JACPROP_WORKERS", "3")
        before = {p.pid for p in multiprocessing.active_children()}
        try:
            ests = [empirical_chi(self._cfg(n_init=n)) for n in (2, 3)]
            assert [e.workers for e in ests] == [2, 3]
            assert len(ens._POOLS) == 1
            started = [p for p in multiprocessing.active_children() if p.pid not in before]
            assert len(started) == 3
        finally:
            for pool in filter(None, ens._POOLS.values()):
                pool.shutdown()

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
    @pytest.mark.parametrize("end", ["exit", "kill", "interrupt"])
    def test_pool_workers_end_with_their_parent(self, end):
        # a fresh interpreter runs a 2-member driver on 2 workers and prints
        # their pids; it then exits, is killed, or is interrupted in a run
        # whose ranges would take minutes, and the workers must not
        # outlive it
        import signal
        import time

        code = (
            "import multiprocessing, sys\n"
            "from jacprop import EnsembleConfig, Hyper, jacobian_profile\n"
            "cfg = EnsembleConfig(width=16, input_dim=4, depth=3, n_init=2, seed=1,\n"
            "                     hyper=Hyper(1.0, 0.0))\n"
            "print(jacobian_profile(cfg).workers,\n"
            "      *(p.pid for p in multiprocessing.active_children()), flush=True)\n"
            "if sys.stdin.readline() == 'run\\n':\n"
            "    jacobian_profile(EnsembleConfig(width=1000, input_dim=128, depth=250,\n"
            "                                    n_init=4000, seed=1, hyper=Hyper(1.0, 0.0)))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, JACPROP_WORKERS="2",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        try:
            workers, *pids = map(int, proc.stdout.readline().split())
            if end == "exit":
                proc.stdin.close()
            elif end == "kill":
                proc.kill()
            else:
                proc.stdin.write("run\n")
                proc.stdin.flush()
                time.sleep(1.0)
                proc.send_signal(signal.SIGINT)
            proc.wait(timeout=30)
        finally:
            proc.kill()
            proc.stdin.close()
            proc.stdout.close()
        assert workers == 2 and len(pids) == 2

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as f:
                    state = f.read().rsplit(")", 1)[1].split()[0]
            except FileNotFoundError:
                return False
            return state != "Z"  # a zombie has ended, and waits to be reaped

        deadline = time.monotonic() + 20
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, pids)), pids

    def test_a_multiprocessing_child_runs_its_members_itself(self):
        # a child forked by multiprocessing once found its parent's pool
        # and waited on it forever; a daemon may not start a pool, and any
        # other child joins its pool's workers at exit before shutting
        # the pool down
        code = (
            "import multiprocessing, os\n"
            "from jacprop import EnsembleConfig, Hyper, empirical_chi\n"
            "cfg = EnsembleConfig(width=64, input_dim=16, depth=6, n_init=4, seed=5,\n"
            "                     hyper=Hyper(1.2, 0.3))\n"
            "def run(_=None):\n"
            "    est = empirical_chi(cfg)\n"
            "    return est.mean.hex(), est.workers\n"
            "def child(queue):\n"
            "    queue.put(run())\n"
            "if __name__ == '__main__':\n"
            "    ctx = multiprocessing.get_context('fork')\n"
            "    print(*run())\n"
            "    with ctx.Pool(1) as daemons:\n"
            "        print(*daemons.map(run, [0])[0])\n"
            "    queue = ctx.Queue()\n"
            "    proc = ctx.Process(target=child, args=(queue,))\n"
            "    proc.start()\n"
            "    print(*queue.get(timeout=60))\n"
            "    proc.join(60)\n"
            "    print(proc.exitcode)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, JACPROP_WORKERS="2",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        parent, daemon, child, exitcode = done.stdout.splitlines()
        bits = parent.split()[0]
        assert parent == f"{bits} 2" and daemon == child == f"{bits} 1" and exitcode == "0"

    def test_batch_must_share_the_draw(self):
        with pytest.raises(ValueError, match="seed"):
            empirical_chi([self._cfg(), self._cfg(seed=78)])
        with pytest.raises(ValueError):
            jacobian_profile([])

    @pytest.mark.parametrize("value", ["two", "0", "-1", ""])
    def test_malformed_worker_count_raises(self, value, monkeypatch):
        monkeypatch.setenv("JACPROP_WORKERS", value)
        with pytest.raises(ValueError, match="JACPROP_WORKERS"):
            empirical_chi(self._cfg())


class DenseNetwork:
    """A network held as ``drawn[l] = (W^l, b^l)``, which the
    explicit-network functions draw as they draw any layer."""

    def layer(self, l):
        return self.drawn[l]


class MemberNetwork(DenseNetwork):
    """A driver's member made dense, from the member's own draws.

    Layers up to l0 are W^l = xi^l zhat^{l-1 T}, with (xi^l, b^l) the
    member's lean draws and zhat^{l-1} the unit activation that reaches
    layer l, so W^l z^{l-1} = |z^{l-1}| xi^l.  Above l0 the member's tangent
    starts at its sketch ``V``, and W^l = Xi^l R A^+ for A = [z^{l-1},
    B^{l-1} T^{l-1} V] composed densely, (Xi^l, b^l) the member's span
    draw and R = ``_span_root`` of A's columns: so W^l A = Xi^l R, the
    member's sample, whatever the rank of A (R's rows lie in A's row
    space).  The explicit-network functions run on it as on any
    ``NetworkParams``.
    """

    def __init__(self, cfg: EnsembleConfig, l0: int, member: int = 0):
        self.params = NetworkParams.draw(cfg.layer_dims, cfg.seed, member)
        self.layer_dims, self.depth = self.params.layer_dims, self.params.depth
        dims, hp = self.layer_dims, cfg.hyper
        k = min(_SKETCH, dims[l0])
        self.V = self.params.sketch(l0, k)
        self.drawn = {}
        z, M, B = resolve_input(cfg, member), self.V, np.eye(dims[0])
        for l in range(1, self.depth + 1):
            scale = hp.sigma_w / math.sqrt(dims[l - 1])
            if l <= l0:
                xi, b = self.params.conditional(l)
                size = np.linalg.norm(z)
                W = np.outer(xi[:, 0], z / size if size else z)
            else:
                F = B @ M  # B^{l-1} T^{l-1} V, with T^{l0} V = V
                xi, b = self.params.conditional(l, k)
                # a rank-deficient A (zero input, z in the span of F) leaves
                # singular values at rounding: cut them off, as R does
                W = xi @ _span_root(z, F) @ np.linalg.pinv(np.column_stack([z, F]), rcond=1e-10)
                M = scale * W @ F
            self.drawn[l] = (W, b)
            h = scale * (W @ z) + hp.sigma_b * b
            z = _Block(cfg.act, cfg.norm, cfg.groups, h).z
            B = dense_block(cfg.act, cfg.norm, cfg.groups, h)[0]


def dense_carried(net, cfg, x, l0, l):
    """B^{l-1} T^{l-1} of a :class:`MemberNetwork` as a dense matrix: T^{l-1}
    = (d h^{l-1} / d h^{l0}) V composed from :func:`dense_block` and the
    drawn weights, with the member's sketch V and B^0 = I, and T^{l0} = I
    at l = l0 + 1, whose mean the drivers read off the block exactly.  A
    single J^{l0, l} of the network, with its tangent started there, is
    (sigma_w^2 / N_l) |W^l (B T) / sqrt(N_{l-1})|_F^2."""
    dims, hp = net.layer_dims, cfg.hyper
    hs = forward(net, cfg.act, hp, cfg.norm, x, cfg.groups)

    def block(m):
        return dense_block(cfg.act, cfg.norm, cfg.groups, hs[m])[0] if m else np.eye(dims[0])

    M = net.V if l > l0 + 1 else np.eye(dims[l0])
    for m in range(l0 + 1, l):
        M = hp.sigma_w / math.sqrt(dims[m - 1]) * net.layer(m)[0] @ (block(m - 1) @ M)
    return block(l - 1) @ M


def dense_mean(net, cfg, x, l0, l):
    """The mean of J^{l0, l} over W^l given an explicit network's layers
    below l, (sigma_w^2 / N_{l-1}) |B T|_F^2 from :func:`dense_carried`."""
    BT = dense_carried(net, cfg, x, l0, l)
    return cfg.hyper.sw2 * float(np.sum(BT * BT)) / net.layer_dims[l - 1]


class TestConditionalLaw:
    """Each drawn layer is an exact sample of what the drivers read off it:
    its single-input law up to l0, the whole layer above; every J^{l0, l}
    is its exact mean over layer l."""

    def _cfg(self, **kw):
        base = dict(width=24, input_dim=10, depth=6, n_init=1, seed=41,
                    hyper=Hyper(1.3, 0.4), act=GELU)
        base.update(kw)
        return EnsembleConfig(**base)

    def test_conditional_draw_is_two_blocks_from_the_layer_stream(self):
        params = NetworkParams.draw([5, 7, 3], seed=17, init_index=1)
        for k in (0, 2):
            xi, b = params.conditional(2, k)
            rng = np.random.Generator(np.random.PCG64(params.stream(2)))
            both = rng.standard_normal(3 * (k + 2))
            assert xi.shape == (3, k + 1) and b.shape == (3,)
            assert np.array_equal(xi.ravel(), both[:3 * (k + 1)])
            assert np.array_equal(b, both[3 * (k + 1):])
            # the one call reads the stream as a call for Xi, then one for b
            rng = np.random.Generator(np.random.PCG64(params.stream(2)))
            two = rng.standard_normal((3, k + 1)), rng.standard_normal(3)
            assert xi.tobytes() == two[0].tobytes() and b.tobytes() == two[1].tobytes()
            # Xi opens the stream the weights open: the first entries of W^2
            assert np.array_equal(xi.ravel(), params.layer(2)[0].ravel()[:3 * (k + 1)])
        assert params.conditional(2)[0].tobytes() == params.conditional(2, 0)[0].tobytes()

    @pytest.mark.parametrize("zero_column", [False, True])
    def test_span_root_factors_the_gram(self, zero_column):
        rng = np.random.default_rng(5)
        F = rng.normal(size=(40, 6)) * np.logspace(-6, 2, 6)  # graded column scales
        z = F @ rng.normal(size=6)  # rank-deficient: z in the span of F
        if zero_column:
            F[:, 2] = 0.0
        A = np.column_stack([z, F])
        R = _span_root(z, F)
        G = A.T @ A
        d = np.sqrt(np.diag(G))
        # every entry to rounding relative to its own columns' sizes
        assert np.all(np.abs(R.T @ R - G) <= 1e-13 * np.outer(d, d) + 1e-300)
        # R has A's rank, and a zero column of A gives exactly a zero column
        scaled = R / np.where(d > 0, d, 1.0)
        assert np.linalg.matrix_rank(scaled, tol=1e-8) == np.linalg.matrix_rank(A)
        if zero_column:
            assert not R[:, 3].any()

    def test_span_root_moves_with_its_columns(self):
        # z orthogonal to F, as post-LN leaves it, so z^T F is rounding: a
        # 1e-15 change of z flips eigh's eigenvector signs (an R of the form
        # diag(sqrt e) V^T moved by up to 30 in 200 draws), the principal
        # root by rounding only
        rng = np.random.default_rng(6)
        for _ in range(200):
            F = rng.normal(size=(40, 6))
            z = rng.normal(size=40)
            z -= F @ np.linalg.lstsq(F, z, rcond=None)[0]
            R = _span_root(z, F)
            moved = _span_root(z + 1e-15 * rng.normal(size=40), F)
            assert np.abs(moved - R).max() <= 1e-12 * np.abs(R).max()

    @pytest.mark.parametrize("n, k", [(10, 4), (24, 16), (4, 4)])
    def test_sketch_is_scaled_orthonormal_from_a_stream_of_its_own(self, n, k):
        # V^T V = (N_{l0} / k) I, so E V V^T = I; at k = N_{l0}, V is orthogonal
        params = NetworkParams.draw([n, 7, 6], seed=17, init_index=1)
        V = params.sketch(0, k)
        assert V.shape == (n, k)
        assert np.allclose(V.T @ V, (n / k) * np.eye(k), rtol=0, atol=1e-13 * n / k)
        if k == n:
            assert np.allclose(V @ V.T, np.eye(n), rtol=0, atol=1e-13)
        assert V.tobytes() == params.sketch(0, k).tobytes()
        # keyed by (seed, member) alone: the same for any l0 of that width
        assert V.tobytes() == NetworkParams.draw([7, n, 5], seed=17, init_index=1).sketch(1, k).tobytes()
        # its normals are no layer's, reverse draw's, input's or other member's
        gauss = np.linalg.qr(V)[0]  # the same columns, up to signs
        seen = [a.ravel() for l in (1, 2) for a in params.layer(l)]
        seen += [params.reverse(l, 3).ravel() for l in (1, 2)]
        cfg = EnsembleConfig(width=7, input_dim=n, depth=2, n_init=1, seed=17,
                             hyper=Hyper(1.0, 0.0))
        seen += [resolve_input(cfg, 1), resolve_input(cfg, 0)]
        seen.append(NetworkParams.draw([n, 7, 6], seed=17, init_index=2).sketch(0, k).ravel())
        own = np.random.SeedSequence(17, spawn_key=(3, 1))
        draw = np.random.Generator(np.random.PCG64(own)).standard_normal((n, k))
        assert np.allclose(np.abs(gauss.T @ np.linalg.qr(draw)[0]), np.eye(k), atol=1e-12)
        assert not np.isin(draw, np.concatenate(seen)).any()
        assert not np.isin(V, np.concatenate(seen)).any()

    @pytest.mark.parametrize("norm", ALL_MODES)
    @pytest.mark.parametrize("groups", [1, 2])
    def test_rank_one_network_reproduces_a_member(self, norm, groups):
        cfg = self._cfg(norm=norm, groups=groups)
        x = resolve_input(cfg, 0)
        args = (cfg.act, cfg.hyper, norm, x)
        L = cfg.depth
        # empirical_chi: the mean of J^{L-2, L-1} over W^{L-1}, (sigma_w^2 /
        # N) |B|_F^2 for the block built densely on the member's h^{L-2}
        h = forward(MemberNetwork(cfg, L - 2), *args, groups)[L - 2]
        B = dense_block(cfg.act, norm, groups, h)[0]
        want = cfg.hyper.sw2 * float(np.sum(B * B)) / cfg.width
        assert empirical_chi(cfg).mean == pytest.approx(want, rel=1e-10)
        # jacobian_profile from l0 = 2 and a single J^{l0,l}: at every layer
        # l, the member network's (sigma_w^2 / N) |B T|_F^2, composed densely
        # below layer l; exactly sigma_w^2 for J^{0,1}
        dense = MemberNetwork(cfg, 2)
        got = jacobian_profile(cfg, l0=2).per_layer
        assert np.isnan(got[:3]).all()
        for l in range(3, L + 1):
            assert got[l] == pytest.approx(dense_mean(dense, cfg, x, 2, l), rel=1e-10), l
        assert _swept([cfg], 0, 1)[0][0, 1] == cfg.hyper.sw2
        for l0, l in ((2, L), (0, 2), (0, L), (3, 5)):
            want = dense_mean(MemberNetwork(cfg, l0), cfg, x, l0, l)
            assert _swept([cfg], l0, l)[0][0, l] == pytest.approx(want, rel=1e-10), (l0, l)

    @pytest.mark.parametrize("norm", ALL_MODES)
    @pytest.mark.parametrize("groups", [1, 2])
    def test_profile_entries_are_the_single_jacobians(self, norm, groups):
        # one rule for every driver measurement: a profile's entry l is the
        # single J^{l0,l}, member by member and in its estimate, bit for bit;
        # nine members sum pairwise, not in one running sum
        cfg = self._cfg(norm=norm, groups=groups, n_init=9)
        L = cfg.depth
        for l0 in range(L):
            (rows,) = _swept([cfg], l0, L)
            prof = jacobian_profile(cfg, l0=l0)
            for l in range(l0 + 1, L + 1):
                single = _swept([cfg], l0, l)[0][:, l]
                assert rows[:, l].tobytes() == single.tobytes(), (l0, l)
                est = _scalar_estimate(single)
                assert (prof.per_layer[l], prof.per_layer_stderr[l]) == (est.mean, est.stderr)
        chi = empirical_chi(cfg)
        prof = jacobian_profile(cfg, l0=L - 2)
        assert (prof.per_layer[L - 1], prof.per_layer_stderr[L - 1]) == (chi.mean, chi.stderr)
        # at l0 = 0, B^0 = T^0 = I: every member reads sigma_w^2 at layer 1
        prof = jacobian_profile(cfg)
        assert (prof.per_layer[1], prof.per_layer_stderr[1]) == (cfg.hyper.sw2, 0.0)

    @pytest.mark.parametrize("norm", ALL_MODES)
    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("act, hp, source, n0", [
        (GELU, Hyper(1.3, 0.4), ("gaussian", 0.0, 1.0), 4),
        (RELU, Hyper(1.4, 0.0), ("gaussian", 0.0, 1.0), 4),
        (GELU, Hyper(1.3, 0.4), ("array", (0.0,) * 4), 4),
        (RELU, Hyper(1.4, 0.0), ("gaussian", 0.0, 1.0), 40),
    ], ids=["gelu", "relu-sb0", "zero-input", "relu-sb0-sketched"])
    def test_thin_network_reproduces_a_member(self, norm, groups, act, hp, source, n0):
        # 4 input columns on width 48: the tangent of J^{0,l} is 4 columns
        # wide (V orthogonal), z lies in their span for a vanilla ReLU, and a
        # zero input leaves only the biases; 40 input columns are sketched
        # to 8.  Every single J^{0,l} is the member network's (sigma_w^2 /
        # N_{l-1}) |B T V|_F^2, exactly sigma_w^2 at l = 1
        cfg = self._cfg(width=48, input_dim=n0, act=act, hyper=hp, norm=norm,
                        groups=groups, input_source=source)
        x = resolve_input(cfg, 0)
        dense = MemberNetwork(cfg, 0)
        profile = jacobian_profile(cfg).per_layer
        for l in range(1, cfg.depth + 1):
            want = dense_mean(dense, cfg, x, 0, l)
            assert _swept([cfg], 0, l)[0][0, l] == pytest.approx(want, rel=1e-10), l
            assert profile[l] == pytest.approx(want, rel=1e-10), l

    @staticmethod
    def _dense_members(cfg, l0, l):
        """J^{l0,l} of dense members on another seed, at the drivers' input."""
        x = resolve_input(cfg, 0)
        return np.array([
            partial_jacobian_norm(NetworkParams.draw(cfg.layer_dims, 1003, i),
                                  cfg.act, cfg.hyper, cfg.norm, x, l0, l)
            for i in range(cfg.n_init)
        ])

    @staticmethod
    def _same_mean(members, dense):
        """Means within 4 combined standard errors."""
        se = math.hypot(members.std(ddof=1), dense.std(ddof=1)) / math.sqrt(len(members))
        assert abs(members.mean() - dense.mean()) <= 4 * se, (members.mean(), dense.mean())

    @pytest.mark.parametrize("norm, act, hp", [
        (NormMode.VANILLA, ERF, Hyper(2.0, 0.3)),
        (NormMode.PRE_LN, RELU, Hyper(1.4, 0.6)),
        (NormMode.POST_LN, GELU, Hyper(1.2, 0.2)),
    ])
    def test_member_law_matches_materialized_networks(self, norm, act, hp):
        # J^{3,5} depends on layers 1..3 only through h^3.  A member is a
        # conditional mean over W^5, narrower than a dense member by design,
        # so only the means compare
        cfg = EnsembleConfig(width=12, input_dim=6, depth=5, n_init=400, seed=3,
                             hyper=hp, norm=norm, act=act)
        (members,) = _swept([cfg], 3, 5)
        self._same_mean(members[:, 5], self._dense_members(cfg, 3, 5))

    @pytest.mark.parametrize("norm", ALL_MODES)
    @pytest.mark.parametrize("groups", [1, 2])
    def test_sketched_profile_means_match_explicit_members(self, norm, groups):
        # 40 input columns sketched to 8: a member is the conditional mean
        # over W^l given V and the layers below, so only the means compare,
        # against explicit members on another seed
        assert _SKETCH < 40
        cfg = EnsembleConfig(width=24, input_dim=40, depth=4, n_init=500, seed=3,
                             hyper=Hyper(1.3, 0.3), act=GELU, norm=norm, groups=groups)
        x = resolve_input(cfg, 0)
        est = jacobian_profile(cfg)
        dense = np.array([
            partial_jacobian_norm(NetworkParams.draw(cfg.layer_dims, 1003, i), cfg.act,
                                  cfg.hyper, norm, x, 0, 4, groups, profile=True)
            for i in range(cfg.n_init)
        ])
        assert est.per_layer[1] == cfg.hyper.sw2
        for l in (2, 3, 4):
            se = math.hypot(est.per_layer_stderr[l], dense[:, l].std(ddof=1) / math.sqrt(500))
            assert abs(est.per_layer[l] - dense[:, l].mean()) <= 4 * se, (l, est.per_layer[l])

    @pytest.mark.parametrize("act, hp, l0", [
        (ERF, Hyper(2.0, 0.3), 3),
        (RELU, Hyper(1.4, 0.0), 3),
        (GELU, Hyper(1.2, 0.2), 0),
    ])
    def test_one_step_member_mean_matches_materialized_networks(self, act, hp, l0):
        # a one-step member is a conditional mean, narrower than a sample by
        # design, so only the means compare
        cfg = EnsembleConfig(width=12, input_dim=6, depth=5, n_init=400, seed=3,
                             hyper=hp, act=act)
        (members,) = _swept([cfg], l0, l0 + 1)
        self._same_mean(members[:, l0 + 1], self._dense_members(cfg, l0, l0 + 1))

    @pytest.mark.parametrize("norm", ALL_MODES)
    @pytest.mark.parametrize("act", [RELU, ERF, GELU], ids=["relu", "erf", "gelu"])
    @pytest.mark.parametrize("n, groups", [(24, 1), (24, 2), (4, 2)])
    def test_factor_norm_is_the_dense_blocks(self, act, norm, n, groups):
        # (4, 2) has two-unit groups, whose Jacobian nearly vanishes: there
        # the terms are held to 1e-12 of their size before they cancel
        h = np.random.default_rng(15).normal(scale=1.3, size=n) + 0.2
        B, lam = dense_block(act, norm, groups, h)
        size = n * float(np.max(lam**2)) if n // groups == 2 else 0.0
        got = _Block(act, norm, groups, h).frobenius_sq()
        assert got == pytest.approx(float(np.sum(B * B)), rel=1e-12, abs=1e-12 * size)

    @pytest.mark.parametrize("norm", ALL_MODES)
    @pytest.mark.parametrize("l0, l", [(4, 5), (0, 2), (3, 5)])
    def test_mean_over_fresh_top_layers(self, norm, l0, l):
        # one member below layer l, made dense; J^{l0, l} over 2000 fresh W^l
        # averages to the driver's value for that member: the one-step
        # empirical_chi (l0 = L - 2) and two-step single J^{l0, l0+2}
        cfg = self._cfg(norm=norm, groups=2)
        n = cfg.width
        BT = dense_carried(MemberNetwork(cfg, l0), cfg, resolve_input(cfg, 0), l0, l)
        W = np.random.default_rng(16).standard_normal((2000, n, n))
        J = cfg.hyper.sw2 / n * np.sum((W @ BT) ** 2, axis=(1, 2)) / n
        got = empirical_chi(cfg).mean if l0 == cfg.depth - 2 else _swept([cfg], l0, l)[0][0, l]
        assert abs(J.mean() - got) <= 4 * J.std(ddof=1) / math.sqrt(J.size), (J.mean(), got)


class NtkMemberNetwork(DenseNetwork):
    """An ``ensemble_ntk`` member made dense from its own draws, on a net
    whose k rows of d h^L / d h^l are all N_L of them.

    W^l = v^l z^{l-1 T} / |z^{l-1}|^2 + G^+ M Xi''^l (I - P_z), with v^l =
    |z^{l-1}| xi^l the member's forward product, G its rows of d h^L / d
    h^l (carried down through dense blocks), M = ``_gram_root(G G^T)^T``
    and Xi''^l its reverse draw: so W^l z = v^l and G W^l = (G v^l) z^T /
    |z|^2 + M Xi'' (I - P_z), the member's sample, whatever the rank of G
    (M acts in G's range).  The free part of W^1 never reaches the NTK.
    """

    def __init__(self, cfg: EnsembleConfig, member: int = 0):
        params = NetworkParams.draw(cfg.layer_dims, cfg.seed, member)
        self.layer_dims, self.depth = params.layer_dims, params.depth
        dims, hp, L = self.layer_dims, cfg.hyper, self.depth
        z = resolve_input(cfg, member)
        zs, hs, vs, bs = [z], [None], [None], [None]
        for l in range(1, L + 1):
            xi, b = params.conditional(l)
            vs.append(np.linalg.norm(z) * xi[:, 0])
            bs.append(b)
            hs.append(hp.sigma_w / math.sqrt(dims[l - 1]) * vs[l] + hp.sigma_b * b)
            z = _Block(cfg.act, cfg.norm, cfg.groups, hs[l]).z
            zs.append(z)
        self.drawn, G = {}, np.eye(dims[L])
        for l in range(L, 0, -1):
            z = zs[l - 1]
            W = np.outer(vs[l], z) / (z @ z)
            if l > 1:
                M = _gram_root(G @ G.T, G.shape[1]).T
                free = np.eye(dims[l - 1]) - np.outer(z, z) / (z @ z)
                # behind a norm G has null directions, whose singular values
                # round to about 1e-8 of the largest: cut them off
                W += np.linalg.pinv(G, rcond=1e-6) @ M @ params.reverse(l, dims[L]) @ free
                B = dense_block(cfg.act, cfg.norm, cfg.groups, hs[l - 1])[0]
                G = hp.sigma_w / math.sqrt(dims[l - 1]) * (G @ W) @ B
            self.drawn[l] = (W, bs[l])


class TestReverseSpanNtk:
    """``ensemble_ntk`` members against dense networks: one member made
    dense exactly, and the members' law against ``empirical_ntk``'s."""

    @pytest.mark.parametrize("norm, act, groups", [
        (NormMode.VANILLA, ERF, 1), (NormMode.PRE_LN, GELU, 1), (NormMode.POST_LN, GELU, 2),
        (NormMode.VANILLA, RELU, 1),
    ])
    def test_dense_network_reproduces_a_member(self, norm, act, groups):
        cfg = EnsembleConfig(width=8, input_dim=5, depth=4, n_init=2, seed=31,
                             hyper=Hyper(1.3, 0.4), norm=norm, act=act, groups=groups)
        got = _ntk_members(cfg)
        for member in (0, 1):
            dense = NtkMemberNetwork(cfg, member)
            want = empirical_ntk(dense, act, cfg.hyper, norm, resolve_input(cfg, member),
                                 groups)
            assert got[member] == pytest.approx(want, rel=1e-9), member

    @pytest.mark.parametrize("width", [8, 32])
    @pytest.mark.parametrize("norm, act, groups", [
        (NormMode.VANILLA, ERF, 1), (NormMode.POST_LN, GELU, 2),
    ], ids=["erf-vanilla", "gelu-post-ln"])
    def test_member_law_matches_dense_networks(self, width, norm, act, groups):
        # at width 8 a member averages all N_L output units, so its law is
        # the dense member's; at 32 it averages 8 of them, with the same mean
        n = 3000
        cfg = EnsembleConfig(width=width, input_dim=10, depth=5, n_init=n, seed=11,
                             hyper=Hyper(1.3, 0.3), norm=norm, act=act, groups=groups)
        x = resolve_input(cfg, 0)
        members = _ntk_members(cfg)
        dense = np.array([
            empirical_ntk(NetworkParams.draw(cfg.layer_dims, 1003, i), act, cfg.hyper,
                          norm, x, groups)
            for i in range(n)
        ])
        se = math.hypot(members.std(ddof=1), dense.std(ddof=1)) / math.sqrt(n)
        assert abs(members.mean() - dense.mean()) <= 4 * se
        if width <= 8:
            assert ks_2samp(members, dense).pvalue > 1e-3

    @pytest.mark.parametrize("norm, groups", [
        (NormMode.VANILLA, 1), (NormMode.PRE_LN, 1), (NormMode.POST_LN, 2),
        (NormMode.POST_LN, 32),
    ])
    @pytest.mark.usefixtures("in_process")
    def test_member_holds_no_layer_and_its_price(self, norm, groups, monkeypatch):
        import tracemalloc

        calls = TestStreaming._count_draws(monkeypatch)
        cfg = EnsembleConfig(width=256, input_dim=256, depth=12, n_init=1, seed=3,
                             hyper=Hyper(1.3, 0.4), act=GELU, norm=norm, groups=groups)
        ensemble_ntk(cfg)  # scipy's erf loads outside the traced run
        tracemalloc.start()
        try:
            ensemble_ntk(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _member_bytes([cfg], None, 12), (peak, _member_bytes([cfg], None, 12))
        if groups <= 2:  # 32 groups compose 256 x 128 factors
            assert peak < 256 * 256 * 8, peak
        # every layer, in both runs, is a lean step: no weight matrix is drawn
        assert not calls["layer"]
        assert sorted(calls["conditional"]) == sorted(list(range(1, 13)) * 2)

    @pytest.mark.usefixtures("in_process")
    def test_oversize_run_refused_naming_its_size(self):
        huge = EnsembleConfig(width=2**26, input_dim=4, depth=3, n_init=2, seed=0,
                              hyper=Hyper(1.0, 0.0))
        need = _member_bytes([huge], None, 3)
        assert need >= 3 * 5 * 8 * 2**26
        with pytest.raises(ValueError, match=f"about {need / 2**30:.3g} GiB .* physical memory"):
            ensemble_ntk(huge)

    def test_reverse_draw_shares_nothing_with_the_layer_stream(self):
        params = NetworkParams.draw([5, 7, 3], seed=17, init_index=1)
        xi = params.reverse(2, 2)
        assert xi.shape == (2, 7)
        assert np.array_equal(xi, params.reverse(2, 2))
        W, b = params.layer(2)
        assert not np.isin(xi, np.concatenate([W.ravel(), b])).any()
        other = NetworkParams.draw([5, 7, 3], seed=17, init_index=2).reverse(2, 2)
        assert not np.isin(xi, other).any()


def _with_workers(workers: int, fn):
    old = os.environ.get("JACPROP_WORKERS")
    os.environ["JACPROP_WORKERS"] = str(workers)
    try:
        return fn()
    finally:
        if old is None:
            del os.environ["JACPROP_WORKERS"]
        else:
            os.environ["JACPROP_WORKERS"] = old


def _single(cfg, l0, l):
    """The driver estimate of a single J^{l0,l}, for a config or a batch."""
    cfgs, single = ([cfg], True) if isinstance(cfg, EnsembleConfig) else (cfg, False)
    ests = [_scalar_estimate(v[:, l]) for v in _swept(cfgs, l0, l)]
    return ests[0] if single else ests


def _end_to_end(cfg):
    """The driver estimate of J^{0,L} alone, for a config or a batch."""
    depth = (cfg if isinstance(cfg, EnsembleConfig) else cfg[0]).depth
    return _single(cfg, 0, depth)


def _bits(est):
    """The estimate as bytes, so that a one-member NaN stderr equals itself."""
    arrays = [np.asarray(a).tobytes() for a in (est.mean, est.stderr, est.per_layer,
                                                est.per_layer_stderr) if a is not None]
    return (est.n, *arrays)


_MODES = st.sampled_from(ALL_MODES)
_ACTS = st.sampled_from([RELU, ERF, GELU])


@settings(max_examples=25, deadline=None)
@given(
    groups=st.sampled_from([1, 2]), half_width=st.integers(2, 6),
    input_dim=st.integers(1, 7), depth=st.integers(2, 6), n_init=st.integers(1, 4),
    seed=st.integers(0, 2**20), resample=st.booleans(), l0_from_top=st.integers(1, 6),
    acts=st.tuples(_ACTS, _ACTS), modes=st.tuples(_MODES, _MODES),
    sws=st.tuples(st.floats(0.5, 2.5), st.floats(0.5, 2.5)), sb=st.floats(0.0, 1.0),
)
def test_drivers_bit_identical_across_workers_and_batches(
        groups, half_width, input_dim, depth, n_init, seed, resample, l0_from_top,
        acts, modes, sws, sb):
    l0 = max(depth - l0_from_top, 0)
    cfgs = [
        EnsembleConfig(width=2 * half_width, input_dim=input_dim, depth=depth,
                       n_init=n_init, seed=seed, hyper=Hyper(sw, sb), norm=mode,
                       act=act, groups=groups, resample_inputs=resample)
        for act, mode, sw in zip(acts, modes, sws)
    ]
    runs = {
        "chi": empirical_chi,
        "profile": lambda c: jacobian_profile(c, l0=l0),
        "single": lambda c: _single(c, l0, max(l0 + 1, depth - 1)),
    }
    for name, run in runs.items():
        want = [_bits(run(cfg)) for cfg in cfgs]
        for workers in (1, 2, 3):
            batch = _with_workers(workers, lambda: run(cfgs))
            assert [_bits(e) for e in batch] == want, (name, workers)
        alone = _with_workers(3, lambda: [_bits(run(cfg)) for cfg in cfgs])
        assert alone == want, name
    # the input check takes one vanilla config, so only the worker count varies
    vanilla = replace(cfgs[0], norm=NormMode.VANILLA)

    def measured(rep):  # its workers field differs by design
        fields = rep.measured, rep.measured_stderr, rep.corrected_pred, rep.uncorrected_pred
        return np.array(fields).tobytes()

    want = measured(n0_correction_check(vanilla))
    for workers in (2, 3):
        got = _with_workers(workers, lambda: n0_correction_check(vanilla))
        assert measured(got) == want, workers


_PROFILE_BITS = """
from jacprop.activations import Activation
from jacprop.ensemble import EnsembleConfig, jacobian_profile
from jacprop.meanfield import Hyper, NormMode
cfgs = [EnsembleConfig(width=1000, input_dim=784, depth=6, n_init=2, seed=5,
                       hyper=Hyper(1.3, 0.3), act=Activation.gelu(), norm=norm)
        for norm in (NormMode.VANILLA, NormMode.PRE_LN, NormMode.POST_LN)]
for est in jacobian_profile(cfgs):
    print(*(float(v).hex() for v in est.per_layer[1:]),
          *(float(v).hex() for v in est.per_layer_stderr[1:]))
"""


def test_sketched_profile_bits_ignore_blas_and_worker_threads():
    # a paper-size profile, each setting in a process of its own: the
    # sketch's small products and decompositions give the same bits on one
    # BLAS thread or two, and on one worker or two
    src = str(Path(__file__).resolve().parents[1] / "src")

    def run(blas, workers):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, JACPROP_WORKERS=workers,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-c", _PROFILE_BITS], env=env, check=True,
                              capture_output=True, text=True).stdout

    want = run("1", "1")
    assert len(want.splitlines()) == 3
    for blas, workers in (("2", "1"), ("1", "2"), ("2", "2")):
        assert run(blas, workers) == want, (blas, workers)


@settings(max_examples=60, deadline=None)
@given(
    groups=st.sampled_from([1, 2, 4]), group_sizes=st.lists(st.integers(2, 5), min_size=1,
                                                            max_size=3),
    n0=st.integers(1, 7), n_out=st.integers(1, 7), act=_ACTS, norm=_MODES,
    seed=st.integers(0, 2**20), sw=st.floats(0.5, 2.5), sb=st.floats(0.0, 1.0),
)
def test_one_step_factors_match_the_dense_transpose_on_any_shape(
        groups, group_sizes, n0, n_out, act, norm, seed, sw, sb):
    # two-unit groups included, where the Jacobian nearly vanishes
    dims = [n0] + [groups * m for m in group_sizes] + [n_out]
    params = NetworkParams.draw(dims, seed)
    hp = Hyper(sw, sb)
    x = np.random.default_rng(seed).normal(size=n0)
    for l0 in range(len(dims) - 1):
        want, size = dense_one_step(params, act, hp, norm, x, l0, groups)
        got = partial_jacobian_norm(params, act, hp, norm, x, l0, l0 + 1, groups)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * size), (dims, l0)
