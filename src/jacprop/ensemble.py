"""Finite-width Monte-Carlo laboratory for random MLPs.

Builds real random networks in NTK parametrization (weights and biases
drawn from N(0, 1), the ``sigma_w / sqrt(N)`` and ``sigma_b`` factors
applied in the forward pass), optionally with LayerNorm / GroupNorm at
finite width, and measures the exact quantities the infinite-width theory
predicts: per-network squared Frobenius norms of layer-to-layer
Jacobians, the near-output multiplier estimating the fixed-point
``chi``, depth profiles, the O(1/N0) input correction, and the empirical
NTK of small networks.

Jacobians are computed by propagating a full tangent basis through the
same forward pass, with the normalization differentiated exactly: the
Jacobian of ``y = (v - mean v) / sqrt(var v + eps)`` within a group of
size ``m`` is ``(t - mean t - y (y . t)/m) / s`` on a tangent ``t``, and
dropping the mean/variance coupling terms is deliberately not offered.

Ensemble members are independent; every member draws from its own
seed-derived RNG stream, so estimates are bit-identical for a given
(seed, config) regardless of how many worker threads evaluate them.  Set
``JACPROP_WORKERS`` to parallelize over members.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .activations import Activation
from .meanfield import Hyper, NormMode, j0_corrected, trace

__all__ = [
    "EnsembleConfig",
    "NetworkParams",
    "JacobianEstimate",
    "N0CorrectionReport",
    "forward",
    "partial_jacobian_norm",
    "empirical_chi",
    "ensemble_ntk",
    "jacobian_profile",
    "n0_correction_check",
    "empirical_ntk",
    "resolve_input",
]

#: Guard added under the square root of every finite-width normalization.
LN_EPS = 1e-12

_WORKERS_ENV = "JACPROP_WORKERS"


@dataclass(frozen=True)
class EnsembleConfig:
    """Everything needed to reproduce one Monte-Carlo experiment."""

    width: int
    input_dim: int
    depth: int
    n_init: int
    seed: int
    hyper: Hyper
    norm: NormMode = NormMode.VANILLA
    act: Activation = field(default_factory=Activation.relu)
    groups: int = 1
    # ("gaussian", mean, std) | ("file", path) | ("array", vector)
    input_source: tuple = ("gaussian", 0.0, 1.0)
    resample_inputs: bool = False

    def __post_init__(self):
        if self.depth < 2:
            raise ValueError(f"depth must be >= 2, got {self.depth}")
        if self.n_init < 1:
            raise ValueError(f"n_init must be >= 1, got {self.n_init}")
        if self.width % self.groups != 0:
            raise ValueError(
                f"groups ({self.groups}) must divide the width ({self.width})"
            )

    @property
    def layer_dims(self) -> list[int]:
        return [self.input_dim] + [self.width] * self.depth


@dataclass(frozen=True)
class NetworkParams:
    """Raw standard-normal draws; hyperparameter scaling happens at use."""

    weights: list  # weights[l-1] has shape (N_l, N_{l-1})
    biases: list   # biases[l-1] has shape (N_l,)
    layer_dims: list

    @classmethod
    def draw(cls, layer_dims: Sequence[int], seed: int, init_index: int = 0):
        """Deterministic draw; every (seed, init, layer) has its own stream."""
        dims = list(layer_dims)
        n_layers = len(dims) - 1
        root = np.random.SeedSequence(seed, spawn_key=(0, init_index))
        weights, biases = [], []
        for l, child in enumerate(root.spawn(n_layers)):
            rng = np.random.Generator(np.random.PCG64(child))
            weights.append(rng.standard_normal((dims[l + 1], dims[l])))
            biases.append(rng.standard_normal(dims[l + 1]))
        return cls(weights=weights, biases=biases, layer_dims=dims)

    @property
    def depth(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class JacobianEstimate:
    """Ensemble mean and standard error of a per-member measurement."""

    mean: float
    stderr: float
    n: int
    per_layer: np.ndarray | None = None
    per_layer_stderr: np.ndarray | None = None


def resolve_input(cfg: EnsembleConfig, init_index: int = 0) -> np.ndarray:
    """Materialize the input vector for one ensemble member.

    With ``resample_inputs`` off (the default) every member sees the
    member-0 input, i.e. a single input shared across the ensemble.
    """
    idx = init_index if cfg.resample_inputs else 0
    kind = cfg.input_source[0]
    if kind == "gaussian":
        _, mean, std = cfg.input_source
        ss = np.random.SeedSequence(cfg.seed, spawn_key=(1, idx))
        rng = np.random.Generator(np.random.PCG64(ss))
        return mean + std * rng.standard_normal(cfg.input_dim)
    if kind == "file":
        x = np.fromfile(cfg.input_source[1], dtype="<f4").astype(float)
        if x.size != cfg.input_dim:
            raise ValueError(
                f"input file holds {x.size} floats, expected {cfg.input_dim}"
            )
        return x
    if kind == "array":
        x = np.asarray(cfg.input_source[1], dtype=float)
        if x.size != cfg.input_dim:
            raise ValueError(f"input vector has size {x.size}, expected {cfg.input_dim}")
        return x
    raise ValueError(f"unknown input source {cfg.input_source!r}")


# ---------------------------------------------------------------------------
# forward pass and exact block Jacobians


def _gn_stats(v: np.ndarray, groups: int, eps: float = LN_EPS):
    """Per-group normalization of ``v``; returns (y, s) with y flattened."""
    m = v.size // groups
    vg = v.reshape(groups, m)
    mu = vg.mean(axis=1, keepdims=True)
    var = vg.var(axis=1)
    s = np.sqrt(var + eps)
    y = (vg - mu) / s[:, None]
    return y.reshape(-1), s


def _gn_apply(y: np.ndarray, s: np.ndarray, groups: int, T: np.ndarray) -> np.ndarray:
    """Exact normalization Jacobian applied to tangent columns ``T``."""
    n, k = T.shape
    m = n // groups
    Tg = T.reshape(groups, m, k)
    yg = y.reshape(groups, m)
    proj = np.einsum("gm,gmk->gk", yg, Tg) / m
    out = Tg - Tg.mean(axis=1, keepdims=True) - yg[:, :, None] * proj[:, None, :]
    out /= s[:, None, None]
    return out.reshape(n, k)


@dataclass
class _LayerCache:
    """Intermediates of one hidden block h^l -> z^l."""

    h: np.ndarray                 # preactivations
    z: np.ndarray                 # block output fed into the next weights
    dphi: np.ndarray              # phi' at the point where phi was applied
    y: np.ndarray | None = None   # normalized vector (LN modes)
    s: np.ndarray | None = None   # per-group std (LN modes)


def _block(act: Activation, norm: NormMode, groups: int, h: np.ndarray) -> _LayerCache:
    if norm is NormMode.VANILLA:
        return _LayerCache(h=h, z=act(h), dphi=act(h, 1))
    if norm is NormMode.PRE_LN:
        y, s = _gn_stats(h, groups)
        return _LayerCache(h=h, z=act(y), dphi=act(y, 1), y=y, s=s)
    a = act(h)
    y, s = _gn_stats(a, groups)
    return _LayerCache(h=h, z=y, dphi=act(h, 1), y=y, s=s)


def _block_tangent(cache: _LayerCache, norm: NormMode, groups: int, T: np.ndarray):
    """d z^l / d h^l applied to tangent columns ``T``."""
    if norm is NormMode.VANILLA:
        return cache.dphi[:, None] * T
    if norm is NormMode.PRE_LN:
        return cache.dphi[:, None] * _gn_apply(cache.y, cache.s, groups, T)
    return _gn_apply(cache.y, cache.s, groups, cache.dphi[:, None] * T)


def _block_tangent_t(cache: _LayerCache, norm: NormMode, groups: int, V: np.ndarray):
    """Transpose of the block Jacobian on ``V`` (the LN Jacobian is symmetric)."""
    if norm is NormMode.VANILLA:
        return cache.dphi[:, None] * V
    if norm is NormMode.PRE_LN:
        return _gn_apply(cache.y, cache.s, groups, cache.dphi[:, None] * V)
    return cache.dphi[:, None] * _gn_apply(cache.y, cache.s, groups, V)


def _forward_cached(
    params: NetworkParams,
    act: Activation,
    hp: Hyper,
    norm: NormMode,
    x: np.ndarray,
    groups: int = 1,
):
    dims = params.layer_dims
    x = np.asarray(x, dtype=float)
    if x.shape != (dims[0],):
        raise ValueError(f"input must have shape ({dims[0]},), got {x.shape}")
    hs: list = [None]        # hs[l] = h^l, 1-indexed
    caches: list = [None]    # caches[l] built on h^l, feeding layer l+1
    z = x
    for l in range(1, params.depth + 1):
        scale = hp.sigma_w / math.sqrt(dims[l - 1])
        h = scale * (params.weights[l - 1] @ z) + hp.sigma_b * params.biases[l - 1]
        hs.append(h)
        if l < params.depth:
            cache = _block(act, norm, groups, h)
            caches.append(cache)
            z = cache.z
    return hs, caches


def forward(
    params: NetworkParams,
    act: Activation,
    hp: Hyper,
    norm: NormMode,
    x: np.ndarray,
    groups: int = 1,
) -> list:
    """Run the network on ``x``; returns preactivations ``[None, h^1 .. h^L]``.

    The input feeds the first weight layer directly (no activation on the
    input).  Normalization, when enabled, acts inside every hidden block
    with the layer's empirical mean and variance, gain 1 and shift 0.
    """
    hs, _ = _forward_cached(params, act, hp, norm, x, groups)
    return hs


def partial_jacobian_norm(
    params: NetworkParams,
    act: Activation,
    hp: Hyper,
    norm: NormMode,
    x: np.ndarray,
    l0: int,
    l: int,
    groups: int = 1,
    profile: bool = False,
):
    """Exact squared Frobenius norm (1/N_l) |d h^l / d h^{l0}|_F^2.

    A full tangent basis is propagated through the forward pass, so the
    result is exact per draw, including the cross-neuron derivative terms
    of the normalization.  With ``profile=True`` the norm is recorded at
    every layer in (l0, L] and an array indexed by layer is returned.
    """
    L = params.depth
    if not 0 <= l0 < l <= L:
        raise ValueError(f"need 0 <= l0 < l <= {L}, got l0={l0}, l={l}")
    dims = params.layer_dims
    hs, caches = _forward_cached(params, act, hp, norm, x, groups)
    if not profile and l == l0 + 1:
        return _one_step_jacobian_sq(params, hp, norm, caches, groups, l0)
    out = np.full(L + 1, np.nan) if profile else None
    T = np.eye(dims[l0])
    for m in range(l0, l):
        scale = hp.sigma_w / math.sqrt(dims[m])
        if m == 0:
            T = scale * (params.weights[0] @ T)
        else:
            T = scale * (params.weights[m] @ _block_tangent(caches[m], norm, groups, T))
        if profile:
            out[m + 1] = float(np.sum(T * T)) / dims[m + 1]
    if profile:
        return out
    return float(np.sum(T * T)) / dims[l]


def _one_step_jacobian_sq(params, hp, norm, caches, groups, l0):
    """(1/N_{l0+1}) |M|_F^2 for a single layer map, in O(N^2).

    Uses |M|_F = |M^T|_F: the block-Jacobian transpose is applied to the
    scaled weight transpose, avoiding an N x N by N x N product.
    """
    dims = params.layer_dims
    scale = hp.sigma_w / math.sqrt(dims[l0])
    W = params.weights[l0]
    if l0 == 0:
        return scale * scale * float(np.sum(W * W)) / dims[1]
    V = _block_tangent_t(caches[l0], norm, groups, W.T * scale)
    return float(np.sum(V * V)) / dims[l0 + 1]


# ---------------------------------------------------------------------------
# ensemble drivers


def _workers() -> int:
    try:
        return max(1, int(os.environ.get(_WORKERS_ENV, "1")))
    except ValueError:
        return 1


def _ensemble_map(fn: Callable[[int], object], n: int) -> list:
    w = _workers()
    if w == 1:
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=w) as pool:
        return list(pool.map(fn, range(n)))


def _members(cfg: EnsembleConfig, measure: Callable) -> np.ndarray:
    """``measure(params, x)`` for every ensemble member, in member order."""

    def one(i: int):
        return measure(NetworkParams.draw(cfg.layer_dims, cfg.seed, i), resolve_input(cfg, i))

    return np.array(_ensemble_map(one, cfg.n_init))


def _estimate(values: np.ndarray) -> tuple[float, float]:
    n = values.shape[0]
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return mean, stderr


def _scalar_estimate(cfg: EnsembleConfig, measure: Callable) -> JacobianEstimate:
    mean, stderr = _estimate(_members(cfg, measure))
    return JacobianEstimate(mean=mean, stderr=stderr, n=cfg.n_init)


def empirical_chi(cfg: EnsembleConfig) -> JacobianEstimate:
    """Ensemble estimate of the near-output multiplier J^{L-2, L-1}.

    For homogeneous networks deep enough that the kernel has plateaued
    this estimates the fixed-point multiplier; depth 50 at width 1000 is
    comfortably in that regime for every supported configuration.
    """
    return _scalar_estimate(cfg, lambda params, x: partial_jacobian_norm(
        params, cfg.act, cfg.hyper, cfg.norm, x,
        cfg.depth - 2, cfg.depth - 1, groups=cfg.groups,
    ))


def ensemble_ntk(cfg: EnsembleConfig) -> JacobianEstimate:
    """Ensemble estimate of the exact NTK diagonal (see :func:`empirical_ntk`)."""
    return _scalar_estimate(cfg, lambda params, x: empirical_ntk(
        params, cfg.act, cfg.hyper, cfg.norm, x, groups=cfg.groups
    ))


def jacobian_profile(cfg: EnsembleConfig, l0: int = 0) -> JacobianEstimate:
    """Ensemble-averaged J^{l0, l} for every layer l in (l0, L]."""
    rows = _members(cfg, lambda params, x: partial_jacobian_norm(
        params, cfg.act, cfg.hyper, cfg.norm, x, l0, cfg.depth,
        groups=cfg.groups, profile=True,
    ))
    per_layer = rows.mean(axis=0)
    per_stderr = (
        rows.std(axis=0, ddof=1) / math.sqrt(cfg.n_init)
        if cfg.n_init > 1
        else np.zeros_like(per_layer)
    )
    mean, stderr = _estimate(rows[:, cfg.depth])
    return JacobianEstimate(
        mean=mean, stderr=stderr, n=cfg.n_init,
        per_layer=per_layer, per_layer_stderr=per_stderr,
    )


@dataclass(frozen=True)
class N0CorrectionReport:
    """Measured J^{0,2} against the corrected / uncorrected predictions."""

    measured: float
    measured_stderr: float
    corrected_pred: float
    uncorrected_pred: float

    @property
    def err_corrected(self) -> float:
        return abs(self.measured - self.corrected_pred)

    @property
    def err_uncorrected(self) -> float:
        return abs(self.measured - self.uncorrected_pred)


def n0_correction_check(cfg: EnsembleConfig) -> N0CorrectionReport:
    """Measure J^{0,2} and compare with the finite-N0 corrected prediction.

    The correction shifts the first-layer multiplier by ``(2 sigma_w^2 /
    N0) chi_delta |x|^2 / N0`` and is visible only for activations with
    curvature (erf, GELU) at small input dimension.  Vanilla mode only.
    """
    if cfg.norm is not NormMode.VANILLA:
        raise ValueError("the input correction is derived for the vanilla mode")
    est = _scalar_estimate(cfg, lambda params, x: partial_jacobian_norm(
        params, cfg.act, cfg.hyper, cfg.norm, x, 0, 2, groups=cfg.groups
    ))

    x = resolve_input(cfg, 0)
    rho = float(np.dot(x, x)) / cfg.input_dim
    k1 = cfg.hyper.sw2 * rho + cfg.hyper.sb2
    tr = trace(cfg.act, NormMode.VANILLA, cfg.hyper, depth=2, k0=k1, l0=0)
    corrected = j0_corrected(cfg.act, cfg.hyper, tr, cfg.input_dim, rho, layer=2)
    uncorrected = float(tr.J[2])
    return N0CorrectionReport(
        measured=est.mean,
        measured_stderr=est.stderr,
        corrected_pred=corrected,
        uncorrected_pred=uncorrected,
    )


# ---------------------------------------------------------------------------
# exact empirical NTK (small networks)

_NTK_MAX_WIDTH = 256
_NTK_MAX_DEPTH = 12


def empirical_ntk(
    params: NetworkParams,
    act: Activation,
    hp: Hyper,
    norm: NormMode,
    x: np.ndarray,
    groups: int = 1,
    allow_large: bool = False,
) -> float:
    """Exact per-draw NTK diagonal (1/N_L) sum_i |grad_theta h^L_i|^2.

    Sums squared gradients over every weight, bias and (for LayerNorm
    modes) gain/shift parameter via one backward sweep of dense partial
    Jacobians; cost grows with width^3, hence the default size guard.
    """
    L = params.depth
    dims = params.layer_dims
    if not allow_large and (max(dims) > _NTK_MAX_WIDTH or L > _NTK_MAX_DEPTH):
        raise ValueError(
            f"network too large for the exact NTK (width {max(dims)}, depth {L}); "
            "pass allow_large=True to override"
        )
    hs, caches = _forward_cached(params, act, hp, norm, x, groups)
    z_inputs = [np.asarray(x, dtype=float)] + [c.z for c in caches[1:]]

    total = 0.0
    G = np.eye(dims[L])  # d h^L / d h^l, starting at l = L
    for l in range(L, 0, -1):
        g_sq = float(np.sum(G * G))
        z = z_inputs[l - 1]
        total += (hp.sw2 / dims[l - 1]) * g_sq * float(np.dot(z, z))
        total += hp.sb2 * g_sq
        if l > 1:
            scale = hp.sigma_w / math.sqrt(dims[l - 1])
            A = scale * (G @ params.weights[l - 1])  # d h^L / d z^{l-1}
            cache = caches[l - 1]
            if norm is not NormMode.VANILLA:
                # gain/shift gradients: u = gamma * y + beta at gamma=1, beta=0
                Tu = A * cache.dphi[None, :] if norm is NormMode.PRE_LN else A
                total += float(np.sum((Tu * Tu) * (cache.y**2 + 1.0)[None, :]))
            G = _block_tangent_t(cache, norm, groups, A.T).T
    return total / dims[L]
