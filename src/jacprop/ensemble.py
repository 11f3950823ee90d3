"""Finite-width Monte-Carlo laboratory for random MLPs.

Builds real random networks in NTK parametrization (weights and biases
drawn from N(0, 1), the ``sigma_w / sqrt(N)`` and ``sigma_b`` factors
applied in the forward pass), optionally with LayerNorm / GroupNorm at
finite width, and measures the exact quantities the infinite-width theory
predicts: per-network squared Frobenius norms of layer-to-layer
Jacobians, the near-output multiplier estimating the fixed-point
``chi``, depth profiles, the O(1/N0) input correction, and the NTK
diagonal.

Jacobians are computed by propagating a full tangent basis through the
same forward pass, with the normalization differentiated exactly
(dropping its mean/variance coupling terms is deliberately not offered).

A hidden block h^l -> z^l is a chain of stages whose order is the
normalization mode, as :attr:`NormMode.stages` lists it: phi (vanilla),
normalize then phi (pre-LN), phi then normalize (post-LN).  Every stage's
Jacobian is diagonal plus low rank -- diag(phi'), and per group ``(I - 1
1^T/m - y y^T/m) / s`` for ``y = (v - mean v) / s`` -- so a block's is ``B
= diag(lam) + U V^T`` of rank at most 2 g.  These factors are its only
Jacobian: tangents ``lam T + U (V^T T)``, the NTK's gradient rows ``A lam
+ (A U) V^T`` and the one-step mean below read them.  The tests' oracle
builds each stage as an explicit matrix.

Every measurement is one forward sweep over the layers.  A member's
:class:`NetworkParams` holds only one seed stream per layer; the sweep
draws layer l just before it uses it, carries the tangent block from l0
in the same pass and stops at the last layer the measurement needs.

A layer drawn whole is never held whole: its stream fills one reused
buffer a row block at a time (:meth:`NetworkParams.rows`, the bits of
:meth:`NetworkParams.layer`), and each block gives its rows of W z and of
W (B T) before the next block is drawn.  A block has at least as many
rows as the tangent has columns (so the tangent GEMM stays square or
taller) and at least 1 MB of entries; the layer splits into equal blocks
rounded up to a multiple of 8 rows, because OpenBLAS sums a GEMV over a
block of another height in another order, and a layer that fits in one
block is one block.  The tangent ping-pongs between two buffers, the dead
one taking ``T * T`` for the norm.  Configurations that share a draw --
same width, input dimension, depth, members, seed, groups and input
resampling -- ride one sweep, so each layer is drawn once for all of them.
Only the explicit :func:`empirical_ntk`, the dense oracle of
:func:`ensemble_ntk` (at most 256 wide, 12 deep; it passes each layer to
the sweep as one block), and the ``weights``/``biases`` oracle properties
materialize a whole network.

The ensemble drivers draw only what a measurement reads.  Given the
layers below it, W^l is independent of what it multiplies, so the rows of
W^l A for any N_{l-1}-row A are iid N(0, A^T A): the conditional
Gaussianity of Lee et al. (2018), "Deep Neural Networks as Gaussian
Processes".  So a driver's layer l is one of three things:

- the lean step, on every layer at or below l0, which carries only the
  forward vector: A = z^{l-1}, so ``|z^{l-1}| xi^l`` stands in for W^l
  z^{l-1}, and ``h^l = (sigma_w / sqrt(N_{l-1})) |z^{l-1}| xi^l + sigma_b
  b^l`` from 2 N_l normals (:meth:`NetworkParams.conditional`,
  :meth:`_Probe.lean`).  Every probe on it shares one draw (xi^l, b^l), and
  none readies products or buffers.
- integrated out, as the last layer of a single J^{l0, l} (not a profile).
  J^{l0, l} reads W^l only through |W^l B^{l-1} T^{l-1}|_F^2, with T^{l-1}
  = d h^{l-1} / d h^{l0}, and over the N_l x N_{l-1} standard-normal W^l
  that has the mean N_l |B^{l-1} T^{l-1}|_F^2, so

      E[J^{l0, l} | layers < l] = (sigma_w^2 / N_{l-1}) |B^{l-1} T^{l-1}|_F^2

  (:meth:`_Probe.mean_over_last`).  At l = l0 + 1, T = I and this is
  :meth:`_Block.frobenius_sq` read off the block's factors, exactly
  sigma_w^2 at l0 = 0 (B = I); above, the carried tangent is pushed
  through the block's factors and summed.  A member's value is this
  conditional mean, not a sample: it has the mean of J^{l0, l}, and no
  larger a variance.
- drawn whole, in row blocks, otherwise: layers l0 + 1 .. l - 1 of a
  single J^{l0, l}, and every layer above l0 of a profile, whose
  per-layer values need every W^l.

The NTK diagonal reads every layer backwards too.  :func:`ensemble_ntk`
runs the lean step on every layer, then steps k = min(8, N_L) rows G of d
h^L / d h^l down from the output.  Given the forward pass, W^l = v z^T /
|z|^2 + Xi (I - P_z) with v = W^l z^{l-1} the forward product and Xi iid
and fresh, and G Xi has the law of M Xi'' for M M^T = G G^T, so the
reverse span draw ``G W^l = (G v) z^T / |z|^2 + M Xi'' (I - P_z)`` is
exact from k x N_{l-1} normals of a stream of its own
(:func:`_reverse_span`, :meth:`NetworkParams.reverse`).  A member so
averages Theta_ii over k output units, not all N_L: it has the mean of
the dense member's average, and a wider spread.

So ``empirical_chi`` draws 2 N_l normals per layer up to L - 2 and no
weight matrix, ``ensemble_ntk`` (2 + k) N normals per layer and no weight
matrix, and ``n0_correction_check`` draws only layer 1 whole.  A member
holds, per configuration, two N x N_{l0} tangent buffers (a profile or
multi-step measurement), plus one row block.  At width 1000 a profile
member holds about 17 MB at N0 784 (a 4 MB block and two 6.3 MB tangents)
and about 3 MB at N0 128 (a 1 MB block and two 1 MB tangents), whatever
the depth, where one whole layer is 8 MB.  Before the first member, a
driver refuses (``ValueError``) a run whose members, times
``JACPROP_WORKERS``, would not fit in physical memory
(:func:`_member_bytes`); a one-step member holds only its forward state,
and an NTK member its forward record, about 5 N_l entries per layer, plus
k x N gradient rows.

Determinism: every (seed, member, layer) draws from its own seed-derived
RNG stream (and the NTK's reverse draws from another) and every
configuration keeps its own matrix products.  A driver's member is an
exact sample of the network's law (a single J^{l0, l}, of its
conditional mean over W^l; an NTK member, of the diagonal averaged over
its k output units), not a materialized network.  Each draw reads its
layer's stream from the start, and configurations share the lean draw
(xi^l, b^l), so only each one's own law is exact, not their joint law
under one dense W^l.  The functions that take an explicit
:class:`NetworkParams` (:func:`forward`, :func:`partial_jacobian_norm`,
:func:`empirical_ntk`) draw every weight, the last layer of J^{l0, l}
included, and their results are bit-identical whether the layers arrive
in row blocks or whole.  Which layers a driver draws, and how, depends
only on what its configurations share, so a driver's result is
bit-identical whether its configuration runs alone or with others sharing
the draw, and however many worker threads evaluate the members.  Set ``JACPROP_WORKERS`` to a positive integer to parallelize
over members; the process keeps one thread pool per worker count.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

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
    "first_kernel",
]

#: Guard added under the square root of every finite-width normalization.
LN_EPS = 1e-12

#: Least entries of a row block (1 MB): below it, per-block call overhead
#: outgrows the memory saved.  See :func:`_block_rows`.
_BLOCK_MIN = 1 << 17

#: Entries per row block of a tangent's rank update (256 KB).  Temporaries
#: of _BLOCK_MIN entries there left ``mc-profile``'s peak RSS 1 MB higher.
_UPDATE_MIN = 1 << 15

#: Output units whose NTK diagonal an :func:`ensemble_ntk` member averages
#: (every unit of a narrower output layer).  See ROADMAP item 5.
_NTK_ROWS = 8

#: Vectors of N entries that an NTK member keeps per layer for its
#: backward pass: h^l, W^l z^{l-1}, its block's stage outputs and their
#: bookkeeping (4.8 measured in the normalizing modes at width 256).
_NTK_RECORD = 5

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
        for name, least in (("width", 1), ("input_dim", 1), ("n_init", 1),
                            ("groups", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.width % self.groups != 0:
            raise ValueError(
                f"groups ({self.groups}) must divide the width ({self.width})"
            )
        if self.norm.normalizes and self.groups == self.width:
            raise ValueError(
                f"groups ({self.groups}) leaves one unit per group, whose normalized "
                f"value is identically 0: {self.norm.name} needs groups <= width / 2"
            )

    @property
    def layer_dims(self) -> list[int]:
        return [self.input_dim] + [self.width] * self.depth


@dataclass(frozen=True)
class NetworkParams:
    """One member's standard-normal draws, produced layer by layer.

    Holds the layer sizes and one seed stream per layer; :meth:`layer`
    draws a layer's weights and biases from its stream, identically on
    every call.  Hyperparameter scaling happens at use.
    """

    layer_dims: list
    streams: tuple  # streams[l-1] seeds layer l

    @classmethod
    def draw(cls, layer_dims: Sequence[int], seed: int, init_index: int = 0):
        """Deterministic handle; every (seed, init, layer) has its own stream."""
        dims = list(layer_dims)
        root = np.random.SeedSequence(seed, spawn_key=(0, init_index))
        return cls(layer_dims=dims, streams=tuple(root.spawn(len(dims) - 1)))

    @property
    def depth(self) -> int:
        return len(self.streams)

    def _rng(self, l: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.streams[l - 1]))

    def layer(self, l: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw (W^l, b^l) of shapes (N_l, N_{l-1}) and (N_l,), weights first."""
        rng, dims = self._rng(l), self.layer_dims
        return rng.standard_normal((dims[l], dims[l - 1])), rng.standard_normal(dims[l])

    def rows(self, l: int, buf: np.ndarray, b: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """Draw W^l block by block into ``buf``, then b^l into ``b``.

        Yields (first row, block) for blocks of ``buf.shape[0]`` rows (the
        last may be shorter), each a view of ``buf`` that the next block
        overwrites; ``b`` is filled once the last block has been taken.  The
        stream is read in the order of :meth:`layer`, so the bits are its.
        """
        rng, n = self._rng(l), self.layer_dims[l]
        height = buf.shape[0]
        for i in range(0, n, height):
            blk = buf[:min(height, n - i)]
            rng.standard_normal(out=blk)
            yield i, blk
        rng.standard_normal(out=b)

    def conditional(self, l: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw (xi^l, b^l), each of N_l entries, xi first, from layer l's
        stream.

        Given the layers below, ``W^l z`` for any vector z is N(0, |z|^2 I),
        the law of ``|z| xi^l``: a layer that only carries the forward
        vector needs 2 N_l normals instead of N_l (N_{l-1} + 1).  Both come
        from one call on the stream, which reads it as two calls would.
        """
        n = self.layer_dims[l]
        both = self._rng(l).standard_normal(2 * n)
        return both[:n], both[n:]

    def reverse(self, l: int, k: int) -> np.ndarray:
        """Draw Xi''^l of shape (k, N_{l-1}) from a stream of its own, one
        per (seed, member, layer) that shares nothing with layer l's: the
        part of W^l that its forward product leaves free, as k gradient
        rows see it (:func:`_reverse_span`)."""
        s = self.streams[l - 1]
        own = np.random.SeedSequence(s.entropy, spawn_key=(2, *s.spawn_key[1:]))
        return np.random.Generator(np.random.PCG64(own)).standard_normal(
            (k, self.layer_dims[l - 1]))

    @property
    def weights(self) -> list:
        """Every weight matrix, drawn afresh: ``weights[l-1]`` is W^l."""
        return [self.layer(l)[0] for l in range(1, self.depth + 1)]

    @property
    def biases(self) -> list:
        """Every bias vector, drawn afresh: ``biases[l-1]`` is b^l."""
        return [self.layer(l)[1] for l in range(1, self.depth + 1)]


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


def first_kernel(cfg: EnsembleConfig, init_index: int = 0) -> float:
    """The first-layer kernel K^1 = sigma_w^2 |x|^2 / N0 + sigma_b^2 at the
    input of member ``init_index`` (:func:`resolve_input`): the ``k0`` of
    the config's :func:`~jacprop.meanfield.trace`."""
    x = resolve_input(cfg, init_index)
    return cfg.hyper.sw2 * (float(np.dot(x, x)) / cfg.input_dim) + cfg.hyper.sb2


# ---------------------------------------------------------------------------
# forward pass and exact block Jacobians


def _gn_stats(v: np.ndarray, groups: int):
    """Per-group normalization of ``v``; returns (y, s) with y flattened."""
    m = v.size // groups
    vg = v.reshape(groups, m)
    # the bits of vg.mean and vg.var, whose centred copy is kept for y
    c = vg - np.add.reduce(vg, axis=1, keepdims=True) / m
    s = np.sqrt(np.add.reduce(c * c, axis=1) / m + LN_EPS)
    y = c / s[:, None]
    return y.reshape(-1), s


def _diagonal(lam: np.ndarray) -> tuple:
    """Factors of diag(lam): rank 0."""
    return lam, np.empty((lam.size, 0)), np.empty((lam.size, 0))


def _compose(first: tuple, then: tuple) -> tuple:
    """Factors of ``then @ first``: (L2 + U2 V2^T)(L1 + U1 V1^T) = L2 L1
    + [L2 U1, U2] [V1, L1 V2 + V1 (U1^T V2)]^T, ranks adding."""
    l1, U1, V1 = first
    l2, U2, V2 = then
    return (l2 * l1,
            np.hstack([l2[:, None] * U1, U2]),
            np.hstack([V1, l1[:, None] * V2 + V1 @ (U1.T @ V2)]))


def _phi(act: Activation, groups: int, v: np.ndarray):
    """The phi stage on ``v``: (its factors, deferred, phi(v))."""
    return lambda: _diagonal(act(v, 1)), act(v)


def _norm(act: Activation, groups: int, v: np.ndarray):
    """The group-normalization stage on ``v``: (its factors, deferred, y).

    Per group of size m the Jacobian is (I - 1 1^T/m - y y^T/m) / s: the
    diagonal 1/s plus rank two.
    """
    y, s = _gn_stats(v, groups)

    def factors():
        m = v.size // groups
        if m == 1:  # y = 0 and I - 1 1^T = 0: exactly zero, not a cancelled sum
            return _diagonal(np.zeros(v.size))
        E = np.repeat(np.eye(groups), m, axis=0)  # group indicators, n x g
        U = np.hstack([E, E * y[:, None]])
        return np.repeat(1.0 / s, m), U, U * np.tile(-1.0 / (m * s), 2)

    return factors, y


#: The stages that :attr:`NormMode.stages` names.
_STAGE_RUNS = {"phi": _phi, "norm": _norm}


class _Block:
    """One hidden block h^l -> z^l through the mode's stages.

    Its Jacobian d z^l / d h^l exists only as :meth:`factors`, composed on
    first use: a block that only carries the forward pass never forms it.
    """

    def __init__(self, act: Activation, norm: NormMode, groups: int, h: np.ndarray):
        self._stages = []  # (name, its factors, deferred) in order
        self.y = None      # the norm stage's output, in a normalizing mode
        for name in norm.stages:
            stage, h = _STAGE_RUNS[name](act, groups, h)
            self._stages.append((name, stage))
            if name == "norm":
                self.y = h
        self.z = h
        self._factors = self._behind = None

    def factors(self) -> tuple:
        """d z^l / d h^l as (lam, U, V), equal to diag(lam) + U V^T, of rank
        at most 2 g: the stages' factors composed in order, once."""
        if self._factors is None:
            out = _diagonal(np.ones(self.z.size))
            for name, stage in self._stages:
                part = stage()
                out = _compose(out, part)
                if self._behind is not None:  # a stage behind the norm: diagonal
                    self._behind = self._behind * part[0]
                elif name == "norm":
                    self._behind = np.ones(self.z.size)
            self._factors = out
        return self._factors

    def tangent(self, T: np.ndarray) -> np.ndarray:
        """d z^l / d h^l applied to tangent columns ``T``, in place: with
        C = V^T T, T becomes lam T + U C, one row block at a time."""
        lam, U, V = self.factors()
        C = V.T @ T if U.shape[1] else None
        T *= lam[:, None]
        if C is not None:
            step = max(1, _UPDATE_MIN // T.shape[1])
            for i in range(0, T.shape[0], step):
                T[i:i + step] += U[i:i + step] @ C
        return T

    def cotangent(self, A: np.ndarray) -> np.ndarray:
        """Rows ``A`` times d z^l / d h^l, in place: A lam + (A U) V^T."""
        lam, U, V = self.factors()
        C = A @ U if U.shape[1] else None
        A *= lam
        if C is not None:
            A += C @ V.T
        return A

    def frobenius_sq(self) -> float:
        """|d z^l / d h^l|_F^2 from the factors: sum lam^2 + 2 sum_j lam_j
        (U V^T)_jj + tr(U^T U V^T V).  Where a group's Jacobian nearly
        vanishes (a two-unit group) the terms cancel, leaving rounding of
        about 1e-16 of sum lam^2, not of the result."""
        lam, U, V = self.factors()
        return float(lam @ lam + 2.0 * np.sum(lam[:, None] * U * V)
                     + np.sum((U.T @ U) * (V.T @ V)))

    def gain_shift(self, A: np.ndarray) -> float:
        """Squared gradients of the norm's gain and shift (u = gamma * y +
        beta at gamma = 1, beta = 0) given the rows ``A`` of d h^L / d z^l:
        sum (A d)^2 (y^2 + 1), d the diagonal of the stages behind the
        norm; 0 without a norm."""
        self.factors()
        if self._behind is None:
            return 0.0
        G = A * self._behind
        return float(np.sum((G * G) * (self.y**2 + 1.0)))


def _block_rows(n: int, m: int, k: int) -> int:
    """Rows per block of an n x m layer whose widest product has ``k`` columns.

    A block has at least ``k`` rows, so that its product with a k-column
    tangent is a GEMM at least as tall as it is wide, and at least
    ``_BLOCK_MIN`` entries.  The layer splits into blocks of equal height,
    rounded up to a multiple of 8 rows: OpenBLAS sums a GEMV over a block of
    another height in another order.  A layer that fits in one block is one.
    """
    want = max(k, -(-_BLOCK_MIN // m))
    if want >= n:
        return n
    count = -(-n // want)
    return min(n, -(-n // (8 * count)) * 8)


def _gram_root(G: np.ndarray, n: int) -> np.ndarray:
    """R with R^T R = G for the Gram G = A^T A of n-row columns A.

    The Gram is scaled to a unit diagonal, D^-1 G D^-1 = V diag(e) V^T with
    D = diag(|A e_j|), so every column keeps its own relative accuracy, and
    R = diag(sqrt(e)) V^T D.  Eigenvalues within n c eps of the largest (c
    columns), the rounding that n-term sums leave in the scaled Gram, count
    as zero, so a rank-deficient A gives exactly zero rows.
    """
    d = np.sqrt(np.diag(G))
    inv = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)
    e, V = np.linalg.eigh(G * np.outer(inv, inv))
    e[e <= n * G.shape[0] * np.finfo(float).eps * e[-1]] = 0.0
    return (np.sqrt(e)[:, None] * V.T) * d


def _view(flat: np.ndarray, n: int, k: int) -> np.ndarray:
    """The leading n x k block of a flat buffer, C-ordered."""
    return flat[:n * k].reshape(n, k)


class _Probe:
    """One measurement riding a sweep over one network's layers.

    Carries the forward state of one input and, once the sweep passes
    layer ``l0``, the tangent block d h^m / d h^{l0}.  It needs layers
    1..``last``.  ``value`` ends as the squared-norm measurement (an array
    over layers with ``profile``); with ``keep`` every preactivation and
    block is recorded in ``hs`` and ``blocks`` instead.  Layers at or
    below ``l0`` (every layer, without ``l0``) only carry its forward pass:
    under the drivers, each is one :meth:`lean` step.

    :meth:`start` readies a layer's products and :meth:`finish` completes
    them.  A layer drawn whole reaches it in row blocks, :meth:`take`
    filling the products' rows for one block.  The tangent lives in one of
    two buffers and the next layer's is written into the other.  A single
    J^{l0, last} under the drivers stops at layer last - 1 and reads
    :meth:`mean_over_last`.
    """

    def __init__(self, dims, act, hp, norm, groups, x, last,
                 l0=None, profile=False, keep=False):
        if l0 is not None and not 0 <= l0 < last <= len(dims) - 1:
            raise ValueError(f"need 0 <= l0 < l <= {len(dims) - 1}, got l0={l0}, l={last}")
        x = np.asarray(x, dtype=float)
        if x.shape != (dims[0],):
            raise ValueError(f"input must have shape ({dims[0]},), got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("input must be finite, got NaN or inf entries")
        self.dims, self.act, self.hp, self.norm, self.groups = dims, act, hp, norm, groups
        self.last, self.l0, self.profile, self.keep = last, l0, profile, keep
        self.z = x
        self.block = None  # block on the latest preactivation
        self.T = None      # d h^{l-1} / d h^{l0}, in buffer ``pair[cur]``
        self.pair, self.cur = None, 0
        self.wz = self.out = self.F = None  # the drawn layer's products
        self.value = np.full(len(dims), np.nan) if profile else None
        self.hs: list = [None]      # hs[l] = h^l, 1-indexed (with keep)
        self.wzs: list = [None]     # wzs[l], its scaled W^l z^{l-1} (with keep)
        self.blocks: list = [None]  # blocks[l] built on h^l (with keep)

    def lean(self, l: int, xi: np.ndarray, b: np.ndarray) -> None:
        """Advance through forward-only layer ``l`` given (xi^l, b^l) of
        :meth:`NetworkParams.conditional`: ``|z^{l-1}| xi^l`` stands in for
        ``W^l z^{l-1}``, with exactly its law given the past."""
        wz = math.sqrt(float(self.z @ self.z)) * xi
        wz *= self.hp.sigma_w / math.sqrt(self.dims[l - 1])
        self._advance(l, wz, b)

    def mean_over_last(self) -> float:
        """E[J^{l0, last} | layers < last] once the sweep has stopped at m =
        last - 1: (sigma_w^2 / N_m) |B^m T^m|_F^2, with T^{l0} = I and B^0 =
        I (module docstring)."""
        m, sw2 = self.last - 1, self.hp.sw2
        if m == self.l0:
            return sw2 * (self.block.frobenius_sq() / self.dims[m] if m else 1.0)
        F = self.block.tangent(self.T)
        FF = _view(self.pair[1 - self.cur], *F.shape)  # the dead buffer
        return sw2 * (float(np.sum(np.multiply(F, F, out=FF))) / self.dims[m])

    def start(self, l: int) -> int:
        """Ready the products of layer ``l``: W z, and W (B T) above l0.
        Returns the widest one's column count."""
        n = self.dims[l]
        self.wz = np.empty(n) if l < self.last or self.keep else None
        if self.l0 is not None and l > self.l0:
            k = self.dims[self.l0]
            if self.pair is None:
                size = max(self.dims[self.l0:self.last + 1]) * k
                self.pair = (np.empty(size), np.empty(size))
            if l == 1:
                self.F = None  # W I is W, bit for bit
            else:
                if l == self.l0 + 1:
                    self.T = _view(self.pair[self.cur], k, k)
                    self.T.fill(0.0)
                    np.fill_diagonal(self.T, 1.0)
                self.F = self.block.tangent(self.T)
                # used up; holding its factors through the draw cost 2 MB of peak RSS
                self.block = None
            self.out = _view(self.pair[1 - self.cur], n, k)
        return 1 if self.out is None else self.out.shape[1]

    def take(self, i: int, blk: np.ndarray) -> None:
        """Fill rows i.. of the layer's products from its row block ``blk``."""
        rows = slice(i, i + blk.shape[0])
        if self.wz is not None:
            np.matmul(blk, self.z, out=self.wz[rows])
        if self.out is not None:
            if self.F is None:
                self.out[rows] = blk
            else:
                np.matmul(blk, self.F, out=self.out[rows])

    def finish(self, l: int, b: np.ndarray) -> None:
        """Complete layer ``l`` from its bias draw ``b``."""
        scale = self.hp.sigma_w / math.sqrt(self.dims[l - 1])
        n = self.dims[l]
        if self.out is not None:
            T = self.out
            T *= scale
            if self.profile or l == self.last:
                TT = _view(self.pair[self.cur], *T.shape)  # the dead buffer
                norm = float(np.sum(np.multiply(T, T, out=TT))) / n
                if self.profile:
                    self.value[l] = norm
                else:
                    self.value = norm
            self.T, self.cur = T, 1 - self.cur
        if self.wz is not None:
            self.wz *= scale
            self._advance(l, self.wz, b)
        self.wz = self.out = self.F = None

    def _advance(self, l: int, wz: np.ndarray, b: np.ndarray) -> None:
        """Set h^l from its scaled weight term ``wz`` and the bias draw."""
        h = wz + self.hp.sigma_b * b
        if self.keep:
            self.hs.append(h)
            self.wzs.append(wz)
        if l < self.last:
            self.block = _Block(self.act, self.norm, self.groups, h)
            self.z = self.block.z
            if self.keep:
                self.blocks.append(self.block)


def _sweep(rows: Callable, probes: list, draws: NetworkParams | None = None,
           stop: int | None = None) -> None:
    """Advance every probe through layers 1.. of one network in one pass.

    ``rows(l, buf, b)`` is :meth:`NetworkParams.rows` or follows it: it
    yields layer l's row blocks and fills ``b``.  It is called at most once
    per layer, only up to the last layer a probe needs (or ``stop``), with
    one buffer that every layer reuses, of :func:`_block_rows` rows for the
    widest product a probe takes.  Given ``draws`` (the ensemble drivers),
    the probes that only carry the forward vector through layer l share
    one lean step on ``draws.conditional(l)``, and the others take the row
    blocks.  Every draw reads layer l's stream from the start.
    """
    dims = probes[0].dims
    flat = np.empty(0)
    for l in range(1, (max(p.last for p in probes) if stop is None else stop) + 1):
        lean, active = [], []
        for p in probes:
            if l <= p.last:
                forward_only = draws is not None and (p.l0 is None or l <= p.l0)
                (lean if forward_only else active).append(p)
        if lean:
            xi, b = draws.conditional(l)
            for p in lean:
                p.lean(l, xi, b)
        if not active:
            flat = np.empty(0)
            continue
        n, m = dims[l], dims[l - 1]
        h = _block_rows(n, m, max(p.start(l) for p in active))
        if flat.size < h * m:
            flat = None  # released before its successor is allocated
            flat = np.empty(h * m)
        b = np.empty(n)
        for i, blk in rows(l, _view(flat, h, m), b):
            for p in active:
                p.take(i, blk)
        del blk  # a view that would keep a replaced buffer alive
        for p in active:
            p.finish(l, b)


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
    probe = _Probe(params.layer_dims, act, hp, norm, groups, x,
                   last=params.depth, keep=True)
    _sweep(params.rows, [probe])
    return probe.hs


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
    every layer in (l0, l] and an array indexed by layer (NaN elsewhere,
    of length L + 1) is returned.  Layers after ``l`` are never drawn.
    """
    probe = _Probe(params.layer_dims, act, hp, norm, groups, x, l, l0, profile)
    _sweep(params.rows, [probe])
    return probe.value


# ---------------------------------------------------------------------------
# ensemble drivers


def _workers() -> int:
    """Worker threads from ``JACPROP_WORKERS`` (default 1); bad values raise."""
    text = os.environ.get(_WORKERS_ENV, "1")
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"{_WORKERS_ENV} must be a positive integer, got {text!r}")
    return n


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """One executor per worker count, kept for the life of the process: its
    threads, and the allocator arenas they own, serve every driver call."""
    return ThreadPoolExecutor(max_workers=workers)


def _ensemble_map(fn: Callable[[int], object], n: int) -> list:
    w = _workers()
    if w == 1:
        return [fn(i) for i in range(n)]
    return list(_pool(w).map(fn, range(n)))


#: Fields that configurations sharing one draw per member must agree on.
_SHARED_DRAW = ("width", "input_dim", "depth", "n_init", "seed", "groups", "resample_inputs")


def _batch(cfgs) -> tuple[list, bool]:
    """``(configs, single)`` for one config or a sequence sharing a draw."""
    if isinstance(cfgs, EnsembleConfig):
        return [cfgs], True
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("need at least one config")
    for cfg in cfgs[1:]:
        differ = [k for k in _SHARED_DRAW if getattr(cfg, k) != getattr(cfgs[0], k)]
        if differ:
            raise ValueError(f"configs sharing a draw differ in {', '.join(differ)}")
    return cfgs, False


def _members(cfgs: list, measure: Callable) -> list:
    """``measure(params, xs)`` for every member, ``xs`` holding each config's
    input; returns one array per config, rows in member order."""
    first = cfgs[0]

    def one(i: int):
        params = NetworkParams.draw(first.layer_dims, first.seed, i)
        return measure(params, [resolve_input(cfg, i) for cfg in cfgs])

    rows = _ensemble_map(one, first.n_init)
    return [np.array([row[k] for row in rows]) for k in range(len(cfgs))]


def _member_bytes(cfgs: list, l0: int | None, l: int, profile: bool = False) -> int:
    """What one driver member measuring J^{l0, l} (a profile with
    ``profile``) holds at its peak beyond its forward state.

    It draws layers l0 + 1 .. l of a profile, and l0 + 1 .. l - 1 of a
    single J^{l0, l}, whose last layer is integrated out.  If it draws any,
    it holds per configuration its two tangent buffers (2 N x N_{l0} with N
    the widest layer from l0 to l), plus the largest row block; a one-step
    member holds only its block's factors.  An NTK member (``l0`` None, depth
    ``l``) holds its forward record, ``_NTK_RECORD`` vectors of N per
    layer; stepping down the layers, it adds six k x N arrays (gradient
    rows, draws, temporaries) and one block's factors, up to 8 N entries
    per unit of their rank 2 g while they are composed (both measured at
    width 256).
    """
    dims = cfgs[0].layer_dims
    if l0 is None:
        cfg, n = cfgs[0], max(dims)
        k, rank = min(_NTK_ROWS, dims[-1]), 2 * cfg.groups if cfg.norm.normalizes else 0
        return 8 * n * (_NTK_RECORD * l + 6 * k + 8 * rank)
    k = dims[l0]  # the tangent's columns
    drawn = range(l0 + 1, (l if profile else l - 1) + 1)
    if not drawn:
        return 0
    draw = max(_block_rows(dims[j], dims[j - 1], k) * dims[j - 1] for j in drawn)
    return 8 * (len(cfgs) * 2 * max(dims[l0:l + 1]) * k + draw)


def _check_fits(cfgs: list, l0: int | None, l: int, profile: bool = False) -> None:
    """Refuse a measurement of J^{l0, l} (the NTK with ``l0`` None) whose
    members would not fit in physical memory, before any is drawn: every
    worker thread holds one member (:func:`_member_bytes`)."""
    workers = _workers()
    need = _member_bytes(cfgs, l0, l, profile) * workers
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"the run would hold about {need / 2**30:.3g} GiB ({workers} worker(s) "
            f"x one member), more than the {have / 2**30:.3g} GiB of physical memory"
        )


def _swept(cfgs: list, l0: int, l: int, profile: bool = False) -> list:
    """Per-config member values of J^{l0, l}, all configs in one sweep per member.

    A profile sweeps every layer up to l.  A single J^{l0, l} sweeps up to
    l - 1 and takes each member's mean over W^l (module docstring).
    """
    _check_fits(cfgs, l0, l, profile)

    def measure(params, xs):
        probes = [_Probe(params.layer_dims, cfg.act, cfg.hyper, cfg.norm,
                         cfg.groups, x, l, l0, profile)
                  for cfg, x in zip(cfgs, xs)]
        if profile:
            _sweep(params.rows, probes, params)
            return [p.value for p in probes]
        _sweep(params.rows, probes, params, stop=l - 1)
        return [p.mean_over_last() for p in probes]

    return _members(cfgs, measure)


def _estimate(values: np.ndarray):
    """Mean and standard error over the members (axis 0); one member has no
    standard error, so it reads NaN."""
    n = values.shape[0]
    mean = values.mean(axis=0)
    if n == 1:
        return mean, np.full_like(mean, np.nan)
    return mean, values.std(axis=0, ddof=1) / math.sqrt(n)


def _scalar_estimate(values: np.ndarray) -> JacobianEstimate:
    mean, stderr = _estimate(values)
    return JacobianEstimate(mean=float(mean), stderr=float(stderr), n=values.shape[0])


def empirical_chi(cfg: EnsembleConfig | Sequence[EnsembleConfig]):
    """Ensemble estimate of the near-output multiplier J^{L-2, L-1}.

    A member's value is its conditional expectation over W^{L-1} given the
    layers up to L - 2, (sigma_w^2 / N_{L-2}) |B^{L-2}|_F^2 from the block
    Jacobian at h^{L-2}: the mean of J^{L-2, L-1}, with no larger a
    variance.  Layers L - 1 and L are never drawn.  For homogeneous
    networks deep enough that the kernel has plateaued this estimates the
    fixed-point multiplier; depth 50 at width 1000 is comfortably in that
    regime for every supported configuration.  Given a sequence of configs
    that share a draw, returns one estimate per config.
    """
    cfgs, single = _batch(cfg)
    L = cfgs[0].depth
    ests = [_scalar_estimate(v) for v in _swept(cfgs, L - 2, L - 1)]
    return ests[0] if single else ests


def ensemble_ntk(cfg: EnsembleConfig) -> JacobianEstimate:
    """Ensemble estimate of the NTK diagonal Theta = (1/N_L) sum_i
    |grad_theta h^L_i|^2, at any size.

    A member is the diagonal averaged over its first k = min(8, N_L)
    output units: the mean of Theta, with a wider spread where k < N_L.
    Its forward pass is the chain of lean steps; its backward
    pass steps those k rows of d h^L / d h^l down the layers, each layer's
    G W^l a reverse span draw (:func:`_reverse_span`), so a member holds
    no weight matrix and costs O(k N) normals per layer.
    :func:`empirical_ntk` is its dense counterpart on an explicit network.
    """
    return _scalar_estimate(_ntk_members(cfg))


def _ntk_members(cfg: EnsembleConfig) -> np.ndarray:
    """The member values of :func:`ensemble_ntk`, in member order."""
    L, k = cfg.depth, min(_NTK_ROWS, cfg.width)
    _check_fits([cfg], None, L)

    def measure(params, xs):
        probe = _Probe(params.layer_dims, cfg.act, cfg.hyper, cfg.norm, cfg.groups,
                       xs[0], last=L, keep=True)
        _sweep(params.rows, [probe], params)

        def gw(l, G, z):
            scale = cfg.hyper.sigma_w / math.sqrt(params.layer_dims[l - 1])
            return _reverse_span(G, probe.wzs[l], z, params.reverse(l, k), scale)

        return [_ntk_sum(probe, xs[0], np.eye(k, cfg.width), gw)]

    return _members([cfg], measure)[0]


def jacobian_profile(cfg: EnsembleConfig | Sequence[EnsembleConfig], l0: int = 0):
    """Ensemble-averaged J^{l0, l} for every layer l in (l0, L].

    Given a sequence of configs that share a draw, returns one estimate
    per config.
    """
    cfgs, single = _batch(cfg)
    L = cfgs[0].depth
    if not 0 <= l0 < L:
        raise ValueError(f"l0 must satisfy 0 <= l0 < depth ({L}), got {l0}")
    ests = []
    for rows in _swept(cfgs, l0, L, profile=True):
        per_layer, per_stderr = _estimate(rows)
        est = _scalar_estimate(rows[:, L])
        ests.append(JacobianEstimate(est.mean, est.stderr, est.n, per_layer, per_stderr))
    return ests[0] if single else ests


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

    Each member's value is its conditional mean over W^2 given layer 1,
    (sigma_w^2 / N_1) |B^1 T^1|_F^2 (module docstring): the mean of
    J^{0,2}, with no larger a variance.  With ``resample_inputs`` each
    member sees its own input, and both predictions are averaged over the
    members' inputs.
    """
    if cfg.norm.normalizes:
        raise ValueError("the input correction is derived for the vanilla mode")
    (values,) = _swept([cfg], 0, 2)
    est = _scalar_estimate(values)

    corrected, uncorrected = [], []
    for i in range(cfg.n_init if cfg.resample_inputs else 1):
        x = resolve_input(cfg, i)
        tr = trace(cfg.act, NormMode.VANILLA, cfg.hyper, depth=2, k0=first_kernel(cfg, i))
        rho = float(np.dot(x, x)) / cfg.input_dim
        corrected.append(j0_corrected(cfg.act, cfg.hyper, tr, cfg.input_dim, rho, layer=2))
        uncorrected.append(float(tr.J[2]))
    return N0CorrectionReport(
        measured=est.mean,
        measured_stderr=est.stderr,
        corrected_pred=math.fsum(corrected) / len(corrected),
        uncorrected_pred=math.fsum(uncorrected) / len(uncorrected),
    )


# ---------------------------------------------------------------------------
# the NTK diagonal

_NTK_MAX_WIDTH = 256
_NTK_MAX_DEPTH = 12


def _ntk_sum(probe: _Probe, x: np.ndarray, G: np.ndarray, gw: Callable) -> float:
    """The NTK diagonal averaged over the output units whose rows of
    d h^L / d h^L are ``G``, given a probe that kept its forward pass on
    the input ``x``.

    Steps G = d h^L / d h^l down from l = L, adding each layer's squared
    gradients of W^l, b^l and the norm's gain and shift; ``gw(l, G, z)``
    gives d h^L / d z^{l-1} = (sigma_w / sqrt(N_{l-1})) G W^l, z being
    z^{l-1}.  The probe's blocks are released as they are passed.
    """
    hp, dims, blocks = probe.hp, probe.dims, probe.blocks
    total = 0.0
    for l in range(len(dims) - 1, 0, -1):
        g_sq = float(np.sum(G * G))
        block = blocks.pop() if l > 1 else None
        z = x if block is None else block.z
        total += (hp.sw2 / dims[l - 1]) * g_sq * float(np.dot(z, z))
        total += hp.sb2 * g_sq
        if block is not None:
            A = gw(l, G, z)
            total += block.gain_shift(A)
            G = block.cotangent(A)
    return total / G.shape[0]


def _reverse_span(G: np.ndarray, wz: np.ndarray, z: np.ndarray, xi: np.ndarray,
                  scale: float) -> np.ndarray:
    """``scale`` G W^l for k rows G of d h^L / d h^l, given the forward pass
    through layer l (z = z^{l-1}, wz = ``scale`` W^l z) and k x N_{l-1}
    fresh normals ``xi`` (:meth:`NetworkParams.reverse`).

    Given the forward pass, W^l = (W^l z) z^T / |z|^2 + Xi (I - P_z) with
    Xi iid and independent of everything else, and G Xi has the law of M
    xi for M M^T = G G^T (:func:`_gram_root`), so G W^l = (G W^l z) z^T /
    |z|^2 + M xi (I - P_z) has exactly its law given the layers above.
    """
    A = _gram_root(G @ G.T, G.shape[1]).T @ xi
    A *= scale
    zz = float(z @ z)
    if zz > 0:
        A += np.outer(G @ wz - A @ z, z / zz)
    return A


def empirical_ntk(
    params: NetworkParams,
    act: Activation,
    hp: Hyper,
    norm: NormMode,
    x: np.ndarray,
    groups: int = 1,
) -> float:
    """Exact per-draw NTK diagonal (1/N_L) sum_i |grad_theta h^L_i|^2 of
    an explicit network: the dense oracle of :func:`ensemble_ntk`.

    Sums squared gradients over every weight, bias and (for LayerNorm
    modes) gain/shift parameter via one backward sweep of all N_L rows of
    the partial Jacobians through every drawn weight, each block stepped
    through its factors; it holds the whole network and its cost grows
    with width^3, so networks wider than 256 or deeper than 12 are refused.
    """
    L = params.depth
    dims = params.layer_dims
    if max(dims) > _NTK_MAX_WIDTH or L > _NTK_MAX_DEPTH:
        raise ValueError(
            f"the exact NTK takes at most width {_NTK_MAX_WIDTH} and depth "
            f"{_NTK_MAX_DEPTH}, got width {max(dims)} and depth {L}"
        )
    drawn = [params.layer(l) for l in range(1, L + 1)]  # reused by both sweeps

    def whole(l, buf, b):  # each drawn layer as one block
        W, b[:] = drawn[l - 1]
        yield 0, W

    probe = _Probe(dims, act, hp, norm, groups, x, last=L, keep=True)
    _sweep(whole, [probe])
    return _ntk_sum(probe, np.asarray(x, dtype=float), np.eye(dims[L]),
                    lambda l, G, z: (hp.sigma_w / math.sqrt(dims[l - 1]))
                    * (G @ drawn[l - 1][0]))
