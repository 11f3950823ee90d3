"""Finite-width Monte-Carlo laboratory for random MLPs.

Builds real random networks in NTK parametrization (weights and biases
drawn from N(0, 1), the ``sigma_w / sqrt(N)`` and ``sigma_b`` factors
applied in the forward pass), optionally with LayerNorm / GroupNorm at
finite width, and measures the exact quantities the infinite-width theory
predicts: per-network squared Frobenius norms of layer-to-layer
Jacobians, the near-output multiplier estimating the fixed-point
``chi``, depth profiles, the O(1/N0) input correction, and the NTK
diagonal.

Jacobians are computed by propagating tangent columns through the same
forward pass -- a full basis on an explicit network, k sketched input
directions in the drivers -- with the normalization differentiated
exactly (dropping its mean/variance coupling terms is deliberately not
offered).

A hidden block h^l -> z^l is a chain of stages whose order is the
normalization mode, as :attr:`NormMode.stages` lists it: phi (vanilla),
normalize then phi (pre-LN), phi then normalize (post-LN).  Every stage's
Jacobian is diagonal plus low rank -- diag(phi'), and per group ``(I - 1
1^T/m - y y^T/m) / s`` for ``y = (v - mean v) / s`` -- so a block's is ``B
= diag(lam) + U V^T`` of rank at most 2 g.  These factors are its only
Jacobian: tangents ``lam T + U (V^T T)``, the NTK's gradient rows ``A lam
+ (A U) V^T`` and the conditional means below read them.  The tests' oracle
builds each stage as an explicit matrix.

Every measurement is one forward sweep over the layers.  A member's
:class:`NetworkParams` holds only its seed and index, from which each
layer derives a seed stream of its own; the sweep draws layer l just
before it uses it, carries the tangent block from l0 in the same pass
and stops at the last layer the measurement needs.

The functions that take an explicit :class:`NetworkParams`
(:func:`forward`, :func:`partial_jacobian_norm`, :func:`empirical_ntk`)
draw every weight, one whole layer at a time (:meth:`NetworkParams.layer`,
:func:`_explicit`): layer l gives W z and, above l0, W (B T) -- W itself
at l0 = 0 -- and is released before layer l + 1 is drawn, so a function
holds one layer and its tangents.  Before the first draw it refuses
(``ValueError``) a network whose largest layer and full tangents would
not fit in physical memory.  Only the ``weights``/``biases`` oracle
properties materialize a whole network.

The ensemble drivers draw only what a measurement reads, and no layer
whole.  Given the layers below it, W^l is independent of what it
multiplies, so the rows of W^l A for any N_{l-1}-row A are iid N(0, A^T
A): the conditional Gaussianity of Lee et al. (2018), "Deep Neural
Networks as Gaussian Processes".  A driver measures J^{l0, m} at every
layer m in (l0, l], a single J^{l0, l} being the last of them, in one
rule:

- the lean step on every layer at or below l0, which carries only the
  forward vector: A = z^{l-1}, so ``|z^{l-1}| xi^l`` stands in for W^l
  z^{l-1}, and ``h^l = (sigma_w / sqrt(N_{l-1})) |z^{l-1}| xi^l + sigma_b
  b^l`` from 2 N_l normals (:meth:`NetworkParams.conditional` at k = 0,
  :meth:`_Probe.lean`).  Every probe on it shares one draw (xi^l, b^l).
- the sketch: the tangent starts at T^{l0} = V = sqrt(N_{l0} / k) Q, not
  at I, with Q's k = min(``_SKETCH``, N_{l0}) columns Haar-orthonormal
  (:meth:`NetworkParams.sketch`).  Then E_V V V^T = I, so E_V |M V|_F^2 =
  |M|_F^2 for every M, Hutchinson's trace estimator (Hutchinson 1990): a
  member keeps the mean of J^{l0, m}.  At k = N_{l0}, Q is orthogonal and
  |M V|_F = |M|_F exactly.
- the span draw on every layer l0 + 1 .. l - 1, which carries the forward
  vector and the k tangent columns: with A = [z^{l-1}, B^{l-1} T^{l-1}],
  ``Xi^l R`` stands in for W^l A, with Xi^l of N_l x (k + 1) normals and
  then b^l from the layer's stream (:meth:`NetworkParams.conditional`) and
  R^T R = A^T A the principal root of the (k + 1)-square Gram
  (:func:`_span_root`, :meth:`_Probe.sample`): N_l (k + 2) normals
  instead of N_l (N_{l-1} + 1).  Every probe on it shares one draw Xi^l.
- the conditional mean over W^m at every layer m above l0.  J^{l0, m}
  reads W^m only through |W^m B^{m-1} T^{m-1}|_F^2, with T^{m-1} = (d
  h^{m-1} / d h^{l0}) V, and over the N_m x N_{m-1} standard-normal W^m
  that has the mean N_m |B^{m-1} T^{m-1}|_F^2, so

      E[J^{l0, m} | layers < m, V] = (sigma_w^2 / N_{m-1}) |B^{m-1} T^{m-1}|_F^2.

  At m = l0 + 1 this is read with T = I instead, as
  :meth:`_Block.frobenius_sq` off the block's factors, exactly sigma_w^2
  at l0 = 0 (B = I); above, it is the norm of the carried tangent pushed
  through the block's factors, which :meth:`_Probe.ready` forms for layer
  m's span draw anyway.  A member's value is this conditional mean, not a
  sample: it has the mean of J^{l0, m}, and no larger a variance than the
  sketched sample.  Layer l is never drawn.

The NTK diagonal reads every layer backwards too.  :func:`ensemble_ntk`
runs the lean step on every layer, then steps k = min(8, N_L) rows G of d
h^L / d h^l down from the output.  Given the forward pass, W^l = v z^T /
|z|^2 + Xi (I - P_z) with v = W^l z^{l-1} the forward product and Xi iid
and fresh, and G Xi has the law of M Xi'' for M M^T = G G^T, so the
reverse span draw ``G W^l = (G v) z^T / |z|^2 + M Xi'' (I - P_z)`` is
exact from k x N_{l-1} normals of a stream of its own
(:func:`_reverse_span`, :meth:`NetworkParams.reverse`).  The forward pass
records only h^l and v per layer; each block is rebuilt from h^{l-1} as
the rows pass it.  A member so averages Theta_ii over k output units, not
all N_L: it has the mean of the dense member's average, and a wider
spread.

So ``empirical_chi`` draws 2 N_l normals per layer up to L - 2, a profile
or ``n0_correction_check`` N_l (k + 2) per layer above l0, and
``ensemble_ntk`` (2 + k) N per layer: no driver draws a weight matrix.  A
member of a measurement that draws a layer above l0 holds O(N k) (its V,
one span draw, and per configuration three N x k arrays and its block's
factors): at width 1000 and N0 784 about 0.4 MB, vanilla, whatever the
depth, where one whole layer is 8 MB and a full tangent 6.3 MB.  Before
the first member, a driver refuses (``ValueError``) a run whose members,
one per worker process, would not fit in physical memory
(:func:`_member_bytes`); a one-step member holds only its forward state,
and an NTK member its forward record, 2 N_l entries per layer, plus k x N
gradient rows and one block.

Determinism: every (seed, member, layer) draws from its own seed-derived
RNG stream, and the NTK's reverse draws and each member's sketch from
streams of their own; every configuration keeps its own matrix products.
A driver's member is an exact sample of the network's law (of J^{l0,
m}'s conditional mean over W^m given its sketch, at every layer m; an
NTK member, of the diagonal averaged over its k output units), not a
materialized network.  Configurations that share a draw -- same width,
input dimension, depth, members, seed, groups and input resampling --
ride one sweep, so each layer is drawn once for all of them.  Each draw
reads its layer's stream from the start, and configurations share the
sketch and the draws (xi^l, b^l) and Xi^l, so only each one's own law is
exact, not their joint law under one dense W^l.  The explicit-network
functions record the sample (1/N_m) |T^m|_F^2 at every layer they draw,
the last layer of J^{l0, l} included.  Which layers a driver draws, and
how, depends only on what its configurations share, so a driver's result
is bit-identical whether its configuration runs alone or with others
sharing the draw, and however many worker processes evaluate the members;
the sketch's products are small enough that it is also bit-identical on
one BLAS thread or two (tested at width 1000, N0 784).  A driver's members
run in worker processes, as many as ``JACPROP_WORKERS`` names (by default
the CPUs the process may use) and never more than one per member: each
takes a contiguous range of members, and their rows are joined in member
order.  The process keeps one forked pool per ``JACPROP_WORKERS`` value
(:func:`_pool`), of which a run of n members uses at most n processes; one
worker runs the members in the calling process.
"""

from __future__ import annotations

import atexit
import math
import os
import threading
from concurrent.futures import BrokenExecutor
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
    "first_kernel",
]

#: Guard added under the square root of every finite-width normalization.
LN_EPS = 1e-12

#: Input directions a driver's tangent carries above l0 (every one of a
#: narrower layer l0): the sketch V of :meth:`NetworkParams.sketch`.  At
#: width 1000, N0 128, depth 250 (ReLU and erf critical, both on one draw,
#: 200-300 members at each of two seeds, one BLAS thread) a member cost
#: 0.08, 0.10, 0.18 and 0.34-0.37 s at k = 4, 8, 16 and 32, and a member's
#: spread on the fitted exponents (l >= 101) did not shrink beyond noise
#: from k = 4 on: ReLU 0.90-0.93, 0.82-0.99, 1.01-1.03 and 0.79-0.98, erf
#: 0.51-0.57, 0.51-0.54, 0.37-0.44 and 0.43-0.44.  So variance times cost
#: is least at 4-8, about twice that at 16.  8 halves 4's sketch variance
#: where the network's own is small: shallow layers, and the input check's
#: J^{0,2} at N0 16.
_SKETCH = 8

#: Output units whose NTK diagonal an :func:`ensemble_ntk` member averages
#: (every unit of a narrower output layer).  See ROADMAP item 5.
_NTK_ROWS = 8

#: Vectors of N entries that an NTK member keeps per layer for its
#: backward pass: h^l, W^l z^{l-1} and their bookkeeping (2.1-2.7 measured
#: at width 256, 1.7-2.1 at width 1024).
_NTK_RECORD = 3

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
        if self.resample_inputs and self.input_source[0] != "gaussian":
            raise ValueError(
                "resample_inputs draws a fresh gaussian input per member; "
                f"a {self.input_source[0]!r} input source holds only one"
            )

    @property
    def layer_dims(self) -> list[int]:
        return [self.input_dim] + [self.width] * self.depth


def _generator(seed: int, *key: int) -> np.random.Generator:
    """A generator on the seed stream that spawn key ``key`` of ``seed``
    names (:class:`NetworkParams` lists the keys)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


@dataclass(frozen=True)
class NetworkParams:
    """One member's standard-normal draws, produced layer by layer.

    Holds the layer sizes and the member's seed and index i, from which
    every draw derives a seed stream of its own, the spawn key under the
    seed (:func:`_generator`):

    - layer l's weights and biases, and its conditional draws: (0, i, l - 1);
    - the member's input (:func:`resolve_input`): (1, i);
    - layer l's reverse draw (:meth:`reverse`): (2, i, l - 1);
    - the member's sketch (:meth:`sketch`): (3, i).

    :meth:`layer` draws a layer's weights and biases from its stream,
    identically on every call.  The handle holds no draw, so it is cheap to
    make and to send to a worker process.  Hyperparameter scaling happens
    at use.
    """

    layer_dims: list
    seed: int
    init_index: int = 0

    @classmethod
    def draw(cls, layer_dims: Sequence[int], seed: int, init_index: int = 0):
        """Deterministic handle; every (seed, init, layer) has its own stream."""
        return cls(layer_dims=list(layer_dims), seed=seed, init_index=init_index)

    @property
    def depth(self) -> int:
        return len(self.layer_dims) - 1

    def stream(self, l: int) -> np.random.SeedSequence:
        """Layer l's seed stream, the l-th child that spawning the member's
        root (0, init) gives."""
        return self._rng(l).bit_generator.seed_seq

    def _rng(self, l: int) -> np.random.Generator:
        return _generator(self.seed, 0, self.init_index, l - 1)

    def layer(self, l: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw (W^l, b^l) of shapes (N_l, N_{l-1}) and (N_l,), weights first."""
        rng, dims = self._rng(l), self.layer_dims
        return rng.standard_normal((dims[l], dims[l - 1])), rng.standard_normal(dims[l])

    def conditional(self, l: int, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Draw (Xi^l, b^l) of shapes (N_l, k + 1) and (N_l,), Xi first, from
        layer l's stream.

        Given the layers below, the rows of ``W^l A`` for any N_{l-1} x (k + 1)
        matrix A are iid N(0, A^T A), which is the law of the rows of ``Xi^l
        R`` for any R with R^T R = A^T A (:func:`_span_root`): a layer that
        acts on k + 1 columns needs N_l (k + 2) normals instead of N_l
        (N_{l-1} + 1).  At k = 0, A = z and R = |z|.  Both come from one
        call on the stream, which reads it as two calls would.
        """
        n = self.layer_dims[l]
        both = self._rng(l).standard_normal(n * (k + 2))
        return both[:n * (k + 1)].reshape(n, k + 1), both[n * (k + 1):]

    def sketch(self, l0: int, k: int) -> np.ndarray:
        """V = sqrt(N_{l0} / k) Q of shape (N_{l0}, k), Q's columns
        Haar-orthonormal, from a stream of its own, one per (seed, member)
        that shares nothing with the layer, input or reverse streams.

        Q is the QR factor of a Gaussian draw, its column signs set by R's
        diagonal, so V V^T has mean I, and V^T V = (N_{l0} / k) I.
        """
        n = self.layer_dims[l0]
        Q, R = np.linalg.qr(_generator(self.seed, 3, self.init_index).standard_normal((n, k)))
        Q *= np.where(np.diag(R) < 0.0, -1.0, 1.0) * math.sqrt(n / k)
        return Q

    def reverse(self, l: int, k: int) -> np.ndarray:
        """Draw Xi''^l of shape (k, N_{l-1}) from a stream of its own, one
        per (seed, member, layer) that shares nothing with layer l's: the
        part of W^l that its forward product leaves free, as k gradient
        rows see it (:func:`_reverse_span`)."""
        return _generator(self.seed, 2, self.init_index, l - 1).standard_normal(
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
    #: Processes that evaluated the members: 1 is the calling process alone
    #: (one worker, or no pool), more are a pool's (:func:`_members`).
    workers: int = field(default=1, compare=False)


def resolve_input(cfg: EnsembleConfig, init_index: int = 0) -> np.ndarray:
    """Materialize the input vector for one ensemble member.

    With ``resample_inputs`` off (the default) every member sees the
    member-0 input, i.e. a single input shared across the ensemble; a
    file or array source is one input, which the config cannot resample.
    """
    idx = init_index if cfg.resample_inputs else 0
    kind = cfg.input_source[0]
    if kind == "gaussian":
        _, mean, std = cfg.input_source
        return mean + std * _generator(cfg.seed, 1, idx).standard_normal(cfg.input_dim)
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
        at most 2 g: the stages' factors composed in order, once (one stage
        is its own factors)."""
        if self._factors is None:
            out = None
            for name, stage in self._stages:
                part = stage()
                out = part if out is None else _compose(out, part)
                if self._behind is not None:  # a stage behind the norm: diagonal
                    self._behind = self._behind * part[0]
                elif name == "norm":
                    self._behind = np.ones(self.z.size)
            self._factors = out
        return self._factors

    def tangent(self, T: np.ndarray, spare: np.ndarray) -> np.ndarray:
        """d z^l / d h^l applied to tangent columns ``T``, in place: with
        C = V^T T, T becomes lam T + U C, U C formed in ``spare``, an array
        of T's shape that it overwrites."""
        lam, U, V = self.factors()
        C = V.T @ T if U.shape[1] else None
        T *= lam[:, None]
        if C is not None:
            T += np.matmul(U, C, out=spare)
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


def _scaled_eigh(G: np.ndarray, n: int) -> tuple:
    """(e, V, d) for the Gram G = A^T A of n-row columns A: the Gram scaled
    to a unit diagonal, D^-1 G D^-1 = V diag(e) V^T with D = diag(d) and d
    the column norms |A e_j|, so every column keeps its own relative
    accuracy.  Eigenvalues within n c eps of the largest (c columns), the
    rounding that n-term sums leave in the scaled Gram, count as zero."""
    d = np.sqrt(np.diag(G))
    inv = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)
    e, V = np.linalg.eigh(G * np.outer(inv, inv))
    e[e <= n * G.shape[0] * np.finfo(float).eps * e[-1]] = 0.0
    return e, V, d


def _gram_root(G: np.ndarray, n: int) -> np.ndarray:
    """R with R^T R = G for the Gram G = A^T A of n-row columns A: R =
    diag(sqrt(e)) V^T D from :func:`_scaled_eigh`, so a rank-deficient A
    gives exactly zero rows."""
    e, V, d = _scaled_eigh(G, n)
    return (np.sqrt(e)[:, None] * V.T) * d


def _span_root(z: np.ndarray, F: np.ndarray) -> np.ndarray:
    """R with R^T R = A^T A for A = [z, F], from the (k + 1)-square Gram:
    R = V diag(sqrt(e)) V^T D (:func:`_scaled_eigh`), the principal root of
    the scaled Gram, which is unique, so R moves with A by as little as A
    moves.  A root that kept eigh's eigenvector signs would not: post-LN
    leaves z orthogonal to every tangent column, the Gram's z row is then
    rounding, and its signs choose the eigenvectors'.  A zero column gives
    exactly a zero column, and z in the span of F (ReLU at sigma_b = 0)
    gives R of A's rank."""
    k = F.shape[1]
    G = np.empty((k + 1, k + 1))
    G[0, 0] = z @ z
    G[0, 1:] = G[1:, 0] = z @ F
    G[1:, 1:] = F.T @ F
    e, V, d = _scaled_eigh(G, z.size)
    return ((V * np.sqrt(e)) @ V.T) * d


class _Probe:
    """One measurement riding a sweep over one network's layers.

    Carries the forward state of one input and, once the sweep passes
    layer ``l0``, the tangent block T^m = d h^m / d h^{l0} (times V, for a
    driver).  It needs layers 1..``last``.  ``value`` ends as J^{l0, m} at
    every layer m in (l0, last], NaN elsewhere; with ``keep`` every
    preactivation h^l is recorded in ``hs`` instead, and its scaled W^l
    z^{l-1} in ``wzs``.  Layers at or below ``l0`` (every layer, without
    ``l0``) only carry its forward pass.

    In a driver's sweep (:func:`_sweep`) a probe takes each forward-only
    layer as one :meth:`lean` step.  Above l0 it starts its tangent at the
    ``sketch`` V, records at layer m the conditional mean over W^m,
    (sigma_w^2 / N_{m-1}) |B^{m-1} T^{m-1}|_F^2, as :meth:`ready` forms F
    = B^{m-1} T^{m-1}, and takes every layer below ``last`` as one span
    draw (:meth:`sample`), so it never draws layer ``last`` (module
    docstring).  On an explicit network (:func:`_explicit`) it takes every
    layer whole (:meth:`whole`) and records the sample (1/N_m) |T^m|_F^2.
    """

    def __init__(self, dims, act, hp, norm, groups, x, last,
                 l0=None, keep=False, sketch=None):
        if l0 is not None and not 0 <= l0 < last <= len(dims) - 1:
            raise ValueError(f"need 0 <= l0 < l <= {len(dims) - 1}, got l0={l0}, l={last}")
        x = np.asarray(x, dtype=float)
        if x.shape != (dims[0],):
            raise ValueError(f"input must have shape ({dims[0]},), got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("input must be finite, got NaN or inf entries")
        self.dims, self.act, self.hp, self.norm, self.groups = dims, act, hp, norm, groups
        self.last, self.l0, self.keep = last, l0, keep
        self.sketch = sketch
        self.z = x
        self.block = None  # block on the latest preactivation
        self.T = None      # d h^{l-1} / d h^{l0} (times V)
        self.F = None      # B^{l-1} T^{l-1}, for a driver's span draw
        self.value = None if l0 is None else np.full(len(dims), np.nan)
        self.hs: list = [None]   # hs[l] = h^l, 1-indexed (with keep)
        self.wzs: list = [None]  # wzs[l], its scaled W^l z^{l-1} (with keep)

    def lean(self, l: int, xi: np.ndarray, b: np.ndarray) -> None:
        """Advance through forward-only layer ``l`` given (xi^l, b^l) of
        :meth:`NetworkParams.conditional` at k = 0: ``|z^{l-1}| xi^l`` stands
        in for ``W^l z^{l-1}``, with exactly its law given the past."""
        wz = math.sqrt(float(self.z @ self.z)) * xi
        wz *= self.hp.sigma_w / math.sqrt(self.dims[l - 1])
        self._advance(l, wz, b)

    def ready(self, l: int) -> bool:
        """Record J^{l0, l} for a driver's layer ``l`` > l0, its conditional
        mean over W^l, and form F = B^{l-1} T^{l-1} for the span draw, with
        T^{l0} = V and B^0 = I.  Returns whether layer l is drawn (l <
        ``last``)."""
        m, sw2 = l - 1, self.hp.sw2
        if m == self.l0:
            # exact whatever V: (sigma_w^2 / N_{l0}) |B^{l0}|_F^2 off the factors
            self.value[l] = sw2 * (self.block.frobenius_sq() / self.dims[m] if m else 1.0)
            if l == self.last:
                return False
            T = self.sketch if m == 0 else self.sketch.copy()
        else:
            T = self.T
        self.F = T if m == 0 else self.block.tangent(T, np.empty_like(T))
        if m > self.l0:
            self.value[l] = sw2 * (float(np.sum(self.F * self.F)) / self.dims[m])
        return l < self.last

    def sample(self, l: int, xi: np.ndarray, b: np.ndarray) -> None:
        """Advance through layer ``l`` > l0 given (Xi^l, b^l) of
        :meth:`NetworkParams.conditional`: with A = [z^{l-1}, F] and R =
        :func:`_span_root`, ``Xi^l R`` stands in for ``W^l A``, with exactly
        its law given the past."""
        R = _span_root(self.z, self.F)
        scale = self.hp.sigma_w / math.sqrt(self.dims[l - 1])
        self.T = xi @ R[:, 1:]
        self.T *= scale
        wz = xi @ R[:, 0]
        wz *= scale
        self.F = self.block = None
        self._advance(l, wz, b)

    def whole(self, l: int, net: NetworkParams) -> None:
        """Advance through layer ``l`` of the explicit network ``net``,
        drawn whole: W z (none at ``last`` without ``keep``) and, above l0,
        T^l = W F for F = B^{l-1} T^{l-1}, formed before W is drawn, with
        T^{l0} = I (so W itself at l0 = 0, bit for bit).  W is dropped
        once its products are formed, before the norm (1/N_l) |T^l|_F^2
        is taken."""
        m, scale = l - 1, self.hp.sigma_w / math.sqrt(self.dims[l - 1])
        above = self.l0 is not None and l > self.l0
        if above and m:
            T = np.eye(self.dims[m]) if m == self.l0 else self.T
            F = self.block.tangent(T, np.empty_like(T))
            self.T = self.block = None  # F is the tangent, updated in place
        W, b = net.layer(l)
        wz = W @ self.z if l < self.last or self.keep else None
        if above:
            T = W if m == 0 else W @ F
            W = F = None
            T *= scale
            self.value[l] = float(np.sum(T * T)) / self.dims[l]
            self.T = T
        if wz is not None:
            wz *= scale
            self._advance(l, wz, b)

    def _advance(self, l: int, wz: np.ndarray, b: np.ndarray) -> None:
        """Set h^l from its scaled weight term ``wz`` and the bias draw."""
        h = wz + self.hp.sigma_b * b
        if self.keep:
            self.hs.append(h)
            self.wzs.append(wz)
        if l < self.last:
            self.block = _Block(self.act, self.norm, self.groups, h)
            self.z = self.block.z


def _sweep(net: NetworkParams, probes: list) -> None:
    """Advance every driver probe through layers 1.. of the network ``net``
    in one pass.

    The probes that only carry the forward vector through layer l share
    one lean step on ``net.conditional(l)``, and those that carry the k
    tangent columns of their shared sketch through it share one span draw
    ``net.conditional(l, k)``.  Every draw reads layer l's stream from the
    start.
    """
    for l in range(1, max(p.last for p in probes) + 1):
        lean, span = [], []
        for p in probes:
            if l > p.last:
                continue
            if p.l0 is None or l <= p.l0:
                lean.append(p)
            elif p.ready(l):
                span.append(p)
        if lean:
            xi, b = net.conditional(l)
            for p in lean:
                p.lean(l, xi[:, 0], b)
        if span:  # one sketch, so one column count: its probes share V
            xi, b = net.conditional(l, span[0].F.shape[1])
            for p in span:
                p.sample(l, xi, b)


def _explicit(net: NetworkParams, probe: _Probe) -> None:
    """Advance ``probe`` through layers 1..``last`` of the explicit network
    ``net``, one whole layer at a time (:meth:`_Probe.whole`).

    First it refuses a network that would not fit in physical memory: its
    largest layer drawn, with the biases, and two N x N_{l0} tangents (F
    and W F), N the widest layer.
    """
    dims, last = probe.dims, probe.last
    k = 0 if probe.l0 is None else dims[probe.l0]
    layer = max(dims[l] * (dims[l - 1] + 1) for l in range(1, last + 1))
    _refuse_beyond_memory(8 * (layer + 2 * k * max(dims[:last + 1])),
                          "one whole layer and its full tangents")
    for l in range(1, last + 1):
        probe.whole(l, net)


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
    _explicit(params, probe)
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
    of the normalization.  The norm is recorded at every layer in (l0, l];
    with ``profile=True`` they are returned as an array indexed by layer
    (NaN elsewhere, of length L + 1), otherwise layer l's alone.  Layers
    after ``l`` are never drawn.
    """
    probe = _Probe(params.layer_dims, act, hp, norm, groups, x, l, l0)
    _explicit(params, probe)
    return probe.value if profile else float(probe.value[l])


# ---------------------------------------------------------------------------
# ensemble drivers


def _workers() -> int:
    """Worker processes from ``JACPROP_WORKERS``, by default the CPUs this
    process may use; bad values raise."""
    text = os.environ.get(_WORKERS_ENV)
    if text is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"{_WORKERS_ENV} must be a positive integer, got {text!r}")
    return n


#: (process id, ``JACPROP_WORKERS`` value) -> that process's kept pool, or
#: None where none could start.  A process forked from one that holds pools
#: inherits their entries, but not their threads: it starts pools of its own.
_POOLS: dict = {}
_POOLS_LOCK = threading.Lock()


@atexit.register
def _drop_pools() -> None:
    """Release the pools at exit, once their workers have ended, while the
    modules that a pool's clean-up calls are still loaded."""
    _POOLS.clear()


def _pool(workers: int):
    """The pool of ``workers`` forked processes, one per ``JACPROP_WORKERS``
    value (:func:`_workers`) whatever a run's member count, started on first
    use and kept for the life of the process, or None if no pool can start
    here (no ``fork``, no semaphores, a process limit, a process that
    multiprocessing started), which is remembered.  A run uses at most one
    of its processes per member (:func:`_members`).

    Starting two workers costs 20-40 ms, and a pool started and shut down
    in each call made the benchmark's ``mc-chi`` round 0.56 s against 0.023
    s (2 vCPUs), so the pool is kept.  Its workers are forked, not
    spawned: a spawned worker imports numpy afresh and re-imports the
    caller's main module, which a script without a main guard cannot
    survive.  A member reads nothing from the state that the fork copied:
    its configs and network arrive as arguments.
    """
    key = os.getpid(), workers
    with _POOLS_LOCK:
        if key not in _POOLS:
            _POOLS[key] = _start_pool(workers)
        return _POOLS[key]


def _start_pool(workers: int):
    """A started pool of ``workers`` forked processes, or None."""
    try:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # numpy imports its random module on first use: import it before
        # the fork, not in each worker on its first member (10-30 ms each)
        import numpy.random  # noqa: F401

        if multiprocessing.parent_process() is not None:
            # a process that multiprocessing started: a daemon may not have
            # children, and any other joins them at exit before it would
            # shut their pool down
            return None
        pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                   _end_with_parent)
    except (ImportError, NotImplementedError, OSError, ValueError):
        return None
    try:
        pool.submit(int).result()  # forks every worker now, so a failure shows here
    except (OSError, BrokenExecutor):
        _end(pool)  # and the workers forked before a failed fork
        return None
    return pool


def _end(pool) -> None:
    """End ``pool``'s processes now, whatever they are running."""
    for process in list((pool._processes or {}).values()):
        process.terminate()
    pool.shutdown(wait=False)


def _end_with_parent() -> None:
    """Pool initializer: a worker ends once its parent process has ended,
    normally or killed.  Its parent sentinel is a pipe whose write end the
    parent holds, with any worker forked after this one, so it reads end of
    file once they have all ended."""
    import multiprocessing

    sentinel = multiprocessing.parent_process().sentinel
    threading.Thread(target=_exit_at_end_of_file, args=(sentinel,), daemon=True).start()


def _exit_at_end_of_file(fd: int) -> None:
    """End this process once ``fd``, a pipe nobody writes to, is closed."""
    os.read(fd, 1)
    os._exit(0)


def _members(task: Callable, cfgs: list, l0: int | None, l: int) -> tuple[list, int]:
    """``task(cfgs, l0, l, net)`` for every member's network ``net``: one
    array per config, rows in member order, and the number of processes
    that evaluated them.

    ``task`` returns one row of values per config.  With W =
    :func:`_workers` above one, the n members are split into min(W, n)
    contiguous ranges, at most one process per member, which the kept pool
    of W processes (:func:`_pool`) evaluates, and their rows are joined in
    member order, so the result has the same bits at any worker count.
    Without a pool, or if one of its processes dies, the members run in the
    calling process, which counts as one worker.  A run that raises, or is
    interrupted, ends the pool's processes rather than leave them computing
    members that nobody reads.  The calling process makes every member's
    :class:`NetworkParams`, a handle that draws nothing.

    Before any member is drawn, a run whose members would not fit in
    physical memory is refused (``ValueError``): each of the processes that
    evaluate them holds one member at a time (:func:`_member_bytes`).
    """
    first = cfgs[0]
    n, size = first.n_init, _workers()
    workers = min(size, n)
    _refuse_beyond_memory(_member_bytes(cfgs, l0, l) * workers,
                          f"{workers} worker(s) x one member")

    def nets(start: int, stop: int):
        return (NetworkParams.draw(first.layer_dims, first.seed, i) for i in range(start, stop))

    pool = _pool(size) if workers > 1 else None
    rows = None
    if pool is not None:
        bounds = [n * j // workers for j in range(workers + 1)]
        try:
            futures = [pool.submit(_member_rows, task, cfgs, l0, l, list(nets(a, b)))
                       for a, b in zip(bounds, bounds[1:])]
            rows = [row for future in futures for row in future.result()]
        except BaseException as exc:
            # a worker died, or the run ended early (an error, an interrupt):
            # end the members in flight, and start afresh next time
            with _POOLS_LOCK:
                if _POOLS.get((os.getpid(), size)) is pool:
                    del _POOLS[os.getpid(), size]
            _end(pool)
            if not isinstance(exc, BrokenExecutor):
                raise
    if rows is None:
        workers, rows = 1, _member_rows(task, cfgs, l0, l, nets(0, n))
    return [np.array([row[c] for row in rows]) for c in range(len(cfgs))], workers


def _member_rows(task: Callable, cfgs: list, l0: int | None, l: int, nets) -> list:
    """The rows of ``task`` for the member networks ``nets``, in order."""
    return [task(cfgs, l0, l, net) for net in nets]


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


def _member_bytes(cfgs: list, l0: int | None, l: int) -> int:
    """What one driver member measuring J^{l0, m} for m in (l0, l] holds
    at its peak.

    It draws layers l0 + 1 .. l - 1 in the span of k = min(``_SKETCH``,
    N_{l0}) tangent columns; layer l is integrated out.  If it draws any,
    it holds its sketch V (N_{l0} x k) and one span draw (N (k + 2)
    normals), plus per configuration three N x k arrays (the tangent, B T
    and the rank update), eight vectors of N for its forward state and its
    block's factors, up to 8 N entries per unit of their rank 2 g while
    they are composed; N is the widest layer from l0 to l.  A one-step
    member holds only its forward state and its block's factors.  An NTK
    member (``l0`` None, depth ``l``) holds its forward record, h^l and
    W^l z^{l-1}, priced at ``_NTK_RECORD`` vectors of N per layer;
    stepping down the layers, it adds six k x N arrays (gradient rows,
    draws, temporaries) and the one block it rebuilds (both measured at
    width 256).
    """
    dims = cfgs[0].layer_dims
    if l0 is None:
        cfg, n = cfgs[0], max(dims)
        k = min(_NTK_ROWS, dims[-1])
        return 8 * n * (_NTK_RECORD * l + 6 * k + 8 * _rank(cfg))
    if l == l0 + 1:
        return 0
    n, k = max(dims[l0:l + 1]), min(_SKETCH, dims[l0])
    per_cfg = sum(3 * k + 8 + 8 * _rank(c) for c in cfgs)
    return 8 * (dims[l0] * k + n * (k + 2 + per_cfg))


def _rank(cfg: EnsembleConfig) -> int:
    """The rank 2 g of a block's factors, 0 without a norm."""
    return 2 * cfg.groups if cfg.norm.normalizes else 0


def _refuse_beyond_memory(need: int, held: str) -> None:
    """Raise ``ValueError`` if ``need`` bytes, which ``held`` names, exceed
    physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"the run would hold about {need / 2**30:.3g} GiB ({held}), "
            f"more than the {have / 2**30:.3g} GiB of physical memory"
        )


def _swept_member(cfgs: list, l0: int, l: int, net: NetworkParams) -> list:
    """The values of J^{l0, m} for every m in (l0, l] on the member network
    ``net``, all configs in one sweep: one row per config indexed by layer,
    NaN outside (l0, l].

    Each value is the member's conditional mean over W^m given the layers
    below and the member's sketch V (module docstring), so a single J^{l0,
    l} is column l, and layer l is never drawn.  Every config shares the
    member's V and its span draws.
    """
    k = min(_SKETCH, net.layer_dims[l0])
    V = net.sketch(l0, k) if l > l0 + 1 else None
    probes = [_Probe(net.layer_dims, cfg.act, cfg.hyper, cfg.norm, cfg.groups,
                     resolve_input(cfg, net.init_index), l, l0, sketch=V)
              for cfg in cfgs]
    _sweep(net, probes)
    return [p.value for p in probes]


def _estimate(values: np.ndarray):
    """Mean and standard error over the members (axis 0), each column with
    the bits of its own 1-D estimate; one member has no standard error, so
    it reads NaN."""
    n, columns = values.shape[0], np.ascontiguousarray(values.T)
    mean = columns.mean(axis=-1)
    if n == 1:
        return mean, np.full_like(mean, np.nan)
    return mean, columns.std(axis=-1, ddof=1) / math.sqrt(n)


def _scalar_estimate(values: np.ndarray, workers: int = 1) -> JacobianEstimate:
    mean, stderr = _estimate(values)
    return JacobianEstimate(mean=float(mean), stderr=float(stderr), n=values.shape[0],
                            workers=workers)


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
    values, workers = _members(_swept_member, cfgs, L - 2, L - 1)
    ests = [_scalar_estimate(v[:, L - 1], workers) for v in values]
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
    (values,), workers = _members(_ntk_member, [cfg], None, cfg.depth)
    return _scalar_estimate(values, workers)


def _ntk_member(cfgs: list, l0: None, L: int, net: NetworkParams) -> list:
    """One member's row of :func:`ensemble_ntk`, on the network ``net``."""
    (cfg,) = cfgs
    k = min(_NTK_ROWS, cfg.width)
    x = resolve_input(cfg, net.init_index)
    probe = _Probe(net.layer_dims, cfg.act, cfg.hyper, cfg.norm, cfg.groups, x,
                   last=L, keep=True)
    _sweep(net, [probe])

    def gw(l, G, z):
        scale = cfg.hyper.sigma_w / math.sqrt(net.layer_dims[l - 1])
        return _reverse_span(G, probe.wzs[l], z, net.reverse(l, k), scale)

    return [_ntk_sum(probe, x, np.eye(k, cfg.width), gw)]


def jacobian_profile(cfg: EnsembleConfig | Sequence[EnsembleConfig], l0: int = 0):
    """Ensemble-averaged J^{l0, l} for every layer l in (l0, L].

    Each member's value at layer l is the single J^{l0, l}'s, its
    conditional mean over W^l given its tangent of k = min(8, N_{l0})
    sketched input directions (module docstring): it has the mean of J^{l0,
    l}, and layer l0 + 1's is exact.  Layers l0 + 1 .. L - 1 are span
    draws, layer L is never drawn, and ``mean``/``stderr`` are layer L's
    entries.  Given a sequence of configs that share a draw, returns one
    estimate per config.
    """
    cfgs, single = _batch(cfg)
    L = cfgs[0].depth
    if not 0 <= l0 < L:
        raise ValueError(f"l0 must satisfy 0 <= l0 < depth ({L}), got {l0}")
    values, workers = _members(_swept_member, cfgs, l0, L)
    ests = []
    for rows in values:
        mean, stderr = _estimate(rows)
        ests.append(JacobianEstimate(float(mean[L]), float(stderr[L]), rows.shape[0],
                                     mean, stderr, workers))
    return ests[0] if single else ests


@dataclass(frozen=True)
class N0CorrectionReport:
    """Measured J^{0,2} against the corrected / uncorrected predictions."""

    measured: float
    measured_stderr: float
    corrected_pred: float
    uncorrected_pred: float
    #: Processes that evaluated the members, as :class:`JacobianEstimate`'s.
    workers: int = field(default=1, compare=False)

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
    a span draw, and the sketch V, (sigma_w^2 / N_1) |B^1 T^1|_F^2 with
    T^1 = (sigma_w / sqrt(N0)) W^1 V (module docstring): the mean of
    J^{0,2}.  Up to N0 = 8 the sketch keeps every input direction, and
    |B^1 T^1|_F is the unsketched tangent's.  With ``resample_inputs`` each
    member sees its own input, and both predictions are averaged over the
    members' inputs.
    """
    if cfg.norm.normalizes:
        raise ValueError("the input correction is derived for the vanilla mode")
    (values,), workers = _members(_swept_member, [cfg], 0, 2)
    est = _scalar_estimate(values[:, 2])

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
        workers=workers,
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
    z^{l-1}.  Each block is rebuilt from the probe's h^{l-1}, with the bits
    of the forward pass's, and the record is released as it is passed.
    """
    hp, dims, hs = probe.hp, probe.dims, probe.hs
    total = 0.0
    for l in range(len(dims) - 1, 0, -1):
        g_sq = float(np.sum(G * G))
        hs.pop()  # h^l, passed
        block = _Block(probe.act, probe.norm, probe.groups, hs[-1]) if l > 1 else None
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
    through its factors.  The forward pass draws the layers one at a time
    as :func:`forward` does, and the way down draws each W^l again, so it
    holds one weight matrix at a time; its cost grows with width^3, so
    networks wider than 256 or deeper than 12 are refused.
    """
    L = params.depth
    dims = params.layer_dims
    if max(dims) > _NTK_MAX_WIDTH or L > _NTK_MAX_DEPTH:
        raise ValueError(
            f"the exact NTK takes at most width {_NTK_MAX_WIDTH} and depth "
            f"{_NTK_MAX_DEPTH}, got width {max(dims)} and depth {L}"
        )
    probe = _Probe(dims, act, hp, norm, groups, x, last=L, keep=True)
    _explicit(params, probe)
    return _ntk_sum(probe, np.asarray(x, dtype=float), np.eye(dims[L]),
                    lambda l, G, z: (hp.sigma_w / math.sqrt(dims[l - 1]))
                    * (G @ params.layer(l)[0]))
