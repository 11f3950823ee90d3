"""The three seeded workloads: the calls a round makes, and their checks.

A workload is built once from the run's seed (:func:`build`) and then
played in rounds.  Round ``r`` derives its own seed from ``(seed, r)``, so
every round does the same amount of work on fresh draws and no round can
be served from an earlier one.  A round returns one :class:`Outcome` per
operation; the workload's ``check`` runs after the timed phase and
records why an outcome is wrong, if it is.  A workload's ``summary``
reduces one operation's times over the recorded rounds to the figure
that ``wall_s`` adds up.

Every tolerance on a Monte-Carlo result below is at least five standard
deviations of the quantity it bounds, measured on this code over
independent seeds, so correct code passes at any seed while a result off
by an O(1) factor fails.  The theory checks are deterministic.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Timed calls go through the module attributes, which tracing rebinds.
from jacprop import cli, ensemble
from jacprop.activations import Activation
from jacprop.critical import critical_line, find_fixed_point, gelu_parametric_line
from jacprop.ensemble import EnsembleConfig, NetworkParams, forward, resolve_input
from jacprop.meanfield import Hyper, NormMode, trace

RELU, ERF, GELU = Activation.relu(), Activation.erf(), Activation.gelu()

#: Paper size of the Monte-Carlo workloads.
WIDTH, N0, DEPTH = 1000, 784, 50


@dataclass
class Outcome:
    """One operation of a round: what ran, what it returned, what is wrong."""

    label: str
    spec: dict
    value: object = None
    error: str | None = None
    failures: list = field(default_factory=list)
    seconds: float = 0.0


def round_seed(seed: int, r: int) -> int:
    return int(np.random.SeedSequence([seed, r]).generate_state(1)[0])


def _attempt(label: str, spec: dict, fn: Callable[[], object]) -> Outcome:
    out = Outcome(label, spec)
    t0 = time.perf_counter()
    try:
        out.value = fn()
    except Exception as exc:  # counted as a failed operation, never fatal
        out.error = f"{type(exc).__name__}: {exc}"
    out.seconds = time.perf_counter() - t0
    return out


def _mc_config(spec: dict, seed: int, **sizes) -> EnsembleConfig:
    return EnsembleConfig(seed=seed, act=spec["act"], norm=spec["mode"],
                          hyper=spec["hp"], **sizes)


def _first_kernel(cfg: EnsembleConfig) -> float:
    """K[1] of the input the ensemble actually sees."""
    x = resolve_input(cfg, 0)
    return cfg.hyper.sw2 * float(x @ x) / cfg.input_dim + cfg.hyper.sb2


# ---------------------------------------------------------------------------
# mc-chi


#: Configurations sharing (width, N0, depth, seed).  ``tol`` bounds the
#: relative deviation of a 2-member estimate from chi*: six standard
#: deviations of it, measured over 30 seeds as 2.0 %, 4.3 % and 4.5 %.
CHI_CONFIGS = [
    dict(name="relu-vanilla", act=RELU, mode=NormMode.VANILLA,
         hp=Hyper(math.sqrt(2.0), 0.0), tol=0.12),
    dict(name="erf-pre-ln", act=ERF, mode=NormMode.PRE_LN,
         hp=Hyper(1.5, 0.5), tol=0.26),
    dict(name="gelu-post-ln", act=GELU, mode=NormMode.POST_LN,
         hp=Hyper(1.5, 0.7), tol=0.27),
]
CHI_MEMBERS = 2


class McChi:
    #: The vectorised draws barely feel other tenants of a shared host, but
    #: now and then a round runs a quarter faster; the median ignores those.
    summary = staticmethod(statistics.median)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def run_round(self, r: int) -> list[Outcome]:
        s = round_seed(self.seed, r)
        out = []
        for spec in CHI_CONFIGS:
            cfg = _mc_config(spec, s, width=WIDTH, input_dim=N0, depth=DEPTH,
                             n_init=CHI_MEMBERS)
            out.append(_attempt(f"r{r} empirical_chi {spec['name']}", spec,
                                lambda cfg=cfg: ensemble.empirical_chi(cfg)))
        return out

    def check(self, o: Outcome) -> None:
        spec = o.spec
        chi = find_fixed_point(spec["act"], spec["mode"], spec["hp"]).chi_j_star
        mean = o.value.mean
        if not math.isfinite(mean) or abs(mean / chi - 1.0) > spec["tol"]:
            o.failures.append(f"estimate {mean!r} vs chi* {chi!r} "
                              f"(tolerance {spec['tol']:.0%})")


# ---------------------------------------------------------------------------
# mc-profile


PROFILE_MEMBERS = 1
#: Half-width of the band on |log(J_emp / J_theory)| at layer l is
#: PROFILE_BAND * sqrt((l - 1) / (L - 1)).  One member's largest
#: log-deviation in those units averaged 0.68 and peaked at 1.25 over 40
#: erf pre-LN members (erf vanilla: 0.23 and 0.55 over 24).
PROFILE_BAND = 4.0
#: J[1] is a sum of N * N0 squared normals: spread 0.08 %.
PROFILE_FIRST_TOL = 0.01

NTK_WIDTH, NTK_DEPTH, NTK_MEMBERS = 256, 12, 24
#: Allowed finite-width bias of the NTK mean; the statistical error is
#: added on top as four standard errors (one member spreads by ~30 %).
NTK_TOL = 0.10


class McProfile:
    summary = staticmethod(statistics.median)  # as for McChi

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        (line,) = critical_line(ERF, NormMode.PRE_LN, [1.5])
        self.configs = [
            dict(name="erf-vanilla-critical", act=ERF, mode=NormMode.VANILLA,
                 hp=Hyper(math.sqrt(math.pi / 4.0), 0.0)),
            dict(name="erf-pre-ln-critical-line", act=ERF, mode=NormMode.PRE_LN,
                 hp=Hyper(line.sigma_w, line.sigma_b)),
        ]

    def run_round(self, r: int) -> list[Outcome]:
        s = round_seed(self.seed, r)
        out = []
        for spec in self.configs:
            cfg = _mc_config(spec, s, width=WIDTH, input_dim=N0, depth=DEPTH,
                             n_init=PROFILE_MEMBERS)
            spec = dict(spec, cfg=cfg)
            out.append(_attempt(f"r{r} jacobian_profile {spec['name']}", spec,
                                lambda cfg=cfg: ensemble.jacobian_profile(cfg, l0=0)))
        path = os.path.join(self.workdir, f"ntk-{r}.json")
        argv = ["mc", "ntk", "--act", "relu", "--mode", "vanilla",
                "--sw", repr(math.sqrt(2.0)), "--sb", "0",
                "--width", str(NTK_WIDTH), "--input-dim", str(NTK_WIDTH),
                "--depth", str(NTK_DEPTH), "--n-init", str(NTK_MEMBERS),
                "--seed", str(s), "-o", path]
        out.append(_attempt(f"r{r} cli mc ntk", dict(kind="ntk", seed=s, path=path),
                            lambda: cli.main(argv)))
        return out

    def check(self, o: Outcome) -> None:
        if o.spec.get("kind") == "ntk":
            self._check_ntk(o)
            return
        cfg = o.spec["cfg"]
        tr = trace(cfg.act, cfg.norm, cfg.hyper, DEPTH, _first_kernel(cfg), l0=0)
        emp = o.value.per_layer[1:]
        ref = tr.J[1:]
        if not (np.all(np.isfinite(emp)) and np.all(emp > 0)):
            o.failures.append("profile has non-finite or non-positive entries")
            return
        dev = np.abs(np.log(emp / ref))
        if dev[0] > PROFILE_FIRST_TOL:
            o.failures.append(f"J[1] {emp[0]!r} vs theory {ref[0]!r}")
        band = PROFILE_BAND * np.sqrt(np.arange(DEPTH) / (DEPTH - 1.0))
        bad = np.nonzero(dev[1:] > band[1:])[0]
        if bad.size:
            l = int(bad[0]) + 2
            o.failures.append(f"J[{l}] {emp[l - 1]!r} outside the band around "
                              f"theory {ref[l - 1]!r}")

    def _check_ntk(self, o: Outcome) -> None:
        if o.value != 0:
            o.failures.append(f"exit code {o.value}")
            return
        with open(o.spec["path"]) as f:
            doc = json.load(f)
        hp = Hyper(math.sqrt(2.0), 0.0)
        cfg = EnsembleConfig(width=NTK_WIDTH, input_dim=NTK_WIDTH, depth=NTK_DEPTH,
                             n_init=NTK_MEMBERS, seed=o.spec["seed"], hyper=hp)
        theta = trace(RELU, NormMode.VANILLA, hp, NTK_DEPTH, _first_kernel(cfg)).theta[NTK_DEPTH]
        mean, stderr = float(doc["mean"]), float(doc["stderr"])
        if doc["n"] != NTK_MEMBERS or not abs(mean - theta) <= NTK_TOL * theta + 4.0 * stderr:
            o.failures.append(f"NTK mean {mean!r} +- {stderr!r} vs theory {theta!r}")


# ---------------------------------------------------------------------------
# theory


#: Layers per trace.  4000 keeps a round between 1 and 2 s, so a 30 s run
#: times each command some twenty times and its fastest time is steady on
#: a shared host; the two traces still take about 70 % of a round.
TRACE_DEPTH = 4_000
GRID_RESOLUTION = 20
LINE_STEPS = 26            # the CLI's default --sw-steps
ERF_PRE_LN_SLOPE = 0.324   # sigma_b / sigma_w along the erf pre-LN line
GELU_POINTS = [(2.0, 0.0), (1.408, 0.416)]
FIT_L_MIN = 100


def _read_csv(path: str) -> list[list[float]]:
    """Data rows of a CLI CSV (comments and the header skipped)."""
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln and not ln.startswith("#")]
    return [[float(c) for c in ln.split(",")] for ln in lines[1:]]


class Theory:
    #: Other tenants of a shared host slow these pure-Python recursions by
    #: up to 1.8 times, for seconds to minutes at a time, and never speed
    #: them up, so each command's fastest time repeats best.
    summary = staticmethod(min)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        k_star = (3.0 + math.sqrt(17.0)) / 2.0  # nontrivial GELU fixed point
        self.gelu_hp = gelu_parametric_line(k_star)
        self.erf_hp = (math.sqrt(math.pi / 4.0), 0.0)

    def _kernels(self, r: int) -> tuple[float, float]:
        """First-layer kernels of one seeded N0-dimensional input.

        The GELU trace takes the input at scale 2, so that K[1] ~ 8 lies
        above K* = 3.56, on the side from which the half-stable critical
        point attracts.
        """
        x = np.random.Generator(np.random.PCG64(round_seed(self.seed, r))).standard_normal(N0)
        rho = float(x @ x) / N0
        (gw, gb), (ew, eb) = self.gelu_hp, self.erf_hp
        return gw * gw * 4.0 * rho + gb * gb, ew * ew * rho + eb * eb

    def run_round(self, r: int) -> list[Outcome]:
        k_gelu, k_erf = self._kernels(r)
        d = os.path.join(self.workdir, f"round-{r}")
        os.makedirs(d, exist_ok=True)
        p = {k: os.path.join(d, k) for k in
             ("gelu.csv", "erf.csv", "point.csv", "line.csv", "grid.csv", "fit.json")}
        (gw, gb), (ew, eb) = self.gelu_hp, self.erf_hp
        commands = [
            ("gelu-trace", ["theory-trace", "--act", "gelu", "--sw", repr(gw), "--sb", repr(gb),
                            "--depth", str(TRACE_DEPTH), "--k0", repr(k_gelu), "-o", p["gelu.csv"]]),
            ("erf-trace", ["theory-trace", "--act", "erf", "--sw", repr(ew), "--sb", repr(eb),
                           "--depth", str(TRACE_DEPTH), "--k0", repr(k_erf), "-o", p["erf.csv"]]),
            ("gelu-point", ["critical", "--point", "--act", "gelu", "-o", p["point.csv"]]),
            ("erf-pre-ln-line", ["critical", "--line", "--act", "erf", "--mode", "pre-ln",
                                 "-o", p["line.csv"]]),
            ("gelu-grid", ["phase-diagram", "--act", "gelu",
                           "--resolution", str(GRID_RESOLUTION), "-o", p["grid.csv"]]),
            ("erf-fit", ["fit", "--series", p["erf.csv"], "--kind", "power", "--j-col", "J",
                         "--l-min", str(FIT_L_MIN), "-o", p["fit.json"]]),
        ]
        return [
            _attempt(f"r{r} cli {kind}", dict(kind=kind, path=argv[-1]),
                     lambda argv=argv: cli.main(argv))
            for kind, argv in commands
        ]

    def check(self, o: Outcome) -> None:
        if o.value != 0:
            o.failures.append(f"exit code {o.value}")
            return
        kind, path = o.spec["kind"], o.spec["path"]
        if kind == "erf-fit":
            with open(path) as f:
                zeta = float(json.load(f)["zeta"])
            if not abs(zeta - 1.0) <= 0.05:
                o.failures.append(f"erf trace exponent {zeta!r}, expected 1")
            return
        rows = _read_csv(path)
        expected = {"gelu-trace": TRACE_DEPTH, "erf-trace": TRACE_DEPTH,
                    "gelu-point": len(GELU_POINTS), "erf-pre-ln-line": LINE_STEPS,
                    "gelu-grid": GRID_RESOLUTION ** 2}[kind]
        if len(rows) != expected:
            o.failures.append(f"{len(rows)} rows, expected {expected}")
            return
        if not all(math.isfinite(v) for row in rows for v in row):
            o.failures.append("non-finite cell")
        if kind == "gelu-point":
            dev = max(max(abs(row[0] - sw), abs(row[1] - sb))
                      for row, (sw, sb) in zip(rows, GELU_POINTS))
            if not dev <= 1e-3:
                o.failures.append(f"critical points off by {dev!r}")
        elif kind == "erf-pre-ln-line":
            sw = np.array([row[0] for row in rows])
            sb = np.array([row[1] for row in rows])
            slope = float(np.sum(sw * sb) / np.sum(sw * sw))
            if not abs(slope - ERF_PRE_LN_SLOPE) <= 1e-3:
                o.failures.append(f"critical-line slope {slope!r}")


# ---------------------------------------------------------------------------


WORKLOADS = {"mc-chi": McChi, "mc-profile": McProfile, "theory": Theory}


def build(name: str, seed: int, workdir: str):
    """Generate the workload's inputs and run one tiny warm-up forward.

    The first forward of a process pays the BLAS start-up; the warm-up
    keeps that cost in set-up instead of in the first member.
    """
    workload = WORKLOADS[name](seed, workdir)
    params = NetworkParams.draw([8, 8, 8], seed)
    forward(params, RELU, Hyper(1.0, 0.0), NormMode.VANILLA, np.ones(8))
    return workload
