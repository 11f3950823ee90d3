"""Tests of the benchmark itself: self-time accounting, checks, output.

Run from the repository root with ``python3 -m pytest bench``.  The
output tests start the benchmark as a subprocess, one untraced and two
traced runs per workload at one second each (a warm-up round and two
recorded rounds), about three minutes in all.
"""

import json
import math
import queue
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from jacprop.ensemble import JacobianEstimate  # noqa: E402


# ---------------------------------------------------------------------------
# self time on synthetic spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Worker(threading.Thread):
    """A thread that runs the callables it is handed, one at a time."""

    def __init__(self):
        super().__init__(daemon=True)
        self.tasks = queue.Queue()
        self.done = queue.Queue()

    def run(self):
        while (task := self.tasks.get()) is not None:
            self.done.put(task())

    def do(self, task):
        self.tasks.put(task)
        return self.done.get(timeout=10)

    def stop(self):
        self.tasks.put(None)
        self.join(timeout=10)
        assert not self.is_alive()


def _at(clock, t, fn, *args):
    clock.now = t
    return fn(*args)


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    root = _at(clock, 0.0, tr.open, "root")
    a = _at(clock, 1.0, tr.open, "a")
    a1 = _at(clock, 2.0, tr.open, "a1")
    _at(clock, 3.0, tr.close, a1)
    _at(clock, 4.0, tr.close, a)
    b = _at(clock, 5.0, tr.open, "b")
    _at(clock, 9.0, tr.close, b)
    _at(clock, 10.0, tr.close, root)
    assert dict(tr.self_s) == pytest.approx({"root": 3.0, "a": 2.0, "a1": 1.0, "b": 4.0})
    assert sum(tr.self_s.values()) == pytest.approx(10.0)
    assert dict(tr.calls) == {"root": 1, "a": 1, "a1": 1, "b": 1}


def test_self_time_with_overlapping_pool_threads():
    """Two workers under one driver span, overlapping from t=3 to t=6."""
    clock = FakeClock()
    tr = spans.Tracer(clock)
    w1, w2 = Worker(), Worker()
    w1.start()
    w2.start()
    try:
        root = _at(clock, 0.0, tr.open, "root")
        driver = _at(clock, 1.0, tr.open, "driver")
        s1 = w1.do(lambda: _at(clock, 2.0, tr.open, "draw"))
        s2 = w2.do(lambda: _at(clock, 3.0, tr.open, "draw"))
        inner = w2.do(lambda: _at(clock, 4.0, tr.open, "eval"))
        w2.do(lambda: _at(clock, 5.0, tr.close, inner))
        w1.do(lambda: _at(clock, 6.0, tr.close, s1))
        w2.do(lambda: _at(clock, 8.0, tr.close, s2))
        _at(clock, 9.0, tr.close, driver)
        _at(clock, 10.0, tr.close, root)
    finally:
        w1.stop()
        w2.stop()
    assert s1.parent is driver and s2.parent is driver and inner.parent is s2
    # driver: 8 s span minus the 6 s its children cover; the two draws
    # split [3, 6] except while eval runs on the second one
    assert tr.self_s["root"] == pytest.approx(2.0)
    assert tr.self_s["driver"] == pytest.approx(2.0)
    assert tr.self_s["eval"] == pytest.approx(0.5)
    # [2,3] alone, [3,4] half, [4,5] half for the first, [5,6] half each,
    # [6,8] alone
    assert tr.self_s["draw"] == pytest.approx(1.0 + 1.0 + 0.5 + 1.0 + 2.0)
    assert sum(tr.self_s.values()) == pytest.approx(10.0)
    assert tr.calls["draw"] == 2


def test_install_rebinds_every_alias_and_restores():
    import jacprop
    from jacprop import activations, critical, ensemble, meanfield

    originals = (meanfield.trace, critical.trace, jacprop.trace,
                 activations.Activation.__dict__["eval"],
                 ensemble.NetworkParams.__dict__["draw"])
    tr = spans.Tracer()
    restore = spans.install(tr)
    try:
        assert meanfield.trace is critical.trace is jacprop.trace
        assert meanfield.trace is not originals[0]
        ensemble.NetworkParams.draw([3, 4, 2], 0)
        activations.Activation.erf()(np.zeros(3))
    finally:
        restore()
    assert (meanfield.trace, critical.trace, jacprop.trace,
            activations.Activation.__dict__["eval"],
            ensemble.NetworkParams.__dict__["draw"]) == originals
    assert tr.calls["ensemble.draw"] == 1
    assert tr.counts["ensemble.normals_drawn"] == 3 * 4 + 4 + 4 * 2 + 2
    assert tr.calls["activations.eval"] == 1


# ---------------------------------------------------------------------------
# a perturbed result makes error_rate positive


def _chi_outcome(factor):
    spec = workloads.CHI_CONFIGS[0]  # ReLU at (sqrt 2, 0): chi* = 1
    return workloads.Outcome("chi", spec, JacobianEstimate(mean=factor, stderr=0.0, n=2))


def test_perturbed_chi_estimate_fails():
    w = workloads.McChi(0, "")
    outcomes = [_chi_outcome(1.0), _chi_outcome(1.5)]
    assert run.check(w, outcomes) == 1
    assert not outcomes[0].failures and outcomes[1].failures


def test_perturbed_profile_fails(tmp_path):
    w = workloads.McProfile(0, str(tmp_path))
    spec = dict(w.configs[0], cfg=workloads._mc_config(
        w.configs[0], 3, width=workloads.WIDTH, input_dim=workloads.N0,
        depth=workloads.DEPTH, n_init=1))
    from jacprop.meanfield import trace

    cfg = spec["cfg"]
    tr = trace(cfg.act, cfg.norm, cfg.hyper, workloads.DEPTH,
               workloads._first_kernel(cfg), l0=0)
    good = JacobianEstimate(mean=tr.J[-1], stderr=0.0, n=1, per_layer=tr.J.copy())
    doubled = JacobianEstimate(mean=2 * tr.J[-1], stderr=0.0, n=1, per_layer=2 * tr.J)
    steep = tr.J * np.exp(-0.2 * np.arange(tr.J.size))
    steep[1] = tr.J[1]
    decaying = JacobianEstimate(mean=steep[-1], stderr=0.0, n=1, per_layer=steep)
    outcomes = [workloads.Outcome(name, spec, est)
                for name, est in (("good", good), ("doubled", doubled), ("steep", decaying))]
    assert run.check(w, outcomes) == 2
    assert [bool(o.failures) for o in outcomes] == [False, True, True]


def test_perturbed_cli_output_fails(tmp_path):
    w = workloads.Theory(0, str(tmp_path))
    path = tmp_path / "point.csv"
    rows = ["# jacprop", "sigma_w,sigma_b,residual,K_star",
            "2,0,0,0", "1.4082110131134207,0.4158393809249890,0,3.5615528119238888"]
    path.write_text("\n".join(rows) + "\n")
    spec = dict(kind="gelu-point", path=str(path))
    good = workloads.Outcome("point", spec, 0)
    crashed = workloads.Outcome("point", spec, 1)
    assert run.check(w, [good, crashed]) == 1
    rows[3] = "1.4182110131134207,0.4158393809249890,0,3.5615528119238888"
    path.write_text("\n".join(rows) + "\n")
    shifted = workloads.Outcome("point", spec, 0)
    assert run.check(w, [shifted]) == 1


# ---------------------------------------------------------------------------
# the result line, end to end


def _bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results():
    cache = {}

    def get(workload, seed, trace):
        key = (workload, seed, trace)
        if key not in cache:
            cache[key] = _bench(workload, seed, trace)
        return cache[key]

    return get


WORKLOADS = list(workloads.WORKLOADS)

#: Per-layer metrics that must repeat exactly between runs and seeds.
EXACT = {"ensemble.normals_drawn", "ensemble.weights_mb", "ensemble.tangent_gflop",
         "meanfield.trace_layers", "critical.fixed_point_iterations",
         "analysis.grid_cells"}


def test_benchmark_json_names_these_workloads(spec):
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert set(spec["workloads"][0]) == {"name", "why"}
    assert spec["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload, spec, results):
    doc = results(workload, 1, 0)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs(workload, spec, results):
    first, second = results(workload, 1, 1), results(workload, 2, 1)
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for doc in (first, second):
        assert doc["correct"]
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    a = {k: v["value"] for k, v in first["metrics"].items()}
    b = {k: v["value"] for k, v in second["metrics"].items()}

    # computed counts and call counts repeat exactly
    for name in EXACT | {k for k in a if k.endswith("_calls")}:
        assert a[name] == b[name], name

    # self times add up to the traced round wall
    self_sum = sum(v for k, v in a.items()
                   if k.endswith("_s") and k not in ("bench.traced_wall_s",
                                                     "bench.trace_overhead_s"))
    assert self_sum == pytest.approx(a["bench.traced_wall_s"], rel=0.01)

    if workload != "theory":
        for name in ("activations.moment_closed_calls",
                     "activations.moment_quadrature_calls"):
            assert a[name] == 0, name
        assert a["ensemble.weights_mb"] == pytest.approx(
            8 * (784 * 1000 + 49 * 1000 * 1000 + 50 * 1000) / 1e6)
    assert math.isfinite(a["bench.trace_overhead_s"])
