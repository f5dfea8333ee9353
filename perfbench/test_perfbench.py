"""Fast checks of the benchmark itself, at tiny input sizes.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "uniform-identity": workloads.UniformIdentity(n_points=30),
    "hypercylinder-speed": workloads.HypercylinderSpeed(level=1),
    "improve-identity": workloads.ImproveIdentity(n_points=20),
}


def _units(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


def _break(name, inp, out):
    """Corrupt one output so that its check must fail."""
    if name == "improve-identity":
        out.hv_conserved_exactly = False
        return
    if name == "uniform-identity":  # a vertex that is no input point
        mesh = out[0]
        x, y, z, t = mesh.vertices[0]
        mesh.vertices[0] = (x + 0.5, y, z, t)
        return
    # a mesh larger than the hull of its points
    out.vertices[:] = [(2.0 * x, 2.0 * y, 2.0 * z, t) for x, y, z, t in out.vertices]


def test_benchmark_lists_the_workloads_and_metrics():
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)
    assert _units("end_to_end") == run.END_TO_END_UNITS
    assert _units("per_layer") == run.per_layer_metric_units()


def test_seed_fixes_the_inputs():
    w = workloads.WORKLOADS["uniform-identity"]
    a = w.setup(workloads.instance_seed(7, 0))
    assert np.array_equal(a, w.setup(workloads.instance_seed(7, 0)))
    assert not np.array_equal(a, w.setup(workloads.instance_seed(8, 0)))
    assert not np.array_equal(a, w.setup(workloads.instance_seed(7, 1)))


def test_calls_cycle_over_the_fixed_input_set(monkeypatch):
    w = TINY["uniform-identity"]
    seen = []
    setup = w.setup
    monkeypatch.setattr(w, "setup", lambda iseed: seen.append(iseed) or setup(iseed))
    run_ = run.run_workload(w, seed=3, seconds=3, trace=False, instances=2)
    assert run_["result"]["correct"]
    assert run_["context"]["calls"] == len(seen) > 2
    assert seen[:2] == [workloads.instance_seed(3, i) for i in range(2)]
    assert seen == seen[:2] * (len(seen) // 2) + seen[:len(seen) % 2]


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = run.run_workload(TINY[name], seed=3, seconds=0, trace=False, instances=2)["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_self_times_sum_to_the_traced_wall_time(name):
    result = run.run_workload(TINY[name], seed=3, seconds=0, trace=True, instances=2)["result"]
    assert result["correct"] and result["failed"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(metrics) == set(_units("per_layer"))
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(metrics["trace.wall_s"], rel=0.05)
    assert metrics["trace.overhead_frac"] > -1.0


@pytest.mark.parametrize("name", sorted(TINY))
def test_broken_output_fails_its_check(name, monkeypatch):
    w = TINY[name]
    inp = w.setup(workloads.instance_seed(3, 0))
    out, _ = w.call(inp)
    assert w.check(inp, out)[0] == []
    _break(name, inp, out)
    assert w.check(inp, out)[0] != []

    call = w.call

    def broken_call(inp):
        out, parts = call(inp)
        _break(name, inp, out)
        return out, parts

    monkeypatch.setattr(w, "call", broken_call)
    result = run.run_workload(w, seed=3, seconds=0, trace=False, instances=2)["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_amq_check_compares_over_the_same_element_count():
    # The flips shrink this mesh from 535 to 497 elements, so the reported
    # AMQ1 averages six elements before and five after and falls, although
    # no element got worse.
    w = workloads.WORKLOADS["improve-identity"]
    inp = w.setup(workloads.instance_seed(1277739096, 0))
    report, _ = w.call(inp)
    assert report.amq_after[0.01] < report.amq_before[0.01]
    assert w.check(inp, report)[0] == []


@pytest.mark.parametrize("field", ["amq_before", "amq_after"])
def test_amq_check_catches_a_fall(field):
    w = TINY["improve-identity"]
    inp = w.setup(workloads.instance_seed(3, 0))
    report, _ = w.call(inp)
    assert w.check(inp, report)[0] == []
    getattr(report, field)[0.05] += 0.5 if field == "amq_before" else -1e-6
    assert w.check(inp, report)[0] != []


def test_exits_nonzero_without_the_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uniform-identity",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
