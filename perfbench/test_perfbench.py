"""Tests of the benchmark itself: its gates must be able to fail.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from rtgeo import charts, geodesics, harness  # noqa: E402
from rtgeo.harness import ExperimentReport  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import GeodesicFan, Op, RoughPipeline, Scenarios, mark_nondeterministic  # noqa: E402


@pytest.fixture
def small_fan():
    work = GeodesicFan()
    work.ivps, work.directions = 4, 2
    return work, work.setup(seed=5)


def test_fan_passes_against_the_great_circle(small_fan):
    work, state = small_fan
    ops = work.run_pass(state)
    assert len(ops) == 8 and all(op.ok for op in ops)
    assert max(op.c1_error for op in ops) < 1e-3


def test_fan_negative_control_perturbed_oracle_fails(small_fan):
    work, state = small_fan

    def shifted(x0, v0, times):
        pos, vel = harness.sphere_geodesic(x0, v0, times)
        return pos + 0.02, vel

    ops = work.run_pass({**state, "oracle": shifted})
    assert ops and not any(op.ok for op in ops)
    assert all("curve_final_tol" in op.reason for op in ops)


def test_fan_program_error_is_a_failed_op(small_fan):
    work, state = small_fan

    def broken(*args):
        raise harness.RtgeoError("oracle unavailable")

    ops = work.run_pass({**state, "oracle": broken})
    assert not any(op.ok for op in ops)
    assert all(op.reason.startswith("RtgeoError") for op in ops)


def test_rough_pipeline_gate_and_negative_control():
    work = RoughPipeline()
    work.grid = 33
    state = work.setup(seed=3)
    (op,) = work.run_pass(state)
    assert op.ok and op.digest
    true_ref = state["gen"].reference

    def shifted(times):
        pos, vel = true_ref(times)
        return pos, vel + 0.05

    state["gen"] = replace(state["gen"], reference=shifted)
    (bad,) = work.run_pass(state)
    assert not bad.ok and bad.digest == op.digest


def test_scenario_gate_needs_exit_zero_and_every_flag():
    report = ExperimentReport(scenario={"name": "x"}, flags={"a": True, "b": True})
    report.stages["reference"] = {"c1_error": 1e-12}
    assert Scenarios.gate("x", report, 0).ok
    assert not Scenarios.gate("x", report, 1).ok
    report.flags["b"] = False
    op = Scenarios.gate("x", report, 0)
    assert not op.ok and "['b']" in op.reason


def test_digest_mismatch_between_passes_fails_the_op():
    passes = [[Op("cfg", 1.0, True, digest="aa")], [Op("cfg", 1.0, True, digest="aa")], [Op("cfg", 1.0, True, digest="bb")]]
    mark_nondeterministic(passes)
    assert [p[0].ok for p in passes] == [True, True, False]


def test_tracer_sees_calls_through_by_name_imports_and_uninstalls():
    before = (geodesics.interpolate, charts.interpolate, charts.Chart.deriv)
    chart = charts.Chart((0.0, 0.0), (1.0, 1.0), (17, 17))
    conn = charts.connection_field(chart, np.zeros(chart.res + (2, 2, 2)))
    problem = geodesics.GeodesicProblem(connection=conn, t0=0.0, x0=[0.5, 0.5], v0=[0.1, 0.0], interval=0.25)
    tracer = Tracer()
    tracer.install()
    try:
        curve = geodesics.solve_geodesic(problem, "picard")
    finally:
        tracer.uninstall()
    assert (geodesics.interpolate, charts.interpolate, charts.Chart.deriv) == before
    times = tracer.layer_times()
    solve = times["geodesics.solve_geodesic.picard"]
    # picard interpolates once per sweep (a by-name import in geodesics)
    # and differentiates the field for its Lipschitz estimate (a Chart method)
    assert times["charts.interpolate"]["calls"] == curve.picard_sweeps
    assert times["charts.Chart.deriv"]["calls"] == 2
    assert 0 <= solve["self_s"] <= solve["busy_s"]
    parent = tracer.names[tracer.parents[tracer.names.index("charts.interpolate")]]
    assert parent == "geodesics.solve_geodesic.picard"
    assert tracer.counts["geodesics.solve_geodesic.picard.sweeps"] == curve.picard_sweeps


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    out = subprocess.run(
        cmd + ["--workload", "geodesic_fan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 2 and out.stdout == ""
