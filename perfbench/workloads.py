"""The benchmark workloads: set-up, one timed pass, and the per-op gate.

Each workload is a class with ``setup(seed)`` (everything before the first
timed op) and ``run_pass(state)``, which returns one :class:`Op` per unit
of work.  An op fails when its output misses the closed-form oracle or the
shipped config's own tolerance, or when the program raises.
"""

import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# layer functions are reached through their modules so that the tracer's
# wrappers, installed on those modules, see the calls made from here
from rtgeo import geodesics, harness
from rtgeo.geodesics import GeodesicProblem
from rtgeo.rt_solver import RTConfig

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


@dataclass
class Op:
    name: str
    seconds: float
    ok: bool
    c1_error: float = float("nan")
    digest: str = ""
    reason: str = ""


def _timed_op(name, fn):
    """Run one op; a raised error is a failed op with its traceback on stderr."""
    t0 = time.perf_counter()
    try:
        op = fn()
    except Exception as e:  # the op boundary: the run must go on and count it
        traceback.print_exc(file=sys.stderr)
        return Op(name, time.perf_counter() - t0, False, reason=f"{type(e).__name__}: {e}")
    op.seconds = time.perf_counter() - t0
    return op


def c1_error(positions, velocities, ref_pos, ref_vel):
    """The harness's reference distance: sup |dpos| + sup |dvel| over components."""
    return float(np.abs(positions - ref_pos).max() + np.abs(velocities - ref_vel).max())


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def mark_nondeterministic(passes):
    """Fail every op whose digest differs from the same op's in the first pass."""
    first = {}
    for ops in passes:
        for op in ops:
            if not op.digest:
                continue
            ref = first.setdefault(op.name, op.digest)
            if op.digest != ref:
                op.ok = False
                op.reason = f"digest {op.digest} differs from the first pass's {ref}"


class Scenarios:
    """`rtgeo run` on every shipped config, regularity ladder included."""

    name = "scenarios"
    configs = ("flat_disguise", "sphere", "rough_beta06")

    def setup(self, seed):
        for cfg in self.configs:
            harness.load_config(str(CONFIGS / f"{cfg}.cfg"))
        return {"seed": seed}

    def run_pass(self, state):
        return [_timed_op(cfg, lambda cfg=cfg: self._one(cfg, state["seed"])) for cfg in self.configs]

    @staticmethod
    def _one(cfg, seed):
        report, code = harness.run_experiment(str(CONFIGS / f"{cfg}.cfg"), quiet=True, seed=seed)
        return Scenarios.gate(cfg, report, code)

    @staticmethod
    def gate(cfg, report, code):
        """Exit code 0 and every flag true; the digest excludes timings."""
        bad = sorted(k for k, v in report.flags.items() if not v)
        ok = code == 0 and not bad and not report.failed_stage
        reason = "" if ok else f"exit {code}, failed stage '{report.failed_stage}', false flags {bad}"
        err = report.stages.get("reference", {}).get("c1_error")
        return Op(
            cfg,
            0.0,
            ok,
            c1_error=float("nan") if err is None else float(err),
            digest=digest(report.to_json(include_timings=False)),
            reason=reason,
        )


class RoughPipeline:
    """The weak-solution pipeline on `rough_beta06` one rung above its ladder.

    Not listed in BENCHMARK.json: one run takes about a minute here, more
    than the benchmark's time budget allows next to `scenarios`.  Run it by
    hand to measure the RT fixed point at scale.
    """

    name = "rough_257"
    grid = 257

    def setup(self, seed):
        scn, rt_kwargs = harness.load_config(str(CONFIGS / "rough_beta06.cfg"))
        tol = float(scn.checks["curve_final_tol"])
        scn = replace(scn, resolution=(self.grid, self.grid), seed=seed, checks={})
        gen = harness.generate_scenario(scn)
        problem = GeodesicProblem(
            connection=gen.conn_x, t0=scn.t0, x0=np.asarray(scn.x0), v0=np.asarray(scn.v0), interval=scn.interval
        )
        return {"gen": gen, "problem": problem, "rt": RTConfig(**rt_kwargs), "tol": tol}

    def run_pass(self, state):
        return [_timed_op("pipeline", lambda: self._one(state))]

    @staticmethod
    def _one(state):
        res = geodesics.weak_solution_pipeline(state["gen"].conn_x, state["problem"], rt_config=state["rt"])
        ref_pos, ref_vel = state["gen"].reference_curve(res.curve.times)
        err = c1_error(res.curve.positions, res.curve.velocities, ref_pos, ref_vel)
        ok = err <= state["tol"]
        return Op(
            "pipeline",
            0.0,
            ok,
            c1_error=err,
            digest=digest(json.dumps(res.provenance["rt"], sort_keys=True)),
            reason="" if ok else f"C1 error {err:.3e} above curve_final_tol {state['tol']:g}",
        )


class GeodesicFan:
    """Many short IVPs on the `sphere` chart, each solved by RK4 and by Picard."""

    name = "geodesic_fan"
    ivps = 512
    directions = 16
    methods = ("rk4", "picard")

    def setup(self, seed):
        scn, _ = harness.load_config(str(CONFIGS / "sphere.cfg"))
        tol = float(scn.checks["curve_final_tol"])
        gen = harness.generate_scenario(replace(scn, seed=seed))
        chart = gen.conn_x.chart
        # stratified draw, so that every seed covers the same ground and the
        # pass's total work and worst case vary little between seeds: a
        # jittered 16 x 32 grid of directions x speeds in [0.3, 1], and x0 a
        # Latin hypercube over the middle half of the chart
        rng = np.random.default_rng(seed)
        n = self.ivps
        cells = np.arange(n)
        angle = 2 * np.pi * (cells % self.directions + rng.random(n)) / self.directions
        speed = 0.3 + 0.7 * (cells // self.directions % (n // self.directions) + rng.random(n)) / (n // self.directions)
        frac = (np.stack([rng.permutation(n), rng.permutation(n)], axis=1) + rng.random((n, 2))) / n
        x0s = chart.lo + (0.25 + 0.5 * frac) * (chart.hi - chart.lo)
        v0s = speed[:, None] * np.stack([np.cos(angle), np.sin(angle)], axis=1)
        problems = [
            GeodesicProblem(connection=gen.conn_x, t0=scn.t0, x0=x0, v0=v0, interval=scn.interval)
            for x0, v0 in zip(x0s, v0s)
        ]
        return {"problems": problems, "tol": tol, "oracle": harness.sphere_geodesic}

    def run_pass(self, state):
        return [
            _timed_op(m, lambda p=p, m=m: self._one(p, m, state))
            for p in state["problems"]
            for m in self.methods
        ]

    @staticmethod
    def _one(problem, method, state):
        curve = geodesics.solve_geodesic(problem, method)
        ref_pos, ref_vel = state["oracle"](problem.x0, problem.v0, curve.times - problem.t0)
        err = c1_error(curve.positions, curve.velocities, ref_pos, ref_vel)
        ok = err <= state["tol"]
        return Op(
            method,
            0.0,
            ok,
            c1_error=err,
            reason="" if ok else f"C1 error {err:.3e} above curve_final_tol {state['tol']:g}",
        )


WORKLOADS = {w.name: w for w in (Scenarios, RoughPipeline, GeodesicFan)}
