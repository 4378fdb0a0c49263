"""Golden reports: each shipped config's report (timings left out) at its own
grid and at 129^2, with the run's exit code, the stdout of
``rtgeo check-identities`` on each config, and a digest of every IVP curve in
``ivp_curves.json``, pinned byte for byte.

The BLAS thread count moves the last bits of rough_beta06's RT solve, so the
runs happen in a subprocess that sets OPENBLAS_NUM_THREADS=2 before numpy
loads.  A declared re-baseline rewrites the files with

    PYTHONPATH=src python tests/test_golden.py tests/golden

and the diff of tests/golden shows exactly which fields moved.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = ("flat_disguise", "sphere", "rough_beta06")
GRIDS = {"": None, "_129": 129}


def write_reports(out_dir):
    """Run every config at every grid; write ``<config><grid>.json``,
    ``exit_codes.json`` and each config's ``<config>_identities.json``."""
    from rtgeo import cli
    from rtgeo.harness import run_experiment

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    codes = {}
    for config in CONFIGS:
        for tag, grid in GRIDS.items():
            report, code = run_experiment(ROOT / "configs" / f"{config}.cfg", grid=grid)
            (out_dir / f"{config}{tag}.json").write_text(report.to_json(include_timings=False) + "\n")
            codes[config + tag] = code
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            cli.main(["check-identities", str(ROOT / "configs" / f"{config}.cfg")])
        (out_dir / f"{config}_identities.json").write_text(stdout.getvalue())
    (out_dir / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")
    write_ivp_curves(out_dir)


def curve_digest(curve):
    """sha256 over a curve's times, positions, velocities and truncation."""
    h = hashlib.sha256()
    for a in (curve.times, curve.positions, curve.velocities):
        h.update(a.tobytes())
    h.update(curve.truncation.encode())
    return h.hexdigest()


def write_ivp_curves(out_dir):
    """``ivp_curves.json``: the truncation and :func:`curve_digest` of each RK4
    and Picard curve on every 4th IVP of the seed-1 geodesic fan, and on the
    reference cases of tests/test_geodesics.py at dt 1/32 and the default dt."""
    from rtgeo.geodesics import default_dt, solve_geodesic
    from rtgeo.harness import generate_scenario, load_config
    from test_geodesics import SPHERE_IVPS, fan_problems, reference_case

    scn, _ = load_config(str(ROOT / "configs" / "sphere.cfg"))
    fan = fan_problems(generate_scenario(scn).conn_x, scn, seed=1)
    runs = [(f"fan_{i:03d}", fan[i], None) for i in range(0, len(fan), 4)]
    for case in (*SPHERE_IVPS, "forced", "n3"):
        prob = reference_case(case)[0]
        tag = case or "none"
        runs += [(f"{tag}_dt_1/32", prob, 1 / 32), (f"{tag}_dt_default", prob, default_dt(prob))]
    curves = {}
    for name, prob, dt in runs:
        for method in ("rk4", "picard"):
            c = solve_geodesic(prob, method, dt=dt)
            curves[f"{name}_{method}"] = {"truncation": c.truncation, "sha256": curve_digest(c)}
    (out_dir / "ivp_curves.json").write_text(json.dumps(curves, indent=1) + "\n")


def json_diff(a, b, path="$"):
    """The JSON paths at which ``a`` and ``b`` differ, each with both values."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for k in sorted(a.keys() | b.keys()):
            if k in a and k in b:
                out += json_diff(a[k], b[k], f"{path}.{k}")
            else:
                out.append(f"{path}.{k}: {a.get(k, '<absent>')!r} -> {b.get(k, '<absent>')!r}")
        return out
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in json_diff(x, y, f"{path}[{i}]")]
    return [] if type(a) is type(b) and a == b else [f"{path}: {a!r} -> {b!r}"]


def test_reports_match_golden_files(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, __file__, str(tmp_path)], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    names = sorted(p.name for p in GOLDEN.iterdir())
    assert names == sorted(p.name for p in tmp_path.iterdir())
    diffs = []
    for name in names:
        want, got = (GOLDEN / name).read_bytes(), (tmp_path / name).read_bytes()
        if want != got:
            paths = json_diff(json.loads(want), json.loads(got))
            diffs += [f"{name} {d}" for d in paths or ["bytes differ, values do not"]]
    assert not diffs, "golden -> now:\n" + "\n".join(diffs)


def test_ivp_curves_cover_every_truncation_cause():
    curves = json.loads((GOLDEN / "ivp_curves.json").read_text())
    rk4 = {c["truncation"] for name, c in curves.items() if name.endswith("_rk4")}
    assert rk4 == {"none", "chart_exit", "velocity_ball", "domain_exit"}


if __name__ == "__main__":
    os.environ["OPENBLAS_NUM_THREADS"] = "2"
    write_reports(sys.argv[1])
