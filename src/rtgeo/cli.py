"""rtgeo command line: run experiments, identity suites, single-field tools.

Exit codes: 0 all pass flags set, 1 stage failure, 2 usage/config error.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .calculus import norm_report
from .charts import Chart, GridField, connection_field, dump_curve, dump_field, load_field
from .errors import ConfigurationError, RtgeoError, ShapeError
from .geodesics import GeodesicProblem, solve_geodesic
from .harness import (
    _identity_stage,
    generate_scenario,
    load_config,
    run_experiment,
    smooth_connection,
    trig_gradient_jacobian,
)
from .rt_solver import RTConfig, regularize
from .transform import coderivative_identity_residual, dgamma_identity_residual


def _parser():
    ap = argparse.ArgumentParser(prog="rtgeo", description="low-regularity geodesic toolkit")
    ap.add_argument("--out", default=None, help="output directory for artifacts")
    ap.add_argument("--grid", type=int, default=None, help="override grid resolution")
    ap.add_argument("--seed", type=int, default=None, help="override the scenario seed the report echoes")
    ap.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = ap.add_subparsers(dest="command")

    run = sub.add_parser("run", help="run a scenario config end to end")
    run.add_argument("configs", nargs="+", help="config file(s)")

    chk = sub.add_parser("check-identities", help="identity suites for a config")
    chk.add_argument("config")

    rts = sub.add_parser("rt-solve", help="regularize a connection field CSV")
    rts.add_argument("field")

    geo = sub.add_parser("geodesic", help="solve the IVP on a connection field CSV")
    geo.add_argument("field")
    geo.add_argument("--x0", required=True)
    geo.add_argument("--v0", required=True)
    geo.add_argument("--t0", type=float, default=0.0)
    geo.add_argument("--method", choices=["rk4", "picard"], default="rk4")
    geo.add_argument("--interval", type=float, default=1.0)

    nrm = sub.add_parser("norms", help="norm report for a field CSV")
    nrm.add_argument("field")
    nrm.add_argument("--p", type=float, default=4.0)
    return ap


def _vec(args, key):
    """Option ``--key`` as an array of its comma-separated floats."""
    text = getattr(args, key)
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError as e:
        raise ConfigurationError(f"--{key} {text!r}: {e}") from e


def _load_connection(path):
    """The connection field CSV at ``path``; components that are not (n, n, n)
    are a config error naming the file."""
    fld = load_field(path)
    try:
        return connection_field(fld.chart, fld.values)
    except ShapeError as e:
        raise ConfigurationError(f"{path}: {e}") from e


def cmd_run(args):
    codes, reports = [], []
    for cfg in args.configs:
        report, code = run_experiment(
            cfg, out_dir=args.out, grid=args.grid, seed=args.seed, quiet=args.quiet
        )
        if not args.quiet:
            reports.append(report.to_json())
        else:
            flags = dict(report.flags)
            status = "PASS" if report.all_passed() else f"FAIL ({report.failed_stage or 'flags'})"
            print(f"{Path(cfg).stem}: {status} {flags}")
        codes.append(code)
    if reports:  # stdout is one JSON document: the report, or an array of them
        print(reports[0] if len(reports) == 1 else "[\n" + ",\n".join(reports) + "\n]")
    return max(codes)


def cmd_check_identities(args):
    """Identity suites: O(h^2) refinement on the smooth gradient-jacobian
    anchor case plus the config scenario's own residuals as diagnostics.

    The anchor case is judged on two distinct grids: the run's grid m and
    m // 2 + 1, with 17 and 33 the coarsest pair, so the spacing halves (or
    nearly, for an even m) and the residual ratio should read about 4."""
    scn, _ = load_config(args.config)
    if args.grid:
        scn.resolution = (args.grid, args.grid)

    def anchor_case(m):
        chart = Chart((0.0, 0.0), (1.0, 1.0), (m, m))
        J, _ = trig_gradient_jacobian(chart)
        return smooth_connection(chart), J

    m = scn.resolution[0]
    coarse = max(m // 2 + 1, 17)
    grids = [coarse, max(m, 2 * coarse - 1)]
    out = {"grids": grids, "suites": {}}
    ok = True
    for name, fn in (
        ("coderivative", coderivative_identity_residual),
        ("curl_split", dgamma_identity_residual),
    ):
        res = {str(g): fn(*anchor_case(g), p=scn.p) for g in grids}
        ratio = res[str(grids[0])] / max(res[str(grids[1])], 1e-300)
        passed = 2.5 <= ratio <= 5.5
        ok &= passed
        out["suites"][name] = {"residual_lp": res, "ratio": ratio, "pass": passed}
    out["scenario_residuals"] = _identity_stage(generate_scenario(scn), scn)
    print(json.dumps(out, sort_keys=True))
    return 0 if ok else 1


def cmd_rt_solve(args):
    state, bundle, conn_y = regularize(_load_connection(args.field), RTConfig())
    print(json.dumps(state.summary(), sort_keys=True))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        dump_field(GridField(state.conn.chart, state.J, ("up", "down")), out / "jacobian.csv")
        dump_field(conn_y, out / "gamma_y.csv")
        dump_field(bundle.forward, out / "map_forward.csv")
        dump_field(bundle.inverse, out / "map_inverse.csv")
    return 0


def cmd_geodesic(args):
    conn = _load_connection(args.field)
    try:
        problem = GeodesicProblem(
            connection=conn, t0=args.t0, x0=_vec(args, "x0"), v0=_vec(args, "v0"), interval=args.interval
        )
    except RtgeoError as e:  # a refused x0 or v0, which the message names first
        raise ConfigurationError(f"--{e}") from e
    curve = solve_geodesic(problem, method=args.method)
    target = Path(args.out or ".") / "curve.csv"
    Path(target).parent.mkdir(parents=True, exist_ok=True)
    dump_curve(curve, target)
    if not args.quiet:
        print(f"wrote {target} ({len(curve.times)} samples, interval {curve.interval:.4f})")
    return 0


def cmd_norms(args):
    print(json.dumps(norm_report(load_field(args.field), args.p), sort_keys=True))
    return 0


def main(argv=None):
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    handlers = {
        "run": cmd_run,
        "check-identities": cmd_check_identities,
        "rt-solve": cmd_rt_solve,
        "geodesic": cmd_geodesic,
        "norms": cmd_norms,
    }
    if args.command not in handlers:
        ap.print_usage()
        return 2
    try:
        return handlers[args.command](args)
    except ConfigurationError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except RtgeoError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
