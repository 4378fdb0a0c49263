"""Run the benchmark over several seeds and print each metric's median and spread.

Run from the repository root:

    python3 perfbench/spread.py --workload geodesic_fan --seeds 1 2 3 4 5

The spread is the distance between the first and third quartile of the
values (``statistics.quantiles(values, n=4)``) as a share of their median;
for an end-to-end metric it should stay below its ``bound`` in
``BENCHMARK.json``.  One run at a time, each to completion.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values, elapsed = {}, []
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
        ]
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        elapsed.append(time.perf_counter() - t0)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(out.stdout.splitlines()[-1])
        print(f"seed {seed}: {elapsed[-1]:.1f}s correct={result['correct']} failed={result['failed']}/{result['attempted']}"
              + "".join(f" {k}={v['value']:.6g}" for k, v in result["metrics"].items() if k in bounds), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"runs: {len(elapsed)}, mean elapsed {statistics.fmean(elapsed):.1f}s")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) > 1 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"{name:45s} median {med:.6g}  spread {spread:.4f}{flag}")
        else:
            print(f"{name:45s} median {med:.6g}")


if __name__ == "__main__":
    main()
