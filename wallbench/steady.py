#!/usr/bin/env python3
"""Runs workloads of the wall-clock benchmark N times, one seed each, and
prints for each end-to-end metric its median, its quartiles and its
spread (third minus first quartile, over the median) against the bound
BENCHMARK.json gives it.

    python3 wallbench/steady.py --workload <name|all> [--runs 10] [--seed0 1]

Run it from the root of the repository. Use it to set the bounds, and
again whenever the baseline is measured anew.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="a workload name, or all for those BENCHMARK.json lists")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--verbose", action="store_true", help="print every run's value")
    a = p.parse_args()
    for workload in names if a.workload == "all" else [a.workload]:
        results = [run_once(spec, workload, a.seed0 + k, a.seconds) for k in range(a.runs)]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"## {workload}: {a.runs} runs, seeds {a.seed0}..{a.seed0 + a.runs - 1}, "
              f"failed shares {shares}, all correct: {all(r['correct'] for r in results)}")
        print(f"{'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}"
              f"{'spread/bound':>14}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            print(f"{m['name']:<18}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}"
                  f"{m['bound']:>8.2f}{spread / m['bound']:>14.2f}")
            if a.verbose:
                print("    runs: " + " ".join(f"{v:.4g}" for v in values))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
