"""Regenerate the layer baseline table (L0-L3) from traced benchmark runs.

    python3 perfbench/baseline.py [--seed 1] [--seconds 30]

Runs the traced benchmark once per workload and prints one row per layer,
each with the workload it is read from.  Times are at reference speed
(speed.py), so rows from different runs of one machine compare.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# (layer, metric, workload it is read from)
ROWS = (
    ("L0 connection eval", "model.us_per_call", "simulate"),
    ("L1 bracket basis", "lie.ms_per_basis", "analyze"),
    ("L1 bracket basis", "lie.model_calls_per_basis", "analyze"),
    ("L2 RK4 step", "simulate.us_per_step", "simulate"),
    ("L3 calibration", "planner.calibrate_s", "plan"),
)


def traced(workload, seed, seconds):
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
                         stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    runs = {w: traced(w, args.seed, args.seconds) for w in sorted({r[2] for r in ROWS})}
    print("| layer | metric | workload | value |")
    print("|---|---|---|---|")
    for layer, metric, workload in ROWS:
        m = runs[workload][metric]
        print(f"| {layer} | `{metric}` | {workload} | {m['value']:.4g} {m['unit']} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
