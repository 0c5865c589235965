"""Benchmark of the purcell package: one workload, one seed, one run.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py and README.md): analyze, simulate, plan.  Each
run starts fresh worker processes with BLAS threads pinned to 1: a few that
only set up (set-up time is their median) and one that runs ops for
--seconds.  Times are CPU seconds at reference speed (speed.py).  Every op
is checked; any failure makes the exit code nonzero.

With --trace 0 the result holds the end-to-end metrics; with --trace 1 a
traced worker runs a fixed list of ops untraced and then traced, and the
result holds the per-layer metrics.  The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "purcell")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("analyze", "simulate", "plan")   # workloads.WORKLOADS; this process never imports the package
SETUP_PROBES = 4        # set-up-only processes; the measured worker adds one more sample
P90_MIN_OPS = 100       # p90 needs at least ten samples beyond it
BUDGET_S = 170.0        # the whole command, worker processes included
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def p90(times):
    """90th percentile of op times, or None with fewer than P90_MIN_OPS ops."""
    if len(times) < P90_MIN_OPS:
        return None
    return statistics.quantiles(times, n=10)[8]


def throughput(times, block):
    """Median over whole blocks of ops per second of op time.

    A block is the workload's unit of stratification, so every block has the
    same mix of op sizes; the median keeps a few seconds of contention on a
    shared machine from moving the figure.
    """
    rates = [block / sum(times[i:i + block])
             for i in range(0, len(times) - block + 1, block)]
    return statistics.median(rates) if rates else len(times) / sum(times)


def end_to_end(times, block, setups, peak_rss_mb):
    """The end-to-end metrics of one run, as {name: (value, unit)}."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (throughput(times, block), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def code_digest():
    """sha256 over the package and benchmark sources, standing in for a
    revision outside git: the artifacts depend on both."""
    h = hashlib.sha256()
    for folder in (PACKAGE, HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def worker_env():
    env = dict(os.environ)
    env.update({name: "1" for name in BLAS_THREADS})
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(argv, deadline):
    """Run one worker to completion; returns its output."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget spent before the worker could start")
    try:
        proc = subprocess.run([sys.executable, WORKER] + argv, stdout=subprocess.PIPE,
                              text=True, env=worker_env(), cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(argv)} overran the {BUDGET_S:.0f} s budget")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"worker {' '.join(argv)} printed no result")
    return out


def run(args):
    deadline = time.monotonic() + BUDGET_S
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        raise BenchError(f"no package sources at {os.path.relpath(PACKAGE)}")
    digest = code_digest()
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups, raw_setups = [], []

    def timed_launch(argv):
        out = launch(base + argv, deadline)
        raw_setups.append(out["setup_cpu_s"])
        setups.append(speed.at_reference(out["setup_cpu_s"], out["setup_kernel_s"]))
        return out

    if not args.trace:
        for _ in range(SETUP_PROBES):
            timed_launch(["--seconds", "0", "--setup-only"])
    out = timed_launch(["--seconds", repr(args.seconds), "--trace", str(args.trace),
                        "--code-digest", digest])

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_revision(), "code_sha256": digest,
        "python": platform.python_version(), "numpy": out["numpy"],
        "nproc": os.cpu_count(), "blas_threads": {k: "1" for k in BLAS_THREADS},
        "inputs": out["inputs"],
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    attempted, failures = out["attempted"], out["failures"]
    for key, error in sorted(failures.items())[:5]:
        print(f"FAILED op {key}: {error.strip()}", file=sys.stderr)

    if args.trace:
        metrics = out["per_layer"]
        print(f"traced {metrics['trace.ops']['value']} ops: untraced {out['untraced_s']:.3f} s, "
              f"traced {out['traced_s']:.3f} s")
    else:
        times = out["times"]
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit)
                   in end_to_end(times, out["block"], setups, out["peak_rss_mb"]).items()}
        print(f"ops = {len(times)}, setup samples = {len(setups)}; times below are at "
              f"reference speed (speed.py): unscaled CPU op_p50 {statistics.median(out['raw_times']):.6g} s, "
              f"set-up {statistics.median(raw_setups):.6g} s")
        tail = p90(times)
        print(f"op_p90_s = {tail:.6g} s" if tail is not None else
              f"op_p90_s not reported: {len(times)} ops < {P90_MIN_OPS}")
    print(f"reference kernel: median {1e3 * statistics.median(out['kernel_s']):.4g} ms "
          f"(reference speed: {1e3 * speed.REFERENCE_S:g} ms)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {len(failures)}/{attempted} = {len(failures) / attempted:.6g}")
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
