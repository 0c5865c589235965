"""One workload in one fresh process: set up, run ops, check them, report.

Started by run.py with BLAS threads pinned to 1 and `src` on the path.
Prints one JSON object as its last line of output.  Times are CPU seconds
rescaled to reference speed (speed.py).  Set-up is the CPU time of the
main thread from process start until it is ready for the first op; with
--setup-only the worker stops there.
"""

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from typing import NamedTuple

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")


class Pass(NamedTuple):
    ops: list         # the ops run, in order
    raw: list         # CPU seconds of each op, sampler time taken out
    scaled: list      # the same at reference speed
    kernel: list      # mean reference-kernel seconds over each op
    failures: dict    # op index -> message
    sampled: list     # (op, result) pairs left for deep checks


def run_ops(workload, ops, seconds, sampler, tracer=None):
    """Closed loop over `ops` until `seconds` have passed (at least one op).

    Only workload.run is timed; drawing the next input and the gates are not.
    The loop stops on wall time, the ops are timed in CPU time.
    """
    done = Pass([], [], [], [], {}, [])
    intervals = []
    deadline = time.monotonic() + seconds
    for op in ops:
        if done.ops and time.monotonic() >= deadline:
            break
        if tracer is not None:
            tracer.op_id = op.index
            root = tracer.open("op")
        busy = sampler.busy
        t0 = speed.clock()
        try:
            result, error = workload.run(op), None
        except Exception:  # a raising op is a failed op; the loop goes on
            result, error = None, traceback.format_exc(limit=4)
        t1 = speed.clock()
        if tracer is not None:
            tracer.close(root)
            tracer.op_id = -1
        intervals.append((t0, t1))
        done.raw.append(t1 - t0 - (sampler.busy - busy))
        if error is None:
            error = workload.check(op, result)
        if error is None and workload.sampled(op):
            done.sampled.append((op, result))
        if error is not None:
            done.failures[op.index] = error
        done.ops.append(op)
    sampler.sample()  # so that the last op has a sample after it
    for (t0, t1), raw in zip(intervals, done.raw):
        kernel = sampler.kernel_over(t0, t1)
        done.kernel.append(kernel)
        done.scaled.append(speed.at_reference(raw, kernel))
    return done


def deep_checks(workload, sampled, failures):
    for op, result in sampled:
        error = workload.deep_check(op, result)
        if error is not None:
            failures[op.index] = error


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measured_run(workload, seed, seconds, sampler):
    done = run_ops(workload, workload.ops(seed), seconds, sampler)
    rss = peak_rss_mb()
    deep_checks(workload, done.sampled, done.failures)
    return {"times": done.scaled, "raw_times": done.raw, "kernel_s": done.kernel,
            "block": workload.block, "failures": done.failures, "attempted": len(done.ops),
            "peak_rss_mb": rss, "inputs": workload.describe(done.ops)}


def traced_run(workload, seed, seconds, sampler, tracer):
    """The same ops twice: untraced, then traced; spans cover only the second pass.

    The op count is whole blocks, fixed by --seconds so that counts repeat
    exactly for a seed; the untraced pass stops early only if it overruns
    half of --seconds.
    """
    import spans

    blocks = max(1, round(workload.trace_ops_per_s * seconds / workload.block))
    ops = list(itertools.islice(workload.ops(seed), blocks * workload.block))
    plain = run_ops(workload, iter(ops), seconds / 2.0, sampler)
    deep_checks(workload, plain.sampled, plain.failures)
    restore = spans.install(tracer)
    try:
        traced = run_ops(workload, iter(plain.ops), math.inf, sampler, tracer)
    finally:
        restore()
    failures = dict(plain.failures)
    for index, error in traced.failures.items():
        failures.setdefault(index, "traced pass: " + error)
    tracer.write(os.path.join(OUT_DIR, f"trace-{workload.name}.npz"))
    metrics = spans.layer_metrics(tracer, sum(plain.scaled), sum(traced.scaled),
                                  speed.REFERENCE_S / statistics.median(traced.kernel))
    metrics["trace.ops"] = (len(traced.ops), "count")
    return {"per_layer": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()},
            "failures": failures, "attempted": len(plain.ops) + len(traced.ops),
            "untraced_s": sum(plain.raw), "traced_s": sum(traced.raw),
            "kernel_s": plain.kernel + traced.kernel,
            "inputs": workload.describe(plain.ops)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--code-digest", default="")
    args = parser.parse_args(argv)

    with speed.Sampler() as sampler:
        import spans  # the package is imported here, so the sampler sees set-up
        import workloads

        workload = workloads.WORKLOADS[args.workload]()
        tracer = spans.Tracer() if args.trace else None
        restore = spans.install(tracer) if tracer is not None else None
        try:
            workload.setup(args.seed, OUT_DIR)
        finally:
            if restore is not None:
                restore()
        setup = {"setup_cpu_s": speed.clock() - sampler.busy}
        sampler.sample()  # at least one sample, however short set-up was
        setup["setup_kernel_s"] = sampler.kernel_over(0.0, speed.clock())
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        try:
            if tracer is None:
                out = measured_run(workload, args.seed, args.seconds, sampler)
            else:
                out = traced_run(workload, args.seed, args.seconds, sampler, tracer)
            for error in workload.finish(args.code_digest):
                out["failures"][f"finish-{len(out['failures'])}"] = error
        finally:
            workload.close()
    out.update(setup)
    out["failures"] = {str(k): v for k, v in out["failures"].items()}
    out["numpy"] = speed.np.__version__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
