"""Tests of the benchmark harness itself (not of the purcell package)."""

import itertools
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from purcell import gaits, model, planner  # noqa: E402
from purcell import simulate as sim  # noqa: E402


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert spans.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]
    assert spans.under(parent, np.array([7, 8, 9, 9]), 8).tolist() == [False, False, True, False]
    assert spans.under(parent, np.array([7, 8, 9, 9]), 7).tolist() == [False, True, True, True]


def test_installed_spans_count_one_integration_and_restore():
    tracer = spans.Tracer()
    original = sim.body_velocity_components
    restore = spans.install(tracer)
    try:
        assert sim.body_velocity_components is not original
        tracer.op_id = 0
        schedule = gaits.parse_schedule("1 0.5 0.004\n")
        sim.simulate(schedule, workloads.STRAIGHT, model.default_params())
    finally:
        restore()
    assert sim.body_velocity_components is original
    m = spans.layer_metrics(tracer, 1.0, 1.0)
    # 16 substeps (the floor): one evaluation at the segment start, two per step
    assert m["simulate.steps"][0] == 16
    assert m["model.calls"][0] == 33
    assert m["simulate.model_calls_per_step"][0] == 33 / 16
    assert m["gaits.segments_built"][0] == 1
    assert m["lie.bases"][0] == 0
    assert m["model.self_s"][0] > 0


def test_throughput_is_the_median_over_whole_blocks():
    # blocks of two ops: 1 s, 1 s, 4 s per block, then one op left over
    assert run.throughput([0.5, 0.5, 0.5, 0.5, 2.0, 2.0, 9.0], 2) == 2.0


def test_p90_needs_one_hundred_ops():
    assert run.p90([0.1] * 99) is None
    times = [float(i) for i in range(100)]
    assert run.p90(times) == pytest.approx(np.quantile(times, 0.9), abs=1.0)


def _first(gen, n):
    return list(itertools.islice(gen, n))


@pytest.mark.parametrize("make", [
    lambda seed: workloads.analyze_ops(seed, model.default_params()),
    workloads.simulate_ops,
    lambda seed: workloads.plan_ops(seed, (0.0058, -0.0057)),
])
def test_op_list_follows_the_seed(make):
    assert _first(make(11), 12) == _first(make(11), 12)
    assert _first(make(11), 12) != _first(make(12), 12)


def test_plan_blocks_run_every_rotate_translate_split():
    quanta = (0.0058, -0.0057)
    ops = _first(workloads.plan_ops(3, quanta), 2 * len(workloads.ROTATE_LADDER))
    splits = []
    for op in ops:
        rotate, translate = planner.plan_line(op.start, op.target)
        splits.append((abs(round(rotate.magnitude / quanta[0])),
                       abs(round(translate.magnitude / quanta[1]))))
    assert all(r + t == workloads.CYCLES_PER_OP for r, t in splits)
    block = len(workloads.ROTATE_LADDER)
    for i in (0, block):
        assert sorted(r for r, _ in splits[i:i + block]) == list(workloads.ROTATE_LADDER)


class _Wrong(workloads.Simulate):
    """Simulate, but op 1 reports a final shape a whole radian off."""

    def run(self, op):
        result = super().run(op)
        if op.index == 1:
            result = result._replace(shape=(result.shape[0] + 1.0, result.shape[1]))
        if op.index == 2:
            raise RuntimeError("deliberate")
        return result


def test_wrong_and_raising_ops_count_as_failed():
    wl = _Wrong()
    wl.setup(0, None)
    ops = [workloads.SimulateOp(i, ((1, 0.5, 0.02),), "1 0.5 0.02\n", workloads.STRAIGHT)
           for i in range(4)]
    with speed.Sampler() as sampler:
        done = worker.run_ops(wl, iter(ops), math.inf, sampler)
    assert len(done.ops) == len(done.raw) == len(done.scaled) == 4
    assert sorted(done.failures) == [1, 2]
    assert "alpha1" in done.failures[1]
    assert "deliberate" in done.failures[2]
