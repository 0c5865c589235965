"""The benchmark's own ops, one block of each workload, run against `src/`.

The benchmark (perfbench/workloads.py) calls the package through config
attributes, keyword arguments and module functions of its own choosing, and
its traced run (perfbench/spans.py) keys its per-layer metrics on function
names.  A change that breaks one of them fails here first, rather than as
failed ops or as metrics that silently read 0 in a benchmark run.  Nothing
is written under perfbench/.
"""

import importlib
import inspect
import itertools
import math
import os
import sys

import pytest

from purcell.cli import main
from purcell.se2 import GroupPose

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _import_perfbench(name):
    sys.path.insert(0, PERFBENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True   # no __pycache__ under perfbench/ on our account
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(PERFBENCH)


workloads = _import_perfbench("workloads")
spans = _import_perfbench("spans")


def _files(root):
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, names in os.walk(root) if "__pycache__" not in d
                  for f in names)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_block_of_benchmark_ops_passes_its_gates(tmp_path, name):
    before = _files(PERFBENCH)
    workload = workloads.WORKLOADS[name]()
    workload.setup(1, str(tmp_path))
    try:
        sampled = []
        for op in itertools.islice(workload.ops(1), workload.block):
            result = workload.run(op)
            assert workload.check(op, result) is None
            if workload.sampled(op):
                sampled.append((op, result))
        assert sampled or name == "plan"   # plan ops have no deep check
        for op, result in sampled:
            assert workload.deep_check(op, result) is None
        assert workload.finish("tests") == []
    finally:
        workload.close()
    assert _files(PERFBENCH) == before


def test_plan_op_writes_the_files_of_plan_line(tmp_path):
    # the plan op re-implements `purcell plan-line`; on the command's own
    # start and target it must write the command's bytes
    config = tmp_path / "plan.cfg"
    config.write_text(workloads.PLAN_CONFIG)
    assert main(["plan-line", "--config", str(config), "--out", str(tmp_path / "cli"),
                 "--quiet"]) == 0
    before = _files(PERFBENCH)
    workload = workloads.Plan()
    workload.setup(1, str(tmp_path / "bench"))
    try:
        cfg = workload.cfg
        target = (cfg.line_distance * math.cos(cfg.line_bearing),
                  cfg.line_distance * math.sin(cfg.line_bearing))
        result = workload.run(workloads.PlanOp(0, GroupPose(0.0, 0.0, 0.0), target))
        for path in result.files:
            with open(path, "rb") as got, open(tmp_path / "cli" / os.path.basename(path),
                                               "rb") as want:
                assert got.read() == want.read(), os.path.basename(path)
    finally:
        workload.close()
    assert _files(PERFBENCH) == before


def _keyed_names():
    """Every name spans.py keys a per-layer metric or a counter on."""
    return sorted({spans.L0, spans.BASIS, spans.INTEGRATE, spans.CALIBRATE, spans.COMPILE,
                   spans.TRACK, spans.CSV, *spans._AFTER})


@pytest.mark.parametrize("name", _keyed_names())
def test_each_name_the_traced_run_keys_on_is_a_public_function(name):
    # a function renamed in src/ would leave its metrics at 0 without an error
    layer, attr = name.split(".")
    assert layer in spans.SPAN_LAYERS
    module = importlib.import_module(f"purcell.{layer}")
    fn = getattr(module, attr, None)
    assert not attr.startswith("_") and inspect.isfunction(fn)
    assert fn.__module__ == module.__name__


# The counts perfbench/README.md says each workload moves; they read 0 on the others.
MOVED = {"lie.bases": {"analyze"}, "simulate.steps": {"simulate", "plan"},
         "planner.cycles": {"plan"}, "report.rows": {"plan"}}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_traced_block_moves_the_counts_of_its_workload(tmp_path, name):
    before = _files(PERFBENCH)
    workload = workloads.WORKLOADS[name]()
    workload.setup(1, str(tmp_path))
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        for op in itertools.islice(workload.ops(1), workload.block):
            tracer.op_id = op.index
            workload.run(op)
        tracer.op_id = -1
    finally:
        restore()
        workload.close()
    metrics = spans.layer_metrics(tracer, 1.0, 1.0)
    assert {key: metrics[key][0] > 0 for key in MOVED} == {
        key: name in moved_on for key, moved_on in MOVED.items()}
    assert _files(PERFBENCH) == before
