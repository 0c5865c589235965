"""The benchmark's own ops, one block of each workload, run against `src/`.

The benchmark (perfbench/workloads.py) calls the package through config
attributes, keyword arguments and module functions of its own choosing.  A
change that breaks one of them fails here first, rather than as failed ops
in a benchmark run.  Nothing is written under perfbench/.
"""

import importlib
import itertools
import math
import os
import sys

import pytest

from purcell.cli import main
from purcell.se2 import GroupPose

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _import_workloads():
    sys.path.insert(0, PERFBENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True   # no __pycache__ under perfbench/ on our account
    try:
        return importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(PERFBENCH)


workloads = _import_workloads()


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
