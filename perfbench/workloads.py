"""The benchmark's three workloads: seeded inputs, the op, and its gates.

Each workload is a closed loop with one client in one process: an op starts
only after the previous one has finished and been checked.  Inputs depend on
the seed alone and are drawn before the op timer starts; gates run after it
stops.  Ops call the same public library functions as the matching CLI
command, through module attributes so that the traced run sees the calls.

Sizes are stratified so that every seed runs the same mix of op sizes with
different values: without that, the median op time would follow whichever
sizes a seed happened to draw rather than the program.
"""

import hashlib
import itertools
import json
import math
import os
import shutil
import tempfile
from typing import NamedTuple

import numpy as np

from purcell import config, gaits, lie, oracle, planner, report
from purcell import simulate as sim
from purcell.model import Configuration, ShapePoint, SwimmerParams
from purcell.se2 import GroupPose

TWO_PI = 2.0 * math.pi
STRAIGHT = Configuration(ShapePoint(0.0, 0.0), GroupPose(0.0, 0.0, 0.0))

RANK_TOL = 1e-8        # criterion 01
PATTERN_TOL = 1e-6     # criterion 02
ORACLE_TOL = 1e-8      # criterion 10
SHAPE_TOL = 1e-12
HALF_STEP_TOL = 1e-9
PRODUCT_TOL = 1e-9


def angle_gap(a, b):
    """|a - b| on the circle."""
    return abs(math.remainder(a - b, TWO_PI))


def pose_gap(a, b):
    return math.hypot(a[0] - b[0], a[1] - b[1]) + angle_gap(a[2], b[2])


def random_pose(rng):
    return GroupPose(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)),
                     float(rng.uniform(-math.pi, math.pi)))


class Workload:
    """What worker.py drives.  Subclasses set `name`, `block` (ops per
    stratified block) and `trace_ops_per_s` (traced ops per second of
    --seconds), and define setup, ops, run, check and describe."""

    def sampled(self, op):
        """Whether `deep_check` also runs on this op, after the timed loop."""
        return False

    def deep_check(self, op, result):
        return None

    def finish(self, code_digest):
        """Failures found across ops, once the loop is over."""
        return []

    def close(self):
        pass


# ---------------------------------------------------------------- analyze

COEFFICIENTS_EVERY = 10   # every 10th op solves x/y/theta coefficients
RANDOM_PARAM_SETS = 4
ORACLE_EVERY = 20         # rank ops whose g1/g2 columns meet the oracle


class AnalyzeOp(NamedTuple):
    index: int
    kind: str             # "rank" or "coefficients"
    params: SwimmerParams
    point: Configuration


def random_params(rng) -> SwimmerParams:
    """A parameter set from the ranges the acceptance checks draw from."""
    L = rng.uniform(0.02, 0.12)
    b = L * rng.uniform(0.05, 0.5)
    k_long = rng.uniform(0.5, 5.0)
    k_lat = k_long * rng.uniform(1.2, 3.0)
    return SwimmerParams(L=float(L), b=float(b), mu=float(rng.uniform(0.1, 2.0)),
                         k_long=float(k_long), k_lat=float(k_lat))


def analyze_ops(seed, default):
    rng = np.random.default_rng(seed)
    pool = [default] + [random_params(rng) for _ in range(RANDOM_PARAM_SETS)]
    for i in itertools.count():
        params = pool[int(rng.integers(len(pool)))]
        if i % COEFFICIENTS_EVERY == COEFFICIENTS_EVERY - 1:
            yield AnalyzeOp(i, "coefficients", params, STRAIGHT)
        else:
            shape = ShapePoint(*(float(a) for a in rng.uniform(-math.pi, math.pi, 2)))
            yield AnalyzeOp(i, "rank", params, Configuration(shape, random_pose(rng)))


def pattern_residual(coeffs):
    """Criterion 02's zero/sign pattern residual of the x, y, theta solves."""
    cx, cy, ct = coeffs["x"], coeffs["y"], coeffs["theta"]
    return max(max(abs(cx.beta), abs(cx.gamma)) / abs(cx.alpha),
               max(abs(cy.alpha), abs(cy.beta + cy.gamma)) / abs(cy.beta),
               max(abs(ct.alpha), abs(ct.beta - ct.gamma)) / abs(ct.beta))


class Analyze(Workload):
    """`purcell analyze` and `purcell coefficients`: the Lie layer, nothing integrated."""

    name = "analyze"
    block = COEFFICIENTS_EVERY
    trace_ops_per_s = 15.0

    def setup(self, seed, out_dir):
        self.cfg = config.default_config()

    def ops(self, seed):
        return analyze_ops(seed, self.cfg.params)

    def run(self, op):
        h = dict(h_inner=self.cfg.bracket_inner_h, h_outer=self.cfg.bracket_outer_h)
        if op.kind == "rank":
            return lie.controllability_report(op.point, op.params, tol=RANK_TOL, **h)
        return {d: lie.solve_bracket_coefficients(d, op.point, op.params, **h)
                for d in ("x", "y", "theta")}

    def check(self, op, result):
        if op.kind == "rank":
            if result.rank != 5:
                return f"rank {result.rank} != 5 at {tuple(op.point.shape)}"
            return None
        residual = pattern_residual(result)
        if not residual < PATTERN_TOL:
            return f"coefficient pattern residual {residual:.3e} >= {PATTERN_TOL}"
        return None

    def sampled(self, op):
        return op.kind == "rank" and op.index % ORACLE_EVERY == 0

    def deep_check(self, op, result):
        for col, sdot in ((0, (1.0, 0.0)), (1, (0.0, 1.0))):
            ref = np.concatenate([sdot, oracle.reference_body_velocity(
                op.point.shape, sdot, op.params)])
            err = float(np.max(np.abs(result.basis[:, col] - ref)))
            if not err < ORACLE_TOL:
                return f"g{col + 1} column differs from the oracle by {err:.3e}"
        return None

    def describe(self, ops):
        return {"ops": len(ops),
                "coefficient_ops": sum(op.kind == "coefficients" for op in ops),
                "param_sets": 1 + RANDOM_PARAM_SETS,
                "oracle_checked": sum(self.sampled(op) for op in ops)}


# ---------------------------------------------------------------- simulate

SEGMENT_LADDER = (1, 2, 4, 8, 16, 32, 64)
DURATION_RANGE = (2e-3, 1.0)   # s; 16 substeps of the default h = 1 ms span 16 ms
RATE_RANGE = (0.2, 2.0)        # |joint rate|, rad/s
HALF_STEP_EVERY = 10
HALF_STEP_MAX = 6


class SimulateOp(NamedTuple):
    index: int
    segments: tuple       # ((channel, amplitude, duration), ...)
    text: str             # the same schedule as a schedule file
    q0: Configuration


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def simulate_ops(seed):
    """Blocks of one schedule per ladder size, in seeded order.

    A schedule of k segments takes one log-duration from each k-th of the
    range, in seeded order.  Where in its k-th each one falls steps by the
    golden ratio from block to block, from a seeded start: every duration is
    still log-uniform, but any run of blocks covers the range evenly, so the
    cost of a k-segment schedule does not hang on a few draws.
    """
    rng = np.random.default_rng(seed)
    lo, hi = math.log(DURATION_RANGE[0]), math.log(DURATION_RANGE[1])
    offsets = {k: rng.uniform(0.0, 1.0, k) for k in SEGMENT_LADDER}
    index = itertools.count()
    for block in itertools.count():
        for k in rng.permutation(SEGMENT_LADDER):
            k = int(k)
            strata = (np.arange(k) + (offsets[k] + block * GOLDEN) % 1.0) / k
            durations = np.exp(lo + (hi - lo) * rng.permutation(strata))
            channels = rng.integers(1, 3, k)
            rates = rng.uniform(*RATE_RANGE, k) * rng.choice((-1.0, 1.0), k)
            segs = tuple((int(c), float(r), float(d))
                         for c, r, d in zip(channels, rates, durations))
            text = "".join(f"{c} {r!r} {d!r}\n" for c, r, d in segs)
            shape = ShapePoint(*(float(a) for a in rng.uniform(-math.pi, math.pi, 2)))
            yield SimulateOp(next(index), segs, text, Configuration(shape, random_pose(rng)))


class SimResult(NamedTuple):
    final: GroupPose
    shape: tuple
    delta: GroupPose


class Simulate(Workload):
    """`purcell simulate`: integrator and connection, no brackets, no repeats."""

    name = "simulate"
    block = len(SEGMENT_LADDER)
    trace_ops_per_s = 2.4

    def setup(self, seed, out_dir):
        self.cfg = config.default_config()

    def ops(self, seed):
        return simulate_ops(seed)

    def run(self, op):
        schedule = gaits.parse_schedule(op.text)
        traj = sim.simulate(schedule, op.q0, self.cfg.params, self.cfg.integrator)
        nd = sim.net_displacement(traj)
        return SimResult(traj.final_pose, (float(traj.alpha1[-1]), float(traj.alpha2[-1])),
                         nd.delta)

    def check(self, op, result):
        if not all(math.isfinite(v) for v in (*result.final, *result.delta)):
            return f"non-finite final pose {tuple(result.final)} or displacement"
        for ch in (1, 2):
            expect = op.q0.shape[ch - 1] + math.fsum(r * d for c, r, d in op.segments if c == ch)
            gap = angle_gap(result.shape[ch - 1], expect)
            if not gap < SHAPE_TOL:
                return f"final alpha{ch} off the channel integral by {gap:.3e}"
        return None

    def sampled(self, op):
        return op.index % HALF_STEP_EVERY == 0 and op.index < HALF_STEP_EVERY * HALF_STEP_MAX

    def deep_check(self, op, result):
        schedule = gaits.ControlSchedule(tuple(gaits.ControlSegment(*s) for s in op.segments))
        icfg = self.cfg.integrator
        half = sim.IntegratorConfig(h=icfg.h / 2.0, min_substeps=2 * icfg.min_substeps)
        ref = sim.simulate(schedule, op.q0, self.cfg.params, half).final_pose
        gap = pose_gap(result.final, ref)
        if not gap < HALF_STEP_TOL:
            return f"final pose differs from the half-step integration by {gap:.3e}"
        return None

    def describe(self, ops):
        h, floor = self.cfg.integrator.h, self.cfg.integrator.min_substeps
        return {"ops": len(ops),
                "segment_ladder": list(SEGMENT_LADDER),
                "duration_range_s": list(DURATION_RANGE),
                "segments": sum(len(op.segments) for op in ops),
                "steps": sum(max(math.ceil(d / h), floor) for op in ops for _, _, d in op.segments),
                "half_step_checked": sum(self.sampled(op) for op in ops)}


# ---------------------------------------------------------------- plan

# Criterion 08's integrator.
PLAN_CONFIG = "integrator.h = 2.5e-3\nintegrator.min_substeps = 16\n"
CYCLES_PER_OP = 3      # whole gait cycles per op: rotate cycles + translate cycles
ROTATE_LADDER = (1, 2)  # rotate cycles of the ops of one block, in seeded order
RESIDUAL_SPAN = 0.4    # magnitudes sit within +-0.4 cycle of their whole count
DIGEST_OPS = 2         # ops whose artifacts are hashed for byte-determinism
STEM = "plan_line"


class PlanOp(NamedTuple):
    index: int
    start: GroupPose
    target: tuple         # the target position


def plan_ops(seed, quanta):
    """Line targets from seeded start poses, CYCLES_PER_OP cycles each.

    `quanta` is (radians, metres) per theta and x cycle, from calibration.
    Each block of ops runs every split of ROTATE_LADDER once; each magnitude
    is its whole number of cycles plus a seeded residual and sign, and a
    negative translation puts the target behind the rotated heading.
    """
    rng = np.random.default_rng(seed)

    def magnitude(cycles, quantum):
        size = (cycles + rng.uniform(-RESIDUAL_SPAN, RESIDUAL_SPAN)) * abs(quantum)
        return float(size * rng.choice((-1.0, 1.0)))

    index = itertools.count()
    while True:
        for r in rng.permutation(ROTATE_LADDER):
            start = random_pose(rng)
            rotation = magnitude(int(r), quanta[0])
            distance = magnitude(CYCLES_PER_OP - int(r), quanta[1])
            bearing = start.theta + rotation + (0.0 if distance > 0 else math.pi)
            target = (start.x + abs(distance) * math.cos(bearing),
                      start.y + abs(distance) * math.sin(bearing))
            yield PlanOp(next(index), start, target)


class PlanResult(NamedTuple):
    final: GroupPose
    spans: tuple
    files: tuple


def _se2_mul(a, b):
    c, s = math.cos(a[2]), math.sin(a[2])
    return (a[0] + c * b[0] - s * b[1], a[1] + s * b[0] + c * b[1], a[2] + b[2])


def _se2_inv(g):
    c, s = math.cos(g[2]), math.sin(g[2])
    return (-(c * g[0] + s * g[1]), s * g[0] - c * g[1], -g[2])


def _sha256(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Plan(Workload):
    """`purcell plan-line`: compile, simulate, track and write the artifacts."""

    name = "plan"
    block = len(ROTATE_LADDER)
    trace_ops_per_s = 0.45

    def setup(self, seed, out_dir):
        self.cfg = config.parse_config(PLAN_CONFIG)
        specs = dict(self.cfg.gaits)
        if self.cfg.x_composite:
            specs["x"] = planner.composite_square_gait(self.cfg.gaits["x"].t,
                                                       scale=self.cfg.gaits["x"].alpha)
        self.calib = planner.calibrate(self.cfg.params, specs, self.cfg.integrator)
        self.seed = seed
        self.out_dir = out_dir
        self.tmp = None
        self.digests = {}

    def ops(self, seed):
        return plan_ops(seed, (self.calib["theta"].per_cycle, self.calib["x"].per_cycle))

    def run(self, op):
        if self.tmp is None:
            os.makedirs(self.out_dir, exist_ok=True)
            self.tmp = tempfile.mkdtemp(prefix="plan-", dir=self.out_dir)
        maneuvers = planner.plan_line(op.start, op.target)
        compiled = planner.compile_maneuvers(maneuvers, self.calib)
        q0 = Configuration(ShapePoint(0.0, 0.0), op.start)
        traj = sim.simulate(compiled.schedule, q0, self.cfg.params, self.cfg.integrator)
        waypoints = ((op.start.x, op.start.y), op.target)
        planner.tracking_report(planner.WaypointPath(waypoints), traj, compiled)
        out = report.ensure_out_dir(self.tmp)
        shown = traj.decimate(max(1, len(traj) // 20000))
        files = (os.path.join(out, f"{STEM}.csv"), os.path.join(out, f"{STEM}_path.svg"),
                 os.path.join(out, f"{STEM}_shape.svg"), os.path.join(out, f"{STEM}_schedule.txt"))
        report.write_trajectory_csv(shown, files[0])
        planned = {"x": [p[0] for p in waypoints], "y": [p[1] for p in waypoints],
                   "label": "planned line"}
        report.write_plot_svg(files[1], [{"x": shown.x, "y": shown.y, "label": "base link path"},
                                         planned],
                              kind="path", title=f"{STEM}: base-link path",
                              xlabel="x (m)", ylabel="y (m)")
        report.write_plot_svg(files[2], [{"x": shown.t, "y": shown.alpha1, "label": "alpha1"},
                                         {"x": shown.t, "y": shown.alpha2, "label": "alpha2"}],
                              kind="time-series", title=f"{STEM}: joint angles",
                              xlabel="t (s)", ylabel="angle (rad)")
        with open(files[3], "w", newline="\n") as fh:
            fh.write(gaits.format_schedule(compiled.schedule, comment="compiled line plan"))
        return PlanResult(traj.final_pose, compiled.spans, files)

    def check(self, op, result):
        expect = tuple(op.start)
        for span in result.spans:
            delta = self.calib["theta" if span.maneuver.kind == "rotate" else "x"].delta
            block = delta if span.cycles > 0 else _se2_inv(delta)
            for _ in range(abs(span.cycles)):
                expect = _se2_mul(expect, block)
        gap = pose_gap(result.final, expect)
        if not gap < PRODUCT_TOL:
            return f"final pose differs from the product of calibrated cycles by {gap:.3e}"
        with open(result.files[0]) as fh:
            if fh.readline().rstrip("\n") != report.CSV_HEADER:
                return "trajectory CSV lacks its header"
        for path in result.files[1:3]:
            with open(path) as fh:
                if not fh.read(4) == "<svg":
                    return f"{os.path.basename(path)} is not an SVG"
        if op.index < DIGEST_OPS:
            digest = _sha256(result.files)
            if self.digests.setdefault(op.index, digest) != digest:
                return f"op {op.index} artifacts differ between two runs in this process"
        return None

    def finish(self, code_digest):
        """Compare the hashed artifacts with earlier runs of the same code and seed."""
        path = os.path.join(self.out_dir, "plan-digests.json")
        try:
            with open(path) as fh:
                known = json.load(fh)
        except (OSError, ValueError):
            known = {}
        errors = []
        for index, digest in sorted(self.digests.items()):
            key = f"{code_digest}:{self.seed}:{index}"
            if known.setdefault(key, digest) != digest:
                errors.append(f"op {index} artifacts differ from an earlier run of this code and seed")
        os.makedirs(self.out_dir, exist_ok=True)
        with open(path + ".tmp", "w") as fh:
            json.dump(known, fh, indent=0, sort_keys=True)
        os.replace(path + ".tmp", path)
        return errors

    def describe(self, ops):
        return {"ops": len(ops),
                "cycles_per_op": CYCLES_PER_OP,
                "integrator_h": self.cfg.integrator.h,
                "calibration": {d: list(e.delta) for d, e in self.calib.entries.items()},
                "artifact_sha256": {str(i): d for i, d in sorted(self.digests.items())}}

    def close(self):
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None


WORKLOADS = {cls.name: cls for cls in (Analyze, Simulate, Plan)}
