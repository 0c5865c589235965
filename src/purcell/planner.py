"""Waypoint planning with calibrated rotate/translate maneuvers.

The planner never uses feedback: each basis gait is simulated once from the
straight shape to measure its per-cycle displacement, and maneuvers are then
compiled to whole numbers of cycles.  Rounding residuals are reported, not
compensated.
"""

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .gaits import ControlSchedule, commutator_schedule, reverse_schedule, synthesize
from .model import Configuration, ShapePoint, SwimmerParams
from .se2 import DIRECTIONS, GroupPose, wrap_angle
from .simulate import IntegratorConfig, Trajectory, net_displacement, simulate

MIN_DOMINANCE = 2.0
MAX_SIDES = 1000        # polygon sides; the 10-gon of the acceptance check uses 10
MAX_CYCLES = 10_000     # whole gait cycles per compiled plan; that 10-gon uses 1,300
# where calibration runs each gait, and where each gait block of a plan that
# starts straight begins: the gaits close their shape loops
STRAIGHT = Configuration(ShapePoint(0.0, 0.0), GroupPose(0.0, 0.0, 0.0))
PLAN_GAITS = {"translate": "x", "rotate": "theta"}   # the gait each maneuver kind runs


@dataclass(frozen=True)
class Maneuver:
    kind: str         # "rotate" or "translate": a key of PLAN_GAITS
    magnitude: float  # radians or meters, signed


@dataclass(frozen=True)
class CalibrationEntry:
    direction: str
    schedule: ControlSchedule
    delta: tuple            # per-cycle (dx, dy, dtheta) in the starting body frame
    dominance: float

    @property
    def per_cycle(self) -> float:
        return self.delta[DIRECTIONS.index(self.direction)]


@dataclass(frozen=True)
class CalibrationTable:
    entries: dict
    # the rows simulate keeps: of the calibrated gaits, and of what the plans
    # compiled from it ran
    rows: dict = field(compare=False, repr=False)

    def __getitem__(self, direction: str) -> CalibrationEntry:
        return self.entries[direction]


@dataclass(frozen=True)
class WaypointPath:
    points: tuple              # ((x, y), ...)

    def __post_init__(self):
        for a, b in zip(self.points, self.points[1:]):
            if math.hypot(b[0] - a[0], b[1] - a[1]) == 0.0:
                raise ValidationError("consecutive waypoints must be distinct")


@dataclass(frozen=True)
class ManeuverSpan:
    maneuver: Maneuver
    cycles: int          # signed; negative means the reversed gait was used
    last_segment: int    # index in the compiled schedule of the span's last segment,
                         # or of the last one before it if cycles == 0
    residual: float


@dataclass(frozen=True)
class CompiledPlan:
    schedule: ControlSchedule
    spans: tuple
    warnings: tuple


@dataclass(frozen=True)
class Plan:
    path: WaypointPath     # waypoint k + 1 is where translate maneuver k should end
    maneuvers: list
    start_pose: GroupPose


@dataclass(frozen=True)
class TrackingReport:
    mean_error: float
    max_error: float
    closure_error: float
    achieved: tuple


def composite_square_gait(tau: float, scale: float = 1.0) -> ControlSchedule:
    """All four cyclic square-gait variants back to back.

    The variants share the same leading bracket motion while their
    third-order leakage largely cancels, which makes this the translation
    gait of choice.
    """
    variants = [commutator_schedule(tau, scale_a=scale, variant=v) for v in range(4)]
    return ControlSchedule(tuple(seg for s in variants for seg in s.segments))


def calibrate(params: SwimmerParams, specs: dict,
              cfg: IntegratorConfig = IntegratorConfig()) -> CalibrationTable:
    """Measure per-cycle displacement of each basis gait (a GaitSpec or a
    ready schedule) from the straight shape.

    Rejects gaits whose principal displacement fails to dominate the
    cross-leakage by MIN_DOMINANCE; such a gait cannot be compiled into
    maneuvers.  Angles and lengths are compared through the 6L span of the
    swimmer.  Running each gait fills the table's kept rows for the plans
    compiled from it.
    """
    char_length = 6.0 * params.L
    rows = {}
    entries = {}
    for direction, spec in specs.items():
        if direction not in DIRECTIONS:
            raise ValidationError(f"unknown gait direction {direction!r}")
        schedule = spec if isinstance(spec, ControlSchedule) else synthesize(spec)
        nd = net_displacement(simulate(ControlSchedule(schedule.segments, rows=rows),
                                       STRAIGHT, params, cfg))
        if nd.shape_closure > 1e-8:
            raise ValidationError(
                f"{direction} gait does not close its shape loop "
                f"(closure {nd.shape_closure:.2e})")
        d = tuple(nd.delta)
        scaled = (d[0], d[1], char_length * d[2])
        idx = DIRECTIONS.index(direction)
        cross = max(abs(scaled[j]) for j in range(3) if j != idx)
        principal = abs(scaled[idx])
        if principal == 0.0:
            raise ValidationError(f"{direction} gait produces no net motion")
        dominance = math.inf if cross == 0.0 else principal / cross
        if dominance < MIN_DOMINANCE:
            raise ValidationError(
                f"{direction} gait dominance {dominance:.2f} below {MIN_DOMINANCE}; "
                "unusable for maneuver compilation")
        entries[direction] = CalibrationEntry(
            direction=direction,
            schedule=schedule,
            delta=d,
            dominance=dominance,
        )
    return CalibrationTable(entries=entries, rows=rows)


def plan_line(start: GroupPose, target: tuple) -> list:
    """[Rotate, Translate] reaching `target` from `start`.

    The heading is aligned with the bearing modulo pi, taking the rotation
    with |dtheta| <= pi/2 and signing the translation to match.
    """
    dx = target[0] - start.x
    dy = target[1] - start.y
    dist = math.hypot(dx, dy)
    if not math.isfinite(dist):
        raise ValidationError(f"target must be finite, got {tuple(target)}")
    if dist == 0.0:
        raise ValidationError("target coincides with the start position")
    bearing = math.atan2(dy, dx)
    delta = wrap_angle(bearing - start.theta)
    if abs(delta) <= 0.5 * math.pi:
        rotation, distance = delta, dist
    else:
        rotation = wrap_angle(delta - math.copysign(math.pi, delta))
        distance = -dist
    return [Maneuver("rotate", rotation), Maneuver("translate", distance)]


def plan_polygon(radius: float, sides: int) -> Plan:
    """Regular polygon around the origin, tracking plan: per vertex, rotate
    by the exterior angle and translate one side length.
    """
    if not 3 <= sides <= MAX_SIDES:
        raise ValidationError(f"polygon needs 3 to {MAX_SIDES} sides, got {sides}")
    if not 0 < radius < math.inf:
        raise ValidationError(f"radius must be positive and finite, got {radius}")
    turn = 2.0 * math.pi / sides
    side = 2.0 * radius * math.sin(math.pi / sides)
    vertices = [(radius * math.cos(turn * k), radius * math.sin(turn * k))
                for k in range(sides + 1)]
    # heading along side k is the bearing v_k -> v_{k+1}; the first rotate
    # must bring the start heading onto side 0
    first_bearing = math.atan2(vertices[1][1] - vertices[0][1],
                               vertices[1][0] - vertices[0][0])
    start_pose = GroupPose(vertices[0][0], vertices[0][1],
                           wrap_angle(first_bearing - turn))
    maneuvers = []
    for _ in range(sides):
        maneuvers.append(Maneuver("rotate", turn))
        maneuvers.append(Maneuver("translate", side))
    return Plan(path=WaypointPath(tuple(vertices)), maneuvers=maneuvers, start_pose=start_pose)


def compile_maneuvers(maneuvers: list, calib: CalibrationTable) -> CompiledPlan:
    """Expand maneuvers into whole cycles of the calibrated gaits.

    Each maneuver becomes round(magnitude / per-cycle) repetitions; negative
    counts use the time-reversed gait (the exact inverse flow).  Residuals
    stay in the spans.  A plan of more than MAX_CYCLES cycles in all is
    refused before any of it is expanded.  Nothing is integrated: the
    schedule carries the calibration's rows, and the first simulate that runs
    a reversed gait adds its rows there.
    """
    for direction in PLAN_GAITS.values():
        if direction not in calib.entries:
            raise ValidationError(f"calibration table lacks the {direction} gait")

    segs = []
    spans = []
    warnings = []
    total = 0
    for m in maneuvers:
        if m.kind not in PLAN_GAITS:
            raise ValidationError(f"unknown maneuver kind {m.kind!r}")
        entry = calib[PLAN_GAITS[m.kind]]
        quantum = entry.per_cycle
        count = m.magnitude / quantum
        if not abs(count) <= MAX_CYCLES - total:   # also refuses nan and inf
            raise ValidationError(
                f"{m.kind} {m.magnitude:.4g} takes the plan past {MAX_CYCLES} gait cycles")
        cycles = round(count)
        total += abs(cycles)
        residual = m.magnitude - cycles * quantum
        if cycles == 0:
            if m.magnitude != 0.0:
                warnings.append(
                    f"{m.kind} {m.magnitude:+.4g} smaller than half a cycle "
                    f"({quantum:+.4g}); emitted no segments")
        else:
            block = entry.schedule if cycles > 0 else reverse_schedule(entry.schedule)
            segs.extend(block.segments * abs(cycles))
        spans.append(ManeuverSpan(m, cycles, len(segs) - 1, residual))
    return CompiledPlan(schedule=ControlSchedule(tuple(segs), rows=calib.rows),
                        spans=tuple(spans), warnings=tuple(warnings))


def fit_circle(points) -> tuple:
    """Least-squares circle (algebraic form); exact on noiseless circle points."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 3:
        raise ValidationError("circle fit needs at least 3 points")
    A = np.column_stack([pts[:, 0], pts[:, 1], np.ones(len(pts))])
    with np.errstate(over="ignore"):
        rhs = pts[:, 0] ** 2 + pts[:, 1] ** 2
    if not np.all(np.isfinite(rhs)):
        raise NumericalError("circle fit needs points whose squared norms are finite")
    if np.linalg.matrix_rank(pts - pts.mean(axis=0)) < 2:
        raise NumericalError("circle fit needs points that are neither coincident nor collinear")
    sol, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    cx, cy = 0.5 * sol[0], 0.5 * sol[1]
    r_sq = sol[2] + cx * cx + cy * cy
    if r_sq <= 0.0:
        raise NumericalError("degenerate circle fit")
    return (float(cx), float(cy), float(math.sqrt(r_sq)))


def tracking_report(path: WaypointPath, traj: Trajectory,
                    plan: CompiledPlan) -> TrackingReport:
    """Position errors of a tracked path at its waypoints: each waypoint after
    the first is matched to the last sample of its translate maneuver in `plan`.
    """
    targets = path.points[1:]
    ends = [span.last_segment for span in plan.spans if span.maneuver.kind == "translate"]
    if len(ends) != len(targets):
        raise ValidationError(
            f"plan has {len(ends)} translate maneuvers for {len(targets)} waypoints")
    achieved = []
    for last in ends:
        # the last sample of a segment <= last; the segment column never decreases
        # (bisect reads the strided column in place, np.searchsorted would copy it)
        i = max(bisect.bisect_right(traj.segment, last) - 1, 0)
        achieved.append((float(traj.x[i]), float(traj.y[i])))
    errors = [math.hypot(a[0] - t[0], a[1] - t[1]) for a, t in zip(achieved, targets)]
    closure = math.hypot(float(traj.x[-1]) - path.points[-1][0],
                         float(traj.y[-1]) - path.points[-1][1])
    return TrackingReport(
        mean_error=float(np.mean(errors)),
        max_error=float(np.max(errors)),
        closure_error=closure,
        achieved=tuple(achieved),
    )


def run_plan(plan: Plan, calib: CalibrationTable, params: SwimmerParams,
             cfg: IntegratorConfig) -> tuple:
    """(compiled, trajectory, tracking report) of `plan` compiled against `calib`
    and run open loop from the straight shape at the plan's start pose."""
    compiled = compile_maneuvers(plan.maneuvers, calib)
    traj = simulate(compiled.schedule, Configuration(STRAIGHT.shape, plan.start_pose), params, cfg)
    return compiled, traj, tracking_report(plan.path, traj, compiled)
