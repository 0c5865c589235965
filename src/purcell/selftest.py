"""Acceptance checks runnable from the CLI (`purcell selftest`) and pytest.

Each check returns a CheckResult with the measured numbers in `detail`; the
tolerances and time budgets are fixed here and nowhere else.
"""

import functools
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import default_config, plan_specs
from .errors import ValidationError
from .gaits import ControlSchedule, ControlSegment, GaitSpec, commutator_schedule, synthesize
from .lie import DEFAULT_STEP, bracket_basis, controllability_report, solve_bracket_coefficients
from .model import (Configuration, ShapePoint, ShapeVelocity, SwimmerParams,
                    body_velocity, body_velocity_components, default_params)
from .oracle import reference_body_velocity
from .planner import (STRAIGHT, calibrate, compile_maneuvers, fit_circle, plan_line,
                      plan_polygon, tracking_report)
from .se2 import DIRECTIONS, IDENTITY, GroupPose, wrap_angle
from .simulate import IntegratorConfig, net_displacement, simulate


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


ALL_CHECKS = []   # every declared check, in criterion order


def _check(name: str, limit: int = None):
    """Declare an acceptance check: `name` is what selftest prints and `--only`
    matches, `limit` its time budget in seconds.  The body returns (passed,
    detail); the wrapper times it and applies the budget."""
    def declare(body):
        @functools.wraps(body)
        def check() -> CheckResult:
            start = time.time()
            passed, detail = body()
            elapsed = time.time() - start
            if limit is not None:
                passed = passed and elapsed < limit
                detail += f", {elapsed:.1f}s (limit {limit}s)"
            return CheckResult(name, bool(passed), detail, elapsed)
        check.name = name
        ALL_CHECKS.append(check)
        return check
    return declare


def _random_params(rng) -> SwimmerParams:
    L = rng.uniform(0.02, 0.12)
    b = L * rng.uniform(0.05, 0.5)
    k_long = rng.uniform(0.5, 5.0)
    k_lat = k_long * rng.uniform(1.2, 3.0)
    return SwimmerParams(L=L, b=b, mu=rng.uniform(0.1, 2.0),
                         k_long=k_long, k_lat=k_lat)


# Upper bound on the rank sweep, checked before anything is allocated: the
# default 12x12 grid is 144 shapes at 232 connection solves each.
MAX_GRID = 1000


class RankSweep(NamedTuple):
    shapes: int
    min_rank: int
    min_ratio: float        # smallest sigma5/sigma1
    weakest_shape: tuple    # last shape at which the rank or the ratio set a new minimum


def rank_sweep(params: SwimmerParams, grid: int) -> RankSweep:
    """Controllability rank on a grid x grid shape grid.  The control fields
    are left-invariant on SE(2), so the bracket basis depends on shape alone
    and each shape is evaluated once, at the identity pose."""
    if not 1 <= grid <= MAX_GRID:
        raise ValidationError(f"grid must be from 1 to {MAX_GRID} shapes per joint, got {grid}")
    angles = -math.pi + 2.0 * math.pi * np.arange(grid) / grid
    worst_rank, worst_ratio, worst_shape = 5, math.inf, None
    for a1 in angles:
        for a2 in angles:
            q = Configuration(ShapePoint(float(a1), float(a2)), IDENTITY)
            rep = controllability_report(q, params)
            ratio = float(rep.singular_values[-1] / rep.singular_values[0])
            if rep.rank < worst_rank or ratio < worst_ratio:
                worst_shape = (float(a1), float(a2))
            worst_rank = min(worst_rank, rep.rank)
            worst_ratio = min(worst_ratio, ratio)
    return RankSweep(grid * grid, worst_rank, worst_ratio, worst_shape)


@_check("controllability_rank", limit=10)
def check_controllability_rank():
    """Rank 5 on a 12x12 shape grid."""
    sweep = rank_sweep(default_params(), 12)
    return sweep.min_rank == 5, (f"min rank {sweep.min_rank}/5 over {sweep.shapes} shapes, "
                                 f"min sigma5/sigma1 {sweep.min_ratio:.2e}")


@_check("coefficient_zero_pattern")
def check_coefficient_pattern():
    """Zero/sign pattern of the bracket coefficients at the straight shape.

    x needs beta, gamma ~ 0; y needs alpha ~ 0 and beta = -gamma; theta needs
    alpha ~ 0 and beta = gamma, all to 1e-6 relative, for the default and 20
    random parameter sets.
    """
    rng = np.random.default_rng(1234)
    worst = 0.0
    params_list = [default_params()] + [_random_params(rng) for _ in range(20)]
    for params in params_list:
        cx, cy, ct = (solve_bracket_coefficients(d, STRAIGHT, params) for d in DIRECTIONS)
        worst = max(worst, max(abs(cx.beta), abs(cx.gamma)) / abs(cx.alpha),
                    max(abs(cy.alpha), abs(cy.beta + cy.gamma)) / abs(cy.beta),
                    max(abs(ct.alpha), abs(ct.beta - ct.gamma)) / abs(ct.beta))
    return worst < 1e-6, (f"worst pattern residual {worst:.2e} over "
                          f"{len(params_list)} parameter sets (tol 1e-6)")


LADDER = (0.2, 0.1, 0.05, 0.025)    # eps, decreasing; each square-gait leg lasts eps


def fit_loglog_slope(levels, errors) -> float:
    """Least-squares slope of log(error) against log(level)."""
    if len(levels) < 3:
        raise ValidationError("need at least 3 ladder points")
    lx = np.log(np.asarray(levels, dtype=float))
    ly = np.log(np.maximum(np.asarray(errors, dtype=float), 1e-300))
    coeffs = np.polyfit(lx, ly, 1)
    return float(coeffs[0])


def _net_motion(schedule, params: SwimmerParams, integrator: IntegratorConfig) -> GroupPose:
    return net_displacement(simulate(schedule, STRAIGHT, params, integrator)).delta


def commutator_probe(params: SwimmerParams, integrator: IntegratorConfig) -> tuple:
    """(errors, slope, monotone): per eps of LADDER, the norm of the square
    gait's net motion minus eps^2 times the group part of [g1,g2]; the
    log-log slope of those errors; and whether they fall as eps does.
    [g1,g2] is the basis's third column, its inner step DEFAULT_STEP."""
    reference = bracket_basis(STRAIGHT, params, h_inner=DEFAULT_STEP)[2:, 2]
    errors = [float(np.linalg.norm(
        np.array(_net_motion(commutator_schedule(eps * eps), params, integrator))
        - eps * eps * reference)) for eps in LADDER]
    monotone = all(a >= b for a, b in zip(errors, errors[1:]))
    return errors, fit_loglog_slope(LADDER, errors), monotone


def variant_slopes(params: SwimmerParams, integrator: IntegratorConfig) -> list:
    """((i, j), slope) of the log-log ladder of |net(i) - net(j)| for each
    pair of the four square-gait phasings."""
    nets = [[np.array(_net_motion(commutator_schedule(eps * eps, variant=v),
                                  params, integrator)) for eps in LADDER]
            for v in range(4)]
    return [((i, j), fit_loglog_slope(LADDER, [float(np.linalg.norm(a - b))
                                               for a, b in zip(nets[i], nets[j])]))
            for i in range(4) for j in range(i + 1, 4)]


def leakage_ratios(params: SwimmerParams, integrator: IntegratorConfig,
                   nesting: str) -> list:
    """(|dy| + |dtheta|) / |dx| of the x-direction gait at t = 1 for n = 1, 2, 4."""
    ratios = []
    for n in (1, 2, 4):
        d = _net_motion(synthesize(GaitSpec(1.0, 0.0, 0.0, t=1.0, n=n, nesting=nesting)),
                        params, integrator)
        ratios.append((abs(d.y) + abs(d.theta)) / abs(d.x))
    return ratios


@_check("commutator_convergence", limit=30)
def check_commutator_convergence():
    """Square-gait displacement vs eps^2 [g1,g2]: slope >= 2.7."""
    errors, slope, _ = commutator_probe(default_params(),
                                        IntegratorConfig(h=1e-3, min_substeps=16))
    table = ", ".join(f"{e:.0e}" for e in errors)
    return slope >= 2.7, f"slope {slope:.2f} (need >= 2.7), errors [{table}]"


@_check("gait_variant_equivalence")
def check_variant_equivalence():
    """Pairwise displacement differences of the 4 square variants: slope >= 2.7."""
    slopes = [s for _, s in variant_slopes(default_params(),
                                           IntegratorConfig(h=1e-3, min_substeps=16))]
    return min(slopes) >= 2.7, f"pairwise slopes {[f'{s:.2f}' for s in slopes]} (need >= 2.7)"


@_check("leakage_decay_in_n", limit=120)
def check_leakage_decay():
    """x-direction synthesis at fixed t: leakage ratio decreasing over n in {1,2,4}."""
    ratios = leakage_ratios(default_params(), IntegratorConfig(h=1e-3, min_substeps=16),
                            "derived")
    return (ratios[0] > ratios[1] > ratios[2],
            f"ratios {[f'{r:.3f}' for r in ratios]} for n=1,2,4")


def _random_schedule(rng):
    segs = []
    for _ in range(rng.integers(4, 7)):
        segs.append(ControlSegment(int(rng.integers(1, 3)),
                                   float(rng.uniform(-2.0, 2.0)),
                                   float(rng.uniform(0.3, 1.2))))
    return ControlSchedule(tuple(segs))


def _world_frame_final_pose(sched, q0, params, cfg) -> GroupPose:
    """Final pose of `sched` by RK4 on (x, y, theta) in the world frame, step
    by step from q0: the reference for simulate's body-frame composition."""
    (a1, a2), (x, y, th) = q0
    for seg in sched.segments:
        if not seg.duration > 0.0:
            continue
        u1 = seg.amplitude if seg.channel == 1 else 0.0
        u2 = seg.amplitude if seg.channel == 2 else 0.0
        n = max(math.ceil(seg.duration / cfg.h), cfg.min_substeps)
        h = seg.duration / n

        def rate(tau, heading):
            vx, vy, w = body_velocity_components(a1 + u1 * tau, a2 + u2 * tau, u1, u2, params)
            c, s = math.cos(heading), math.sin(heading)
            return c * vx - s * vy, s * vx + c * vy, w

        for k in range(n):
            k1 = rate(k * h, th)
            k2 = rate((k + 0.5) * h, th + 0.5 * h * k1[2])
            k3 = rate((k + 0.5) * h, th + 0.5 * h * k2[2])
            k4 = rate((k + 1) * h, th + h * k3[2])
            x, y, th = (v + h / 6.0 * (p + 2.0 * (q + r) + z)
                        for v, p, q, r, z in zip((x, y, th), k1, k2, k3, k4))
        a1, a2 = a1 + u1 * seg.duration, a2 + u2 * seg.duration
    return GroupPose(x, y, th)


@_check("integrator_convergence")
def check_integrator():
    """RK4 self-convergence order >= 3.7 on 10 random schedules and
    group-equivariance residual < 1e-9: from a moved start, simulate's final
    pose against a world-frame RK4 loop that does not call it."""
    params = default_params()
    rng = np.random.default_rng(7)
    orders = []
    for _ in range(10):
        sched = _random_schedule(rng)
        finals = []
        # h larger than any segment so min_substeps alone sets the step,
        # making the substep exactly halve across the ladder
        for substeps in (8, 16, 32):
            cfg = IntegratorConfig(h=10.0, min_substeps=substeps)
            traj = simulate(sched, STRAIGHT, params, cfg)
            finals.append(np.array([traj.x[-1], traj.y[-1], traj.theta[-1]]))
        d1 = np.linalg.norm(finals[0] - finals[1])
        d2 = np.linalg.norm(finals[1] - finals[2])
        orders.append(math.log2(d1 / d2) if d2 > 0 else 4.0)

    worst_equiv = 0.0
    cfg = IntegratorConfig(h=5e-3, min_substeps=4)
    for _ in range(5):
        sched = _random_schedule(rng)
        g0 = GroupPose(rng.uniform(-1, 1), rng.uniform(-1, 1),
                       rng.uniform(-math.pi, math.pi))
        q0 = Configuration(ShapePoint(0.0, 0.0), g0)
        expect = _world_frame_final_pose(sched, q0, params, cfg)
        got = simulate(sched, q0, params, cfg).final_pose
        err = math.hypot(expect.x - got.x, expect.y - got.y) + \
            abs(wrap_angle(expect.theta - got.theta))
        worst_equiv = max(worst_equiv, err)

    return (min(orders) >= 3.7 and worst_equiv < 1e-9,
            f"min RK4 order {min(orders):.2f} (need >= 3.7), "
            f"equivariance residual {worst_equiv:.2e} (tol 1e-9)")


@_check("schedule_closure")
def check_schedule_closure():
    """Synthesized schedules close: channel integrals < 1e-12 and simulated
    shape closure < 1e-10."""
    params = default_params()
    cfg = IntegratorConfig(h=5e-3, min_substeps=4)
    specs = []
    for nesting in ("derived", "literal"):
        for n in (1, 2):
            specs += [GaitSpec(1.0, 0.0, 0.0, t=0.5, n=n, nesting=nesting),
                      GaitSpec(0.0, -1.0, 1.0, t=0.5, n=n, nesting=nesting),
                      GaitSpec(0.0, 1.0, 1.0, t=0.5, n=n, nesting=nesting),
                      GaitSpec(0.7, -1.3, 0.4, t=0.8, n=n, nesting=nesting)]
    worst_integral, worst_closure = 0.0, 0.0
    for spec in specs:
        sched = synthesize(spec)
        worst_integral = max(worst_integral,
                             abs(sched.channel_integral(1)),
                             abs(sched.channel_integral(2)))
        traj = simulate(sched, STRAIGHT, params, cfg)
        worst_closure = max(worst_closure, net_displacement(traj).shape_closure)
    return (worst_integral < 1e-12 and worst_closure < 1e-10,
            f"worst channel integral {worst_integral:.2e} (tol 1e-12), "
            f"worst shape closure {worst_closure:.2e} (tol 1e-10) "
            f"over {len(specs)} schedules")


@_check("polygon_tracking", limit=300)
def check_polygon_tracking():
    """Compiled 10-gon of radius 0.2 m tracked open loop: best-fit radius
    within 15 %, closure under 25 % of the circumference."""
    params = default_params()
    cfg = IntegratorConfig(h=2.5e-3, min_substeps=16)
    calib = calibrate(params, plan_specs(default_config()), cfg)
    plan = plan_polygon(0.2, 10)
    compiled = compile_maneuvers(plan.maneuvers, calib)
    q0 = Configuration(ShapePoint(0.0, 0.0), plan.start_pose)
    traj = simulate(compiled.schedule, q0, params, cfg)
    rep = tracking_report(plan.path, traj, compiled)
    fit_radius = fit_circle(rep.achieved)[2]
    bound = 0.25 * 2.0 * math.pi * 0.2
    return (abs(fit_radius - 0.2) <= 0.15 * 0.2 and rep.closure_error < bound,
            f"fit radius {fit_radius:.4f} m (target 0.2 +-15%), "
            f"closure {rep.closure_error:.4f} m (bound {bound:.4f})")


@_check("line_planning_angle")
def check_line_planning():
    """Bearing 154 deg from identity heading plans a 26 deg rotation."""
    bearing = math.radians(154.0)
    target = (0.12 * math.cos(bearing), 0.12 * math.sin(bearing))
    maneuvers = plan_line(GroupPose(0.0, 0.0, 0.0), target)
    rot = maneuvers[0]
    trans = maneuvers[1]
    angle_err = abs(abs(math.degrees(rot.magnitude)) - 26.0)
    passed = (rot.kind == "rotate" and trans.kind == "translate"
              and angle_err < 1e-9 and abs(rot.magnitude) <= math.pi / 2
              and abs(abs(trans.magnitude) - 0.12) < 1e-12)
    return passed, (f"rotation {math.degrees(rot.magnitude):+.3f} deg "
                    f"(need magnitude 26), translate {trans.magnitude:+.3f} m")


@_check("oracle_equivalence")
def check_oracle_equivalence():
    """Kinematic body velocity vs the dense force-balance oracle, 100 pairs."""
    params = default_params()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        shape = ShapePoint(*rng.uniform(-math.pi, math.pi, 2))
        sdot = ShapeVelocity(*rng.uniform(-2.0, 2.0, 2))
        xi = np.array(body_velocity(shape, sdot, params))
        ref = reference_body_velocity(shape, sdot, params)
        worst = max(worst, float(np.max(np.abs(xi - ref))))
    return worst < 1e-8, f"worst |model - oracle| {worst:.2e} over 100 pairs (tol 1e-8)"


@_check("long_horizon_boundedness")
def check_boundedness():
    """1e6 integration steps under constant controls: finite pose, shape on torus."""
    params = default_params()
    h = 1e-3
    sched = ControlSchedule((ControlSegment(1, 0.9, 500.0),
                             ControlSegment(2, -0.7, 500.0)))
    cfg = IntegratorConfig(h=h, min_substeps=1)
    traj = simulate(sched, STRAIGHT, params, cfg)
    steps = len(traj) - 1
    finite = bool(np.isfinite(traj.rows).all())
    on_torus = bool(np.max(np.abs(traj.alpha1)) <= math.pi
                    and np.max(np.abs(traj.alpha2)) <= math.pi)
    return (finite and on_torus and steps >= 10 ** 6,
            f"{steps} steps, finite={finite}, wrapped shapes on torus={on_torus}")


def run_acceptance(names=None) -> list:
    """Run the checks whose printed names contain one of `names` (all of them
    when none are given); a name that matches no check is an error."""
    for n in names or ():
        if not any(n in check.name for check in ALL_CHECKS):
            raise ValidationError(f"no acceptance check name contains {n!r}")
    return [check() for check in ALL_CHECKS
            if not names or any(n in check.name for n in names)]
