import math

import numpy as np
import pytest

from purcell import planner
from purcell.config import default_config, parse_config, plan_specs
from purcell.errors import NumericalError, ValidationError
from purcell.gaits import ControlSchedule, ControlSegment, GaitSpec, commutator_schedule
from purcell.model import Configuration, ShapePoint, default_params
from purcell.planner import (MAX_CYCLES, MAX_SIDES, STRAIGHT, CalibrationEntry, CalibrationTable,
                             CompiledPlan, Maneuver, ManeuverSpan, Plan, WaypointPath, calibrate,
                             compile_maneuvers, composite_square_gait, fit_circle, plan_line,
                             plan_polygon, run_plan, tracking_report)
from purcell.se2 import GroupPose
from purcell.simulate import IntegratorConfig, simulate

from conftest import trajectory_from_columns

PARAMS = default_params()
# the gaits a plan runs, and y: no plan runs it, but its dominance gate is tested
ALL_SPECS = {**plan_specs(default_config()), "y": default_config().gaits["y"]}
FAST_CFG = IntegratorConfig(h=5e-3, min_substeps=4)
IDENT = GroupPose(0.0, 0.0, 0.0)


def synthetic_table(dx=0.01, dtheta=0.05):
    """Hand-built calibration table for compile arithmetic tests."""
    x_sched = ControlSchedule((ControlSegment(1, 1.0, 1.0), ControlSegment(1, -1.0, 1.0)))
    th_sched = ControlSchedule((ControlSegment(2, 1.0, 1.0), ControlSegment(2, -1.0, 1.0)))
    entries = {
        "x": CalibrationEntry("x", x_sched, (dx, 0.0, 0.0), 100.0),
        "theta": CalibrationEntry("theta", th_sched, (0.0, 0.0, dtheta), 100.0),
    }
    return CalibrationTable(entries=entries, rows={})


class TestCalibrate:
    def test_default_specs_pass_gate(self):
        calib = calibrate(PARAMS, ALL_SPECS, FAST_CFG)
        assert set(calib.entries) == {"x", "y", "theta"}
        for entry in calib.entries.values():
            assert entry.dominance >= 2.0
            assert entry.schedule.total_duration > 0

    def test_plan_specs_are_the_tuned_defaults(self):
        # x first, as the calibration lines print
        assert list(plan_specs(default_config()).items()) == [
            ("x", composite_square_gait(0.25)),
            ("theta", GaitSpec(0.0, 1.0, 1.0, t=0.0625, n=1)),
        ]
        assert default_config().gaits["y"] == GaitSpec(0.0, -1.0, 1.0, t=0.0625, n=2)

    def test_x_gait_cross_leakage_small(self):
        calib = calibrate(PARAMS, {"x": composite_square_gait(0.25)}, FAST_CFG)
        dx, dy, dth = calib["x"].delta
        assert abs(dx) > 0
        assert abs(dy) < 0.5 * abs(dx)
        assert abs(dth) < 0.5 * abs(dx)

    def test_per_cycle_is_the_component_of_the_entry_s_own_direction(self):
        # the y gait's quantum is its y displacement, not its x one
        calib = calibrate(PARAMS, ALL_SPECS, IntegratorConfig(h=5e-3, min_substeps=16))
        for i, d in enumerate(("x", "y", "theta")):
            assert calib[d].per_cycle == calib[d].delta[i]
        assert len(set(calib["y"].delta)) == 3

    def test_refuses_an_unknown_gait_direction(self):
        with pytest.raises(ValidationError, match="unknown gait direction 'z'"):
            calibrate(PARAMS, {"z": GaitSpec(0.0, 1.0, 1.0, t=0.0625)}, FAST_CFG)

    def test_theta_gait_rotates(self):
        calib = calibrate(PARAMS, {"theta": GaitSpec(0, 1.0, 1.0, t=0.125)}, FAST_CFG)
        assert abs(calib["theta"].delta[2]) > 0

    def test_rejects_low_dominance(self):
        # the plain unit square at t=1 rotates more than it translates
        with pytest.raises(ValidationError, match="dominance"):
            calibrate(PARAMS, {"x": GaitSpec(1.0, 0.0, 0.0, t=1.0)}, FAST_CFG)

    def test_dominance_threshold_is_two(self, monkeypatch):
        # the plain square at t = 0.125 translates 1.5 times as far as it
        # leaks, so a threshold of 1 would take it and 2 refuses it
        spec = {"x": GaitSpec(1.0, 0.0, 0.0, t=0.125)}
        with monkeypatch.context() as m:
            m.setattr(planner, "MIN_DOMINANCE", 0.0)
            dominance = calibrate(PARAMS, spec, FAST_CFG)["x"].dominance
        assert 1.0 <= dominance < 2.0
        with pytest.raises(ValidationError, match=f"x gait dominance {dominance:.2f} below 2.0"):
            calibrate(PARAMS, spec, FAST_CFG)

    def test_rejects_open_shape_loop(self):
        open_loop = ControlSchedule((ControlSegment(1, 1.0, 0.5),))
        with pytest.raises(ValidationError, match="close"):
            calibrate(PARAMS, {"x": open_loop}, FAST_CFG)


def test_composite_square_gait_runs_the_four_variants_in_order():
    composite = composite_square_gait(1.0)
    assert composite.segments == sum((commutator_schedule(1.0, variant=v).segments
                                      for v in range(4)), ())
    # each channel still closes
    assert composite.channel_integral(1) == 0.0
    assert composite.channel_integral(2) == 0.0


class TestPlanLine:
    def test_straight_ahead(self):
        ms = plan_line(IDENT, (1.0, 0.0))
        assert ms[0] == Maneuver("rotate", 0.0)
        assert ms[1].kind == "translate"
        assert ms[1].magnitude == pytest.approx(1.0)

    def test_bearing_154_uses_26_degree_rotation(self):
        bearing = math.radians(154.0)
        ms = plan_line(IDENT, (0.12 * math.cos(bearing), 0.12 * math.sin(bearing)))
        assert abs(math.degrees(ms[0].magnitude)) == pytest.approx(26.0, abs=1e-9)
        assert ms[1].magnitude == pytest.approx(-0.12)

    def test_already_aligned(self):
        start = GroupPose(1.0, 1.0, math.atan2(1.0, 2.0))
        ms = plan_line(start, (3.0, 2.0))
        assert ms[0].magnitude == pytest.approx(0.0, abs=1e-12)
        assert ms[1].magnitude == pytest.approx(math.hypot(2.0, 1.0))

    def test_rejects_zero_distance(self):
        with pytest.raises(ValidationError):
            plan_line(IDENT, (0.0, 0.0))

    def test_rotation_always_at_most_quarter_turn(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            target = tuple(rng.uniform(-1, 1, 2))
            start = GroupPose(0.0, 0.0, rng.uniform(-math.pi, math.pi))
            if math.hypot(*target) < 1e-6:
                continue
            ms = plan_line(start, target)
            assert abs(ms[0].magnitude) <= math.pi / 2 + 1e-12


class TestPlanPolygon:
    def test_ten_gon_geometry(self):
        plan = plan_polygon(0.20, 10)
        turn, side = plan.maneuvers[:2]
        assert (turn.kind, side.kind) == ("rotate", "translate")
        assert math.degrees(turn.magnitude) == pytest.approx(36.0)
        assert side.magnitude == pytest.approx(2 * 0.2 * math.sin(math.pi / 10))
        assert side.magnitude == pytest.approx(0.1236, abs=1e-4)
        assert plan.maneuvers == [turn, side] * 10
        assert len(plan.path.points) == 11
        assert plan.path.points[0] == pytest.approx(plan.path.points[-1])

    def test_square_side(self):
        plan = plan_polygon(1.0, 4)
        assert plan.maneuvers[1].magnitude == pytest.approx(math.sqrt(2.0))

    def test_exterior_turns_sum_to_full_circle(self):
        for sides in (3, 5, 10, 17):
            plan = plan_polygon(1.0, sides)
            total = sum(m.magnitude for m in plan.maneuvers if m.kind == "rotate")
            assert total == pytest.approx(2 * math.pi)

    def test_vertices_on_circle(self):
        plan = plan_polygon(0.5, 7)
        for px, py in plan.path.points:
            assert math.hypot(px, py) == pytest.approx(0.5)

    def test_rejects_degenerate(self):
        with pytest.raises(ValidationError):
            plan_polygon(1.0, 2)
        with pytest.raises(ValidationError):
            plan_polygon(0.0, 5)

    def test_rejects_unbounded_sizes(self):
        with pytest.raises(ValidationError, match=f"3 to {MAX_SIDES} sides"):
            plan_polygon(1.0, MAX_SIDES + 1)
        for radius in (math.inf, math.nan):
            with pytest.raises(ValidationError, match="positive and finite"):
                plan_polygon(radius, 5)


class TestCompile:
    def test_zero_rotation_emits_nothing(self):
        plan = compile_maneuvers([Maneuver("rotate", 0.0)], synthetic_table())
        assert len(plan.schedule) == 0
        assert plan.spans[0].cycles == 0
        assert not plan.warnings

    def test_translate_rounding(self):
        table = synthetic_table(dx=0.01)
        plan = compile_maneuvers([Maneuver("translate", 0.034)], table)
        span = plan.spans[0]
        assert span.cycles == 3
        assert span.residual == pytest.approx(0.004)
        assert plan.schedule.segments == table["x"].schedule.segments * 3

    def test_negative_maneuver_reverses_gait(self):
        table = synthetic_table(dx=0.01)
        plan = compile_maneuvers([Maneuver("translate", -0.02)], table)
        assert plan.spans[0].cycles == -2
        # reversed gait: order flipped, amplitudes negated
        assert plan.schedule.segments[0].amplitude == 1.0

    def test_small_maneuver_warns(self):
        table = synthetic_table(dx=0.01)
        plan = compile_maneuvers([Maneuver("translate", 0.004)], table)
        assert plan.spans[0].cycles == 0
        assert plan.warnings

    def test_compilation_linearity_within_one_cycle(self):
        table = synthetic_table(dx=0.01)
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = rng.uniform(0.005, 0.1)
            two_steps = compile_maneuvers(
                [Maneuver("translate", d), Maneuver("translate", d)], table)
            one_step = compile_maneuvers([Maneuver("translate", 2 * d)], table)
            n2 = sum(s.cycles for s in two_steps.spans)
            n1 = one_step.spans[0].cycles
            assert abs(n2 - n1) <= 1

    @pytest.mark.parametrize("real", [False, True], ids=["synthetic", "calibrated"])
    def test_residuals_are_at_most_half_a_cycle(self, real):
        table = (calibrate(PARAMS, plan_specs(default_config()), FAST_CFG) if real
                 else synthetic_table())
        rng = np.random.default_rng(11)
        maneuvers = [Maneuver(kind, table[gait].per_cycle * count)
                     for kind, gait in (("translate", "x"), ("rotate", "theta"))
                     for count in rng.uniform(-20.0, 20.0, 50)]
        plan = compile_maneuvers(maneuvers, table)
        for span in plan.spans:
            gait = "theta" if span.maneuver.kind == "rotate" else "x"
            half = 0.5 * abs(table[gait].per_cycle)
            # the slack is rounding only; a floor would leave up to a whole cycle
            assert abs(span.residual) <= half * (1.0 + 1e-12)

    def test_cycle_bound_refuses_before_expanding(self):
        table = synthetic_table(dx=0.01)
        too_far = 0.01 * (MAX_CYCLES + 1)
        half = Maneuver("translate", 0.01 * (MAX_CYCLES // 2 + 1))
        for maneuvers in ([Maneuver("translate", too_far)],
                          [Maneuver("translate", -too_far)],
                          [Maneuver("translate", math.inf)],
                          [Maneuver("rotate", math.nan)],
                          [half, half]):
            with pytest.raises(ValidationError, match=f"past {MAX_CYCLES} gait cycles"):
                compile_maneuvers(maneuvers, table)

    def test_requires_calibrated_gaits(self):
        table = synthetic_table()
        del table.entries["theta"]
        with pytest.raises(ValidationError):
            compile_maneuvers([Maneuver("rotate", 0.1)], table)

    def test_refuses_an_unknown_maneuver_kind(self):
        with pytest.raises(ValidationError, match="unknown maneuver kind 'spin'"):
            compile_maneuvers([Maneuver("spin", 0.1)], synthetic_table())


class TestTracking:
    def test_fit_circle_exact(self):
        angles = np.linspace(0, 2 * math.pi, 17)[:-1]
        pts = [(0.4 + 0.25 * math.cos(a), -0.1 + 0.25 * math.sin(a)) for a in angles]
        cx, cy, r = fit_circle(pts)
        assert (cx, cy, r) == pytest.approx((0.4, -0.1, 0.25), abs=1e-9)

    def test_fit_circle_refuses_points_whose_squares_overflow(self):
        with pytest.raises(NumericalError, match="finite"):
            fit_circle([(1e200, 0.0), (0.0, 1e200), (-1e200, 0.0)])

    @pytest.mark.parametrize("points", [[(1.0, 1.0)] * 3, [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]],
                             ids=["coincident", "collinear"])
    def test_fit_circle_refuses_coincident_or_collinear_points(self, points):
        # lstsq would fit these a minimum-norm "circle" (radii 0.943 and 1.155)
        with pytest.raises(NumericalError, match="neither coincident nor collinear"):
            fit_circle(points)

    def test_exact_waypoints_give_zero_error(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)]
        path = WaypointPath(tuple(pts))
        traj_like = _trajectory_through(pts)   # sample k ends segment k
        step = Maneuver("translate", 1.0)
        plan = CompiledPlan(ControlSchedule(), (ManeuverSpan(step, 1, 1, 0.0),
                                                ManeuverSpan(Maneuver("rotate", 0.0), 0, 1, 0.0),
                                                ManeuverSpan(step, 1, 2, 0.0)), ())
        rep = tracking_report(path, traj_like, plan)
        assert rep.max_error == pytest.approx(0.0, abs=1e-12)
        assert rep.closure_error == pytest.approx(0.0, abs=1e-12)

    def test_waypoint_path_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            WaypointPath(((0.0, 0.0), (0.0, 0.0)))


def _scanned_ends(traj, plan):
    """Each translate span's last sample, found by scanning the whole segment column."""
    achieved = []
    for span in plan.spans:
        if span.maneuver.kind == "translate":
            idx = np.flatnonzero(traj.segment <= span.last_segment)
            i = int(idx[-1]) if len(idx) else 0
            achieved.append((float(traj.x[i]), float(traj.y[i])))
    return tuple(achieved)


def test_tracking_finds_the_ends_the_scan_finds():
    cfg = IntegratorConfig(h=2.5e-3, min_substeps=16)
    calib = calibrate(PARAMS, plan_specs(default_config()), cfg)
    compiled, traj, rep = run_plan(plan_polygon(0.2, 10), calib, PARAMS, cfg)   # criterion 08's
    assert rep.achieved == _scanned_ends(traj, compiled)


def test_tracking_finds_the_ends_of_zero_cycle_spans():
    calib = calibrate(PARAMS, plan_specs(default_config()), FAST_CFG)
    tiny_x = 0.1 * calib["x"].per_cycle
    tiny_turn = Maneuver("rotate", 0.1 * calib["theta"].per_cycle)
    maneuvers = [Maneuver("translate", tiny_x), tiny_turn,
                 Maneuver("translate", 0.02), tiny_turn, Maneuver("translate", tiny_x)]
    compiled = compile_maneuvers(maneuvers, calib)
    assert [s.cycles for s in compiled.spans][:2] == [0, 0]
    assert compiled.spans[0].last_segment == -1
    traj = simulate(compiled.schedule, Configuration(ShapePoint(0.0, 0.0), IDENT),
                    PARAMS, FAST_CFG)
    path = WaypointPath(((-1.0, 0.0), (0.0, 0.0), (0.5, 0.0), (1.0, 0.0)))
    achieved = tracking_report(path, traj, compiled).achieved
    assert achieved == _scanned_ends(traj, compiled)
    assert achieved[0] == (0.0, 0.0)


def test_run_plan_starts_straight_at_the_plan_s_start_pose():
    calib = calibrate(PARAMS, plan_specs(default_config()), FAST_CFG)
    plan = plan_polygon(0.05, 3)
    assert plan.start_pose != STRAIGHT.pose
    compiled, traj, rep = run_plan(plan, calib, PARAMS, FAST_CFG)
    assert compiled == compile_maneuvers(plan.maneuvers, calib)
    q0 = Configuration(ShapePoint(0.0, 0.0), plan.start_pose)
    assert traj.rows.tobytes() == simulate(compiled.schedule, q0, PARAMS, FAST_CFG).rows.tobytes()
    assert rep == tracking_report(plan.path, traj, compiled)


@pytest.mark.parametrize("config, zero_span", [("", None), ("plan.line.distance = 1e-9", 1),
                                              ("plan.line.bearing = 0", 0)],
                         ids=["default", "translate-of-0-cycles", "rotate-of-0-cycles"])
def test_a_line_plan_s_one_error_is_the_final_position_s(config, zero_span):
    # plan-line's target_error_m: the one waypoint is matched to the end of the
    # translate, which ends the schedule even when it emits no segment
    cfg = parse_config(config)
    target = (cfg.line_distance * math.cos(cfg.line_bearing),
              cfg.line_distance * math.sin(cfg.line_bearing))
    plan = Plan(WaypointPath(((0.0, 0.0), target)), plan_line(IDENT, target), IDENT)
    calib = calibrate(cfg.params, plan_specs(cfg), cfg.integrator)
    compiled, traj, rep = run_plan(plan, calib, cfg.params, cfg.integrator)
    assert [s.cycles == 0 for s in compiled.spans] == [i == zero_span for i in range(2)]
    assert compiled.spans[1].last_segment == len(compiled.schedule) - 1
    final = traj.final_pose
    assert rep.achieved[-1] == (final.x, final.y)
    assert rep.max_error.hex() == math.hypot(final.x - target[0], final.y - target[1]).hex()


def _trajectory_through(points):
    n = len(points)
    zeros = np.zeros(n)
    return trajectory_from_columns(
        t=np.arange(n, dtype=float),
        alpha1=zeros, alpha2=zeros,
        x=np.array([p[0] for p in points], dtype=float),
        y=np.array([p[1] for p in points], dtype=float),
        theta=zeros, xi_x=zeros, xi_y=zeros, xi_theta=zeros,
        segment=np.arange(n),
    )


class TestEndToEnd:
    def test_line_plan_heading_within_one_quantum(self):
        cfg = IntegratorConfig(h=2e-3, min_substeps=8)
        calib = calibrate(PARAMS, plan_specs(default_config()), cfg)
        bearing = math.radians(40.0)
        target = (0.05 * math.cos(bearing), 0.05 * math.sin(bearing))
        maneuvers = plan_line(IDENT, target)
        compiled = compile_maneuvers(maneuvers, calib)
        q0 = Configuration(ShapePoint(0.0, 0.0), IDENT)
        traj = simulate(compiled.schedule, q0, PARAMS, cfg)
        quantum = abs(calib["theta"].per_cycle)
        # commanded heading is the planned rotation; translation leaks a bit more
        heading_err = abs(traj.theta[np.searchsorted(traj.segment,
                                                     compiled.spans[0].last_segment + 1) - 1]
                          - maneuvers[0].magnitude)
        assert heading_err <= quantum

    def test_error_accumulates_over_repeated_translates(self):
        cfg = IntegratorConfig(h=2e-3, min_substeps=8)
        calib = calibrate(PARAMS, plan_specs(default_config()), cfg)
        step = 0.03
        maneuvers = [Maneuver("translate", step)] * 5
        compiled = compile_maneuvers(maneuvers, calib)
        q0 = Configuration(ShapePoint(0.0, 0.0), IDENT)
        traj = simulate(compiled.schedule, q0, PARAMS, cfg)
        waypoints = [((k + 1) * step, 0.0) for k in range(5)]
        path = WaypointPath(((0.0, 0.0),) + tuple(waypoints))
        rep = tracking_report(path, traj, compiled)
        errors = np.hypot(*(np.array(rep.achieved) - np.array(waypoints)).T)
        assert np.all(np.diff(errors) >= -1e-12)
