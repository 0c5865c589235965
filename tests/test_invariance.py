"""Metamorphic relations of the swimmer that hold bit for bit.

Each relation maps one input to another whose output is known exactly from
the first: a power-of-two change of the unit of length, of time or of drag,
and the mirror image of a shape.  No tolerance is involved, so a change that
mixes units or breaks a symmetry by one rounding shows here even where every
tolerance-based test still passes.  Scale factors are powers of two because
only those scale every product and quotient without rounding: drag x3 keeps
the rows in most cases but not all.  The two relations that hold only to
rounding, the end swap of a shape and a slower gait at the same step, are
asserted at a stated tolerance.
"""

import math

import numpy as np
import pytest

from purcell.config import default_config, parse_config, plan_specs
from purcell.gaits import ControlSchedule, ControlSegment
from purcell.lie import bracket_basis, controllability_report, solve_bracket_coefficients
from purcell.model import Configuration, ShapePoint, default_params
from purcell.planner import STRAIGHT, calibrate, compile_maneuvers, plan_line
from purcell.se2 import GroupPose
from purcell.selftest import _random_params
from purcell.simulate import COLUMNS, IntegratorConfig, simulate

PARAMS = default_params()
PARAM_SETS = [PARAMS, *(_random_params(np.random.default_rng(s)) for s in (61, 62))]
IDS = ["default", "a", "b"]
CFG = IntegratorConfig(h=1e-3, min_substeps=16)
LENGTH_COLUMNS = [COLUMNS.index(c) for c in ("x", "y", "xi_x", "xi_y")]
OTHER_COLUMNS = [i for i in range(len(COLUMNS)) if i not in LENGTH_COLUMNS]


def random_runs(seed, count=4, segments=6):
    """(schedule, start) pairs: seeded segments from a seeded shape and pose."""
    rng = np.random.default_rng(seed)
    runs = []
    for _ in range(count):
        segs = tuple(ControlSegment(int(rng.integers(1, 3)), float(rng.uniform(-2.0, 2.0)),
                                    float(rng.uniform(0.005, 0.05))) for _ in range(segments))
        q0 = Configuration(ShapePoint(*rng.uniform(-math.pi, math.pi, 2)),
                           GroupPose(*rng.uniform(-1.0, 1.0, 2), rng.uniform(-math.pi, math.pi)))
        runs.append((ControlSchedule(segs), q0))
    return runs


@pytest.mark.parametrize("params", PARAM_SETS, ids=IDS)
def test_a_power_of_two_length_scales_the_length_columns_exactly(params):
    # L, b and the start's x and y times 2**k: x, y, xi_x and xi_y times
    # 2**k, and the time, shape, heading, turning rate and segment alone
    for schedule, q0 in random_runs(71):
        rows = simulate(schedule, q0, params, CFG).rows
        for k in (-20, -3, 1, 5, 20):
            s = 2.0 ** k
            start = Configuration(q0.shape, GroupPose(s * q0.pose.x, s * q0.pose.y, q0.pose.theta))
            scaled = simulate(schedule, start, params._replace(L=s * params.L, b=s * params.b),
                              CFG).rows
            assert scaled[:, LENGTH_COLUMNS].tobytes() == (s * rows[:, LENGTH_COLUMNS]).tobytes()
            assert scaled[:, OTHER_COLUMNS].tobytes() == rows[:, OTHER_COLUMNS].tobytes()


def time_scaled(schedule, s):
    """The schedule with its rates times s and its durations divided by s."""
    return ControlSchedule(tuple(seg._replace(amplitude=s * seg.amplitude, duration=seg.duration / s)
                                 for seg in schedule.segments))


TIME = COLUMNS.index("t")
RATE_COLUMNS = [COLUMNS.index(c) for c in ("xi_x", "xi_y", "xi_theta")]
PATH_COLUMNS = [i for i in range(len(COLUMNS)) if i != TIME and i not in RATE_COLUMNS]


@pytest.mark.parametrize("min_substeps", (1, 4, 16))
@pytest.mark.parametrize("params", PARAM_SETS, ids=IDS)
def test_a_power_of_two_time_unit_scales_time_and_velocity_exactly(params, min_substeps):
    # the swimmer is driftless: rates times 2**k with the durations and the
    # step times 2**-k take the same steps along the same shape path, so the
    # shape, pose and segment columns keep their bits, t scales by 2**-k and
    # the body velocity by 2**k
    cfg = IntegratorConfig(h=1e-3, min_substeps=min_substeps)
    for segments in range(1, 8):
        for schedule, q0 in random_runs(80 + segments, count=6, segments=segments):
            rows = simulate(schedule, q0, params, cfg).rows
            for k in (-20, -3, 1, 7, 20):
                s = 2.0 ** k
                scaled = simulate(time_scaled(schedule, s), q0, params,
                                  cfg._replace(h=cfg.h / s)).rows
                assert scaled[:, PATH_COLUMNS].tobytes() == rows[:, PATH_COLUMNS].tobytes()
                assert scaled[:, TIME].tobytes() == (rows[:, TIME] / s).tobytes()
                assert scaled[:, RATE_COLUMNS].tobytes() == (s * rows[:, RATE_COLUMNS]).tobytes()


@pytest.mark.parametrize("params", PARAM_SETS, ids=IDS)
def test_a_slower_gait_at_the_same_step_ends_at_the_same_pose_to_rounding(params):
    # rates halved and durations doubled at the default integrator: each
    # segment takes more steps, so the path is the same and the end pose
    # agrees to the integrator's rounding (worst seen on these 60 runs:
    # 6.7e-16); the end shape is the same bits
    for schedule, q0 in random_runs(77, count=20, segments=4):
        end = simulate(schedule, q0, params).rows[-1]
        slow = simulate(time_scaled(schedule, 0.5), q0, params).rows[-1]
        assert slow[1:3].tobytes() == end[1:3].tobytes()   # alpha1, alpha2
        dx, dy, dtheta = slow[3:6] - end[3:6]
        assert max(abs(dx), abs(dy), abs(math.remainder(dtheta, 2.0 * math.pi))) < 1e-14


@pytest.mark.parametrize("params", PARAM_SETS, ids=IDS)
def test_a_power_of_two_drag_leaves_every_row_alone(params):
    # the connection depends on k_long / k_lat alone
    for schedule, q0 in random_runs(72):
        rows = simulate(schedule, q0, params, CFG).rows
        for s in (0.25, 4.0, 2.0 ** 30):
            scaled = params._replace(k_long=s * params.k_long, k_lat=s * params.k_lat)
            assert simulate(schedule, q0, scaled, CFG).rows.tobytes() == rows.tobytes()


# The mirror image (a1, a2) -> (-a1, -a2) reflects the swimmer across its
# base link: the basis at the mirrored shape is D B D with D = diag(MIRROR).
MIRROR = np.array([1.0, 1.0, -1.0, 1.0, 1.0])


@pytest.mark.parametrize("params", PARAM_SETS, ids=IDS)
def test_the_mirrored_shape_has_the_mirrored_basis(params):
    # the basis itself, not its singular values, so no LAPACK build can change it
    rng = np.random.default_rng(73)
    for _ in range(8):
        a1, a2 = rng.uniform(-math.pi, math.pi, 2)
        pose = GroupPose(*rng.uniform(-1.0, 1.0, 2), rng.uniform(-math.pi, math.pi))
        basis = bracket_basis(Configuration(ShapePoint(a1, a2), pose), params)
        mirrored = bracket_basis(Configuration(ShapePoint(-a1, -a2), pose), params)
        assert np.array_equal(mirrored, MIRROR[:, None] * basis * MIRROR)


def interior_shapes(seed, count=20):
    """Seeded shapes, each with a seeded pose.  A shape within a step of
    +-pi is left out: its mirror image is perturbed across the other end of
    the circle, where the wrapped points round differently."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a1, a2 = rng.uniform(-3.0, 3.0, 2)
        yield a1, a2, GroupPose(*rng.uniform(-1.0, 1.0, 2), rng.uniform(-math.pi, math.pi))


@pytest.mark.parametrize("params", PARAM_SETS, ids=IDS)
def test_the_mirrored_shape_has_the_same_singular_values(params):
    # the unit-free basis at the mirror image is D B D, D diagonal of +-1
    for a1, a2, pose in interior_shapes(74):
        rep = controllability_report(Configuration(ShapePoint(a1, a2), pose), params)
        mirrored = controllability_report(Configuration(ShapePoint(-a1, -a2), pose), params)
        assert mirrored.singular_values.tobytes() == rep.singular_values.tobytes()
        assert mirrored.rank == rep.rank


# The x, y and theta rows and the three bracket columns of the mirrored basis
# each change sign by E; so the weights solving for direction d at the
# mirrored shape are E[d] * (E * c), c the weights at the shape itself.
E = np.array([-1.0, 1.0, 1.0])


@pytest.mark.parametrize("params", PARAM_SETS, ids=IDS)
def test_the_mirrored_shape_has_the_mirrored_coefficients(params):
    for a1, a2, pose in interior_shapes(75):
        p, mirrored = (Configuration(ShapePoint(s * a1, s * a2), pose) for s in (1.0, -1.0))
        for d, sign in zip(("x", "y", "theta"), E):
            c = np.array(solve_bracket_coefficients(d, p, params))
            expected = sign * (E * c)
            assert np.array(solve_bracket_coefficients(d, mirrored, params)).tobytes() \
                == expected.tobytes()


@pytest.mark.parametrize("params", PARAM_SETS, ids=IDS)
def test_the_end_swapped_shape_has_the_same_singular_values_to_rounding(params):
    # (a1, a2) -> (-a2, -a1) turns the swimmer end for end: the basis there
    # is a signed permutation of this one, but the connection's arithmetic
    # is not symmetric in the two joints, so the singular values agree to
    # rounding only (worst seen: 1.0e-15 of sigma1 over 300 shapes)
    for a1, a2, pose in interior_shapes(76):
        sigma = controllability_report(Configuration(ShapePoint(a1, a2), pose),
                                       params).singular_values
        swapped = controllability_report(Configuration(ShapePoint(-a2, -a1), pose),
                                         params).singular_values
        assert np.max(np.abs(swapped - sigma)) < 1e-12 * sigma[0]


def _plan_line_run(scale):
    """What plan-line computes in memory, with L, b and the distance times scale."""
    base = default_config()
    cfg = parse_config(f"swimmer.L = {scale * base.params.L!r}\n"
                       f"swimmer.b = {scale * base.params.b!r}\n"
                       f"plan.line.distance = {scale * base.line_distance!r}\n")
    bearing, distance = cfg.line_bearing, cfg.line_distance
    target = (distance * math.cos(bearing), distance * math.sin(bearing))
    calib = calibrate(cfg.params, plan_specs(cfg), cfg.integrator)
    compiled = compile_maneuvers(plan_line(GroupPose(0.0, 0.0, 0.0), target), calib)
    return calib, compiled, simulate(compiled.schedule, STRAIGHT, cfg.params, cfg.integrator)


def test_plan_line_of_a_swimmer_twice_the_size_doubles_its_length_columns():
    # the default plan-line (870,001 rows) against one with L, b and the
    # line's distance doubled: the same cycles and dominances, the x and y
    # displacements doubled, and the rows in memory; the CSV's 15 digits do
    # not double exactly, so the files are not compared
    calib, compiled, traj = _plan_line_run(1.0)
    calib2, compiled2, traj2 = _plan_line_run(2.0)
    assert [s.cycles for s in compiled.spans] == [s.cycles for s in compiled2.spans] == [-78, 21]
    assert compiled2.schedule == compiled.schedule
    for d, entry in calib.entries.items():
        dx, dy, dth = entry.delta
        assert calib2[d].delta == (2.0 * dx, 2.0 * dy, dth)
        assert calib2[d].dominance == entry.dominance
    rows, rows2 = traj.rows, traj2.rows
    assert rows2.shape == rows.shape == (870_001, len(COLUMNS))
    assert rows2[:, LENGTH_COLUMNS].tobytes() == (2.0 * rows[:, LENGTH_COLUMNS]).tobytes()
    assert rows2[:, OTHER_COLUMNS].tobytes() == rows[:, OTHER_COLUMNS].tobytes()
