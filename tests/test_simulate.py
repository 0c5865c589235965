import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from purcell import simulate as sim
from purcell.config import basis_specs, default_config
from purcell.errors import NumericalError, ValidationError
from purcell.gaits import (ControlSchedule, ControlSegment, GaitSpec,
                           commutator_schedule, reverse_schedule, synthesize)
from purcell.model import (Configuration, ShapePoint, SwimmerParams, body_velocity_components,
                           default_params, derive_drag_coefficients)
from purcell.planner import STRAIGHT, calibrate, compile_maneuvers, plan_line, plan_polygon
from purcell.se2 import GroupPose, compose, inverse, wrap_angle
from purcell.selftest import (LADDER, _net_motion, _random_params, commutator_probe,
                              fit_loglog_slope)
from purcell.simulate import MAX_STEPS, IntegratorConfig, Trajectory, net_displacement, simulate

from conftest import lie_bracket, swimmer_fields, trajectory_from_columns

PARAMS = default_params()
ORIGIN = Configuration(ShapePoint(0.0, 0.0), GroupPose(0.0, 0.0, 0.0))
CFG = IntegratorConfig(h=1e-3, min_substeps=16)
_PI = math.pi


def MODEL(a1, a2, u1, u2):
    """The swimmer's connection at PARAMS, as the references call it."""
    return body_velocity_components(a1, a2, u1, u2, PARAMS)


def reference_simulate(schedule, q0, model, cfg=CFG) -> Trajectory:
    """The world-frame RK4 loop that integrates every segment in turn: the
    reference for simulate_velocity_model, which integrates each distinct
    segment once in its body frame."""
    if not (cfg.h > 0 and cfg.min_substeps >= 1):
        raise ValidationError("integrator needs h > 0 and min_substeps >= 1")

    segments = [(i, s) for i, s in enumerate(schedule.segments) if s.duration > 0.0]
    counts, taken = [], 0
    for _, s in segments:
        steps = s.duration / cfg.h
        if not max(steps, cfg.min_substeps) <= MAX_STEPS - taken:   # also refuses inf and nan
            raise ValidationError(f"schedule needs more than {MAX_STEPS} integration steps")
        counts.append(max(math.ceil(steps), cfg.min_substeps))
        taken += counts[-1]
    total = taken + 1

    t, alpha1, alpha2, x_col, y_col, th_col, xi_x, xi_y, xi_th = (
        np.empty(total) for _ in range(9))
    seg_col = np.empty(total, dtype=int)

    a1, a2 = q0.shape
    x, y, th = q0.pose
    t[0], x_col[0], y_col[0] = 0.0, x, y
    alpha1[0], alpha2[0], th_col[0] = wrap_angle(a1), wrap_angle(a2), wrap_angle(th)
    now = 0.0
    row = 1

    if not segments:   # the trajectory is the initial sample alone
        xi_x[0] = xi_y[0] = xi_th[0] = 0.0
        seg_col[0] = -1

    for (seg_idx, seg), n_steps in zip(segments, counts):
        u1 = seg.amplitude if seg.channel == 1 else 0.0
        u2 = seg.amplitude if seg.channel == 2 else 0.0
        a1_0, a2_0 = a1, a2
        xi = model(a1, a2, u1, u2)
        if row == 1:
            xi_x[0], xi_y[0], xi_th[0] = xi
            seg_col[0] = seg_idx
        t_0 = now
        tau0 = 0.0
        for k in range(n_steps):
            tau1 = seg.duration * ((k + 1) / n_steps)
            hs = tau1 - tau0
            tm = tau0 + 0.5 * hs
            xim = model(a1_0 + u1 * tm, a2_0 + u2 * tm, u1, u2)
            a1 = a1_0 + u1 * tau1
            a2 = a2_0 + u2 * tau1
            xie = model(a1, a2, u1, u2)

            c, s = math.cos(th), math.sin(th)
            k1x = c * xi[0] - s * xi[1]
            k1y = s * xi[0] + c * xi[1]
            th2 = th + 0.5 * hs * xi[2]
            c, s = math.cos(th2), math.sin(th2)
            k2x = c * xim[0] - s * xim[1]
            k2y = s * xim[0] + c * xim[1]
            th3 = th + 0.5 * hs * xim[2]
            c, s = math.cos(th3), math.sin(th3)
            k3x = c * xim[0] - s * xim[1]
            k3y = s * xim[0] + c * xim[1]
            th4 = th + hs * xim[2]
            c, s = math.cos(th4), math.sin(th4)
            k4x = c * xie[0] - s * xie[1]
            k4y = s * xie[0] + c * xie[1]

            x += hs / 6.0 * (k1x + 2.0 * (k2x + k3x) + k4x)
            y += hs / 6.0 * (k1y + 2.0 * (k2y + k3y) + k4y)
            th += hs / 6.0 * (xi[2] + 4.0 * xim[2] + xie[2])

            xi = xie
            now = t_0 + tau1
            # wrap_angle's in-range test inline: a call only for angles outside (-pi, pi]
            t[row] = now
            alpha1[row] = a1 if -_PI < a1 <= _PI else wrap_angle(a1)
            alpha2[row] = a2 if -_PI < a2 <= _PI else wrap_angle(a2)
            x_col[row] = x
            y_col[row] = y
            th_col[row] = th if -_PI < th <= _PI else wrap_angle(th)
            xi_x[row], xi_y[row], xi_th[row] = xi
            seg_col[row] = seg_idx
            row += 1
            tau0 = tau1

    if segments and not (math.isfinite(x) and math.isfinite(y) and math.isfinite(th)):
        raise NumericalError("integration produced a non-finite pose")
    return trajectory_from_columns(t, alpha1, alpha2, x_col, y_col, th_col, xi_x, xi_y,
                                   xi_th, seg_col)


def test_empty_schedule_is_identity():
    traj = simulate(ControlSchedule(), ORIGIN, PARAMS, CFG)
    assert len(traj) == 1
    assert traj.segment[0] == -1
    nd = net_displacement(traj)
    assert nd.delta == pytest.approx((0.0, 0.0, 0.0))
    assert nd.shape_closure == 0.0


def test_single_segment_shape_is_exact():
    sched = ControlSchedule((ControlSegment(1, 0.3, 1.7),))
    traj = simulate(sched, ORIGIN, PARAMS, CFG)
    assert traj.alpha1[-1] == 0.3 * 1.7  # exact, not approx
    assert traj.alpha2[-1] == 0.0
    assert traj.t[-1] == pytest.approx(1.7, abs=1e-15)


def test_sample_times_strictly_increase():
    sched = commutator_schedule(0.09)
    traj = simulate(sched, ORIGIN, PARAMS, CFG)
    assert np.all(np.diff(traj.t) > 0)
    assert np.all(np.diff(traj.segment) >= 0)


def test_square_gait_matches_bracket_and_euler_oracle():
    eps = 0.1
    sched = commutator_schedule(eps * eps)
    traj = simulate(sched, ORIGIN, PARAMS, CFG)
    delta = net_displacement(traj).delta
    got = np.array([delta.x, delta.y, delta.theta])

    g1, g2 = swimmer_fields(PARAMS)
    ref = eps * eps * lie_bracket(g1, g2, ORIGIN)[2:]
    assert np.linalg.norm(got - ref) < 5.0 * eps ** 3

    # independent fixed-step Euler at 10x finer step
    model = MODEL
    x = y = th = a1 = a2 = 0.0
    h = CFG.h / 10.0
    for seg in sched.segments:
        u1 = seg.amplitude if seg.channel == 1 else 0.0
        u2 = seg.amplitude if seg.channel == 2 else 0.0
        steps = int(round(seg.duration / h))
        for _ in range(steps):
            xi = model(a1, a2, u1, u2)
            x += h * (math.cos(th) * xi[0] - math.sin(th) * xi[1])
            y += h * (math.sin(th) * xi[0] + math.cos(th) * xi[1])
            th += h * xi[2]
            a1 += h * u1
            a2 += h * u2
    assert np.linalg.norm(got - np.array([x, y, th])) < 1e-6


def test_square_gait_leakage_ratio_shrinks_with_eps():
    # cross-leakage relative to the principal x step falls off linearly in
    # eps; at these parameters the 0.15 bound is met from eps = 0.02 down
    ratios = []
    for eps in (0.05, 0.02):
        sched = commutator_schedule(eps * eps)
        d = net_displacement(simulate(sched, ORIGIN, PARAMS, CFG)).delta
        assert abs(d.y) < 0.15 * abs(d.x)
        ratios.append(abs(d.theta) / abs(d.x))
    assert ratios[1] < 0.15
    assert ratios[1] < 0.5 * ratios[0]


def test_group_equivariance():
    sched = commutator_schedule(0.25)
    base = simulate(sched, ORIGIN, PARAMS, CFG)
    g0 = GroupPose(0.4, -0.7, 1.1)
    moved = simulate(sched, Configuration(ShapePoint(0.0, 0.0), g0), PARAMS, CFG)
    expect = compose(g0, base.final_pose)
    got = moved.final_pose
    err = math.hypot(expect.x - got.x, expect.y - got.y) \
        + abs(wrap_angle(expect.theta - got.theta))
    assert err < 1e-9


@example(ControlSchedule((ControlSegment(1, 0.8, 0.5),
                          ControlSegment(2, -0.5, 0.7),
                          ControlSegment(1, 0.2, 0.3))))
@given(st.lists(st.builds(ControlSegment, st.sampled_from((1, 2)), st.floats(-2.0, 2.0),
                          st.floats(0.0, 1.0)), max_size=8)
       .map(lambda segs: ControlSchedule(tuple(segs))))
def test_time_reversal_returns_home(sched):
    out = simulate(sched, ORIGIN, PARAMS, CFG)
    q_mid = Configuration(ShapePoint(float(out.alpha1[-1]), float(out.alpha2[-1])),
                          out.final_pose)
    back = simulate(reverse_schedule(sched), q_mid, PARAMS, CFG)
    final = back.final_pose
    assert math.hypot(final.x, final.y) < 1e-8
    assert abs(wrap_angle(final.theta)) < 1e-8


def test_rk4_self_convergence_order():
    sched = ControlSchedule((ControlSegment(1, 1.3, 1.0),
                             ControlSegment(2, -0.9, 1.0)))
    finals = []
    for h in (0.05, 0.025, 0.0125):
        traj = simulate(sched, ORIGIN, PARAMS, IntegratorConfig(h=h, min_substeps=1))
        finals.append(np.array([traj.x[-1], traj.y[-1], traj.theta[-1]]))
    d1 = np.linalg.norm(finals[0] - finals[1])
    d2 = np.linalg.norm(finals[1] - finals[2])
    assert math.log2(d1 / d2) > 3.7


def test_substep_counts_respect_config():
    sched = ControlSchedule((ControlSegment(1, 1.0, 0.001),))
    traj = simulate(sched, ORIGIN, PARAMS, IntegratorConfig(h=1e-3, min_substeps=16))
    assert len(traj) == 17  # initial sample + 16 forced substeps


def test_synthesized_schedule_closes_shape():
    sched = synthesize(GaitSpec(0.5, -1.0, 1.0, t=0.5, n=2))
    traj = simulate(sched, ORIGIN, PARAMS, IntegratorConfig(h=5e-3, min_substeps=2))
    assert net_displacement(traj).shape_closure < 1e-10


def test_commuting_pair_square_cancels(monkeypatch):
    # two constant commuting fields: the square gait nets to zero exactly
    monkeypatch.setattr(sim, "body_velocity_components",
                        lambda a1, a2, u1, u2, params: (0.3 * u1, 0.2 * u2, 0.0))
    errors = []
    for eps in (0.2, 0.1, 0.05):
        sched = commutator_schedule(eps * eps)
        traj = simulate(sched, ORIGIN, PARAMS, CFG)
        d = net_displacement(traj).delta
        errors.append(math.hypot(d.x, d.y) + abs(d.theta))
    assert max(errors) < 1e-10


def test_convergence_probe_on_square_gait():
    errors, slope, monotone = commutator_probe(PARAMS, CFG)
    assert len(errors) == len(LADDER)
    assert slope >= 2.7
    assert monotone


@pytest.mark.parametrize("seed", [None, 81, 82, 83, 84], ids=["default", *"abcd"])
def test_convergence_probe_reads_the_reference_bracket_bit_for_bit(seed):
    # the probe reads [g1,g2] from bracket_basis at the inner step
    # DEFAULT_STEP; its errors are those against the bracket of each field
    # alone, bit for bit (a coarse integrator: both sides share its motions)
    params = PARAMS if seed is None else _random_params(np.random.default_rng(seed))
    cfg = IntegratorConfig(h=1e-2, min_substeps=2)
    reference = lie_bracket(*swimmer_fields(params), STRAIGHT)[2:]
    expected = [float(np.linalg.norm(np.array(_net_motion(commutator_schedule(eps * eps), params,
                                                          cfg)) - eps * eps * reference))
                for eps in LADDER]
    errors, _, _ = commutator_probe(params, cfg)
    assert [float.hex(e) for e in errors] == [float.hex(e) for e in expected]


def test_fit_loglog_slope_exact_cubic():
    eps = [0.2, 0.1, 0.05, 0.025]
    errs = [7.0 * e ** 3 for e in eps]
    assert fit_loglog_slope(eps, errs) == pytest.approx(3.0, abs=1e-12)
    with pytest.raises(ValidationError):
        fit_loglog_slope([0.1, 0.05], [1, 2])


def test_decimate_keeps_ends():
    sched = ControlSchedule((ControlSegment(1, 1.0, 1.0),))
    traj = simulate(sched, ORIGIN, PARAMS, IntegratorConfig(h=1e-2, min_substeps=1))
    thin = traj.decimate(7)
    assert thin.t[0] == traj.t[0]
    assert thin.t[-1] == traj.t[-1]
    assert len(thin) < len(traj)


def test_decimate_is_index_selection_and_shares_memory_on_the_stride():
    sched = ControlSchedule((ControlSegment(1, 1.0, 1.0),))
    traj = simulate(sched, ORIGIN, PARAMS, IntegratorConfig(h=1e-2, min_substeps=1))
    last = len(traj) - 1
    assert last == 100
    for stride in (1, 7, 25):   # 1 and 25 land on the last sample, 7 does not
        idx = sorted(set(range(0, len(traj), stride)) | {last})
        thin = traj.decimate(stride)
        assert thin.rows.dtype == traj.rows.dtype and np.array_equal(thin.rows, traj.rows[idx])
        assert np.shares_memory(thin.rows, traj.rows) == (stride != 7)


def test_wrap_angles_is_wrap_angle_bit_for_bit():
    # odd multiples of pi are where (-pi, pi] decides: -pi and 3pi map to pi
    odd = np.array([k * _PI for k in (-5, -3, -1, 1, 3, 5)])
    angles = np.concatenate([odd, np.nextafter(odd, -np.inf), np.nextafter(odd, np.inf),
                             np.random.default_rng(12).uniform(-20.0, 20.0, 1000)])
    expect = np.array([wrap_angle(a) for a in angles.tolist()])
    assert sim._wrap_angles(angles).tobytes() == expect.tobytes()
    for a, e in zip(angles, expect):   # alone, where no other element forces the wrap
        assert sim._wrap_angles(np.array([a])).tobytes() == np.array([e]).tobytes()


def test_net_displacement_requires_samples():
    sched = ControlSchedule((ControlSegment(2, -1.0, 0.5),))
    traj = simulate(sched, ORIGIN, PARAMS, CFG)
    nd = net_displacement(traj)
    assert nd.delta.theta != 0.0
    # displacement is reported in the initial body frame
    manual = compose(inverse(traj.initial_pose), traj.final_pose)
    assert nd.delta == pytest.approx(tuple(manual))


FAST = IntegratorConfig(h=1e-2, min_substeps=4)
EXACT_COLUMNS = ("t", "alpha1", "alpha2", "xi_x", "xi_y", "xi_theta", "segment")
POSE_TOL = 1e-9   # m for x and y, rad for the wrapped theta


def assert_matches_reference(traj, ref):
    """Columns the body-frame composition does not touch are bit-identical;
    x, y and theta agree within POSE_TOL."""
    for name in EXACT_COLUMNS:
        got, want = getattr(traj, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert np.max(np.abs(traj.x - ref.x)) <= POSE_TOL
    assert np.max(np.abs(traj.y - ref.y)) <= POSE_TOL
    dtheta = np.remainder(traj.theta - ref.theta + math.pi, 2.0 * math.pi) - math.pi
    assert np.max(np.abs(dtheta)) <= POSE_TOL


_blocks = st.lists(st.builds(ControlSegment, st.sampled_from((1, 2)), st.floats(-2.0, 2.0),
                             st.floats(0.0, 0.05)), min_size=1, max_size=4)
_words = st.lists(st.tuples(_blocks, st.integers(1, 4), st.booleans()), min_size=1, max_size=3)
_nonzero = st.floats(-4.0, 4.0).filter(lambda a: a != 0.0)
_shapes = st.one_of(st.builds(ShapePoint, _nonzero, _nonzero),
                    st.builds(ShapePoint, st.integers(-3, 3), st.integers(-3, 3)))
_headings = st.one_of(st.floats(_PI - 1e-6, _PI + 1e-6), st.floats(-_PI - 1e-6, -_PI + 1e-6),
                      st.sampled_from((_PI, -_PI)), st.floats(-4.0, 4.0))
_poses = st.builds(GroupPose, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), _headings)


def _word_schedule(parts):
    """Concatenated powers of blocks, each block run forward or reversed."""
    blocks = [ControlSchedule(tuple(segs)) for segs, _, _ in parts]
    return ControlSchedule(sum(((reverse_schedule(b) if back else b).segments * k
                                for b, (_, k, back) in zip(blocks, parts)), ()))


# a zero rate on a signed-zero angle keeps the zero's sign: the first and last
# segments start from -0.0 and +0.0 and must not share rows
@example([([ControlSegment(1, -0.0, 0.01), ControlSegment(2, 0.5, 0.01),
            ControlSegment(2, -0.5, 0.01)], 2, False)],
         ShapePoint(-0.0, 0.0), GroupPose(0.0, 0.0, 0.0))
@example([([ControlSegment(1, 0.8, 0.03), ControlSegment(2, -0.5, 0.02)], 3, False),
          ([ControlSegment(1, 0.8, 0.03), ControlSegment(2, -0.5, 0.02)], 2, True)],
         ShapePoint(0, 0), GroupPose(0.3, -0.2, _PI))
@given(_words, _shapes, _poses)
def test_body_frame_reuse_matches_the_world_frame_loop(parts, shape, pose):
    sched = _word_schedule(parts)
    q0 = Configuration(shape, pose)
    assert_matches_reference(simulate(sched, q0, PARAMS, FAST),
                             reference_simulate(sched, q0, MODEL, FAST))


def test_integer_start_shape_matches_float_start():
    sched = ControlSchedule(commutator_schedule(0.01).segments * 3)
    ints = Configuration(ShapePoint(0, 0), GroupPose(0, 0, 0))
    traj = simulate(sched, ints, PARAMS, CFG)
    assert_matches_reference(traj, reference_simulate(sched, ints, MODEL, CFG))
    assert_matches_reference(traj, reference_simulate(sched, ORIGIN, MODEL, CFG))


def test_moved_start_moves_every_reference_sample():
    # left invariance, checked against the loop that integrates in the world frame
    sched = ControlSchedule(commutator_schedule(0.25).segments * 3)
    base = reference_simulate(sched, ORIGIN, MODEL, CFG)
    for g0 in (GroupPose(0.4, -0.7, 1.1), GroupPose(-2.0, 3.0, _PI), GroupPose(0.0, 0.0, -3.1)):
        moved = simulate(sched, Configuration(ShapePoint(0.0, 0.0), g0), PARAMS, CFG)
        c, s = math.cos(g0.theta), math.sin(g0.theta)
        assert np.max(np.abs(moved.x - (g0.x + c * base.x - s * base.y))) < POSE_TOL
        assert np.max(np.abs(moved.y - (g0.y + s * base.x + c * base.y))) < POSE_TOL
        dtheta = np.remainder(moved.theta - base.theta - g0.theta + math.pi,
                              2.0 * math.pi) - math.pi
        assert np.max(np.abs(dtheta)) < POSE_TOL


@pytest.mark.parametrize("xi", [(math.inf, 0.0, 0.0), (0.0, 0.0, math.inf)])
def test_non_finite_pose_is_a_numerical_error(monkeypatch, xi):
    # an infinite heading is a numerical failure, not math.cos's ValueError
    monkeypatch.setattr(sim, "body_velocity_components", lambda a1, a2, u1, u2, params: xi)
    sched = ControlSchedule((ControlSegment(1, 1.0, 0.01), ControlSegment(2, 1.0, 0.01)))
    with pytest.raises(NumericalError):
        simulate(sched, ORIGIN, PARAMS, CFG)


def _model_calls(monkeypatch, run):
    """Connection evaluations made by run()."""
    calls = []
    original = sim.body_velocity_components

    def counting(*args):
        calls.append(None)
        return original(*args)

    with monkeypatch.context() as m:
        m.setattr(sim, "body_velocity_components", counting)
        run()
    return len(calls)


def test_a_segment_costs_one_call_at_its_start_and_two_per_step(monkeypatch):
    sched = ControlSchedule((ControlSegment(1, 0.5, 0.004),))   # 16 substeps, the floor
    assert _model_calls(monkeypatch, lambda: simulate(sched, ORIGIN, PARAMS, CFG)) == 33


def test_compiled_polygon_integrates_its_repeated_segments_once(monkeypatch):
    # criterion 08's 10-gon: 1,300 cycles and 4.59 M steps, of which only the
    # distinct segments are integrated (10,428 calls against 9.2 M)
    cfg = IntegratorConfig(h=2.5e-3, min_substeps=16)
    calib = calibrate(PARAMS, basis_specs(default_config()), cfg)
    plan = plan_polygon(0.2, 10)
    compiled = compile_maneuvers(plan.maneuvers, calib)
    q0 = Configuration(ShapePoint(0.0, 0.0), plan.start_pose)
    plain = ControlSchedule(compiled.schedule.segments)   # without the calibration's rows
    assert _model_calls(monkeypatch, lambda: simulate(plain, q0, PARAMS, cfg)) <= 20_000


def test_copies_read_body_frame_rows_across_chunks():
    # 40,000 rows: later cycles copy rows that lie chunks behind them
    sched = ControlSchedule(commutator_schedule(0.01).segments * 100)
    q0 = Configuration(ShapePoint(0.2, -0.1), GroupPose(0.5, 0.5, 3.0))
    traj = simulate(sched, q0, PARAMS, CFG)
    assert len(traj) > 2 * sim._CHUNK
    assert_matches_reference(traj, reference_simulate(sched, q0, MODEL, CFG))




def test_simulate_module_holds_no_state_between_calls():
    # rows that outlive a call live in a dict that a caller created and
    # passed; a module-level container (an OrderedDict is a dict) or package
    # object would be a cache
    held = [name for name, value in vars(sim).items()
            if not (name.startswith("__") and name.endswith("__"))
            and (isinstance(value, (dict, list, set))
                 or (not isinstance(value, type)
                     and type(value).__module__.split(".")[0] == "purcell"))]
    assert held == []


# The rows simulate keeps, in the dict a schedule carries (`rows`), filed
# under the call's parameters and integrator config.  Each test makes its own
# dict, so the order tests run in cannot change what is read, written or
# counted.

def assert_same_bits(traj, ref):
    assert traj.rows.dtype == ref.rows.dtype and traj.rows.shape == ref.rows.shape
    assert traj.rows.tobytes() == ref.rows.tobytes()


def _plain(schedule):
    """The same segments without kept rows."""
    return ControlSchedule(schedule.segments)


def assert_same_entries(kept, ref):
    """The same (parameters, config) keys and segment keys, and under each
    the same body-frame rows, start velocity and end state, bit for bit."""
    assert kept.keys() == ref.keys()
    for owner, table in kept.items():
        assert table.keys() == ref[owner].keys()
        for key, (rows, xi0, end) in table.items():
            ref_rows, ref_xi0, ref_end = ref[owner][key]
            assert rows.tobytes() == ref_rows.tobytes() and rows.shape == ref_rows.shape
            assert (xi0, end) == (ref_xi0, ref_end)


def _fresh_rows(blocks, q0, cfg):
    """New kept rows, filled by running each block from q0 under PARAMS and cfg."""
    kept = {}
    for block in blocks:
        simulate(ControlSchedule(block.segments, rows=kept), q0, PARAMS, cfg)
    return kept


def _plan_blocks(calib):
    """The gait blocks a plan runs: both plan gaits and their reversals."""
    gaits = [calib[d].schedule for d in ("x", "theta")]
    return gaits + [reverse_schedule(g) for g in gaits]


PLAN_CFG = IntegratorConfig(h=2.5e-3, min_substeps=16)


def _line_plans(calib, count, seed=5):
    """Line plans of three gait cycles from seeded start poses, as the plan
    benchmark draws them: one or two rotate cycles, the rest translation."""
    rng = np.random.default_rng(seed)
    quanta = (calib["theta"].per_cycle, calib["x"].per_cycle)
    plans = []
    for i in range(count):
        rotate = 1 + i % 2
        rotation, distance = ((c + rng.uniform(-0.4, 0.4)) * abs(q) * rng.choice((-1.0, 1.0))
                              for c, q in ((rotate, quanta[0]), (3 - rotate, quanta[1])))
        start = GroupPose(*rng.uniform(-1.0, 1.0, 2), rng.uniform(-_PI, _PI))
        bearing = start.theta + rotation + (0.0 if distance > 0 else _PI)
        target = (start.x + abs(distance) * math.cos(bearing),
                  start.y + abs(distance) * math.sin(bearing))
        compiled = compile_maneuvers(plan_line(start, target), calib)
        plans.append((compiled, Configuration(ShapePoint(0.0, 0.0), start)))
    return plans


def test_warm_and_cold_runs_are_bitwise_equal_on_line_plans(monkeypatch):
    # warm runs integrate only the reversals not yet kept
    specs = basis_specs(default_config())
    calib = calibrate(PARAMS, {d: specs[d] for d in ("x", "theta")}, PLAN_CFG)
    warm_calls = cold_calls = 0
    for compiled, q0 in _line_plans(calib, 8):
        sched = compiled.schedule
        assert sched.rows is calib.rows
        runs = []
        warm_calls += _model_calls(monkeypatch, lambda: runs.append(
            simulate(sched, q0, PARAMS, PLAN_CFG)))
        cold_calls += _model_calls(monkeypatch, lambda: runs.append(
            simulate(_plain(sched), q0, PARAMS, PLAN_CFG)))
        assert_same_bits(*runs)
    assert warm_calls < cold_calls


def test_line_plans_grow_the_table_by_their_gaits_reversals_only(monkeypatch):
    # the plan benchmark's traffic: once every gait and reversal has run, a
    # further pass over the same plans integrates and adds nothing
    specs = basis_specs(default_config())
    calib = calibrate(PARAMS, {d: specs[d] for d in ("x", "theta")}, PLAN_CFG)

    def run_plans():
        for compiled, q0 in _line_plans(calib, 8):
            simulate(compiled.schedule, q0, PARAMS, PLAN_CFG)

    plans = _line_plans(calib, 8)
    assert {(span.maneuver.kind, span.cycles < 0) for compiled, _ in plans
            for span in compiled.spans} == {(kind, sign) for kind in ("rotate", "translate")
                                            for sign in (False, True)}
    assert _model_calls(monkeypatch, run_plans) > 0
    grown = len(calib.rows[(PARAMS, PLAN_CFG)])
    assert _model_calls(monkeypatch, run_plans) == 0
    assert len(calib.rows[(PARAMS, PLAN_CFG)]) == grown
    assert_same_entries(calib.rows, _fresh_rows(_plan_blocks(calib), STRAIGHT, PLAN_CFG))


def _rows_digest(traj):
    return traj.rows.dtype, traj.rows.shape, hashlib.sha256(traj.rows).hexdigest()


def test_warm_and_cold_runs_are_bitwise_equal_on_the_10_gon(monkeypatch):
    # criterion 08's plan at a coarser step: 1.15 M rows a run, compared by digest
    cfg = IntegratorConfig(h=1e-2, min_substeps=16)
    calib = calibrate(PARAMS, basis_specs(default_config()), cfg)
    plan = plan_polygon(0.2, 10)
    compiled = compile_maneuvers(plan.maneuvers, calib)
    q0 = Configuration(ShapePoint(0.0, 0.0), plan.start_pose)
    cold = []
    cold_calls = _model_calls(monkeypatch, lambda: cold.append(
        _rows_digest(simulate(_plain(compiled.schedule), q0, PARAMS, cfg))))
    # the first warm run adds the reversed gaits the polygon runs; the second copies all
    warm = []
    calls = [_model_calls(monkeypatch, lambda: warm.append(
        _rows_digest(simulate(compiled.schedule, q0, PARAMS, cfg)))) for _ in range(2)]
    assert calls[0] < cold_calls and calls[1] == 0
    assert warm == cold * 2


def test_compiling_integrates_nothing_and_the_first_simulate_adds_reversals(monkeypatch):
    cfg = IntegratorConfig(h=5e-3, min_substeps=16)
    specs = basis_specs(default_config())
    calib = calibrate(PARAMS, {d: specs[d] for d in ("x", "theta")}, cfg)
    maneuvers = plan_line(GroupPose(0.0, 0.0, 0.0), (0.01, -0.004))
    plans = []
    assert _model_calls(monkeypatch, lambda: plans.append(
        compile_maneuvers(maneuvers, calib))) == 0
    assert [span.cycles < 0 for span in plans[0].spans] == [True, True]
    cold = simulate(_plain(plans[0].schedule), ORIGIN, PARAMS, cfg)
    for integrates in (True, False):
        warm = []
        calls = _model_calls(monkeypatch, lambda: warm.append(
            simulate(plans[0].schedule, ORIGIN, PARAMS, cfg)))
        assert (calls > 0) == integrates
        assert_same_bits(warm[0], cold)


def test_step_counts_and_parameters_never_share_kept_rows(monkeypatch):
    # rows are read and written only under their own parameters and
    # integrator config, even where another config gives the same step
    # counts; another swimmer's or config's rows are kept apart
    sched = ControlSchedule(commutator_schedule(0.01).segments * 2)
    cfg0 = IntegratorConfig(h=1.0, min_substeps=16)
    kept = {}
    carried = ControlSchedule(sched.segments, rows=kept)
    simulate(carried, ORIGIN, PARAMS, cfg0)
    table = kept[(PARAMS, cfg0)]
    held = dict(table)
    assert held
    others = ((PARAMS, IntegratorConfig(h=1.0, min_substeps=17)),
              (PARAMS, IntegratorConfig(h=2.0, min_substeps=16)),
              (derive_drag_coefficients(SwimmerParams(L=0.06)), cfg0))
    for params, cfg in others:
        cold = []
        cold_calls = _model_calls(monkeypatch, lambda: cold.append(
            simulate(sched, ORIGIN, params, cfg)))
        for calls in (cold_calls, 0):   # integrated once, then copied
            warm = []
            assert _model_calls(monkeypatch, lambda: warm.append(
                simulate(carried, ORIGIN, params, cfg))) == calls
            assert_same_bits(warm[0], cold[0])
        assert cold_calls > 0
    assert _model_calls(monkeypatch, lambda: simulate(carried, ORIGIN, PARAMS, cfg0)) == 0
    assert list(kept) == [(PARAMS, cfg0), *others]
    assert kept[(PARAMS, cfg0)] is table and table.keys() == held.keys()
    assert all(table[key] is entry for key, entry in held.items())


def test_a_schedule_that_never_repeats_a_segment_adds_each_one_once():
    # a schedule from any start shape adds its own distinct segments; the
    # output is that of a run without kept rows
    kept = _fresh_rows([commutator_schedule(0.01)], ORIGIN, CFG)
    rng = np.random.default_rng(3)
    schedules = []
    for _ in range(5):
        segs = tuple(ControlSegment(int(rng.integers(1, 3)), float(rng.uniform(-2.0, 2.0)),
                                    float(rng.uniform(0.01, 0.05))) for _ in range(20))
        schedules.append(ControlSchedule(segs))
        traj = simulate(ControlSchedule(segs, rows=kept), ORIGIN, PARAMS, CFG)
        assert_same_bits(traj, simulate(ControlSchedule(segs), ORIGIN, PARAMS, CFG))
    assert len(kept[(PARAMS, CFG)]) == 4 + 5 * 20
    assert_same_entries(kept, _fresh_rows(
        [commutator_schedule(0.01)] + schedules, ORIGIN, CFG))


def test_signed_zero_starts_never_share_table_rows(monkeypatch):
    # a zero rate keeps a -0.0 start's sign, so its first rows differ in bits
    # from those of a 0.0 start; an int start keys as its float and
    # integrates to the same bits, so it may read the float start's rows
    block = ControlSchedule((ControlSegment(1, -0.0, 0.01), ControlSegment(2, 0.5, 0.01),
                             ControlSegment(2, -0.5, 0.01)))
    pose = GroupPose(0.3, -0.2, 1.0)
    kept = _fresh_rows([block], Configuration(ShapePoint(0.0, 0.0), pose), CFG)
    assert len(kept[(PARAMS, CFG)]) == 3
    sched = ControlSchedule(block.segments * 3, rows=kept)
    # segments of 16 steps, 33 calls each, are integrated until a start is 0.0
    # (-0.0 + -0.0 is -0.0, -0.0 + 0.0 is 0.0) and each adds its own entry;
    # the later cycles are copied, and a second run integrates nothing
    starts = ((ShapePoint(-0.0, 0.0), 2), (ShapePoint(0.0, -0.0), 1), (ShapePoint(0, 0), 0))
    for shape, integrated in starts + tuple((shape, 0) for shape, _ in starts):
        q0 = Configuration(shape, pose)
        runs = []
        assert _model_calls(monkeypatch, lambda: runs.append(
            simulate(sched, q0, PARAMS, CFG))) == 33 * integrated
        assert_same_bits(runs[0], simulate(_plain(sched), q0, PARAMS, CFG))
    assert len(kept[(PARAMS, CFG)]) == 3 + 2 + 1


def test_calibration_keeps_the_rows_of_its_gaits_and_their_reversals(monkeypatch):
    cfg = IntegratorConfig(h=5e-3, min_substeps=16)
    specs = basis_specs(default_config())
    calib = calibrate(PARAMS, {d: specs[d] for d in ("x", "theta")}, cfg)
    rows = calib.rows
    assert list(rows) == [(PARAMS, cfg)]
    # the kept rows are those that integrating each gait writes
    gaits = [calib[d].schedule for d in ("x", "theta")]
    assert_same_entries(rows, _fresh_rows(gaits, STRAIGHT, cfg))
    compiled = compile_maneuvers(plan_line(GroupPose(0.0, 0.0, 0.0), (0.01, -0.004)), calib)
    assert_same_entries(rows, _fresh_rows(gaits, STRAIGHT, cfg))
    simulate(compiled.schedule, STRAIGHT, PARAMS, cfg)
    assert_same_entries(rows, _fresh_rows(_plan_blocks(calib), STRAIGHT, cfg))
