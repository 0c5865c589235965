import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from purcell.errors import ValidationError
from purcell.gaits import (ControlSchedule, ControlSegment, GaitSpec,
                           commutator_schedule, reverse_schedule, synthesize)
from purcell.lie import lie_bracket
from purcell.model import Configuration, ShapePoint, default_params, swimmer_fields
from purcell.se2 import GroupPose, compose, inverse, wrap_angle
from purcell.simulate import (IntegratorConfig, convergence_probe, fit_loglog_slope,
                              net_displacement, simulate, simulate_velocity_model,
                              swimmer_velocity_model)

PARAMS = default_params()
ORIGIN = Configuration(ShapePoint(0.0, 0.0), GroupPose(0.0, 0.0, 0.0))
CFG = IntegratorConfig(h=1e-3, min_substeps=16)


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
    sched = commutator_schedule(1, 2, 0.09)
    traj = simulate(sched, ORIGIN, PARAMS, CFG)
    assert np.all(np.diff(traj.t) > 0)
    assert np.all(np.diff(traj.segment) >= 0)


def test_square_gait_matches_bracket_and_euler_oracle():
    eps = 0.1
    sched = commutator_schedule(1, 2, eps * eps)
    traj = simulate(sched, ORIGIN, PARAMS, CFG)
    delta = net_displacement(traj).delta
    got = np.array([delta.x, delta.y, delta.theta])

    g1, g2 = swimmer_fields(PARAMS)
    ref = eps * eps * lie_bracket(g1, g2, ORIGIN)[2:]
    assert np.linalg.norm(got - ref) < 5.0 * eps ** 3

    # independent fixed-step Euler at 10x finer step
    model = swimmer_velocity_model(PARAMS)
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
        sched = commutator_schedule(1, 2, eps * eps)
        d = net_displacement(simulate(sched, ORIGIN, PARAMS, CFG)).delta
        assert abs(d.y) < 0.15 * abs(d.x)
        ratios.append(abs(d.theta) / abs(d.x))
    assert ratios[1] < 0.15
    assert ratios[1] < 0.5 * ratios[0]


def test_group_equivariance():
    sched = commutator_schedule(1, 2, 0.25)
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


def test_commuting_pair_square_cancels():
    # two constant commuting fields: the square gait nets to zero exactly
    def model(a1, a2, u1, u2):
        return (0.3 * u1, 0.2 * u2, 0.0)

    errors = []
    for eps in (0.2, 0.1, 0.05):
        sched = commutator_schedule(1, 2, eps * eps)
        traj = simulate_velocity_model(sched, ORIGIN, model, CFG)
        d = net_displacement(traj).delta
        errors.append(math.hypot(d.x, d.y) + abs(d.theta))
    assert max(errors) < 1e-10


def test_convergence_probe_on_square_gait():
    g1, g2 = swimmer_fields(PARAMS)
    ref = lie_bracket(g1, g2, ORIGIN)
    rep = convergence_probe(lambda e: commutator_schedule(1, 2, e * e),
                            [0.2, 0.1, 0.05], ref, ORIGIN,
                            swimmer_velocity_model(PARAMS), CFG)
    assert rep.slope >= 2.7
    assert rep.monotone


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


def test_net_displacement_requires_samples():
    sched = ControlSchedule((ControlSegment(2, -1.0, 0.5),))
    traj = simulate(sched, ORIGIN, PARAMS, CFG)
    nd = net_displacement(traj)
    assert nd.delta.theta != 0.0
    # displacement is reported in the initial body frame
    manual = compose(inverse(traj.initial_pose), traj.final_pose)
    assert nd.delta == pytest.approx(tuple(manual))
