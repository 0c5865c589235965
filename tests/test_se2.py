import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from purcell.se2 import (IDENTITY, BodyVelocity, GroupPose, compose, exp_twist,
                         inverse, torus_distance, world_rate, wrap_angle)


def poses_close(a, b, tol=1e-12):
    return (abs(a.x - b.x) < tol and abs(a.y - b.y) < tol
            and abs(wrap_angle(a.theta - b.theta)) < tol)


def random_pose(rng):
    return GroupPose(rng.uniform(-5, 5), rng.uniform(-5, 5),
                     rng.uniform(-math.pi, math.pi))


def test_wrap_angle_interval():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.5) == pytest.approx(0.5)
    for a in np.linspace(-20, 20, 101):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert abs(math.sin(w - a)) < 1e-12


def test_compose_identity_and_inverse():
    g = GroupPose(0.3, -1.2, 0.8)
    assert poses_close(compose(IDENTITY, g), g)
    assert poses_close(compose(g, IDENTITY), g)
    assert poses_close(compose(g, inverse(g)), IDENTITY)
    assert poses_close(compose(inverse(g), g), IDENTITY)


def test_compose_hand_value():
    # rotation by pi/2 carries the second translation onto +y
    got = compose(GroupPose(1.0, 0.0, math.pi / 2), GroupPose(1.0, 0.0, 0.0))
    assert poses_close(got, GroupPose(1.0, 1.0, math.pi / 2), tol=1e-15)


def test_inverse_hand_values():
    assert poses_close(inverse(IDENTITY), IDENTITY)
    assert poses_close(inverse(GroupPose(1.0, 0.0, 0.0)), GroupPose(-1.0, 0.0, 0.0))
    assert poses_close(inverse(GroupPose(1.0, 1.0, math.pi / 2)),
                       GroupPose(-1.0, 1.0, -math.pi / 2), tol=1e-15)


POSES = st.builds(GroupPose, st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
                  st.floats(-math.pi, math.pi, exclude_min=True))


@given(POSES, POSES, POSES)
def test_group_axioms_randomized(a, b, c):
    # associativity and inverses to 1e-12 for |x|, |y| <= 5; the identity exactly
    assert poses_close(compose(compose(a, b), c), compose(a, compose(b, c)))
    assert poses_close(compose(a, inverse(a)), IDENTITY)
    assert poses_close(compose(inverse(a), a), IDENTITY)
    assert compose(IDENTITY, a) == a and compose(a, IDENTITY) == a


def test_exp_twist_straight_line():
    assert poses_close(exp_twist(BodyVelocity(1.0, 0.0, 0.0), 2.0),
                       GroupPose(2.0, 0.0, 0.0))
    assert poses_close(exp_twist(BodyVelocity(0.5, -0.25, 0.0), 4.0),
                       GroupPose(2.0, -1.0, 0.0))


def test_exp_twist_pure_rotation():
    got = exp_twist(BodyVelocity(0.0, 0.0, 0.7), 1.5)
    assert poses_close(got, GroupPose(0.0, 0.0, 1.05))


def _integrate_twist(xi, t, steps=200_000):
    # independent fine-step integration of g' = g * xi
    x = y = th = 0.0
    h = t / steps
    for _ in range(steps):
        cm, sm = math.cos(th + 0.5 * h * xi.xi_theta), math.sin(th + 0.5 * h * xi.xi_theta)
        x += h * (cm * xi.xi_x - sm * xi.xi_y)
        y += h * (sm * xi.xi_x + cm * xi.xi_y)
        th += h * xi.xi_theta
    return GroupPose(x, y, wrap_angle(th))


def test_exp_twist_arc_against_integration():
    xi = BodyVelocity(0.8, 0.0, 0.6)
    t = 2.0
    closed = exp_twist(xi, t)
    v, w = 0.8, 0.6
    expected = GroupPose(v / w * math.sin(w * t), v / w * (1 - math.cos(w * t)),
                         wrap_angle(w * t))
    assert poses_close(closed, expected, tol=1e-12)
    numeric = _integrate_twist(xi, t)
    assert poses_close(closed, numeric, tol=1e-8)


def test_exp_twist_series_fallback():
    xi_small = BodyVelocity(1.0, -0.5, 1e-9)
    near = exp_twist(xi_small, 1.0)
    straight = exp_twist(BodyVelocity(1.0, -0.5, 0.0), 1.0)
    assert poses_close(near, straight, tol=1e-8)
    # series branch agrees with the raw arc formula evaluated at the same twist
    w, t = 5e-7, 1.0
    series = exp_twist(BodyVelocity(1.0, 0.0, w), t)
    raw = GroupPose(math.sin(w * t) / w, (1 - math.cos(w * t)) / w, w * t)
    assert poses_close(series, raw, tol=1e-9)


def test_exp_twist_flow_property():
    rng = np.random.default_rng(3)
    for _ in range(100):
        xi = BodyVelocity(*rng.uniform(-2, 2, 3))
        t1, t2 = rng.uniform(0, 2, 2)
        whole = exp_twist(xi, t1 + t2)
        split = compose(exp_twist(xi, t1), exp_twist(xi, t2))
        assert poses_close(whole, split, tol=1e-10)


def test_world_rate_values():
    assert world_rate(IDENTITY, BodyVelocity(1, 2, 3)) == pytest.approx((1, 2, 3))
    assert world_rate(GroupPose(0, 0, math.pi / 2), BodyVelocity(1, 0, 0)) == \
        pytest.approx((0, 1, 0))
    got = world_rate(GroupPose(0, 0, math.pi / 4), BodyVelocity(1, 1, 0))
    assert got == pytest.approx((0.0, math.sqrt(2.0), 0.0))


def test_world_rate_is_flow_derivative():
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(20):
        g = random_pose(rng)
        xi = BodyVelocity(*rng.uniform(-2, 2, 3))
        plus = compose(g, exp_twist(xi, h))
        minus = compose(g, exp_twist(xi, -h))
        fd = ((plus.x - minus.x) / (2 * h), (plus.y - minus.y) / (2 * h),
              wrap_angle(plus.theta - minus.theta) / (2 * h))
        assert fd == pytest.approx(world_rate(g, xi), abs=1e-6)


def test_torus_distance_wraps():
    assert torus_distance((math.pi - 0.01, 0.0), (-math.pi + 0.01, 0.0)) == \
        pytest.approx(0.02, abs=1e-12)
    assert torus_distance((0.3, -0.2), (0.3, -0.2)) == 0.0
