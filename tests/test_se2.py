import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from purcell.se2 import IDENTITY, GroupPose, compose, inverse, torus_distance, wrap_angle


def poses_close(a, b, tol=1e-12):
    return (abs(a.x - b.x) < tol and abs(a.y - b.y) < tol
            and abs(wrap_angle(a.theta - b.theta)) < tol)


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


def test_torus_distance_wraps():
    assert torus_distance((math.pi - 0.01, 0.0), (-math.pi + 0.01, 0.0)) == \
        pytest.approx(0.02, abs=1e-12)
    assert torus_distance((0.0, math.pi - 0.01), (0.0, -math.pi + 0.01)) == \
        pytest.approx(0.02, abs=1e-12)
    assert torus_distance((0.3, -0.2), (0.3, -0.2)) == 0.0
