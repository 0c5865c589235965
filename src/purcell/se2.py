"""Planar rigid-body group operations.

Poses are (x, y, theta) triples with theta kept in (-pi, pi]; body velocities
are (xi_x, xi_y, xi_theta) expressed in the moving frame.  Everything here is
a pure function of immutable values.
"""

import math
from typing import NamedTuple

TWO_PI = 2.0 * math.pi


class GroupPose(NamedTuple):
    x: float
    y: float
    theta: float


class BodyVelocity(NamedTuple):
    xi_x: float
    xi_y: float
    xi_theta: float


IDENTITY = GroupPose(0.0, 0.0, 0.0)
# The group directions, named as GroupPose's fields and in their order: a
# direction's index is its component of a pose, a delta or a body velocity.
DIRECTIONS = GroupPose._fields


def wrap_angle(a: float) -> float:
    """Normalize an angle into (-pi, pi]; exact no-op when already inside."""
    if -math.pi < a <= math.pi:
        return a
    r = math.fmod(a + math.pi, TWO_PI)
    if r <= 0.0:
        r += TWO_PI
    return r - math.pi


def compose(a: GroupPose, b: GroupPose) -> GroupPose:
    """Pose of frame b expressed through frame a (the SE(2) product a*b)."""
    c, s = math.cos(a.theta), math.sin(a.theta)
    return GroupPose(
        a.x + c * b.x - s * b.y,
        a.y + s * b.x + c * b.y,
        wrap_angle(a.theta + b.theta),
    )


def inverse(g: GroupPose) -> GroupPose:
    c, s = math.cos(g.theta), math.sin(g.theta)
    return GroupPose(
        -(c * g.x + s * g.y),
        -(-s * g.x + c * g.y),
        wrap_angle(-g.theta),
    )


def se2_commutator(a, b) -> tuple[float, float, float]:
    """Algebra commutator [a, b] of two body-velocity triples."""
    ax, ay, aw = a
    bx, by, bw = b
    return (-aw * by + bw * ay, aw * bx - bw * ax, 0.0)


def torus_distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Euclidean distance between two points on the 2-torus of joint angles."""
    d1 = wrap_angle(a[0] - b[0])
    d2 = wrap_angle(a[1] - b[1])
    return math.hypot(d1, d2)
