"""Resistive-force model of the 3-link planar swimmer.

Each link is a slender rod of length 2L and radius b.  Drag per unit length
is -k_long * v_long along the rod and -k_lat * v_lat across it.  Summing and
balancing the total wrench (force plus torque about the base-link midpoint)
for a massless swimmer gives a purely kinematic law

    xi = -A(alpha1, alpha2) * (alpha1_dot, alpha2_dot)

where A is the 3x2 local connection and xi the base-link body velocity.

Frame convention (fixed; every symmetry statement in the tests depends on it):
the base frame sits at the middle link's midpoint with x along the link.
Joints are at (-L, 0) and (+L, 0).  The left link's frame is rotated by
+alpha1 from the base x-axis and its midpoint sits L behind the joint along
that direction; the right link mirrors this with frame angle -alpha2 and its
midpoint L ahead of its joint.  At alpha1 = alpha2 the two outer links are
mirror images across the base y-axis.
"""

import math
from typing import NamedTuple

from .errors import NumericalError, ValidationError
from .se2 import BodyVelocity, GroupPose

# Bound on the condition of the length-scaled drag matrix; beyond it the
# model is treated as pathological.
COND_LIMIT = 1e12

_FOUR_THIRDS = 4.0 / 3.0

# Reference force readings from a CFD calibration of one link (normal and
# tangential drag at an unreported flow speed); kept as an alternative
# provenance for the per-unit-length coefficients.
CFD_NORMAL_FORCE = 0.005922
CFD_TANGENTIAL_FORCE = 0.0001013


class SwimmerParams(NamedTuple):
    """Geometry, fluid, and drag coefficients. k fields may start unset (None)."""

    L: float = 0.05          # link half-length (m)
    b: float = 0.005         # link radius (m)
    mu: float = 0.950        # fluid viscosity (Pa s)
    k_long: float = None     # longitudinal drag per unit length (N s/m^2)
    k_lat: float = None      # lateral drag per unit length (N s/m^2)


class ShapePoint(NamedTuple):
    alpha1: float
    alpha2: float


class ShapeVelocity(NamedTuple):
    alpha1_dot: float
    alpha2_dot: float


class Configuration(NamedTuple):
    shape: ShapePoint
    pose: GroupPose


def validate_params(params: SwimmerParams, need_k: bool = True) -> None:
    if not (0 < params.L < math.inf and 0 < params.b < math.inf and 0 < params.mu < math.inf):
        raise ValidationError("L, b, mu must all be positive and finite")
    if params.b >= params.L:
        raise ValidationError(
            f"slenderness violated: need b < L, got b={params.b}, L={params.L}")
    if need_k:
        if params.k_long is None or params.k_lat is None:
            raise ValidationError("drag coefficients unset; derive or supply them")
        if not (math.inf > params.k_lat > params.k_long > 0):
            raise ValidationError("need k_lat > k_long > 0, both finite")


def derive_drag_coefficients(params: SwimmerParams) -> SwimmerParams:
    """Fill k_long, k_lat from the slender-body formulas.

    Total drag on a rod of length l = 2L moving uniformly is
    2*pi*mu*l*v / ln(l/b) longitudinally and twice that laterally; dividing by
    the length gives constant per-unit-length coefficients, so
    k_lat / k_long == 2 exactly.
    """
    validate_params(params, need_k=False)
    # validate_params holds 0 < b < L, so the log is at least log 2
    k_long = 2.0 * math.pi * params.mu / math.log(2.0 * params.L / params.b)
    return params._replace(k_long=k_long, k_lat=2.0 * k_long)


def cfd_drag_coefficients(params: SwimmerParams, flow_speed: float) -> SwimmerParams:
    """Fill k_long, k_lat from the CFD force readings instead.

    The readings are total forces on one link at `flow_speed`, so
    k = F / (v * 2L).  The calibration speed is not part of the readings and
    must be supplied by the caller.
    """
    validate_params(params, need_k=False)
    span = 2.0 * params.L
    try:
        k_long = CFD_TANGENTIAL_FORCE / (flow_speed * span)
        k_lat = CFD_NORMAL_FORCE / (flow_speed * span)
    except ZeroDivisionError:   # a zero speed, or one so small the product underflows
        k_long = k_lat = math.inf
    if not (0 < k_long < math.inf and 0 < k_lat < math.inf):
        raise ValidationError("CFD coefficient provenance needs a flow speed that gives "
                              f"finite, positive coefficients, got {flow_speed}")
    return params._replace(k_long=k_long, k_lat=k_lat)


def default_params() -> SwimmerParams:
    return derive_drag_coefficients(SwimmerParams())


def _solve(a1: float, a2: float, params: SwimmerParams):
    """The drag balance at a shape, in closed form, scaled and solved.

    Returns (j00, j01, j02, j11, j12, j22, det, c1, s1, c2, s2): the
    adjugate and determinant of the symmetric positive-definite N with

        omega1 = -2 k_lat L diag(1, 1, L) N diag(1, 1, L)

    and the joint-angle cosines and sines, from which

        omega2 = 2 k_lat L^2 diag(1, 1, L) [[-s1, s2], [c1, c2], [-4/3 - c1, 4/3 + c2]].

    The drag integrands are quadratic in arclength rho, so each link needs
    only the moments of 1, rho and rho^2 over [off - L, off + L]: 2L, 2L off
    and 2L (off^2 + L^2 / 3), with off = -L, 0, L for the left, base and
    right link.  Per unit length a link's point velocity per unit joint rate
    is spin * rho * (-s, c), which the lateral drag alone resists.  N depends
    on the shape and on d = k_long / k_lat - 1 only; sin and cos are taken
    once and the rest is arithmetic.

    Raises NumericalError when the Frobenius condition bound
    |N|_F |adj N|_F / |det N| reaches COND_LIMIT.  N is omega1 with lengths
    in units of L, so the bound is the same for a micro-swimmer as for a
    5 cm one.
    """
    c1, s1 = math.cos(a1), math.sin(a1)
    c2, s2 = math.cos(a2), math.sin(a2)
    d = params.k_long / params.k_lat - 1.0
    sq = s1 * s1 + s2 * s2
    n00 = 3.0 + d * (3.0 - sq)
    n01 = d * (c1 * s1 - c2 * s2)
    n02 = s1 + s2 - d * (c1 * s1 + c2 * s2)
    n11 = 3.0 + d * sq
    n12 = c2 - c1 + d * (s2 * s2 - s1 * s1)
    n22 = 5.0 + 2.0 * (c1 + c2) + d * sq
    j00 = n11 * n22 - n12 * n12
    j01 = n02 * n12 - n01 * n22
    j02 = n01 * n12 - n02 * n11
    j11 = n00 * n22 - n02 * n02
    j12 = n01 * n02 - n00 * n12
    j22 = n00 * n11 - n01 * n01
    det = n00 * j00 + n01 * j01 + n02 * j02
    norm2 = n00 * n00 + n11 * n11 + n22 * n22 + 2.0 * (n01 * n01 + n02 * n02 + n12 * n12)
    adj2 = j00 * j00 + j11 * j11 + j22 * j22 + 2.0 * (j01 * j01 + j02 * j02 + j12 * j12)
    if not norm2 * adj2 < (COND_LIMIT * det) ** 2:  # also catches det == 0 and NaN
        cond = math.sqrt(norm2 * adj2) / abs(det) if det else math.inf
        raise NumericalError(
            f"drag matrix ill-conditioned at shape ({a1:.6g}, {a2:.6g}): cond={cond:.3e}")
    return j00, j01, j02, j11, j12, j22, det, c1, s1, c2, s2


def body_velocity_components(a1, a2, u1, u2, params) -> tuple[float, float, float]:
    """Body velocity (xi_x, xi_y, xi_theta) for joint rates (u1, u2).

    The connection kernel: with N and the joint columns J of _solve,
    solves N z = J (u1, u2) by the adjugate and returns (L z0, L z1, z2).
    Raises _solve's NumericalError.
    """
    j00, j01, j02, j11, j12, j22, det, c1, s1, c2, s2 = _solve(a1, a2, params)
    r0 = s2 * u2 - s1 * u1
    r1 = c1 * u1 + c2 * u2
    r2 = (_FOUR_THIRDS + c2) * u2 - (_FOUR_THIRDS + c1) * u1
    scale = params.L / det
    return ((j00 * r0 + j01 * r1 + j02 * r2) * scale,
            (j01 * r0 + j11 * r1 + j12 * r2) * scale,
            (j02 * r0 + j12 * r1 + j22 * r2) / det)


def connection(a1, a2, params) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Both columns of the local connection at a shape, from one solve.

    Returns the body velocities of the unit joint rates (1, 0) and (0, 1),
    each the tuple body_velocity_components gives at those rates, bit for
    bit: the same products of the same solve.  The rate algebra is written
    out again here rather than shared through a call, because
    body_velocity_components is the integrator's inner loop.
    """
    j00, j01, j02, j11, j12, j22, det, c1, s1, c2, s2 = _solve(a1, a2, params)
    scale = params.L / det
    columns = []
    for u1, u2 in ((1.0, 0.0), (0.0, 1.0)):
        r0 = s2 * u2 - s1 * u1
        r1 = c1 * u1 + c2 * u2
        r2 = (_FOUR_THIRDS + c2) * u2 - (_FOUR_THIRDS + c1) * u1
        columns.append(((j00 * r0 + j01 * r1 + j02 * r2) * scale,
                        (j01 * r0 + j11 * r1 + j12 * r2) * scale,
                        (j02 * r0 + j12 * r1 + j22 * r2) / det))
    return tuple(columns)


def body_velocity(shape: ShapePoint, sdot: ShapeVelocity, params: SwimmerParams) -> BodyVelocity:
    """xi = -A(shape) * sdot."""
    validate_params(params)
    xi = body_velocity_components(shape[0], shape[1], sdot[0], sdot[1], params)
    return BodyVelocity(*xi)
