"""Numerical Lie-algebra tools for vector fields on the swimmer's configuration space.

A vector field is any callable Configuration -> 5-vector whose entries are
(joint rates, body velocity).  Because the group slots hold body-frame
components, the honest Lie bracket is the finite-difference part
DY.X - DX.Y plus the se(2) commutator of the two group parts; without that
term the square-gait limit tests come out one order too low.
"""

import math
import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError
from .model import Configuration, ShapePoint, SwimmerParams, connection, validate_params
from .se2 import DIRECTIONS, GroupPose, se2_commutator, wrap_angle

VectorFieldHandle = Callable[[Configuration], np.ndarray]

DEFAULT_STEP = 1e-5   # also the inner step of the commutator probe's [g1,g2]
# Steps for nested brackets.  The outer central difference is taken of the
# inner bracket, so its O(OUTER_STEP**2) truncation error lands on the two
# nested-bracket columns: at 1e-2 it pulled the unit-free sigma5/sigma1 to
# 4.6e-8 at the rank-5 shape (-1.3436, -0.7912) under default parameters,
# and the physical one to 2.5e-9, below DEFAULT_RANK_TOL.  At 1e-3 the
# unit-free ratio there reads 7.181e-6, and 7.258e-6 and 7.265e-6 with inner
# steps of 3e-4 and 1e-4: the inner evaluation's noise does not yet show.
INNER_STEP = 1e-3
OUTER_STEP = 1e-3

DEFAULT_RANK_TOL = 1e-8


class BracketCoefficients(NamedTuple):
    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class ControllabilityReport:
    basis: np.ndarray            # 5x5, columns g1, g2, [g1,g2], [g1,[g1,g2]], [g2,[g1,g2]]
    singular_values: np.ndarray  # of the unit-free basis, nonincreasing
    rank: int


def _lengths(params: SwimmerParams) -> np.ndarray:
    """Each basis row's unit of length, as a column: L on the x and y rates,
    1 on the shape and heading rates.  Divided by it, the basis is unit-free,
    so a rank or span verdict does not depend on the swimmer's size."""
    return np.array([[1.0], [1.0], [params.L], [params.L], [1.0]])


def jacobian(X: VectorFieldHandle, q: Configuration, h: float = DEFAULT_STEP) -> np.ndarray:
    """Central-difference Jacobian of a field, column per coordinate.

    The field is evaluated at q + h and q - h along each coordinate, into one
    array of ten values.  Shape coordinates and the heading are perturbed on
    the circle.  A field whose value holds several 5-vectors as rows, such as
    g1 and g2 as one field, gets one Jacobian per row: a (2, 5, 5) array for
    two, each equal to that row's own Jacobian bit for bit.  J is returned
    C-ordered, because J @ x of a Fortran-ordered J can differ in its last
    bits.
    """
    if not 0 < h < math.inf:
        raise ValidationError(f"finite-difference step must be positive and finite, got {h}")
    shape, pose = q.shape, q.pose
    (a1, a2), (x, y, th) = shape, pose
    v = np.array([X(c) for c in (
        Configuration(ShapePoint(wrap_angle(a1 + h), a2), pose),
        Configuration(ShapePoint(wrap_angle(a1 - h), a2), pose),
        Configuration(ShapePoint(a1, wrap_angle(a2 + h)), pose),
        Configuration(ShapePoint(a1, wrap_angle(a2 - h)), pose),
        Configuration(shape, GroupPose(x + h, y, th)),
        Configuration(shape, GroupPose(x - h, y, th)),
        Configuration(shape, GroupPose(x, y + h, th)),
        Configuration(shape, GroupPose(x, y - h, th)),
        Configuration(shape, GroupPose(x, y, wrap_angle(th + h))),
        Configuration(shape, GroupPose(x, y, wrap_angle(th - h))))], dtype=float)
    return np.ascontiguousarray(np.moveaxis((v[0::2] - v[1::2]) / (2.0 * h), 0, -1))


def _bracket(x_val: np.ndarray, y_val: np.ndarray, jx: np.ndarray, jy: np.ndarray) -> np.ndarray:
    """[X, Y] at a point from the values and Jacobians of X and Y there."""
    out = jy @ x_val - jx @ y_val
    out[2:] += se2_commutator(x_val[2:].tolist(), y_val[2:].tolist())
    return out


def bracket_basis(p: Configuration, params: SwimmerParams,
                  h_inner: float = INNER_STEP, h_outer: float = OUTER_STEP) -> np.ndarray:
    """Columns g1, g2, [g1,g2], [g1,[g1,g2]], [g2,[g1,g2]] evaluated at p:
    the package's one route to the control fields and their brackets.

    g1 and g2 are evaluated together, as the rows of one field: one solve of
    the connection gives both (model.connection), and one Jacobian of that
    field gives both of theirs.  An outer bracket [g_i, z], z = [g1,g2],
    leaves out Dg_i . z: z's shape rows and g_i's pose columns are exactly
    0.0, so that term is signed zeros.  A basis takes 232 solves, 110 of
    them for each outer bracket's own Jacobian of z.
    """
    validate_params(params)

    def g(q: Configuration) -> np.ndarray:   # rows g1(q) and g2(q)
        c1, c2 = connection(q.shape[0], q.shape[1], params)
        return np.array([[1.0, 0.0, *c1], [0.0, 1.0, *c2]])

    def z(q: Configuration) -> np.ndarray:   # [g1, g2] as a field, recomputed pointwise
        (g1, g2), (j1, j2) = g(q), jacobian(g, q, h_inner)
        return _bracket(g1, g2, j1, j2)

    def outer(gi: np.ndarray) -> np.ndarray:   # [g_i, z] at p
        out = jacobian(z, p, h_outer) @ gi
        out[2:] += se2_commutator(gi[2:].tolist(), z_p[2:].tolist())
        return out

    (g1, g2), z_p = g(p), z(p)
    return np.column_stack([g1, g2, z_p, outer(g1), outer(g2)])


def controllability_report(p: Configuration, params: SwimmerParams,
                           tol: float = DEFAULT_RANK_TOL,
                           h_inner: float = INNER_STEP,
                           h_outer: float = OUTER_STEP) -> ControllabilityReport:
    """Rank of the bracket-generated distribution at p.

    The singular values are those of the unit-free basis, its x and y rows
    divided by L; `basis` itself stays in physical units.  rank counts
    singular values above tol * sigma_max, so a tol of 1 or more would read
    rank 0 everywhere.
    """
    if not 0 < tol < 1:
        raise ValidationError(f"rank tolerance must be between 0 and 1, got {tol}")
    basis = bracket_basis(p, params, h_inner, h_outer)
    sigma = np.linalg.svd(basis / _lengths(params), compute_uv=False)
    rank = int(np.sum(sigma > tol * sigma[0]))
    return ControllabilityReport(basis=basis, singular_values=sigma, rank=rank)


# (exact-bits key, checked 3x3 bracket block) of the last point solved, read
# and replaced as one tuple, so no caller pairs a key with another point's
# block.  A -0.0 shape keys apart from 0.0, as in simulate's segment keys.
_last_block = (b"", None)


def solve_bracket_coefficients(direction: str, p: Configuration, params: SwimmerParams,
                               h_inner: float = INNER_STEP,
                               h_outer: float = OUTER_STEP) -> BracketCoefficients:
    """Weights (alpha, beta, gamma) on ([g1,g2], [g1,[g1,g2]], [g2,[g1,g2]])
    whose group parts combine to the unit x, y or theta body direction at p.

    The three directions at one point share one bracket basis: the block of
    the last point solved is kept as one entry under an exact-bits key of
    the point, the parameters and both steps, so asking for x, y and theta
    there in a row builds and checks the basis once.  A refused point keeps
    nothing.
    """
    global _last_block
    if direction not in DIRECTIONS:
        raise ValidationError(f"direction must be x, y or theta, got {direction!r}")
    validate_params(params)   # so an unset k is refused here, not by struct
    key = struct.pack("<12d", *p.shape, *p.pose, *params, h_inner, h_outer)
    last_key, B = _last_block
    if key != last_key:
        B = bracket_basis(p, params, h_inner, h_outer)[2:, 2:]
        sigma = np.linalg.svd(B / _lengths(params)[2:], compute_uv=False)
        if sigma[0] == 0 or sigma[-1] < 1e-10 * sigma[0]:
            raise NumericalError(
                f"bracket group parts fail to span the group directions at shape {tuple(p.shape)}")
        _last_block = (key, B)
    rhs = np.zeros(3)
    rhs[DIRECTIONS.index(direction)] = 1.0
    sol = np.linalg.solve(B, rhs)
    return BracketCoefficients(float(sol[0]), float(sol[1]), float(sol[2]))
