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
from .model import Configuration, ShapePoint, SwimmerParams, swimmer_fields, validate_params
from .se2 import GroupPose, se2_commutator, wrap_angle

VectorFieldHandle = Callable[[Configuration], np.ndarray]

DEFAULT_STEP = 1e-5
# Steps for nested brackets.  The outer central difference is taken of the
# inner bracket, so its O(OUTER_STEP**2) truncation error lands on the two
# nested-bracket columns: at 1e-2 it pulled sigma5/sigma1 to 2.5e-9, below
# DEFAULT_RANK_TOL, at the rank-5 shape (-1.3436, -0.7912) under default
# parameters.  At 1e-3 the ratio there reads 3.904e-7, and 3.946e-7 and
# 3.950e-7 with inner steps of 3e-4 and 1e-4: the inner evaluation's noise
# does not yet show.
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
    singular_values: np.ndarray  # nonincreasing
    rank: int


def _perturbed(q: Configuration, coord: int, delta: float) -> Configuration:
    a1, a2 = q.shape
    x, y, th = q.pose
    if coord == 0:
        return Configuration(ShapePoint(wrap_angle(a1 + delta), a2), q.pose)
    if coord == 1:
        return Configuration(ShapePoint(a1, wrap_angle(a2 + delta)), q.pose)
    if coord == 2:
        return Configuration(q.shape, GroupPose(x + delta, y, th))
    if coord == 3:
        return Configuration(q.shape, GroupPose(x, y + delta, th))
    return Configuration(q.shape, GroupPose(x, y, wrap_angle(th + delta)))


def jacobian(X: VectorFieldHandle, q: Configuration, h: float = DEFAULT_STEP) -> np.ndarray:
    """Central-difference Jacobian of a field, column per coordinate.

    Shape coordinates are perturbed on the torus.
    """
    if not 0 < h < math.inf:
        raise ValidationError(f"finite-difference step must be positive and finite, got {h}")
    cols = []
    for j in range(5):
        plus = np.asarray(X(_perturbed(q, j, h)), dtype=float)
        minus = np.asarray(X(_perturbed(q, j, -h)), dtype=float)
        cols.append((plus - minus) / (2.0 * h))
    return np.column_stack(cols)


def lie_bracket(X: VectorFieldHandle, Y: VectorFieldHandle, q: Configuration,
                h: float = DEFAULT_STEP) -> np.ndarray:
    """[X, Y] at q, in the same (joint rates, body velocity) components."""
    x_val = np.asarray(X(q), dtype=float)
    y_val = np.asarray(Y(q), dtype=float)
    out = jacobian(Y, q, h) @ x_val - jacobian(X, q, h) @ y_val
    out[2:] += se2_commutator(tuple(x_val[2:]), tuple(y_val[2:]))
    return out


def bracket_basis(p: Configuration, params: SwimmerParams,
                  h_inner: float = INNER_STEP, h_outer: float = OUTER_STEP) -> np.ndarray:
    """Columns g1, g2, [g1,g2], [g1,[g1,g2]], [g2,[g1,g2]] evaluated at p."""
    g1, g2 = swimmer_fields(params)

    def z(q: Configuration) -> np.ndarray:   # [g1, g2] as a field, recomputed pointwise
        return lie_bracket(g1, g2, q, h_inner)

    cols = [
        g1(p),
        g2(p),
        lie_bracket(g1, g2, p, h_inner),
        lie_bracket(g1, z, p, h_outer),
        lie_bracket(g2, z, p, h_outer),
    ]
    return np.column_stack(cols)


def controllability_report(p: Configuration, params: SwimmerParams,
                           tol: float = DEFAULT_RANK_TOL,
                           h_inner: float = INNER_STEP,
                           h_outer: float = OUTER_STEP) -> ControllabilityReport:
    """Rank of the bracket-generated distribution at p.

    rank counts singular values above tol * sigma_max, so a tol of 1 or more
    would read rank 0 everywhere.
    """
    if not 0 < tol < 1:
        raise ValidationError(f"rank tolerance must be between 0 and 1, got {tol}")
    basis = bracket_basis(p, params, h_inner, h_outer)
    sigma = np.linalg.svd(basis, compute_uv=False)
    rank = int(np.sum(sigma > tol * sigma[0])) if sigma[0] > 0 else 0
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
    try:
        index = {"x": 0, "y": 1, "theta": 2}[direction]
    except KeyError:
        raise ValidationError(f"direction must be x, y or theta, got {direction!r}")
    validate_params(params)   # so an unset k is refused here, not by struct
    key = struct.pack("<12d", *p.shape, *p.pose, *params, h_inner, h_outer)
    last_key, B = _last_block
    if key != last_key:
        basis = bracket_basis(p, params, h_inner, h_outer)
        brackets = basis[:, 2:]
        shape_leak = np.max(np.abs(brackets[:2, :]))
        if shape_leak > 1e-8:
            raise NumericalError(
                f"bracket fields leak into shape rates ({shape_leak:.3e}); model is inconsistent")
        B = brackets[2:, :]
        sigma = np.linalg.svd(B, compute_uv=False)
        if sigma[0] == 0 or sigma[-1] < 1e-10 * sigma[0]:
            raise NumericalError(
                f"bracket group parts fail to span the group directions at shape {tuple(p.shape)}")
        _last_block = (key, B)
    rhs = np.zeros(3)
    rhs[index] = 1.0
    sol = np.linalg.solve(B, rhs)
    return BracketCoefficients(float(sol[0]), float(sol[1]), float(sol[2]))
