"""Hypothesis runs the same examples on every run and has no deadline, so
property tests neither change between runs nor flake on a loaded machine.

`trajectory_from_columns` is the tests' one way to build a trajectory from
separate columns (`from conftest import trajectory_from_columns`).

`swimmer_fields` and `lie_bracket` are the reference route to the control
fields and their brackets: each field evaluated alone, one connection
evaluation per call, and each bracket from its own two Jacobians.  The
package's one route, `lie.bracket_basis`, evaluates g1 and g2 as one field;
the tests hold it to these bit for bit."""

import numpy as np
from hypothesis import settings

from purcell.lie import DEFAULT_STEP, VectorFieldHandle, _bracket, jacobian
from purcell.model import Configuration, SwimmerParams, body_velocity_components, validate_params
from purcell.simulate import Trajectory

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def trajectory_from_columns(t, alpha1, alpha2, x, y, theta, xi_x, xi_y, xi_theta, segment):
    """A Trajectory whose rows hold these ten equal-length columns."""
    return Trajectory(np.column_stack(
        (t, alpha1, alpha2, x, y, theta, xi_x, xi_y, xi_theta, segment)).astype(float))


def swimmer_fields(params: SwimmerParams):
    """The two control vector fields as plain callables on Configuration.

    Each returns a 5-vector: the unit rate of its joint, then the body
    velocity that rate drives.  Both depend on shape only.
    """
    validate_params(params)

    def g1(q: Configuration) -> np.ndarray:
        xi = body_velocity_components(q.shape[0], q.shape[1], 1.0, 0.0, params)
        return np.array([1.0, 0.0, xi[0], xi[1], xi[2]])

    def g2(q: Configuration) -> np.ndarray:
        xi = body_velocity_components(q.shape[0], q.shape[1], 0.0, 1.0, params)
        return np.array([0.0, 1.0, xi[0], xi[1], xi[2]])

    return g1, g2


def lie_bracket(X: VectorFieldHandle, Y: VectorFieldHandle, q: Configuration,
                h: float = DEFAULT_STEP) -> np.ndarray:
    """[X, Y] at q, in the same (joint rates, body velocity) components."""
    return _bracket(np.asarray(X(q), dtype=float), np.asarray(Y(q), dtype=float),
                    jacobian(X, q, h), jacobian(Y, q, h))
