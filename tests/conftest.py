"""Hypothesis runs the same examples on every run and has no deadline, so
property tests neither change between runs nor flake on a loaded machine.

`trajectory_from_columns` is the tests' one way to build a trajectory from
separate columns (`from conftest import trajectory_from_columns`)."""

import numpy as np
from hypothesis import settings

from purcell.simulate import Trajectory

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def trajectory_from_columns(t, alpha1, alpha2, x, y, theta, xi_x, xi_y, xi_theta, segment):
    """A Trajectory whose rows hold these ten equal-length columns."""
    return Trajectory(np.column_stack(
        (t, alpha1, alpha2, x, y, theta, xi_x, xi_y, xi_theta, segment)).astype(float))
