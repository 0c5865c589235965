"""Simulation and gait synthesis toolkit for the 3-link planar Purcell swimmer."""

__version__ = "0.1.0"

from .se2 import BodyVelocity, GroupPose, compose, inverse
from .model import (
    Configuration,
    ShapePoint,
    ShapeVelocity,
    SwimmerParams,
    body_velocity,
    default_params,
    derive_drag_coefficients,
)

__all__ = [
    "BodyVelocity", "GroupPose", "compose", "inverse",
    "Configuration", "ShapePoint", "ShapeVelocity", "SwimmerParams",
    "body_velocity", "default_params",
    "derive_drag_coefficients",
]
