"""Brute-force reference for the kinematic model.

Builds the drag force balance by densely sampling each rod with Simpson's
rule and solving for the body velocity directly.  The drag integrands are
quadratic in arclength, so the rule is exact for them up to rounding.
Deliberately shares nothing with the closed-form assembly in model.py (exact
per-link moments and an adjugate solve) beyond the frame convention; the
tests hold the two routes to 1e-8 agreement.
"""

import math

import numpy as np

from .model import ShapePoint, ShapeVelocity, SwimmerParams, validate_params


SAMPLES = 10_001   # per rod; odd, as Simpson's rule pairs the intervals


def reference_body_velocity(shape: ShapePoint, sdot: ShapeVelocity,
                            params: SwimmerParams):
    """Body velocity from a dense Simpson force balance.

    Returns a length-3 numpy array (xi_x, xi_y, xi_theta).
    """
    validate_params(params)
    L, kl, kn = params.L, params.k_long, params.k_lat
    a1, a2 = shape
    rate = {"left": sdot[0], "right": -sdot[1]}

    links = {
        "left": {"phi": a1, "joint": np.array([-L, 0.0]), "offset": -L},
        "base": {"phi": 0.0, "joint": np.array([0.0, 0.0]), "offset": 0.0},
        "right": {"phi": -a2, "joint": np.array([L, 0.0]), "offset": L},
    }

    rho = np.linspace(-L, L, SAMPLES)
    weights = np.full(SAMPLES, 2.0 * L / (SAMPLES - 1) / 3.0)
    weights[1:-1:2] *= 4.0
    weights[2:-1:2] *= 2.0

    # total wrench = H @ xi + h0;  solve H xi = -h0
    H = np.zeros((3, 3))
    h0 = np.zeros(3)
    for name, geo in links.items():
        phi = geo["phi"]
        tang = np.array([math.cos(phi), math.sin(phi)])
        norm = np.array([-math.sin(phi), math.cos(phi)])
        pts = geo["joint"] + np.outer(rho + geo["offset"], tang)
        px, py = pts[:, 0], pts[:, 1]

        # velocity per unit xi component, and the joint-rate driven part
        vel_basis = np.zeros((SAMPLES, 2, 3))
        vel_basis[:, 0, 0] = 1.0
        vel_basis[:, 1, 1] = 1.0
        vel_basis[:, 0, 2] = -py
        vel_basis[:, 1, 2] = px
        if name == "base":
            vel_fixed = np.zeros((SAMPLES, 2))
        else:
            rel = pts - geo["joint"]
            vel_fixed = rate[name] * np.stack([-rel[:, 1], rel[:, 0]], axis=1)

        drag = kl * np.outer(tang, tang) + kn * np.outer(norm, norm)

        force_basis = -np.einsum("ij,njk->nik", drag, vel_basis)
        force_fixed = -vel_fixed @ drag.T

        H[0] += weights @ force_basis[:, 0, :]
        H[1] += weights @ force_basis[:, 1, :]
        H[2] += weights @ (px[:, None] * force_basis[:, 1, :]
                           - py[:, None] * force_basis[:, 0, :])
        h0[0] += weights @ force_fixed[:, 0]
        h0[1] += weights @ force_fixed[:, 1]
        h0[2] += weights @ (px * force_fixed[:, 1] - py * force_fixed[:, 0])

    return np.linalg.solve(H, -h0)
