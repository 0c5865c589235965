import math
from types import SimpleNamespace

import numpy as np
import pytest

from purcell import model
from purcell.errors import NumericalError, ValidationError
from purcell.gaits import parse_schedule
from purcell.model import (Configuration, ShapePoint, ShapeVelocity, SwimmerParams,
                           _solve, body_velocity, body_velocity_components,
                           cfd_drag_coefficients, default_params,
                           derive_drag_coefficients, swimmer_fields, validate_params)
from purcell.oracle import reference_body_velocity
from purcell.se2 import GroupPose
from purcell.selftest import _random_params
from purcell.simulate import simulate

PARAMS = default_params()
ORIGIN_POSE = GroupPose(0.0, 0.0, 0.0)
# k_long / k_lat this small makes the straight shape's drag matrix singular to
# working precision: the swimmer cannot be pushed along its own axis.
ILL_PARAMS = PARAMS._replace(k_long=1e-14, k_lat=1.0)


# --- Reference route: per-link 3-point Gauss quadrature and a pivoted solve.
# The model assembles the same integrals in closed form; this is the direct
# transcription it is checked against.

_GL_NODES = (-math.sqrt(0.6), 0.0, math.sqrt(0.6))
_GL_WEIGHTS = (5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0)


def reference_drag_matrices(a1, a2, params):
    """(omega1, omega2) summed over links and Gauss nodes.

    Each link is (anchor_x, offset, cos, sin, spin, joint): its points sit at
    (anchor_x, 0) + rho (cos, sin) for rho in [offset - L, offset + L], and
    `spin` is its extra angular rate per unit rate of joint `joint`.
    """
    L, kl, kn = params.L, params.k_long, params.k_lat
    links = (
        (-L, -L, math.cos(a1), math.sin(a1), 1.0, 0),    # left, joint 1
        (0.0, 0.0, 1.0, 0.0, 0.0, None),                 # base
        (L, L, math.cos(a2), -math.sin(a2), -1.0, 1),    # right, joint 2
    )
    w1 = np.zeros((3, 3))
    w2 = np.zeros((3, 2))
    for ax, off, c, s, spin, joint in links:
        m = np.array([[kl * c * c + kn * s * s, (kl - kn) * c * s],
                      [(kl - kn) * c * s, kl * s * s + kn * c * c]])
        for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
            rho = node * L + off
            px, py = ax + c * rho, s * rho
            # point velocity per unit (xi_x, xi_y, xi_theta)
            basis = np.array([[1.0, 0.0, -py], [0.0, 1.0, px]])
            force = m @ basis
            w1 -= weight * L * np.vstack([force, -py * force[0] + px * force[1]])
            if joint is not None:
                f = m @ np.array([-spin * s * rho, spin * c * rho])
                w2[:, joint] -= weight * L * np.array([f[0], f[1], -py * f[0] + px * f[1]])
    return w1, w2


def reference_solve3(m, rhs):
    """Gaussian elimination with partial pivoting."""
    a = np.array(m, dtype=float)
    x = np.array(rhs, dtype=float)
    for col in range(3):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        a[[col, piv]] = a[[piv, col]]
        x[[col, piv]] = x[[piv, col]]
        for r in range(col + 1, 3):
            f = a[r, col] / a[col, col]
            a[r, col:] -= f * a[col, col:]
            x[r] -= f * x[col]
    out = np.zeros(3)
    for r in (2, 1, 0):
        out[r] = (x[r] - a[r, r + 1:] @ out[r + 1:]) / a[r, r]
    return out


def reference_connection(a1, a2, params):
    w1, w2 = reference_drag_matrices(a1, a2, params)
    return np.column_stack([reference_solve3(w1, w2[:, j]) for j in range(2)])


# --- The kernel's route, in matrix form.  _solve is the one place the drag
# balance is assembled and solved; these helpers rebuild omega1, omega2 and
# A from it so the tests can check them as matrices.

def adjugate(m):
    """The adjugate of a 3x3 matrix: its columns are cross products of its rows."""
    r0, r1, r2 = m
    return np.column_stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)])


def drag_matrices(shape, params):
    """omega1 (3x3) and omega2 (3x2) in physical units, from the kernel's solve.

    _solve keeps adj N and det N, not N: for a 3x3 matrix
    adj(adj N) = det(N) N, so N is the adjugate of the kernel's adjugate over
    its determinant."""
    validate_params(params)
    j00, j01, j02, j11, j12, j22, det, c1, s1, c2, s2 = _solve(shape[0], shape[1], params)
    L = params.L
    lift = np.array([1.0, 1.0, L])
    n = adjugate(np.array([[j00, j01, j02], [j01, j11, j12], [j02, j12, j22]])) / det
    j = np.array([[-s1, s2], [c1, c2], [-4.0 / 3.0 - c1, 4.0 / 3.0 + c2]])
    return SimpleNamespace(omega1=(-2.0 * params.k_lat * L) * (lift[:, None] * n * lift),
                           omega2=(2.0 * params.k_lat * L * L) * (lift[:, None] * j))


def connection(shape, params):
    """Local connection A = omega1^-1 omega2: column j is minus the body
    velocity for a unit rate of joint j."""
    validate_params(params)
    a1, a2 = shape
    cols = (body_velocity_components(a1, a2, 1.0, 0.0, params),
            body_velocity_components(a1, a2, 0.0, 1.0, params))
    return SimpleNamespace(A=-np.array(cols).T)


def assert_rel_close(mine, ref, scale, tol=1e-12):
    """max |mine - ref| <= tol * max |ref|, after dividing both by `scale`
    (which makes entries of different length dimensions comparable)."""
    mine, ref = np.asarray(mine) / scale, np.asarray(ref) / scale
    assert np.max(np.abs(mine - ref)) <= tol * np.max(np.abs(ref))


def random_shape(rng):
    return ShapePoint(*rng.uniform(-math.pi, math.pi, 2))


class TestDragCoefficients:
    def test_slender_body_values(self):
        p = derive_drag_coefficients(SwimmerParams(L=0.05, b=0.005, mu=0.950))
        assert p.k_long == pytest.approx(2 * math.pi * 0.950 / math.log(20.0), rel=1e-12)
        assert p.k_long == pytest.approx(1.9926, abs=2e-4)
        assert p.k_lat == pytest.approx(3.9852, abs=4e-4)

    def test_ratio_is_two(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            L = rng.uniform(0.01, 0.2)
            p = derive_drag_coefficients(
                SwimmerParams(L=L, b=L * rng.uniform(0.01, 0.5), mu=rng.uniform(0.1, 5)))
            assert p.k_lat / p.k_long == pytest.approx(2.0, rel=1e-14)

    def test_rejects_thick_links(self):
        with pytest.raises(ValidationError):
            derive_drag_coefficients(SwimmerParams(L=0.05, b=0.05, mu=1.0))
        with pytest.raises(ValidationError):
            derive_drag_coefficients(SwimmerParams(L=0.05, b=0.06, mu=1.0))

    def test_cfd_provenance(self):
        p = cfd_drag_coefficients(SwimmerParams(), flow_speed=0.01)
        assert p.k_lat == pytest.approx(0.005922 / (0.01 * 0.1), rel=1e-12)
        assert p.k_long == pytest.approx(0.0001013 / (0.01 * 0.1), rel=1e-12)
        assert p.k_lat > p.k_long > 0
        with pytest.raises(ValidationError):
            cfd_drag_coefficients(SwimmerParams(), flow_speed=0.0)


class TestDragMatrices:
    def test_symmetric_negative_definite_on_grid(self):
        angles = -math.pi + 2 * math.pi * np.arange(24) / 24
        for a1 in angles:
            for a2 in angles:
                w1 = drag_matrices(ShapePoint(float(a1), float(a2)), PARAMS).omega1
                assert np.max(np.abs(w1 - w1.T)) < 1e-10
                assert np.max(np.linalg.eigvalsh(w1)) < 0.0

    def test_straight_shape_decoupling(self):
        w1 = drag_matrices(ShapePoint(0.0, 0.0), PARAMS).omega1
        assert abs(w1[0, 1]) < 1e-15
        assert abs(w1[0, 2]) < 1e-15

    def test_linear_in_drag_coefficients(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            shape = random_shape(rng)
            c = rng.uniform(0.1, 10.0)
            scaled = PARAMS._replace(k_long=c * PARAMS.k_long, k_lat=c * PARAMS.k_lat)
            m1 = drag_matrices(shape, PARAMS)
            m2 = drag_matrices(shape, scaled)
            assert np.allclose(m2.omega1, c * m1.omega1, rtol=1e-13)
            assert np.allclose(m2.omega2, c * m1.omega2, rtol=1e-13)
            a1 = connection(shape, PARAMS).A
            a2 = connection(shape, scaled).A
            assert np.max(np.abs(a1 - a2)) < 1e-12


class TestConnection:
    def test_residual_on_grid(self):
        angles = np.linspace(-math.pi, math.pi, 9)
        for a1 in angles:
            for a2 in angles:
                shape = ShapePoint(float(a1), float(a2))
                mats = drag_matrices(shape, PARAMS)
                A = connection(shape, PARAMS).A
                residual = np.linalg.norm(mats.omega1 @ A - mats.omega2)
                assert residual < 1e-10

    def test_straight_shape_structure(self):
        # no x response to either paddle; equal y response; opposite turning
        A = connection(ShapePoint(0.0, 0.0), PARAMS).A
        assert abs(A[0, 0]) < 1e-14 and abs(A[0, 1]) < 1e-14
        assert A[1, 0] == pytest.approx(A[1, 1], rel=1e-10)
        assert A[2, 0] == pytest.approx(-A[2, 1], rel=1e-10)
        assert abs(A[2, 0]) > 0

    def test_end_swap_symmetry(self):
        # relabeling the swimmer end to end: A(-a2, -a1) = diag(1,1,-1) A(a1,a2) P
        rng = np.random.default_rng(3)
        flip = np.diag([1.0, 1.0, -1.0])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        for _ in range(25):
            a1, a2 = rng.uniform(-math.pi, math.pi, 2)
            lhs = connection(ShapePoint(-a2, -a1), PARAMS).A
            rhs = flip @ connection(ShapePoint(a1, a2), PARAMS).A @ swap
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_mirror_symmetry(self):
        # reflecting across the base link: A(-a1, -a2) = -diag(1,-1,-1) A(a1,a2)
        rng = np.random.default_rng(4)
        flip = np.diag([1.0, -1.0, -1.0])
        for _ in range(25):
            a1, a2 = rng.uniform(-math.pi, math.pi, 2)
            lhs = connection(ShapePoint(-a1, -a2), PARAMS).A
            rhs = -flip @ connection(ShapePoint(a1, a2), PARAMS).A
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_matches_oracle_at_straight_shape(self):
        A = connection(ShapePoint(0.0, 0.0), PARAMS).A
        for sdot in (ShapeVelocity(1.0, 0.0), ShapeVelocity(0.0, 1.0)):
            ref = reference_body_velocity(ShapePoint(0.0, 0.0), sdot, PARAMS)
            mine = -A @ np.array(sdot)
            assert np.max(np.abs(mine - ref)) < 1e-8


class TestBodyVelocity:
    def test_zero_rates(self):
        xi = body_velocity(ShapePoint(0.4, 1.0), ShapeVelocity(0.0, 0.0), PARAMS)
        assert xi == pytest.approx((0.0, 0.0, 0.0))

    def test_parallel_arm_shape_kills_rotation(self):
        # at shape (a, -a) the outer links are parallel; equal joint rates
        # are frame-flip symmetric, so the turning rate vanishes exactly
        for a in (0.3, 0.9, -1.2):
            xi = body_velocity(ShapePoint(a, -a), ShapeVelocity(1.0, 1.0), PARAMS)
            assert abs(xi.xi_theta) < 1e-10

    def test_breaststroke_is_pure_y(self):
        # at shape (a, a) the swimmer is mirror symmetric about the base
        # y-axis; the synchronized stroke produces sideways motion only
        for a in (0.0, 0.5, -1.0):
            xi = body_velocity(ShapePoint(a, a), ShapeVelocity(1.0, 1.0), PARAMS)
            assert abs(xi.xi_x) < 1e-10
            assert abs(xi.xi_theta) < 1e-10
            assert abs(xi.xi_y) > 0

    def test_matches_oracle(self):
        xi = body_velocity(ShapePoint(0.3, -0.2), ShapeVelocity(1.0, 0.5), PARAMS)
        ref = reference_body_velocity(ShapePoint(0.3, -0.2),
                                      ShapeVelocity(1.0, 0.5), PARAMS)
        assert np.max(np.abs(np.array(xi) - ref)) < 1e-8

    def test_oracle_leaves_headroom_under_the_gate(self):
        # Simpson's rule is exact for the quadratic drag integrands, so the
        # oracle's own error is rounding, far below criterion 10's 1e-8 gate
        rng = np.random.default_rng(10)
        for _ in range(10):
            shape = ShapePoint(*rng.uniform(-math.pi, math.pi, 2))
            sdot = ShapeVelocity(*rng.uniform(-2.0, 2.0, 2))
            xi = np.array(body_velocity(shape, sdot, PARAMS))
            assert np.max(np.abs(xi - reference_body_velocity(shape, sdot, PARAMS))) < 1e-12


class TestControlField:
    def test_shape_components(self):
        q = Configuration(ShapePoint(0.2, -0.4), ORIGIN_POSE)
        g1, g2 = swimmer_fields(PARAMS)
        assert g1(q)[:2] == pytest.approx((1.0, 0.0))
        assert g2(q)[:2] == pytest.approx((0.0, 1.0))

    def test_pose_independent(self):
        shape = ShapePoint(0.9, 0.1)
        qa = Configuration(shape, ORIGIN_POSE)
        qb = Configuration(shape, GroupPose(2.0, -1.0, 2.2))
        for field in swimmer_fields(PARAMS):
            assert np.array_equal(field(qa), field(qb))

    def test_group_part_is_minus_connection_column(self):
        shape = ShapePoint(0.2, -0.4)
        q = Configuration(shape, ORIGIN_POSE)
        A = connection(shape, PARAMS).A
        for column, field in enumerate(swimmer_fields(PARAMS)):
            assert np.allclose(field(q)[2:], -A[:, column], atol=1e-12)

    def test_finite_and_bounded_away_from_zero_on_grid(self):
        g1, g2 = swimmer_fields(PARAMS)
        angles = -math.pi + 2 * math.pi * np.arange(24) / 24
        for a1 in angles:
            for a2 in angles:
                q = Configuration(ShapePoint(float(a1), float(a2)), ORIGIN_POSE)
                for field in (g1, g2):
                    v = field(q)
                    assert np.all(np.isfinite(v))
                    assert np.linalg.norm(v) >= 1.0  # unit shape component


class TestClosedFormKernel:
    """The closed-form assembly and adjugate solve against the reference route."""

    PARAM_SETS = [PARAMS] + [_random_params(np.random.default_rng(seed)) for seed in range(4)]

    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_matches_reference_on_grid(self, params):
        L = params.L
        vec_scale = np.array([L, L, 1.0])
        w1_scale = np.outer([1.0, 1.0, L], [1.0, 1.0, L])
        w2_scale = np.array([[L], [L], [L * L]])
        angles = -math.pi + 2 * math.pi * np.arange(24) / 24
        for a1 in angles.tolist():
            for a2 in angles.tolist():
                shape = ShapePoint(a1, a2)
                w1, w2 = reference_drag_matrices(a1, a2, params)
                ref_A = reference_connection(a1, a2, params)
                mats = drag_matrices(shape, params)
                assert_rel_close(mats.omega1, w1, w1_scale)
                assert_rel_close(mats.omega2, w2, w2_scale)
                assert_rel_close(connection(shape, params).A, ref_A, vec_scale[:, None])
                for u in ((1.0, 0.0), (0.0, 1.0), (0.6, -1.7)):
                    xi = body_velocity_components(a1, a2, u[0], u[1], params)
                    assert_rel_close(xi, -ref_A @ np.array(u), vec_scale)

    def test_scale_free_connection(self):
        # with b/L and mu fixed, x/y rows of A scale as L and the theta row
        # not at all; the conditioning guard must not see a micro-swimmer as
        # ill-conditioned
        rows = np.array([[1.0], [1.0], [0.0]])
        scaled = []
        for L in (1e-7, 0.05):
            params = derive_drag_coefficients(SwimmerParams(L=L, b=0.1 * L, mu=0.95))
            rng = np.random.default_rng(8)
            scaled.append([connection(random_shape(rng), params).A / L ** rows
                           for _ in range(50)])
        assert np.max(np.abs(np.array(scaled[0]) - np.array(scaled[1]))) < 1e-12


class TestPairedConnection:
    """model.connection solves the drag balance once for both unit-rate
    columns; each equals the kernel's own answer at that rate pair."""

    @pytest.mark.parametrize("params", TestClosedFormKernel.PARAM_SETS,
                             ids=["default", *"abcd"])
    def test_columns_are_the_kernel_at_unit_rates_bit_for_bit(self, params):
        rng = np.random.default_rng(46)
        below_pi = math.nextafter(math.pi, 0.0)
        edges = (0.0, -0.0, math.pi, -math.pi, below_pi, -below_pi, 1e-300, -1e-300)
        shapes = [(a1, a2) for a1 in edges for a2 in edges]
        shapes += [tuple(rng.uniform(-math.pi, math.pi, 2).tolist()) for _ in range(200)]
        for a1, a2 in shapes:
            paired = model.connection(a1, a2, params)
            alone = (body_velocity_components(a1, a2, 1.0, 0.0, params),
                     body_velocity_components(a1, a2, 0.0, 1.0, params))
            assert [[float.hex(v) for v in col] for col in paired] == [
                [float.hex(v) for v in col] for col in alone]

    def test_one_solve_gives_both_columns(self, monkeypatch):
        solves = []
        solve = model._solve
        monkeypatch.setattr(model, "_solve", lambda *a: solves.append(a) or solve(*a))
        model.connection(0.3, -1.1, PARAMS)
        assert len(solves) == 1

    def test_raises_the_kernel_s_refusal(self):
        for shape in ((0.0, 0.0), (-0.0, 0.0), (0.0, math.pi)):
            with pytest.raises(NumericalError) as alone:
                body_velocity_components(*shape, 1.0, 0.0, ILL_PARAMS)
            with pytest.raises(NumericalError) as paired:
                model.connection(*shape, ILL_PARAMS)
            assert str(paired.value) == str(alone.value)
            assert "ill-conditioned" in str(paired.value)


class TestConditioningGuard:
    def test_every_route_raises(self):
        with pytest.raises(NumericalError, match="ill-conditioned"):
            body_velocity_components(0.0, 0.0, 1.0, 0.0, ILL_PARAMS)
        q0 = Configuration(ShapePoint(0.0, 0.0), ORIGIN_POSE)
        with pytest.raises(NumericalError, match="ill-conditioned"):
            body_velocity(q0.shape, ShapeVelocity(1.0, 0.0), ILL_PARAMS)
        with pytest.raises(NumericalError, match="ill-conditioned"):
            swimmer_fields(ILL_PARAMS)[0](q0)
        with pytest.raises(NumericalError, match="ill-conditioned"):
            simulate(parse_schedule("1 0.5 0.1\n"), q0, ILL_PARAMS)

    def test_routes_agree_on_the_verdict(self):
        rng = np.random.default_rng(9)
        verdicts = set()
        routes = (
            lambda shape, params: body_velocity(shape, ShapeVelocity(1.0, 0.0), params),
            lambda shape, params: swimmer_fields(params)[0](Configuration(shape, ORIGIN_POSE)),
            lambda shape, params: model.connection(shape[0], shape[1], params),
        )
        for k_long in (1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-6):
            params = PARAMS._replace(k_long=k_long, k_lat=1.0)
            for shape in [ShapePoint(0.0, 0.0)] + [random_shape(rng) for _ in range(5)]:
                try:
                    body_velocity_components(shape[0], shape[1], 1.0, 0.0, params)
                    fast = True
                except NumericalError:
                    fast = False
                for route in routes:
                    try:
                        route(shape, params)
                        full = True
                    except NumericalError:
                        full = False
                    assert fast == full
                verdicts.add(fast)
        assert verdicts == {True, False}


def test_params_validation():
    with pytest.raises(ValidationError):
        body_velocity(ShapePoint(0, 0), ShapeVelocity(1, 0), SwimmerParams())
    bad = default_params()._replace(k_long=5.0, k_lat=4.0)
    with pytest.raises(ValidationError):
        body_velocity(ShapePoint(0, 0), ShapeVelocity(1, 0), bad)
