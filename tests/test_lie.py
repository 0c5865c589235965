import math

import numpy as np
import pytest

from purcell import lie, model
from purcell.errors import NumericalError, ValidationError
from purcell.lie import bracket_basis, controllability_report, jacobian, solve_bracket_coefficients
from purcell.model import Configuration, ShapePoint, default_params
from purcell.se2 import IDENTITY, GroupPose, se2_commutator, wrap_angle
from purcell.selftest import _random_params

from conftest import lie_bracket, swimmer_fields

PARAMS = default_params()
ORIGIN = Configuration(ShapePoint(0.0, 0.0), GroupPose(0.0, 0.0, 0.0))


def coords(q):
    return np.array([q.shape.alpha1, q.shape.alpha2, q.pose.x, q.pose.y, q.pose.theta])


def random_config(rng):
    return Configuration(ShapePoint(*rng.uniform(-1.5, 1.5, 2)),
                         GroupPose(*rng.uniform(-1, 1, 2), rng.uniform(-1.5, 1.5)))


def patch_basis(monkeypatch, fake):
    """lie.bracket_basis replaced by `fake`, with the block memo emptied, so
    that no block solved before answers in its place."""
    monkeypatch.setattr(lie, "_last_block", (b"", None))
    monkeypatch.setattr(lie, "bracket_basis", fake)


def counted_basis(monkeypatch):
    """The real bracket_basis behind a list of its calls, the memo emptied."""
    calls = []

    def basis(*args, **kwargs):
        calls.append(args)
        return bracket_basis(*args, **kwargs)

    patch_basis(monkeypatch, basis)
    return calls


def hexes(p, params):
    """x, y and theta at p, solved in a row, as float.hex strings."""
    return [float.hex(v) for d in ("x", "y", "theta")
            for v in solve_bracket_coefficients(d, p, params)]


# --- Reference route: the column-at-a-time difference Jacobian that
# lie.jacobian replaced, composed into brackets and a basis the same way.
# The fast path must equal it bit for bit.

def _perturbed(q, coord, delta):
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


def reference_jacobian(X, q, h):
    cols = []
    for j in range(5):
        plus = np.asarray(X(_perturbed(q, j, h)), dtype=float)
        minus = np.asarray(X(_perturbed(q, j, -h)), dtype=float)
        cols.append((plus - minus) / (2.0 * h))
    return np.column_stack(cols)


def reference_bracket(X, Y, q, h):
    x_val = np.asarray(X(q), dtype=float)
    y_val = np.asarray(Y(q), dtype=float)
    out = reference_jacobian(Y, q, h) @ x_val - reference_jacobian(X, q, h) @ y_val
    out[2:] += se2_commutator(tuple(x_val[2:]), tuple(y_val[2:]))
    return out


def reference_basis(p, params, h_inner, h_outer):
    g1, g2 = swimmer_fields(params)
    z = lambda q: reference_bracket(g1, g2, q, h_inner)
    return np.column_stack([g1(p), g2(p), reference_bracket(g1, g2, p, h_inner),
                            reference_bracket(g1, z, p, h_outer),
                            reference_bracket(g2, z, p, h_outer)])


def generic_basis(p, params, h_inner, h_outer):
    """The basis as lie_bracket composed on swimmer_fields, each field
    evaluated alone: 530 solves of the connection."""
    g1, g2 = swimmer_fields(params)
    z = lambda q: lie_bracket(g1, g2, q, h_inner)
    return np.column_stack([g1(p), g2(p), lie_bracket(g1, g2, p, h_inner),
                            lie_bracket(g1, z, p, h_outer), lie_bracket(g2, z, p, h_outer)])


def paired(X, Y):
    """X and Y as the rows of one field."""
    return lambda q: np.array([X(q), Y(q)])


def connection_field(params):
    """g1 and g2 as the rows of one field, both from one model.connection."""
    def field(q):
        c1, c2 = model.connection(q.shape[0], q.shape[1], params)
        return np.array([[1.0, 0.0, *c1], [0.0, 1.0, *c2]])
    return field


def generic_field(rng):
    """A smooth field that depends on every coordinate, pose included, and is
    periodic in none, so that a missed wrap changes its values."""
    A, c = rng.normal(size=(5, 5)), rng.normal(size=5)
    return lambda q: np.sin(A @ coords(q)) + c


def near_pi_configs(rng, h, n=8):
    """Shapes and headings within h of +pi or -pi, so that q +/- h wraps."""
    for _ in range(n):
        a1, a2, th = (rng.choice((-1.0, 1.0), 3) * (math.pi - rng.uniform(0.0, h, 3))).tolist()
        yield Configuration(ShapePoint(a1, a2), GroupPose(*rng.uniform(-1, 1, 2), th))


PARAM_SETS = [PARAMS, *(_random_params(np.random.default_rng(s)) for s in (31, 32, 33, 34))]


def shape_poly_field(c):
    """Synthetic smooth field depending on shape only."""

    def field(q):
        a1, a2 = q.shape
        return np.array([math.sin(c * a1), math.cos(a2),
                         a1 * a2, math.sin(a1 + a2), a1 ** 2 - a2])

    return field


class TestJacobian:
    def test_constant_field(self):
        field = lambda q: np.array([1.0, -2.0, 0.5, 0.0, 3.0])
        J = jacobian(field, ORIGIN)
        assert np.array_equal(J, np.zeros((5, 5)))

    def test_linear_field_exact(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(5, 5))
        field = lambda q: M @ coords(q)
        J = jacobian(field, random_config(rng))
        assert np.max(np.abs(J - M)) < 1e-9

    def test_swimmer_field_pose_columns_vanish(self):
        g1, _ = swimmer_fields(PARAMS)
        J = jacobian(g1, ORIGIN)
        assert np.array_equal(J[:, 2:], np.zeros((5, 3)))

    def test_rejects_bad_step(self):
        with pytest.raises(ValidationError):
            jacobian(lambda q: coords(q), ORIGIN, h=0.0)


class TestSlowPathReference:
    """lie.jacobian evaluates its ten points into one array; the column loop
    it replaced gives the same bits for every field, point and step."""

    @pytest.mark.parametrize("params", PARAM_SETS, ids=["default", *"abcd"])
    @pytest.mark.parametrize("steps", [(lie.INNER_STEP, lie.OUTER_STEP), (3e-4, 2e-3)],
                             ids=["default_steps", "other_steps"])
    def test_swimmer_fields_and_basis(self, params, steps):
        g1, g2 = swimmer_fields(params)
        rng = np.random.default_rng(41)
        points = [ORIGIN, *(random_config(rng) for _ in range(3)),
                  *near_pi_configs(rng, steps[1], n=4)]
        for p in points:
            for h in steps:
                for g in (g1, g2):
                    assert jacobian(g, p, h).tobytes() == reference_jacobian(g, p, h).tobytes()
                assert (lie_bracket(g1, g2, p, h).tobytes()
                        == reference_bracket(g1, g2, p, h).tobytes())
            expected = reference_basis(p, params, *steps)
            assert bracket_basis(p, params, *steps).tobytes() == expected.tobytes()

    def test_generic_pose_dependent_fields(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            X, Y = generic_field(rng), generic_field(rng)
            q = Configuration(ShapePoint(*rng.uniform(-math.pi, math.pi, 2)),
                              GroupPose(*rng.uniform(-3, 3, 2), rng.uniform(-math.pi, math.pi)))
            h = 10.0 ** rng.uniform(-6, -2)
            assert jacobian(X, q, h).tobytes() == reference_jacobian(X, q, h).tobytes()
            assert lie_bracket(X, Y, q, h).tobytes() == reference_bracket(X, Y, q, h).tobytes()

    def test_wraps_within_a_step_of_pi(self):
        rng = np.random.default_rng(43)
        for h in (1e-5, 1e-3, 2e-3):
            X, Y = generic_field(rng), generic_field(rng)
            for q in near_pi_configs(rng, h):
                assert jacobian(X, q, h).tobytes() == reference_jacobian(X, q, h).tobytes()
                expected = reference_bracket(X, Y, q, h)
                assert lie_bracket(X, Y, q, h).tobytes() == expected.tobytes()

    def test_ten_field_evaluations_per_jacobian(self):
        calls = []
        g1, _ = swimmer_fields(PARAMS)
        jacobian(lambda q: calls.append(q) or g1(q), ORIGIN)
        assert len(calls) == 10


class TestPairedEvaluation:
    """bracket_basis evaluates g1 and g2 as one field; its Jacobians and the
    basis equal those of each field alone, bit for bit."""

    STEPS = [(lie.INNER_STEP, lie.OUTER_STEP), (3e-4, 2e-3)]

    def test_a_paired_jacobian_is_the_two_jacobians(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            X, Y = generic_field(rng), generic_field(rng)
            q = Configuration(ShapePoint(*rng.uniform(-math.pi, math.pi, 2)),
                              GroupPose(*rng.uniform(-3, 3, 2), rng.uniform(-math.pi, math.pi)))
            h = 10.0 ** rng.uniform(-6, -2)
            J = jacobian(paired(X, Y), q, h)
            assert J.shape == (2, 5, 5) and J.flags.c_contiguous
            assert J[0].tobytes() == jacobian(X, q, h).tobytes()
            assert J[1].tobytes() == jacobian(Y, q, h).tobytes()

    @pytest.mark.parametrize("params", PARAM_SETS, ids=["default", *"abcd"])
    def test_the_connection_field_is_g1_and_g2(self, params):
        g1, g2 = swimmer_fields(params)
        g = connection_field(params)
        rng = np.random.default_rng(48)
        for q in [ORIGIN, *(random_config(rng) for _ in range(4)), *near_pi_configs(rng, 2e-3, 4)]:
            assert g(q).tobytes() == np.array([g1(q), g2(q)]).tobytes()
            for h in (1e-5, *self.STEPS[1]):
                J = jacobian(g, q, h)
                assert J.tobytes() == np.array([jacobian(g1, q, h), jacobian(g2, q, h)]).tobytes()

    @pytest.mark.parametrize("params", PARAM_SETS, ids=["default", *"abcd"])
    @pytest.mark.parametrize("steps", STEPS, ids=["default_steps", "other_steps"])
    def test_basis_is_the_generic_composition(self, params, steps):
        rng = np.random.default_rng(49)
        signed_zeros = [Configuration(ShapePoint(a1, a2), IDENTITY)
                        for a1 in (0.0, -0.0) for a2 in (0.0, -0.0)]
        edges = [Configuration(ShapePoint(a1, a2), IDENTITY)
                 for a1 in (math.pi, -math.pi) for a2 in (math.pi, -0.0)]
        for p in [*signed_zeros, *edges, *(random_config(rng) for _ in range(4)),
                  *near_pi_configs(rng, steps[1], n=3)]:
            expected = generic_basis(p, params, *steps)
            assert bracket_basis(p, params, *steps).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("steps", STEPS, ids=["default_steps", "other_steps"])
    def test_solves_per_basis(self, monkeypatch, steps):
        # one solve for g1 and g2 at p, eleven for [g1,g2] at p and 110 for
        # each outer bracket's Jacobian of it: 232, where evaluating each
        # field alone took 530 (g1's and g2's own Jacobian at p would add
        # ten, but it meets only z's exactly-zero shape rows)
        solves = []
        solve = model._solve
        monkeypatch.setattr(model, "_solve", lambda *a: solves.append(a) or solve(*a))
        bracket_basis(random_config(np.random.default_rng(50)), PARAMS, *steps)
        assert len(solves) == 232


class TestLieBracket:
    def test_self_bracket_vanishes(self):
        rng = np.random.default_rng(6)
        field = shape_poly_field(1.3)
        for _ in range(5):
            b = lie_bracket(field, field, random_config(rng))
            assert np.max(np.abs(b)) < 1e-9

    def test_antisymmetry(self):
        rng = np.random.default_rng(7)
        X = shape_poly_field(0.8)
        Y = shape_poly_field(-1.7)
        for _ in range(10):
            q = random_config(rng)
            fwd = lie_bracket(X, Y, q)
            rev = lie_bracket(Y, X, q)
            assert np.max(np.abs(fwd + rev)) < 1e-9

    def test_swimmer_bracket_shape_parts_vanish(self):
        g1, g2 = swimmer_fields(PARAMS)
        rng = np.random.default_rng(8)
        for _ in range(5):
            b = lie_bracket(g1, g2, random_config(rng))
            assert abs(b[0]) < 1e-8 and abs(b[1]) < 1e-8

    @pytest.mark.parametrize("params", PARAM_SETS, ids=["default", *"abcd"])
    def test_bracket_columns_have_shape_rows_of_exactly_zero(self, params):
        # g1 and g2 have constant unit shape parts, so each Jacobian's shape
        # rows are differences of equal numbers; solve_bracket_coefficients
        # therefore reads the group rows of the bracket columns alone
        rng = np.random.default_rng(45)
        for _ in range(6):
            p = Configuration(ShapePoint(*rng.uniform(-math.pi, math.pi, 2)),
                              GroupPose(*rng.uniform(-1.0, 1.0, 2), rng.uniform(-math.pi, math.pi)))
            assert np.all(bracket_basis(p, params)[:2, 2:] == 0.0)

    def test_known_bracket_on_coordinate_fields(self):
        # [d/da1, a1 * d/da2] = d/da2, with no group parts involved
        X = lambda q: np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        Y = lambda q: np.array([0.0, q.shape.alpha1, 0.0, 0.0, 0.0])
        b = lie_bracket(X, Y, ORIGIN)
        assert b == pytest.approx([0.0, 1.0, 0.0, 0.0, 0.0], abs=1e-10)

    def test_constant_group_fields_recover_algebra_commutator(self):
        # left-invariant fields bracket to the algebra commutator
        X = lambda q: np.array([0.0, 0.0, 1.0, 0.0, 0.5])
        Y = lambda q: np.array([0.0, 0.0, 0.0, 1.0, 0.0])
        b = lie_bracket(X, Y, ORIGIN)
        # [ (1,0,.5), (0,1,0) ] = (-0.5*1, 0.5*0... ) = (-0.5, 0, 0) flipped signs per formula
        assert b[2:] == pytest.approx((-0.5, 0.0, 0.0), abs=1e-12)

    def test_richardson_order(self):
        g1, g2 = swimmer_fields(PARAMS)
        rng = np.random.default_rng(9)
        for _ in range(5):
            q = random_config(rng)
            vals = [lie_bracket(g1, g2, q, h=h) for h in (2e-3, 1e-3, 5e-4)]
            d1 = np.linalg.norm(vals[0] - vals[1])
            d2 = np.linalg.norm(vals[1] - vals[2])
            order = math.log2(d1 / d2)
            assert order >= 1.9

    def test_pose_invariance(self):
        g1, g2 = swimmer_fields(PARAMS)
        shape = ShapePoint(0.6, -0.9)
        qa = Configuration(shape, GroupPose(0.0, 0.0, 0.0))
        qb = Configuration(shape, GroupPose(1.0, -2.0, 2.0))
        assert np.max(np.abs(lie_bracket(g1, g2, qa) - lie_bracket(g1, g2, qb))) < 1e-8

    def test_nested_bracket_field(self):
        g1, g2 = swimmer_fields(PARAMS)

        def z(q):
            return lie_bracket(g1, g2, q, h=1e-3)

        nested = lie_bracket(g1, z, ORIGIN, h=1e-2)
        assert abs(nested[0]) < 1e-10 and abs(nested[1]) < 1e-10
        assert abs(nested[2]) < 1e-6          # x response is symmetry-forbidden
        assert abs(nested[3]) > 1e-4 or abs(nested[4]) > 1e-4


class TestControllability:
    def test_rank_five_at_straight_shape(self):
        rep = controllability_report(ORIGIN, PARAMS, tol=1e-8)
        assert rep.rank == 5
        assert np.all(np.diff(rep.singular_values) <= 1e-15)

    def test_rank_five_at_random_configurations(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            rep = controllability_report(random_config(rng), PARAMS)
            assert rep.rank == 5

    def test_rank_five_where_a_coarse_outer_step_reads_four(self):
        # an outer step of 1e-2 puts sigma5/sigma1 of the physical basis at
        # 2.5e-9 here, a rank of 4; at the default steps the unit-free ratio
        # is 7.18e-6 (3.90e-7 in physical units)
        q = Configuration(ShapePoint(-1.343638547525214, -0.7911675163058991),
                          GroupPose(-0.9834490021778961, -0.593022886161849, 1.4046297842213313))
        rep = controllability_report(q, PARAMS)
        assert rep.rank == 5
        assert rep.singular_values[4] / rep.singular_values[0] > 7e-6

    @pytest.mark.parametrize("params", PARAM_SETS[:3], ids=["default", "a", "b"])
    def test_unit_free_under_a_power_of_two_length(self, params):
        # L and b scaled by 2**k scale the x and y rows of the basis exactly
        # and leave every other bit alone; the rank reads the rows divided by L
        rng = np.random.default_rng(44)
        for _ in range(4):
            p = Configuration(ShapePoint(*rng.uniform(-math.pi, math.pi, 2)), IDENTITY)
            rep = controllability_report(p, params)
            for k in (-40, -20, -1, 1, 20):
                scaled = params._replace(L=2.0 ** k * params.L, b=2.0 ** k * params.b)
                other = controllability_report(p, scaled)
                assert other.singular_values.tobytes() == rep.singular_values.tobytes()
                assert other.rank == rep.rank == 5
                expected = rep.basis.copy()
                expected[2:4] *= 2.0 ** k
                assert other.basis.tobytes() == expected.tobytes()

    def test_a_micron_swimmer_has_rank_five(self):
        # unscaled, sigma5/sigma1 grows like L: 1.26e-9 on a 6x6 grid at 1 um
        params = PARAMS._replace(L=1e-6, b=1e-7)
        for a1 in np.linspace(-math.pi, math.pi, 6, endpoint=False):
            for a2 in np.linspace(-math.pi, math.pi, 6, endpoint=False):
                p = Configuration(ShapePoint(float(a1), float(a2)), IDENTITY)
                assert controllability_report(p, params).rank == 5

    @pytest.mark.parametrize("params", [PARAMS, _random_params(np.random.default_rng(11))],
                             ids=["default", "random"])
    def test_basis_is_the_same_bits_at_every_pose(self, params):
        # the fields are left-invariant on SE(2), which is why the rank sweep
        # evaluates each shape at the identity pose alone
        rng = np.random.default_rng(12)
        for _ in range(20):
            shape = ShapePoint(*rng.uniform(-math.pi, math.pi, 2))
            at_identity = bracket_basis(Configuration(shape, IDENTITY), params).tobytes()
            for _ in range(2):
                pose = GroupPose(*rng.uniform(-10.0, 10.0, 2), rng.uniform(-math.pi, math.pi))
                assert bracket_basis(Configuration(shape, pose), params).tobytes() == at_identity

    def test_duplicated_columns_drop_rank(self, monkeypatch):
        basis = bracket_basis(ORIGIN, PARAMS)
        degenerate = basis.copy()
        degenerate[:, 3] = degenerate[:, 2]
        degenerate[:, 4] = degenerate[:, 1]
        patch_basis(monkeypatch, lambda *a, **k: degenerate)
        rep = controllability_report(ORIGIN, PARAMS, tol=1e-8)
        assert rep.rank <= 4

    def test_rejects_bad_tolerance(self):
        # rank counts sigma > tol * sigma1: a tol of 1 or more reads rank 0 everywhere
        for tol in (0.0, 1.0, math.inf, math.nan):
            with pytest.raises(ValidationError, match="rank tolerance must be between 0 and 1"):
                controllability_report(ORIGIN, PARAMS, tol=tol)


class TestCoefficients:
    def test_x_pattern(self):
        c = solve_bracket_coefficients("x", ORIGIN, PARAMS)
        assert abs(c.alpha) > 0
        assert abs(c.beta) <= 1e-6 * abs(c.alpha)
        assert abs(c.gamma) <= 1e-6 * abs(c.alpha)

    def test_y_pattern(self):
        c = solve_bracket_coefficients("y", ORIGIN, PARAMS)
        assert abs(c.alpha) <= 1e-6 * abs(c.beta)
        assert abs(c.beta + c.gamma) <= 1e-6 * abs(c.beta)

    def test_theta_pattern(self):
        c = solve_bracket_coefficients("theta", ORIGIN, PARAMS)
        assert abs(c.alpha) <= 1e-6 * abs(c.beta)
        assert abs(c.beta - c.gamma) <= 1e-6 * abs(c.beta)

    def test_solution_solves_the_system(self):
        basis = bracket_basis(ORIGIN, PARAMS)
        B = basis[2:, 2:]
        for i, d in enumerate(("x", "y", "theta")):
            c = solve_bracket_coefficients(d, ORIGIN, PARAMS)
            rhs = np.zeros(3)
            rhs[i] = 1.0
            assert np.max(np.abs(B @ np.array(c) - rhs)) < 1e-10

    def test_scaling_linearity(self):
        basis = bracket_basis(ORIGIN, PARAMS)
        B = basis[2:, 2:]
        c = np.array(solve_bracket_coefficients("y", ORIGIN, PARAMS))
        for scale in (2.0, -0.3, 17.5):
            scaled = np.linalg.solve(B, scale * np.eye(3)[:, 1])
            assert np.max(np.abs(scaled - scale * c)) < 1e-10 * max(1.0, abs(scale) * np.max(np.abs(c)))

    def test_rejects_unknown_direction(self):
        with pytest.raises(ValidationError):
            solve_bracket_coefficients("z", ORIGIN, PARAMS)

    def test_signals_degenerate_basis(self, monkeypatch):
        # real parameter sets keep the bracket span full, so force a
        # degenerate basis to exercise the guard
        basis = bracket_basis(ORIGIN, PARAMS)
        degenerate = basis.copy()
        degenerate[:, 4] = degenerate[:, 3]
        patch_basis(monkeypatch, lambda *a, **k: degenerate)
        with pytest.raises(NumericalError, match="span"):
            lie.solve_bracket_coefficients("x", ORIGIN, PARAMS)

    @pytest.mark.parametrize("L", [1e-11, 1e9])
    def test_span_check_is_unit_free(self, L):
        # the 3x3 block's x and y rows scale with L; the check divides them out
        params = PARAMS._replace(L=L, b=L / 10)
        c = solve_bracket_coefficients("y", ORIGIN, params)
        reference = solve_bracket_coefficients("y", ORIGIN, PARAMS._replace(b=PARAMS.L / 10))
        assert c.beta * L == pytest.approx(reference.beta * PARAMS.L, rel=1e-6)

    def test_unset_drag_is_one_validation_error(self):
        with pytest.raises(ValidationError, match="drag coefficients unset"):
            solve_bracket_coefficients("x", ORIGIN, PARAMS._replace(k_long=None))


class TestCoefficientMemo:
    def test_three_directions_at_one_point_build_one_basis(self, monkeypatch):
        calls = counted_basis(monkeypatch)
        first = hexes(ORIGIN, PARAMS)
        assert len(calls) == 1
        assert hexes(ORIGIN, PARAMS) == first
        assert len(calls) == 1

    def test_any_other_key_builds_its_own_basis(self, monkeypatch):
        up = lambda v: math.nextafter(v, math.inf)
        others = [(Configuration(ShapePoint(-0.0, 0.0), ORIGIN.pose), PARAMS, {}),
                  (Configuration(ShapePoint(0.0, -0.0), ORIGIN.pose), PARAMS, {}),
                  *((ORIGIN, PARAMS._replace(**{f: up(getattr(PARAMS, f))}), {})
                    for f in PARAMS._fields),
                  (ORIGIN, PARAMS, {"h_inner": up(lie.INNER_STEP)}),
                  (ORIGIN, PARAMS, {"h_outer": up(lie.OUTER_STEP)})]
        calls = counted_basis(monkeypatch)
        for n, (p, params, steps) in enumerate(others, 1):
            solve_bracket_coefficients("x", ORIGIN, PARAMS)
            solve_bracket_coefficients("y", p, params, **steps)
            assert len(calls) == 2 * n

    def test_a_refused_point_raises_every_time_and_keeps_nothing(self, monkeypatch):
        basis = bracket_basis(ORIGIN, PARAMS)
        degenerate = basis.copy()
        degenerate[:, 4] = degenerate[:, 3]
        calls = []
        patch_basis(monkeypatch, lambda *a, **k: calls.append(a) or degenerate)
        for d in ("x", "y", "theta", "x"):
            with pytest.raises(NumericalError, match="span"):
                solve_bracket_coefficients(d, ORIGIN, PARAMS)
        assert len(calls) == 4
        calls = []   # the real basis again, the memo as the refusals left it
        monkeypatch.setattr(lie, "bracket_basis",
                            lambda *a, **k: calls.append(a) or bracket_basis(*a, **k))
        cold = [float.hex(v) for e in np.eye(3) for v in np.linalg.solve(basis[2:, 2:], e)]
        assert hexes(ORIGIN, PARAMS) == cold
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", [None, 21, 22, 23, 24], ids=["default", *"abcd"])
    def test_a_warm_solve_equals_a_cold_one_bit_for_bit(self, monkeypatch, seed):
        params = PARAMS if seed is None else _random_params(np.random.default_rng(seed))
        rng = np.random.default_rng(14)
        for p in [ORIGIN, *(random_config(rng) for _ in range(5))]:
            calls = counted_basis(monkeypatch)
            warm = hexes(p, params)
            cold = []
            for d in ("x", "y", "theta"):
                monkeypatch.setattr(lie, "_last_block", (b"", None))
                cold += [float.hex(v) for v in solve_bracket_coefficients(d, p, params)]
            assert (warm, len(calls)) == (cold, 4)
