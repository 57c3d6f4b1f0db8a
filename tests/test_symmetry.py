"""Isometry groups, fixed points, and affine equivalences."""

from fractions import Fraction

import pytest

from flatsurfkit.numeric import ALPHA, CubicNumber, IDENTITY, mat_mul, mat_transpose, to_float
from flatsurfkit import symmetry as sym
from flatsurfkit.constructions import (
    ParallelogramShape,
    TrapezoidShape,
    ay_prime,
    ay_prime_parallelogram_shape,
    escalator,
    parallelogram_family,
    trapezoid_family,
)
from flatsurfkit.surface import apply_linear


def by_name(isos, name):
    return [i for i in isos if i.name_hint() == name]


@pytest.fixture(scope="module")
def escalator_isometries():
    return sym.isometries(escalator())


@pytest.fixture(params=["ay", "escalator"])
def group(request):
    """The AY group (order 8) and the escalator's (order 48)."""
    return request.getfixturevalue(f"{request.param}_isometries")


class TestAYGroup:
    def test_order_eight_dihedral(self, ay_isometries):
        summary = sym.group_summary(ay_isometries)
        assert summary.order == 8
        assert summary.dihedral
        assert not summary.abelian
        assert summary.element_orders == (1, 2, 2, 2, 2, 2, 4, 4)

    def test_exactly_two_order_four_elements(self, ay_isometries):
        orders = [sym.element_order(i) for i in ay_isometries]
        assert orders.count(4) == 2

    def test_derivative_set(self, ay_isometries):
        def keyed(m):
            return tuple(round(x, 9) for row in m for x in row)

        got = {keyed(i.derivative_floats()) for i in ay_isometries}
        expect = {
            keyed(((1, 0), (0, 1))), keyed(((-1, 0), (0, -1))),
            keyed(((1, 0), (0, -1))), keyed(((-1, 0), (0, 1))),
            keyed(((0, 1), (1, 0))), keyed(((0, -1), (-1, 0))),
            keyed(((0, 1), (-1, 0))), keyed(((0, -1), (1, 0))),
        }
        assert got == expect

    def test_named_elements(self, ay_isometries):
        assert len(by_name(ay_isometries, "tau")) == 1
        assert len(by_name(ay_isometries, "sigma")) == 2
        assert len(by_name(ay_isometries, "rho")) == 2
        for s in by_name(ay_isometries, "sigma") + by_name(ay_isometries, "rho"):
            assert s.orientation == -1
            assert sym.element_order(s) == 2

    def test_sigma_product_is_tau(self, ay_isometries):
        s1, s2 = by_name(ay_isometries, "sigma")
        tau = by_name(ay_isometries, "tau")[0]
        assert sym.compose(s1, s2) == tau or sym.compose(s2, s1) == tau

    def test_rho_sigma_products_have_order_four(self, ay_isometries):
        for r in by_name(ay_isometries, "rho"):
            for s in by_name(ay_isometries, "sigma"):
                assert sym.element_order(sym.compose(r, s)) == 4

    def test_identity_composition(self, group):
        [ident] = [i for i in group if i.is_identity()]
        for iso in group:
            assert sym.compose(ident, iso) == iso
            assert sym.compose(iso, ident) == iso

    def test_closed_under_composition_and_inverse(self, group):
        pool = set(group)
        for x in group:
            assert sym.inverse(x) in pool
            assert sym.compose(x, sym.inverse(x)).is_identity()
            assert sym.compose(sym.inverse(x), x).is_identity()
            for y in group:
                assert sym.compose(x, y) in pool

    def test_element_order_is_first_identity_power(self, group):
        for x in group:
            power, k = x, 1
            while not power.is_identity() and k <= len(group):
                power, k = sym.compose(x, power), k + 1
            assert sym.element_order(x) == k

    def test_derivatives_orthogonal(self, ay_isometries):
        for iso in ay_isometries:
            g = mat_mul(mat_transpose(iso.derivative), iso.derivative)
            assert all(
                abs(to_float(g[i][j]) - (1.0 if i == j else 0.0)) < 1e-12
                for i in range(2) for j in range(2)
            )


class TestLargerGroups:
    @pytest.mark.parametrize("shear, order, orders", [
        (None, 48, {1: 1, 2: 23, 3: 2, 4: 8, 6: 10, 12: 4}),
        (((1, 0), (3, 1)), 24, {1: 1, 2: 15, 3: 2, 6: 6}),
    ], ids=["escalator", "sheared-escalator"])
    def test_escalator_group_summary(self, shear, order, orders):
        s = escalator() if shear is None else apply_linear(shear, escalator())
        summary = sym.group_summary(sym.isometries(s))
        assert summary.order == order
        assert not summary.abelian and not summary.dihedral
        expect = tuple(k for k, count in sorted(orders.items()) for _ in range(count))
        assert summary.element_orders == expect


class TestFixedPoints:
    def test_tau_has_eight_weierstrass_points(self, ay_isometries):
        tau = by_name(ay_isometries, "tau")[0]
        locus = sym.fixed_points(tau)
        assert len(locus.points) == 8
        kinds = sorted(p.kind for p in locus.points)
        assert kinds == ["edge-midpoint"] * 4 + ["interior"] * 2 + ["vertex"] * 2

    def test_sigmas_fixed_point_free(self, ay_isometries):
        for s in by_name(ay_isometries, "sigma"):
            locus = sym.fixed_points(s)
            assert not locus.points and not locus.segments

    def test_rho_fixed_set_three_components(self, ay_isometries):
        for r in by_name(ay_isometries, "rho"):
            locus = sym.fixed_points(r)
            assert locus.segments
            assert locus.segment_components == 3

    def test_identity_flag(self, ay_isometries):
        ident = by_name(ay_isometries, "id")[0]
        assert sym.fixed_points(ident).all_points

    def test_family_tau_always_eight(self):
        isos = sym.isometries(trapezoid_family(TrapezoidShape(1.0, 2.0, 1.0)))
        tau = by_name(isos, "tau")[0]
        assert len(sym.fixed_points(tau).points) == 8


class TestTorus:
    def test_marked_torus_has_square_symmetries(self, torus):
        isos = sym.isometries(torus)
        assert len(isos) == 8
        assert sym.group_summary(isos).dihedral


class TestFamilies:
    def test_generic_trapezoid_is_dihedral_eight(self):
        isos = sym.isometries(trapezoid_family(TrapezoidShape(1.0, 2.0, 1.0)))
        summary = sym.group_summary(isos)
        assert summary.order == 8 and summary.dihedral

    def test_parallelogram_family_dihedral(self):
        isos = sym.isometries(parallelogram_family(ParallelogramShape((1.0, 0.1), (-0.3, 1.2))))
        summary = sym.group_summary(isos)
        assert summary.order == 8 and summary.dihedral

    def test_parallelogram_rot90_isometric(self):
        shape = ParallelogramShape((1.0, 0.2), (-0.4, 1.1))
        rotated = ParallelogramShape((-0.2, 1.0), (-1.1, -0.4))
        a = parallelogram_family(shape)
        b = parallelogram_family(rotated)
        assert sym.affine_equivalent(a, b, IDENTITY) is not None


class TestAffineEquivalent:
    def test_pseudo_anosov_witness(self, ay):
        m = ((ALPHA.inverse(), CubicNumber(0)), (CubicNumber(0), ALPHA))
        assert sym.affine_equivalent(ay, ay, m) is not None

    def test_diag21_no_witness(self, ay):
        m = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1)))
        assert sym.affine_equivalent(ay, ay, m) is None

    def test_ay_to_ay_prime(self, ay):
        m = ((ALPHA.inverse(), CubicNumber(0)), (CubicNumber(0), CubicNumber(1)))
        assert sym.affine_equivalent(ay, ay_prime(), m) is not None

    def test_parallelogram_shape_matches_ay_prime(self):
        built = parallelogram_family(ay_prime_parallelogram_shape())
        assert sym.affine_equivalent(built, ay_prime(), IDENTITY) is not None


class TestExactDerivatives:
    def test_int_rectangle_torus(self):
        # mat_inv keeps int / int exact, so int coordinates give exact derivatives.
        from flatsurfkit.surface import Gluing, Polygon, Surface, TRANSLATION

        rect = Surface(
            [Polygon([(0, 0), (2, 0), (2, 1), (0, 1)])],
            [Gluing((0, 0), (0, 2), TRANSLATION), Gluing((0, 1), (0, 3), TRANSLATION)],
        )
        derivatives = [i.derivative for i in sym.isometries(rect)]
        assert sorted(derivatives) == sorted([
            ((1, 0), (0, 1)), ((-1, 0), (0, -1)), ((1, 0), (0, -1)), ((-1, 0), (0, 1)),
        ])
        assert not any(isinstance(x, float) for d in derivatives for row in d for x in row)
