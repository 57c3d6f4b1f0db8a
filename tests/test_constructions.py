"""Builders for the named surfaces and the origami test."""

import math
from fractions import Fraction

import pytest

from flatsurfkit.numeric import ALPHA, CubicNumber, IDENTITY, cross
from flatsurfkit import symmetry as sym
from flatsurfkit.periods import CurveA, CurveS, CurveTU, PeriodsError
from flatsurfkit.constructions import (
    ParallelogramShape,
    TrapezoidShape,
    ay_prime,
    ay_prime_parallelogram_shape,
    ay_trapezoid_shape,
    escalator,
    origami_check,
    orthogonal_legs_trapezoid_shape,
    parallelogram_family,
    right_isosceles_pair_shape,
    trapezoid_family,
)
from flatsurfkit.surface import SurfaceError, apply_linear, area, cone_points, genus, validate


class TestInputDomains:
    @pytest.mark.parametrize("make, error", (
        (lambda: CurveTU(1.0, 2.0), PeriodsError),
        (lambda: CurveTU(2.0, 0.0), PeriodsError),
        (lambda: CurveTU(2.0, math.nan), PeriodsError),
        (lambda: CurveS(1j), PeriodsError),
        (lambda: CurveS(0.5 - 1j), PeriodsError),
        (lambda: CurveS(complex(math.inf, 1.0)), PeriodsError),
        (lambda: CurveA(0.0), PeriodsError),
        (lambda: CurveA(-1.0), PeriodsError),
        (lambda: CurveA(complex(math.nan, 0.5)), PeriodsError),
        (lambda: TrapezoidShape(2.0, 1.0, 1.0), SurfaceError),
        (lambda: TrapezoidShape(1.0, 2.0, 0.0), SurfaceError),
        (lambda: TrapezoidShape(1.0, math.inf, 1.0), SurfaceError),
        (lambda: ParallelogramShape((1.0, 0.0), (2.0, 0.0)), SurfaceError),
        (lambda: ParallelogramShape((0, 1), (1, 0)), SurfaceError),
        (lambda: ParallelogramShape((1.0, 0.0), (0.0, math.nan)), SurfaceError),
    ), ids=["tu-t-1", "tu-u-0", "tu-u-nan", "s-i", "s-lower", "s-inf", "a-0", "a-minus-1", "a-nan",
            "trapezoid-B-below-b", "trapezoid-h-0", "trapezoid-B-inf", "parallelogram-parallel",
            "parallelogram-exact-clockwise", "parallelogram-nan"])
    def test_out_of_domain_input_cannot_be_made(self, make, error):
        # Checked on construction: no function taking these has to check again.
        with pytest.raises(error):
            make()


def _involution_census(s):
    isos = sym.isometries(s)
    names = [i.name_hint() for i in isos]
    return names.count("sigma"), names.count("rho"), names.count("tau")


class TestAYSurface:
    def test_genus(self, ay):
        assert genus(ay) == 3

    def test_s0_side_vector(self, ay):
        assert ay.polygons[0].edge_vector(0) == (ALPHA * ALPHA, ALPHA)

    def test_census(self, ay):
        from flatsurfkit import delaunay as dl

        dec = dl.decomposition(dl.delaunayize(dl.triangulate(ay)))
        assert len(dec.polygons) == 6

    def test_exact(self, ay):
        assert ay.is_exact()


class TestTrapezoidFamily:
    def test_family_invariants(self):
        for shape in (TrapezoidShape(1.0, 2.0, 1.0), TrapezoidShape(0.7, 0.9, 2.0)):
            s = trapezoid_family(shape)
            assert validate(s) == []
            assert genus(s) == 3
            assert sorted(c.angle_pi for c in cone_points(s)) == [6, 6]
            n_sigma, n_rho, n_tau = _involution_census(s)
            assert (n_sigma, n_rho, n_tau) == (2, 2, 1)

    def test_ay_shape_reproduces_ay(self, ay):
        built = trapezoid_family(ay_trapezoid_shape())
        assert sym.affine_equivalent(built, ay, IDENTITY) is not None

    def test_rectangle_case(self):
        s = trapezoid_family(TrapezoidShape(1.0, 1.0, 0.5))
        assert validate(s) == []
        assert genus(s) == 3

    @pytest.mark.parametrize("scale", (1e-200, 1e200))
    def test_float_shape_far_from_unit_scale(self, scale):
        s = trapezoid_family(TrapezoidShape(scale, 2 * scale, scale))
        assert validate(s) == [] and genus(s) == 3

    def test_degenerate_shape_rejected(self):
        with pytest.raises(SurfaceError):
            trapezoid_family(TrapezoidShape(2.0, 1.0, 1.0))
        with pytest.raises(SurfaceError):
            trapezoid_family(TrapezoidShape(1.0, 2.0, -1.0))

    def test_continuity_in_shape(self):
        # Hausdorff distance of vertex sets goes to zero as shapes converge
        base = TrapezoidShape(1.0, 2.0, 1.0)
        ref = trapezoid_family(base)
        prev = math.inf
        for eps in (1e-2, 1e-4, 1e-6):
            near = trapezoid_family(TrapezoidShape(1.0 + eps, 2.0 - eps, 1.0 + eps))
            d = 0.0
            for p, q in zip(ref.polygons, near.polygons):
                for (x0, y0), (x1, y1) in zip(p.vertices, q.vertices):
                    d = max(d, math.hypot(float(x1) - float(x0), float(y1) - float(y0)))
            assert d < prev
            prev = d
        assert prev < 1e-5


class TestParallelogramFamily:
    def test_family_invariants(self):
        shapes = [
            ParallelogramShape((1.0, 0.0), (0.3, 1.1)),
            ParallelogramShape((1.0, -0.2), (0.5, 0.8)),
            ay_prime_parallelogram_shape(),
        ]
        for shape in shapes:
            s = parallelogram_family(shape)
            assert validate(s) == []
            assert genus(s) == 3
            assert sorted(c.angle_pi for c in cone_points(s)) == [6, 6]
            isos = sym.isometries(s)
            summary = sym.group_summary(isos)
            assert summary.order == 8 and summary.dihedral
            # the four orientation-reversing involutions generating the
            # dihedral group (their axes follow the parallelogram's sides)
            reversing = [i for i in isos if i.orientation == -1]
            assert len(reversing) == 4
            assert all(sym.element_order(i) == 2 for i in reversing)
            assert len([i for i in isos if i.name_hint() == "tau"]) == 1

    def test_tiny_float_shape(self):
        # Its cross product, 1.1e-400, and its sides' squared lengths underflow.
        s = parallelogram_family(ParallelogramShape((1e-200, 0.0), (3e-201, 1.1e-200)))
        assert validate(s) == [] and genus(s) == 3
        assert sorted(c.angle_pi for c in cone_points(s)) == [6, 6]

    def test_huge_float_shape(self):
        # Its sides' squared lengths, 1e400, overflow; its vertices do not.
        s = parallelogram_family(ParallelogramShape((1e200, 0.0), (0.0, 1e200)))
        assert validate(s) == [] and genus(s) == 3
        assert sorted(c.angle_pi for c in cone_points(s)) == [6, 6]

    def test_ay_prime_shape(self):
        built = parallelogram_family(ay_prime_parallelogram_shape())
        assert built.is_exact()
        assert sym.affine_equivalent(built, ay_prime(), IDENTITY) is not None

    def test_escalator_is_six_unit_squares(self):
        s = escalator()
        assert area(s) == 6
        assert all(len(p) == 4 for p in s.polygons)
        assert genus(s) == 3

    def test_degenerate_rejected(self):
        with pytest.raises(SurfaceError):
            parallelogram_family(ParallelogramShape((1.0, 0.0), (2.0, 0.0)))


class TestAYPrime:
    def test_genus(self):
        assert genus(ay_prime()) == 3

    def test_exact(self):
        assert ay_prime().is_exact()


class TestOrigami:
    def test_torus_standard_basis_degree_one(self, torus):
        cert = origami_check(torus)
        assert cert is not None
        assert cert.degree == 1
        assert cert.basis == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))

    def test_escalator_degree_six(self):
        cert = origami_check(escalator())
        assert cert is not None and cert.degree == 6

    def test_right_isosceles_pair(self):
        cert = origami_check(parallelogram_family(right_isosceles_pair_shape()))
        assert cert is not None and cert.degree == 6

    def test_rectangle_two_mu_two(self):
        # width/height = 2*mu = 2
        cert = origami_check(trapezoid_family(TrapezoidShape(1.0, 1.0, 0.5)))
        assert cert is not None
        assert cert.degree == 10

    def test_orthogonal_legs_trapezoid(self):
        cert = origami_check(trapezoid_family(orthogonal_legs_trapezoid_shape()))
        assert cert is not None and cert.degree >= 1

    def test_ay_is_not_an_origami(self, ay):
        assert origami_check(ay) is None

    def test_ay_incommensurability_witness(self, ay):
        # two holonomy coordinates with exactly irrational ratio: the short
        # base coordinate 1 - alpha and the square side coordinate alpha^2
        # are Q-independent, so the holonomy group is not discrete.
        x = CubicNumber(1) - ALPHA          # (1, -1, 0) in the power basis
        y = ALPHA * ALPHA                   # (0, 0, 1)
        # no rational lambda with x = lambda * y: coefficient vectors are
        # linearly independent over Q
        assert (x.c0, x.c1, x.c2) == (1, -1, 0)
        assert (y.c0, y.c1, y.c2) == (0, 0, 1)
        holonomies = {v for p in ay.polygons for v in p.edge_vectors()}
        xs = {h[0] for h in holonomies}
        assert any(CubicNumber.coerce(v) == x for v in xs)
        assert any(CubicNumber.coerce(v) == y for v in xs)

    @pytest.mark.parametrize("scale", (1e-100, 1e-20, 1e20, 1e100))
    def test_float_degree_does_not_depend_on_scale(self, scale):
        cert = origami_check(trapezoid_family(TrapezoidShape(scale, 3 * scale, scale)))
        assert cert is not None and cert.degree == 12

    def test_irrational_shapes_rejected(self):
        assert origami_check(trapezoid_family(TrapezoidShape(1.0, 2.0, math.pi / 4))) is None
        assert origami_check(trapezoid_family(TrapezoidShape(1.0, math.sqrt(2), 1.0))) is None

    def test_shear_invariance(self, torus):
        cert0 = origami_check(torus)
        for m in (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((2, 1), (1, 1))):
            sheared = apply_linear(m, torus)
            cert = origami_check(sheared)
            assert cert is not None and cert.degree == cert0.degree

    def test_shear_invariance_on_escalator(self):
        cert0 = origami_check(escalator())
        sheared = apply_linear(((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))), escalator())
        cert = origami_check(sheared)
        assert cert is not None and cert.degree == cert0.degree

    @pytest.mark.parametrize("build", [escalator, lambda: parallelogram_family(right_isosceles_pair_shape())],
                             ids=["escalator", "right-isosceles-pair"])
    def test_exact_and_float_paths_agree(self, build):
        exact = origami_check(build())
        floated = origami_check(apply_linear(((1.0, 0.0), (0.0, 1.0)), build()))
        assert exact is not None and floated is not None
        assert exact.degree == floated.degree == 6
        assert exact.basis == ((1, 0), (0, 1))
        assert floated.basis == ((1.0, 0.0), (-1.0, 1.0))
        assert cross(*exact.basis) == cross(*floated.basis) == 1
        e1, e2 = exact.basis
        for v in floated.basis:  # coordinates in the exact basis, of covolume 1
            a, b = cross(v, e2), cross(e1, v)
            assert a == round(a) and b == round(b)

    def test_half_translation_rejected(self, ay):
        from flatsurfkit.surface import cut_and_reglue_square

        with pytest.raises(SurfaceError):
            origami_check(cut_and_reglue_square(ay, 0))
