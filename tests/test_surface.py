"""Surface representation: validation, invariants, the linear action, and
the genus-2 cut-and-reglue construction."""

import math
import random
from fractions import Fraction

import pytest

from flatsurfkit import surface as surface_module
from flatsurfkit.numeric import ALPHA, CubicNumber, sign
from flatsurfkit.surface import (
    HALF_TRANSLATION,
    HORIZONTAL,
    REFLECTION,
    TRANSLATION,
    VERTICAL,
    Gluing,
    Polygon,
    Surface,
    SurfaceError,
    apply_linear,
    area,
    cone_points,
    cut_and_reglue_square,
    cut_and_reglue_square as cut,
    genus,
    validate,
    vertex_cycles,
)


def shoelace(vertices):
    total = Fraction(0) if not any(isinstance(v[0], (float, CubicNumber)) for v in vertices) else 0
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        total = total + (x0 * y1 - x1 * y0)
    return total * Fraction(1, 2)


class TestValidate:
    def test_torus_valid(self, torus):
        assert validate(torus) == []

    @pytest.mark.parametrize("scale", (1e-200, 1.0, 1e200))
    def test_float_convexity_does_not_depend_on_scale(self, scale):
        # At 1e-200 the cross products underflow to 0, at 1e200 they overflow.
        square = [(0.0, 0.0), (scale, 0.0), (scale, scale), (0.0, scale)]
        assert Polygon(square).is_strictly_convex()
        assert not Polygon(square[::-1]).is_strictly_convex()
        assert not Polygon(square[:2] + [(2 * scale, 0.0), (scale, scale)]).is_strictly_convex()

    def test_ay_valid(self, ay):
        assert validate(ay) == []

    def test_edge_matched_twice(self):
        square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        bad = Surface(
            [square],
            [
                Gluing((0, 0), (0, 2), TRANSLATION),
                Gluing((0, 0), (0, 2), TRANSLATION),
                Gluing((0, 1), (0, 3), TRANSLATION),
            ],
        )
        codes = {v.code for v in validate(bad)}
        assert "edge-matched-twice" in codes

    def test_vector_mismatch(self):
        square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        bad = Surface(
            [square],
            [Gluing((0, 0), (0, 1), TRANSLATION), Gluing((0, 2), (0, 3), TRANSLATION)],
        )
        codes = {v.code for v in validate(bad)}
        assert "vector-mismatch" in codes

    def test_reflection_gluing_on_translation_surface(self):
        square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        bad = Surface(
            [square],
            [Gluing((0, 0), (0, 0), REFLECTION), Gluing((0, 2), (0, 2), REFLECTION),
             Gluing((0, 1), (0, 3), TRANSLATION)],
            kind=TRANSLATION,
        )
        codes = {v.code for v in validate(bad)}
        assert "kind-mismatch" in codes

    def test_translation_self_gluing_rejected(self):
        square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        bad = Surface(
            [square],
            [Gluing((0, 0), (0, 0), TRANSLATION), Gluing((0, 2), (0, 2), TRANSLATION),
             Gluing((0, 1), (0, 3), TRANSLATION)],
        )
        codes = {v.code for v in validate(bad)}
        assert "self-gluing" in codes

    @staticmethod
    def _bad_surfaces():
        """One minimal surface per violation code, each with no other fault."""
        square = [(0, 0), (1, 0), (1, 1), (0, 1)]

        def torus(p):
            return [Gluing((p, 0), (p, 2), TRANSLATION), Gluing((p, 1), (p, 3), TRANSLATION)]

        # Unit float hexagon with one vertex moved by 9e-10 at 60 degrees:
        # every gluing matches within FLOAT_TOL of the edge length (at most
        # 0.9 of it), but the two vertex cycles are off 2*pi by 1.56e-9.
        hexagon = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
        hexagon[1] = (hexagon[1][0] + 9e-10 * math.cos(math.pi / 3), hexagon[1][1] + 9e-10 * math.sin(math.pi / 3))
        return {
            "no-polygons": Surface([], []),
            "polygon-degenerate": Surface([Polygon([(0, 0), (1, 0)])], [Gluing((0, 0), (0, 1), TRANSLATION)]),
            "polygon-not-convex": Surface([Polygon(square[::-1])], torus(0)),
            # Edge 9 of a triangle: the vector check would index past its vertices.
            "edge-out-of-range": Surface(
                [Polygon([(0, 0), (1, 0), (0, 1)])],
                [Gluing((0, 0), (0, 9), TRANSLATION), Gluing((0, 1), (0, 2), TRANSLATION)],
            ),
            "bad-kind": Surface(
                [Polygon(square)], [Gluing((0, 0), (0, 2), "glide"), Gluing((0, 1), (0, 3), TRANSLATION)]
            ),
            "bad-surface-kind": Surface([Polygon(square)], torus(0), kind="glide"),
            "vector-mismatch": Surface(
                [Polygon(square)],
                [Gluing((0, 0), (0, 2), REFLECTION), Gluing((0, 1), (0, 3), TRANSLATION)],
                kind="half_translation",
            ),
            "disconnected": Surface([Polygon(square), Polygon(square)], torus(0) + torus(1)),
            "angle-inconsistent": Surface(
                [Polygon(hexagon)], [Gluing((0, k), (0, k + 3), TRANSLATION) for k in range(3)]
            ),
            # A corner of angle 1e-11 closed up on itself by gluing its two edges.
            "angle-too-small": Surface(
                [Polygon([(0.0, 0.0), (1.0, 0.0), (0.0, 1e-11)])],
                [Gluing((0, 0), (0, 1), TRANSLATION), Gluing((0, 2), (0, 2), REFLECTION)],
                kind="half_translation",
            ),
            # Parallel edges glued: two vertex cycles of angle pi.  The
            # vector check rejects these gluings first (see
            # test_violation_code), so this code is the fence behind it.
            "angle-odd": Surface(
                [Polygon(square), Polygon(square)],
                [Gluing((0, 0), (1, 0), TRANSLATION), Gluing((0, 1), (1, 1), TRANSLATION),
                 Gluing((0, 2), (1, 3), TRANSLATION), Gluing((0, 3), (1, 2), TRANSLATION)],
            ),
        }

    @pytest.mark.parametrize("code", (
        "no-polygons", "polygon-degenerate", "polygon-not-convex", "edge-out-of-range", "bad-kind", "bad-surface-kind",
        "vector-mismatch", "disconnected", "angle-inconsistent", "angle-too-small", "angle-odd",
    ))
    def test_violation_code(self, code, monkeypatch):
        if code == "angle-odd":
            # On a translation surface whose glued vectors match, every cone
            # angle is an even multiple of pi, so the angle-odd fence is only
            # reached with the vector check switched off.
            monkeypatch.setattr(surface_module, "vectors_match", lambda v, w: True)
        assert {v.code for v in validate(self._bad_surfaces()[code])} == {code}

    @pytest.mark.parametrize("kind", (TRANSLATION, "half_translation"))
    def test_empty_surface_is_invalid(self, kind):
        # With no polygons every other check passes vacuously, and the
        # Euler characteristic 0 of nothing reads as genus 1.
        assert [(v.code, v.detail) for v in validate(Surface([], [], kind))] == [
            ("no-polygons", "the surface has no polygons"),
        ]

    @pytest.mark.parametrize("kind", ("foo", "Translation", "reflection", ""))
    def test_unknown_surface_kind_is_invalid(self, ay, kind):
        # validate returned [] on AY of kind "foo", and genus gave 3.
        s = Surface(ay.polygons, ay.gluings, kind)
        assert [(v.code, v.detail) for v in validate(s)] == [
            ("bad-surface-kind", f"unknown surface kind {kind!r}"),
        ]
        assert validate(Surface(ay.polygons, ay.gluings, HALF_TRANSLATION)) == []

    def test_empty_surface_with_a_gluing_is_invalid(self):
        s = Surface([], [Gluing((0, 0), (0, 1), TRANSLATION)])
        assert {v.code for v in validate(s)} == {"no-polygons", "edge-out-of-range"}

    @pytest.mark.parametrize("ref", ((0, 9), (0, 4), (0, -1), (1, 0), (-1, 0)))
    def test_edge_out_of_range(self, ref):
        # (0, -1) would alias edge (0, 2) through Python's negative indexing.
        s = Surface(
            [Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])],
            [Gluing((0, 0), (0, 2), TRANSLATION), Gluing((0, 1), ref, TRANSLATION),
             Gluing((0, 3), (0, 3), REFLECTION)],
            kind="half_translation",
        )
        assert [(v.code, v.detail) for v in validate(s)] == [
            ("edge-out-of-range", f"gluing (0, 1)~{ref} names no edge {ref}"),
        ]

    @pytest.mark.parametrize("side", (1.0, 1e-11, 1e11))
    def test_vector_check_is_scale_free(self, side):
        # A vertical edge glued to a horizontal one is a mismatch at every
        # scale; an absolute tolerance let edges under 1e-9 match anything.
        square = Polygon([(0.0, 0.0), (side, 0.0), (side, side), (0.0, side)])
        s = Surface(
            [square, square],
            [Gluing((0, 0), (0, 2), TRANSLATION), Gluing((0, 1), (1, 0), TRANSLATION),
             Gluing((0, 3), (1, 2), TRANSLATION), Gluing((1, 1), (1, 3), TRANSLATION)],
        )
        assert [(v.code, v.detail) for v in validate(s)] == [
            ("vector-mismatch", "translation gluing (0, 1)~(1, 0) edges not antiparallel"),
            ("vector-mismatch", "translation gluing (0, 3)~(1, 2) edges not antiparallel"),
        ]

    @pytest.mark.parametrize("side", (1.0, 1e-11, 1e11))
    def test_vector_check_tolerates_relative_rounding(self, side):
        # A mismatch of half FLOAT_TOL of the edge length passes at every scale.
        nudged = side * (1 + 5e-10)
        s = Surface(
            [Polygon([(0.0, 0.0), (side, 0.0), (nudged, side), (0.0, side)])],
            [Gluing((0, 0), (0, 2), TRANSLATION), Gluing((0, 1), (0, 3), TRANSLATION)],
        )
        assert validate(s) == []


class TestVertexCycles:
    def test_torus_single_regular_point(self, torus):
        cones = vertex_cycles(torus)
        assert len(cones) == 1 and cones[0].angle_pi == 2

    def test_ay_two_6pi_points(self, ay):
        assert sorted(c.angle_pi for c in cone_points(ay)) == [6, 6]

    def test_gauss_bonnet(self, ay, torus):
        for s in (ay, torus):
            total = sum(c.angle_pi - 2 for c in vertex_cycles(s))
            assert total == 2 * (2 * genus(s) - 2)

    def test_kept_cones_equal_a_fresh_computation(self):
        # nothing is kept on the surface: each call computes the cones again
        # and returns a fresh list, equal to that of a fresh copy
        from flatsurfkit.constructions import ay_prime, escalator

        for s in (ay_prime(), escalator(), cut(ay_prime(), 0)):
            first = vertex_cycles(s)
            first.append(None)  # a fresh list: the kept cones do not change
            kept = vertex_cycles(s)
            assert kept is not vertex_cycles(s)
            assert kept == vertex_cycles(Surface(s.polygons, s.gluings, s.kind)) == first[:-1]


def _rotation_product(s, cycle):
    """The exact product of conj(out) * back over a cycle's corners, out and
    back the corner's two edge vectors: a complex number whose argument is
    the cycle's angle."""
    re, im = 1, 0
    for p, i in cycle:
        poly = s.polygons[p]
        (ox, oy), (bx, by) = poly.edge_vector(i), poly.edge_vector((i - 1) % len(poly))
        cr, ci = -(ox * bx + oy * by), -(ox * by - oy * bx)
        re, im = re * cr - im * ci, re * ci + im * cr
    return re, im


def _certificate_corpus(seed):
    """Exact surfaces: AY, AY' and the escalator, each under seeded shears
    with |k| <= 20, all of them cut at square 0, the folded cut of the unit
    torus, and seeded rational trapezoid and parallelogram family members."""
    from flatsurfkit.constructions import (
        ParallelogramShape, _trapezoid_scheme, ay_prime, ay_surface, escalator, parallelogram_family)

    rng = random.Random(seed)
    out = []
    for base in (ay_surface(), ay_prime(), escalator()):
        out += [base, cut(base, 0, VERTICAL)]
        for k in rng.sample([k for k in range(-20, 21) if k], 3):
            out += [apply_linear(((1, k), (0, 1)), base), apply_linear(((1, 0), (k, 1)), base)]
    out += [cut(s, 0) for s in out]
    one = Fraction(1)
    out.append(cut(Surface([Polygon([(0, 0), (one, 0), (one, one), (0, one)])],
                           [Gluing((0, 0), (0, 2), TRANSLATION), Gluing((0, 1), (0, 3), TRANSLATION)]), 0))

    def frac(lo=1):
        return Fraction(rng.randint(lo, 30), rng.randint(1, 30))

    while len(out) < 60:
        p = frac()
        out.append(_trapezoid_scheme(p, p + frac(0), frac()))
        sides = (frac(), frac(-30)), (frac(-30), frac(-30))
        if sides[0][0] * sides[1][1] > sides[0][1] * sides[1][0]:
            out.append(parallelogram_family(ParallelogramShape(*sides)))
    return out


class TestConeCertificate:
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_rounded_angles_are_the_certified_multiples(self, seed):
        # The exact certificate that vertex_cycles once took on exact input:
        # the rotation product of each cycle is real, with sign (-1)**k, for
        # the k that the rounded double angle sum gives.
        for s in _certificate_corpus(seed):
            assert validate(s) == []
            cones = vertex_cycles(s)
            assert sum(c.angle_pi - 2 for c in cones) == 2 * (2 * genus(s) - 2)
            for c in cones:
                if c.is_fold:
                    continue
                re, im = _rotation_product(s, c.corners)
                assert sign(im) == 0 and sign(re) == (-1) ** c.angle_pi
                assert c.angle == pytest.approx(c.angle_pi * math.pi, abs=1e-12)


class TestGenus:
    @pytest.mark.parametrize("kind", (TRANSLATION, "half_translation"))
    def test_no_polygons_raises(self, kind):
        # chi = 0 of nothing read as genus 1
        with pytest.raises(SurfaceError, match="the surface has no polygons"):
            genus(Surface([], [], kind))

    def test_ay_euler_data(self, ay):
        assert len(ay.polygons) == 6
        assert len(ay.gluings) == 12
        assert len(vertex_cycles(ay)) == 2
        assert genus(ay) == 3

    def test_torus(self, torus):
        assert genus(torus) == 1


class TestArea:
    def test_torus(self, torus):
        assert area(torus) == 1

    def test_ay_matches_shoelace_oracle(self, ay):
        a = ALPHA
        t0 = [
            (CubicNumber(0), CubicNumber(0)),
            (CubicNumber(1) - a, CubicNumber(1) - a),
            (CubicNumber(1) - a - a * a, CubicNumber(1)),
            (-a, a * a),
        ]
        expected = 2 * (a ** 4 + a * a) + 4 * shoelace(t0)
        assert area(ay) == expected

    def test_float_area_is_the_shoelace_at_any_scale(self):
        from flatsurfkit.constructions import ay_trapezoid_shape, trapezoid_family

        for p in trapezoid_family(ay_trapezoid_shape()).polygons:
            # Bit for bit the plain shoelace at unit scale, exactly scaled by
            # a power of two, and inf, not NaN, beyond the double range.
            assert repr(p.area()) == repr(shoelace(p.vertices))
            for k in (-400, 400):
                scaled = Polygon([(math.ldexp(x, k), math.ldexp(y, k)) for x, y in p.vertices])
                assert scaled.area() == math.ldexp(p.area(), 2 * k)
            huge = Polygon([(x * 1e200, y * 1e200) for x, y in p.vertices])
            assert huge.area() == math.inf

    def test_linear_map_preserves_area_when_unimodular(self, ay):
        m = ((ALPHA.inverse(), CubicNumber(0)), (CubicNumber(0), ALPHA))
        assert area(apply_linear(m, ay)) == area(ay)


class TestEquality:
    def test_differences(self, torus):
        # kind, polygon count and gluings each tell surfaces apart
        assert torus == Surface(torus.polygons, torus.gluings[::-1])
        assert torus != Surface(torus.polygons, torus.gluings, HALF_TRANSLATION)
        assert torus != Surface(torus.polygons * 2, torus.gluings)
        assert torus != Surface(torus.polygons, [Gluing(g.edge_a, g.edge_b, REFLECTION) for g in torus.gluings])

    def test_not_a_surface(self, torus):
        assert torus.__eq__(torus.polygons[0]) is NotImplemented
        assert torus != torus.polygons[0]


class TestApplyLinear:
    def test_identity_is_same_data(self, ay):
        assert apply_linear(((1, 0), (0, 1)), ay) == ay

    def test_composition(self, ay):
        m1 = ((Fraction(2), Fraction(1)), (Fraction(0), Fraction(1)))
        m2 = ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)))
        lhs = apply_linear(m2, apply_linear(m1, ay))
        m21 = ((m2[0][0] * m1[0][0] + m2[0][1] * m1[1][0], m2[0][0] * m1[0][1] + m2[0][1] * m1[1][1]),
               (m2[1][0] * m1[0][0] + m2[1][1] * m1[1][0], m2[1][0] * m1[0][1] + m2[1][1] * m1[1][1]))
        assert lhs == apply_linear(m21, ay)

    def test_area_scales_by_determinant(self, torus):
        m = ((Fraction(3), Fraction(1)), (Fraction(1), Fraction(2)))
        assert area(apply_linear(m, torus)) == 5

    def test_singular_matrix_rejected(self, torus):
        with pytest.raises(SurfaceError):
            apply_linear(((1, 1), (1, 1)), torus)

    def test_float_determinant_that_underflows(self):
        # det = 1e-400 is 0 in doubles; the rows decide it at their own scales.
        torus = Surface([Polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])],
                        [Gluing((0, 0), (0, 2), TRANSLATION), Gluing((0, 1), (0, 3), TRANSLATION)])
        for m, flipped in ((((1e-200, 0.0), (0.0, 1e-200)), False), (((0.0, 1e-200), (1e-200, 0.0)), True)):
            image = apply_linear(m, torus)
            assert validate(image) == []
            assert image.gluings[0].edge_a == ((0, 3) if flipped else (0, 0))
        with pytest.raises(SurfaceError, match="singular"):
            apply_linear(((1e-200, 2e-200), (0.5e-200, 1e-200)), torus)

    def test_orientation_reversing_stays_valid(self, ay):
        image = apply_linear(((-1, 0), (0, 1)), ay)
        assert validate(image) == []
        assert genus(image) == 3


class TestCutAndReglue:
    def test_ay_gives_genus_two_with_four_3pi_cones(self, ay):
        for axis in (HORIZONTAL, VERTICAL):
            xi = cut(ay, 0, axis)
            assert validate(xi) == []
            assert xi.kind == "half_translation"
            assert genus(xi) == 2
            assert sorted(c.angle_pi for c in cone_points(xi)) == [3, 3, 3, 3]

    def test_torus_pillowcase(self, torus):
        # cutting the torus folds both edges: the quotient recount gives a
        # sphere with four pi cone points
        pillow = cut(torus, 0, HORIZONTAL)
        assert validate(pillow) == []
        assert genus(pillow) == 0
        assert sorted(c.angle_pi for c in vertex_cycles(pillow)) == [1, 1, 1, 1]

    def test_ay_prime_analogue(self):
        from flatsurfkit.constructions import ay_prime

        sigma = cut(ay_prime(), 0, HORIZONTAL)
        assert validate(sigma) == []
        assert genus(sigma) == 2
        assert sorted(c.angle_pi for c in cone_points(sigma)) == [3, 3, 3, 3]

    def test_not_a_parallelogram_rejected(self, ay):
        # polygon 2 of the AY surface is a trapezoid
        with pytest.raises(SurfaceError):
            cut(ay, 2, HORIZONTAL)

    @pytest.mark.parametrize("make, square, axis, message", (
        (lambda ay: ay, 6, HORIZONTAL, "no polygon with index 6"),
        (lambda ay: ay, -1, HORIZONTAL, "no polygon with index -1"),
        (lambda ay: Surface([Polygon([(0, 0), (1, 0), (0, 1)])], []), 0, HORIZONTAL, "not a quadrilateral"),
        (lambda ay: ay, 0, "diagonal", "unknown axis 'diagonal'"),
        (lambda ay: cut(ay, 0, HORIZONTAL), 0, HORIZONTAL, "not translation-glued"),
    ), ids=["index-past-end", "negative-index", "triangle", "unknown-axis", "cut-twice"])
    def test_errors_name_the_cause(self, ay, make, square, axis, message):
        with pytest.raises(SurfaceError, match=message):
            cut(make(ay), square, axis)


class TestCornerCount:
    def test_corners_equal_twice_gluings(self, ay, torus):
        for s in (ay, torus):
            corners = sum(len(p) for p in s.polygons)
            folded = sum(1 for g in s.gluings if g.is_fold)
            assert corners == 2 * len(s.gluings) - folded
