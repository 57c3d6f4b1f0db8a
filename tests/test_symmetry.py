"""Isometry groups, fixed points, and affine equivalences."""

import math
import random
from fractions import Fraction

import pytest

from flatsurfkit.numeric import (
    ALPHA,
    FLOAT_TOL,
    IDENTITY,
    CubicNumber,
    cross,
    dot,
    is_exact,
    mat_det,
    mat_inv,
    mat_mul,
    mat_transpose,
    mat_vec,
    scaled_points,
    sign,
    vec_neg,
    vec_scale,
    vec_sub,
    vectors_match,
)
from flatsurfkit import symmetry as sym
from flatsurfkit.constructions import (
    ParallelogramShape,
    TrapezoidShape,
    ay_prime,
    ay_trapezoid_shape,
    ay_prime_parallelogram_shape,
    ay_surface,
    escalator,
    orthogonal_legs_trapezoid_shape,
    parallelogram_family,
    trapezoid_family,
)
from flatsurfkit.surface import (
    HORIZONTAL,
    TRANSLATION,
    VERTICAL,
    Gluing,
    Polygon,
    Surface,
    SurfaceError,
    apply_linear,
    cone_points,
    corner_cycles,
    cut_and_reglue_square,
)


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

    def test_composition_across_surfaces_raises(self, ay_isometries, escalator_isometries):
        with pytest.raises(SurfaceError, match="different surfaces"):
            sym.compose(ay_isometries[0], escalator_isometries[0])

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
                abs(float(g[i][j]) - (1.0 if i == j else 0.0)) < 1e-12
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


def _perm_isometry(perm):
    """A hand-built Isometry: group_summary reads its flag permutation alone."""
    return sym.Isometry(None, None, IDENTITY, 1, perm)


class TestGroupSummaryTable:
    # Each table is built from one itemgetter per permutation; on fewer than
    # two flags itemgetter would not return a tuple.
    @pytest.mark.parametrize("perms, want", [
        ([()], sym.GroupSummary(1, (1,), True, False)),
        ([(0,)], sym.GroupSummary(1, (1,), True, False)),
        ([(0, 1)], sym.GroupSummary(1, (1,), True, False)),
        ([(0, 1), (1, 0)], sym.GroupSummary(2, (1, 2), True, False)),
        ([(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)], sym.GroupSummary(4, (1, 2, 2, 2), True, True)),
        ([(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2), (3, 2, 1, 0), (0, 3, 2, 1), (1, 0, 3, 2),
          (2, 1, 0, 3)], sym.GroupSummary(8, (1, 2, 2, 2, 2, 2, 4, 4), False, True)),
        ([], sym.GroupSummary(0, (), True, False)),
    ], ids=["0-flag", "1-flag", "2-flag-trivial", "2-flag-swap", "klein-four", "square", "empty"])
    def test_hand_built_groups(self, perms, want):
        assert sym.group_summary([_perm_isometry(p) for p in perms]) == want

    @pytest.mark.parametrize("perms", [[(1, 0)], [(0, 1, 2), (1, 2, 0)]], ids=["2-flag", "3-flag"])
    def test_a_list_not_closed_raises(self, perms):
        with pytest.raises(SurfaceError, match="not closed under composition"):
            sym.group_summary([_perm_isometry(p) for p in perms])


def _census(s):
    """Group order, element orders, and the fixed segments and their
    components of each orientation-reversing element."""
    isos = sym.isometries(s)
    summary = sym.group_summary(isos)
    fixed = [sym.fixed_points(i) for i in isos if i.orientation == -1]
    return summary.order, summary.element_orders, summary.dihedral, [(len(f.segments), f.segment_components)
                                                                     for f in fixed]


def test_rational_and_int_coordinates_give_one_census():
    # triangulate makes integral rationals ints, so the escalator's Fraction
    # coordinates and their ints run the same exact search.
    esc = escalator()
    ints = Surface([Polygon([(int(x), int(y)) for x, y in p.vertices]) for p in esc.polygons], esc.gluings, esc.kind)
    shear = ((1, 0), (-7, 1))
    got = _census(apply_linear(shear, esc))
    assert got == _census(apply_linear(shear, ints))
    assert got[0] == 24 and not got[2]


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

    @pytest.mark.parametrize("k", (-340, 520))
    def test_float_group_does_not_depend_on_scale(self, k):
        # At 2**-340 the edges' squared lengths underflow, at 2**520 they
        # overflow; the search works on the edge vectors scaled back.
        unit = trapezoid_family(TrapezoidShape(1.0, 2.0, 1.0))
        scaled = apply_linear(((2.0 ** k, 0), (0, 2.0 ** k)), unit)
        want, got = sym.isometries(unit), sym.isometries(scaled)
        assert sym.group_summary(got) == sym.group_summary(want)
        assert [i.derivative_floats() for i in got] == [i.derivative_floats() for i in want]

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


# -- the fixed-locus reference ----------------------------------------------------------
#
# The float fixed-locus computation that `fixed_points` replaced, kept as a
# reference: it solves for each self-cell's fixed point or clips the fixed
# line of x -> Dx + t to the cell in floats, and joins segment ends by
# float proximity.


def _ref_self_cells(iso):
    for p, poly in enumerate(iso.source.polygons):
        q, j0 = iso.image((p, 0))
        if q == p:
            yield p, vec_sub(poly.vertices[j0], mat_vec(iso.derivative, poly.vertices[0]))


def _ref_point_in_interior(poly, x):
    for i in range(len(poly)):
        if sign(cross(poly.edge_vector(i), vec_sub(x, poly.vertices[i]))) <= 0:
            return False
    return True


def _ref_edges_onto_partner(iso):
    s = iso.source
    for g in s.gluings:
        p, i = g.edge_a
        q, j = iso.image((p, i))
        if iso.orientation == -1:
            j = (j - 1) % len(iso.target.polygons[q])
        if (q, j) == s.partner((p, i)):
            poly = s.polygons[p]
            v0, v1 = poly.vertices[i], poly.vertices[(i + 1) % len(poly)]
            yield p, (float(v0[0]), float(v0[1])), (float(v1[0]), float(v1[1]))


def _ref_reflection_axis_direction(deriv):
    d00, d01 = deriv[0]
    d10, d11 = deriv[1]
    u = (d01, 1 - d00)
    if sign(u[0]) != 0 or sign(u[1]) != 0:
        return u
    return (1 - d11, d10)


def _ref_fixed_line_in_cell(iso, p, t):
    u = _ref_reflection_axis_direction(iso.derivative)
    w = (-u[1], u[0])
    if sign(cross(w, t), FLOAT_TOL) != 0:
        return None
    x0 = vec_scale(Fraction(1, 2), t)
    poly = iso.source.polygons[p]
    lo_f, hi_f = -math.inf, math.inf
    for i in range(len(poly)):
        e = poly.edge_vector(i)
        af, bf = float(cross(e, u)), float(cross(e, vec_sub(x0, poly.vertices[i])))
        if abs(af) < 1e-15:
            if bf < -1e-12:
                return None
            continue
        s_bound = -bf / af
        if af > 0:
            lo_f = max(lo_f, s_bound)
        else:
            hi_f = min(hi_f, s_bound)
    if lo_f >= hi_f - 1e-12:
        return None
    uf = (float(u[0]), float(u[1]))
    x0f = (float(x0[0]), float(x0[1]))
    return (x0f[0] + lo_f * uf[0], x0f[1] + lo_f * uf[1]), (x0f[0] + hi_f * uf[0], x0f[1] + hi_f * uf[1])


def reference_fixed_points(iso):
    s = iso.source
    if iso.is_identity():
        return sym.FixedLocus(all_points=True)
    locus = sym.FixedLocus()
    cycles = corner_cycles(s)
    cycle_of = {c: k for k, cyc in enumerate(cycles) for c in cyc}

    if iso.orientation == 1:
        for p, t in _ref_self_cells(iso):
            d = iso.derivative
            m = ((1 - d[0][0], -d[0][1]), (-d[1][0], 1 - d[1][1]))
            if sign(mat_det(m), FLOAT_TOL) == 0:
                continue
            x = mat_vec(mat_inv(m), t)
            if _ref_point_in_interior(s.polygons[p], x):
                locus.points.append(sym.LocatedPoint(p, (float(x[0]), float(x[1])), "interior"))
        for p, v0, v1 in _ref_edges_onto_partner(iso):
            mid = ((v0[0] + v1[0]) / 2, (v0[1] + v1[1]) / 2)
            locus.points.append(sym.LocatedPoint(p, mid, "edge-midpoint"))
        for k, cyc in enumerate(cycles):
            if cycle_of[iso.image(cyc[0])] == k:
                p, i = cyc[0]
                v = s.polygons[p].vertices[i]
                locus.points.append(sym.LocatedPoint(p, (float(v[0]), float(v[1])), "vertex"))
        return locus

    def endpoint_key(p, xy):
        poly = s.polygons[p]
        n = len(poly)
        for i in range(n):
            v = poly.vertices[i]
            if math.hypot(float(v[0]) - xy[0], float(v[1]) - xy[1]) < FLOAT_TOL:
                return ("vertex", cycle_of[(p, i)])
        for i in range(n):
            v0, v1 = poly.vertices[i], poly.vertices[(i + 1) % n]
            ex, ey = float(v1[0]) - float(v0[0]), float(v1[1]) - float(v0[1])
            px, py = xy[0] - float(v0[0]), xy[1] - float(v0[1])
            ll = ex * ex + ey * ey
            t = (px * ex + py * ey) / ll
            d = abs(px * ey - py * ex) / math.sqrt(ll)
            if d < FLOAT_TOL and -FLOAT_TOL <= t <= 1 + FLOAT_TOL:
                q, j = s.partner((p, i))
                if (q, j, round(1 - t, 9)) < (p, i, round(t, 9)):
                    return ("edge", q, j, round(1 - t, 9))
                return ("edge", p, i, round(t, 9))
        return ("interior", p, round(xy[0], 9), round(xy[1], 9))

    segs = []
    for p, t in _ref_self_cells(iso):
        seg = _ref_fixed_line_in_cell(iso, p, t)
        if seg is not None:
            segs.append((p, seg[0], seg[1]))
    segs.extend(_ref_edges_onto_partner(iso))
    parent = list(range(len(segs)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    keys = {}
    for idx, (p, a, b) in enumerate(segs):
        for xy in (a, b):
            k = endpoint_key(p, xy)
            if k in keys:
                ra, rb = find(keys[k]), find(idx)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
            else:
                keys[k] = idx
    locus.segments = segs
    locus.segment_components = len({find(i) for i in range(len(segs))})
    return locus


def _floated(s):
    return Surface([Polygon([(float(x), float(y)) for x, y in p.vertices]) for p in s.polygons], s.gluings, s.kind)


def _shears(rng, count):
    """count seeded shears [[1, k], [0, 1]] or [[1, 0], [k, 1]], 1 <= |k| <= 9."""
    out = []
    for _ in range(count):
        k = rng.randint(1, 9) * rng.choice((1, -1))
        out.append(((1, k), (0, 1)) if rng.random() < 0.5 else ((1, 0), (k, 1)))
    return out


def _reference_surfaces():
    ay = ay_surface()
    named = {
        "ay": ay,
        "ay-prime": ay_prime(),
        "escalator": escalator(),
        "ay-cut-horizontal": cut_and_reglue_square(ay, 0, HORIZONTAL),
        "ay-cut-vertical": cut_and_reglue_square(ay, 0, VERTICAL),
        "ay-float": _floated(ay),
        "trapezoid-1-2-1": trapezoid_family(TrapezoidShape(1, 2, 1)),
        "orthogonal-legs": trapezoid_family(orthogonal_legs_trapezoid_shape()),
        "parallelogram-a": parallelogram_family(ParallelogramShape((1.0, 0.1), (-0.3, 1.2))),
        "parallelogram-b": parallelogram_family(ParallelogramShape((1.0, 0.2), (-0.4, 1.1))),
        "parallelogram-c": parallelogram_family(ParallelogramShape((-0.2, 1.0), (-1.1, -0.4))),
        "torus": Surface(
            [Polygon([(0, 0), (Fraction(1), 0), (Fraction(1), Fraction(1)), (0, Fraction(1))])],
            [Gluing((0, 0), (0, 2), TRANSLATION), Gluing((0, 1), (0, 3), TRANSLATION)],
        ),
    }
    bases = {"ay": ay, "ay-prime": named["ay-prime"], "escalator": named["escalator"],
             "ay-cut": cut_and_reglue_square(ay, 0)}
    rng = random.Random(9)
    for name, base in bases.items():
        for k, m in enumerate(_shears(rng, 6)):
            named[f"{name}-shear-{k}"] = apply_linear(m, base)
    return named


REFERENCE_SURFACES = _reference_surfaces()


@pytest.fixture(scope="module", params=sorted(REFERENCE_SURFACES))
def surface_isometries(request):
    s = REFERENCE_SURFACES[request.param]
    return s.is_exact(), sym.isometries(s)


def _same_point(exact, a, b):
    if exact:
        return a == b
    return max(abs(a[0] - b[0]), abs(a[1] - b[1])) < 1e-9


def assert_matches_reference(exact, iso):
    got, want = sym.fixed_points(iso), reference_fixed_points(iso)
    assert got.all_points == want.all_points
    assert [(p.cell, p.kind) for p in got.points] == [(p.cell, p.kind) for p in want.points]
    for p, q in zip(got.points, want.points):
        assert _same_point(exact, p.point, q.point), (p, q)
    assert len(got.segments) == len(want.segments)
    assert got.segment_components == want.segment_components
    for (p, a, b), (q, c, d) in zip(got.segments, want.segments):
        assert p == q
        assert (_same_point(False, a, c) and _same_point(False, b, d)
                or _same_point(False, a, d) and _same_point(False, b, c)), ((a, b), (c, d))


class TestFixedLocusReference:
    def test_matches_float_reference(self, surface_isometries):
        exact, isos = surface_isometries
        for iso in isos:
            assert_matches_reference(exact, iso)

    def test_reversing_self_cells_fix_two_features(self, surface_isometries):
        _, isos = surface_isometries
        for iso in isos:
            if iso.orientation == -1:
                for p, c0 in sym._self_cells(iso):
                    n = len(iso.source.polygons[p])
                    features = sym._reflection_features(n, c0)
                    assert len(features) == 2
                    for kind, x in features:
                        # the corner map x -> c0 - x fixes corner x, or swaps the ends of edge x
                        assert (c0 - x) % n == (x if kind == "vertex" else (x + 1) % n)
                    corners = [x for kind, x in features if kind == "vertex"]
                    assert [iso.image((p, x)) for x in corners] == [(p, x) for x in corners]

    def test_reference_covers_both_orientations(self):
        isos = sym.isometries(REFERENCE_SURFACES["ay"])
        loci = [reference_fixed_points(i) for i in isos if not i.is_identity()]
        assert any(locus.points for locus in loci) and any(locus.segments for locus in loci)


class TestKeptCornerCycles:
    @pytest.mark.parametrize("build", [ay_surface, ay_prime, escalator], ids=["ay", "ay-prime", "escalator"])
    def test_kept_cycles_cannot_change(self, build):
        # fixed_points reads the cycles kept on the decomposition for every
        # isometry of the group; a caller's value cannot change them.
        isos = sym.isometries(build())
        dec = isos[0].source
        cycles = corner_cycles(dec)
        assert corner_cycles(dec) is cycles
        assert isinstance(cycles, tuple) and all(isinstance(c, tuple) for c in cycles)
        with pytest.raises(TypeError):
            cycles[0] = ()
        with pytest.raises(AttributeError):
            cycles[0].append((0, 0))
        assert sorted(c for cyc in cycles for c in cyc) == dec.edge_refs()
        for iso in isos:
            assert_matches_reference(True, iso)
        assert corner_cycles(dec) is cycles


# -- the isometry search reference ------------------------------------------------------
#
# The search that the label walk replaced, kept as a reference: every image
# corner whose Gram entries match those of flag (0, 0) gives, per
# orientation, a derivative; an orthogonal one is multiplied into every edge
# vector while the flag map is extended over the cells and gluings.


def _ref_is_orthogonal(m):
    g = mat_mul(mat_transpose(m), m)
    residual = (g[0][0] - 1, g[0][1], g[1][0], g[1][1] - 1)
    return sign(sum(x * x for x in residual), FLOAT_TOL * FLOAT_TOL) == 0


def _ref_solve_derivative(u1, u2, w1, w2):
    u = ((u1[0], u2[0]), (u1[1], u2[1]))
    if sign(mat_det(u)) == 0:
        return None
    w = ((w1[0], w2[0]), (w1[1], w2[1]))
    return mat_mul(w, mat_inv(u))


def _ref_corner_edges(s, flag):
    p, i = flag
    poly = s.polygons[p]
    return poly.edge_vector(i), poly.edge_vector((i - 1) % len(poly))


def _ref_propagate(a, b, deriv, orientation, image):
    off_a, off_b = sym._offsets(a), sym._offsets(b)
    perm = [None] * off_a[-1]
    queue = [(0, *image)]
    while queue:
        p, q, c0 = queue.pop()
        if perm[off_a[p]] is not None:
            if perm[off_a[p]] != off_b[q] + c0:
                return None
            continue
        poly_a, poly_b = a.polygons[p], b.polygons[q]
        n = len(poly_a)
        if len(poly_b) != n:
            return None
        for x in range(n):
            perm[off_a[p] + x] = off_b[q] + (c0 + orientation * x) % n
            if orientation == 1:
                m = (c0 + x) % n
                want = poly_b.edge_vector(m)
            else:
                m = (c0 - x - 1) % n
                want = vec_neg(poly_b.edge_vector(m))
            if not vectors_match(mat_vec(deriv, poly_a.edge_vector(x)), want):
                return None
            if a.gluing_kind((p, x)) != b.gluing_kind((q, m)):
                return None
            p2, x2 = a.partner((p, x))
            q2, m2 = b.partner((q, m))
            n2 = len(b.polygons[q2])
            c2 = (m2 - x2) % n2 if orientation == 1 else (m2 + 1 + x2) % n2
            queue.append((p2, q2, c2))
    if None in perm:
        return None
    return tuple(perm)


def reference_isometries_between(dec_a, dec_b):
    """(perm, orientation, derivative) of every isometry, ordered as isometries_between."""
    out = []
    u1, u2 = _ref_corner_edges(dec_a, (0, 0))
    gram = (dot(u1, u1), dot(u2, u2), dot(u1, u2))
    n1, n2 = float(gram[0]), float(gram[1])
    tols = (2 * FLOAT_TOL * n1, 2 * FLOAT_TOL * n2, 2 * FLOAT_TOL * math.sqrt(n1 * n2))
    for q, poly in enumerate(dec_b.polygons):
        for j in range(len(poly)):
            w_out, w_in = _ref_corner_edges(dec_b, (q, j))
            g_out, g_in, g_cross = dot(w_out, w_out), dot(w_in, w_in), dot(w_out, w_in)
            if sign(g_cross - gram[2], tols[2]) != 0:
                continue
            for orientation in (1, -1):
                g1, g2 = (g_out, g_in) if orientation == 1 else (g_in, g_out)
                if sign(g1 - gram[0], tols[0]) != 0 or sign(g2 - gram[1], tols[1]) != 0:
                    continue
                if orientation == 1:
                    deriv = _ref_solve_derivative(u1, u2, w_out, w_in)
                else:
                    deriv = _ref_solve_derivative(u1, u2, vec_neg(w_in), vec_neg(w_out))
                if deriv is None or not _ref_is_orthogonal(deriv):
                    continue
                perm = _ref_propagate(dec_a, dec_b, deriv, orientation, (q, j))
                if perm is not None:
                    out.append((perm, orientation, deriv))
    out.sort(key=lambda t: (t[0][0], -t[1]))
    return out


def _rotation(theta):
    return ((math.cos(theta), -math.sin(theta)), (math.sin(theta), math.cos(theta)))


def _reference_pairs():
    """Pairs of decompositions, by name, as (dec_a, dec_b) builders."""
    ay = ay_surface()
    pairs = {}

    def self_pair(name, s):
        pairs[name] = lambda: (sym.decompose(s),) * 2

    bases = {"ay": ay, "ay-prime": ay_prime(), "escalator": escalator(), "ay-cut": cut_and_reglue_square(ay, 0)}
    rng = random.Random(12)
    for name, base in bases.items():
        self_pair(name, base)
        for k, m in enumerate(_shears(rng, 3)):
            self_pair(f"{name}-shear-{k}", apply_linear(m, base))
    float_ay = _floated(ay)
    self_pair("ay-float", float_ay)
    rot = _rotation(0.73)
    pairs["ay-float-rotated"] = lambda: (sym.decompose(apply_linear(rot, float_ay)),
                                         apply_linear(rot, sym.decompose(float_ay)))
    self_pair("trapezoid-1-2-1", trapezoid_family(TrapezoidShape(1, 2, 1)))

    def affine_pair(name, m, a, b):
        pairs[name] = lambda: (sym.decompose(apply_linear(m, a)), sym.decompose(b))

    zero, one = CubicNumber(0), CubicNumber(1)
    affine_pair("pseudo-anosov", ((ALPHA.inverse(), zero), (zero, ALPHA)), ay, ay)
    affine_pair("diag21", ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))), ay, ay)
    affine_pair("ay-to-ay-prime", ((ALPHA.inverse(), zero), (zero, one)), ay, ay_prime())
    affine_pair("parallelogram-to-ay-prime", IDENTITY, parallelogram_family(ay_prime_parallelogram_shape()),
                ay_prime())
    return pairs


REFERENCE_PAIRS = _reference_pairs()


class TestIsometrySearchReference:
    @pytest.mark.parametrize("name", sorted(REFERENCE_PAIRS))
    def test_matches_reference_search(self, name):
        dec_a, dec_b = REFERENCE_PAIRS[name]()
        got = [(iso.perm, iso.orientation, iso.derivative) for iso in sym.isometries_between(dec_a, dec_b)]
        assert got == reference_isometries_between(dec_a, dec_b)
        if name != "diag21":
            assert got

    def test_exact_derivatives_stay_exact(self):
        dec_a, dec_b = REFERENCE_PAIRS["pseudo-anosov"]()
        for iso in sym.isometries_between(dec_a, dec_b):
            assert not any(isinstance(x, float) for row in iso.derivative for x in row)


_UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


def _origami(r, u):
    """Unit squares, square i's right edge glued to square r[i]'s left and its top to u[i]'s bottom."""
    return Surface([Polygon(_UNIT_SQUARE) for _ in r],
                   [g for i in range(len(r)) for g in (Gluing((i, 1), (r[i], 3), TRANSLATION),
                                                       Gluing((i, 2), (u[i], 0), TRANSLATION))])


def _one_surface_inputs():
    ay = ay_surface()
    bases = [ay, ay_prime(), escalator(), cut_and_reglue_square(ay, 0)]
    named = {"ay": ay, "ay-prime": bases[1], "escalator": bases[2], "ay-cut": bases[3],
             "float-trapezoid": trapezoid_family(ay_trapezoid_shape())}
    for k, (base, m) in enumerate(zip(bases, _shears(random.Random(42), 4))):
        named[f"shear-{k}"] = apply_linear(m, base)
    return named


ONE_SURFACE_INPUTS = _one_surface_inputs()


class TestOneSurfaceSearch:
    # isometries(s) searches one decomposition against itself on one copy of
    # its flag tables; two separately built decompositions take the
    # two-surface path on two copies.
    @pytest.mark.parametrize("name", sorted(ONE_SURFACE_INPUTS))
    def test_same_isometries_as_two_decompositions(self, name):
        s = ONE_SURFACE_INPUTS[name]
        dec_a, dec_b = sym.decompose(s), sym.decompose(s)
        assert dec_a is not dec_b and dec_a == dec_b
        got, want = sym.isometries(s), sym.isometries_between(dec_a, dec_b)
        assert len(got) > 1
        assert [i.perm for i in got] == [i.perm for i in want]
        assert [i.orientation for i in got] == [i.orientation for i in want]
        assert [i.derivative for i in got] == [i.derivative for i in want]

    @pytest.mark.parametrize("name", ["ay", "float-trapezoid", "shear-2"])
    def test_one_copy_labels_as_two(self, name):
        # Float Gram values group the same in one copy as in two (_float_ids),
        # so one copy's labels are two copies' first half, and second half.
        dec = sym.decompose(ONE_SURFACE_INPUTS[name])
        tables = [list(sym._flags(*copies)) for copies in ((dec,), (dec, dec))]
        for t in tables:
            if not all(is_exact(x) for e in t[0] for x in e):
                t[0] = scaled_points(t[0])
        (edge1, nxt1, prev1, _, glue1), (edge2, nxt2, prev2, _, glue2) = tables
        assert edge2 == edge1 * 2
        one = sym._corner_labels(edge1, nxt1, prev1, glue1)
        assert sym._corner_labels(edge2, nxt2, prev2, glue2) == (one[0] * 2, one[1] * 2)


class TestLabelWalk:
    def test_equal_labels_do_not_make_an_isometry(self):
        # Six unit squares, one 10 pi cone point, against the escalator's two
        # 6 pi cone points: every corner carries the same label, so only the
        # combinatorics of the walk tells them apart.
        other = _origami((1, 2, 3, 4, 5, 0), (0, 1, 3, 2, 5, 4))
        assert sorted(c.angle_pi for c in cone_points(other)) == [10]
        assert sorted(c.angle_pi for c in cone_points(escalator())) == [6, 6]
        dec_a, dec_b = sym.decompose(escalator()), sym.decompose(other)
        edge, nxt, prev, _, glue = sym._flags(dec_a, dec_b)
        assert len(edge) == 2 * 24
        assert len(set().union(*sym._corner_labels(edge, nxt, prev, glue))) == 1
        assert sym.isometries_between(dec_a, dec_b) == []
        assert sym.isometries_between(dec_b, dec_a) == []
        assert len(sym.isometries_between(dec_b, dec_b)) > 0

    def test_float_values_group_within_tolerance(self):
        # Sorted: 0.5 | 1, 1 + 1e-12 | 1 + 5e-9 | 2 - 1e-12, 2.
        ids = sym._float_ids([2.0, 1.0, 1.0 + 1e-12, 0.5, 2.0 - 1e-12, 1.0 + 5e-9], relative=True)
        assert ids == [3, 1, 1, 0, 3, 2]

    def test_float_merge_chain_beyond_tolerance_raises(self):
        # 1 and 1 + 1.5e-9, and 1 + 1.5e-9 and 1 + 3e-9, are within 2 FLOAT_TOL,
        # but 1 and 1 + 3e-9 are not.
        with pytest.raises(SurfaceError, match="chain within tolerance"):
            sym._float_ids([1.0, 1.0 + 3e-9, 1.0 + 1.5e-9], relative=True)
        with pytest.raises(SurfaceError, match="chain within tolerance"):
            sym._float_ids([0.5, 0.5 + 1.5e-9, 0.5 + 3e-9], relative=False)

    def test_float_surface_with_chained_corners_raises(self):
        # A torus of two near-equilateral triangles with squared side
        # lengths 1, 1 + 1.5e-9 and 1 + 3e-9.
        x = 0.5 - 0.75e-9
        v = (x, math.sqrt(1 + 1.5e-9 - x * x))
        torus = Surface([Polygon([(0.0, 0.0), (1.0, 0.0), (1.0 + v[0], v[1]), v])],
                        [Gluing((0, 0), (0, 2), TRANSLATION), Gluing((0, 1), (0, 3), TRANSLATION)])
        dec = sym.decompose(torus)
        assert sorted(len(p) for p in dec.polygons) == [3, 3]
        with pytest.raises(SurfaceError, match="chain within tolerance"):
            sym.isometries_between(dec, dec)


# -- known defect: on half-translation surfaces the group depends on the chart signs --
#
# Gluing kinds in the corner labels, like the single derivative the reference
# search requires, depend on the chart sign `decomposition` gives each cell from
# its seed triangle.  Dropping the kind from the label (per-cell derivatives
# equal up to sign) turns both tests into passes.

_SHEARED_CUT = ((1, 0), (-20, 1))


@pytest.mark.xfail(strict=True, reason="the group of a half-translation surface depends on its cells' chart signs")
def test_sheared_cut_keeps_the_point_reflection():
    # -I commutes with every shear, and the unsheared surface has order 2.
    s = apply_linear(_SHEARED_CUT, cut_and_reglue_square(ay_surface(), 0))
    assert len(sym.isometries(s)) == 2


@pytest.mark.xfail(strict=True, reason="the group of a half-translation surface depends on its cells' chart signs")
def test_flipped_triangulation_is_isometric_to_itself():
    from flatsurfkit import delaunay as dl

    t = dl.triangulate(apply_linear(_SHEARED_CUT, cut_and_reglue_square(ay_surface(), 0)))
    plain = dl.decomposition(dl.delaunayize(t))
    flipped = dl.decomposition(dl.delaunayize(dl.flip(t, (0, 1))))
    assert sym.isometries_between(plain, flipped)
