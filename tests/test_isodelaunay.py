"""Walls, cells, and exploration of the iso-Delaunay tessellation."""

import hashlib
import logging
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flatsurfkit import delaunay as dl
from flatsurfkit import isodelaunay as iso
from flatsurfkit.numeric import FLOAT_TOL, CubicNumber, incircle_det, is_exact, sign, to_float
from flatsurfkit.surface import Gluing, Polygon, Surface, TRANSLATION


@pytest.fixture(scope="module")
def torus_tri(torus):
    return dl.triangulate(torus)


class TestWallOfHinge:
    def test_unit_square_diagonal_gives_imaginary_axis(self, torus_tri):
        # parallelogram-cocircularity oracle: M_z maps the square to a
        # parallelogram spanned by (1, 0) and (x, y), cyclic iff it is a
        # rectangle iff <(1,0), (x,y)> = x = 0
        w = iso.wall_of_hinge(torus_tri, (0, 2))
        assert isinstance(w, iso.Wall)
        assert w.normalized_floats() == (0.0, 1.0, 0.0)

    def test_wall_passes_through_base_point_when_cocircular(self, torus_tri):
        # the square-torus diagonal hinge is cocircular at z = i
        w = iso.wall_of_hinge(torus_tri, (0, 2))
        assert to_float(w.value_at(0, 1)) == 0.0

    def test_sign_oracle_random_points(self, ay):
        # for every hinge wall, the sign of a(x^2+y^2)+bx+c agrees with the
        # direct incircle determinant of the M_z-transformed hinge
        rnd = random.Random(3)
        t = dl.triangulate(ay)
        for edge in t.edges():
            w = iso.wall_of_hinge(t, edge)
            h = dl.hinge(t, edge)
            for _ in range(100 // len(t.edges()) + 3):
                x = rnd.uniform(-2.0, 2.0)
                y = rnd.uniform(0.05, 3.0)
                quad = [
                    (to_float(p[0]) + x * to_float(p[1]), y * to_float(p[1]))
                    for p in (h.p1, h.p2, h.p3, h.p4)
                ]
                det = incircle_det(*quad)
                if isinstance(w, str):
                    if w == iso.ALWAYS:
                        assert det < 1e-9
                    continue
                q = to_float(w.value_at(x, y))
                if abs(q) > 1e-9 and abs(det) > 1e-12:
                    assert (q > 0) == (det > 0)

    def test_always_classification(self):
        # a long thin triangle torus whose short diagonal hinge never flips:
        # build a hinge between two triangles of very different shape and
        # check the classifier against dense sampling on H
        poly = Polygon([(0.0, 0.0), (1.0, 0.0), (1.3, 0.7), (0.1, 0.9)])
        s = Surface(
            [poly],
            [Gluing((0, 0), (0, 2), TRANSLATION), Gluing((0, 1), (0, 3), TRANSLATION)],
        )
        t = dl.triangulate(s)
        for edge in t.edges():
            w = iso.wall_of_hinge(t, edge)
            if w in (iso.ALWAYS, iso.NEVER):
                h = dl.hinge(t, edge)
                want_neg = w == iso.ALWAYS
                for x in (-3.0, -0.5, 0.0, 0.5, 3.0):
                    for y in (0.1, 1.0, 5.0):
                        quad = [
                            (to_float(p[0]) + x * to_float(p[1]), y * to_float(p[1]))
                            for p in (h.p1, h.p2, h.p3, h.p4)
                        ]
                        det = incircle_det(*quad)
                        assert (det <= 1e-9) == want_neg


class TestCellAt:
    def test_nearby_points_same_cell(self, torus):
        a = iso.cell_at(torus, iso.HPoint(0.05, 1.2))
        b = iso.cell_at(torus, iso.HPoint(0.08, 1.1))
        assert a.key == b.key and a.comb_hash == b.comb_hash

    def test_torus_cell_is_ideal_triangle(self, torus):
        cell = iso.cell_at(torus, iso.HPoint(0.05, 1.2))
        walls = sorted(w.normalized_floats() for w in cell.walls)
        assert walls == [(0.0, 1.0, -1.0), (0.0, 1.0, 0.0), (1.0, -1.0, 0.0)]

    def test_on_wall_sample_gets_perturbed(self, torus):
        cell = iso.cell_at(torus, iso.HPoint(0.0, 1.0))  # z = i lies on walls
        assert cell.walls

    def test_unit_circle_bounds_cells_at_the_ay_vertex(self, ay):
        # z = i is a wall vertex: cells just off it (off-axis) are bounded
        # by the unit circle
        cell = iso.cell_at(ay, iso.HPoint(0.2, 0.95))
        assert any(w.normalized_floats() == (1.0, 0.0, -1.0) for w in cell.walls)

    def test_ay_cell_near_base_point(self, ay):
        cell = iso.cell_at(ay, iso.HPoint(0.0001, 1.0001))
        assert len(cell.walls) == 4
        # boundary reaches down to i: two of its walls pass through (0, 1)
        through_i = [w for w in cell.walls if sign_is_zero(w.value_at(CubicNumber(0), CubicNumber(1)))]
        assert len(through_i) == 2


def sign_is_zero(v):
    from flatsurfkit.numeric import sign, is_exact

    return sign(v) == 0 if is_exact(v) else abs(to_float(v)) < 1e-9


class TestExplore:
    def test_torus_tessellation(self, torus):
        tess = iso.explore(torus, iso.HPoint(0.05, 1.2), 1.0)
        assert len(tess.cells) >= 3
        hashes = {c.comb_hash for c in tess.cells}
        assert len(hashes) == 1  # all torus cells are combinatorially alike

    def test_cross_and_return(self, torus):
        tess = iso.explore(torus, iso.HPoint(0.05, 1.2), 0.8)
        start = iso.cell_at(torus, iso.HPoint(0.05, 1.2))
        neighbors = [b for a, b, _ in tess.adjacency if a == start.key] + [
            a for a, b, _ in tess.adjacency if b == start.key
        ]
        assert neighbors
        # crossing to a neighbor's sample and back to ours restores the key
        for cell in tess.cells:
            if cell.key in neighbors:
                back = iso.cell_at(torus, start.sample)
                assert back.key == start.key

    def test_cell_interior_sign_constant(self, ay):
        rnd = random.Random(5)
        cell = iso.cell_at(ay, iso.HPoint(0.0001, 1.0001))
        # resample the cell at random interior points: same hash
        for _ in range(10):
            x = cell.sample.x + rnd.uniform(-0.02, 0.02)
            y = cell.sample.y * (1 + rnd.uniform(0.0, 0.15))
            again = iso.cell_at(ay, iso.HPoint(x, y))
            assert again.comb_hash == cell.comb_hash and again.key == cell.key

    def test_ay_small_ball(self, ay):
        tess = iso.explore(ay, iso.HPoint(0.0001, 1.0001), 0.35)
        assert len(tess.cells) >= 3
        # mirror symmetry of the explored picture, pointwise
        for cell in tess.cells[:4]:
            mirrored = iso.cell_at(ay, iso.HPoint(-cell.sample.x, cell.sample.y))
            assert mirrored.comb_hash == cell.comb_hash

    def test_explore_is_deterministic(self, torus):
        t1 = iso.explore(torus, iso.HPoint(0.05, 1.2), 0.9)
        t2 = iso.explore(torus, iso.HPoint(0.05, 1.2), 0.9)
        assert [c.key for c in t1.cells] == [c.key for c in t2.cells]
        assert [c.comb_hash for c in t1.cells] == [c.comb_hash for c in t2.cells]
        assert t1.adjacency == t2.adjacency

    def test_int_coordinates_stay_exact(self, torus):
        # The conftest torus has Fraction coordinates; plain ints must give
        # the same exact walls, not their float images.
        square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        int_torus = Surface(
            [square],
            [Gluing((0, 0), (0, 2), TRANSLATION), Gluing((0, 1), (0, 3), TRANSLATION)],
        )
        t_int, t_frac = dl.triangulate(int_torus), dl.triangulate(torus)
        assert t_int.edges() == t_frac.edges()
        walls = [(iso.wall_of_hinge(t_int, e), iso.wall_of_hinge(t_frac, e)) for e in t_frac.edges()]
        assert any(isinstance(w, iso.Wall) for w, _ in walls)
        for w_int, w_frac in walls:
            assert w_int == w_frac
            if isinstance(w_int, iso.Wall):
                assert all(is_exact(x) for x in (w_int.a, w_int.b, w_int.c))
                assert w_int.locus_key() == w_frac.locus_key()
        a = iso.explore(int_torus, iso.HPoint(0.05, 1.2), 1.0)
        b = iso.explore(torus, iso.HPoint(0.05, 1.2), 1.0)
        assert [sorted(map(repr, c.key)) for c in a.cells] == [sorted(map(repr, c.key)) for c in b.cells]
        assert [c.comb_hash for c in a.cells] == [c.comb_hash for c in b.cells]
        assert a.adjacency == b.adjacency

    def test_budget(self, torus):
        with pytest.raises(iso.IsoDelaunayError):
            iso.explore(torus, iso.HPoint(0.05, 1.2), 2.5, cell_budget=2)


class TestExploreShortcuts:
    """explore's wall memo, known-cell short-circuit and crossing record
    against plain cell_at and a crossing from each side."""

    @pytest.fixture(scope="class")
    def exact_ball(self, ay):
        # Record the memo explore builds, to check its walls afterwards.
        memos = []

        class Recording(iso._Memo):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                memos.append(self)

        saved, iso._Memo = iso._Memo, Recording
        try:
            tess = iso.explore(ay, iso.HPoint(0.0001, 1.0001), 0.35)
        finally:
            iso._Memo = saved
        return tess, memos[0]

    @pytest.fixture(scope="class")
    def float_surface(self):
        from flatsurfkit.constructions import ay_trapezoid_shape, trapezoid_family

        return trapezoid_family(ay_trapezoid_shape())

    def test_exact_ball_counts(self, exact_ball):
        tess, _ = exact_ball
        assert (len(tess.cells), len(tess.all_walls()), len(tess.adjacency)) == (14, 23, 32)

    def test_exact_cells_match_plain_cell_at(self, ay, exact_ball):
        tess, _ = exact_ball
        for cell in tess.cells:
            again = iso.cell_at(ay, cell.sample)
            assert again.key == cell.key and again.comb_hash == cell.comb_hash

    def test_memoized_walls_match_fresh_walls(self, exact_ball, float_ball):
        tess, memo = exact_ball
        assert memo.walls
        for cell in tess.cells:
            t = cell.triangulation
            for edge in t.edges():
                h = dl.hinge(t, edge)
                assert memo.walls[(h.p2, h.p3, h.p4)] == iso.wall_of_hinge(t, edge)
        # Every cell's triangulation holds the wall of each of its edges,
        # computed from the hinge it has now.
        for cell in tess.cells + float_ball.cells:
            t = cell.triangulation
            assert set(t.edges()) <= set(t.hinge_cache)
            for edge, w in t.hinge_cache.items():
                assert w == iso.wall_of_hinge(t, edge)

    def test_float_ball_counts(self, float_surface):
        # The float path's figures today (ROADMAP item 4: it drops walls).
        # r = 2.5 is the smallest tried radius where a constraint-set
        # short-circuit on floats would merge near-duplicate cells.
        tess = iso.explore(float_surface, iso.HPoint(0.0001, 1.0001), 2.5)
        assert (len(tess.cells), len(tess.all_walls()), len(tess.adjacency)) == (279, 193, 803)

    @pytest.fixture(scope="class")
    def float_ball(self, float_surface):
        return iso.explore(float_surface, iso.HPoint(0.0001, 1.0001), 1.0)

    def test_float_ball_cells_match_plain_cell_at(self, float_surface, float_ball):
        tess = float_ball
        assert (len(tess.cells), len(tess.all_walls()), len(tess.adjacency)) == (22, 19, 62)
        for cell in tess.cells:
            again = iso.cell_at(float_surface, cell.sample)
            assert again.key == cell.key and again.comb_hash == cell.comb_hash

    def test_crossing_locates_the_verified_point(self, ay, monkeypatch):
        # _cross_wall checks a point against the cell's walls, then hands it
        # to cell_at, which must evaluate the walls at that same point.
        last = []   # the (u, v) of the latest wall-side test
        pairs = []  # [verified (u, v), the (u, v) cell_at evaluates at]
        side, cell_at, delaunayize_at = iso.Wall.side, iso.cell_at, iso.delaunayize_at

        def recording_side(wall, u, v, fu, fv):
            last[:] = [(u, v)]
            return side(wall, u, v, fu, fv)

        def recording_cell_at(s, z, _tri=None, _memo=None):
            if _tri is not None:  # a crossing, not the start
                pairs.append([last[0], None])
            return cell_at(s, z, _tri=_tri, _memo=_memo)

        def recording_delaunayize_at(t, u, v, _walls=None):
            if pairs and pairs[-1][1] is None:
                pairs[-1][1] = (u, v)
            return delaunayize_at(t, u, v, _walls=_walls)

        monkeypatch.setattr(iso.Wall, "side", recording_side)
        monkeypatch.setattr(iso, "cell_at", recording_cell_at)
        monkeypatch.setattr(iso, "delaunayize_at", recording_delaunayize_at)
        tess = iso.explore(ay, iso.HPoint(0.0001, 1.0001), 2.0)
        assert (len(tess.cells), len(tess.all_walls()), len(tess.adjacency)) == (156, 125, 468)
        # Each exact facet is crossed once, and holds two adjacency triples.
        assert len(pairs) == len(tess.adjacency) // 2
        assert [p for p in pairs if p[0] != p[1]] == []

    @pytest.mark.parametrize("exact, crossings", ((True, 36), (False, 62)))
    def test_each_exact_facet_is_crossed_once(self, ay, float_surface, exact, crossings, monkeypatch):
        # On exact input the far cell of a facet is taken from the crossing
        # record; floats cross every facet from both sides.
        calls = []
        cross_wall = iso._cross_wall

        def counting(*args):
            calls.append(args)
            return cross_wall(*args)

        monkeypatch.setattr(iso, "_cross_wall", counting)
        tess = iso.explore(ay if exact else float_surface, iso.HPoint(0.0001, 1.0001), 1.0)
        assert len(tess.adjacency) == (72 if exact else 62)
        assert len(calls) == crossings

    def test_float_crossings_are_not_reciprocal(self, float_ball):
        # Why floats do not use the crossing record (ROADMAP item 14).
        assert _nonreciprocal(float_ball) == 2

    def test_float_keys_have_one_repr(self, float_ball):
        # explore orders each adjacency pair by repr, so equal keys must
        # print alike: no -0.0 beside 0.0.
        stored = {c.key: repr(c.key) for c in float_ball.cells}
        for a, b, _ in float_ball.adjacency:
            assert repr(a) == stored[a] and repr(b) == stored[b]
        zeros = [t for c in float_ball.cells for locus, _ in c.key for t in locus if t == 0]
        assert zeros and all(math.copysign(1.0, t) > 0 for t in zeros)


def _nonreciprocal(tess):
    """The adjacencies (a, b, w) whose wall's locus does not support both a and b."""
    loci = {c.key: {w.locus_key() for w in c.walls} for c in tess.cells}
    return sum(1 for a, b, w in tess.adjacency if w.locus_key() not in loci[a] & loci[b])


def _sha16(x):
    return hashlib.sha256(repr(x).encode()).hexdigest()[:16]


def _ball_pins(tess):
    """The sha256 prefixes of a ball's cell keys, comb hashes, samples and
    adjacency."""
    return (
        _sha16([sorted(map(repr, c.key)) for c in tess.cells]),
        _sha16([c.comb_hash for c in tess.cells]),
        _sha16([(c.sample.x, c.sample.y) for c in tess.cells]),
        _sha16(sorted((sorted(map(repr, a)), sorted(map(repr, b)), repr(w.oriented_key()))
                      for a, b, w in tess.adjacency)),
    )


class TestExactBallPins:
    """Exact balls pinned by the sha256 prefixes of their cells, comb hashes,
    samples and adjacency, and the crossing record's precondition on them."""

    @pytest.fixture(scope="class", params=(
        ("ay_surface", 2.0, ("0d6a53b6d39f465e", "81b90e623896dd18", "ede19f31d758e23a", "ee695d6642ebd7d8")),
        ("ay_prime", 1.0, ("329dc1092e8b9ea3", "cc684d8d612f5957", "2e7a040f8e59325c", "ef64384f2538f7aa")),
        ("escalator", 1.0, ("bd733d32788626c7", "d9b444bb76a5d6bd", "af0b100f5ff9f218", "ed628ceedec21478")),
    ), ids=lambda p: f"{p[0]}-r{p[1]:g}")
    def ball(self, request):
        from flatsurfkit import constructions

        name, radius, pins = request.param
        surface = getattr(constructions, name)()
        return iso.explore(surface, iso.HPoint(0.0001, 1.0001), radius), pins

    def test_pins(self, ball):
        tess, pins = ball
        assert _ball_pins(tess) == pins

    def test_every_adjacency_is_reciprocal(self, ball):
        tess, _ = ball
        assert tess.adjacency and _nonreciprocal(tess) == 0


class TestFloatBallPins:
    """Float balls of the AY trapezoid pinned like TestExactBallPins, plus
    the doubles of every cell's walls.  Float crossings are not
    reciprocal, so there is no reciprocity check."""

    @pytest.fixture(scope="class", params=(
        (1.0, (22, 19, 62),
         ("d4edd43b0088c8f1", "ff91814583237291", "3cafb78a53c2903c", "39858af525a29244", "f283cde67157fdd1")),
        (2.5, (279, 193, 803),
         ("8313e14ddad51c10", "613deca70fe4cd99", "d83732644652e4cb", "76d61d551c335b0f", "7767c8603530acc1")),
    ), ids=lambda p: f"r{p[0]:g}")
    def ball(self, request):
        from flatsurfkit.constructions import ay_trapezoid_shape, trapezoid_family

        radius, counts, pins = request.param
        tess = iso.explore(trapezoid_family(ay_trapezoid_shape()), iso.HPoint(0.0001, 1.0001), radius)
        return tess, counts, pins

    def test_pins(self, ball):
        tess, counts, pins = ball
        assert (len(tess.cells), len(tess.all_walls()), len(tess.adjacency)) == counts
        got = _ball_pins(tess) + (_sha16([[w.floats() for w in c.walls] for c in tess.cells]),)
        assert got == pins


def _ref_side(wall, u, v):
    """Wall.side as computed before the double filter: the sign of the form."""
    return sign(wall.evaluate(u, v), FLOAT_TOL)


def _ref_supporting_interval(target, others):
    """_supporting_interval as computed before it was made division free:
    each bound is the quotient -const/slope in the walls' own arithmetic."""
    w = target
    vertical = w.is_vertical
    if vertical:
        # v = -c/b
        inv = Fraction(1) / w.b
        u0, du, v0, dv = 0, 1, -w.c * inv, 0
    else:
        # u = -(b v + c)/a
        inv = Fraction(1) / w.a
        u0, du, v0, dv = -w.c * inv, -w.b * inv, 0, 1
    lo = hi = None
    for w in others:
        if w is target:
            continue
        # a (u0 + s du) + b (v0 + s dv) + c <= 0
        slope = w.a * du + w.b * dv
        const = w.a * u0 + w.b * v0 + w.c
        ss = sign(slope, iso._FACET_TOL)
        if ss == 0:
            if sign(const, iso._FACET_TOL) > 0:
                return None
            continue
        bound = -const / slope
        if ss > 0:
            if hi is None or sign(bound - hi, iso._FACET_TOL) < 0:
                hi = bound
        else:
            if lo is None or sign(bound - lo, iso._FACET_TOL) > 0:
                lo = bound
    if lo is not None and hi is not None and sign(hi - lo, iso._FACET_TOL) <= 0:
        return None
    # Inside H: g(s) = u(s) - v(s)**2 > 0 somewhere on [lo, hi].
    if vertical:
        # g(u) = u - v0**2 grows with u, so its best point is hi.
        if hi is None or sign(hi - v0 * v0, iso._FACET_TOL) > 0:
            return (lo, hi)
        return None
    # g(v) = u0 + du v - v**2 is concave with its top at v = du/2.
    candidates = [x for x in (lo, hi) if x is not None]
    vertex = du / 2
    if (lo is None or sign(vertex - lo, iso._FACET_TOL) > 0) and (hi is None or sign(hi - vertex, iso._FACET_TOL) > 0):
        candidates.append(vertex)
    if any(sign(-x * x + du * x + u0, iso._FACET_TOL) > 0 for x in candidates):
        return (lo, hi)
    return None


def _same_interval(got, want):
    if want is None or got is None:
        return got is want
    return all(g == w and (g is None or to_float(g) == to_float(w)) for g, w in zip(got, want))


def _assert_facets_match_reference(walls):
    for target in walls:
        want = _ref_supporting_interval(target, walls)
        assert (iso._facet(target, walls) is None) == (want is None)
        assert _same_interval(iso._supporting_interval(target, walls), want)


class TestFilteredPredicates:
    """Wall.side and the division-free facet test against their references."""

    BALLS = {
        "ay r=2": (lambda c: c.ay_surface(), 2.0, (156, 125, 468)),
        "ay_prime r=1": (lambda c: c.ay_prime(), 1.0, (48, 38, 148)),
        "escalator r=1": (lambda c: c.escalator(), 1.0, (6, 13, 10)),
        # Float walls keep their float decisions.
        "float ay r=1": (lambda c: c.trapezoid_family(c.ay_trapezoid_shape()), 1.0, (22, 19, 62)),
    }

    @pytest.fixture(scope="class", params=sorted(BALLS))
    def ball(self, request):
        """(explored tessellation, the same with the references patched in,
        predicate calls that disagreed with the reference, counts)."""
        from flatsurfkit import constructions

        build, radius, counts = self.BALLS[request.param]
        s = build(constructions)
        z0 = iso.HPoint(0.0001, 1.0001)
        side, facet, interval, filtered_sign = (
            iso.Wall.side, iso._facet, iso._supporting_interval, iso.filtered_sign)
        bad = []
        seen = {"side": 0, "facet": 0, "interval": 0, "undecided": 0}

        def checking_side(wall, u, v, fu, fv):
            got = side(wall, u, v, fu, fv)
            seen["side"] += 1
            if got != _ref_side(wall, u, v):
                bad.append(("side", wall, u, v))
            return got

        def checking_facet(target, others):
            got = facet(target, others)
            seen["facet"] += 1
            if (got is None) != (_ref_supporting_interval(target, others) is None):
                bad.append(("facet", target))
            return got

        def checking_interval(target, others):
            got = interval(target, others)
            seen["interval"] += 1
            if not _same_interval(got, _ref_supporting_interval(target, others)):
                bad.append(("interval", target))
            return got

        def counting_filtered_sign(x, mag, eps):
            got = filtered_sign(x, mag, eps)
            seen["undecided"] += not got
            return got

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(iso.Wall, "side", checking_side)
            mp.setattr(iso, "_facet", checking_facet)
            mp.setattr(iso, "_supporting_interval", checking_interval)
            mp.setattr(iso, "filtered_sign", counting_filtered_sign)
            tess = iso.explore(s, z0, radius)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(iso.Wall, "side", lambda wall, u, v, fu, fv: _ref_side(wall, u, v))
            mp.setattr(iso, "_facet", _ref_supporting_interval)
            mp.setattr(iso, "_supporting_interval", _ref_supporting_interval)
            ref = iso.explore(s, z0, radius)
        assert (len(tess.cells), len(tess.all_walls()), len(tess.adjacency)) == counts
        return tess, ref, bad, seen

    def test_every_decision_matches_the_reference(self, ball):
        _, _, bad, seen = ball
        assert bad == []
        assert seen["side"] and seen["facet"] and seen["interval"]

    def test_exact_fallback_runs(self, ball):
        # Walls meet at tessellation vertices, so some bound orders tie.
        tess, _, _, seen = ball
        assert seen["undecided"] > 0 or not tess.surface.is_exact()

    def test_tessellation_matches_the_reference(self, ball):
        tess, ref, _, _ = ball
        assert [c.key for c in tess.cells] == [c.key for c in ref.cells]
        assert [c.comb_hash for c in tess.cells] == [c.comb_hash for c in ref.cells]
        assert [c.sample for c in tess.cells] == [c.sample for c in ref.cells]
        assert [c.walls for c in tess.cells] == [c.walls for c in ref.cells]
        assert tess.adjacency == ref.adjacency


_small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_cubic = st.builds(CubicNumber, _small, _small, _small)


def _exact_wall(a, b, c, normalize):
    """The exact wall a u + b v + c, normalized as wall_of_hinge gives it
    (the double filters apply) or scaled to largest |coefficient| 2 (every
    sign takes the exact path)."""
    w = iso._normalize_wall(a, b, c)
    return w if normalize else iso.Wall(2 * w.a, 2 * w.b, 2 * w.c)


class TestFilterEdgeCases:
    """Inputs where the double filter must defer to the exact sign."""

    @settings(max_examples=40, deadline=None)
    @given(
        v0=_small, d=st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(2), Fraction(-1, 5)]),
        slopes=st.lists(st.tuples(st.one_of(st.just(CubicNumber(0)), _cubic), _cubic, st.sampled_from([1, -1])),
                        min_size=2, max_size=6),
        extra=st.lists(st.tuples(_cubic, _cubic, _cubic), max_size=2),
        normalize=st.booleans(),
    )
    def test_walls_through_one_point(self, v0, d, slopes, extra, normalize):
        # Every bound on every target ties at the point; with d = 0 the point
        # is on the boundary of H, so the parabola tests tie as well.  a = 0
        # gives vertical walls.
        u0 = v0 * v0 + d
        walls = []
        for a, b, flip in slopes:
            assume(not (a.is_zero() and b.is_zero()))
            walls.append(_exact_wall(flip * a, flip * b, -flip * (a * u0 + b * v0), normalize))
        for a, b, c in extra:
            assume(not (a.is_zero() and b.is_zero()))
            walls.append(_exact_wall(a, b, c, normalize))
        _assert_facets_match_reference(walls)

    @settings(max_examples=30, deadline=None)
    @given(
        a0=_cubic, b0=_cubic,
        lines=st.lists(st.tuples(st.sampled_from([1, -1, 2, Fraction(-1, 3)]), _cubic), min_size=2, max_size=5),
        vertical=st.lists(st.tuples(_cubic, _small), max_size=3),
        normalize=st.booleans(),
    )
    def test_parallel_walls(self, a0, b0, lines, vertical, normalize):
        # Walls with one direction (a : b) are parallel lines in (u, v);
        # vertical walls (a = 0) are parallel to each other.
        assume(not (a0.is_zero() and b0.is_zero()))
        walls = [_exact_wall(k * a0, k * b0, c, normalize) for k, c in lines]
        for b, c in vertical:
            assume(not b.is_zero())
            walls.append(_exact_wall(0, b, c, normalize))
        _assert_facets_match_reference(walls)

    @settings(max_examples=30, deadline=None)
    @given(
        v0=_small, d=st.fractions(min_value=0, max_value=3, max_denominator=4),
        slopes=st.lists(st.tuples(_cubic, _cubic, st.integers(-3, 3)), min_size=2, max_size=5),
    )
    def test_walls_near_one_point(self, v0, d, slopes):
        # Each wall misses the point by k * 2**-40: bound orders nearly tie.
        u0 = v0 * v0 + d
        walls = []
        for a, b, k in slopes:
            assume(not (a.is_zero() and b.is_zero()))
            walls.append(iso._normalize_wall(a, b, -(a * u0 + b * v0) + Fraction(k, 2 ** 40)))
        _assert_facets_match_reference(walls)

    @settings(max_examples=100, deadline=None)
    @given(
        a=_cubic, b=_cubic, c=_cubic, at=_small,
        offset=st.sampled_from([0, 1, -1, 3, -2 ** 12]), along_v=st.booleans(), normalize=st.booleans(),
    )
    def test_side_on_and_near_a_wall(self, a, b, c, at, offset, along_v, normalize):
        # The sample lies on the wall (offset 0) or offset * 2**-40 from it.
        assume(not (a.is_zero() and b.is_zero()))
        wall = _exact_wall(a, b, c, normalize)
        delta = Fraction(offset, 2 ** 40)
        if along_v or wall.a == 0:
            assume(wall.b != 0)
            u, v = at * at + 1, -(wall.a * (at * at + 1) + wall.c) / wall.b + delta
        else:
            u, v = -(wall.b * at + wall.c) / wall.a + delta, at
        assert wall.side(u, v, *iso._sample_floats(u, v)) == _ref_side(wall, u, v)
        if offset == 0:
            assert wall.side(u, v, *iso._sample_floats(u, v)) == 0

    def test_side_of_an_overflowing_sample(self):
        # float(u) overflows; the sign comes from the exact evaluation.
        wall = iso._normalize_wall(CubicNumber(1, 1), Fraction(-3), Fraction(1, 7))
        u, v = Fraction(10 ** 400), Fraction(10 ** 200)
        assert iso._sample_floats(u, v) == (math.inf, math.inf)
        assert wall.side(u, v, math.inf, math.inf) == _ref_side(wall, u, v) == 1

    @settings(max_examples=15, deadline=None)
    @given(t=st.fractions(min_value=Fraction(1, 20), max_value=Fraction(9, 10), max_denominator=40))
    def test_sample_on_a_wall_is_moved(self, ay, t):
        # (x, y) on the unit circle, a wall of AY's cells near i: cell_at
        # sees _OnWall and retries off the wall.
        x, y = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
        raised = []
        collect = iso._collect_constraints

        def spy(*args):
            try:
                return collect(*args)
            except iso._OnWall:
                raised.append((args[1], args[2]))
                raise

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(iso, "_collect_constraints", spy)
            cell = iso.cell_at(ay, iso.HPoint(x, y))
        assert raised[0] == (x * x + y * y, x)
        assert cell.walls and (cell.sample.x, cell.sample.y) != (x, y)


def _det4_ones(c1, c2, c3):
    """det of the 4x4 matrix with columns (c1, c2, c3, 1) via row reduction."""
    r = []
    for i in range(3):
        r.append((c1[i] - c1[3], c2[i] - c2[3], c3[i] - c3[3]))
    return (
        r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
        - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
        + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
    )


def _ref_wall_of_hinge(t, edge):
    """wall_of_hinge as computed before its elimination was shared: three
    independent 4x4 determinants over the developed quadrilateral."""
    h = dl.hinge(t, edge)
    quad = (h.p1, h.p2, h.p3, h.p4)
    ax = [p[0] for p in quad]
    bx = [p[1] for p in quad]
    asq = [p[0] * p[0] for p in quad]
    bsq = [p[1] * p[1] for p in quad]
    ab = [p[0] * p[1] for p in quad]
    a = _det4_ones(ax, bx, bsq)
    b = 2 * _det4_ones(ax, bx, ab)
    c = _det4_ones(ax, bx, asq)
    sa, sb, sc = sign(a), sign(b), sign(c)
    if sa == 0 and sb == 0:
        return iso.ALWAYS if sc <= 0 else iso.NEVER
    if sa != 0 and sign(b * b - 4 * a * c) <= 0:
        return iso.ALWAYS if sa < 0 else iso.NEVER
    return iso._normalize_wall(a, b, c)


def _same_wall(got, want):
    """The same sentinel, or walls with equal coefficients and the same
    doubles to the bit (repr tells -0.0 from 0.0)."""
    if not isinstance(want, iso.Wall):
        return got is want
    return (isinstance(got, iso.Wall) and (got.a, got.b, got.c) == (want.a, want.b, want.c)
            and repr(got.floats()) == repr(want.floats()))


class TestHingeCache:
    """Walls kept on a triangulation stay those of its current hinges."""

    @pytest.fixture(scope="class", params=("exact", "float"))
    def base(self, request, ay):
        from flatsurfkit.constructions import ay_trapezoid_shape, trapezoid_family

        s = ay if request.param == "exact" else trapezoid_family(ay_trapezoid_shape())
        return dl.triangulate(s)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_random_flips_keep_cached_walls_exact(self, base, data):
        t = base
        for _ in range(data.draw(st.integers(1, 8))):
            for edge in t.edges():
                iso._memo_wall(t, edge, None)
            flippable = [
                e for e in t.edges()
                if t.twin(e)[0] != e[0] and dl.hinge(t, e).is_strictly_convex()
            ]
            edge = data.draw(st.sampled_from(flippable))
            touched = {edge[0], t.twin(edge)[0]}
            t = dl.flip(t, edge)
            for e, w in t.hinge_cache.items():
                assert w == iso.wall_of_hinge(t, e)
            # The shared elimination gives the reference's walls to the bit.
            for e in t.edges():
                assert _same_wall(iso.wall_of_hinge(t, e), _ref_wall_of_hinge(t, e))
            # The walls of the hinges the flip did not change are carried over.
            for e in t.edges():
                if e[0] not in touched and t.twin(e)[0] not in touched:
                    assert e in t.hinge_cache

    def test_cell_at_computes_only_the_flipped_walls(self, ay, monkeypatch):
        cell = iso.cell_at(ay, iso.HPoint(0.0001, 1.0001))
        computed = []
        wall_of_hinge = iso.wall_of_hinge

        def counting(t, edge):
            computed.append(edge)
            return wall_of_hinge(t, edge)

        monkeypatch.setattr(iso, "wall_of_hinge", counting)
        again = iso.cell_at(ay, cell.sample, _tri=cell.triangulation)
        assert again.key == cell.key and computed == []


class TestFallbackLogging:
    def test_cell_at_logs_moving_its_sample(self, torus, caplog):
        with caplog.at_level(logging.DEBUG, logger="flatsurfkit.isodelaunay"):
            iso.cell_at(torus, iso.HPoint(0.0, 1.0))  # z = i lies on walls
        assert any("lies on a wall" in r.getMessage() for r in caplog.records)

    def test_failed_crossing_is_logged(self, torus, caplog):
        # From the cell's own sample, no step of the ladder gets across the
        # wall, so the crossing gives up.
        cell = iso.cell_at(torus, iso.HPoint(0.05, 1.2))
        memo = iso._Memo({})
        with caplog.at_level(logging.DEBUG, logger="flatsurfkit.isodelaunay"):
            got = iso._cross_wall(torus, cell, cell.walls[0], cell.sample, memo)
        assert got is None
        assert any("no verified sample" in r.getMessage() for r in caplog.records)

    @pytest.mark.parametrize("z0, radius, interval, reason", [
        # The unit circle passes through i, but no theta-sample has v in the interval.
        (iso.HPoint(0.0, 1.0), 1.0, (1e-6, 2e-6), "no sample of the facet lies in the ball"),
        (iso.HPoint(0.0, 10.0), 0.1, (None, None), "the geodesic misses the ball"),
    ], ids=["no-sample", "miss"])
    def test_facet_without_crossing_point_is_logged(self, z0, radius, interval, reason, caplog):
        wall = iso.Wall(1.0, 0.0, -1.0)
        with caplog.at_level(logging.DEBUG, logger="flatsurfkit.isodelaunay"):
            assert iso._facet_crossing_point(wall, interval, z0, radius) is None
        [record] = caplog.records
        assert reason in record.getMessage() and "(1.0, 0.0, -1.0)" in record.getMessage()

    def test_silent_when_nothing_falls_back(self, torus, caplog):
        with caplog.at_level(logging.DEBUG, logger="flatsurfkit.isodelaunay"):
            iso.cell_at(torus, iso.HPoint(0.05, 1.2))
        assert caplog.records == []


def _sampled_crossing_point(wall, interval, z0, radius):
    """_facet_crossing_point as it sampled before it was optimized: every
    sample built as an HPoint and measured with hyperbolic_distance."""
    lo, hi = interval
    lo_f = None if lo is None else to_float(lo)
    hi_f = None if hi is None else to_float(hi)
    a, b, c = wall.floats()
    samples = []
    if abs(a) > 1e-300:
        center = -b / (2 * a)
        rad2 = center * center - c / a
        if rad2 <= 0:
            return None
        r = math.sqrt(rad2)
        n = 512
        for k in range(1, n):
            th = math.pi * k / n
            v = center + r * math.cos(th)
            if lo_f is not None and v < lo_f:
                continue
            if hi_f is not None and v > hi_f:
                continue
            y = r * math.sin(th)
            p = iso.HPoint(v, y)
            if p.hyperbolic_distance(z0) <= radius:
                samples.append((math.log(math.tan(th / 2)), p))
    else:
        x = -c / b
        n = 512
        for k in range(-n, n + 1):
            y = z0.y * math.exp(radius * k / n * 1.5)
            u = x * x + y * y
            if lo_f is not None and u < lo_f:
                continue
            if hi_f is not None and u > hi_f:
                continue
            p = iso.HPoint(x, y)
            if p.hyperbolic_distance(z0) <= radius:
                samples.append((math.log(y), p))
    if not samples:
        return None
    samples.sort(key=lambda t: t[0])
    s_mid = 0.5 * (samples[0][0] + samples[-1][0])
    return min(samples, key=lambda t: abs(t[0] - s_mid))[1]


def _same_point(got, want):
    if want is None:
        return got is None
    return got is not None and (got.x, got.y) == (want.x, want.y)


class TestFacetCrossingPoint:
    """The scan of the ball's theta range picks the sampled point, to the bit."""

    Z0 = iso.HPoint(0.0001, 1.0001)

    @pytest.fixture(scope="class", params=["exact", "float"])
    def facets(self, request, ay):
        from flatsurfkit.constructions import ay_trapezoid_shape, trapezoid_family

        s = ay if request.param == "exact" else trapezoid_family(ay_trapezoid_shape())
        tess = iso.explore(s, self.Z0, 1.0)
        out = []
        for cell in tess.cells:
            for wall in cell.walls:
                interval = iso._supporting_interval(wall, cell.walls)
                if interval is not None:
                    out.append((wall, interval))
        return out

    @pytest.mark.parametrize("z0, radius", [(Z0, 1.0), (Z0, 0.3), (Z0, 3.0), (iso.HPoint(0.3, 0.2), 2.0)])
    def test_matches_sampling_on_ball_facets(self, facets, z0, radius):
        got = [iso._facet_crossing_point(wall, interval, z0, radius) for wall, interval in facets]
        want = [_sampled_crossing_point(wall, interval, z0, radius) for wall, interval in facets]
        assert all(_same_point(g, w) for g, w in zip(got, want))
        if (z0, radius) == (self.Z0, 1.0):
            assert any(w is not None for w in want) and any(w is None for w in want)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-3, 3), st.floats(-3, 5), st.integers(1, 511), st.floats(-6, 1), st.booleans(),
        st.sampled_from([0.0, 1e-16, -1e-16, 1e-14, -1e-14, 1e-9]),
    )
    def test_matches_sampling_on_tangent_balls(self, center, log_r, k, log_s, inside, nudge):
        # A ball whose boundary touches the geodesic at sample k, from
        # outside or from inside: the passing samples hang on rounding.
        r = math.exp(log_r)
        s = r * math.exp(log_s) * (-0.999 if inside else 1.0)
        th = math.pi * k / 512
        ex, ey = center + (r + s) * math.cos(th), (r + s) * math.sin(th)
        assume(abs(s) < ey)
        z0 = iso.HPoint(ex, math.sqrt(ey * ey - s * s))
        radius = math.atanh(abs(s) / ey) * (1 + nudge)
        m = max(1.0, abs(2 * center), abs(center * center - r * r))
        wall = iso.Wall(1.0 / m, -2 * center / m, (center * center - r * r) / m)
        got = iso._facet_crossing_point(wall, (None, None), z0, radius)
        assert _same_point(got, _sampled_crossing_point(wall, (None, None), z0, radius))

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-3, 3), st.floats(-3, 3), st.integers(1, 330), st.booleans(),
        st.sampled_from([0.0, 1e-16, -1e-16, 1e-14, -1e-14, 1e-9, -1e-9]),
    )
    def test_matches_sampling_on_tangent_balls_of_vertical_walls(self, x0, log_y0, k, right, nudge):
        # The ball is the Euclidean disc with centre (x0, y0 cosh(radius))
        # and radius y0 sinh(radius), so it touches the vertical geodesic
        # x = x0 +- y0 sinh(radius) at the height of sample k,
        # y = y0 exp(1.5 radius k/512), where log(cosh(radius)) / radius =
        # 1.5 k/512; that ratio grows from 0 to 1 with the radius.
        y0 = math.exp(log_y0)
        target = 1.5 * k / 512
        lo, hi = 1e-6, 500.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if math.log(math.cosh(mid)) / mid < target else (lo, mid)
        radius = 0.5 * (lo + hi)
        x = x0 + (1 if right else -1) * y0 * math.sinh(radius) * (1 + nudge)
        wall = iso.Wall(0.0, 1.0, -x)
        z0 = iso.HPoint(x0, y0)
        got = iso._facet_crossing_point(wall, (None, None), z0, radius)
        assert _same_point(got, _sampled_crossing_point(wall, (None, None), z0, radius))


class TestRenderSvg:
    def test_empty_tessellation_skeleton(self, torus):
        doc = iso.render_svg(iso.Tessellation(torus, []))
        assert doc.startswith("<svg") and doc.endswith("</svg>")

    def test_deterministic(self, torus):
        tess = iso.explore(torus, iso.HPoint(0.05, 1.2), 0.8)
        assert iso.render_svg(tess) == iso.render_svg(tess)
        assert "<path" in iso.render_svg(tess) or "<line" in iso.render_svg(tess)


class TestDelaunayizeAt:
    """delaunayize_at at z = i, i.e. (u, v) = (1, 0), against delaunayize."""

    @staticmethod
    def surfaces(torus):
        from flatsurfkit.constructions import ay_prime, ay_surface, ay_trapezoid_shape, escalator, trapezoid_family

        return {
            "torus": torus,
            "ay": ay_surface(),
            "ay_prime": ay_prime(),
            "escalator": escalator(),
            "float ay": trapezoid_family(ay_trapezoid_shape()),
        }

    @staticmethod
    def scrambled(t):
        """t with every flippable edge flipped once, in edge order."""
        for e in t.edges():
            h = dl.hinge(t, e)
            if not h.folded and t.twin(e)[0] != e[0] and h.is_strictly_convex():
                t = dl.flip(t, e)
        return t

    def test_agrees_with_delaunayize_at_i(self, torus):
        for name, s in self.surfaces(torus).items():
            fan = dl.triangulate(s)
            for start in (fan, self.scrambled(fan)):
                at_i = iso.delaunayize_at(start, 1, 0)
                plain = dl.delaunayize(start)
                assert dl.is_delaunay_triangulation(at_i), name
                assert dl.decomposition(at_i) == dl.decomposition(plain), name
                # One flip loop with one queue order: the same flips.
                assert at_i.flip_count == plain.flip_count, name
                assert at_i.vecs == plain.vecs and at_i.glue == plain.glue, name
            assert self.scrambled(fan).flip_count > 0 and not dl.is_delaunay_triangulation(self.scrambled(fan))
