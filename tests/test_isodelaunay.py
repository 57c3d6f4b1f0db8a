"""Walls, cells, and exploration of the iso-Delaunay tessellation."""

import math
import random

import pytest

from flatsurfkit import delaunay as dl
from flatsurfkit import isodelaunay as iso
from flatsurfkit.numeric import CubicNumber, incircle_det, is_exact, to_float
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
    """explore's wall memo and known-cell short-circuits against plain cell_at."""

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

    def test_memoized_walls_match_fresh_walls(self, exact_ball):
        tess, memo = exact_ball
        assert memo.walls
        for cell in tess.cells:
            t = cell.triangulation
            for edge in t.edges():
                h = dl.hinge(t, edge)
                assert memo.walls[(h.p2, h.p3, h.p4)] == iso.wall_of_hinge(t, edge)

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

    def test_float_keys_have_one_repr(self, float_ball):
        # explore orders each adjacency pair by repr, so equal keys must
        # print alike: no -0.0 beside 0.0.
        stored = {c.key: repr(c.key) for c in float_ball.cells}
        for a, b, _ in float_ball.adjacency:
            assert repr(a) == stored[a] and repr(b) == stored[b]
        zeros = [t for c in float_ball.cells for locus, _ in c.key for t in locus if t == 0]
        assert zeros and all(math.copysign(1.0, t) > 0 for t in zeros)


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
