"""Delaunay triangulation of flat surfaces by edge flips.

A triangulation stores, per triangle, the three edge vectors in the
triangle's own chart (counterclockwise, summing to zero), a twin map
pairing half-edges, and a chart sign per half-edge: +1 when crossing to
the twin's chart is a translation, -1 when it is a point reflection.
Twin vectors satisfy vec(twin(h)) == -sign(h) * vec(h).

The unit of all Delaunay decisions is the hinge: the two triangles
adjacent to an edge, developed into one chart (hinge, from hinge_vectors).
A hinge is Delaunay when the opposite vertex is not strictly inside the
circumcircle of the other triangle, and one function decides that:
_incircle_sign.  On exact scalars the decision, and the orientations that
allow a flip, are exact, taken in doubles where a proven bound separates
the value from 0 (numeric.incircle_filter, numeric.turn_signs), else from
the exact determinant of the developed hinge; on floats the lifted
determinant is normalized by the product of the quadrilateral's edge
lengths (tolerance numeric.FLOAT_TOL), on coordinates scaled by one power
of two, so that the decision does not depend on the surface's scale.

A triangulation is exact when every coordinate of its edge vectors is,
and an exact one has those doubles from its construction: `doubles`
holds numeric.to_double of each edge vector's coordinates beside vecs,
+-inf beyond the double range, where every filter on them is undecided.
Copies carry them, and _flip_in_place, the one writer of vecs, keeps them
in step: a moved vector's doubles are negated where its chart factor is
-1, and only the new diagonal takes a fresh to_double.  A hinge's doubles
are then read, not computed (_hinge_doubles), and its exact points are
built only where the doubles leave a sign undecided or a flip needs its
new diagonal.  A float triangulation has none.

delaunayize and isodelaunay.delaunayize_at share one FIFO flip loop,
flip_until, and differ only in the test that says a hinge needs a flip.
A flip, like isodelaunay's walls, reads its hinge off hinge_vectors
without building a Hinge.
One breadth-first walk, _code_below, serves canonical_code (over
triangles) and symmetry.isometries_between (over labelled cell corners).
canonical_code can keep the classes it has met in one dict from every
walk code of a class to the class's code, and then reads the code of a
triangulation of a known class off its start-0 walk instead of
minimizing over every start again.

A triangulation also carries hinge_cache: values derived from a hinge,
keyed by the half-edge it was developed from, normally the canonical one
(isodelaunay keeps each hinge's wall there).  A flip changes only the
hinges of the five edges of its two triangles, and each of those edges
keeps its partner outside the two, so the flip drops their entries once,
from both sides, before it rewrites the gluing; on an empty cache, which
every flip of delaunayize meets (only isodelaunay fills it), there is
nothing to drop.  Copies (so flip and flip_until) carry the rest over: a
value computed before a flip sequence stays valid for every hinge the
sequence did not touch.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .numeric import (
    FLOAT_TOL,
    Point,
    Vec2,
    cross_sign,
    incircle_det,
    incircle_filter,
    int_if_integral,
    is_exact,
    scaled_doubles,
    scaled_points,
    sign,
    to_double,
    turn_signs,
    vec_add,
    vec_neg,
    vec_scale,
    vec_sub,
    vectors_match,
)
from . import surface as sf
from .surface import Gluing, Polygon, Surface

HalfEdge = Tuple[int, int]  # (triangle index, edge index 0..2)

FLIP_CAP = 10 ** 6


class DelaunayError(RuntimeError):
    pass


def _next(h: HalfEdge) -> HalfEdge:
    return (h[0], (h[1] + 1) % 3)


def _prev(h: HalfEdge) -> HalfEdge:
    return (h[0], (h[1] + 2) % 3)


class Triangulation:
    """Half-edge triangulation with per-chart holonomy vectors.

    hinge_cache maps a half-edge to a value computed from its hinge alone.
    Only _flip_in_place writes vecs, glue and chart_sign, so it is the one
    place that drops entries; copy() carries the cache over in a new dict.

    doubles mirrors vecs with (to_double(x), to_double(y)) per edge vector,
    +-inf beyond the double range.  The constructor builds it when every
    coordinate is exact, and it is None on a float triangulation;
    _flip_in_place keeps it in step with vecs, and copy() carries it over
    in new lists.  `doubles is not None` is the one record of the scalar
    kind: triangulate makes every triangulation all exact or all float, and
    the flips, incircle signs and walls (isodelaunay) read it instead of
    inspecting coordinates.

    The (tri, e) half-edges are one tuple, made by the constructor and
    shared by every copy: flips never change the number of triangles.
    half_edges() and edges() read it in that order, so a flip loop meets
    the edges in the same order on every copy; triangle tri's three
    half-edges are its slice [3 tri, 3 tri + 3).
    """

    def __init__(
        self,
        vecs: Sequence[Sequence[Vec2]],
        glue: Dict[HalfEdge, HalfEdge],
        chart_sign: Dict[HalfEdge, int],
    ):
        self.vecs: List[List[Vec2]] = [list(tri) for tri in vecs]
        self.glue = dict(glue)
        self.chart_sign = dict(chart_sign)
        self.flip_count = 0
        self.hinge_cache: Dict[HalfEdge, object] = {}
        self._half_edges = tuple((t, e) for t in range(len(self.vecs)) for e in range(3))
        exact = all(is_exact(x) for tri in self.vecs for v in tri for x in v)
        self.doubles: Optional[List[List[Tuple[float, float]]]] = (
            [[(to_double(x), to_double(y)) for x, y in tri] for tri in self.vecs] if exact else None)

    # -- basics ----------------------------------------------------------------

    @property
    def num_triangles(self) -> int:
        return len(self.vecs)

    def vec(self, h: HalfEdge) -> Vec2:
        return self.vecs[h[0]][h[1]]

    def twin(self, h: HalfEdge) -> HalfEdge:
        return self.glue[h]

    def half_edges(self) -> List[HalfEdge]:
        return list(self._half_edges)

    def edges(self) -> List[HalfEdge]:
        """One canonical half-edge per surface edge."""
        glue = self.glue
        return [h for h in self._half_edges if h <= glue[h]]

    def copy(self) -> "Triangulation":
        out = Triangulation.__new__(Triangulation)
        out.vecs = [list(tri) for tri in self.vecs]
        out.glue = dict(self.glue)
        out.chart_sign = dict(self.chart_sign)
        out.flip_count = self.flip_count
        out.hinge_cache = dict(self.hinge_cache)
        out._half_edges = self._half_edges
        out.doubles = None if self.doubles is None else [list(tri) for tri in self.doubles]
        return out

    def corner_position(self, h: HalfEdge) -> Vec2:
        """Position of the corner at the start of h, in its triangle's chart."""
        t, e = h
        if e == 0:
            return (0, 0)
        if e == 1:
            return self.vecs[t][0]
        return vec_add(self.vecs[t][0], self.vecs[t][1])

    def check_invariants(self) -> None:
        for t, tri in enumerate(self.vecs):
            if not vectors_match(vec_add(tri[0], tri[1]), vec_neg(tri[2])):
                raise DelaunayError(f"triangle {t} edge vectors do not sum to zero")
            if cross_sign(tri[0], tri[1]) <= 0:
                raise DelaunayError(f"triangle {t} is not positively oriented")
        for h in self.half_edges():
            tw = self.glue[h]
            if self.glue[tw] != h:
                raise DelaunayError(f"twin map is not an involution at {h}")
            eps = self.chart_sign[h]
            if self.chart_sign[tw] != eps:
                raise DelaunayError(f"chart sign mismatch at {h}")
            want = self.vec(h) if eps == -1 else vec_neg(self.vec(h))
            if not vectors_match(want, self.vec(tw)):
                raise DelaunayError(f"twin holonomy mismatch at {h}")


@dataclass
class Hinge:
    """Two triangles adjacent to an edge, developed into one chart.

    The quadrilateral (p1, p2, p3, p4) is counterclockwise with p1p3 the
    shared diagonal: p1 and p3 are the endpoints of the edge, p2 the apex
    of the twin triangle, p4 the apex of the edge's own triangle.
    """

    p1: Point
    p2: Point
    p3: Point
    p4: Point
    folded: bool


def hinge_vectors(t: Triangulation, edge: HalfEdge) -> Tuple[Vec2, Vec2, Vec2]:
    """(p2, p3, p4 - p3) of hinge(t, edge), read from t without arithmetic:
    the twin's next vector (negated where the chart sign is -1), vec(edge)
    and vec(next(edge)).  p1 is the origin, so these determine the hinge."""
    tri, e = edge
    tw, tw_e = t.glue[edge]
    vu = t.vecs[tw][(tw_e + 1) % 3]
    return (vu if t.chart_sign[edge] == 1 else vec_neg(vu)), t.vecs[tri][e], t.vecs[tri][(e + 1) % 3]


def hinge(t: Triangulation, edge: HalfEdge) -> Hinge:
    p2, p3, d = hinge_vectors(t, edge)
    return Hinge((0, 0), p2, p3, vec_add(p3, d), t.glue[edge] == edge)


def _hinge_doubles(t: Triangulation, edge: HalfEdge) -> Optional[List[float]]:
    """The scaled doubles of hinge(t, edge)'s eight coordinates, as
    numeric._filter_doubles would make them, read from t.doubles: p1 = 0,
    p2 = +-vec(next twin), p3 = vec(e) and p4 = -vec(prev e), which equals
    vec(e) + vec(next e) exactly.  None on a float triangulation or where
    a double is infinite (scaled_doubles)."""
    kept = t.doubles
    if kept is None:
        return None
    tri, e = edge
    tw, tw_e = t.glue[edge]
    a, c, u = kept[tri][e], kept[tri][(e + 2) % 3], kept[tw][(tw_e + 1) % 3]
    if t.chart_sign[edge] == -1:
        u = vec_neg(u)
    return scaled_doubles([0.0, 0.0, u[0], u[1], a[0], a[1], -c[0], -c[1]])


def _incircle_sign(t: Triangulation, edge: HalfEdge) -> int:
    """+1 when hinge(t, edge)'s p4 is strictly inside the circumcircle of
    (p1, p2, p3), 0 on it, -1 outside: the one incircle decision.

    An exact triangulation takes the filter on its doubles, and where that
    leaves the sign undecided the exact sign of incircle_det.  A float
    determinant is divided by the product of the quadrilateral's edge
    lengths before it is compared with FLOAT_TOL.  Both are of degree 4 in
    the coordinates, which are first scaled by one power of two
    (scaled_points): the quotient is the same at any scale, and neither
    overflows nor underflows.
    """
    if t.doubles is not None:
        f = _hinge_doubles(t, edge)
        s = incircle_filter(f) if f is not None else 0
        if s:
            return s
        h = hinge(t, edge)
        return sign(incircle_det(h.p1, h.p2, h.p3, h.p4))
    h = hinge(t, edge)
    pts = scaled_points((h.p1, h.p2, h.p3, h.p4))
    if pts is None:
        raise DelaunayError(f"hinge {edge} has no finite doubles")
    p1, p2, p3, p4 = pts
    det = incircle_det(p1, p2, p3, p4)
    scale = 1.0
    for a, b in ((p1, p2), (p2, p3), (p3, p4), (p4, p1)):
        scale *= math.hypot(b[0] - a[0], b[1] - a[1])
    return sign(det / scale, FLOAT_TOL) if scale else sign(det)


# -- triangulate --------------------------------------------------------------------


def triangulate(s: Surface) -> Triangulation:
    """Fan-triangulate every polygon and wire up twins from the gluings.

    When the Delaunay decomposition has non-triangular cells, this fan is
    the canonical refinement presented by the rest of the library (all
    Delaunay triangulations refine the same decomposition).

    A surface with any float coordinate is float input: it is triangulated
    from the doubles of its vertices, as its float image would be.  So every
    triangulation is all exact or all float, which Triangulation records
    once (doubles), and nothing downstream meets both kinds at once.
    Exact coordinates that are integral rationals enter as ints
    (int_if_integral): the same values and hashes, on cheaper arithmetic.
    A surface with no polygons raises SurfaceError.
    """
    if not s.polygons:
        raise sf.SurfaceError("the surface has no polygons")
    floats = not s.is_exact()
    vecs: List[List[Vec2]] = []
    glue: Dict[HalfEdge, HalfEdge] = {}
    chart_sign: Dict[HalfEdge, int] = {}
    # Map each polygon boundary edge to its half-edge.
    boundary: Dict[sf.EdgeRef, HalfEdge] = {}
    base = []
    for p, poly in enumerate(s.polygons):
        n = len(poly)
        base.append(len(vecs))
        if floats:
            vs = [(float(x), float(y)) for x, y in poly.vertices]
        else:
            vs = [(int_if_integral(x), int_if_integral(y)) for x, y in poly.vertices]
        for j in range(n - 2):
            t = len(vecs)
            e0 = vec_sub(vs[j + 1], vs[0])
            e1 = vec_sub(vs[j + 2], vs[j + 1])
            e2 = vec_sub(vs[0], vs[j + 2])
            vecs.append([e0, e1, e2])
            if j > 0:
                glue[(t - 1, 2)] = (t, 0)
                glue[(t, 0)] = (t - 1, 2)
                chart_sign[(t - 1, 2)] = 1
                chart_sign[(t, 0)] = 1
        b = base[p]
        boundary[(p, 0)] = (b, 0)
        for k in range(1, n - 1):
            boundary[(p, k)] = (b + k - 1, 1)
        boundary[(p, n - 1)] = (b + n - 3, 2)
    for g in s.gluings:
        ha = boundary[g.edge_a]
        hb = boundary[g.edge_b]
        eps = 1 if g.kind == sf.TRANSLATION else -1
        glue[ha] = hb
        glue[hb] = ha
        chart_sign[ha] = eps
        chart_sign[hb] = eps
    tri = Triangulation(vecs, glue, chart_sign)
    return tri


# -- flips ---------------------------------------------------------------------------


def _drop_hinges(t: Triangulation, tris: Tuple[int, int]) -> None:
    """Drop the hinge_cache entries of every edge with a side in tris."""
    cache = t.hinge_cache
    if not cache:
        return
    glue, half_edges = t.glue, t._half_edges
    for tri in tris:
        for h in half_edges[3 * tri:3 * tri + 3]:
            cache.pop(h, None)
            cache.pop(glue[h], None)


def _flip_in_place(t: Triangulation, edge: HalfEdge) -> None:
    if t.glue[edge] == edge:
        raise DelaunayError(f"cannot flip folded edge {edge}")
    p2, p3, d = hinge_vectors(t, edge)
    p4 = vec_add(p3, d)
    quad = ((0, 0), p2, p3, p4)
    if not all(s > 0 for s in turn_signs(quad, _hinge_doubles(t, edge))):
        # A float turn may have under- or overflowed: decide the turns
        # again at unit scale, where a power of two changes no rounding.
        pts = scaled_points(quad) if t.doubles is None else None
        if pts is None or not all(s > 0 for s in turn_signs(pts)):
            raise DelaunayError(f"cannot flip non-convex hinge at {edge}")
    a = edge
    ta = a[0]
    n1 = _next(a)
    n2 = _prev(a)
    tw = t.twin(a)
    tb = tw[0]
    u = _next(tw)
    w = _prev(tw)
    if ta == tb:
        raise DelaunayError(f"cannot flip edge {edge} with both sides in one triangle")
    eps = t.chart_sign[a]
    q1 = p4  # apex of the edge's own triangle
    q2 = p2  # apex of the twin triangle, developed

    # The new diagonal keeps the keys (a, tw); each outer edge moves to a
    # new slot with a chart factor r: eps for tb's edges u and w, which
    # move into ta's chart, else 1.  A gluing's sign gains r at each end
    # (r = 1 outside ta and tb), so a fold or a u~w pairing keeps its sign.
    ea, fb = a[1], tw[1]
    move = {
        n1: ((tb, (fb + 2) % 3), 1),
        n2: ((ta, (ea + 1) % 3), 1),
        u: ((ta, (ea + 2) % 3), eps),
        w: ((tb, (fb + 1) % 3), eps),
    }
    old = {key: (t.vec(key), t.glue[key], t.chart_sign[key]) for key in move}
    kept = t.doubles
    if kept is not None:
        moved = [(slot, r, kept[key[0]][key[1]]) for key, (slot, r) in move.items()]
    # Every edge with a side in ta or tb keeps its outside partner, so one
    # drop before the mutation covers both gluings.
    _drop_hinges(t, (ta, tb))
    for key, (slot, r) in move.items():
        vec, partner, s_old = old[key]
        partner_slot, partner_r = move.get(partner, (partner, 1))
        t.vecs[slot[0]][slot[1]] = vec if r == 1 else vec_neg(vec)
        t.glue[slot] = partner_slot
        t.glue[partner_slot] = slot
        t.chart_sign[slot] = t.chart_sign[partner_slot] = s_old * r * partner_r
    t.vecs[ta][ea] = vec_sub(q1, q2)
    t.vecs[tb][fb] = vec_sub(q2, q1)
    if kept is not None:
        for slot, r, d in moved:
            kept[slot[0]][slot[1]] = d if r == 1 else vec_neg(d)
        x, y = t.vecs[ta][ea]
        d = kept[ta][ea] = (to_double(x), to_double(y))
        kept[tb][fb] = vec_neg(d)
    t.glue[a], t.glue[tw] = tw, a
    t.chart_sign[a] = t.chart_sign[tw] = 1
    t.flip_count += 1


def flip(t: Triangulation, edge: HalfEdge) -> Triangulation:
    """Replace the hinge diagonal by the opposite one.

    Returns a new triangulation; the new diagonal occupies the same pair
    of half-edge keys, so the same edge can be flipped back.  Flipping it
    twice gives the original triangulation up to relabelling (an equal
    canonical_code), not the same vecs and glue: the two triangles may
    trade contents.  The copy keeps t's hinge_cache entries for the edges
    the flip does not touch."""
    out = t.copy()
    _flip_in_place(out, edge)
    return out


def flip_until(t: Triangulation, needs_flip: Callable[[Triangulation, HalfEdge], bool]) -> Triangulation:
    """Flip a copy of t until needs_flip(out, edge) holds for no edge.

    Edges wait in a FIFO queue, all edges first; a flip queues the edges of
    its two triangles again, the same edges whose hinge_cache entries it
    drops.  _flip_in_place rejects folded and non-convex hinges, and more
    than FLIP_CAP flips raise.
    """
    out = t.copy()
    glue, half_edges = out.glue, out._half_edges
    queue = deque(out.edges())
    queued = set(queue)
    flips = 0
    while queue:
        edge = queue.popleft()
        queued.discard(edge)
        if not needs_flip(out, edge):
            continue
        tb = glue[edge][0]
        _flip_in_place(out, edge)
        flips += 1
        if flips > FLIP_CAP:
            raise DelaunayError(f"flip cap {FLIP_CAP} exceeded; {len(queue)} hinges still queued")
        for tri in (edge[0], tb):
            for he in half_edges[3 * tri:3 * tri + 3]:
                tw = glue[he]
                key = he if he <= tw else tw
                if key not in queued:
                    queue.append(key)
                    queued.add(key)
    return out


def _not_delaunay(t: Triangulation, edge: HalfEdge) -> bool:
    return _incircle_sign(t, edge) > 0


def delaunayize(t: Triangulation) -> Triangulation:
    """Flip non-Delaunay hinges (FIFO queue) until every hinge is Delaunay."""
    return flip_until(t, _not_delaunay)


def is_delaunay_triangulation(t: Triangulation) -> bool:
    return all(_incircle_sign(t, e) <= 0 for e in t.edges())


# -- decomposition -------------------------------------------------------------------


def _canonical_chain(points: List[Point]) -> Tuple[List[Point], int]:
    """Lexicographically smallest rotation, translated to start at the
    origin: the first such rotation and its offset.

    The candidate offsets are narrowed one chain entry at a time, so only
    the rotations still tied at an entry compute it."""
    n = len(points)
    cands = list(range(n))
    for k in range(1, n):
        if len(cands) == 1:
            break
        entries = [vec_sub(points[(r + k) % n], points[r]) for r in cands]
        least = min(entries)
        cands = [r for r, v in zip(cands, entries) if v == least]
    r = cands[0]
    return [vec_sub(v, points[r]) for v in points[r:] + points[:r]], r


def decomposition(t: Triangulation) -> Surface:
    """Merge cocircular hinges into maximal cells; returns the cell surface.

    A cell is a connected component of the triangles across cocircular
    (zero-determinant) hinges, so the set of cells does not depend on the
    order of the flips.  Each cell is emitted as a developed convex polygon
    with its lexicographically smallest vertex chain, translated to the
    origin, and cells are sorted by that chain.  Congruent cells have equal
    chains and keep the order of their smallest triangle index in t, so
    the order of such cells, and with it every gluing label, depends on
    the triangulation given: two Delaunay triangulations of a surface
    with congruent cells (the escalator's unit squares) can give
    unequal, isomorphic Surfaces.
    """
    # An edge is interior to a cell only when its own hinge is cocircular;
    # a cell may also be adjacent to itself across boundary edges (as on
    # the square torus).  One incircle sign per edge also checks that t is
    # Delaunay.
    internal: Dict[HalfEdge, bool] = {}
    for e in t.edges():
        tw = t.twin(e)
        s = _incircle_sign(t, e)
        if s > 0:
            raise DelaunayError("decomposition requires a Delaunay triangulation")
        internal[e] = internal[tw] = tw != e and s == 0

    # Find and develop each cell by a breadth-first walk across its interior
    # edges from its smallest triangle: per-triangle transform x -> eps * x + c.
    transforms: Dict[int, Tuple[int, Vec2]] = {}
    cells: List[List[int]] = []
    for seed in range(t.num_triangles):
        if seed in transforms:
            continue
        transforms[seed] = (1, (0, 0))
        tris = [seed]
        todo = deque(tris)
        while todo:
            cur = todo.popleft()
            eps_t, c_t = transforms[cur]
            for e in range(3):
                he = (cur, e)
                if not internal[he]:
                    continue
                tw = t.twin(he)
                nb = tw[0]
                if nb in transforms:
                    continue
                eps_h = t.chart_sign[he]
                end = vec_add(t.corner_position(he), t.vec(he))
                d = vec_sub(end, vec_scale(eps_h, t.corner_position(tw)))
                transforms[nb] = (eps_t * eps_h, vec_add(vec_scale(eps_t, d), c_t))
                tris.append(nb)
                todo.append(nb)
        cells.append(tris)

    def dev_point(tri: int, p: Vec2) -> Vec2:
        eps_t, c_t = transforms[tri]
        return vec_add(vec_scale(eps_t, p), c_t)

    # Walk each cell boundary and put its polygon in canonical form, then
    # order the cells canonically.
    emitted = []  # (canonical chain, boundary half-edges from the chain's first vertex)
    for tris in cells:
        start = min((tri, e) for tri in tris for e in range(3) if not internal[(tri, e)])
        walk = [start]
        cur = start
        while True:
            cand = _next(cur)
            while internal[cand]:
                cand = _next(t.twin(cand))
            if cand == start:
                break
            walk.append(cand)
            cur = cand
        points = [dev_point(h[0], t.corner_position(h)) for h in walk]
        chain, r = _canonical_chain(points)
        emitted.append((chain, walk[r:] + walk[:r]))
    order = sorted(range(len(emitted)), key=lambda i: emitted[i][0])

    edge_index: Dict[HalfEdge, Tuple[int, int]] = {}
    polygons = []
    for new_i, old_i in enumerate(order):
        chain, walk = emitted[old_i]
        polygons.append(Polygon(chain))
        for k, h in enumerate(walk):
            edge_index[h] = (new_i, k)

    # edge_index runs through (cell, edge) in increasing order, so listing
    # each gluing from its smaller side sorts the gluings.
    gluings = []
    for h, (ci, ei) in edge_index.items():
        tw = t.twin(h)
        cj, ej = edge_index[tw]
        if (cj, ej) < (ci, ei):
            continue
        eps = transforms[h[0]][0] * t.chart_sign[h] * transforms[tw[0]][0]
        kind = sf.TRANSLATION if eps == 1 else sf.REFLECTION
        gluings.append(Gluing((ci, ei), (cj, ej), kind))
    kind = sf.TRANSLATION if all(g.kind == sf.TRANSLATION for g in gluings) else sf.HALF_TRANSLATION
    return Surface(polygons, gluings, kind)


# -- canonical combinatorial codes -----------------------------------------------------


def canonical_code(t: Triangulation,
                   classes: Optional[Dict[Tuple[int, ...], Tuple[int, ...]]] = None) -> Tuple[int, ...]:
    """Combinatorial code of t, invariant under relabeling triangles and edges
    and under mirroring: the minimum of `_code_below` over all starts,
    walking each triangle forwards and backwards.

    classes maps every walk code of each class met to the class's code.
    Equal walk codes from two triangulations pair their walks into a
    relabelling of one onto the other, or a mirroring where the directions
    differ, and the minimum is invariant under both; so t's code is read
    off its start-0 forwards walk where that is in classes, and only a new
    class walks every start and registers each code it walked.  One table
    may be shared by triangulations of any surfaces; isodelaunay.explore
    keeps one per exploration.
    """
    m = 3 * t.num_triangles
    twin = [0] * m
    for (tri, e), (tt, te) in t.glue.items():
        twin[3 * tri + e] = 3 * tt + te
    forwards = [h - h % 3 + (h + 1) % 3 for h in range(m)]
    backwards = [h - h % 3 + (h + 2) % 3 for h in range(m)]
    if classes is None:
        classes = {}
    first = tuple(_code_below(twin, forwards, 0, None)[0])
    code = classes.get(first)
    if code is None:
        starts = [(step, start) for step in (forwards, backwards) for start in range(m)][1:]
        walks = [first] + [tuple(_code_below(twin, step, start, None)[0]) for step, start in starts]
        code = min(walks)
        classes.update(dict.fromkeys(walks, code))
    return code


def _code_below(twin: List[int], step: List[int], start: int, best: Optional[List[int]],
                labels: Optional[List[int]] = None) -> Optional[Tuple[List[int], List[int]]]:
    """(code, discovery order) of the walk from start, or None as soon as
    the code is known to be above best.

    A breadth-first walk numbers half-edges in discovery order, a whole
    cycle of step at a time (a triangle, or a cell's corners).  Entry i is
    the number of the i-th half-edge h's twin, plus labels[h] * len(twin)
    with labels; it is final once that twin is numbered, so the walk stops
    at the first entry above best.  Equal codes from two starts pair their
    discovery orders into a bijection that keeps twin, step and labels, if
    equal labels mean equal cycle lengths (3 on a triangulation; cell
    labels carry the cell's size).
    """
    m = len(twin)
    num = [-1] * m
    order: List[int] = []
    h = start
    while num[h] < 0:
        num[h] = len(order)
        order.append(h)
        h = step[h]
    code: List[int] = []
    tied = best is not None
    for h in order:  # order grows while it is walked
        tw = twin[h]
        entry = num[tw]
        if entry < 0:
            entry = len(order)
            while num[tw] < 0:
                num[tw] = len(order)
                order.append(tw)
                tw = step[tw]
        if labels is not None:
            entry += labels[h] * m
        if tied:
            i = len(code)
            if i == len(best) or entry > best[i]:
                return None
            tied = entry == best[i]
        code.append(entry)
    return code, order


def triangle_shape_multiset(t: Triangulation):
    """Multiset of triangle edge-vector triples up to cyclic rotation."""
    out = []
    for tri in t.vecs:
        rots = [tuple(tri[i:] + tri[:i]) for i in range(3)]
        out.append(min(rots, key=lambda r: [(float(v[0]), float(v[1])) for v in r]))
    return sorted(out, key=lambda r: [(float(v[0]), float(v[1])) for v in r])
