"""Delaunay triangulation of flat surfaces by edge flips.

A triangulation stores, per triangle, the three edge vectors in the
triangle's own chart (counterclockwise, summing to zero), a twin map
pairing half-edges, and a chart sign per half-edge: +1 when crossing to
the twin's chart is a translation, -1 when it is a point reflection.
Twin vectors satisfy vec(twin(h)) == -sign(h) * vec(h).

The unit of all Delaunay decisions is the hinge: the two triangles
adjacent to an edge, developed into one chart.  A hinge is Delaunay when
the opposite vertex is not strictly inside the circumcircle of the other
triangle; on exact scalars this is decided exactly, on floats via the
lifted determinant normalized by the product of the quadrilateral's edge
lengths (tolerance numeric.FLOAT_TOL).

delaunayize and isodelaunay.delaunayize_at share one FIFO flip loop,
flip_until, and differ only in the test that says a hinge needs a flip.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cmp_to_key
from typing import Callable, Dict, List, Sequence, Tuple

from .numeric import (
    FLOAT_TOL,
    Point,
    Scalar,
    Vec2,
    cross,
    incircle_det,
    is_exact,
    orient,
    sign,
    to_float,
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
    """Half-edge triangulation with per-chart holonomy vectors."""

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
        # Flips keep each vector's scalar type, so exactness is fixed here.
        self._exact = all(is_exact(v[0]) and is_exact(v[1]) for tri in self.vecs for v in tri)

    # -- basics ----------------------------------------------------------------

    @property
    def num_triangles(self) -> int:
        return len(self.vecs)

    def vec(self, h: HalfEdge) -> Vec2:
        return self.vecs[h[0]][h[1]]

    def twin(self, h: HalfEdge) -> HalfEdge:
        return self.glue[h]

    def half_edges(self) -> List[HalfEdge]:
        return [(t, e) for t in range(self.num_triangles) for e in range(3)]

    def edges(self) -> List[HalfEdge]:
        """One canonical half-edge per surface edge."""
        return [h for h in self.half_edges() if h <= self.glue[h]]

    def copy(self) -> "Triangulation":
        out = Triangulation(self.vecs, self.glue, self.chart_sign)
        out.flip_count = self.flip_count
        return out

    def is_exact(self) -> bool:
        return self._exact

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
            s = vec_add(vec_add(tri[0], tri[1]), tri[2])
            if sign(s[0], FLOAT_TOL) or sign(s[1], FLOAT_TOL):
                raise DelaunayError(f"triangle {t} edge vectors do not sum to zero")
            if sign(cross(tri[0], tri[1])) <= 0:
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

    # -- corner cycles (surface vertices) ---------------------------------------

    def corner_cycles(self) -> List[List[HalfEdge]]:
        remaining = set(self.half_edges())
        cycles = []
        while remaining:
            start = min(remaining)
            cycle = [start]
            remaining.discard(start)
            cur = _next(self.glue[start])
            while cur != start:
                cycle.append(cur)
                remaining.discard(cur)
                cur = _next(self.glue[cur])
            cycles.append(cycle)
        return cycles


@dataclass
class Hinge:
    """Two triangles adjacent to an edge, developed into one chart.

    The quadrilateral (p1, p2, p3, p4) is counterclockwise with p1p3 the
    shared diagonal: p1 and p3 are the endpoints of the edge, p2 the apex
    of the twin triangle, p4 the apex of the edge's own triangle.
    """

    edge: HalfEdge
    p1: Point
    p2: Point
    p3: Point
    p4: Point
    folded: bool

    def incircle_value(self) -> Scalar:
        return incircle_det(self.p1, self.p2, self.p3, self.p4)

    def incircle_sign(self) -> int:
        """+1 when p4 is strictly inside the circumcircle, 0 on it, -1 outside.

        A float determinant is divided by the product of the quadrilateral's
        edge lengths before it is compared with FLOAT_TOL.
        """
        det = self.incircle_value()
        if is_exact(det):
            return sign(det)
        scale = 1.0
        for a, b in ((self.p1, self.p2), (self.p2, self.p3), (self.p3, self.p4), (self.p4, self.p1)):
            scale *= math.hypot(to_float(b[0]) - to_float(a[0]), to_float(b[1]) - to_float(a[1]))
        return sign(det / scale, FLOAT_TOL) if scale else sign(det)

    def is_delaunay(self) -> bool:
        """True iff the fourth vertex is not strictly inside the circumcircle."""
        return self.incircle_sign() <= 0

    def is_cocircular(self) -> bool:
        return self.incircle_sign() == 0

    def is_strictly_convex(self) -> bool:
        quad = (self.p1, self.p2, self.p3, self.p4)
        for i in range(4):
            if orient(quad[i], quad[(i + 1) % 4], quad[(i + 2) % 4]) <= 0:
                return False
        return True


def hinge(t: Triangulation, edge: HalfEdge) -> Hinge:
    tw = t.twin(edge)
    va = t.vec(edge)
    vb = t.vec(_next(edge))
    vu = t.vec(_next(tw))
    eps = t.chart_sign[edge]
    p1 = (0, 0)
    p2 = vu if eps == 1 else vec_neg(vu)
    p3 = va
    p4 = vec_add(va, vb)
    return Hinge(edge, p1, p2, p3, p4, tw == edge)


def is_delaunay(h: Hinge) -> bool:
    return h.is_delaunay()


# -- triangulate --------------------------------------------------------------------


def triangulate(s: Surface) -> Triangulation:
    """Fan-triangulate every polygon and wire up twins from the gluings.

    When the Delaunay decomposition has non-triangular cells, this fan is
    the canonical refinement presented by the rest of the library (all
    Delaunay triangulations refine the same decomposition).
    """
    vecs: List[List[Vec2]] = []
    glue: Dict[HalfEdge, HalfEdge] = {}
    chart_sign: Dict[HalfEdge, int] = {}
    # Map each polygon boundary edge to its half-edge.
    boundary: Dict[sf.EdgeRef, HalfEdge] = {}
    base = []
    for p, poly in enumerate(s.polygons):
        n = len(poly)
        base.append(len(vecs))
        vs = poly.vertices
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


def _flip_in_place(t: Triangulation, edge: HalfEdge) -> None:
    h = hinge(t, edge)
    if h.folded:
        raise DelaunayError(f"cannot flip folded edge {edge}")
    if not h.is_strictly_convex():
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
    vb, vc, vw = t.vec(n1), t.vec(n2), t.vec(w)
    q1 = h.p4  # apex of the edge's own triangle
    q2 = h.p2  # apex of the twin triangle, developed

    # The new diagonal keeps the keys (a, tw); the four outer edges rotate
    # to the remaining slots.  u and w change chart by eps.
    ea, fb = a[1], tw[1]
    slot_of = {
        u: (ta, (ea + 2) % 3),
        n2: (ta, (ea + 1) % 3),
        w: (tb, (fb + 1) % 3),
        n1: (tb, (fb + 2) % 3),
    }
    new_vec = {u: q2, n2: vc, w: vw if eps == 1 else vec_neg(vw), n1: vb}
    recharted = {u, w} if eps == -1 else set()
    old = {key: (t.glue[key], t.chart_sign[key]) for key in (u, w, n1, n2)}

    new_glue: Dict[HalfEdge, HalfEdge] = {a: tw, tw: a}
    new_sign: Dict[HalfEdge, int] = {a: 1, tw: 1}
    processed = set()
    for key in (u, w, n1, n2):
        if key in processed:
            continue
        partner, s_old = old[key]
        # Each re-charted endpoint multiplies the gluing's chart sign by eps;
        # a fold or an internal pairing of u and w is conjugated twice.
        count = (key in recharted) + (partner in recharted)
        s_new = s_old * (-1 if (eps == -1 and count % 2 == 1) else 1)
        slot = slot_of[key]
        partner_slot = slot_of.get(partner, partner)
        new_glue[slot] = partner_slot
        new_glue[partner_slot] = slot
        new_sign[slot] = s_new
        new_sign[partner_slot] = s_new
        processed.add(key)
        if partner in slot_of:
            processed.add(partner)

    for key, vec in new_vec.items():
        slot = slot_of[key]
        t.vecs[slot[0]][slot[1]] = vec
    t.vecs[ta][ea] = vec_sub(q1, q2)
    t.vecs[tb][fb] = vec_sub(q2, q1)
    t.glue.update(new_glue)
    t.chart_sign.update(new_sign)
    t.flip_count += 1


def flip(t: Triangulation, edge: HalfEdge) -> Triangulation:
    """Replace the hinge diagonal by the opposite one.

    Returns a new triangulation; the new diagonal occupies the same pair
    of half-edge keys, so flipping the same edge twice restores the
    original triangulation."""
    out = t.copy()
    _flip_in_place(out, edge)
    return out


def flip_until(t: Triangulation, needs_flip: Callable[[Triangulation, HalfEdge], bool]) -> Triangulation:
    """Flip a copy of t until needs_flip(out, edge) holds for no edge.

    Edges wait in a FIFO queue, all edges first; a flip queues the edges of
    its two triangles again.  _flip_in_place rejects folded and non-convex
    hinges, and more than FLIP_CAP flips raise.
    """
    out = t.copy()
    queue = deque(out.edges())
    queued = set(queue)
    flips = 0
    while queue:
        edge = queue.popleft()
        queued.discard(edge)
        if not needs_flip(out, edge):
            continue
        tb = out.twin(edge)[0]
        _flip_in_place(out, edge)
        flips += 1
        if flips > FLIP_CAP:
            raise DelaunayError(f"flip cap {FLIP_CAP} exceeded; {len(queue)} hinges still queued")
        for tri in (edge[0], tb):
            for e in range(3):
                he = (tri, e)
                key = min(he, out.glue[he])
                if key not in queued:
                    queue.append(key)
                    queued.add(key)
    return out


def _not_delaunay(t: Triangulation, edge: HalfEdge) -> bool:
    return not hinge(t, edge).is_delaunay()


def delaunayize(t: Triangulation) -> Triangulation:
    """Flip non-Delaunay hinges (FIFO queue) until every hinge is Delaunay."""
    return flip_until(t, _not_delaunay)


def is_delaunay_triangulation(t: Triangulation) -> bool:
    return all(hinge(t, e).is_delaunay() for e in t.edges())


# -- decomposition -------------------------------------------------------------------


def _chain_cmp(p: Sequence[Point], q: Sequence[Point]) -> int:
    for (ax, ay), (bx, by) in zip(p, q):
        c = sign(ax - bx)
        if c:
            return c
        c = sign(ay - by)
        if c:
            return c
    return (len(p) > len(q)) - (len(p) < len(q))


def _canonical_chain(points: List[Point]) -> Tuple[List[Point], int]:
    """Lexicographically smallest rotation, translated to start at the origin."""
    n = len(points)
    best = None
    best_r = 0
    for r in range(n):
        rot = points[r:] + points[:r]
        o = rot[0]
        rot = [vec_sub(v, o) for v in rot]
        if best is None or _chain_cmp(rot, best) < 0:
            best = rot
            best_r = r
    return best, best_r


def decomposition(t: Triangulation) -> Surface:
    """Merge cocircular hinges into maximal cells; returns the cell surface.

    Merging is a transitive closure over zero-determinant hinges, so the
    result does not depend on any processing order.  Cells are emitted as
    developed convex polygons with deterministic (lexicographically
    smallest) vertex chains.
    """
    if not is_delaunay_triangulation(t):
        raise DelaunayError("decomposition requires a Delaunay triangulation")
    n = t.num_triangles
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    cocircular: Dict[HalfEdge, bool] = {}
    for e in t.edges():
        tw = t.twin(e)
        is_co = tw != e and hinge(t, e).is_cocircular()
        cocircular[e] = cocircular[tw] = is_co
        if is_co:
            union(e[0], tw[0])

    groups: Dict[int, List[int]] = {}
    for tri in range(n):
        groups.setdefault(find(tri), []).append(tri)

    # An edge is interior to a cell only when its own hinge is cocircular;
    # a cell may also be adjacent to itself across boundary edges (as on
    # the square torus), which union-find alone cannot distinguish.
    def internal(h: HalfEdge) -> bool:
        return cocircular[h]

    # Develop each cell: per-triangle transform x -> eps * x + c.
    transforms: Dict[int, Tuple[int, Vec2]] = {}
    for root, tris in groups.items():
        transforms[tris[0]] = (1, (0, 0))
        todo = deque([tris[0]])
        seen = {tris[0]}
        while todo:
            cur = todo.popleft()
            eps_t, c_t = transforms[cur]
            for e in range(3):
                he = (cur, e)
                if not internal(he):
                    continue
                tw = t.twin(he)
                nb = tw[0]
                if nb in seen:
                    continue
                eps_h = t.chart_sign[he]
                end = vec_add(t.corner_position(he), t.vec(he))
                d = vec_sub(end, vec_scale(eps_h, t.corner_position(tw)))
                transforms[nb] = (eps_t * eps_h, vec_add(vec_scale(eps_t, d), c_t))
                seen.add(nb)
                todo.append(nb)

    def dev_point(tri: int, p: Vec2) -> Vec2:
        eps_t, c_t = transforms[tri]
        return vec_add(vec_scale(eps_t, p), c_t)

    # Walk each cell boundary.
    cells = []  # (root, boundary half-edges in ccw order, developed points)
    for root, tris in sorted(groups.items()):
        tri_set = set(tris)
        boundary = [
            (tri, e) for tri in tris for e in range(3) if not internal((tri, e))
        ]
        start = min(boundary)
        walk = [start]
        cur = start
        while True:
            cand = _next(cur)
            while internal(cand):
                cand = _next(t.twin(cand))
            if cand == start:
                break
            walk.append(cand)
            cur = cand
        points = [dev_point(h[0], t.corner_position(h)) for h in walk]
        cells.append((root, walk, points))

    # Canonical polygon per cell, then canonical cell order.
    emitted = []
    for root, walk, points in cells:
        chain, r = _canonical_chain(points)
        walk = walk[r:] + walk[:r]
        emitted.append((chain, walk, root))
    order = sorted(range(len(emitted)), key=cmp_to_key(lambda i, j: _chain_cmp(emitted[i][0], emitted[j][0])))

    cell_index: Dict[int, int] = {}
    edge_index: Dict[HalfEdge, Tuple[int, int]] = {}
    polygons = []
    for new_i, old_i in enumerate(order):
        chain, walk, root = emitted[old_i]
        cell_index[root] = new_i
        polygons.append(Polygon(chain))
        for k, h in enumerate(walk):
            edge_index[h] = (new_i, k)

    gluings = []
    done = set()
    for h, (ci, ei) in edge_index.items():
        if h in done:
            continue
        tw = t.twin(h)
        cj, ej = edge_index[tw]
        eps = transforms[h[0]][0] * t.chart_sign[h] * transforms[tw[0]][0]
        kind = sf.TRANSLATION if eps == 1 else sf.REFLECTION
        gluings.append(Gluing((ci, ei), (cj, ej), kind))
        done.add(h)
        done.add(tw)
    gluings.sort(key=lambda g: (g.edge_a, g.edge_b))
    kind = sf.TRANSLATION if all(g.kind == sf.TRANSLATION for g in gluings) else "half_translation"
    return Surface(polygons, gluings, kind)


# -- canonical combinatorial codes -----------------------------------------------------


def _code_from(t: Triangulation, start: HalfEdge, mirror: bool) -> Tuple[int, ...]:
    """Canonical relabeling code by BFS from a starting half-edge.

    Half-edges are numbered in discovery order; the code lists, for each
    half-edge in order, the label of its twin.  Mirror codes traverse each
    triangle in reversed orientation.
    """
    step = _prev if mirror else _next
    labels: Dict[HalfEdge, int] = {}
    order: List[HalfEdge] = []

    def visit_triangle(h: HalfEdge) -> None:
        cur = h
        for _ in range(3):
            labels[cur] = len(order)
            order.append(cur)
            cur = step(cur)

    visit_triangle(start)
    i = 0
    while i < len(order):
        h = order[i]
        tw = t.glue[h]
        if tw not in labels:
            visit_triangle(tw)
        i += 1
    return tuple(labels[t.glue[h]] for h in order)


def canonical_code(t: Triangulation, include_mirror: bool = True) -> Tuple[int, ...]:
    best = None
    for h in t.half_edges():
        for mirror in ((False, True) if include_mirror else (False,)):
            code = _code_from(t, h, mirror)
            if best is None or code < best:
                best = code
    return best


def triangle_shape_multiset(t: Triangulation):
    """Multiset of triangle edge-vector triples up to cyclic rotation."""
    out = []
    for tri in t.vecs:
        rots = [tuple(tri[i:] + tri[:i]) for i in range(3)]
        out.append(min(rots, key=lambda r: [(to_float(v[0]), to_float(v[1])) for v in r]))
    return sorted(out, key=lambda r: [(to_float(v[0]), to_float(v[1])) for v in r])
