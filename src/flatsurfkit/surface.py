"""Flat surfaces as glued planar polygons.

A surface is an ordered list of convex polygons (each in its own chart;
there is no global embedding) together with a perfect matching of edges.
Edges are identified either by translation (edge vectors antiparallel) or
by point reflection v -> -v (edge vectors equal).  A point-reflection
gluing may identify an edge with itself, folding it at its midpoint and
creating a cone point of angle pi there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .numeric import (
    FLOAT_TOL,
    Mat2,
    Point,
    Scalar,
    Vec2,
    cross_sign,
    is_exact,
    mat_vec,
    scaled_points,
    sign,
    vec_neg,
    vec_sub,
    vectors_match,
)

TRANSLATION = "translation"
HALF_TRANSLATION = "half_translation"
REFLECTION = "reflection"

EdgeRef = Tuple[int, int]


class SurfaceError(ValueError):
    """Raised when an operation is applied to an unusable surface."""


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


class Polygon:
    """Convex polygon given by its counterclockwise vertex chain."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: Sequence[Point]):
        self.vertices = tuple((v[0], v[1]) for v in vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Polygon({list(self.vertices)})"

    def edge_vector(self, i: int) -> Vec2:
        n = len(self.vertices)
        return vec_sub(self.vertices[(i + 1) % n], self.vertices[i])

    def edge_vectors(self) -> List[Vec2]:
        return [self.edge_vector(i) for i in range(len(self.vertices))]

    def area(self) -> Scalar:
        """The shoelace area.  On float vertices it is summed on their
        doubles scaled by one power of two (scaled_points) and scaled back,
        which is exact in the double range, so an area beyond that range is
        inf, not the NaN of inf - inf."""
        vs = self.vertices
        if not self.is_exact():
            pts = scaled_points(vs)
            if pts is not None:
                e = math.frexp(max(abs(float(x)) for p in vs for x in p))[1]
                half = _shoelace(pts) * 0.5
                try:
                    return math.ldexp(half, 2 * e)
                except OverflowError:
                    return math.copysign(math.inf, half)
        return _shoelace(vs) * Fraction(1, 2)

    def is_strictly_convex(self) -> bool:
        """Every turn strictly left; on floats at any scale (cross_sign)."""
        n = len(self.vertices)
        if n < 3:
            return False
        ev = self.edge_vectors()
        return all(cross_sign(ev[i], ev[(i + 1) % n]) > 0 for i in range(n))

    def translated_to_origin(self) -> "Polygon":
        v0 = self.vertices[0]
        return Polygon([vec_sub(v, v0) for v in self.vertices])

    def is_exact(self) -> bool:
        return all(is_exact(x) and is_exact(y) for x, y in self.vertices)


def _shoelace(vs: Sequence[Point]) -> Scalar:
    """Twice the signed area of the polygon with vertices vs."""
    total: Scalar = 0
    for i in range(len(vs)):
        j = (i + 1) % len(vs)
        total = total + (vs[i][0] * vs[j][1] - vs[j][0] * vs[i][1])
    return total


@dataclass(frozen=True)
class Gluing:
    edge_a: EdgeRef
    edge_b: EdgeRef
    kind: str  # TRANSLATION or REFLECTION

    @property
    def is_fold(self) -> bool:
        return self.edge_a == self.edge_b


@dataclass(frozen=True)
class ConePoint:
    """A vertex cycle (or folded-edge midpoint) with its total angle."""

    corners: Tuple[EdgeRef, ...]  # (polygon, vertex) flags; empty for a fold
    angle_pi: int                 # total angle as an integer multiple of pi
    angle: float                  # total angle, radians
    fold_edge: Optional[EdgeRef] = None

    @property
    def is_fold(self) -> bool:
        return self.fold_edge is not None


class Surface:
    """Polygons plus a perfect matching of their edges.

    kind is TRANSLATION (all gluings by translation, cone angles multiples
    of 2*pi) or HALF_TRANSLATION (point reflections allowed, multiples of
    pi); validate rejects any other.
    """

    def __init__(self, polygons: Sequence[Polygon], gluings: Sequence[Gluing], kind: str = TRANSLATION):
        self.polygons = tuple(p if isinstance(p, Polygon) else Polygon(p) for p in polygons)
        self.gluings = tuple(gluings)
        self.kind = kind
        self._partner: Dict[EdgeRef, Tuple[EdgeRef, str]] = {}
        for g in self.gluings:
            self._partner[g.edge_a] = (g.edge_b, g.kind)
            self._partner[g.edge_b] = (g.edge_a, g.kind)
        self._corner_cycles: Optional[Tuple[Tuple[EdgeRef, ...], ...]] = None  # kept by corner_cycles
        self._vertex_cycles: Optional[Tuple[ConePoint, ...]] = None  # kept by vertex_cycles

    # -- basic queries --------------------------------------------------------

    def edge_refs(self) -> List[EdgeRef]:
        return [(p, e) for p, poly in enumerate(self.polygons) for e in range(len(poly))]

    def edge_vector(self, ref: EdgeRef) -> Vec2:
        return self.polygons[ref[0]].edge_vector(ref[1])

    def partner(self, ref: EdgeRef) -> EdgeRef:
        return self._partner[ref][0]

    def gluing_kind(self, ref: EdgeRef) -> str:
        return self._partner[ref][1]

    def is_exact(self) -> bool:
        return all(p.is_exact() for p in self.polygons)

    def __eq__(self, other) -> bool:
        """Data equality: polygons up to per-polygon translation, same gluings."""
        if not isinstance(other, Surface):
            return NotImplemented
        if self.kind != other.kind or len(self.polygons) != len(other.polygons):
            return False
        if set(self.gluings) != set(other.gluings):
            return False
        return all(
            p.translated_to_origin() == q.translated_to_origin()
            for p, q in zip(self.polygons, other.polygons)
        )

    def __hash__(self):
        return hash((self.kind, len(self.polygons), frozenset(self.gluings)))

    def __repr__(self):
        return f"Surface({len(self.polygons)} polygons, {len(self.gluings)} gluings, {self.kind})"


# -- validation -----------------------------------------------------------------


def validate(s: Surface) -> List[Violation]:
    """Check all surface invariants; an empty list means the surface is valid."""
    out: List[Violation] = []
    if not s.polygons:
        out.append(Violation("no-polygons", "the surface has no polygons"))
    if s.kind not in (TRANSLATION, HALF_TRANSLATION):
        out.append(Violation("bad-surface-kind", f"unknown surface kind {s.kind!r}"))

    for p, poly in enumerate(s.polygons):
        if len(poly) < 3:
            out.append(Violation("polygon-degenerate", f"polygon {p} has fewer than 3 vertices"))
        elif not poly.is_strictly_convex():
            out.append(Violation("polygon-not-convex", f"polygon {p} is not strictly convex counterclockwise"))

    seen: Dict[EdgeRef, int] = {}
    for g in s.gluings:
        for ref in ((g.edge_a, g.edge_b) if not g.is_fold else (g.edge_a,)):
            seen[ref] = seen.get(ref, 0) + 1
            p, e = ref
            if not (0 <= p < len(s.polygons) and 0 <= e < len(s.polygons[p])):
                out.append(Violation("edge-out-of-range", f"gluing {g.edge_a}~{g.edge_b} names no edge {ref}"))
        if g.kind not in (TRANSLATION, REFLECTION):
            out.append(Violation("bad-kind", f"unknown gluing kind {g.kind!r}"))
        if g.is_fold and g.kind == TRANSLATION:
            out.append(Violation("self-gluing", f"edge {g.edge_a} glued to itself by translation"))
    for ref in s.edge_refs():
        count = seen.get(ref, 0)
        if count == 0:
            out.append(Violation("edge-unmatched", f"edge {ref} appears in no gluing"))
        elif count > 1:
            out.append(Violation("edge-matched-twice", f"edge {ref} appears in {count} gluings"))

    if out:
        return out  # vector / angle checks assume a sane matching

    for g in s.gluings:
        va = s.edge_vector(g.edge_a)
        vb = s.edge_vector(g.edge_b)
        if g.kind == TRANSLATION:
            if not vectors_match(va, vec_neg(vb)):
                out.append(Violation("vector-mismatch", f"translation gluing {g.edge_a}~{g.edge_b} edges not antiparallel"))
        else:
            if s.kind == TRANSLATION:
                out.append(Violation("kind-mismatch", f"point-reflection gluing {g.edge_a}~{g.edge_b} on a translation surface"))
            if not vectors_match(va, vb):
                out.append(Violation("vector-mismatch", f"point-reflection gluing {g.edge_a}~{g.edge_b} edges not equal"))

    # Connectivity of the polygon gluing graph (it has a polygon 0: see above).
    seen_p = {0}
    stack = [0]
    while stack:
        p = stack.pop()
        for e in range(len(s.polygons[p])):
            q = s.partner((p, e))[0]
            if q not in seen_p:
                seen_p.add(q)
                stack.append(q)
    if len(seen_p) != len(s.polygons):
        out.append(Violation("disconnected", f"only {len(seen_p)} of {len(s.polygons)} polygons reachable"))

    if out:
        return out

    try:
        cones = vertex_cycles(s)
    except SurfaceError as exc:
        out.append(Violation("angle-inconsistent", str(exc)))
        return out
    for c in cones:
        if c.angle_pi < 1:
            out.append(Violation("angle-too-small", f"cone angle {c.angle_pi}*pi below pi"))
        if s.kind == TRANSLATION and c.angle_pi % 2 != 0:
            out.append(Violation("angle-odd", f"cone angle {c.angle_pi}*pi on a translation surface"))
    return out


# -- vertex cycles and cone angles ------------------------------------------------


def _corner_step(s: Surface, corner: EdgeRef) -> EdgeRef:
    """Next corner counterclockwise around the same surface vertex."""
    p, i = corner
    q, j = s.partner((p, i))
    return (q, (j + 1) % len(s.polygons[q]))


def corner_cycles(s: Surface) -> Tuple[Tuple[EdgeRef, ...], ...]:
    """The corners around each vertex, counterclockwise (_corner_step) from
    the vertex's least corner, ordered by that corner.

    Computed once per surface and kept on it as tuples, which no caller can
    change; vertex_cycles, genus and symmetry.fixed_points (once for every
    isometry of a group) all read the kept value."""
    cycles = s._corner_cycles
    if cycles is None:
        seen = set()
        found = []
        for start in s.edge_refs():  # in increasing order
            if start in seen:
                continue
            cycle = [start]
            cur = _corner_step(s, start)
            while cur != start:
                cycle.append(cur)
                cur = _corner_step(s, cur)
            seen.update(cycle)
            found.append(tuple(cycle))
        cycles = s._corner_cycles = tuple(found)
    return cycles


def _corner_angle_data(s: Surface, corner: EdgeRef):
    """(float angle, exact complex) of the interior angle at a corner.

    The float angle is taken from the doubles of the corner's two edge
    vectors, scaled by one power of two (scaled_points) so that it does
    not depend on the surface's scale; SurfaceError where a vector's
    doubles are 0 or not finite."""
    p, i = corner
    poly = s.polygons[p]
    n = len(poly)
    out_e = poly.edge_vector(i)
    back = vec_neg(poly.edge_vector((i - 1) % n))
    # conj(out) * back, as a complex number over the scalar tower
    re = out_e[0] * back[0] + out_e[1] * back[1]
    im = out_e[0] * back[1] - out_e[1] * back[0]
    d = scaled_points((out_e, back))
    if d is None or not all(map(any, d)):
        raise SurfaceError(f"corner {corner} has no finite nonzero edge vector doubles")
    (ox, oy), (bx, by) = d
    ang = math.atan2(ox * by - oy * bx, ox * bx + oy * by)
    if ang <= 0:
        ang += 2 * math.pi
    return ang, (re, im)


def vertex_cycles(s: Surface) -> List[ConePoint]:
    """Partition corners into vertex cycles and report exact cone angles.

    For exact scalars the multiple of pi is certified by checking that the
    product of the corner rotation numbers is exactly real; for floats the
    angle must be within FLOAT_TOL of a multiple of pi.  Folded edges add
    one cone point of angle pi at their midpoints.

    Certified once per surface and kept on it; each call returns a fresh
    list of the kept cone points, so validate, cone_points and
    constructions share one certification.  A surface that raises
    SurfaceError keeps nothing, and raises again on the next call.
    """
    kept = s._vertex_cycles
    if kept is not None:
        return list(kept)
    exact = s.is_exact()
    cones: List[ConePoint] = []
    for cycle in corner_cycles(s):
        total = 0.0
        prod_re: Scalar = 1
        prod_im: Scalar = 0
        for corner in cycle:
            ang, (re, im) = _corner_angle_data(s, corner)
            total += ang
            if exact:
                prod_re, prod_im = prod_re * re - prod_im * im, prod_re * im + prod_im * re
        k = int(round(total / math.pi))
        if exact:
            if sign(prod_im) != 0 or k <= 0:
                raise SurfaceError(f"cone angle at cycle {cycle[0]} is not an exact multiple of pi")
            if sign(prod_re) != (1 if k % 2 == 0 else -1):
                raise SurfaceError(f"cone angle parity mismatch at cycle {cycle[0]}")
        else:
            if abs(total - k * math.pi) > FLOAT_TOL:
                raise SurfaceError(f"cone angle {total} at cycle {cycle[0]} is not a multiple of pi at 1e-9")
        cones.append(ConePoint(cycle, k, total))
    for g in s.gluings:
        if g.is_fold:
            cones.append(ConePoint((), 1, math.pi, fold_edge=g.edge_a))
    s._vertex_cycles = tuple(cones)
    return cones


def genus(s: Surface) -> int:
    """Genus from the Euler characteristic of the glued complex.

    chi = V - E + F with one quotient edge per gluing (a folded edge's two
    halves become a single edge) and one extra midpoint vertex per fold:
    chi = #corner-cycles + #folds - #gluings + #polygons.  A surface with
    no polygons has no complex and raises SurfaceError.
    """
    if not s.polygons:
        raise SurfaceError("the surface has no polygons")
    folds = sum(1 for g in s.gluings if g.is_fold)
    chi = len(corner_cycles(s)) + folds - len(s.gluings) + len(s.polygons)
    if chi % 2 != 0 or chi > 2:
        raise SurfaceError(f"inconsistent complex: chi = {chi}")
    return (2 - chi) // 2


def area(s: Surface) -> Scalar:
    total: Scalar = 0
    for p in s.polygons:
        total = total + p.area()
    return total


def cone_points(s: Surface) -> List[ConePoint]:
    """Vertex cycles whose angle differs from the regular 2*pi."""
    return [c for c in vertex_cycles(s) if c.angle_pi != 2]


# -- the GL(2, R) action -----------------------------------------------------------


def apply_linear(m: Mat2, s: Surface) -> Surface:
    """Apply an invertible linear map to every chart.

    Orientation-reversing maps reverse each vertex chain (to keep polygons
    counterclockwise) and remap the gluing edge indices accordingly.  The
    determinant's sign is cross_sign of the rows, so a float matrix is
    singular only where a row is 0 or its rows are parallel, at any scale.
    """
    d = cross_sign(m[0], m[1])
    if d == 0:
        raise SurfaceError("apply_linear: singular matrix")
    if d > 0:
        polys = [Polygon([mat_vec(m, v) for v in p.vertices]) for p in s.polygons]
        return Surface(polys, s.gluings, s.kind)
    polys = []
    for p in s.polygons:
        imgs = [mat_vec(m, v) for v in p.vertices]
        n = len(imgs)
        polys.append(Polygon([imgs[0]] + [imgs[n - j] for j in range(1, n)]))

    def remap(ref: EdgeRef) -> EdgeRef:
        p, k = ref
        n = len(s.polygons[p])
        return (p, n - 1 - k)

    gluings = [Gluing(remap(g.edge_a), remap(g.edge_b), g.kind) for g in s.gluings]
    return Surface(polys, gluings, s.kind)


# -- genus-2 correspondence: cut along opposite sides of a square -------------------

HORIZONTAL = "horizontal"
VERTICAL = "vertical"


def cut_and_reglue_square(s: Surface, square: int, axis: str = HORIZONTAL) -> Surface:
    """Cut along an opposite edge pair of a parallelogram cell and reglue.

    The two designated translation gluings are replaced by point-reflection
    gluings pairing each cut edge with the free edge created by the other
    cut.  When the pair was glued to itself the new gluings fold each edge
    onto itself.  The result is a half-translation surface.
    """
    if square < 0 or square >= len(s.polygons):
        raise SurfaceError(f"no polygon with index {square}")
    poly = s.polygons[square]
    if len(poly) != 4:
        raise SurfaceError(f"polygon {square} is not a quadrilateral")
    ev = poly.edge_vectors()
    if not (vectors_match(ev[0], vec_neg(ev[2])) and vectors_match(ev[1], vec_neg(ev[3]))):
        raise SurfaceError(f"polygon {square} is not a parallelogram")
    if axis == HORIZONTAL:
        pair = ((square, 0), (square, 2))
    elif axis == VERTICAL:
        pair = ((square, 1), (square, 3))
    else:
        raise SurfaceError(f"unknown axis {axis!r}")
    edge_a, edge_b = pair
    if s.gluing_kind(edge_a) != TRANSLATION or s.gluing_kind(edge_b) != TRANSLATION:
        raise SurfaceError("designated edges are not translation-glued")
    partner_a = s.partner(edge_a)
    partner_b = s.partner(edge_b)
    if partner_a == edge_b:
        # The pair is glued to itself; both cuts fold.
        new = [Gluing(edge_a, edge_a, REFLECTION), Gluing(edge_b, edge_b, REFLECTION)]
    else:
        new = [Gluing(edge_a, partner_b, REFLECTION), Gluing(edge_b, partner_a, REFLECTION)]
    kept = [g for g in s.gluings if edge_a not in (g.edge_a, g.edge_b) and edge_b not in (g.edge_a, g.edge_b)]
    return Surface(s.polygons, kept + new, kind=HALF_TRANSLATION)
