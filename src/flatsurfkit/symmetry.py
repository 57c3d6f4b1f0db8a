"""Isometries of flat surfaces via automorphisms of the Delaunay decomposition.

The Delaunay decomposition is isometry-invariant and canonical up to the
order of congruent cells, so two surfaces are isometric exactly when their
decompositions admit a flag-compatible matching.  `isometries_between`
finds each one as a start whose labelled walk (`delaunay._code_below`)
ties with a base flag's, so the order of congruent cells is harmless.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .numeric import (
    FLOAT_TOL,
    Mat2,
    Vec2,
    dot,
    is_exact,
    mat_inv,
    mat_mul,
    mat_transpose,
    scaled_points,
    vec_neg,
    vectors_match,
)
from . import delaunay as dl
from . import surface as sf
from .surface import Surface, SurfaceError

Flag = Tuple[int, int]  # (cell, corner)


def decompose(s: Surface) -> Surface:
    """The Delaunay decomposition of a surface (cells as a new Surface)."""
    return dl.decomposition(dl.delaunayize(dl.triangulate(s)))


def _offsets(s: Surface) -> List[int]:
    """Flag numbering: flag (p, i) is offsets[p] + i; offsets[-1] counts the flags."""
    return list(accumulate((len(poly) for poly in s.polygons), initial=0))


@dataclass
class Isometry:
    """An isometry presented on the Delaunay decomposition.

    perm is the flag map: it sends flag (cell, corner), numbered
    offsets[cell] + corner (`_offsets`), of the source decomposition to a
    flag of the target (`image` reads one back), and alone decides equality.
    The derivative is the orthogonal matrix read in the charts of source
    cell 0 and its image cell.  The search requires every cell to share it,
    which on a half-translation surface (`genus2`, `cut_and_reglue_square`)
    depends on the chart sign each cell was given.
    """

    source: Surface
    target: Surface
    derivative: Mat2
    orientation: int  # +1 preserving, -1 reversing
    perm: Tuple[int, ...]

    @cached_property
    def _flag_offsets(self) -> Tuple[List[int], List[int]]:
        """(_offsets(source), _offsets(target)), built at the first image call."""
        return _offsets(self.source), _offsets(self.target)

    def image(self, flag: Flag) -> Flag:
        """The target flag that a source flag is sent to."""
        p, i = flag
        src, off = self._flag_offsets
        k = self.perm[src[p] + i]
        q = bisect_right(off, k) - 1
        return q, k - off[q]

    def is_identity(self) -> bool:
        return self.perm == tuple(range(len(self.perm)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Isometry) and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def derivative_floats(self) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        return tuple(tuple(float(x) for x in row) for row in self.derivative)

    def name_hint(self) -> str:
        """Conventional name by derivative signature (family surfaces only)."""
        d = self.derivative
        near = lambda m: vectors_match(d[0], m[0]) and vectors_match(d[1], m[1])
        if near(((1, 0), (0, 1))):
            return "id"
        if near(((-1, 0), (0, -1))):
            return "tau"
        if near(((1, 0), (0, -1))) or near(((-1, 0), (0, 1))):
            return "sigma"
        if near(((0, 1), (1, 0))) or near(((0, -1), (-1, 0))):
            return "rho"
        return "other"


def _flags(*surfaces: Surface) -> Tuple[List[Vec2], List[int], List[int], List[int], List[tuple]]:
    """(edge, next, prev, twin, glue) of the surfaces' flags, one surface
    after the other: flag offsets[p] + i of a surface (shifted by the flags
    before it) is edge i of cell p, from corner i to i + 1, and stands for
    corner i; twin is the flag glued to it, glue its gluing kind and cell size."""
    edge, nxt, prev, twin, glue = [], [], [], [], []
    for s in surfaces:
        off = [len(edge) + k for k in _offsets(s)]
        for p, poly in enumerate(s.polygons):
            n = len(poly)
            for i in range(n):
                edge.append(poly.edge_vector(i))
                nxt.append(off[p] + (i + 1) % n)
                prev.append(off[p] + (i - 1) % n)
                q, j = s.partner((p, i))
                twin.append(off[q] + j)
                glue.append((s.gluing_kind((p, i)), n))
    return edge, nxt, prev, twin, glue


def _float_ids(values: List[float], relative: bool) -> List[int]:
    """Ids, equal for values within 2 FLOAT_TOL (times the larger value when
    relative, for positive values): sorted values merge with their neighbours,
    and a merged run whose ends are farther apart than that raises SurfaceError.
    A repeated value joins its first copy's group, so the values of two
    copies of a surface group as one copy's do."""
    ids = [0] * len(values)
    group, first, last = -1, None, None
    for k in sorted(range(len(values)), key=values.__getitem__):
        v = values[k]
        tol = 2 * FLOAT_TOL * (v if relative else 1.0)
        if last is None or v - last > tol:
            group, first = group + 1, v
        elif v - first > tol:
            raise SurfaceError(f"corner values {first!r} .. {v!r} chain within tolerance "
                               "but are not within it of each other")
        ids[k], last = group, v
    return ids


def _corner_labels(edge: List[Vec2], nxt: List[int], prev: List[int], glue: List[tuple]):
    """(forward, mirror) interned labels of the flags.  Forward, flag k gets
    (|out|^2, |in|^2, out.in) of out = edge k and in = the edge before it, and
    glue[k]; mirror reads in = the edge after it, as a reversing isometry
    sends a corner to the corner at the end of an edge.  Exact entries intern
    by value, float ones as (|out|^2, |in|^2, cos) through `_float_ids`."""
    sq = [dot(e, e) for e in edge]
    dots = [dot(e, edge[prev[k]]) for k, e in enumerate(edge)]
    if not all(map(is_exact, sq + dots)):
        sq = [float(x) for x in sq]
        dots = _float_ids([float(d) / math.sqrt(sq[k] * sq[prev[k]]) for k, d in enumerate(dots)], False)
        sq = _float_ids(sq, True)
    index: Dict[tuple, int] = {}

    def label(k: int, other: int, corner: int) -> int:
        return index.setdefault((sq[k], sq[other], dots[corner], glue[k]), len(index))

    return [label(k, prev[k], k) for k in range(len(edge))], [label(k, nxt[k], nxt[k]) for k in range(len(edge))]


def isometries_between(dec_a: Surface, dec_b: Surface) -> List[Isometry]:
    """All isometries between two Delaunay decompositions (may be empty).

    a's code is `delaunay._code_below`'s walk over the labelled flags from
    flag 0; every start and orientation of b whose code ties with it is an
    isometry, its flag map read off the two discovery orders.  Equal Gram
    entries at a corner fix one orthogonal map of the walk's determinant,
    two such maps that agree on a shared edge are equal, and equal gluing
    kinds carry the map across each gluing; so on a connected decomposition
    equal labels everywhere force one derivative, and no edge is checked
    after the walk.  The derivative is read at flag 0: the frame of its two
    edges is inverted once per search, and each isometry's derivative is
    the frame of the two image edges times that inverse.  A start whose
    label differs from flag 0's is skipped before its walk: a walk's first
    entry is a flag number below len(twin) plus its start's label times
    len(twin), so it cannot tie.  Float edge vectors are first scaled, all
    by one power of two (scaled_points), so that neither their Gram entries
    nor the derivative depend on the surfaces' scale.

    When dec_b is dec_a (as in `isometries`) the flags, Gram entries and
    labels are built once, and both walks run on them; float Gram values
    group the same in one copy as in two (`_float_ids`), so the labels, and
    the isometries, are those of two copies.
    """
    out: List[Isometry] = []
    m = _offsets(dec_a)[-1]
    base = 0 if dec_b is dec_a else m  # b's flag k is flag base + k
    edge, nxt, prev, twin, glue = _flags(dec_a) if base == 0 else _flags(dec_a, dec_b)
    if not m or len(edge) != base + m:
        return out
    if not all(is_exact(x) for e in edge for x in e):
        edge = scaled_points(edge)
        if edge is None:
            raise SurfaceError("the cells' edge vectors have no finite doubles")
    forward, mirror = _corner_labels(edge, nxt, prev, glue)
    code, order_a = dl._code_below(twin, nxt, 0, None, forward)
    if len(order_a) < m:
        return out  # a is not connected
    u1, u2 = edge[0], edge[prev[0]]
    u_inv = mat_inv(((u1[0], u2[0]), (u1[1], u2[1])))
    for orientation, step, labels in ((1, nxt, forward), (-1, prev, mirror)):
        for start in range(base, base + m):
            if labels[start] != forward[0]:
                continue
            found = dl._code_below(twin, step, start, code, labels)
            if found is None or found[0] != code:
                continue
            image = dict(zip(order_a, found[1]))
            # Reversing, edge k goes to edge image[k] backwards: corner k to its end.
            perm = tuple((image[k] if orientation == 1 else nxt[image[k]]) - base for k in range(m))
            w1, w2 = edge[image[0]], edge[image[prev[0]]]
            if orientation == -1:
                w1, w2 = vec_neg(w1), vec_neg(w2)
            w = ((w1[0], w2[0]), (w1[1], w2[1]))
            out.append(Isometry(dec_a, dec_b, mat_mul(w, u_inv), orientation, perm))
    # Offsets are monotone, so this orders by the image of flag (0, 0).
    out.sort(key=lambda iso: (iso.perm[0], -iso.orientation))
    return out


def isometries(s: Surface) -> List[Isometry]:
    """The isometry group of a surface, acting on its Delaunay decomposition."""
    dec = decompose(s)
    return isometries_between(dec, dec)


def compose(a: Isometry, b: Isometry) -> Isometry:
    """The isometry 'a after b'."""
    if a.source is not b.target and a.source != b.target:
        raise SurfaceError("cannot compose isometries of different surfaces")
    return Isometry(
        b.source,
        a.target,
        mat_mul(a.derivative, b.derivative),
        a.orientation * b.orientation,
        tuple(a.perm[k] for k in b.perm),
    )


def inverse(iso: Isometry) -> Isometry:
    perm = [0] * len(iso.perm)
    for k, v in enumerate(iso.perm):
        perm[v] = k
    return Isometry(iso.target, iso.source, mat_transpose(iso.derivative), iso.orientation, tuple(perm))


@dataclass(frozen=True)
class GroupSummary:
    order: int
    element_orders: Tuple[int, ...]
    abelian: bool
    dihedral: bool


def element_order(iso: Isometry) -> int:
    """Order of a self-isometry: the lcm of its flag permutation's cycle lengths."""
    perm, order, seen = iso.perm, 1, set()
    for start in range(len(perm)):
        if start not in seen:
            cycle = [start]
            while perm[cycle[-1]] != start:
                cycle.append(perm[cycle[-1]])
            seen.update(cycle)
            order = math.lcm(order, len(cycle))
    return order


def group_summary(isos: Sequence[Isometry]) -> GroupSummary:
    """Order, element orders, abelian and dihedral flags; verifies closure.

    Works on the flag permutations alone, through their Cayley table.
    """
    perms = [iso.perm for iso in isos]
    index = {perm: k for k, perm in enumerate(perms)}
    n = len(perms)
    # table[i][j] indexes x_i after y_j, the tuple of x_i[k] for k in y_j,
    # which itemgetter(*y_j) builds in C; on fewer than two flags it would
    # return a bare item (or raise), so those compose in Python.
    compose_with = [itemgetter(*y) if len(y) > 1 else (lambda x, y=y: tuple(x[k] for k in y)) for y in perms]
    table = []
    for x in perms:
        row = [index.get(after(x)) for after in compose_with]
        if None in row:
            raise SurfaceError("isometry list is not closed under composition")
        table.append(row)
    orders = [element_order(iso) for iso in isos]
    abelian = all(table[i][j] == table[j][i] for i in range(n) for j in range(n))
    dihedral = False
    if n >= 4 and n % 2 == 0:
        half = n // 2
        ident = orders.index(1)
        inv = [table[i].index(ident) for i in range(n)]
        for r in range(n):
            if orders[r] != half:
                continue
            powers = set()
            cur = r
            for _ in range(half):
                powers.add(cur)
                cur = table[r][cur]
            for s in range(n):
                if s in powers or orders[s] != 2:
                    continue
                # s r s^-1 == r^-1
                if table[table[s][r]][inv[s]] == inv[r]:
                    dihedral = True
                    break
            if dihedral:
                break
    return GroupSummary(n, tuple(sorted(orders)), abelian, dihedral)


# -- fixed points ---------------------------------------------------------------------


@dataclass(frozen=True)
class LocatedPoint:
    cell: int
    point: Tuple[float, float]
    kind: str  # "interior", "edge-midpoint", "vertex"


@dataclass
class FixedLocus:
    all_points: bool = False
    points: List[LocatedPoint] = field(default_factory=list)
    segments: List[Tuple[int, Tuple[float, float], Tuple[float, float]]] = field(default_factory=list)
    segment_components: int = 0


def _float_point(v: Vec2) -> Tuple[float, float]:
    return float(v[0]), float(v[1])


def _edge_midpoint(poly: sf.Polygon, i: int) -> Tuple[float, float]:
    (x0, y0), (x1, y1) = _float_point(poly.vertices[i]), _float_point(poly.vertices[(i + 1) % len(poly)])
    return (x0 + x1) / 2, (y0 + y1) / 2


def _self_cells(iso: Isometry):
    """(p, c0) for each cell p sent onto itself, corner 0 going to corner c0."""
    for p in range(len(iso.source.polygons)):
        q, c0 = iso.image((p, 0))
        if q == p:
            yield p, c0


def _edges_onto_partner(iso: Isometry):
    """(cell, edge) of each glued edge, one side per gluing, sent onto its partner."""
    s = iso.source
    for g in s.gluings:
        p, i = g.edge_a
        q, j = iso.image((p, i))
        if iso.orientation == -1:
            j = (j - 1) % len(iso.target.polygons[q])  # a reversed edge starts at its end's image
        if (q, j) == s.partner((p, i)):
            yield p, i


def _reflection_features(n: int, c0: int) -> List[Tuple[str, int]]:
    """The two features of an n-gon's boundary that x -> c0 - x (mod n) fixes:
    ("vertex", x) and ("edge", x), the edge from corner x to x + 1."""
    return [(kind, x) for x in range(n) for kind, k in (("vertex", 2 * x), ("edge", 2 * x + 1))
            if (k - c0) % n == 0]


def fixed_points(iso: Isometry) -> FixedLocus:
    """Fixed points (preserving) or fixed segments (reversing) of a self-isometry.

    Read off the flag permutation alone.  A cell p sent onto itself (corner
    0 to corner c0 of p) also fixes the mean of its vertices.  Preserving,
    it is a rotation about that mean: one "interior" point.  Reversing, it
    is a reflection, never a glide, whose fixed chord joins the two boundary
    features its corner map x -> c0 - x fixes (`_reflection_features`): a
    corner with 2x = c0, or the midpoint of an edge with 2x + 1 = c0 (mod n).
    A glued edge sent onto its partner has its midpoint fixed (preserving)
    or is fixed as a whole (reversing).  A preserving isometry also fixes
    each vertex whose corner cycle it maps to itself.

    Points are located by cell id and chart coordinates, in that order:
    interior points, edge midpoints, vertices.  Reversing isometries return
    per-cell segments (self-cell chords, then whole edges) and their number
    of connected components on the surface, joined at shared vertices and
    at shared edge midpoints.  Coordinates are the floats of the exact ones.
    The vertices are the source's corner cycles, which `surface.corner_cycles`
    keeps on it, so the isometries of one group share one computation.
    """
    s = iso.source
    if iso.is_identity():
        return FixedLocus(all_points=True)
    locus = FixedLocus()
    cycles = sf.corner_cycles(s)
    cycle_of: Dict[Flag, int] = {c: k for k, cyc in enumerate(cycles) for c in cyc}

    if iso.orientation == 1:
        for p, _ in _self_cells(iso):
            poly = s.polygons[p]
            mean = [sum(c) * Fraction(1, len(poly)) for c in zip(*poly.vertices)]
            locus.points.append(LocatedPoint(p, _float_point(mean), "interior"))
        for p, i in _edges_onto_partner(iso):
            locus.points.append(LocatedPoint(p, _edge_midpoint(s.polygons[p], i), "edge-midpoint"))
        for k, cyc in enumerate(cycles):
            if cycle_of[iso.image(cyc[0])] == k:
                p, i = cyc[0]
                locus.points.append(LocatedPoint(p, _float_point(s.polygons[p].vertices[i]), "vertex"))
        return locus

    # Each segment end is keyed by the vertex (corner cycle) or glued edge it lies on.
    ends = []
    for p, c0 in _self_cells(iso):
        poly = s.polygons[p]
        chord = []
        for kind, x in _reflection_features(len(poly), c0):
            if kind == "vertex":
                chord.append((_float_point(poly.vertices[x]), ("vertex", cycle_of[(p, x)])))
            else:
                chord.append((_edge_midpoint(poly, x), ("edge", min((p, x), s.partner((p, x))))))
        (a, key_a), (b, key_b) = chord
        locus.segments.append((p, a, b))
        ends.append((key_a, key_b))
    for p, i in _edges_onto_partner(iso):
        poly = s.polygons[p]
        j = (i + 1) % len(poly)
        locus.segments.append((p, _float_point(poly.vertices[i]), _float_point(poly.vertices[j])))
        ends.append((("vertex", cycle_of[(p, i)]), ("vertex", cycle_of[(p, j)])))

    root: Dict[object, object] = {}

    def find(k):
        while root.setdefault(k, k) != k:
            k = root[k]
        return k

    for a, b in ends:
        root[find(a)] = find(b)
    locus.segment_components = len({find(a) for a, _ in ends})
    return locus


def affine_equivalent(a: Surface, b: Surface, candidate: Mat2) -> Optional[Isometry]:
    """A witness isometry between candidate * a and b, if one exists."""
    try:
        image = sf.apply_linear(candidate, a)
    except SurfaceError:
        return None
    dec_a = decompose(image)
    dec_b = decompose(b)
    found = isometries_between(dec_a, dec_b)
    return found[0] if found else None
