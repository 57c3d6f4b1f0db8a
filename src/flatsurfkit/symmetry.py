"""Isometries of flat surfaces via automorphisms of the Delaunay decomposition.

The Delaunay decomposition is canonical and isometry-invariant, so two
surfaces are isometric exactly when their decompositions admit a
flag-compatible matching.  The search fixes a base flag (cell 0, corner 0)
of the first decomposition; every choice of image flag and orientation
forces the candidate derivative, which is accepted when it is orthogonal
and the flag map propagates consistently over all cells and gluings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .numeric import (
    FLOAT_TOL,
    Mat2,
    Vec2,
    cross,
    mat_det,
    mat_inv,
    mat_mul,
    mat_transpose,
    mat_vec,
    sign,
    to_float,
    vec_neg,
    vec_scale,
    vec_sub,
    vectors_match,
)
from . import delaunay as dl
from . import surface as sf
from .surface import Surface, SurfaceError

Flag = Tuple[int, int]  # (cell, corner)


def decompose(s: Surface) -> Surface:
    """The Delaunay decomposition of a surface (cells as a new Surface)."""
    return dl.decomposition(dl.delaunayize(dl.triangulate(s)))


def _is_orthogonal(m: Mat2) -> bool:
    """m^T m = I: exactly on exact entries; on floats the Frobenius norm of
    m^T m - I is at most FLOAT_TOL."""
    g = mat_mul(mat_transpose(m), m)
    residual = (g[0][0] - 1, g[0][1], g[1][0], g[1][1] - 1)
    return sign(sum(x * x for x in residual), FLOAT_TOL * FLOAT_TOL) == 0


@dataclass
class Isometry:
    """An isometry presented on the Delaunay decomposition.

    flag_map sends (cell, corner) flags of the source decomposition to
    flags of the target; the derivative is a single orthogonal matrix (the
    decompositions here are translation surfaces, whose charts share one
    tangent plane).
    """

    source: Surface
    target: Surface
    derivative: Mat2
    orientation: int  # +1 preserving, -1 reversing
    flag_map: Dict[Flag, Flag]

    def is_identity(self) -> bool:
        return self.orientation == 1 and all(k == v for k, v in self.flag_map.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, Isometry) and self.flag_map == other.flag_map

    def __hash__(self):
        return hash(tuple(sorted(self.flag_map.items())))

    def derivative_floats(self) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        return tuple(tuple(to_float(x) for x in row) for row in self.derivative)

    def name_hint(self) -> str:
        """Conventional name by derivative signature (family surfaces only)."""
        d = self.derivative_floats()
        near = lambda m: all(abs(d[i][j] - m[i][j]) < 1e-6 for i in range(2) for j in range(2))
        if near(((1, 0), (0, 1))):
            return "id"
        if near(((-1, 0), (0, -1))):
            return "tau"
        if near(((1, 0), (0, -1))) or near(((-1, 0), (0, 1))):
            return "sigma"
        if near(((0, 1), (1, 0))) or near(((0, -1), (-1, 0))):
            return "rho"
        return "other"


def _solve_derivative(u1: Vec2, u2: Vec2, w1: Vec2, w2: Vec2) -> Optional[Mat2]:
    """The matrix sending u1 -> w1, u2 -> w2, if the u's are independent."""
    u = ((u1[0], u2[0]), (u1[1], u2[1]))
    if sign(mat_det(u)) == 0:
        return None
    w = ((w1[0], w2[0]), (w1[1], w2[1]))
    return mat_mul(w, mat_inv(u))


def _corner_edges(s: Surface, flag: Flag) -> Tuple[Vec2, Vec2]:
    """(outgoing, incoming) edge vectors at a corner."""
    p, i = flag
    poly = s.polygons[p]
    n = len(poly)
    return poly.edge_vector(i), poly.edge_vector((i - 1) % n)


def _propagate(
    a: Surface,
    b: Surface,
    deriv: Mat2,
    orientation: int,
    seed: Tuple[Flag, Flag],
) -> Optional[Dict[Flag, Flag]]:
    """Extend a single flag assignment over the whole complex, or fail.

    Per-cell assignments are (image cell, c0) with corner map
    x -> (c0 + x) mod n for orientation-preserving isometries and
    x -> (c0 - x) mod n for reversing ones.
    """
    (p0, i0), (q0, j0) = seed
    cell_map: Dict[int, Tuple[int, int]] = {}
    queue = [(p0, q0, (j0 - i0) % len(b.polygons[q0]) if orientation == 1 else (j0 + i0) % len(b.polygons[q0]))]
    while queue:
        p, q, c0 = queue.pop()
        if p in cell_map:
            if cell_map[p] != (q, c0):
                return None
            continue
        poly_a = a.polygons[p]
        poly_b = b.polygons[q]
        n = len(poly_a)
        if len(poly_b) != n:
            return None
        cell_map[p] = (q, c0)
        for x in range(n):
            if orientation == 1:
                m = (c0 + x) % n
                want = b.polygons[q].edge_vector(m)
            else:
                m = (c0 - x - 1) % n
                want = vec_neg(b.polygons[q].edge_vector(m))
            if not vectors_match(mat_vec(deriv, poly_a.edge_vector(x)), want):
                return None
            if a.gluing_kind((p, x)) != b.gluing_kind((q, m)):
                return None
            p2, x2 = a.partner((p, x))
            q2, m2 = b.partner((q, m))
            n2 = len(b.polygons[q2])
            if orientation == 1:
                c2 = (m2 - x2) % n2
            else:
                c2 = (m2 + 1 + x2) % n2
            queue.append((p2, q2, c2))
    flag_map: Dict[Flag, Flag] = {}
    for p, (q, c0) in cell_map.items():
        n = len(a.polygons[p])
        for x in range(n):
            flag_map[(p, x)] = (q, (c0 + x) % n if orientation == 1 else (c0 - x) % n)
    if len(flag_map) != sum(len(poly) for poly in a.polygons):
        return None
    return flag_map


def isometries_between(dec_a: Surface, dec_b: Surface) -> List[Isometry]:
    """All isometries between two Delaunay decompositions (may be empty)."""
    out: List[Isometry] = []
    if not dec_a.polygons or not dec_b.polygons:
        return out
    base = (0, 0)
    u1, u2 = _corner_edges(dec_a, base)
    for q, poly in enumerate(dec_b.polygons):
        for j in range(len(poly)):
            for orientation in (1, -1):
                w_out, w_in = _corner_edges(dec_b, (q, j))
                if orientation == 1:
                    deriv = _solve_derivative(u1, u2, w_out, w_in)
                else:
                    deriv = _solve_derivative(u1, u2, vec_neg(w_in), vec_neg(w_out))
                if deriv is None or not _is_orthogonal(deriv):
                    continue
                flag_map = _propagate(dec_a, dec_b, deriv, orientation, (base, (q, j)))
                if flag_map is not None:
                    out.append(Isometry(dec_a, dec_b, deriv, orientation, flag_map))
    out.sort(key=lambda iso: (iso.flag_map[base], -iso.orientation))
    return out


def isometries(s: Surface) -> List[Isometry]:
    """The isometry group of a surface, acting on its Delaunay decomposition."""
    dec = decompose(s)
    return isometries_between(dec, dec)


def compose(a: Isometry, b: Isometry) -> Isometry:
    """The isometry 'a after b'."""
    if a.source is not b.target and a.source != b.target:
        raise SurfaceError("cannot compose isometries of different surfaces")
    flag_map = {k: a.flag_map[v] for k, v in b.flag_map.items()}
    return Isometry(
        b.source,
        a.target,
        mat_mul(a.derivative, b.derivative),
        a.orientation * b.orientation,
        flag_map,
    )


def inverse(iso: Isometry) -> Isometry:
    flag_map = {v: k for k, v in iso.flag_map.items()}
    return Isometry(iso.target, iso.source, mat_transpose(iso.derivative), iso.orientation, flag_map)


@dataclass(frozen=True)
class GroupSummary:
    order: int
    element_orders: Tuple[int, ...]
    abelian: bool
    dihedral: bool


def element_order(iso: Isometry, cap: int = 64) -> int:
    cur = iso
    for k in range(1, cap + 1):
        if cur.is_identity():
            return k
        cur = compose(iso, cur)
    raise SurfaceError(f"element order exceeds {cap}")


def group_summary(isos: Sequence[Isometry]) -> GroupSummary:
    """Order, element orders, abelian and dihedral flags; verifies closure."""
    elems = list(isos)
    index = {iso: k for k, iso in enumerate(elems)}
    n = len(elems)
    table = [[0] * n for _ in range(n)]
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            z = compose(x, y)
            if z not in index:
                raise SurfaceError("isometry list is not closed under composition")
            table[i][j] = index[z]
    orders = tuple(sorted(element_order(x) for x in elems))
    abelian = all(table[i][j] == table[j][i] for i in range(n) for j in range(n))
    dihedral = False
    if n >= 4 and n % 2 == 0:
        half = n // 2
        for i, r in enumerate(elems):
            if element_order(r) != half:
                continue
            powers = set()
            cur = r
            for _ in range(half):
                powers.add(index[cur])
                cur = compose(r, cur)
            for j, s in enumerate(elems):
                if j in powers or element_order(s) != 2:
                    continue
                # s r s^-1 == r^-1
                conj = compose(compose(s, r), inverse(s))
                if conj == inverse(r):
                    dihedral = True
                    break
            if dihedral:
                break
    return GroupSummary(n, orders, abelian, dihedral)


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


def _cell_affine(iso: Isometry, p: int) -> Optional[Vec2]:
    """Translation part of the self-map of cell p, or None if p moves."""
    q, j0 = iso.flag_map[(p, 0)]
    if q != p:
        return None
    poly = iso.source.polygons[p]
    return vec_sub(poly.vertices[j0], mat_vec(iso.derivative, poly.vertices[0]))


def _point_in_polygon(poly: sf.Polygon, x: Vec2, strict: bool) -> bool:
    n = len(poly)
    for i in range(n):
        c = sign(cross(poly.edge_vector(i), vec_sub(x, poly.vertices[i])))
        if strict and c <= 0:
            return False
        if not strict and c < 0:
            return False
    return True


def _direct_edge_image(iso: Isometry, edge: Flag) -> Flag:
    """Image of a directed cell edge under the flag map."""
    p, i = edge
    q, j = iso.flag_map[(p, i)]
    if iso.orientation == 1:
        return (q, j)
    n = len(iso.target.polygons[q])
    return (q, (j - 1) % n)


def _reflection_axis_direction(deriv: Mat2) -> Vec2:
    """+1 eigenvector of an orthogonal reflection."""
    d00, d01 = deriv[0]
    d10, d11 = deriv[1]
    u = (d01, 1 - d00)
    if sign(u[0]) != 0 or sign(u[1]) != 0:
        return u
    return (1 - d11, d10)


def _fixed_line_in_cell(iso: Isometry, p: int, t: Vec2):
    """Clip the fixed line of x -> Dx + t to cell p; None if empty or skew."""
    deriv = iso.derivative
    u = _reflection_axis_direction(deriv)
    # Solve (D - I) x = -t on the line x = x0 + s*u.  (D - I) annihilates u
    # and scales the -1 eigenvector w by -2, so a solution exists iff t is
    # parallel to w; then x0 = t/2 works because (D - I)(t/2) = -t when
    # t is in the -1 eigenspace.
    w = (-u[1], u[0])
    if sign(cross(w, t), FLOAT_TOL) != 0:
        return None  # glide reflection: no fixed points
    x0 = vec_scale(Fraction(1, 2), t)
    poly = iso.source.polygons[p]
    lo_f, hi_f = -math.inf, math.inf
    for i in range(len(poly)):
        e = poly.edge_vector(i)
        # inside: cross(e, x0 + s*u - v_i) >= 0
        a = cross(e, u)
        b = cross(e, vec_sub(x0, poly.vertices[i]))
        af, bf = to_float(a), to_float(b)
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
    uf = (to_float(u[0]), to_float(u[1]))
    x0f = (to_float(x0[0]), to_float(x0[1]))
    p_lo = (x0f[0] + lo_f * uf[0], x0f[1] + lo_f * uf[1])
    p_hi = (x0f[0] + hi_f * uf[0], x0f[1] + hi_f * uf[1])
    return (p_lo, p_hi)


def fixed_points(iso: Isometry) -> FixedLocus:
    """Fixed points (preserving) or fixed segments (reversing) of an isometry.

    Points are located by cell id and chart coordinates.  For reversing
    isometries the 1-dimensional fixed set is returned as per-cell segments
    together with its number of connected components on the surface.
    """
    s = iso.source
    if iso.is_identity():
        return FixedLocus(all_points=True)
    locus = FixedLocus()

    if iso.orientation == 1:
        # Interior fixed points of rotation-type self-cells.
        for p in range(len(s.polygons)):
            t = _cell_affine(iso, p)
            if t is None:
                continue
            m = ((1 - iso.derivative[0][0], -iso.derivative[0][1]),
                 (-iso.derivative[1][0], 1 - iso.derivative[1][1]))
            if sign(mat_det(m), 1e-12) == 0:
                continue  # derivative is the identity: a nontrivial translation
            x = mat_vec(mat_inv(m), t)
            if _point_in_polygon(s.polygons[p], x, strict=True):
                locus.points.append(LocatedPoint(p, (to_float(x[0]), to_float(x[1])), "interior"))
        # Midpoints of edges sent to their own gluing partner.
        for g in s.gluings:
            h = g.edge_a
            if _direct_edge_image(iso, h) == s.partner(h):
                p, i = h
                poly = s.polygons[p]
                v0 = poly.vertices[i]
                v1 = poly.vertices[(i + 1) % len(poly)]
                mid = ((to_float(v0[0]) + to_float(v1[0])) / 2, (to_float(v0[1]) + to_float(v1[1])) / 2)
                locus.points.append(LocatedPoint(p, mid, "edge-midpoint"))
        # Vertices whose cycle maps to itself.
        cycles = sf.corner_cycles(s)
        cycle_of: Dict[Flag, int] = {}
        for k, cyc in enumerate(cycles):
            for c in cyc:
                cycle_of[c] = k
        for k, cyc in enumerate(cycles):
            if cycle_of[iso.flag_map[cyc[0]]] == k:
                p, i = cyc[0]
                v = s.polygons[p].vertices[i]
                locus.points.append(LocatedPoint(p, (to_float(v[0]), to_float(v[1])), "vertex"))
        return locus

    # Orientation-reversing: build the fixed 1-manifold.
    segs = []
    all_cycles = sf.corner_cycles(s)

    def endpoint_key(p: int, xy: Tuple[float, float]):
        # Identify endpoints across gluings by locating them on cell edges
        # or vertices; regular interior endpoints cannot occur.
        poly = s.polygons[p]
        n = len(poly)
        for i in range(n):
            v = poly.vertices[i]
            if math.hypot(to_float(v[0]) - xy[0], to_float(v[1]) - xy[1]) < 1e-9:
                for k, cyc in enumerate(all_cycles):
                    if (p, i) in cyc:
                        return ("vertex", k)
        for i in range(n):
            v0, v1 = poly.vertices[i], poly.vertices[(i + 1) % n]
            ex, ey = to_float(v1[0]) - to_float(v0[0]), to_float(v1[1]) - to_float(v0[1])
            px, py = xy[0] - to_float(v0[0]), xy[1] - to_float(v0[1])
            ll = ex * ex + ey * ey
            t = (px * ex + py * ey) / ll
            d = abs(px * ey - py * ex) / math.sqrt(ll)
            if d < 1e-9 and -1e-9 <= t <= 1 + 1e-9:
                q, j = s.partner((p, i))
                if (q, j, round(1 - t, 9)) < (p, i, round(t, 9)):
                    return ("edge", q, j, round(1 - t, 9))
                return ("edge", p, i, round(t, 9))
        return ("interior", p, round(xy[0], 9), round(xy[1], 9))

    for p in range(len(s.polygons)):
        t = _cell_affine(iso, p)
        if t is None:
            continue
        seg = _fixed_line_in_cell(iso, p, t)
        if seg is not None:
            segs.append((p, seg[0], seg[1]))
    for g in s.gluings:
        h = g.edge_a
        if _direct_edge_image(iso, h) == s.partner(h):
            p, i = h
            poly = s.polygons[p]
            v0, v1 = poly.vertices[i], poly.vertices[(i + 1) % len(poly)]
            segs.append((p, (to_float(v0[0]), to_float(v0[1])), (to_float(v1[0]), to_float(v1[1]))))

    # Union-find on segment endpoints to count components.
    parent = list(range(len(segs)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    keys: Dict[object, int] = {}
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
