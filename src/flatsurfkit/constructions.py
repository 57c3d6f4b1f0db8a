"""Builders for the named surfaces and the square-tiled (origami) test.

The genus-3 surfaces all share one combinatorial scheme: two squares and
four congruent quadrilaterals (isosceles trapezoids in the first family,
parallelograms in the second), glued so that the four reflected copies
wrap around the squares.  The Arnoux-Yoccoz surface is the member of the
trapezoid family with exact Q(alpha) coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .numeric import (
    ALPHA,
    FLOAT_TOL,
    CubicNumber,
    Scalar,
    Vec2,
    coefficients,
    cross,
    cross_sign,
    is_exact,
    scaled_points,
    sign,
    vec_add,
    vec_neg,
    vec_sub,
)
from . import delaunay as dl
from . import surface as sf
from .surface import Gluing, Polygon, Surface, SurfaceError


def _rot90(v: Vec2) -> Vec2:
    return (-v[1], v[0])


def _reflect_x(v: Vec2) -> Vec2:
    return (-v[0], v[1])


def _reflect_y(v: Vec2) -> Vec2:
    return (v[0], -v[1])


def _image_polygon(poly: Polygon, f) -> Polygon:
    """Image of a polygon under an orientation-reversing map, re-closed ccw."""
    imgs = [f(v) for v in poly.vertices]
    return Polygon([imgs[0]] + imgs[:0:-1])


# -- the trapezoid scheme -------------------------------------------------------------

# Gluing table shared by ay_surface and trapezoid_family.  Polygon indices:
# 0 = S0, 1 = S1, 2 = T0, 3 = T10 (reflected across the vertical axis),
# 4 = T01 (across the horizontal axis), 5 = T11 (rotated by pi).
_TRAPEZOID_GLUINGS = [
    ((2, 0), (5, 0)),  # short bases T0 ~ T11
    ((2, 2), (5, 2)),  # long bases  T0 ~ T11
    ((3, 3), (4, 3)),  # short bases T10 ~ T01
    ((3, 1), (4, 1)),  # long bases  T10 ~ T01
    ((0, 0), (3, 2)),
    ((0, 1), (2, 3)),
    ((0, 2), (4, 2)),
    ((0, 3), (5, 3)),
    ((1, 0), (4, 0)),
    ((1, 1), (5, 1)),
    ((1, 2), (3, 0)),
    ((1, 3), (2, 1)),
]


def _trapezoid_scheme(p: Scalar, q: Scalar, r: Scalar) -> Surface:
    """Two squares and four trapezoid copies, bases along the diagonal.

    The base trapezoid runs from the origin along (1,1): short base length
    p*sqrt(2), long base q*sqrt(2), height r*sqrt(2), so exact inputs stay
    exact.  The square is built on the leg from the fourth vertex back to
    the origin.
    """
    two = Fraction(2)
    t0 = Polygon([
        (0, 0),
        (p, p),
        ((p + q) / two - r, (p + q) / two + r),
        (-(q - p) / two - r, -(q - p) / two + r),
    ])
    leg = vec_sub(t0.vertices[0], t0.vertices[3])
    s = (-leg[1], leg[0] * 1)  # square side: leg rotated by -pi/2
    s_vertices = [(0, 0), s, vec_add(s, _rot90(s)), _rot90(s)]
    s0 = Polygon(s_vertices)
    s1 = _image_polygon(s0, _reflect_x)
    t10 = _image_polygon(t0, _reflect_x)
    t01 = _image_polygon(t0, _reflect_y)
    t11 = Polygon([vec_neg(v) for v in t0.vertices])
    polygons = [s0, s1, t0, t10, t01, t11]
    gluings = [Gluing(a, b, sf.TRANSLATION) for a, b in _TRAPEZOID_GLUINGS]
    return Surface(polygons, gluings, sf.TRANSLATION)


def ay_surface() -> Surface:
    """The genus-3 Arnoux-Yoccoz surface with exact Q(alpha) coordinates.

    Two squares of side vector (alpha^2, alpha) and four isosceles
    trapezoids with bases along the diagonals; genus 3 with two cone
    points of angle 6*pi.
    """
    one = CubicNumber(1)
    a = ALPHA
    p = one - a                 # short base / sqrt(2)
    q = one - a * a             # long base / sqrt(2)
    r = (a + a * a) / 2         # height / sqrt(2)
    return _trapezoid_scheme(p, q, r)


@dataclass(frozen=True)
class TrapezoidShape:
    """Isosceles trapezoid: finite short base b > 0, long base B >= b, height
    h > 0; SurfaceError when made off them."""

    b: float
    B: float
    h: float

    def __post_init__(self) -> None:
        if not all(is_exact(x) or math.isfinite(x) for x in (self.b, self.B, self.h)):
            raise SurfaceError(f"non-finite trapezoid shape {self}")
        if not (self.b > 0 and self.h > 0 and self.B >= self.b):
            raise SurfaceError(f"degenerate trapezoid shape {self}")


def trapezoid_family(shape: TrapezoidShape) -> Surface:
    """Genus-3 surface built from an isosceles trapezoid (rectangle allowed)."""
    s2 = math.sqrt(2.0)
    return _trapezoid_scheme(shape.b / s2, shape.B / s2, shape.h * s2 / 2)


def ay_trapezoid_shape() -> TrapezoidShape:
    """The trapezoid realizing the Arnoux-Yoccoz surface, in float."""
    a = float(ALPHA)
    s2 = math.sqrt(2.0)
    return TrapezoidShape(b=(1 - a) * s2, B=(1 - a * a) * s2, h=(a + a * a) * s2 / 2)


def ay_prime() -> Surface:
    """The surface obtained from the Arnoux-Yoccoz surface by scaling the
    horizontal direction by 1/alpha (exact coordinates)."""
    inv_alpha = ALPHA.inverse()
    m = ((inv_alpha, CubicNumber(0)), (CubicNumber(0), CubicNumber(1)))
    return sf.apply_linear(m, ay_surface())


# -- the parallelogram scheme -----------------------------------------------------------


@dataclass(frozen=True)
class ParallelogramShape:
    """Parallelogram spanned by finite side1, side2 with positive cross
    product (cross_sign, at any float scale); SurfaceError when made off it."""

    side1: Tuple[Scalar, Scalar]
    side2: Tuple[Scalar, Scalar]

    def __post_init__(self) -> None:
        if not all(is_exact(x) or math.isfinite(x) for x in self.side1 + self.side2):
            raise SurfaceError(f"non-finite parallelogram shape {self}")
        if cross_sign(self.side1, self.side2) <= 0:
            raise SurfaceError(f"parallelogram sides must be positively oriented: {self}")


def _reflection_across(w: Vec2):
    """Linear reflection fixing the direction w (exact over exact scalars).

    A float w is first scaled by the power of two that brings it into
    [0.5, 1) (scaled_points), which leaves the reflection as it is, so that
    its squared length neither underflows nor overflows.
    """
    if not all(map(is_exact, w)):
        w = scaled_points((w,))[0]
    n2 = w[0] * w[0] + w[1] * w[1]
    inv = Fraction(1) / n2
    a = (w[0] * w[0] - w[1] * w[1]) * inv
    b = (2 * w[0] * w[1]) * inv
    return lambda v: (a * v[0] + b * v[1], b * v[0] - a * v[1])


def _poly_from_edges(edges: List[Vec2]) -> Polygon:
    verts = [(0, 0)]
    for v in edges[:-1]:
        verts.append(vec_add(verts[-1], v))
    return Polygon(verts)


# Gluing table of the parallelogram scheme.  Polygon indices: 0 = SQ0
# (square on side1), 1 = SQ1, 2 = A (the base parallelogram), 3 = B (A
# unfolded across its remaining side), 4 = C (A rotated by pi/2),
# 5 = D (C unfolded across its remaining side).
_PARALLELOGRAM_GLUINGS = [
    ((0, 0), (2, 2)),
    ((0, 1), (4, 2)),
    ((0, 2), (2, 0)),
    ((0, 3), (4, 0)),
    ((1, 0), (5, 3)),
    ((1, 1), (3, 1)),
    ((1, 2), (5, 1)),
    ((1, 3), (3, 3)),
    ((2, 1), (3, 2)),
    ((2, 3), (3, 0)),
    ((4, 1), (5, 2)),
    ((4, 3), (5, 0)),
]


def parallelogram_family(shape: ParallelogramShape) -> Surface:
    """Genus-3 surface from a parallelogram, per the second family.

    Pieces: a square on side1 of the parallelogram, the parallelogram and
    its unfolding across side2, their rotations by pi/2, and the square on
    the unfolded side1.  Exact inputs produce exact surfaces (the
    reflections are rational in the side coordinates).
    """
    w1 = shape.side1
    w2 = vec_neg(shape.side2)  # internal convention: cross(w1, w2) < 0
    m2 = _reflection_across(w2)
    m2w1 = m2(w1)
    rw1 = _rot90(w1)
    rw2 = _rot90(w2)
    m2p = _reflection_across(rw2)
    m2prw1 = m2p(rw1)
    sq0 = _poly_from_edges([vec_neg(w1), vec_neg(rw1), w1, rw1])
    sq1 = _poly_from_edges([vec_neg(_rot90(m2w1)), m2w1, _rot90(m2w1), vec_neg(m2w1)])
    pa = _poly_from_edges([vec_neg(w1), w2, w1, vec_neg(w2)])
    pb = _poly_from_edges([w2, vec_neg(m2w1), vec_neg(w2), m2w1])
    pc = _poly_from_edges([vec_neg(rw1), rw2, rw1, vec_neg(rw2)])
    pd = _poly_from_edges([rw2, vec_neg(m2prw1), vec_neg(rw2), m2prw1])
    polygons = [sq0, sq1, pa, pb, pc, pd]
    gluings = [Gluing(a, b, sf.TRANSLATION) for a, b in _PARALLELOGRAM_GLUINGS]
    return Surface(polygons, gluings, sf.TRANSLATION)


def escalator() -> Surface:
    """The six-square staircase origami: the parallelogram family at a unit square."""
    one = Fraction(1)
    return parallelogram_family(ParallelogramShape((one, 0), (0, one)))


def ay_prime_parallelogram_shape() -> ParallelogramShape:
    """The parallelogram read off the Delaunay cells of the 1/alpha-scaled surface."""
    a2 = ALPHA * ALPHA
    return ParallelogramShape((CubicNumber(1), a2), (-ALPHA, ALPHA))


def right_isosceles_pair_shape() -> ParallelogramShape:
    """A parallelogram made of two right isosceles triangles joined along a leg."""
    return ParallelogramShape((Fraction(1), 0), (Fraction(1), Fraction(1)))


def orthogonal_legs_trapezoid_shape() -> TrapezoidShape:
    """An isosceles trapezoid whose legs are orthogonal: h = (B - b) / 2."""
    return TrapezoidShape(b=1.0, B=3.0, h=1.0)


# -- origami (square-tiled) detection --------------------------------------------------


@dataclass(frozen=True)
class OrigamiCertificate:
    """A torus cover certificate: lattice basis (Hermite form) and degree."""

    basis: Tuple[Vec2, Vec2]
    degree: int


def _hermite_row_basis(rows: List[List[int]]) -> List[List[int]]:
    """Row Hermite basis of the integer row module (echelon, positive pivots)."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    m, n = len(rows), len(rows[0])
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if rows[i][c] != 0 and (piv is None or abs(rows[i][c]) < abs(rows[piv][c])):
                piv = i
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        again = True
        while again:
            again = False
            for i in range(r + 1, m):
                if rows[i][c] != 0:
                    q = rows[i][c] // rows[r][c]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                    if rows[i][c] != 0:
                        rows[r], rows[i] = rows[i], rows[r]
                        again = True
        if rows[r][c] < 0:
            rows[r] = [-a for a in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return [row for row in rows[:r]]


def _develop_offsets(s: Surface) -> List[Vec2]:
    """Chart offsets developing all polygons into polygon 0's chart.

    Only valid for translation gluings; well defined up to the holonomy
    module, which suffices for working modulo a lattice it generates.
    """
    offsets: List[Optional[Vec2]] = [None] * len(s.polygons)
    offsets[0] = (0, 0)
    stack = [0]
    while stack:
        p = stack.pop()
        for e in range(len(s.polygons[p])):
            q, f = s.partner((p, e))
            if offsets[q] is not None:
                continue
            end = s.polygons[p].vertices[(e + 1) % len(s.polygons[p])]
            start_q = s.polygons[q].vertices[f]
            offsets[q] = vec_add(offsets[p], vec_sub(end, start_q))
            stack.append(q)
    return offsets  # type: ignore[return-value]


def _from_triple(t: Tuple[Fraction, Fraction, Fraction]):
    if t[1] == 0 and t[2] == 0:
        return t[0]
    return CubicNumber(*t)


def _integer_value(x) -> Optional[int]:
    """x as an int: exactly for exact x, within 1e-6 for a float."""
    if is_exact(x):
        c0, c1, c2 = coefficients(x)
        return int(c0) if c0.denominator == 1 and c1 == c2 == 0 else None
    n = round(x)
    return int(n) if abs(x - n) <= 1e-6 else None


def _cone_positions(s: Surface, offsets: List[Vec2]) -> List[Vec2]:
    out = []
    for cone in sf.vertex_cycles(s):
        if cone.angle_pi == 2:
            continue
        p, i = cone.corners[0]
        out.append(vec_add(offsets[p], s.polygons[p].vertices[i]))
    return out


def origami_check(s: Surface) -> Optional[OrigamiCertificate]:
    """Decide whether the surface covers a flat torus with one branch point.

    The subgroup of R^2 generated by the Delaunay-edge holonomies must be a
    rank-2 lattice, the surface area an integer multiple of its covolume,
    and all cone points congruent modulo the lattice.  Exact scalars give
    an exact decision; float surfaces are decided by rationalizing the
    coefficients of each holonomy over a basis pair (tolerance FLOAT_TOL).
    """
    if s.kind != sf.TRANSLATION:
        raise SurfaceError("origami check requires a translation surface")
    tri = dl.delaunayize(dl.triangulate(s))
    holonomies = [tri.vec(e) for e in tri.edges()]
    if s.is_exact():
        return _origami_exact(s, holonomies)
    return _origami_float(s, holonomies)


def _origami_exact(s: Surface, holonomies: List[Vec2]) -> Optional[OrigamiCertificate]:
    rows = [coefficients(h[0]) + coefficients(h[1]) for h in holonomies]
    return _lattice_certificate(s, rows, lambda r: (_from_triple(r[:3]), _from_triple(r[3:])))


def _origami_float(s: Surface, holonomies: List[Vec2]) -> Optional[OrigamiCertificate]:
    hs = [(float(h[0]), float(h[1])) for h in holonomies]
    # Equal holonomies are found on their doubles under one power of two,
    # so at any scale; the unscaled doubles stay the representatives.
    keys = scaled_points(hs)
    if keys is None:
        raise SurfaceError("the Delaunay edge holonomies have no finite doubles")
    seen = {}
    for k, h in zip(keys, hs):
        seen[(round(k[0], 12), round(k[1], 12))] = h
    hs = list(seen.values())
    scale = max(math.hypot(*h) for h in hs)
    v1 = max(hs, key=lambda h: math.hypot(*h))
    v2 = max(hs, key=lambda h: abs(v1[0] * h[1] - v1[1] * h[0]))
    det = v1[0] * v2[1] - v1[1] * v2[0]
    if abs(det) <= 1e-12 * scale * scale:
        return None
    coeffs = []
    for h in hs:
        a = (h[0] * v2[1] - h[1] * v2[0]) / det
        b = (v1[0] * h[1] - v1[1] * h[0]) / det
        # Small denominators only: a convergent of an irrational ratio with a
        # huge denominator would otherwise slip under any float tolerance.
        ar = Fraction(a).limit_denominator(1000)
        br = Fraction(b).limit_denominator(1000)
        if abs(float(ar) - a) > FLOAT_TOL or abs(float(br) - b) > FLOAT_TOL:
            return None  # holonomies not commensurable over the basis pair
        coeffs.append((ar, br))

    def vector(r):
        a, b = float(r[0]), float(r[1])
        return (a * v1[0] + b * v2[0], a * v1[1] + b * v2[1])

    return _lattice_certificate(s, coeffs, vector)


def _lattice_certificate(s: Surface, rows, vector) -> Optional[OrigamiCertificate]:
    """The certificate for the lattice the Fraction rows generate, or None
    when their rank is not 2; vector maps a basis row back to a vector."""
    den = math.lcm(*(x.denominator for row in rows for x in row))
    basis = _hermite_row_basis([[int(x * den) for x in row] for row in rows])
    if len(basis) != 2:
        return None
    return _certificate(s, *(vector([Fraction(x, den) for x in row]) for row in basis))


def _certificate(s: Surface, w1: Vec2, w2: Vec2) -> Optional[OrigamiCertificate]:
    """The certificate for the lattice basis w1, w2 (exact or float), or None.

    The basis is oriented; the area must be a positive integer multiple of
    the covolume, and the cone points congruent modulo the lattice.
    """
    det = cross(w1, w2)
    if sign(det) == 0:
        return None
    if sign(det) < 0:
        w2 = vec_neg(w2)
        det = cross(w1, w2)
    n = _integer_value(sf.area(s) / det)
    if n is None or n < 1:
        return None
    cones = _cone_positions(s, _develop_offsets(s))
    for c in cones[1:]:
        d = vec_sub(c, cones[0])
        if _integer_value(cross(d, w2) / det) is None or _integer_value(cross(w1, d) / det) is None:
            return None
    return OrigamiCertificate((w1, w2), n)
