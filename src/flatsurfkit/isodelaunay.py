"""Iso-Delaunay tessellation of the upper half-plane.

A point z = x + iy of H names the surface M_z * S with M_z = [[1, x],
[0, y]] (z = i is the base surface; the Delaunay condition is invariant
under rotation and scaling, so this slice of GL(2, R) suffices).  For a
hinge developed in the base chart with quadrilateral coordinates (a_k,
b_k), the lifted incircle determinant of the transformed hinge factors as

    det(z) = y * (A (x**2 + y**2) + B x + C),

with A, B, C 4x4 determinants of the base coordinates: every hinge is
Delaunay on one side of a geodesic a (x**2+y**2) + b x + c = 0 (a wall),
always, or never.  On an exact hinge the determinants, their signs and
the wall's normalization are computed in one pass over Python ints
(numeric.exact_wall_form), once per hinge quadrilateral in an
exploration, whichever side it is read from (see _memo_wall); a float
hinge expands them in doubles, in a fixed order, once per developed
hinge, and takes their signs by comparison.  Both read the hinge off
delaunay.hinge_vectors.  A hinge's wall is kept on the triangulation
(hinge_cache): the flip loop of delaunayize_at tests each hinge with one
Wall.side, and the cell reads the walls it left there.  Cells are
intersections of wall half-planes; in the
coordinates (u, v) = (x**2 + y**2, x) walls become straight lines and H
the region u > v**2.  A cell is built with its facets, each the end
values of a supporting wall's segment, which explore crosses.  An exact
cell's come from one half-plane intersection, the walls sorted by the
angle of their normals and scanned once, and one 1-dimensional facet test
per edge kept, clipped by the parabola, which makes that edge's ends; a
float cell tests every wall against all the others, then each supporting
wall against the supporting walls, each test one loop over the walls
that stops once the wall's bounds leave it no facet (_float_facet).
Every wall, float or exact, is built one way (see Wall).  An exact facet
end is computed once per pair of loci in an exploration and kept in its
memo, not on the walls (see _Memo and _ExactLine.value).  On an exact
surface every combinatorial decision is exact: a wall's side of a
sample, the corners of the intersection and each sign of the facet test
are taken in doubles where a proven error bound separates the value from
0 (see _SIDE_EPS, _CORNER_EPS and _FACET_EPS), and in Q(alpha)
otherwise.  Floating point otherwise only chooses sample points, which
are rationalized and then verified.  Each cell carries the canonical code
of its triangulation (its comb hash); an exploration keeps the
combinatorial classes it has met, so that a cell of a known class, the
usual case, reads its code off them.
"""

from __future__ import annotations

import bisect
import logging
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .numeric import (FLOAT_TOL, Scalar, canonical_ints, coefficients, complex_str, exact_divisor,
                      exact_wall_form, filtered_sign, is_exact, scaled_points, sign, to_double, vec_add,
                      vec_neg)
from . import delaunay as dl
from .delaunay import HalfEdge, Triangulation, hinge_vectors
from .surface import Polygon, Surface

_log = logging.getLogger("flatsurfkit.isodelaunay")

ALWAYS = "always"
NEVER = "never"

# The float tolerance of the facet test on float walls (_float_facet).
_FACET_TOL = 1e-13

# explore's largest radius: exp(1.5 * radius) overflows a double above 473.2.
_MAX_RADIUS = 473.0

# explore raises rather than hold more cells than this.
_CELL_BUDGET = 10 ** 5


class IsoDelaunayError(RuntimeError):
    pass


@dataclass(frozen=True)
class HPoint:
    """A point x + iy of the upper half-plane (float, or Fraction where a
    point is handed to cell_at exactly)."""

    x: float
    y: float

    def __post_init__(self):
        if not (self.y > 0 and abs(self.x) < math.inf and self.y < math.inf):
            raise IsoDelaunayError(f"not a finite point of the upper half-plane: {complex_str(self.x, self.y)}")

    def hyperbolic_distance(self, other: "HPoint") -> float:
        dx = self.x - other.x
        dy = self.y - other.y
        return math.acosh(1.0 + (dx * dx + dy * dy) / (2.0 * self.y * other.y))


class _Key(tuple):
    """An exact wall key (see Wall.oriented_key): a tuple that hashes once
    and compares to another _Key through a tuple of canonical integers.

    The hash is tuple.__hash__ of the same items, computed when the key is
    built, so sets and dicts of keys iterate, and print, in the order plain
    tuples would.  The integers are equal exactly when the items are (see
    numeric.canonical_ints).  Against any other object equality is tuple
    equality, and ordering is tuple order throughout.
    functools._HashedSeq keeps lru_cache keys' hashes the same way.  A key
    holds nothing else: its attributes are _hash and _ints.
    """

    def __new__(cls, items, ints: Tuple[int, ...]):
        key = super().__new__(cls, items)
        key._hash = tuple.__hash__(key)
        key._ints = ints
        return key

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if type(other) is _Key:
            return self._ints == other._ints
        return tuple.__eq__(self, other)

    def __ne__(self, other):
        if type(other) is _Key:
            return self._ints != other._ints
        return tuple.__ne__(self, other)

    def __reduce__(self):
        return (_Key, (tuple(self), self._ints))


# The wall-side filter of Wall.side.  With u = 2**-53: float(CubicNumber) is
# within one ulp (relative 2u) of its value and float(Fraction) within u, so
# fa, fb, fc and the sample's fu, fv carry relative errors of at most 2u and
# u.  Each product t = fl(fa * fu) is then within 4.1u|t| of a*u, and the two
# sums add at most 2u(|t1| + |t2|) + u|fc|; with the 2u of fc the computed q
# lies within 7u * (|t1| + |t2| + |fc|) of a*u + b*v + c, and the filter
# tests against 8u times that sum.  Wall._filtered keeps every nonzero
# coefficient's double in [2**-1022, 1], so underflow, of a product or of
# fu, fv, puts each term off by at most 2**-1075 more: the absolute term
# 2**-1000 of numeric.filtered_sign covers them.
_SIDE_EPS = 8 * 2.0 ** -53


@dataclass(frozen=True, slots=True)
class Wall:
    """Oriented geodesic form q = a (x**2 + y**2) + b x + c.

    The hinge it came from is Delaunay exactly where q <= 0.  The locus
    q = 0 is a half-circle centered on the real axis (a != 0) or a
    vertical line (a = 0, b != 0).  Coefficients are scaled so the largest
    |coefficient| is 1; reporting flips the sign so the first nonzero
    coefficient is positive (the orientation is kept separately).

    __post_init__ is the one place that sets the derived fields, for
    float and exact walls alike, from the coefficients and their signs
    (numeric.sign: exact on an exact scalar, a double's literal sign): the
    doubles fa, fb, fc, whether all three coefficients are exact, the
    orientation and _filtered.  The oriented key is computed once, on
    first use.  On an exact wall every sign is exact: side() and the facet
    test of _facet decide it in doubles where a proven error bound
    separates the value from 0, and in Q(alpha) otherwise.  A float wall's
    signs are its float expressions against a tolerance.  A wall keeps no
    facet ends: an exploration holds them (see _Memo).
    """

    a: Scalar
    b: Scalar
    c: Scalar
    fa: float = field(init=False, repr=False, compare=False)
    fb: float = field(init=False, repr=False, compare=False)
    fc: float = field(init=False, repr=False, compare=False)
    exact: bool = field(init=False, repr=False, compare=False)
    orientation: int = field(init=False, repr=False, compare=False)
    # Whether the double filters apply: an exact wall whose coefficients are
    # 0 or have doubles of magnitude in [2**-1022, 1] (normalized walls do).
    _filtered: bool = field(init=False, repr=False, compare=False)
    _key: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        sa, sb, sc = sign(a), sign(b), sign(c)
        fa, fb, fc = float(a), float(b), float(c)
        exact = is_exact(a) and is_exact(b) and is_exact(c)
        filtered = exact and all(2.0 ** -1022 <= abs(f) <= 1.0 if s else f == 0.0
                                 for f, s in ((fa, sa), (fb, sb), (fc, sc)))
        put = object.__setattr__
        put(self, "fa", fa)
        put(self, "fb", fb)
        put(self, "fc", fc)
        put(self, "exact", exact)
        put(self, "orientation", sa or sb or sc or 1)
        put(self, "_filtered", filtered)
        put(self, "_key", None)

    def evaluate(self, u: Scalar, v: Scalar) -> Scalar:
        """The linear form a*u + b*v + c in the coordinates u = |z|^2, v = x."""
        return self.a * u + self.b * v + self.c

    def side(self, u: Scalar, v: Scalar, fu: float, fv: float) -> int:
        """sign(self.evaluate(u, v), FLOAT_TOL), given fu = to_double(u)
        and fv = to_double(v) (+-inf beyond the double range).

        An exact wall takes the sign of the double evaluation where it
        exceeds the error bound (see _SIDE_EPS), and the exact sign
        otherwise; a float wall evaluates the same expression in doubles.
        """
        t1 = self.fa * fu
        t2 = self.fb * fv
        q = t1 + t2 + self.fc
        if not self.exact:
            return (q > FLOAT_TOL) - (q < -FLOAT_TOL)
        # A non-finite q or bound leaves the sign undecided.
        if self._filtered:
            s = filtered_sign(q, abs(t1) + abs(t2) + abs(self.fc), _SIDE_EPS)
            if s:
                return s
        return sign(self.evaluate(u, v), FLOAT_TOL)

    @property
    def is_vertical(self) -> bool:
        """Whether the locus q = 0 is a vertical line rather than a
        half-circle: the one place that decides a wall's shape."""
        return sign(self.a) == 0

    def geometry(self) -> Tuple[str, float, float]:
        """("circle", center, radius) or ("vertical", x, 0)."""
        a, b, c = self.fa, self.fb, self.fc
        if self.is_vertical:
            return ("vertical", -c / b, 0.0)
        center = -b / (2 * a)
        rad2 = center * center - c / a
        return ("circle", center, math.sqrt(max(rad2, 0.0)))

    def locus_key(self):
        """Orientation-free key identifying the geodesic: the first item of
        oriented_key(), a _Key on an exact wall."""
        return self.oriented_key()[0]

    def oriented_key(self):
        """(locus key, side): identifies the geodesic plus its Delaunay side.

        Computed once and kept.  An exact wall's locus key holds the
        normalized coefficients' nine Fractions (three per coefficient, see
        numeric.coefficients); both keys are _Keys, which hash once, when
        built, and compare to each other through their canonical integers,
        with the repr, hash and order of the plain tuples.  A float wall's
        keys are plain tuples, its three doubles rounded to 9 places.
        """
        key = self._key
        if key is None:
            flip = self.orientation
            if self.exact:
                a, b, c = flip * self.a, flip * self.b, flip * self.c
                ints = canonical_ints(a) + canonical_ints(b) + canonical_ints(c)
                locus = _Key((coefficients(a), coefficients(b), coefficients(c)), ints)
                key = _Key((locus, flip), ints + (flip,))
            else:
                # + 0.0 turns -0.0 into 0.0, so that equal keys have one repr.
                key = ((round(flip * self.fa, 9) + 0.0, round(flip * self.fb, 9) + 0.0,
                        round(flip * self.fc, 9) + 0.0), flip)
            object.__setattr__(self, "_key", key)
        return key

    def normalized_floats(self) -> Tuple[float, float, float]:
        """Reported form: max |coefficient| = 1, first nonzero positive."""
        flip = self.orientation
        return (flip * self.fa, flip * self.fb, flip * self.fc)


def wall_of_hinge(t: Triangulation, edge: HalfEdge):
    """The wall of a hinge, or ALWAYS/NEVER when its sign is constant on H.

    The hinge is developed in the base chart; the returned wall is the
    cocircularity locus of the M_z-transformed hinge.  ALWAYS means the
    hinge is Delaunay for every z, NEVER that it never is.

    a, b/2 and c are the 4x4 determinants with columns (x, y, f, 1) over
    p1..p4 for f = y**2, x*y and x**2.  The kind is t's, read once where
    t was made (t.doubles is None on a float triangulation), not off the
    hinge's coordinates.  A hinge of an exact triangulation takes one pass
    over Python ints (numeric.exact_wall_form): the determinants, their
    signs and the normalization are computed on int triples of Z[alpha]
    over one denominator, and a field element is made only for each
    normalized coefficient.  A float hinge keeps the scalar expansion: each
    determinant is reduced by subtracting p4's row; the x and y columns of
    the three reduced rows and their minor r10*r21 - r11*r20 are shared,
    and p1, which hinge() puts at the origin, contributes 0 - p4's entries.
    Every determinant is expanded with the same operations in the same
    order, so float walls are reproducible.  Both give the same wall on
    exact input, in value and in scalar type.
    """
    p2, p3, d = hinge_vectors(t, edge)
    p4 = vec_add(p3, d)
    if t.doubles is not None:
        form = exact_wall_form(p2, p3, p4)
        if isinstance(form, int):
            return ALWAYS if form <= 0 else NEVER
        return Wall(*form)
    (x2, y2), (x3, y3), (x4, y4) = p2, p3, p4
    r00, r01 = 0 - x4, 0 - y4
    r10, r11 = x2 - x4, y2 - y4
    r20, r21 = x3 - x4, y3 - y4
    minor = r10 * r21 - r11 * r20

    def det(f2: Scalar, f3: Scalar, f4: Scalar) -> Scalar:
        r02, r12, r22 = 0 - f4, f2 - f4, f3 - f4
        return r00 * (r11 * r22 - r12 * r21) - r01 * (r10 * r22 - r12 * r20) + r02 * minor

    a = det(y2 * y2, y3 * y3, y4 * y4)
    b = 2 * det(x2 * y2, x3 * y3, x4 * y4)
    c = det(x2 * x2, x3 * x3, x4 * x4)
    # A float triangulation's coordinates are all floats, and so are a, b
    # and c; their signs by comparison are numeric.sign's, NaN (neither > 0
    # nor < 0) included.
    if not (a > 0 or a < 0):
        if not (b > 0 or b < 0):
            # Constant sign: Delaunay iff c <= 0.
            return NEVER if c > 0 else ALWAYS
    elif not b * b - 4 * a * c > 0:
        return ALWAYS if a < 0 else NEVER
    return _normalize_wall(a, b, c)


def _normalize_wall(a: Scalar, b: Scalar, c: Scalar) -> Wall:
    # Positive scaling only: the sign of q must keep matching the
    # Delaunay determinant.
    m = exact_divisor(max(abs(a), abs(b), abs(c)))
    return Wall(a / m, b / m, c / m)


# -- Delaunay triangulations over the half-plane --------------------------------------


def _memo_wall(t: Triangulation, edge: HalfEdge, walls: dict):
    """wall_of_hinge(t, edge), kept in t.hinge_cache and in walls.

    The cache rides on the triangulation: flips drop the walls of the
    hinges they change and copies carry the others over, so a wall is
    computed again only after its hinge was flipped.  The caller reads
    that first level and comes here on a miss.  walls is the second level,
    across the whole exploration.  A wall depends only on the hinge
    developed in the base chart, with p1 at the origin, so its key is
    delaunay.hinge_vectors, (p2, p3, d) with d = p4 - p3, read from t
    without arithmetic.

    On exact input walls holds one wall per hinge quadrilateral, read from
    either side.  The twin's side develops the same quadrilateral as
    (d, -p3, p2), and a half-translation chart negates either key; a, b/2
    and c are 4x4 determinants that neither translating the points, the
    even relabelling (p1 p3)(p2 p4) nor p -> -p changes, so the wall is
    stored under all four keys.  A float wall keeps the one developed-hinge
    key: its expansion is not symmetric in the points, so an alias would
    hand one side the other side's rounding.
    """
    key = hinge_vectors(t, edge)
    w = walls.get(key)
    if w is None:
        w = walls[key] = wall_of_hinge(t, edge)
        if t.doubles is not None:  # an exact triangulation
            p2, p3, d = key
            n2, n3, nd = vec_neg(p2), vec_neg(p3), vec_neg(d)
            walls[(d, n3, p2)] = walls[(n2, n3, nd)] = walls[(nd, p3, n2)] = w
    t.hinge_cache[edge] = w
    return w


def delaunayize_at(t: Triangulation, u: Scalar, v: Scalar, _walls: Optional[dict] = None) -> Triangulation:
    """Flip until every hinge is Delaunay for the surface at z with
    (|z|^2, Re z) = (u, v); operates on base-chart holonomies throughout.

    Shares delaunay.flip_until with delaunayize: a hinge is flipped when it
    is NEVER Delaunay or its wall form is positive at (u, v), one
    Wall.side per test.  Walls come from t's hinge_cache where t's hinges
    are unflipped; only a miss goes to _memo_wall, which memoizes the rest
    by developed hinge in _walls, shared by explore across its cells
    (without it, the call keeps its own).  Every edge is tested after its
    last flip, so the result's cache holds the wall of every edge, and
    each hinge left is ALWAYS Delaunay or has a wall with (u, v) on its
    side q <= 0.
    """
    walls = {} if _walls is None else _walls
    fu, fv = to_double(u), to_double(v)

    def needs_flip(out: Triangulation, edge: HalfEdge) -> bool:
        w = out.hinge_cache.get(edge)
        if w is None:
            w = _memo_wall(out, edge, walls)
        if w is ALWAYS or w is NEVER:
            return w is NEVER
        return w.side(u, v, fu, fv) > 0

    return dl.flip_until(t, needs_flip)


# -- cells ------------------------------------------------------------------------------


@dataclass
class Cell:
    """An iso-Delaunay region: a combinatorial Delaunay class over H.

    comb_hash is the canonical combinatorial code of the triangulation
    (mirror-inclusive, so a reflected surface yields an equal hash); walls
    are the supporting walls, sorted by oriented key, each bounding the
    cell on its side q < 0; the identity key is the set of their oriented
    keys, which pins the region itself; facets, made with the cell, hold
    each wall's _facet result: the end values (lo, hi) of its facet, or None
    where a float wall has none.  triangulation is the Delaunay
    triangulation at the sample; on a float surface it holds the surface's
    vectors scaled by the power of two of cell_at (_unit_scaled).
    """

    comb_hash: Tuple[int, ...]
    walls: Tuple[Wall, ...]
    sample: HPoint
    key: FrozenSet = field(repr=False, default=frozenset())
    triangulation: Optional[Triangulation] = field(repr=False, default=None, compare=False)
    facets: Tuple[Optional[tuple], ...] = field(repr=False, default=(), compare=False)


def _rationalize(x: float, y: float) -> Tuple[Fraction, Fraction]:
    """x + iy with denominators up to 10**9, for a point of H.

    A y that this rounds to 0 or below (y < 5e-10) keeps its exact value
    instead: delaunayize_at at y = 0 is off H and flips without end.
    """
    vx = Fraction(x).limit_denominator(10 ** 9)
    vy = Fraction(y).limit_denominator(10 ** 9)
    if vy <= 0:
        _log.debug("_rationalize: y = %r rounds to %s; keeping its exact value", y, vy)
        vy = Fraction(y)
    return vx, vy


def _sample(x: float, y: float, t: Triangulation) -> Tuple[Scalar, Scalar, Scalar, float, float]:
    """(vx, vy, u, fu, fv) for the sample near x + iy that cell_at and
    _cross_wall test on t: the point vx + i vy, rationalized where t is
    exact (see _rationalize) and x + iy itself where t is float, u = vx**2
    + vy**2 and (fu, fv), the doubles of (u, vx) (numeric.to_double)."""
    vx, vy = _rationalize(x, y) if t.doubles is not None else (x, y)
    u = vx * vx + vy * vy
    return (vx, vy, u, to_double(u), to_double(vx))


def _collect_constraints(t: Triangulation, u: Scalar, v: Scalar, fu: float, fv: float) -> List[Wall]:
    """The distinct walls of t's hinges, each oriented so that the sample
    (u, v) lies on its side q < 0: the first wall per oriented key, in edge
    order.  A wall's hinges are the edges of t whose hinge_cache wall has
    its oriented key.

    t is delaunayize_at's result at (u, v), whose hinge_cache holds each
    edge's wall, every one ALWAYS or with (u, v) on its side q <= 0; a wall
    through (u, v) raises _OnWall."""
    cache = t.hinge_cache
    by_key: Dict[object, Wall] = {}
    for edge in t.edges():
        w = cache[edge]
        if w is ALWAYS:
            continue
        if w.side(u, v, fu, fv) == 0:
            raise _OnWall
        by_key.setdefault(w.oriented_key(), w)
    return list(by_key.values())


class _OnWall(Exception):
    """The sample lies on a wall."""


# The facet filter of _ExactLine.  Each sign the facet test takes on an exact
# target is the sign of a polynomial in the target's coefficients (A, B, C)
# and another wall's, evaluated in doubles.  Count its error in units of
# u = 2**-53 along each path from a coefficient to the result: a
# coefficient's double is 2 units off (one ulp) and every operation adds 1.
# Then each monomial of the minors p, q is 6 units off, of a bound order
# p_x q_y - p_y q_x 14, of the parabola p (B q - A p) - C q**2 18 and of the
# vertical test (p B) B + (C C) q 13.  So the computed value is within
# gamma_18 = 18u / (1 - 18u) of the sum of the monomials' magnitudes; the
# same expression on |coefficients| computes that sum to within a factor
# 1 + gamma_18, and _FACET_EPS = 32u covers both.  Wall._filtered keeps the
# coefficients in [2**-1022, 1], so |p|, |q| <= 2, and a product that
# underflows (off by 2**-1075) is scaled by at most 2**4 afterwards: the
# absolute term 2**-1000 of numeric.filtered_sign covers every such term.
_FACET_EPS = 2.0 ** -48


class _Bound:
    """The point s = -p/q of an exact target's line (see _ExactLine).

    p, q are doubles, mp, mq the magnitudes of their monomials (infinite
    when the filter does not apply), sq the exact sign of q; ep, eq are the
    exact p, q, computed when a sign needs them.  wall is the wall that
    bounds the facet there, or None for the vertex of the parabola.
    """

    __slots__ = ("wall", "p", "q", "mp", "mq", "sq", "ep", "eq")

    def __init__(self, wall, p, q, mp, mq):
        self.wall = wall
        self.p, self.q, self.mp, self.mq = p, q, mp, mq
        self.ep = self.eq = None


class _ExactLine:
    """An exact target wall (A, B, C) as a line in (u, v), division free.

    A circle wall is parametrized by v = s, u = -(B s + C)/A, a vertical
    wall by u = s, v = -C/B.  Another wall (a, b, c) is (p + q s)/D along
    it, with D = A, p = c A - a C, q = b A - a B on a circle wall and D = B,
    p = c B - b C, q = a B on a vertical one, so it bounds the facet at
    s = -p/q.  sign(D) is the wall's orientation.  Every sign is filtered
    (see _FACET_EPS) and falls back to the exact sign of its polynomial.
    """

    def __init__(self, w: Wall):
        self.wall = w
        self.vertical = w.is_vertical
        self.sd = w.orientation
        self.A, self.B, self.C = w.fa, w.fb, w.fc
        self.filtered = w._filtered
        if w._filtered:
            self.mA, self.mB, self.mC = abs(w.fa), abs(w.fb), abs(w.fc)
        else:
            self.mA = self.mB = self.mC = math.inf

    def bound(self, w: Wall):
        """(sign of w's slope along the line, its bound), or (0, sign of w
        along the line) when w is parallel to it."""
        A, B, C = self.A, self.B, self.C
        a, b, c = w.fa, w.fb, w.fc
        if self.vertical:
            cB, bC = c * B, b * C
            p, q = cB - bC, a * B
            mp, mq = abs(cB) + abs(bC), abs(q)
        else:
            cA, aC, bA, aB = c * A, a * C, b * A, a * B
            p, q = cA - aC, bA - aB
            mp, mq = abs(cA) + abs(aC), abs(bA) + abs(aB)
        if not (self.filtered and w._filtered):
            mp = mq = math.inf
        x = _Bound(w, p, q, mp, mq)
        x.sq = filtered_sign(q, x.mq, _FACET_EPS) or sign(self._exact(x)[1])
        if x.sq == 0:
            return 0, (filtered_sign(p, x.mp, _FACET_EPS) or sign(self._exact(x)[0])) * self.sd
        return x.sq * self.sd, x

    def _exact(self, x: _Bound):
        if x.ep is None:
            w, t = x.wall, self.wall
            if w is None:
                x.ep, x.eq = t.b, 2 * t.a
            elif self.vertical:
                x.ep, x.eq = w.c * t.b - w.b * t.c, w.a * t.b
            else:
                x.ep, x.eq = w.c * t.a - w.a * t.c, w.b * t.a - w.a * t.b
        return x.ep, x.eq

    def less(self, x: _Bound, y: _Bound) -> bool:
        """x < y: y - x = (p_x q_y - p_y q_x) / (q_x q_y)."""
        s = filtered_sign(x.p * y.q - y.p * x.q, x.mp * y.mq + y.mp * x.mq, _FACET_EPS)
        if not s:
            (xp, xq), (yp, yq) = self._exact(x), self._exact(y)
            s = sign(xp * yq - yp * xq)
        return s * x.sq * y.sq > 0

    def vertex(self) -> _Bound:
        """The top s = -B/(2A) of the parabola along a circle wall."""
        x = _Bound(None, self.B, 2 * self.A, self.mB, 2 * self.mA)
        x.sq = self.sd
        return x

    def inside(self, x: _Bound) -> bool:
        """Whether g(s) = u(s) - v(s)**2 > 0 at s = x: the point is in H."""
        p, q, mp, mq = x.p, x.q, x.mp, x.mq
        A, B, C, mA, mB, mC = self.A, self.B, self.C, self.mA, self.mB, self.mC
        if self.vertical:
            # g = s - C**2/B**2 = -(p B**2 + C**2 q) / (q B**2)
            s = filtered_sign((p * B) * B + (C * C) * q, (mp * mB) * mB + (mC * mC) * mq, _FACET_EPS)
            if not s:
                (ep, eq), t = self._exact(x), self.wall
                s = sign(ep * t.b * t.b + t.c * t.c * eq)
            return s * x.sq < 0
        # g = (p (B q - A p) - C q**2) / (A q**2)
        s = filtered_sign(p * (B * q - A * p) - C * (q * q), mp * (mB * mq + mA * mp) + mC * (mq * mq),
                          _FACET_EPS)
        if not s:
            (ep, eq), t = self._exact(x), self.wall
            s = sign(ep * (t.b * eq - t.a * ep) - t.c * (eq * eq))
        return s * self.sd > 0

    def value(self, x: Optional[_Bound], ends: dict) -> Optional[Scalar]:
        """The exact parameter value -p/q at x, kept in ends under the pair
        (target's locus key, locus key of the wall that bounds it there).  p
        and q change sign together with either wall's orientation, so the
        value depends on the two loci alone.  Two circle walls are both
        parametrized by v and their corner has one v, so it is kept under
        the reversed pair as well."""
        if x is None:
            return None
        tk, wk = self.wall.locus_key(), x.wall.locus_key()
        v = ends.get((tk, wk))
        if v is None:
            ep, eq = self._exact(x)
            v = ends[tk, wk] = -ep / exact_divisor(eq)
            if not (self.vertical or x.wall.is_vertical):
                ends[wk, tk] = v
        return v


def _facet(target: Wall, others: Sequence[Wall], ends: Optional[dict] = None):
    """(lo, hi) for the facet of the wall target, the parameter values of
    its ends on the cell boundary (v on a circle wall, u on a vertical one;
    None where no wall bounds that end), or None when the wall is redundant
    or its facet misses H.  Exact walls give exact values, kept in ends
    (see _ExactLine.value; a fresh dict where none is given); a float wall
    is _float_facet's.

    The wall is a line in (u, v) coordinates, each other wall a half-line
    of it, and the parabola u > v**2 a concave quadratic g along it.
    """
    if not target.exact:
        return _float_facet(target, others)
    line = _ExactLine(target)
    ends = {} if ends is None else ends
    lo = hi = None
    for w in others:
        if w is target:
            continue
        ss, x = line.bound(w)
        if ss == 0:
            # Parallel: x is the sign of w's form all along the line.
            if x > 0:
                return None
            continue
        if ss > 0:
            if hi is None or line.less(x, hi):
                hi = x
        elif lo is None or line.less(lo, x):
            lo = x
    if lo is not None and hi is not None and not line.less(lo, hi):
        return None
    # Inside H: g(s) = u(s) - v(s)**2 > 0 somewhere on [lo, hi].
    if line.vertical:
        # g(u) = u - v0**2 grows with u, so its best point is hi.
        inside = hi is None or line.inside(hi)
    else:
        # g(v) = u0 + du v - v**2 is concave with its top at v = du/2.
        candidates = [x for x in (lo, hi) if x is not None]
        vertex = line.vertex()
        if (lo is None or line.less(lo, vertex)) and (hi is None or line.less(vertex, hi)):
            candidates.append(vertex)
        inside = any(line.inside(x) for x in candidates)
    return (line.value(lo, ends), line.value(hi, ends)) if inside else None


def _float_facet(target: Wall, others: Sequence[Wall]):
    """_facet on a float target wall: the line (u0 + s du, v0 + s dv) in
    (u, v), a circle wall parametrized by v = s, a vertical wall by u = s.
    Its bounds are floats and its signs floats against _FACET_TOL: a bound
    replaces the one kept only where it is tighter by more than the
    tolerance, so of two bounds within it the first is kept.  lo only
    rises and hi only falls, and rounding is monotone, so lo - hi only
    rises: the test returns None as soon as the bounds kept leave no room
    between them.  Its shape is read off fa: not (fa > 0 or fa < 0) is
    sign(a) == 0 on every double, -0.0 and NaN included."""
    vertical = not (target.fa > 0 or target.fa < 0)
    if vertical:
        # v = -c/b
        inv = 1.0 / target.fb
        u0, du, v0, dv = 0, 1, -target.fc * inv, 0
    else:
        # u = -(b v + c)/a
        inv = 1.0 / target.fa
        u0, du, v0, dv = -target.fc * inv, -target.fb * inv, 0, 1
    lo = hi = None
    for w in others:
        if w is target:
            continue
        # a (u0 + s du) + b (v0 + s dv) + c <= 0
        slope = w.fa * du + w.fb * dv
        const = w.fa * u0 + w.fb * v0 + w.fc
        if slope > _FACET_TOL:
            x = -const / slope
            if hi is None or x - hi < -_FACET_TOL:
                hi = x
                if lo is not None and not (lo - hi < -_FACET_TOL):
                    return None
        elif slope < -_FACET_TOL:
            x = -const / slope
            if lo is None or lo - x < -_FACET_TOL:
                lo = x
                if hi is not None and not (lo - hi < -_FACET_TOL):
                    return None
        elif const > _FACET_TOL:
            return None  # parallel, and w's form is positive all along the line
    if vertical:
        inside = hi is None or hi - v0 * v0 > _FACET_TOL
    else:
        candidates = [x for x in (lo, hi) if x is not None]
        vertex = du / 2
        if (lo is None or lo - vertex < -_FACET_TOL) and (hi is None or vertex - hi < -_FACET_TOL):
            candidates.append(vertex)
        inside = any(-x * x + du * x + u0 > _FACET_TOL for x in candidates)
    return (lo, hi) if inside else None


# The corner filter of _supporting_walls, counted as for _FACET_EPS in units
# of u = 2**-53 along each path from a coefficient to the result.  The cross
# product a1 b2 - a2 b1 of two normals: 2 + 2 in the factors, 1 in the
# product and 1 in the difference, 6.  The 3x3 determinant of three walls,
# expanded along the third row as a3 (b1 c2 - b2 c1) + b3 (c1 a2 - c2 a1)
# + c3 (a1 b2 - a2 b1): 6 in the three factors, 1 each in the inner product,
# the inner difference and the outer product, and 2 in the outer sums, 11.
# So either computed value is within gamma_11 = 11u / (1 - 11u) of the sum
# of its monomials' magnitudes; the same expression on |coefficients|
# computes that sum to within a factor 1 + gamma_11, and _CORNER_EPS = 16u
# covers both.  Wall._filtered keeps the coefficients in [2**-1022, 1], so
# every monomial is at most 1 and a product that underflows is off by at
# most 2**-1075: the absolute term 2**-1000 of numeric.filtered_sign covers
# them.
_CORNER_EPS = 2.0 ** -49


def _cross_sign(w1: Wall, w2: Wall) -> int:
    """The exact sign of a1 b2 - a2 b1: positive when w2's normal (a, b)
    turns counterclockwise from w1's by less than pi."""
    t1, t2 = w1.fa * w2.fb, w2.fa * w1.fb
    if w1._filtered and w2._filtered:
        s = filtered_sign(t1 - t2, abs(t1) + abs(t2), _CORNER_EPS)
        if s:
            return s
    return sign(w1.a * w2.b - w2.a * w1.b)


def _corner_inside(w1: Wall, w2: Wall, w3: Wall) -> bool:
    """Whether the corner where w1 and w2 meet lies strictly inside w3 (q < 0
    there), for w2's normal counterclockwise of w1's by less than pi.

    At the corner q3 = det / (a1 b2 - a2 b1), with det the 3x3 determinant
    of the rows (a, b, c) of w1, w2, w3 and a positive denominator, so the
    answer is det < 0.  It does not depend on the sample.
    """
    a1, b1, c1 = w1.fa, w1.fb, w1.fc
    a2, b2, c2 = w2.fa, w2.fb, w2.fc
    a3, b3, c3 = w3.fa, w3.fb, w3.fc
    p1, p2, q1, q2, r1, r2 = b1 * c2, b2 * c1, c1 * a2, c2 * a1, a1 * b2, a2 * b1
    if w1._filtered and w2._filtered and w3._filtered:
        s = filtered_sign(a3 * (p1 - p2) + b3 * (q1 - q2) + c3 * (r1 - r2),
                          abs(a3) * (abs(p1) + abs(p2)) + abs(b3) * (abs(q1) + abs(q2))
                          + abs(c3) * (abs(r1) + abs(r2)), _CORNER_EPS)
        if s:
            return s < 0
    return sign(w3.a * (w1.b * w2.c - w2.b * w1.c) + w3.b * (w1.c * w2.a - w2.c * w1.a)
                + w3.c * (w1.a * w2.b - w2.a * w1.b)) < 0


def _angle_part(w: Wall) -> int:
    """Where w's normal (a, b) lies on (-pi, pi]: 0 below the axis, 1 at
    angle 0, 2 above the axis, 3 at pi."""
    if w._filtered:
        # A coefficient's double is within an ulp of it, and 0 only for 0.
        sb = (w.fb > 0) - (w.fb < 0)
        return 1 + sb if sb else 1 if w.fa > 0 else 3
    sb = sign(w.b)
    return 1 + sb if sb else 1 if sign(w.a) > 0 else 3


def _angle_cmp(w1: Wall, w2: Wall) -> int:
    """-1, 0 or 1 as w1's normal comes before, points the same way as, or
    comes after w2's, in the order of atan2(b, a) on (-pi, pi]."""
    k1, k2 = _angle_part(w1), _angle_part(w2)
    if k1 != k2:
        return -1 if k1 < k2 else 1
    return 0 if k1 % 2 else -_cross_sign(w1, w2)


_ANGLE_KEY = cmp_to_key(_angle_cmp)


def _by_angle(walls: Sequence[Wall]) -> List[Wall]:
    """The walls in the exact order of their normals' angles on (-pi, pi],
    one wall per direction: of parallel walls whose normals point the same
    way, the tighter."""
    out: List[Wall] = []
    for w in sorted(walls, key=_ANGLE_KEY):
        if out and _angle_cmp(out[-1], w) == 0:
            # w's form along out[-1]'s line: positive where w is the tighter.
            if _ExactLine(out[-1]).bound(w)[1] > 0:
                out[-1] = w
        else:
            out.append(w)
    return out


def _supporting_walls(walls: Sequence[Wall], ends: Optional[dict] = None) -> List[Tuple[Wall, tuple]]:
    """The exact walls, each with the cell's sample on its side q < 0, that
    bound a facet: an edge of positive length of the polygon where every
    q < 0, in (u, v), whose edge meets H; in angle order, each with its
    facet, which equals _facet(w, walls) inside H.

    One half-plane intersection: the walls sorted by the angle of their
    normals (_by_angle), then scanned once.  Where consecutive normals leave
    a gap of at least pi the polygon is unbounded, and a stack scans from
    just after the gap; otherwise a deque scans the closed ring.  A wall at
    an end of the stack or deque is dropped when its corner with its
    neighbour there does not lie strictly inside the next wall
    (_corner_inside), so an edge of length 0 goes too.  Each wall left then
    takes _facet with its neighbours on the polygon, which bound its edge as
    all the walls do inside H, for the parabola test and its facet, whose
    ends it keeps in ends.
    """
    ring = _by_angle(walls)
    n = len(ring)
    # ring[gap] follows a gap of at least pi, where a1 b2 - a2 b1 <= 0.
    gap = next((j for j in range(n) if _cross_sign(ring[j - 1], ring[j]) <= 0), None)
    if gap is not None:
        stack: List[Wall] = []
        for h in ring[gap:] + ring[:gap]:
            while len(stack) > 1 and not _corner_inside(stack[-2], stack[-1], h):
                stack.pop()
            stack.append(h)
        # The chain's ends have one neighbour each (stack[-1:0] is empty).
        edges = [(w, stack[j - 1:j] + stack[j + 1:j + 2]) for j, w in enumerate(stack)]
    else:
        dq: deque = deque()
        for h in ring:
            while len(dq) > 1 and not _corner_inside(dq[-2], dq[-1], h):
                dq.pop()
            while len(dq) > 1 and not _corner_inside(dq[0], dq[1], h):
                dq.popleft()
            dq.append(h)
        while len(dq) > 2 and not _corner_inside(dq[-2], dq[-1], dq[0]):
            dq.pop()
        m = len(dq)
        edges = [(w, (dq[j - 1], dq[(j + 1) % m])) for j, w in enumerate(dq)]
    return [(w, f) for w, neighbours in edges if (f := _facet(w, neighbours, ends)) is not None]


@dataclass
class _Memo:
    """Work shared by the cell_at calls of one explore.

    cells maps a supporting key to the cell explore stored under it.  walls
    maps a hinge to its wall (see _memo_wall): on exact input every key of
    its quadrilateral, from either side and negated, finds one wall; on
    float input the developed hinge is the key.  It is the second cache
    level, under each triangulation's hinge_cache, which a neighbour's
    triangulation inherits from its parent cell for every hinge it did not
    flip, and it adds the hinges that flips recreate in a shape seen
    before.  ends maps a pair of exact locus keys (target, bounding wall)
    to the facet end the bounding wall makes on the target, for every wall
    of either locus, of either orientation (see _ExactLine.value): each
    corner is computed once per pair of loci.  classes maps every walk
    code of each combinatorial class of the cells' triangulations met so
    far to the class's code, from which delaunay.canonical_code reads a new
    cell's comb hash off one walk where it can, without minimizing over
    every start again.
    """

    cells: Dict[FrozenSet, "Cell"]
    walls: dict = field(default_factory=dict)
    ends: dict = field(default_factory=dict)
    classes: Dict[Tuple[int, ...], Tuple[int, ...]] = field(default_factory=dict)


def _unit_scaled(s: Surface) -> Surface:
    """A float surface as doubles scaled by the power of two that brings its
    largest |coordinate| into [0.5, 1) (numeric.scaled_points), s itself
    when s is exact or already so; IsoDelaunayError where scaled_points
    gives None (a coordinate not a finite double, or all 0).

    Normalized walls and Delaunay triangulations do not change under
    scaling, and a power of two commutes with every rounding of the wall
    expansion (degree 4, its discriminant degree 8) and of the flips, so
    the float walls and flips of s are those at unit scale, bit for bit,
    where at the input's own scale they would underflow or overflow.
    """
    if s.is_exact():
        return s
    vertices = [v for p in s.polygons for v in p.vertices]
    points = scaled_points(vertices)
    if points is None:
        raise IsoDelaunayError("cannot scale to unit size: a coordinate is not a finite double, or all are 0")
    if points == vertices:
        return s
    it = iter(points)
    return Surface([Polygon([next(it) for _ in p.vertices]) for p in s.polygons], s.gluings, s.kind)


def cell_at(s: Surface, z: HPoint, _tri: Optional[Triangulation] = None,
            _memo: Optional[_Memo] = None) -> Cell:
    """The iso-Delaunay cell containing z (perturbing z off walls if needed).

    On an exact surface z is rationalized to denominators up to 10**9, so a
    z with such Fraction coordinates is located exactly where it lies; a y
    below 5e-10 keeps its exact value (see _rationalize).

    The supporting walls are the walls of the Delaunay triangulation at the
    sample that bound a facet inside H, and the cell holds their facets.  On
    an exact surface both come from one half-plane intersection
    (_supporting_walls), which runs the facet test once per polygon edge;
    on a float surface every wall takes the facet test against all the
    others, with float tolerances, and a new cell's walls then take it
    against the supporting walls alone.  Whether the surface is exact is
    read off the triangulation (its doubles), not off every scalar of s;
    the walls come from the hinge_cache that delaunayize_at leaves.

    Without _tri, s is triangulated (delaunay.triangulate: a surface with
    any float coordinate is float input), a float one first scaled to unit
    size by a power of two (_unit_scaled), so its cells do not depend on
    its scale.  Cell.triangulation then holds the scaled vectors.

    With _memo, a cell whose supporting key is already in _memo.cells is
    returned as stored instead of being built again.
    """
    base = _tri if _tri is not None else dl.triangulate(_unit_scaled(s))
    exact = base.doubles is not None
    memo = _memo if _memo is not None else _Memo({})
    zx, zy = z.x, z.y
    for attempt in range(8):
        vx, vy, u, fu, fv = _sample(zx, zy, base)
        try:
            t = delaunayize_at(base, u, vx, _walls=memo.walls)
            walls = _collect_constraints(t, u, vx, fu, fv)
        except _OnWall:
            _log.debug("cell_at: sample %r + %ri lies on a wall; moving it (attempt %d)",
                       zx, zy, attempt + 1)
            zx += (1e-9 if attempt % 2 == 0 else -2e-9) * (attempt + 1)
            zy += 1e-9 * (attempt + 1)
            continue
        if exact:
            found = _supporting_walls(walls, memo.ends)
        else:
            found = [(w, None) for w in walls if _facet(w, walls) is not None]
        found.sort(key=lambda wf: wf[0].oriented_key())
        supporting = tuple(w for w, _ in found)
        key = frozenset(w.oriented_key() for w in supporting)
        if key in memo.cells:
            return memo.cells[key]
        # A float wall's facet, against the supporting walls in this order:
        # _float_facet keeps the first of two tied bounds.
        facets = tuple(_facet(w, supporting) if f is None else f for w, f in found)
        return Cell(
            comb_hash=dl.canonical_code(t, memo.classes),
            walls=supporting,
            sample=HPoint(float(vx), float(vy)),
            key=key,
            triangulation=t,
            facets=facets,
        )
    raise IsoDelaunayError(f"could not move sample {z} off the walls")


# -- exploration --------------------------------------------------------------------------


@dataclass
class Tessellation:
    """Cells and their crossings.  adjacency holds one (a, b, wall) per
    crossing, a and b in repr order and wall as the crossing cell holds it,
    so a pair crossed from both sides is held twice: the exact r = 1 AY
    ball's 72 entries are 36 pairs.  A crossing not made from the other side
    holds its pair once (170 of the float r = 3 AY ball's 872 pairs).
    """

    surface: Surface
    cells: List[Cell]
    adjacency: Set[Tuple[FrozenSet, FrozenSet, Wall]] = field(default_factory=set)

    def all_walls(self) -> List[Wall]:
        """One representative per geodesic among explored supporting walls."""
        seen = {}
        for c in self.cells:
            for w in c.walls:
                seen[w.locus_key()] = w
        return [seen[k] for k in sorted(seen, key=repr)]


def _no_crossing_point(wall: Wall, lo: float, hi: float, reason: str) -> None:
    """Log why a facet on v in (lo, hi) gets no crossing point."""
    _log.debug("_facet_crossing_point: wall %r on (%r, %r): %s; not crossed",
               wall.normalized_floats(), lo, hi, reason)


def _facet_crossing_point(wall: Wall, interval, z0: HPoint, radius: float) -> Optional[HPoint]:
    """Hyperbolic midpoint of the facet clipped to the ball, as a float point.

    A circle wall is sampled at theta = pi k/512 (0 < k < 512), a vertical
    wall at the heights y0 exp(1.5 radius k/512) (|k| <= 512).  Of the
    samples on the facet within the ball, the one whose arclength
    coordinate is nearest the middle of their range is returned, the first
    in k on a tie.  None, when the geodesic misses the ball or no sample
    lands in it, is logged at DEBUG.

    Both the facet coordinate (v on a circle wall, u on a vertical one) and
    the arclength coordinate are monotone in k, and the samples lie far
    enough apart that rounding keeps them so; so the facet's samples are
    one run of k, and the middle sample one more bisection.  The distance to
    z0 is convex along a geodesic, so the samples in the ball are one run
    as well, and its ends are found by testing samples inward from the ends
    of the facet's run (on a circle wall, within a closed-form band of k
    that holds the ball).  The test is HPoint.hyperbolic_distance written
    out, and only the returned point becomes an HPoint.
    """
    lo, hi = interval
    lo_f = -math.inf if lo is None else float(lo)
    hi_f = math.inf if hi is None else float(hi)
    kind, p, r = wall.geometry()
    x0, y0 = z0.x, z0.y
    n = 512
    if kind == "circle":
        if r == 0:
            return _no_crossing_point(wall, lo_f, hi_f, "the geodesic misses the ball")
        center = p
        k_min, k_max = k_lo, k_hi = 1, n - 1
        # The ball is the Euclidean disc with centre (x0, Y), Y = y0 cosh(radius),
        # and radius y0 sinh(radius); the circle meets it where
        # d cos(theta) - Y sin(theta) <= K with d = center - x0 and
        # K = -(y0**2 + d**2 + r**2) / (2 r), that is where
        # cos(theta - phi) <= q = K / hypot(d, Y), phi = atan2(-Y, d).
        # Rounding moves q by about 1e-15 and theta by under 1e-7, so the
        # band keeps two more samples on each side and reads q < -1 - 1e-9
        # as a miss.  Non-finite q (overflow) keeps every sample.
        d = center - x0
        big_y = y0 * math.cosh(radius)
        m = math.hypot(d, big_y)
        q = -(y0 * y0 + d * d + r * r) / (2 * r * m)
        if math.isfinite(q):
            if q < -1 - 1e-9:
                return _no_crossing_point(wall, lo_f, hi_f, "the geodesic misses the ball")
            phi = math.atan2(-big_y, d)
            beta = math.acos(max(q, -1.0))
            k_lo = max(k_lo, math.floor((phi + beta) * n / math.pi) - 2)
            k_hi = min(k_hi, math.ceil((phi + 2 * math.pi - beta) * n / math.pi) + 2)

        def point(k: int) -> Tuple[float, float]:
            # v = center + r cos(theta), y = r sin(theta)
            th = math.pi * k / n
            return center + r * math.cos(th), r * math.sin(th)

        def arclength(k: int) -> float:
            return math.log(math.tan(math.pi * k / n / 2))

        # The facet coordinate -v grows with k.
        def coord(k: int) -> float:
            return -(center + r * math.cos(math.pi * k / n))

        c_lo, c_hi = -hi_f, -lo_f
    else:
        x = p
        k_min, k_max = k_lo, k_hi = -n, n

        def point(k: int) -> Tuple[float, float]:
            return x, y0 * math.exp(radius * k / n * 1.5)

        def arclength(k: int) -> float:
            return math.log(point(k)[1])

        # The facet coordinate u = x**2 + y**2 grows with k.
        def coord(k: int) -> float:
            y = point(k)[1]
            return x * x + y * y

        c_lo, c_hi = lo_f, hi_f
    # The facet's samples: the run [first, last] of k.
    first = k_min + bisect.bisect_left(range(k_min, k_max + 1), c_lo, key=coord)
    last = first + bisect.bisect_right(range(first, k_max + 1), c_hi, key=coord) - 1
    if kind == "vertical" and first <= last:
        y = point(first)[1]
        if not y > 0:  # exp underflows at radii beyond 496
            raise IsoDelaunayError(f"not in the upper half-plane: {complex_str(x, y)}")

    def in_ball(k: int) -> bool:
        px, py = point(k)
        dx = px - x0
        dy = py - y0
        return math.acosh(1.0 + (dx * dx + dy * dy) / (2.0 * py * y0)) <= radius

    # The samples on the facet within the ball: the run [first, last].
    first, last = max(first, k_lo), min(last, k_hi)
    while first <= last and not in_ball(first):
        first += 1
    while last > first and not in_ball(last):
        last -= 1
    if first > last:
        return _no_crossing_point(wall, lo_f, hi_f, "no sample of the facet lies in the ball")
    s_mid = 0.5 * (arclength(first) + arclength(last))
    # |s - s_mid| falls up to k = j - 1 and rises from k = j.
    j = first + bisect.bisect_left(range(first, last + 1), s_mid, key=arclength)
    if j > first:
        best = abs(arclength(j - 1) - s_mid)
        if best <= abs(arclength(j) - s_mid):
            j -= 1
            while j > first and abs(arclength(j - 1) - s_mid) == best:
                j -= 1
    return HPoint(*point(j))


def _cross_wall(s: Surface, cell: Cell, wall: Wall, at: HPoint, memo: _Memo) -> Optional[Cell]:
    """A sample just across the wall from the cell, verified exactly."""
    a, b = wall.fa, wall.fb
    # gradient of the oriented q in (x, y): points out of the cell
    gx = 2 * a * at.x + b
    gy = 2 * a * at.y
    norm = math.hypot(gx, gy)
    if norm == 0:
        _log.debug("_cross_wall: zero wall gradient at %r + %ri; no crossing", at.x, at.y)
        return None
    for eps in (1e-4, 1e-5, 1e-6, 1e-7):
        zx = at.x + eps * gx / norm
        zy = at.y + eps * gy / norm
        if zy <= 0:
            continue
        vx, vy, u, fu, fv = _sample(zx, zy, cell.triangulation)
        # Strictly across the wall and strictly inside every other one.
        if wall.side(u, vx, fu, fv) <= 0:
            continue
        if any(other.side(u, vx, fu, fv) >= 0 for other in cell.walls if other is not wall):
            continue
        try:
            return cell_at(s, HPoint(vx, vy), _tri=cell.triangulation, _memo=memo)
        except IsoDelaunayError:
            continue
    _log.debug("_cross_wall: no verified sample across wall %r near %r + %ri; no crossing",
               wall.normalized_floats(), at.x, at.y)
    return None


def explore(s: Surface, z0: HPoint, radius: float) -> Tessellation:
    """Breadth-first tessellation of the hyperbolic ball around z0.

    A traversal only: every facet in Cell.facets, the end values cell_at
    builds each cell with, that meets the ball is crossed by resampling: a
    point just across it is located with cell_at, which runs delaunayize_at
    from the cell's own triangulation.
    Cells are deduplicated by their supporting wall set.  Deterministic:
    the frontier is processed in sorted order.

    Walls ride on the triangulations: a neighbour's triangulation inherits
    its parent cell's walls, and cell_at recomputes only the walls of the
    hinges its own flips changed.  A second memo computes each exact wall
    once per hinge quadrilateral, read from either side, and each float
    wall once per developed hinge, whose float expansion depends on the
    side.  Each exact facet end is computed once per pair of loci, and
    kept in _Memo.ends under both pairs where both walls are circles.
    A new cell's comb hash is read off the combinatorial classes of the
    cells met before (_Memo.classes, every walk code of each class): one
    walk and one lookup, and only a new class runs the full minimum of
    delaunay.canonical_code.
    One exploration does not rebuild a cell it already holds.  On exact
    input the tessellation is edge-to-edge, so the far cell of a facet is
    looked up, not located again: every stored cell indexes its facets by
    locus key, exact end values and orientation, and a facet is crossed
    into the cell indexed on its other side; only a facet with no indexed
    partner is resampled, and one whose resampling lands in a cell already
    held is logged at DEBUG.  Each exact facet takes the ball test once,
    from whichever side comes first.  Float crossings are not reciprocal,
    so floats resample every facet from both sides.

    Whether the input is exact is read once, off the start cell's
    triangulation: a surface with any float coordinate is explored as its
    float image, at unit scale (see cell_at), so a power-of-two scale of s
    gives the same tessellation bit for bit.

    A facet that meets the ball but whose crossing finds no verified cell
    (see _cross_wall) raises IsoDelaunayError naming the wall and the
    crossing point, rather than leave the tessellation incomplete; a facet
    whose crossing point misses the ball (see _facet_crossing_point) is
    not crossed.
    """
    if not 0 < radius <= _MAX_RADIUS:
        raise IsoDelaunayError(f"radius must be positive and at most {_MAX_RADIUS}: {radius}")
    cells: Dict[FrozenSet, Cell] = {}
    memo = _Memo(cells)
    # repr(key) orders the two ends of an adjacency; computed once per cell.
    key_repr: Dict[FrozenSet, str] = {}
    # On exact input, a facet's locus is (locus key, lo, hi): (locus,
    # orientation) -> the cell on that side of the facet, and locus -> the
    # facet's crossing point or None.
    index: Dict[tuple, Cell] = {}
    crossing_points: Dict[tuple, Optional[HPoint]] = {}

    def store(cell: Cell) -> None:
        cells[cell.key] = cell
        key_repr[cell.key] = repr(cell.key)
        if exact:
            for wall, facet in zip(cell.walls, cell.facets):
                index[(wall.locus_key(), *facet, wall.orientation)] = cell

    start = cell_at(s, z0, _memo=memo)
    exact = start.triangulation.doubles is not None
    store(start)
    adjacency: Set = set()
    frontier = [start]
    while frontier:
        frontier.sort(key=lambda c: (c.comb_hash, sorted(map(repr, c.key))))
        next_frontier: List[Cell] = []
        for cell in frontier:
            for wall, facet in zip(cell.walls, cell.facets):
                if facet is None:
                    continue
                if exact:
                    locus = (wall.locus_key(), *facet)
                    if locus not in crossing_points:
                        crossing_points[locus] = _facet_crossing_point(wall, facet, z0, radius)
                    at = crossing_points[locus]
                else:
                    at = _facet_crossing_point(wall, facet, z0, radius)
                if at is None:
                    continue
                neighbor = index.get(locus + (-wall.orientation,)) if exact else None
                if neighbor is None:
                    neighbor = _cross_wall(s, cell, wall, at, memo)
                    if neighbor is None:
                        raise IsoDelaunayError(f"no cell found across wall {wall.normalized_floats()} "
                                               f"near {at.x!r} + {at.y!r}i")
                    if exact and neighbor.key in cells:
                        _log.debug("explore: facet of wall %r near %r + %ri has no indexed partner; "
                                   "its crossing found a cell already held",
                                   wall.normalized_floats(), at.x, at.y)
                if neighbor.key not in cells:
                    if len(cells) >= _CELL_BUDGET:
                        raise IsoDelaunayError(f"cell budget {_CELL_BUDGET} exceeded")
                    store(neighbor)
                    next_frontier.append(neighbor)
                if key_repr[neighbor.key] < key_repr[cell.key]:
                    adjacency.add((neighbor.key, cell.key, wall))
                else:
                    adjacency.add((cell.key, neighbor.key, wall))
        frontier = next_frontier
    return Tessellation(s, list(cells.values()), adjacency)


def walls_through(tess: Tessellation, u: Scalar, v: Scalar) -> List[Wall]:
    """Distinct explored walls passing exactly through the point (u, v)."""
    out = []
    for w in tess.all_walls():
        if sign(w.evaluate(u, v), FLOAT_TOL) == 0:
            out.append(w)
    return out


# -- SVG rendering -----------------------------------------------------------------------


# render_svg's window on the half-plane, (xmin, xmax, ymax), and its width in pixels.
_SVG_VIEWPORT = (-2.5, 2.5, 3.0)
_SVG_SIZE = 800


def render_svg(tess: Tessellation) -> str:
    """Draw the tessellation's walls as geodesics in the half-plane, over
    _SVG_VIEWPORT; deterministic output for a given tessellation."""
    xmin, xmax, ymax = _SVG_VIEWPORT
    size = _SVG_SIZE
    scale = size / (xmax - xmin)
    height = int(ymax * scale)

    def to_px(x: float, y: float) -> Tuple[float, float]:
        return ((x - xmin) * scale, height - y * scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{height}" '
        f'viewBox="0 0 {size} {height}">',
        f'<rect width="{size}" height="{height}" fill="white"/>',
        f'<line x1="0" y1="{height}" x2="{size}" y2="{height}" stroke="black" stroke-width="1"/>',
    ]
    for w in tess.all_walls():
        kind, p, r = w.geometry()
        if kind == "vertical":
            if xmin <= p <= xmax:
                x0, y0 = to_px(p, 0.0)
                x1, y1 = to_px(p, ymax)
                parts.append(
                    f'<line x1="{x0:.3f}" y1="{y0:.3f}" x2="{x1:.3f}" y2="{y1:.3f}" '
                    f'stroke="steelblue" stroke-width="1" fill="none"/>'
                )
        else:
            if p + r < xmin or p - r > xmax:
                continue
            x0, y0 = to_px(p - r, 0.0)
            x1, y1 = to_px(p + r, 0.0)
            pr = r * scale
            parts.append(
                f'<path d="M {x0:.3f} {y0:.3f} A {pr:.3f} {pr:.3f} 0 0 1 {x1:.3f} {y1:.3f}" '
                f'stroke="steelblue" stroke-width="1" fill="none"/>'
            )
    for cell in sorted(tess.cells, key=lambda c: (c.sample.x, c.sample.y)):
        cx, cy = to_px(cell.sample.x, cell.sample.y)
        parts.append(f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="2" fill="firebrick"/>')
    parts.append("</svg>")
    return "\n".join(parts)
