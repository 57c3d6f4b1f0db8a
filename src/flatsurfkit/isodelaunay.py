"""Iso-Delaunay tessellation of the upper half-plane.

A point z = x + iy of H names the surface M_z * S with M_z = [[1, x],
[0, y]] (z = i is the base surface; the Delaunay condition is invariant
under rotation and scaling, so this slice of GL(2, R) suffices).  For a
hinge developed in the base chart with quadrilateral coordinates (a_k,
b_k), the lifted incircle determinant of the transformed hinge factors as

    det(z) = y * (A (x**2 + y**2) + B x + C),

with A, B, C 4x4 determinants of the base coordinates: every hinge is
Delaunay on one side of a geodesic a (x**2+y**2) + b x + c = 0 (a wall),
always, or never.  Cells are intersections of wall half-planes; in the
coordinates (u, v) = (x**2 + y**2, x) walls become straight lines and H
the region u > v**2, so supporting walls are found by exact 1-dimensional
feasibility tests.  On an exact surface every combinatorial decision is
exact: a wall's side of a sample and each sign of the facet test are taken
in doubles where a proven error bound separates the value from 0 (see
_SIDE_EPS and _FACET_EPS), and in Q(alpha) otherwise.  Floating point
otherwise only chooses sample points, which are rationalized and then
verified.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .numeric import FLOAT_TOL, Scalar, coefficients, exact_divisor, filtered_sign, is_exact, sign, to_float
from . import delaunay as dl
from .delaunay import HalfEdge, Triangulation, hinge
from .surface import Surface

_log = logging.getLogger("flatsurfkit.isodelaunay")

ALWAYS = "always"
NEVER = "never"

# The float tolerance of the facet test on float walls (_FloatLine).
_FACET_TOL = 1e-13

# explore's largest radius: exp(1.5 * radius) overflows a double above 473.2.
_MAX_RADIUS = 473.0


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
            raise IsoDelaunayError(f"not a finite point of the upper half-plane: {self.x} + {self.y}i")

    def hyperbolic_distance(self, other: "HPoint") -> float:
        dx = self.x - other.x
        dy = self.y - other.y
        return math.acosh(1.0 + (dx * dx + dy * dy) / (2.0 * self.y * other.y))


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

    The coefficients' doubles (fa, fb, fc), whether all three are exact
    and the orientation are computed once, and so is the oriented key.
    On an exact wall every sign is exact: side() and the facet test of
    _supporting_interval decide it in doubles where a proven error bound
    separates the value from 0, and in Q(alpha) otherwise.  A float wall's
    signs are its float expressions against a tolerance.
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
        fa, fb, fc = float(a), float(b), float(c)
        sa, sb, sc = sign(a), sign(b), sign(c)
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
        """sign(self.evaluate(u, v), FLOAT_TOL), given fu = float(u) and
        fv = float(v) (infinite where they overflow).

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

    def value_at(self, x: Scalar, y: Scalar) -> Scalar:
        return self.a * (x * x + y * y) + self.b * x + self.c

    def floats(self) -> Tuple[float, float, float]:
        return (self.fa, self.fb, self.fc)

    @property
    def is_vertical(self) -> bool:
        """Whether the locus q = 0 is a vertical line rather than a
        half-circle: the one place that decides a wall's shape."""
        return sign(self.a) == 0

    def geometry(self) -> Tuple[str, float, float]:
        """("circle", center, radius) or ("vertical", x, 0)."""
        a, b, c = self.floats()
        if self.is_vertical:
            return ("vertical", -c / b, 0.0)
        center = -b / (2 * a)
        rad2 = center * center - c / a
        return ("circle", center, math.sqrt(max(rad2, 0.0)))

    def locus_key(self):
        """Orientation-free key identifying the geodesic."""
        return self.oriented_key()[0]

    def oriented_key(self):
        """(locus key, side): identifies the geodesic plus its Delaunay side.

        Computed once and kept: an exact wall's key holds nine Fractions, a
        float wall's its three doubles rounded to 9 places.
        """
        key = self._key
        if key is None:
            flip = self.orientation
            if self.exact:
                key = ((coefficients(flip * self.a), coefficients(flip * self.b), coefficients(flip * self.c)), flip)
            else:
                # + 0.0 turns -0.0 into 0.0, so that equal keys have one repr.
                key = (tuple(round(flip * t, 9) + 0.0 for t in self.floats()), flip)
            object.__setattr__(self, "_key", key)
        return key

    def normalized_floats(self) -> Tuple[float, float, float]:
        """Reported form: max |coefficient| = 1, first nonzero positive."""
        flip = self.orientation
        return tuple(flip * t for t in self.floats())


def _abs_cmp_max(values: Sequence[Scalar]) -> Scalar:
    best = None
    for v in values:
        av = -v if sign(v) < 0 else v
        if best is None or sign(av - best) > 0:
            best = av
    return best


def wall_of_hinge(t: Triangulation, edge: HalfEdge):
    """The wall of a hinge, or ALWAYS/NEVER when its sign is constant on H.

    The hinge is developed in the base chart; the returned wall is the
    cocircularity locus of the M_z-transformed hinge.  ALWAYS means the
    hinge is Delaunay for every z, NEVER that it never is.

    a, b/2 and c are the 4x4 determinants with columns (x, y, f, 1) over
    p1..p4 for f = y**2, x*y and x**2.  Each is reduced by subtracting p4's
    row; the x and y columns of the three reduced rows and their minor
    r10*r21 - r11*r20 are shared, and p1, which hinge() puts at the origin,
    contributes 0 - p4's entries.  Every determinant is expanded with the
    same operations in the same order, so float walls are reproducible.
    """
    h = hinge(t, edge)
    (x2, y2), (x3, y3), (x4, y4) = h.p2, h.p3, h.p4
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
    sa, sb, sc = sign(a), sign(b), sign(c)
    if sa == 0 and sb == 0:
        # Constant sign: Delaunay iff c <= 0.
        return ALWAYS if sc <= 0 else NEVER
    if sa != 0:
        disc = b * b - 4 * a * c
        if sign(disc) <= 0:
            return ALWAYS if sa < 0 else NEVER
    return _normalize_wall(a, b, c)


def _normalize_wall(a: Scalar, b: Scalar, c: Scalar) -> Wall:
    # Positive scaling only: the sign of q must keep matching the
    # Delaunay determinant.
    m = exact_divisor(_abs_cmp_max([a, b, c]))
    return Wall(a / m, b / m, c / m)


# -- Delaunay triangulations over the half-plane --------------------------------------


def _memo_wall(t: Triangulation, edge: HalfEdge, walls: Optional[dict]):
    """wall_of_hinge(t, edge), kept in t.hinge_cache.

    The cache rides on the triangulation: flips drop the walls of the
    hinges they change and copies carry the others over, so a wall is
    computed again only after its hinge was flipped.  walls, given on exact
    input, is the second level: one wall per developed hinge across the
    whole exploration.  A wall depends only on the hinge developed in the
    base chart, and p1 is always the origin, so (p2, p3, p4) is its key.
    """
    w = t.hinge_cache.get(edge)
    if w is not None:
        return w
    if walls is None:
        w = wall_of_hinge(t, edge)
    else:
        h = hinge(t, edge)
        key = (h.p2, h.p3, h.p4)
        w = walls.get(key)
        if w is None:
            w = walls[key] = wall_of_hinge(t, edge)
    t.hinge_cache[edge] = w
    return w


def _sample_floats(u: Scalar, v: Scalar) -> Tuple[float, float]:
    """(float(u), float(v)) for Wall.side; infinite where a value overflows,
    which sends an exact wall's sign to its exact evaluation."""
    try:
        return float(u), float(v)
    except OverflowError:
        return math.inf, math.inf


def _q_sign(t: Triangulation, edge: HalfEdge, u: Scalar, v: Scalar, fu: float, fv: float,
            walls: Optional[dict]) -> int:
    """Sign of the hinge's Delaunay form at (u, v); negative means Delaunay."""
    w = _memo_wall(t, edge, walls)
    if w is ALWAYS:
        return -1
    if w is NEVER:
        return 1
    return w.side(u, v, fu, fv)


def delaunayize_at(t: Triangulation, u: Scalar, v: Scalar, _walls: Optional[dict] = None) -> Triangulation:
    """Flip until every hinge is Delaunay for the surface at z with
    (|z|^2, Re z) = (u, v); operates on base-chart holonomies throughout.

    Shares delaunay.flip_until with delaunayize: a hinge is flipped when
    its wall form is positive at (u, v).  Walls come from t's hinge_cache
    where t's hinges are unflipped, and the result's cache holds the wall
    of every edge.  _walls, when given (exact input), memoizes the rest by
    developed hinge.
    """
    fu, fv = _sample_floats(u, v)
    return dl.flip_until(t, lambda out, edge: _q_sign(out, edge, u, v, fu, fv, _walls) > 0)


# -- cells ------------------------------------------------------------------------------


@dataclass
class Cell:
    """An iso-Delaunay region: a combinatorial Delaunay class over H.

    comb_hash is the canonical combinatorial code of the triangulation
    (mirror-inclusive, so a reflected surface yields an equal hash); walls
    are the supporting walls, sorted by oriented key, each bounding the
    cell on its side q < 0; the identity key is the set of their oriented
    keys, which pins the region itself.
    """

    comb_hash: Tuple[int, ...]
    walls: Tuple[Wall, ...]
    sample: HPoint
    key: FrozenSet = field(repr=False, default=frozenset())
    triangulation: Optional[Triangulation] = field(repr=False, default=None, compare=False)


def _rationalize(x: float, max_den: int = 10 ** 9) -> Fraction:
    return Fraction(x).limit_denominator(max_den)


def _collect_constraints(t: Triangulation, u: Scalar, v: Scalar, fu: float, fv: float,
                         walls: Optional[dict]) -> List[Wall]:
    """The distinct walls of t's hinges, each oriented so that the sample
    (u, v) lies on its side q < 0: the first wall per oriented key, in edge
    order.  A wall's hinges are the edges of t whose hinge_cache wall has
    its oriented key."""
    by_key: Dict[object, Wall] = {}
    for edge in t.edges():
        w = _memo_wall(t, edge, walls)
        if w is ALWAYS or w is NEVER:
            if w is NEVER:
                raise IsoDelaunayError("never-Delaunay hinge in a Delaunay triangulation")
            continue
        s = w.side(u, v, fu, fv)
        if s == 0:
            raise _OnWall
        if s > 0:
            raise IsoDelaunayError("non-Delaunay hinge after delaunayize_at")
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
            if self.vertical:
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
        x.ep, x.eq = self.wall.b, 2 * self.wall.a
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

    def value(self, x: Optional[_Bound]) -> Optional[Scalar]:
        if x is None:
            return None
        ep, eq = self._exact(x)
        return -ep / exact_divisor(eq)


class _FloatLine:
    """A float target wall as the line (u0 + s du, v0 + s dv) in (u, v): a
    circle wall parametrized by v = s, a vertical wall by u = s.  Its bounds
    are floats and its signs floats against _FACET_TOL."""

    def __init__(self, w: Wall):
        self.vertical = w.is_vertical
        if self.vertical:
            # v = -c/b
            inv = 1.0 / w.fb
            self.u0, self.du, self.v0, self.dv = 0, 1, -w.fc * inv, 0
        else:
            # u = -(b v + c)/a
            inv = 1.0 / w.fa
            self.u0, self.du, self.v0, self.dv = -w.fc * inv, -w.fb * inv, 0, 1

    def bound(self, w: Wall):
        # a (u0 + s du) + b (v0 + s dv) + c <= 0
        slope = w.fa * self.du + w.fb * self.dv
        const = w.fa * self.u0 + w.fb * self.v0 + w.fc
        ss = (slope > _FACET_TOL) - (slope < -_FACET_TOL)
        if ss == 0:
            return 0, (const > _FACET_TOL) - (const < -_FACET_TOL)
        return ss, -const / slope

    @staticmethod
    def less(x: float, y: float) -> bool:
        return x - y < -_FACET_TOL

    def vertex(self) -> float:
        return self.du / 2

    def inside(self, x: float) -> bool:
        if self.vertical:
            return x - self.v0 * self.v0 > _FACET_TOL
        return -x * x + self.du * x + self.u0 > _FACET_TOL

    @staticmethod
    def value(x: Optional[float]) -> Optional[float]:
        return x


def _facet(target: Wall, others: Sequence[Wall]):
    """(line, lo, hi) for the facet of the wall target, the parameter bounds
    of its points on the cell boundary and inside H (None where unbounded),
    or None when the wall is redundant.

    The wall is a line in (u, v) coordinates, each other wall a half-line
    of it, and the parabola u > v**2 a concave quadratic g along it.
    """
    line = _ExactLine(target) if target.exact else _FloatLine(target)
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
    return (line, lo, hi) if inside else None


def _supporting_interval(target: Wall, others: Sequence[Wall]):
    """Parameter interval (lo, hi) of the facet: points of the wall on the
    cell boundary and inside H, or None when the wall is redundant.

    A circle wall is parametrized by v, a vertical wall by u; exact walls
    give exact bounds, float walls float ones.
    """
    facet = _facet(target, others)
    if facet is None:
        return None
    line, lo, hi = facet
    return (line.value(lo), line.value(hi))


@dataclass
class _Memo:
    """Work shared by the cell_at calls of one explore.

    cells maps a supporting key to the cell explore stored under it.  walls
    (developed hinge -> wall) and crossed ((cell key, locus key) -> the cell
    across that facet) are kept on exact input only.  walls is the second
    cache level: the first is each triangulation's hinge_cache, which a
    neighbour's triangulation inherits from its parent cell for every hinge
    it did not flip, on both paths.  The developed-hinge level adds the
    hinges that flips recreate in a shape seen before.  On floats it would
    hit too (on the float AY ball of radius 3, 8 308 of the 14 603
    wall_of_hinge calls repeat a bit-identical developed hinge), but there
    it trades memory for time: on the perfbench ay-float-ball workload it
    raised peak_rss_mb from 27.28 to 29.24 MB (+7%) and cut run_s by 6%,
    so it stays off until that trade is chosen.
    crossed relies on every facet being shared by exactly two cells, which
    float crossings do not keep.
    """

    cells: Dict[FrozenSet, "Cell"]
    walls: Optional[dict] = None
    crossed: Optional[Dict[tuple, "Cell"]] = None


def cell_at(s: Surface, z: HPoint, _tri: Optional[Triangulation] = None,
            _memo: Optional[_Memo] = None) -> Cell:
    """The iso-Delaunay cell containing z (perturbing z off walls if needed).

    On an exact surface z is rationalized to denominators up to 10**9, so a
    z with such Fraction coordinates is located exactly where it lies.

    With _memo, a cell whose supporting key is already in _memo.cells is
    returned as stored instead of being built again.
    """
    exact = s.is_exact()
    base = _tri if _tri is not None else dl.triangulate(s)
    memo = _memo if _memo is not None else _Memo({})
    zx, zy = z.x, z.y
    for attempt in range(8):
        if exact:
            vx = _rationalize(zx)
            vy = _rationalize(zy)
        else:
            vx, vy = zx, zy
        u = vx * vx + vy * vy
        try:
            t = delaunayize_at(base, u, vx, _walls=memo.walls)
            fu, fv = _sample_floats(u, vx)
            walls = _collect_constraints(t, u, vx, fu, fv, memo.walls)
        except _OnWall:
            _log.debug("cell_at: sample %r + %ri lies on a wall; moving it (attempt %d)",
                       zx, zy, attempt + 1)
            zx += (1e-9 if attempt % 2 == 0 else -2e-9) * (attempt + 1)
            zy += 1e-9 * (attempt + 1)
            continue
        supporting = sorted((w for w in walls if _facet(w, walls) is not None), key=Wall.oriented_key)
        key = frozenset(w.oriented_key() for w in supporting)
        if key in memo.cells:
            return memo.cells[key]
        return Cell(
            comb_hash=dl.canonical_code(t, include_mirror=True),
            walls=tuple(supporting),
            sample=HPoint(to_float(vx), to_float(vy)),
            key=key,
            triangulation=t,
        )
    raise IsoDelaunayError(f"could not move sample {z} off the walls")


# -- exploration --------------------------------------------------------------------------


@dataclass
class Tessellation:
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
    lo_f = -math.inf if lo is None else to_float(lo)
    hi_f = math.inf if hi is None else to_float(hi)
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
            raise IsoDelaunayError(f"not in the upper half-plane: {x} + {y}i")

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
    a, b, c = wall.floats()
    # gradient of the oriented q in (x, y): points out of the cell
    exact = s.is_exact()
    for eps in (1e-4, 1e-5, 1e-6, 1e-7):
        gx = 2 * a * at.x + b
        gy = 2 * a * at.y
        norm = math.hypot(gx, gy)
        if norm == 0:
            _log.debug("_cross_wall: zero wall gradient at %r + %ri; no crossing", at.x, at.y)
            return None
        zx = at.x + eps * gx / norm
        zy = at.y + eps * gy / norm
        if zy <= 0:
            continue
        if exact:
            vx, vy = _rationalize(zx), _rationalize(zy)
        else:
            vx, vy = zx, zy
        u = vx * vx + vy * vy
        fu, fv = _sample_floats(u, vx)
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


def explore(s: Surface, z0: HPoint, radius: float, cell_budget: int = 10 ** 5) -> Tessellation:
    """Breadth-first tessellation of the hyperbolic ball around z0.

    From each cell every supporting wall whose facet meets the ball is
    crossed by resampling: a point just across the facet is located with
    cell_at, which runs delaunayize_at from the cell's own triangulation.
    Cells are deduplicated by their supporting wall set.  Deterministic:
    the frontier is processed in sorted order.

    Walls ride on the triangulations: a neighbour's triangulation inherits
    its parent cell's walls, and cell_at recomputes only the walls of the
    hinges its own flips changed.  On exact input a second memo, keyed by
    the developed hinge, computes each exact wall once per exploration.
    One exploration does not rebuild a cell it already holds, and on exact
    input it crosses each facet once: the exact tessellation is
    edge-to-edge, so the far cell of a facet is the cell that crossed it.
    Float crossings are not reciprocal, so floats cross from both sides.
    """
    if not 0 < radius <= _MAX_RADIUS:
        raise IsoDelaunayError(f"radius must be positive and at most {_MAX_RADIUS}: {radius}")
    exact = s.is_exact()
    cells: Dict[FrozenSet, Cell] = {}
    memo = _Memo(cells, walls={}, crossed={}) if exact else _Memo(cells)
    start = cell_at(s, z0, _memo=memo)
    cells[start.key] = start
    # repr(key) orders the two ends of an adjacency; computed once per cell.
    key_repr = {start.key: repr(start.key)}
    adjacency: Set = set()
    frontier = [start]
    while frontier:
        frontier.sort(key=lambda c: (c.comb_hash, sorted(map(repr, c.key))))
        next_frontier: List[Cell] = []
        for cell in frontier:
            for wall in cell.walls:
                neighbor = memo.crossed.pop((cell.key, wall.locus_key()), None) if exact else None
                if neighbor is None:
                    interval = _supporting_interval(wall, cell.walls)
                    if interval is None:
                        continue
                    at = _facet_crossing_point(wall, interval, z0, radius)
                    if at is None:
                        continue
                    neighbor = _cross_wall(s, cell, wall, at, memo)
                    if neighbor is None:
                        continue
                    if exact:
                        memo.crossed[(neighbor.key, wall.locus_key())] = cell
                if neighbor.key not in cells:
                    if len(cells) >= cell_budget:
                        raise IsoDelaunayError(f"cell budget {cell_budget} exceeded")
                    cells[neighbor.key] = neighbor
                    key_repr[neighbor.key] = repr(neighbor.key)
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
        if sign(w.evaluate(u, v), 1e-7) == 0:
            out.append(w)
    return out


# -- SVG rendering -----------------------------------------------------------------------


def render_svg(tess: Tessellation, viewport: Tuple[float, float, float] = (-2.5, 2.5, 3.0),
               size: int = 800) -> str:
    """Draw the tessellation's walls as geodesics in the half-plane.

    viewport = (xmin, xmax, ymax); deterministic output for a given
    tessellation.
    """
    xmin, xmax, ymax = viewport
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
