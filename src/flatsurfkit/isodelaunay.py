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
exact; floating point only chooses sample points, which are rationalized
and then verified.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .numeric import FLOAT_TOL, Scalar, coefficients, exact_divisor, is_exact, sign, to_float
from . import delaunay as dl
from .delaunay import HalfEdge, Triangulation, hinge
from .surface import Surface

_log = logging.getLogger("flatsurfkit.isodelaunay")

ALWAYS = "always"
NEVER = "never"

# The float tolerance of the facet feasibility test in _supporting_interval.
_FACET_TOL = 1e-13


class IsoDelaunayError(RuntimeError):
    pass


@dataclass(frozen=True)
class HPoint:
    """A point x + iy of the upper half-plane (float, or Fraction where a
    point is handed to cell_at exactly)."""

    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0:
            raise IsoDelaunayError(f"not in the upper half-plane: {self.x} + {self.y}i")

    def hyperbolic_distance(self, other: "HPoint") -> float:
        dx = self.x - other.x
        dy = self.y - other.y
        return math.acosh(1.0 + (dx * dx + dy * dy) / (2.0 * self.y * other.y))


@dataclass(frozen=True)
class Wall:
    """Oriented geodesic form q = a (x**2 + y**2) + b x + c.

    The hinge it came from is Delaunay exactly where q <= 0.  The locus
    q = 0 is a half-circle centered on the real axis (a != 0) or a
    vertical line (a = 0, b != 0).  Coefficients are scaled so the largest
    |coefficient| is 1; reporting flips the sign so the first nonzero
    coefficient is positive (the orientation is kept separately).
    """

    a: Scalar
    b: Scalar
    c: Scalar

    def evaluate(self, u: Scalar, v: Scalar) -> Scalar:
        """The linear form a*u + b*v + c in the coordinates u = |z|^2, v = x."""
        return self.a * u + self.b * v + self.c

    def value_at(self, x: Scalar, y: Scalar) -> Scalar:
        return self.a * (x * x + y * y) + self.b * x + self.c

    def floats(self) -> Tuple[float, float, float]:
        return (to_float(self.a), to_float(self.b), to_float(self.c))

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

    def _orientation(self) -> int:
        for lead in (self.a, self.b, self.c):
            s = sign(lead)
            if s:
                return s
        return 1

    def locus_key(self):
        """Orientation-free key identifying the geodesic."""
        flip = self._orientation()
        if is_exact(self.a) and is_exact(self.b) and is_exact(self.c):
            return (coefficients(flip * self.a), coefficients(flip * self.b), coefficients(flip * self.c))
        # + 0.0 turns -0.0 into 0.0, so that equal keys have one repr.
        return tuple(round(flip * t, 9) + 0.0 for t in self.floats())

    def oriented_key(self):
        """(locus key, side): identifies the geodesic plus its Delaunay side."""
        return (self.locus_key(), self._orientation())

    def normalized_floats(self) -> Tuple[float, float, float]:
        """Reported form: max |coefficient| = 1, first nonzero positive."""
        flip = self._orientation()
        return tuple(flip * t for t in self.floats())


def _abs_cmp_max(values: Sequence[Scalar]) -> Scalar:
    best = None
    for v in values:
        av = -v if sign(v) < 0 else v
        if best is None or sign(av - best) > 0:
            best = av
    return best


def _det4_ones(c1: Sequence[Scalar], c2: Sequence[Scalar], c3: Sequence[Scalar]) -> Scalar:
    """det of the 4x4 matrix with columns (c1, c2, c3, 1) via row reduction."""
    r = []
    for i in range(3):
        r.append((c1[i] - c1[3], c2[i] - c2[3], c3[i] - c3[3]))
    return (
        r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
        - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
        + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
    )


def wall_of_hinge(t: Triangulation, edge: HalfEdge):
    """The wall of a hinge, or ALWAYS/NEVER when its sign is constant on H.

    The hinge is developed in the base chart; the returned wall is the
    cocircularity locus of the M_z-transformed hinge.  ALWAYS means the
    hinge is Delaunay for every z, NEVER that it never is.
    """
    h = hinge(t, edge)
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


def _q_sign(t: Triangulation, edge: HalfEdge, u: Scalar, v: Scalar, walls: Optional[dict]) -> int:
    """Sign of the hinge's Delaunay form at (u, v); negative means Delaunay."""
    w = _memo_wall(t, edge, walls)
    if w is ALWAYS:
        return -1
    if w is NEVER:
        return 1
    return sign(w.evaluate(u, v), FLOAT_TOL)


def delaunayize_at(t: Triangulation, u: Scalar, v: Scalar, _walls: Optional[dict] = None) -> Triangulation:
    """Flip until every hinge is Delaunay for the surface at z with
    (|z|^2, Re z) = (u, v); operates on base-chart holonomies throughout.

    Shares delaunay.flip_until with delaunayize: a hinge is flipped when
    its wall form is positive at (u, v).  Walls come from t's hinge_cache
    where t's hinges are unflipped, and the result's cache holds the wall
    of every edge.  _walls, when given (exact input), memoizes the rest by
    developed hinge.
    """
    return dl.flip_until(t, lambda out, edge: _q_sign(out, edge, u, v, _walls) > 0)


# -- cells ------------------------------------------------------------------------------


@dataclass
class Cell:
    """An iso-Delaunay region: a combinatorial Delaunay class over H.

    comb_hash is the canonical combinatorial code of the triangulation
    (mirror-inclusive, so a reflected surface yields an equal hash); the
    identity key is the supporting wall set with orientations, which pins
    the region itself.
    """

    comb_hash: Tuple[int, ...]
    walls: Tuple[Wall, ...]
    sample: HPoint
    key: FrozenSet = field(repr=False, default=frozenset())
    triangulation: Optional[Triangulation] = field(repr=False, default=None, compare=False)
    constraints: list = field(repr=False, default_factory=list, compare=False)


def _rationalize(x: float, max_den: int = 10 ** 9) -> Fraction:
    return Fraction(x).limit_denominator(max_den)


class _Constraint:
    """An oriented wall bounding the cell (interior where q < 0)."""

    __slots__ = ("wall", "hinges")

    def __init__(self, wall: Wall):
        self.wall = wall
        self.hinges: List[HalfEdge] = []

    def item(self):
        return self.wall.oriented_key()


def _collect_constraints(t: Triangulation, u: Scalar, v: Scalar, walls: Optional[dict]) -> List[_Constraint]:
    by_key: Dict[object, _Constraint] = {}
    for edge in t.edges():
        w = _memo_wall(t, edge, walls)
        if w is ALWAYS or w is NEVER:
            if w is NEVER:
                raise IsoDelaunayError("never-Delaunay hinge in a Delaunay triangulation")
            continue
        s = sign(w.evaluate(u, v), FLOAT_TOL)
        if s == 0:
            raise _OnWall
        if s > 0:
            raise IsoDelaunayError("non-Delaunay hinge after delaunayize_at")
        key = w.oriented_key()
        con = by_key.get(key)
        if con is None:
            con = _Constraint(w)
            by_key[key] = con
        con.hinges.append(edge)
    return list(by_key.values())


class _OnWall(Exception):
    """The sample lies on a wall."""


def _supporting_interval(target: _Constraint, others: Sequence[_Constraint]):
    """Parameter interval of the facet: points of the wall on the cell
    boundary and inside H, or None when the wall is redundant.

    The wall line in (u, v) coordinates is (u0 + s*du, v0 + s*dv): a circle
    wall is parametrized by v = s, a vertical wall by u = s.  All
    computations are linear/quadratic sign evaluations over the scalar
    field; the parabola u > v**2 enters as a concave quadratic.
    """
    w = target.wall
    vertical = w.is_vertical
    if vertical:
        # v = -c/b
        inv = Fraction(1) / w.b
        u0, du, v0, dv = 0, 1, -w.c * inv, 0
    else:
        # u = -(b v + c)/a
        inv = Fraction(1) / w.a
        u0, du, v0, dv = -w.c * inv, -w.b * inv, 0, 1
    lo: Optional[Scalar] = None
    hi: Optional[Scalar] = None

    for con in others:
        if con is target:
            continue
        # a (u0 + s du) + b (v0 + s dv) + c <= 0
        w = con.wall
        slope = w.a * du + w.b * dv
        const = w.a * u0 + w.b * v0 + w.c
        ss = sign(slope, _FACET_TOL)
        if ss == 0:
            if sign(const, _FACET_TOL) > 0:
                return None
            continue
        bound = -const / slope
        if ss > 0:
            if hi is None or sign(bound - hi, _FACET_TOL) < 0:
                hi = bound
        else:
            if lo is None or sign(bound - lo, _FACET_TOL) > 0:
                lo = bound
    if lo is not None and hi is not None and sign(hi - lo, _FACET_TOL) <= 0:
        return None
    # Inside H: g(s) = u(s) - v(s)**2 > 0 somewhere on [lo, hi].
    if vertical:
        # g(u) = u - v0**2 grows with u, so its best point is hi.
        if hi is None or sign(hi - v0 * v0, _FACET_TOL) > 0:
            return (lo, hi)
        return None
    # g(v) = u0 + du v - v**2 is concave with its top at v = du/2.
    candidates = [x for x in (lo, hi) if x is not None]
    vertex = du / 2
    if (lo is None or sign(vertex - lo, _FACET_TOL) > 0) and (hi is None or sign(hi - vertex, _FACET_TOL) > 0):
        candidates.append(vertex)
    if any(sign(-x * x + du * x + u0, _FACET_TOL) > 0 for x in candidates):
        return (lo, hi)
    return None


@dataclass
class _Memo:
    """Work shared by the cell_at calls of one explore.

    cells maps a supporting key to the cell explore stored under it.  walls
    (developed hinge -> wall) and supports (set of all oriented constraint
    keys -> supporting key) are kept on exact input only, where both are
    functions of their keys.  walls is the second cache level: the first is
    each triangulation's hinge_cache, which a neighbour's triangulation
    inherits from its parent cell for every hinge it did not flip, on both
    paths.  The developed-hinge level adds the hinges that flips recreate
    in a shape seen before; float hinge coordinates drift by ulps across
    flip sequences, so on floats it would mostly miss and only cost memory.
    Float keys are rounded, so one constraint-key set can have different
    supporting walls.
    """

    cells: Dict[FrozenSet, "Cell"]
    walls: Optional[dict] = None
    supports: Optional[Dict[FrozenSet, FrozenSet]] = None


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
            cons = _collect_constraints(t, u, vx, memo.walls)
        except _OnWall:
            _log.debug("cell_at: sample %r + %ri lies on a wall; moving it (attempt %d)",
                       zx, zy, attempt + 1)
            zx += (1e-9 if attempt % 2 == 0 else -2e-9) * (attempt + 1)
            zy += 1e-9 * (attempt + 1)
            continue
        if memo.supports is not None:
            everything = frozenset(c.item() for c in cons)
            known = memo.supports.get(everything)
            if known in memo.cells:
                return memo.cells[known]
        supporting = []
        for con in cons:
            if _supporting_interval(con, cons) is not None:
                supporting.append(con)
        supporting.sort(key=lambda c: c.item())
        key = frozenset(c.item() for c in supporting)
        if memo.supports is not None:
            memo.supports[everything] = key
        if key in memo.cells:
            return memo.cells[key]
        return Cell(
            comb_hash=dl.canonical_code(t, include_mirror=True),
            walls=tuple(c.wall for c in supporting),
            sample=HPoint(to_float(vx), to_float(vy)),
            key=key,
            triangulation=t,
            constraints=supporting,
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


def _no_crossing_point(con: _Constraint, lo: float, hi: float, reason: str) -> None:
    """Log why a facet on v in (lo, hi) gets no crossing point."""
    _log.debug("_facet_crossing_point: wall %r on (%r, %r): %s; not crossed",
               con.wall.normalized_floats(), lo, hi, reason)


def _facet_crossing_point(con: _Constraint, interval, z0: HPoint, radius: float) -> Optional[HPoint]:
    """Hyperbolic midpoint of the facet clipped to the ball, as a float point.

    A circle wall is sampled at theta = pi k/512 (0 < k < 512), a vertical
    wall at 1025 heights; of the samples on the facet within the ball, the
    one whose arclength coordinate is nearest the middle of their range is
    returned.  On circle walls only the samples near the ball's theta-range
    are tested.  The test is HPoint.hyperbolic_distance written out, and
    only the returned point becomes an HPoint.  None, when the geodesic
    misses the ball or no sample lands in it, is logged at DEBUG.
    """
    lo, hi = interval
    lo_f = -math.inf if lo is None else to_float(lo)
    hi_f = math.inf if hi is None else to_float(hi)
    kind, p, r = con.wall.geometry()
    x0, y0 = z0.x, z0.y
    # Arclength coordinate and point of every sample within the ball, in
    # increasing arclength.
    samples: List[Tuple[float, float, float]] = []
    if kind == "circle":
        if r == 0:
            return _no_crossing_point(con, lo_f, hi_f, "the geodesic misses the ball")
        center = p
        # v = center + r cos(theta), y = r sin(theta)
        n = 512
        k_lo, k_hi = 1, n - 1
        # The ball is the Euclidean disc with centre (x0, Y), Y = y0 cosh(radius),
        # and radius y0 sinh(radius); the circle meets it where
        # d cos(theta) - Y sin(theta) <= K with d = center - x0 and
        # K = -(y0**2 + d**2 + r**2) / (2 r), that is where
        # cos(theta - phi) <= q = K / hypot(d, Y), phi = atan2(-Y, d).
        # Rounding moves q by about 1e-15 and theta by under 1e-7, so the
        # scan keeps two more samples on each side and reads q < -1 - 1e-9
        # as a miss.  Non-finite q (overflow) scans every sample.
        d = center - x0
        big_y = y0 * math.cosh(radius)
        m = math.hypot(d, big_y)
        q = -(y0 * y0 + d * d + r * r) / (2 * r * m)
        if math.isfinite(q):
            if q < -1 - 1e-9:
                return _no_crossing_point(con, lo_f, hi_f, "the geodesic misses the ball")
            phi = math.atan2(-big_y, d)
            beta = math.acos(max(q, -1.0))
            k_lo = max(k_lo, math.floor((phi + beta) * n / math.pi) - 2)
            k_hi = min(k_hi, math.ceil((phi + 2 * math.pi - beta) * n / math.pi) + 2)
        for k in range(k_lo, k_hi + 1):
            th = math.pi * k / n
            v = center + r * math.cos(th)
            if v < lo_f or v > hi_f:
                continue
            y = r * math.sin(th)
            dx = v - x0
            dy = y - y0
            if math.acosh(1.0 + (dx * dx + dy * dy) / (2.0 * y * y0)) <= radius:
                samples.append((math.log(math.tan(th / 2)), v, y))
    else:
        x = p
        n = 512
        dx = x - x0
        for k in range(-n, n + 1):
            y = y0 * math.exp(radius * k / n * 1.5)
            u = x * x + y * y
            if u < lo_f or u > hi_f:
                continue
            if not y > 0:  # exp underflows at radii beyond 496
                raise IsoDelaunayError(f"not in the upper half-plane: {x} + {y}i")
            dy = y - y0
            if math.acosh(1.0 + (dx * dx + dy * dy) / (2.0 * y * y0)) <= radius:
                samples.append((math.log(y), x, y))
    if not samples:
        return _no_crossing_point(con, lo_f, hi_f, "no sample of the facet lies in the ball")
    s_mid = 0.5 * (samples[0][0] + samples[-1][0])
    _, x, y = min(samples, key=lambda t: abs(t[0] - s_mid))
    return HPoint(x, y)


def _cross_wall(s: Surface, cell: Cell, con: _Constraint, at: HPoint, memo: _Memo) -> Optional[Cell]:
    """A sample just across the wall from the cell, verified exactly."""
    a, b, c = con.wall.floats()
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
        # Strictly across con and strictly inside every other constraint.
        if sign(con.wall.evaluate(u, vx), FLOAT_TOL) <= 0:
            continue
        if any(sign(other.wall.evaluate(u, vx), FLOAT_TOL) >= 0
               for other in cell.constraints if other is not con):
            continue
        try:
            return cell_at(s, HPoint(vx, vy), _tri=cell.triangulation, _memo=memo)
        except IsoDelaunayError:
            continue
    _log.debug("_cross_wall: no verified sample across wall %r near %r + %ri; no crossing",
               con.wall.normalized_floats(), at.x, at.y)
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
    One exploration does not rebuild a cell it already holds: a
    neighbour whose supporting key is known, or on exact input whose full
    constraint set was seen before, is returned from the store.  On exact
    input the Delaunay tessellation is unique, so the constraint set pins
    the cell.
    """
    if not radius > 0:
        raise IsoDelaunayError("radius must be positive")
    cells: Dict[FrozenSet, Cell] = {}
    memo = _Memo(cells, walls={}, supports={}) if s.is_exact() else _Memo(cells)
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
            for con in cell.constraints:
                interval = _supporting_interval(con, cell.constraints)
                if interval is None:
                    continue
                at = _facet_crossing_point(con, interval, z0, radius)
                if at is None:
                    continue
                neighbor = _cross_wall(s, cell, con, at, memo)
                if neighbor is None:
                    continue
                if neighbor.key not in cells:
                    if len(cells) >= cell_budget:
                        raise IsoDelaunayError(f"cell budget {cell_budget} exceeded")
                    cells[neighbor.key] = neighbor
                    key_repr[neighbor.key] = repr(neighbor.key)
                    next_frontier.append(neighbor)
                if key_repr[neighbor.key] < key_repr[cell.key]:
                    adjacency.add((neighbor.key, cell.key, con.wall))
                else:
                    adjacency.add((cell.key, neighbor.key, con.wall))
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
