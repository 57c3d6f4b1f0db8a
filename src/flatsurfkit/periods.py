"""Hyperelliptic segment integrals, shape solvers, and parameter maps.

The genus-3 family curves y**2 = x (x-1) (x-t) (x+u) (x+tu) (x**2+tu)
are developed by integrating sqrt(f) for

    f(x) = x / ((x-1) (x-t) (x+u) (x+tu) (x**2+tu)),

with the square-root branch positive on (0, 1).  Working with the
positive integrands

    J1 = int_0^1 sqrt(f),  J2 = int_1^t sqrt(-f),  J3 = int_t^inf sqrt(f)

keeps every solver residual real; the analytic-continuation signs (the i
on (1, t) and the -1 on (t, inf)) are carried by the shape-ratio
contract: (J2/J1, J3/J1) = (2h/b, B/b) for the trapezoid with short base
b, long base B and height h realizing the surface.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .quadrature import integrate

POINT_AT_INFINITY = complex(math.inf, math.inf)


class PeriodsError(RuntimeError):
    pass


@dataclass(frozen=True)
class CurveTU:
    """Member of the first family: t > 1, u > 0."""

    t: float
    u: float

    def validate(self) -> None:
        if not (self.t > 1 and self.u > 0):
            raise PeriodsError(f"curve parameters out of domain: t={self.t}, u={self.u}")


@dataclass(frozen=True)
class CurveS:
    """Member of the second family: Im s > 0 and s != i."""

    s: complex

    def validate(self) -> None:
        if not (self.s.imag > 0) or self.s == 1j:
            raise PeriodsError(f"s must lie in the upper half-plane, s != i: {self.s}")


@dataclass(frozen=True)
class CurveA:
    """Genus-2 curve y**2 = x (x**2 - 1) (x - a) (x - 1/a)."""

    a: complex

    def validate(self) -> None:
        if self.a == 0 or self.a * self.a == 1:
            raise PeriodsError(f"singular curve: a = {self.a}")


@dataclass(frozen=True)
class QuadratureConfig:
    tol: float = 1e-12
    max_level: int = 12

    def validate(self) -> None:
        if not self.tol > 0:
            raise PeriodsError("quadrature tolerance must be positive")


DEFAULT_QUADRATURE = QuadratureConfig()


def segment_integrals(c: CurveTU, q: QuadratureConfig = DEFAULT_QUADRATURE) -> Tuple[float, float, float]:
    """The three positive segment integrals (J1, J2, J3).

    Endpoint square-root singularities are absorbed by the tanh-sinh rule;
    the tail over (t, inf) is brought to (0, 1) by x = t/w**2, where the
    integrand becomes 2 w**2 / sqrt((t-w^2)(1-w^2)(t+uw^2)(1+uw^2)(t+uw^4)).
    """
    c.validate()
    q.validate()
    t, u = c.t, c.u

    def f1(x: float, da: float, db: float) -> float:
        # on (0, 1): x = da, 1 - x = db
        return math.sqrt(da / (db * (t - x) * (x + u) * (x + t * u) * (x * x + t * u)))

    def f2(x: float, da: float, db: float) -> float:
        # on (1, t): x - 1 = da, t - x = db
        return math.sqrt(x / (da * db * (x + u) * (x + t * u) * (x * x + t * u)))

    def f3(w: float, da: float, db: float) -> float:
        w2 = w * w
        return 2.0 * w2 / math.sqrt(
            (t - w2) * db * (1.0 + w) * (t + u * w2) * (1.0 + u * w2) * (t + u * w2 * w2)
        )

    j1 = integrate(f1, 0.0, 1.0, tol=q.tol, max_level=q.max_level).real
    j2 = integrate(f2, 1.0, t, tol=q.tol, max_level=q.max_level).real
    j3 = integrate(f3, 0.0, 1.0, tol=q.tol, max_level=q.max_level).real
    return j1, j2, j3


def shape_ratios(c: CurveTU, q: QuadratureConfig = DEFAULT_QUADRATURE) -> Tuple[float, float]:
    """(J2/J1, J3/J1) = (2 height / short base, long base / short base)."""
    j1, j2, j3 = segment_integrals(c, q)
    return j2 / j1, j3 / j1


def solve_tu(
    target: Tuple[float, float],
    q: QuadratureConfig = DEFAULT_QUADRATURE,
    initial: Tuple[float, float] = (2.0, 2.0),
    residual_tol: float = 1e-10,
    max_iter: int = 50,
) -> CurveTU:
    """Newton solve for the curve whose shape ratios match the target.

    Finite-difference Jacobian, step damping by halving on residual
    increase; raises PeriodsError on divergence or when the iteration
    leaves the domain t > 1, u > 0.
    """
    r1, r2 = target
    if not (r2 > 0 and r1 > 0):
        # r2 >= 1 corresponds to trapezoids with the long base below; the
        # u < 1 half of the family realizes r2 < 1 and solves just as well.
        raise PeriodsError(f"target ratios outside the feasible cone: {target}")

    def residual(t: float, u: float) -> Tuple[float, float]:
        s1, s2 = shape_ratios(CurveTU(t, u), q)
        return s1 - r1, s2 - r2

    t, u = initial
    fx = residual(t, u)
    norm = max(abs(fx[0]), abs(fx[1]))
    for _ in range(max_iter):
        if norm < residual_tol:
            return CurveTU(t, u)
        step_t = 1e-7 * max(1.0, abs(t))
        step_u = 1e-7 * max(1.0, abs(u))
        f_t = residual(t + step_t, u)
        f_u = residual(t, u + step_u)
        j00 = (f_t[0] - fx[0]) / step_t
        j10 = (f_t[1] - fx[1]) / step_t
        j01 = (f_u[0] - fx[0]) / step_u
        j11 = (f_u[1] - fx[1]) / step_u
        det = j00 * j11 - j01 * j10
        if det == 0 or not math.isfinite(det):
            raise PeriodsError("singular Jacobian in Newton iteration")
        dt = -(fx[0] * j11 - fx[1] * j01) / det
        du = -(j00 * fx[1] - j10 * fx[0]) / det
        lam = 1.0
        while True:
            t_new, u_new = t + lam * dt, u + lam * du
            if t_new > 1.0 + 1e-12 and u_new > 1e-12:
                f_new = residual(t_new, u_new)
                n_new = max(abs(f_new[0]), abs(f_new[1]))
                if n_new < norm or n_new < residual_tol:
                    break
            lam *= 0.5
            if lam < 1e-8:
                raise PeriodsError("Newton step damping failed to reduce the residual")
        t, u, fx, norm = t_new, u_new, f_new, n_new
    if norm < residual_tol:
        return CurveTU(t, u)
    raise PeriodsError(f"Newton did not converge: residual {norm:.3e} after {max_iter} iterations")


def solve_t_rectangle(
    mu: float,
    q: QuadratureConfig = DEFAULT_QUADRATURE,
    residual_tol: float = 1e-10,
) -> float:
    """Solve J1(t, 1) = mu * J2(t, 1) for t (the rectangle case u = 1).

    2*mu is the width-to-height ratio of the rectangle; bracketing scan on
    (1, 1e6) followed by bisection/secant refinement.
    """
    if not mu > 0:
        raise PeriodsError(f"mu must be positive: {mu}")

    def f(t: float) -> float:
        j1, j2, _ = segment_integrals(CurveTU(t, 1.0), q)
        return j1 - mu * j2

    lo = hi = None
    prev_t, prev_f = None, None
    for k in range(-6, 25):
        t = 1.0 + 10.0 ** (k / 4.0 - 1.5)
        if t > 1e6:
            break
        val = f(t)
        if prev_t is not None and (val < 0) != (prev_f < 0):
            lo, hi = prev_t, t
            flo, fhi = prev_f, val
            break
        prev_t, prev_f = t, val
    if lo is None:
        raise PeriodsError(f"no sign change of J1 - mu*J2 found in (1 + 1e-9, 1e6) for mu = {mu}")
    best_t, best_val = lo, flo
    for _ in range(200):
        # secant step, safeguarded by the bracket
        t_sec = hi - fhi * (hi - lo) / (fhi - flo) if fhi != flo else 0.5 * (lo + hi)
        if not (lo < t_sec < hi):
            t_sec = 0.5 * (lo + hi)
        val = f(t_sec)
        if abs(val) < abs(best_val):
            best_t, best_val = t_sec, val
        # keep shrinking the bracket so t itself is pinned, not just the residual
        if abs(val) < residual_tol and hi - lo < 1e-9 * max(1.0, hi):
            return t_sec
        if (val < 0) == (flo < 0):
            lo, flo = t_sec, val
        else:
            hi, fhi = t_sec, val
        if hi - lo < 1e-13 * hi:
            break
    if abs(best_val) < residual_tol:
        return best_t
    raise PeriodsError(f"rectangle solve did not reach residual {residual_tol}")


# -- coordinate changes between the families and the genus-2 curves ------------------


def phi_map(c: CurveTU, x: complex) -> complex:
    """Phi(x) = i sqrt(tu) (x - 1)/(x + tu); the pole maps to infinity."""
    c.validate()
    tu = c.t * c.u
    if abs(x + tu) <= 1e-14 * (abs(x) + tu):
        return POINT_AT_INFINITY
    return 1j * math.sqrt(tu) * (x - 1) / (x + tu)


def a_from_tu(c: CurveTU) -> complex:
    """a = i sqrt(u/t) (t - 1)/(u + 1), on the positive imaginary axis."""
    c.validate()
    return 1j * math.sqrt(c.u / c.t) * (c.t - 1) / (c.u + 1)


def psi_map(s: complex, x: complex) -> complex:
    """Psi(x) = i (x - s)/(s x + 1); the pole maps to infinity."""
    CurveS(s).validate()
    if abs(s * x + 1) <= 1e-14 * (abs(s * x) + 1):
        return POINT_AT_INFINITY
    return 1j * (x - s) / (s * x + 1)


def a_from_s(s: complex) -> float:
    """a = 2 Im s / (1 + |s|**2), in (0, 1)."""
    CurveS(s).validate()
    return 2.0 * s.imag / (1.0 + abs(s) ** 2)


def induced_q_coefficient(c: CurveTU) -> complex:
    """Linear coefficient k of the induced differential (x**2 + k x + 1) dx**2/y**2."""
    c.validate()
    tu = c.t * c.u
    return 1j * (tu - 1.0) / math.sqrt(tu)


# -- the genus-2 period ratio (Silhol parameter) ----------------------------------------


class BranchAmbiguityError(PeriodsError):
    pass


class _CheckpointCollision(Exception):
    pass


def _curve_a_roots(a: complex) -> List[complex]:
    return [0.0 + 0.0j, 1.0 + 0.0j, -1.0 + 0.0j, a, 1.0 / a]


class _BranchedSegment:
    """A straight segment with a continuous square-root branch of P.

    The branch is fixed at the segment midpoint by the principal value and
    continued outward by the nearest-value rule over a grid of cell-center
    checkpoints (regridding if an interior root lands on one).  An
    interior branch point splits the segment; the branch continues through
    it by indenting the path into the upper half-plane, which for a real
    polynomial flips the tracked sign exactly when P changes from positive
    to negative in the direction of increasing parameter.
    """

    CHECKPOINTS = 512

    def __init__(self, z0: complex, z1: complex, factors: Sequence[complex], checkpoints: int = CHECKPOINTS):
        self.z0 = complex(z0)
        self.z1 = complex(z1)
        self.factors = list(factors)
        self.dir = self.z1 - self.z0
        length = abs(self.dir)
        if length == 0:
            raise PeriodsError("degenerate integration segment")
        self.interior: List[float] = []
        for r in self.factors:
            s = ((r - self.z0) * self.dir.conjugate()).real / (length * length)
            d = abs(self.z0 + s * self.dir - r)
            if d <= 1e-14 * max(1.0, length):
                if 1e-12 < s < 1 - 1e-12:
                    self.interior.append(s)
            elif d <= 1e-12 and -1e-12 < s < 1 + 1e-12:
                raise BranchAmbiguityError(
                    f"integration path passes within 1e-12 of branch point {r}"
                )
        self.interior.sort()
        for m in (checkpoints, 729, 1000, 677):
            try:
                self._build_sign_table(m)
                return
            except _CheckpointCollision:
                continue
        raise BranchAmbiguityError("interior branch points collide with every checkpoint grid")

    def poly(self, x: complex) -> complex:
        out = 1.0 + 0.0j
        for r in self.factors:
            out *= x - r
        return out

    def _crossing_sign(self, prev_sign: int, s_prev: float, going_up: bool) -> int:
        p_prev = self.poly(self.z0 + s_prev * self.dir)
        if abs(p_prev.imag) > 1e-9 * (abs(p_prev) + 1e-300):
            raise BranchAmbiguityError("branch point interior to a path where P is not real")
        positive_below = p_prev.real > 0 if going_up else p_prev.real < 0
        return -prev_sign if positive_below else prev_sign

    def _build_sign_table(self, m: int) -> None:
        # Checkpoints at cell centers: never at the (singular) endpoints.
        grid = [(k + 0.5) / m for k in range(m)]
        for b in self.interior:
            if any(abs(b - g) < 1e-13 for g in grid):
                raise _CheckpointCollision
        mid = m // 2
        signs = [0] * m
        ys: List[complex] = [0j] * m
        signs[mid] = 1
        ys[mid] = cmath.sqrt(self.poly(self.z0 + grid[mid] * self.dir))

        def step(k: int, prev: int) -> None:
            s_prev, s_cur = grid[prev], grid[k]
            lo, hi = min(s_prev, s_cur), max(s_prev, s_cur)
            crossed = [b for b in self.interior if lo < b < hi]
            plus = cmath.sqrt(self.poly(self.z0 + s_cur * self.dir))
            if len(crossed) > 1:
                raise BranchAmbiguityError("two branch points within one checkpoint step")
            if crossed:
                signs[k] = self._crossing_sign(signs[prev], s_prev, going_up=k > prev)
            else:
                ref = ys[prev]
                signs[k] = 1 if abs(plus - ref) <= abs(plus + ref) else -1
            ys[k] = signs[k] * plus

        for k in range(mid + 1, m):
            step(k, k - 1)
        for k in range(mid - 1, -1, -1):
            step(k, k + 1)

        # Pieces break at every interior branch point (the integrand is
        # singular there) and at branch-cut crossings, which are located
        # precisely by bisection on Im P so that each piece carries a
        # genuinely constant branch sign.
        cuts = set(self.interior)
        for k in range(1, m):
            if signs[k] != signs[k - 1]:
                lo, hi = grid[k - 1], grid[k]
                if any(lo < b < hi for b in self.interior):
                    continue
                cuts.add(self._locate_cut(lo, hi))
        bounds = [0.0] + sorted(cuts) + [1.0]
        pieces = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi - lo < 1e-15:
                continue
            inside = [signs[k] for k in range(m) if lo < grid[k] < hi]
            if not inside:
                inside = [signs[min(range(m), key=lambda k: abs(grid[k] - 0.5 * (lo + hi)))]]
            pieces.append((lo, hi, inside[len(inside) // 2]))
        self._pieces = pieces

    def _locate_cut(self, lo: float, hi: float) -> float:
        """Bisect for the principal-branch cut crossing (Im P = 0, Re P < 0)."""
        g = lambda s: self.poly(self.z0 + s * self.dir).imag
        glo, ghi = g(lo), g(hi)
        if glo == 0.0:
            return lo
        if ghi == 0.0 or (glo < 0) == (ghi < 0):
            return 0.5 * (lo + hi)  # not a transversal crossing; best effort
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            gm = g(mid)
            if gm == 0.0:
                return mid
            if (gm < 0) == (glo < 0):
                lo, glo = mid, gm
            else:
                hi, ghi = mid, gm
        return 0.5 * (lo + hi)

    def pieces(self) -> List[Tuple[float, float, int]]:
        return list(self._pieces)


def _segment_period(seg: _BranchedSegment, q: QuadratureConfig) -> complex:
    """Integral of (1 - x)/y dx along the branched segment.

    Endpoint factors of P are evaluated from the quadrature's endpoint
    distances to keep the square-root singularities accurate.
    """
    total = 0.0 + 0.0j
    for s_lo, s_hi, sgn_mid in seg.pieces():
        x_lo = seg.z0 + s_lo * seg.dir
        x_hi = seg.z0 + s_hi * seg.dir

        def integrand(s: float, da: float, db: float) -> complex:
            x = seg.z0 + s * seg.dir
            prod = 1.0 + 0.0j
            for r in seg.factors:
                dr = x - r
                if abs(r - x_lo) < 1e-14 * max(1.0, abs(r)) + 1e-300:
                    dr = da * seg.dir
                elif abs(r - x_hi) < 1e-14 * max(1.0, abs(r)) + 1e-300:
                    dr = -db * seg.dir
                prod *= dr
            y = sgn_mid * cmath.sqrt(prod)
            return (1.0 - x) / y * seg.dir

        total += integrate(integrand, s_lo, s_hi, tol=q.tol, max_level=q.max_level)
    return total


def silhol_periods(c: CurveA, q: QuadratureConfig = DEFAULT_QUADRATURE,
                   checkpoints: int = _BranchedSegment.CHECKPOINTS) -> Tuple[complex, complex]:
    """The two marked periods (int_{-1}^0 phi, int_0^{1/a} phi).

    phi = (1 - x) dx / y on y**2 = x (x**2 - 1) (x - a) (x - 1/a), each
    integral along the straight segment with the branch of y fixed at the
    segment midpoint by the principal square root and continued by the
    nearest-argument rule; interior branch points split the segment and
    are crossed with the upper-indentation convention.
    """
    c.validate()
    q.validate()
    roots = _curve_a_roots(c.a)
    seg1 = _BranchedSegment(-1.0 + 0.0j, 0.0 + 0.0j, roots, checkpoints=checkpoints)
    seg2 = _BranchedSegment(0.0 + 0.0j, 1.0 / c.a, roots, checkpoints=checkpoints)
    return _segment_period(seg1, q), _segment_period(seg2, q)


def silhol_ratio(c: CurveA, q: QuadratureConfig = DEFAULT_QUADRATURE) -> complex:
    """The single period parameter of the fourfold-symmetric genus-2 curve.

    Computed from the two marked segment periods I1 = int_{-1}^0 phi and
    I2 = int_0^{1/a} phi as (2 I1 + I2) / (i I2): the combination 2 I1 +
    I2 re-routes the first path by a full cycle around {-1, 0}, which is
    the marking in which the parameter is real exactly when a lies on the
    positive imaginary axis (where the curve's period matrix is purely
    imaginary, the two marked periods being perpendicular).
    """
    i1, i2 = silhol_periods(c, q)
    if i2 == 0:
        raise PeriodsError("degenerate period in Silhol ratio")
    return (2.0 * i1 + i2) / (1j * i2)
