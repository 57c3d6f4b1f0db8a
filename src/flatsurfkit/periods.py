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
from typing import List, Tuple

from .quadrature import TOL, integrate

POINT_AT_INFINITY = complex(math.inf, math.inf)


class PeriodsError(RuntimeError):
    pass


@dataclass(frozen=True)
class CurveTU:
    """Member of the first family: 1 < t < inf, 0 < u < inf."""

    t: float
    u: float

    def validate(self) -> None:
        if not (1 < self.t < math.inf and 0 < self.u < math.inf):
            raise PeriodsError(f"curve parameters out of domain: t={self.t}, u={self.u}")


@dataclass(frozen=True)
class CurveS:
    """Member of the second family: finite s, Im s > 0 and s != i."""

    s: complex

    def validate(self) -> None:
        if not cmath.isfinite(self.s):
            raise PeriodsError(f"s must be finite: {self.s}")
        if not (self.s.imag > 0) or self.s == 1j:
            raise PeriodsError(f"s must lie in the upper half-plane, s != i: {self.s}")


@dataclass(frozen=True)
class CurveA:
    """Genus-2 curve y**2 = x (x**2 - 1) (x - a) (x - 1/a), a finite."""

    a: complex

    def validate(self) -> None:
        if not cmath.isfinite(self.a):
            raise PeriodsError(f"a must be finite: {self.a}")
        if self.a == 0 or self.a * self.a == 1:
            raise PeriodsError(f"singular curve: a = {self.a}")


def _overflow(c: CurveTU) -> PeriodsError:
    return PeriodsError(f"period integrand overflows for {c}")


def _integrals(c: CurveTU, tol: float, j3: bool = True, partials: bool = False) -> tuple:
    """(J1, J2, J3), or (J1, J2) without j3, each with its partials when asked.

    One integrand per segment, in the Chebyshev-weight form of
    `quadrature.integrate` (see `segment_integrals`).  With partials each
    returns (value, grad), grad = d value/dt + i d value/du, so the integral
    comes out as (J, dJ/dt + i dJ/du) on the nodes of J alone.  The partials
    are the value times the logarithmic derivatives of its factors; J2's end
    t moves its nodes, x = 1 + (t - 1) s for a fixed s, which adds
    dx/dt = da/(t - 1) times the value's derivative in x.  The partials
    recompute the value's factors rather than have the value path name
    them, which every value-only call would pay for.
    """
    c.validate()
    t, u = c.t, c.u
    tu = t * u

    def f1(x: float, da: float, db: float):
        # on (0, 1): x = da and t - x = (t - 1) + db, exact where t - x is
        # small; sqrt(da db) is the quadrature's weight
        d = ((t - 1.0) + db) * (x + u) * (x + tu) * (x * x + tu)
        if d == math.inf:
            raise _overflow(c)
        v = da / math.sqrt(d)
        if not partials:
            return v
        r = 1.0 / (x + tu) + 1.0 / (x * x + tu)
        return v, -0.5 * v * complex(1.0 / ((t - 1.0) + db) + u * r, 1.0 / (x + u) + t * r)

    def f2(x: float, da: float, db: float):
        # on (1, t): sqrt((x - 1)(t - x)) is the quadrature's weight
        d = (x + u) * (x + tu) * (x * x + tu)
        if d == math.inf:
            raise _overflow(c)
        v = math.sqrt(x / d)
        if not partials:
            return v
        ru, rtu, rx2 = 1.0 / (x + u), 1.0 / (x + tu), 1.0 / (x * x + tu)
        dx = 1.0 / x - ru - rtu - 2.0 * x * rx2  # d log(value)/dx, twice
        return v, 0.5 * v * complex(dx * da / (t - 1.0) - u * (rtu + rx2), -ru - t * (rtu + rx2))

    def f3(w: float, da: float, db: float):
        # on (-1, 1): t - w**2 = (t - 1) + da db
        w2 = w * w
        uw2 = u * w2
        d = ((t - 1.0) + da * db) * (t + uw2) * (1.0 + uw2) * (t + uw2 * w2)
        if d == math.inf:
            raise _overflow(c)
        v = w2 / math.sqrt(d)
        if not partials:
            return v
        r2, r4 = 1.0 / (t + uw2), 1.0 / (t + uw2 * w2)
        return v, -0.5 * v * complex(1.0 / ((t - 1.0) + da * db) + r2 + r4, w2 * (r2 + 1.0 / (1.0 + uw2) + w2 * r4))

    j1, j2 = integrate(f1, 0.0, 1.0, tol=tol), integrate(f2, 1.0, t, tol=tol)
    return (j1, j2, integrate(f3, -1.0, 1.0, tol=tol)) if j3 else (j1, j2)


def segment_integrals(c: CurveTU, tol: float = TOL) -> Tuple[float, float, float]:
    """The three positive segment integrals (J1, J2, J3).

    Each is an integral of h(x) / sqrt((x - p)(q - x)) between two branch
    points p, q with h analytic near the segment, the form the
    Chebyshev-weight rule of `quadrature.integrate` takes.  The tail over
    (t, inf) is brought there by x = t/w**2 and the evenness of the result
    in w: J3 is the integral over (-1, 1) of
    w**2 / sqrt((t - w**2)(t + u w**2)(1 + u w**2)(t + u w**4)) / sqrt(1 - w**2).
    tol is the quadrature tolerance of each integral (`quadrature.integrate`).
    Raises PeriodsError when an integrand's denominator overflows on part of
    its segment (as for t = 5e102 or u = 1e300), where the integral would
    come out truncated or 0.
    """
    return _integrals(c, tol)


def shape_ratios(c: CurveTU, tol: float = TOL) -> Tuple[float, float]:
    """(J2/J1, J3/J1) = (2 height / short base, long base / short base)."""
    j1, j2, j3 = segment_integrals(c, tol)
    return j2 / j1, j3 / j1


def _shape_ratios_and_jacobian(c: CurveTU, tol: float):
    """`shape_ratios(c, tol)` and its Jacobian ((dr1/dt, dr1/du), (dr2/dt, dr2/du))."""
    (j1, g1), (j2, g2), (j3, g3) = _integrals(c, tol, partials=True)
    r1, r2 = j2 / j1, j3 / j1
    # d(J/J1) = (dJ - (J/J1) dJ1) / J1, on gradients d/dt + i d/du
    d1, d2 = (g2 - r1 * g1) / j1, (g3 - r2 * g1) / j1
    return (r1, r2), ((d1.real, d1.imag), (d2.real, d2.imag))


# Both solvers stop once their residual is below _RESIDUAL_TOL and give up
# after _NEWTON_MAX_ITER Newton steps; solve_tu starts at (t, u) = _TU_START.
_RESIDUAL_TOL = 1e-10
_TU_START = (2.0, 2.0)
_NEWTON_MAX_ITER = 50


def solve_tu(target: Tuple[float, float], tol: float = TOL) -> CurveTU:
    """Newton solve for the curve whose shape ratios match the target.

    The full step's trial point costs one pass of the period quadrature,
    which gives the shape ratios and their analytic Jacobian on the same
    nodes; an accepted point's Jacobian drives the next step.  Steps are
    damped by halving while the residual does not decrease.  The halved
    trial points take a value-only pass, whose ratios are the same doubles,
    and a point accepted after halving gets its Jacobian from one more pass
    when the next step needs it.  Raises PeriodsError on divergence or when
    the iteration leaves the domain t > 1, u > 0.  tol is the quadrature
    tolerance.
    """
    r1, r2 = target
    if not (r2 > 0 and r1 > 0):
        # r2 >= 1 corresponds to trapezoids with the long base below; the
        # u < 1 half of the family realizes r2 < 1 and solves just as well.
        raise PeriodsError(f"target ratios outside the feasible cone: {target}")

    def residual(t: float, u: float, jacobian: bool):
        c = CurveTU(t, u)
        (s1, s2), jac = _shape_ratios_and_jacobian(c, tol) if jacobian else (shape_ratios(c, tol), None)
        return (s1 - r1, s2 - r2), jac

    t, u = _TU_START
    fx, jac = residual(t, u, True)
    norm = max(abs(fx[0]), abs(fx[1]))
    for _ in range(_NEWTON_MAX_ITER):
        if norm < _RESIDUAL_TOL:
            return CurveTU(t, u)
        if jac is None:
            _, jac = residual(t, u, True)
        (j00, j01), (j10, j11) = jac
        det = j00 * j11 - j01 * j10
        if det == 0 or not math.isfinite(det):
            raise PeriodsError("singular Jacobian in Newton iteration")
        dt = -(fx[0] * j11 - fx[1] * j01) / det
        du = -(j00 * fx[1] - j10 * fx[0]) / det
        lam = 1.0
        while True:
            t_new, u_new = t + lam * dt, u + lam * du
            if t_new > 1.0 + 1e-12 and u_new > 1e-12:
                f_new, jac_new = residual(t_new, u_new, lam == 1.0)
                n_new = max(abs(f_new[0]), abs(f_new[1]))
                if n_new < norm or n_new < _RESIDUAL_TOL:
                    break
            lam *= 0.5
            if lam < 1e-8:
                raise PeriodsError("Newton step damping failed to reduce the residual")
        t, u, fx, jac, norm = t_new, u_new, f_new, jac_new, n_new
    if norm < _RESIDUAL_TOL:
        return CurveTU(t, u)
    raise PeriodsError(f"Newton did not converge: residual {norm:.3e} after {_NEWTON_MAX_ITER} iterations")


# The rectangle solve keeps t in [_RECT_T_MIN, _RECT_T_MAX].
_RECT_T_MIN = 1.0 + 10.0 ** -3
_RECT_T_MAX = 1.0 + 10.0 ** 4.5


def solve_t_rectangle(mu: float, tol: float = TOL) -> float:
    """Solve J1(t, 1) = mu * J2(t, 1) for t (the rectangle case u = 1).

    2*mu is the width-to-height ratio of the rectangle.  Newton runs in
    s = log(t - 1) on g(s) = log J1 - log J2 - log mu, which falls with t.
    Each iterate costs one pass of the period quadrature, which gives
    g'(s) = (t - 1) (dJ1/dt / J1 - dJ2/dt / J2) on the nodes of J1 and J2.
    Newton starts at t = 2 and halves a step while |g| does not fall.
    Steps are clamped to t in [_RECT_T_MIN, _RECT_T_MAX]; since g is
    monotone, a clamped iterate where g keeps its sign puts the root
    outside that range and raises PeriodsError.  The solve returns once
    |J1 - mu*J2| < _RESIDUAL_TOL and the next step would move t by less
    than 1e-13 t, a hundred times the quadrature's noise in t.  tol is
    the quadrature tolerance.
    """
    if not mu > 0:
        raise PeriodsError(f"mu must be positive: {mu}")
    log_mu = math.log(mu)
    s_lo, s_hi = math.log(_RECT_T_MIN - 1.0), math.log(_RECT_T_MAX - 1.0)

    def at(s: float):
        t = 1.0 + math.exp(s)
        (j1, g1), (j2, g2) = _integrals(CurveTU(t, 1.0), tol, j3=False, partials=True)
        return t, math.log(j1 / j2) - log_mu, (t - 1.0) * (g1.real / j1 - g2.real / j2), abs(j1 - mu * j2)

    s = 0.0
    t, g, dg, res = at(s)
    for _ in range(_NEWTON_MAX_ITER):
        step = -g / dg
        if res < _RESIDUAL_TOL and abs(math.expm1(step)) * (t - 1.0) < 1e-13 * t:
            return t
        s_new = min(max(s + step, s_lo), s_hi)
        clamped, lam = s_new != s + step, 1.0
        while True:
            t_new, g_new, dg_new, res_new = at(s_new)
            if clamped and g_new * g > 0:
                raise PeriodsError(
                    f"no sign change of J1 - mu*J2 for t in [{_RECT_T_MIN:.6g}, {_RECT_T_MAX:.6g}]"
                    f" at mu = {mu}"
                )
            if abs(g_new) < abs(g):
                break
            s_new, clamped, lam = 0.5 * (s + s_new), False, 0.5 * lam
            if lam < 1e-8:
                raise PeriodsError("Newton step damping failed to reduce the residual")
        s, t, g, dg, res = s_new, t_new, g_new, dg_new, res_new
    raise PeriodsError(f"rectangle solve did not reach residual {_RESIDUAL_TOL}")


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


def _curve_a_roots(a: complex) -> List[complex]:
    return [0.0 + 0.0j, 1.0 + 0.0j, -1.0 + 0.0j, a, 1.0 / a]


def _segment_period(roots: List[complex], i: int, j: int, tol: float) -> complex:
    """Integral of (1 - x)/y dx along the straight segment from roots[i] to roots[j].

    On x = z0 + s d, each factor of P is x - r_k = d (w_k + s) with
    w_k = (z0 - r_k)/d, and y(s) = C prod_k sqrt(w_k + s) with principal
    roots is continuous along the whole segment.  Roots on the segment's
    line get Im w_k = +0.0, so an interior branch point is passed on the
    left of the direction of travel; the constant C makes y equal the
    principal sqrt(P) at s = 0.5 + 2**-10 (at s = 0.5 when a branch point
    lies within 1e-13 of that).  The integral splits only at interior
    branch points, and the two factors vanishing at a piece's ends are
    the quadrature's Chebyshev weight.
    """
    z0, d = roots[i], roots[j] - roots[i]
    length = abs(d)
    ws: List[complex] = []
    breaks = [(0.0, i), (1.0, j)]
    for k, r in enumerate(roots):
        w = (z0 - r) / d
        s, gap = -w.real, abs(w.imag) * length
        if gap <= 1e-14 * max(1.0, length):
            w = complex(w.real, 0.0)
            if k not in (i, j) and 1e-12 < s < 1 - 1e-12:
                breaks.append((s, k))
        elif gap <= 1e-12 and -1e-12 < s < 1 + 1e-12:
            raise BranchAmbiguityError(f"integration path passes within 1e-12 of branch point {r}")
        ws.append(w)
    breaks.sort()

    s_fix = 0.5 + 2.0 ** -10
    if any(abs(s - s_fix) < 1e-13 for s, _ in breaks):
        s_fix = 0.5
    x_fix = z0 + s_fix * d
    c = cmath.sqrt(math.prod(x_fix - r for r in roots))
    for w in ws:
        c /= cmath.sqrt(w + s_fix)
    scale = d / (1j * c)  # the factor at a piece's upper end is sqrt(-db + 0.0j) = 1j sqrt(db)

    total = 0.0 + 0.0j
    for (lo, k_lo), (hi, k_hi) in zip(breaks, breaks[1:]):
        inner = [w for k, w in enumerate(ws) if k not in (k_lo, k_hi)]

        def integrand(s: float, da: float, db: float) -> complex:
            y = 1.0
            for w in inner:
                y *= cmath.sqrt(w + s)
            return (1.0 - (z0 + s * d)) * scale / y

        total += integrate(integrand, lo, hi, tol=tol)
    return total


def silhol_periods(c: CurveA, tol: float = TOL) -> Tuple[complex, complex]:
    """The two marked periods (int_{-1}^0 phi, int_0^{1/a} phi).

    phi = (1 - x) dx / y on y**2 = x (x**2 - 1) (x - a) (x - 1/a), each
    integral along the straight segment between the two roots.  On each
    segment y is the closed-form branch of `_segment_period`: a product of
    principal square roots of the factors of P, scaled to equal the
    principal sqrt(P) near the segment midpoint, and continued through
    interior branch points on the left of the direction of travel.
    Raises BranchAmbiguityError when a root lies within 1e-12 of a segment
    but off its line, where that side is not determined.
    """
    c.validate()
    roots = _curve_a_roots(c.a)
    return _segment_period(roots, 2, 0, tol), _segment_period(roots, 0, 4, tol)


def silhol_ratio(c: CurveA, tol: float = TOL) -> complex:
    """The single period parameter of the fourfold-symmetric genus-2 curve.

    Computed from the two marked segment periods I1 = int_{-1}^0 phi and
    I2 = int_0^{1/a} phi as (2 I1 + I2) / (i I2): the combination 2 I1 +
    I2 re-routes the first path by a full cycle around {-1, 0}, which is
    the marking in which the parameter is real exactly when a lies on the
    positive imaginary axis (where the curve's period matrix is purely
    imaginary, the two marked periods being perpendicular).
    """
    i1, i2 = silhol_periods(c, tol)
    if i2 == 0:
        raise PeriodsError("degenerate period in Silhol ratio")
    return (2.0 * i1 + i2) / (1j * i2)
