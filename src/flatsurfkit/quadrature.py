"""Chebyshev-weight quadrature: integrals of h(x) / sqrt((x - a)(b - x)).

Every period integral runs between two branch points, so its integrand
is h(x) / sqrt((x - a)(b - x)) with h analytic near [a, b].  The
substitution x = a + half (1 - cos theta), half = (b - a)/2, turns it
into the integral of h over theta in [0, pi] with no weight left: the
factor half sin(theta) of dx cancels the square root.  As a function of
theta, h is even and 2 pi-periodic, so the trapezoid rule converges
geometrically (Trefethen and Weideman, "The exponentially convergent
trapezoidal rule", SIAM Review 2014); its rate is set by how close the
nearest singularity of h lies to the segment.

The rule doubles its intervals and stops at the first level that passes
one of two tests.  Write I_n for the level on n intervals,
d_n = |I_n - I_{n/2}| and rho_n = d_n / d_{n/2}.  Level n >= 16 is
accepted when

- d_n <= tol max(1, |I_n|): it agrees with the level before it, which
  returns one doubling after the first level within tol; or
- d_n max(rho_n, rho_{n/2}**2) <= tol |I_n|: its extrapolated error is
  within tol.

Under geometric convergence d_n is about the error of I_{n/2}, and each
doubling squares the ratio, rho_n = rho_{n/2}**2, so the error of I_n is
about d_n rho_n**2; the second test takes d_n rho_n, an overestimate by
1/rho_n.  The ratio rho_{n/2}**2 that the doubling before predicts keeps
a level that agrees with the one before it by coincidence, both still
far off, from passing on a small rho_n alone: oscillating integrands do
that before the rule resolves them (cos(47.71 x) on (-1, 1) at tol 1e-6
came out 56 tol off on rho_n alone).  The second bound is relative, with
no max(1, ...), because callers divide integrals far below 1 (the
periods' J1 is 9.3e-6 in the rectangle at mu = 0.05), where an absolute
bound would move the digits of the quotient.  The extrapolation assumes
one rate: a sum of a large term with a fast rate and a faint one with a
slow rate can pass it early (a pole of residue 1e-12 at 1e-4 past the
end next to one of residue 1 at distance 2 came out 700 tol off).  The
period integrands are products of the curve's factors and carry no such
faint term.

Integrands receive (x, dist_a, dist_b): the node and its exact distances
to the two endpoints, taken as 2 half sin(theta/2)**2 and
2 half cos(theta/2)**2.  Near an endpoint x itself carries no information
about the gap (it rounds to the endpoint once the distance drops below
one ulp), so factors like 1 - x or x - a must be taken from the
distances.  The rule samples both endpoints, where one distance is 0.
Values may be real or complex.  An integrand may also return a pair
(value, extra) to have a second quantity, such as the value's partial
derivatives, integrated on the same nodes (`integrate`).

The nodes depend on the level alone: node k of n sits at
theta_k = k pi/n, and its distances are full sin(theta_k/2)**2 and
full cos(theta_k/2)**2 with full = b - a.  So the sines and cosines of
each level are computed once per process, the first time a call reaches
that level, and kept in a table (`_node_cache`) that every later call
reads.  Every level up to MAX_LEVEL makes at most 16 383 pairs in all.
"""

from __future__ import annotations

from math import cos, inf, isfinite, pi, sin
from typing import Any, Callable, Dict, Tuple


class QuadratureError(RuntimeError):
    pass


_START = 8  # intervals of the coarsest rule compared
MAX_LEVEL = 12  # doublings of the coarsest rule before giving up
TOL = 1e-12  # the tolerance of every period integral

# The node table: n -> (sin(k step), cos(k step)) for the odd k < n/2,
# step = pi/(2n), the new nodes of the level on n intervals.
_node_cache: Dict[int, Tuple[Tuple[float, float], ...]] = {}


def _level_nodes(n: int) -> Tuple[Tuple[float, float], ...]:
    """Build and keep the node table's entry for level n."""
    step = pi / (2 * n)
    nodes = _node_cache[n] = tuple((sin(k * step), cos(k * step)) for k in range(1, n // 2, 2))
    return nodes


def integrate(f: Callable[[float, float, float], Any], a: float, b: float, tol: float = TOL) -> Any:
    """Integral over (a, b) of f(x, x - a, b - x) / sqrt((x - a)(b - x)).

    The trapezoid rule in theta on n = 2, 4, 8, ... intervals, each level
    adding the odd nodes of the next, whose sines and cosines it reads from
    the node table (see the module docstring): the doubles that sin and cos
    of k pi/(2n) give, summed in the same order.  Returns the first level
    from 16 intervals on that agrees with the one before it within
    tol * max(1, |estimate|), an absolute tolerance for integrals up to 1
    and a relative one above (where rounding alone can keep an absolute
    1e-12 out of reach), or whose error, extrapolated from the last three
    differences of the ladder, is within tol * |estimate| (see the module
    docstring).  Raises QuadratureError when neither holds by
    MAX_LEVEL doublings, when a or b is not finite, when a level's
    estimate is not finite, when f divides by zero (at an endpoint,
    typically) or when tol is not positive and finite.

    f may return a pair (value, extra) instead of a value, where extra is a
    number (a complex carries two real components) or anything else that
    adds and scales by floats.  The rule then sums extra on the same nodes
    in the same order as value and returns the pair of the two integrals.
    It judges convergence on the value alone, so the value's integral is
    the double that f returning the value alone gives.  An empty interval
    gives 0.0 either way.
    """
    if not 0 < tol < inf:
        raise QuadratureError(f"quadrature tolerance must be positive and finite: {tol}")
    if not (isfinite(a) and isfinite(b)):
        raise QuadratureError(f"quadrature bounds must be finite: [{a}, {b}]")
    if a == b:
        return 0.0
    if a > b:
        r = integrate(f, b, a, tol=tol)
        return (-r[0], -r[1]) if type(r) is tuple else -r
    full = b - a
    half = 0.5 * full
    try:
        lo, hi, mid = f(a, 0.0, full), f(b, full, 0.0), f(a + half, half, half)
        pair = type(mid) is tuple
        if pair:
            total, extra = 0.5 * (lo[0] + hi[0]) + mid[0], 0.5 * (lo[1] + hi[1]) + mid[1]
        else:
            total = 0.5 * (lo + hi) + mid
        # prev is the last level, d1 and d2 the last two differences
        n, prev, d1, d2 = 2, total * (pi / 2), 0.0, 0.0
        while n < _START << MAX_LEVEL:
            n *= 2
            for s, c in _node_cache.get(n) or _level_nodes(n):
                da, db = full * s * s, full * c * c
                if pair:
                    p, q = f(a + da, da, db), f(b - da, db, da)
                    total += p[0] + q[0]
                    extra += p[1] + q[1]
                else:
                    total += f(a + da, da, db) + f(b - da, db, da)
            est = total * (pi / n)
            size, diff = abs(est), abs(est - prev)
            if not size < inf:
                raise QuadratureError(f"integrand is not finite on [{a}, {b}]")
            if n > _START and (
                diff <= tol * max(1.0, size)
                or d1 and d2 and diff * max(diff / d1, (d1 / d2) * (d1 / d2)) <= tol * size
            ):
                return (est, extra * (pi / n)) if pair else est
            prev, d1, d2 = est, diff, d1
    except ZeroDivisionError as exc:
        raise QuadratureError(f"integrand is singular on [{a}, {b}]") from exc
    raise QuadratureError(f"trapezoid rule did not reach tolerance {tol} within {MAX_LEVEL} levels")
