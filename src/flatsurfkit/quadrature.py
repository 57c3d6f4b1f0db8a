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

Integrands receive (x, dist_a, dist_b): the node and its exact distances
to the two endpoints, taken as 2 half sin(theta/2)**2 and
2 half cos(theta/2)**2.  Near an endpoint x itself carries no information
about the gap (it rounds to the endpoint once the distance drops below
one ulp), so factors like 1 - x or x - a must be taken from the
distances.  The rule samples both endpoints, where one distance is 0.
Values may be real or complex.  An integrand may also return a pair
(value, extra) to have a second quantity, such as the value's partial
derivatives, integrated on the same nodes (`integrate`).
"""

from __future__ import annotations

from math import cos, pi, sin
from typing import Any, Callable


class QuadratureError(RuntimeError):
    pass


_START = 8  # intervals of the coarsest rule compared
MAX_LEVEL = 12  # doublings of the coarsest rule before giving up


def integrate(f: Callable[[float, float, float], Any], a: float, b: float, tol: float = 1e-12) -> Any:
    """Integral over (a, b) of f(x, x - a, b - x) / sqrt((x - a)(b - x)).

    The trapezoid rule in theta on n = 2, 4, 8, ... intervals, each level
    adding the odd nodes of the next.  Returns once two successive levels
    from _START intervals on agree within tol * max(1, |estimate|), an
    absolute tolerance for integrals up to 1 and a relative one above (where
    rounding alone can keep an absolute 1e-12 out of reach), and raises
    QuadratureError when they do not by MAX_LEVEL doublings, when f
    divides by zero (at an endpoint, typically) or when tol is not positive.

    f may return a pair (value, extra) instead of a value, where extra is a
    number (a complex carries two real components) or anything else that
    adds and scales by floats.  The rule then sums extra on the same nodes
    in the same order as value and returns the pair of the two integrals.
    It judges convergence on the value alone, so the value's integral is
    the double that f returning the value alone gives.  An empty interval
    gives 0.0 either way.
    """
    if not tol > 0:
        raise QuadratureError(f"quadrature tolerance must be positive: {tol}")
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
        n = 2
        prev = None
        while n < _START << MAX_LEVEL:
            n *= 2
            step = pi / (2 * n)  # theta_k / 2 for node k of n
            for k in range(1, n // 2, 2):  # node k and its mirror n - k
                th = k * step
                s, c = sin(th), cos(th)
                da, db = full * s * s, full * c * c
                if pair:
                    p, q = f(a + da, da, db), f(b - da, db, da)
                    total += p[0] + q[0]
                    extra += p[1] + q[1]
                else:
                    total += f(a + da, da, db) + f(b - da, db, da)
            est = total * (pi / n)
            if prev is not None and abs(est - prev) <= tol * max(1.0, abs(est)):
                return (est, extra * (pi / n)) if pair else est
            if n >= _START:
                prev = est
    except ZeroDivisionError as exc:
        raise QuadratureError(f"integrand is singular on [{a}, {b}]") from exc
    raise QuadratureError(f"trapezoid rule did not reach tolerance {tol} within {MAX_LEVEL} levels")
