"""Tanh-sinh (double exponential) quadrature.

Handles integrable endpoint singularities (inverse square roots in
particular) without special-casing: the substitution u = tanh(pi/2 sinh t)
pushes the endpoints to infinity where the trapezoid rule converges
double-exponentially.

Integrands receive (x, dist_a, dist_b): the node and its exact distances
to the two endpoints.  Near an endpoint x itself carries no information
about the gap (it rounds to the endpoint once the distance drops below
one ulp), so singular factors like 1 - x or x - a must be taken from the
distances.  Values may be real or complex.
"""

from __future__ import annotations

import math
from typing import Callable, List, Tuple


class QuadratureError(RuntimeError):
    pass


_HALF_PI = math.pi / 2.0
_T_MAX = 6.6
_TERM_STREAK = 3  # consecutive negligible terms before truncating a level
MAX_LEVEL = 12  # halvings of the mesh before giving up

_node_cache: dict = {}


def _level_nodes(level: int) -> List[Tuple[float, float]]:
    """(weight, endpoint distance) for the new positive-t nodes of a level."""
    if level in _node_cache:
        return _node_cache[level]
    h = 2.0 ** -level
    ks = range(1, int(_T_MAX / h) + 1, 1 if level == 0 else 2)
    out = []
    for k in ks:
        t = k * h
        sh = math.sinh(t)
        z = _HALF_PI * sh
        if z > 350.0:  # cosh(z)**2 would overflow; weights are long gone
            break
        w = _HALF_PI * math.cosh(t) / math.cosh(z) ** 2
        d = 2.0 / (math.exp(2.0 * z) + 1.0)  # 1 - tanh, stably
        if d == 0.0 or w == 0.0:
            break
        out.append((w, d))
    _node_cache[level] = out
    return out


def integrate(f: Callable[[float, float, float], complex], a: float, b: float,
              tol: float = 1e-12) -> complex:
    """Integral over (a, b) of f(x, x - a, b - x) to absolute tolerance tol.

    Raises QuadratureError when successive refinements fail to agree
    within tol by level MAX_LEVEL.
    """
    if a == b:
        return 0.0
    if a > b:
        return -integrate(f, b, a, tol=tol)
    half = 0.5 * (b - a)
    mid = a + half
    cut = tol * 1e-3

    def level_sum(level: int) -> complex:
        part = 0.0
        streak = 0
        for w, d in _level_nodes(level):
            da = half * d
            db = half * (2.0 - d)
            term = w * (f(b - da, db, da) + f(a + da, da, db))
            part += term
            if abs(term) < cut * max(1.0, abs(part)):
                streak += 1
                if streak >= _TERM_STREAK:
                    break
            else:
                streak = 0
        return part

    value = _HALF_PI * f(mid, half, half) + level_sum(0)
    prev = value * half  # mesh h = 1 at level 0
    for level in range(1, MAX_LEVEL + 1):
        h = 2.0 ** -level
        value = value / 2.0 + h * level_sum(level)
        est = value * half
        if abs(est - prev) <= tol:
            return est
        prev = est
    raise QuadratureError(f"tanh-sinh did not reach tolerance {tol} within {MAX_LEVEL} levels")

