"""Chebyshev-weight quadrature: the weight, complex values, orientation, failures,
and the node table."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatsurfkit import periods, quadrature
from flatsurfkit.quadrature import MAX_LEVEL, TOL, QuadratureError, integrate

PI_J0_1 = 2.403939430634413  # int_{-1}^1 exp(ix) / sqrt(1 - x**2) dx = pi J0(1)


class TestIntegrate:
    def test_inverse_square_root_endpoints(self):
        # 1/sqrt(x (1 - x)) on (0, 1) is the weight alone
        assert abs(integrate(lambda x, da, db: 1.0, 0.0, 1.0) - math.pi) < 1e-12

    def test_singular_factors_come_from_the_distances(self):
        # near the ends of (1, 1 + 1e-9) the node x rounds to an endpoint,
        # so x - 1 and (1 + 1e-9) - x are off by up to 1e-7 of the width;
        # the distances are not
        a, b = 1.0, 1.0 + 1e-9
        got = integrate(lambda x, da, db: (da + db) / (b - a), a, b)
        assert abs(got - math.pi) < 1e-12
        got = integrate(lambda x, da, db: 4.0 * da * db / (b - a) ** 2, a, b)
        assert abs(got - math.pi / 2) < 1e-12

    def test_complex_integrand(self):
        got = integrate(lambda x, da, db: cmath.exp(1j * x), -1.0, 1.0)
        assert isinstance(got, complex)
        assert abs(got - PI_J0_1) < 1e-12

    def test_reversed_interval_is_negative(self):
        # (x**2 + i (x - 1/2)) / sqrt((x - 1/2)(2 - x)) on (1/2, 2): with
        # mid = 5/4 and half = 3/4 the integral is pi (mid**2 + half**2/2 + i half)
        f = lambda x, da, db: x * x + 1j * da
        forward = integrate(f, 0.5, 2.0)
        assert integrate(f, 2.0, 0.5) == -forward
        assert abs(forward - math.pi * (1.84375 + 0.75j)) < 1e-12

    def test_empty_interval_is_zero(self):
        assert integrate(lambda x, da, db: 1.0 / da, 1.5, 1.5) == 0

    def test_divergent_integral_raises(self):
        # a pole 1e-13 past b: the integral exists, but the rule's
        # geometric rate is set by the pole's distance and is far too slow
        with pytest.raises(QuadratureError, match=f"within {MAX_LEVEL} levels"):
            integrate(lambda x, da, db: 1.0 / (x - 1.0 - 1e-13), 0.0, 1.0)

    def test_singular_endpoint_value_raises(self):
        # the rule samples the endpoints, where da = 0 or db = 0
        with pytest.raises(QuadratureError, match="singular"):
            integrate(lambda x, da, db: 1.0 / da, 0.0, 1.0)
        with pytest.raises(QuadratureError, match="singular"):
            integrate(lambda x, da, db: 1.0 / db, 0.0, 1.0)

    @pytest.mark.parametrize("tol", (0.0, -1e-12, math.nan, math.inf))
    def test_nonpositive_tolerance_raises(self, tol):
        # checked before anything else, an empty interval included
        for a, b in ((0.0, 1.0), (1.0, 1.0)):
            with pytest.raises(QuadratureError, match="tolerance must be positive"):
                integrate(lambda x, da, db: 1.0, a, b, tol=tol)

    def test_loose_tolerance_stops_early(self):
        # int_0^1 dx / ((c - x) sqrt(x (1 - x))) = pi / sqrt(c (c - 1))
        c = 1.001
        exact = math.pi / math.sqrt(c * (c - 1.0))
        evals = []

        def f(x, da, db):
            evals.append(x)
            return 1.0 / (c - x)

        loose = integrate(f, 0.0, 1.0, tol=1e-4)
        n_loose = len(evals)
        tight = integrate(f, 0.0, 1.0)
        assert abs(loose - exact) < 1e-4
        assert abs(tight - exact) < 1e-12
        assert n_loose < len(evals) - n_loose

    def test_large_integral_stops_on_relative_change(self):
        # int_0^1 dx / ((c - x) sqrt(x (1 - x))) = pi / sqrt(eps (1 + eps)),
        # eps = c - 1, about 993.45: an absolute 1e-12 is below the rounding
        # floor of a value this size, a relative one is not
        eps = 1e-5
        exact = math.pi / math.sqrt(eps * (1.0 + eps))
        got = integrate(lambda x, da, db: 1.0 / (eps + db), 0.0, 1.0)
        assert abs(got - exact) < 1e-12 * exact

    def test_pair_integrand_carries_extra_on_the_same_nodes(self):
        # the value 1/(c - x) as above, the extra x + i x**2: against the
        # weight, x and x**2 integrate to pi/2 and 3 pi/8 on (0, 1)
        c = 1.5
        nodes = {"value": [], "pair": []}

        def value(x, da, db):
            nodes["value"].append(x)
            return 1.0 / (c - x)

        def pair(x, da, db):
            nodes["pair"].append(x)
            return 1.0 / (c - x), complex(x, x * x)

        alone = integrate(value, 0.0, 1.0)
        got, extra = integrate(pair, 0.0, 1.0)
        assert got == alone
        assert nodes["pair"] == nodes["value"]
        assert abs(extra - complex(math.pi / 2, 3 * math.pi / 8)) < 1e-12
        assert integrate(pair, 1.0, 0.0) == (-got, -extra)

    def test_pair_integrand_converges_on_the_value_alone(self):
        # an extra with a pole 1e-13 past b never converges on its own
        # (test_divergent_integral_raises); the value stops the rule
        evals = []

        def pair(x, da, db):
            evals.append(x)
            return 1.0, 1.0 / (x - 1.0 - 1e-13)

        got, _ = integrate(pair, 0.0, 1.0)
        assert abs(got - math.pi) < 1e-12
        # the 17 nodes of 16 intervals, the first level compared with another
        assert len(evals) == 17

    @pytest.mark.parametrize("a, b", ((math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0), (math.nan, math.nan)))
    def test_non_finite_bounds_raise_before_any_evaluation(self, a, b):
        evals = []
        with pytest.raises(QuadratureError, match="bounds must be finite"):
            integrate(lambda x, da, db: evals.append(x) or 1.0, a, b)
        assert evals == []

    @pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf, complex(0.0, math.nan)))
    def test_non_finite_integrand_raises_at_the_first_level(self, value):
        # the first level, on 4 intervals, has 5 nodes; the 12 levels of
        # the ladder would take 32 769
        evals = []

        def f(x, da, db):
            evals.append(x)
            return value if x > 0.9 else 1.0

        with pytest.raises(QuadratureError, match=r"not finite on \[0.0, 1.0\]"):
            integrate(f, 0.0, 1.0)
        assert len(evals) == 5

    @pytest.mark.parametrize("tol", (1e-6, 1e-9, 1e-12))
    @pytest.mark.parametrize("eps", [10.0 ** -k for k in range(1, 7)])
    def test_pole_past_the_end_is_within_tolerance(self, eps, tol):
        # int_0^1 dx / ((c - x) sqrt(x (1 - x))) = pi / sqrt(c (c - 1)),
        # c = 1 + eps: c - x is taken as eps + db, so rounding x near 1
        # does not count; the rule's rate falls with eps
        exact = math.pi / math.sqrt((1.0 + eps) * eps)
        got = integrate(lambda x, da, db: 1.0 / (eps + db), 0.0, 1.0, tol=tol)
        assert abs(got - exact) <= tol * max(1.0, exact)

    @pytest.mark.parametrize("f", (lambda x: 1.0, lambda x: x, lambda x: 3.0 * x * x - 1.0, lambda x: x**4))
    def test_no_level_below_16_intervals_is_returned(self, f):
        # these are exact from 4 intervals on, so every difference is 0,
        # yet the rule returns the level on 16 intervals and its 17 nodes
        evals = []

        def counted(x, da, db):
            evals.append(x)
            return f(x)

        integrate(counted, -1.0, 1.0)
        assert len(evals) == 17

    @pytest.mark.parametrize("k, shift", ((47.71, 0.0), (39.93, 1.5)))
    def test_coincident_levels_do_not_pass_the_extrapolation(self, k, shift):
        # shift + cos(k x) on (-1, 1): at these k two successive levels
        # agree while both are still far off (I_16 and I_32 at k = 47.71
        # are 4.0e-4 and 5.6e-5 off, I_8 and I_16 at 39.93 both 0.86),
        # and the ratio of the last two differences alone took such a
        # level for converged; the reference is the rule on 256 intervals,
        # exact to rounding for these k
        f = lambda x, da, db: shift + math.cos(k * x)
        n = 256
        ref = math.pi / n * math.fsum(
            (0.5 if j in (0, n) else 1.0) * f(math.cos(math.pi * j / n), 0.0, 0.0) for j in range(n + 1)
        )
        got = integrate(f, -1.0, 1.0, tol=1e-6)
        assert abs(got - ref) <= 1e-6 * max(1.0, abs(ref))

    @pytest.mark.xfail(strict=True, reason="the extrapolation assumes one rate of convergence")
    def test_faint_slow_term_is_within_tolerance(self):
        # a pole of residue 1e-12 at 1e-4 past b next to one of residue 1
        # at distance 2: the differences up to 8 intervals fall at the
        # fast rate, the faint term keeps the next ones near 1e-9, and the
        # rule returns on 16 intervals, 7.8e-10 off; agreement of two
        # levels alone returns on 512, 6.7e-16 off
        eps = 1e-4
        exact = math.pi / math.sqrt(8.0) + 1e-12 * math.pi / math.sqrt(eps * (2.0 + eps))
        got = integrate(lambda x, da, db: 1.0 / (3.0 - x) + 1e-12 / (eps + db), -1.0, 1.0)
        assert abs(got - exact) <= 1e-12 * max(1.0, exact)


# -- the node table against sin and cos per node ------------------------------------------


def _reference_integrate(f, a, b, tol=TOL):
    """The rule as it ran before the node table: sin and cos of every node
    of every level of every call, otherwise step for step `integrate`."""
    if a == b:
        return 0.0
    if a > b:
        r = _reference_integrate(f, b, a, tol)
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
        n, prev, d1, d2 = 2, total * (math.pi / 2), 0.0, 0.0
        while n < quadrature._START << MAX_LEVEL:
            n *= 2
            step = math.pi / (2 * n)
            for k in range(1, n // 2, 2):
                th = k * step
                s, c = math.sin(th), math.cos(th)
                da, db = full * s * s, full * c * c
                if pair:
                    p, q = f(a + da, da, db), f(b - da, db, da)
                    total += p[0] + q[0]
                    extra += p[1] + q[1]
                else:
                    total += f(a + da, da, db) + f(b - da, db, da)
            est = total * (math.pi / n)
            size, diff = abs(est), abs(est - prev)
            if not size < math.inf:
                raise QuadratureError(f"integrand is not finite on [{a}, {b}]")
            if n > quadrature._START and (
                diff <= tol * max(1.0, size)
                or d1 and d2 and diff * max(diff / d1, (d1 / d2) * (d1 / d2)) <= tol * size
            ):
                return (est, extra * (math.pi / n)) if pair else est
            prev, d1, d2 = est, diff, d1
    except ZeroDivisionError as exc:
        raise QuadratureError(f"integrand is singular on [{a}, {b}]") from exc
    raise QuadratureError(f"trapezoid rule did not reach tolerance {tol} within {MAX_LEVEL} levels")


def _outcome(rule, f, a, b):
    """rule(f, a, b), or the message of the QuadratureError it raises."""
    try:
        return rule(f, a, b)
    except QuadratureError as exc:
        return f"QuadratureError: {exc}"


def _integrand(kind, k, c, pair):
    """A smooth value (real or complex) of the node and its distances; as a
    pair, with a complex extra that mixes in the distances."""
    value = {
        "cos": lambda x, da, db: c + math.cos(k * x),
        "pole": lambda x, da, db: 1.0 / (x * x + c),
        "exp": lambda x, da, db: cmath.exp(1j * k * x) * (1.0 + c * da),
    }[kind]
    if not pair:
        return value

    def with_extra(x, da, db):
        v = value(x, da, db)
        return v, complex(da, c * db) * v

    return with_extra


_ends = st.floats(-8.0, 8.0, allow_nan=False)
_integrands = st.builds(
    _integrand, st.sampled_from(["cos", "pole", "exp"]), st.floats(0.0, 6.0), st.floats(0.05, 3.0), st.booleans()
)


class TestNodeTable:
    """`integrate` reads each level's sines and cosines from a table kept
    across calls; every double it returns is the one of sin and cos per node."""

    @settings(max_examples=150, deadline=None)
    @given(_integrands, _ends, _ends)
    def test_matches_sin_and_cos_per_node(self, f, a, b):
        # either order of the ends, a > b included
        assert _outcome(integrate, f, a, b) == _outcome(_reference_integrate, f, a, b)

    @settings(max_examples=40, deadline=None)
    @given(_integrands, _ends, st.sampled_from([1e-9, -1e-9]))
    def test_matches_on_a_narrow_interval(self, f, a, width):
        b = a + width
        assert _outcome(integrate, f, a, b) == _outcome(_reference_integrate, f, a, b)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("partials", (False, True))
    def test_period_integrands_match(self, seed, partials, monkeypatch):
        # J1, J2 and J3 at a seeded (t, u), value-only and with partials
        rng = random.Random(seed)
        c = periods.CurveTU(rng.uniform(1.05, 6.0), rng.uniform(0.05, 6.0))
        seen = []

        def both(f, a, b):
            got = integrate(f, a, b)
            assert got == _reference_integrate(f, a, b)
            seen.append(got)
            return got

        monkeypatch.setattr(periods, "integrate", both)
        periods._integrals(c, partials=partials)
        assert len(seen) == 3

    def test_every_level_holds_sin_and_cos_of_its_nodes(self):
        # a pole 1e-13 past b takes the rule through every level
        with pytest.raises(QuadratureError, match=f"within {MAX_LEVEL} levels"):
            integrate(lambda x, da, db: 1.0 / (x - 1.0 - 1e-13), 0.0, 1.0)
        n = 4
        while n <= quadrature._START << MAX_LEVEL:
            step = math.pi / (2 * n)
            assert quadrature._node_cache[n] == tuple(
                (math.sin(k * step), math.cos(k * step)) for k in range(1, n // 2, 2)
            ), n
            n *= 2
        assert max(quadrature._node_cache) == quadrature._START << MAX_LEVEL
