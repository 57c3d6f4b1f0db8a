"""Chebyshev-weight quadrature: the weight, complex values, orientation, failures."""

import cmath
import math

import pytest

from flatsurfkit.quadrature import MAX_LEVEL, QuadratureError, integrate

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

    @pytest.mark.parametrize("tol", (0.0, -1e-12, math.nan))
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

