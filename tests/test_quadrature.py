"""Tanh-sinh quadrature: endpoint singularities, complex values, orientation."""

import cmath
import math

import pytest

from flatsurfkit.quadrature import MAX_LEVEL, QuadratureError, integrate


def _arcsine_density(x, da, db):
    # 1/sqrt(x (1 - x)) on (0, 1), with both singular factors from the distances
    return 1.0 / math.sqrt(da * db)


class TestIntegrate:
    def test_inverse_square_root_endpoints(self):
        assert abs(integrate(_arcsine_density, 0.0, 1.0) - math.pi) < 1e-12

    def test_singular_factors_come_from_the_distances(self):
        # near the ends of (1, 1 + 1e-9) the node x rounds to an endpoint,
        # so x - 1 or (1 + 1e-9) - x would be 0; the distances are not
        got = integrate(_arcsine_density, 1.0, 1.0 + 1e-9)
        assert abs(got - math.pi) < 1e-12

    def test_complex_integrand(self):
        got = integrate(lambda x, da, db: cmath.exp(1j * x), 0.0, math.pi)
        assert isinstance(got, complex)
        assert abs(got - 2j) < 1e-12

    def test_reversed_interval_is_negative(self):
        f = lambda x, da, db: x * x + 1j * math.sqrt(da)
        forward = integrate(f, 0.5, 2.0)
        assert integrate(f, 2.0, 0.5) == -forward
        assert abs(forward - (2.625 + 1j * 2.0 / 3.0 * 1.5 ** 1.5)) < 1e-12

    def test_empty_interval_is_zero(self):
        assert integrate(lambda x, da, db: 1.0 / da, 1.5, 1.5) == 0

    def test_divergent_integral_raises(self):
        # int_0^1 dx/x diverges: every level adds nodes closer to 0
        with pytest.raises(QuadratureError, match=f"within {MAX_LEVEL} levels"):
            integrate(lambda x, da, db: 1.0 / da, 0.0, 1.0)

    def test_loose_tolerance_stops_early(self):
        loose = integrate(_arcsine_density, 0.0, 1.0, tol=1e-4)
        assert 0 < abs(loose - math.pi) < 1e-4
