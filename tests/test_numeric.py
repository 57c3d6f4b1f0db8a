"""Exact arithmetic in Q(alpha) and the geometric predicates."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatsurfkit import numeric
from flatsurfkit.numeric import (
    ALPHA,
    CubicNumber,
    cubic_inv,
    cubic_mul,
    embed_real,
    incircle,
    incircle_det,
    orient,
    scalar_from_str,
    scalar_to_str,
    sign,
)

ONE = CubicNumber(1)


def bisect_alpha(eps: float) -> Fraction:
    """Independent oracle: bisect x**3 + x**2 + x - 1 on [0, 1]."""
    lo, hi = Fraction(0), Fraction(1)
    while hi - lo > Fraction(eps).limit_denominator(10 ** 18):
        mid = (lo + hi) / 2
        if mid ** 3 + mid ** 2 + mid - 1 < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestCubicMul:
    def test_minimal_polynomial(self):
        # alpha * alpha**2 = 1 - alpha - alpha**2
        assert cubic_mul(ALPHA, ALPHA * ALPHA) == CubicNumber(1, -1, -1)

    def test_inverse_of_alpha_identity(self):
        # alpha * (1 + alpha + alpha**2) = 1
        assert cubic_mul(ALPHA, CubicNumber(1, 1, 1)) == ONE

    def test_difference_of_squares(self):
        assert cubic_mul(ONE - ALPHA, ONE + ALPHA) == ONE - ALPHA * ALPHA


class TestCubicInv:
    def test_inv_alpha(self):
        assert cubic_inv(ALPHA) == CubicNumber(1, 1, 1)

    def test_inv_one(self):
        assert cubic_inv(ONE) == ONE

    def test_inv_alpha_squared_is_inv_product(self):
        lhs = cubic_inv(ALPHA * ALPHA)
        rhs = cubic_mul(cubic_inv(ALPHA), cubic_inv(ALPHA))
        assert lhs == rhs
        assert cubic_mul(ALPHA * ALPHA, lhs) == ONE

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            cubic_inv(CubicNumber(0))


class TestEmbedReal:
    def test_alpha_value(self):
        assert abs(embed_real(ALPHA, 1e-6) - 0.543689) <= 1e-6 + 1e-6

    def test_zero(self):
        assert embed_real(CubicNumber(0), 1e-6) == 0.0

    def test_inverse_alpha(self):
        # oracle: refine the root independently and invert
        oracle = 1 / float(bisect_alpha(1e-12))
        assert abs(embed_real(CubicNumber(1, 1, 1), 1e-6) - oracle) < 2e-6

    def test_against_bisection_oracle(self):
        x = CubicNumber(Fraction(3, 7), Fraction(-2, 5), Fraction(1, 3))
        a = bisect_alpha(1e-15)
        oracle = float(Fraction(3, 7) + Fraction(-2, 5) * a + Fraction(1, 3) * a * a)
        assert abs(embed_real(x, 1e-9) - oracle) < 1e-8


class TestSign:
    def test_alpha_minus_one_negative(self):
        assert sign(ALPHA - 1) == -1

    def test_zero(self):
        assert sign(CubicNumber(0)) == 0

    def test_minimal_polynomial_value_is_zero(self):
        assert sign(ALPHA ** 3 + ALPHA ** 2 + ALPHA - 1) == 0

    def test_agrees_with_embedding(self):
        for coeffs in [(1, -2, 1), (0, 5, -3), (-1, 1, 1), (2, -4, 1)]:
            x = CubicNumber(*coeffs)
            emb = embed_real(x, 1e-12)
            if abs(emb) > 2e-12:
                assert sign(x) == (1 if emb > 0 else -1)


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


@settings(max_examples=80, deadline=None)
@given(rationals, rationals, rationals)
def test_mul_inv_roundtrip(c0, c1, c2):
    x = CubicNumber(c0, c1, c2)
    if x.is_zero():
        return
    assert cubic_mul(x, cubic_inv(x)) == ONE


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, rationals, rationals, rationals, rationals)
def test_mul_commutes_and_embeds(a0, a1, a2, b0, b1, b2):
    x = CubicNumber(a0, a1, a2)
    y = CubicNumber(b0, b1, b2)
    assert x * y == y * x
    prod = float(x) * float(y)
    assert abs(float(x * y) - prod) < 1e-6 * (1 + abs(prod))


class RefCubic:
    """Reference Q(alpha): three Fraction coefficients and the textbook formulas."""

    def __init__(self, c0=0, c1=0, c2=0):
        self.c = (Fraction(c0), Fraction(c1), Fraction(c2))

    def __add__(self, o):
        return RefCubic(*(a + b for a, b in zip(self.c, o.c)))

    def __sub__(self, o):
        return RefCubic(*(a - b for a, b in zip(self.c, o.c)))

    def __mul__(self, o):
        (a0, a1, a2), (b0, b1, b2) = self.c, o.c
        p3, p4 = a1 * b2 + a2 * b1, a2 * b2
        # alpha**3 = 1 - alpha - alpha**2 ; alpha**4 = 2*alpha - 1
        return RefCubic(a0 * b0 + p3 - p4, a0 * b1 + a1 * b0 - p3 + 2 * p4, a0 * b2 + a1 * b1 + a2 * b0 - p3)

    def inverse(self):
        cols = [self, self * RefCubic(0, 1), self * RefCubic(0, 0, 1)]
        m = [[col.c[r] for col in cols] for r in range(3)]
        cof = (m[1][1] * m[2][2] - m[1][2] * m[2][1], m[1][2] * m[2][0] - m[1][0] * m[2][2],
               m[1][0] * m[2][1] - m[1][1] * m[2][0])
        det = sum(m[0][i] * cof[i] for i in range(3))
        return RefCubic(*(y / det for y in cof))

    def sign(self):
        """Bisect an isolating interval of alpha until the value's range excludes 0."""
        if not any(self.c):
            return 0
        lo, hi = Fraction(27, 50), Fraction(11, 20)
        while True:
            vals = [self.c[0] + self.c[1] * a + self.c[2] * a * a for a in (lo, hi)]
            spread = abs(self.c[1]) * (hi - lo) + abs(self.c[2]) * (hi * hi - lo * lo)
            if min(vals) - spread > 0 or max(vals) + spread < 0:
                return 1 if vals[0] > 0 else -1
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if mid ** 3 + mid ** 2 + mid - 1 < 0 else (lo, mid)

    def as_cubic(self):
        return CubicNumber(*self.c)


def alpha_decimal() -> Decimal:
    """alpha to the context's precision (up to ~60 000 digits), by Newton's method."""
    x = Decimal("0.5436890126920764")
    for _ in range(12):
        x -= (x ** 3 + x ** 2 + x - 1) / (3 * x ** 2 + 2 * x + 1)
    return x


def decimal_value(x: CubicNumber, digits: int = 200) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = digits + 20
        a = alpha_decimal()
        c = [Decimal(f.numerator) / Decimal(f.denominator) for f in (x.c0, x.c1, x.c2)]
        return c[0] + c[1] * a + c[2] * a * a


def alpha_convergents(n: int):
    """The first n continued-fraction convergents p/q of alpha, exactly."""
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(600):  # alpha to 600 bits: far more than n convergents need
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if mid ** 3 + mid ** 2 + mid - 1 < 0 else (lo, mid)
    x, out = lo, []
    (p0, q0), (p1, q1) = (0, 1), (1, 0)
    for _ in range(n):
        a = math.floor(x)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        out.append((p1, q1))
        x = 1 / (x - a)
    return out


coefficients = st.one_of(
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
    st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.just(Fraction(0)),
)
ref_cubics = st.builds(RefCubic, coefficients, coefficients, coefficients)


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(ref_cubics, ref_cubics)
    def test_ring_operations(self, x, y):
        cx, cy = x.as_cubic(), y.as_cubic()
        assert cx + cy == (x + y).as_cubic()
        assert cx - cy == (x - y).as_cubic()
        assert cx * cy == (x * y).as_cubic()
        assert (cx == cy) == (x.c == y.c)
        assert (cx + cy) - cy == cx
        if any(y.c):
            assert cy.inverse() == y.inverse().as_cubic()
            assert cx / cy == (x * y.inverse()).as_cubic()

    @settings(max_examples=150, deadline=None)
    @given(ref_cubics)
    def test_sign_coefficients_and_text(self, x):
        cx = x.as_cubic()
        assert cx.sign() == x.sign()
        assert (cx.c0, cx.c1, cx.c2) == x.c
        assert scalar_to_str(cx) == f"[{x.c[0]},{x.c[1]},{x.c[2]}]"
        assert scalar_from_str(scalar_to_str(cx)) == cx

    @settings(max_examples=100, deadline=None)
    @given(coefficients, coefficients)
    def test_equality_and_hash_across_the_tower(self, c0, c1):
        rational = CubicNumber(c0)
        assert rational == c0 and hash(rational) == hash(c0)
        if Fraction(c0).denominator == 1:
            assert rational == int(c0) and hash(rational) == hash(int(c0))
        # Equal values built different ways are one canonical form.
        x = CubicNumber(c0, c1, 1)
        y = CubicNumber(c0 * 3, c1 * 3, 3) * Fraction(1, 3)
        assert x == y and hash(x) == hash(y)
        assert x != c0 and x != CubicNumber(c0, c1, 2)


class TestNormFallback:
    """Signs the double-precision filter cannot decide."""

    @pytest.fixture
    def norm_calls(self, monkeypatch):
        calls = []
        original = numeric._adjugate_row

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(numeric, "_adjugate_row", counted)
        return calls

    @staticmethod
    def oracle(p: int, q: int) -> int:
        """sign(p - q*alpha) = sign(minpoly(p/q)) for q > 0: the polynomial increases."""
        r = Fraction(p, q)
        return 1 if r ** 3 + r ** 2 + r - 1 > 0 else -1

    @pytest.mark.parametrize("scale", [1, 2 ** 1100])
    def test_convergents_of_alpha(self, norm_calls, scale):
        convergents = [(p, q) for p, q in alpha_convergents(60) if q > 10 ** 9]
        assert len(convergents) > 20
        for p, q in convergents:
            x = CubicNumber(p * scale, -q * scale)
            assert x.sign() == self.oracle(p, q)
            assert (-x).sign() == -self.oracle(p, q)
        assert len(norm_calls) == 2 * len(convergents)

    def test_huge_coefficients_filter_after_shift(self, norm_calls):
        big = 2 ** 1100
        assert CubicNumber(big, 1, 0).sign() == 1
        assert CubicNumber(-big, big // 3, big // 7).sign() == RefCubic(-big, big // 3, big // 7).sign()
        assert CubicNumber(1, -big, 0).sign() == -1
        assert norm_calls == []


class TestFloatConversion:
    @staticmethod
    def within_one_ulp(x: CubicNumber):
        f = float(x)
        assert abs(Decimal(f) - decimal_value(x)) <= Decimal(math.ulp(f)), (x, f)

    @settings(max_examples=100, deadline=None)
    @given(ref_cubics)
    def test_against_200_digit_oracle(self, x):
        cx = x.as_cubic()
        if cx.is_zero():
            assert float(cx) == 0.0
            return
        self.within_one_ulp(cx)

    def test_cancellation_near_convergents(self):
        # Past q ~ 2**130 the import-time fixed-point alpha is too short.
        for p, q in alpha_convergents(100)[10:]:
            self.within_one_ulp(CubicNumber(p, -q))

    def test_no_dependence_on_earlier_calls(self):
        xs = [CubicNumber(Fraction(3, 7), Fraction(-2, 5), Fraction(1, 3)), ALPHA, CubicNumber(1, 1, 1)]
        first = [float(x) for x in xs]
        embed_real(xs[0], 1e-40)
        for p, q in alpha_convergents(40):
            float(CubicNumber(p, -q))
        assert [float(x) for x in xs] == first

    def test_shared_alpha_interval_untouched(self):
        before = (numeric._ALPHA.lo, numeric._ALPHA.hi)
        float(ALPHA)
        float(CubicNumber(7, -13, 2))
        embed_real(CubicNumber(1, 2, 3), 1e-100)
        assert (numeric._ALPHA.lo, numeric._ALPHA.hi) == before


class TestIncircle:
    TRI = ((0, 0), (1, 0), (1, 1))

    def test_cocircular_unit_square(self):
        assert incircle(*self.TRI, (0, 1)) == 0

    def test_circumcenter_inside(self):
        assert incircle(*self.TRI, (0.5, 0.5)) == 1

    def test_outside_point(self):
        # oracle: circumcircle of the triangle is centered at (1/2, 1/2)
        # with squared radius 1/2; (-1, 2) is at squared distance 9/2.
        assert (Fraction(-1) - Fraction(1, 2)) ** 2 + (2 - Fraction(1, 2)) ** 2 > Fraction(1, 2)
        assert incircle(*self.TRI, (-1, 2)) == -1

    def test_collinear_raises(self):
        with pytest.raises(ValueError):
            incircle((0, 0), (1, 1), (2, 2), (3, 0))

    def test_exact_vs_float_agreement(self):
        import random

        rnd = random.Random(11)
        for _ in range(200):
            pts = [(Fraction(rnd.randint(-9, 9), rnd.randint(1, 7)),
                    Fraction(rnd.randint(-9, 9), rnd.randint(1, 7))) for _ in range(4)]
            if orient(pts[0], pts[1], pts[2]) <= 0:
                continue
            exact = incircle(*pts)
            fl = [(float(x), float(y)) for x, y in pts]
            det = incircle_det(*fl)
            # conservative bound on the float determinant's rounding error
            scale = max(abs(c) for p in fl for c in p) or 1.0
            if abs(det) > 1e-12 * scale ** 4:
                assert exact == (1 if det > 0 else -1)

    def test_cocircular_quadruple_cyclic(self):
        # on cocircular quadruples every cyclic probe also reports zero
        pts = [(0, 0), (1, 0), (1, 1), (0, 1)]
        for k in range(4):
            rot = pts[k:] + pts[:k]
            assert incircle(*rot) == 0

    def test_exact_cubic_inputs(self):
        # the AY square is inscribed: its four corners are cocircular
        a = ALPHA
        p1 = (CubicNumber(0), CubicNumber(0))
        p2 = (a * a, a)
        p3 = (a * a - a, a * a + a)
        p4 = (-a, a * a)
        assert incircle(p1, p2, p3, p4) == 0


class TestSerialization:
    def test_rational_roundtrip(self):
        for x in (Fraction(3, 4), Fraction(-5), Fraction(0)):
            assert scalar_from_str(scalar_to_str(x)) == x

    def test_cubic_roundtrip(self):
        x = CubicNumber(Fraction(1, 2), Fraction(-3), Fraction(22, 7))
        assert scalar_from_str(scalar_to_str(x)) == x

    def test_float_shortest_roundtrip(self):
        for x in (0.1, -1.5437e-9, 2.0, 0.5436890126920763):
            assert scalar_from_str(scalar_to_str(x)) == x


exact_scalars = st.one_of(
    st.integers(min_value=-10 ** 6, max_value=10 ** 6),
    rationals,
    st.builds(CubicNumber, rationals, rationals, rationals),
)
tolerances = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)


def literal_sign(x) -> int:
    """The sign before it took a tolerance."""
    if isinstance(x, CubicNumber):
        return x.sign()
    return (x > 0) - (x < 0)


class TestSignPolicy:
    @settings(max_examples=150, deadline=None)
    @given(exact_scalars, tolerances)
    def test_exact_scalars_ignore_tol(self, x, tol):
        assert sign(x, tol) == sign(x) == literal_sign(x)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False), tolerances)
    @example(1e-9, 1e-9)
    @example(-1e-9, 1e-9)
    @example(math.nextafter(1e-9, 1.0), 1e-9)
    @example(-0.0, 0.0)
    def test_float_is_zero_exactly_within_tol(self, x, tol):
        s = sign(x, tol)
        if abs(x) <= tol:
            assert s == 0
        else:
            assert s == (1 if x > 0 else -1)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(exact_scalars, st.floats(allow_nan=False)))
    def test_tol_zero_is_the_literal_sign(self, x):
        assert sign(x, 0.0) == sign(x) == literal_sign(x)

    def test_float_tol_is_the_only_1e9_constant(self):
        from flatsurfkit import delaunay, isodelaunay, surface, symmetry

        for mod in (delaunay, isodelaunay, surface, symmetry):
            names = [k for k, v in vars(mod).items() if isinstance(v, float) and v == 1e-9]
            assert names == ["FLOAT_TOL"], mod.__name__
            assert mod.FLOAT_TOL is numeric.FLOAT_TOL

    def test_no_function_takes_an_exact_flag(self):
        # A scalar's type says whether it is exact; no caller passes it along.
        import importlib
        import inspect
        import pkgutil

        import flatsurfkit

        names = [m.name for m in pkgutil.iter_modules(flatsurfkit.__path__) if m.name != "__main__"]
        assert "isodelaunay" in names
        for name in names:
            mod = importlib.import_module(f"flatsurfkit.{name}")
            members = [m for _, m in inspect.getmembers(mod) if getattr(m, "__module__", None) == mod.__name__]
            for m in list(members):
                if inspect.isclass(m):
                    members += [f for f in vars(m).values() if inspect.isfunction(f)]
            for f in members:
                if callable(f):
                    try:
                        params = inspect.signature(f).parameters
                    except (TypeError, ValueError):
                        continue
                    assert "exact" not in params, f"{mod.__name__}.{f.__qualname__}"


class TestMatInv:
    def test_int_matrices_stay_exact(self):
        inv = numeric.mat_inv(((2, 0), (1, 3)))
        assert inv == ((Fraction(1, 2), 0), (Fraction(-1, 6), Fraction(1, 3)))
        assert all(isinstance(x, Fraction) for row in inv for x in row)

    def test_cubic_and_float_matrices(self):
        m = ((ALPHA, CubicNumber(1)), (CubicNumber(0), ONE + ALPHA))
        assert numeric.mat_mul(m, numeric.mat_inv(m)) == ((1, 0), (0, 1))
        assert numeric.mat_inv(((2.0, 0.0), (0.0, 4.0))) == ((0.5, -0.0), (-0.0, 0.25))
