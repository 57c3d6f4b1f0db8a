"""Exact arithmetic in Q(alpha) and the geometric predicates."""

import math
import operator
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatsurfkit import numeric
from flatsurfkit.numeric import (
    ALPHA,
    CubicNumber,
    cross,
    filtered_sign,
    incircle,
    incircle_det,
    incircle_filter,
    orient,
    scalar_from_str,
    scalar_to_str,
    sign,
    vec_sub,
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
        assert ALPHA * (ALPHA * ALPHA) == CubicNumber(1, -1, -1)

    def test_inverse_of_alpha_identity(self):
        # alpha * (1 + alpha + alpha**2) = 1
        assert ALPHA * CubicNumber(1, 1, 1) == ONE

    def test_difference_of_squares(self):
        assert (ONE - ALPHA) * (ONE + ALPHA) == ONE - ALPHA * ALPHA


class TestCubicInv:
    def test_inv_alpha(self):
        assert ALPHA.inverse() == CubicNumber(1, 1, 1)

    def test_inv_one(self):
        assert ONE.inverse() == ONE

    def test_inv_alpha_squared_is_inv_product(self):
        lhs = (ALPHA * ALPHA).inverse()
        rhs = ALPHA.inverse() * ALPHA.inverse()
        assert lhs == rhs
        assert ALPHA * ALPHA * lhs == ONE

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            CubicNumber(0).inverse()


class TestEmbedReal:
    def test_alpha_value(self):
        assert abs(float(ALPHA) - 0.543689) <= 1e-6 + 1e-6

    def test_zero(self):
        assert float(CubicNumber(0)) == 0.0

    def test_inverse_alpha(self):
        # oracle: refine the root independently and invert
        oracle = 1 / float(bisect_alpha(1e-12))
        assert abs(float(CubicNumber(1, 1, 1)) - oracle) < 2e-6

    def test_against_bisection_oracle(self):
        x = CubicNumber(Fraction(3, 7), Fraction(-2, 5), Fraction(1, 3))
        a = bisect_alpha(1e-15)
        oracle = float(Fraction(3, 7) + Fraction(-2, 5) * a + Fraction(1, 3) * a * a)
        assert abs(float(x) - oracle) < 1e-8


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
            emb = float(x)
            if abs(emb) > 2e-12:
                assert sign(x) == (1 if emb > 0 else -1)


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=50)


@settings(max_examples=80, deadline=None)
@given(rationals, rationals, rationals)
def test_mul_inv_roundtrip(c0, c1, c2):
    x = CubicNumber(c0, c1, c2)
    if x.is_zero():
        return
    assert x * x.inverse() == ONE


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


def _canonical(x: CubicNumber):
    return (x.n0, x.n1, x.n2, x.d)


def _coefficients(y):
    return (y.c0, y.c1, y.c2) if isinstance(y, CubicNumber) else (Fraction(y), Fraction(0), Fraction(0))


_fraction_coefficients = st.fractions(min_value=-100, max_value=100, max_denominator=50)
_int_coefficients = st.integers(min_value=-2 ** 200, max_value=2 ** 200)
# CubicNumber operands over d == 1 and over d > 1.
_cubic_operands = st.one_of(
    st.builds(CubicNumber, _int_coefficients, _int_coefficients, _int_coefficients),
    st.builds(CubicNumber, _fraction_coefficients, _fraction_coefficients, _fraction_coefficients)
    .filter(lambda x: x.d > 1),
)
_fast_path_operands = st.one_of(
    st.sampled_from([0, 1, -1, 2 ** 200, -2 ** 200]),
    st.booleans(),
    _fraction_coefficients,
    _cubic_operands,
)


class TestFastPaths:
    """add, sub, mul and == take shortcuts on ints, on d == 1 and on two
    CubicNumbers; each gives the four ints and the hash of CubicNumber(c0,
    c1, c2), the general construction."""

    @settings(max_examples=300, deadline=None)
    @given(x=_cubic_operands, y=_fast_path_operands)
    @example(x=CubicNumber(1, 2, 3), y=True)
    @example(x=CubicNumber(Fraction(1, 2), 0, 1), y=-2 ** 200)
    @example(x=CubicNumber(2 ** 200, -1, 0), y=CubicNumber(-2 ** 200, 1, 0))
    def test_same_canonical_form_as_the_general_construction(self, x, y):
        rx, ry = RefCubic(*_coefficients(x)), RefCubic(*_coefficients(y))
        for got, want in ((x + y, rx + ry), (y + x, rx + ry), (x - y, rx - ry), (y - x, ry - rx),
                          (x * y, rx * ry), (y * x, rx * ry)):
            ref = want.as_cubic()
            assert type(got) is CubicNumber
            assert _canonical(got) == _canonical(ref) and hash(got) == hash(ref)
        equal = rx.c == ry.c
        assert (x == y) is equal and (y == x) is equal and (x != y) is not equal

    def test_integral_rationals_become_ints(self):
        assert numeric.int_if_integral(Fraction(6, 3)) == 2 and type(numeric.int_if_integral(Fraction(6, 3))) is int
        for x in (Fraction(1, 2), CubicNumber(3), 2.0, 7, True):
            assert numeric.int_if_integral(x) is x


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
        for p, q in alpha_convergents(40):
            float(CubicNumber(p, -q))
        assert [float(x) for x in xs] == first


_huge_int = st.integers(min_value=-10 ** 400, max_value=10 ** 400)
_exponent = st.integers(min_value=-400, max_value=400)
# Exact values of magnitude up to 10**400 and down to 10**-400.
_beyond_doubles = st.one_of(
    _huge_int,
    st.builds(lambda n, e: Fraction(n) * Fraction(10) ** e, st.integers(-10 ** 6, 10 ** 6), _exponent),
    st.builds(Fraction, _huge_int, st.integers(min_value=1, max_value=10 ** 400)),
    st.builds(lambda c, e: c * Fraction(10) ** e,
              st.builds(CubicNumber, _fraction_coefficients, _fraction_coefficients, _fraction_coefficients),
              _exponent),
)


class TestToDouble:
    @settings(max_examples=300, deadline=None)
    @given(_beyond_doubles)
    @example(10 ** 400)
    @example(-(10 ** 400))
    @example(Fraction(-(10 ** 400), 3))
    @example(CubicNumber(0, -(10 ** 400)))
    @example(CubicNumber(10 ** 400, -(10 ** 400)))
    @example(Fraction(1, 10 ** 400))
    def test_float_or_infinity_with_the_sign(self, x):
        got = numeric.to_double(x)
        assert not math.isnan(got)
        try:
            want = float(x)
        except OverflowError:
            assert got == math.copysign(math.inf, sign(x))
        else:
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_floats_pass_through(self):
        for x in (0.0, -0.0, 1.5, -1e308, math.inf, -math.inf):
            assert math.copysign(1.0, numeric.to_double(x)) == math.copysign(1.0, x)
            assert numeric.to_double(x) == x
        assert math.isnan(numeric.to_double(math.nan))

    def test_an_infinite_double_is_not_scaled(self):
        assert numeric.scaled_doubles([0.5, -math.inf, 3.0]) is None
        assert numeric.scaled_doubles([0.5, -4.0, 3.0]) == [0.0625, -0.5, 0.375]
        assert numeric._filter_doubles([1, 10 ** 400, Fraction(1, 3)]) is None


# A rational CubicNumber meets exact operands, checked against Fraction; an
# irrational one meets float operands, checked against float(x).  One
# operand of each kind equals x, so == and the order comparisons see ties.
_RATIONAL = CubicNumber(Fraction(3, 7))
_IRRATIONAL = CubicNumber(1, 2, -1)
_MIXED_OPERANDS = [2, Fraction(-5, 3), Fraction(3, 7), 0.75, -2.5, float(_IRRATIONAL)]


class TestMixedOperands:
    @pytest.mark.parametrize("reflected", [False, True], ids=["cubic-first", "cubic-second"])
    @pytest.mark.parametrize("other", _MIXED_OPERANDS, ids=["int", "fraction", "equal-fraction",
                                                              "float", "negative-float", "equal-float"])
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv, operator.eq,
                                    operator.lt, operator.le, operator.gt, operator.ge],
                             ids=lambda op: op.__name__)
    def test_matches_the_oracle(self, op, other, reflected):
        x, value = (_IRRATIONAL, float(_IRRATIONAL)) if isinstance(other, float) else (_RATIONAL, Fraction(3, 7))
        got, want = (op(other, x), op(other, value)) if reflected else (op(x, other), op(value, other))
        if isinstance(want, bool):
            assert got is want
        elif isinstance(other, float):  # mixed arithmetic promotes to float
            assert type(got) is float and got == want
        else:
            assert isinstance(got, CubicNumber) and got == CubicNumber(want)


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


def exact_orient(p1, p2, p3) -> int:
    """orient before the double filter: the sign of the cross product."""
    return sign(cross(vec_sub(p2, p1), vec_sub(p3, p1)))


def exact_incircle(p1, p2, p3, p4) -> int:
    return sign(incircle_det(p1, p2, p3, p4))


def assert_filters_match(points):
    """orient on every triple and incircle on every ordering of four of
    points equal the exact signs, and on every ordering the sign that
    incircle_filter decides is the exact one.  An ordering whose first
    triple is collinear makes incircle raise, but its filter is checked."""
    from itertools import permutations

    for triple in permutations(points, 3):
        assert orient(*triple) == exact_orient(*triple), triple
    for quad in permutations(points, 4):
        want = exact_incircle(*quad)
        f = numeric._filter_doubles([x for p in quad for x in p])
        if f is not None:
            assert incircle_filter(f) in (0, want), quad
        if exact_orient(*quad[:3]) == 0:
            with pytest.raises(ValueError):
                incircle(*quad)
        else:
            assert incircle(*quad) == want, quad


def scaled(points, k):
    return [(x * k, y * k) for x, y in points]


_rat = st.fractions(min_value=-6, max_value=6, max_denominator=9)
_nonzero_rat = _rat.filter(lambda x: x != 0)
_cubic = st.builds(CubicNumber, _rat, _rat, _rat)
# Mixed int, Fraction and CubicNumber coordinates.
_coord = st.one_of(st.integers(-6, 6), _rat, _cubic)
_point = st.tuples(_coord, _coord)
_exact_matrix = st.one_of(
    st.builds(lambda k: ((1, k), (0, 1)), _rat),
    st.builds(lambda k: ((1, 0), (k, 1)), _cubic),
    # Rotation by a Pythagorean angle: cos, sin = (1 - t**2, 2t) / (1 + t**2).
    st.builds(lambda t: ((
        (1 - t * t) / (1 + t * t), -2 * t / (1 + t * t)),
        (2 * t / (1 + t * t), (1 - t * t) / (1 + t * t))), _rat),
)
# Scales by 2**-e: 2**-600 sends every product below the doubles; around
# 2**-265 the incircle's degree-4 products, and around 2**-530 orient's
# degree-2 products, are subnormal, where rounding noise is nonzero but
# below every relative bound.
_tiny_scale = st.one_of(st.just(600), st.integers(255, 275), st.integers(520, 540))


def circle_points(center, radius, ts):
    """Points of the circle at the rational angles ts (all exact)."""
    cx, cy = center
    return [(cx + radius * (1 - t * t) / (1 + t * t), cy + radius * 2 * t / (1 + t * t)) for t in ts]


class TestFilteredPredicates:
    """orient and incircle take their signs in doubles under a proven
    bound; on every input below they equal the exact signs."""

    A = ALPHA
    # The AY square: its four corners are cocircular.
    AY_SQUARE = [(CubicNumber(0), CubicNumber(0)), (A * A, A), (A * A - A, A * A + A), (-A, A * A)]

    @settings(max_examples=60, deadline=None)
    @given(center=_point, radius=st.one_of(_nonzero_rat, _cubic.filter(lambda x: not x.is_zero())),
           ts=st.lists(_rat, min_size=4, max_size=4, unique=True))
    def test_cocircular_quadruples(self, center, radius, ts):
        pts = circle_points(center, radius, ts)
        assert all(exact_incircle(*quad) == 0 for quad in [pts, pts[::-1]])
        assert_filters_match(pts)

    @settings(max_examples=40, deadline=None)
    @given(m=_exact_matrix, shift=_point)
    def test_ay_square_under_exact_maps(self, m, shift):
        # Rotations keep the square inscribed; shears do not.
        pts = [(m[0][0] * x + m[0][1] * y + shift[0], m[1][0] * x + m[1][1] * y + shift[1])
               for x, y in self.AY_SQUARE]
        if m[0][1] == -m[1][0]:
            assert exact_incircle(*pts) == 0
        assert_filters_match(pts)

    @settings(max_examples=60, deadline=None)
    @given(center=_point, radius=st.one_of(_nonzero_rat, _cubic.filter(lambda x: not x.is_zero())),
           ts=st.lists(_rat, min_size=4, max_size=4, unique=True),
           k=st.integers(-3, 3).filter(bool), along=st.sampled_from([(1, 0), (0, 1), (ALPHA, 1)]))
    def test_points_just_off_the_circle(self, center, radius, ts, k, along):
        pts = circle_points(center, radius, ts)
        d = Fraction(k, 2 ** 40)
        pts[3] = (pts[3][0] + d * along[0], pts[3][1] + d * along[1])
        assert_filters_match(pts)

    @settings(max_examples=60, deadline=None)
    @given(p=_point, d=_point, lam=_coord, q=_point)
    def test_collinear_triples(self, p, d, lam, q):
        pts = [p, (p[0] + d[0], p[1] + d[1]), (p[0] + lam * d[0], p[1] + lam * d[1])]
        assert orient(*pts) == exact_orient(*pts) == 0
        assert_filters_match(pts + [q])

    @settings(max_examples=25, deadline=None)
    @given(pts=st.lists(_point, min_size=4, max_size=4), cocircular=st.booleans(),
           ts=st.lists(_rat, min_size=4, max_size=4, unique=True))
    def test_overflowing_coordinates(self, pts, cocircular, ts):
        # Fractions near 10**400 have no double: the exact signs decide.
        if cocircular:
            pts = circle_points(pts[0], Fraction(1, 3), ts)
        big = [(Fraction(10 ** 400) + x, Fraction(10 ** 400) * y) for x, y in pts]
        assert numeric._filter_doubles([x for p in big for x in p]) is None
        assert_filters_match(big)

    @settings(max_examples=80, deadline=None)
    @given(center=_point, radius=st.one_of(_nonzero_rat, _cubic.filter(lambda x: not x.is_zero())),
           ts=st.lists(_rat, min_size=4, max_size=4, unique=True), e=_tiny_scale, collinear=st.booleans())
    def test_underflowing_coordinates(self, center, radius, ts, e, collinear):
        pts = circle_points(center, radius, ts)
        if collinear:
            d = vec_sub(pts[1], pts[0])
            pts[2] = (pts[0][0] + ALPHA * d[0], pts[0][1] + ALPHA * d[1])
        assert_filters_match(scaled(pts, Fraction(1, 2 ** e)))

    @settings(max_examples=60, deadline=None)
    @given(pts=st.lists(_point, min_size=4, max_size=4))
    def test_mixed_coordinates(self, pts):
        assert_filters_match(pts)

    def test_float_points_keep_their_float_signs(self, monkeypatch):
        # Nearly collinear and nearly cocircular float points, some with int
        # coordinates: the literal sign of the float expression, not a
        # filtered one.
        import random

        def fail(coords):
            raise AssertionError("filtered a float point")

        monkeypatch.setattr(numeric, "_filter_doubles", fail)
        rnd = random.Random(5)
        for _ in range(300):
            x, y, t = rnd.uniform(-1, 1), rnd.uniform(-1, 1), rnd.uniform(0.1, 3)
            pts = [(x, y), (x + 0.1 * t, y + 0.3 * t), (x + 0.7 * t, y + 2.1 * t)]
            assert orient(*pts) == exact_orient(*pts)
            assert orient((0, 0), (1, 3), (t, 3 * t)) == exact_orient((0, 0), (1, 3), (t, 3 * t))
            circ = [(math.cos(a), math.sin(a)) for a in (0.3, 1.1 * t, 2.5, 4.0 + t)]
            assert incircle(*circ) == exact_incircle(*circ)

    def test_the_filter_decides_clear_signs(self, monkeypatch):
        # Off every tie the doubles decide: the exact values are not built.
        def fail(*args):
            raise AssertionError("exact fallback")

        pts = [(CubicNumber(0), CubicNumber(0)), (ALPHA, CubicNumber(0)), (ALPHA, ALPHA), (Fraction(1, 3), 2 * ALPHA)]
        monkeypatch.setattr(numeric, "incircle_det", fail)
        monkeypatch.setattr(numeric, "sign", fail)
        assert orient(*pts[:3]) == 1
        assert incircle(*pts) == -1

    def test_filtered_sign_bound_is_strict(self):
        eps, mag = 2.0 ** -48, 3.0
        t = eps * mag + numeric._TINY
        assert filtered_sign(t, mag, eps) == filtered_sign(-t, mag, eps) == 0
        assert filtered_sign(math.nextafter(t, 1.0), mag, eps) == 1
        assert filtered_sign(math.nextafter(-t, -1.0), mag, eps) == -1
        assert filtered_sign(0.0, 0.0, eps) == 0
        assert filtered_sign(math.inf, math.inf, eps) == 0
        assert filtered_sign(math.nan, 1.0, eps) == filtered_sign(1.0, math.nan, eps) == 0


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


class TestSignedStr:
    @pytest.mark.parametrize("x, want", [
        (-5.551115123125783e-17, "+0.000000"),
        (-0.0, "+0.000000"),
        (0.0, "+0.000000"),
        (-4.9e-7, "+0.000000"),
        (-5.1e-7, "-0.000001"),
        (1.0, "+1.000000"),
        (-1.0, "-1.000000"),
        (-0.25, "-0.250000"),
    ])
    def test_six_places(self, x, want):
        assert numeric.signed_str(x) == want

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6))
    def test_only_the_sign_of_a_zero_changes(self, x):
        plain, got = f"{x:+.6f}", numeric.signed_str(x)
        assert got == (plain if float(plain) != 0 else "+0.000000")


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
