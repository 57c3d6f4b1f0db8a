"""Exact and floating-point scalar arithmetic for flat-surface geometry.

The scalar tower has three levels:

* ``Fraction`` (arbitrary-precision rationals, always exact),
* ``CubicNumber`` -- elements c0 + c1*alpha + c2*alpha**2 of the cubic field
  Q(alpha), where alpha ~ 0.543689 is the real root of x**3 + x**2 + x - 1,
* ``float`` for inexact data.

Mixed arithmetic promotes upward (rational -> cubic -> float); exact values
never degrade to float unless a float operand is involved.  All geometric
predicates (orientation, incircle) are generic over the tower and decide
signs exactly on exact inputs.

``CubicNumber`` stores three integer numerators over one positive common
denominator and does its arithmetic on Python ints.  Its sign comes from a
double-precision evaluation with a proven error bound, backed by the exact
sign of the field norm when the doubles cannot decide; its float value
comes from a fixed-point alpha computed once at import.  Neither changes
any module state.

Sign policy: every decision that other modules make on a scalar goes
through ``sign(x, tol)``, and the scalar's type picks the rule.  Exact
scalars (int, Fraction, CubicNumber) get their exact sign and ignore tol;
a float is 0 when |x| <= tol and otherwise has its literal sign.  Callers
pass ``FLOAT_TOL`` (1e-9) unless a test needs its own scale, and do not
fork a decision into an exact and a float branch themselves.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Tuple, Union

Rational = Fraction

# alpha to _ALPHA_BITS fractional bits: _ALPHA_FIX = floor(alpha * 2**_ALPHA_BITS).
_ALPHA_BITS = 320


def _alpha_fixed(bits: int) -> int:
    """floor(alpha * 2**bits), by integer bisection on the minimal polynomial.

    x**3 + x**2 + x - 1 is increasing, negative at 0 and positive at 1; lo
    keeps a negative value and hi a positive one (alpha is irrational).
    """
    one = 1 << bits
    one3 = one * one * one
    lo, hi = 0, one
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        # mid**3 + mid**2 * one + mid * one**2 - one**3, the scaled polynomial
        if mid * (mid * (mid + one) + one * one) < one3:
            lo = mid
        else:
            hi = mid
    return lo


_ALPHA_FIX = _alpha_fixed(_ALPHA_BITS)
_ALPHA_FIX2 = _ALPHA_FIX * _ALPHA_FIX

# The sign filter.  Coefficients are shifted below 2**_FILTER_BITS so that
# every double stays finite.  With u = 2**-53, the roundings fl(n_i), the
# constants _ALPHA_F and _ALPHA2_F (each within u(1 + 2**-250) of alpha and
# alpha**2, relatively), two products and two sums put the computed value
# within about 5u * (|n0| + |n1| alpha + |n2| alpha**2) of the exact value,
# which is below 6u times the computed magnitude sum; the filter tests
# against 8u times it.  A shift floors each numerator, adding less than
# 1 + alpha + alpha**2 < 2 to the error.
_FILTER_BITS = 1000
_FILTER_EPS = 2.0 ** -50
_ALPHA_F = _ALPHA_FIX / (1 << _ALPHA_BITS)
_ALPHA2_F = _ALPHA_FIX2 / (1 << (2 * _ALPHA_BITS))


def _adjugate_row(n0: int, n1: int, n2: int) -> Tuple[int, int, int, int]:
    """(y0, y1, y2, norm) for t = n0 + n1*alpha + n2*alpha**2.

    The multiplication-by-t matrix in the basis 1, alpha, alpha**2 has the
    columns t, t*alpha and t*alpha**2 (reduced by alpha**3 = 1 - alpha -
    alpha**2).  The y_i are the cofactors of its first row, so that
    t * (y0 + y1*alpha + y2*alpha**2) = norm, its determinant.
    """
    m10, m11, m12 = n1, n0 - n2, 2 * n2 - n1
    m20, m21, m22 = n2, n1 - n2, n0 - n1
    y0 = m11 * m22 - m12 * m21
    y1 = m12 * m20 - m10 * m22
    y2 = m10 * m21 - m11 * m20
    return y0, y1, y2, n0 * y0 + n2 * y1 + (n1 - n2) * y2


class _AlphaInterval:
    """Isolating interval for alpha, refined by bisection on demand.

    The minimal polynomial x**3 + x**2 + x - 1 is negative at the left
    endpoint and positive at the right, so the interval always isolates
    the real root; each refinement halves the width.
    """

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        self.lo = lo
        self.hi = hi

    @staticmethod
    def _minpoly(x: Fraction) -> Fraction:
        return x * x * x + x * x + x - 1

    def refine(self) -> None:
        mid = (self.lo + self.hi) / 2
        if self._minpoly(mid) < 0:
            self.lo = mid
        else:
            self.hi = mid


# The shared starting interval; embed_real refines private copies of it.
_ALPHA = _AlphaInterval(Fraction(_ALPHA_FIX, 1 << _ALPHA_BITS), Fraction(_ALPHA_FIX + 1, 1 << _ALPHA_BITS))


def _make(n0: int, n1: int, n2: int, d: int) -> "CubicNumber":
    """(n0 + n1*alpha + n2*alpha**2) / d in canonical form (d != 0)."""
    g = gcd(n0, n1, n2, d)
    if d < 0:
        g = -g
    if g != 1:
        n0 //= g
        n1 //= g
        n2 //= g
        d //= g
    return _raw(n0, n1, n2, d)


def _scale(x: "CubicNumber", num: int, den: int) -> "CubicNumber":
    """x * num / den for ints num and den > 0."""
    return _make(x.n0 * num, x.n1 * num, x.n2 * num, x.d * den)


def _raw(n0: int, n1: int, n2: int, d: int) -> "CubicNumber":
    x = object.__new__(CubicNumber)
    x.n0 = n0
    x.n1 = n1
    x.n2 = n2
    x.d = d
    return x


class CubicNumber:
    """Exact element c0 + c1*alpha + c2*alpha**2 of Q(alpha).

    Stored as (n0 + n1*alpha + n2*alpha**2) / d with ints n0, n1, n2 and
    d > 0, reduced so that gcd(n0, n1, n2, d) = 1; the form is canonical,
    so equality compares the four ints.  The fields must not be mutated.
    c0, c1, c2 are the coefficients as Fractions.  Products reduce by the
    minimal polynomial of alpha.

    sign() first evaluates n0 + n1*alpha + n2*alpha**2 in doubles and
    accepts the result when it exceeds the rounding error bound (see
    _FILTER_EPS).  Otherwise it takes the sign of the norm, the integer
    determinant of the multiplication matrix: the other two embeddings of
    Q(alpha) are complex conjugates, so the norm is the real value times
    |sigma(x)|**2 > 0 and has the same sign.
    """

    __slots__ = ("n0", "n1", "n2", "d")

    def __init__(self, c0=0, c1=0, c2=0):
        f0, f1, f2 = Fraction(c0), Fraction(c1), Fraction(c2)
        # Over the lcm of the reduced denominators the numerators share no
        # factor with d, so the form is canonical without a gcd.
        d = lcm(f0.denominator, f1.denominator, f2.denominator)
        self.n0 = f0.numerator * (d // f0.denominator)
        self.n1 = f1.numerator * (d // f1.denominator)
        self.n2 = f2.numerator * (d // f2.denominator)
        self.d = d

    @property
    def c0(self) -> Fraction:
        return Fraction(self.n0, self.d)

    @property
    def c1(self) -> Fraction:
        return Fraction(self.n1, self.d)

    @property
    def c2(self) -> Fraction:
        return Fraction(self.n2, self.d)

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def alpha() -> "CubicNumber":
        return _raw(0, 1, 0, 1)

    @staticmethod
    def coerce(x) -> "CubicNumber":
        if isinstance(x, CubicNumber):
            return x
        if isinstance(x, int):
            return _raw(int(x), 0, 0, 1)
        if isinstance(x, Fraction):
            return _raw(x.numerator, 0, 0, x.denominator)
        raise TypeError(f"cannot coerce {type(x).__name__} to CubicNumber")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, float):
            return float(self) + other
        other = CubicNumber.coerce(other)
        d, e = self.d, other.d
        if d == e:
            return _make(self.n0 + other.n0, self.n1 + other.n1, self.n2 + other.n2, d)
        return _make(self.n0 * e + other.n0 * d, self.n1 * e + other.n1 * d, self.n2 * e + other.n2 * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self.n0, -self.n1, -self.n2, self.d)

    def __sub__(self, other):
        if isinstance(other, float):
            return float(self) - other
        return self + (-CubicNumber.coerce(other))

    def __rsub__(self, other):
        if isinstance(other, float):
            return other - float(self)
        return CubicNumber.coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, float):
            return float(self) * other
        other = CubicNumber.coerce(other)
        a0, a1, a2 = self.n0, self.n1, self.n2
        b0, b1, b2 = other.n0, other.n1, other.n2
        if not (b1 or b2):
            return _scale(self, b0, other.d)
        # Convolution up to alpha**4, reduced by alpha**3 = 1 - alpha -
        # alpha**2 and alpha**4 = 2*alpha - 1.
        p3 = a1 * b2 + a2 * b1
        p4 = a2 * b2
        return _make(
            a0 * b0 + p3 - p4,
            a0 * b1 + a1 * b0 - p3 + 2 * p4,
            a0 * b2 + a1 * b1 + a2 * b0 - p3,
            self.d * other.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "CubicNumber":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        n0, n1, n2, d = self.n0, self.n1, self.n2, self.d
        if not (n1 or n2):
            if not n0:
                raise ZeroDivisionError("inverse of zero in Q(alpha)")
            return _make(d, 0, 0, n0)
        # x = t / d with t * y = norm, so 1/x = d * y / norm.
        y0, y1, y2, norm = _adjugate_row(n0, n1, n2)
        return _make(d * y0, d * y1, d * y2, norm)

    def __truediv__(self, other):
        if isinstance(other, float):
            return float(self) / other
        return self * CubicNumber.coerce(other).inverse()

    def __rtruediv__(self, other):
        if isinstance(other, float):
            return other / float(self)
        other = CubicNumber.coerce(other)  # rational: a cubic divisor calls __truediv__
        return _scale(self.inverse(), other.n0, other.d)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = CubicNumber(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- order, sign, embedding ----------------------------------------------

    def is_zero(self) -> bool:
        return not (self.n0 or self.n1 or self.n2)

    def is_rational(self) -> bool:
        return not (self.n1 or self.n2)

    def _value_interval(self, iv: _AlphaInterval) -> Tuple[Fraction, Fraction]:
        lo, hi = iv.lo, iv.hi
        lo2, hi2 = lo * lo, hi * hi
        c0, c1, c2 = self.c0, self.c1, self.c2
        v_lo = v_hi = c0
        if c1 >= 0:
            v_lo += c1 * lo
            v_hi += c1 * hi
        else:
            v_lo += c1 * hi
            v_hi += c1 * lo
        if c2 >= 0:
            v_lo += c2 * lo2
            v_hi += c2 * hi2
        else:
            v_lo += c2 * hi2
            v_hi += c2 * lo2
        return v_lo, v_hi

    def sign(self) -> int:
        """Exact sign of the real embedding (-1, 0, or +1)."""
        n0, n1, n2 = self.n0, self.n1, self.n2
        if not (n1 or n2):
            return (n0 > 0) - (n0 < 0)
        shift = (abs(n0) | abs(n1) | abs(n2)).bit_length() - _FILTER_BITS
        slack = 0.0
        if shift > 0:
            n0, n1, n2 = n0 >> shift, n1 >> shift, n2 >> shift
            slack = 2.0
        f0 = float(n0)
        t1 = float(n1) * _ALPHA_F
        t2 = float(n2) * _ALPHA2_F
        v = f0 + t1 + t2
        bound = _FILTER_EPS * (abs(f0) + abs(t1) + abs(t2)) + slack
        if v > bound:
            return 1
        if v < -bound:
            return -1
        # x is not rational, hence nonzero, and its norm has its sign.
        return 1 if _adjugate_row(self.n0, self.n1, self.n2)[3] > 0 else -1

    def embed_real(self, eps: float) -> float:
        """Real embedding to within eps (alpha -> 0.543689...)."""
        if eps <= 0:
            raise ValueError("eps must be positive")
        if self.is_zero():
            return 0.0
        target = Fraction(eps)
        iv = _AlphaInterval(_ALPHA.lo, _ALPHA.hi)
        while True:
            v_lo, v_hi = self._value_interval(iv)
            if v_hi - v_lo < target:
                return float((v_lo + v_hi) / 2)
            iv.refine()

    def __float__(self) -> float:
        """The real embedding, within one ulp."""
        n0, n1, n2, d = self.n0, self.n1, self.n2, self.d
        if not (n1 or n2):
            return n0 / d
        bits, a, a2 = _ALPHA_BITS, _ALPHA_FIX, _ALPHA_FIX2
        while True:
            v = (n0 << (2 * bits)) + ((n1 * a) << bits) + n2 * a2
            # alpha * 2**bits - a lies in [0, 1), so v is within err of
            # x * d * 2**(2 * bits); accept a relative error below 2**-60.
            err = (abs(n1) + 2 * abs(n2)) << bits
            if abs(v) >> 60 > err:
                return v / (d << (2 * bits))
            bits *= 2
            a = _alpha_fixed(bits)
            a2 = a * a

    # -- comparisons / hashing -----------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, float):
            return float(self) == other
        if isinstance(other, (int, Fraction, CubicNumber)):
            other = CubicNumber.coerce(other)
            return (self.n0 == other.n0 and self.n1 == other.n1 and self.n2 == other.n2
                    and self.d == other.d)
        return NotImplemented

    def __hash__(self):
        if self.n1 or self.n2:
            return hash((self.n0, self.n1, self.n2, self.d))
        return hash(Fraction(self.n0, self.d))  # as the equal int or Fraction

    def _cmp(self, other) -> int:
        return (self - other).sign()

    def __lt__(self, other):
        if isinstance(other, float):
            return float(self) < other
        return self._cmp(other) < 0

    def __le__(self, other):
        if isinstance(other, float):
            return float(self) <= other
        return self._cmp(other) <= 0

    def __gt__(self, other):
        if isinstance(other, float):
            return float(self) > other
        return self._cmp(other) > 0

    def __ge__(self, other):
        if isinstance(other, float):
            return float(self) >= other
        return self._cmp(other) >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __repr__(self):
        return f"CubicNumber({self.c0}, {self.c1}, {self.c2})"


ALPHA = CubicNumber.alpha()

Scalar = Union[int, Fraction, CubicNumber, float]
Point = Tuple[Scalar, Scalar]


def cubic_mul(x: CubicNumber, y: CubicNumber) -> CubicNumber:
    return CubicNumber.coerce(x) * CubicNumber.coerce(y)


def cubic_inv(x: CubicNumber) -> CubicNumber:
    return CubicNumber.coerce(x).inverse()


def embed_real(x: CubicNumber, eps: float) -> float:
    return CubicNumber.coerce(x).embed_real(eps)


# The tolerance of float decisions: cocircular hinges, wall sides, matching
# vectors, orthogonal derivatives and cone angles.
FLOAT_TOL = 1e-9


def is_exact(x: Scalar) -> bool:
    return not isinstance(x, float)


def sign(x: Scalar, tol: float = 0.0) -> int:
    """Sign of a scalar (-1, 0 or +1).

    Exact scalars get their exact sign and ignore tol.  A float is 0 when
    |x| <= tol; the default tol = 0 gives its literal sign.
    """
    if isinstance(x, CubicNumber):
        return x.sign()
    if tol and isinstance(x, float) and abs(x) <= tol:
        return 0
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def coefficients(x: Scalar) -> Tuple[Fraction, Fraction, Fraction]:
    """(c0, c1, c2) with x = c0 + c1*alpha + c2*alpha**2, for exact x."""
    if isinstance(x, CubicNumber):
        return (x.c0, x.c1, x.c2)
    return (Fraction(x), Fraction(0), Fraction(0))


def exact_divisor(x: Scalar) -> Scalar:
    """x as a divisor that keeps quotients exact: an int becomes a Fraction,
    as int / int would be a float."""
    return Fraction(x) if isinstance(x, int) else x


def to_float(x: Scalar) -> float:
    return float(x)


# -- serialization ------------------------------------------------------------


def scalar_to_str(x: Scalar) -> str:
    if isinstance(x, CubicNumber):
        return f"[{x.c0},{x.c1},{x.c2}]"
    if isinstance(x, (int, Fraction)):
        f = Fraction(x)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    return repr(float(x))


def scalar_from_str(s: str) -> Scalar:
    s = s.strip()
    if s.startswith("["):
        parts = s[1:-1].split(",")
        if len(parts) != 3:
            raise ValueError(f"bad cubic literal: {s!r}")
        return CubicNumber(*(Fraction(p) for p in parts))
    if any(ch in s for ch in ".eE") and "/" not in s:
        return float(s)
    return Fraction(s)


# -- small linear algebra over the tower ---------------------------------------

Vec2 = Tuple[Scalar, Scalar]
Mat2 = Tuple[Tuple[Scalar, Scalar], Tuple[Scalar, Scalar]]


def vec_add(a: Vec2, b: Vec2) -> Vec2:
    return (a[0] + b[0], a[1] + b[1])

def vec_sub(a: Vec2, b: Vec2) -> Vec2:
    return (a[0] - b[0], a[1] - b[1])

def vec_neg(a: Vec2) -> Vec2:
    return (-a[0], -a[1])

def vec_scale(c: Scalar, a: Vec2) -> Vec2:
    return (c * a[0], c * a[1])

def dot(a: Vec2, b: Vec2) -> Scalar:
    return a[0] * b[0] + a[1] * b[1]

def cross(a: Vec2, b: Vec2) -> Scalar:
    return a[0] * b[1] - a[1] * b[0]

def vectors_match(v: Vec2, w: Vec2) -> bool:
    """v == w: exactly on exact coordinates, within FLOAT_TOL on floats."""
    return sign(v[0] - w[0], FLOAT_TOL) == 0 and sign(v[1] - w[1], FLOAT_TOL) == 0

def mat_vec(m: Mat2, v: Vec2) -> Vec2:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])

def mat_mul(a: Mat2, b: Mat2) -> Mat2:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )

def mat_det(m: Mat2) -> Scalar:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]

def mat_inv(m: Mat2) -> Mat2:
    d = exact_divisor(mat_det(m))
    if sign(d) == 0:
        raise ZeroDivisionError("singular 2x2 matrix")
    return (
        (m[1][1] / d, -m[0][1] / d),
        (-m[1][0] / d, m[0][0] / d),
    )

def mat_transpose(m: Mat2) -> Mat2:
    return ((m[0][0], m[1][0]), (m[0][1], m[1][1]))

IDENTITY: Mat2 = ((1, 0), (0, 1))


# -- geometric predicates -------------------------------------------------------


def orient(p1: Point, p2: Point, p3: Point) -> int:
    """Orientation of the triple: +1 counterclockwise, -1 clockwise, 0 collinear."""
    return sign(cross(vec_sub(p2, p1), vec_sub(p3, p1)))


def incircle(p1: Point, p2: Point, p3: Point, p4: Point) -> int:
    """Incircle test against the circumcircle of counterclockwise (p1, p2, p3).

    Returns +1 if p4 is strictly inside, 0 if cocircular, -1 if strictly
    outside; the sign of the lifted 4x4 determinant with rows
    (x, y, x**2 + y**2, 1).  Raises ValueError when p1, p2, p3 are collinear.
    """
    if orient(p1, p2, p3) == 0:
        raise ValueError("incircle: first three points are collinear")
    return sign(incircle_det(p1, p2, p3, p4))


def incircle_det(p1: Point, p2: Point, p3: Point, p4: Point) -> Scalar:
    """The lifted incircle determinant itself (not just its sign)."""
    adx = p1[0] - p4[0]
    ady = p1[1] - p4[1]
    bdx = p2[0] - p4[0]
    bdy = p2[1] - p4[1]
    cdx = p3[0] - p4[0]
    cdy = p3[1] - p4[1]
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    return (
        alift * (bdx * cdy - cdx * bdy)
        - blift * (adx * cdy - cdx * ady)
        + clift * (adx * bdy - bdx * ady)
    )
