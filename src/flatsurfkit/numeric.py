"""Exact and floating-point scalar arithmetic for flat-surface geometry.

The scalar tower has three levels:

* ``Fraction`` (arbitrary-precision rationals, always exact),
* ``CubicNumber`` -- elements c0 + c1*alpha + c2*alpha**2 of the cubic field
  Q(alpha), where alpha ~ 0.543689 is the real root of x**3 + x**2 + x - 1,
* ``float`` for inexact data.

Mixed arithmetic promotes upward (rational -> cubic -> float); exact values
never degrade to float unless a float operand is involved.  All geometric
predicates (orientation, incircle) are generic over the tower, and their
signs on exact inputs are exact, taken in doubles where a proven bound
separates the value from 0, else exactly (see filtered_sign).

``CubicNumber`` stores three integer numerators over one positive common
denominator and does its arithmetic on Python ints.  Its sign comes from a
double-precision evaluation with a proven error bound, backed by the exact
sign of the field norm when the doubles cannot decide.  Its real value
is ``float(x)``, within one ulp, from a fixed-point alpha computed once at
import.  Neither changes any module state.  The product and the sign also
work on bare int triples of Z[alpha] (_zmul, _zsign), which
exact_wall_form uses to compute the iso-Delaunay wall of an exact hinge
without making a CubicNumber until the normalized coefficients.

Sign policy: every decision that other modules make on a scalar goes
through ``sign(x, tol)``, and the scalar's type picks the rule.  Exact
scalars (int, Fraction, CubicNumber) get their exact sign and ignore tol;
a float is 0 when |x| <= tol and otherwise has its literal sign.  Callers
pass ``FLOAT_TOL`` (1e-9) unless a test needs its own scale, and do not
fork a decision into an exact and a float branch themselves.  An exact
value's double is ``to_double(x)``: beyond the double range it is the
infinity with x's sign, on which every double filter is undecided
(scaled_doubles gives None, filtered_sign 0), so the exact sign decides.
"""

from __future__ import annotations

from fractions import Fraction
from math import copysign, frexp, gcd, inf, isfinite, lcm, ldexp
from typing import Iterator, List, Optional, Sequence, Tuple, Union

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


# Unused here; perfbench/tracer.py counts refine() and smoke.py needs that count until ROADMAP 5(b) drops both.
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


def _zmul(a: Tuple[int, int, int], b: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """The product of a0 + a1*alpha + a2*alpha**2 and b0 + b1*alpha +
    b2*alpha**2 in Z[alpha], as an int triple.

    The convolution runs up to alpha**4 and is reduced by alpha**3 = 1 -
    alpha - alpha**2 and alpha**4 = 2*alpha - 1.  CubicNumber.__mul__ and
    exact_wall_form both multiply through here.
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    p3 = a1 * b2 + a2 * b1
    p4 = a2 * b2
    return (a0 * b0 + p3 - p4, a0 * b1 + a1 * b0 - p3 + 2 * p4, a0 * b2 + a1 * b1 + a2 * b0 - p3)


def _zsign(t: Tuple[int, int, int]) -> int:
    """The exact sign of t0 + t1*alpha + t2*alpha**2 for ints t_i (see
    CubicNumber)."""
    n0, n1, n2 = t
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
    # t is not rational, hence nonzero, and its norm has its sign.
    return 1 if _adjugate_row(*t)[3] > 0 else -1


def _make(n0: int, n1: int, n2: int, d: int) -> "CubicNumber":
    """(n0 + n1*alpha + n2*alpha**2) / d in canonical form (d != 0)."""
    if d == 1:
        return _raw(n0, n1, n2, 1)
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
    minimal polynomial of alpha.  The fast paths (an int added or
    subtracted without a coercion, the gcd skipped over d = 1, differences
    taken directly on the four ints) give the same canonical four ints as
    the general construction.

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
        if not isinstance(other, CubicNumber):
            if isinstance(other, int):
                # gcd(n0 + k*d, n1, n2, d) = gcd(n0, n1, n2, d) = 1: canonical as is.
                return _raw(self.n0 + other * self.d, self.n1, self.n2, self.d)
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
        if not isinstance(other, CubicNumber):
            if isinstance(other, int):
                return _raw(self.n0 - other * self.d, self.n1, self.n2, self.d)
            if isinstance(other, float):
                return float(self) - other
            other = CubicNumber.coerce(other)
        d, e = self.d, other.d
        if d == e:
            return _make(self.n0 - other.n0, self.n1 - other.n1, self.n2 - other.n2, d)
        return _make(self.n0 * e - other.n0 * d, self.n1 * e - other.n1 * d, self.n2 * e - other.n2 * d, d * e)

    def __rsub__(self, other):
        # other is not a CubicNumber: that case is other.__sub__.
        if isinstance(other, int):
            return _raw(other * self.d - self.n0, -self.n1, -self.n2, self.d)
        if isinstance(other, float):
            return other - float(self)
        return CubicNumber.coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, float):
            return float(self) * other
        other = CubicNumber.coerce(other)
        if not (other.n1 or other.n2):
            return _scale(self, other.n0, other.d)
        n0, n1, n2 = _zmul((self.n0, self.n1, self.n2), (other.n0, other.n1, other.n2))
        return _make(n0, n1, n2, self.d * other.d)

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

    def sign(self) -> int:
        """Exact sign of the real embedding (-1, 0, or +1)."""
        return _zsign((self.n0, self.n1, self.n2))

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
        if not isinstance(other, CubicNumber):
            if isinstance(other, float):
                return float(self) == other
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = CubicNumber.coerce(other)
        return (self.n0 == other.n0 and self.n1 == other.n1 and self.n2 == other.n2
                and self.d == other.d)

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


ALPHA = _raw(0, 1, 0, 1)

Scalar = Union[int, Fraction, CubicNumber, float]
Point = Tuple[Scalar, Scalar]


# The tolerance of float decisions: cocircular hinges, wall sides, matching
# vectors and cone angles.
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


def int_if_integral(x: Scalar) -> Scalar:
    """x as an int when it is a Fraction of denominator 1, else x itself.

    The int has the same value, == and hash, and does its arithmetic
    without a Fraction's gcd.
    """
    return x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x


# -- serialization ------------------------------------------------------------


def scalar_to_str(x: Scalar) -> str:
    if isinstance(x, CubicNumber):
        return f"[{x.c0},{x.c1},{x.c2}]"
    if isinstance(x, (int, Fraction)):
        f = Fraction(x)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    return repr(float(x))


def complex_str(re, im, spec: str = "") -> str:
    """re + |im|i, or re - |im|i when im's sign bit is set (-0.0 too), each part formatted by spec."""
    return f"{re:{spec}} {'-' if copysign(1.0, im) < 0 else '+'} {abs(im):{spec}}i"


def signed_str(x) -> str:
    """x to six decimals with its sign, where a value that rounds to 0
    (-5.55e-17 or -0.0 too) is +0.000000, as exact 0 is."""
    s = f"{x:+.6f}"
    return s if s.strip("+-0.") else "+" + s[1:]


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
    """v == w: exactly on exact coordinates; on floats, each coordinate of
    v - w within FLOAT_TOL times the larger of |v| and |w| (max-norm), so
    that the test does not depend on the scale of the surface."""
    d0, d1 = v[0] - w[0], v[1] - w[1]
    tol = 0.0
    if not (is_exact(d0) and is_exact(d1)):
        tol = FLOAT_TOL * max(abs(float(x)) for x in (v[0], v[1], w[0], w[1]))
    return sign(d0, tol) == 0 and sign(d1, tol) == 0

def cross_sign(a: Vec2, b: Vec2) -> int:
    """sign(cross(a, b)): exact on exact vectors.  On float ones it is taken
    on the doubles of each vector scaled by its own power of two
    (scaled_points), which keeps the sign and makes it independent of the
    vectors' scales; 0 where a vector has no finite nonzero doubles."""
    if all(map(is_exact, a + b)):
        return sign(cross(a, b))
    da, db = scaled_points((a,)), scaled_points((b,))
    return 0 if da is None or db is None else sign(cross(da[0], db[0]))

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

# The double filters.  filtered_sign(x, mag, eps) takes the sign of a double
# x that approximates an exact value when |x| > eps * mag + _TINY.  The
# caller derives eps so that eps * mag bounds the rounding error of x, where
# mag is the same expression evaluated on the magnitudes of its inputs (so
# mag >= |x|, and an infinite x comes with an infinite mag), and _TINY
# bounds what underflow adds to that error.  An undecided sign, 0, sends the
# caller to the exact value.
_TINY = 2.0 ** -1000


def filtered_sign(x: float, mag: float, eps: float) -> int:
    """The sign of the exact value the double x approximates, or 0 when |x|
    does not exceed eps * mag + _TINY (also when x or mag is NaN or mag is
    infinite)."""
    t = eps * mag + _TINY
    return (x > t) - (x < -t)


def to_double(x: Scalar) -> float:
    """float(x), or the infinity with x's sign where x is beyond the double
    range (float raises OverflowError): the one conversion of an exact
    value that may have no double.  Never NaN on an exact x."""
    try:
        return float(x)
    except OverflowError:
        return copysign(inf, sign(x))


def scaled_doubles(c: List[float]) -> Optional[List[float]]:
    """The doubles c, all scaled by one power of two so that none exceeds 1
    in magnitude; None where one is infinite (a to_double beyond the double
    range), which leaves every filter on them undecided, so the exact sign
    decides.  Never scaled up: the filters' underflow bounds below count
    on that."""
    m = max(map(abs, c))
    if m == inf:
        return None
    if m > 1.0:
        s = ldexp(1.0, -frexp(m)[1])
        c = [x * s for x in c]
    return c


def scaled_points(pts: Sequence[Point]) -> Optional[List[Tuple[float, float]]]:
    """The points as doubles, all scaled by the one power of two that brings
    the largest magnitude into [0.5, 1); None where a double (to_double)
    is not finite, or where every one is 0.  Scaling by a power of two is
    exact (short of subnormal results), so a float expression homogeneous
    in the coordinates, such as a quotient of products of equal degree,
    takes the same value at any scale, without overflow or underflow.  Not
    for the exact filters: a subnormal double scaled up keeps its larger
    relative error, which their bounds do not allow for."""
    c = [to_double(x) for p in pts for x in p]
    if not all(map(isfinite, c)) or not any(c):
        return None
    e = -frexp(max(map(abs, c)))[1]
    return [(ldexp(c[i], e), ldexp(c[i + 1], e)) for i in range(0, len(c), 2)]


def _filter_doubles(coords: Sequence[Scalar]) -> Optional[List[float]]:
    """Exact coordinates as doubles (to_double), each taken once, under
    scaled_doubles; None when one is beyond the double range."""
    return scaled_doubles([to_double(x) for x in coords])


# The orientation filter.  With u = 2**-53, a coordinate's double is within
# 2u of it, relatively: float(CubicNumber) is within one ulp, float(int) and
# float(Fraction) are correctly rounded, and scaling by a power of two is
# exact.  The doubles may come from a cache: delaunay keeps float() of each
# coordinate of an exact triangulation's edge vectors and hands them over
# negated where a point is a negated vector; float() is odd, so these are
# the doubles of the points themselves.  Count the error of each monomial
# of the coordinates in units of u, summed over the paths from its
# coordinates to the result: a coordinate's double is 2 units off and its
# difference adds 1, so each factor of (b_x - a_x)(c_y - a_y) is 3 off; the
# product adds 1 and the subtraction 1: 8.  So the computed cross product
# is the exact one with each monomial off by a factor within
# gamma_8 = 8u / (1 - 8u) of 1, and its error is at most
# gamma_8 times the sum of the monomials' magnitudes.  That sum is the same
# expression on the magnitudes,
# (|b_x| + |a_x|)(|c_y| + |a_y|) + (|b_y| + |a_y|)(|c_x| + |a_x|), whose double
# evaluation (on the same doubles, 8 units per monomial too) is at least
# 1 - gamma_8 times it.  So the error is below 8.01u times the computed
# magnitude, and _ORIENT_EPS = 16u covers it.  Underflow: after scaling
# every |coordinate| <= 1 and every difference <= 2.  A coordinate whose
# double underflowed, or whose scaling did, is off by at most 2**-1075 more
# each time, and reaches the result multiplied by at most 4; a product that
# underflows is off by at most 2**-1075.  Together that is below
# 2**5 * 2**-1074 (the six coordinates' factors sum to 16), far below
# _TINY.  Nothing here depends on which power of two scales the
# coordinates, only on every scaled |coordinate| being at most 1, so one
# scale for more points than the three keeps the bound: turn_signs scales
# all the coordinates of its polygon by the largest, and a turn whose
# points are much smaller than that only loses more of its doubles to
# underflow, which the absolute term above still covers.
_ORIENT_EPS = 2.0 ** -49

# The incircle filter, derived the same way.  A difference is 3 units off,
# so a monomial of a lift or a minor, a product of two differences, is
# 3 + 3 + 1 off and 8 after its sum; a monomial of lift times minor is
# 8 + 8 + 1 off and 19 after the two outer sums.  So the computed
# determinant is within gamma_19 = 19u / (1 - 19u) times the sum of its
# monomials' magnitudes, which is the same polynomial on |a_x| + |d_x|, ...
# with every subtraction made a sum; its double evaluation is 19 units per
# monomial too, so the error is below 19.01u times the computed magnitude,
# and _INCIRCLE_EPS = 32u covers it.  Underflow: after scaling every
# difference is at most 2 and every lift and minor at most 8.  The
# determinant's derivative by a coordinate of p1, p2 or p3 is at most
# 2*2*8 + 8*2 + 8*2 = 64, by one of p4 at most 3 * 64, so the coordinates'
# underflow (2**-1074 each, as above) moves it by at most 768 * 2**-1074;
# the 12 products inside lifts and minors (cofactor at most 8) and the 3
# outer products add 99 * 2**-1075.  That is below 2**10 * 2**-1074, far
# below _TINY.  A hinge's p4 is vec(e) + vec(next e), which equals
# -vec(prev e) exactly on an exact triangle, so the double delaunay hands
# over for p4 is -float(vec(prev e)), the double of p4 itself.
_INCIRCLE_EPS = 2.0 ** -48


def orient_filter(ax: float, ay: float, bx: float, by: float, cx: float, cy: float) -> int:
    """The sign of cross(b - a, c - a) on the exact points whose scaled
    doubles these are, or 0 when the bound of _ORIENT_EPS leaves it
    undecided."""
    return filtered_sign(
        (bx - ax) * (cy - ay) - (by - ay) * (cx - ax),
        (abs(bx) + abs(ax)) * (abs(cy) + abs(ay)) + (abs(by) + abs(ay)) * (abs(cx) + abs(ax)),
        _ORIENT_EPS,
    )


def incircle_filter(f: Sequence[float]) -> int:
    """The sign of incircle_det on the exact points whose scaled doubles f
    holds (p1x, p1y, ..., p4y), evaluated in the order of incircle_det, or
    0 when the bound of _INCIRCLE_EPS leaves it undecided."""
    ax, ay, bx, by, cx, cy, dx, dy = f
    adx = ax - dx
    ady = ay - dy
    bdx = bx - dx
    bdy = by - dy
    cdx = cx - dx
    cdy = cy - dy
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    # The same on magnitudes.
    dx, dy = abs(dx), abs(dy)
    madx = abs(ax) + dx
    mady = abs(ay) + dy
    mbdx = abs(bx) + dx
    mbdy = abs(by) + dy
    mcdx = abs(cx) + dx
    mcdy = abs(cy) + dy
    return filtered_sign(
        alift * (bdx * cdy - cdx * bdy)
        - blift * (adx * cdy - cdx * ady)
        + clift * (adx * bdy - bdx * ady),
        (madx * madx + mady * mady) * (mbdx * mcdy + mcdx * mbdy)
        + (mbdx * mbdx + mbdy * mbdy) * (madx * mcdy + mcdx * mady)
        + (mcdx * mcdx + mcdy * mcdy) * (madx * mbdy + mbdx * mady),
        _INCIRCLE_EPS,
    )


def turn_signs(pts: Sequence[Point], f: Optional[Sequence[float]] = None) -> Iterator[int]:
    """The sign of cross(pts[i + 1] - pts[i], pts[i + 2] - pts[i]) for
    i = 0, 1, ..., len(pts) - 1, indices taken mod len(pts), one at a time.

    f holds the doubles of exact points' coordinates, all under one scale
    (_filter_doubles): each turn takes its sign from them where
    orient_filter decides it, and from its exact cross product otherwise.
    Without f every turn takes the sign of its cross product on the points
    as given, in their own arithmetic; the points are not inspected, so a
    caller decides which case it is in once (delaunay hands over the doubles
    an exact triangulation keeps, and None on a float one).
    """
    n = len(pts)
    for i in range(n):
        j, k = (i + 1) % n, (i + 2) % n
        if f is not None:
            s = orient_filter(f[2 * i], f[2 * i + 1], f[2 * j], f[2 * j + 1], f[2 * k], f[2 * k + 1])
            if s:
                yield s
                continue
        # cross(p2 - p1, p3 - p1)
        (ax, ay), (bx, by), (cx, cy) = pts[i], pts[j], pts[k]
        yield sign((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


def orient(p1: Point, p2: Point, p3: Point) -> int:
    """Orientation of the triple: +1 counterclockwise, -1 clockwise, 0 collinear.

    The one value-level caller of turn_signs, so the one place that reads
    the points' scalar types: on exact points the sign of the cross product
    is taken in doubles where the bound of _ORIENT_EPS decides it, and
    exactly otherwise; points with any float coordinate take the sign of
    their float cross product.
    """
    coords = (*p1, *p2, *p3)
    f = _filter_doubles(coords) if float not in map(type, coords) else None
    return next(turn_signs((p1, p2, p3), f))


def incircle(p1: Point, p2: Point, p3: Point, p4: Point) -> int:
    """Incircle test against the circumcircle of counterclockwise (p1, p2, p3).

    Returns +1 if p4 is strictly inside, 0 if cocircular, -1 if strictly
    outside; the sign of the lifted 4x4 determinant with rows
    (x, y, x**2 + y**2, 1).  Raises ValueError when p1, p2, p3 are collinear.

    On exact points the determinant is evaluated in doubles
    (_filter_doubles, incircle_filter), and its sign is taken where the
    bound of _INCIRCLE_EPS decides it; otherwise, and on float points,
    incircle_det gives it.
    """
    if orient(p1, p2, p3) == 0:
        raise ValueError("incircle: first three points are collinear")
    coords = (*p1, *p2, *p3, *p4)
    if float not in map(type, coords):
        f = _filter_doubles(coords)
        s = incircle_filter(f) if f is not None else 0
        if s:
            return s
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


# -- the wall of an exact hinge ---------------------------------------------------


def canonical_ints(x: Scalar) -> Tuple[int, int, int, int]:
    """(n0, n1, n2, d) with x = (n0 + n1*alpha + n2*alpha**2) / d and d > 0,
    for exact x; a CubicNumber and a rational are held reduced, so exact
    scalars of equal value give the same four."""
    if isinstance(x, CubicNumber):
        return x.n0, x.n1, x.n2, x.d
    return x.numerator, 0, 0, x.denominator


def _zsub(a: Tuple[int, int, int], b: Tuple[int, int, int]) -> Tuple[int, int, int]:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _zsum(a: Tuple[int, int, int], b: Tuple[int, int, int], c: Tuple[int, int, int]) -> Tuple[int, int, int]:
    return (a[0] + b[0] + c[0], a[1] + b[1] + c[1], a[2] + b[2] + c[2])


def exact_wall_form(p2: Point, p3: Point, p4: Point) -> Union[int, Tuple[Scalar, Scalar, Scalar]]:
    """The iso-Delaunay form a*u + b*v + c of the exact hinge (0, p2, p3, p4),
    scaled by a positive number so that max(|a|, |b|, |c|) = 1; or, when the
    form has one sign on all of the upper half-plane, that sign (0 when the
    form vanishes).

    a, b/2 and c are the 4x4 determinants with rows (x, y, f, 1) over the
    origin, p2, p3 and p4, for f = y**2, x*y and x**2.  Expanded along the
    origin's row, each is k2 f2 + k3 f3 + k4 f4 with the cofactors
    k2 = x4 y3 - x3 y4, k3 = x2 y4 - x4 y2 and k4 = x3 y2 - x2 y3.  Over one
    denominator D of the six coordinates, a, b and c are int triples of
    Z[alpha] divided by D**4 > 0: their signs, the sign of b**2 - 4ac and the
    normalization are taken on the triples, and a field element is made
    only for each normalized coefficient.  The form has one sign on H when
    a = b = 0 (the sign of c) or when a != 0 and b**2 - 4ac <= 0 (the sign
    of a).  The coefficients are CubicNumbers when a coordinate is one, and
    Fractions otherwise, returned as a plain tuple (a, b, c) for
    isodelaunay.Wall to take as its coefficients.
    """
    coords = (*p2, *p3, *p4)
    parts = [canonical_ints(x) for x in coords]
    den = lcm(*[p[3] for p in parts])
    x2, y2, x3, y3, x4, y4 = [(n0 * (den // d), n1 * (den // d), n2 * (den // d)) for n0, n1, n2, d in parts]
    mul, sub = _zmul, _zsub
    k2 = sub(mul(x4, y3), mul(x3, y4))
    k3 = sub(mul(x2, y4), mul(x4, y2))
    k4 = sub(mul(x3, y2), mul(x2, y3))
    ky2, ky3, ky4 = mul(k2, y2), mul(k3, y3), mul(k4, y4)
    a = _zsum(mul(ky2, y2), mul(ky3, y3), mul(ky4, y4))
    b = tuple(2 * t for t in _zsum(mul(ky2, x2), mul(ky3, x3), mul(ky4, x4)))
    c = _zsum(mul(mul(k2, x2), x2), mul(mul(k3, x3), x3), mul(mul(k4, x4), x4))
    sa, sb, sc = _zsign(a), _zsign(b), _zsign(c)
    if sa == 0 and sb == 0:
        return sc
    if sa != 0 and _zsign(sub(mul(b, b), tuple(4 * t for t in mul(a, c)))) <= 0:
        return sa
    # m = max(|a|, |b|, |c|) > 0; each coefficient becomes t / m.
    m = None
    for t, st in ((a, sa), (b, sb), (c, sc)):
        if st:
            t_abs = t if st > 0 else (-t[0], -t[1], -t[2])
            if m is None or _zsign(sub(t_abs, m)) > 0:
                m = t_abs
    m0, m1, m2 = m
    if not any(isinstance(x, CubicNumber) for x in coords):
        return tuple(Fraction(t[0], m0) for t in (a, b, c))
    if not (m1 or m2):
        return tuple(_make(t[0], t[1], t[2], m0) for t in (a, b, c))
    # m * y = norm > 0, so t / m = t * y / norm.
    *y, norm = _adjugate_row(m0, m1, m2)
    return tuple(_make(*mul(t, y), norm) for t in (a, b, c))
