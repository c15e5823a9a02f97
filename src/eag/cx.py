"""Exact Gaussian-rational arithmetic and the projective line.

Every curve construction runs on exact rationals: complex numbers with
Fraction parts.  A float or complex operand is read exactly, as the dyadic
rational it stores, so no arithmetic here rounds and every zero test is
exact.  Points at infinity are honest projective pairs, never sentinel
floats.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import PreconditionError
from .record import Record


class GaussianRational(Record):
    """Complex number with exact rational real and imaginary parts."""

    _fields = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction = Fraction(0)):
        vars(self).update(re=re, im=im)

    @staticmethod
    def of(x) -> "GaussianRational":
        """x exactly: a finite float or complex is the dyadic rational it stores."""
        if isinstance(x, GaussianRational):
            return x
        try:
            if isinstance(x, complex):
                return GaussianRational(Fraction(x.real), Fraction(x.imag))
            if isinstance(x, (int, float, Fraction)):
                return GaussianRational(Fraction(x))
        except (ValueError, OverflowError):  # a nan or an infinity
            pass
        raise PreconditionError(f"cannot read {x!r} as an exact complex number")

    # With rational input every imaginary part is 0; a real operand pair then
    # takes one Fraction operation, with the general formula's exact result.

    def __add__(self, other):
        o = GaussianRational.of(other)
        if not self.im and not o.im:
            return GaussianRational(self.re + o.re)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        if not self.im:
            return GaussianRational(-self.re)
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = GaussianRational.of(other)
        if not self.im and not o.im:
            return GaussianRational(self.re - o.re)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return GaussianRational.of(other) - self

    def __mul__(self, other):
        o = GaussianRational.of(other)
        if not self.im and not o.im:
            return GaussianRational(self.re * o.re)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational.of(other)
        if o.is_zero():
            raise ZeroDivisionError("division by exact zero")
        if not self.im and not o.im:
            return GaussianRational(self.re / o.re)
        n2 = o.norm2()
        return self * GaussianRational(o.re / n2, -o.im / n2)

    def __rtruediv__(self, other):
        return GaussianRational.of(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise PreconditionError("only non-negative integer powers are exact")
        out = GaussianRational(Fraction(1))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        try:
            o = GaussianRational.of(other)
        except PreconditionError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # Python's numeric hash of re + im j, so that a Gaussian rational equal
        # to an int, Fraction, float or complex hashes as that number does
        m = 2 ** sys.hash_info.width
        h = (hash(self.re) + sys.hash_info.imag * hash(self.im)) % m
        h -= m if h >= m // 2 else 0
        return -2 if h == -1 else h

    def norm2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def magnitude_l1(self) -> Fraction:
        return abs(self.re) + abs(self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


ONE = GaussianRational(Fraction(1))
ZERO = GaussianRational(Fraction(0))


class ProjPoint(Record):
    """Point of the projective line as a homogeneous pair (num : den) of
    Gaussian rationals."""

    _fields = ("num", "den")

    def __init__(self, num: GaussianRational, den: GaussianRational):
        vars(self).update(num=num, den=den)

    @staticmethod
    def finite(x) -> "ProjPoint":
        return ProjPoint(GaussianRational.of(x), ONE)

    @staticmethod
    def infinity() -> "ProjPoint":
        return ProjPoint(ONE, ZERO)

    def is_infinity(self) -> bool:
        return self.den.is_zero()

    def value(self) -> GaussianRational:
        """The affine value; undefined at infinity."""
        if self.is_infinity():
            raise PreconditionError("point at infinity has no affine value")
        return self.num / self.den

    def same_point(self, other: "ProjPoint") -> bool:
        return cross_det(self, other).is_zero()

    def to_json(self):
        if self.is_infinity():
            return "inf"
        v = self.value()
        return [float(v.re), float(v.im)]

    def __str__(self) -> str:
        if self.is_infinity():
            return "inf"
        v = self.value()
        return str(v.re) if v.im == 0 else repr(v)


def cross_det(u: ProjPoint, v: ProjPoint):
    return u.num * v.den - u.den * v.num


class Mobius(Record):
    """Fractional linear map as an invertible 2x2 matrix acting on pairs."""

    _fields = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        vars(self).update(a=a, b=b, c=c, d=d)

    def apply(self, pt: ProjPoint) -> ProjPoint:
        return ProjPoint(self.a * pt.num + self.b * pt.den,
                         self.c * pt.num + self.d * pt.den)

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -1 * self.b, -1 * self.c, self.a)

    def compose(self, other: "Mobius") -> "Mobius":
        return Mobius(self.a * other.a + self.b * other.c,
                      self.a * other.b + self.b * other.d,
                      self.c * other.a + self.d * other.c,
                      self.c * other.b + self.d * other.d)

    @staticmethod
    def to_standard(p0: ProjPoint, p1: ProjPoint, p2: ProjPoint) -> "Mobius":
        """The map sending (p0, p1, p2) to (0, 1, infinity)."""
        d12 = cross_det(p1, p2)
        d10 = cross_det(p1, p0)
        m = Mobius(p0.den * d12, -1 * p0.num * d12,
                   p2.den * d10, -1 * p2.num * d10)
        if (m.a * m.d - m.b * m.c).is_zero():
            raise PreconditionError("degenerate point triple for a fractional linear map")
        return m

    @staticmethod
    def through(src, dst) -> "Mobius":
        """The unique map carrying the source triple onto the target triple."""
        fwd = Mobius.to_standard(*src)
        back = Mobius.to_standard(*dst).inverse()
        return back.compose(fwd)
