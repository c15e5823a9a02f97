"""Exact Gaussian-rational arithmetic and the projective line.

The curve constructions run over two backends: exact rationals (complex
numbers with Fraction parts) whenever the input data is rational, and
floating complex otherwise; a float or complex operand turns exact
arithmetic complex.  Points at infinity are honest projective pairs, never
sentinel floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError

#: relative tolerance of every floating zero test on the projective line
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    @staticmethod
    def of(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(Fraction(x))
        raise PreconditionError(f"cannot coerce {x!r} to an exact complex number")

    # A float or complex operand makes the result complex.  With rational
    # input every imaginary part is 0; a real operand pair then takes one
    # Fraction operation, with the general formula's exact result.

    def __add__(self, other):
        if isinstance(other, (float, complex)):
            return complex(self) + other
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
        if isinstance(other, (float, complex)):
            return complex(self) - other
        o = GaussianRational.of(other)
        if not self.im and not o.im:
            return GaussianRational(self.re - o.re)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        if isinstance(other, (float, complex)):
            return other - complex(self)
        return GaussianRational.of(other) - self

    def __mul__(self, other):
        if isinstance(other, (float, complex)):
            return complex(self) * other
        o = GaussianRational.of(other)
        if not self.im and not o.im:
            return GaussianRational(self.re * o.re)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (float, complex)):
            return complex(self) / other
        o = GaussianRational.of(other)
        if o.is_zero():
            raise ZeroDivisionError("division by exact zero")
        if not self.im and not o.im:
            return GaussianRational(self.re / o.re)
        n2 = o.norm2()
        return self * GaussianRational(o.re / n2, -o.im / n2)

    def __rtruediv__(self, other):
        if isinstance(other, (float, complex)):
            return other / complex(self)
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
        return hash((self.re, self.im))

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


def is_exact_scalar(x) -> bool:
    return isinstance(x, (int, Fraction, GaussianRational))


def scalar_is_zero(x, scale: float = 1.0) -> bool:
    """Whether x is zero: exactly for an exact scalar, else when
    |x| <= DEFAULT_TOL * max(scale, 1), so the bound never drops below
    DEFAULT_TOL however small the scale."""
    if isinstance(x, GaussianRational):
        return x.is_zero()
    if isinstance(x, (int, Fraction)):
        return x == 0
    return abs(x) <= DEFAULT_TOL * max(scale, 1.0)


@dataclass(frozen=True)
class ProjPoint:
    """Point of the projective line as a homogeneous pair (num : den)."""

    num: object
    den: object

    @staticmethod
    def finite(x) -> "ProjPoint":
        if is_exact_scalar(x):
            return ProjPoint(GaussianRational.of(x), GaussianRational.of(1))
        return ProjPoint(complex(x), complex(1))

    @staticmethod
    def infinity() -> "ProjPoint":
        return ProjPoint(GaussianRational.of(1), GaussianRational.of(0))

    @property
    def exact(self) -> bool:
        """Whether both coordinates are exact."""
        return is_exact_scalar(self.num) and is_exact_scalar(self.den)

    def is_infinity(self) -> bool:
        if self.exact:
            return scalar_is_zero(self.den)
        num, den = abs(complex(self.num)), abs(complex(self.den))
        return den <= DEFAULT_TOL * max(num, den, 1e-300)

    def value(self):
        """The affine value; undefined at infinity."""
        if self.is_infinity():
            raise PreconditionError("point at infinity has no affine value")
        return self.num / self.den

    def same_point(self, other: "ProjPoint") -> bool:
        cross = self.num * other.den - self.den * other.num
        if self.exact and other.exact:
            return scalar_is_zero(cross)
        scale = (max(abs(complex(self.num)), abs(complex(self.den)))
                 * max(abs(complex(other.num)), abs(complex(other.den))))
        return abs(complex(cross)) <= DEFAULT_TOL * max(scale, 1e-300)

    def to_json(self):
        if self.is_infinity():
            return "inf"
        v = complex(self.value())
        return [v.real, v.imag]

    def __str__(self) -> str:
        if self.is_infinity():
            return "inf"
        v = self.value()
        if isinstance(v, GaussianRational):
            return str(v.re) if v.im == 0 else repr(v)
        return f"{complex(v):.6g}"


def cross_det(u: ProjPoint, v: ProjPoint):
    return u.num * v.den - u.den * v.num


@dataclass(frozen=True)
class Mobius:
    """Fractional linear map as an invertible 2x2 matrix acting on pairs."""

    a: object
    b: object
    c: object
    d: object

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
        det = m.a * m.d - m.b * m.c
        scale = 1.0
        if not is_exact_scalar(det):
            scale = max(*(abs(complex(x)) for x in (m.a, m.b, m.c, m.d)), 1e-300) ** 2
        if scalar_is_zero(det, scale):
            raise PreconditionError("degenerate point triple for a fractional linear map")
        return m

    @staticmethod
    def through(src, dst) -> "Mobius":
        """The unique map carrying the source triple onto the target triple."""
        fwd = Mobius.to_standard(*src)
        back = Mobius.to_standard(*dst).inverse()
        return back.compose(fwd)
