"""Exact arithmetic over the Gaussian integers and Gaussian rationals.

``GaussianInt`` and ``GaussianRational`` are immutable value types with
arbitrary-precision integer components.  On top of them the module pins the
four prime sites above the rational primes 5 and 13, computes exact
valuations and absolute values at those sites, and generates the
unit-modulus rotations and enumerations that drive the rest of the package.
"""

from __future__ import annotations

import cmath
import numbers
import re as _re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

__all__ = [
    "GaussianInt",
    "GaussianRational",
    "PrimeSite",
    "P5",
    "P5BAR",
    "P13",
    "P13BAR",
    "SITES",
    "THETA5",
    "THETA13",
    "valuation",
    "abs_at",
    "theta_power",
    "theta_set",
    "unit_circle_elements",
    "in_A",
    "unit_group_order",
    "gaussian_ints_of_norm",
    "is_sum_of_two_squares",
    "nearest_gaussian_int",
    "crt",
    "mod_from_rational",
    "PrecisionError",
    "TorsionUnitError",
    "CertificateError",
]


# the package's errors live here, in the one module that every command loads
class PrecisionError(ArithmeticError):
    """The requested quantity is not determined at the stored precision."""


class TorsionUnitError(ValueError):
    """The unit is a root of unity at the tested precision; its generated
    subgroup does not have finite index."""


class CertificateError(RuntimeError, ArithmeticError):
    """An exact certificate failed its own re-check."""


@dataclass(frozen=True, slots=True)
class GaussianInt:
    """A Gaussian integer re + im*i with arbitrary-precision components."""

    re: int = 0
    im: int = 0

    def conj(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def norm(self) -> int:
        """re**2 + im**2; multiplicative."""
        return self.re * self.re + self.im * self.im

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __neg__(self) -> "GaussianInt":
        return GaussianInt(-self.re, -self.im)

    def __add__(self, other):
        other = _as_gint(other)
        if other is None:
            return NotImplemented
        return GaussianInt(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gint(other)
        if other is None:
            return NotImplemented
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _as_gint(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_gint(other)
        if other is None:
            return NotImplemented
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __mod__(self, n: int) -> "GaussianInt":
        """Both parts reduced into [0, n): the residue in Z[i]/n."""
        return GaussianInt(self.re % n, self.im % n)

    def __pow__(self, e: int, n: int | None = None) -> "GaussianInt":
        """self**e, or pow(self, e, n) in Z[i]/n, where a negative e inverts
        through the conjugate (ValueError for a non-unit)."""
        base = self
        if e < 0:
            if n is None:
                raise ValueError("negative power of a GaussianInt; use GaussianRational")
            t = self.norm() % n
            if gcd(t, n) != 1:
                raise ValueError(f"{self} is not invertible mod {n}")
            base, e = self.conj() * pow(t, -1, n), -e
        reduce = (lambda g: g) if n is None else (lambda g: g % n)
        out, base = reduce(GaussianInt(1, 0)), reduce(base)
        while True:
            if e & 1:
                out = reduce(out * base)
            e >>= 1
            if not e:
                return out
            base = reduce(base * base)

    def __truediv__(self, other) -> "GaussianRational":
        return GaussianRational(self) / other

    def __rtruediv__(self, other) -> "GaussianRational":
        q = _coerce(other)
        return NotImplemented if q is None else q / GaussianRational(self)

    def exact_div(self, other: "GaussianInt") -> "GaussianInt":
        """Exact quotient self/other in Z[i]; ValueError if not divisible."""
        q = try_exact_div(self, other)
        if q is None:
            raise ValueError(f"{self} is not divisible by {other} in Z[i]")
        return q

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    def __abs__(self) -> float:
        return abs(complex(self))

    def __str__(self) -> str:
        return f"{self.re}{self.im:+d}i"

    def __repr__(self) -> str:
        return f"GaussianInt({self.re}, {self.im})"

    @classmethod
    def parse(cls, text: str) -> "GaussianInt":
        """Parse 'a+bi' (also bare integers and pure-imaginary forms)."""
        q = GaussianRational.parse(text)
        return q.to_gaussian_int()


def _as_gint(x) -> GaussianInt | None:
    if isinstance(x, GaussianInt):
        return x
    if isinstance(x, int):
        return GaussianInt(x, 0)
    return None


def try_exact_div(g: GaussianInt, d: GaussianInt) -> GaussianInt | None:
    """g/d if it lies in Z[i], else None."""
    n = d.norm()
    if n == 0:
        raise ZeroDivisionError("division by zero Gaussian integer")
    t = g * d.conj()
    if t.re % n or t.im % n:
        return None
    return GaussianInt(t.re // n, t.im // n)


class GaussianRational:
    """An element of Q(i): Gaussian-integer numerator over a positive
    integer denominator, kept in lowest terms (no rational prime divides
    both numerator components and the denominator)."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, num: GaussianInt | int = 0, den: int = 1):
        g = _as_gint(num)
        if g is None:
            raise TypeError(f"numerator must be GaussianInt or int, got {type(num)!r}")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        a, b = g.re, g.im
        if den < 0:
            a, b, den = -a, -b, -den
        c = gcd(gcd(a, b), den)
        if c > 1:
            a //= c
            b //= c
            den //= c
        object.__setattr__(self, "_a", a)
        object.__setattr__(self, "_b", b)
        object.__setattr__(self, "_d", den)

    def __setattr__(self, *args):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def from_fractions(cls, re: Fraction | int, im: Fraction | int = 0) -> "GaussianRational":
        re = Fraction(re)
        im = Fraction(im)
        d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        return cls(
            GaussianInt(re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)),
            d,
        )

    @property
    def num(self) -> GaussianInt:
        return GaussianInt(self._a, self._b)

    @property
    def den(self) -> int:
        return self._d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def conj(self) -> "GaussianRational":
        return GaussianRational(GaussianInt(self._a, -self._b), self._d)

    def abs2(self) -> Fraction:
        """Modulus squared, an exact rational."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def is_gaussian_int(self) -> bool:
        return self._d == 1

    def to_gaussian_int(self) -> GaussianInt:
        if self._d != 1:
            raise ValueError(f"{self} is not a Gaussian integer")
        return GaussianInt(self._a, self._b)

    def inverse(self) -> "GaussianRational":
        n = self._a * self._a + self._b * self._b
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return GaussianRational(GaussianInt(self._a * self._d, -self._b * self._d), n)

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(GaussianInt(-self._a, -self._b), self._d)

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            GaussianInt(self._a * o._d + o._a * self._d, self._b * o._d + o._b * self._d),
            self._d * o._d,
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            GaussianInt(
                self._a * o._a - self._b * o._b,
                self._a * o._b + self._b * o._a,
            ),
            self._d * o._d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int) -> "GaussianRational":
        # the constructor's gcd reduction restores lowest terms:
        # ((1+i)/2)**2 = 2i/4 = i/2
        if e < 0:
            return self.inverse() ** (-e)
        return GaussianRational(self.num**e, self._d**e)

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        if self._d == 1:
            return hash((self._a, self._b))
        return hash((self._a, self._b, self._d))

    def __complex__(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __abs__(self) -> float:
        return abs(complex(self))

    def __str__(self) -> str:
        sign = "+" if self._b >= 0 else "-"
        return f"{self._a}/{self._d}{sign}{abs(self._b)}/{self._d}i"

    def __repr__(self) -> str:
        return f"GaussianRational.parse({str(self)!r})"

    _TERM = _re.compile(r"^([+-]?)(\d+(?:/\d+)?)?(i?)$")

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        """Parse 'a/d+b/di' and looser forms ('3+4i', '1/2', 'i', '-i')."""
        s = text.replace(" ", "")
        if not s:
            raise ValueError("empty Gaussian rational literal")
        re_part: Fraction | None = None
        im_part: Fraction | None = None
        terms = _re.findall(r"[+-]?[^+-]+", s)
        if "".join(terms) != s:
            raise ValueError(f"cannot parse Gaussian rational literal {text!r}")
        for term in terms:
            m = cls._TERM.match(term)
            if m is None:
                raise ValueError(f"cannot parse Gaussian rational term {term!r} in {text!r}")
            sign, body, imag = m.groups()
            if body is None:
                if not imag:
                    raise ValueError(f"cannot parse Gaussian rational term {term!r} in {text!r}")
                value = Fraction(1)
            else:
                value = Fraction(body)
            if sign == "-":
                value = -value
            if imag:
                if im_part is not None:
                    raise ValueError(f"duplicate imaginary part in {text!r}")
                im_part = value
            else:
                if re_part is not None:
                    raise ValueError(f"duplicate real part in {text!r}")
                re_part = value
        return cls.from_fractions(re_part or Fraction(0), im_part or Fraction(0))


def _coerce(x) -> GaussianRational | None:
    """``as_gaussian_rational`` with None in place of the TypeError, for
    the operators to return NotImplemented on."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (GaussianInt, int)):
        return GaussianRational(x)
    if isinstance(x, Fraction):
        return GaussianRational(GaussianInt(x.numerator, 0), x.denominator)
    return None


def as_gaussian_rational(x) -> GaussianRational:
    """The one exact-value gate: an int, Fraction, GaussianInt or
    GaussianRational as a GaussianRational; TypeError for anything else,
    a float or complex included."""
    q = _coerce(x)
    if q is None:
        raise TypeError("expected an int, Fraction, GaussianInt or GaussianRational, "
                        f"got {type(x).__name__}")
    return q


def exact_gaussian_rational(z) -> GaussianRational:
    """``as_gaussian_rational``, with a float or complex taken at its exact
    binary value (``Fraction(float)`` is exact).  Raises ValueError for a
    float or complex that is not finite and TypeError for a non-number."""
    if not isinstance(z, numbers.Complex) or isinstance(z, (int, Fraction)):
        return as_gaussian_rational(z)
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"{z} is not finite")
    return GaussianRational.from_fractions(z.real, z.imag)


@dataclass(frozen=True, slots=True)
class PrimeSite:
    """A prime of Z[i]: a generator and the size of its residue field."""

    tag: str
    generator: GaussianInt
    residue_norm: int

    def __str__(self) -> str:
        return self.tag


P5 = PrimeSite("P5", GaussianInt(1, 2), 5)
P5BAR = PrimeSite("P5bar", GaussianInt(1, -2), 5)
P13 = PrimeSite("P13", GaussianInt(2, 3), 13)
P13BAR = PrimeSite("P13bar", GaussianInt(2, -3), 13)
SITES = (P5, P5BAR, P13, P13BAR)

_BARRED = {5: P5BAR, 13: P13BAR}  # the site each embedding makes a non-unit


def _split_power(n: int, p: int) -> tuple[int, int]:
    """(e, m) with n = p**e * m and p not dividing m, for nonzero n."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def _int_valuation(g: GaussianInt, site: PrimeSite) -> int:
    pi = site.generator
    pib = pi.conj()
    n = site.residue_norm
    v = 0
    while True:
        t = g * pib
        if t.re % n or t.im % n:
            return v
        g = GaussianInt(t.re // n, t.im // n)
        v += 1


def valuation(q: GaussianRational | GaussianInt | int, site: PrimeSite) -> int:
    """Exponent of the site's prime in q.  Additive: v(qr) = v(q) + v(r)."""
    qq = as_gaussian_rational(q)
    if not qq:
        raise ValueError("valuation of zero undefined")
    return _int_valuation(qq.num, site) - _split_power(qq.den, site.residue_norm)[0]


def abs_at(q, site: PrimeSite) -> Fraction:
    """Normalized absolute value residue_norm**(-valuation); multiplicative."""
    return Fraction(site.residue_norm) ** (-valuation(q, site))


THETA5 = GaussianRational(P5.generator) / GaussianRational(P5BAR.generator)
THETA13 = GaussianRational(P13.generator) / GaussianRational(P13BAR.generator)


def theta_power(r: int, s: int) -> GaussianRational:
    """The rotation THETA5**r * THETA13**s (any integer exponents)."""
    return THETA5**r * THETA13**s


def theta_set(N: int) -> list[GaussianRational]:
    """All (N+1)**2 rotations with exponents 0..N in each generator."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    powers5 = [THETA5**r for r in range(N + 1)]
    powers13 = [THETA13**s for s in range(N + 1)]
    return [p5 * p13 for p5 in powers5 for p13 in powers13]


def unit_circle_elements(t_max: int) -> list[GaussianRational]:
    """All unit-modulus elements of Q(i) with reduced denominator <= t_max.

    Enumerates primitive g = u+vi (gcd(u,v)=1, u+v odd, norm <= t_max) and
    takes g**2/norm(g), closed under the four units.  Every returned
    denominator is odd.
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    units = (
        GaussianRational(1),
        GaussianRational(GaussianInt(0, 1)),
        GaussianRational(-1),
        GaussianRational(GaussianInt(0, -1)),
    )
    seen: set[GaussianRational] = set()
    for u in range(1, isqrt(t_max) + 1):
        vmax = isqrt(t_max - u * u)
        for v in range(vmax + 1):
            if (u + v) % 2 == 0 or gcd(u, v) != 1:
                continue
            g = GaussianInt(u, v)
            q = GaussianRational(g * g, g.norm())
            for unit in units:
                seen.add(q * unit)
    return sorted(seen, key=lambda q: (q.den, q.re, q.im))


def in_A(q: GaussianRational | GaussianInt | int) -> bool:
    """Membership in the ring A = Z[i][1/P5bar.generator, 1/P13bar.generator]:
    denominator supported on {5, 13} and nonnegative valuation at the two
    unbarred sites.

    With e = v_p(den), the valuation at the unbarred site pi over p is
    v_pi(num) - e, so it is nonnegative exactly when pi**e divides the
    numerator: one exact-division test (num * conj(pi)**e = 0 mod p**e)
    instead of stripping pi one factor at a time."""
    qq = as_gaussian_rational(q)
    if not qq:
        return True
    d = qq.den
    for site in (P5, P13):
        e, d = _split_power(d, site.residue_norm)
        if e and try_exact_div(qq.num, site.generator**e) is None:
            return False
    return d == 1


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _least_exponent(n: int, holds) -> int:
    """The least divisor m of n with holds(m), for a predicate that holds at
    n and at every divisor of n that a holding m divides (as g**m == 1 does):
    n divided by each of its primes while holds still holds."""
    m = n
    for p in _factorize(n):
        while m % p == 0 and holds(m // p):
            m //= p
    return m


def unit_group_order(n: int) -> int:
    """Order of the unit group of Z[i]/n for a positive rational integer n.

    Multiplicative in n, with factor 2**(2k-1) at 2**k, (p-1)**2 * p**(2k-2)
    at p**k for p = 1 mod 4 (p splits), and (p**2-1) * p**(2k-2) for
    p = 3 mod 4 (p stays prime)."""
    if n < 1:
        raise ValueError("modulus must be positive")
    order = 1
    for p, k in _factorize(n).items():
        if p == 2:
            order *= 2 ** (2 * k - 1)
        else:
            order *= ((p - 1) ** 2 if p % 4 == 1 else p * p - 1) * p ** (2 * k - 2)
    return order


def gaussian_ints_of_norm(n: int) -> list[GaussianInt]:
    """All Gaussian integers of norm exactly n, sorted by (re, im)."""
    if n < 0:
        raise ValueError("norm is nonnegative")
    if n == 0:
        return [GaussianInt(0, 0)]
    found: set[GaussianInt] = set()
    for a in range(isqrt(n) + 1):
        b2 = n - a * a
        b = isqrt(b2)
        if b * b != b2:
            continue
        for g in (
            GaussianInt(a, b),
            GaussianInt(a, -b),
            GaussianInt(-a, b),
            GaussianInt(-a, -b),
            GaussianInt(b, a),
            GaussianInt(b, -a),
            GaussianInt(-b, a),
            GaussianInt(-b, -a),
        ):
            found.add(g)
    return sorted(found, key=lambda g: (g.re, g.im))


def is_sum_of_two_squares(n: int) -> bool:
    if n < 0:
        return False
    return any(isqrt(n - a * a) ** 2 == n - a * a for a in range(isqrt(n) + 1))


def nearest_gaussian_int(q: GaussianRational) -> GaussianInt:
    """Componentwise rounding to the nearest Gaussian integer
    (ties round up, deterministically)."""
    d = q.den
    a = (2 * q.num.re + d) // (2 * d)
    b = (2 * q.num.im + d) // (2 * d)
    return GaussianInt(a, b)


# --- arithmetic in Z[i]/n for a rational integer modulus n: g % n, pow(g, e, n)


def crt(r1: int, m1: int, r2: int, m2: int) -> int:
    """The residue in [0, m1*m2) that is r1 mod m1 and r2 mod m2, for
    coprime positive moduli."""
    t = (r2 - r1) * pow(m1, -1, m2) % m2
    return (r1 + m1 * t) % (m1 * m2)


def mod_from_rational(q: GaussianRational, n: int) -> GaussianInt:
    """Reduce q mod n; requires gcd(den, n) = 1."""
    if gcd(q.den, n) != 1:
        raise ValueError(f"denominator of {q} is not invertible mod {n}")
    return q.num * pow(q.den, -1, n) % n
