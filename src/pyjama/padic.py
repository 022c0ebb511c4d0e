"""Finite-precision numbers in the 5-adic and 13-adic fields.

``PadicNumber(p, precision_k, valuation, unit_digits)`` is the one p-adic
value type: an integer valuation plus a unit part stored modulo
p**precision_k, or exact zero (``valuation is None``).  ``embed`` is its
constructor from Q(i), through the canonical Hensel lifts of sqrt(-1) (one
per prime, sign fixed so the barred prime site becomes the non-unit under
embedding).  A value multiplies (*), gives its exact fractional part, and
bounds its distance |x - y|_p to another value at the same prime, which is
the residual that certifies strong approximation.  The module also owns
the exact p-adic fractional parts of Q(i) and multiplicative closure
indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .gaussian import (
    _BARRED,
    GaussianInt,
    GaussianRational,
    PrecisionError,
    TorsionUnitError,
    _least_exponent,
    _split_power,
    as_gaussian_rational,
    valuation,
)

__all__ = [
    "PrecisionError",
    "TorsionUnitError",
    "PadicNumber",
    "sqrt_neg1",
    "embed",
    "gauss_frac_part",
    "closure_index",
]

_SUPPORTED = (5, 13)


def _check_site(p: int, k: int) -> None:
    if p not in _SUPPORTED:
        raise ValueError(f"unsupported prime {p}; expected one of {_SUPPORTED}")
    if k < 1:
        raise ValueError("precision_k must be >= 1")


@lru_cache(maxsize=None)
def sqrt_neg1(p: int, k: int) -> int:
    """The canonical root of -1 mod p**k, an integer in [0, p**k), lifted by
    Newton iteration.

    The sign is fixed by requiring that the barred generator above p maps
    to a non-unit: for the generator g = re + im*i this is the root x with
    re + im*x = 0 mod p.
    """
    _check_site(p, k)
    g = _BARRED[p].generator
    x = next(
        x
        for x in range(p)
        if (x * x + 1) % p == 0 and (g.re + g.im * x) % p == 0
    )
    m = 1
    while m < k:
        m = min(2 * m, k)
        mod = p**m
        x = (x - (x * x + 1) * pow(2 * x, -1, mod)) % mod
    if (x * x + 1) % p**k:
        raise ArithmeticError(
            f"Hensel lift {x} is not a square root of -1 mod {p}^{k}")
    return x


@dataclass(frozen=True, slots=True)
class PadicNumber:
    """p**valuation * unit_digits, with unit_digits correct mod p**precision_k.

    Exact zero is carried as ``valuation is None`` with unit_digits 0.
    """

    p: int
    precision_k: int
    valuation: int | None
    unit_digits: int

    def __post_init__(self):
        p, k = self.p, self.precision_k
        _check_site(p, k)
        if self.valuation is None:
            if self.unit_digits != 0:
                raise ValueError("zero must carry unit_digits 0")
        else:
            u = self.unit_digits
            if not (1 <= u < p**k) or u % p == 0:
                raise ValueError(f"unit digits {u} invalid mod {p}^{k}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, p: int, k: int) -> "PadicNumber":
        return cls(p, k, None, 0)

    # -- basic queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.valuation is None

    # -- arithmetic ---------------------------------------------------------

    def _require_same_p(self, other: "PadicNumber") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed primes {self.p} and {other.p}")

    def distance(self, other: "PadicNumber") -> Fraction:
        """An upper bound for |self - other|_p.  It is exact when the
        difference shows within the digits both values hold, and otherwise
        p**-n, where n = min(valuation + precision_k) is the coarser of the
        two absolute precisions."""
        self._require_same_p(other)
        p = self.p
        if self.is_zero or other.is_zero:
            x = other if self.is_zero else self
            return Fraction(0) if x.is_zero else Fraction(p) ** -x.valuation
        lo, hi = (self, other) if self.valuation <= other.valuation else (other, self)
        shift = hi.valuation - lo.valuation
        digits = min(lo.precision_k, shift + hi.precision_k)
        t = (lo.unit_digits - hi.unit_digits * p**shift) % p**digits
        return Fraction(p) ** -(lo.valuation + (_split_power(t, p)[0] if t else digits))

    def __mul__(self, other: "PadicNumber") -> "PadicNumber":
        if not isinstance(other, PadicNumber):
            return NotImplemented
        self._require_same_p(other)
        p = self.p
        k = min(self.precision_k, other.precision_k)
        if self.is_zero or other.is_zero:
            return PadicNumber.zero(p, k)  # an exact zero absorbs
        u = self.unit_digits * other.unit_digits % p**k
        return PadicNumber(p, k, self.valuation + other.valuation, u)

    # -- fractional part ----------------------------------------------------

    def frac_part(self) -> Fraction:
        """The unique rational in [0,1) with p-power denominator whose
        difference from this value is a p-adic integer."""
        p, v = self.p, self.valuation
        if v is None or v >= 0:
            return Fraction(0)
        if -v > self.precision_k:
            raise PrecisionError(
                f"fractional part needs {-v} digits, only {self.precision_k} stored"
            )
        c = self.unit_digits % p ** (-v)
        return Fraction(c, p ** (-v))


def embed(q: GaussianRational | GaussianInt | Fraction | int, p: int, k: int) -> PadicNumber:
    """The field embedding of Q(i) determined by the canonical sqrt(-1):
    the absolute value of the image equals abs_at(q, barred site)."""
    q = as_gaussian_rational(q)
    _check_site(p, k)
    if not q:
        return PadicNumber.zero(p, k)
    s, d = _split_power(q.den, p)
    a, b = q.num.re, q.num.im
    if b:
        vn = valuation(q, _BARRED[p]) + s  # valuation of the numerator a + b*i_p
        n = (a + b * sqrt_neg1(p, vn + k)) % p ** (vn + k)
        if n % p**vn:
            raise ArithmeticError("numerator valuation disagrees with trial division")
        n //= p**vn
    else:  # a rational: v_p of the numerator, with no root of -1
        vn, n = _split_power(a, p)
    return PadicNumber(p, k, vn - s, n * pow(d, -1, p**k) % p**k)


def gauss_frac_part(q: GaussianRational | GaussianInt | Fraction | int, p: int) -> Fraction:
    """Exact p-adic fractional part of the embedding of q, read from the
    embedding at the -valuation digits it needs."""
    q = as_gaussian_rational(q)
    _check_site(p, 1)
    if not q:
        return Fraction(0)
    j = -valuation(q, _BARRED[p])
    return embed(q, p, j).frac_part() if j > 0 else Fraction(0)


def closure_index(u: PadicNumber) -> int:
    """Index in (Z/p**k)* of the subgroup generated by u's unit part, where
    k is u's precision.

    Stabilization of the result as k grows is the caller's concern; a root
    of unity raises TorsionUnitError ("index not finite at this precision").
    """
    if u.is_zero or u.valuation != 0:
        raise ValueError("closure_index needs a unit (valuation 0)")
    p, k, U = u.p, u.precision_k, u.unit_digits
    mod = p**k
    if pow(U, p - 1, mod) == 1:
        raise TorsionUnitError(
            f"{U} mod {p}^{k} is a root of unity: index not finite at this precision"
        )
    group_order = p ** (k - 1) * (p - 1)
    return group_order // _least_exponent(group_order, lambda m: pow(U, m, mod) == 1)
