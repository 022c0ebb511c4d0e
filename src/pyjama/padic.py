"""Finite-precision arithmetic in the 5-adic and 13-adic fields.

``PadicNumber(p, precision_k, valuation, unit_digits)`` is the one p-adic
value type: an integer valuation plus a unit part stored modulo
p**precision_k, with a distinguished zero marker that remembers the
absolute precision at which a cancellation happened.  The module also owns
the canonical Hensel lifts of sqrt(-1) (one per prime, sign fixed so the
barred prime site becomes the non-unit under embedding), the embedding of
Q(i) into each field, exact p-adic fractional parts and multiplicative
closure indices.
"""

from __future__ import annotations

import re as _re
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

    Zero is carried as a marker: ``valuation is None``.  ``zero_abs = n``
    records that the value is O(p**n) (all that survived a cancellation);
    ``zero_abs is None`` means exactly zero.
    """

    p: int
    precision_k: int
    valuation: int | None
    unit_digits: int
    zero_abs: int | None = None

    def __post_init__(self):
        p, k = self.p, self.precision_k
        _check_site(p, k)
        if self.valuation is None:
            if self.unit_digits != 0:
                raise ValueError("zero marker must carry unit_digits 0")
        else:
            u = self.unit_digits
            if not (1 <= u < p**k) or u % p == 0:
                raise ValueError(f"unit digits {u} invalid mod {p}^{k}")
            if self.zero_abs is not None:
                raise ValueError("zero_abs only applies to the zero marker")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, p: int, k: int, abs_prec: int | None = None) -> "PadicNumber":
        return cls(p, k, None, 0, abs_prec)

    @classmethod
    def from_unit(cls, p: int, k: int, valuation: int, unit: int) -> "PadicNumber":
        _check_site(p, k)  # before p**k is formed
        u = unit % p**k
        if u == 0 or u % p == 0:
            raise ValueError(f"{unit} is not a unit mod {p}^{k}")
        return cls(p, k, valuation, u)

    @classmethod
    def from_rational(cls, x: Fraction | int, p: int, k: int) -> "PadicNumber":
        _check_site(p, k)  # before p**k is formed
        x = Fraction(x)
        if x == 0:
            return cls.zero(p, k)
        e, num = _split_power(x.numerator, p)
        s, den = _split_power(x.denominator, p)
        return cls(p, k, e - s, num * pow(den, -1, p**k) % p**k)

    # -- basic queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.valuation is None

    def abs_bound(self) -> Fraction:
        """An upper bound for the p-adic absolute value (exact for nonzero
        values, p**(-zero_abs) for the zero marker, 0 for exact zero)."""
        if self.valuation is not None:
            return Fraction(self.p) ** (-self.valuation)
        if self.zero_abs is None:
            return Fraction(0)
        return Fraction(self.p) ** (-self.zero_abs)

    def agrees(self, other: "PadicNumber") -> bool:
        """True when self - other vanishes at the comparable precision."""
        return (self - other).is_zero

    # -- arithmetic ---------------------------------------------------------

    def _require_same_p(self, other: "PadicNumber") -> None:
        if self.p != other.p:
            raise ValueError(f"mixed primes {self.p} and {other.p}")

    def __neg__(self) -> "PadicNumber":
        if self.is_zero:
            return self
        p, k = self.p, self.precision_k
        return PadicNumber(p, k, self.valuation, (-self.unit_digits) % p**k)

    def __add__(self, other: "PadicNumber") -> "PadicNumber":
        if not isinstance(other, PadicNumber):
            return NotImplemented
        self._require_same_p(other)
        p = self.p
        if self.is_zero and other.is_zero:
            if self.zero_abs is None:
                return other
            if other.zero_abs is None:
                return self
            n = min(self.zero_abs, other.zero_abs)
            return PadicNumber.zero(p, min(self.precision_k, other.precision_k), n)
        if self.is_zero or other.is_zero:
            z, x = (self, other) if self.is_zero else (other, self)
            if z.zero_abs is None:
                return x
            # x known mod p^(v+k); the O(p^n) term blurs digits from n up
            digits = min(z.zero_abs, x.valuation + x.precision_k) - x.valuation
            if digits < 1:
                # x drowns in the marker's uncertainty: the sum is O(p^n)
                return PadicNumber.zero(
                    p, min(self.precision_k, other.precision_k), z.zero_abs
                )
            return PadicNumber(p, digits, x.valuation, x.unit_digits % p**digits)
        lo, hi = (self, other) if self.valuation <= other.valuation else (other, self)
        shift = hi.valuation - lo.valuation
        digits = min(lo.precision_k, shift + hi.precision_k)
        mod = p**digits
        t = (lo.unit_digits + hi.unit_digits * p**shift) % mod
        if t == 0:
            return PadicNumber.zero(p, min(self.precision_k, other.precision_k),
                                    lo.valuation + digits)
        c, t = _split_power(t, p)
        return PadicNumber(p, digits - c, lo.valuation + c, t % p**(digits - c))

    def __sub__(self, other: "PadicNumber") -> "PadicNumber":
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "PadicNumber") -> "PadicNumber":
        if not isinstance(other, PadicNumber):
            return NotImplemented
        self._require_same_p(other)
        p = self.p
        k = min(self.precision_k, other.precision_k)
        if self.is_zero or other.is_zero:
            bounds = []
            for z, x in ((self, other), (other, self)):
                if not z.is_zero:
                    continue
                if z.zero_abs is None:
                    return PadicNumber.zero(p, k)
                shift = x.valuation if not x.is_zero else (
                    x.zero_abs if x.zero_abs is not None else None
                )
                if shift is None:
                    return PadicNumber.zero(p, k)
                bounds.append(z.zero_abs + shift)
            return PadicNumber.zero(p, k, min(bounds))
        u = self.unit_digits * other.unit_digits % p**k
        return PadicNumber(p, k, self.valuation + other.valuation, u)

    def __truediv__(self, other: "PadicNumber") -> "PadicNumber":
        if not isinstance(other, PadicNumber):
            return NotImplemented
        self._require_same_p(other)
        if other.is_zero:
            if other.zero_abs is None:
                raise ZeroDivisionError("p-adic division by exact zero")
            raise PrecisionError(
                f"division by O({other.p}^{other.zero_abs}): divisor may be zero"
            )
        p = self.p
        k = min(self.precision_k, other.precision_k)
        if self.is_zero:
            if self.zero_abs is None:
                return PadicNumber.zero(p, k)
            return PadicNumber.zero(p, k, self.zero_abs - other.valuation)
        u = self.unit_digits * pow(other.unit_digits, -1, p**k) % p**k
        return PadicNumber(p, k, self.valuation - other.valuation, u)

    def __pow__(self, e: int) -> "PadicNumber":
        if self.is_zero:
            if e > 0:
                if self.zero_abs is None:
                    return self
                return PadicNumber.zero(self.p, self.precision_k, self.zero_abs * e)
            raise ZeroDivisionError("nonpositive power of p-adic zero")
        p, k = self.p, self.precision_k
        u = pow(self.unit_digits, e, p**k)
        return PadicNumber(p, k, self.valuation * e, u)

    # -- fractional part ----------------------------------------------------

    def frac_part(self) -> Fraction:
        """The unique rational in [0,1) with p-power denominator whose
        difference from this value is a p-adic integer."""
        p = self.p
        if self.is_zero:
            if self.zero_abs is None or self.zero_abs >= 0:
                return Fraction(0)
            raise PrecisionError(
                f"fractional part of O({p}^{self.zero_abs}) is undetermined"
            )
        v = self.valuation
        if v >= 0:
            return Fraction(0)
        if -v > self.precision_k:
            raise PrecisionError(
                f"fractional part needs {-v} digits, only {self.precision_k} stored"
            )
        c = self.unit_digits % p ** (-v)
        return Fraction(c, p ** (-v))

    # -- serialization ------------------------------------------------------

    def __str__(self) -> str:
        p, k = self.p, self.precision_k
        if self.is_zero:
            n = self.zero_abs
            if n is None:
                return "0"
            # the precision is implied when it is max(1, n)
            return f"0 mod {p}^{n}" + (f" k={k}" if k != max(1, n) else "")
        return f"{p}^{self.valuation} * {self.unit_digits} mod {p}^{k}"

    _FORM = _re.compile(
        r"^(\d+)\^(-?\d+) \* (\d+) mod (\d+)\^(\d+)$"
    )
    _ZERO_FORM = _re.compile(r"^0 mod (\d+)\^(-?\d+)(?: k=(\d+))?$")

    @classmethod
    def parse(cls, text: str, *, p: int | None = None, precision: int | None = None) -> "PadicNumber":
        s = text.strip()
        if s == "0":
            if p is None or precision is None:
                raise ValueError("parsing exact zero requires p and precision")
            return cls.zero(p, precision)
        m = cls._ZERO_FORM.match(s)
        if m:
            pp, n, k = m.groups()
            n = int(n)
            return cls.zero(int(pp), int(k) if k else precision or max(1, n), n)
        m = cls._FORM.match(s)
        if m is None:
            raise ValueError(f"cannot parse p-adic literal {text!r}")
        p1, v, u, p2, k = (int(g) for g in m.groups())
        if p1 != p2:
            raise ValueError(f"mismatched primes in {text!r}")
        return cls(p1, k, v, u)


def embed(q: GaussianRational | GaussianInt | Fraction | int, p: int, k: int) -> PadicNumber:
    """The field embedding of Q(i) determined by the canonical sqrt(-1):
    the absolute value of the image equals abs_at(q, barred site)."""
    q = as_gaussian_rational(q)
    _check_site(p, k)
    if not q:
        return PadicNumber.zero(p, k)
    v = valuation(q, _BARRED[p])
    s, d = _split_power(q.den, p)
    vn = v + s  # valuation of the numerator a + b*i_p
    root = sqrt_neg1(p, vn + k)
    mod = p ** (vn + k)
    n = (q.num.re + q.num.im * root) % mod
    if n % p**vn:
        raise ArithmeticError("numerator valuation disagrees with trial division")
    u = (n // p**vn) * pow(d, -1, p**k) % p**k
    return PadicNumber(p, k, v, u)


def gauss_frac_part(q: GaussianRational | GaussianInt | Fraction | int, p: int) -> Fraction:
    """Exact p-adic fractional part of the embedding of q, read from the
    embedding at the -valuation digits it needs."""
    q = as_gaussian_rational(q)
    _check_site(p, 1)
    if not q:
        return Fraction(0)
    j = -valuation(q, _BARRED[p])
    return embed(q, p, j).frac_part() if j > 0 else Fraction(0)


def closure_index(u: PadicNumber, k: int | None = None) -> int:
    """Index in (Z/p**k)* of the subgroup generated by u's unit part.

    Stabilization of the result as k grows is the caller's concern; a root
    of unity raises TorsionUnitError ("index not finite at this precision").
    """
    if u.is_zero or u.valuation != 0:
        raise ValueError("closure_index needs a unit (valuation 0)")
    p = u.p
    if k is None:
        k = u.precision_k
    if k > u.precision_k:
        raise PrecisionError(f"need {k} digits, only {u.precision_k} stored")
    mod = p**k
    U = u.unit_digits % mod
    if pow(U, p - 1, mod) == 1:
        raise TorsionUnitError(
            f"{U} mod {p}^{k} is a root of unity: index not finite at this precision"
        )
    group_order = p ** (k - 1) * (p - 1)
    return group_order // _least_exponent(group_order, lambda m: pow(U, m, mod) == 1)
