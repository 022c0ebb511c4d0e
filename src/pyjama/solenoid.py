"""The limit space for the stripe dynamics: points of the quotient
(C x Q5 x Q13) / (twisted diagonal image of A), the rotation action,
character evaluation, torsion/periodic classification, dense periodic sets
and orbit sweeps.

A point is interpreted through its evaluation pairing with A: a triple
(z, a, b) sends r in A to

    -Re(z * r) + frac5(a * i5(r)) + frac13(b * i13(r))   (mod 1).

The diagonal image of q in A that this pairing annihilates is the *twisted*
triple (q, i5(q/2), i13(q/2)): for every y in A the real part of y and the
two fractional parts of i_p(y/2) agree mod 1, which makes the pairing of
that triple with r vanish for all q, r in A.  Halving is harmless on the
p-adic side (2 is a unit at 5 and 13), so the fundamental domain is still
[0,1)^2 x Z5 x Z13.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

from .gaussian import (
    GaussianInt,
    GaussianRational,
    P5,
    P13,
    _half_width,
    _least_exponent,
    _split_power,
    _widest_gap,
    abs_at,
    as_gaussian_rational,
    exact_gaussian_rational,
    in_A,
    mod_from_rational,
    theta_power,
    unit_group_order,
)
from .padic import PadicNumber, embed, gauss_frac_part

__all__ = [
    "DEFAULT_PRECISION",
    "SolenoidPoint",
    "ExactPoint",
    "PointClassification",
    "act",
    "evaluate",
    "stripe_membership",
    "classify_point",
    "period_exponent",
    "periodic_dense_set",
    "orbit_eval_rows",
    "float_orbit_rows",
    "orbit_max_gap",
    "orbit_eval_sweep",
]

#: p-adic digits carried by points constructed without an explicit precision.
DEFAULT_PRECISION = 24


def _require_in_A(q) -> GaussianRational:
    qq = as_gaussian_rational(q)
    if not in_A(qq):
        raise ValueError(
            f"{qq} lies outside the base ring; its action/evaluation is not well-defined"
        )
    return qq


@dataclass(frozen=True)
class SolenoidPoint:
    """A representative triple (z, a, b) with z an exact Gaussian rational
    (a float or complex is taken at its binary value), a a 5-adic number
    and b a 13-adic number; an int or Fraction a or b is embedded at
    DEFAULT_PRECISION digits."""

    z: GaussianRational
    a: PadicNumber
    b: PadicNumber

    def __post_init__(self):
        object.__setattr__(self, "z", exact_gaussian_rational(self.z))
        for name, p in (("a", 5), ("b", 13)):
            c = getattr(self, name)
            if isinstance(c, (int, Fraction)):
                c = PadicNumber.from_rational(c, p, DEFAULT_PRECISION)
                object.__setattr__(self, name, c)
        if not isinstance(self.a, PadicNumber) or self.a.p != 5:
            raise TypeError("second component must be 5-adic")
        if not isinstance(self.b, PadicNumber) or self.b.p != 13:
            raise TypeError("third component must be 13-adic")

    @classmethod
    def from_complex(cls, w, precision_k: int = DEFAULT_PRECISION) -> "SolenoidPoint":
        """The purely complex point; evaluate(from_complex(w), r) = Re(w*r) mod 1,
        with a float or complex w taken at its binary value."""
        return cls(
            -exact_gaussian_rational(w),
            PadicNumber.zero(5, precision_k),
            PadicNumber.zero(13, precision_k),
        )

    def __str__(self) -> str:
        return f"({self.z}, {self.a}, {self.b})"


@dataclass(frozen=True)
class ExactPoint:
    """A diagonal point shifted by a purely complex offset, kept fully exact.

    Denotes the triple (q - offset_w, i5(q/2), i13(q/2)); classification only
    applies when offset_w = 0.  Evaluation needs no p-adic precision at all.
    """

    q: GaussianRational
    offset_w: GaussianRational = GaussianRational(0)

    def __post_init__(self):
        object.__setattr__(self, "q", as_gaussian_rational(self.q))
        object.__setattr__(self, "offset_w", as_gaussian_rational(self.offset_w))

    def evaluate(self, r) -> Fraction:
        """Exact pairing value in [0, 1)."""
        rr = _require_in_A(r)
        y = self.q * rr
        total = (
            -y.re
            + (self.offset_w * rr).re
            + gauss_frac_part(y / 2, 5)
            + gauss_frac_part(y / 2, 13)
        )
        return total % 1

    def same_class(self, other: "ExactPoint") -> bool:
        """Whether the two exact points denote the same point of the quotient."""
        return self.offset_w == other.offset_w and in_A(self.q - other.q)

    def __str__(self) -> str:
        return f"({self.q}; {self.offset_w})"


# ---------------------------------------------------------------------------
# action and evaluation
# ---------------------------------------------------------------------------


def _times(c: PadicNumber, q: GaussianRational) -> PadicNumber:
    """c * i_p(q); an exact zero stays exact zero at its own precision."""
    if c.is_zero and c.zero_abs is None:
        return c
    return c * embed(q, c.p, c.precision_k)


def _act(qq: GaussianRational, x: SolenoidPoint | ExactPoint):
    """act(qq, x) for qq in A."""
    if isinstance(x, ExactPoint):
        return ExactPoint(qq * x.q, qq * x.offset_w)
    return SolenoidPoint(x.z * qq, _times(x.a, qq), _times(x.b, qq))


def _evaluate(x: SolenoidPoint | ExactPoint, rr: GaussianRational) -> Fraction:
    """evaluate(x, rr) for rr in A."""
    if isinstance(x, ExactPoint):
        return x.evaluate(rr)
    return (-(x.z * rr).re + _times(x.a, rr).frac_part() + _times(x.b, rr).frac_part()) % 1


def act(q, x: SolenoidPoint | ExactPoint):
    """Componentwise multiplication by the three embeddings of q in A."""
    return _act(_require_in_A(q), x)


def evaluate(x: SolenoidPoint | ExactPoint, r) -> Fraction:
    """The exact pairing value of the point against r in A, in [0, 1)."""
    return _evaluate(x, _require_in_A(r))


def stripe_membership(x, theta, epsilon) -> bool:
    """Whether the pairing value against theta lies strictly within epsilon of
    zero on the circle; a float epsilon is taken at its binary value."""
    eps = _half_width(epsilon)
    v = evaluate(x, theta)
    return min(v, 1 - v) < eps


# ---------------------------------------------------------------------------
# torsion and periodicity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointClassification:
    """Torsion/periodic verdict for a diagonal point, with the two absolute
    values at the unbarred sites as witness."""

    kind: str  # "periodic" or "torsion_only"
    abs_p5: Fraction
    abs_p13: Fraction

    @property
    def is_periodic(self) -> bool:
        return self.kind == "periodic"


def _diagonal_rational(q) -> GaussianRational:
    if isinstance(q, ExactPoint):
        if q.offset_w:
            raise ValueError("classification requires a zero complex offset")
        return q.q
    return as_gaussian_rational(q)


def classify_point(q) -> PointClassification:
    """Every Gaussian rational gives a torsion point; it is periodic exactly
    when its absolute values at the two unbarred sites are at most 1."""
    qq = _diagonal_rational(q)
    if not qq:
        return PointClassification("periodic", Fraction(0), Fraction(0))
    a5 = abs_at(qq, P5)
    a13 = abs_at(qq, P13)
    kind = "periodic" if a5 <= 1 and a13 <= 1 else "torsion_only"
    return PointClassification(kind, a5, a13)


def period_exponent(q) -> int:
    """The least m >= 1 such that both generator rotations to the m-th power
    fix the (periodic) diagonal point; divides the unit group order of the
    Gaussian integers modulo the clearing integer n, the least n with n*q in
    A: the denominator without its 5- and 13-parts, which at a periodic
    point are powers of the barred primes, units of A.  So A/nA = Z[i]/n,
    and the search divides that order by its primes while the rotations
    still fix the residue x of n*q."""
    qq = _diagonal_rational(q)
    cls = classify_point(qq)
    if not cls.is_periodic:
        raise ValueError(f"{qq} is not periodic (witness {cls.abs_p5}, {cls.abs_p13})")
    if not qq:
        return 1
    n = _split_power(_split_power(qq.den, 5)[1], 13)[1]
    x = mod_from_rational(qq * n, n)
    gens = [mod_from_rational(theta_power(*e), n) for e in ((1, 0), (0, 1))]

    return _least_exponent(unit_group_order(n),
                           lambda m: all(pow(g, m, n) * x % n == x for g in gens))


def periodic_dense_set(n: int) -> tuple[list[ExactPoint], int]:
    """Representatives of the 7**(-n) torsion layer (49**n exact points) and
    an exponent m for which both generator rotations to the m-th power fix
    every one of them."""
    if n < 1:
        raise ValueError("layer index must be positive")
    mod = 7**n
    points = [
        ExactPoint(GaussianRational(GaussianInt(a, b), mod))
        for a in range(mod)
        for b in range(mod)
    ]
    # x = 1/mod has residue 1, so its period exponent is lcm(ord theta5,
    # ord theta13) in Z[i]/mod, which fixes every point of the layer
    return points, period_exponent(GaussianRational(1, mod))


# ---------------------------------------------------------------------------
# orbit sweeps and the metric bound
# ---------------------------------------------------------------------------


def orbit_eval_rows(
    x: SolenoidPoint | ExactPoint, m: int, sweep_max: int
) -> list[tuple[int, int, Fraction]]:
    """Rows (r, s, value) of the pairing of the rotated point against 1, for
    rotation exponents (m*r, m*s) over the full grid 0 <= r, s <= sweep_max."""
    if m < 1 or sweep_max < 1:
        raise ValueError("exponent step and sweep bound must be positive")
    step5 = theta_power(m, 0)
    step13 = theta_power(0, m)
    one = GaussianRational(1)
    rows = []
    row_point = x
    for r in range(sweep_max + 1):
        point = row_point
        for s in range(sweep_max + 1):
            rows.append((r, s, _evaluate(point, one)))
            if s < sweep_max:
                point = _act(step13, point)
        if r < sweep_max:
            row_point = _act(step5, row_point)
    return rows


def float_orbit_rows(w: complex, m: int, sweep_max: int) -> list[tuple[int, int, float]]:
    """``orbit_eval_rows(SolenoidPoint.from_complex(w), m, sweep_max)`` in
    floats: the value at (r, s) is -Re(z) mod 1, in [0, 1), for z = -w times
    the rotation, stepped by one rounded complex product per row and per
    sample."""
    if m < 1 or sweep_max < 1:
        raise ValueError("exponent step and sweep bound must be positive")
    step5 = complex(theta_power(m, 0))
    step13 = complex(theta_power(0, m))
    w = complex(w)
    if not cmath.isfinite(w):
        raise ValueError(f"{w} is not finite")
    rows = []
    row_z = -w
    for r in range(sweep_max + 1):
        z = row_z
        for s in range(sweep_max + 1):
            v = (-z.real) % 1.0  # 1.0 when -z.real is a tiny negative number
            rows.append((r, s, v if v < 1.0 else 0.0))
            z *= step13
        row_z *= step5
    return rows


def orbit_max_gap(rows) -> Fraction | float:
    """Largest circular gap that the values of orbit rows leave on the circle."""
    values = sorted(v for _, _, v in rows)
    return _widest_gap(values, (1 - values[-1] + values[0], values[-1], values[0]))[0]


def orbit_eval_sweep(x, m: int, sweep_max: int) -> Fraction:
    """Largest circular gap left by the orbit evaluations on the circle."""
    return orbit_max_gap(orbit_eval_rows(x, m, sweep_max))
