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

Every point is an ``ExactPoint``: such a triple shifted by a purely
complex offset, held exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gaussian import (
    GaussianInt,
    GaussianRational,
    P5,
    P13,
    _folded,
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
from .padic import gauss_frac_part

__all__ = [
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


def _require_in_A(q) -> GaussianRational:
    qq = as_gaussian_rational(q)
    if not in_A(qq):
        raise ValueError(
            f"{qq} lies outside the base ring; its action/evaluation is not well-defined"
        )
    return qq


@dataclass(frozen=True)
class ExactPoint:
    """A diagonal point shifted by a purely complex offset, kept fully exact.

    Denotes the triple (q - offset_w, i5(q/2), i13(q/2)); classification
    takes q alone, a scalar.  Evaluation needs no p-adic precision at all.
    """

    q: GaussianRational
    offset_w: GaussianRational = GaussianRational(0)

    def __post_init__(self):
        object.__setattr__(self, "q", as_gaussian_rational(self.q))
        object.__setattr__(self, "offset_w", as_gaussian_rational(self.offset_w))

    @classmethod
    def from_complex(cls, w) -> "ExactPoint":
        """The purely complex point (-w, 0, 0), so that evaluate(from_complex(w),
        r) = Re(w*r) mod 1; a float or complex w is taken at its binary value."""
        return cls(0, exact_gaussian_rational(w))

    def same_class(self, other: "ExactPoint") -> bool:
        """Whether the two exact points denote the same point of the quotient."""
        return self.offset_w == other.offset_w and in_A(self.q - other.q)


# ---------------------------------------------------------------------------
# action and evaluation
# ---------------------------------------------------------------------------


def _act(qq: GaussianRational, x: ExactPoint) -> ExactPoint:
    """act(qq, x) for qq in A."""
    return ExactPoint(qq * x.q, qq * x.offset_w)


def _evaluate(x: ExactPoint, rr: GaussianRational) -> Fraction:
    """evaluate(x, rr) for rr in A: Re(offset_w*rr) - Re(q*rr) plus the two
    p-adic fractional parts of i_p(q*rr/2)."""
    y = x.q * rr
    total = (x.offset_w * rr).re - y.re
    if y:  # i_p(0) has no fractional part
        total += gauss_frac_part(y / 2, 5) + gauss_frac_part(y / 2, 13)
    return total % 1


def act(q, x: ExactPoint) -> ExactPoint:
    """Componentwise multiplication by the three embeddings of q in A."""
    return _act(_require_in_A(q), x)


def evaluate(x: ExactPoint, r) -> Fraction:
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


def classify_point(q) -> PointClassification:
    """Every Gaussian rational gives a torsion point; it is periodic exactly
    when its absolute values at the two unbarred sites are at most 1."""
    qq = as_gaussian_rational(q)
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
    qq = as_gaussian_rational(q)
    cls = classify_point(qq)
    if not cls.is_periodic:
        raise ValueError(f"{qq} is not periodic (witness {cls.abs_p5}, {cls.abs_p13})")
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


def orbit_eval_rows(x: ExactPoint, m: int, sweep_max: int) -> list[tuple[int, int, Fraction]]:
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
    """``orbit_eval_rows(ExactPoint.from_complex(w), m, sweep_max)`` in
    floats: the value at (r, s) is -Re(z) mod 1, in [0, 1), for z = -w times
    the rotation, stepped by one rounded complex product per row and per
    sample.  A NaN sample, of a recurrence that overflowed, is a ValueError."""
    if m < 1 or sweep_max < 1:
        raise ValueError("exponent step and sweep bound must be positive")
    step5 = complex(theta_power(m, 0))
    step13 = complex(theta_power(0, m))
    w = complex(exact_gaussian_rational(w))
    rows = []
    row_z = -w
    for r in range(sweep_max + 1):
        z = row_z
        for s in range(sweep_max + 1):
            v = (-z.real) % 1.0  # 1.0 when -z.real is a tiny negative number
            rows.append((r, s, v if v < 1.0 else _folded(v, 1.0)))
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
