"""Constructive approximation and density routines.

Every routine here returns a *checked certificate*: approximation outputs have
their residual bounds re-verified (exactly, or at the declared p-adic
precision) before they are handed back, and density reports carry the witness
pair realizing the maximal gap so the verdict can be reproduced.

The simultaneous-approximation construction works in the ring generated by
Gaussian integers and the inverses of the two conjugate primes ``1 - 2i`` and
``2 - 3i`` (plus the rational prime 7 for the three-site variant): a target
residue class pins the numerator modulo a sublattice of the Gaussian
integers, and the complex target is then met by an exact closest-vector
rounding inside that sublattice, which is just a rescaled copy of the
Gaussian-integer grid.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from .gaussian import (
    _BARRED,
    GaussianInt,
    GaussianRational,
    PrimeSite,
    THETA5,
    THETA13,
    _folded,
    _least_exponent,
    _widest_gap,
    abs_at,
    as_gaussian_rational,
    crt,
    exact_gaussian_rational,
    in_A,
    nearest_gaussian_int,
)
from .padic import PadicNumber, PrecisionError, embed

__all__ = [
    "CosetSpec",
    "DensityReport",
    "strong_approx",
    "strong_approx_3way",
    "coset_element",
    "semigroup_density",
    "circle_density",
]


_OTHER_PRIME = {5: 13, 13: 5}
# the inert prime 7: a unit at both barred sites, with residue field of 49
_SEVEN = PrimeSite("7", GaussianInt(7, 0), 49)


# ---------------------------------------------------------------------------
# multiplicative cosets at one prime site
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _subgroup_order(p: int, m: int, k: int) -> int:
    """Order of the subgroup of (Z/p^k)^x generated by the unit parts of the
    m-th powers of the two standard rotations, viewed p-adically.  The group
    is cyclic for odd p, so that is the lcm of the two generators' orders,
    and a unit lies in the subgroup exactly when that power of it is 1."""
    mod, n = p**k, (p - 1) * p ** (k - 1)
    # the unit part of an embedded rotation, with any uniformizer power
    # stripped, is exactly its stored digit expansion
    gens = [pow(embed(theta, p, k).unit_digits, m, mod) for theta in (THETA5, THETA13)]
    return math.lcm(*(_least_exponent(n, lambda e: pow(g, e, mod) == 1) for g in gens))


@dataclass(frozen=True)
class CosetSpec:
    """A coset ``representative * J`` of the finite-index subgroup J of the
    p-adic multiplicative group generated (topologically) by the m-th powers
    of the two standard rotations.

    Membership is decided at the stored precision: a valuation congruence
    modulo ``m`` plus unit-part membership in the subgroup modulo
    ``p**precision_k``, decided by the subgroup's order.
    """

    p: int
    m: int
    representative: PadicNumber
    precision_k: int

    def __post_init__(self):
        if self.p not in (5, 13):
            raise ValueError("the prime site must lie over 5 or 13")
        if self.m < 1:
            raise ValueError("generation exponent must be positive")
        if self.precision_k < 1:
            raise ValueError("precision must be at least one digit")
        rep = self.representative
        if not isinstance(rep, PadicNumber) or rep.p != self.p:
            raise TypeError("representative must be a p-adic number at the "
                            "same prime")
        if rep.is_zero:
            raise ValueError("a multiplicative coset needs an invertible "
                             "representative")
        if rep.precision_k < self.precision_k:
            raise PrecisionError(
                "representative carries fewer digits than the membership "
                "precision requires"
            )

    def contains(self, x) -> bool:
        """Decide membership of ``x`` (a p-adic number, or any exact value
        embeddable at this prime) at this spec's precision."""
        if not isinstance(x, PadicNumber):
            x = embed(x, self.p, self.precision_k)
        if x.p != self.p:
            raise ValueError("value lives at a different prime")
        if x.is_zero:
            return False
        if x.precision_k < self.precision_k:
            raise PrecisionError(
                "value carries fewer digits than the membership precision"
            )
        rep = self.representative
        if (x.valuation - rep.valuation) % self.m != 0:
            return False
        mod = self.p**self.precision_k
        ratio = x.unit_digits * pow(rep.unit_digits, -1, mod) % mod
        order = _subgroup_order(self.p, self.m, self.precision_k)
        return pow(ratio, order, mod) == 1


# ---------------------------------------------------------------------------
# density reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityReport:
    """Outcome of a density scan: the scale parameter, the maximal gap of the
    sorted sample, and the two consecutive points realizing it."""

    parameter: object
    max_gap: object
    witness_pair: tuple
    threshold: object = None
    sample: tuple = ()

    @property
    def is_dense(self):
        """Verdict against the threshold (None when no threshold was set)."""
        if self.threshold is None:
            return None
        return self.max_gap <= self.threshold

    def csv_rows(self) -> list[tuple]:
        rows = [("parameter", str(self.parameter)),
                ("max_gap", str(self.max_gap)),
                ("witness_lo", str(self.witness_pair[0])),
                ("witness_hi", str(self.witness_pair[1]))]
        if self.threshold is not None:
            rows.append(("threshold", str(self.threshold)))
            rows.append(("dense", str(self.is_dense)))
        return rows


# ---------------------------------------------------------------------------
# strong approximation
# ---------------------------------------------------------------------------


def _least_power(base: int, lo: int, hi: int) -> int:
    """Least e >= 0 with lo * base**e >= hi, for integers base >= 2 and
    lo >= 1.  One running integer power, so e steps cost e multiplications;
    each exponent search below is this with its condition cross-multiplied
    by the tolerance's denominator."""
    e, power = 0, lo
    while power < hi:
        power *= base
        e += 1
    return e


def _integer_lift(x: PadicNumber, exponent: int) -> int:
    """The integer in [0, p**exponent) congruent to ``x`` (requires ``x``
    integral and known to at least that many digits)."""
    if x.is_zero:
        return 0
    if x.valuation < 0:
        raise ValueError("cannot lift a non-integral value")
    if x.valuation + x.precision_k < exponent:
        raise PrecisionError("not enough digits for the integer lift")
    return x.unit_digits * x.p**x.valuation % x.p**exponent


def _approximate(z: GaussianRational, targets, shrink: PrimeSite,
                 delta) -> tuple[GaussianRational, int]:
    """q = (G + W*h)/den within delta of z and of every p-adic target, and
    the exponent e of ``shrink`` in den; every residual is re-checked.

    A target b at p needs K = k + j digits at the barred site above p, where
    p^-k <= delta and p^j clears b's denominator: den carries bar^j, and the
    numerator lands in G + W*Z[i] with W = prod bar^K.  ``shrink`` is a unit
    at every target's prime; rounding in the lattice W*Z[i]/den leaves
    |q - z|^2 at most prod p^k / (2*N(shrink)^e), below delta^2 for this e.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("tolerance must be positive")
    dn, dd = delta.numerator, delta.denominator
    sites = []  # (target, k, K) per target
    for b in targets:
        k = _least_power(b.p, dn, dd)  # least k with p^-k <= delta
        if not b.is_zero and b.valuation + b.precision_k < k:
            raise PrecisionError(
                "target carries too few digits for the requested tolerance")
        sites.append((b, k, k if b.is_zero else k + max(0, -b.valuation)))
    e = _least_power(shrink.residue_norm, 2 * dn * dn,
                     math.prod(b.p**k for b, k, _ in sites) * dd * dd)
    den = reduce(operator.mul,
                 [GaussianRational(_BARRED[b.p].generator**(K - k)) for b, k, K in sites],
                 GaussianRational(shrink.generator**e))
    W = reduce(operator.mul, [_BARRED[b.p].generator**K for b, _, K in sites])
    # the numerator's residue mod p^K at each site, joined by crt
    lifts = [(_integer_lift(b * embed(den, b.p, K + 2), K), b.p**K)
             for b, _, K in sites]
    G, M = lifts[0]
    for B, m in lifts[1:]:
        G, M = crt(G, M, B, m), M * m
    h = nearest_gaussian_int((z * den - G) / W)
    q = GaussianRational(GaussianInt(G, 0) + W * h) / den
    # embed counts digits from q's valuation, -j like b's: K + 2 reach p^(k+2)
    if (q - z).abs2() > delta * delta or not all(
            embed(q, b.p, K + 2).distance(b) <= delta for b, _, K in sites):
        raise RuntimeError("approximation certificate failed verification")
    return q, e


def strong_approx(z, b: PadicNumber, delta) -> GaussianRational:
    """Find q in the base ring with |q - z| <= delta in the complex plane and
    |q - b| <= delta at the prime of ``b`` (5-adically or 13-adically).

    The complex target is taken exactly (``exact_gaussian_rational``), so
    the closest-vector rounding and both residual checks are exact at every
    tolerance.  Both bounds are re-verified before returning; a target known
    to fewer digits than the tolerance requires raises PrecisionError.
    """
    if not isinstance(b, PadicNumber):
        raise TypeError("the local target must be a p-adic number")
    # powers of the other barred generator shrink the complex radius
    q, _ = _approximate(exact_gaussian_rational(z), (b,),
                        _BARRED[_OTHER_PRIME[b.p]], delta)
    if not in_A(q):
        raise RuntimeError(f"approximation {q} is not in A")
    return q


def strong_approx_3way(z, a: PadicNumber, b: PadicNumber,
                       delta) -> GaussianRational:
    """Find q in the base ring extended by 1/7 approximating a complex, a
    5-adic and a 13-adic target simultaneously, all residuals <= delta.

    The inert prime 7 is invisible at both finite sites, so widening the
    denominator by powers of 7 shrinks the complex covering radius without
    disturbing the residue constraints.  As in ``strong_approx`` the complex
    target is taken exactly.
    """
    if not isinstance(a, PadicNumber) or a.p != 5:
        raise TypeError("first local target must be 5-adic")
    if not isinstance(b, PadicNumber) or b.p != 13:
        raise TypeError("second local target must be 13-adic")
    q, t = _approximate(exact_gaussian_rational(z), (a, b), _SEVEN, delta)
    # q * 7**v with v = v_7(q.den): q.den divides N(den) = 5^j5*13^j13*49^t
    if not in_A(q * math.gcd(q.den, 49**t)):
        raise RuntimeError(f"approximation {q} is not in A up to powers of 7")
    return q


# ---------------------------------------------------------------------------
# small elements of a prescribed coset
# ---------------------------------------------------------------------------


def coset_element(mu, nu, H: CosetSpec) -> GaussianRational:
    """Find r in the base ring with complex absolute value <= mu, absolute
    value <= mu at the prime opposite to H, absolute value >= nu at H's own
    prime, whose image lies in the coset H at its precision.

    Candidates are uniformizer-times-unit representatives multiplied by a
    growing power of the shrinking element (the opposite conjugate prime over
    the tenth power of H's conjugate prime), whose complex modulus is < 1
    while its H-site absolute value grows.
    """
    mu = Fraction(mu)
    nu = Fraction(nu)
    if mu <= 0 or nu <= 0:
        raise ValueError("magnitude bounds must be positive")
    p = H.p
    other = _OTHER_PRIME[p]
    site = _BARRED[p]
    other_site = _BARRED[other]
    uniform = GaussianRational(site.generator)
    shrink = GaussianRational(other_site.generator) / GaussianRational(
        site.generator**10
    )
    # exact magnitudes of the shrinking element at the three places
    log_shrink_c = 0.5 * math.log(float(shrink.abs2()))
    if not log_shrink_c < 0:
        raise RuntimeError(
            "the shrinking element does not shrink at the complex place")

    unit_order = (p - 1) * p ** (H.precision_k - 1)
    reps = []
    two = GaussianRational(GaussianInt(2, 0))
    for c in range(H.m):
        x = uniform**c
        for _ in range(unit_order):
            reps.append((c, x))
            x = x * two

    def _log_fraction(value: Fraction) -> float:
        # math.log on the integer parts avoids float overflow on huge values
        return math.log(value.numerator) - math.log(value.denominator)

    # least power for which every bound can hold for the smallest candidate
    def _n_floor(x: GaussianRational, c: int) -> int:
        return max(
            0,
            math.ceil((_log_fraction(mu) - 0.5 * _log_fraction(x.abs2())) / log_shrink_c),
            # opposite site: |x| there is 1, each shrink factor divides by `other`
            math.ceil(-_log_fraction(mu) / math.log(other)),
            # own site: |x| = p^-c, each shrink factor multiplies by p^10
            math.ceil((_log_fraction(nu) + c * math.log(p)) / (10 * math.log(p))),
        )

    n_start = min(_n_floor(x, c) for c, x in reps)
    cycle = H.m * unit_order
    power = shrink**n_start
    for n in range(n_start, n_start + cycle + 16):
        for c, x in reps:
            if _n_floor(x, c) > n:
                continue
            r = x * power
            if r.abs2() > mu * mu:
                continue
            if abs_at(r, other_site) > mu:
                continue
            if abs_at(r, site) < nu:
                continue
            if H.contains(r):
                if not in_A(r):
                    raise RuntimeError(f"coset representative {r} is not in A")
                return r
        power = power * shrink
    raise PrecisionError(
        "no coset representative found at the requested precision"
    )


# ---------------------------------------------------------------------------
# density of the doubling-tripling semigroup and of circle rotations
# ---------------------------------------------------------------------------


def semigroup_density(eta, delta) -> DensityReport:
    """Enumerate {eta * 2^r * 3^s <= 1}, sort it, and report the largest gap
    of the sample inside [0, 1] — gaps to the endpoints 0 and 1 count.  With
    eta = p/q it sorts k = 2^r*3^s <= q//p and measures gaps as integers over q."""
    eta = Fraction(eta)
    delta = Fraction(delta)
    if not 0 < eta < 1:
        raise ValueError("scale must lie strictly between 0 and 1")
    if not 0 < delta < 1:
        raise ValueError("density tolerance must lie strictly between 0 and 1")
    p, q = eta.numerator, eta.denominator
    top, ks, pow2 = q // p, [], 1
    while pow2 <= top:
        k = pow2
        while k <= top:
            ks.append(k)
            k *= 3
        pow2 *= 2
    ks.sort()
    gap, lo, hi = _widest_gap([*(p * k for k in ks), q], (p, 0, p))
    return DensityReport(
        parameter=eta,
        max_gap=Fraction(gap, q),
        witness_pair=(Fraction(lo, q), Fraction(hi, q)),
        threshold=delta,
        sample=tuple(Fraction(p * k, q) for k in ks),
    )


def circle_density(theta: GaussianRational, t: complex, M: int) -> DensityReport:
    """Sample theta^r * t for 0 <= r <= M and report the largest angular gap
    (radians) between consecutive sample points on their common circle.
    The sampled angles lie in [0, 2*pi); a float overflow is a ValueError."""
    try:
        q = as_gaussian_rational(theta)
    except TypeError:
        raise ValueError("the rotation must be an exact Gaussian rational") from None
    if q.abs2() != 1:
        raise ValueError("the rotation must have unit modulus exactly")
    if q**4 == 1:  # the roots of unity in Q(i) are +-1 and +-i
        raise ValueError("the rotation is a root of unity; its orbit is "
                         "finite and never dense")
    t = complex(exact_gaussian_rational(t))
    if t == 0:
        raise ValueError("the sampled point must be nonzero")
    if M < 0:
        raise ValueError("the power count must be nonnegative")
    step = complex(q)
    tau = 2 * math.pi
    angles = []
    cur = t
    try:  # abs raises OverflowError for a modulus beyond the float range
        radius = abs(t)
        for _ in range(M + 1):
            a = math.atan2(cur.imag, cur.real) % tau  # tau for a tiny negative angle
            angles.append(a if a < tau else _folded(a, tau))
            cur *= step
            cur *= radius / abs(cur)
    except OverflowError:
        raise ValueError("the float recurrence overflowed: a modulus is not finite") from None
    angles.sort()
    gap, lo, hi = _widest_gap(angles, (angles[0] + tau - angles[-1], angles[-1], angles[0]))
    return DensityReport(
        parameter=M,
        max_gap=gap,
        witness_pair=(lo, hi),
        sample=tuple(angles),
    )
