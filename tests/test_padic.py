"""p-adic arithmetic: canonical roots, embeddings, precision tracking."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pyjama.gaussian import (
    P5,
    P5BAR,
    P13,
    P13BAR,
    THETA13,
    GaussianInt,
    GaussianRational,
    abs_at,
    valuation,
)
from pyjama.padic import (
    PadicNumber,
    PrecisionError,
    TorsionUnitError,
    closure_index,
    embed,
    gauss_frac_part,
    sqrt_neg1,
)

from _util import rng, random_gaussian_rational


def test_sqrt_neg1_pins():
    assert sqrt_neg1(5, 1) == 3
    assert sqrt_neg1(5, 2) == 18
    assert sqrt_neg1(13, 1) == 5
    for p in (5, 13):
        for k in range(1, 9):
            root = sqrt_neg1(p, k)
            assert type(root) is int and 0 <= root < p**k
            assert (root**2 + 1) % p**k == 0
            # the lifts form a coherent tower
            assert root % p == sqrt_neg1(p, 1)


def test_sqrt_neg1_rejects():
    with pytest.raises(ValueError):
        sqrt_neg1(7, 1)
    with pytest.raises(ValueError):
        sqrt_neg1(5, 0)


@pytest.mark.parametrize("call", [
    lambda: sqrt_neg1(7, 1),
    lambda: embed(GaussianInt(2, 1), 7, 3),
    lambda: gauss_frac_part(GaussianRational(GaussianInt(1, 0), 13), 7),
    lambda: gauss_frac_part(GaussianInt(2, 1), 7),
    lambda: embed(Fraction(1, 3), 7, 2),
], ids=["sqrt_neg1", "embed", "gauss_frac_part-fractional",
        "gauss_frac_part-integral", "from_rational"])
def test_unsupported_prime_is_rejected(call):
    with pytest.raises(ValueError, match="unsupported prime 7; expected one of"):
        call()


def test_embed_pins():
    i5 = embed(GaussianInt(0, 1), 5, 1)
    assert i5.valuation == 0 and i5.unit_digits == 3
    for p, site, bar in ((5, P5, P5BAR), (13, P13, P13BAR)):
        for k in range(1, 9):
            img = embed(bar.generator, p, k)
            assert img.valuation == 1
            one = embed(1, p, k)
            assert one.valuation == 0 and one.unit_digits == 1
            unbarred = embed(site.generator, p, k)  # the conjugate of bar's
            assert unbarred.valuation == 0


def test_embed_zero():
    z = embed(GaussianRational(0), 5, 4)
    assert z.is_zero and z == PadicNumber.zero(5, 4)
    assert repr(z) == "PadicNumber(p=5, precision_k=4, valuation=None, unit_digits=0)"


def test_embed_absolute_value_compatibility():
    r = rng(20)
    for _ in range(300):
        q = random_gaussian_rational(r, nonzero=True)
        for p, bar in ((5, P5BAR), (13, P13BAR)):
            img = embed(q, p, 12)
            assert Fraction(p) ** (-img.valuation) == abs_at(q, bar)


def test_embed_is_a_ring_homomorphism():
    r = rng(21)
    for _ in range(120):
        q = random_gaussian_rational(r, nonzero=True)
        w = random_gaussian_rational(r, nonzero=True)
        for p in (5, 13):
            k = 24
            prod = embed(q, p, k) * embed(w, p, k)
            # the two agree in every digit they hold
            assert embed(q * w, p, k).distance(prod) == Fraction(p) ** -(prod.valuation + k)
            # the sum of the images, as integers scaled to the lower valuation
            x, y, total = embed(q, p, k), embed(w, p, k), embed(q + w, p, k)
            m = min(x.valuation, y.valuation)
            mod = p**k
            assert _scaled(total, m, mod) == (_scaled(x, m, mod) + _scaled(y, m, mod)) % mod


def _scaled(x: PadicNumber, m: int, mod: int) -> int:
    """x / p**m as an integer mod ``mod``, for x of valuation at least m."""
    return 0 if x.is_zero else x.unit_digits * x.p ** (x.valuation - m) % mod


def test_padic_value_construction():
    x = PadicNumber(5, 3, -1, 18)
    assert x.valuation == -1 and x.unit_digits == 18
    with pytest.raises(ValueError):
        PadicNumber(5, 3, 0, 10)  # divisible by 5
    with pytest.raises(ValueError):
        PadicNumber(7, 2, 0, 1)
    with pytest.raises(ValueError):
        PadicNumber(5, 2, None, 3)


def test_from_rational():
    # embed is the one constructor; it takes a rational exactly
    x = embed(Fraction(7, 5), 5, 4)
    assert x.valuation == -1 and x.unit_digits == 7
    y = embed(Fraction(50), 5, 4)
    assert y.valuation == 2 and y.unit_digits == 2
    z = embed(Fraction(1, 3), 13, 2)
    assert z.valuation == 0 and (z.unit_digits * 3) % 13**2 == 1
    assert embed(0, 5, 2).is_zero
    # and refuses a float rather than read 0.2 at its binary value, a unit at 5
    with pytest.raises(TypeError, match="got float$"):
        embed(0.2, 5, 3)


@pytest.mark.parametrize("k", [0, -3])
@pytest.mark.parametrize("make", [
    lambda k: embed(Fraction(7, 3), 5, k),
    lambda k: embed(0, 5, k),
    lambda k: PadicNumber.zero(5, k),
    lambda k: closure_index(embed(THETA13, 5, k)),
], ids=["from_rational", "from_rational-zero", "zero", "closure_index"])
def test_constructors_reject_precision_below_one(make, k):
    with pytest.raises(ValueError, match="precision_k must be >= 1"):
        make(k)


def test_serialization_roundtrip():
    # the dataclass repr is the one text form
    assert repr(PadicNumber(5, 2, -1, 18)) == (
        "PadicNumber(p=5, precision_k=2, valuation=-1, unit_digits=18)")
    assert repr(PadicNumber.zero(13, 2)) == (
        "PadicNumber(p=13, precision_k=2, valuation=None, unit_digits=0)")


def _read(text: str) -> PadicNumber:
    """Rebuild a PadicNumber from its repr."""
    return eval(text, {"__builtins__": {}}, {"PadicNumber": PadicNumber})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([5, 13]), st.integers(1, 8), st.sampled_from(["unit", "exact"]),
       st.integers(-10, 10), st.integers(1, 13**8 - 1))
@example(5, 2, "exact", 0, 1)
@example(5, 8, "unit", -10, 5**8 - 1)
def test_padic_parse_round_trip(p, k, form, v, u):
    # the repr carries every field: reading it back gives the same value
    if form == "unit":
        u %= p**k
        x = PadicNumber(p, k, v, u if u % p else u + 1)
    else:
        x = PadicNumber.zero(p, k)
    assert _read(repr(x)) == x


def _valuation(x: Fraction, p: int) -> int:
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# nonzero rationals n/d * p**e; n and d may hold more factors of p
_RATIONALS = st.tuples(st.integers(-10**6, 10**6).filter(bool), st.integers(1, 10**6),
                       st.integers(-4, 4))


def _distance_oracle(p: int, x: Fraction, kx: int, y: Fraction, ky: int) -> Fraction:
    """|x - y|_p as far as x known to kx digits and y to ky digits show it:
    the difference is known up to the coarser absolute precision v + k of
    the two, and an exact zero is known to every digit."""
    known = min(math.inf if t == 0 else _valuation(t, p) + kt for t, kt in ((x, kx), (y, ky)))
    if x == y:
        return Fraction(0) if known == math.inf else Fraction(p) ** -known
    return Fraction(p) ** -min(_valuation(x - y, p), known)


@pytest.mark.parametrize("p", [5, 13])
@pytest.mark.parametrize("k", range(1, 9))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_RATIONALS, _RATIONALS)
@example((1, 1, 0), (-1, 1, 0))  # x + y = 0
@example((1 + 5**3, 1, 0), (1, 1, 0))  # at p = 5, x - y = 5^3 is O(5^k) for k <= 3
@example((3, 1, -4), (7, 2, 4))  # valuations far apart
def test_padic_arithmetic_matches_fraction_oracle(p, k, x, y):
    x, y = (Fraction(n, d) * Fraction(p) ** e for n, d, e in (x, y))
    # y + p**(v + k) * unit cancels against y in every digit y holds
    close = y + Fraction(p) ** (_valuation(y, p) + k) * Fraction(1, 1 + p)
    # each value at this precision and at another, with exact zeros and -y for the sum
    values = [(t, kt) for t in (x, y, -y, close, Fraction(0)) for kt in (k, k % 8 + 1)]
    for a, ka in values:
        A = embed(a, p, ka)
        for b, kb in values:
            B = embed(b, p, kb)
            assert A.distance(B) == _distance_oracle(p, a, ka, b, kb), (a, ka, b, kb)
            # valuations add, no digit is lost, and an exact zero absorbs
            assert A * B == embed(a * b, p, min(ka, kb)), (a, ka, b, kb)


def test_addition_and_cancellation():
    one = embed(1, 5, 6)
    x = embed(1 + 5**3, 5, 6)
    assert x.distance(one) == one.distance(x) == Fraction(1, 5**3)
    # full cancellation is bounded by the absolute precision
    assert x.distance(x) == Fraction(1, 5**6)
    # a difference below the stored digits does not show
    assert embed(5**7, 5, 6).distance(PadicNumber.zero(5, 6)) == Fraction(1, 5**7)
    assert embed(1 + 5**7, 5, 6).distance(one) == Fraction(1, 5**6)
    # an exact zero is known to every digit
    assert PadicNumber.zero(5, 6).distance(one) == 1
    assert PadicNumber.zero(5, 6).distance(PadicNumber.zero(5, 2)) == 0
    # a 5-adic integer minus its fractional part is integral: distance <= 1
    a = embed(Fraction(7, 5), 5, 6)
    assert a.distance(embed(Fraction(2, 5), 5, 6)) <= 1 < a.distance(one)
    with pytest.raises(ValueError, match="mixed primes 5 and 13"):
        one.distance(embed(1, 13, 6))


def test_multiplication_division():
    a = embed(Fraction(7, 5), 5, 6)
    b = embed(Fraction(2, 25), 5, 6)
    prod = a * b
    assert prod.valuation == -3
    assert prod == embed(Fraction(14, 125), 5, 6)
    assert PadicNumber.zero(5, 6) * a == PadicNumber.zero(5, 6)


def test_frac_part():
    assert embed(Fraction(7, 5), 5, 4).frac_part() == Fraction(2, 5)
    assert embed(Fraction(1, 5), 5, 4).frac_part() == Fraction(1, 5)
    assert embed(9, 5, 4).frac_part() == 0
    assert PadicNumber.zero(5, 4).frac_part() == 0
    with pytest.raises(PrecisionError):
        PadicNumber(5, 2, -3, 7).frac_part()


def test_frac_part_idempotence():
    r = rng(23)
    for _ in range(200):
        p = r.choice((5, 13))
        v = r.randint(-6, 3)
        u = r.randrange(1, p**8)
        if u % p == 0:
            continue
        a = PadicNumber(p, 8, v, u)
        f = a.frac_part()
        # a - f is a p-adic integer
        assert a.distance(embed(f, p, 8)) <= 1
        assert f == 0 or f.denominator == p ** (-v)


def test_gauss_frac_part_matches_embedding():
    r = rng(24)
    for _ in range(200):
        q = random_gaussian_rational(r, nonzero=True)
        for p, bar in ((5, P5BAR), (13, P13BAR)):
            f = gauss_frac_part(q, p)
            assert f == embed(q, p, 16).frac_part()
            # the defining properties, independent of embed: f in [0, 1) with
            # a p-power denominator, and q - f integral at the barred site
            assert 0 <= f < 1
            d = f.denominator
            while d % p == 0:
                d //= p
            assert d == 1
            assert q == f or valuation(q - f, bar) >= 0
    assert gauss_frac_part(GaussianRational(GaussianInt(1, 2), 10), 5) == Fraction(1, 5)
    assert gauss_frac_part(GaussianRational(0), 13) == 0


_HIGH_POWERS = st.tuples(st.integers(0, 12), st.integers(0, 12)).map(
    lambda e: 5 ** e[0] * 13 ** e[1])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(-10**6, 10**6), _HIGH_POWERS, st.integers(1, 10**6), _HIGH_POWERS,
       st.sampled_from((5, 13)), st.integers(1, 40))
def test_from_rational_matches_embed(num, num_power, den, den_power, p, k):
    """The two routes from a rational to Q_p agree digit for digit: Fraction
    arithmetic here and the Gaussian embedding in ``embed``."""
    x = Fraction(num * num_power, den * den_power)
    assert _rational_oracle(x, p, k) == embed(GaussianRational.from_fractions(x), p, k)


def _rational_oracle(x: Fraction, p: int, k: int) -> PadicNumber:
    """x in Q_p to k digits: its p-power split off, the rest inverted mod p**k."""
    if x == 0:
        return PadicNumber.zero(p, k)
    v = _valuation(x, p)
    rest = x / Fraction(p) ** v
    return PadicNumber(p, k, v, rest.numerator * pow(rest.denominator, -1, p**k) % p**k)


def test_embed_coerces_a_fraction():
    third = Fraction(1, 3)
    assert embed(third, 5, 4) == _rational_oracle(third, 5, 4)
    assert gauss_frac_part(Fraction(7, 65), 13) == gauss_frac_part(
        GaussianRational(GaussianInt(7, 0), 65), 13)


@pytest.mark.parametrize("call", [
    lambda: embed(0.5, 5, 4),
    lambda: embed(1j, 13, 2),
    lambda: gauss_frac_part(0.5, 5),
], ids=["embed-float", "embed-complex", "gauss_frac_part-float"])
def test_embed_rejects_an_inexact_value(call):
    # a float is not taken at its binary value: the caller converts explicitly
    with pytest.raises(TypeError, match="expected an int, Fraction, GaussianInt or "
                                        "GaussianRational, got (float|complex)$"):
        call()


def _index_oracle(u: int, p: int, k: int) -> int:
    """Exhaustive subgroup enumeration in (Z/p**k)*."""
    mod = p**k
    group_order = p ** (k - 1) * (p - 1)
    seen = set()
    acc = 1
    while True:
        acc = acc * u % mod
        if acc in seen:
            break
        seen.add(acc)
    return group_order // len(seen)


def test_closure_index_pins():
    for k in range(2, 7):
        u = embed(6, 5, k)
        assert closure_index(u) == 4
        assert closure_index(u) == _index_oracle(6, 5, k)


def test_closure_index_theta13_stabilizes():
    values = []
    for k in (2, 3, 4):
        u = embed(THETA13, 5, k)
        assert u.valuation == 0
        idx = closure_index(u)
        assert idx == _index_oracle(u.unit_digits, 5, k)
        values.append(idx)
    assert values[0] == values[1] == values[2]


def test_closure_index_flags_torsion():
    with pytest.raises(TorsionUnitError):
        closure_index(embed(GaussianInt(0, 1), 5, 4))
    with pytest.raises(ValueError):
        closure_index(embed(Fraction(1, 5), 5, 4))


def test_finite_index_subgroups_contain_principal_units():
    """Any enumerated test subgroup contains 1 + p**n Z_p for some n <= k."""
    p, k = 5, 3
    mod = p**k
    r = rng(26)
    for _ in range(20):
        u = r.randrange(2, mod)
        if u % p == 0 or pow(u, p - 1, mod) == 1:
            continue
        sub = set()
        acc = 1
        while acc not in sub:
            sub.add(acc)
            acc = acc * u % mod
        found = None
        for n in range(1, k + 1):
            layer = {(1 + p**n * t) % mod for t in range(p ** (k - n))}
            if layer <= sub:
                found = n
                break
        assert found is not None


def test_cosets_are_open():
    """Units within p**-n of each other land in the same coset of a
    subgroup containing the n-th principal units."""
    p, k = 5, 4
    mod = p**k
    u = 6  # generates 1 + 5 Z_5; subgroup contains 1 + 5^1 Z_5
    sub = set()
    acc = 1
    while acc not in sub:
        sub.add(acc)
        acc = acc * u % mod
    r = rng(27)
    for _ in range(50):
        x = r.randrange(1, mod)
        if x % p == 0:
            continue
        t = r.randrange(0, p ** (k - 1))
        y = x * (1 + p * t) % mod
        # |x - y| / |x| <= 5^-1, and indeed x, y lie in the same coset
        assert y * pow(x, -1, mod) % mod in sub
