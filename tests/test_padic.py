"""p-adic arithmetic: canonical roots, embeddings, precision tracking."""

import math
import operator
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pyjama.gaussian import (
    P5BAR,
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
    lambda: PadicNumber.from_rational(Fraction(1, 3), 7, 2),
], ids=["sqrt_neg1", "embed", "gauss_frac_part-fractional",
        "gauss_frac_part-integral", "from_rational"])
def test_unsupported_prime_is_rejected(call):
    with pytest.raises(ValueError, match="unsupported prime 7; expected one of"):
        call()


def test_embed_pins():
    i5 = embed(GaussianInt(0, 1), 5, 1)
    assert i5.valuation == 0 and i5.unit_digits == 3
    for p, bar in ((5, P5BAR), (13, P13BAR)):
        for k in range(1, 9):
            img = embed(bar.generator, p, k)
            assert img.valuation == 1
            one = embed(1, p, k)
            assert one.valuation == 0 and one.unit_digits == 1
            unbarred = embed(bar.generator.conj(), p, k)
            assert unbarred.valuation == 0


def test_embed_zero():
    z = embed(GaussianRational(0), 5, 4)
    assert z.is_zero and z.zero_abs is None


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
            assert (embed(q * w, p, k) - embed(q, p, k) * embed(w, p, k)).is_zero
            if q + w:
                assert (embed(q + w, p, k) - (embed(q, p, k) + embed(w, p, k))).is_zero


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
    x = PadicNumber.from_rational(Fraction(7, 5), 5, 4)
    assert x.valuation == -1 and x.unit_digits == 7
    y = PadicNumber.from_rational(Fraction(50), 5, 4)
    assert y.valuation == 2 and y.unit_digits == 2
    z = PadicNumber.from_rational(Fraction(1, 3), 13, 2)
    assert z.valuation == 0 and (z.unit_digits * 3) % 13**2 == 1
    assert PadicNumber.from_rational(0, 5, 2).is_zero


@pytest.mark.parametrize("k", [0, -3])
@pytest.mark.parametrize("make", [
    lambda k: PadicNumber.from_rational(Fraction(7, 3), 5, k),
    lambda k: PadicNumber.from_rational(0, 5, k),
    lambda k: PadicNumber.zero(5, k),
    lambda k: closure_index(embed(THETA13, 5, 4), k),
], ids=["from_rational", "from_rational-zero", "zero", "closure_index"])
def test_constructors_reject_precision_below_one(make, k):
    with pytest.raises(ValueError, match="precision_k must be >= 1"):
        make(k)


def test_serialization_roundtrip():
    assert str(PadicNumber(5, 2, -1, 18)) == "5^-1 * 18 mod 5^2"
    assert str(PadicNumber.zero(13, 2)) == "0"
    # a marker writes its precision k unless it is max(1, n)
    for p, k, n, text in ((5, 3, 3, "0 mod 5^3"),
                          (5, 1, 0, "0 mod 5^0"),
                          (13, 3, -4, "0 mod 13^-4 k=3"),
                          (5, 3, 1, "0 mod 5^1 k=3"),
                          (13, 1, -2, "0 mod 13^-2")):
        assert str(PadicNumber.zero(p, k, n)) == text


def _read(text: str, p: int, k: int) -> PadicNumber:
    """Rebuild a PadicNumber from its str form; an exact "0" takes p and k from the caller."""
    if text == "0":
        return PadicNumber.zero(p, k)
    m = re.fullmatch(r"0 mod (\d+)\^(-?\d+)(?: k=(\d+))?", text)
    if m:
        n = int(m[2])
        return PadicNumber.zero(int(m[1]), int(m[3]) if m[3] else max(1, n), n)
    m = re.fullmatch(r"(\d+)\^(-?\d+) \* (\d+) mod (\d+)\^(\d+)", text)
    assert m and m[1] == m[4], text
    return PadicNumber(int(m[1]), int(m[5]), int(m[2]), int(m[3]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([5, 13]), st.integers(1, 8), st.sampled_from(["unit", "marker", "exact"]),
       st.integers(-10, 10), st.integers(1, 13**8 - 1))
@example(5, 1, "marker", 0, 1)  # "0 mod 5^0"
@example(13, 3, "marker", -4, 1)  # a negative absolute precision
@example(5, 2, "exact", 0, 1)
@example(5, 8, "unit", -10, 5**8 - 1)
@example(5, 3, "marker", 1, 1)  # "0 mod 5^1 k=3"
@example(13, 1, "marker", -2, 1)  # k = max(1, n): "0 mod 13^-2"
def test_padic_parse_round_trip(p, k, form, v, u):
    # the str form carries every field: reading it back gives the same value
    if form == "unit":
        u %= p**k
        x = PadicNumber(p, k, v, u if u % p else u + 1)
        assert _read(str(x), p=1, k=1) == x  # p and k come from the text
    else:
        x = PadicNumber.zero(p, k, v if form == "marker" else None)
        if form == "marker":
            # a marker writes its precision unless it is max(1, n), and reads back whole
            suffix = "" if k == max(1, v) else f" k={k}"
            assert str(x) == f"0 mod {p}^{v}{suffix}"
            assert _read(str(x), p=1, k=1) == x
    assert _read(str(x), p=p, k=k) == x


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
_OPS = (operator.add, operator.sub, operator.mul)


def _fields(x: PadicNumber) -> tuple:
    return x.is_zero, x.zero_abs, x.precision_k, str(x)


def _zero_rule(op, a: PadicNumber, b: PadicNumber) -> tuple:
    """``_fields`` of op(a, b) when an operand is zero, by the rule: an exact
    zero is the identity of + and absorbs *, a sum is known to the coarser
    absolute precision of its terms, and in a product the levels add."""
    p, k = a.p, min(a.precision_k, b.precision_k)
    if op is operator.sub:
        b = -b

    def marker(n):
        if n == math.inf:
            return True, None, k, "0"
        return True, n, k, f"0 mod {p}^{n}" + ("" if k == max(1, n) else f" k={k}")

    if op is operator.mul:
        # the level of a value is its valuation, or a marker's exponent
        level = [math.inf if x.is_zero and x.zero_abs is None else
                 x.zero_abs if x.is_zero else x.valuation for x in (a, b)]
        return marker(sum(level))
    if a.is_zero and a.zero_abs is None:
        return _fields(b)
    if b.is_zero and b.zero_abs is None:
        return _fields(a)
    known = min(x.zero_abs if x.is_zero else x.valuation + x.precision_k for x in (a, b))
    x = b if a.is_zero else a
    if x.is_zero or x.valuation >= known:
        return marker(known)
    digits = known - x.valuation
    return False, None, digits, f"{p}^{x.valuation} * {x.unit_digits % p**digits} mod {p}^{digits}"


@pytest.mark.parametrize("p", [5, 13])
@pytest.mark.parametrize("k", range(1, 9))
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_RATIONALS, _RATIONALS)
@example((1, 1, 0), (-1, 1, 0))  # x + y = 0
@example((1 + 5**3, 1, 0), (1, 1, 0))  # at p = 5, x - y = 5^3 is O(5^k) for k <= 3
@example((3, 1, -4), (7, 2, 4))  # valuations far apart
def test_padic_arithmetic_matches_fraction_oracle(p, k, x, y):
    x, y = (Fraction(n, d) * Fraction(p) ** e for n, d, e in (x, y))
    vx, vy = _valuation(x, p), _valuation(y, p)
    X, Y = PadicNumber.from_rational(x, p, k), PadicNumber.from_rational(y, p, k)
    for op in _OPS:
        want, got = op(x, y), op(X, Y)
        assert (got - PadicNumber.from_rational(want, p, k)).is_zero, (op, x, y)
        if op is operator.mul:
            # valuations add, and no digit is lost
            assert got.valuation == _valuation(want, p) and got.precision_k == k
            continue
        # the sum is known to the coarser absolute precision of its terms
        known = min(vx, vy) + k
        if got.is_zero:
            assert got.zero_abs == known and (want == 0 or _valuation(want, p) >= known)
        else:
            assert got.valuation == _valuation(want, p) and got.valuation + got.precision_k == known
    # a difference that is zero at the stored precision
    close = PadicNumber.from_rational(y + Fraction(p) ** (vy + k) * Fraction(1, 1 + p), p, k)
    blur = Y - close
    assert blur.is_zero and blur.zero_abs == vy + k
    # zero operands at another precision: exact zero and markers O(p^n)
    zeros, others = ([PadicNumber.zero(p, kz, n) for n in (None, -2, 0, 3)]
                     for kz in (k % 8 + 1, k))
    for z in zeros:
        for w in (X, Y, *others):
            for a, b in ((z, w), (w, z)):
                for op in _OPS:
                    assert _fields(op(a, b)) == _zero_rule(op, a, b), (op, str(a), str(b))


def test_addition_and_cancellation():
    one = PadicNumber.from_rational(1, 5, 6)
    x = PadicNumber.from_rational(1 + 5**3, 5, 6)
    d = x - one
    assert d.valuation == 3 and d.unit_digits == 1
    # full cancellation leaves a zero marker at the absolute precision
    z = x - x
    assert z.is_zero and z.zero_abs == 0 + 6
    # the marker absorbs additions below its level
    y = PadicNumber.from_rational(5**7, 5, 6) + z
    assert y.is_zero
    # but blurs everything at or above it
    blurred = PadicNumber.zero(5, 6, 0) + one
    assert blurred.is_zero and blurred.zero_abs == 0
    assert (PadicNumber.zero(5, 6) + one) == one


def test_multiplication_division():
    a = PadicNumber.from_rational(Fraction(7, 5), 5, 6)
    b = PadicNumber.from_rational(Fraction(2, 25), 5, 6)
    prod = a * b
    assert prod.valuation == -3
    assert (prod - PadicNumber.from_rational(Fraction(14, 125), 5, 6)).is_zero
    marker = PadicNumber.zero(5, 6, 4)
    assert (marker * a).zero_abs == 4 - 1


def test_frac_part():
    assert PadicNumber.from_rational(Fraction(7, 5), 5, 4).frac_part() == Fraction(2, 5)
    assert PadicNumber.from_rational(Fraction(1, 5), 5, 4).frac_part() == Fraction(1, 5)
    assert PadicNumber.from_rational(9, 5, 4).frac_part() == 0
    assert PadicNumber.zero(5, 4).frac_part() == 0
    assert PadicNumber.zero(5, 4, 2).frac_part() == 0
    with pytest.raises(PrecisionError):
        PadicNumber.zero(5, 4, -1).frac_part()
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
        residue = a - PadicNumber.from_rational(f, p, 8)
        assert residue.frac_part() == 0
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
    arithmetic in ``from_rational`` and the Gaussian embedding in ``embed``."""
    x = Fraction(num * num_power, den * den_power)
    assert PadicNumber.from_rational(x, p, k) == embed(
        GaussianRational.from_fractions(x), p, k)


def test_embed_coerces_a_fraction():
    third = Fraction(1, 3)
    assert embed(third, 5, 4) == PadicNumber.from_rational(third, 5, 4)
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
        u = PadicNumber.from_rational(6, 5, k)
        assert closure_index(u, k) == 4
        assert closure_index(u, k) == _index_oracle(6, 5, k)


def test_closure_index_theta13_stabilizes():
    values = []
    for k in (2, 3, 4):
        u = embed(THETA13, 5, k)
        assert u.valuation == 0
        idx = closure_index(u, k)
        assert idx == _index_oracle(u.unit_digits, 5, k)
        values.append(idx)
    assert values[0] == values[1] == values[2]


def test_closure_index_flags_torsion():
    with pytest.raises(TorsionUnitError):
        closure_index(embed(GaussianInt(0, 1), 5, 4), 4)
    with pytest.raises(ValueError):
        closure_index(PadicNumber.from_rational(Fraction(1, 5), 5, 4), 4)
    with pytest.raises(PrecisionError):
        closure_index(PadicNumber.from_rational(6, 5, 2), 5)


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
