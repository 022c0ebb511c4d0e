"""Exact Gaussian arithmetic: canonical forms, valuations, rotations."""

from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from pyjama.gaussian import (
    P5,
    P5BAR,
    P13,
    P13BAR,
    SITES,
    THETA5,
    THETA13,
    GaussianInt,
    GaussianRational,
    abs_at,
    as_gaussian_rational,
    crt,
    exact_gaussian_rational,
    gaussian_ints_of_norm,
    in_A,
    mod_from_rational,
    nearest_gaussian_int,
    theta_power,
    theta_set,
    try_exact_div,
    unit_circle_elements,
    unit_group_order,
    valuation,
)

from pyjama.approx import CosetSpec, circle_density
from pyjama.covering import CoveringConfig, snap_to_lattice, uncovered_region
from pyjama.padic import embed, gauss_frac_part
from pyjama.solenoid import ExactPoint, _require_in_A, classify_point

from _util import (
    in_A_oracle,
    order_oracle,
    rng,
    random_gaussian_int,
    random_gaussian_rational,
)


def _complex(g: GaussianInt) -> complex:
    return complex(g.re, g.im)


def _conj(g: GaussianInt) -> GaussianInt:
    return GaussianInt(g.re, -g.im)


def test_site_constants():
    assert P5.generator == GaussianInt(1, 2) and P5.residue_norm == 5
    assert P5BAR.generator == GaussianInt(1, -2)
    assert P13.generator == GaussianInt(2, 3) and P13.residue_norm == 13
    assert P13BAR.generator == GaussianInt(2, -3)
    assert P5.generator.norm() == 5
    assert P13.generator.norm() == 13
    for site, bar in ((P5, P5BAR), (P13, P13BAR)):
        assert bar.generator == _conj(site.generator)


def test_gaussian_int_arithmetic_matches_complex():
    r = rng(1)
    for _ in range(300):
        g, h = random_gaussian_int(r), random_gaussian_int(r)
        assert _complex(g + h) == _complex(g) + _complex(h)
        assert _complex(g * h) == _complex(g) * _complex(h)
        assert (g * h).norm() == g.norm() * h.norm()
        assert _conj(g).norm() == g.norm()


def test_gaussian_int_exact_div():
    g = GaussianInt(1, 2) * GaussianInt(3, -5)
    assert try_exact_div(g, GaussianInt(3, -5)) == GaussianInt(1, 2)
    assert try_exact_div(GaussianInt(1, 0), GaussianInt(1, 2)) is None
    with pytest.raises(ZeroDivisionError):
        try_exact_div(GaussianInt(1, 0), GaussianInt(0, 0))


def test_rational_canonical_form():
    r = rng(2)
    for _ in range(300):
        q = random_gaussian_rational(r, max_coeff=90, max_den=90)
        assert q.den > 0
        assert gcd(gcd(q.num.re, q.num.im), q.den) == 1
    assert GaussianRational(GaussianInt(2, 4), 6) == GaussianRational(GaussianInt(1, 2), 3)
    assert GaussianRational(GaussianInt(2, 4), -6) == GaussianRational(GaussianInt(-1, -2), 3)


def test_rational_field_operations():
    r = rng(3)
    for _ in range(200):
        q = random_gaussian_rational(r, nonzero=True)
        w = random_gaussian_rational(r, nonzero=True)
        assert (q + w).re == q.re + w.re and (q + w).im == q.im + w.im
        assert (q - w).re == q.re - w.re
        prod = q * w
        assert prod.re == q.re * w.re - q.im * w.im
        assert prod.im == q.re * w.im + q.im * w.re
        assert q * q.inverse() == 1
        assert (q / w) * w == q
        assert q**3 == q * q * q
        assert q**-2 == (q * q).inverse()
        assert q.abs2() == q.re**2 + q.im**2


def test_rational_equality_and_hash():
    assert GaussianRational(GaussianInt(3, 0)) == 3
    assert GaussianRational(GaussianInt(3, 0)) == GaussianInt(3, 0)
    assert GaussianRational(GaussianInt(1, 0), 2) == Fraction(1, 2)
    assert len({THETA5, THETA5 * 1, THETA13}) == 2
    assert GaussianRational(GaussianInt(7, 3)) != GaussianRational(GaussianInt(7, 3), 2)


def test_serialization_canonical_form():
    assert str(THETA5) == "-3/5+4/5i"
    assert str(THETA13) == "-5/13+12/13i"
    assert str(GaussianRational(1)) == "1/1+0/1i"
    assert str(GaussianRational(GaussianInt(1, -1), 2)) == "1/2-1/2i"
    r = rng(4)
    for _ in range(200):
        q = random_gaussian_rational(r, max_coeff=200, max_den=120)
        assert GaussianRational.parse(str(q)) == q


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.fractions(), st.fractions())
@example(Fraction(0), Fraction(0))
@example(Fraction(-3, 5), Fraction(-4, 5))
@example(Fraction(-7), Fraction(1, 3))
def test_parse_str_round_trip(re_part, im_part):
    q = GaussianRational.from_fractions(re_part, im_part)
    assert GaussianRational.parse(str(q)) == q


def test_parse_accepts_loose_forms():
    assert GaussianRational.parse("3+4i") == GaussianRational(GaussianInt(3, 4))
    assert GaussianRational.parse("i") == GaussianRational(GaussianInt(0, 1))
    assert GaussianRational.parse("-i") == GaussianRational(GaussianInt(0, -1))
    assert GaussianRational.parse("7") == 7
    assert GaussianRational.parse("1/2") == Fraction(1, 2)
    assert GaussianRational.parse("4/5i").im == Fraction(4, 5)
    assert GaussianRational.parse(" -3/5 + 4/5 i".replace(" ", "")) == THETA5


def test_parse_rejects_junk():
    for bad in ("", "3+4j", "1+2+3i", "i+i", "1//2", "+"):
        with pytest.raises(ValueError):
            GaussianRational.parse(bad)


def test_valuation_pins():
    for site in SITES:
        assert valuation(GaussianRational(1), site) == 0
    assert valuation(THETA5, P5BAR) == -1
    assert valuation(THETA5, P5) == 1
    assert valuation(THETA13, P13BAR) == -1
    assert valuation(THETA13, P13) == 1
    assert valuation(5, P5) == 1
    assert valuation(5, P5BAR) == 1
    assert valuation(13, P13) == 1
    with pytest.raises(ValueError):
        valuation(GaussianRational(0), P5)


def test_valuation_additivity_and_conjugation():
    r = rng(5)
    for _ in range(150):
        q = random_gaussian_rational(r, nonzero=True)
        w = random_gaussian_rational(r, nonzero=True)
        for site in SITES:
            assert valuation(q * w, site) == valuation(q, site) + valuation(w, site)
        for site, bar in ((P5, P5BAR), (P13, P13BAR)):
            conj = GaussianRational(_conj(q.num), q.den)
            assert valuation(q, site) == valuation(conj, bar)
            assert valuation(q, bar) == valuation(conj, site)


def test_abs_at():
    assert abs_at(THETA5, P5BAR) == 5
    assert abs_at(THETA5, P5) == Fraction(1, 5)
    for site in SITES:
        assert abs_at(GaussianRational(1), site) == 1
    r = rng(6)
    for _ in range(100):
        q = random_gaussian_rational(r, nonzero=True)
        w = random_gaussian_rational(r, nonzero=True)
        for site in SITES:
            assert abs_at(q * w, site) == abs_at(q, site) * abs_at(w, site)


def test_theta_set():
    assert theta_set(0) == [GaussianRational(1)]
    ts1 = theta_set(1)
    assert THETA5 in ts1 and THETA13 in ts1
    for n in range(4):
        ts = theta_set(n)
        assert len(ts) == (n + 1) ** 2
        assert len(set(ts)) == (n + 1) ** 2
        assert all(t.abs2() == 1 for t in ts)
    prods = {t * u for t in theta_set(1) for u in theta_set(2)}
    assert prods <= set(theta_set(3))
    assert theta_power(2, 1) == THETA5**2 * THETA13
    assert theta_power(-1, 0) * THETA5 == 1


def test_min_period_multiplier():
    # (P5bar * P13bar)**N, the period of the covering tests, clears every
    # rotation of theta_set(N); at N = 1 no proper divisor does
    base = P5BAR.generator * P13BAR.generator
    assert base == GaussianInt(-4, -7)
    for n in range(3):
        D = base**n
        assert D.norm() == 5**n * 13**n
        for t in theta_set(n):
            assert (GaussianRational(D) * t).is_gaussian_int()
    for d in (GaussianInt(1, 0), P5BAR.generator, P13BAR.generator):
        assert any(
            not (GaussianRational(d) * t).is_gaussian_int() for t in theta_set(1)
        )
    # the singleton config {1, theta5} admits the smaller multiplier 1-2i
    assert (GaussianRational(GaussianInt(1, -2)) * THETA5).to_gaussian_int() == GaussianInt(1, 2)


def _unit_circle_oracle(t_max: int) -> set[GaussianRational]:
    """Independent primitive-triple enumeration: a**2 + b**2 = d**2."""
    out: set[GaussianRational] = set()
    for d in range(1, t_max + 1):
        for a in range(d + 1):
            b = isqrt(d * d - a * a)
            if a * a + b * b != d * d or gcd(gcd(a, b), d) != 1:
                continue
            for x, y in ((a, b), (a, -b), (-a, b), (-a, -b), (b, a), (b, -a), (-b, a), (-b, -a)):
                out.add(GaussianRational(GaussianInt(x, y), d))
    return out


def test_unit_circle_elements():
    units = {
        GaussianRational(1),
        GaussianRational(-1),
        GaussianRational(GaussianInt(0, 1)),
        GaussianRational(GaussianInt(0, -1)),
    }
    assert set(unit_circle_elements(1)) == units
    elems = unit_circle_elements(13)
    assert GaussianRational(GaussianInt(3, 4), 5) in elems
    assert GaussianRational(GaussianInt(5, 12), 13) in elems
    for t_max in (1, 2, 5, 13, 30):
        got = unit_circle_elements(t_max)
        assert len(got) == len(set(got))
        assert set(got) == _unit_circle_oracle(t_max)
        for q in got:
            assert q.abs2() == 1
            assert q.den % 2 == 1
            assert q.den <= t_max


def test_lattice_separation():
    """Distinct points of (1/P5bar-generator) * Z[i] are >= 1/sqrt(5) apart."""
    pts = [
        GaussianRational(GaussianInt(a, b)) / GaussianRational(P5BAR.generator)
        for a in range(-3, 4)
        for b in range(-3, 4)
    ]
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            assert (x - y).abs2() >= Fraction(1, 5)


def test_in_A():
    assert in_A(GaussianRational(0))
    assert in_A(GaussianRational(1))
    assert in_A(THETA5) and in_A(THETA13)
    assert in_A(GaussianRational(1) / GaussianRational(P5BAR.generator))
    assert not in_A(GaussianRational(1) / GaussianRational(P5.generator))
    assert not in_A(GaussianRational(GaussianInt(1, 1), 2))
    assert not in_A(GaussianRational(1, 5))
    assert not in_A(GaussianRational(1, 3))
    r = rng(7)
    for _ in range(100):
        g = random_gaussian_int(r)
        e, f = r.randint(0, 3), r.randint(0, 3)
        q = GaussianRational(g) / GaussianRational(P5BAR.generator**e * P13BAR.generator**f)
        assert in_A(q)


_A_FACTORS = (P5.generator, P5BAR.generator, P13.generator, P13BAR.generator,
              GaussianInt(7, 0), GaussianInt(3, 0), GaussianInt(1, 1))
_UNITS = (GaussianInt(1, 0), GaussianInt(0, 1), GaussianInt(-1, 0), GaussianInt(0, -1))
_A_PRODUCT = st.tuples(st.sampled_from(_UNITS),
                       st.lists(st.integers(0, 12), min_size=7, max_size=7))


def _a_product(unit_and_exponents) -> GaussianInt:
    unit, exponents = unit_and_exponents
    for factor, e in zip(_A_FACTORS, exponents):
        unit = unit * factor**e
    return unit


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_A_PRODUCT, _A_PRODUCT)
@example((GaussianInt(1, 0), [0] * 7), (GaussianInt(1, 0), [0] * 7))
@example((GaussianInt(0, 1), [3, 0, 0, 0, 0, 0, 0]), (GaussianInt(1, 0), [0] * 7))
@example((GaussianInt(1, 0), [0] * 7), (GaussianInt(1, 0), [1, 0, 0, 0, 0, 0, 0]))
@example((GaussianInt(1, 0), [12, 0, 12, 0, 0, 0, 0]), (GaussianInt(-1, 0), [0, 12, 0, 12, 0, 0, 0]))
@example((GaussianInt(1, 0), [11, 0, 12, 0, 0, 0, 0]), (GaussianInt(1, 0), [12, 12, 12, 12, 0, 0, 0]))
@example((GaussianInt(1, 0), [0, 0, 0, 0, 2, 0, 0]), (GaussianInt(1, 0), [0, 0, 0, 0, 1, 0, 0]))
def test_in_A_matches_valuation_oracle(num, den):
    """in_A agrees with the stripping oracle on quotients of products of the
    four sites' generators, 7, 3, 1+i and the units, and on their
    numerators given as GaussianInt and int."""
    num, den = _a_product(num), _a_product(den)
    q = GaussianRational(num) / GaussianRational(den)
    for value in (q, num, num.re, 0, GaussianInt(0, 0), GaussianRational(0)):
        assert in_A(value) == in_A_oracle(value), value


def test_unit_group_order():
    assert unit_group_order(1) == 1
    assert unit_group_order(2) == 2
    assert unit_group_order(3) == 8
    assert unit_group_order(7) == 48
    assert unit_group_order(49) == 49 * 48
    # the closed form against a count of the units a + bi of Z[i]/n
    for n in [*range(2, 151), 2**8, 5**3, 7**3, 13**2]:
        count = sum(1 for a in range(n) for b in range(n) if gcd(a * a + b * b, n) == 1)
        assert unit_group_order(n) == count, n
    with pytest.raises(ValueError):
        unit_group_order(0)


def test_mod_arithmetic():
    r = rng(9)
    for n in (7, 49, 13):
        for _ in range(40):
            g = random_gaussian_int(r, n)
            if gcd(g.norm(), n) != 1:
                continue
            with pytest.raises(ValueError):
                pow(g, -1, n)  # a unit, but e < 0 is refused with or without n
            assert pow(g, 5, n) == pow(g, 4, n) * g % n
    t5 = mod_from_rational(THETA5, 7)
    assert t5 == GaussianInt(5, 5)
    assert 48 % order_oracle(t5, 7) == 0
    with pytest.raises(ValueError):
        pow(GaussianInt(1, 2), -1, 5)


_gints = st.builds(GaussianInt, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))


@settings(max_examples=200, deadline=None)
@given(_gints, st.integers(0, 40), st.integers(1, 400))
def test_modular_pow_matches_plain_power(g, e, n):
    assert pow(g, e, n) == (g**e) % n
    r = pow(g, e, n)
    assert 0 <= r.re < n and 0 <= r.im < n
    with pytest.raises(ValueError):
        pow(g, -1 - e, n)


def test_plain_power_rejects_a_negative_exponent():
    with pytest.raises(ValueError):
        GaussianInt(2, 1) ** -1


def test_rational_power_matches_repeated_multiplication():
    cases = [
        GaussianRational(GaussianInt(1, 1), 2),  # (1+i)/2: ((1+i)/2)**2 = i/2
        GaussianRational(GaussianInt(3, 3), 4),
        GaussianRational(GaussianInt(2, 0), 6),
        THETA5,
        THETA13 / 7,
    ]
    r = rng(17)
    cases += [random_gaussian_rational(r, nonzero=True) for _ in range(40)]
    for q in cases:
        for e in range(-6, 7):
            base = q if e >= 0 else q.inverse()
            want = GaussianRational(1)
            for _ in range(abs(e)):
                want = want * base
            assert q**e == want, (q, e)
    assert GaussianRational(GaussianInt(1, 1), 2) ** 2 == GaussianRational(GaussianInt(0, 1), 2)


_ONE_MESSAGE = ("expected an int, Fraction, GaussianInt or GaussianRational, "
                "got (float|complex|str)$")


def _spec():
    return CosetSpec(p=5, m=1, representative=embed(1, 5, 3),
                     precision_k=3)


def _cover():
    return uncovered_region(CoveringConfig([1, THETA5], Fraction(1, 4), GaussianInt(1, -2)))


_GATES = {
    "as_gaussian_rational": as_gaussian_rational,
    "valuation": lambda x: valuation(x, P5),
    "in_A": in_A,
    "require_in_A": _require_in_A,
    "ExactPoint.q": ExactPoint,
    "ExactPoint.offset_w": lambda x: ExactPoint(GaussianRational(1), x),
    "classify_point": classify_point,
    "CoverReport.contains": lambda x: _cover().contains(x),
    "snap_to_lattice": lambda x: snap_to_lattice(x, 0, 0, Fraction(1, 100)),
    "CosetSpec.contains": lambda x: _spec().contains(x),
    "embed": lambda x: embed(x, 5, 4),
    "gauss_frac_part": lambda x: gauss_frac_part(x, 13),
}

_VALUE_ERROR_GATES = {
    "CoveringConfig": lambda x: CoveringConfig([x], Fraction(1, 4)),
    "circle_density": lambda x: circle_density(x, 1 + 0j, 3),
}


@pytest.mark.parametrize("bad", [0.5, 0.5 + 0j, "1/2"], ids=["float", "complex", "str"])
@pytest.mark.parametrize("name", sorted(_GATES) + sorted(_VALUE_ERROR_GATES))
def test_one_exact_value_gate(name, bad):
    # every entry point takes an exact value through as_gaussian_rational and
    # raises its one TypeError; two documented sites raise ValueError
    if name in _GATES:
        with pytest.raises(TypeError, match=_ONE_MESSAGE):
            _GATES[name](bad)
    else:
        with pytest.raises(ValueError):
            _VALUE_ERROR_GATES[name](bad)


def test_gaussian_ints_of_norm():
    assert gaussian_ints_of_norm(0) == [GaussianInt(0, 0)]
    assert gaussian_ints_of_norm(3) == []
    five = gaussian_ints_of_norm(25)
    assert len(five) == 12
    assert GaussianInt(3, 4) in five and GaussianInt(-5, 0) in five
    assert all(g.norm() == 25 for g in five)
    # a brute-force oracle over the square [-isqrt(n), isqrt(n)]^2, on every
    # small norm and on the catalog's period norms
    for n in [*range(201), 325, 845, 4225]:
        r = isqrt(n)
        want = [GaussianInt(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1)
                if a * a + b * b == n]
        assert gaussian_ints_of_norm(n) == want, n


def test_nearest_gaussian_int():
    q = GaussianRational(GaussianInt(7, -3), 4)  # (1.75, -0.75)
    assert nearest_gaussian_int(q) == GaussianInt(2, -1)
    assert nearest_gaussian_int(GaussianRational(GaussianInt(1, -1), 2)) == GaussianInt(1, 0)
    assert nearest_gaussian_int(GaussianRational(GaussianInt(5, 5))) == GaussianInt(5, 5)


def _complex_or_overflow(convert):
    try:
        z = convert()
    except OverflowError:
        return "overflow"
    return z.real.hex(), z.imag.hex()


def test_complex_conversion_is_componentwise_float():
    """complex(q) rounds each part exactly as float() of that part does,
    bit for bit, and overflows in exactly the same cases."""
    r = rng(41)
    cases = [
        GaussianRational(GaussianInt(1, -1), 10**320),  # subnormal parts
        GaussianRational(GaussianInt(10**400, 1)),  # real part overflows
        GaussianRational(GaussianInt(3, -(10**309)), 7),  # imaginary overflows
        GaussianRational(GaussianInt(2**1024 - 2**970, 0)),  # just rounds up to inf
        GaussianRational(GaussianInt(2**1024 - 2**971, 0)),  # largest finite
    ]
    for _ in range(400):
        cases.append(random_gaussian_rational(r, 10**6, 10**6))
    for _ in range(400):
        digits = r.choice((20, 300, 1000))
        a, b = (r.randrange(-(10**digits), 10**digits) for _ in range(2))
        d = r.randrange(1, 10 ** r.choice((1, 300, 1000)))
        cases.append(GaussianRational(GaussianInt(a, b), d))
    overflows = 0
    for q in cases:
        got = _complex_or_overflow(lambda: complex(q))
        want = _complex_or_overflow(lambda: complex(float(q.re), float(q.im)))
        assert got == want, q
        overflows += got == "overflow"
    assert overflows > 10


def test_crt_against_brute_force():
    for m1 in range(1, 16):
        for m2 in range(1, 16):
            if gcd(m1, m2) != 1:
                continue
            for r1 in range(-m1, 2 * m1, 3):
                for r2 in range(-m2, 2 * m2, 2):
                    want = next(x for x in range(m1 * m2)
                                if (x - r1) % m1 == 0 and (x - r2) % m2 == 0)
                    assert crt(r1, m1, r2, m2) == want
    assert crt(7, 5**3, 11, 13**2) % 5**3 == 7
    assert crt(0, 1, 12, 13) == 12 and crt(3, 5, 0, 1) == 3


def test_reflected_division_by_gaussian_int_rejects_floats():
    with pytest.raises(TypeError) as err:
        1.5 / GaussianInt(1, 2)
    message = str(err.value)
    assert "'float'" in message and "'GaussianInt'" in message
    assert "NoneType" not in message
    assert GaussianRational(5) / GaussianInt(1, 2) == GaussianRational(GaussianInt(1, -2))
    assert GaussianRational(5).__truediv__(1.5) is NotImplemented


def test_exact_gaussian_rational_errors():
    assert exact_gaussian_rational(0.75 - 0.5j) == GaussianRational(GaussianInt(3, -2), 4)
    assert exact_gaussian_rational(0.1) == GaussianRational.from_fractions(Fraction(0.1))
    assert exact_gaussian_rational(Fraction(2, 3)) == GaussianRational(GaussianInt(2, 0), 3)
    for bad in (float("nan"), float("inf"), -float("inf"), complex(1, float("nan")),
                complex(float("inf"), 0)):
        with pytest.raises(ValueError):
            exact_gaussian_rational(bad)
    for bad in ("1", "1+2j", None, [1.0]):
        with pytest.raises(TypeError):
            exact_gaussian_rational(bad)
