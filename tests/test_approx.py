import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pyjama.gaussian import (
    GaussianInt,
    GaussianRational,
    P5BAR,
    P13BAR,
    THETA5,
    abs_at,
    in_A,
    unit_circle_elements,
)
from pyjama.padic import PadicNumber, PrecisionError, embed
from pyjama.approx import (
    CosetSpec,
    _least_power,
    circle_density,
    coset_element,
    semigroup_density,
    strong_approx,
    strong_approx_3way,
)
from pyjama.solenoid import orbit_max_gap

from _util import rng, random_a_element, unit_subgroup_oracle

F = Fraction


def _complex_of(q):
    return complex(float(q.re), float(q.im))


def _padic_residual(q, target, check_k):
    return embed(q, target.p, check_k).distance(target)


# ---------------------------------------------------------------------------
# strong approximation, one finite site
# ---------------------------------------------------------------------------


def test_strong_approx_identity_targets():
    q0 = GaussianRational(GaussianInt(3, -1), 5)
    z = _complex_of(q0)
    b = embed(q0, 5, 12)
    q = strong_approx(z, b, F(1, 2))
    assert in_A(q)
    assert abs(_complex_of(q) - z) <= 0.5
    assert _padic_residual(q, b, 14) <= F(1, 2)


def test_strong_approx_zero_complex_target():
    b = embed(F(1, 5), 5, 10)
    q = strong_approx(0j, b, F(1, 10))
    assert in_A(q)
    assert abs(_complex_of(q)) <= 0.1
    assert _padic_residual(q, b, 12) <= F(1, 10)


def test_strong_approx_loose_tolerance_is_nearest_integer():
    b = embed(7, 5, 8)
    z = 0.4 + 0.3j
    q = strong_approx(z, b, F(2))
    assert q.is_gaussian_int()
    assert abs(_complex_of(q) - z) <= 2.0
    assert _padic_residual(q, b, 10) <= 2


def test_strong_approx_13_adic_variant():
    b = embed(F(4, 13), 13, 10)
    q = strong_approx(1 + 1j, b, F(1, 20))
    assert in_A(q)
    assert abs(_complex_of(q) - (1 + 1j)) <= 0.05
    assert _padic_residual(q, b, 12) <= F(1, 20)


def test_strong_approx_random_targets():
    r_ = rng(31)
    for _ in range(25):
        z = complex(r_.uniform(-3, 3), r_.uniform(-3, 3))
        target = random_a_element(r_, max_coeff=9, max_exp=2)
        b = embed(target, 5, 16)
        q = strong_approx(z, b, F(1, 50))
        assert in_A(q)
        assert abs(_complex_of(q) - z) <= 1 / 50
        assert _padic_residual(q, b, 18) <= F(1, 50)


def test_strong_approx_precision_errors():
    shallow = PadicNumber(5, 2, 0, 7)  # unit known mod 5^2 only
    with pytest.raises(PrecisionError):
        strong_approx(0j, shallow, F(1, 5**4))
    with pytest.raises(ValueError):
        strong_approx(0j, PadicNumber.zero(5, 6), F(0))


def test_strong_approx_rejects_non_finite_and_non_numbers():
    b = embed(F(1, 5), 5, 10)
    a = PadicNumber.zero(5, 8)
    c = PadicNumber.zero(13, 8)
    for bad in (float("inf"), float("nan"), complex(0, float("-inf"))):
        with pytest.raises(ValueError):
            strong_approx(bad, b, F(1, 10))
        with pytest.raises(ValueError):
            strong_approx_3way(bad, a, c, F(1, 10))
    with pytest.raises(TypeError):
        strong_approx("0.5", b, F(1, 10))


# ---------------------------------------------------------------------------
# strong approximation, both finite sites at once
# ---------------------------------------------------------------------------


def test_three_way_all_zero_targets():
    a = PadicNumber.zero(5, 8)
    b = PadicNumber.zero(13, 8)
    q = strong_approx_3way(0j, a, b, F(1, 100))
    assert q == GaussianRational(0)


def test_three_way_mixed_targets():
    a = embed(F(1, 5), 5, 10)
    b = PadicNumber.zero(13, 10)
    q = strong_approx_3way(0j, a, b, F(1, 10))
    assert abs(_complex_of(q)) <= 0.1
    assert _padic_residual(q, a, 12) <= F(1, 10)
    assert _padic_residual(q, b, 12) <= F(1, 10)
    cleared = q
    while cleared.den % 7 == 0:
        cleared = cleared * 7
    assert in_A(cleared)


def test_three_way_exact_images():
    q0 = GaussianRational(GaussianInt(2, 5), 7)
    z = _complex_of(q0)
    a = embed(q0, 5, 12)
    b = embed(q0, 13, 12)
    q = strong_approx_3way(z, a, b, F(1, 30))
    assert abs(_complex_of(q) - z) <= 1 / 30
    assert _padic_residual(q, a, 14) <= F(1, 30)
    assert _padic_residual(q, b, 14) <= F(1, 30)


def test_three_way_random_targets():
    r_ = rng(32)
    for _ in range(10):
        z = complex(r_.uniform(-2, 2), r_.uniform(-2, 2))
        a = embed(random_a_element(r_, max_coeff=6, max_exp=1), 5, 14)
        b = embed(random_a_element(r_, max_coeff=6, max_exp=1), 13, 14)
        q = strong_approx_3way(z, a, b, F(1, 40))
        assert abs(_complex_of(q) - z) <= 1 / 40
        assert _padic_residual(q, a, 16) <= F(1, 40)
        assert _padic_residual(q, b, 16) <= F(1, 40)


# ---------------------------------------------------------------------------
# coset-constrained small elements
# ---------------------------------------------------------------------------


def _full_group_spec(p=5, m=1, k=3):
    one = embed(1, p, k)
    return CosetSpec(p=p, m=m, representative=one, precision_k=k)


def test_coset_spec_membership_basics():
    H = _full_group_spec()
    assert H.contains(THETA5)
    assert H.contains(THETA5**3)
    one = embed(1, 5, 3)
    assert H.contains(one)
    with pytest.raises(PrecisionError):
        H.contains(embed(1, 5, 2))  # too few digits
    assert not H.contains(PadicNumber.zero(5, 3))
    with pytest.raises(ValueError):
        CosetSpec(p=7, m=1, representative=one, precision_k=3)
    with pytest.raises(ValueError):
        CosetSpec(p=5, m=0, representative=one, precision_k=3)


def test_coset_spec_detects_nonmembers():
    # index-two image: squares of the generators cannot reach an odd power
    # of the uniformizing rotation
    one = embed(1, 5, 3)
    H = CosetSpec(p=5, m=2, representative=one, precision_k=3)
    assert H.contains(THETA5**2)
    assert not H.contains(THETA5)


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from((5, 13)), m=st.integers(1, 4), k=st.integers(1, 3),
       units=st.tuples(st.integers(1, 13**3), st.integers(1, 13**3)),
       valuations=st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
@example(p=5, m=2, k=3, units=(1, 1), valuations=(0, 0))
@example(p=13, m=4, k=2, units=(2, 1), valuations=(1, -3))
def test_coset_membership_matches_enumeration(p, m, k, units, valuations):
    # the subgroup's order decides membership; the oracle enumerates it
    mod = p**k
    ux, ur = (u % mod + (u % p == 0) for u in units)  # a multiple of p moves up by 1
    vx, vr = valuations
    x, rep = (embed(F(u) * F(p) ** v, p, k)
              for u, v in ((ux, vx), (ur, vr)))
    H = CosetSpec(p=p, m=m, representative=rep, precision_k=k)
    ratio = ux * pow(ur, -1, mod) % mod
    expected = (vx - vr) % m == 0 and ratio in unit_subgroup_oracle(p, m, k)
    assert H.contains(x) == expected


def test_coset_element_full_group():
    H = _full_group_spec()
    r = coset_element(1, 1, H)
    assert in_A(r)
    assert r.abs2() <= 1
    assert abs_at(r, P13BAR) <= 1
    assert abs_at(r, P5BAR) >= 1
    assert H.contains(r)


def test_coset_element_shrinking_mu():
    H = _full_group_spec()
    sizes = []
    for mu in (F(1), F(1, 10), F(1, 100)):
        r = coset_element(mu, 1, H)
        assert r.abs2() <= mu * mu
        assert abs_at(r, P13BAR) <= mu
        assert abs_at(r, P5BAR) >= 1
        assert H.contains(r)
        sizes.append(r.abs2())
    assert sizes[2] < sizes[1] < sizes[0]


def test_coset_element_demanding_both_bounds():
    H = _full_group_spec()
    mu, nu = F(1, 1000), F(10**6)
    r = coset_element(mu, nu, H)
    assert r.abs2() <= mu * mu
    assert abs_at(r, P13BAR) <= mu
    assert abs_at(r, P5BAR) >= nu
    assert H.contains(r)


@pytest.mark.parametrize("H, mu, nu, want", [
    # demo 04's case, then the cases above; the first candidate that meets
    # every bound is the one returned
    (CosetSpec(5, 2, embed(THETA5, 5, 3), 3), F(1, 100), F(100),
     "110796542/19073486328125+24855644/19073486328125i"),
    (_full_group_spec(), F(1), F(1), "1/1+0/1i"),
    (_full_group_spec(), F(1, 10), F(1), "-8874/9765625-6943/9765625i"),
    (_full_group_spec(), F(1, 100), F(1),
     "30542627/95367431640625+123224364/95367431640625i"),
    (_full_group_spec(), F(1, 1000), F(10**6),
     "584511487254/931322574615478515625-1305550465397/931322574615478515625i"),
    (CosetSpec(13, 2, embed(1, 13, 2), 2), F(1, 5), F(100),
     "-632861/137858491849+537382/137858491849i"),
], ids=["demo-04", "full-group", "mu-1/10", "mu-1/100", "both-bounds", "13-site"])
def test_coset_element_pins(H, mu, nu, want):
    assert str(coset_element(mu, nu, H)) == want


def test_coset_element_13_site_and_proper_coset():
    one = embed(1, 13, 2)
    H = CosetSpec(p=13, m=2, representative=one, precision_k=2)
    r = coset_element(F(1, 5), F(100), H)
    assert in_A(r)
    assert r.abs2() <= F(1, 25)
    assert abs_at(r, P5BAR) <= F(1, 5)
    assert abs_at(r, P13BAR) >= 100
    assert H.contains(r)
    with pytest.raises(ValueError):
        coset_element(0, 1, H)


# ---------------------------------------------------------------------------
# density of {eta * 2^r * 3^s} and of rotation orbits on the circle
# ---------------------------------------------------------------------------


def test_semigroup_density_tiny_sample():
    report = semigroup_density(F(1, 2), F(1, 2))
    assert report.sample == (F(1, 2), F(1))
    assert report.max_gap == F(1, 2)
    assert report.witness_pair == (F(0), F(1, 2))
    assert report.is_dense is True


def test_semigroup_density_small_scale():
    report = semigroup_density(F(1, 10**6), F(1, 10))
    assert report.is_dense is True
    # the verdict is reproducible from the sample
    pts = sorted(report.sample)
    gaps = [pts[0]] + [b - a for a, b in zip(pts, pts[1:])] + [1 - pts[-1]]
    assert max(gaps) == report.max_gap
    lo, hi = report.witness_pair
    assert hi - lo == report.max_gap
    for w in report.witness_pair:
        assert w in (F(0), F(1)) or w in report.sample


def test_semigroup_density_endpoint_gap():
    # with eta just below 1 the sample is {eta} and the left gap dominates
    report = semigroup_density(F(9, 10), F(1, 2))
    assert report.sample == (F(9, 10),)
    assert report.max_gap == F(9, 10)
    assert report.witness_pair == (F(0), F(9, 10))
    assert report.is_dense is False


def test_semigroup_density_threshold_scan():
    # the coarsest scale at which delta-density first holds shrinks with delta
    scales = [F(1, 2**j) for j in range(1, 30)]
    coarsest = []
    for delta in (F(1, 2), F(1, 5), F(1, 20)):
        ok = [eta for eta in scales if semigroup_density(eta, delta).is_dense]
        coarsest.append(max(ok))
    assert coarsest[0] >= coarsest[1] >= coarsest[2]
    with pytest.raises(ValueError):
        semigroup_density(F(3, 2), F(1, 2))
    with pytest.raises(ValueError):
        semigroup_density(F(1, 2), F(2))


def test_circle_density_single_point():
    report = circle_density(THETA5, 1 + 0j, 0)
    assert report.max_gap == pytest.approx(2 * math.pi)


def test_circle_density_without_threshold_has_no_verdict():
    report = circle_density(THETA5, 1 + 0j, 20)
    assert report.is_dense is None
    assert [field for field, _ in report.csv_rows()] == [
        "parameter", "max_gap", "witness_lo", "witness_hi"]


def test_circle_density_aperiodic_rotation():
    report = circle_density(THETA5, 1 + 0j, 200)
    assert report.max_gap < 2 * math.pi / 20
    longer = circle_density(THETA5, 1 + 0j, 1000)
    assert longer.max_gap <= report.max_gap
    lo, hi = report.witness_pair
    gap = (hi - lo) % (2 * math.pi)
    assert gap == pytest.approx(report.max_gap)


def test_circle_density_folds_two_pi_to_zero():
    # atan2 of a tiny negative angle, mod 2*pi, rounds to exactly 2*pi
    theta = GaussianRational(GaussianInt(-3, 4), 5)
    report = circle_density(theta, 1e-300 - 1e-320j, 3)
    assert report.sample[0] == 0.0
    assert all(0.0 <= a < 2 * math.pi for a in report.sample)
    assert report.max_gap == 2.214297435588181


def test_circle_density_rotation_invariance():
    base = circle_density(THETA5, 2 + 1j, 150)
    spun = circle_density(THETA5, (2 + 1j) * complex(math.cos(0.7), math.sin(0.7)), 150)
    assert spun.max_gap == pytest.approx(base.max_gap, abs=1e-9)


def test_circle_density_rejects_torsion():
    with pytest.raises(ValueError):
        circle_density(GaussianRational(GaussianInt(0, 1)), 1 + 0j, 10)
    with pytest.raises(ValueError):
        circle_density(GaussianRational(GaussianInt(-1, 0)), 1 + 0j, 10)
    with pytest.raises(ValueError):
        circle_density(GaussianRational(GaussianInt(1, 1)), 1 + 0j, 10)
    with pytest.raises(ValueError):
        circle_density(THETA5, 0j, 10)


def test_circle_density_refuses_exactly_the_roots_of_unity():
    roots = {GaussianRational(GaussianInt(a, b)) for a, b in ((1, 0), (-1, 0), (0, 1), (0, -1))}
    elements = unit_circle_elements(50)
    assert roots <= set(elements)
    for q in elements:
        if q in roots:
            with pytest.raises(ValueError, match="root of unity"):
                circle_density(q, 1 + 0j, 3)
        else:
            assert len(circle_density(q, 1 + 0j, 3).sample) == 4


def test_semigroup_density_tie_goes_to_the_first_gap():
    # the sample 1/4, 1/2, 3/4, 1 leaves four gaps of 1/4 before the end gap 0
    report = semigroup_density(F(1, 4), F(1, 2))
    assert report.sample == (F(1, 4), F(1, 2), F(3, 4), F(1))
    assert report.max_gap == F(1, 4)
    assert report.witness_pair == (F(0), F(1, 4))


def test_circle_density_wrap_witness():
    # two points 0 and arg(THETA5) < pi: the gap across 2*pi is the widest
    report = circle_density(THETA5, 1 + 0j, 1)
    angles = report.sample
    assert report.witness_pair == (angles[-1], angles[0])
    assert report.max_gap == angles[0] + 2 * math.pi - angles[-1]


def _first_widest_gap(values, wrap=None):
    """Brute force: of every gap (gap, lo, hi) between neighbours of the
    sorted values, after the wrap gap (wrap, values[-1], values[0]) when one
    is given, the first of the widest."""
    gaps = [] if wrap is None else [(wrap, values[-1], values[0])]
    gaps += [(hi - lo, lo, hi) for lo, hi in zip(values, values[1:])]
    return max(gaps, key=lambda gap: gap[0])


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(2, 200), st.integers(201, 10**12)).flatmap(
    lambda d: st.one_of(st.integers(1, d - 1), st.integers(1, min(d - 1, 60)))
    .map(lambda n: F(n, d))))
@example(F(1, 4))
@example(F(1, 6))
@example(F(1, 10**8))
def test_semigroup_density_matches_gap_oracle(eta):
    # every eta * 2^r * 3^s <= 1 as a Fraction product: 3^s <= 2^r * 3^s <=
    # 1/eta <= eta's denominator q < 2^bits, so r and s stay below bits;
    # small denominators tie gaps often, and the first tied gap must win
    bits = eta.denominator.bit_length()
    sample = sorted(v for r in range(bits) for s in range(bits)
                    if (v := eta * 2**r * 3**s) <= 1)
    report = semigroup_density(eta, F(1, 2))
    assert report.sample == tuple(sample)
    gap, lo, hi = _first_widest_gap([F(0), *sample, F(1)])
    assert (report.max_gap, report.witness_pair) == (gap, (lo, hi))


_ROTATIONS = [q for q in unit_circle_elements(30) if q**4 != 1]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_ROTATIONS),
       st.complex_numbers(min_magnitude=1e-3, max_magnitude=10,
                          allow_nan=False, allow_infinity=False),
       st.integers(0, 40))
def test_circle_density_matches_gap_oracle(theta, t, M):
    report = circle_density(theta, t, M)
    angles = list(report.sample)
    assert angles == sorted(angles) and len(angles) == M + 1
    gap, lo, hi = _first_widest_gap(angles, angles[0] + 2 * math.pi - angles[-1])
    assert (report.max_gap, report.witness_pair) == (gap, (lo, hi))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 7).map(lambda k: F(k, 8)), min_size=1, max_size=12)
       | st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=12))
def test_orbit_max_gap_matches_gap_oracle(values):
    rows = [(0, s, v) for s, v in enumerate(values)]
    values = sorted(values)
    gap = _first_widest_gap(values, 1 - values[-1] + values[0])[0]
    assert orbit_max_gap(rows) == gap


# ---------------------------------------------------------------------------
# exact residuals at tolerances far below float resolution
# ---------------------------------------------------------------------------


def _image_of_i(site, n):
    """The image of i in Z/p^n at the completion of ``site`` (the barred
    sites are the ones ``embed`` measures): the root of
    x^2 = -1 with g.re + g.im*x = 0 mod p for its generator g, lifted by
    Newton's iteration."""
    p, g, mod = site.residue_norm, site.generator, site.residue_norm**n
    x = -g.re * pow(g.im, -1, p) % p
    for _ in range(n.bit_length() + 1):
        x = (x - (x * x + 1) * pow(2 * x, -1, mod)) % mod
    return x


def _assert_local_residual(q, site, target, delta):
    """v_P(q - target) >= k, the least k with p^-k <= delta, checked in
    integers: with q = (A + Bi)/d and p^s exactly dividing d, that is
    p^(k+s) | (A + B*x)*target.den - target.num*d for x the image of i."""
    p = site.residue_norm
    k = 0
    while F(1, p**k) > delta:
        k += 1
    d, A, B = q.den, q.num.re, q.num.im
    s = 0
    while d % p ** (s + 1) == 0:
        s += 1
    x = _image_of_i(site, k + s)
    t = F(target)
    assert ((A + B * x) * t.denominator - t.numerator * d) % p ** (k + s) == 0


_EXACT_Z = {
    "zero": GaussianRational(0),
    "rational": GaussianRational.parse("-337077/12560691-6571169/12560691i"),
    "float": 0.3 + 0.7j,
}
_DELTAS = [F(1, 10**3), F(1, 10**18), F(1, 10**40)]


@pytest.mark.parametrize("delta", _DELTAS, ids=["1e-3", "1e-18", "1e-40"])
@pytest.mark.parametrize("zname", sorted(_EXACT_Z))
@pytest.mark.parametrize("site, target", [
    (P5BAR, F(0)), (P5BAR, F(244, 5 * 71)), (P13BAR, F(0)), (P13BAR, F(-2, 13 * 3)),
    (P5BAR, F(1, 3)), (P13BAR, F(-1, 2)), (P5BAR, F(50, 3)), (P13BAR, F(26, 7)),
    (P5BAR, F(3, 5**4 * 7)), (P13BAR, F(-2, 13**3)),
], ids=["5-zero", "5-fraction", "13-zero", "13-fraction",
        "5-unit", "13-unit", "5-positive", "13-positive", "5-deep", "13-deep"])
def test_strong_approx_exact_residuals(site, target, zname, delta):
    z = _EXACT_Z[zname]
    b = embed(target, site.residue_norm, 80)
    q = strong_approx(z, b, delta)
    assert in_A(q)
    zr, zi = (F(z.real), F(z.imag)) if isinstance(z, complex) else (z.re, z.im)
    assert (q.re - zr) ** 2 + (q.im - zi) ** 2 <= delta * delta
    _assert_local_residual(q, site, target, delta)


@pytest.mark.parametrize("delta", _DELTAS, ids=["1e-3", "1e-18", "1e-40"])
@pytest.mark.parametrize("zname", sorted(_EXACT_Z))
@pytest.mark.parametrize("t5, t13", [
    (F(0), F(0)), (F(7, 25), F(0)), (F(0), F(5, 169)), (F(-3, 10), F(11, 26)),
    (F(1, 3), F(-1, 2)), (F(50, 3), F(26, 7)), (F(-3, 10), F(26, 7)),
    (F(1, 3 * 5**3), F(7, 13**4)),
], ids=["zero-zero", "fraction-zero", "zero-fraction", "fraction-fraction",
        "unit-unit", "positive-positive", "fraction-positive", "deep-deep"])
def test_three_way_exact_residuals(t5, t13, zname, delta):
    z = _EXACT_Z[zname]
    a = embed(t5, 5, 80)
    b = embed(t13, 13, 80)
    q = strong_approx_3way(z, a, b, delta)
    zr, zi = (F(z.real), F(z.imag)) if isinstance(z, complex) else (z.re, z.im)
    assert (q.re - zr) ** 2 + (q.im - zi) ** 2 <= delta * delta
    _assert_local_residual(q, P5BAR, t5, delta)
    _assert_local_residual(q, P13BAR, t13, delta)
    cleared = q
    while cleared.den % 7 == 0:
        cleared = cleared * 7
    assert in_A(cleared)


# ---------------------------------------------------------------------------
# exponent searches in integers against their Fraction definitions
# ---------------------------------------------------------------------------


def _least(holds) -> int:
    e = 0
    while not holds(e):
        e += 1
    return e


# p^-k exactly, just above and just below it; delta >= 1; denominators that
# are not powers of ten; and every tolerance 10^-e the benchmark schedules
_BOUNDARY_DELTAS = [
    (1, 5**7), (10**20 + 1, 5**7 * 10**20), (10**20 - 1, 5**7 * 10**20),
    (1, 13**9), (10**20 + 1, 13**9 * 10**20), (10**20 - 1, 13**9 * 10**20),
    (1, 1), (7, 2), (10**9, 3),
    (3, 7**30), (2, 3), (1, 2**61 - 1), (5, 13**12),
] + [(1, 10**e) for e in (3, 6, 9, 12, 18, 20, 24, 28, 32, 36, 40)]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 10**6), st.integers(1, 10**45))
def test_least_power_matches_fraction_searches(dn, dd):
    """k, f (both sites) and t from ``_least_power`` on delta = dn/dd equal
    the least exponents the Fraction conditions of strong_approx and
    strong_approx_3way define."""
    delta = F(dn, dd)
    k = {}
    for p, other in ((5, 13), (13, 5)):
        k[p] = _least_power(p, dn, dd)
        assert k[p] == _least(lambda e: F(p) ** (-e) <= delta)
        f = _least_power(other, 2 * dn * dn, p ** k[p] * dd * dd)
        assert f == _least(lambda e: F(other) ** e * 2 * delta * delta >= p ** k[p])
    t = _least_power(49, 2 * dn * dn, 5 ** k[5] * 13 ** k[13] * dd * dd)
    assert t == _least(lambda e: 2 * delta * delta * 49**e >= 5 ** k[5] * 13 ** k[13])


for _dn, _dd in _BOUNDARY_DELTAS:
    test_least_power_matches_fraction_searches = example(_dn, _dd)(
        test_least_power_matches_fraction_searches)
