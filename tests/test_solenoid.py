import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pyjama.approx import circle_density
from pyjama.gaussian import (
    GaussianInt,
    GaussianRational,
    P5BAR,
    THETA5,
    THETA13,
    P5,
    in_A,
    mod_from_rational,
    theta_power,
    theta_set,
    unit_group_order,
)
from pyjama.padic import embed
from pyjama.solenoid import (
    ExactPoint,
    act,
    classify_point,
    evaluate,
    float_orbit_rows,
    orbit_eval_rows,
    orbit_eval_sweep,
    orbit_max_gap,
    period_exponent,
    periodic_dense_set,
    stripe_membership,
)

from _util import order_oracle, rng, random_a_element, random_gaussian_rational


def gr(re, im=0, den=1):
    return GaussianRational(GaussianInt(re, im), den)


def triple(q, w=0, k=24):
    """The triple (z, a, b) that ExactPoint(q, w) denotes, at k p-adic
    digits: the twisted diagonal triple of q with w taken off its complex
    component."""
    return q - w, embed(q / 2, 5, k), embed(q / 2, 13, k)


def _rotate_reference(q, z, a, b):
    return z * q, a * embed(q, 5, a.precision_k), b * embed(q, 13, b.precision_k)


def _pairing(t, r):
    """The pairing of the triple t = (z, a, b) with r, read off the p-adic
    components: every component multiplied by its embedding of r and every
    fractional part taken, zero or not."""
    z, a, b = _rotate_reference(r, *t)
    return (-z.re + a.frac_part() + b.frac_part()) % 1


def test_modes_and_constructors():
    x = ExactPoint.from_complex(0)
    assert x == ExactPoint(0) and not x.q and not x.offset_w
    assert isinstance(x.q, GaussianRational) and isinstance(x.offset_w, GaussianRational)
    # a float or complex w is taken at its binary value
    assert ExactPoint.from_complex(0.25 + 0.5j).offset_w == gr(1, 2, 4)
    assert ExactPoint.from_complex(0.1).offset_w == GaussianRational.from_fractions(
        Fraction(0.1))
    w = gr(1, 1, 2)
    fc = ExactPoint.from_complex(w)
    assert fc == ExactPoint(0, w) and triple(fc.q, fc.offset_w)[0] == -w
    assert ExactPoint.from_complex(0.5 + 0.0j).offset_w == gr(1, 0, 2)
    assert ExactPoint.from_complex(0.3 - 0.7j).offset_w == GaussianRational.from_fractions(
        Fraction(0.3), Fraction(-0.7))
    with pytest.raises(TypeError):
        ExactPoint("x")
    with pytest.raises(TypeError):
        ExactPoint.from_complex("0.5")
    for bad in (float("nan"), float("inf"), complex(0, float("-inf"))):
        with pytest.raises(ValueError, match="is not finite"):
            ExactPoint.from_complex(bad)
        # only from_complex takes a float
        with pytest.raises(TypeError):
            ExactPoint(0, bad)
    # immutability and value semantics
    with pytest.raises(AttributeError):
        x.unexpected = 1
    assert ExactPoint.from_complex(0) == ExactPoint.from_complex(0)
    assert hash(ExactPoint.from_complex(0)) == hash(ExactPoint.from_complex(0))


def test_solenoid_point_value_contract():
    # int, Fraction and GaussianInt values equal and hash like their
    # GaussianRationals
    for (q, w), exact in (((0, 0), (gr(0), gr(0))),
                          ((Fraction(1, 5), 3), (gr(1, 0, 5), gr(3))),
                          ((GaussianInt(-2, 1), Fraction(-4, 169)), (gr(-2, 1), gr(-4, 0, 169)))):
        short, full = ExactPoint(q, w), ExactPoint(*exact)
        assert short == full and hash(short) == hash(full)
        assert type(short.q) is type(short.offset_w) is GaussianRational
    assert ExactPoint(0, 1) != ExactPoint(1, 0)
    x = ExactPoint.from_complex(0.5)
    with pytest.raises(AttributeError):
        x.q = 0
    assert x.q == 0 and x.offset_w == gr(1, 0, 2)
    assert repr(x) == f"ExactPoint(q={x.q!r}, offset_w={x.offset_w!r})"
    # a bad q is reported before a bad offset
    with pytest.raises(TypeError, match="got str"):
        ExactPoint("x", 0.5)
    with pytest.raises(TypeError, match="got float"):
        ExactPoint(0, 0.5)
    # from_complex: a non-finite w is a ValueError, a non-number a TypeError
    with pytest.raises(ValueError, match="is not finite"):
        ExactPoint.from_complex(float("nan"))
    with pytest.raises(TypeError, match="got str"):
        ExactPoint.from_complex("x")


def test_kernel_identity_random():
    r_ = rng(11)
    for _ in range(60):
        q = random_a_element(r_)
        r = random_a_element(r_)
        assert evaluate(ExactPoint(q), r) == 0
        assert _pairing(triple(q, 0, 32), r) == 0


def test_evaluate_from_complex_and_pins():
    r_ = rng(12)
    for _ in range(40):
        w = random_gaussian_rational(r_)
        r = random_a_element(r_)
        assert evaluate(ExactPoint.from_complex(w), r) == (w * r).re % 1
    # the purely complex 1/5 point pairs with 1 to 1/5
    x = ExactPoint.from_complex(gr(1, 0, 5))
    assert evaluate(x, 1) == Fraction(1, 5)
    assert not stripe_membership(x, 1, Fraction(1, 5))
    assert stripe_membership(x, 1, Fraction(1, 4))
    # and a purely complex 1/2 point misses the width-1/4 stripe
    assert not stripe_membership(ExactPoint.from_complex(gr(1, 0, 2)), 1, Fraction(1, 4))
    assert stripe_membership(ExactPoint.from_complex(0), THETA5, Fraction(1, 100))
    # the half-odd diagonal point pairs with 1 to 1/2
    assert evaluate(ExactPoint(gr(1, 1, 2)), 1) == Fraction(1, 2)
    # a float half-width is taken at its binary value, and 0.2 lies above 1/5
    assert stripe_membership(x, 1, 0.2) and not stripe_membership(x, 1, 0.125)
    for bad in (Fraction(1, 2), 0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            stripe_membership(x, 1, bad)
    with pytest.raises(ValueError):
        evaluate(x, gr(1, 0, 3))  # 1/3 is not in the base ring


def test_act_examples():
    q = gr(1, 1, 2)
    x = ExactPoint(q)
    assert act(1, x) == x
    # the generator rotation moves the half-integer diagonal point to an
    # equivalent representative: the difference of diagonals is in the ring
    moved = THETA5 * q - q
    assert moved == gr(-2, 2) / GaussianRational(P5BAR.generator)
    assert in_A(moved)
    assert ExactPoint(THETA5 * q).same_class(ExactPoint(q))
    # the action is componentwise multiplication of the denoted triple
    r_ = rng(13)
    for _ in range(20):
        w = random_gaussian_rational(r_)
        q = random_gaussian_rational(r_)
        r = random_a_element(r_)
        moved = act(THETA5, ExactPoint(q, w))
        assert triple(moved.q, moved.offset_w) == _rotate_reference(THETA5, *triple(q, w))
        # on purely complex points it is plain rotation
        lhs = evaluate(act(THETA5, ExactPoint.from_complex(w)), r)
        rhs = evaluate(ExactPoint.from_complex(THETA5 * w), r)
        assert lhs == rhs == _pairing(_rotate_reference(THETA5, *triple(gr(0), w)), r)
    with pytest.raises(ValueError):
        act(gr(1, 0, 3), x)


def test_action_evaluation_adjunction():
    r_ = rng(14)
    thetas = theta_set(2)
    for _ in range(15):
        q = random_a_element(r_)
        w = random_gaussian_rational(r_)
        x = ExactPoint(q, w)
        r = random_a_element(r_)
        theta = thetas[r_.randrange(len(thetas))]
        assert evaluate(act(theta, x), r) == evaluate(x, theta * r)
        assert evaluate(x, theta * r) == _pairing(triple(q, w, 32), theta * r)


def test_estar_pullback():
    r_ = rng(15)
    thetas = theta_set(2)
    eps = Fraction(1, 4)
    for _ in range(25):
        w = random_gaussian_rational(r_)
        for x in (ExactPoint.from_complex(w), ExactPoint(random_gaussian_rational(r_), w)):
            theta = thetas[r_.randrange(len(thetas))]
            assert stripe_membership(x, theta, eps) == stripe_membership(act(theta, x), 1, eps)


def test_exact_point_pairing_matches_solenoid():
    r_ = rng(16)
    for _ in range(25):
        q = random_gaussian_rational(r_)
        w = random_gaussian_rational(r_)
        r = random_a_element(r_)
        p = ExactPoint(q, w)
        assert evaluate(p, r) == _pairing(triple(q, w, 40), r)


def test_classify_pins():
    res = classify_point(gr(1, 1, 2))
    assert res.kind == "periodic" and res.is_periodic
    assert (res.abs_p5, res.abs_p13) == (Fraction(1), Fraction(1))
    res = classify_point(GaussianRational(1) / GaussianRational(P5.generator))
    assert res.kind == "torsion_only"
    assert res.abs_p5 == Fraction(5) and res.abs_p13 == Fraction(1)
    assert classify_point(0).is_periodic
    # both take the exact scalar of a diagonal point, not the point
    for x in (ExactPoint(gr(1, 1, 2)), ExactPoint(gr(1), gr(1, 1))):
        with pytest.raises(TypeError):
            classify_point(x)
        with pytest.raises(TypeError):
            period_exponent(x)


def _brute_period(q, cap):
    """The least m >= 1 with (theta5**m - 1) q and (theta13**m - 1) q in A."""
    one = t5 = t13 = GaussianRational(1)
    for m in range(1, cap + 1):
        t5, t13 = t5 * THETA5, t13 * THETA13
        if in_A((t5 - one) * q) and in_A((t13 - one) * q):
            return m
    raise AssertionError("no period within cap")


def test_period_exponent_large_clearing_integer():
    # clearing integer 3**12: the unit group of Z[i]/3**12 has order 8 * 3**22
    t0 = time.monotonic()
    assert period_exponent(gr(1, 0, 3**12)) == 4 * 3**11
    # (1+2i)(2+3i) / (3**40 * 65): the 5- and 13-parts of the denominator clear
    assert period_exponent(gr(-4, 7, 3**40 * 65)) == 4 * 3**39
    assert time.monotonic() - t0 < 1.0
    # 4 * 3**(k - 1) at 1/3**k, checked against the definition for small k
    for k in (1, 2, 3):
        assert period_exponent(gr(1, 0, 3**k)) == _brute_period(gr(1, 0, 3**k), 4 * 3**(k - 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(0, 29), st.integers(0, 29),
       st.integers(-2, 2), st.integers(-1, 1))
def test_period_exponent_matches_definition(den, re, im, e5, e13):
    # (re + im i) / den rotated by theta5**e5 * theta13**e13: periodic
    # unless a negative power puts an unbarred prime in the denominator
    q = gr(re, im, den) * theta_power(e5, e13)
    if not classify_point(q).is_periodic:
        with pytest.raises(ValueError):
            period_exponent(q)
        return
    assert period_exponent(q) == _brute_period(q, unit_group_order(den))


@pytest.mark.parametrize("n", [1, 2])
def test_periodic_dense_set_exponent_is_lcm_of_orders(n):
    mod = 7**n
    orders = [order_oracle(mod_from_rational(t, mod), mod) for t in (THETA5, THETA13)]
    assert periodic_dense_set(n)[1] == math.lcm(*orders)


def test_period_exponent():
    assert period_exponent(0) == 1
    q = gr(1, 1, 2)
    assert period_exponent(q) == 1
    assert in_A((THETA5 - 1) * q) and in_A((THETA13 - 1) * q)
    with pytest.raises(ValueError):
        period_exponent(GaussianRational(1) / GaussianRational(P5.generator))
    r_ = rng(19)
    for den in (2, 3, 7):
        bound = unit_group_order(den)
        for _ in range(4):
            q = gr(r_.randrange(den), r_.randrange(den), den)
            m = period_exponent(q)
            assert bound % m == 0
            assert m == _brute_period(q, bound)


def test_periodic_dense_set():
    points, m = periodic_dense_set(1)
    assert len(points) == 49
    assert 48 % m == 0
    seen = {(p.q.num.re, p.q.num.im, p.q.den) for p in points}
    assert len(seen) == 49
    t5, t13 = theta_power(m, 0), theta_power(0, m)
    for p in points:
        assert act(t5, p).same_class(p)
        assert act(t13, p).same_class(p)
    with pytest.raises(ValueError):
        periodic_dense_set(0)


def test_orbit_rows_and_sweep():
    rows = orbit_eval_rows(ExactPoint.from_complex(0), 1, 2)
    assert len(rows) == 9
    assert all(v == 0 for _, _, v in rows)
    assert {(r, s) for r, s, _ in rows} == {(r, s) for r in range(3) for s in range(3)}
    assert orbit_eval_sweep(ExactPoint.from_complex(0), 1, 2) == 1
    # a unit-size complex point fills in the circle as the sweep grows
    w = ExactPoint.from_complex(1.0 + 0.0j)
    g10 = orbit_eval_sweep(w, 1, 10)
    g30 = orbit_eval_sweep(w, 1, 30)
    assert g30 < g10 < 1
    # a radius-1/4 point pairs into [-1/4, 1/4] only: a fixed gap remains
    small = ExactPoint.from_complex(0.25 + 0.0j)
    assert orbit_eval_sweep(small, 1, 20) >= 0.25
    # exact points sweep exactly
    gap = orbit_eval_sweep(ExactPoint.from_complex(gr(1, 0, 4)), 1, 6)
    assert isinstance(gap, Fraction) and gap >= Fraction(1, 4)
    with pytest.raises(ValueError):
        orbit_eval_sweep(w, 0, 3)


def _orbit_reference(x, m, sweep_max):
    """Orbit rows of the triple that the point denotes, with every p-adic
    component multiplied by its embedding."""
    step5, step13 = theta_power(m, 0), theta_power(0, m)
    rows = []
    row = triple(x.q, x.offset_w)
    for r in range(sweep_max + 1):
        point = row
        for s in range(sweep_max + 1):
            rows.append((r, s, _pairing(point, GaussianRational(1))))
            point = _rotate_reference(step13, *point)
        row = _rotate_reference(step5, *row)
    return rows


@pytest.mark.parametrize("point", [
    ExactPoint.from_complex(0.3 + 0.2j),
    ExactPoint.from_complex(-0.8 + 0.9j),
    ExactPoint(gr(3, 1, 25), gr(7, 2, 13)),
    ExactPoint(gr(1, 2, 3)),
    ExactPoint(gr(2, -1, 5 * 169), ExactPoint.from_complex(0.5 - 0.4j).offset_w),
])
@pytest.mark.parametrize("m", [1, 2])
def test_orbit_rows_match_full_padic_reference(point, m):
    rows = orbit_eval_rows(point, m, 4)
    expected = _orbit_reference(point, m, 4)
    assert [(r, s) for r, s, _ in rows] == [(r, s) for r, s, _ in expected]
    for (_, _, got), (_, _, want) in zip(rows, expected):
        assert type(got) is Fraction and got == want
    assert orbit_max_gap(rows) == orbit_eval_sweep(point, m, 4)
    q = theta_power(m, 1)
    moved = act(q, point)
    assert triple(moved.q, moved.offset_w) == _rotate_reference(q, *triple(point.q, point.offset_w))


def _circle_dist(u, v):
    d = abs(u - v) % 1.0
    return min(d, 1.0 - d)


@settings(max_examples=25, deadline=None)
@given(st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
       st.integers(1, 2), st.integers(1, 30))
@example(w=4.2e-88, m=1, sweep_max=1)
def test_float_orbit_rows_error_budget(w, m, sweep_max):
    # the CLI's float sweep stays within 1e-12 (circular) of the exact rows
    # for |w| <= 2, m <= 2 and sweeps up to 30
    rows = float_orbit_rows(w, m, sweep_max)
    exact = orbit_eval_rows(ExactPoint.from_complex(w), m, sweep_max)
    assert [(r, s) for r, s, _ in rows] == [(r, s) for r, s, _ in exact]
    for (_, _, got), (_, _, want) in zip(rows, exact):
        assert type(got) is float and 0.0 <= got < 1.0
        assert _circle_dist(got, float(want)) <= 1e-12
    assert _circle_dist(orbit_max_gap(rows), float(orbit_max_gap(exact))) <= 2e-12


def test_float_orbit_rows_pins():
    assert float_orbit_rows(0, 1, 1) == [(0, 0, 0.0), (0, 1, 0.0), (1, 0, 0.0), (1, 1, 0.0)]
    rows = float_orbit_rows(0.25 + 0.5j, 2, 3)
    assert rows[0] == (0, 0, 0.25)
    assert all(math.isfinite(v) for _, _, v in rows)
    # (-tiny) % 1.0 rounds to 1.0, the same point of the circle as 0.0
    assert float_orbit_rows(4.2e-88, 1, 1) == [
        (0, 0, 4.2e-88), (0, 1, 0.0), (1, 0, 0.0), (1, 1, 0.0)]
    with pytest.raises(ValueError):
        float_orbit_rows(1, 0, 3)
    with pytest.raises(ValueError):
        float_orbit_rows(1, 1, 0)


def test_non_finite_seeds_are_refused():
    # as ExactPoint.from_complex refuses them: such a seed names no
    # point, so no gap swept from it is a verdict
    for bad in (float("nan"), float("inf"), complex(0, float("-inf"))):
        with pytest.raises(ValueError, match="is not finite"):
            float_orbit_rows(bad, 1, 3)
        with pytest.raises(ValueError, match="is not finite"):
            circle_density(THETA5, bad, 3)
    # and, like it, they read no string
    with pytest.raises(TypeError, match="got str"):
        float_orbit_rows("0.5", 1, 1)
    with pytest.raises(TypeError, match="got str"):
        circle_density(THETA5, "1", 2)


def test_act_and_evaluate_reject_rotations_outside_A():
    for x in (ExactPoint.from_complex(0.3 + 0.2j), ExactPoint.from_complex(0),
              ExactPoint(gr(1, 2, 7))):
        for q in (gr(1, 0, 3), gr(1, 1, 5), gr(2, 1, 13)):
            with pytest.raises(ValueError):
                act(q, x)
            with pytest.raises(ValueError):
                evaluate(x, q)


def test_torsion_orbits_are_finite():
    # exact orbit enumeration: the orbit of a denominator-n diagonal point
    # under the full rotation grid has at most |Z[i]/n| distinct classes
    for q, n in ((gr(1, 1, 3), 3), (gr(1, 0, 2), 2), (gr(2, 3, 7), 7)):
        orbit = []
        for theta in theta_set(6):
            p = act(theta, ExactPoint(q))
            if not any(p.same_class(o) for o in orbit):
                orbit.append(p)
        assert len(orbit) <= n * n
