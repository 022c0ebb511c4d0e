"""End-to-end acceptance suite.

Each test exercises one headline capability of the package, re-verifies the
result independently of the code under test where feasible, enforces a wall
clock budget, and prints a single ``ACCEPTANCE n: PASS`` line on success
(visible with ``pytest -rP`` or ``-s``).
"""

from __future__ import annotations

import math
import time
from fractions import Fraction as F

from pyjama.gaussian import (
    P5,
    P5BAR,
    P13,
    P13BAR,
    THETA5,
    THETA13,
    GaussianInt,
    GaussianRational,
    abs_at,
    in_A,
    theta_power,
    theta_set,
    unit_circle_elements,
)
from pyjama.padic import closure_index, embed, sqrt_neg1
from pyjama.solenoid import (
    ExactPoint,
    act,
    classify_point,
    evaluate,
    orbit_eval_sweep,
    periodic_dense_set,
    stripe_membership,
)
from pyjama.covering import (
    CoveringConfig,
    snap_to_lattice,
    uncovered_region,
    verify_obstruction,
)
from pyjama.disk import certified_disk_cover, theta_prime
from pyjama.approx import circle_density, semigroup_density, strong_approx
from pyjama import cli

from _util import rng, random_a_element, random_gaussian_rational


def _elapsed(t0: float) -> float:
    return time.monotonic() - t0


def test_criterion_01_parity_obstruction_margin():
    """The (1, 1, 2) congruence class misses every stripe by exactly 1/2 for
    every odd period norm up to 10^4 that is a norm from the Gaussian
    integers."""
    t0 = time.monotonic()
    count = 0
    for norm_d in range(1, 10**4 + 1, 2):
        try:
            ok, margin = verify_obstruction(1, 1, 2, norm_d, F(1, 4))
        except ValueError:
            continue  # norm_d is not a sum of two squares
        assert ok, norm_d
        assert margin == F(1, 2), norm_d
        count += 1
    assert count == 1306
    dt = _elapsed(t0)
    assert dt < 10.0
    print(
        f"ACCEPTANCE 1: PASS — margin exactly 1/2 for all {count} valid odd "
        f"period norms <= 10^4 ({dt:.2f}s)"
    )


def test_criterion_02_unit_circle_denominators_odd():
    """Every unit-modulus Gaussian rational with small denominator has an odd
    denominator."""
    t0 = time.monotonic()
    elements = unit_circle_elements(100)
    assert elements
    for q in elements:
        assert q.abs2() == 1
        assert q.den % 2 == 1, q
    dt = _elapsed(t0)
    assert dt < 1.0
    print(
        f"ACCEPTANCE 2: PASS — all {len(elements)} unit-circle elements with "
        f"denominator <= 100 have odd denominator ({dt:.2f}s)"
    )


def test_criterion_03_figure_pipeline(tmp_path):
    """The two-rotation reference configuration: CLI run exits 1 (stripes do
    not cover), the uncovered region contains the half-odd point (1+i)/2 * D
    exactly, and an SVG rendering is emitted."""
    t0 = time.monotonic()
    ini = tmp_path / "figure.ini"
    ini.write_text(
        "[covering]\n"
        "rotations = 1; -3/5+4/5i\n"
        "epsilon = 1/4\n"
        "period = 1-2i\n"
    )
    out = tmp_path / "out"
    code = cli.main(["verify-covering", "--config", str(ini), "--out", str(out)])
    assert code == 1
    assert (out / "cover.svg").exists()
    assert (out / "report.txt").exists()

    period = GaussianInt(1, -2)
    config = CoveringConfig([GaussianRational(1), THETA5], F(1, 4), period)
    report = uncovered_region(config)
    half_odd = GaussianRational(GaussianInt(1, 1), 2) * GaussianRational(period)
    assert report.contains(half_odd)
    dt = _elapsed(t0)
    assert dt < 5.0
    print(
        f"ACCEPTANCE 3: PASS — pipeline exit 1, uncovered contains "
        f"{half_odd}, SVG written ({dt:.2f}s)"
    )


def test_criterion_04_diagonal_kernel_identity():
    """The diagonal image of the base ring is in the kernel of every pairing
    functional: evaluation is exactly 0 for random ring pairs."""
    t0 = time.monotonic()
    r = rng(4)
    for _ in range(10**3):
        q = random_a_element(r, max_coeff=20, max_exp=4)
        s = random_a_element(r, max_coeff=20, max_exp=4)
        assert evaluate(ExactPoint(q), s) == F(0)
    dt = _elapsed(t0)
    assert dt < 10.0
    print(
        f"ACCEPTANCE 4: PASS — diagonal pairing exactly 0 on 1000 random "
        f"ring pairs with exponents <= 4 ({dt:.2f}s)"
    )


def test_criterion_05_embedding_absolute_value_compatibility():
    """The p-adic absolute value computed through the canonical embedding
    equals the absolute value at the matching barred site, exactly."""
    t0 = time.monotonic()
    r = rng(5)
    checked = 0
    for _ in range(10**3):
        q = random_gaussian_rational(r, nonzero=True)
        for p, site in ((5, P5BAR), (13, P13BAR)):
            img = embed(q, p, 8)
            assert F(p) ** (-img.valuation) == abs_at(q, site), (q, p)
        checked += 1
    dt = _elapsed(t0)
    assert dt < 5.0
    print(
        f"ACCEPTANCE 5: PASS — |iota_p(q)|_p matches the barred-site absolute "
        f"value on {checked} random points at both primes ({dt:.2f}s)"
    )


def test_criterion_06_canonical_roots_and_generator_valuations():
    """Canonical square roots of -1 carry the pinned residues, and the barred
    generators embed with valuation exactly 1, at every precision 1..8."""
    t0 = time.monotonic()
    for k in range(1, 9):
        assert sqrt_neg1(5, k) % 5 == 3
        assert sqrt_neg1(13, k) % 13 == 5
        assert embed(GaussianRational(P5BAR.generator), 5, k).valuation == 1
        assert embed(GaussianRational(P13BAR.generator), 13, k).valuation == 1
    dt = _elapsed(t0)
    assert dt < 1.0
    print(
        "ACCEPTANCE 6: PASS — canonical roots are 3 mod 5 and 5 mod 13, "
        f"barred generators embed with valuation 1, k = 1..8 ({dt:.2f}s)"
    )


def test_criterion_07_periodicity_dichotomy_vs_brute_force():
    """classify_point agrees with a brute-force oracle that tests whether
    some common rotation power fixes the point modulo the base ring."""
    t0 = time.monotonic()
    gens = [GaussianInt(a, b) for a in range(-7, 8) for b in range(-7, 8)
            if a * a + b * b <= 50]
    dens = [P5.generator, P5BAR.generator, P13.generator, P13BAR.generator,
            GaussianInt(2), GaussianInt(3)]
    one = GaussianRational(1)
    checked = 0
    for g in gens:
        for d in dens:
            q = GaussianRational(g) / GaussianRational(d)
            brute = any(
                in_A((theta_power(m, 0) - one) * q)
                and in_A((theta_power(0, m) - one) * q)
                for m in range(1, 7)
            )
            assert (classify_point(q).kind == "periodic") == brute, (g, d)
            checked += 1
    dt = _elapsed(t0)
    assert dt < 60.0
    print(
        f"ACCEPTANCE 7: PASS — classification matches the brute-force fixing "
        f"oracle on {checked} points over six denominators ({dt:.2f}s)"
    )


def test_criterion_08_dense_periodic_family():
    """The first dense periodic family has 49 points, a common period
    exponent dividing 48, and every point is exactly fixed by both rotation
    generators raised to that exponent."""
    t0 = time.monotonic()
    points, m = periodic_dense_set(1)
    assert len(points) == 49
    assert 48 % m == 0
    t5 = theta_power(m, 0)
    t13 = theta_power(0, m)
    for pt in points:
        assert act(t5, pt).same_class(pt)
        assert act(t13, pt).same_class(pt)
    dt = _elapsed(t0)
    assert dt < 5.0
    print(
        f"ACCEPTANCE 8: PASS — 49 periodic points, exponent {m} divides 48, "
        f"all exactly fixed by both generators ({dt:.2f}s)"
    )


def test_criterion_09_strong_approximation_certificates():
    """Simultaneous archimedean/p-adic approximation at delta = 10^-3, with
    both residuals re-verified independently of the solver."""
    t0 = time.monotonic()
    r = rng(9)
    delta = F(1, 1000)
    for i in range(100):
        p = 5 if i % 2 == 0 else 13
        bar = P5BAR if p == 5 else P13BAR
        z = complex(r.uniform(-3, 3), r.uniform(-3, 3))
        num = GaussianInt(r.randrange(-20, 21), r.randrange(-20, 21))
        target = GaussianRational(num) / GaussianRational(
            bar.generator ** r.randrange(0, 3)
        )
        b = embed(target, p, 16)
        q = strong_approx(z, b, delta)
        assert in_A(q)
        qc = complex(F(q.num.re, q.den), F(q.num.im, q.den))
        assert abs(qc - z) <= 1e-3 + 1e-12, i
        assert embed(q, p, 18).distance(b) <= delta, i
    dt = _elapsed(t0)
    assert dt < 30.0
    print(
        "ACCEPTANCE 9: PASS — 100 approximation certificates at delta=1/1000 "
        f"re-verified at both places ({dt:.2f}s)"
    )


def test_criterion_10_density_at_small_scale():
    """The doubling/tripling semigroup is delta-dense at the one-in-a-million
    scale, and 200 circle-rotation steps leave no gap of 2*pi/20."""
    t0 = time.monotonic()
    sg = semigroup_density(F(1, 10**6), F(1, 10))
    assert sg.is_dense
    circ = circle_density(THETA5, 1, 200)
    assert circ.max_gap < 2 * math.pi / 20
    dt = _elapsed(t0)
    assert dt < 10.0
    print(
        f"ACCEPTANCE 10: PASS — semigroup dense at scale 10^-6 "
        f"(gap {float(sg.max_gap):.2e}), circle gap {circ.max_gap:.4f} < "
        f"{2 * math.pi / 20:.4f} after 200 steps ({dt:.2f}s)"
    )


def test_criterion_11_closure_index_stabilizes():
    """The closure index of the second rotation at the first prime equals a
    brute-force subgroup enumeration and is constant across precisions."""
    t0 = time.monotonic()
    values = []
    for k in (2, 3, 4):
        x = embed(THETA13, 5, k)
        got = closure_index(x)
        mod = 5**k
        u = x.unit_digits % mod
        subgroup = {1}
        cur = u
        while cur not in subgroup:
            subgroup.add(cur)
            cur = cur * u % mod
        brute = (4 * 5 ** (k - 1)) // len(subgroup)
        assert got == brute, k
        values.append(got)
    assert len(set(values)) == 1
    dt = _elapsed(t0)
    assert dt < 10.0
    print(
        f"ACCEPTANCE 11: PASS — closure index {values[0]} equals brute-force "
        f"subgroup enumeration, constant for k in 2..4 ({dt:.2f}s)"
    )


def test_criterion_12_snap_round_trip():
    """Noisy period-lattice points are recovered exactly: 1000 snaps with
    noise of modulus <= 1/200 on the exponent-(2, 2) lattice."""
    t0 = time.monotonic()
    r = rng(12)
    lattice_gen = P5BAR.generator**2 * P13BAR.generator**2
    for _ in range(10**3):
        w = GaussianInt(r.randrange(-3, 4), r.randrange(-3, 4))
        y = GaussianRational(w * lattice_gen)
        while True:
            u, v = r.randrange(-2, 3), r.randrange(-2, 3)
            if u * u + v * v <= 4:
                break
        noise = GaussianRational(GaussianInt(u, v), 400)  # |noise| <= 1/200
        snapped = snap_to_lattice(y + noise, 2, 2, F(1, 100))
        assert snapped == y
    dt = _elapsed(t0)
    assert dt < 10.0
    print(
        "ACCEPTANCE 12: PASS — 1000 exact snap round trips with noise "
        f"<= 1/200 on the (2, 2) lattice ({dt:.2f}s)"
    )


def test_criterion_13_membership_matches_stripe_oracle():
    """Polygon membership in the uncovered region agrees with direct stripe
    evaluation on 20 random exact configurations, 1000 points each."""
    t0 = time.monotonic()
    r = rng(20260817)
    ts = theta_set(2)
    checked = 0
    for i in range(20):
        size = r.choice((1, 2, 2, 3))
        exps = r.sample([(a, b) for a in range(3) for b in range(3)], size)
        rmax = max(a for a, _ in exps)
        smax = max(b for _, b in exps)
        period = P5BAR.generator**rmax * P13BAR.generator**smax
        eps = F(r.randrange(1, 50), 100)
        config = CoveringConfig([ts[a * 3 + b] for a, b in exps], eps, period)
        report = uncovered_region(config, obstruction_m_max=1)
        n = period.norm()
        for _ in range(10**3):
            z = GaussianRational(
                GaussianInt(r.randrange(-2 * n, 2 * n), r.randrange(-2 * n, 2 * n)),
                r.randrange(1, 40),
            )
            direct = not any(
                stripe_membership(ExactPoint.from_complex(z), th, eps)
                for th in config.rotations
            )
            assert report.contains(z) == direct, (i, z)
            checked += 1
    dt = _elapsed(t0)
    assert dt < 60.0
    print(
        f"ACCEPTANCE 13: PASS — membership agrees with the stripe oracle on "
        f"{checked} points across 20 random configurations ({dt:.2f}s)"
    )


def test_criterion_14_orbit_sweep_gap_dichotomy():
    """Orbit evaluation sweeps: a unit-modulus seed fills the value circle
    (gap < 0.05 by M = 100) while a modulus-1/4 seed never can (gap >= 1/4
    at every sweep size)."""
    t0 = time.monotonic()
    on_circle = ExactPoint.from_complex(complex(math.cos(0.37), math.sin(0.37)))
    gap = orbit_eval_sweep(on_circle, 1, 100)
    assert gap < 0.05
    inside = ExactPoint.from_complex(0.25 + 0j)
    small_gaps = [orbit_eval_sweep(inside, 1, M) for M in (10, 40, 100)]
    for g in small_gaps:
        assert g >= 0.25
    dt = _elapsed(t0)
    assert dt < 30.0
    print(
        f"ACCEPTANCE 14: PASS — gap {float(gap):.4f} < 0.05 at |w| = 1, gap >= 1/4 "
        f"at every sweep size for |w| = 1/4 ({dt:.2f}s)"
    )


def test_criterion_15_certified_disk_cover_scan():
    """Scanning the derived rotation families certifies a covering of the
    radius-20 disk at stripe half-width 0.3 for some family parameters."""
    t0 = time.monotonic()
    found = None
    for n in range(1, 5):
        for big_n in range(0, 5):
            rotations = theta_prime(n, big_n)
            report = certified_disk_cover(rotations, 0.3, 20.0, 0.05, refine_rounds=2)
            if report.certified:
                found = (n, big_n, len(rotations), report)
                break
        if found:
            break
    assert found is not None, "no family in the scan certified the disk"
    n, big_n, n_rot, report = found
    assert report.failing_count == 0
    dt = _elapsed(t0)
    assert dt < 600.0
    print(
        f"ACCEPTANCE 15: PASS — (n, N) = ({n}, {big_n}) with {n_rot} rotations "
        f"certifies the radius-20 disk at epsilon = 0.3 "
        f"(pitch {report.pitch}, {report.cells_checked} cells, {dt:.2f}s)"
    )
