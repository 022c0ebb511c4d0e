"""Shared helpers for the seeded randomized tests, a valuation oracle for
A-membership, Fraction oracles for the integer geometry kernels, and a
Fraction oracle for the uncovered points of a disk cover."""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

from pyjama.covering import CoverReport, _lattice_scale, _subtract_stripes
from pyjama.gaussian import (
    P5,
    P5BAR,
    P13,
    P13BAR,
    GaussianInt,
    GaussianRational,
    as_gaussian_rational,
    theta_set,
    valuation,
)
from pyjama.polygon import ConvexPolygon, _canonicalize, _ring_area2


def rng(seed: int = 0) -> random.Random:
    return random.Random(seed)


def random_gaussian_int(r: random.Random, max_coeff: int = 30) -> GaussianInt:
    return GaussianInt(r.randint(-max_coeff, max_coeff), r.randint(-max_coeff, max_coeff))


def random_gaussian_rational(
    r: random.Random,
    max_coeff: int = 30,
    max_den: int = 30,
    nonzero: bool = False,
) -> GaussianRational:
    while True:
        q = GaussianRational(random_gaussian_int(r, max_coeff), r.randint(1, max_den))
        if q or not nonzero:
            return q


def random_a_element(
    r: random.Random,
    max_coeff: int = 20,
    max_exp: int = 4,
    nonzero: bool = False,
) -> GaussianRational:
    """Random element of the ring A: Gaussian-integer numerator over a
    product of barred-site generators."""
    while True:
        g = random_gaussian_int(r, max_coeff)
        den = P5BAR.generator ** r.randint(0, max_exp) * P13BAR.generator ** r.randint(0, max_exp)
        q = GaussianRational(g) / GaussianRational(den)
        if q or not nonzero:
            return q


def in_A_oracle(q) -> bool:
    """``in_A`` as first written: the denominator must be supported on
    {5, 13}, and the valuations at the unbarred sites, found by stripping
    their prime one factor at a time, must be nonnegative."""
    qq = as_gaussian_rational(q)
    if not qq:
        return True
    d = qq.den
    for p in (5, 13):
        while d % p == 0:
            d //= p
    if d != 1:
        return False
    return valuation(qq, P5) >= 0 and valuation(qq, P13) >= 0


def order_oracle(g: GaussianInt, n: int) -> int:
    """Multiplicative order of a unit g of Z[i]/n, by repeated multiplication."""
    one, acc, e = GaussianInt(1, 0) % n, g % n, 1
    while acc != one:
        acc, e = acc * g % n, e + 1
    return e


# -- Fraction oracles for the integer geometry kernels ------------------------
#
# The package keeps its pieces as integer rings; these helpers redo the same
# geometry directly on Fraction vertices, the way it was first written, so
# that tests can compare the integer kernels against them.


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def translate(poly: ConvexPolygon, dx, dy) -> ConvexPolygon:
    """The piece moved by (dx, dy)."""
    dx, dy = Fraction(dx), Fraction(dy)
    return ConvexPolygon([(x + dx, y + dy) for x, y in poly.vertices])


def _crossing(s, e, fs, fe):
    t = fs / (fs - fe)
    return (s[0] + t * (e[0] - s[0]), s[1] + t * (e[1] - s[1]))


def clip_halfplane(poly: ConvexPolygon, a, b, c) -> ConvexPolygon | None:
    """Sutherland-Hodgman intersection of the piece with the closed
    halfplane a*x + b*y <= c, or None when it is empty."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    pts = poly.vertices
    if poly.kind == "point":
        (x, y), = pts
        return poly if a * x + b * y <= c else None
    ring = list(pts) if poly.kind == "polygon" else [pts[0], pts[1]]
    out = []
    for i, s in enumerate(ring):
        e = ring[(i + 1) % len(ring)]
        fs = a * s[0] + b * s[1] - c
        fe = a * e[0] + b * e[1] - c
        if fs <= 0:
            out.append(s)
            if fe > 0:
                out.append(_crossing(s, e, fs, fe))
        elif fe < 0:
            out.append(_crossing(s, e, fs, fe))
    return ConvexPolygon(out) if out else None


def fraction_contains(poly: ConvexPolygon, point) -> bool:
    """Closed membership of a Fraction point in the piece."""
    p = (Fraction(point[0]), Fraction(point[1]))
    pts = poly.vertices
    if poly.kind == "point":
        return p == pts[0]
    if poly.kind == "segment":
        s, e = pts
        return (_cross(s, e, p) == 0
                and min(s[0], e[0]) <= p[0] <= max(s[0], e[0])
                and min(s[1], e[1]) <= p[1] <= max(s[1], e[1]))
    return all(_cross(pts[i], pts[(i + 1) % len(pts)], p) >= 0
               for i in range(len(pts)))


def _segment_dist_sq(p, s, e) -> Fraction:
    dx, dy = e[0] - s[0], e[1] - s[1]
    d2 = dx * dx + dy * dy
    t = Fraction(0) if d2 == 0 else ((p[0] - s[0]) * dx + (p[1] - s[1]) * dy) / d2
    t = max(Fraction(0), min(Fraction(1), t))
    return (p[0] - s[0] - t * dx) ** 2 + (p[1] - s[1] - t * dy) ** 2


def fraction_dist_sq(poly: ConvexPolygon, point) -> Fraction:
    """Squared Euclidean distance from a Fraction point to the piece."""
    p = (Fraction(point[0]), Fraction(point[1]))
    if fraction_contains(poly, p):
        return Fraction(0)
    pts = poly.vertices
    return min(_segment_dist_sq(p, pts[i - 1], pts[i]) for i in range(len(pts)))


def with_pieces(report: CoverReport, polys) -> CoverReport:
    """The report with the given ConvexPolygons as its pieces, as integer
    rings at their least common scale."""
    polys = list(polys)
    scale = math.lcm(*(c.denominator for p in polys for v in p.vertices for c in v))
    pieces = tuple(
        (tuple((int(x * scale), int(y * scale)) for x, y in p.vertices), p.kind)
        for p in polys
    )
    return CoverReport(report.config, pieces, scale, report.total_uncovered_area,
                       report.obstruction_matches)


def whole_cell_pieces(config):
    """``uncovered_region``'s pieces and area as first written: every
    rotation's stripes subtracted from the whole period cell, with no
    mirroring."""
    D, eps = config.period, config.epsilon
    scale = _lattice_scale(D, config.rotations, eps)
    dr, di = D.re * scale, D.im * scale
    rings = [[(0, 0), (dr, di), (dr - di, di + dr), (-di, dr)]]
    for rotation in config.rotations:
        rings = _subtract_stripes(rings, rotation, eps, scale)
    pieces = tuple(_canonicalize(ring) for ring in rings)
    area = Fraction(sum(_ring_area2(ring) for ring, _ in pieces), 2 * scale * scale)
    return pieces, area


# -- a Fraction oracle for disk-cover witnesses --------------------------------
#
# A rotation is a form (a, b, n, sign): zeta*(a + bi) with Fractions a, b and
# zeta = 1 when sign is 0, else (1 + sign*i*sqrt(4n^2 - 1))/(2n), the
# irrational_triple directions.  None is a rotation that covers nothing.


def plain_forms(rotations) -> list:
    """The forms of rotations given as Gaussian rationals (exactly) or as
    floats and complexes (at their binary values); None for a rotation that
    is not finite."""
    forms = []
    for t in rotations:
        if isinstance(t, GaussianRational):
            forms.append((t.re, t.im, 0, 0))
        else:
            z = complex(t)
            forms.append((Fraction(z.real), Fraction(z.imag), 0, 0) if cmath.isfinite(z) else None)
    return forms


def theta_prime_forms(n: int, N: int) -> list:
    """theta_prime(n, N) as the exact rotations it rounds, in its order."""
    return [(t.re, t.im, n, sign) for sign in (1, -1, 0) for t in theta_set(N)]


def uncovered_oracle(point, clearance, radius, forms, bits: int = 256) -> bool:
    """Whether the point (a Gaussian rational, or a pair of numbers taken
    exactly) lies in the disk |z| <= radius with Re(z*t) at least
    ``clearance`` from every integer, for every rotation t of ``forms``:
    in Fractions, with sqrt(4n^2 - 1) enclosed to 2**-bits."""
    if isinstance(point, GaussianRational):
        x, y = point.re, point.im
    else:
        x, y = (Fraction(c) for c in point)
    clearance, radius = Fraction(clearance), Fraction(radius)
    if x * x + y * y > radius * radius:
        return False
    for form in forms:
        if form is None:
            continue
        a, b, n, sign = form
        wr, wi = x * a - y * b, x * b + y * a  # z*(a + bi)
        if sign == 0:
            lo = hi = wr
        else:
            s = math.isqrt((4 * n * n - 1) << (2 * bits))
            # Re((wr + i*wi)*(1 + sign*i*r)/(2n)) for r = sqrt(4n^2 - 1)
            ends = [(wr - sign * wi * Fraction(r, 1 << bits)) / (2 * n) for r in (s, s + 1)]
            lo, hi = min(ends), max(ends)
        k = math.floor(lo)
        if lo - k < clearance or k + 1 - hi < clearance:
            return False
    return True


def float_literal_bounds(epsilon: float, radius: float) -> tuple[Fraction, Fraction]:
    """A clearance and a radius that hold for every decimal literal that
    rounds to the floats epsilon and radius: eps + ulp(eps), R - ulp(R)."""
    return (Fraction(epsilon) + Fraction(math.ulp(epsilon)),
            Fraction(radius) - Fraction(math.ulp(radius)))
