"""Planar stripe-covering machinery: exact uncovered-region certificates over
a period lattice, obstruction tuples and their margins, lattice snapping,
and the rationality experiment.  The float disk cover of the irrational
step lives in ``disk``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt

from .gaussian import (
    CertificateError,
    GaussianInt,
    GaussianRational,
    P5BAR,
    P13BAR,
    _half_width,
    as_gaussian_rational,
    gaussian_ints_of_norm,
    nearest_gaussian_int,
    theta_power,
    try_exact_div,
)
from .polygon import (
    ConvexPolygon,
    Ring,
    _canonicalize,
    _ring_area2,
    _ring_contains,
    _ring_dist_sq,
    _ring_kind,
)

__all__ = [
    "CertificateError",
    "CoveringConfig",
    "CoverReport",
    "RationalityReport",
    "uncovered_region",
    "verify_obstruction",
    "obstruction_catalog",
    "snap_to_lattice",
    "rationality_check",
]


@dataclass(frozen=True, slots=True)
class CoveringConfig:
    """A stripe configuration: exact unit-modulus rotations, an exact stripe
    half-width epsilon in (0, 1/2), and a Gaussian-integer period multiplier
    compatible with every rotation.  Floating rotations or half-widths are
    rejected with ValueError."""

    rotations: tuple[GaussianRational, ...]
    epsilon: Fraction
    period: GaussianInt = GaussianInt(1, 0)

    def __post_init__(self):
        rots = []
        for t in self.rotations:
            try:
                q = as_gaussian_rational(t)
            except TypeError:
                raise ValueError(f"rotation {t!r} is not an exact Gaussian rational") from None
            if q.abs2() != 1:
                raise ValueError(f"rotation {q} does not have unit modulus")
            rots.append(q)
        if not rots:
            raise ValueError("at least one rotation is required")
        if isinstance(self.epsilon, float):
            raise ValueError("stripe half-width must be an exact rational")
        eps = _half_width(self.epsilon)
        if not isinstance(self.period, GaussianInt) or not self.period:
            raise TypeError("period multiplier must be a nonzero Gaussian integer")
        for q in rots:
            if not (GaussianRational(self.period) * q).is_gaussian_int():
                raise ValueError(
                    f"period multiplier {self.period} is incompatible with rotation {q}"
                )
        object.__setattr__(self, "rotations", tuple(rots))
        object.__setattr__(self, "epsilon", eps)


class _Polygons(Sequence):
    """Integer pieces at one scale as ConvexPolygons, each built when read."""

    def __init__(self, pieces, scale: int):
        self._pieces, self._scale = pieces, scale

    def __len__(self) -> int:
        return len(self._pieces)

    def __getitem__(self, index: int) -> ConvexPolygon:
        return ConvexPolygon(self._pieces[operator.index(index)], self._scale)


@dataclass(frozen=True)
class CoverReport:
    """Exact certificate for the uncovered part of one period parallelogram.

    ``pieces`` are its closed convex pieces as canonical integer rings at
    the lattice scale ``scale`` (a vertex (X, Y) is the point
    (X + iY)/scale); a ring's vertex count gives its kind.  Membership,
    distances, the report text and the SVG all work on them; ``uncovered``
    shows them as ConvexPolygons."""

    config: CoveringConfig
    pieces: tuple[Ring, ...]
    scale: int
    total_uncovered_area: Fraction
    obstruction_matches: tuple[tuple[int, int, int], ...]

    @property
    def uncovered(self) -> Sequence[ConvexPolygon]:
        return _Polygons(self.pieces, self.scale)

    @cached_property
    def _buckets(self) -> dict:
        """Unit-grid spatial hash of the pieces: bucket (i, j) lists
        (ring, integer bounding box) for every piece whose box meets
        [i, i+1) x [j, j+1)."""
        L = self.scale
        buckets: dict[tuple[int, int], list] = {}
        for ring in self.pieces:
            xs = [x for x, _ in ring]
            ys = [y for _, y in ring]
            entry = (ring, (min(xs), max(xs), min(ys), max(ys)))
            for ix in range(min(xs) // L, max(xs) // L + 1):
                for iy in range(min(ys) // L, max(ys) // L + 1):
                    buckets.setdefault((ix, iy), []).append(entry)
        return buckets

    def contains(self, z) -> bool:
        """Exact membership of a complex point in the pieces' translates by
        D*Z[i].  Only the shifts D*(j + ki), j, k in {-1, 0, 1}, of the point
        reduced into the cell are tried, so it is exact for pieces within one
        period of the cell, as ``uncovered_region`` builds them."""
        q = as_gaussian_rational(z)
        a, b, m = q.num.re, q.num.im, q.den
        D, L = self.config.period, self.scale
        dr, di = D.re, D.im
        M = m * D.norm()
        # z = (a + bi)/m; (a + bi)/(m*D) = (u + iv)/M in cell coordinates [0, 1)
        u = (a * dr + b * di) % M
        v = (b * dr - a * di) % M
        buckets = self._buckets
        for j in (u, u - M, u + M):
            for k in (v, v - M, v + M):
                x, y = j * dr - k * di, j * di + k * dr  # the point (x + iy)/M
                xl, yl = x * L, y * L
                for ring, (x0, x1, y0, y1) in buckets.get((x // M, y // M), ()):
                    if (M * x0 <= xl <= M * x1 and M * y0 <= yl <= M * y1
                            and _ring_contains(ring, xl, yl, M)):
                        return True
        return False

    def report_lines(self) -> list[str]:
        """Structured-text serialization (exact), from the ``kind=`` line on."""
        cfg, L = self.config, self.scale

        def frac(v: int) -> str:  # str(Fraction(v, L)), without the Fraction
            g = gcd(v, L)
            return str(v // g) if g == L else f"{v // g}/{L // g}"

        lines = [
            "kind=cover",
            f"epsilon={cfg.epsilon}",
            f"period={cfg.period}",
            f"period_norm={cfg.period.norm()}",
            f"rotations={';'.join(str(t) for t in cfg.rotations)}",
            f"uncovered_count={len(self.pieces)}",
            f"total_uncovered_area={self.total_uncovered_area}",
        ]
        for i, ring in enumerate(self.pieces):
            verts = ";".join(f"{frac(x)},{frac(y)}" for x, y in ring)
            lines.append(f"polygon {i} kind={_ring_kind(ring)} vertices={verts}")
        # every catalog point lies in the uncovered region: distance 0
        for a, b, m in self.obstruction_matches:
            lines.append(f"obstruction a={a} b={b} m={m} distance_sq=0")
        return lines


def _lattice_scale(D: GaussianInt, rotations, eps: Fraction) -> int:
    """A scale L that puts every vertex of the uncovered region on the
    integer lattice.  Every boundary line is n.(x, y) = c with integer n and
    c: the period-cell edges have normals (-D.im, D.re) and (D.re, D.im), and
    for theta = (a + bi)/d and eps = p/q the stripe edges are
    q*(a*x - b*y) = d*(q*k -+ p).  Two such lines meet at a point whose
    coordinates have denominator |det(n_i, n_j)|, so L is their lcm."""
    q = eps.denominator
    normals = [(-D.im, D.re), (D.re, D.im)]
    normals += [(q * t.num.re, -q * t.num.im) for t in rotations]
    scale = 1
    for i, (a0, b0) in enumerate(normals):
        for a1, b1 in normals[i + 1 :]:
            det = a0 * b1 - a1 * b0
            if det:
                scale = math.lcm(scale, abs(det))
    return scale


def _split_slabs(ring, hs, up: int, uq: int):
    """Split a convex ring of integer vertices with stripe values ``hs`` into
    its parts in the closed slabs uq*j + up <= h <= uq*(j + 1) - up between
    the open stripes, in one walk: the nonempty parts, in increasing j.

    A vertex's level comes from w = h + up = uq*k + r: 4k on the line
    h = uq*k - up (r = 0), 4k + 1 inside stripe k, 4k + 2 on the line
    h = uq*k + up and 4k + 3 inside slab k, so slab j holds the levels
    4j + 2 .. 4j + 4 and the even levels are the slab edges.  Each vertex goes
    to the slab of its level, and an edge crosses a slab edge exactly where an
    even level lies strictly between the levels of its ends; the crossing
    goes to that slab.  Walking the ring once thus gives each slab its points
    in cyclic order.  CertificateError when a crossing is off the lattice."""
    up2 = 2 * up
    levels = []
    for h in hs:
        k, r = divmod(h + up, uq)
        levels.append(4 * k + (3 if r > up2 else 2 if r == up2 else 1 if r else 0))
    first = (min(levels) - 2) // 4
    slabs = [[] for _ in range((max(levels) - 2) // 4 - first + 1)]
    s, h_s, l_s = ring[-1], hs[-1], levels[-1]
    for e, h_e, l_e in zip(ring, hs, levels):
        if l_s & 3 != 1:
            slabs[(l_s - 2) // 4 - first].append(s)
        if l_e > l_s + 1 or l_s > l_e + 1:
            # the crossing with the line h = h_s + t is s + t*(e - s)/(h_e - h_s),
            # a lattice point exactly when (h_e - h_s)/g divides t, where
            # g = gcd(e - s, h_e - h_s)
            sx, sy = s
            dx, dy, den = e[0] - sx, e[1] - sy, h_e - h_s
            g = gcd(dx, dy, den)
            dx, dy, den = dx // g, dy // g, den // g
            # the even levels strictly between l_s and l_e, from s towards e
            step = 2 if l_e > l_s else -2
            for level in range(l_s + step - (l_s & 1) * step // 2, l_e, step):
                t = uq * (level >> 2) + (up if level & 2 else -up) - h_s
                if t % den:
                    raise CertificateError(
                        f"the stripe line h = {h_s + t} crosses the edge {s}-{e} "
                        "off the integer lattice"
                    )
                n = t // den
                slabs[(level - 2) // 4 - first].append((sx + n * dx, sy + n * dy))
        s, h_s, l_s = e, h_e, l_e
    return [part for part in slabs if part]


def _subtract_stripes(rings, rotation: GaussianRational, eps: Fraction, scale: int):
    """Cut the open stripes of one rotation out of convex integer rings at
    the given lattice scale; the rings left, raw as the walks made them.

    For theta = (a + bi)/d and eps = p/q, a vertex's stripe value
    h = q*(a*X - b*Y) is q*u times Re(z*theta), u = d*scale, and stripe k is
    the open band u*(q*k - p) < h < u*(q*k + p).  [min h, max h] decides
    first: a piece that meets no stripe closure passes unchanged, and a piece
    inside one open stripe is dropped.  Any other piece is split into its
    parts in the closed slabs between the stripes by one ``_split_slabs``
    walk, which emits them in increasing h; the rings come out in the order
    of their input, each one's parts in increasing h.

    Every part is the piece's point set cut by one closed slab, so the output
    depends only on the point sets, not on how a raw ring lists them.  Under
    the half-turn s(z) = (1+i)D - z of ``uncovered_region`` h becomes
    u*q*Re((1+i)D*theta) - h, a multiple of u*q minus h: s maps the stripe
    family onto itself and reverses the order of the slabs."""
    form = _stripe_form(rotation, eps, scale)
    return [part for ring in rings for part in _cut(ring, *form)]


def _stripe_form(rotation: GaussianRational, eps: Fraction, scale: int):
    """(q*a, q*b, u*p, u*q) for theta = (a + bi)/d, eps = p/q and u = d*scale."""
    q, u, num = eps.denominator, rotation.den * scale, rotation.num
    return q * num.re, q * num.im, u * eps.numerator, u * q


def _cut(ring, qa: int, qb: int, up: int, uq: int):
    """``_subtract_stripes`` of one ring: [ring], [] or its slab parts."""
    hs = [qa * x - qb * y for x, y in ring]
    lo, hi = min(hs), max(hs)
    # stripes whose closure meets the piece: k_lo .. k_hi
    k_lo, k_hi = -((up - lo) // uq), (hi + up) // uq
    if k_lo > k_hi:
        return [ring]
    if k_lo < k_hi or lo <= uq * k_lo - up or uq * k_lo + up <= hi:
        return _split_slabs(ring, hs, up, uq)
    return []


def _mirrored(ring, cx: int, cy: int):
    """The canonical ring s(ring) for the half-turn s(X, Y) = (cx - X, cy - Y):
    the mapped ring rotated to its least vertex.  A half-turn keeps a ring
    counterclockwise and reverses the lexicographic order, so this also
    swaps a segment's two ends and maps a point."""
    ring = [(cx - x, cy - y) for x, y in ring]
    k = ring.index(min(ring))
    return tuple(ring[k:] + ring[:k])


def _moved(rings, dx: int, dy: int):
    """The rings translated by (dx, dy); the same list when that is zero."""
    if dx or dy:
        return [tuple([(x + dx, y + dy) for x, y in ring]) for ring in rings]
    return rings


def _cut_classes(rings, form):
    """The canonical pieces that the stripes of ``form`` (``_stripe_form``)
    leave of each ring, as (entry, dx, dy): entry[2] moved by (dx, dy).
    A translate by t with u*q | h(t) walks the same way (its levels shift by
    a multiple of 4; every crossing t and its lattice check stay), so a ring
    is keyed by its first vertex's h mod u*q and its vertices' offsets from
    that vertex, and only a new key is walked.  An entry is
    [x0, y0, pieces, doubled area, mirror slot] for the ring that made it."""
    qa, qb, _, uq = form
    memo, out = {}, []
    for ring in rings:
        x0, y0 = ring[0]
        key = ((qa * x0 - qb * y0) % uq, tuple([(x - x0, y - y0) for x, y in ring]))
        entry = memo.get(key)
        if entry is None:
            pieces = [_canonicalize(r) for r in _cut(ring, *form)]
            entry = memo[key] = [x0, y0, pieces, sum(map(_ring_area2, pieces)), None]
        out.append((entry, x0 - entry[0], y0 - entry[1]))
    return out


def uncovered_region(config: CoveringConfig, obstruction_m_max: int = 3) -> CoverReport:
    """The closed subset of one period parallelogram missed by every open
    stripe, as exact convex pieces, with matching obstruction tuples.

    The stripes are subtracted on integer vertices at the lattice scale of
    ``_lattice_scale`` by ``_subtract_stripes``: each piece passes whole,
    is dropped inside one open stripe, or is split into its closed slabs in
    one walk that sorts its vertices and edge crossings by their slab level.

    Only half of the cell is walked.  Since D*theta is a Gaussian integer
    for every rotation, each stripe family is symmetric under the half-turn
    s(z) = (1+i)D - z about the cell's centre (1+i)D/2, and s maps the cell
    onto itself.  The first rotation cuts the cell into slabs in increasing
    h, and s maps the j-th of n slabs onto the (n-1-j)-th.  The later
    rotations run on the lower n // 2 slabs and, when n is odd, on the
    middle slab, which s maps onto itself.  Each walk emits its parts in
    increasing h and s reverses h under every rotation, so by induction over
    the rotations the upper slabs' pieces are the mirror images of the lower
    slabs' pieces in reverse order.  The pieces are listed as the whole-cell
    walk lists them: lower, middle, then the mirrored lower half reversed.
    With D*theta = a + bi for the first rotation, the centre's stripe value
    is (a - b)/2.  When N(D) is odd, a - b is odd, the centre lies mid-slab
    and n is odd; when 1+i divides D, a - b is even, the centre lies on a
    stripe's centre line, and n is even with no middle slab.

    The last rotation splits each stripe-phase class once (``_cut_classes``):
    after the first rotations most pieces are translates of a few shapes,
    and a translate that keeps that rotation's stripes takes its class's
    canonical pieces (the canonical form depends only on the point set),
    area and mirror images (s(P + t) = s(P) - t, ``_mirrored``), moved.  A
    lone rotation cuts its own slabs again, which leaves each one whole.

    Every catalog obstruction point is uncovered (each rotation's D*theta is
    one of the norm-N(D) multipliers that ``verify_obstruction`` ranges
    over), which is re-checked exactly."""
    D, eps = config.period, config.epsilon
    scale = _lattice_scale(D, config.rotations, eps)
    dr, di = D.re * scale, D.im * scale
    cell = [[(0, 0), (dr, di), (dr - di, di + dr), (-di, dr)]]
    slabs = _subtract_stripes(cell, config.rotations[0], eps, scale)
    k = len(slabs) // 2
    lower, middle = slabs[:k], slabs[k : len(slabs) - k]
    for rotation in config.rotations[1:-1]:
        lower = _subtract_stripes(lower, rotation, eps, scale)
        middle = _subtract_stripes(middle, rotation, eps, scale)
    cut = _cut_classes(lower + middle, _stripe_form(config.rotations[-1], eps, scale))
    lower = cut[: len(lower)]  # releases the rings before their pieces are copied
    pieces = [piece for entry, dx, dy in cut for piece in _moved(entry[2], dx, dy)]
    for entry, dx, dy in reversed(lower):
        if entry[4] is None:
            entry[4] = [_mirrored(piece, dr - di, dr + di) for piece in reversed(entry[2])]
        pieces += _moved(entry[4], -dx, -dy)
    area2 = sum(entry[3] for entry, _, _ in cut + lower)
    area = Fraction(area2, 2 * scale * scale)
    matches = tuple(abm for abm, _ in obstruction_catalog(eps, obstruction_m_max, D.norm()))
    report = CoverReport(config, tuple(pieces), scale, area, matches)
    for a, b, m in matches:
        if not report.contains(GaussianRational(GaussianInt(a, b) * D, m)):
            raise CertificateError(
                f"obstruction certificate violated: ({a}, {b}, {m}) is in the "
                "catalog but its point is not in the uncovered region"
            )
    return report


# ---------------------------------------------------------------------------
# obstruction certificates
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _multipliers(normD: int) -> tuple[tuple[int, int], ...]:
    """The period multipliers of norm normD as (re, im) pairs.  Norm 0 is
    refused: its one multiplier 0 would give every point margin 0."""
    if normD < 1:
        raise ValueError(f"period norm must be at least 1, got {normD}")
    multipliers = tuple((g.re, g.im) for g in gaussian_ints_of_norm(normD))
    if not multipliers:
        raise ValueError(f"no Gaussian integers have norm {normD}")
    return multipliers


def _margin(a: int, b: int, m: int, multipliers) -> int:
    """m times the obstruction margin of (a + bi)/m: the least circle
    distance min(r, m - r) of r = (g.re*a - g.im*b) mod m over the
    multipliers g."""
    return min(min(r, m - r) for r in ((gr * a - gi * b) % m for gr, gi in multipliers))


def verify_obstruction(
    a: int, b: int, m: int, normD: int, epsilon
) -> tuple[bool, Fraction]:
    """Whether the point (a + b*i)/m times any norm-normD period multiplier
    stays at circle-distance >= epsilon, a half-width in (0, 1/2), from the
    integer stripes; returns the verdict together with the exact minimal
    distance (the margin)."""
    if m < 1:
        raise ValueError("denominator m must be positive")
    if gcd(a, b, m) != 1:
        raise ValueError(f"({a}, {b}, {m}) is not gcd-normalized")
    eps = _half_width(epsilon)
    margin = Fraction(_margin(a, b, m, _multipliers(normD)), m)
    return margin >= eps, margin


def obstruction_catalog(
    epsilon, m_max: int, normD: int
) -> list[tuple[tuple[int, int, int], Fraction]]:
    """All gcd-normalized tuples (a, b, m) with m <= m_max whose obstruction
    margin meets epsilon, sorted by margin descending."""
    eps = _half_width(epsilon)
    if m_max < 1:
        raise ValueError("m_max must be positive")
    multipliers = _multipliers(normD)
    p, q = eps.numerator, eps.denominator
    found = []
    for m in range(1, m_max + 1):
        for a in range(m):
            for b in range(m):
                if gcd(a, b, m) != 1:
                    continue
                r = _margin(a, b, m, multipliers)
                if r * q >= p * m:
                    found.append(((a, b, m), Fraction(r, m)))
    found.sort(key=lambda item: (-item[1], item[0]))
    return found


# ---------------------------------------------------------------------------
# lattice snapping and the rationality experiment
# ---------------------------------------------------------------------------


def snap_to_lattice(x, a: int, b: int, eta) -> GaussianRational:
    """Recover the period-lattice point within eta of x, given that every
    rotation in the (a, b) exponent box keeps x within eta of the integer
    lattice (checked exactly; the snap then lands on the sublattice)."""
    q = as_gaussian_rational(x)
    if a < 0 or b < 0:
        raise ValueError("exponent bounds must be nonnegative")
    eta = Fraction(eta)
    if not 0 < eta <= Fraction(1, 100):
        raise ValueError("snap tolerance must lie in (0, 1/100]")
    eta_sq = eta * eta
    for r in range(a + 1):
        for s in range(b + 1):
            w = theta_power(r, s) * q
            diff = w - nearest_gaussian_int(w)
            if diff.abs2() > eta_sq:
                raise ValueError(
                    "not uniformly close to the integer lattice: rotation "
                    f"exponents ({r}, {s}) give squared distance {diff.abs2()}"
                )
    y = nearest_gaussian_int(q)
    D = P5BAR.generator**a * P13BAR.generator**b
    if try_exact_div(y, D) is None:
        raise RuntimeError(
            "snap certificate violated: nearest integer point is not a "
            "period-lattice multiple"
        )
    return GaussianRational(y)


@dataclass(frozen=True)
class RationalityReport:
    """How close every uncovered piece sits to refined non-period lattice
    points, plus the period-size threshold bookkeeping."""

    refinement: int
    polygon_count: int
    distances_sq: tuple[Fraction, ...]
    max_distance_sq: Fraction
    within_bound: bool
    period_norm: int
    threshold: int
    period_exceeds_threshold: bool


def _refined_lattice_dist_sq(ring, scale: int, D: GaussianInt, n: int) -> Fraction:
    """Exact squared distance from the canonical ring at ``scale`` to the
    nearest point of D*Z[i]/n that is not a period point; in integers at
    scale S = scale*n, with the vertices n*(X, Y) and the candidate
    D*(j + ki)/n at scale*D*(j + ki)."""
    dr, di, T = D.re, D.im, scale * D.norm()
    pts = [(n * x, n * y) for x, y in ring]
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    # a first candidate: the refined point nearest the box center, moved off
    # the period lattice; (x + iy)/S has the coordinates
    # (x*dr + y*di, y*dr - x*di)/T in the basis D/n
    cx, cy = x0 + x1, y0 + y1  # twice the center
    j, k = (cx * dr + cy * di + T) // (2 * T), (cy * dr - cx * di + T) // (2 * T)
    if j % n == 0 and k % n == 0:
        j += 1
    best = _ring_dist_sq(pts, scale * (dr * j - di * k), scale * (di * j + dr * k))
    # every candidate that can do better lies within r of the box: scan the
    # box padded by r, nearest bound (squared distance to the box) first
    r = isqrt(best[0] // best[1]) + 1
    corners = [(x, y) for x in (x0 - r, x1 + r) for y in (y0 - r, y1 + r)]
    js = [x * dr + y * di for x, y in corners]
    ks = [y * dr - x * di for x, y in corners]
    candidates = []
    for j in range(min(js) // T, -(-max(js) // T) + 1):
        for k in range(min(ks) // T, -(-max(ks) // T) + 1):
            x, y = scale * (dr * j - di * k), scale * (di * j + dr * k)
            dx, dy = max(x0 - x, x - x1, 0), max(y0 - y, y - y1, 0)
            if (j % n or k % n) and (dx * dx + dy * dy) * best[1] < best[0]:
                candidates.append((dx * dx + dy * dy, x, y))
    candidates.sort()
    for bound, x, y in candidates:
        if bound * best[1] >= best[0]:
            break
        num, den = _ring_dist_sq(pts, x, y)
        if num * best[1] < best[0] * den:
            best = num, den
    return Fraction(best[0], best[1] * (scale * n) ** 2)


def rationality_check(config: CoveringConfig, n: int) -> RationalityReport:
    """Exact distances from every uncovered piece to the nearest refined
    lattice point that is not itself a period point, with the max compared
    against the fixed bound 20 and the period norm against 40n^2 + 20n."""
    if n < 2:
        raise ValueError("refinement index must be at least 2")
    report = uncovered_region(config)
    D = config.period
    distances = tuple(
        _refined_lattice_dist_sq(ring, report.scale, D, n) for ring in report.pieces
    )
    max_d = max(distances, default=Fraction(0))
    threshold = 40 * n * n + 20 * n
    return RationalityReport(
        refinement=n,
        polygon_count=len(report.pieces),
        distances_sq=distances,
        max_distance_sq=max_d,
        within_bound=max_d <= 400,
        period_norm=D.norm(),
        threshold=threshold,
        period_exceeds_threshold=D.norm() > threshold * threshold,
    )
