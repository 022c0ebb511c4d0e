"""Planar stripe-covering machinery: exact uncovered-region certificates over
a period lattice, obstruction tuples and their margins, lattice snapping,
and the rationality experiment.  The float disk cover of the irrational
step lives in ``disk``.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

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
    _rings_text,
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
    """Exact certificate for the uncovered part of one period parallelogram:
    ``pieces``, the closed cell minus the open stripes, as convex canonical
    integer rings at the lattice scale ``scale`` (a vertex (X, Y) is the
    point (X + iY)/scale) whose vertex count gives their kind.  Membership,
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
        buckets = defaultdict(list)
        for ring in self.pieces:
            xs, ys = zip(*ring)
            x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
            entry = (ring, (x0, x1, y0, y1))
            rows = range(y0 // L, y1 // L + 1)
            for ix in range(x0 // L, x1 // L + 1):
                for iy in rows:
                    buckets[ix, iy].append(entry)
        return buckets

    def _cell_contains(self, u: int, v: int, M: int) -> bool:
        """Whether the point (u + iv)/M * D of the cell, 0 <= u, v < M, lies
        in a piece of the one bucket that holds it."""
        D, L = self.config.period, self.scale
        x, y = u * D.re - v * D.im, u * D.im + v * D.re  # the point (x + iy)/M
        xl, yl = x * L, y * L
        for ring, (x0, x1, y0, y1) in self._buckets.get((x // M, y // M), ()):
            if (M * x0 <= xl <= M * x1 and M * y0 <= yl <= M * y1
                    and _ring_contains(ring, xl, yl, M)):
                return True
        return False

    def contains(self, z) -> bool:
        """Exact membership of a complex point, reduced into the cell by
        D*Z[i]: the stripes are D-periodic, so no other translate is tried."""
        q, D = as_gaussian_rational(z), self.config.period
        a, b, M = q.num.re, q.num.im, q.den * D.norm()
        # z = (a + bi)/m; (a + bi)/(m*D) = (u + iv)/M in cell coordinates [0, 1)
        return self._cell_contains((a * D.re + b * D.im) % M, (b * D.re - a * D.im) % M, M)

    def report_lines(self) -> list[str]:
        """Structured-text serialization (exact), from the ``kind=`` line on."""
        cfg = self.config
        lines = [
            "kind=cover",
            f"epsilon={cfg.epsilon}",
            f"period={cfg.period}",
            f"period_norm={cfg.period.norm()}",
            f"rotations={';'.join(str(t) for t in cfg.rotations)}",
            f"uncovered_count={len(self.pieces)}",
            f"total_uncovered_area={self.total_uncovered_area}",
        ]
        texts = _rings_text(self.pieces, self.scale)
        for i, (ring, verts) in enumerate(zip(self.pieces, texts)):
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


def _stripe_form(rotation: GaussianRational, eps: Fraction, scale: int):
    """(q*a, q*b, u*p, u*q) for theta = (a + bi)/d, eps = p/q and u = d*scale."""
    q, u, num = eps.denominator, rotation.den * scale, rotation.num
    return q * num.re, q * num.im, u * eps.numerator, u * q


def _cut(ring, qa: int, qb: int, up: int, uq: int):
    """Cut the open stripes of one rotation, given by its ``_stripe_form``,
    out of a convex integer ring: [ring], [] or its parts, raw as the walk
    made them.

    For theta = (a + bi)/d and eps = p/q, a vertex's stripe value
    h = q*(a*X - b*Y) is q*u times Re(z*theta), u = d*scale, and stripe k is
    the open band u*(q*k - p) < h < u*(q*k + p).  [min h, max h] decides
    first: a ring that meets no stripe closure passes unchanged, and a ring
    inside one open stripe is dropped.  Any other ring is split into its
    parts in the closed slabs between the stripes by one ``_split_slabs``
    walk, which emits them in increasing h.

    Every part is the ring's point set cut by one closed slab, so the parts'
    point sets depend only on the ring's, not on how a raw ring lists it.
    Under the half-turn s(z) = (1+i)D - z of ``uncovered_region`` h becomes
    u*q*Re((1+i)D*theta) - h, a multiple of u*q minus h: s maps the stripe
    family onto itself and reverses the order of the slabs."""
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
    counterclockwise and reverses the lexicographic order, and it maps a
    point to a point."""
    ring = [(cx - x, cy - y) for x, y in ring]
    k = ring.index(min(ring))
    return tuple(ring[k:] + ring[:k])


def _moved(ring, dx: int, dy: int):
    """The ring translated by (dx, dy); the same ring when that is zero."""
    if dx or dy:
        return tuple([(x + dx, y + dy) for x, y in ring])
    return ring


def _cut_classes(items, form):
    """``_cut`` of each translate (ring, dx, dy), the ring moved by (dx, dy),
    by the stripes of ``form`` (``_stripe_form``), in input order, as
    (parts, dx', dy'): the translate's raw parts are ``parts`` moved by
    (dx', dy').  A translate by t with u*q | h(t) walks the same way (its
    levels shift by a multiple of 4; every crossing t and its lattice check
    stay), so a translate is keyed by its moved first vertex's h mod u*q and
    the ring's vertex offsets from that vertex, and only a new key is moved
    and walked.  A memo entry (x1, y1, parts) holds the moved first vertex
    and the parts of the translate that made it, shared by its class."""
    qa, qb, _, uq = form
    memo = {}
    for ring, dx, dy in items:
        x0, y0 = ring[0]
        x1, y1 = x0 + dx, y0 + dy
        key = ((qa * x1 - qb * y1) % uq, tuple([(x - x0, y - y0) for x, y in ring]))
        entry = memo.get(key)
        if entry is None:
            entry = memo[key] = (x1, y1, _cut(_moved(ring, dx, dy), *form))
        yield entry[2], x1 - entry[0], y1 - entry[1]


def uncovered_region(config: CoveringConfig, obstruction_m_max: int = 3) -> CoverReport:
    """The closed subset of one period parallelogram missed by every open
    stripe, as exact convex pieces, with matching obstruction tuples.

    The stripes are subtracted on integer vertices at the lattice scale of
    ``_lattice_scale`` by ``_cut``: each piece passes whole, is dropped
    inside one open stripe, or is split into its closed slabs in one walk
    that sorts its vertices and edge crossings by their slab level.

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
    walk lists them: lower, middle, then the lower pieces mirrored, in
    reverse.  With D*theta = a + bi for the first rotation, the centre's
    stripe value is (a - b)/2.  When N(D) is odd, a - b is odd, the centre
    lies mid-slab and n is odd; when 1+i divides D, a - b is even, the
    centre lies on a stripe's centre line, and n is even with no middle
    slab.

    From the slabs on, a piece is a translate (ring, dx, dy), and every
    later rotation runs one ``_cut_classes`` over the lower and middle
    translates together, so both share one memo: after the first rotation
    most pieces are translates of a few shapes, and a translate that keeps
    a rotation's stripes takes its class's raw parts, offset.  A moved ring
    is made only for a new class's walk and for the report.  At the end
    each distinct part becomes canonical once (the canonical form depends
    only on the point set, so it commutes with the move), and the upper
    half is each lower piece ``_mirrored``.  With one rotation the slabs
    are the pieces.

    Every catalog point (a + bi)/m * D is uncovered (each rotation's D*theta
    is a norm-N(D) multiplier of ``verify_obstruction``), which is
    re-checked exactly at its cell coordinates (a + bi)/m."""
    D, eps = config.period, config.epsilon
    scale = _lattice_scale(D, config.rotations, eps)
    dr, di = D.re * scale, D.im * scale
    cell = [(0, 0), (dr, di), (dr - di, di + dr), (-di, dr)]
    slabs = _cut(cell, *_stripe_form(config.rotations[0], eps, scale))
    k = len(slabs) // 2  # the first k translates are the lower ones, the rest the middle
    items = [(slab, 0, 0) for slab in slabs[: len(slabs) - k]]
    for rotation in config.rotations[1:]:
        cut = list(_cut_classes(items, _stripe_form(rotation, eps, scale)))
        k = sum(len(parts) for parts, _, _ in cut[:k])
        items = [(part, dx, dy) for parts, dx, dy in cut for part in parts]
    canonical = {id(part): part for part, _, _ in items}  # each part object once
    canonical = {key: _canonicalize(part) for key, part in canonical.items()}
    pieces = [_moved(canonical[id(part)], dx, dy) for part, dx, dy in items]
    pieces += [_mirrored(piece, dr - di, dr + di) for piece in reversed(pieces[:k])]
    area = Fraction(sum(map(_ring_area2, pieces)), 2 * scale * scale)
    matches = tuple(abm for abm, _ in obstruction_catalog(eps, obstruction_m_max, D.norm()))
    report = CoverReport(config, tuple(pieces), scale, area, matches)
    for a, b, m in matches:
        if not report._cell_contains(a, b, m):
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
    """The period multipliers of norm normD as (re, im) pairs, one of each
    pair g, -g (the one above (0, 0)), which give the same circle distances.
    Norm 0 is refused: its one multiplier 0 would give every point margin 0."""
    if normD < 1:
        raise ValueError(f"period norm must be at least 1, got {normD}")
    multipliers = tuple((g.re, g.im) for g in gaussian_ints_of_norm(normD)
                        if (g.re, g.im) > (0, 0))
    if not multipliers:
        raise ValueError(f"no Gaussian integers have norm {normD}")
    return multipliers


def _margin(a: int, b: int, m: int, multipliers) -> int:
    """m times the obstruction margin of (a + bi)/m: the least circle
    distance min(r, m - r) of r = (g.re*a - g.im*b) mod m over the
    multipliers g, which is min(min r, m - max r)."""
    rs = [(gr * a - gi * b) % m for gr, gi in multipliers]
    return min(min(rs), m - max(rs))


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
    margin meets epsilon, sorted by margin descending, then by (a, b, m).

    The multipliers of one norm are closed under g -> i*g and g -> conj(g),
    so the margin is constant on each orbit of (a, b) mod m under sign
    changes and swap.  One margin is taken per orbit, at its representative
    0 <= b <= a <= m/2, and the sort key -r*K/m, K = lcm(1..m_max), is an
    integer."""
    eps = _half_width(epsilon)
    if m_max < 1:
        raise ValueError("m_max must be positive")
    multipliers = _multipliers(normD)
    p, q = eps.numerator, eps.denominator
    K = math.lcm(*range(1, m_max + 1))
    found = []
    for m in range(1, m_max + 1):
        for a in range(m // 2 + 1):
            for b in range(a + 1):
                if gcd(a, b, m) != 1:
                    continue
                r = _margin(a, b, m, multipliers)
                if r * q >= p * m:
                    key, margin = -r * (K // m), Fraction(r, m)
                    orbit = {(x % m, y % m) for s, t in ((a, b), (b, a))
                             for x in (s, -s) for y in (t, -t)}
                    found += [(key, x, y, m, margin) for x, y in orbit]
    found.sort()
    return [((a, b, m), margin) for _, a, b, m, margin in found]


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
    D*(j + ki)/n at scale*D*(j + ki).  The refined point nearest to any
    point p is p's rounding in the basis D/n; when that is a period point,
    an axis neighbour is within sqrt(1.25) steps.  So the answer lies in one
    window, j and k from floor - 1 to ceil + 1 of the box corners'
    coordinates, whose candidates are tried nearest bound first."""
    dr, di, T = D.re, D.im, scale * D.norm()
    pts = [(n * x, n * y) for x, y in ring]
    xs, ys = zip(*pts)
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    # (x + iy)/S has the coordinates (x*dr + y*di, y*dr - x*di)/T in D/n
    corners = [(x, y) for x in (x0, x1) for y in (y0, y1)]
    js = [x * dr + y * di for x, y in corners]
    ks = [y * dr - x * di for x, y in corners]
    candidates = []
    for j in range(min(js) // T - 1, -(-max(js) // T) + 2):
        for k in range(min(ks) // T - 1, -(-max(ks) // T) + 2):
            if j % n or k % n:
                x, y = scale * (dr * j - di * k), scale * (di * j + dr * k)
                dx, dy = max(x0 - x, x - x1, 0), max(y0 - y, y - y1, 0)
                candidates.append((dx * dx + dy * dy, x, y))
    candidates.sort()
    best = 1, 0  # no distance yet: 1/0 stands for infinity
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
