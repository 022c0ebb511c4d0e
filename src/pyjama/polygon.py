"""Exact convex pieces on an integer lattice: canonical construction, closed
membership, point distances, and area bookkeeping.

A piece is a ring of integer vertices at a positive scale L, the vertex
(X, Y) standing for the point (X/L, Y/L); every predicate below is an
integer cross or dot product, so it is exact at no extra cost.
``ConvexPolygon`` shows such a ring with ``Fraction`` vertices.

Degenerate (zero-area) pieces are kept and flagged as segments or points
rather than discarded: parts of an uncovered-region certificate can
legitimately have empty interior.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["ConvexPolygon"]

Coord = tuple[Fraction, Fraction]
Ring = tuple[tuple[int, int], ...]


class ConvexPolygon:
    """A closed convex region with exact rational vertices in
    counterclockwise cyclic order; degenerate regions carry kind "segment"
    or "point" instead of "polygon".  It is stored as a canonical integer
    ring at the least scale that holds its vertices.  With ``kind`` given,
    ``vertices`` must already be a canonical integer ring at ``scale``."""

    __slots__ = ("_ring", "_scale", "_kind")

    def __init__(self, vertices, kind: str | None = None, scale: int = 1):
        if kind is None:
            pts = [(Fraction(x), Fraction(y)) for x, y in vertices]
            if not pts:
                raise ValueError("a convex polygon needs at least one vertex")
            scale = math.lcm(*(c.denominator for p in pts for c in p))
            vertices, kind = _canonicalize([(int(x * scale), int(y * scale))
                                            for x, y in pts])
        g = math.gcd(scale, *(c for v in vertices for c in v))
        object.__setattr__(self, "_ring", tuple((x // g, y // g) for x, y in vertices))
        object.__setattr__(self, "_scale", scale // g)
        object.__setattr__(self, "_kind", kind)

    def __setattr__(self, name, value):
        raise AttributeError("ConvexPolygon is immutable")

    @property
    def vertices(self) -> tuple[Coord, ...]:
        L = self._scale
        return tuple((Fraction(x, L), Fraction(y, L)) for x, y in self._ring)

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def is_degenerate(self) -> bool:
        return self._kind != "polygon"

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConvexPolygon):
            return NotImplemented
        return (self._ring, self._scale, self._kind) == (
            other._ring, other._scale, other._kind)

    def __hash__(self) -> int:
        return hash((self._ring, self._scale, self._kind))

    def __repr__(self) -> str:
        pts = ", ".join(f"({x}, {y})" for x, y in self.vertices)
        return f"ConvexPolygon[{self._kind}]({pts})"

    # -- measurements --------------------------------------------------------

    def area2(self) -> Fraction:
        """Twice the enclosed area (exact, nonnegative; 0 when degenerate)."""
        return Fraction(_ring_area2(self._ring), self._scale**2)

    def area(self) -> Fraction:
        return self.area2() / 2

    def bounding_box(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        xs = [x for x, _ in self._ring]
        ys = [y for _, y in self._ring]
        L = self._scale
        return (Fraction(min(xs), L), Fraction(max(xs), L),
                Fraction(min(ys), L), Fraction(max(ys), L))

    # -- predicates ----------------------------------------------------------

    def _point(self, point) -> tuple[int, int, int]:
        """(X, Y, m) with the point (X/m, Y/m) in the ring's units."""
        x, y = Fraction(point[0]), Fraction(point[1])
        m = math.lcm(x.denominator, y.denominator)
        return int(x * m * self._scale), int(y * m * self._scale), m

    def contains(self, point) -> bool:
        """Closed membership test."""
        return _ring_contains(self._ring, self._kind, *self._point(point))

    def dist_sq_to_point(self, point) -> Fraction:
        """Exact squared Euclidean distance from the closed region."""
        x, y, m = self._point(point)
        ring = [(m * vx, m * vy) for vx, vy in self._ring]
        num, den = _ring_dist_sq(ring, self._kind, x, y)
        return Fraction(num, den * (m * self._scale) ** 2)


def _ring_contains(ring, kind: str, x: int, y: int, m: int = 1) -> bool:
    """Closed membership of the point (x/m, y/m), in the ring's units, in
    the canonical piece (ring, kind); m > 0."""
    if kind == "point":
        (px, py), = ring
        return px * m == x and py * m == y
    if kind == "segment":
        (x0, y0), (x1, y1) = ring
        return ((x1 - x0) * (y - m * y0) == (y1 - y0) * (x - m * x0)
                and m * min(x0, x1) <= x <= m * max(x0, x1)
                and m * min(y0, y1) <= y <= m * max(y0, y1))
    x0, y0 = ring[-1]
    for x1, y1 in ring:
        if (x1 - x0) * (y - m * y0) < (y1 - y0) * (x - m * x0):
            return False
        x0, y0 = x1, y1
    return True


def _ring_dist_sq(ring, kind: str, x: int, y: int) -> tuple[int, int]:
    """Squared distance from the point (x, y) to the closed piece, all in
    the ring's units, as an integer fraction (num, den) with den > 0."""
    if kind == "polygon" and _ring_contains(ring, kind, x, y):
        return 0, 1
    best = None
    sx, sy = ring[-1]
    for ex, ey in ring:
        dx, dy, px, py = ex - sx, ey - sy, x - sx, y - sy
        t, d2 = px * dx + py * dy, dx * dx + dy * dy
        if t <= 0:
            num, den = px * px + py * py, 1
        elif t >= d2:
            num, den = (x - ex) ** 2 + (y - ey) ** 2, 1
        else:  # the foot of the perpendicular lies inside the edge
            c = px * dy - py * dx
            num, den = c * c, d2
        if best is None or num * best[1] < best[0] * den:
            best = num, den
        sx, sy = ex, ey
    return best


def _ring_area2(ring) -> int:
    """Signed doubled area (shoelace) of an integer ring; 0 if degenerate."""
    x0, y0 = ring[-1]
    total = 0
    for x1, y1 in ring:
        total += x0 * y1 - x1 * y0
        x0, y0 = x1, y1
    return total


def _canonicalize(pts: list[tuple[int, int]]) -> tuple[Ring, str]:
    """Canonical (counterclockwise, no repeated or collinear vertices,
    lexicographically least vertex first) form of a convex ring of integer
    vertices, and its kind."""
    # drop consecutive duplicates (cyclically)
    ring = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
    while len(ring) > 1 and ring[0] == ring[-1]:
        ring.pop()
    distinct = sorted(set(ring))
    if len(distinct) == 1:
        return (distinct[0],), "point"
    area2 = _ring_area2(ring)
    if area2 == 0:
        return (distinct[0], distinct[-1]), "segment"
    if area2 < 0:
        ring.reverse()
    # drop collinear middle vertices: on a convex ring these are exactly the
    # vertices that are not corners
    ring = [q for p, q, r in zip(ring[-1:] + ring[:-1], ring, ring[1:] + ring[:1])
            if (q[0] - p[0]) * (r[1] - p[1]) != (q[1] - p[1]) * (r[0] - p[0])]
    if len(ring) < 3:
        distinct = sorted(set(ring))
        return (distinct[0], distinct[-1]), "segment"
    start = ring.index(min(ring))
    ring = ring[start:] + ring[:start]
    return tuple(ring), "polygon"
