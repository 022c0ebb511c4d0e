"""Exact convex pieces on an integer lattice: canonical construction, closed
membership, point distances, and area bookkeeping.

A piece is a canonical ring of integer vertices at a positive scale L, the
vertex (X, Y) standing for the point (X/L, Y/L); every predicate below is an
integer cross or dot product, so it is exact at no extra cost.  These ring
kernels are the package's only geometry predicates; ``ConvexPolygon`` is a
read-only view of a ring, with ``Fraction`` vertices and its kind.

The domain is the closed convex rings in cyclic order, points and polygons
only: a canonical ring of one vertex is a point, of three or more a polygon
(``_ring_kind``); no uncovered region holds a segment.  ``_canonicalize``
raises ``CertificateError`` for any other ring of two or more distinct
vertices: one of zero area (a segment, a bowtie) or one that turns right (a
concave ring).  A ring that winds around more than once is not detected; no
stripe walk can make one.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .gaussian import CertificateError

__all__ = ["ConvexPolygon"]

Coord = tuple[Fraction, Fraction]
Ring = tuple[tuple[int, int], ...]


class ConvexPolygon:
    """A read-only view of a canonical ring: exact rational vertices in
    counterclockwise cyclic order, and a kind ("polygon" or "point").
    ``vertices`` must be a point or a closed convex region in cyclic order,
    in either orientation; CertificateError otherwise, except that a ring
    winding more than once is not detected.  The ring is canonical at the
    least scale that holds the vertices; with ``scale`` given, ``vertices``
    must already be a canonical integer ring at ``scale``."""

    __slots__ = ("_ring", "_scale")

    def __init__(self, vertices, scale: int | None = None):
        if scale is None:
            pts = [(Fraction(x), Fraction(y)) for x, y in vertices]
            if not pts:
                raise ValueError("a convex polygon needs at least one vertex")
            scale = math.lcm(*(c.denominator for p in pts for c in p))
            vertices = _canonicalize([(int(x * scale), int(y * scale)) for x, y in pts])
        g = math.gcd(scale, *(c for v in vertices for c in v))
        object.__setattr__(self, "_ring", tuple((x // g, y // g) for x, y in vertices))
        object.__setattr__(self, "_scale", scale // g)

    def __setattr__(self, name, value):
        raise AttributeError("ConvexPolygon is immutable")

    @property
    def vertices(self) -> tuple[Coord, ...]:
        L = self._scale
        return tuple((Fraction(x, L), Fraction(y, L)) for x, y in self._ring)

    @property
    def kind(self) -> str:
        return _ring_kind(self._ring)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConvexPolygon):
            return NotImplemented
        return (self._ring, self._scale) == (other._ring, other._scale)

    def __hash__(self) -> int:
        return hash((self._ring, self._scale))

    def __repr__(self) -> str:
        pts = ", ".join(f"({x}, {y})" for x, y in self.vertices)
        return f"ConvexPolygon[{self.kind}]({pts})"


def _ring_kind(ring) -> str:
    """The kind of a canonical ring, from its vertex count."""
    return "point" if len(ring) == 1 else "polygon"


class _Denominators(dict):
    """The text after v // g of str(Fraction(v, L)) for each g = gcd(v, L):
    "" when g = L and "/{L // g}" otherwise, made on first use."""

    def __init__(self, scale: int):
        self.scale = scale

    def __missing__(self, g: int) -> str:
        text = self[g] = "" if g == self.scale else f"/{self.scale // g}"
        return text


def _rings_text(rings, scale: int) -> list[str]:
    """The exact text "x,y;x,y;..." of each integer ring at ``scale``, every
    coordinate v as str(Fraction(v, scale)), through one ``_Denominators``."""
    over, gcd, out = _Denominators(scale), math.gcd, []
    for ring in rings:
        parts = []
        for x, y in ring:
            g, h = gcd(x, scale), gcd(y, scale)
            parts.append(f"{x // g}{over[g]},{y // h}{over[h]}")
        out.append(";".join(parts))
    return out


def _ring_contains(ring, x: int, y: int, m: int = 1) -> bool:
    """Closed membership of the point (x/m, y/m), in the ring's units, in
    the canonical ring; m > 0."""
    if len(ring) == 1:
        (px, py), = ring
        return px * m == x and py * m == y
    x0, y0 = ring[-1]
    for x1, y1 in ring:
        if (x1 - x0) * (y - m * y0) < (y1 - y0) * (x - m * x0):
            return False
        x0, y0 = x1, y1
    return True


def _ring_dist_sq(ring, x: int, y: int) -> tuple[int, int]:
    """Squared distance from the point (x, y) to the closed canonical ring,
    all in the ring's units, as an integer fraction (num, den) with den > 0."""
    if len(ring) > 1 and _ring_contains(ring, x, y):
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


def _canonicalize(pts: list[tuple[int, int]]) -> Ring:
    """Canonical (counterclockwise, no repeated or collinear vertices,
    lexicographically least vertex first) form of a point or a convex ring
    of integer vertices; CertificateError for a ring of two or more distinct
    vertices with zero area or a right turn."""
    # drop consecutive duplicates (cyclically)
    ring = [p for i, p in enumerate(pts) if i == 0 or p != pts[i - 1]]
    while len(ring) > 1 and ring[0] == ring[-1]:
        ring.pop()
    if len(ring) == 1:
        return (ring[0],)
    area2 = _ring_area2(ring)
    if area2 < 0:
        ring.reverse()
    # the turn at each vertex: a convex ring has no right turn, and its
    # corners are the vertices with a left turn (the others are collinear)
    turns = [((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]), q)
             for p, q, r in zip(ring[-1:] + ring[:-1], ring, ring[1:] + ring[:1])]
    if area2 == 0 or min(turns)[0] < 0:
        raise CertificateError(f"the ring {tuple(pts)} is neither a point nor a convex polygon")
    ring = [q for turn, q in turns if turn]
    start = ring.index(min(ring))
    return tuple(ring[start:] + ring[:start])
