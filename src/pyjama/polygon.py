"""Exact rational convex-polygon primitives: canonical construction, closed
halfplane clipping, point distances, and area bookkeeping.

Degenerate (zero-area) results of clipping are kept and flagged as segments
or points rather than discarded: parts of an uncovered-region certificate can
legitimately have empty interior.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["ConvexPolygon"]

Coord = tuple[Fraction, Fraction]


def _cross(o: Coord, a: Coord, b: Coord) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class ConvexPolygon:
    """A closed convex region given by exact rational vertices in
    counterclockwise cyclic order; degenerate regions carry kind "segment"
    or "point" instead of "polygon"."""

    __slots__ = ("_vertices", "_kind")

    def __init__(self, vertices, kind: str | None = None):
        if kind is not None:
            # trusted internal path: vertices already canonical Fraction pairs
            object.__setattr__(self, "_vertices", tuple(vertices))
            object.__setattr__(self, "_kind", kind)
            return
        pts = [(Fraction(x), Fraction(y)) for x, y in vertices]
        if not pts:
            raise ValueError("a convex polygon needs at least one vertex")
        canon, k = _canonicalize(pts)
        object.__setattr__(self, "_vertices", canon)
        object.__setattr__(self, "_kind", k)

    def __setattr__(self, name, value):
        raise AttributeError("ConvexPolygon is immutable")

    @property
    def vertices(self) -> tuple[Coord, ...]:
        return self._vertices

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def is_degenerate(self) -> bool:
        return self._kind != "polygon"

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConvexPolygon):
            return NotImplemented
        return self._vertices == other._vertices and self._kind == other._kind

    def __hash__(self) -> int:
        return hash((self._vertices, self._kind))

    def __repr__(self) -> str:
        pts = ", ".join(f"({x}, {y})" for x, y in self._vertices)
        return f"ConvexPolygon[{self._kind}]({pts})"

    # -- measurements --------------------------------------------------------

    def area2(self) -> Fraction:
        """Twice the enclosed area (exact, nonnegative)."""
        if self.is_degenerate:
            return Fraction(0)
        return Fraction(_ring_area2(self._vertices))

    def area(self) -> Fraction:
        return self.area2() / 2

    def bounding_box(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        xs = [x for x, _ in self._vertices]
        ys = [y for _, y in self._vertices]
        return min(xs), max(xs), min(ys), max(ys)

    # -- predicates ----------------------------------------------------------

    def contains(self, point) -> bool:
        """Closed membership test."""
        p = (Fraction(point[0]), Fraction(point[1]))
        pts = self._vertices
        if self._kind == "point":
            return p == pts[0]
        if self._kind == "segment":
            s, e = pts
            if _cross(s, e, p) != 0:
                return False
            return (
                min(s[0], e[0]) <= p[0] <= max(s[0], e[0])
                and min(s[1], e[1]) <= p[1] <= max(s[1], e[1])
            )
        for i, v in enumerate(pts):
            w = pts[(i + 1) % len(pts)]
            if _cross(v, w, p) < 0:
                return False
        return True

    def dist_sq_to_point(self, point) -> Fraction:
        """Exact squared Euclidean distance from the closed region."""
        p = (Fraction(point[0]), Fraction(point[1]))
        if self.contains(p):
            return Fraction(0)
        pts = self._vertices
        if self._kind == "point":
            return _dist_sq(p, pts[0])
        best = None
        edges = [(pts[0], pts[1])] if self._kind == "segment" else [
            (pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))
        ]
        for s, e in edges:
            d = _segment_dist_sq(p, s, e)
            if best is None or d < best:
                best = d
        return best

    # -- constructions -------------------------------------------------------

    def translate(self, dx, dy) -> "ConvexPolygon":
        dx, dy = Fraction(dx), Fraction(dy)
        return ConvexPolygon(
            [(x + dx, y + dy) for x, y in self._vertices], self._kind
        )

    def clip_halfplane(self, a, b, c) -> "ConvexPolygon | None":
        """Intersection with the closed halfplane a*x + b*y <= c, or None
        when the intersection is empty."""
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        pts = self._vertices
        if self._kind == "point":
            (x, y) = pts[0]
            return self if a * x + b * y <= c else None
        ring = list(pts) if self._kind == "polygon" else [pts[0], pts[1]]
        out: list[Coord] = []
        n = len(ring)
        for i in range(n):
            s = ring[i]
            e = ring[(i + 1) % n]
            fs = a * s[0] + b * s[1] - c
            fe = a * e[0] + b * e[1] - c
            if fs <= 0:
                out.append(s)
                if fe > 0:
                    out.append(_crossing(s, e, fs, fe))
            elif fe < 0:
                out.append(_crossing(s, e, fs, fe))
        if not out:
            return None
        return ConvexPolygon(out)


def _crossing(s: Coord, e: Coord, fs: Fraction, fe: Fraction) -> Coord:
    t = fs / (fs - fe)
    return (s[0] + t * (e[0] - s[0]), s[1] + t * (e[1] - s[1]))


def _dist_sq(p: Coord, q: Coord) -> Fraction:
    return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2


def _segment_dist_sq(p: Coord, s: Coord, e: Coord) -> Fraction:
    dx, dy = e[0] - s[0], e[1] - s[1]
    d2 = dx * dx + dy * dy
    if d2 == 0:
        return _dist_sq(p, s)
    t = ((p[0] - s[0]) * dx + (p[1] - s[1]) * dy) / d2
    t = max(Fraction(0), min(Fraction(1), t))
    q = (s[0] + t * dx, s[1] + t * dy)
    return _dist_sq(p, q)


def _ring_area2(ring) -> Fraction | int:
    """Signed doubled area of a vertex ring (shoelace); exact for int or
    Fraction coordinates, and an int for int coordinates."""
    total = 0
    for i, (x0, y0) in enumerate(ring):
        x1, y1 = ring[(i + 1) % len(ring)]
        total += x0 * y1 - x1 * y0
    return total


def _canonicalize(pts: list[Coord]) -> tuple[tuple[Coord, ...], str]:
    """Canonical (counterclockwise, no repeated or collinear vertices,
    lexicographically least vertex first) form of a convex vertex ring and
    its kind.  Works on int as well as Fraction coordinates."""
    # drop consecutive duplicates (cyclically)
    ring: list[Coord] = []
    for p in pts:
        if not ring or p != ring[-1]:
            ring.append(p)
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
    # drop collinear middle vertices
    changed = True
    while changed and len(ring) > 2:
        changed = False
        for i in range(len(ring)):
            prev = ring[i - 1]
            cur = ring[i]
            nxt = ring[(i + 1) % len(ring)]
            if _cross(prev, cur, nxt) == 0:
                ring.pop(i)
                changed = True
                break
    if len(ring) < 3:
        distinct = sorted(set(ring))
        return (distinct[0], distinct[-1]), "segment"
    start = ring.index(min(ring))
    ring = ring[start:] + ring[:start]
    return tuple(ring), "polygon"
