import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pyjama.gaussian import CertificateError
from pyjama.polygon import (
    ConvexPolygon,
    _canonicalize,
    _ring_area2,
    _ring_contains,
    _ring_dist_sq,
    _rings_text,
)

from _util import (
    clip_halfplane,
    convex_pieces,
    fraction_area,
    fraction_contains,
    fraction_dist_sq,
    translate,
)

F = Fraction


def unit_square():
    return ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])


# the ring kernels, on the canonical ring of a piece at its least scale L


def _ring(poly):
    """The piece's canonical ring and its scale L."""
    L = math.lcm(*(c.denominator for v in poly.vertices for c in v))
    return tuple((int(x * L), int(y * L)) for x, y in poly.vertices), L


def _point(point, L):
    """(X, Y, m) with the point (X/m, Y/m) in the units of a ring at scale L."""
    x, y = F(point[0]), F(point[1])
    m = math.lcm(x.denominator, y.denominator)
    return int(x * m * L), int(y * m * L), m


def _area2(poly):
    ring, L = _ring(poly)
    return F(_ring_area2(ring), L * L)


def _contains(poly, point):
    ring, L = _ring(poly)
    return _ring_contains(ring, *_point(point, L))


def _dist_sq(poly, point):
    ring, L = _ring(poly)
    x, y, m = _point(point, L)
    num, den = _ring_dist_sq([(m * vx, m * vy) for vx, vy in ring], x, y)
    return F(num, den * (m * L) ** 2)


def test_canonical_form():
    # clockwise input is reoriented, duplicates and collinear middles dropped,
    # and the cycle starts at the lexicographically smallest vertex
    messy = ConvexPolygon(
        [(1, 1), (1, 0), (F(1, 2), 0), (0, 0), (0, 0), (0, 1), (1, 1)]
    )
    assert messy == unit_square()
    assert messy.kind == "polygon"
    assert messy.vertices[0] == (0, 0)


def test_degenerate_flags():
    # collinear vertices make a segment, which is outside the ring domain
    with pytest.raises(CertificateError):
        ConvexPolygon([(0, 0), (1, 2), (2, 4)])
    pt = ConvexPolygon([(3, 4), (3, 4)])
    assert pt.kind == "point"
    assert pt.vertices == ((F(3), F(4)),)
    with pytest.raises(ValueError):
        ConvexPolygon([])


def test_only_points_and_convex_polygons_canonicalize():
    for ring in (
        [(0, 0), (2, 0)],  # a segment
        [(0, 0), (1, 0), (0, 1), (1, 1)],  # a bowtie: zero signed area
        [(0, 0), (2, 0), (1, 1), (2, 2), (0, 2)],  # concave: a right turn at (1, 1)
    ):
        for pts in (ring, ring[::-1]):
            with pytest.raises(CertificateError):
                _canonicalize(pts)
            with pytest.raises(CertificateError):
                ConvexPolygon(pts)
    # a clockwise convex ring, with a collinear middle vertex and a repeated
    # closing vertex, still canonicalizes
    ring = [(0, 2), (2, 2), (2, 1), (2, 0), (0, 0), (0, 2)]
    assert _canonicalize(ring) == ((0, 0), (2, 0), (2, 2), (0, 2))
    assert ConvexPolygon(ring).vertices == ((0, 0), (2, 0), (2, 2), (0, 2))


def test_a_canonical_ring_gives_its_kind():
    # a ring at a given scale is taken as canonical, and its vertex count is
    # its kind: there is no second word that could disagree with it
    for ring, kind in [(((0, 0),), "point"), (((0, 0), (2, 0), (0, 2)), "polygon")]:
        piece = ConvexPolygon(ring, 4)
        assert piece.kind == kind
        assert piece == ConvexPolygon([(F(x, 4), F(y, 4)) for x, y in ring])
        assert repr(piece).startswith(f"ConvexPolygon[{kind}](")
    tri = ConvexPolygon(((0, 0), (2, 0), (0, 2)), 1)
    assert _area2(tri) == 4 and _contains(tri, (0, 0))
    with pytest.raises(TypeError):
        ConvexPolygon(((0, 0), (2, 0), (0, 2)), "point", 1)


def test_area_and_bbox():
    sq = unit_square()
    assert _area2(sq) == 2
    tri = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
    assert _area2(tri) == 1


def test_contains_closed():
    sq = unit_square()
    assert _contains(sq, (F(1, 2), F(1, 2)))
    assert _contains(sq, (0, 0)) and _contains(sq, (1, F(1, 2)))  # boundary included
    assert not _contains(sq, (F(3, 2), F(1, 2)))
    pt = ConvexPolygon([(1, 1)])
    assert _contains(pt, (1, 1))
    assert not _contains(pt, (1, 0)) and not _contains(pt, (F(1, 2), F(1, 2)))


def test_clip_halfplane():
    # the Fraction clip oracle of tests/_util.py, on raw vertex rings
    sq = unit_square().vertices
    left = clip_halfplane(sq, 1, 0, F(1, 2))  # x <= 1/2
    assert ConvexPolygon(left) == ConvexPolygon([(0, 0), (F(1, 2), 0), (F(1, 2), 1), (0, 1)])
    assert fraction_area(left) == F(1, 2)
    # clipping to the boundary line leaves a segment, which is no piece
    edge = clip_halfplane(sq, 1, 0, 0)  # x <= 0
    assert set(edge) == {(0, 0), (0, 1)} and fraction_area(edge) == 0
    with pytest.raises(CertificateError):
        ConvexPolygon(edge)
    assert clip_halfplane(sq, 1, 0, -1) == []
    # diagonal cut through two vertices
    tri = clip_halfplane(sq, 1, 1, 1)  # x + y <= 1
    assert fraction_area(tri) == F(1, 2)
    # clipping degenerate rings
    half = clip_halfplane([(0, 0), (2, 0)], 1, 0, 1)
    assert set(half) == {(0, 0), (1, 0)}
    assert clip_halfplane([(1, 1)], 1, 0, 0) == []
    assert clip_halfplane([(1, 1)], 1, 0, 2) == [(1, 1)]


def test_dist_sq_to_point():
    sq = unit_square()
    assert _dist_sq(sq, (F(1, 2), F(1, 2))) == 0
    assert _dist_sq(sq, (2, F(1, 2))) == 1
    assert _dist_sq(sq, (2, 2)) == 2
    flat = ConvexPolygon([(0, 0), (1, -1), (2, 0)])  # nearest an edge's inside or end
    assert _dist_sq(flat, (1, 3)) == 9
    assert _dist_sq(flat, (-1, 0)) == 1
    pt = ConvexPolygon([(1, 1)])
    assert _dist_sq(pt, (4, 5)) == 25


def test_translate():
    sq = translate(unit_square(), F(1, 2), -1)
    assert sq.vertices[0] == (F(1, 2), -1)
    assert sq.kind == "polygon" and fraction_area(sq.vertices) == 1
    pt = translate(ConvexPolygon([(0, 0)]), 0, 1)
    assert pt.kind == "point"
    assert pt.vertices == ((F(0), F(1)),)


def test_least_scale_and_immutability():
    # the same region from vertices at any common denominator is one value
    half = ConvexPolygon([(F(1, 2), 0), (1, 0), (1, F(3, 4))])
    same = ConvexPolygon([(F(2, 4), F(0, 7)), (F(8, 8), 0), (1, F(6, 8))])
    assert half == same and hash(half) == hash(same)
    assert half.vertices == ((F(1, 2), 0), (1, 0), (1, F(3, 4)))
    assert _area2(half) == F(3, 8)
    with pytest.raises(AttributeError):
        half.kind = "point"


_coord = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(convex_pieces(st.tuples(_coord, _coord), 6),
       st.lists(st.tuples(_coord, _coord), min_size=1, max_size=8))
@example([(0, 1), (F(5, 2), 1), (1, F(13, 12))], [(3, 1), (-1, 1), (1, F(3, 2))])  # horizontal
@example([(1, 0), (F(13, 12), 1), (1, F(5, 2))], [(1, 3), (1, -1), (F(3, 2), 1)])  # vertical
def test_integer_predicates_match_fraction_oracle(vertices, points):
    # hulls of random points (polygons and points), probed at random points,
    # at every vertex and edge midpoint, and just past each edge's ends on
    # its line
    poly = ConvexPolygon(vertices)
    verts = poly.vertices
    probes = list(points)
    for (px, py), (x, y) in zip(verts[-1:] + verts[:-1], verts):
        probes += [(x, y), ((x + px) / 2, (y + py) / 2),
                   (2 * x - px, 2 * y - py), (2 * px - x, 2 * py - y)]
    assert _area2(poly) == 2 * fraction_area(verts)
    for p in probes:
        assert _contains(poly, p) == fraction_contains(poly, p)
        assert _dist_sq(poly, p) == fraction_dist_sq(poly, p)


@st.composite
def scaled_rings(draw):
    """A scale L and a ring of 1-6 integer vertices, each coordinate 0, a
    multiple of L or any integer, negative about half the time."""
    L = draw(st.integers(1, 10**4))
    coord = st.one_of(st.just(0), st.integers(-50, 50).map(lambda k: k * L),
                      st.integers(-10**6, 10**6))
    return L, draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=6))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(scaled_rings())
@example((1, [(0, 0), (-1, 3)]))
@example((12, [(-24, 0), (-7, 18)]))
def test_ring_text_writes_each_coordinate_as_its_fraction(case):
    # one table serves every ring of a report: 0, negative v and multiples
    # of L come out as str(Fraction(v, L)), such as "0" and "-2", never "/1"
    L, ring = case
    parts = [ring, ring[::-1], ring[:1]]
    assert _rings_text(parts, L) == [";".join(f"{F(x, L)},{F(y, L)}" for x, y in part)
                                     for part in parts]
