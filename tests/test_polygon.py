from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pyjama.polygon import ConvexPolygon

from _util import clip_halfplane, fraction_contains, fraction_dist_sq, translate

F = Fraction


def unit_square():
    return ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def test_canonical_form():
    # clockwise input is reoriented, duplicates and collinear middles dropped,
    # and the cycle starts at the lexicographically smallest vertex
    messy = ConvexPolygon(
        [(1, 1), (1, 0), (F(1, 2), 0), (0, 0), (0, 0), (0, 1), (1, 1)]
    )
    assert messy == unit_square()
    assert messy.kind == "polygon"
    assert not messy.is_degenerate
    assert messy.vertices[0] == (0, 0)


def test_degenerate_flags():
    seg = ConvexPolygon([(0, 0), (1, 2), (2, 4)])
    assert seg.kind == "segment" and seg.is_degenerate
    assert seg.vertices == ((F(0), F(0)), (F(2), F(4)))
    assert seg.area2() == 0
    pt = ConvexPolygon([(3, 4), (3, 4)])
    assert pt.kind == "point"
    assert pt.vertices == ((F(3), F(4)),)
    with pytest.raises(ValueError):
        ConvexPolygon([])


def test_a_canonical_ring_gives_its_kind():
    # a ring at a given scale is taken as canonical, and its vertex count is
    # its kind: there is no second word that could disagree with it
    for ring, kind in [(((0, 0),), "point"), (((0, 0), (2, 0)), "segment"),
                       (((0, 0), (2, 0), (0, 2)), "polygon")]:
        piece = ConvexPolygon(ring, 4)
        assert piece.kind == kind and piece.is_degenerate == (kind != "polygon")
        assert piece == ConvexPolygon([(F(x, 4), F(y, 4)) for x, y in ring])
        assert repr(piece).startswith(f"ConvexPolygon[{kind}](")
    tri = ConvexPolygon(((0, 0), (2, 0), (0, 2)), 1)
    assert tri.area() == 2 and tri.contains((0, 0))
    with pytest.raises(TypeError):
        ConvexPolygon(((0, 0), (2, 0), (0, 2)), "point", 1)


def test_area_and_bbox():
    sq = unit_square()
    assert sq.area2() == 2 and sq.area() == 1
    tri = ConvexPolygon([(0, 0), (1, 0), (0, 1)])
    assert tri.area() == F(1, 2)
    assert tri.bounding_box() == (0, 1, 0, 1)


def test_contains_closed():
    sq = unit_square()
    assert sq.contains((F(1, 2), F(1, 2)))
    assert sq.contains((0, 0)) and sq.contains((1, F(1, 2)))  # boundary included
    assert not sq.contains((F(3, 2), F(1, 2)))
    seg = ConvexPolygon([(0, 0), (2, 2)])
    assert seg.contains((1, 1))
    assert not seg.contains((1, 0)) and not seg.contains((3, 3))


def test_clip_halfplane():
    # the Fraction clip oracle of tests/_util.py
    sq = unit_square()
    left = clip_halfplane(sq, 1, 0, F(1, 2))  # x <= 1/2
    assert left == ConvexPolygon([(0, 0), (F(1, 2), 0), (F(1, 2), 1), (0, 1)])
    assert left.area() == F(1, 2)
    # clipping to the boundary line leaves a flagged segment
    edge = clip_halfplane(sq, 1, 0, 0)  # x <= 0
    assert edge.kind == "segment"
    assert edge.vertices == ((F(0), F(0)), (F(0), F(1)))
    assert clip_halfplane(sq, 1, 0, -1) is None
    # diagonal cut through two vertices
    tri = clip_halfplane(sq, 1, 1, 1)  # x + y <= 1
    assert tri.area() == F(1, 2)
    # clipping degenerate pieces
    seg = ConvexPolygon([(0, 0), (2, 0)])
    half = clip_halfplane(seg, 1, 0, 1)
    assert half.kind == "segment" and half.vertices == ((F(0), F(0)), (F(1), F(0)))
    pt = ConvexPolygon([(1, 1)])
    assert clip_halfplane(pt, 1, 0, 0) is None
    assert clip_halfplane(pt, 1, 0, 2) == pt


def test_dist_sq_to_point():
    sq = unit_square()
    assert sq.dist_sq_to_point((F(1, 2), F(1, 2))) == 0
    assert sq.dist_sq_to_point((2, F(1, 2))) == 1
    assert sq.dist_sq_to_point((2, 2)) == 2
    seg = ConvexPolygon([(0, 0), (2, 0)])
    assert seg.dist_sq_to_point((1, 3)) == 9
    assert seg.dist_sq_to_point((-1, 0)) == 1
    pt = ConvexPolygon([(1, 1)])
    assert pt.dist_sq_to_point((4, 5)) == 25


def test_translate():
    sq = translate(unit_square(), F(1, 2), -1)
    assert sq.vertices[0] == (F(1, 2), -1)
    assert sq.kind == "polygon" and sq.area() == 1
    seg = translate(ConvexPolygon([(0, 0), (1, 0)]), 0, 1)
    assert seg.kind == "segment"
    assert seg.vertices == ((F(0), F(1)), (F(1), F(1)))


def test_least_scale_and_immutability():
    # the same region from vertices at any common denominator is one value
    half = ConvexPolygon([(F(1, 2), 0), (1, 0), (1, F(3, 4))])
    same = ConvexPolygon([(F(2, 4), F(0, 7)), (F(8, 8), 0), (1, F(6, 8))])
    assert half == same and hash(half) == hash(same)
    assert half.vertices == ((F(1, 2), 0), (1, 0), (1, F(3, 4)))
    assert half.area() == F(3, 16)
    with pytest.raises(AttributeError):
        half.kind = "point"


_coord = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=6),
       st.lists(st.tuples(_coord, _coord), min_size=1, max_size=8))
@example([(0, 1), (F(5, 2), 1)], [(3, 1), (-1, 1), (1, F(3, 2))])  # horizontal
@example([(1, 0), (1, F(5, 2))], [(1, 3), (1, -1), (F(3, 2), 1)])  # vertical
def test_integer_predicates_match_fraction_oracle(vertices, points):
    # hulls of random points (polygons, segments and points), probed at
    # random points, at every vertex and edge midpoint, and just past each
    # edge's ends on its line
    poly = ConvexPolygon(_hull(vertices))
    verts = poly.vertices
    probes = list(points)
    for (px, py), (x, y) in zip(verts[-1:] + verts[:-1], verts):
        probes += [(x, y), ((x + px) / 2, (y + py) / 2),
                   (2 * x - px, 2 * y - py), (2 * px - x, 2 * py - y)]
    for p in probes:
        assert poly.contains(p) == fraction_contains(poly, p)
        assert poly.dist_sq_to_point(p) == fraction_dist_sq(poly, p)


def _hull(points):
    """Convex hull (monotone chain) of Fraction points, counterclockwise."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = half(pts), half(reversed(pts))
    return lower[:-1] + upper[:-1] or pts[:1]
