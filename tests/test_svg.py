import math
import random
import re
import xml.etree.ElementTree as ET
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from pyjama import svg
from pyjama.covering import CoveringConfig, uncovered_region
from pyjama.gaussian import (
    P5BAR,
    P13BAR,
    GaussianInt,
    GaussianRational,
    THETA5,
    theta_set,
)
from pyjama.polygon import ConvexPolygon

from _util import clip_halfplane, convex_pieces, translate, with_pieces

F = Fraction
SVG = "{http://www.w3.org/2000/svg}"
XLINK_HREF = "{http://www.w3.org/1999/xlink}href"


def _fmt(value) -> str:
    return "%.6f" % float(value)


def _window_clip(piece, norm):
    """The vertex set of the piece clipped to the closed window [0, norm]^2
    by the Fraction oracle; empty when they do not meet."""
    pts = piece.vertices
    for a, b, c in ((-1, 0, 0), (1, 0, norm), (0, -1, 0), (0, 1, norm)):
        pts = clip_halfplane(pts, a, b, c)
    return frozenset(pts)


def _reference(report):
    """The picture drawn the direct way, in Fraction arithmetic, without its
    stripe lines: the header, the period cell and the obstruction dots as
    document lines, and the multiset of non-empty window-clipped pieces of
    every uncovered piece at every shift of ``svg._lattice_range``."""
    period = report.config.period
    norm = period.norm()
    reach = svg._lattice_range(norm)
    shifts = [period * GaussianInt(a, b) for a in reach for b in reach]
    placed = Counter()
    for poly in report.uncovered:
        for shift in shifts:
            piece = _window_clip(translate(poly, shift.re, shift.im), norm)
            if piece:
                placed[piece] += 1
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'xmlns:xlink="http://www.w3.org/1999/xlink" '
        f'width="560" height="560" viewBox="0 0 {norm} {norm}">',
        f'<rect x="0" y="0" width="{norm}" height="{norm}" fill="#ffffff"/>',
        '<defs><clipPath id="window">'
        f'<rect x="0" y="0" width="{norm}" height="{norm}"/>'
        '</clipPath>',
        '<g id="cell">',
        '</g></defs>',
        '<g clip-path="url(#window)">',
    ]
    # the first cell of the lattice, in range order, inside the window
    d = (F(period.re), F(period.im))
    di = (F(-period.im), F(period.re))
    anchor = (F(0), F(0))
    for a in reach:
        found = None
        for b in reach:
            ax, ay = a * d[0] + b * di[0], a * d[1] + b * di[1]
            corners = [(ax, ay), (ax + d[0], ay + d[1]),
                       (ax + d[0] + di[0], ay + d[1] + di[1]),
                       (ax + di[0], ay + di[1])]
            if all(0 <= x <= norm and 0 <= y <= norm for x, y in corners):
                found = (ax, ay)
                break
        if found is not None:
            anchor = found
            break
    ax, ay = anchor
    corners = [(ax, ay), (ax + d[0], ay + d[1]),
               (ax + d[0] + di[0], ay + d[1] + di[1]), (ax + di[0], ay + di[1])]
    pts = " ".join(f"{_fmt(x)},{_fmt(norm - y)}" for x, y in corners)
    tail = [
        f'<polygon points="{pts}" fill="none" stroke="#333333" '
        'stroke-width="0.030000" stroke-dasharray="0.150000,0.100000"/>'
    ]
    for a, b, m in report.obstruction_matches:
        base = GaussianRational(period) * GaussianRational(GaussianInt(a, b), m)
        for shift in shifts:
            x, y = base.re + shift.re, base.im + shift.im
            if 0 <= x <= norm and 0 <= y <= norm:
                tail.append(
                    f'<circle cx="{_fmt(x)}" cy="{_fmt(norm - y)}" '
                    'r="0.100000" fill="#000000" '
                    'stroke="#ffffff" stroke-width="0.020000"/>'
                )
    return head + tail + ["</g>", "</svg>"], placed


def _cell_element(poly, norm):
    """(tag, attributes) of a piece as the ``<defs>`` cell must draw it."""
    pts = [(_fmt(x), _fmt(norm - y)) for x, y in poly.vertices]
    if poly.kind == "polygon":
        points = " ".join(f"{x},{y}" for x, y in pts)
        return "polygon", {"points": points, "fill": "#000000"}
    (x, y), = pts
    return "circle", {"cx": x, "cy": y, "r": "0.060000", "fill": "#000000"}


def _check_against_reference(report):
    """Render the report; the ``<defs>`` cell must hold exactly its pieces,
    every ``<use>`` of it expanded at its offset and clipped at the window
    must give the reference's placed pieces, the stripe patterns must follow
    the ``clipPath`` and their window rects must open the clipped group, and
    every other line must be the reference's."""
    norm = report.config.period.norm()
    text = svg.render_svg(report)
    want_lines, want_placed = _reference(report)

    lines = text.splitlines()
    count = len(report.config.rotations)
    clip = lines.index('<g clip-path="url(#window)">')
    start, end = lines.index('<g id="cell">'), lines.index("</g></defs>")
    assert start == 4 + count
    assert all(line.startswith(f'<pattern id="stripes{i}" ')
               for i, line in enumerate(lines[4:start]))
    assert lines[clip + 1:clip + 1 + count] == [
        f'<rect x="0" y="0" width="{norm}" height="{norm}" fill="url(#stripes{i})"/>'
        for i in range(count)]
    other = lines[:4] + [lines[start]] + lines[end:clip + 1] + lines[clip + 1 + count:]
    assert [line for line in other if not line.startswith("<use ")] == want_lines
    assert text.endswith("\n")

    root = ET.fromstring(text)
    cell = root.find(f"{SVG}defs/{SVG}g")
    assert cell.get("id") == "cell"
    pieces = list(report.uncovered)
    drawn = [(el.tag, el.attrib) for el in cell]
    assert drawn == [(SVG + tag, attrs)
                     for tag, attrs in (_cell_element(p, norm) for p in pieces)]
    group = root.find(f"{SVG}g")
    assert group.get("clip-path") == "url(#window)"
    placed = Counter()
    uses = [el for el in group if el.tag == SVG + "use"]
    assert len(uses) == sum(line.startswith("<use ") for line in lines)
    D = report.config.period
    for use in uses:
        assert use.get("href") == use.get(XLINK_HREF) == "#cell"
        sx, sy = int(use.get("x")), -int(use.get("y"))
        assert (GaussianRational(GaussianInt(sx, sy)) / GaussianRational(D)).is_gaussian_int()
        for poly in pieces:
            piece = _window_clip(translate(poly, sx, sy), norm)
            if piece:
                placed[piece] += 1
    assert placed == want_placed
    return text


@st.composite
def svg_reports(draw):
    """A run of consecutive pieces from the certificate of 1-3 rotations of
    theta_set(2) at eps = p/q < 1/2 and their least period (N(D) <= 65)
    times a unit or times 1+i and a unit (N(D) = 1 and 2 included), plus up
    to two extra pieces with 1-3 vertices on a half-integer grid around the
    period cell (points and triangles, as hulls), many of them on the window
    edges once shifted.  The reference places every piece at
    every shift, so the pieces are capped at about 2,000 placements."""
    box = [(a, b) for a in range(3) for b in range(2) if 5**a * 13**b <= 65]
    a_max, b_max = draw(st.sampled_from(box))
    exps = draw(
        st.lists(
            st.tuples(st.integers(0, a_max), st.integers(0, b_max)),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    period = P5BAR.generator ** max(a for a, _ in exps) * P13BAR.generator ** max(
        b for _, b in exps
    ) * draw(st.sampled_from([GaussianInt(*g) for g in
                              ((1, 1), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1))]))
    q = draw(st.integers(3, 30))
    p = draw(st.integers(1, (q - 1) // 2))
    thetas = theta_set(2)
    cfg = CoveringConfig([thetas[3 * a + b] for a, b in exps], F(p, q), period)
    report = uncovered_region(cfg, obstruction_m_max=2)
    corners = [(0, 0), (period.re, period.im), (-period.im, period.re),
               (period.re - period.im, period.im + period.re)]
    x_lo, x_hi = min(x for x, _ in corners), max(x for x, _ in corners)
    y_lo, y_hi = min(y for _, y in corners), max(y for _, y in corners)
    coord = st.tuples(
        st.integers(2 * x_lo, 2 * x_hi).map(lambda v: F(v, 2)),
        st.integers(2 * y_lo, 2 * y_hi).map(lambda v: F(v, 2)),
    )
    extras = draw(st.lists(convex_pieces(coord, 3), max_size=2))
    room = max(1, 2000 // len(svg._lattice_range(period.norm())) ** 2 - len(extras))
    start = draw(st.integers(0, max(0, len(report.pieces) - room)))
    pieces = list(report.uncovered)[start : start + room]
    return with_pieces(report, pieces + [ConvexPolygon(v) for v in extras])


_GRAYS = ("#dcdcdc", "#c4c4c4")


def _check_stripes(report, r, count=200):
    """The stripe oracle.  Each rotation has one ``<pattern>`` in ``<defs>``
    and one window ``<rect>`` filled with it, and nothing else is gray.  At
    ``count`` random exact window points the pattern, read back from its
    attributes and evaluated in Fraction arithmetic, paints exactly the
    points z whose Re(z*theta) lies within eps of an integer.  Points within
    1e-4 + delta of a band edge are skipped, where delta is the most that
    the pattern's first coordinate differs from Re(z*theta) on the window
    (at a corner, as the difference is affine); delta must stay within what
    six-decimal matrix entries allow, 4e-6*N(D)."""
    cfg = report.config
    norm = cfg.period.norm()
    root = ET.fromstring(svg.render_svg(report))
    patterns = root.findall(f"{SVG}defs/{SVG}pattern")
    group = root.find(f"{SVG}g")
    fills = [el for el in group if el.get("fill", "").startswith("url(#stripes")]
    assert len(patterns) == len(fills) == len(cfg.rotations)
    assert [el.tag for el in root.iter() if el.get("fill") in _GRAYS] == [
        SVG + "rect"] * len(patterns)
    points = []
    for _ in range(count):
        q = r.randrange(1, 10**6)
        points.append((F(r.randrange(norm * q + 1), q), F(r.randrange(norm * q + 1), q)))
    corners = [(X, Y) for X in (0, norm) for Y in (0, norm)]
    checked = 0
    for index, (theta, pattern, fill) in enumerate(zip(cfg.rotations, patterns, fills)):
        assert fill.tag == SVG + "rect" and fill.attrib == {
            "x": "0", "y": "0", "width": str(norm), "height": str(norm),
            "fill": f"url(#stripes{index})"}
        assert pattern.get("id") == f"stripes{index}"
        assert pattern.get("patternUnits") == "userSpaceOnUse"
        a, b, c, d, e, f = map(F, re.fullmatch(
            r"matrix\(([^)]*)\)", pattern.get("patternTransform")).group(1).split())
        x0, y0, w, h = (F(pattern.get(k)) for k in ("x", "y", "width", "height"))
        band, = pattern
        assert band.tag == SVG + "rect" and band.get("fill") == _GRAYS[index % 2]
        assert "x" not in band.attrib and "y" not in band.attrib
        assert F(band.get("height")) >= h
        width = F(band.get("width"))
        det = a * d - b * c

        def pattern_coords(X, Y):
            X, Y = X - e, Y - f
            return (d * X - c * Y) / det, (a * Y - b * X) / det

        def stripe_coord(X, Y):  # Re(z*theta) at z = X + (norm - Y)i
            return theta.re * X - theta.im * (norm - Y)

        # no tile edge crosses the window
        assert all(y0 < pattern_coords(X, Y)[1] < y0 + h for X, Y in corners)
        delta = max(abs(pattern_coords(X, Y)[0] - stripe_coord(X, Y))
                    for X, Y in corners)
        assert delta <= F(4, 10**6) * norm
        for X, Y in points:
            u = stripe_coord(X, Y)
            dist = min(u - math.floor(u), math.ceil(u) - u)
            if abs(dist - cfg.epsilon) < F(1, 10**4) + delta:
                continue
            painted = (pattern_coords(X, Y)[0] - x0) % w < width
            assert painted == (dist < cfg.epsilon), (index, X, Y)
            checked += 1
    assert checked >= count * len(patterns) * 9 // 10


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(svg_reports(), st.randoms(use_true_random=False))
def test_stripe_patterns_paint_exactly_the_stripes(report, r):
    _check_stripes(report, r)


def test_stripe_patterns_at_norm_4225():
    # three rotations at N(D) = 4225: two stripe elements per rotation, not
    # one polygon per stripe, and the pattern still paints the exact bands
    thetas = theta_set(2)
    period = (P5BAR.generator * P13BAR.generator) ** 2
    cfg = CoveringConfig([thetas[1], thetas[3], thetas[4]], F(2, 5), period)
    report = uncovered_region(cfg, obstruction_m_max=1)
    assert period.norm() == 4225
    _check_stripes(report, random.Random(0), count=2000)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(svg_reports())
def test_render_svg_matches_direct_placement(report):
    _check_against_reference(report)


_bounds = st.lists(st.integers(-600, 600), min_size=2, max_size=2).map(sorted)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(any),
       st.integers(1, 6), _bounds, _bounds)
def test_placements_solve_every_lattice_row(period, n, xs, ys):
    # the rows' solved intervals give exactly the shifts of the whole
    # lattice range inside the bounds, in (a, b) order; a zero component of
    # the period leaves one bound independent of b
    period = GaussianInt(*period)
    (x_lo, x_hi), (y_lo, y_hi) = xs, ys
    reach = svg._lattice_range(period.norm())
    want = []
    for a in reach:
        for b in reach:
            shift = period * GaussianInt(a, b)
            if x_lo <= n * shift.re <= x_hi and y_lo <= n * shift.im <= y_hi:
                want.append((shift.re, shift.im))
    assert list(svg._placements(period, n, *xs, *ys)) == want


def test_render_svg_edge_pieces():
    # pieces on the window edges and corners at every shift: a point on a
    # lattice corner, thin triangles on the cell edges, the whole cell
    cfg = CoveringConfig([1, THETA5], F(1, 4), GaussianInt(1, -2))
    report = uncovered_region(cfg)
    extras = [
        ConvexPolygon([(0, 0)]),
        ConvexPolygon([(0, 0), (1, -2), (1, -1)]),
        ConvexPolygon([(0, 0), (1, 0), (2, 1)]),
        ConvexPolygon([(F(1, 2), F(1, 2))]),
        ConvexPolygon([(0, 0), (1, -2), (3, -1), (2, 1)]),
    ]
    assert {p.kind for p in extras} == {"point", "polygon"}
    edge = with_pieces(report, list(report.uncovered) + extras)
    drawn = _check_against_reference(edge)
    assert "<line " not in drawn and drawn.count('r="0.060000"') > 0
    # one dot per obstruction placement inside the window
    assert drawn.count('r="0.100000"') == sum(
        line.count('r="0.100000"') for line in _reference(edge)[0])
    assert drawn.count('r="0.100000"') > 0
