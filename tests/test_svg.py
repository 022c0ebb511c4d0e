from fractions import Fraction

from hypothesis import given, settings, strategies as st

from pyjama import svg
from pyjama.covering import CoverReport, CoveringConfig, uncovered_region
from pyjama.gaussian import (
    P5BAR,
    P13BAR,
    GaussianInt,
    GaussianRational,
    THETA5,
    theta_set,
)
from pyjama.polygon import ConvexPolygon

F = Fraction


def _reference_svg(report, size=560):
    """The picture drawn the direct way: every uncovered piece and every
    obstruction point at every shift of ``svg._lattice_range``, each piece
    clipped to the window by all four closed halfplanes."""
    period = report.config.period
    norm = period.norm()
    reach = svg._lattice_range(norm)
    shifts = [period * GaussianInt(a, b) for a in reach for b in reach]
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {norm} {norm}">',
        f'<rect x="0" y="0" width="{norm}" height="{norm}" fill="#ffffff"/>',
        '<defs><clipPath id="window">'
        f'<rect x="0" y="0" width="{norm}" height="{norm}"/>'
        '</clipPath></defs>',
        '<g clip-path="url(#window)">',
    ]
    lines += svg._stripe_elements(report, norm)
    fmt, xy = svg._fmt, svg._xy
    for poly in report.uncovered:
        for shift in shifts:
            piece = poly.translate(shift.re, shift.im)
            for a, b, c in ((-1, 0, 0), (1, 0, norm), (0, -1, 0), (0, 1, norm)):
                if piece is not None:
                    piece = piece.clip_halfplane(a, b, c)
            if piece is None:
                continue
            if piece.kind == "polygon":
                pts = " ".join(xy(x, y, norm) for x, y in piece.vertices)
                lines.append(f'<polygon points="{pts}" fill="#000000"/>')
            elif piece.kind == "segment":
                (x1, y1), (x2, y2) = piece.vertices
                lines.append(
                    f'<line x1="{fmt(x1)}" y1="{fmt(norm - y1)}" '
                    f'x2="{fmt(x2)}" y2="{fmt(norm - y2)}" '
                    'stroke="#000000" stroke-width="0.030000"/>'
                )
            else:
                (x, y), = piece.vertices
                lines.append(
                    f'<circle cx="{fmt(x)}" cy="{fmt(norm - y)}" '
                    f'r="{fmt(svg._POINT_RADIUS)}" fill="#000000"/>'
                )
    lines.append(svg._period_cell_element(report, norm))
    for (a, b, m), dist_sq in report.obstruction_matches:
        if dist_sq != 0:
            continue
        base = GaussianRational(period) * GaussianRational(GaussianInt(a, b), m)
        for shift in shifts:
            x, y = base.re + shift.re, base.im + shift.im
            if 0 <= x <= norm and 0 <= y <= norm:
                lines.append(
                    f'<circle cx="{fmt(x)}" cy="{fmt(norm - y)}" '
                    f'r="{fmt(svg._DOT_RADIUS)}" fill="#000000" '
                    'stroke="#ffffff" stroke-width="0.020000"/>'
                )
    lines += ["</g>", "</svg>"]
    return "\n".join(lines) + "\n"


@st.composite
def svg_reports(draw):
    """A run of consecutive pieces from the certificate of 1-3 rotations of
    theta_set(2) at eps = p/q < 1/2 and their least period (N(D) <= 65),
    plus up to two extra pieces with 1-3 vertices on a half-integer grid
    around the period cell (points, segments and triangles), many of them on
    the window edges once shifted.  The direct renderer places every piece
    at every shift, so the pieces are capped at about 2,000 placements."""
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
    )
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
    extras = draw(st.lists(st.lists(coord, min_size=1, max_size=3), max_size=2))
    room = max(1, 2000 // len(svg._lattice_range(period.norm())) ** 2 - len(extras))
    start = draw(st.integers(0, max(0, len(report.uncovered) - room)))
    pieces = report.uncovered[start : start + room]
    pieces += tuple(ConvexPolygon(v) for v in extras)
    return CoverReport(cfg, pieces, report.total_uncovered_area,
                       report.obstruction_matches)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(svg_reports())
def test_render_svg_matches_direct_placement(report):
    assert svg.render_svg(report) == _reference_svg(report)


def test_render_svg_edge_pieces():
    # pieces on the window edges and corners at every shift: a point on a
    # lattice corner, segments along the cell edges, the whole cell
    cfg = CoveringConfig([1, THETA5], F(1, 4), GaussianInt(1, -2))
    report = uncovered_region(cfg)
    extras = (
        ConvexPolygon([(0, 0)]),
        ConvexPolygon([(0, 0), (1, -2)]),
        ConvexPolygon([(0, 0), (2, 1)]),
        ConvexPolygon([(F(1, 2), F(1, 2))]),
        ConvexPolygon([(0, 0), (1, -2), (3, -1), (2, 1)]),
    )
    assert {p.kind for p in extras} == {"point", "segment", "polygon"}
    edge = CoverReport(cfg, report.uncovered + extras,
                       report.total_uncovered_area, report.obstruction_matches)
    drawn = svg.render_svg(edge)
    assert drawn == _reference_svg(edge)
    assert drawn.count("<line ") > 0 and drawn.count('r="0.060000"') > 0
