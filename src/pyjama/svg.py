"""Deterministic SVG rendering of covering reports.

The picture shows the square window [0, normD]^2 of the complex plane: the
open stripes of each rotation in alternating gray levels, the uncovered
polygons (tiled by the period lattice) in black, the certified rational
obstruction points as black dots, and one cell of the period lattice dashed.
Only placements of an uncovered piece that cross the window boundary are
clipped; the rest are skipped or drawn as they are.

The output is presentation only — certificates live in the report file — and
is byte-deterministic: fixed ordering, fixed styles, every coordinate emitted
with six decimal places.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .covering import CoverReport
from .gaussian import GaussianInt, GaussianRational

__all__ = ["render_svg"]

_STRIPE_GRAYS = ("#dcdcdc", "#c4c4c4")
_DOT_RADIUS = Fraction(1, 10)
_POINT_RADIUS = Fraction(3, 50)


def _fmt(value) -> str:
    return "%.6f" % float(value)


def _xy(x, y, height) -> str:
    """Map plane coordinates to SVG user units (y grows downward)."""
    return f"{_fmt(x)},{_fmt(float(height) - float(y))}"


def _lattice_range(norm: int) -> range:
    reach = math.isqrt(2 * norm) + 3
    return range(-reach, reach + 1)


def _shifts(period: GaussianInt, norm: int) -> list[tuple[int, int]]:
    """The period-lattice translations period * (a + b*i) that the picture
    tries, for a, b in ``_lattice_range``, as (x, y) integer pairs."""
    reach = _lattice_range(norm)
    return [(period.re * a - period.im * b, period.im * a + period.re * b)
            for a in reach for b in reach]


def _stripe_elements(report: CoverReport, norm: int) -> list[str]:
    eps = float(report.config.epsilon)
    corners = [(0.0, 0.0), (float(norm), 0.0), (0.0, float(norm)),
               (float(norm), float(norm))]
    out = []
    for index, rotation in enumerate(report.config.rotations):
        theta = complex(rotation)
        conj = theta.conjugate()
        fvals = [(theta * complex(x, y)).real for x, y in corners]
        svals = [(theta * complex(x, y)).imag for x, y in corners]
        s_lo, s_hi = min(svals) - 1.0, max(svals) + 1.0
        fill = _STRIPE_GRAYS[index % 2]
        for k in range(math.ceil(min(fvals) - eps),
                       math.floor(max(fvals) + eps) + 1):
            pts = []
            for c, s in ((k - eps, s_lo), (k + eps, s_lo),
                         (k + eps, s_hi), (k - eps, s_hi)):
                z = complex(c, s) * conj
                pts.append(_xy(z.real, z.imag, norm))
            out.append(f'<polygon points="{" ".join(pts)}" fill="{fill}"/>')
    return out


def _uncovered_elements(report: CoverReport, norm: int, shifts) -> list[str]:
    out = []
    for poly in report.uncovered:
        xmin, xmax, ymin, ymax = poly.bounding_box()
        fx, cx = math.floor(xmin), math.ceil(xmax)
        fy, cy = math.floor(ymin), math.ceil(ymax)
        for sx, sy in shifts:
            if cx + sx < 0 or fx + sx > norm or cy + sy < 0 or fy + sy > norm:
                continue
            clipped = poly.translate(sx, sy)
            # clip only at the window edges the bounding box crosses: a closed
            # halfplane containing the box leaves the piece as it is
            for crosses, a, b, c in ((fx + sx < 0, -1, 0, 0),
                                     (cx + sx > norm, 1, 0, norm),
                                     (fy + sy < 0, 0, -1, 0),
                                     (cy + sy > norm, 0, 1, norm)):
                if crosses and clipped is not None:
                    clipped = clipped.clip_halfplane(a, b, c)
            if clipped is None:
                continue
            if clipped.kind == "polygon":
                pts = " ".join(_xy(x, y, norm) for x, y in clipped.vertices)
                out.append(f'<polygon points="{pts}" fill="#000000"/>')
            elif clipped.kind == "segment":
                (x1, y1), (x2, y2) = clipped.vertices
                out.append(
                    f'<line x1="{_fmt(x1)}" y1="{_fmt(norm - y1)}" '
                    f'x2="{_fmt(x2)}" y2="{_fmt(norm - y2)}" '
                    'stroke="#000000" stroke-width="0.030000"/>'
                )
            else:
                (x, y), = clipped.vertices
                out.append(
                    f'<circle cx="{_fmt(x)}" cy="{_fmt(norm - y)}" '
                    f'r="{_fmt(_POINT_RADIUS)}" fill="#000000"/>'
                )
    return out


def _obstruction_elements(report: CoverReport, norm: int, shifts) -> list[str]:
    period = report.config.period
    out = []
    for (a, b, m), dist_sq in report.obstruction_matches:
        if dist_sq != 0:
            continue
        base = GaussianRational(period) * GaussianRational(GaussianInt(a, b), m)
        for sx, sy in shifts:
            x = base.re + sx
            y = base.im + sy
            if 0 <= x <= norm and 0 <= y <= norm:
                out.append(
                    f'<circle cx="{_fmt(x)}" cy="{_fmt(norm - y)}" '
                    f'r="{_fmt(_DOT_RADIUS)}" fill="#000000" '
                    'stroke="#ffffff" stroke-width="0.020000"/>'
                )
    return out


def _period_cell_element(report: CoverReport, norm: int) -> str:
    period = report.config.period
    d = (Fraction(period.re), Fraction(period.im))
    di = (Fraction(-period.im), Fraction(period.re))
    anchor = (Fraction(0), Fraction(0))
    for a in _lattice_range(norm):
        found = None
        for b in _lattice_range(norm):
            ax = a * d[0] + b * di[0]
            ay = a * d[1] + b * di[1]
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
               (ax + d[0] + di[0], ay + d[1] + di[1]),
               (ax + di[0], ay + di[1])]
    pts = " ".join(_xy(x, y, norm) for x, y in corners)
    return (
        f'<polygon points="{pts}" fill="none" stroke="#333333" '
        'stroke-width="0.030000" stroke-dasharray="0.150000,0.100000"/>'
    )


def render_svg(report: CoverReport, size: int = 560) -> str:
    """Render a covering report as a standalone SVG document (a string)."""
    norm = report.config.period.norm()
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
    shifts = _shifts(report.config.period, norm)
    lines.extend(_stripe_elements(report, norm))
    lines.extend(_uncovered_elements(report, norm, shifts))
    lines.append(_period_cell_element(report, norm))
    lines.extend(_obstruction_elements(report, norm, shifts))
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
