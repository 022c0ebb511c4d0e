"""Deterministic SVG rendering of covering reports.

The picture shows the square window [0, normD]^2 of the complex plane: the
open stripes of each rotation in alternating gray levels, the uncovered
pieces (tiled by the period lattice) in black, the certified rational
obstruction points as black dots, and one cell of the period lattice dashed.

The uncovered pieces of one cell are written once, inside
``<defs><g id="cell">``, and placed by one ``<use>`` per period-lattice
shift at which their joint bounding box meets the window; the window's
``clipPath`` clips what sticks out.  Each ``<use>`` names the cell by both
``href`` (SVG 2) and ``xlink:href`` (for SVG 1.1 viewers).  The obstruction
dots are one ``<circle>`` per placement inside the window.  Shifts, dots and
the period cell are computed in integers.

The output is presentation only — certificates live in the report file — and
is byte-deterministic: fixed ordering, fixed styles, every plane coordinate
emitted with six decimal places and every ``<use>`` offset as an integer.
"""

from __future__ import annotations

import math

from .covering import CoverReport
from .gaussian import GaussianInt

__all__ = ["render_svg"]

_STRIPE_GRAYS = ("#dcdcdc", "#c4c4c4")
_SIZE = 560  # the picture's width and height in pixels


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


def _cell_elements(report: CoverReport, norm: int) -> list[str]:
    """The uncovered pieces of one cell, for ``<g id="cell">``."""
    L = report.scale
    top = L * norm
    out = []
    for ring in report.pieces:
        pts = [(_fmt(x / L), _fmt((top - y) / L)) for x, y in ring]
        if len(pts) > 2:
            points = " ".join(f"{x},{y}" for x, y in pts)
            out.append(f'<polygon points="{points}" fill="#000000"/>')
        elif len(pts) == 2:
            (x1, y1), (x2, y2) = pts
            out.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                       'stroke="#000000" stroke-width="0.030000"/>')
        else:
            (x, y), = pts
            out.append(f'<circle cx="{x}" cy="{y}" r="0.060000" fill="#000000"/>')
    return out


def _use_elements(report: CoverReport, norm: int, shifts) -> list[str]:
    """One ``<use>`` of the cell per shift at which the pieces' bounding box
    meets the window; a plane shift (sx, sy) is (sx, -sy) in SVG units."""
    if not report.pieces:
        return []
    L = report.scale
    xs = [x for ring in report.pieces for x, _ in ring]
    ys = [y for ring in report.pieces for _, y in ring]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    top = L * norm
    return [
        f'<use href="#cell" xlink:href="#cell" x="{sx}" y="{-sy}"/>'
        for sx, sy in shifts
        if x0 + L * sx <= top and x1 + L * sx >= 0
        and y0 + L * sy <= top and y1 + L * sy >= 0
    ]


def _obstruction_elements(report: CoverReport, norm: int, shifts) -> list[str]:
    period = report.config.period
    out = []
    for a, b, m in report.obstruction_matches:
        # the point (a + bi)/m * period is (bx + i*by)/m
        bx = a * period.re - b * period.im
        by = a * period.im + b * period.re
        for sx, sy in shifts:
            x, y = bx + m * sx, by + m * sy
            if 0 <= x <= m * norm and 0 <= y <= m * norm:
                out.append(
                    f'<circle cx="{_fmt(x / m)}" cy="{_fmt((m * norm - y) / m)}" '
                    'r="0.100000" fill="#000000" '
                    'stroke="#ffffff" stroke-width="0.020000"/>'
                )
    return out


def _period_cell_element(report: CoverReport, norm: int, shifts) -> str:
    """The first cell of the period lattice, in ``_shifts`` order, that lies
    wholly inside the window (the cell at 0 when none does)."""
    p = report.config.period
    offsets = [(0, 0), (p.re, p.im), (p.re - p.im, p.im + p.re), (-p.im, p.re)]
    cells = ([(sx + dx, sy + dy) for dx, dy in offsets] for sx, sy in shifts)
    corners = next((c for c in cells
                    if all(0 <= x <= norm and 0 <= y <= norm for x, y in c)), offsets)
    pts = " ".join(_xy(x, y, norm) for x, y in corners)
    return (
        f'<polygon points="{pts}" fill="none" stroke="#333333" '
        'stroke-width="0.030000" stroke-dasharray="0.150000,0.100000"/>'
    )


def render_svg(report: CoverReport) -> str:
    """Render a covering report as a standalone SVG document (a string)."""
    norm = report.config.period.norm()
    shifts = _shifts(report.config.period, norm)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        'xmlns:xlink="http://www.w3.org/1999/xlink" '
        f'width="{_SIZE}" height="{_SIZE}" viewBox="0 0 {norm} {norm}">',
        f'<rect x="0" y="0" width="{norm}" height="{norm}" fill="#ffffff"/>',
        '<defs><clipPath id="window">'
        f'<rect x="0" y="0" width="{norm}" height="{norm}"/>'
        '</clipPath>',
        '<g id="cell">',
        *_cell_elements(report, norm),
        '</g></defs>',
        '<g clip-path="url(#window)">',
        *_stripe_elements(report, norm),
        *_use_elements(report, norm, shifts),
        _period_cell_element(report, norm, shifts),
        *_obstruction_elements(report, norm, shifts),
        "</g>",
        "</svg>",
    ]
    return "\n".join(lines) + "\n"
