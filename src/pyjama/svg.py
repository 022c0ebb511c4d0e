"""Deterministic SVG rendering of covering reports.

The picture shows the square window [0, normD]^2 of the complex plane: the
open stripes of each rotation in alternating gray levels, the uncovered
pieces (tiled by the period lattice) in black, the certified rational
obstruction points as black dots, and one cell of the period lattice dashed.

Each rotation's stripes are one ``<pattern>`` in ``<defs>`` that tiles one
band with period 1, and one window ``<rect>`` filled with it.  The
uncovered pieces of one cell are written once, inside ``<defs><g
id="cell">``, and placed by one ``<use>`` per period-lattice shift at which
their joint bounding box meets the window; the window's ``clipPath`` clips
what sticks out.  Each ``<use>`` names the cell by both ``href`` (SVG 2) and
``xlink:href`` (for SVG 1.1 viewers).  The obstruction dots are one
``<circle>`` per placement inside the window.  Shifts, dots and the period
cell are solved in integers, one interval per lattice row (``_placements``).

The output is presentation only — certificates live in the report file — and
is byte-deterministic: fixed ordering, fixed styles, every plane coordinate
and pattern number emitted with six decimal places and every ``<use>``
offset as an integer.
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


def _placements(period: GaussianInt, n: int, x_lo, x_hi, y_lo, y_hi):
    """The period-lattice translations (sx, sy) = period * (a + b*i), for a
    and b in ``_lattice_range`` in (a, b) order, with x_lo <= n*sx <= x_hi
    and y_lo <= n*sy <= y_hi; for each row a the interval of b is solved in
    integers, so no other translation is tried."""
    reach = _lattice_range(period.norm())
    pr, pi = period.re, period.im
    for a in reach:
        first, last = reach.start, reach.stop - 1
        # n*sx = n*pr*a - n*pi*b and n*sy = n*pi*a + n*pr*b: lo <= c*b <= hi
        for c, lo, hi in ((-n * pi, x_lo - n * pr * a, x_hi - n * pr * a),
                          (n * pr, y_lo - n * pi * a, y_hi - n * pi * a)):
            if c < 0:
                c, lo, hi = -c, -hi, -lo
            if c:
                first, last = max(first, -(-lo // c)), min(last, hi // c)
            elif lo > 0 or hi < 0:
                last = first - 1
        for b in range(first, last + 1):
            yield pr * a - pi * b, pi * a + pr * b


def _stripe_elements(report: CoverReport, norm: int) -> tuple[list[str], list[str]]:
    """Per rotation theta = c + si, a ``<pattern>`` for ``<defs>`` and a
    window ``<rect>`` filled with it.  In SVG units (X, Y) = (x, norm - y),
    Re(z*theta) = c*X + s*Y - s*norm is the pattern's first coordinate u
    under matrix(c s -s c s*norm*c s*norm*s).  The tile, 1 wide at -eps and
    4*norm tall around the window, holds at its origin a rect 2*eps wide:
    the band -eps <= u < eps."""
    eps = report.config.epsilon
    patterns, fills = [], []
    for index, theta in enumerate(report.config.rotations):
        c, s = theta.re, theta.im
        matrix = " ".join(map(_fmt, (c, s, -s, c, s * norm * c, s * norm * s)))
        patterns.append(
            f'<pattern id="stripes{index}" patternUnits="userSpaceOnUse" '
            f'patternTransform="matrix({matrix})" x="{_fmt(-eps)}" '
            f'y="{_fmt(-2 * norm)}" width="{_fmt(1)}" height="{_fmt(4 * norm)}">'
            f'<rect width="{_fmt(2 * eps)}" height="{_fmt(4 * norm)}" '
            f'fill="{_STRIPE_GRAYS[index % 2]}"/></pattern>'
        )
        fills.append(f'<rect x="0" y="0" width="{norm}" height="{norm}" '
                     f'fill="url(#stripes{index})"/>')
    return patterns, fills


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
        else:
            (x, y), = pts
            out.append(f'<circle cx="{x}" cy="{y}" r="0.060000" fill="#000000"/>')
    return out


def _use_elements(report: CoverReport, norm: int) -> list[str]:
    """One ``<use>`` of the cell per shift at which the pieces' bounding box
    meets the window; a plane shift (sx, sy) is (sx, -sy) in SVG units."""
    if not report.pieces:
        return []
    L = report.scale
    xs = [x for ring in report.pieces for x, _ in ring]
    ys = [y for ring in report.pieces for _, y in ring]
    top = L * norm
    return [
        f'<use href="#cell" xlink:href="#cell" x="{sx}" y="{-sy}"/>'
        for sx, sy in _placements(report.config.period, L, -max(xs),
                                  top - min(xs), -max(ys), top - min(ys))
    ]


def _obstruction_elements(report: CoverReport, norm: int) -> list[str]:
    period = report.config.period
    out = []
    for a, b, m in report.obstruction_matches:
        # the point (a + bi)/m * period is (bx + i*by)/m
        bx = a * period.re - b * period.im
        by = a * period.im + b * period.re
        for sx, sy in _placements(period, m, -bx, m * norm - bx,
                                  -by, m * norm - by):
            x, y = bx + m * sx, by + m * sy
            out.append(
                f'<circle cx="{_fmt(x / m)}" cy="{_fmt((m * norm - y) / m)}" '
                'r="0.100000" fill="#000000" '
                'stroke="#ffffff" stroke-width="0.020000"/>'
            )
    return out


def _period_cell_element(report: CoverReport, norm: int) -> str:
    """The first cell of the period lattice, in ``_placements`` order, that
    lies wholly inside the window (the cell at 0 when none does)."""
    p = report.config.period
    offsets = [(0, 0), (p.re, p.im), (p.re - p.im, p.im + p.re), (-p.im, p.re)]
    xs = [x for x, _ in offsets]
    ys = [y for _, y in offsets]
    sx, sy = next(_placements(p, 1, -min(xs), norm - max(xs),
                              -min(ys), norm - max(ys)), (0, 0))
    pts = " ".join(_xy(sx + dx, sy + dy, norm) for dx, dy in offsets)
    return (
        f'<polygon points="{pts}" fill="none" stroke="#333333" '
        'stroke-width="0.030000" stroke-dasharray="0.150000,0.100000"/>'
    )


def render_svg(report: CoverReport) -> str:
    """Render a covering report as a standalone SVG document (a string)."""
    norm = report.config.period.norm()
    patterns, fills = _stripe_elements(report, norm)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        'xmlns:xlink="http://www.w3.org/1999/xlink" '
        f'width="{_SIZE}" height="{_SIZE}" viewBox="0 0 {norm} {norm}">',
        f'<rect x="0" y="0" width="{norm}" height="{norm}" fill="#ffffff"/>',
        '<defs><clipPath id="window">'
        f'<rect x="0" y="0" width="{norm}" height="{norm}"/>'
        '</clipPath>',
        *patterns,
        '<g id="cell">',
        *_cell_elements(report, norm),
        '</g></defs>',
        '<g clip-path="url(#window)">',
        *fills,
        *_use_elements(report, norm),
        _period_cell_element(report, norm),
        *_obstruction_elements(report, norm),
        "</g>",
        "</svg>",
    ]
    return "\n".join(lines) + "\n"
