import ast
import dataclasses
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pyjama.gaussian import (
    P5BAR,
    P13BAR,
    GaussianInt,
    GaussianRational,
    THETA5,
    THETA13,
    gaussian_ints_of_norm,
    theta_set,
)
from pyjama.polygon import ConvexPolygon, _canonicalize, _ring_area2, _ring_contains
from pyjama import covering, disk
from pyjama.covering import (
    CoveringConfig,
    obstruction_catalog,
    rationality_check,
    snap_to_lattice,
    uncovered_region,
    verify_obstruction,
)
from pyjama.disk import certified_disk_cover, disk_cover_scan, irrational_triple, theta_prime
from pyjama.solenoid import ExactPoint, stripe_membership

from _util import (
    catalog_oracle,
    clip_halfplane,
    convex_pieces,
    float_literal_bounds,
    fraction_area,
    fraction_dist_sq,
    plain_forms,
    rng,
    theta_prime_forms,
    uncovered_oracle,
    whole_cell_pieces,
)

F = Fraction


def figure_config():
    return CoveringConfig([1, THETA5], F(1, 4), GaussianInt(1, -2))


def test_config_validation():
    with pytest.raises(ValueError):
        CoveringConfig([GaussianRational(GaussianInt(1, 1))], F(1, 4))  # |1+i| != 1
    with pytest.raises(ValueError):
        CoveringConfig([1], F(1, 2))  # half-width at the limit
    with pytest.raises(ValueError):
        CoveringConfig([1], F(0))
    with pytest.raises(ValueError):
        CoveringConfig([], F(1, 4))
    with pytest.raises(ValueError):
        CoveringConfig([THETA5], F(1, 4), GaussianInt(1, 0))  # period incompatible
    with pytest.raises(ValueError):
        CoveringConfig([1, 0.6 + 0.8j], F(1, 4))  # mixed exact/floating
    with pytest.raises(ValueError):
        CoveringConfig([0.5 + 0.5j], F(1, 4))  # not unit modulus
    with pytest.raises(ValueError):
        CoveringConfig([0.6 + 0.8j], F(1, 4))  # floating rotation
    with pytest.raises(ValueError):
        CoveringConfig([1], 0.25)  # floating half-width
    cfg = figure_config()
    assert cfg.period == GaussianInt(1, -2)


def test_single_band():
    report = uncovered_region(CoveringConfig([1], F(1, 4)))
    assert len(report.uncovered) == 1
    band = report.uncovered[0]
    assert band == ConvexPolygon(
        [(F(1, 4), 0), (F(3, 4), 0), (F(3, 4), 1), (F(1, 4), 1)]
    )
    assert report.total_uncovered_area == F(1, 2)


def test_wide_stripes_area_formula():
    eps = F(49, 100)
    report = uncovered_region(CoveringConfig([1], eps, GaussianInt(1, -2)))
    norm_sq = GaussianInt(1, -2).norm()
    assert report.total_uncovered_area == (1 - 2 * eps) * norm_sq


def test_figure_configuration():
    report = uncovered_region(figure_config())
    period = GaussianRational(GaussianInt(1, -2))
    obstruction = GaussianRational(GaussianInt(1, 1), 2) * period
    assert report.contains(obstruction)
    assert (1, 1, 2) in report.obstruction_matches
    assert report.total_uncovered_area == F(5, 4)
    # every undercut piece survives translation by the period lattice
    for poly in report.uncovered:
        for x, y in poly.vertices:
            base = GaussianRational.from_fractions(x, y)
            assert report.contains(base + GaussianInt(1, -2))
            assert report.contains(base + GaussianInt(1, -2) * GaussianInt(0, 1))


def _closed_slab_pieces(domain, rotation, eps):
    """The nonempty parts of a vertex ring in the closed stripes of one
    rotation, as raw vertex rings."""
    tr, ti = rotation.re, rotation.im
    fvals = [tr * x - ti * y for x, y in domain]
    pieces = []
    for k in range(math.ceil(min(fvals) - eps), math.floor(max(fvals) + eps) + 1):
        piece = clip_halfplane(clip_halfplane(domain, tr, -ti, k + eps), -tr, ti, -(k - eps))
        if piece:
            pieces.append(piece)
    return pieces


def _fraction_uncovered(cfg):
    """Reference stripe subtraction: each rotation's open stripes cut out of
    the period cell with the exact Fraction halfplane clip oracle, as raw
    vertex rings."""
    D = cfg.period
    pieces = [[(0, 0), (D.re, D.im), (D.re - D.im, D.im + D.re), (-D.im, D.re)]]
    eps = cfg.epsilon
    for theta in cfg.rotations:
        tr, ti = theta.re, theta.im
        out = []
        for piece in pieces:
            fvals = [tr * x - ti * y for x, y in piece]
            cur = piece
            for k in range(math.ceil(min(fvals) - eps), math.floor(max(fvals) + eps) + 1):
                left = clip_halfplane(cur, tr, -ti, k - eps)
                if left:
                    out.append(left)
                cur = clip_halfplane(cur, -tr, ti, -(k + eps))
                if not cur:
                    break
            if cur:
                out.append(cur)
        pieces = out
    return pieces


@st.composite
def small_configs(draw, min_rotations=1, epsilons=None):
    """1-3 rotations theta5**a * theta13**b of theta_set(2) (at least
    ``min_rotations``), eps = p/q in (0, 1/2) or drawn from ``epsilons``,
    and their least common period, of norm 5**a * 13**b <= 325."""
    box = [(a, b) for a in range(3) for b in range(3) if 5**a * 13**b <= 325]
    a_max, b_max = draw(st.sampled_from(box))
    exps = draw(
        st.lists(
            st.tuples(st.integers(0, a_max), st.integers(0, b_max)),
            min_size=min_rotations,
            max_size=3,
            unique=True,
        )
    )
    period = P5BAR.generator ** max(a for a, _ in exps) * P13BAR.generator ** max(
        b for _, b in exps
    )
    if epsilons is None:
        q = draw(st.integers(3, 60))
        eps = F(draw(st.integers(1, (q - 1) // 2)), q)
    else:
        eps = draw(epsilons)
    thetas = theta_set(2)
    return CoveringConfig([thetas[3 * a + b] for a, b in exps], eps, period)


# At these half-widths the stripe edges of one rotation pass through the
# crossings of the others' (at 1/4, 42 of the 2- and 3-rotation configs of
# small_configs leave point pieces, TOUCHING_CONFIG among them).  Segment
# pieces cannot occur in a period cell: two rotations with parallel stripe
# edges are theta and -theta, whose stripes are the same, and a stripe edge
# parallel to a cell edge would lie on a stripe center.
_TOUCHING_EPS = (F(1, 8), F(1, 6), F(1, 4), F(1, 3), F(3, 8))
TOUCHING_CONFIG = CoveringConfig([THETA13, THETA5 * THETA13], F(1, 4),
                                 P5BAR.generator * P13BAR.generator)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(small_configs() | small_configs(min_rotations=2, epsilons=st.sampled_from(_TOUCHING_EPS)))
@example(TOUCHING_CONFIG)
def test_lattice_subtraction_matches_fraction_oracle(cfg):
    report = uncovered_region(cfg, obstruction_m_max=1)
    oracle = _fraction_uncovered(cfg)
    # vertices and kind, in order
    assert tuple(report.uncovered) == tuple(map(ConvexPolygon, oracle))
    assert report.total_uncovered_area == sum(map(fraction_area, oracle), F(0))


def test_touching_stripes_leave_point_pieces():
    sizes = [len(ring) for ring in uncovered_region(TOUCHING_CONFIG, obstruction_m_max=1).pieces]
    assert sizes.count(1) == 2 and 2 not in sizes


def test_off_lattice_crossing_raises():
    # h = 2x - 1 on the unit square, and the stripe -1 < h < 1 (up = 1, uq = 4):
    # the slab below keeps the edge x = 0, the slab above the edge x = 1
    square = [(0, 0), (1, 0), (1, 1), (0, 1)]
    parts = covering._split_slabs(square, [2 * x - 1 for x, _ in square], 1, 4)
    assert [sorted(part) for part in parts] == [[(0, 0), (0, 1)], [(1, 0), (1, 1)]]
    with pytest.raises(ArithmeticError):
        covering._split_slabs(square, [2 * x for x, _ in square], 1, 4)  # h = 1 at x = 1/2


# convex integer rings, counterclockwise, down to a point: the ring domain
_PIECES = (
    [(0, 0), (3, 0), (0, 2)],
    [(0, 0), (2, 0), (2, 2), (0, 2)],
    [(1, 0), (3, 0), (4, 2), (3, 4), (1, 4), (0, 2)],
    [(1, 1)],
)
# and a segment ring, which ``_split_slabs`` splits as any other ring
_SHAPES = _PIECES + ([(0, 0), (3, 1)],)


def _affine_image(draw, shapes=_SHAPES):
    """An integer affine image (positive determinant) of one of ``shapes``."""
    d, e = st.integers(1, 3), st.integers(-3, 3)
    m = draw(st.tuples(d, e, e, d).filter(lambda m: m[0] * m[3] > m[1] * m[2]))
    if draw(st.booleans()):  # a half turn keeps the determinant
        m = [-v for v in m]
    tx, ty = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
    shape = draw(st.sampled_from(shapes))
    return [(m[0] * x + m[1] * y + tx, m[2] * x + m[3] * y + ty) for x, y in shape]


def _lattice_split(ring, a, b, t, w, period):
    """``_split_slabs`` of the ring for the stripes
    period*k - w < a*x + b*y + t < period*k + w, at a scale L that puts every
    crossing on the lattice: the parts' vertex sets in the ring's units, the
    raw parts and L."""
    steps = [a * (x0 - x1) + b * (y0 - y1) for (x0, y0), (x1, y1) in zip(ring, ring[-1:] + ring[:-1])]
    L = math.lcm(1, *(abs(v) for v in steps if v))
    scaled = [(L * x, L * y) for x, y in ring]
    hs = [a * x + b * y + L * t for x, y in scaled]
    parts = covering._split_slabs(scaled, hs, L * w, L * period)
    return [{(F(x, L), F(y, L)) for x, y in part} for part in parts], parts, L


@st.composite
def clip_cases(draw):
    """An affine image of one of _SHAPES and one stripe c - w < a*x + b*y < c + w."""
    a, b = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any))
    return _affine_image(draw), a, b, draw(st.integers(-30, 30)), draw(st.integers(1, 3))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(clip_cases())
@example(([(0, 0), (2, 0), (2, 2), (0, 2)], 1, 0, 1, 1))  # the edges x = 0 and x = 2
@example(([(0, 0), (2, 0), (2, 2), (0, 2)], 1, 1, 1, 1))  # the corner (0, 0)
@example(([(0, 0), (3, 1)], 1, -3, 1, 1))  # a stripe edge through the segment
def test_stripe_clip_area_additivity(case):
    ring, a, b, c, w = case
    # one stripe: the others of its family (period 1000) miss every ring
    split, parts, L = _lattice_split(ring, a, b, -c, w, 1000)
    below = clip_halfplane(ring, a, b, c - w)
    above = clip_halfplane(ring, -a, -b, -(c + w))
    assert split == [set(p) for p in (below, above) if p]
    stripe = clip_halfplane(clip_halfplane(ring, a, b, c + w), -a, -b, -(c - w))
    stripe_area2 = 2 * L * L * fraction_area(stripe)
    assert sum(_ring_area2(part) for part in parts) + stripe_area2 == L * L * _ring_area2(ring)
    assert sum(map(fraction_area, [below, above, stripe])) == fraction_area(ring)


@st.composite
def slab_cases(draw):
    """An affine image of one of _SHAPES and a stripe family
    period*k - w < a*x + b*y + t < period*k + w whose closures meet it 1-4
    times."""
    ring = _affine_image(draw)
    a, b = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any))
    w = draw(st.integers(1, 3))
    period = draw(st.integers(2 * w + 1, 2 * w + 10))
    t = draw(st.integers(0, period - 1))
    hs = [a * x + b * y + t for x, y in ring]
    met = (max(hs) + w) // period + (w - min(hs)) // period + 1
    assume(1 <= met <= 4)
    return ring, a, b, t, w, period


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(slab_cases())
@example(([(0, 0), (2, 0), (2, 2), (0, 2)], 1, 1, 0, 1, 3))  # vertices on stripe edges
@example(([(0, 0), (3, 0), (0, 2)], 1, 0, 2, 1, 4))  # a slab that is one point
@example(([(0, 0), (2, 0), (2, 2), (0, 2)], 1, 0, 3, 1, 4))  # two slabs that are segments
@example(([(0, 0), (3, 1)], 1, 0, 0, 1, 3))  # a segment ring
@example(([(1, 1)], 1, 0, 0, 1, 3))  # a point ring on a stripe edge
@example(([(1, 1)], 1, 0, 1, 1, 3))  # a point ring inside a stripe
def test_split_slabs_matches_fraction_oracle(case):
    ring, a, b, t, w, period = case
    split, parts, L = _lattice_split(ring, a, b, t, w, period)
    hs = [a * x + b * y + t for x, y in ring]
    oracle, slabs = [], []
    for j in range((min(hs) + w) // period - 1, (max(hs) + w) // period + 1):
        # the closed slab period*j + w <= a*x + b*y + t <= period*(j + 1) - w
        part = clip_halfplane(ring, -a, -b, t - period * j - w)
        part = clip_halfplane(part, a, b, period * (j + 1) - w - t)
        if part:
            oracle.append(part)
            slabs.append(j)
    assert split == [set(part) for part in oracle]  # the vertices, in increasing h
    for j, part in zip(slabs, parts):
        # each raw part lies in its slab and is a convex ring in cyclic order
        assert all(L * (period * j + w) <= a * x + b * y + L * t <= L * (period * (j + 1) - w)
                   for x, y in part)
        assert all((q[0] - p[0]) * (r[1] - p[1]) >= (q[1] - p[1]) * (r[0] - p[0])
                   for p, q, r in zip(part[-1:] + part[:-1], part, part[1:] + part[:1]))
    assert [_ring_area2(part) for part in parts] == [2 * L * L * fraction_area(p) for p in oracle]


# extra period factors: 1+i, 1-i and 2 make N(D) even (an even slab count),
# 1, i and 3 keep it odd (an odd one)
_PERIOD_FACTORS = tuple(GaussianInt(*g) for g in ((1, 0), (1, 1), (1, -1), (0, 1), (2, 0), (3, 0)))
# half-widths near 0 and near 1/2, and those that leave point pieces.  No
# half-width leaves a segment piece in a period cell (see _TOUCHING_EPS), and
# ``_canonicalize`` refuses one, so every config here checks that too.
_MIRROR_EPS = (F(1, 100), F(1, 60), F(49, 100), F(29, 60)) + _TOUCHING_EPS
_UNITS = tuple(GaussianRational(GaussianInt(*u)) for u in ((1, 0), (0, 1), (-1, 0), (0, -1)))


@st.composite
def mirror_configs(draw):
    """1-3 rotations u*theta5**a*theta13**b of theta_set(2), repeats allowed,
    with a unit u; the least common period of norm <= 65 times one of
    _PERIOD_FACTORS; eps drawn from _MIRROR_EPS or any p/q in (0, 1/2)."""
    exps = draw(st.lists(st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]),
                         min_size=1, max_size=3))
    units = draw(st.lists(st.sampled_from(_UNITS), min_size=len(exps), max_size=len(exps)))
    period = P5BAR.generator ** max(a for a, _ in exps) * P13BAR.generator ** max(
        b for _, b in exps
    )
    period = period * draw(st.sampled_from(_PERIOD_FACTORS))
    if draw(st.booleans()):
        eps = draw(st.sampled_from(_MIRROR_EPS))
    else:
        q = draw(st.integers(3, 60))
        eps = F(draw(st.integers(1, (q - 1) // 2)), q)
    thetas = theta_set(2)
    return CoveringConfig([u * thetas[3 * a + b] for u, (a, b) in zip(units, exps)], eps, period)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mirror_configs())
@example(CoveringConfig([1], F(1, 4)))  # one slab: the middle slab is the whole cut
@example(CoveringConfig([1], F(1, 4), GaussianInt(1, 1)))  # two slabs, no middle
@example(CoveringConfig([THETA5, THETA5], F(1, 100), GaussianInt(1, -2)))  # a repeat
# theta and -theta cut the same stripes, alone, repeated, and around another rotation
@example(CoveringConfig([THETA5, -THETA5], F(1, 4), GaussianInt(1, -2)))
@example(CoveringConfig([THETA13, THETA13, -THETA13], F(1, 3), P13BAR.generator))
@example(CoveringConfig([THETA5 * THETA13, THETA5, -(THETA5 * THETA13)], F(1, 4),
                        P5BAR.generator * P13BAR.generator * GaussianInt(1, 1)))
@example(TOUCHING_CONFIG)  # point pieces
@example(CoveringConfig([THETA13, THETA5 * THETA13], F(1, 4),
                        P5BAR.generator * P13BAR.generator * GaussianInt(1, 1)))
def test_half_cell_walk_matches_the_whole_cell(cfg):
    _assert_matches_the_whole_cell(cfg)


def _assert_matches_the_whole_cell(cfg):
    report = uncovered_region(cfg, obstruction_m_max=1)
    pieces, area = whole_cell_pieces(cfg)
    assert report.pieces == pieces  # the same rings, in the same order
    assert report.total_uncovered_area == area
    whole = dataclasses.replace(report, pieces=pieces, total_uncovered_area=area)
    assert report.report_lines() == whole.report_lines()


# the half-widths of the cover-build benchmark configs, where most rings that
# reach the last rotation are translates of a few shapes
_WIDE_EPS = (F(2, 5), F(3, 7), F(4, 9), F(9, 20))


@st.composite
def box_configs(draw, sizes=(3, 3)):
    """sizes[0] to sizes[1] distinct rotations u*theta5**a*theta13**b of the
    exponent box of N(D) = 325 or 845, with D times 1 (odd N(D)) or 1+i
    (even), at a wide half-width or one of _TOUCHING_EPS, which leave point
    pieces."""
    r, s = draw(st.sampled_from([(2, 1), (1, 2)]))
    exps = draw(st.lists(st.sampled_from([(a, b) for a in range(r + 1) for b in range(s + 1)]),
                         min_size=sizes[0], max_size=sizes[1], unique=True))
    units = draw(st.lists(st.sampled_from(_UNITS), min_size=len(exps), max_size=len(exps)))
    period = P5BAR.generator ** r * P13BAR.generator ** s
    period = period * draw(st.sampled_from([GaussianInt(1, 0), GaussianInt(1, 1)]))
    eps = draw(st.sampled_from(_WIDE_EPS + _TOUCHING_EPS))
    thetas = theta_set(2)
    return CoveringConfig([u * thetas[3 * a + b] for u, (a, b) in zip(units, exps)], eps, period)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(box_configs())
@example(CoveringConfig([1, THETA13, THETA5], F(1, 4), P5BAR.generator ** 2 * P13BAR.generator))
@example(CoveringConfig([1, THETA13, THETA5], F(1, 4),
                        P5BAR.generator ** 2 * P13BAR.generator * GaussianInt(1, 1)))
@example(CoveringConfig([THETA13, THETA5 * THETA13, THETA5 * THETA13 ** 2], F(9, 20),
                        P5BAR.generator * P13BAR.generator ** 2))
def test_class_reuse_matches_the_whole_cell(cfg):
    _assert_matches_the_whole_cell(cfg)


# 4-6 rotations: the middle rotations, not only the last, reuse classes
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(box_configs((4, 6)))
def test_class_reuse_at_every_rotation_matches_the_whole_cell(cfg):
    _assert_matches_the_whole_cell(cfg)


def test_last_rotation_walks_one_ring_per_class(monkeypatch):
    # the first cover-4225 config of the benchmark catalog
    cfg = CoveringConfig([1, THETA5 * THETA13, (THETA5 * THETA13) ** 2], F(2, 5),
                         (P5BAR.generator * P13BAR.generator) ** 2)
    walks, last = [], {}
    real_split, real_cut = covering._split_slabs, covering._cut_classes

    def cut_classes(rings, form):
        before = len(walks)
        out = list(real_cut(rings, form))
        last.update(rings=len(rings), walks=len(walks) - before)
        return out

    monkeypatch.setattr(covering, "_split_slabs", lambda *args: walks.append(1) or real_split(*args))
    monkeypatch.setattr(covering, "_cut_classes", cut_classes)
    _assert_matches_the_whole_cell(cfg)
    assert last["rings"] == 1862
    assert 10 * last["walks"] < last["rings"]


def test_theta_set_2_walks_one_ring_per_class_at_every_rotation(monkeypatch):
    walks = []
    real_split = covering._split_slabs
    monkeypatch.setattr(covering, "_split_slabs", lambda *args: walks.append(1) or real_split(*args))
    cfg = CoveringConfig(theta_set(2), F(3, 10), (P5BAR.generator * P13BAR.generator) ** 2)
    report = uncovered_region(cfg, obstruction_m_max=1)
    assert len(report.pieces) == 169
    # 908 at 12e6737, whose lower and middle halves kept separate memos;
    # 5,252 when every middle rotation walked every ring
    assert len(walks) == 796


def test_theta_set_2_memory_follows_the_classes():
    # pieces carried as translates share their class's parts: a peak of
    # 1.8-2.0 MiB, against 2.8-3.2 MiB at 12e6737, whose middle rotations
    # moved every part into fresh vertex tuples
    cfg = CoveringConfig(theta_set(2), F(1, 4), (P5BAR.generator * P13BAR.generator) ** 2)
    tracemalloc.start()
    try:
        report = uncovered_region(cfg, obstruction_m_max=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.pieces) == 995
    assert peak < 2560 * 1024


def test_cut_classes_share_only_same_phase_translates(monkeypatch):
    # rotation 1 and eps = 1/4 at scale 8: h = 4X, u*q = 32, and stripe k is
    # the open band 8k - 2 < X < 8k + 2
    walks = []
    real_split = covering._split_slabs
    monkeypatch.setattr(covering, "_split_slabs", lambda *args: walks.append(args) or real_split(*args))
    across = [(1, 0), (3, 0), (3, 1), (1, 1)]
    items = [
        (across, 0, 0),
        ([(x + 8, y) for x, y in across], 0, 0),  # h(t) = 32: the same phase
        (across, 4, 0),  # h(t) = 16: another phase, walked moved
        (across[1:] + across[:1], 0, 0),  # the same ring from another start vertex
        ([(x - 8, y) for x, y in across], 16, 0),  # the point set of the second item
    ]
    theta, eps = GaussianRational(1), F(1, 4)
    form = covering._stripe_form(theta, eps, 8)
    out = list(covering._cut_classes(items, form))
    assert len(walks) == 3
    assert out[1][0] is out[0][0] and out[1][1:] == (8, 0)
    # the ring's offset -8 and the item's 16 compose to the second item's 8
    assert out[4][0] is out[1][0] and out[4][1:] == out[1][1:]
    assert len({id(parts) for parts, _, _ in out}) == 3
    want = [[list(part) for part in covering._cut(covering._moved(ring, dx, dy), *form)]
            for ring, dx, dy in items]
    assert [[list(covering._moved(part, dx, dy)) for part in parts]
            for parts, dx, dy in out] == want
    want = [[_canonicalize(part) for part in parts] for parts in want]
    # the other phase keeps 5 <= X <= 6, not the first ring's part moved by 4
    assert want[2] == [_canonicalize([(5, 0), (6, 0), (6, 1), (5, 1)])]
    assert want[3] == want[0]


def _cut_by_one_rotation(rotation, eps, D):
    """The first rotation's raw slabs of the period cell, and the scale."""
    L = covering._lattice_scale(D, [rotation], eps)
    dr, di = D.re * L, D.im * L
    cell = [(0, 0), (dr, di), (dr - di, di + dr), (-di, dr)]
    return covering._cut(cell, *covering._stripe_form(rotation, eps, L)), L


@pytest.mark.parametrize("eps", [F(1, 100), F(1, 4), F(49, 100)])
@pytest.mark.parametrize("index", range(9))
def test_middle_slab_holds_the_cell_centre(index, eps):
    theta = theta_set(2)[index]
    D = (P5BAR.generator * P13BAR.generator) ** 2
    for period in (D, D * GaussianInt(2, 1), D * GaussianInt(0, 1)):  # odd N(D)
        slabs, L = _cut_by_one_rotation(theta, eps, period)
        n = len(slabs)
        assert n % 2 == 1
        # the centre (1+i)D/2 at scale 2L lies in the middle slab and no other
        centre = (L * (period.re - period.im), L * (period.re + period.im), 2)
        inside = [_ring_contains(_canonicalize(ring), *centre) for ring in slabs]
        assert inside == [j == n // 2 for j in range(n)]
        # s maps the j-th slab onto the (n-1-j)-th
        canonical = [_canonicalize(ring) for ring in slabs]
        mirrored = [covering._mirrored(piece, *centre[:2]) for piece in canonical]
        assert mirrored == canonical[::-1]
    for period in (D * GaussianInt(1, 1), D * GaussianInt(2, 0)):  # (1+i) | D
        slabs, _ = _cut_by_one_rotation(theta, eps, period)
        assert len(slabs) % 2 == 0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_mirrored_piece_is_the_canonical_mirror_image(data):
    ring = _affine_image(data.draw, _PIECES)
    cx, cy = data.draw(st.integers(-20, 20)), data.draw(st.integers(-20, 20))
    image = [(cx - x, cy - y) for x, y in ring]
    assert covering._mirrored(_canonicalize(ring), cx, cy) == _canonicalize(image)


def test_cut_decides_from_the_value_range(monkeypatch):
    # rotation 1 and eps = 1/4 at scale 8: h = 4X, and stripe k is the open
    # band 8k - 2 < X < 8k + 2
    calls = []
    real_split = covering._split_slabs
    monkeypatch.setattr(covering, "_split_slabs", lambda *args: calls.append(args) or real_split(*args))
    inside = [(-1, 0), (1, 0), (1, 5), (-1, 5)]
    between = [(3, 0), (5, 0), (5, 5), (3, 5)]
    across = [(1, 0), (3, 0), (3, 1), (1, 1)]
    form = covering._stripe_form(GaussianRational(1), F(1, 4), 8)
    assert covering._cut(inside, *form) == []
    assert covering._cut(between, *form) == [between]
    assert calls == []
    out = covering._cut(across, *form)
    assert [ConvexPolygon(ring) for ring in out] == [ConvexPolygon([(2, 0), (3, 0), (3, 1), (2, 1)])]
    assert len(calls) == 1


def test_missing_obstruction_point_raises(monkeypatch):
    monkeypatch.setattr(covering, "_cut", lambda *args: [])
    with pytest.raises(RuntimeError, match="obstruction certificate"):
        uncovered_region(figure_config())


def test_certificate_checks_survive_optimize_flag():
    script = textwrap.dedent(
        """
        from fractions import Fraction
        from pyjama import covering
        from pyjama.gaussian import THETA5, GaussianInt
        assert False, "asserts must be stripped"
        try:
            covering._split_slabs([(0, 0), (1, 0), (1, 1), (0, 1)], [0, 2, 2, 0], 1, 4)
        except ArithmeticError:
            pass
        else:
            raise SystemExit("off-lattice crossing not detected")
        cfg = covering.CoveringConfig([1, THETA5], Fraction(1, 4), GaussianInt(1, -2))
        covering._cut = lambda *args: []
        try:
            covering.uncovered_region(cfg)
        except RuntimeError:
            print("checks kept")
        else:
            raise SystemExit("missing obstruction point not detected")
        """
    )
    src = str(Path(covering.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "checks kept"


def test_stripe_coordinate_is_re_z_theta():
    # theta5 = (-3 + 4i)/5: Re(z*theta) = (-3x - 4y)/5 and
    # Re(z*conj(theta)) = (-3x + 4y)/5 differ in which of these two points
    # a stripe covers; the uncovered region follows Re(z*theta)
    report = uncovered_region(CoveringConfig([THETA5], F(1, 4), GaussianInt(1, -2)))
    on_half = GaussianRational.from_fractions(F(-5, 12), F(-5, 16))  # 1/2 and 0
    on_zero = GaussianRational.from_fractions(F(-5, 12), F(5, 16))  # 0 and 1/2
    assert (THETA5 * on_half).re == F(1, 2) and (THETA5 * on_zero).re == 0
    assert report.contains(on_half)
    assert not report.contains(on_zero)


def test_area_bookkeeping_inclusion_exclusion():
    cfg = figure_config()
    D = cfg.period
    domain = [(0, 0), (D.re, D.im), (D.re - D.im, D.im + D.re), (-D.im, D.re)]
    t1, t2 = cfg.rotations
    eps = cfg.epsilon
    a1 = sum(map(fraction_area, _closed_slab_pieces(domain, t1, eps)), F(0))
    a2 = sum(map(fraction_area, _closed_slab_pieces(domain, t2, eps)), F(0))
    both = F(0)
    for p1 in _closed_slab_pieces(domain, t1, eps):
        both += sum(map(fraction_area, _closed_slab_pieces(p1, t2, eps)), F(0))
    union = a1 + a2 - both
    report = uncovered_region(cfg)
    assert report.total_uncovered_area + union == D.norm()


def test_membership_matches_direct_stripe_evaluation():
    cfg = figure_config()
    report = uncovered_region(cfg)
    D = GaussianRational(cfg.period)
    r_ = rng(21)
    checked_uncovered = 0
    for _ in range(250):
        x = F(r_.randrange(40), 40)
        y = F(r_.randrange(40), 40)
        z = GaussianRational.from_fractions(x, y) * D
        uncovered = True
        for theta in cfg.rotations:
            v = (theta * z).re % 1
            if min(v, 1 - v) < cfg.epsilon:
                uncovered = False
                break
        assert report.contains(z) == uncovered
        checked_uncovered += uncovered
    assert checked_uncovered > 0


@st.composite
def cell_edge_points(draw):
    """A config of ``small_configs`` (N(D) <= 325), a denominator n and up to
    24 points z/n on the edges and corners of its period cell: z = (j + ki)*D
    with j or k in {0, n}, each moved by D*(s + ti) for s, t in {-1, 0, 1}."""
    cfg = draw(small_configs())
    n = draw(st.integers(1, 24))
    side, end, shift = st.integers(0, n), st.sampled_from([0, n]), st.integers(-1, 1)
    edge = st.tuples(end, side) | st.tuples(side, end)
    points = draw(st.lists(st.tuples(edge, shift, shift), min_size=1, max_size=24))
    return cfg, n, [(j + n * s, k + n * t) for (j, k), s, t in points]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cell_edge_points())
def test_membership_on_cell_edges_matches_the_audit_stripe_test(case):
    # points on the cell's edges and corners, and every piece vertex there,
    # each with its translates by D*(s + ti), s, t in {-1, 0, 1}, at cell
    # coordinates (u + iv)/M, against the direct stripe test of the
    # verify-covering audit, as the CLI writes it: the obstruction margin of
    # (u + iv)/M under the multipliers D*theta meets epsilon.  That test is
    # also the per-rotation one it replaced, where Re(theta*z/M) is r/W for
    # z = (u + iv)*D
    cfg, n, points = case
    report = uncovered_region(cfg, obstruction_m_max=1)
    D, L = cfg.period, report.scale
    LN = L * D.norm()
    probes = [(j, k, n) for j, k in points]
    for ring in report.pieces:
        for x, y in ring:
            # (x + iy)/(L*D) = (u + iv)/LN; a coordinate 0 or 1 puts it on an edge
            u, v = x * D.re + y * D.im, y * D.re - x * D.im
            if u % LN == 0 or v % LN == 0:
                probes += [(u + s * LN, v + t * LN, LN) for s in (-1, 0, 1) for t in (-1, 0, 1)]
    p, q = cfg.epsilon.numerator, cfg.epsilon.denominator
    forms = [(g.re, g.im) for g in ((t * D).num for t in cfg.rotations)]
    for u, v, M in probes:
        direct = covering._margin(u, v, M, forms) * q >= p * M
        z = GaussianInt(u, v) * D
        values = ((t.num.re * z.re - t.num.im * z.im, t.den * M) for t in cfg.rotations)
        assert direct == all(min(r % W, -r % W) * q >= p * W for r, W in values)
        assert report._cell_contains(u % M, v % M, M) == direct
        assert report.contains(GaussianRational(z, M)) == direct


def test_verify_obstruction_pins():
    ok, margin = verify_obstruction(1, 1, 2, 25, F(1, 4))
    assert ok and margin == F(1, 2)
    ok, margin = verify_obstruction(1, 0, 1, 25, F(1, 4))
    assert not ok and margin == 0
    ok, margin = verify_obstruction(1, 1, 2, 4, F(1, 4))
    assert not ok and margin == 0
    with pytest.raises(ValueError, match="^no Gaussian integers have norm 3$"):
        verify_obstruction(1, 1, 2, 3, F(1, 4))  # 3 is not a sum of two squares
    for norm in (3, 21):
        with pytest.raises(ValueError, match=f"^no Gaussian integers have norm {norm}$"):
            covering._multipliers(norm)
    with pytest.raises(ValueError):
        verify_obstruction(2, 2, 2, 25, F(1, 4))  # not gcd-normalized
    # the parity argument holds across odd norms
    for norm in (5, 13, 25, 65, 169):
        ok, margin = verify_obstruction(1, 1, 2, norm, F(1, 4))
        assert ok and margin == F(1, 2)


def test_zero_period_norm_is_refused():
    # the zero period's one multiplier 0 would give every point margin 0,
    # a false verdict for a period that has no cell
    for norm in (0, -5):
        with pytest.raises(ValueError, match="period norm must be at least 1"):
            verify_obstruction(1, 1, 2, norm, F(1, 4))
        with pytest.raises(ValueError, match="period norm must be at least 1"):
            obstruction_catalog(F(1, 4), 2, norm)


@pytest.mark.parametrize("epsilon", [F(0), F(-1), F(1, 2), F(3, 4), 0.5,
                                     float("inf"), float("nan")], ids=str)
def test_half_width_outside_its_interval_is_refused(epsilon):
    with pytest.raises(ValueError, match="stripe half-width must"):
        verify_obstruction(1, 1, 2, 5, epsilon)
    with pytest.raises(ValueError, match="stripe half-width must"):
        obstruction_catalog(epsilon, 2, 5)
    with pytest.raises(ValueError, match="stripe half-width must"):
        stripe_membership(ExactPoint.from_complex(0), 1, epsilon)


def test_half_width_float_is_taken_at_its_binary_value():
    # 0.1 is a little above 1/10, so a margin of exactly 1/10 misses it
    assert verify_obstruction(1, 0, 10, 5, 0.1) == (False, F(1, 10))
    assert verify_obstruction(1, 0, 10, 5, F(1, 10)) == (True, F(1, 10))
    assert obstruction_catalog(0.25, 2, 5) == obstruction_catalog(F(1, 4), 2, 5)


def test_obstruction_catalog():
    assert obstruction_catalog(F(9, 20), 2, 25) == [((1, 1, 2), F(1, 2))]
    wide = obstruction_catalog(F(9, 20), 3, 25)
    narrow = obstruction_catalog(F(1, 10), 3, 25)
    assert {t for t, _ in wide} <= {t for t, _ in narrow}
    margins = [m for _, m in narrow]
    assert margins == sorted(margins, reverse=True)
    # every cataloged tuple is genuinely uncovered in a matching exact config
    report = uncovered_region(figure_config())
    for (a, b, m), _ in obstruction_catalog(F(1, 4), 3, 5):
        point = GaussianRational(GaussianInt(a, b), m) * GaussianRational(
            GaussianInt(1, -2)
        )
        assert report.contains(point)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(3, 60).flatmap(lambda q: st.tuples(st.integers(1, (q - 1) // 2),
                                                      st.just(q))),
       st.integers(1, 12),
       st.sampled_from([1, 2, 5, 10, 13, 25, 50, 65, 325, 4225]))
@example((1, 3), 1, 1)
@example((1, 4), 12, 4225)
@example((9, 20), 2, 1)
def test_obstruction_catalog_matches_brute_force(pq, m_max, norm):
    # one margin per orbit under sign changes and swap, against every (a, b)
    # mod m on its own; m_max = 1 holds only (0, 0, 1), of margin 0
    eps = F(*pq)
    assert obstruction_catalog(eps, m_max, norm) == catalog_oracle(eps, m_max, norm)


def test_irrational_triple():
    z1, z2, z3 = irrational_triple(1)
    assert abs(z1 - complex(0.5, math.sqrt(3) / 2)) <= 1e-12
    for n in (1, 2, 10):
        z1, z2, z3 = irrational_triple(n)
        assert abs(n * (z1 + z2) - z3) <= 1e-12
        for z in (z1, z2, z3):
            assert abs(abs(z) - 1.0) <= 1e-12
    z1, _, _ = irrational_triple(2)
    assert abs(z1 - complex(0.25, math.sqrt(15) / 4)) <= 1e-12


def test_theta_prime():
    assert len(theta_prime(1, 0)) == 3
    assert len(theta_prime(2, 3)) == 48
    for z in theta_prime(2, 2):
        assert abs(abs(z) - 1.0) <= 1e-12


def test_certified_disk_cover_negative():
    report = certified_disk_cover([1 + 0j, 1j], 0.45, 3.0, 0.01)
    assert not report.certified
    fx, fy = _failing_cells([1 + 0j, 1j], 0.45, 3.0, 0.01, report.rounds_used)
    assert fx.size == report.failing_count > 0
    for x, y in zip(fx.tolist(), fy.tolist()):
        dx = abs(x - math.floor(x) - 0.5)
        dy = abs(y - math.floor(y) - 0.5)
        assert dx <= 0.06 and dy <= 0.06


def test_certified_disk_cover_positive_and_soundness():
    report = certified_disk_cover([1 + 0j], 0.45, 0.4, 0.02)
    assert report.certified
    assert report.cells_checked > 0
    # soundness: every point of a certified run is genuinely inside a stripe,
    # re-checked on a 10x finer subgrid
    fine = 0.002
    steps = 10
    for i in range(steps):
        for j in range(steps):
            x = -0.4 + 0.8 * i / (steps - 1)
            y = -0.4 + 0.8 * j / (steps - 1)
            if x * x + y * y > 0.16:
                continue
            v = abs(x - round(x))
            assert v < 0.45, (x, y, fine)
    with pytest.raises(ValueError):
        certified_disk_cover([1 + 0j], 0.05, 1.0, 0.2)  # pitch too coarse


@pytest.mark.parametrize("name, args", [
    ("epsilon", (math.nan, 1.0, 0.1)),
    ("epsilon", (math.inf, 1.0, 0.1)),
    ("epsilon", (-math.inf, 1.0, 0.1)),
    ("radius", (0.1, math.nan, 0.1)),
    ("radius", (0.1, math.inf, 0.1)),
    ("pitch", (0.1, 1.0, math.nan)),
    ("pitch", (0.1, 1.0, math.inf)),
])
def test_certified_disk_cover_rejects_non_finite(name, args):
    # NaN compares false with everything and inf passes every bound, so a
    # non-finite value must be rejected before the grid is laid out
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        certified_disk_cover([1 + 0j], *args)


@pytest.mark.parametrize("rounds", [-1, -3])
def test_certified_disk_cover_rejects_negative_refine_rounds(rounds):
    # the CLI exits 2 on the same value; a negative count is not 0 rounds
    with pytest.raises(ValueError, match=f"^refine_rounds must be at least 0, got {rounds}$"):
        certified_disk_cover([1 + 0j], 0.3, 1.0, 0.2, refine_rounds=rounds)


def test_certified_disk_cover_refinement():
    # a disk covered with a slim margin: the coarse pass cannot certify its rim
    # cells, refinement rounds settle them
    rough = certified_disk_cover([1 + 0j], 0.45, 0.42, 0.1)
    assert not rough.certified
    refined = certified_disk_cover([1 + 0j], 0.45, 0.42, 0.1, refine_rounds=3)
    assert refined.certified
    assert refined.rounds_used <= 3
    assert refined.pitch < rough.pitch
    # a genuinely uncovered configuration: the failing area shrinks toward the
    # true obstruction even though the cell count grows with subdivision
    rough = certified_disk_cover([1 + 0j, 1j], 0.4, 1.0, 0.2)
    refined = certified_disk_cover([1 + 0j, 1j], 0.4, 1.0, 0.2, refine_rounds=4)
    assert not refined.certified
    rough_area = rough.failing_count * rough.pitch**2
    refined_area = refined.failing_count * refined.pitch**2
    assert refined_area <= rough_area


def test_certified_disk_cover_nan_rotation_covers_nothing():
    # a NaN stripe coordinate is not deeper than the slack: every cell the
    # other rotation leaves stays failing
    report = certified_disk_cover([complex("nan"), 1j], 0.45, 3.0, 0.1)
    assert not report.certified
    assert report.failing_count == 600
    assert report == certified_disk_cover([1j], 0.45, 3.0, 0.1)


def _failing_cells(rotations, eps, radius, pitch, rounds):
    """The failing cells of the last level of a run of
    ``certified_disk_cover(rotations, eps, radius, pitch)`` that used
    ``rounds`` refinement rounds, rebuilt from the kernel, since a report
    keeps no cell: the grid's failing half, then ``rounds`` times its
    children's, unfolded with the mirror images, as raw arrays in the order
    the kernel keeps them.  The witness search changes no cell's verdict,
    so it runs with no exact rotation (``exact=[]``) and its witness is
    dropped."""
    rots = [complex(t) for t in rotations]
    eps, radius, h = disk._disk_parameters(eps, radius, pitch, rounds)
    hx, hy, *_ = disk._failing_half(*disk._grid(radius, h), eps, radius, h, rots, [])
    for _ in range(rounds):
        h /= 2
        hx, hy, *_ = disk._failing_half(*disk._children(hx, hy, h / 2), eps, radius, h,
                                        rots, [])
    size = disk._level_size(hx, hy)
    return disk._mirrored_slice(hx, size, 0, size), disk._mirrored_slice(hy, size, 0, size)


def _disk_reference(rotations, eps, R, h, refine_rounds, stop=True):
    """Every rotation tested on every cell: the failing cells sorted, and
    as raw arrays in the order the kernel keeps them, and the witness as a
    float pair or None.  With ``stop``, every level, the grid and each
    round's, the last included, is searched for a witness: the first
    centre of the level's first half in the disk and at least eps from the
    nearest integer under every rotation in floats that ``uncovered_oracle``
    confirms, and a level that holds one ends the run."""
    rots = [complex(float(t.re), float(t.im)) if isinstance(t, GaussianRational)
            else complex(t) for t in rotations]
    forms = plain_forms(rotations)
    clearance, inside = float_literal_bounds(eps, R)

    def failing(xs, ys, slack):
        covered = np.zeros(xs.shape, dtype=bool)
        for t in rots:
            values = t.real * xs - t.imag * ys
            covered |= np.abs(values - np.rint(values)) < slack
        return xs[~covered], ys[~covered]

    def witness(fx, fy):
        half = (fx.size + 1) // 2
        cx, cy = fx[:half], fy[:half]
        keep = cx * cx + cy * cy <= R * R
        for x, y in zip(*failing(cx[keep], cy[keep], eps)):
            if uncovered_oracle((x, y), clearance, inside, forms):
                return float(x), float(y)
        return None

    half_diag = h * math.sqrt(2) / 2
    n = max(1, math.ceil(2 * R / h))
    centers = h * (np.arange(n) - (n - 1) / 2)
    xs, ys = (a.ravel() for a in np.meshgrid(centers, centers))
    keep = xs * xs + ys * ys <= (R + half_diag) ** 2
    xs, ys = xs[keep], ys[keep]
    checked = xs.size
    fx, fy = failing(xs, ys, eps - half_diag)
    found = witness(fx, fy) if stop else None
    rounds = 0
    for _ in range(refine_rounds):
        if fx.size == 0 or found:
            break
        h /= 2
        off = h / 2
        cx = np.concatenate([fx - off, fx + off, fx - off, fx + off])
        cy = np.concatenate([fy - off, fy - off, fy + off, fy + off])
        half_diag = h * math.sqrt(2) / 2
        keep = cx * cx + cy * cy <= (R + half_diag) ** 2
        checked += int(keep.sum())
        fx, fy = failing(cx[keep], cy[keep], eps - half_diag)
        rounds += 1
        if stop:
            found = witness(fx, fy)
    cells = tuple(sorted((float(x), float(y)) for x, y in zip(fx, fy)))
    return not cells, h, rounds, checked, cells, (fx, fy), found


@st.composite
def disk_configs(draw):
    """1-6 rotations (exact ones of theta_set(2) or float angles), a stripe
    half-width, a radius of at most 2 and a pitch fine enough for the width."""
    exact = st.sampled_from(theta_set(2))
    angle = st.floats(0, 2 * math.pi).map(lambda t: complex(math.cos(t), math.sin(t)))
    rots = draw(st.lists(st.one_of(exact, angle), min_size=1, max_size=6))
    eps = draw(st.floats(0.1, 0.49))
    pitch = eps * math.sqrt(2) * draw(st.floats(0.3, 0.99))
    radius = draw(st.floats(0.2, 2.0))
    return rots, eps, radius, pitch, draw(st.integers(0, 3))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(disk_configs())
@example((theta_prime(1, 1)[:6], 0.35, 2.0, 0.2, 3))  # certified in round 3
@example((theta_prime(1, 1)[:6], 0.3, 2.0, 0.2, 3))
# benchmark-size levels that cross the compaction rule many times
@example((theta_prime(1, 3), 0.2, 20.0, 0.2, 2))
@example((theta_prime(2, 0), 0.2, 20.0, 0.25, 2))
@example(([1 + 0j, 1j], 0.2, 0.3, 0.2, 3))  # the disk keeps 9 cells
@example(([complex(math.nan, 0.0)], 0.3, 1.1, 0.2, 1))  # the centre cell fails
def test_certified_disk_cover_matches_full_mask_reference(case):
    rots, eps, radius, pitch, rounds = case
    report = certified_disk_cover(rots, eps, radius, pitch, refine_rounds=rounds)
    certified, h, used, checked, cells, raw, witness = _disk_reference(*case)
    assert report.certified == certified
    assert report.pitch == h
    assert report.rounds_used == used
    assert report.cells_checked == checked
    assert report.failing_count == len(cells)
    got = _failing_cells(rots, eps, radius, pitch, report.rounds_used)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in raw]
    assert report.witness == (None if witness is None else GaussianRational.from_fractions(*witness))


def test_certified_disk_cover_in_blocks_of_seven(monkeypatch):
    # block edges fall inside every level, the grid's and each round's
    monkeypatch.setattr(disk, "_BLOCK", 7)
    test_certified_disk_cover_matches_full_mask_reference()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(disk_configs())
@example((theta_prime(1, 1)[:6], 0.35, 2.0, 0.2, 3))  # certified in round 3
@example((theta_prime(1, 1)[:6], 0.3, 2.0, 0.2, 3))  # no witness, not certified
@example(([1 + 0j, 1j], 0.4, 1.0, 0.2, 2))  # a witness on the grid
@example(([1 + 0j], 0.375, 1.0, 0.25, 2))  # a witness in round 1 (see below)
@example(([complex(math.nan, 0.0), 1j], 0.45, 3.0, 0.1, 0))
def test_certified_disk_cover_witness_is_uncovered(case):
    # a witness is an uncovered point: the oracle confirms it, and the run
    # without the stop rule does not certify at any depth up to 3; a run
    # that certifies by then names none
    rots, eps, radius, pitch, rounds = case
    report = certified_disk_cover(rots, eps, radius, pitch, refine_rounds=rounds)
    deepest = _disk_reference(rots, eps, radius, pitch, 3, stop=False)
    if report.witness is not None:
        assert not report.certified and report.failing_count > 0
        assert uncovered_oracle(report.witness, *float_literal_bounds(eps, radius),
                                plain_forms(rots))
        assert not deepest[0]
    if deepest[0] or report.certified:
        assert report.witness is None


def test_certified_disk_cover_witness_in_blocks_of_seven(monkeypatch):
    monkeypatch.setattr(disk, "_BLOCK", 7)
    test_certified_disk_cover_witness_is_uncovered()


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(disk_configs())
@example(([1 + 0j], 0.375, 1.0, 0.25, 1))  # a witness in round 1 of 1
@example(([1 + 0j, 1j], 0.4, 1.0, 0.2, 0))  # a witness on the grid, the only level
@example((theta_prime(1, 1)[:6], 0.3, 2.0, 0.2, 3))  # no witness, not certified
def test_certified_disk_cover_searches_its_last_round(case):
    # every level a run tests is searched, the last round's too: a witness
    # that a run of k rounds or one of k + 1 finds within k rounds is found
    # by both, on the same level, with the same report
    rots, eps, radius, pitch, rounds = case
    report = certified_disk_cover(rots, eps, radius, pitch, refine_rounds=rounds)
    deeper = certified_disk_cover(rots, eps, radius, pitch, refine_rounds=rounds + 1)
    for run in (report, deeper):
        if run.witness is not None:
            assert uncovered_oracle(run.witness, *float_literal_bounds(eps, radius),
                                    plain_forms(rots))
    if report.witness is not None or (deeper.witness is not None
                                      and deeper.rounds_used <= rounds):
        assert deeper == report


def test_certified_disk_cover_passes_over_a_rejected_candidate(monkeypatch):
    # stripes |x - k| < 3/8 and grid centres at odd multiples of 1/8: the
    # columns x = +-3/8, +-5/8 lie exactly float(eps) from a stripe, so the
    # float test proposes their centres and the exact test, which asks for
    # eps + ulp(eps), rejects every one.  No grid centre is uncovered, and
    # the run refines as without the witness search; the child at
    # x = -7/16 is uncovered, found in round 1, the last round of the run
    checked = []
    clear = disk._clear

    def spy(x, y, *args):
        checked.append((x, clear(x, y, *args)))
        return checked[-1][1]

    monkeypatch.setattr(disk, "_clear", spy)
    grid = certified_disk_cover([1 + 0j], 0.375, 1.0, 0.25)
    assert checked and {(abs(x), ok) for x, ok in checked} <= {(0.375, False), (0.625, False)}
    assert grid.witness is None and grid.rounds_used == 0
    rejected = len(checked)
    report = certified_disk_cover([1 + 0j], 0.375, 1.0, 0.25, refine_rounds=1)
    assert checked[rejected:2 * rejected] == checked[:rejected]
    assert checked[-1] == (-0.4375, True) and not any(ok for _, ok in checked[:-1])
    assert report.rounds_used == 1
    assert report.witness == GaussianRational.from_fractions(F(-7, 16), F(-11, 16))
    _, h, _, cells_checked, cells, _, _ = _disk_reference([1 + 0j], 0.375, 1.0, 0.25, 1,
                                                           stop=False)
    assert (report.pitch, report.cells_checked, report.failing_count) == (h, cells_checked, len(cells))
    assert certified_disk_cover([1 + 0j], 0.375, 1.0, 0.25, refine_rounds=2) == report


def test_theta_prime_1_2_misses_the_plane_at_three_tenths():
    # theta'(1, 2) covers every disk of radius <= 80 at eps = 0.3 (README's
    # eps table), yet this point, |z| ~ 1.6e8, keeps 39/125 from every
    # integer in Re(z*phi) for all 27 rotations phi: a disk's least N is
    # not the plane's.  sqrt(3) is enclosed as the scan's witness check
    # encloses it; a 60-digit evaluation gives a least distance of 0.31240
    x, y = -157468467.68756822, 17148781.62507193
    root = math.isqrt(3 << 128)
    forms = [disk._rotation_form(t) for t in theta_set(2)]
    forms += [disk._rotation_form(t, 1, sign, root) for sign in (1, -1) for t in theta_set(2)]
    assert len(forms) == 27
    radius = Fraction(2 * 10**8)
    assert disk._clear(x, y, radius, Fraction(39, 125), forms)
    assert not disk._clear(x, y, radius, Fraction(313, 1000), forms)


def test_disk_cover_witness_under_optimize():
    # the exact re-check is an if, not an assert: under -O the rejected
    # candidates stay rejected and a scan names the same witnesses
    script = textwrap.dedent("""
        from pyjama.disk import certified_disk_cover, disk_cover_scan
        grid = certified_disk_cover([1 + 0j], 0.375, 1.0, 0.25)
        print(grid.witness, grid.rounds_used)
        child = certified_disk_cover([1 + 0j], 0.375, 1.0, 0.25, refine_rounds=1)
        print(child.witness, child.rounds_used)
        for row in disk_cover_scan(0.2, 4.0, 0.25, 1, 1, refine_rounds=2):
            print(row[-1])
    """)
    src = str(Path(disk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    rows = disk_cover_scan(0.2, 4.0, 0.25, 1, 1, refine_rounds=2)
    assert all(row[-1] is not None for row in rows)
    assert done.stdout.splitlines() == ["None 0", "-7/16-11/16i 1",
                                        *(str(row[-1]) for row in rows)]


@st.composite
def kernel_cases(draw):
    """A k x k grid of centres at the pitch, k = 1..40, and up to 24 cells
    anywhere near the disk, in drawn order; 0-7 rotations (float images of
    theta_prime(1, 1), float angles, a NaN rotation); a half-width, a
    radius of at most 3 and a pitch fine enough for the width."""
    eps = draw(st.floats(0.05, 0.49))
    pitch = eps * math.sqrt(2) * draw(st.floats(0.3, 0.99))
    radius = draw(st.floats(0.2, 3.0))
    k = draw(st.integers(1, 40))
    centres = pitch * (np.arange(k) - (k - 1) / 2)
    xs, ys = (a.ravel() for a in np.meshgrid(centres, centres))
    near = st.floats(-radius - 1, radius + 1)
    extra = draw(st.lists(st.tuples(near, near), max_size=24))
    xs = np.concatenate([xs, [x for x, _ in extra]])
    ys = np.concatenate([ys, [y for _, y in extra]])
    order = draw(st.permutations(range(xs.size)))
    angle = st.floats(0, 2 * math.pi).map(lambda t: complex(math.cos(t), math.sin(t)))
    rotation = st.one_of(st.sampled_from(theta_prime(1, 1)), angle,
                         st.just(complex(math.nan, 0.0)))
    rots = draw(st.lists(rotation, max_size=7))
    return xs[list(order)], ys[list(order)], rots, eps, radius, pitch


def _two_passes(xs, ys, rotations, bound_sq, depth):
    """The cells within ``bound_sq`` of the origin that no rotation holds
    less than ``depth`` from the nearest integer: every rotation tested on
    every cell, as a mask."""
    keep = xs * xs + ys * ys <= bound_sq
    for t in rotations:
        values = xs * t.real - ys * t.imag
        keep &= ~(np.abs(values - np.rint(values)) < depth)
    return keep


# an 8 x 8 grid at odd multiples of 1/8 and stripes of half-width 3/8: the
# columns x = +-3/8, +-5/8 lie exactly eps from a stripe of rotation 1
_TIES = (np.tile(np.arange(-7, 8, 2) / 8, 8), np.repeat(np.arange(-7, 8, 2) / 8, 8),
         [1 + 0j, complex(math.nan, 0.0)], 0.375, 1.0, 0.25)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kernel_cases())
@example(_TIES)
# 1,600 cells and 12 rotations: the default threshold is crossed mid-block
@example((*(a.ravel() for a in np.meshgrid(*2 * [0.1 * (np.arange(40) - 19.5)])),
          theta_prime(1, 1), 0.2, 2.0, 0.1))
def test_failing_level_matches_two_separate_passes(case):
    # the kernel's survivors, in one pass, are byte for byte those of a pass
    # over every cell at the slack and reach; in blocks, the candidates that
    # _witness draws from the blocks' survivors are byte for byte those of a
    # pass at eps and R**2, in order
    xs, ys, rots, eps, radius, pitch = case
    reach_sq, slack = disk._reach_and_slack(eps, radius, pitch)
    alive = _two_passes(xs, ys, rots, reach_sq, slack)
    clear = _two_passes(xs, ys, rots, radius * radius, eps)
    assert not (clear & ~alive).any()
    fx, fy, checked = disk._failing_level(xs, ys, reach_sq, rots, slack)
    assert [fx.tobytes(), fy.tobytes()] == [xs[alive].tobytes(), ys[alive].tobytes()]
    assert checked == np.count_nonzero(xs * xs + ys * ys <= reach_sq)
    # in blocks: no candidate is confirmed, so _clear sees every one
    seen = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(disk, "_clear", lambda x, y, *args: seen.append((x, y)))
        hx, hy, _, _, found = disk._failing_half(xs.size, lambda a, b: (xs[a:b], ys[a:b]),
                                                 eps, radius, pitch, rots, [])
    assert found is None
    assert [hx.tobytes(), hy.tobytes()] == [fx.tobytes(), fy.tobytes()]
    cx, cy = (np.array([cell[i] for cell in seen], dtype=float) for i in (0, 1))
    assert [cx.tobytes(), cy.tobytes()] == [xs[clear].tobytes(), ys[clear].tobytes()]


@pytest.mark.parametrize("block, batch", [(7, None), (None, 0), (None, 2**30), (7, 2**30)])
def test_failing_level_in_blocks_and_batches(monkeypatch, block, batch):
    # blocks of seven cells, the per-rotation pass alone (threshold 0) and
    # the 2-D pass alone (threshold 2**30)
    if block is not None:
        monkeypatch.setattr(disk, "_BLOCK", block)
    if batch is not None:
        monkeypatch.setattr(disk, "_BATCH", batch)
    test_failing_level_matches_two_separate_passes()


def _assert_mirrored(fx, fy):
    """Raw cell k is cell size - 1 - k negated, byte for byte; a middle
    cell is (+0.0, +0.0), which 0.0 - x maps to itself."""
    for a in (fx, fy):
        assert a.tobytes() == (0.0 - a[::-1]).tobytes()
    if fx.size % 2:
        assert fx[fx.size // 2].hex() == fy[fy.size // 2].hex() == "0x0.0p+0"


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(disk_configs())
@example(([1j], 0.3, 1.1, 0.2, 0))  # 11 x 11 grid: a failing centre column of +0.0
@example(([1j], 0.3, 1.1, 0.2, 2))
@example(([complex(math.nan, 0.0)], 0.3, 1.1, 0.2, 0))  # the centre cell fails
@example(([complex(math.nan, 0.0)], 0.3, 0.05, 0.2, 1))  # n = 1
@example(([1 + 0j, 0.6 + 0.8j], 0.3, 0.7, 0.2, 3))  # n = 7
# 13 x 13 grid: the failing centre cell is grid cell 84, alone in the last
# block when blocks have 7 cells
@example(([complex(math.nan, 0.0)], 0.3, 1.25, 0.2, 2))
def test_certified_disk_cover_fails_mirror_pairs(case):
    rots, eps, radius, pitch, rounds = case
    report = certified_disk_cover(rots, eps, radius, pitch, refine_rounds=rounds)
    _assert_mirrored(*_failing_cells(rots, eps, radius, pitch, report.rounds_used))
    _assert_mirrored(*_failing_cells(rots, eps, radius, pitch, 0))  # the grid level


def test_certified_disk_cover_centres_the_grid():
    # 2R/pitch = 8.4: the nine columns overhang the disk by 0.04 on each
    # side, so the failing cells near x = +-0.4 form a set closed under
    # z -> -z (with the overhang on one side only, they did not)
    report = certified_disk_cover([1 + 0j], 0.45, 0.42, 0.1)
    fx, fy = _failing_cells([1 + 0j], 0.45, 0.42, 0.1, report.rounds_used)
    cells = set(zip(fx.tolist(), fy.tolist()))
    assert len(cells) == report.failing_count
    assert cells and cells == {(0.0 - x, 0.0 - y) for x, y in cells}
    assert all(abs(abs(x) - 0.4) < 1e-12 for x, _ in cells)


def test_certified_disk_cover_mirror_pairs_in_blocks_of_seven(monkeypatch):
    monkeypatch.setattr(disk, "_BLOCK", 7)
    test_certified_disk_cover_fails_mirror_pairs()


@pytest.mark.parametrize("rotations, eps, radius", [
    ([complex(math.nan, 0.0)], 0.3, 1.1),  # odd grid: the half ends in the centre cell
    ([complex(math.nan, 0.0)], 0.3, 1.0),  # even grid, no middle cell
    ([1j], 0.3, 1.1),  # a failing centre column of +0.0
])
def test_children_stream_matches_the_whole_level(rotations, eps, radius):
    # the first half of a level's children, cut into blocks of every size:
    # blocks cross the half/mirror seam of the parent level and the seam
    # between the (-,-) and (+,-) children at every offset
    report = certified_disk_cover(rotations, eps, radius, 0.2)  # the grid level
    fx, fy = _failing_cells(rotations, eps, radius, 0.2, 0)
    off = 0.05
    want_x = np.concatenate([fx + -off, fx + off])
    want_y = np.concatenate([fy + -off, fy + -off])
    half = (fx.size + 1) // 2
    size, cells = disk._children(fx[:half], fy[:half], off)
    assert size == want_x.size == 2 * report.failing_count
    for block in range(1, size + 1):
        got = [cells(a, min(a + block, size)) for a in range(0, size, block)]
        assert np.concatenate([x for x, _ in got]).tobytes() == want_x.tobytes()
        assert np.concatenate([y for _, y in got]).tobytes() == want_y.tobytes()


def test_certified_disk_cover_memory_follows_the_failing_half(monkeypatch):
    # a 400 x 400 grid, 80,000 cells in its tested half, and two rounds: the
    # peak allocation follows the failing cells, 16 bytes each, not the levels
    rotations = theta_prime(1, 0)
    # its grid holds a witness, which ends the run there; the refinement
    # that a step without one goes through is measured with the search off
    assert certified_disk_cover(rotations, 0.25, 20, 0.1, refine_rounds=2).rounds_used == 0
    monkeypatch.setattr(disk, "_witness", lambda *args: None)
    tracemalloc.start()
    try:
        report = certified_disk_cover(rotations, 0.25, 20, 0.1, refine_rounds=2)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cell = 16  # bytes of one (x, y) pair of float64
    assert report.failing_count == 194344
    assert peak < 2 * cell * report.failing_count
    assert peak < 3 * 2**20  # 3.79 MiB when a report held its last round's failing half
    # the report keeps scalars only: no level of cells outlives the run
    assert held < 2**14


def test_certified_disk_cover_counts_its_last_round(monkeypatch):
    rotations = theta_prime(1, 1)[:6]
    # still failing after its last round, which counts the cells it fails
    report = certified_disk_cover(rotations, 0.3, 2.0, 0.2, refine_rounds=2)
    assert not report.certified and report.rounds_used == 2
    fx, _ = _failing_cells(rotations, 0.3, 2.0, 0.2, 2)
    assert report.failing_count == fx.size == 54
    # certified in its last round
    report = certified_disk_cover(rotations, 0.35, 2.0, 0.2, refine_rounds=3)
    assert report.certified and report.rounds_used == 3 and report.failing_count == 0
    # certified in round 3 of 5: no round is counted.  A counted round
    # keeps no cell and gives the level's failing count
    calls = []
    half = disk._failing_half

    def spy(*args, **kwargs):
        fx, _, failing, _, _ = got = half(*args, **kwargs)
        calls.append((kwargs.get("last", False), fx.size, failing))
        return got

    monkeypatch.setattr(disk, "_failing_half", spy)
    early = certified_disk_cover(rotations, 0.35, 2.0, 0.2, refine_rounds=5)
    assert early == report and early.rounds_used == 3
    assert [last for last, _, _ in calls] == [False] * 4
    calls.clear()
    assert certified_disk_cover(rotations, 0.35, 2.0, 0.2, refine_rounds=3) == report
    assert [last for last, _, _ in calls] == [False, False, False, True]
    calls.clear()
    certified_disk_cover(rotations, 0.3, 2.0, 0.2, refine_rounds=2)
    assert calls[-1] == (True, 0, 54)


def _assert_scan_matches_fresh_runs(monkeypatch, eps, radius, pitch, n_max, N_max, rounds):
    """Every row of the scan is a fresh run of theta_prime(n, N), the step's
    report equals that run's, the rotations the step refines with fail the
    same cells in the same order, byte for byte, and the grid half the step
    carries is, byte for byte, the failing half of a fresh run without
    refinement."""
    steps = []

    def spy(gx, gy, in_disk, witness, eps, R, h, rotations, *args):
        report = refined(gx, gy, in_disk, witness, eps, R, h, rotations, *args)
        steps.append(((gx, gy), list(rotations), report))  # a copy: the scan extends its list
        return report

    refined = disk._refined
    with monkeypatch.context() as m:
        m.setattr(disk, "_refined", spy)
        rows = disk_cover_scan(eps, radius, pitch, n_max, N_max, refine_rounds=rounds)
    assert len(rows) == len(steps)
    certified = [row[3] for row in rows]
    assert not any(certified[:-1])  # the rows end with the first certified step
    if not certified[-1]:
        assert len(rows) == n_max * (N_max + 1)
    for (n, N, count, *scalars), (grid_half, step_rotations, report) in zip(rows, steps):
        rotations = theta_prime(n, N)
        fresh = certified_disk_cover(rotations, eps, radius, pitch, refine_rounds=rounds)
        assert count == len(rotations) == len(step_rotations)
        assert scalars == [fresh.certified, fresh.cells_checked, fresh.failing_count,
                           fresh.witness]
        assert report == fresh  # every field
        cells = _failing_cells(step_rotations, eps, radius, pitch, report.rounds_used)
        fresh_cells = _failing_cells(rotations, eps, radius, pitch, fresh.rounds_used)
        assert [a.tobytes() for a in cells] == [a.tobytes() for a in fresh_cells]
        # the fresh run checks its witness against the float rotations, the
        # scan against the rotations they round: both hold
        if report.witness is not None:
            bounds = float_literal_bounds(eps, radius)
            assert uncovered_oracle(report.witness, *bounds, theta_prime_forms(n, N))
            assert uncovered_oracle(report.witness, *bounds, plain_forms(rotations))
        gx, gy = _failing_cells(rotations, eps, radius, pitch, 0)
        half = (gx.size + 1) // 2
        assert [a.tobytes() for a in grid_half] == [gx[:half].tobytes(), gy[:half].tobytes()]


@pytest.mark.parametrize("eps, pitch, n_max", [(0.2, 0.2, 2), (0.2, 0.25, 2), (0.25, 0.1, 1)])
def test_certified_disk_cover_chained_scan(monkeypatch, eps, pitch, n_max):
    # the benchmark's disk configs
    _assert_scan_matches_fresh_runs(monkeypatch, eps, 20, pitch, n_max, 3, 2)


# small scans: certified at (n, N) = (1, 1), at (1, 2) after one round, at
# (2, 1) on an odd 11 x 11 grid, and never
_SMALL_SCANS = ((0.35, 2.0, 0.2, 2, 3, 2), (0.3, 3.0, 0.2, 2, 2, 1), (0.3, 1.1, 0.2, 2, 1, 2),
                (0.2, 4.0, 0.25, 1, 2, 2))


@pytest.mark.parametrize("case", _SMALL_SCANS)
def test_disk_cover_scan_small_configs(monkeypatch, case):
    _assert_scan_matches_fresh_runs(monkeypatch, *case)


def test_disk_cover_scan_in_blocks_of_seven(monkeypatch):
    # block edges fall inside every carried grid half and every round (the
    # benchmark's R = 20 configs take seconds a scan in blocks of seven)
    monkeypatch.setattr(disk, "_BLOCK", 7)
    for case in _SMALL_SCANS:
        _assert_scan_matches_fresh_runs(monkeypatch, *case)


@pytest.mark.parametrize("epsilon", [-0.3, 0.0, 0.5, 0.7])
def test_disk_cover_rejects_half_width_out_of_range(epsilon):
    # a half-width of 1/2 or more lets one stripe family cover the plane and
    # one of 0 or less covers nothing: neither is a question of the pitch
    message = r"^stripe half-width must lie in \(0, 1/2\)$"
    with pytest.raises(ValueError, match=message):
        certified_disk_cover([1 + 0j], epsilon, 1.0, 0.05)
    with pytest.raises(ValueError, match=message):
        disk_cover_scan(epsilon, 1.0, 0.05, 1, 0)


@pytest.mark.parametrize("args, message", [
    ((0.3, 1.0, 0.2, 0, 0), "need n_max >= 1 and N_max >= 0"),
    ((0.3, 1.0, 0.2, 1, -1), "need n_max >= 1 and N_max >= 0"),
    ((0.3, 1.0, 0.2, 1, 0, -1), "refine_rounds must be at least 0, got -1"),
    ((math.nan, 1.0, 0.2, 1, 0), "epsilon must be finite, got nan"),
    ((0.3, 0.0, 0.2, 1, 0), "radius and pitch must be positive"),
    ((0.05, 1.0, 0.2, 1, 0), "pitch too coarse for this stripe half-width"),
])
def test_disk_cover_scan_rejects(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        disk_cover_scan(*args)


@pytest.mark.parametrize("epsilon, radius, pitch", [(0.45, 1e300, 1e-300), (1e-320, 20, 1e-321)])
def test_disk_cover_rejects_an_infinite_grid(epsilon, radius, pitch):
    # 2 * radius / pitch overflows to inf, which no grid size can take
    message = r"^grid too large: 2 \* radius / pitch must be finite$"
    with pytest.raises(ValueError, match=message):
        certified_disk_cover([1 + 0j], epsilon, radius, pitch)
    with pytest.raises(ValueError, match=message):
        disk_cover_scan(epsilon, radius, pitch, 1, 0)


@pytest.mark.parametrize("radius, pitch, columns", [(1e20, 0.5, "4e+20"), (5e9, 0.5, "2e+10")])
def test_disk_cover_rejects_a_huge_grid(monkeypatch, radius, pitch, columns):
    # a finite grid of more columns than the stated limit is refused before
    # any cell is laid out: a grid made here would fail the test
    def no_grid(*args):
        raise AssertionError("the grid was laid out")

    monkeypatch.setattr(disk, "_grid", no_grid)
    message = "^" + re.escape(f"grid too large: 2 * radius / pitch must be at most 1048576, "
                              f"got {columns}") + "$"
    with pytest.raises(ValueError, match=message):
        certified_disk_cover([1 + 0j], 0.45, radius, pitch)
    with pytest.raises(ValueError, match=message):
        disk_cover_scan(0.45, radius, pitch, 1, 0)
    assert disk._MAX_COLUMNS == 2**20
    # the largest grid allowed passes the check
    assert disk._disk_parameters(0.45, 2**19 * 0.5, 0.5, 0) == (0.45, 2**19 * 0.5, 0.5)


# (N, cells, failing) of the eps = 0.05 scan at n = 1.  N = 0..5 stop on the
# grid at a witness (their rows were (9074380, 6239368), (5730456, 3001652),
# (2950482, 940584), (1454134, 202352), (829708, 30198) and (610764, 3042)
# when every step ran both rounds); N = 6 holds no witness and keeps its row,
# recorded before the disk cover tested half of each level and mirrored the
# other, as does the certifying N = 7
_EPS_005_SCAN = ((0, 504372, 475092), (1, 504372, 367328), (2, 504372, 238658),
                 (3, 504372, 130334), (4, 504372, 59440), (5, 504372, 23180),
                 (6, 534528, 98), (7, 511444, 0))


def test_certified_disk_cover_small_epsilon_scan():
    rows = disk_cover_scan(0.05, 20, 0.05, 1, 7, refine_rounds=2)
    assert [(N, cells, failing) for _, N, _, _, cells, failing, _ in rows] == list(_EPS_005_SCAN)
    assert rows[-1][3]
    assert [witness is not None for *_, witness in rows] == [True] * 6 + [False] * 2
    for n, N, *_, witness in rows[:6]:
        assert uncovered_oracle(witness, *float_literal_bounds(0.05, 20.0), theta_prime_forms(n, N))


def test_disk_cover_scan_searches_its_last_round():
    # eps = 0.1, R = 20, 4 rounds: step N = 4 holds its witness on its last
    # level, the one that a 5-round run keeps for a fifth round; searching
    # it changes no cell count
    rows = disk_cover_scan(0.1, 20, 0.1, 1, 8, refine_rounds=4)
    assert [row[:6] for row in rows[4:]] == [(1, 4, 75, False, 136696, 110),
                                             (1, 5, 108, True, 128312, 0)]
    witness = rows[4][6]
    assert witness is not None
    assert uncovered_oracle(witness, *float_literal_bounds(0.1, 20.0), theta_prime_forms(1, 4))
    assert disk_cover_scan(0.1, 20, 0.1, 1, 4, refine_rounds=5)[4] == rows[4]


def test_snap_to_lattice_round_trip():
    D = GaussianInt(1, -2) * GaussianInt(2, -3)
    base = GaussianRational(D * GaussianInt(2, 1))
    assert snap_to_lattice(base, 1, 1, F(1, 100)) == base
    r_ = rng(22)
    for _ in range(10):
        y = GaussianRational(D * GaussianInt(r_.randrange(-3, 4), r_.randrange(-3, 4)))
        noise = GaussianRational(GaussianInt(3, 4), 5) * F(1, 200)
        x = y + noise
        assert snap_to_lattice(x, 1, 1, F(1, 100)) == y
    with pytest.raises(ValueError) as err:
        snap_to_lattice(GaussianRational(GaussianInt(1, 1), 2), 1, 1, F(1, 100))
    assert "(0, 0)" in str(err.value)
    with pytest.raises(ValueError):
        snap_to_lattice(base, 1, 1, F(1, 50))  # tolerance too large


def test_rationality_check():
    report = rationality_check(figure_config(), 2)
    assert report.polygon_count == len(uncovered_region(figure_config()).uncovered)
    assert any(d == 0 for d in report.distances_sq)
    assert report.within_bound and report.max_distance_sq <= 400
    assert report.period_norm == 5
    assert report.threshold == 40 * 4 + 40
    assert not report.period_exceeds_threshold
    # a plain band contains refined lattice points for any refinement
    band = rationality_check(CoveringConfig([1], F(1, 4)), 3)
    assert band.max_distance_sq == 0
    with pytest.raises(ValueError):
        rationality_check(figure_config(), 1)


@pytest.mark.parametrize("cfg, n", [
    (figure_config(), 2),
    (figure_config(), 3),
    (CoveringConfig(theta_set(1), F(1, 4), P5BAR.generator * P13BAR.generator), 2),
    # pieces whose box-nearest candidate is not the nearest one
    (CoveringConfig(theta_set(1)[::2], F(1, 4), P5BAR.generator * P13BAR.generator), 4),
    (CoveringConfig(theta_set(1)[1:3], F(2, 5), P5BAR.generator * P13BAR.generator), 3),
])
def test_refined_lattice_distance_matches_window_brute_force(cfg, n):
    report = uncovered_region(cfg, obstruction_m_max=1)
    for ring, poly in zip(report.pieces, report.uncovered):
        got = covering._refined_lattice_dist_sq(ring, report.scale, cfg.period, n)
        assert got == _window_brute_force(poly, cfg.period, n)


def _window_brute_force(poly, D, n):
    """The least Fraction-oracle distance from the piece to every candidate
    of the window that _refined_lattice_dist_sq scans."""
    xs, ys = zip(*poly.vertices)
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    pad = F(2 * (math.isqrt(D.norm()) + 1), n)
    scale = GaussianRational(GaussianInt(n, 0)) / GaussianRational(D)
    images = [GaussianRational.from_fractions(x, y) * scale
              for x in (xmin - pad, xmax + pad) for y in (ymin - pad, ymax + pad)]
    js = range(math.floor(min(w.re for w in images)) - 1,
               math.ceil(max(w.re for w in images)) + 2)
    ks = range(math.floor(min(w.im for w in images)) - 1,
               math.ceil(max(w.im for w in images)) + 2)
    return min(
        fraction_dist_sq(poly, (F(D.re * j - D.im * k, n), F(D.im * j + D.re * k, n)))
        for j in js for k in ks if j % n or k % n
    )


@st.composite
def rationality_cases(draw):
    """A small config (N(D) <= 65), a refinement 2..4 and up to six of its
    pieces."""
    cfg = draw(small_configs().filter(lambda c: c.period.norm() <= 65))
    n = draw(st.integers(2, 4))
    report = uncovered_region(cfg, obstruction_m_max=1)
    start = draw(st.integers(0, max(0, len(report.pieces) - 6)))
    return report, n, range(start, min(start + 6, len(report.pieces)))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(rationality_cases())
def test_integer_rationality_distance_matches_fraction_brute_force(case):
    report, n, chosen = case
    D = report.config.period
    for i in chosen:
        got = covering._refined_lattice_dist_sq(report.pieces[i], report.scale, D, n)
        assert got == _window_brute_force(report.uncovered[i], D, n)


_near = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(convex_pieces(st.tuples(_near, _near), 4),
       st.sampled_from([GaussianInt(1, 0), GaussianInt(1, -2), GaussianInt(2, -3),
                        GaussianInt(-3, -4)]),
       st.integers(2, 4))
def test_rationality_distance_of_any_piece_matches_fraction_brute_force(points, D, n):
    # thin polygons and points anywhere near the cell, so that the nearest
    # candidate often lies outside the piece's bounding box
    poly = ConvexPolygon(points)
    scale = math.lcm(*(c.denominator for v in poly.vertices for c in v))
    ring = tuple((int(x * scale), int(y * scale)) for x, y in poly.vertices)
    got = covering._refined_lattice_dist_sq(ring, scale, D, n)
    assert got == _window_brute_force(poly, D, n)


def _stripe_uncovered(cfg, z):
    """Direct evaluation: no rotation's open stripe holds z."""
    for theta in cfg.rotations:
        v = (theta * z).re % 1
        if min(v, 1 - v) < cfg.epsilon:
            return False
    return True


@st.composite
def membership_cases(draw):
    """A certificate of N(D) <= 65, random exact points around the cell, and
    up to ten of its pieces to probe at."""
    cfg = draw(small_configs().filter(lambda c: c.period.norm() <= 65))
    report = uncovered_region(cfg, obstruction_m_max=1)
    D = cfg.period
    reach = abs(D.re) + abs(D.im)
    exact = st.builds(F, st.integers(-30 * reach, 30 * reach), st.integers(1, 12))
    points = draw(st.lists(st.tuples(exact, exact), max_size=30))
    start = draw(st.integers(0, max(0, len(report.pieces) - 10)))
    return (report, [GaussianRational.from_fractions(x, y) for x, y in points],
            list(report.uncovered)[start:start + 10])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(membership_cases())
def test_integer_membership_matches_fraction_oracle(case):
    report, points, probed = case
    cfg = report.config
    D = GaussianRational(cfg.period)
    probes = list(points)
    for poly in probed:
        # every vertex, every edge midpoint, and the points just past each
        # edge's ends on its line
        verts = poly.vertices
        for i, (x, y) in enumerate(verts):
            px, py = verts[i - 1]
            for u, v in ((x, y), ((x + px) / 2, (y + py) / 2),
                         (2 * x - px, 2 * y - py), (2 * px - x, 2 * py - y)):
                probes.append(GaussianRational.from_fractions(u, v))
    shifts = [GaussianRational(0), D, -D, D * GaussianInt(0, 1), -D * GaussianInt(0, 1)]
    for z in probes:
        for s in shifts:
            w = z + s
            # the certificate's pieces tile the stripe complement exactly
            assert report.contains(w) == _stripe_uncovered(cfg, w)


class _CountedBuckets(dict):
    """A bucket hash that counts its lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


_cell_point = st.tuples(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 12))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(small_configs(), st.lists(_cell_point, max_size=12))
def test_contains_looks_up_one_bucket(cfg, points):
    # the pieces are the closed cell minus the D-periodic open stripes, so
    # the point reduced into the cell is the only one to test: one bucket
    # per call, whether it is uncovered or not.  0 lies on every stripe's
    # centre line; the first piece's vertices are uncovered
    report = uncovered_region(cfg, obstruction_m_max=1)
    buckets = report.__dict__["_buckets"] = _CountedBuckets(report._buckets)
    D, L = GaussianRational(cfg.period), report.scale
    probes = [GaussianRational(0)]
    probes += [GaussianRational(GaussianInt(a, b), m) * D for a, b, m in points]
    probes += [GaussianRational.from_fractions(F(x, L), F(y, L))
               for ring in report.pieces[:1] for x, y in ring]
    for z in probes:
        before = buckets.lookups
        assert report.contains(z) == _stripe_uncovered(cfg, z)
        assert buckets.lookups == before + 1, z


@st.composite
def cell_points(draw):
    """A config of ``small_configs``, a denominator M and up to 24 cell
    coordinates 0 <= u, v < M, each 0 about half the time."""
    cfg = draw(small_configs())
    M = draw(st.integers(1, 60))
    coord = st.just(0) | st.integers(0, M - 1)
    return cfg, M, draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=24))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cell_points())
def test_cell_membership_matches_fraction_stripe_oracle(case):
    # the point (u + iv)/M * D of the cell, against the Fraction stripe test
    cfg, M, points = case
    report = uncovered_region(cfg, obstruction_m_max=1)
    D = GaussianRational(cfg.period)
    for u, v in points:
        z = GaussianRational(GaussianInt(u, v), M) * D
        assert report._cell_contains(u, v, M) == _stripe_uncovered(cfg, z), (u, v, M)


def test_obstruction_margin_matches_fraction_formula():
    # every gcd-normalized (a, b, m) with m <= 8, against the Fraction margin
    # min over g of the circle distance of (g.re*a - g.im*b)/m mod 1
    for norm in (5, 13, 25, 65, 325):
        gs = gaussian_ints_of_norm(norm)
        for m in range(1, 9):
            for a in range(m):
                for b in range(m):
                    if math.gcd(a, b, m) != 1:
                        continue
                    values = [F(g.re * a - g.im * b, m) % 1 for g in gs]
                    margin = min(min(v, 1 - v) for v in values)
                    for eps in (F(1, 8), F(1, 4), F(1, 3)):
                        assert verify_obstruction(a, b, m, norm, eps) == (margin >= eps, margin)
        for eps in (F(1, 8), F(2, 9), F(1, 4), F(3, 10), F(1, 3)):
            want = []
            for m in range(1, 9):
                for a in range(m):
                    for b in range(m):
                        if math.gcd(a, b, m) == 1:
                            ok, margin = verify_obstruction(a, b, m, norm, eps)
                            if ok:
                                want.append(((a, b, m), margin))
            want.sort(key=lambda item: (-item[1], item[0]))
            assert obstruction_catalog(eps, 8, norm) == want


def test_certificate_error_is_runtime_and_arithmetic_error():
    assert issubclass(covering.CertificateError, RuntimeError)
    assert issubclass(covering.CertificateError, ArithmeticError)
    with pytest.raises(covering.CertificateError):
        covering._split_slabs([(0, 0), (1, 0), (1, 1), (0, 1)], [0, 2, 2, 0], 1, 4)


def test_no_assert_statements_in_source():
    # checks must survive python -O, so none may be an assert statement
    src = Path(covering.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, f"{path.name}: assert at lines {found}"


def test_rationality_monotone_in_refinement():
    # doubling the refinement only adds candidate lattice points, so the
    # per-polygon distances cannot grow
    cfg = CoveringConfig(theta_set(1), F(1, 4), P5BAR.generator * P13BAR.generator)
    coarse = rationality_check(cfg, 2)
    fine = rationality_check(cfg, 4)
    assert fine.polygon_count == coarse.polygon_count
    assert fine.max_distance_sq <= coarse.max_distance_sq
    for d_fine, d_coarse in zip(fine.distances_sq, coarse.distances_sq):
        assert d_fine <= d_coarse


def test_report_serialization():
    report = uncovered_region(figure_config())
    lines = report.report_lines()
    assert lines[0] == "kind=cover"
    assert any(line.startswith("polygon 0 ") for line in lines)
    assert any(line.startswith("obstruction ") for line in lines)
    assert lines == uncovered_region(figure_config()).report_lines()
