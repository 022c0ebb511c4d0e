"""The float disk cover that illustrates the irrational step theta'(n, N):
the near-degenerate irrational rotation triple, certified disk coverage on a
grid with exactly checked witnesses, and the scan over (n, N).

This is the one module that imports numpy; the exact certificates live in
``covering``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .gaussian import GaussianRational, exact_gaussian_rational, theta_power, theta_set

__all__ = [
    "DiskCoverReport",
    "irrational_triple",
    "theta_prime",
    "certified_disk_cover",
    "disk_cover_scan",
]


# ---------------------------------------------------------------------------
# the irrational rotation triple
# ---------------------------------------------------------------------------


def irrational_triple(n: int) -> tuple[complex, complex, complex]:
    """Unit complex numbers (z1, z2, 1) with n*(z1 + z2) = 1: the degenerate
    triangle trick that forces irrational rotation angles."""
    if n < 1:
        raise ValueError("triangle parameter must be positive")
    re = 1.0 / (2 * n)
    im = math.sqrt(1.0 - re * re)
    z1 = complex(re, im)
    return z1, z1.conjugate(), complex(1.0, 0.0)


def theta_prime(n: int, N: int) -> list[complex]:
    """The three rotated copies of the rational rotation grid: 3*(N+1)**2
    floating unit complexes (duplicates kept)."""
    if n < 1 or N < 0:
        raise ValueError("need n >= 1 and N >= 0")
    zetas = irrational_triple(n)
    grid = [complex(t) for t in theta_set(N)]
    return [zeta * t for zeta in zetas for t in grid]


# ---------------------------------------------------------------------------
# certified disk coverage
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiskCoverReport:
    """Outcome of a grid certification run over a disk.

    ``pitch`` is the cell side of the last round run and ``failing_count``
    the number of cells at that pitch that no rotation covers; ``certified``
    means there are none.  ``witness`` is None or an uncovered point: the
    centre z of a failing cell of any level the run tested, its last round
    included, exact as a Gaussian rational with a power-of-two denominator,
    that lies in the disk and outside every open stripe of every rotation;
    it ends the run at its level.  It proves that the rotations miss the
    disk, so no refinement could certify it; it is checked exactly (see
    ``_clear``), also against the decimal literals that the float half-width
    and radius round.  A report holds these scalars and no cell; they are
    all that the CLI prints."""

    certified: bool
    pitch: float
    rounds_used: int
    cells_checked: int
    failing_count: int
    witness: GaussianRational | None


def _level_size(hx: np.ndarray, hy: np.ndarray) -> int:
    """The number of cells of a level closed under z -> -z (cell k is the
    negative of cell size - 1 - k) whose first half is ``hx, hy``; a last
    cell (0, 0) is the level's middle cell, its own mirror."""
    m = hx.size
    return 2 * m - int(m > 0 and hx[-1] == hy[-1] == 0)


def _mirrored_slice(h: np.ndarray, size: int, a: int, b: int) -> np.ndarray:
    """One coordinate of the cells a..b-1 of a level of ``size`` cells closed
    under z -> -z, given that coordinate ``h`` of its first half.  Cell
    i >= h.size is ``0.0 - h[size - 1 - i]``: ``0.0 - x`` keeps a +0.0
    coordinate +0.0, as the whole level has it."""
    m = h.size
    if b <= m:
        return h[a:b]
    mirrored = np.subtract(0.0, h[size - b:size - max(a, m)][::-1])
    return np.concatenate((h[a:m], mirrored)) if a < m else mirrored


def _children(hx: np.ndarray, hy: np.ndarray, off: float):
    """The first half of the children of the level whose first half is
    ``hx, hy``, as ``(size, cells)`` with ``cells(a, b)`` its cells a..b-1:
    the (-,-) child of every cell of the level, then the (+,-) child, each
    ``off`` from the parent along both axes.  The (-,+) and (+,+) children
    are their mirror images."""
    size = _level_size(hx, hy)

    def cells(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        xs, ys = [], []
        for first, dx in ((0, -off), (size, off)):
            i, j = max(a - first, 0), min(b - first, size)
            if i < j:
                xs.append(_mirrored_slice(hx, size, i, j) + dx)
                ys.append(_mirrored_slice(hy, size, i, j) - off)
        if len(xs) == 1:
            return xs[0], ys[0]
        return np.concatenate(xs), np.concatenate(ys)

    return 2 * size, cells


def _failing_level(
    xs: np.ndarray, ys: np.ndarray, reach_sq: float, rotations: list[complex], slack: float,
) -> tuple[np.ndarray, np.ndarray, int]:
    """One refinement level: the cells whose center lies within the disk's
    reach (``x*x + y*y <= reach_sq``) and that no rotation holds deeper than
    ``slack`` inside a stripe, in their given order, and the number of cells
    in the disk.

    The in-disk test and every rotation's stripe test AND into one mask,
    computed with in-place ufuncs in buffers allocated once per call.  The
    cells are compacted only when fewer than half of them are still alive,
    and once at the end.  Once the live cells times the rotations left are
    at most ``_BATCH``, the live cells are compacted and those rotations
    tested in one 2-D pass, whose ``np.fmin`` over the rotations is the
    least distance.  Each cell goes through the same float operations as
    when every rotation is tested on every cell, so the mask is that of
    separate passes.  The test is ``~(d < slack)``: a rotation with a NaN
    part covers no cell, and ``np.fmin`` passes over its NaN."""
    v, w = np.empty((2, xs.size))
    hit, alive = np.empty((2, xs.size), dtype=bool)
    np.multiply(xs, xs, out=v)
    np.multiply(ys, ys, out=w)
    np.add(v, w, out=v)
    np.less_equal(v, reach_sq, out=alive)
    checked = live = int(np.count_nonzero(alive))
    for i, t in enumerate(rotations):
        if live == 0:
            break
        batch = live * (len(rotations) - i) <= _BATCH
        if batch or 2 * live < xs.size:
            keep = np.flatnonzero(alive)
            xs, ys = xs.take(keep), ys.take(keep)
            v, w, hit, alive = v[:live], w[:live], hit[:live], alive[:live]
            alive.fill(True)
        if batch:  # the rest at once, as a live x rotations table
            rest = np.array(rotations[i:], dtype=complex)
            d = np.multiply.outer(xs, rest.real)
            e = np.multiply.outer(ys, rest.imag)
            np.subtract(d, e, out=d)
            np.rint(d, out=e)
            np.subtract(d, e, out=d)
            np.abs(d, out=d)
            np.fmin.reduce(d, axis=1, out=v)
        else:
            np.multiply(xs, t.real, out=v)
            np.multiply(ys, t.imag, out=w)
            np.subtract(v, w, out=v)
            np.rint(v, out=w)
            np.subtract(v, w, out=v)
            np.abs(v, out=v)
        np.less(v, slack, out=hit)
        np.greater(alive, hit, out=alive)  # alive and not hit
        live = int(np.count_nonzero(alive))
        if batch:
            break
    keep = np.flatnonzero(alive)
    return xs.take(keep), ys.take(keep), checked


# cells per call of _failing_level: a block's centers and its two float64
# work buffers take 1 MiB and its two masks 64 KiB, which stay in a 2 MiB
# per-core L2 cache
_BLOCK = 2**15
# live cells times rotations left at or below which _failing_level tests the
# rest of a block's rotations in one 2-D pass: its two float64 tables take
# 32 KiB, and a pass per rotation would pay numpy's per-call overhead on
# short arrays
_BATCH = 2048


def _reach_and_slack(epsilon: float, radius: float, pitch: float) -> tuple[float, float]:
    """The squared reach and the slack of ``_failing_level`` for cells of
    side ``pitch``: radius and epsilon moved by the cell's half-diagonal."""
    half_diag = pitch * math.sqrt(2) / 2
    return (radius + half_diag) ** 2, epsilon - half_diag


def _failing_half(
    size: int, cells, epsilon: float, radius: float, pitch: float, rotations: list[complex],
    exact: list, tested: list[complex] | None = None, last: bool = False,
) -> tuple[np.ndarray, np.ndarray, int, int, GaussianRational | None]:
    """``_failing_level`` on the first half of a level of cells of side
    ``pitch``, closed under z -> -z, in blocks of ``_BLOCK`` consecutive
    cells, all full but the last: the failing cells, the blocks' survivors
    joined, the level's failing and in-disk counts and its witness.  The
    half has ``size`` cells and ``cells(a, b)`` makes its cells a..b-1, so a
    level is never held whole.  A middle cell (0, 0), its own mirror and in
    the disk (reach_sq > 0), ends the half.

    The cells are tested with ``tested`` (default: ``rotations``).  The
    level is searched for a witness in the same pass: each block's
    survivors go to ``_witness`` with ``rotations``, every rotation of the
    step, and ``exact``, the same rotations in the form ``_clear`` reads,
    until one is confirmed; the witness is None when none is.  With
    ``last`` no survivor is kept, only counted: the failing cells returned
    are empty."""
    reach_sq, slack = _reach_and_slack(epsilon, radius, pitch)
    fx, fy, failing, checked, witness = [np.empty(0)], [np.empty(0)], 0, 0, None
    # with ``last``, each block's survivors live until the next block's
    # replace them: freed at once, they left the heap top free, and the
    # allocator gave it back to the system only for the next block to fault
    # it in again
    for a in range(0, size, _BLOCK):
        x, y, n = _failing_level(*cells(a, min(a + _BLOCK, size)), reach_sq,
                                 rotations if tested is None else tested, slack)
        if witness is None and x.size:
            witness = _witness(x, y, epsilon, radius, rotations, exact)
        failing += _level_size(x, y)  # only the middle cell lies at (0, 0)
        checked += n
        if not last:
            fx.append(x)
            fy.append(y)
    middle = size > 0 and all(a[0] == 0 for a in cells(size - 1, size))
    return np.concatenate(fx), np.concatenate(fy), failing, 2 * checked - middle, witness


# bits of the enclosure sqrt(4n^2 - 1) in [s, s + 1] / 2**_ROOT_BITS that
# ``_clear`` uses for the irrational rotations
_ROOT_BITS = 64


def _rotation_form(theta: GaussianRational, n: int = 0, sign: int = 0, root: int = 0):
    """zeta * theta in the form ``_clear`` reads, for zeta = 1 (sign 0) or
    zeta = (1 + sign*i*sqrt(4n^2 - 1))/(2n) (sign +-1), ``root`` enclosing
    the square root: (theta + sign*i*theta*sqrt(4n^2 - 1))/(2n)."""
    a, b, c = theta.num.re, theta.num.im, theta.den
    if sign == 0:
        return a, b, 0, 0, c, 0
    return a, b, -sign * b, sign * a, 2 * n * c, root


def _clear(x: float, y: float, radius: Fraction, clearance: Fraction, exact) -> bool:
    """Whether the point x + iy, exact as floats are, lies in the disk
    |z| <= radius and at least ``clearance`` from the nearest integer in
    Re(z*t) for every rotation t of ``exact``, decided in integers.

    A rotation is (ar, ai, br, bi, d, s): t = (A + B*sqrt(m))/d with
    Gaussian integers A = ar + ai*i and B = br + bi*i, and sqrt(m) enclosed
    in [s, s + 1] / 2**_ROOT_BITS (B = 0 for a rational rotation); None
    covers nothing.  With z = (X + iY)/2**k, Re(z*t) lies in
    [lo, lo + |Q|] / (d * 2**(k + _ROOT_BITS)), where P = Re((X + iY)*A),
    Q = Re((X + iY)*B) and lo = P*2**_ROOT_BITS + Q*s + min(Q, 0); the whole
    interval must keep ``clearance`` from the integers around it."""
    (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
    den = max(xd, yd)  # both are powers of two
    X, Y = xn * (den // xd), yn * (den // yd)
    if (X * X + Y * Y) * radius.denominator ** 2 > (radius.numerator * den) ** 2:
        return False
    cn, cd = clearance.numerator, clearance.denominator
    for form in exact:
        if form is None:
            continue
        ar, ai, br, bi, d, s = form
        q = X * br - Y * bi
        lo = ((X * ar - Y * ai) << _ROOT_BITS) + q * s + min(q, 0)
        span = d * den << _ROOT_BITS
        k = lo // span
        if (lo - k * span) * cd < cn * span or ((k + 1) * span - lo - abs(q)) * cd < cn * span:
            return False
    return True


def _witness(xs, ys, epsilon: float, radius: float, rotations, exact):
    """The first of a block's survivors ``xs, ys`` that lies in the disk and
    at least ``epsilon`` from the nearest integer under every one of
    ``rotations`` in floats (``_failing_level`` at reach R**2 and slack
    eps) and that ``_clear`` confirms for clearance eps + ulp(eps) within
    radius R - ulp(R), which also hold for the decimal literals that round to
    the floats eps and R: a Gaussian rational, or None.  A candidate that
    ``_clear`` rejects is passed over."""
    xs, ys, _ = _failing_level(xs, ys, radius * radius, rotations, epsilon)
    if not xs.size:
        return None
    clearance = Fraction(epsilon) + Fraction(math.ulp(epsilon))
    inside = Fraction(radius) - Fraction(math.ulp(radius))
    for x, y in zip(xs.tolist(), ys.tolist()):
        if _clear(x, y, inside, clearance, exact):
            return GaussianRational.from_fractions(x, y)
    return None


def _grid(radius: float, pitch: float):
    """The first half of the grid level, as ``_children`` gives a level's
    children: cell k of the raveled meshgrid of the centred grid."""
    n = max(1, math.ceil(2 * radius / pitch))
    centers = pitch * (np.arange(n) - (n - 1) / 2)

    def cells(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        row, col = np.divmod(np.arange(a, b), n)
        return centers.take(col), centers.take(row)

    return (n * n + 1) // 2, cells


# the most grid columns (and rows) a disk cover lays out: 2**40 cells, more
# than any scan could test, whose centres and cell indices still fit numpy's
# arrays and int64
_MAX_COLUMNS = 2**20


def _disk_parameters(epsilon, radius, pitch, refine_rounds: int) -> tuple[float, float, float]:
    """``(epsilon, radius, pitch)`` as floats, once checked, before any
    cell is made."""
    if refine_rounds < 0:
        raise ValueError(f"refine_rounds must be at least 0, got {refine_rounds}")
    eps, R, h = float(epsilon), float(radius), float(pitch)
    for name, value in (("epsilon", eps), ("radius", R), ("pitch", h)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not 0 < eps < 0.5:
        raise ValueError("stripe half-width must lie in (0, 1/2)")
    if R <= 0 or h <= 0:
        raise ValueError("radius and pitch must be positive")
    if eps - h * math.sqrt(2) / 2 <= 0:
        raise ValueError("pitch too coarse for this stripe half-width")
    columns = 2 * R / h
    if not math.isfinite(columns):
        raise ValueError("grid too large: 2 * radius / pitch must be finite")
    if columns > _MAX_COLUMNS:
        raise ValueError(f"grid too large: 2 * radius / pitch must be at most "
                         f"{_MAX_COLUMNS}, got {columns:.6g}")
    return eps, R, h


def _refined(fx, fy, in_disk: int, witness, eps: float, R: float, h: float,
             rotations: list[complex], exact: list, refine_rounds: int) -> DiskCoverReport:
    """The report of a run whose grid level left the first half ``fx, fy``
    failing out of ``in_disk`` grid cells in the disk, and named ``witness``
    (None or a Gaussian rational), after up to ``refine_rounds`` rounds that
    split each failing cell into four.  Each round's level is searched for a
    witness as its cells are tested (``_failing_half``, with ``exact`` the
    rotations in the form ``_clear`` reads), and a level that holds one ends
    the run.  Each round but the last keeps its failing half for the next;
    the last only counts its failing cells.  The report keeps no cell."""
    checked, failing, rounds_used = in_disk, _level_size(fx, fy), 0
    while witness is None and failing and rounds_used < refine_rounds:
        h /= 2
        rounds_used += 1
        fx, fy, failing, cells, witness = _failing_half(
            *_children(fx, fy, h / 2), eps, R, h, rotations, exact,
            last=rounds_used == refine_rounds)
        checked += cells
    return DiskCoverReport(
        certified=failing == 0,
        pitch=h,
        rounds_used=rounds_used,
        cells_checked=checked,
        failing_count=failing,
        witness=witness,
    )


def certified_disk_cover(
    rotations, epsilon, radius, pitch, refine_rounds: int = 0
) -> DiskCoverReport:
    """Certify that the open stripes of the given rotations cover the disk of
    the given radius: a grid cell is certified when some rotation holds its
    center deeper inside a stripe than the cell's own reach (half-diagonal,
    by 1-Lipschitz continuity of the stripe coordinate).  Each refinement
    round splits every failing cell into four and tests them again.

    Every level, the grid and each round's, the last included, is searched
    for a witness, a failing centre in the disk that no open stripe holds
    (see ``DiskCoverReport``), in the pass that tests its cells: block by
    block, ``_failing_level`` at slack epsilon and reach R**2 proposes the
    block's survivors that no rotation holds within epsilon, and ``_clear``
    confirms one exactly against the rotations as given: a Gaussian rational
    exactly, a float or complex at its binary value; a rotation that is not
    finite covers nothing.  A level that holds a witness ends the run, not
    certified.

    The grid's n = max(1, ceil(2R/pitch)) columns and rows are centred on
    the disk, at pitch * (j - (n - 1)/2); when 2R/pitch is not an integer
    the overhang n * pitch - 2R is split evenly between both sides.  Every
    stripe |x - k| < epsilon is symmetric under x -> -x, so a rotated
    stripe set is symmetric under z -> -z, and so is the disk: a cell and
    its mirror image get the same verdict, bit for bit, since negation is
    exact in floats.  Each level (the grid, then each round's children) is
    closed under negation, its cell k being cell size - 1 - k negated, so
    only its first half goes through ``_failing_level``; the other half's
    failing cells are the mirror images.  That half streams through
    cache-sized blocks, whose cost falls as the rotations cover cells: grid
    cells are made from their index, children from their parent's cells, so
    the grid and a level's children are never held whole.  Each level but
    the last keeps the first half of its failing cells for the next round;
    the last refinement round holds one block's survivors at a time and
    only counts them, and the report keeps counts and the witness only.  So
    memory follows the failing half of the parent of the last level, and is
    given back on return.  An empty rotation list, a parameter out of range
    (epsilon must lie in (0, 1/2)) or a grid of more than 2**20 columns
    (2R/pitch above it, or not finite) is a ValueError."""
    given = list(rotations)
    if not given:
        raise ValueError("at least one rotation is required")
    rots = [complex(t) for t in given]
    eps, R, h = _disk_parameters(epsilon, radius, pitch, refine_rounds)
    exact = []
    for t in given:  # exactly, a float at its binary value; not finite covers nothing
        try:
            exact.append(_rotation_form(exact_gaussian_rational(t)))
        except ValueError:
            exact.append(None)
    fx, fy, _, in_disk, witness = _failing_half(*_grid(R, h), eps, R, h, rots, exact)
    return _refined(fx, fy, in_disk, witness, eps, R, h, rots, exact, refine_rounds)


def disk_cover_scan(epsilon, radius, pitch, n_max: int, N_max: int, refine_rounds: int = 0
                    ) -> list[tuple[int, int, int, bool, int, int, GaussianRational | None]]:
    """Grow the rotation families theta_prime(n, N), n = 1..n_max and
    N = 0..N_max for each n, until one certifies the disk.  Each step is
    ``certified_disk_cover(theta_prime(n, N), epsilon, radius, pitch,
    refine_rounds)``, and its row is ``(n, N, rotations, certified,
    cells_checked, failing_count, witness)``; the rows end with the first
    certified step.

    A step stops at the first level that holds a witness and the scan goes
    on to N + 1: a point of the disk that no open stripe of theta_prime(n, N)
    holds.  Its exact check takes each rotation as the true
    zeta * theta5**r * theta13**s, theta5**r * theta13**s exact and
    sqrt(4n^2 - 1) enclosed by ``isqrt`` to 2**-64, so the witness holds
    for the rotations of the paper, not only for their float images.  A step
    without a witness is undecided when it does not certify.

    Within one n, theta_prime(n, N - 1) is a sub-family of theta_prime(n, N),
    and a cell fails when every rotation fails it.  So each step carries
    only the first half of the grid cells still failing and their in-disk
    count, and tests on them only the 3(2N + 1) rotations new at N, those
    zeta * theta5**r * theta13**s with max(r, s) = N; refinement tests every
    rotation, and so does the witness search: on the grid pass, a block's
    survivors of the new rotations go through ``_failing_level`` at slack
    epsilon and reach R**2 with every rotation of the step, as on every
    level, and then through ``_clear``.  The rows, and the failing cells in
    their order, are those of fresh runs, but for the exact check of a
    witness, which a fresh run makes against the float rotations.  No
    finished step's failing cells are kept.  The parameters are checked as
    by ``certified_disk_cover``; n_max below 1 or N_max below 0 is a
    ValueError."""
    eps, R, h = _disk_parameters(epsilon, radius, pitch, refine_rounds)
    if n_max < 1 or N_max < 0:
        raise ValueError("need n_max >= 1 and N_max >= 0")
    rows = []
    shells = []  # shells[N]: the theta5**r * theta13**s with max(r, s) = N, made once
    for n in range(1, n_max + 1):
        zetas = irrational_triple(n)
        root = isqrt((4 * n * n - 1) << 2 * _ROOT_BITS)
        rots, exact = [], []
        level = _grid(R, h)
        for N in range(N_max + 1):
            if N == len(shells):
                shells.append([theta_power(r, s) for r in range(N + 1) for s in range(N + 1)
                               if max(r, s) == N])
            new = [zeta * complex(theta) for zeta in zetas for theta in shells[N]]
            # the signs of irrational_triple's zeta, conj(zeta) and 1
            exact += [_rotation_form(theta, n, sign, root) for sign in (1, -1, 0)
                      for theta in shells[N]]
            rots += new
            gx, gy, _, count, witness = _failing_half(*level, eps, R, h, rots, exact, new)
            if N == 0:
                in_disk = count
            level = gx.size, lambda a, b, gx=gx, gy=gy: (gx[a:b], gy[a:b])
            report = _refined(gx, gy, in_disk, witness, eps, R, h, rots, exact, refine_rounds)
            rows.append((n, N, len(rots), report.certified, report.cells_checked,
                         report.failing_count, report.witness))
            if report.certified:
                return rows
    return rows
