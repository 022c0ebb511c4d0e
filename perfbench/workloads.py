"""Seeded job schedules for the benchmark workloads.

A job is one ``pyjama`` CLI command run on one generated INI file.  A
workload is a sequence of rounds.  Every round holds the same number of jobs
of each class, so rounds cost about the same whatever the seed.  The seed
picks each job's config from its class catalog.  It deals the catalog like a
shuffled deck, so a run covers the catalog evenly.  The seed also picks the
order of jobs in a round, and the approximation targets, which are drawn
freely.

Catalogs are finite, so the report digests and verdicts of every config in
them can be recorded once (``record.py``) and checked on every run.  Within a
class the configs were chosen to cost about the same, so the latency
quantiles of a run do not depend on which cards the seed deals.

This module imports nothing from ``pyjama``: rotation literals and periods
are computed here with plain integer arithmetic.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("cover-build", "cover-query", "adelic-scan")

# ---------------------------------------------------------------------------
# exact Gaussian rationals as (re, im) pairs of Fractions
# ---------------------------------------------------------------------------

THETA5 = (Fraction(-3, 5), Fraction(4, 5))  # (1+2i)/(1-2i)
THETA13 = (Fraction(-5, 13), Fraction(12, 13))  # (2+3i)/(2-3i)


def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def cpow(x, e: int):
    out = (Fraction(1), Fraction(0))
    for _ in range(e):
        out = cmul(out, x)
    return out


def rotation(r: int, s: int):
    """THETA5**r * THETA13**s, exactly."""
    return cmul(cpow(THETA5, r), cpow(THETA13, s))


def period(r: int, s: int) -> tuple[int, int]:
    """(1-2i)**r * (2-3i)**s: the least period for exponents up to (r, s)."""
    out = (1, 0)
    for g, e in (((1, -2), r), ((2, -3), s)):
        for _ in range(e):
            out = (out[0] * g[0] - out[1] * g[1], out[0] * g[1] + out[1] * g[0])
    return out


def gq_literal(z) -> str:
    """'a/d+b/di' over a common denominator, the CLI's exact literal."""
    d = math.lcm(z[0].denominator, z[1].denominator)
    a, b = z[0].numerator * (d // z[0].denominator), z[1].numerator * (d // z[1].denominator)
    return f"{a}/{d}{'+' if b >= 0 else '-'}{abs(b)}/{d}i"


def gi_literal(g) -> str:
    return f"{g[0]}{g[1]:+d}i"


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    cls: str
    command: str
    ini: str
    flags: tuple[str, ...] = ()
    spec: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def key(self) -> str:
        """Stable identity of the job's input, used by the expected table."""
        text = "\0".join((self.command, self.ini, " ".join(self.flags)))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _ini(section: str, **values) -> str:
    body = "".join(f"{k} = {v}\n" for k, v in values.items())
    return f"[{section}]\n{body}"


def cover_job(cls, rots, eps, *, m_max, audit=0, svg=False, cli_seed=0) -> Job:
    r = max(a for a, _ in rots)
    s = max(b for _, b in rots)
    D = period(r, s)
    values = {
        "rotations": "; ".join(gq_literal(rotation(a, b)) for a, b in rots),
        "epsilon": str(eps),
        "period": gi_literal(D),
        "obstruction_m_max": m_max,
    }
    if audit:
        values["audit_points"] = audit
    flags = ("--seed", str(cli_seed)) if audit else ()
    if not svg:
        flags += ("--no-svg",)
    spec = dict(rots=tuple(rots), eps=Fraction(eps), period=D, m_max=m_max,
                audit=audit, svg=svg)
    return Job(cls, "verify-covering", _ini("covering", **values), flags, spec)


def rationality_job(cls, rots, eps, refinement) -> Job:
    r = max(a for a, _ in rots)
    s = max(b for _, b in rots)
    D = period(r, s)
    ini = _ini("covering",
               rotations="; ".join(gq_literal(rotation(a, b)) for a, b in rots),
               epsilon=str(eps), period=gi_literal(D))
    ini += _ini("rationality", refinement=refinement)
    spec = dict(rots=tuple(rots), eps=Fraction(eps), period=D,
                refinement=refinement)
    return Job(cls, "rationality-check", ini, (), spec)


def obstructions_job(cls, eps, m_max, D) -> Job:
    ini = _ini("obstructions", epsilon=str(eps), m_max=m_max,
               period=gi_literal(D))
    return Job(cls, "obstructions", ini, (),
               dict(eps=Fraction(eps), m_max=m_max, period=D))


def classify_job(cls, a, b, k) -> Job:
    ini = _ini("classify", q=gq_literal((Fraction(a, 7**k), Fraction(b, 7**k))))
    return Job(cls, "classify", ini, (), dict(a=a, b=b, k=k))


def closure_job(cls, p, k, u) -> Job:
    ini = _ini("closure-index", p=p, k=k, u=str(u))
    return Job(cls, "closure-index", ini, (), dict(p=p, k=k, u=Fraction(u)))


def orbit_job(cls, w: complex, m, sweep, gap_below) -> Job:
    literal = f"{w.real!r}{'+' if w.imag >= 0 else '-'}{abs(w.imag)!r}i"
    ini = _ini("orbit", w=literal, m=m, sweep=sweep, gap_below=gap_below)
    return Job(cls, "orbit", ini, (), dict(m=m, sweep=sweep))


def semigroup_job(cls, eta, delta) -> Job:
    ini = _ini("density", kind="semigroup", eta=str(eta), delta=str(delta))
    return Job(cls, "density", ini, (),
               dict(kind="semigroup", eta=Fraction(eta), delta=Fraction(delta)))


def circle_job(cls, theta, t, M, gap_below) -> Job:
    ini = _ini("density", kind="circle", theta=theta, t=t, M=M,
               gap_below=gap_below)
    return Job(cls, "density", ini, (), dict(kind="circle", M=M))


def disk_job(cls, eps, pitch, n_max, N_max, rounds) -> Job:
    ini = _ini("disk", epsilon=eps, radius=20, pitch=pitch, n_max=n_max,
               N_max=N_max, refine_rounds=rounds)
    return Job(cls, "irrational-cover", ini, ("--refine",),
               dict(n_max=n_max, N_max=N_max))


# Below 10**-15 the float64 value of the complex target is no longer within
# the tolerance of the exact literal; the approximation jobs down there are
# the known defect of strong_approx (ROADMAP item 4).
DELTA_EXPONENTS = (3, 6, 9, 12, 18, 20, 24, 28, 32, 36, 40)
APPROX_PRECISION = 64


def _exact_target(rng) -> tuple[Fraction, Fraction]:
    """A point of the open unit square whose coordinates have odd
    denominators, so that float64 does not hold them exactly."""
    out = []
    for _ in range(2):
        d = rng.randrange(101, 10000) | 1
        out.append(Fraction(rng.randrange(1 - d, d), d))
    return tuple(out)


def _padic_target(rng, primes) -> Fraction:
    """A rational that is a unit at every prime in ``primes``."""
    while True:
        x = Fraction(rng.randrange(1, 10000), rng.randrange(1, 1000))
        if all(x.numerator % p and x.denominator % p for p in primes):
            return x


def approx_job(cls, rng, exponent) -> Job:
    z = _exact_target(rng)
    delta = Fraction(1, 10**exponent)
    values = {"z": gq_literal(z), "delta": str(delta)}
    spec = dict(z=z, delta=delta, exponent=exponent)
    if cls == "approx-3way":
        values["target5"] = str(_padic_target(rng, (5, 13)))
        values["target13"] = str(_padic_target(rng, (5, 13)))
        spec["targets"] = {5: Fraction(values["target5"]),
                           13: Fraction(values["target13"])}
    else:
        p = rng.choice((5, 13))
        values["p"] = p
        values["target"] = str(_padic_target(rng, (p,)))
        spec["targets"] = {p: Fraction(values["target"])}
    return Job(cls, "approx", _ini("approx", **values),
               ("--precision", str(APPROX_PRECISION)), spec)


# ---------------------------------------------------------------------------
# class catalogs
# ---------------------------------------------------------------------------

COVER_EPS = (Fraction(1, 5), Fraction(1, 6), Fraction(1, 7), Fraction(2, 9))
# Wide stripes over three rotations: on these configs clipping, not the
# canonicalisation of the clipped pieces, takes most of the time (with two
# rotations, or narrow stripes, ConvexPolygon construction takes more).
BUILD_EPS = (Fraction(2, 5), Fraction(3, 7), Fraction(4, 9), Fraction(9, 20))


def _covers(cls, rotsets, eps_list=COVER_EPS, **kw):
    return [cover_job(cls, rots, eps, **kw) for rots in rotsets for eps in eps_list]


def _cover_build_catalogs():
    return {
        "cover-65": _covers("cover-65", [
            ((0, 0), (0, 1), (1, 0)), ((0, 0), (0, 1), (1, 1)),
            ((0, 0), (1, 0), (1, 1))], BUILD_EPS, m_max=1),
        "cover-325": _covers("cover-325", [
            ((0, 0), (0, 1), (2, 1)), ((0, 0), (1, 0), (2, 1)),
            ((0, 0), (1, 1), (2, 1)), ((0, 0), (1, 1), (2, 0)),
            ((1, 0), (1, 1), (2, 0))], BUILD_EPS, m_max=1),
        "cover-845": _covers("cover-845", [
            ((0, 1), (0, 2), (1, 0)), ((1, 0), (1, 1), (1, 2)),
            ((0, 2), (1, 0), (1, 1))], BUILD_EPS, m_max=1),
        "cover-4225": _covers("cover-4225", [
            ((0, 0), (1, 1), (2, 2)), ((0, 1), (1, 2), (2, 1)),
            ((0, 1), (1, 2), (2, 2)), ((1, 0), (1, 2), (2, 0)),
            ((1, 0), (1, 2), (2, 1))], BUILD_EPS, m_max=1),
    }


OBSTRUCTION_PERIODS = ((1, -2), (2, -3), (-4, -7), (-3, -4))


def _cover_query_catalogs():
    svg_eps = COVER_EPS + (Fraction(1, 4), Fraction(3, 10))
    return {
        "obstructions": [
            obstructions_job("obstructions", eps, m_max, D)
            for eps in svg_eps + (Fraction(1, 8),)
            for m_max in (4, 5, 6, 8)
            for D in OBSTRUCTION_PERIODS],
        "svg-5": [cover_job("svg-5", ((0, 0), (1, 0)), eps, m_max=2, audit=64,
                            svg=True, cli_seed=cli_seed)
                  for eps in svg_eps for cli_seed in (1, 2)],
        "svg-13": [cover_job("svg-13", ((0, 0), (0, 1)), eps, m_max=2, audit=64,
                             svg=True, cli_seed=cli_seed)
                   for eps in svg_eps for cli_seed in (1, 2)],
        "svg-25": [cover_job("svg-25", rots, eps, m_max=2, audit=64, svg=True,
                             cli_seed=1)
                   for rots in (((1, 0), (2, 0)), ((0, 0), (2, 0)))
                   for eps in COVER_EPS],
        "query-65": _covers("query-65", [
            ((0, 0), (1, 1)), ((0, 1), (1, 1)), ((1, 0), (1, 1))], m_max=3),
        "query-325": _covers("query-325", [((1, 1), (2, 0))], svg_eps,
                             m_max=3),
        "rationality-65": [
            rationality_job("rationality-65", rots, eps, refinement)
            for rots in (((0, 0), (1, 1)), ((0, 1), (1, 1)))
            for eps in COVER_EPS[:2] for refinement in (2, 3)],
    }


def _adelic_catalogs():
    on_circle = [complex(math.cos(t), math.sin(t)) for t in (0.7, 1.9, 2.6, 4.1)]
    off_circle = [0.3 + 0.2j, 0.5 - 0.4j, 1.3 + 0.6j, -0.8 + 0.9j]
    classify = []
    for k in (1, 2, 3):
        for a, b in ((1, 2), (3, -5), (2, 0), (7, 1), (5, 10), (-4, 13)):
            classify.append(classify_job("classify", a, b, k))
    return {
        "orbit": [orbit_job("orbit", w, m, 20, 0.05)
                  for w in on_circle + off_circle for m in (1, 2)],
        "classify": classify,
        "closure-index": [closure_job("closure-index", p, k, u)
                          for p in (5, 13) for k in (4, 8, 12)
                          for u in (2, Fraction(7, 3), Fraction(3, 7), 6)],
        "density": [semigroup_job("density", Fraction(1, 10**j), delta)
                    for j in (4, 6, 8)
                    for delta in (Fraction(1, 10), Fraction(1, 20))]
        + [circle_job("density", theta, t, M, 0.1)
           for theta in ("-3/5+4/5i", "5/13+12/13i")
           for t, M in (("1", 200), ("1/2+1/2i", 400), ("3/5-4/5i", 300))],
        "disk": [disk_job("disk", eps, pitch, n_max, N_max, 2)
                 for eps, pitch, n_max, N_max in (
                     ("0.2", "0.2", 2, 3), ("0.2", "0.25", 2, 3),
                     ("0.25", "0.1", 1, 3))],
    }


# per-round job counts of every class, in the order rounds list them.  A
# run's tail job (the 11th slowest) falls among the cover-845 jobs on
# cover-build, among the query-325 jobs on cover-query and among the 12 jobs
# of the slowest disk config on adelic-scan.  A run deals these catalogs in
# full, so the tail does not depend on which configs a seed draws.
ROUNDS = {
    "cover-build": (("cover-65", 4), ("cover-325", 4), ("cover-845", 3),
                    ("cover-4225", 1)),
    "cover-query": (("obstructions", 8), ("svg-5", 8), ("svg-13", 1),
                    ("svg-25", 1), ("query-65", 2), ("query-325", 3),
                    ("rationality-65", 1)),
    "adelic-scan": (("approx-1site", len(DELTA_EXPONENTS)),
                    ("approx-3way", len(DELTA_EXPONENTS)), ("orbit", 2),
                    ("classify", 3), ("closure-index", 2), ("density", 2),
                    ("disk", 1)),
}

_CATALOGS = {
    "cover-build": _cover_build_catalogs,
    "cover-query": _cover_query_catalogs,
    "adelic-scan": _adelic_catalogs,
}

# one cheap config per command kind: the untimed warm-up of set-up, and the
# whole schedule of a tiny run
_WARMUPS = {
    "cover-build": lambda: [cover_job("cover-5", ((0, 0), (1, 0)),
                                      Fraction(2, 5), m_max=1)],
    "cover-query": lambda: [
        obstructions_job("obstructions", Fraction(1, 5), 3, (1, -2)),
        cover_job("svg-5", ((1, 0),), Fraction(1, 4), m_max=2, audit=8,
                  svg=True, cli_seed=1),
        cover_job("query-5", ((0, 0), (1, 0)), Fraction(1, 5), m_max=3),
        rationality_job("rationality-5", ((0, 0), (1, 0)), Fraction(1, 5), 2),
    ],
    "adelic-scan": lambda: [
        approx_job("approx-1site", random.Random(0), 9),
        approx_job("approx-3way", random.Random(0), 9),
        orbit_job("orbit", 0.3 + 0.2j, 1, 4, 0.05),
        classify_job("classify", 1, 2, 1),
        closure_job("closure-index", 5, 4, 2),
        semigroup_job("density", Fraction(1, 100), Fraction(1, 10)),
        circle_job("density", "-3/5+4/5i", "1", 50, 0.1),
        disk_job("disk", "0.4", "0.25", 1, 0, 0),
    ],
}


def catalog(workload: str) -> dict[str, list[Job]]:
    return _CATALOGS[workload]()


def warmup_jobs(workload: str) -> list[Job]:
    return _WARMUPS[workload]()


def schedule(workload: str, seed: int, n_rounds: int) -> list[list[Job]]:
    """``n_rounds`` rounds of jobs for ``workload``, a function of ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    decks = {name: [] for name, _ in ROUNDS[workload]}
    cards = catalog(workload)
    rounds = []
    for _ in range(n_rounds):
        jobs = []
        for name, count in ROUNDS[workload]:
            if name.startswith("approx"):
                jobs += [approx_job(name, rng, e) for e in DELTA_EXPONENTS]
                continue
            for _ in range(count):
                if not decks[name]:
                    decks[name] = list(cards[name])
                    rng.shuffle(decks[name])
                jobs.append(decks[name].pop())
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds
