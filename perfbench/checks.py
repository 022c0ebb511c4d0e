"""Output checks for benchmark jobs.

Where ROADMAP pins the bytes of ``report.txt`` (verify-covering,
obstructions, rationality-check, classify, closure-index) the report is
compared with a digest recorded by ``record.py``.  Disk, orbit and
circle-density jobs have their verdict pinned the same way.  On top of that
every kind is re-checked by an oracle written here, with no help from
pyjama:

* covering reports: stripes evaluated in ``Fraction`` on the pieces and on
  sampled points of the period cell, areas, obstruction tuples and the SVG's
  obstruction dots;
* approximations: the complex residual in ``Fraction`` against the exact
  target literal, the p-adic residuals through a digit-by-digit Hensel lift
  of sqrt(-1);
* classification, closure index and semigroup density: recomputed.

``check`` returns None for a correct job and a reason otherwise.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
import xml.etree.ElementTree as ET
from fractions import Fraction

from workloads import rotation

DIGEST_COMMANDS = {"verify-covering", "obstructions", "rationality-check",
                   "classify", "closure-index"}
PINNED_FIELDS = {"orbit": ("dense", "samples"),
                 "irrational-cover": ("certified", "n", "N"),
                 "density": ("dense",)}


class Mismatch(Exception):
    pass


def require(cond, message):
    if not cond:
        raise Mismatch(message)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def summary_fields(summary: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in summary.split() if "=" in part)


def expectation(job, outcome) -> dict:
    """What ``record.py`` stores for a job: its exit code, the digest of its
    report where ROADMAP pins the bytes, and its pinned verdict fields."""
    entry = {"exit": outcome["code"]}
    if job.command in DIGEST_COMMANDS:
        entry["digest"] = digest(outcome["files"].get("report.txt", b""))
    fields = summary_fields(outcome["summary"])
    pinned = PINNED_FIELDS.get(job.command, ())
    if pinned:
        entry["fields"] = {k: fields[k] for k in pinned if k in fields}
    return entry


def check(job, outcome, expected: dict | None) -> str | None:
    if outcome["error"] is not None:
        return outcome["error"]
    if outcome["code"] not in (0, 1):
        return f"exit {outcome['code']}"
    try:
        if job.command != "approx":
            require(expected is not None, "no recorded expectation")
            got = expectation(job, outcome)
            for key, value in expected.items():
                require(got.get(key) == value,
                        f"{key} {got.get(key)!r} != recorded {value!r}")
        _ORACLES[job.command](job, outcome)
    except Mismatch as exc:
        return str(exc)
    except (KeyError, ValueError, IndexError, ET.ParseError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None


def is_known_defect(job, reason: str | None) -> bool:
    """ROADMAP item 4: below float64 resolution of the complex target,
    strong_approx raises RuntimeError or returns a certificate that is only
    true for the float64 value of the target."""
    return (job.command == "approx" and job.spec["exponent"] > 15
            and reason in ("RuntimeError", "inexact complex residual"))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_GQ = re.compile(r"^(-?\d+)/(\d+)([+-])(\d+)/(\d+)i$")
_GI = re.compile(r"^(-?\d+)([+-]\d+)i$")


def parse_gq(text: str) -> tuple[Fraction, Fraction]:
    m = _GQ.match(text)
    if m is None:
        raise ValueError(f"not a Gaussian rational: {text!r}")
    im = Fraction(int(m[4]), int(m[5]))
    return Fraction(int(m[1]), int(m[2])), (im if m[3] == "+" else -im)


def parse_gi(text: str) -> tuple[int, int]:
    m = _GI.match(text)
    if m is None:
        raise ValueError(f"not a Gaussian integer: {text!r}")
    return int(m[1]), int(m[2])


def report_lines(outcome) -> list[str]:
    return outcome["files"]["report.txt"].decode().splitlines()


def header(lines) -> dict[str, str]:
    require(lines[0] == "pyjama-report v1", "bad report header")
    return dict(line.split("=", 1) for line in lines[1:]
                if "=" in line and " " not in line)


def records(lines, tag: str) -> list[dict[str, str]]:
    return [dict(part.split("=", 1) for part in line.split()[1:] if "=" in part)
            for line in lines if line.startswith(tag + " ")]


# ---------------------------------------------------------------------------
# stripes, pieces and obstruction tuples
# ---------------------------------------------------------------------------


def uncovered(point, rotations, eps) -> bool:
    """Whether no open stripe |Re(z * theta) - k| < eps contains the point."""
    x, y = point
    for tr, ti in rotations:
        v = (tr * x - ti * y) % 1
        if min(v, 1 - v) < eps:
            return False
    return True


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class Piece:
    def __init__(self, kind, vertices):
        self.kind = kind
        self.vertices = vertices
        xs = [float(x) for x, _ in vertices]
        ys = [float(y) for _, y in vertices]
        self.box = (min(xs) - 1e-9, max(xs) + 1e-9, min(ys) - 1e-9, max(ys) + 1e-9)

    def area2(self) -> Fraction:
        if self.kind != "polygon":
            return Fraction(0)
        v = self.vertices
        return sum(v[i - 1][0] * v[i][1] - v[i][0] * v[i - 1][1]
                   for i in range(len(v)))

    def contains(self, p) -> bool:
        x0, x1, y0, y1 = self.box
        if not (x0 <= p[0] <= x1 and y0 <= p[1] <= y1):
            return False
        v = self.vertices
        if self.kind == "point":
            return p == v[0]
        if self.kind == "segment":
            (ax, ay), (bx, by) = v
            return (_cross(v[0], v[1], p) == 0 and min(ax, bx) <= p[0] <= max(ax, bx)
                    and min(ay, by) <= p[1] <= max(ay, by))
        return all(_cross(v[i - 1], v[i], p) >= 0 for i in range(len(v)))


def parse_pieces(lines) -> list[Piece]:
    pieces = []
    for rec in records(lines, "polygon"):
        verts = [tuple(Fraction(c) for c in pair.split(","))
                 for pair in rec["vertices"].split(";")]
        pieces.append(Piece(rec["kind"], verts))
    return pieces


def gaussian_ints_of_norm(n: int) -> list[tuple[int, int]]:
    r = math.isqrt(n)
    return [(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1)
            if a * a + b * b == n]


def obstruction_catalog(eps, m_max, n) -> list[tuple[tuple[int, int, int], Fraction]]:
    """Tuples (a, b, m) whose point (a+bi)/m * g keeps circle distance >= eps
    from the integers for every g of norm n, by margin descending."""
    gs = gaussian_ints_of_norm(n)
    found = []
    for m in range(1, m_max + 1):
        for a in range(m):
            for b in range(m):
                if math.gcd(a, b, m) != 1:
                    continue
                margin = min(min(v, 1 - v) for v in
                             (Fraction(g0 * a - g1 * b, m) % 1 for g0, g1 in gs))
                if margin >= eps:
                    found.append(((a, b, m), margin))
    found.sort(key=lambda item: (-item[1], item[0]))
    return found


def _check_cover(job, outcome):
    spec = job.spec
    lines = report_lines(outcome)
    kv = header(lines)
    require(kv["kind"] == "cover", "not a cover report")
    D, eps = spec["period"], spec["eps"]
    N = D[0] ** 2 + D[1] ** 2
    rots = [rotation(a, b) for a, b in spec["rots"]]
    require(Fraction(kv["epsilon"]) == eps and parse_gi(kv["period"]) == D
            and int(kv["period_norm"]) == N
            and [parse_gq(t) for t in kv["rotations"].split(";")] == rots,
            "config echoed wrong")
    pieces = parse_pieces(lines)
    require(len(pieces) == int(kv["uncovered_count"]), "piece count wrong")
    area = sum((p.area2() for p in pieces), Fraction(0)) / 2
    require(area == Fraction(kv["total_uncovered_area"]), "area wrong")
    require(outcome["code"] == (1 if pieces else 0), "verdict wrong")
    fields = summary_fields(outcome["summary"])
    require(fields["covered"] == ("false" if pieces else "true"), "summary verdict")

    rng = random.Random(job.key)
    for piece in rng.sample(pieces, min(len(pieces), 48)):
        n = len(piece.vertices)
        centroid = (sum(x for x, _ in piece.vertices) / n,
                    sum(y for _, y in piece.vertices) / n)
        for point in piece.vertices + [centroid]:
            require(uncovered(point, rots, eps), "piece point lies in a stripe")
    for _ in range(24):
        u = Fraction(rng.randrange(1, 1009), 1009)
        v = Fraction(rng.randrange(1, 1009), 1009)
        z = (u * D[0] - v * D[1], u * D[1] + v * D[0])
        inside = any(p.contains(z) for p in pieces)
        require(inside == uncovered(z, rots, eps),
                "sampled point disagrees with the stripes")

    listed = {(int(r["a"]), int(r["b"]), int(r["m"])): Fraction(r["distance_sq"])
              for r in records(lines, "obstruction")}
    catalog = obstruction_catalog(eps, spec["m_max"], N) if pieces else []
    require(set(listed) == {t for t, _ in catalog}, "obstruction tuples wrong")
    zero = []
    for (a, b, m), dist in listed.items():
        point = (Fraction(a * D[0] - b * D[1], m), Fraction(a * D[1] + b * D[0], m))
        require((dist == 0) == uncovered(point, rots, eps),
                "obstruction distance disagrees with the stripes")
        if dist == 0:
            zero.append(point)

    if spec["audit"]:
        seed = job.flags[job.flags.index("--seed") + 1]
        require(f"audit points={spec['audit']} seed={seed} mismatches=0" in lines,
                "audit line missing or mismatched")
        require(fields["audit_mismatches"] == "0", "audit mismatches")
    if spec["svg"]:
        _check_svg(outcome["files"]["cover.svg"], N, D, zero, bool(pieces))


def _check_svg(data: bytes, N, D, zero_points, has_pieces):
    root = ET.fromstring(data)
    require(root.tag.endswith("svg"), "SVG root element")
    require(root.get("viewBox") == f"0 0 {N} {N}", "SVG viewBox")
    reach = math.isqrt(2 * N) + 4
    dots = 0
    for x0, y0 in zero_points:
        for u in range(-reach, reach + 1):
            for v in range(-reach, reach + 1):
                x = x0 + D[0] * u - D[1] * v
                y = y0 + D[1] * u + D[0] * v
                dots += 0 <= x <= N and 0 <= y <= N
    shapes = [e for e in root.iter() if e.get("fill") == "#000000"
              or e.get("stroke") == "#000000"]
    drawn_dots = sum(1 for e in shapes if e.get("r") == "0.100000")
    require(drawn_dots == dots, f"SVG has {drawn_dots} obstruction dots, "
                                f"expected {dots}")
    require((len(shapes) > drawn_dots) == has_pieces, "SVG uncovered pieces")


def _check_obstructions(job, outcome):
    spec = job.spec
    lines = report_lines(outcome)
    kv = header(lines)
    D = spec["period"]
    N = D[0] ** 2 + D[1] ** 2
    require(kv["kind"] == "obstructions" and int(kv["period_norm"]) == N,
            "obstructions header")
    got = [((int(r["a"]), int(r["b"]), int(r["m"])), Fraction(r["margin"]))
           for r in records(lines, "obstruction")]
    require(all(r["verified"] == "true" for r in records(lines, "obstruction")),
            "unverified obstruction")
    want = obstruction_catalog(spec["eps"], spec["m_max"], N)
    require(got == want, "obstruction catalog wrong")
    require(outcome["code"] == (0 if want else 1), "verdict wrong")


def _check_rationality(job, outcome):
    spec = job.spec
    lines = report_lines(outcome)
    kv = header(lines)
    D = spec["period"]
    N = D[0] ** 2 + D[1] ** 2
    n = spec["refinement"]
    dists = [Fraction(r["distance_sq"]) for r in records(lines, "polygon")]
    worst = max(dists, default=Fraction(0))
    threshold = 40 * n * n + 20 * n
    require(kv["kind"] == "rationality" and int(kv["refinement"]) == n,
            "rationality header")
    require(int(kv["polygon_count"]) == len(dists), "polygon count")
    require(Fraction(kv["max_distance_sq"]) == worst, "max distance")
    require(kv["within_bound"] == str(worst <= 400).lower(), "bound verdict")
    require(int(kv["period_norm"]) == N and int(kv["threshold"]) == threshold,
            "period bookkeeping")
    require(kv["period_exceeds_threshold"] == str(N > threshold**2).lower(),
            "threshold verdict")
    require(outcome["code"] == (0 if worst <= 400 else 1), "verdict wrong")


# ---------------------------------------------------------------------------
# arithmetic oracles
# ---------------------------------------------------------------------------


def _gmul(x, y, n):
    return ((x[0] * y[0] - x[1] * y[1]) % n, (x[0] * y[1] + x[1] * y[0]) % n)


def _gpow(x, e, n):
    out = (1 % n, 0)
    while e:
        if e & 1:
            out = _gmul(out, x, n)
        x = _gmul(x, x, n)
        e >>= 1
    return out


def _order(power, group_order, primes):
    """Order of an element in a group of the given order."""
    order = group_order
    for q in primes:
        while order % q == 0 and power(order // q):
            order //= q
    return order


def _valuation_at(g, pi, p):
    """Exponent of the Gaussian prime pi (of norm p) in the integer g."""
    v = 0
    while True:
        t = (g[0] * pi[0] + g[1] * pi[1], g[1] * pi[0] - g[0] * pi[1])  # g * conj(pi)
        if t[0] % p or t[1] % p:
            return v
        g = (t[0] // p, t[1] // p)
        v += 1


def _check_classify(job, outcome):
    a, b, k = job.spec["a"], job.spec["b"], job.spec["k"]
    kv = header(report_lines(outcome))
    require(kv["classification"] == "periodic" and kv["periodic"] == "true"
            and kv["torsion"] == "true", "7-power torsion points are periodic")
    require(Fraction(kv["abs5"]) == Fraction(1, 5**_valuation_at((a, b), (1, 2), 5)),
            "abs5 wrong")
    require(Fraction(kv["abs13"]) == Fraction(1, 13**_valuation_at((a, b), (2, 3), 13)),
            "abs13 wrong")
    n = 7**k
    group = 48 * 49 ** (k - 1)
    orders = []
    for num, norm in (((-3, 4), 5), ((-5, 12), 13)):
        theta = _gmul(num, (pow(norm, -1, n), 0), n)
        orders.append(_order(lambda e: _gpow(theta, e, n) == (1, 0), group, (2, 3, 7)))
    require(int(kv["m"]) == math.lcm(*orders), "period exponent wrong")
    require(outcome["code"] == 0, "verdict wrong")


def _check_closure(job, outcome):
    p, k, u = job.spec["p"], job.spec["k"], job.spec["u"]
    kv = header(report_lines(outcome))
    mod = p**k
    unit = u.numerator * pow(u.denominator, -1, mod) % mod
    group = (p - 1) * p ** (k - 1)
    primes = [q for q in (2, 3, 5, 13) if group % q == 0]
    order = _order(lambda e: pow(unit, e, mod) == 1, group, primes)
    require(int(kv["index"]) == group // order, "closure index wrong")
    require(int(kv["p"]) == p and int(kv["k"]) == k, "closure header")


def _circular_gap(values):
    values = sorted(values)
    return max([1 - values[-1] + values[0]]
               + [hi - lo for lo, hi in zip(values, values[1:])])


def _check_orbit(job, outcome):
    kv = header(report_lines(outcome))
    sweep = job.spec["sweep"]
    rows = outcome["files"]["orbit.csv"].decode().splitlines()[1:]
    values = [float(row.rsplit(",", 1)[1]) for row in rows]
    require(len(values) == (sweep + 1) ** 2 == int(kv["samples"]), "sample count")
    require(abs(_circular_gap(values) - float(kv["max_gap"])) < 1e-12, "max gap")


def _check_density(job, outcome):
    spec = job.spec
    rows = dict(line.split(",", 1) for line in
                outcome["files"]["density.csv"].decode().splitlines()[1:])
    if spec["kind"] == "circle":
        samples = [float(v) for k, v in rows.items() if k.startswith("sample_")]
        require(len(samples) == spec["M"] + 1, "sample count")
        tau = 2 * math.pi
        gap = _circular_gap([s / tau for s in samples]) * tau
        require(abs(gap - float(rows["max_gap"])) < 1e-9, "max gap")
        return
    eta, delta = spec["eta"], spec["delta"]
    sample = []
    two = eta
    while two <= 1:
        x = two
        while x <= 1:
            sample.append(x)
            x *= 3
        two *= 2
    sample.sort()
    gap = max([sample[0], 1 - sample[-1]]
              + [hi - lo for lo, hi in zip(sample, sample[1:])])
    require(Fraction(rows["max_gap"]) == gap, "semigroup max gap")
    require(rows["dense"] == str(gap <= delta), "semigroup verdict")
    require(outcome["code"] == (0 if gap <= delta else 1), "verdict wrong")


def _check_disk(job, outcome):
    lines = report_lines(outcome)
    scans = records(lines, "scan")
    require(scans, "no scan lines")
    for rec in scans:
        require(int(rec["rotations"]) == 3 * (int(rec["N"]) + 1) ** 2,
                "rotation count")
        require((rec["certified"] == "true") == (rec["failing"] == "0"),
                "certified with failing cells")
    pair = records(lines, "certified_pair")
    last = scans[-1]
    if pair:
        require(last["certified"] == "true" and pair[0] == {"n": last["n"], "N": last["N"]},
                "certified pair")
    require(outcome["code"] == (0 if pair else 1), "verdict wrong")


def _sqrt_neg1(p: int, digits: int) -> int:
    """sqrt(-1) mod p**digits, lifted one digit at a time from the root that
    sends the barred generator (1-2i over 5, 2-3i over 13) to a non-unit."""
    g = {5: (1, -2), 13: (2, -3)}[p]
    x = next(x for x in range(p) if (x * x + 1) % p == 0 and (g[0] + g[1] * x) % p == 0)
    for j in range(1, digits):
        mod = p ** (j + 1)
        x = next(y for y in (x + t * p**j for t in range(p)) if (y * y + 1) % mod == 0)
    return x


def _check_approx(job, outcome):
    spec = job.spec
    lines = report_lines(outcome)
    kv = header(lines)
    require(kv["verified"] == "true" and outcome["code"] == 0, "not verified")
    qr, qi = parse_gq(kv["q"])
    zr, zi = spec["z"]
    delta = spec["delta"]
    require((qr - zr) ** 2 + (qi - zi) ** 2 <= delta * delta,
            "inexact complex residual")
    d = math.lcm(qr.denominator, qi.denominator)
    A, B = qr.numerator * (d // qr.denominator), qi.numerator * (d // qi.denominator)
    for p, target in spec["targets"].items():
        k = 0
        while p**k * delta < 1:
            k += 1
        s = 0
        while d % p ** (s + 1) == 0:
            s += 1
        mod = p ** (k + s)
        x = _sqrt_neg1(p, k + s)
        # v_p((A + B x)/d - target) >= k  <=>  p^(k+s) | (A + B x) td - tn d
        residual = (A + B * x) * target.denominator - target.numerator * d
        require(residual % mod == 0, "inexact p-adic residual")


_ORACLES = {
    "verify-covering": _check_cover,
    "obstructions": _check_obstructions,
    "rationality-check": _check_rationality,
    "classify": _check_classify,
    "closure-index": _check_closure,
    "orbit": _check_orbit,
    "density": _check_density,
    "irrational-cover": _check_disk,
    "approx": _check_approx,
}
