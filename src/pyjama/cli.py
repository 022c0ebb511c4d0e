"""Command-line orchestration: config ingestion, experiment execution,
report persistence, and SVG figure emission.

Every command reads a single INI-style config file (exact serializations
only: rationals as ``p/q``, Gaussian rationals as ``a/d+b/di``), runs one
experiment, writes a versioned report (header line ``pyjama-report v1``)
plus any figures into the output directory, and prints a one-line
``key=value`` summary on stdout.

A config is what ``configparser.ConfigParser(interpolation=None)`` reads,
keys case-sensitive: ``[section]`` headers, ``key = value`` lines split at the
first ``=`` or ``:``, ``#`` and ``;`` comments, blank lines, and deeper
indented continuation lines joined to the value by newlines; ``[DEFAULT]``
keys hold in every section.  Anything else (a line before any header, with
no delimiter or no key, a section or key given twice) exits 2 with
``error=input`` and a message naming the file and the line.

Exit codes: 0 = verified/certified, 1 = checked and found false,
2 = input or precision error, a certificate that failed its own re-check,
an output that could not be written (``error=output``), or any other
exception (``error=internal``).  No traceback is shown.  Nothing is
written on exit 2, but for a failed write, which can leave the files
written before it.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

# every command runs gaussian; each handler imports the other modules it runs
from .gaussian import (
    CertificateError,
    GaussianInt,
    GaussianRational,
    PrecisionError,
    TorsionUnitError,
    exact_gaussian_rational,
)

__all__ = ["RunConfig", "run", "main", "console"]


def __getattr__(name):
    # perfbench's self-check reads ``cli.uncovered_region``; it is looked up
    # anew each time, so it is covering's current binding
    if name != "uncovered_region":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .covering import uncovered_region
    return uncovered_region


_REPORT_HEADER = "pyjama-report v1"


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; together with the input file it makes
    the run fully reproducible (all randomness flows from the seed)."""

    command: str
    input_path: str
    output_dir: str = "."
    seed: int = 0
    precision_k: int | None = None
    refine: bool = False
    svg: bool = True


class InputError(Exception):
    """Malformed config input; the message carries section/field context."""


# ---------------------------------------------------------------------------
# config parsing helpers
# ---------------------------------------------------------------------------


def _load_ini(path: str) -> dict[str, dict[str, str]]:
    """{section: {key: value}} of a config (see the module docstring)."""
    try:
        with open(path, "rb") as handle:  # text mode's newlines, without its wrapper
            lines = handle.read().decode().replace("\r\n", "\n").replace("\r", "\n").split("\n")
    except (OSError, UnicodeError) as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    sections, seen, keys, value, indent = {"DEFAULT": {}}, set(), None, None, 0
    for lineno, line in enumerate(lines, 1):
        text, depth = line.strip(), len(line) - len(line.lstrip())
        if text.startswith(("#", ";")) or not (text or value):
            continue
        if value is not None and (depth > indent or not text):
            value.append(text)  # a blank line counts only before a continuation
            continue
        indent, close = depth, text.rfind("]")
        if text[0] == "[" and close > 1:
            name, value = text[1:close], None
            if name in seen and name != "DEFAULT":
                raise InputError(f"config file {path}, line {lineno}: "
                                 f"section [{name}] given twice")
            seen.add(name)
            keys = sections.setdefault(name, {})
            continue
        eq, colon = text.find("="), text.find(":")
        cut = eq if colon < 0 or 0 <= eq < colon else colon  # the first delimiter
        key = text[:cut].rstrip()
        if keys is None or cut <= 0 or (name, key) in seen:
            problem = ("no [section] header above it" if keys is None
                       else "not a 'key = value' line" if cut <= 0 else f"key '{key}' given twice")
            raise InputError(f"config file {path}, line {lineno}: {problem}")
        seen.add((name, key))
        value = keys[key] = [text[cut + 1:].strip()]
    defaults = sections.pop("DEFAULT")
    return {name: {key: "\n".join(v).rstrip() for key, v in {**defaults, **own}.items()}
            for name, own in sections.items()}


def _number(text: str) -> float:
    try:
        value = float(Fraction(text))
    except (ValueError, ZeroDivisionError):
        value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def _exact_point(text: str) -> GaussianRational | complex:
    """An exact Gaussian-rational literal as itself, or else a finite complex
    float literal with the imaginary unit written ``i`` (such as ``0.3+0.7i``)."""
    try:
        return GaussianRational.parse(text)
    except ValueError:
        literal = text.replace(" ", "")
        value = complex(literal[:-1] + "j" if literal.endswith("i") else literal)
    if not cmath.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


# (reader, what a literal must be) pairs for _parse and _field; a reader
# raises ValueError, ZeroDivisionError or OverflowError on a bad literal
_RATIONAL = (Fraction, "a rational 'p/q' literal")
_INTEGER = (int, "an integer")
_NUMBER = (_number, "a finite number")
_GAUSSIAN = (GaussianRational.parse, "a Gaussian rational 'a/d+b/di' literal")
_POINT = (_exact_point, "a point literal")

_REQUIRED = object()


def _parse(kind, text: str, where: str):
    read, what = kind
    try:
        return read(text)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"{where}: not {what}: {text!r}") from exc


def _field(ini, section: str, key: str, kind=None, default=_REQUIRED):
    """``[section] key`` read by ``kind`` (the raw text when None); a
    missing key takes ``default`` (a literal, or None for no value), and is
    an InputError when it has none."""
    if key in ini.get(section, ()):
        text = ini[section][key].strip()
    elif default is _REQUIRED:
        if section not in ini:
            raise InputError(f"missing section [{section}]")
        raise InputError(f"missing key '{key}' in section [{section}]")
    elif default is None:
        return None
    else:
        text = default
    return text if kind is None else _parse(kind, text, f"[{section}] {key}")


def _least(ini, section: str, key: str, least: int, default=_REQUIRED) -> int:
    """``[section] key`` as an integer of at least ``least``."""
    value = _field(ini, section, key, _INTEGER, default)
    if value < least:
        raise InputError(f"[{section}] {key}: must be at least {least}, got {value}")
    return value


def _period(ini, section: str, default: str) -> GaussianInt:
    period = _field(ini, section, "period", _GAUSSIAN, default)
    if not period.is_gaussian_int():
        raise InputError(f"[{section}] period: must be a Gaussian integer")
    if not period:
        raise InputError(f"[{section}] period: must be a nonzero Gaussian integer")
    return period.to_gaussian_int()


def _prime_site(ini, section: str) -> int:
    p = _field(ini, section, "p", _INTEGER, "5")
    if p not in (5, 13):
        raise InputError(f"[{section}] p: the prime site must be 5 or 13")
    return p


def _checked(section: str, build, *args):
    """build(*args), with a ValueError reported against ``[section]``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise InputError(f"[{section}]: {exc}") from exc


def _covering_config(ini):
    from .covering import CoveringConfig

    rotations = [
        _parse(_GAUSSIAN, part.strip(), "[covering] rotations")
        for part in _field(ini, "covering", "rotations").split(";")
        if part.strip()
    ]
    if not rotations:
        raise InputError("[covering] rotations: empty rotation list")
    epsilon = _field(ini, "covering", "epsilon", _RATIONAL)
    period = _period(ini, "covering", "1")
    return _checked("covering", CoveringConfig, rotations, epsilon, period)


# ---------------------------------------------------------------------------
# command handlers: each returns (verdict, summary_fields, report lines from
# ``kind=`` on) and appends any other (filename, bytes) artifacts; ``run``
# alone turns the verdict into exit 0 or 1, adds the report header, and
# writes the artifacts once the handler has returned
# ---------------------------------------------------------------------------


def _word(value):
    """A bool as ``true`` or ``false``, as reports and summaries spell it;
    any other value as itself."""
    return str(value).lower() if isinstance(value, bool) else value


def _csv(header, rows) -> bytes:
    # csv.writer's CRLF rows: no field here (ints, floats, Fractions, names) needs quoting
    return "".join(",".join(map(str, row)) + "\r\n" for row in (header, *rows)).encode()


def _gap_below(ini, section: str, gap: float, fields: dict) -> float | None:
    """The optional ``[section] gap_below``, or None; when it is given,
    ``fields["dense"]``, the command's verdict, says whether ``gap`` is
    below it."""
    threshold = _field(ini, section, "gap_below", _NUMBER, None)
    if threshold is not None:
        fields["dense"] = gap < threshold
    return threshold


def _cmd_verify_covering(config, ini, artifacts):
    from .covering import _margin, uncovered_region

    cover = _covering_config(ini)
    m_max = _least(ini, "covering", "obstruction_m_max", 1, "2")
    report = uncovered_region(cover, obstruction_m_max=m_max)
    lines = report.report_lines()

    audit_points = _least(ini, "covering", "audit_points", 0, "0")
    mismatches = 0
    if audit_points > 0:
        import random

        rng = random.Random(config.seed)
        grid = 8 * cover.period.norm()
        p, q = cover.epsilon.numerator, cover.epsilon.denominator
        # (u + iv)/grid*D is uncovered when its margin under each D*theta meets eps
        forms = [(g.re, g.im) for g in ((t * cover.period).num for t in cover.rotations)]
        for _ in range(audit_points):
            u, v = rng.randrange(grid), rng.randrange(grid)
            direct = _margin(u, v, grid, forms) * q >= p * grid
            mismatches += report._cell_contains(u, v, grid) != direct
        lines.append(f"audit points={audit_points} seed={config.seed} "
                     f"mismatches={mismatches}")

    if config.svg:
        from .svg import render_svg

        artifacts.append(("cover.svg", render_svg(report).encode("utf-8")))
    covered = not report.pieces
    fields = {
        "covered": covered,
        "uncovered_pieces": len(report.pieces),
        "area": report.total_uncovered_area,
        "obstructions": len(report.obstruction_matches),
    }
    if audit_points:
        fields["audit_mismatches"] = mismatches
    return covered, fields, lines


def _cmd_obstructions(config, ini, artifacts):
    from .covering import obstruction_catalog

    epsilon = _field(ini, "obstructions", "epsilon", _RATIONAL)
    m_max = _least(ini, "obstructions", "m_max", 1)
    norm = _period(ini, "obstructions", "1-2i").norm()
    entries = _checked("obstructions", obstruction_catalog, epsilon, m_max, norm)
    lines = [
        "kind=obstructions",
        f"epsilon={epsilon}",
        f"m_max={m_max}",
        f"period_norm={norm}",
    ]
    # the catalog keeps only the tuples whose exact margin meets epsilon
    for (a, b, m), margin in entries:
        lines.append(f"obstruction a={a} b={b} m={m} margin={margin} verified=true")
    return bool(entries), {"count": len(entries)}, lines


def _cmd_irrational_cover(config, ini, artifacts):
    # imported here so that no other command pays numpy's import (about
    # 0.15 s and 13 MiB on a shared 2-vCPU host)
    from .disk import disk_cover_scan

    epsilon = _field(ini, "disk", "epsilon", _NUMBER)
    radius = _field(ini, "disk", "radius", _NUMBER)
    pitch = _field(ini, "disk", "pitch", _NUMBER)
    n_max = _least(ini, "disk", "n_max", 1)
    N_max = _least(ini, "disk", "N_max", 0)
    rounds = 0
    if config.refine:
        rounds = _least(ini, "disk", "refine_rounds", 0, "3")
    lines = [
        "kind=disk-cover",
        f"epsilon={epsilon}",
        f"radius={radius}",
        f"pitch={pitch}",
        f"refine_rounds={rounds}",
    ]
    rows = _checked("disk", disk_cover_scan, epsilon, radius, pitch, n_max, N_max, rounds)
    for n, N, rotations, certified, cells, failing, witness in rows:
        # a witness is an uncovered point of the disk: the step is proven lost
        verdict = "true" if certified else f"false witness={'none' if witness is None else witness}"
        lines.append(
            f"scan n={n} N={N} rotations={rotations} "
            f"certified={verdict} "
            f"cells={cells} "
            f"failing={failing}"
        )
    n, N, _, certified, *_ = rows[-1]
    fields = {"certified": certified}
    if certified:
        lines.append(f"certified_pair n={n} N={N}")
        fields.update(n=n, N=N)
    return certified, fields, lines


def _cmd_rationality_check(config, ini, artifacts):
    from .covering import rationality_check

    cover = _covering_config(ini)
    refinement = _field(ini, "rationality", "refinement", _INTEGER, "2")
    report = _checked("rationality", rationality_check, cover, refinement)
    lines = [
        "kind=rationality",
        f"refinement={report.refinement}",
        f"polygon_count={report.polygon_count}",
        f"max_distance_sq={report.max_distance_sq}",
        f"within_bound={_word(report.within_bound)}",
        f"period_norm={report.period_norm}",
        f"threshold={report.threshold}",
        f"period_exceeds_threshold={_word(report.period_exceeds_threshold)}",
    ]
    for index, dist in enumerate(report.distances_sq):
        lines.append(f"polygon {index} distance_sq={dist}")
    fields = {"within_bound": report.within_bound, "max_distance_sq": report.max_distance_sq}
    return report.within_bound, fields, lines


def _cmd_orbit(config, ini, artifacts):
    from .solenoid import float_orbit_rows, orbit_max_gap

    w = complex(_field(ini, "orbit", "w", _POINT))
    m = _field(ini, "orbit", "m", _INTEGER, "1")
    sweep = _field(ini, "orbit", "sweep", _INTEGER, "30")
    rows = _checked("orbit", float_orbit_rows, w, m, sweep)
    gap = orbit_max_gap(rows)
    artifacts.append(("orbit.csv", _csv(["r", "s", "value"], rows)))  # str(float) is its repr
    lines = [
        "kind=orbit",
        f"w={w}",
        f"m={m}",
        f"sweep={sweep}",
        f"samples={len(rows)}",
        f"max_gap={gap}",
    ]
    fields = {"max_gap": gap, "samples": len(rows)}
    threshold = _gap_below(ini, "orbit", gap, fields)
    if threshold is not None:
        lines += [f"gap_below={threshold}", f"dense={_word(fields['dense'])}"]
    return fields.get("dense", True), fields, lines


def _cmd_classify(config, ini, artifacts):
    from .solenoid import classify_point, period_exponent

    q = _field(ini, "classify", "q", _GAUSSIAN)
    result = _checked("classify", classify_point, q)
    periodic = result.is_periodic
    lines = [
        "kind=classify",
        f"q={q}",
        "torsion=true",
        f"classification={result.kind}",
        f"periodic={_word(periodic)}",
        f"abs5={result.abs_p5}",
        f"abs13={result.abs_p13}",
    ]
    fields = {"classification": result.kind, "periodic": periodic}
    if periodic:
        m = period_exponent(q)
        lines.append(f"m={m}")
        fields["m"] = m
    return True, fields, lines


def _cmd_density(config, ini, artifacts):
    from .approx import circle_density, semigroup_density

    kind = _field(ini, "density", "kind", default="semigroup")
    if kind == "semigroup":
        eta = _field(ini, "density", "eta", _RATIONAL)
        delta = _field(ini, "density", "delta", _RATIONAL)
        report = _checked("density", semigroup_density, eta, delta)
        fields = {"kind": kind, "max_gap": report.max_gap, "dense": bool(report.is_dense)}
    elif kind == "circle":
        theta = _field(ini, "density", "theta", _GAUSSIAN)
        t = _field(ini, "density", "t", _POINT, "1")
        M = _field(ini, "density", "M", _INTEGER)
        report = _checked("density", circle_density, theta, t, M)
        fields = {"kind": kind, "max_gap": report.max_gap}  # a float: str is repr
        _gap_below(ini, "density", report.max_gap, fields)
    else:
        raise InputError(f"[density] kind: unknown density kind {kind!r}")
    rows = report.csv_rows()
    samples = ((f"sample_{i}", v) for i, v in enumerate(report.sample))
    artifacts.append(("density.csv", _csv(["field", "value"], [*rows, *samples])))
    lines = ["kind=density", f"flavor={kind}", *(f"{k}={v}" for k, v in rows)]
    return fields.get("dense", True), fields, lines


def _cmd_approx(config, ini, artifacts):
    from .approx import strong_approx, strong_approx_3way
    from .padic import embed

    z = _field(ini, "approx", "z", _POINT)
    delta = _field(ini, "approx", "delta", _RATIONAL)
    precision = 16 if config.precision_k is None else config.precision_k
    lines = ["kind=approx", f"z={z}", f"delta={delta}"]
    z = exact_gaussian_rational(z)  # a float literal at its exact binary value
    # (key, prime site) of each target: both sites, or the one site p
    if "target5" in ini["approx"] or "target13" in ini["approx"]:
        sites, build = [("target5", 5), ("target13", 13)], strong_approx_3way
    else:
        p = _prime_site(ini, "approx")
        sites, build = [("target", p)], strong_approx
        lines.append(f"p={p}")
    # a missing target is reported before a malformed one
    texts = [_field(ini, "approx", key) for key, _ in sites]
    targets = [embed(_parse(_RATIONAL, text, f"[approx] {key}"), p, precision)
               for (key, p), text in zip(sites, texts)]
    q = _checked("approx", build, z, *targets, delta)
    lines += [f"{key}={text}" for (key, _), text in zip(sites, texts)]
    lines += [f"q={q}", f"residual_complex={abs(q - z)!r}"]
    # residual_5 and residual_13, or residual_padic at the one site
    lines += [f"residual_{key[6:] or 'padic'}={embed(q, p, precision).distance(target)}"
              for (key, p), target in zip(sites, targets)]
    lines.append("verified=true")
    return True, {"q": str(q).replace(" ", ""), "verified": True}, lines


def _cmd_closure_index(config, ini, artifacts):
    from .padic import closure_index, embed

    p = _prime_site(ini, "closure-index")
    k = (_least(ini, "closure-index", "k", 1, "4")
         if config.precision_k is None else config.precision_k)
    u_text = _field(ini, "closure-index", "u")
    index = closure_index(embed(_parse(_RATIONAL, u_text, "[closure-index] u"), p, k))
    lines = [
        "kind=closure-index",
        f"p={p}",
        f"k={k}",
        f"u={u_text}",
        f"index={index}",
    ]
    return True, {"index": index, "k": k}, lines


_DISPATCH = {
    "verify-covering": _cmd_verify_covering,
    "obstructions": _cmd_obstructions,
    "irrational-cover": _cmd_irrational_cover,
    "rationality-check": _cmd_rationality_check,
    "orbit": _cmd_orbit,
    "classify": _cmd_classify,
    "density": _cmd_density,
    "approx": _cmd_approx,
    "closure-index": _cmd_closure_index,
}
COMMANDS = tuple(_DISPATCH)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def _summary(command: str, code: int, fields: dict) -> str:
    return " ".join([f"command={command}", f"exit={code}",
                     *(f"{key}={_word(value)}" for key, value in fields.items())])


# (exception, summary tag, message prefix), matched in order: the first row
# an exception is an instance of decides; TorsionUnitError is a ValueError.
# The config reader turns its own OSError into an InputError, so an OSError
# is a failed write of the output
_ERRORS = (
    (InputError, "input", ""),
    (PrecisionError, "precision", "insufficient precision: "),
    (TorsionUnitError, "torsion-unit", ""),
    (CertificateError, "certificate", ""),
    (ValueError, "input", ""),
    (TypeError, "input", ""),
    (OSError, "output", "cannot write output: "),
    (Exception, "internal", "internal: "),  # any other: a fault of the program
)


def run(config: RunConfig) -> int:
    """Execute one command; artifacts are built in memory and written only
    when the run reaches a verdict (exit 0 or 1).  A failed write exits 2
    and can leave the files written before it."""
    if config.command not in _DISPATCH:
        print(_summary(config.command, 2, {"error": "unknown-command"}))
        return 2
    artifacts: list[tuple[str, bytes]] = []
    out_dir = Path(config.output_dir)
    try:
        if config.precision_k is not None and config.precision_k < 1:
            raise InputError(
                f"--precision must be at least 1, got {config.precision_k}")
        ini = _load_ini(config.input_path)
        verdict, fields, lines = _DISPATCH[config.command](config, ini, artifacts)
        report = "\n".join([_REPORT_HEADER, *lines]) + "\n"
        artifacts.append(("report.txt", report.encode("utf-8")))
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, data in artifacts:
            (out_dir / name).write_bytes(data)
    except Exception as exc:  # every row of _ERRORS, whose last is Exception
        tag, prefix = next((tag, prefix) for kind, tag, prefix in _ERRORS
                           if isinstance(exc, kind))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        print(_summary(config.command, 2, {"error": tag}))
        return 2
    fields["report"] = str(out_dir / "report.txt")
    code = 0 if verdict else 1
    print(_summary(config.command, code, fields))
    return code


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pyjama",
        description="Exact covering, solenoid-dynamics and approximation "
                    "experiments for Gaussian rotation configurations.",
    )
    parser.add_argument("command", choices=COMMANDS,
                        help="experiment to run")
    parser.add_argument("--config", required=True, metavar="PATH",
                        dest="input_path",
                        help="INI config file for this command")
    parser.add_argument("--out", default=".", metavar="DIR",
                        dest="output_dir",
                        help="directory for reports and figures")
    parser.add_argument("--seed", type=int, default=0, metavar="N",
                        help="seed for sampled audits")
    parser.add_argument("--precision", type=int, default=None, metavar="K",
                        dest="precision_k",
                        help="p-adic working precision (digits)")
    parser.add_argument("--refine", action="store_true",
                        help="enable grid refinement (disk cover)")
    parser.add_argument("--svg", default=True,
                        action=argparse.BooleanOptionalAction,
                        help="emit SVG figures where applicable")
    return parser


def main(argv=None) -> int:
    return run(RunConfig(**vars(_build_parser().parse_args(argv))))


def console() -> None:
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    console()
