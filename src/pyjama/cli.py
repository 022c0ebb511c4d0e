"""Command-line orchestration: config ingestion, experiment execution,
report persistence, and SVG figure emission.

Every command reads a single INI-style config file (exact serializations
only: rationals as ``p/q``, Gaussian rationals as ``a/d+b/di``), runs one
experiment, writes a versioned report (header line ``pyjama-report v1``)
plus any figures into the output directory, and prints a one-line
``key=value`` summary on stdout.

Exit codes: 0 = verified/certified, 1 = checked and found false,
2 = input or precision error, a certificate that failed its own re-check,
or any other exception (``error=internal``).  Nothing is written on exit 2,
and no traceback is shown.
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import io
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


def _load_ini(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise InputError(f"malformed config file {path}: {exc}") from exc
    return parser


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


def _point(text: str) -> complex:
    return complex(_exact_point(text))


# (reader, what a literal must be) pairs for _parse and _field; a reader
# raises ValueError, ZeroDivisionError or OverflowError on a bad literal
_RATIONAL = (Fraction, "a rational 'p/q' literal")
_INTEGER = (int, "an integer")
_NUMBER = (_number, "a finite number")
_GAUSSIAN = (GaussianRational.parse, "a Gaussian rational 'a/d+b/di' literal")
_POINT = (_point, "a point literal")
_EXACT_POINT = (_exact_point, "a point literal")

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
    if ini.has_section(section) and ini.has_option(section, key):
        text = ini.get(section, key).strip()
    elif default is _REQUIRED:
        if not ini.has_section(section):
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
# command handlers: each returns (exit_code, summary_fields, report lines from
# ``kind=`` on) and appends any other (filename, bytes) artifacts; ``run``
# adds the report header, and writes every artifact only on success
# ---------------------------------------------------------------------------


def _text(lines) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


def _csv(header, rows) -> bytes:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


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
        "covered": str(covered).lower(),
        "uncovered_pieces": len(report.pieces),
        "area": report.total_uncovered_area,
        "obstructions": len(report.obstruction_matches),
    }
    if audit_points:
        fields["audit_mismatches"] = mismatches
    return (0 if covered else 1), fields, lines


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
    return (0 if entries else 1), {"count": len(entries)}, lines


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
    if certified:
        lines.append(f"certified_pair n={n} N={N}")
    fields = {"certified": str(certified).lower()}
    if certified:
        fields.update(n=n, N=N)
    return (0 if certified else 1), fields, lines


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
        f"within_bound={str(report.within_bound).lower()}",
        f"period_norm={report.period_norm}",
        f"threshold={report.threshold}",
        f"period_exceeds_threshold="
        f"{str(report.period_exceeds_threshold).lower()}",
    ]
    for index, dist in enumerate(report.distances_sq):
        lines.append(f"polygon {index} distance_sq={dist}")
    fields = {
        "within_bound": str(report.within_bound).lower(),
        "max_distance_sq": report.max_distance_sq,
    }
    return (0 if report.within_bound else 1), fields, lines


def _cmd_orbit(config, ini, artifacts):
    from .solenoid import float_orbit_rows, orbit_max_gap

    w = _field(ini, "orbit", "w", _POINT)
    m = _field(ini, "orbit", "m", _INTEGER, "1")
    sweep = _field(ini, "orbit", "sweep", _INTEGER, "30")
    rows = _checked("orbit", float_orbit_rows, w, m, sweep)
    gap = orbit_max_gap(rows)
    artifacts.append(("orbit.csv", _csv(
        ["r", "s", "value"], ((r, s, repr(v)) for r, s, v in rows))))
    lines = [
        "kind=orbit",
        f"w={w}",
        f"m={m}",
        f"sweep={sweep}",
        f"samples={len(rows)}",
        f"max_gap={gap!r}",
    ]
    code = 0
    fields = {"max_gap": repr(gap), "samples": len(rows)}
    threshold = _field(ini, "orbit", "gap_below", _NUMBER, None)
    if threshold is not None:
        dense = gap < threshold
        lines.append(f"gap_below={threshold}")
        lines.append(f"dense={str(dense).lower()}")
        fields["dense"] = str(dense).lower()
        code = 0 if dense else 1
    return code, fields, lines


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
        f"periodic={str(periodic).lower()}",
        f"abs5={result.abs_p5}",
        f"abs13={result.abs_p13}",
    ]
    fields = {
        "classification": result.kind,
        "periodic": str(periodic).lower(),
    }
    if periodic:
        m = period_exponent(q)
        lines.append(f"m={m}")
        fields["m"] = m
    return 0, fields, lines


def _cmd_density(config, ini, artifacts):
    from .approx import circle_density, semigroup_density

    kind = _field(ini, "density", "kind", default="semigroup")
    if kind == "semigroup":
        eta = _field(ini, "density", "eta", _RATIONAL)
        delta = _field(ini, "density", "delta", _RATIONAL)
        report = _checked("density", semigroup_density, eta, delta)
        verdict = bool(report.is_dense)
        code = 0 if verdict else 1
        fields = {
            "kind": "semigroup",
            "max_gap": report.max_gap,
            "dense": str(verdict).lower(),
        }
    elif kind == "circle":
        theta = _field(ini, "density", "theta", _GAUSSIAN)
        t = _field(ini, "density", "t", _POINT, "1")
        M = _field(ini, "density", "M", _INTEGER)
        report = _checked("density", circle_density, theta, t, M)
        code = 0
        fields = {"kind": "circle", "max_gap": repr(report.max_gap)}
        threshold = _field(ini, "density", "gap_below", _NUMBER, None)
        if threshold is not None:
            dense = report.max_gap < threshold
            fields["dense"] = str(dense).lower()
            code = 0 if dense else 1
    else:
        raise InputError(f"[density] kind: unknown density kind {kind!r}")
    samples = ((f"sample_{i}", str(v)) for i, v in enumerate(report.sample))
    artifacts.append(("density.csv", _csv(
        ["field", "value"], [*report.csv_rows(), *samples])))
    lines = ["kind=density", f"flavor={kind}"]
    lines.extend(f"{k}={v}" for k, v in report.csv_rows())
    return code, fields, lines


def _cmd_approx(config, ini, artifacts):
    from .approx import strong_approx, strong_approx_3way
    from .padic import embed

    z = _field(ini, "approx", "z", _EXACT_POINT)
    delta = _field(ini, "approx", "delta", _RATIONAL)
    precision = 16 if config.precision_k is None else config.precision_k
    lines = ["kind=approx", f"z={z}", f"delta={delta}"]
    z = exact_gaussian_rational(z)  # a float literal at its exact binary value
    if ini.has_option("approx", "target5") or ini.has_option("approx", "target13"):
        target5_text = _field(ini, "approx", "target5")
        target13_text = _field(ini, "approx", "target13")
        a = embed(_parse(_RATIONAL, target5_text, "[approx] target5"), 5, precision)
        b = embed(_parse(_RATIONAL, target13_text, "[approx] target13"), 13, precision)
        q = _checked("approx", strong_approx_3way, z, a, b, delta)
        residual_5 = embed(q, 5, precision).distance(a)
        residual_13 = embed(q, 13, precision).distance(b)
        lines += [
            f"target5={target5_text}",
            f"target13={target13_text}",
            f"q={q}",
            f"residual_complex={abs(q - z)!r}",
            f"residual_5={residual_5}",
            f"residual_13={residual_13}",
        ]
    else:
        p = _prime_site(ini, "approx")
        target_text = _field(ini, "approx", "target")
        b = embed(_parse(_RATIONAL, target_text, "[approx] target"), p, precision)
        q = _checked("approx", strong_approx, z, b, delta)
        residual_p = embed(q, p, precision).distance(b)
        lines += [
            f"p={p}",
            f"target={target_text}",
            f"q={q}",
            f"residual_complex={abs(q - z)!r}",
            f"residual_padic={residual_p}",
        ]
    lines.append("verified=true")
    return 0, {"q": str(q).replace(" ", ""), "verified": "true"}, lines


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
    return 0, {"index": index, "k": k}, lines


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
    parts = [f"command={command}", f"exit={code}"]
    parts.extend(f"{key}={value}" for key, value in fields.items())
    return " ".join(parts)


# (exception, summary tag, message prefix), matched in order: the first row
# an exception is an instance of decides; TorsionUnitError is a ValueError
_ERRORS = (
    (InputError, "input", ""),
    (PrecisionError, "precision", "insufficient precision: "),
    (TorsionUnitError, "torsion-unit", ""),
    (CertificateError, "certificate", ""),
    (ValueError, "input", ""),
    (TypeError, "input", ""),
    (Exception, "internal", "internal: "),  # any other: a fault of the program
)


def run(config: RunConfig) -> int:
    """Execute one command; artifacts are built in memory and written only
    when the run reaches a verdict (exit 0 or 1), never on exit 2."""
    if config.command not in _DISPATCH:
        print(_summary(config.command, 2, {"error": "unknown-command"}))
        return 2
    artifacts: list[tuple[str, bytes]] = []
    try:
        if config.precision_k is not None and config.precision_k < 1:
            raise InputError(
                f"--precision must be at least 1, got {config.precision_k}")
        ini = _load_ini(config.input_path)
        code, fields, lines = _DISPATCH[config.command](config, ini, artifacts)
    except tuple(kind for kind, _, _ in _ERRORS) as exc:
        tag, prefix = next((tag, prefix) for kind, tag, prefix in _ERRORS
                           if isinstance(exc, kind))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        print(_summary(config.command, 2, {"error": tag}))
        return 2
    artifacts.append(("report.txt", _text([_REPORT_HEADER, *lines])))
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in artifacts:
        (out_dir / name).write_bytes(data)
    fields["report"] = str(out_dir / "report.txt")
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
