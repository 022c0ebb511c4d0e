"""Command-line orchestration: config ingestion, experiment execution,
report persistence, and SVG figure emission.

Every command reads a single INI-style config file (exact serializations
only: rationals as ``p/q``, Gaussian rationals as ``a/d+b/di``), runs one
experiment, writes a versioned report (header line ``pyjama-report v1``)
plus any figures into the output directory, and prints a one-line
``key=value`` summary on stdout.

Exit codes: 0 = verified/certified, 1 = checked and found false,
2 = input or precision error, or a certificate that failed its own
re-check.  Nothing is written on exit 2.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .approx import (
    circle_density,
    semigroup_density,
    strong_approx,
    strong_approx_3way,
)
from .covering import (
    CertificateError,
    CoveringConfig,
    certified_disk_cover,
    obstruction_catalog,
    rationality_check,
    theta_prime,
    uncovered_region,
    verify_obstruction,
)
from .gaussian import GaussianRational
from .padic import (
    PadicNumber,
    PrecisionError,
    TorsionUnitError,
    closure_index,
    embed,
)
from .solenoid import (
    SolenoidPoint,
    classify_point,
    orbit_eval_rows,
    orbit_max_gap,
    period_exponent,
)
from .svg import render_svg

__all__ = ["RunConfig", "run", "main", "console"]

COMMANDS = (
    "verify-covering",
    "obstructions",
    "irrational-cover",
    "rationality-check",
    "orbit",
    "classify",
    "density",
    "approx",
    "closure-index",
)

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


def _require(parser, section: str, key: str) -> str:
    if not parser.has_section(section):
        raise InputError(f"missing section [{section}]")
    if not parser.has_option(section, key):
        raise InputError(f"missing key '{key}' in section [{section}]")
    return parser.get(section, key).strip()


def _optional(parser, section: str, key: str, default: str | None = None):
    if parser.has_section(section) and parser.has_option(section, key):
        return parser.get(section, key).strip()
    return default


def _parse_fraction(text: str, where: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{where}: not a rational 'p/q' literal: "
                         f"{text!r}") from exc


def _parse_int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise InputError(f"{where}: not an integer: {text!r}") from exc


def _parse_float(text: str, where: str) -> float:
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError):
        try:
            return float(text)
        except ValueError as exc:
            raise InputError(f"{where}: not a number: {text!r}") from exc


def _parse_grational(text: str, where: str) -> GaussianRational:
    try:
        return GaussianRational.parse(text)
    except ValueError as exc:
        raise InputError(f"{where}: not a Gaussian rational 'a/d+b/di' "
                         f"literal: {text!r}") from exc


def _parse_complex(text: str, where: str) -> complex:
    exact = None
    try:
        exact = GaussianRational.parse(text)
    except ValueError:
        pass
    if exact is not None:
        return complex(float(exact.re), float(exact.im))
    try:
        return complex(text.replace(" ", "").replace("i", "j"))
    except ValueError as exc:
        raise InputError(f"{where}: not a point literal: {text!r}") from exc


def _covering_config(parser) -> CoveringConfig:
    rotations_text = _require(parser, "covering", "rotations")
    rotations = [
        _parse_grational(part.strip(), "[covering] rotations")
        for part in rotations_text.split(";")
        if part.strip()
    ]
    if not rotations:
        raise InputError("[covering] rotations: empty rotation list")
    epsilon = _parse_fraction(_require(parser, "covering", "epsilon"),
                              "[covering] epsilon")
    period_text = _optional(parser, "covering", "period", "1")
    period_q = _parse_grational(period_text, "[covering] period")
    if not period_q.is_gaussian_int():
        raise InputError("[covering] period: must be a Gaussian integer")
    try:
        return CoveringConfig(rotations, epsilon, period_q.to_gaussian_int())
    except ValueError as exc:
        raise InputError(f"[covering]: {exc}") from exc


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, summary_fields) and appends
# (filename, bytes) artifacts to be written only on success
# ---------------------------------------------------------------------------


def _text(lines) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


def _cmd_verify_covering(config, parser, artifacts):
    cover = _covering_config(parser)
    m_max = _parse_int(_optional(parser, "covering", "obstruction_m_max", "2"),
                       "[covering] obstruction_m_max")
    report = uncovered_region(cover, obstruction_m_max=m_max)
    lines = list(report.report_lines())

    audit_points = _parse_int(_optional(parser, "covering", "audit_points",
                                        "0"), "[covering] audit_points")
    mismatches = 0
    if audit_points > 0:
        rng = random.Random(config.seed)
        grid = 8 * cover.period.norm()
        period = GaussianRational(cover.period)
        for _ in range(audit_points):
            x = Fraction(rng.randrange(grid), grid)
            y = Fraction(rng.randrange(grid), grid)
            z = GaussianRational.from_fractions(x, y) * period
            direct = True
            for theta in cover.rotations:
                v = (theta * z).re % 1
                if min(v, 1 - v) < cover.epsilon:
                    direct = False
                    break
            if report.contains(z) != direct:
                mismatches += 1
        lines.append(f"audit points={audit_points} seed={config.seed} "
                     f"mismatches={mismatches}")

    artifacts.append(("report.txt", _text(lines)))
    if config.svg:
        artifacts.append(("cover.svg", render_svg(report).encode("utf-8")))
    covered = not report.uncovered
    fields = {
        "covered": str(covered).lower(),
        "uncovered_pieces": len(report.uncovered),
        "area": report.total_uncovered_area,
        "obstructions": len(report.obstruction_matches),
    }
    if audit_points:
        fields["audit_mismatches"] = mismatches
    return (0 if covered else 1), fields


def _cmd_obstructions(config, parser, artifacts):
    epsilon = _parse_fraction(_require(parser, "obstructions", "epsilon"),
                              "[obstructions] epsilon")
    m_max = _parse_int(_require(parser, "obstructions", "m_max"),
                       "[obstructions] m_max")
    period_text = _optional(parser, "obstructions", "period", "1-2i")
    period_q = _parse_grational(period_text, "[obstructions] period")
    if not period_q.is_gaussian_int():
        raise InputError("[obstructions] period: must be a Gaussian integer")
    norm = period_q.to_gaussian_int().norm()
    entries = obstruction_catalog(epsilon, m_max, norm)
    lines = [
        _REPORT_HEADER,
        "kind=obstructions",
        f"epsilon={epsilon}",
        f"m_max={m_max}",
        f"period_norm={norm}",
    ]
    for (a, b, m), margin in entries:
        ok, margin_again = verify_obstruction(a, b, m, norm, epsilon)
        lines.append(f"obstruction a={a} b={b} m={m} margin={margin} "
                     f"verified={str(ok and margin == margin_again).lower()}")
    artifacts.append(("report.txt", _text(lines)))
    return (0 if entries else 1), {"count": len(entries)}


def _cmd_irrational_cover(config, parser, artifacts):
    epsilon = _parse_float(_require(parser, "disk", "epsilon"),
                           "[disk] epsilon")
    radius = _parse_float(_require(parser, "disk", "radius"), "[disk] radius")
    pitch = _parse_float(_require(parser, "disk", "pitch"), "[disk] pitch")
    n_max = _parse_int(_require(parser, "disk", "n_max"), "[disk] n_max")
    N_max = _parse_int(_require(parser, "disk", "N_max"), "[disk] N_max")
    rounds = 0
    if config.refine:
        rounds = _parse_int(_optional(parser, "disk", "refine_rounds", "3"),
                            "[disk] refine_rounds")
    lines = [
        _REPORT_HEADER,
        "kind=disk-cover",
        f"epsilon={epsilon}",
        f"radius={radius}",
        f"pitch={pitch}",
        f"refine_rounds={rounds}",
    ]
    success = None
    for n in range(1, n_max + 1):
        for N in range(0, N_max + 1):
            rotations = theta_prime(n, N)
            result = certified_disk_cover(rotations, epsilon, radius, pitch,
                                          refine_rounds=rounds)
            lines.append(
                f"scan n={n} N={N} rotations={len(rotations)} "
                f"certified={str(result.certified).lower()} "
                f"cells={result.cells_checked} "
                f"failing={result.failing_count}"
            )
            if result.certified and success is None:
                success = (n, N)
                break
        if success is not None:
            break
    if success is not None:
        lines.append(f"certified_pair n={success[0]} N={success[1]}")
    artifacts.append(("report.txt", _text(lines)))
    fields = {"certified": str(success is not None).lower()}
    if success is not None:
        fields["n"] = success[0]
        fields["N"] = success[1]
    return (0 if success is not None else 1), fields


def _cmd_rationality_check(config, parser, artifacts):
    cover = _covering_config(parser)
    refinement = _parse_int(_optional(parser, "rationality", "refinement",
                                      "2"), "[rationality] refinement")
    try:
        report = rationality_check(cover, refinement)
    except ValueError as exc:
        raise InputError(f"[rationality]: {exc}") from exc
    lines = [
        _REPORT_HEADER,
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
    artifacts.append(("report.txt", _text(lines)))
    fields = {
        "within_bound": str(report.within_bound).lower(),
        "max_distance_sq": report.max_distance_sq,
    }
    return (0 if report.within_bound else 1), fields


def _cmd_orbit(config, parser, artifacts):
    w = _parse_complex(_require(parser, "orbit", "w"), "[orbit] w")
    m = _parse_int(_optional(parser, "orbit", "m", "1"), "[orbit] m")
    sweep = _parse_int(_optional(parser, "orbit", "sweep", "30"),
                       "[orbit] sweep")
    threshold_text = _optional(parser, "orbit", "gap_below")
    precision = config.precision_k or 24
    point = SolenoidPoint.from_complex(w, precision_k=precision)
    try:
        rows = orbit_eval_rows(point, m, sweep)
    except ValueError as exc:
        raise InputError(f"[orbit]: {exc}") from exc
    gap = orbit_max_gap(rows)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["r", "s", "value"])
    for r, s, value in rows:
        writer.writerow([r, s, repr(float(value))])
    artifacts.append(("orbit.csv", buffer.getvalue().encode("utf-8")))
    lines = [
        _REPORT_HEADER,
        "kind=orbit",
        f"w={w}",
        f"m={m}",
        f"sweep={sweep}",
        f"samples={len(rows)}",
        f"max_gap={float(gap)!r}",
    ]
    code = 0
    fields = {"max_gap": repr(float(gap)), "samples": len(rows)}
    if threshold_text is not None:
        threshold = _parse_float(threshold_text, "[orbit] gap_below")
        dense = float(gap) < threshold
        lines.append(f"gap_below={threshold}")
        lines.append(f"dense={str(dense).lower()}")
        fields["dense"] = str(dense).lower()
        code = 0 if dense else 1
    artifacts.append(("report.txt", _text(lines)))
    return code, fields


def _cmd_classify(config, parser, artifacts):
    q = _parse_grational(_require(parser, "classify", "q"), "[classify] q")
    try:
        result = classify_point(q)
    except ValueError as exc:
        raise InputError(f"[classify]: {exc}") from exc
    periodic = result.is_periodic
    lines = [
        _REPORT_HEADER,
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
    artifacts.append(("report.txt", _text(lines)))
    return 0, fields


def _cmd_density(config, parser, artifacts):
    kind = _optional(parser, "density", "kind", "semigroup")
    if kind == "semigroup":
        eta = _parse_fraction(_require(parser, "density", "eta"),
                              "[density] eta")
        delta = _parse_fraction(_require(parser, "density", "delta"),
                                "[density] delta")
        try:
            report = semigroup_density(eta, delta)
        except ValueError as exc:
            raise InputError(f"[density]: {exc}") from exc
        verdict = bool(report.is_dense)
        code = 0 if verdict else 1
        fields = {
            "kind": "semigroup",
            "max_gap": report.max_gap,
            "dense": str(verdict).lower(),
        }
    elif kind == "circle":
        theta = _parse_grational(_require(parser, "density", "theta"),
                                 "[density] theta")
        t = _parse_complex(_optional(parser, "density", "t", "1"),
                           "[density] t")
        M = _parse_int(_require(parser, "density", "M"), "[density] M")
        try:
            report = circle_density(theta, t, M)
        except ValueError as exc:
            raise InputError(f"[density]: {exc}") from exc
        code = 0
        fields = {"kind": "circle", "max_gap": repr(report.max_gap)}
        threshold_text = _optional(parser, "density", "gap_below")
        if threshold_text is not None:
            threshold = _parse_float(threshold_text, "[density] gap_below")
            dense = report.max_gap < threshold
            fields["dense"] = str(dense).lower()
            code = 0 if dense else 1
    else:
        raise InputError(f"[density] kind: unknown density kind {kind!r}")
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["field", "value"])
    for row in report.csv_rows():
        writer.writerow(row)
    for index, value in enumerate(report.sample):
        writer.writerow([f"sample_{index}", str(value)])
    artifacts.append(("density.csv", buffer.getvalue().encode("utf-8")))
    lines = [_REPORT_HEADER, "kind=density", f"flavor={kind}"]
    lines.extend(f"{k}={v}" for k, v in report.csv_rows())
    artifacts.append(("report.txt", _text(lines)))
    return code, fields


def _cmd_approx(config, parser, artifacts):
    z = _parse_complex(_require(parser, "approx", "z"), "[approx] z")
    delta = _parse_fraction(_require(parser, "approx", "delta"),
                            "[approx] delta")
    precision = config.precision_k or 16
    target5_text = _optional(parser, "approx", "target5")
    target13_text = _optional(parser, "approx", "target13")
    lines = [_REPORT_HEADER, "kind=approx", f"z={z}", f"delta={delta}"]
    if target5_text is not None and target13_text is not None:
        a = PadicNumber.from_rational(
            _parse_fraction(target5_text, "[approx] target5"), 5, precision)
        b = PadicNumber.from_rational(
            _parse_fraction(target13_text, "[approx] target13"), 13,
            precision)
        q = strong_approx_3way(z, a, b, delta)
        residual_c = abs(complex(float(q.re), float(q.im)) - z)
        residual_5 = (embed(q, 5, precision) - a).abs_bound()
        residual_13 = (embed(q, 13, precision) - b).abs_bound()
        lines += [
            f"target5={target5_text}",
            f"target13={target13_text}",
            f"q={q}",
            f"residual_complex={residual_c!r}",
            f"residual_5={residual_5}",
            f"residual_13={residual_13}",
        ]
        fields = {"q": str(q).replace(" ", "")}
    else:
        p = _parse_int(_optional(parser, "approx", "p", "5"), "[approx] p")
        if p not in (5, 13):
            raise InputError("[approx] p: the prime site must be 5 or 13")
        target_text = _require(parser, "approx", "target")
        b = PadicNumber.from_rational(
            _parse_fraction(target_text, "[approx] target"), p, precision)
        q = strong_approx(z, b, delta)
        residual_c = abs(complex(float(q.re), float(q.im)) - z)
        residual_p = (embed(q, p, precision) - b).abs_bound()
        lines += [
            f"p={p}",
            f"target={target_text}",
            f"q={q}",
            f"residual_complex={residual_c!r}",
            f"residual_padic={residual_p}",
        ]
        fields = {"q": str(q).replace(" ", "")}
    lines.append("verified=true")
    artifacts.append(("report.txt", _text(lines)))
    fields["verified"] = "true"
    return 0, fields


def _cmd_closure_index(config, parser, artifacts):
    p = _parse_int(_optional(parser, "closure-index", "p", "5"),
                   "[closure-index] p")
    if p not in (5, 13):
        raise InputError("[closure-index] p: the prime site must be 5 or 13")
    k = config.precision_k or _parse_int(
        _optional(parser, "closure-index", "k", "4"), "[closure-index] k")
    u_text = _require(parser, "closure-index", "u")
    u_rational = _parse_fraction(u_text, "[closure-index] u")
    u = PadicNumber.from_rational(u_rational, p, k)
    index = closure_index(u, k)
    lines = [
        _REPORT_HEADER,
        "kind=closure-index",
        f"p={p}",
        f"k={k}",
        f"u={u_text}",
        f"index={index}",
    ]
    artifacts.append(("report.txt", _text(lines)))
    return 0, {"index": index, "k": k}


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


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def _summary(command: str, code: int, fields: dict) -> str:
    parts = [f"command={command}", f"exit={code}"]
    parts.extend(f"{key}={value}" for key, value in fields.items())
    return " ".join(parts)


def run(config: RunConfig) -> int:
    """Execute one command; artifacts are built in memory and written only
    when the run reaches a verdict (exit 0 or 1), never on exit 2."""
    if config.command not in _DISPATCH:
        print(_summary(config.command, 2, {"error": "unknown-command"}))
        return 2
    artifacts: list[tuple[str, bytes]] = []
    try:
        parser = _load_ini(config.input_path)
        code, fields = _DISPATCH[config.command](config, parser, artifacts)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_summary(config.command, 2, {"error": "input"}))
        return 2
    except PrecisionError as exc:
        print(f"error: insufficient precision: {exc}", file=sys.stderr)
        print(_summary(config.command, 2, {"error": "precision"}))
        return 2
    except TorsionUnitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_summary(config.command, 2, {"error": "torsion-unit"}))
        return 2
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_summary(config.command, 2, {"error": "certificate"}))
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(_summary(config.command, 2, {"error": "input"}))
        return 2
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in artifacts:
        (out_dir / name).write_bytes(data)
    fields["report"] = str(out_dir / "report.txt")
    print(_summary(config.command, code, fields))
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pyjama",
        description="Exact covering, solenoid-dynamics and approximation "
                    "experiments for Gaussian rotation configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, metavar="PATH",
                         help="INI config file for this command")
        cmd.add_argument("--out", default=".", metavar="DIR",
                         help="directory for reports and figures")
        cmd.add_argument("--seed", type=int, default=0, metavar="N",
                         help="seed for sampled audits")
        cmd.add_argument("--precision", type=int, default=None, metavar="K",
                         help="p-adic working precision (digits)")
        cmd.add_argument("--refine", action="store_true",
                         help="enable grid refinement (disk cover)")
        cmd.add_argument("--svg", default=True,
                         action=argparse.BooleanOptionalAction,
                         help="emit SVG figures where applicable")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = RunConfig(
        command=args.command,
        input_path=args.config,
        output_dir=args.out,
        seed=args.seed,
        precision_k=args.precision,
        refine=args.refine,
        svg=args.svg,
    )
    return run(config)


def console() -> None:
    raise SystemExit(main())


if __name__ == "__main__":  # pragma: no cover
    console()
