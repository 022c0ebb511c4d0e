import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from pyjama import cli, covering, gaussian, padic
from pyjama.cli import COMMANDS, RunConfig, main, run
from pyjama.gaussian import GaussianRational

from _util import theta_prime_forms, uncovered_oracle

FIGURE_INI = """\
[covering]
rotations = 1; -3/5+4/5i
epsilon = 1/4
period = 1-2i
"""


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1, "stdout must carry exactly one summary line"
    return code, out[0]


def test_verify_covering_figure_pipeline(tmp_path, capsys):
    cfg = _write(tmp_path / "fig.ini", FIGURE_INI)
    out = tmp_path / "out"
    code, summary = _run(capsys, "verify-covering", "--config", cfg,
                         "--out", str(out))
    assert code == 1
    assert summary.startswith("command=verify-covering exit=1")
    assert "covered=false" in summary
    assert "area=5/4" in summary
    report = (out / "report.txt").read_text()
    assert report.splitlines()[0] == "pyjama-report v1"
    assert "obstruction a=1 b=1 m=2" in report
    svg = (out / "cover.svg").read_bytes()
    assert svg.startswith(b"<?xml")
    # five certified obstruction dots inside the norm-5 window
    assert svg.count(b'r="0.100000"') == 5
    # byte determinism
    out2 = tmp_path / "out2"
    code2 = main(["verify-covering", "--config", cfg, "--out", str(out2)])
    capsys.readouterr()
    assert code2 == 1
    assert (out2 / "cover.svg").read_bytes() == svg
    assert (out2 / "report.txt").read_text() == report


def test_verify_covering_no_svg_and_audit(tmp_path, capsys):
    cfg = _write(tmp_path / "fig.ini",
                 FIGURE_INI + "audit_points = 60\n")
    out = tmp_path / "out"
    code, summary = _run(capsys, "verify-covering", "--config", cfg,
                         "--out", str(out), "--no-svg", "--seed", "7")
    assert code == 1
    assert not (out / "cover.svg").exists()
    assert "audit_mismatches=0" in summary
    report = (out / "report.txt").read_text()
    assert "audit points=60 seed=7 mismatches=0" in report


# the touching-stripes config of test_covering.py: the stripe edges of one
# rotation pass through the crossings of the other's, so two pieces are points
TOUCHING_INI = """\
[covering]
rotations = -5/13+12/13i; -33/65-56/65i
epsilon = 1/4
period = -4-7i
audit_points = 64
"""


def test_verify_covering_reports_and_draws_point_pieces(tmp_path, capsys):
    cfg = _write(tmp_path / "touch.ini", TOUCHING_INI)
    out = tmp_path / "out"
    code, summary = _run(capsys, "verify-covering", "--config", cfg,
                         "--out", str(out), "--seed", "3")
    assert code == 1
    assert "uncovered_pieces=65 area=65/4" in summary
    report = (out / "report.txt").read_text().splitlines()
    assert [line for line in report if "kind=point" in line] == [
        "polygon 0 kind=point vertices=21/4,-3",
        "polygon 64 kind=point vertices=-9/4,-8",
    ]
    assert "audit points=64 seed=3 mismatches=0" in report
    svg = (out / "cover.svg").read_text()
    cell = svg[svg.index('<g id="cell">'):svg.index("</g></defs>")]
    # a point piece is a dot at (x, norm - y) in SVG units, norm = 65
    assert [line for line in cell.splitlines() if 'r="0.060000"' in line] == [
        '<circle cx="5.250000" cy="68.000000" r="0.060000" fill="#000000"/>',
        '<circle cx="-2.250000" cy="73.000000" r="0.060000" fill="#000000"/>',
    ]


def test_exit_two_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    bad = _write(tmp_path / "bad.ini",
                 "[covering]\nrotations = 1\nepsilon = abc\n")
    code, summary = _run(capsys, "verify-covering", "--config", bad,
                         "--out", str(out))
    assert code == 2
    assert "exit=2" in summary and "error=input" in summary
    assert not out.exists()
    # missing file
    code, summary = _run(capsys, "verify-covering", "--config",
                         str(tmp_path / "nope.ini"), "--out", str(out))
    assert code == 2
    assert not out.exists()
    # domain error: epsilon out of range
    bad2 = _write(tmp_path / "bad2.ini",
                  "[covering]\nrotations = 1\nepsilon = 1/2\n")
    code, _ = _run(capsys, "verify-covering", "--config", bad2,
                   "--out", str(out))
    assert code == 2
    assert not out.exists()


def test_failed_certificate_exits_two(tmp_path, capsys, monkeypatch):
    # with no uncovered pieces the catalog obstruction points go missing, so
    # the certificate's own re-check fails
    monkeypatch.setattr(covering, "_subtract_stripes", lambda *args: [])
    cfg = _write(tmp_path / "fig.ini",
                 FIGURE_INI + "[rationality]\nrefinement = 2\n")
    out = tmp_path / "out"
    for command in ("verify-covering", "rationality-check"):
        code = main([command, "--config", cfg, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == (f"command={command} exit=2 "
                                "error=certificate\n")
        assert captured.err.startswith("error: obstruction certificate")
        assert "Traceback" not in captured.err
        assert not out.exists()


def test_unexpected_exception_exits_two_internal(tmp_path, capsys, monkeypatch):
    # any exception outside the known error kinds is a fault of the program:
    # exit 2 with error=internal, one error line, no traceback, no artifact
    def broken(config, ini, artifacts):
        artifacts.append(("report.txt", b"partial\n"))
        raise KeyError("boom")

    monkeypatch.setitem(cli._DISPATCH, "obstructions", broken)
    cfg = _write(tmp_path / "ob.ini", "[obstructions]\nepsilon = 1/4\nm_max = 2\n")
    out = tmp_path / "out"
    code = main(["obstructions", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "command=obstructions exit=2 error=internal\n"
    assert captured.err.splitlines() == ["error: internal: 'boom'"]
    assert not out.exists()


def test_parser_is_built_once_and_keeps_its_defaults(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run", lambda config: seen.append(config) or 0)
    main(["obstructions", "--config", "x.ini", "--no-svg", "--seed", "3"])
    main(["obstructions", "--config", "x.ini"])
    assert cli._build_parser() is cli._build_parser()
    assert (seen[0].svg, seen[0].seed) == (False, 3)
    assert seen[1] == RunConfig(command="obstructions", input_path="x.ini")


def test_classify_half_plus_half_i(tmp_path, capsys):
    cfg = _write(tmp_path / "c.ini", "[classify]\nq = 1/2+1/2i\n")
    out = tmp_path / "out"
    code, summary = _run(capsys, "classify", "--config", cfg, "--out",
                         str(out))
    assert code == 0
    assert "classification=periodic" in summary
    assert "m=1" in summary
    report = (out / "report.txt").read_text()
    assert "torsion=true" in report
    assert "periodic=true" in report
    assert "m=1" in report


def test_classify_torsion_only(tmp_path, capsys):
    cfg = _write(tmp_path / "c.ini", "[classify]\nq = 1/5\n")
    out = tmp_path / "out"
    code, summary = _run(capsys, "classify", "--config", cfg, "--out",
                         str(out))
    assert code == 0
    assert "classification=torsion_only" in summary
    assert "periodic=false" in summary
    assert " m=" not in summary  # no period exponent for aperiodic points


def test_density_semigroup(tmp_path, capsys):
    cfg = _write(tmp_path / "d.ini",
                 "[density]\neta = 1/1000000\ndelta = 1/10\n")
    out = tmp_path / "out"
    code, summary = _run(capsys, "density", "--config", cfg, "--out",
                         str(out))
    assert code == 0
    assert "dense=true" in summary
    csv_text = (out / "density.csv").read_text()
    assert "max_gap" in csv_text
    assert "sample_0" in csv_text


def test_density_circle(tmp_path, capsys):
    gap_bound = repr(2 * math.pi / 20)
    cfg = _write(
        tmp_path / "d.ini",
        "[density]\nkind = circle\ntheta = -3/5+4/5i\nt = 1\nM = 200\n"
        f"gap_below = {gap_bound}\n",
    )
    out = tmp_path / "out"
    code, summary = _run(capsys, "density", "--config", cfg, "--out",
                         str(out))
    assert code == 0
    assert "dense=true" in summary


def test_density_circle_rejects_torsion_rotation(tmp_path, capsys):
    cfg = _write(tmp_path / "d.ini",
                 "[density]\nkind = circle\ntheta = i\nt = 1\nM = 10\n")
    out = tmp_path / "out"
    code, summary = _run(capsys, "density", "--config", cfg, "--out",
                         str(out))
    assert code == 2
    assert not out.exists()


def test_orbit_sweep(tmp_path, capsys):
    cfg = _write(tmp_path / "o.ini",
                 "[orbit]\nw = 1\nm = 1\nsweep = 10\ngap_below = 0.9\n")
    out = tmp_path / "out"
    code, summary = _run(capsys, "orbit", "--config", cfg, "--out", str(out))
    assert code == 0
    assert "dense=true" in summary
    lines = (out / "orbit.csv").read_text().strip().splitlines()
    assert lines[0] == "r,s,value"
    assert len(lines) == 1 + 11 * 11


def test_orbit_gap_verdict_false(tmp_path, capsys):
    cfg = _write(tmp_path / "o.ini",
                 "[orbit]\nw = 1/4\nm = 1\nsweep = 10\ngap_below = 1/4\n")
    out = tmp_path / "out"
    code, summary = _run(capsys, "orbit", "--config", cfg, "--out", str(out))
    assert code == 1
    assert "dense=false" in summary
    assert (out / "report.txt").exists()  # exit 1 still writes artifacts


def test_obstructions_command(tmp_path, capsys):
    cfg = _write(tmp_path / "ob.ini",
                 "[obstructions]\nepsilon = 9/20\nm_max = 2\nperiod = 1-2i\n")
    out = tmp_path / "out"
    code, summary = _run(capsys, "obstructions", "--config", cfg, "--out",
                         str(out))
    assert code == 0
    assert "count=1" in summary
    report = (out / "report.txt").read_text()
    assert "obstruction a=1 b=1 m=2 margin=1/2 verified=true" in report


@pytest.mark.parametrize("dr, di", [(1, -2), (2, -3), (-4, -7), (-18, 1)],
                         ids=["N5", "N13", "N65", "N325"])
def test_obstructions_report_matches_circle_distance_oracle(tmp_path, capsys, dr, di):
    # every listed margin against the least circle distance of
    # Fraction(g.re*a - g.im*b, m) % 1 over the multipliers g of norm N(D),
    # found here by brute force, for all gcd-normalized (a, b, m) with m <= 8
    period = f"{dr}{di:+d}i"
    norm = dr * dr + di * di
    r = math.isqrt(norm)
    gs = [(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1) if x * x + y * y == norm]
    for eps in (F(1, 8), F(1, 4), F(3, 10)):
        cfg = _write(tmp_path / "ob.ini",
                     f"[obstructions]\nepsilon = {eps}\nm_max = 8\nperiod = {period}\n")
        out = tmp_path / "out"
        main(["obstructions", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        listed = [dict(part.split("=") for part in line.split()[1:])
                  for line in (out / "report.txt").read_text().splitlines()
                  if line.startswith("obstruction ")]
        want = []
        for m in range(1, 9):
            for a in range(m):
                for b in range(m):
                    if math.gcd(a, b, m) == 1:
                        values = [F(gr * a - gi * b, m) % 1 for gr, gi in gs]
                        margin = min(min(v, 1 - v) for v in values)
                        if margin >= eps:
                            want.append((-margin, (a, b, m)))
        assert [(-F(e["margin"]), (int(e["a"]), int(e["b"]), int(e["m"])))
                for e in listed] == sorted(want)
        assert all(e["verified"] == "true" for e in listed)


def test_rationality_command(tmp_path, capsys):
    cfg = _write(tmp_path / "r.ini",
                 FIGURE_INI + "\n[rationality]\nrefinement = 2\n")
    out = tmp_path / "out"
    code, summary = _run(capsys, "rationality-check", "--config", cfg,
                         "--out", str(out))
    assert code == 0
    assert "within_bound=true" in summary
    report = (out / "report.txt").read_text()
    assert "polygon 0 distance_sq=" in report


def test_irrational_cover_scan(tmp_path, capsys):
    cfg = _write(
        tmp_path / "disk.ini",
        "[disk]\nepsilon = 0.45\nradius = 1.0\npitch = 0.05\n"
        "n_max = 1\nN_max = 0\n",
    )
    out = tmp_path / "out"
    code, summary = _run(capsys, "irrational-cover", "--config", cfg,
                         "--out", str(out))
    assert code == 0
    assert "certified=true" in summary and "n=1" in summary and "N=0" in summary
    report = (out / "report.txt").read_text()
    assert "scan n=1 N=0 rotations=3 certified=true" in report
    assert "certified_pair n=1 N=0" in report


def test_irrational_cover_failure(tmp_path, capsys):
    cfg = _write(
        tmp_path / "disk.ini",
        "[disk]\nepsilon = 0.2\nradius = 2.0\npitch = 0.05\n"
        "n_max = 1\nN_max = 0\n",
    )
    out = tmp_path / "out"
    code, summary = _run(capsys, "irrational-cover", "--config", cfg,
                         "--out", str(out))
    assert code == 1
    assert "certified=false" in summary
    # the three rotations miss the disk, and the row names a point they miss
    row = (out / "report.txt").read_text().splitlines()[-1]
    assert row.startswith("scan n=1 N=0 rotations=3 certified=false witness=")
    witness = GaussianRational.parse(row.split("witness=")[1].split()[0])
    assert uncovered_oracle(witness, "0.2", "2.0", theta_prime_forms(1, 0))


# one small config per command, its options, its exit code, and the pyjama
# modules it loads besides cli and gaussian; only irrational-cover loads numpy
_COVER = {"covering", "polygon"}
_COMMAND_MODULES = [
    ("verify-covering", FIGURE_INI, ["--no-svg"], 1, _COVER),
    ("verify-covering", FIGURE_INI + "audit_points = 4\n", [], 1, _COVER | {"svg"}),
    ("obstructions", "[obstructions]\nepsilon = 9/20\nm_max = 2\nperiod = 1-2i\n", [], 0,
     _COVER),
    ("rationality-check", FIGURE_INI + "\n[rationality]\nrefinement = 2\n", [], 0, _COVER),
    ("approx", "[approx]\nz = 0\np = 5\ntarget = 1/5\ndelta = 1/10\n", [], 0,
     {"approx", "padic"}),
    ("approx", "[approx]\nz = 0\ntarget5 = 1/5\ntarget13 = 0\ndelta = 1/10\n", [], 0,
     {"approx", "padic"}),
    ("classify", "[classify]\nq = 1/2+1/2i\n", [], 0, {"solenoid", "padic"}),
    ("orbit", "[orbit]\nw = 1\nm = 1\nsweep = 10\ngap_below = 0.9\n", [], 0,
     {"solenoid", "padic"}),
    ("density", "[density]\neta = 1/1000000\ndelta = 1/10\n", [], 0, {"approx", "padic"}),
    ("density", "[density]\nkind = circle\ntheta = -3/5+4/5i\nt = 1\nM = 200\n", [], 0,
     {"approx", "padic"}),
    ("closure-index", "[closure-index]\nu = 6\np = 5\n", [], 0, {"padic"}),
    ("irrational-cover", "[disk]\nepsilon = 0.45\nradius = 1.0\npitch = 0.05\n"
                         "n_max = 1\nN_max = 0\n", [], 0, {"disk", "numpy"}),
]

# runs one command in a fresh process, then prints its exit code and the
# pyjama modules and numpy that are loaded
_MODULE_PROBE = """
import json, sys
from pyjama.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m == "numpy" or m.split(".")[0] == "pyjama")]))
"""


@pytest.mark.parametrize("command, ini, argv, exit_code, loads", _COMMAND_MODULES,
                         ids=["verify-covering-no-svg", "verify-covering-svg", "obstructions",
                              "rationality-check", "approx", "approx-3way", "classify", "orbit",
                              "density-semigroup", "density-circle", "closure-index",
                              "irrational-cover"])
def test_each_command_loads_only_its_modules(tmp_path, command, ini, argv, exit_code, loads):
    # pyjama/__init__.py imports nothing, and cli imports each command's
    # modules in its handler, so a command loads only what it runs
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    config, out = _write(tmp_path / "c.ini", ini), tmp_path / "out"
    done = subprocess.run([sys.executable, "-c", _MODULE_PROBE, command, "--config", config,
                           "--out", str(out), *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    summary, probe = done.stdout.splitlines()
    assert summary.startswith(f"command={command} exit={exit_code} ")
    expected = {"pyjama", "pyjama.cli", "pyjama.gaussian"}
    expected |= {m if m == "numpy" else f"pyjama.{m}" for m in loads}
    assert json.loads(probe) == [exit_code, sorted(expected)]
    assert (out / "cover.svg").exists() == ("svg" in loads)


def test_padic_errors_keep_their_tags(tmp_path, capsys, monkeypatch):
    # the error classes live in gaussian, the one module every command
    # loads; padic and covering re-export the same classes
    assert padic.PrecisionError is gaussian.PrecisionError
    assert padic.TorsionUnitError is gaussian.TorsionUnitError
    assert covering.CertificateError is gaussian.CertificateError

    def short(u):
        k = u.precision_k
        raise padic.PrecisionError(f"need {k + 1} digits, only {k} stored")

    monkeypatch.setattr(padic, "closure_index", short)
    cfg = _write(tmp_path / "c.ini", "[closure-index]\nu = 6\np = 5\n")
    code = main(["closure-index", "--config", cfg, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "command=closure-index exit=2 error=precision\n"
    assert captured.err == "error: insufficient precision: need 5 digits, only 4 stored\n"
    assert not (tmp_path / "out").exists()


def test_approx_command(tmp_path, capsys):
    cfg = _write(tmp_path / "a.ini",
                 "[approx]\nz = 0\np = 5\ntarget = 1/5\ndelta = 1/10\n")
    out = tmp_path / "out"
    code, summary = _run(capsys, "approx", "--config", cfg, "--out",
                         str(out))
    assert code == 0
    assert "verified=true" in summary
    report = (out / "report.txt").read_text()
    assert "residual_complex=" in report
    assert "residual_padic=" in report


def test_approx_three_way(tmp_path, capsys):
    cfg = _write(
        tmp_path / "a.ini",
        "[approx]\nz = 0\ntarget5 = 1/5\ntarget13 = 0\ndelta = 1/10\n",
    )
    out = tmp_path / "out"
    code, summary = _run(capsys, "approx", "--config", cfg, "--out",
                         str(out))
    assert code == 0
    report = (out / "report.txt").read_text()
    assert "residual_5=" in report and "residual_13=" in report


_BAR = {5: gaussian.P5BAR, 13: gaussian.P13BAR}


def _residual_oracle(q, target, p, precision):
    """|q - target|_p as far as both embedded to ``precision`` digits show it:
    the difference's valuation, capped at the coarser absolute precision."""

    def v(x):
        return math.inf if x == 0 else gaussian.valuation(x, _BAR[p])

    n = min(v(q - target), min(v(q), v(target)) + precision)
    return F(0) if n == math.inf else F(p) ** -n


@pytest.mark.parametrize("ini, argv, want", [
    ("z = 3/7+1/3i\np = 5\ntarget = 7/3\ndelta = 1/10000\n", [],
     {"residual_padic": "1/15625"}),
    ("z = 3/7+1/3i\np = 13\ntarget = 0\ndelta = 1/100\n", [], {}),
    ("z = 2\np = 5\ntarget = 2\ndelta = 1/100\n", [],
     {"residual_padic": "1/152587890625"}),
    ("z = 2\ntarget5 = 2\ntarget13 = 2\ndelta = 1/100\n", ["--precision", "6"],
     {"residual_5": "1/15625", "residual_13": "1/4826809"}),
], ids=["exact", "zero-target", "bound", "three-way"])
def test_approx_padic_residuals_match_oracle(tmp_path, capsys, ini, argv, want):
    cfg = _write(tmp_path / "a.ini", "[approx]\n" + ini)
    out = tmp_path / "out"
    code, _ = _run(capsys, "approx", "--config", cfg, "--out", str(out), *argv)
    assert code == 0
    lines = (out / "report.txt").read_text().splitlines()[1:]  # after the header
    fields = dict(line.split("=", 1) for line in lines)
    precision = int(argv[1]) if argv else 16
    q = GaussianRational.parse(fields["q"])
    residuals = ({"residual_5": (5, fields["target5"]), "residual_13": (13, fields["target13"])}
                 if "target5" in fields else
                 {"residual_padic": (int(fields["p"]), fields["target"])})
    for name, (p, text) in residuals.items():
        got = F(fields[name])
        assert got == _residual_oracle(q, F(text), p, precision), name
        if F(text) == 0:  # an exact zero target: the residual is |q|_p itself
            assert got == gaussian.abs_at(q, _BAR[p])
    assert {name: fields[name] for name in want} == want


def test_closure_index_command(tmp_path, capsys):
    cfg = _write(tmp_path / "ci.ini", "[closure-index]\nu = 6\np = 5\n")
    out = tmp_path / "out"
    code, summary = _run(capsys, "closure-index", "--config", cfg, "--out",
                         str(out), "--precision", "4")
    assert code == 0
    assert "index=4" in summary
    report = (out / "report.txt").read_text()
    assert "index=4" in report


def test_run_config_reproducibility(tmp_path, capsys):
    cfg = _write(tmp_path / "fig.ini", FIGURE_INI + "audit_points = 40\n")
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        config = RunConfig(command="verify-covering", input_path=cfg,
                           output_dir=str(out), seed=11, svg=True)
        assert run(config) == 1
        capsys.readouterr()
        outs.append((out / "report.txt").read_bytes()
                    + (out / "cover.svg").read_bytes())
    assert outs[0] == outs[1]


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["not-a-command", "--config", "x.ini"])
    capsys.readouterr()


@pytest.mark.parametrize("command, ini", [
    ("irrational-cover", "[disk]\nepsilon = 0.45\nradius = inf\npitch = 0.05\n"
                         "n_max = 1\nN_max = 0\n"),
    ("irrational-cover", "[disk]\nepsilon = nan\nradius = 1.0\npitch = 0.05\n"
                         "n_max = 1\nN_max = 0\n"),
    ("orbit", "[orbit]\nw = 1\nm = 1\nsweep = 3\ngap_below = nan\n"),
], ids=["radius-inf", "epsilon-nan", "gap-below-nan"])
def test_non_finite_numbers_exit_two(tmp_path, capsys, command, ini):
    cfg = _write(tmp_path / "n.ini", ini)
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == f"command={command} exit=2 error=input\n"
    assert "not a finite number" in captured.err
    assert not out.exists()


_POINT_INIS = {
    "orbit-w": ("orbit", "[orbit]\nw = {}\nm = 1\nsweep = 3\n"),
    "density-t": ("density", "[density]\nkind = circle\ntheta = -3/5+4/5i\n"
                             "t = {}\nM = 10\n"),
    "approx-z": ("approx", "[approx]\nz = {}\np = 5\ntarget = 1/5\ndelta = 1/10\n"),
}


@pytest.mark.parametrize("literal", ["nan", "inf", "-inf", "nan+1i", "1+infi"])
@pytest.mark.parametrize("field", sorted(_POINT_INIS))
def test_non_finite_points_exit_two(tmp_path, capsys, field, literal):
    command, ini = _POINT_INIS[field]
    cfg = _write(tmp_path / "p.ini", ini.format(literal))
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == f"command={command} exit=2 error=input\n"
    assert "not a point literal" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("field", sorted(_POINT_INIS))
def test_finite_float_points_still_parse(tmp_path, capsys, field):
    command, ini = _POINT_INIS[field]
    cfg = _write(tmp_path / "p.ini", ini.format("0.6 + 0.8i"))
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out)])
    assert code in (0, 1), capsys.readouterr()
    assert (out / "report.txt").exists()
    assert cli._point("0.6 + 0.8i") == complex(0.6, 0.8)
    assert cli._point("-2.5i") == complex(0, -2.5)


@pytest.mark.parametrize("field, literal, message", [
    # a product overflows to inf, whose sample (-inf) % 1.0 is NaN
    ("orbit-w", "1.7e308+1.7e308i", "a sample is not a number"),
    # abs(t) overflows, and so does the modulus of theta * t on the top float
    ("density-t", "1.5e308+1.5e308i", "a modulus is not finite"),
    ("density-t", "1.7976931348623157e308", "a modulus is not finite"),
], ids=["orbit-w", "density-t", "density-t-max"])
def test_overflowing_seeds_exit_two(tmp_path, capsys, field, literal, message):
    # finite seeds whose float recurrence overflows are input faults, never a
    # verdict read from NaN samples folded to 0.0 (exit 1) nor error=internal
    command, ini = _POINT_INIS[field]
    cfg = _write(tmp_path / "p.ini", ini.format(literal) + "gap_below = 1/2\n")
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == f"command={command} exit=2 error=input\n"
    assert f"the float recurrence overflowed: {message}" in captured.err
    assert not out.exists()


def test_orbit_folds_a_tiny_negative_sample_to_zero(tmp_path, capsys):
    # -(1e-300) % 1.0 rounds to 1.0, the same point of the circle as 0.0
    cfg = _write(tmp_path / "o.ini", "[orbit]\nw = -1e-300\nm = 1\nsweep = 1\n")
    out = tmp_path / "out"
    code, summary = _run(capsys, "orbit", "--config", cfg, "--out", str(out))
    assert code == 0
    assert (out / "orbit.csv").read_text().splitlines()[1] == "0,0,0.0"


_DISK_INI = ("[disk]\nepsilon = 0.45\nradius = 1.0\npitch = 0.05\n"
             "n_max = {n_max}\nN_max = {N_max}\nrefine_rounds = {rounds}\n")


@pytest.mark.parametrize("command, ini, argv, tag, message", [
    # a target known to one 5-adic digit cannot meet delta = 1/10
    ("approx", "[approx]\nz = 0\np = 5\ntarget = 1/5\ndelta = 1/10\n",
     ["--precision", "1"], "precision", "error: insufficient precision: "),
    # -1 is a root of unity, so the closure of its powers is finite
    ("closure-index", "[closure-index]\nu = -1\np = 5\n", [],
     "torsion-unit", "error: 624 mod 5^4 is a root of unity"),
    # a ValueError raised inside the catalog builder, not by the config reader
    ("obstructions", "[obstructions]\nepsilon = 1/4\nm_max = 0\n", [],
     "input", "error: m_max must be positive"),
    # the zero period has no cell: not a catalog with every margin 0 (exit 1)
    ("obstructions", "[obstructions]\nepsilon = 1/4\nm_max = 2\nperiod = 0\n", [],
     "input", "error: [obstructions] period: must be a nonzero Gaussian integer\n"),
    ("verify-covering", FIGURE_INI.replace("1-2i", "0"), [],
     "input", "error: [covering] period: must be a nonzero Gaussian integer\n"),
    # a precision below one digit is refused before the command runs, not
    # replaced by the command's default
    ("approx", "[approx]\nz = 0\np = 5\ntarget = 1/5\ndelta = 1/10\n",
     ["--precision", "0"], "input", "error: --precision must be at least 1, got 0\n"),
    ("closure-index", "[closure-index]\nu = 6\np = 5\n", ["--precision", "-3"],
     "input", "error: --precision must be at least 1, got -3\n"),
    # scan bounds that would scan nothing, or run no refinement round
    ("irrational-cover", _DISK_INI.format(n_max=0, N_max=0, rounds=1), [],
     "input", "error: [disk] n_max: must be at least 1, got 0\n"),
    ("irrational-cover", _DISK_INI.format(n_max=1, N_max=-1, rounds=1), [],
     "input", "error: [disk] N_max: must be at least 0, got -1\n"),
    ("irrational-cover", _DISK_INI.format(n_max=1, N_max=0, rounds=-2), ["--refine"],
     "input", "error: [disk] refine_rounds: must be at least 0, got -2\n"),
    # a ValueError of the scan itself: one stripe family of half-width 1/2
    # or more covers the plane, and a negative one covers nothing
    ("irrational-cover", _DISK_INI.format(n_max=1, N_max=0, rounds=0).replace("0.45", "0.7"),
     [], "input", "error: [disk]: stripe half-width must lie in (0, 1/2)\n"),
    ("irrational-cover", _DISK_INI.format(n_max=1, N_max=0, rounds=0).replace("0.45", "-0.3"),
     [], "input", "error: [disk]: stripe half-width must lie in (0, 1/2)\n"),
    # a grid of 2 * radius / pitch = inf columns
    ("irrational-cover", _DISK_INI.format(n_max=1, N_max=0, rounds=0).replace(
        "radius = 1.0\npitch = 0.05", "radius = 1e300\npitch = 1e-300"),
     [], "input", "error: [disk]: grid too large: 2 * radius / pitch must be finite\n"),
    ("irrational-cover", _DISK_INI.format(n_max=1, N_max=0, rounds=0).replace(
        "0.45", "1e-320").replace("pitch = 0.05", "pitch = 1e-321"),
     [], "input", "error: [disk]: grid too large: 2 * radius / pitch must be finite\n"),
    # finite grids of more columns than the stated limit: 4e20 and 2e10
    ("irrational-cover", _DISK_INI.format(n_max=1, N_max=0, rounds=0).replace(
        "radius = 1.0\npitch = 0.05", "radius = 1e20\npitch = 0.5"),
     [], "input", "error: [disk]: grid too large: 2 * radius / pitch must be at most 1048576, "
                  "got 4e+20\n"),
    ("irrational-cover", _DISK_INI.format(n_max=1, N_max=0, rounds=0).replace(
        "radius = 1.0\npitch = 0.05", "radius = 5e9\npitch = 0.5"),
     [], "input", "error: [disk]: grid too large: 2 * radius / pitch must be at most 1048576, "
                  "got 2e+10\n"),
    ("closure-index", "[closure-index]\nu = 6\np = 5\nk = 0\n", [],
     "input", "error: [closure-index] k: must be at least 1, got 0\n"),
    # a negative count would run no audit yet print audit_mismatches=0
    ("verify-covering", FIGURE_INI + "audit_points = -1\n", ["--no-svg"],
     "input", "error: [covering] audit_points: must be at least 0, got -1\n"),
], ids=["precision", "torsion-unit", "input", "obstructions-period-zero",
        "covering-period-zero",
        "precision-zero", "precision-negative",
        "disk-n-max", "disk-N-max", "disk-refine-rounds", "disk-epsilon-wide",
        "disk-epsilon-negative", "disk-grid-overflow", "disk-grid-subnormal", "disk-grid-huge",
        "disk-grid-wide", "closure-index-k",
        "covering-audit-points"])
def test_error_tags(tmp_path, capsys, command, ini, argv, tag, message):
    cfg = _write(tmp_path / "e.ini", ini)
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out), *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == f"command={command} exit=2 error={tag}\n"
    assert captured.err.startswith(message)
    assert not out.exists()


# (command, its section, a config of that section without the named key)
_MISSING_KEYS = [
    ("verify-covering", "covering", "rotations", "epsilon = 1/4\n"),
    ("obstructions", "obstructions", "m_max", "epsilon = 1/4\n"),
    ("irrational-cover", "disk", "n_max",
     "epsilon = 0.45\nradius = 1.0\npitch = 0.05\nN_max = 0\n"),
    ("approx", "approx", "target", "z = 0\np = 5\ndelta = 1/10\n"),
    ("orbit", "orbit", "w", "m = 1\nsweep = 3\n"),
]


@pytest.mark.parametrize("missing", ["section", "key"])
@pytest.mark.parametrize("command, section, key, body", _MISSING_KEYS,
                         ids=[row[0] for row in _MISSING_KEYS])
def test_missing_section_or_key_exits_two(tmp_path, capsys, command, section, key, body,
                                          missing):
    if missing == "section":
        ini, message = "[unused]\nkey = 1\n", f"error: missing section [{section}]\n"
    else:
        ini, message = f"[{section}]\n{body}", \
            f"error: missing key '{key}' in section [{section}]\n"
    cfg = _write(tmp_path / "m.ini", ini)
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == f"command={command} exit=2 error=input\n"
    assert captured.err == message
    assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_parser_options(monkeypatch, command):
    seen = []
    monkeypatch.setattr(cli, "run", lambda config: seen.append(config) or 0)
    assert main([command, "--config", "c.ini", "--out", "o", "--no-svg",
                 "--refine", "--seed", "5", "--precision", "7"]) == 0
    assert seen == [RunConfig(command=command, input_path="c.ini",
                              output_dir="o", seed=5, precision_k=7,
                              refine=True, svg=False)]
    assert main([command, "--config", "c.ini"]) == 0
    assert seen[1] == RunConfig(command=command, input_path="c.ini")
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
