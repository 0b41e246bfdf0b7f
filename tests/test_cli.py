import csv
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from heisenberg_cohomology import cli, limits, verify
from heisenberg_cohomology.algebra import make_heisenberg_even, make_heisenberg_odd
from heisenberg_cohomology.fileformats import format_algebra


def run_cli(capsysbinary, argv):
    code = cli.main(argv)
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err


def test_even_csv_golden(capsysbinary):
    code, out, _ = run_cli(capsysbinary, [
        "even", "--n", "1", "--m", "1", "--q-max", "2", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out.decode())))
    assert rows[0] == ["algebra", "q", "dim_cochain", "dim_cocycles",
                       "dim_coboundaries", "dim_cohomology", "method"]
    assert rows[1:] == [
        ["h_{1,1}", "0", "1", "1", "0", "1", "rank"],
        ["h_{1,1}", "1", "4", "3", "0", "3", "rank"],
        ["h_{1,1}", "2", "7", "4", "1", "3", "rank"],
    ]


def test_odd_formula_method(capsysbinary):
    code, out, _ = run_cli(capsysbinary, [
        "odd", "--n", "1", "--q-max", "3", "--format", "csv",
        "--method", "formula"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out.decode())))[1:]
    assert all(r[6] == "formula-odd-proof" for r in rows)
    assert [r[5] for r in rows] == ["1", "2", "2", "2"]


def test_method_both_interleaves_and_agrees(capsysbinary):
    code, out, _ = run_cli(capsysbinary, [
        "even", "--n", "1", "--m", "2", "--q-max", "4", "--format", "csv",
        "--method", "both"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out.decode())))[1:]
    assert len(rows) == 10
    for i in range(0, 10, 2):
        ranked, formed = rows[i], rows[i + 1]
        assert ranked[6] == "rank" and formed[6] == "formula-even"
        assert ranked[1] == formed[1] == str(i // 2)
        # all four dimensions agree between the two routes
        assert ranked[2:6] == formed[2:6]


def test_compute_matches_builtin(tmp_path, capsysbinary):
    path = tmp_path / "h1.alg"
    path.write_text(format_algebra(make_heisenberg_odd(1)))
    code_f, out_f, _ = run_cli(capsysbinary, [
        "compute", "--algebra", str(path), "--q-max", "4", "--format", "json"])
    code_b, out_b, _ = run_cli(capsysbinary, [
        "odd", "--n", "1", "--q-max", "4", "--format", "json"])
    assert code_f == code_b == 0
    assert out_f == out_b
    payload = json.loads(out_f)
    assert [r["dim_cohomology"] for r in payload] == [1, 2, 2, 2, 2]
    assert set(payload[0]) == {"algebra_name", "q", "dim_cochain",
                               "dim_cocycles", "dim_coboundaries",
                               "dim_cohomology", "method"}


def test_compute_rejects_formula_method(tmp_path, capsysbinary):
    path = tmp_path / "h1.alg"
    path.write_text(format_algebra(make_heisenberg_odd(1)))
    code, out, err = run_cli(capsysbinary, [
        "compute", "--algebra", str(path), "--q-max", "2",
        "--method", "formula"])
    assert code == 1
    assert out == b""
    assert b"unrecognized arguments: --method formula" in err


def test_verify_even_ok(capsysbinary):
    code, out, err = run_cli(capsysbinary, [
        "verify", "--family", "even", "--n-max", "1", "--m-max", "1",
        "--q-max", "3"])
    assert code == 0
    text = out.decode()
    assert text.splitlines()[0] == "verify family=even n_max=1 m_max=1 q_max=3"
    assert "result: OK" in text
    assert "failures: 0" in text
    assert b"elapsed:" in err


def test_verify_odd_reports_display_deviations(capsysbinary):
    code, out, _ = run_cli(capsysbinary, [
        "verify", "--family", "odd", "--n-max", "1", "--q-max", "4"])
    assert code == 0
    text = out.decode()
    lines = text.splitlines()
    # every grid point of the expanded display is reported, match or not
    assert "dim_h_odd_displayed n=1 q=2: formula=3 oracle=2 MISMATCH" in lines
    assert "dim_h_odd_displayed n=1 q=0: formula=1 oracle=1 ok" in lines
    for q in range(5):
        assert any(l.startswith("dim_h_odd_displayed n=1 q=%d:" % q)
                   for l in lines)
        assert "dim_h_odd_proof n=1 q=%d: formula=%s oracle=%s ok" \
            % (q, min(q + 1, 2), min(q + 1, 2)) in lines
    assert "failures: 0" in lines
    assert "deviations: 3" in lines
    assert "result: OK" in lines


def test_verify_json_payload(capsysbinary):
    code, out, _ = run_cli(capsysbinary, [
        "verify", "--family", "odd", "--n-max", "1", "--q-max", "2",
        "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["failures"] == 0
    assert payload["deviations"] == 1
    formulas = {c["formula"] for c in payload["checks"]}
    assert formulas == {"dim_h_odd_proof", "dim_h_odd_displayed",
                        "ker_psi_dim[l=1]", "ker_psi_dim[l=2]",
                        "ker_psi_dim[l=3]"}
    bad = [c for c in payload["checks"] if not c["ok"]]
    assert bad == [{"formula": "dim_h_odd_displayed", "n": 1, "m": None,
                    "q": 2, "formula_value": 3, "oracle_value": 2,
                    "ok": False}]


def test_verify_exit_4_on_formula_failure(capsysbinary, monkeypatch):
    monkeypatch.setattr(verify, "dim_h_even", lambda n, m, q: 99)
    code, out, _ = run_cli(capsysbinary, [
        "verify", "--family", "even", "--n-max", "1", "--m-max", "1",
        "--q-max", "1"])
    assert code == 4
    assert b"result: MISMATCH" in out
    assert b"formula=99" in out


def test_usage_errors_exit_1(capsysbinary):
    for argv in ([], ["frobnicate"], ["odd", "--n", "1"],
                 ["odd", "--n", "x", "--q-max", "2"],
                 ["verify", "--family", "odd", "--n-max", "1",
                  "--q-max", "2", "--format", "csv"]):
        code, _, err = run_cli(capsysbinary, argv)
        assert code == 1, argv
        assert err != b""


def test_validation_errors_exit_2(capsysbinary):
    for argv in (["odd", "--n", "0", "--q-max", "2"],
                 ["even", "--n", "1", "--m", "0", "--q-max", "2"],
                 ["odd", "--n", "1", "--q-max", "-1"]):
        code, _, err = run_cli(capsysbinary, argv)
        assert code == 2, argv
        assert b"validation error" in err


def test_resource_refusal_exit_3(capsysbinary):
    code, _, err = run_cli(capsysbinary, [
        "odd", "--n", "3", "--q-max", "4", "--column-cap", "5"])
    assert code == 3
    assert b"resource refusal" in err


def test_bad_files_exit_codes(tmp_path, capsysbinary):
    path = tmp_path / "broken.alg"
    path.write_text("name a\ngenerator x 0\nbracket x w = x:1\n")
    code, _, err = run_cli(capsysbinary, [
        "compute", "--algebra", str(path), "--q-max", "1"])
    assert code == 1
    assert b"parse error" in err and b"line 3" in err

    path.write_text("name a\ngenerator x 0\ngenerator z 0\nbracket x x = z:1\n")
    code, _, err = run_cli(capsysbinary, [
        "compute", "--algebra", str(path), "--q-max", "1"])
    assert code == 2
    assert b"validation error" in err

    path.write_bytes(b"name a\ngenerator x \xff\n")
    code, _, err = run_cli(capsysbinary, [
        "compute", "--algebra", str(path), "--q-max", "1"])
    assert code == 1
    assert b"parse error" in err and b"line 2" in err

    code, _, err = run_cli(capsysbinary, [
        "compute", "--algebra", str(tmp_path / "missing.alg"), "--q-max", "1"])
    assert code == 1
    assert b"cannot read input" in err


def test_help_exits_zero(capsysbinary):
    code, out, _ = run_cli(capsysbinary, ["--help"])
    assert code == 0
    assert b"VERB" in out
    for verb in ("even", "odd", "compute", "verify"):
        code, out, _ = run_cli(capsysbinary, [verb, "--help"])
        assert code == 0


def test_output_is_byte_deterministic(capsysbinary):
    commands = [
        ["even", "--n", "1", "--m", "1", "--q-max", "3", "--format", "json"],
        ["even", "--n", "1", "--m", "1", "--q-max", "3", "--format", "csv"],
        ["odd", "--n", "2", "--q-max", "3", "--format", "text",
         "--method", "both"],
        ["verify", "--family", "odd", "--n-max", "1", "--q-max", "3",
         "--format", "json"],
    ]
    for argv in commands:
        first = run_cli(capsysbinary, argv)
        second = run_cli(capsysbinary, argv)
        assert first[0] == second[0]
        assert first[1] == second[1], argv


def _readme_commands():
    """The heisenberg-cohomology lines of README's "Command line" block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("heisenberg-cohomology ")]


def test_readme_examples_run(tmp_path, capsysbinary):
    path = tmp_path / "myalgebra.alg"
    path.write_text(format_algebra(make_heisenberg_odd(1)))
    commands = _readme_commands()
    assert sorted({argv[0] for argv in commands}) == ["compute", "even", "odd", "verify"]
    for argv in commands:
        argv = [str(path) if a == "myalgebra.alg" else a for a in argv]
        code, out, err = run_cli(capsysbinary, argv)
        assert code == 0 and out, (argv, err)
        assert b"Traceback" not in out + err, argv


def _refusal(name, q, columns):
    return ("resource refusal: refusing %s at q=%d: matrix has %d columns, "
            "cap is 5000 (raise the cap to force the computation)\n"
            % (name, q, columns)).encode()


def _never_built(*args):
    raise AssertionError("the family was built before the refusal")


def test_refusal_comes_before_the_family_is_built(capsysbinary, monkeypatch):
    monkeypatch.setattr(cli, "make_heisenberg_even", _never_built)
    monkeypatch.setattr(cli, "make_heisenberg_odd", _never_built)
    for argv, message in (
            (["even", "--n", "400", "--m", "1", "--q-max", "9"],
             _refusal("h_{400,1}", 2, 321202)),
            (["even", "--n", "400", "--m", "1", "--q-max", "9", "--method", "both"],
             _refusal("h_{400,1}", 2, 321202)),
            (["odd", "--n", "3000000", "--q-max", "2"],
             _refusal("h_3000000", 1, 6000001))):
        code, out, err = run_cli(capsysbinary, argv)
        assert (code, out, err) == (3, b"", message), argv


def test_verify_refuses_the_grid_before_computing(capsysbinary, monkeypatch):
    # the first point over the cap is m=97 (5047 columns at q=2); the
    # 96 points before it fit, and none of them may be computed
    monkeypatch.setattr(verify, "betti_table", _never_built)
    monkeypatch.setattr(verify, "_enter", _never_built)
    for argv, message in (
            (["verify", "--family", "even", "--n-max", "1", "--m-max", "120",
              "--q-max", "2"], _refusal("h_{1,97}", 2, 5047)),
            (["verify", "--family", "odd", "--n-max", "9", "--q-max", "3",
              "--column-cap", "300"],
             _refusal("h_6", 3, 377).replace(b"cap is 5000", b"cap is 300"))):
        code, out, err = run_cli(capsysbinary, argv)
        assert (code, out, err) == (3, b"", message), argv


def test_verify_refuses_an_oversized_grid_from_its_size(capsysbinary, monkeypatch):
    # 10^8 points at q=0 each fit the cap; the point count alone refuses
    monkeypatch.setattr(verify, "betti_table", _never_built)
    monkeypatch.setattr(verify, "_enter", _never_built)
    # the per-point checks are made in limits.check_grid
    monkeypatch.setattr(limits, "check_column_cap", _never_built)
    monkeypatch.setattr(limits, "_check_psi_codomain", _never_built)
    for argv, points in (
            (["verify", "--family", "odd", "--n-max", "100000000", "--q-max", "0"],
             100000000),
            (["verify", "--family", "even", "--n-max", "40", "--m-max", "40",
              "--q-max", "0"], 1600)):
        code, out, err = run_cli(capsysbinary, argv)
        assert (code, out) == (3, b""), argv
        assert err == ("resource refusal: refusing a verify grid of %d points, "
                       "limit is %d\n" % (points, verify.MAX_GRID_POINTS)).encode()


def test_verify_refuses_an_oversized_psi_codomain(capsysbinary, monkeypatch):
    # every h_n of the grid fits the cap and its C^{q_max+1} fits the
    # codomain bound, but psi's A^{q_max+2} over (n|n) does not from n=73
    # on (n=16 at a cap of 50); no point may be computed
    monkeypatch.setattr(verify, "_enter", _never_built)
    monkeypatch.setattr(verify, "make_heisenberg_odd", _never_built)
    for argv, message in (
            (["verify", "--family", "odd", "--n-max", "499", "--q-max", "1"],
             "refusing h_73 at q=1: psi's codomain A^3 has 518738 rows, "
             "limit is 500000"),
            (["verify", "--family", "odd", "--n-max", "20", "--q-max", "1",
              "--column-cap", "50"],
             "refusing h_16 at q=1: psi's codomain A^3 has 5472 rows, "
             "limit is 5000")):
        code, out, err = run_cli(capsysbinary, argv)
        assert (code, out) == (3, b""), argv
        assert err == ("resource refusal: %s (100 times the column cap; raise "
                       "the cap to force the computation)\n" % message).encode()


def test_negative_column_cap_is_a_usage_error(capsysbinary, monkeypatch):
    for name in ("check_column_cap", "betti_table", "verify_family",
                 "parse_algebra", "make_heisenberg_even", "make_heisenberg_odd"):
        monkeypatch.setattr(cli, name, _never_built)
    for argv in (["even", "--n", "1", "--m", "1", "--q-max", "1"],
                 ["odd", "--n", "1", "--q-max", "1", "--method", "formula"],
                 ["compute", "--algebra", "missing.alg", "--q-max", "1"],
                 ["verify", "--family", "odd", "--n-max", "1", "--q-max", "1"]):
        for cap in ("-1", "-5000"):
            code, out, err = run_cli(capsysbinary, argv + ["--column-cap", cap])
            assert (code, out) == (1, b""), argv
            assert err.endswith(("error: argument --column-cap: must be "
                                 "nonnegative, got %s\n" % cap).encode()), err
    monkeypatch.undo()
    # a cap of 0 refuses every rank computation at q=0 (C^0 has one
    # column), and the closed forms never refuse
    code, _, err = run_cli(capsysbinary, ["even", "--n", "1", "--m", "1",
                                          "--q-max", "1", "--column-cap", "0"])
    assert (code, err) == (3, _refusal("h_{1,1}", 0, 1).replace(b"cap is 5000",
                                                               b"cap is 0"))
    code, _, _ = run_cli(capsysbinary, ["odd", "--n", "1", "--q-max", "1",
                                        "--method", "formula", "--column-cap", "0"])
    assert code == 0


def test_oversized_codomain_refuses_before_the_family_is_built(capsysbinary,
                                                              monkeypatch):
    # 4999 columns at q=1 fit the cap, but d_1's codomain C^2 has
    # 12,495,001 rows, over 100 times the cap
    monkeypatch.setattr(cli, "make_heisenberg_odd", _never_built)
    monkeypatch.setattr(cli, "betti_table", _never_built)
    code, out, err = run_cli(capsysbinary, ["odd", "--n", "2499", "--q-max", "1"])
    assert (code, out) == (3, b"")
    assert err == (b"resource refusal: refusing h_2499 at q=1: codomain C^2 has "
                   b"12495001 rows, limit is 500000 (100 times the column cap; "
                   b"raise the cap to force the computation)\n")


def test_refusal_message_matches_betti_table(capsysbinary):
    from heisenberg_cohomology.cohomology import ColumnCapExceeded, betti_table
    with pytest.raises(ColumnCapExceeded) as exc:
        betti_table(make_heisenberg_odd(3), 4, 5)
    code, out, err = run_cli(capsysbinary, [
        "odd", "--n", "3", "--q-max", "4", "--column-cap", "5"])
    assert (code, out) == (3, b"")
    assert err == ("resource refusal: %s\n" % exc.value).encode()


def test_formula_method_never_refuses(capsysbinary, monkeypatch):
    monkeypatch.setattr(cli, "make_heisenberg_even", _never_built)
    code, out, _ = run_cli(capsysbinary, [
        "even", "--n", "400", "--m", "1", "--q-max", "9", "--method", "formula",
        "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out.decode())))[1:]
    assert [r[1] for r in rows] == [str(q) for q in range(10)]
    assert all(r[6] == "formula-even" for r in rows)


def test_family_parameters_are_checked_before_q_max(capsysbinary):
    for argv, message in (
            (["even", "--n", "0", "--m", "1", "--q-max", "-1"],
             b"validation error: h_{n,m} needs n >= 1 and m >= 1\n"),
            (["odd", "--n", "0", "--q-max", "-1"],
             b"validation error: h_n needs n >= 1\n"),
            (["odd", "--n", "1", "--q-max", "-1", "--method", "formula"],
             b"validation error: --q-max must be nonnegative\n")):
        code, out, err = run_cli(capsysbinary, argv)
        assert (code, out, err) == (2, b"", message), argv


def test_internal_error_exit_5_without_traceback(capsysbinary, monkeypatch):
    def broken(*args):
        raise AssertionError("d_1 has shape 3x2, not dim C^2 x dim C^1")
    monkeypatch.setattr(cli, "betti_table", broken)
    code, out, err = run_cli(capsysbinary, [
        "odd", "--n", "1", "--q-max", "2"])
    assert (code, out) == (5, b"")
    assert err == b"internal error: d_1 has shape 3x2, not dim C^2 x dim C^1\n"
    assert b"Traceback" not in err


def test_inconsistent_report_is_an_internal_error(capsysbinary, monkeypatch):
    from heisenberg_cohomology.cohomology import (CohomologyReport,
                                                  METHOD_FORMULA_ODD_PROOF)

    def inconsistent(n, q):
        # dim H^q = 5 with 1 cocycle and no coboundary
        return CohomologyReport("h_%d" % n, q, 1, 1, 0, 5, METHOD_FORMULA_ODD_PROOF)

    monkeypatch.setattr(cli, "odd_formula_report", inconsistent)
    code, out, err = run_cli(capsysbinary, [
        "odd", "--n", "1", "--q-max", "0", "--method", "formula"])
    assert (code, out) == (5, b"")
    assert err.startswith(b"internal error: inconsistent dimensions in CohomologyReport(")
    assert err.count(b"\n") == 1 and b"Traceback" not in err


def _degree_refusal(q_max):
    return ("resource refusal: refusing --q-max %d, limit is %d\n"
            % (q_max, cli.MAX_Q_MAX)).encode()


def test_degree_limit_refuses_before_any_work(capsysbinary, monkeypatch, tmp_path):
    for name in ("make_heisenberg_even", "make_heisenberg_odd", "betti_table",
                 "check_column_cap", "even_formula_report",
                 "odd_formula_report", "parse_algebra"):
        monkeypatch.setattr(cli, name, _never_built)
    monkeypatch.setattr(verify, "betti_table", _never_built)
    monkeypatch.setattr(verify, "_enter", _never_built)
    monkeypatch.setattr(limits, "check_column_cap", _never_built)
    missing = str(tmp_path / "missing.alg")
    for q_max in (cli.MAX_Q_MAX + 1, 100000000):
        q = str(q_max)
        for argv in (
                ["even", "--n", "1", "--m", "1", "--q-max", q],
                ["even", "--n", "1", "--m", "1", "--q-max", q, "--method", "both"],
                ["odd", "--n", "1", "--q-max", q, "--method", "formula"],
                ["odd", "--n", "3000000", "--q-max", q],
                ["compute", "--algebra", missing, "--q-max", q],
                ["verify", "--family", "even", "--n-max", "1", "--m-max", "1",
                 "--q-max", q],
                ["verify", "--family", "odd", "--n-max", "3", "--q-max", q]):
            code, out, err = run_cli(capsysbinary, argv)
            assert (code, out, err) == (3, b"", _degree_refusal(q_max)), argv


def test_argument_checks_come_before_the_degree_limit(capsysbinary):
    q = "100000000"
    for argv, code, message in (
            (["even", "--n", "0", "--m", "1", "--q-max", q], 2,
             b"validation error: h_{n,m} needs n >= 1 and m >= 1\n"),
            (["odd", "--n", "0", "--q-max", q, "--method", "formula"], 2,
             b"validation error: h_n needs n >= 1\n"),
            (["verify", "--family", "even", "--n-max", "0", "--m-max", "1",
              "--q-max", q], 2, b"validation error: need n_max >= 1 and q_max >= 0\n"),
            (["verify", "--family", "odd", "--n-max", "1", "--m-max", "1",
              "--q-max", q], 2, b"validation error: family 'odd' takes no m_max\n"),
            (["verify", "--family", "odd", "--n-max", "100000000", "--q-max", q], 3,
             b"resource refusal: refusing a verify grid of 100000000 points, "
             b"limit is 1000\n")):
        assert run_cli(capsysbinary, argv) == (code, b"", message), argv


def test_degree_limit_itself_is_accepted(capsysbinary):
    code, out, _ = run_cli(capsysbinary, [
        "even", "--n", "1", "--m", "1", "--q-max", str(cli.MAX_Q_MAX),
        "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out.decode())))[1:]
    assert [r[1] for r in rows] == [str(q) for q in range(cli.MAX_Q_MAX + 1)]


def test_cli_imports_neither_dataclasses_nor_inspect():
    # every CLI child process pays for what importing the cli loads; the
    # record types are plain slot classes, so neither module is needed
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))

    def loaded(statement):
        probe = ("import sys; %s; print(' '.join(m for m in ('dataclasses', 'inspect')"
                 " if m in sys.modules))" % statement)
        return subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                              capture_output=True, text=True).stdout.split()

    if loaded("pass"):
        pytest.skip("a bare interpreter here already imports %s" % loaded("pass"))
    assert loaded("import heisenberg_cohomology.cli") == []


def _child(code):
    """The stdout of a fresh interpreter that runs `code` against src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def _main_in_a_child(argv):
    """cli.main(argv)'s exit code in a fresh interpreter, and the modules
    loaded when it returns: the package's, and json and verify."""
    out = _child(
        "import io, sys\n"
        "from heisenberg_cohomology import cli\n"
        "sys.stdout, sys.stderr = io.TextIOWrapper(io.BytesIO()), io.StringIO()\n"
        "code = cli.main(%r)\n"
        "print(code, *sorted(sys.modules), file=sys.__stdout__)\n" % (argv,)).split()
    return int(out[0]), [m for m in out[1:]
                         if m.startswith("heisenberg_cohomology") or m == "json"]


ENGINE_FREE = ["heisenberg_cohomology", "heisenberg_cohomology.cli",
               "heisenberg_cohomology.limits"]


@pytest.mark.parametrize("argv", (
    ["even", "--n", "14", "--m", "16", "--q-max", "3"],
    ["odd", "--n", "2499", "--q-max", "1"],
    ["even", "--n", "1", "--m", "1", "--q-max", "101"],
    ["verify", "--family", "odd", "--n-max", "499", "--q-max", "1"]), ids=" ".join)
def test_a_refusal_loads_no_engine_module(argv):
    # the refusals need the arguments alone, so a refused child compiles
    # nothing of the engine
    assert _main_in_a_child(argv) == (3, ENGINE_FREE)


def test_a_text_table_loads_neither_verify_nor_json():
    if "json" in _child("import sys; print(*sys.modules)").split():
        pytest.skip("a bare interpreter here already imports json")
    code, loaded = _main_in_a_child(["even", "--n", "2", "--m", "2", "--q-max", "2"])
    assert code == 0
    assert "heisenberg_cohomology.cohomology" in loaded
    assert "heisenberg_cohomology.verify" not in loaded and "json" not in loaded


def test_importing_the_package_loads_no_submodule():
    loaded = _child("import sys, heisenberg_cohomology; print(*sys.modules)").split()
    assert [m for m in loaded if m.startswith("heisenberg_cohomology")] \
        == ["heisenberg_cohomology"]


# tokens of the definition-file grammar, valid and not, for the fuzzer
_FILE_TOKENS = ("name", "generator", "bracket", "a", "x", "y", "z", "0", "1",
                "2", "=", "x:1", "z:1", "y:-1/2", "z:0", "x:1/0", "w:1", "#",
                "9" * 5000, "\u00e9")


def test_every_input_ends_one_of_three_ways(tmp_path, capsysbinary):
    # random argv and definition files: an answer, a documented refusal
    # or a one-line failure, in bounded time, and never a traceback
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    path = tmp_path / "fuzz.alg"
    small = st.integers(-2, 6)
    ints = st.one_of(small, small, st.sampled_from(
        (99, 100, 101, 10 ** 6, 10 ** 30, -10 ** 30, 2 ** 63))).map(str)
    choices = {"--format": ("text", "json", "csv", "yaml"),
               "--method": ("rank", "formula", "both", "x"),
               "--family": ("even", "odd", "x")}
    # each verb's options, required first; the others may be left out
    own = {"even": (3, "--n", "--m", "--q-max", "--format", "--method"),
           "odd": (2, "--n", "--q-max", "--format", "--method"),
           "compute": (1, "--q-max", "--format"),
           "verify": (3, "--family", "--n-max", "--q-max", "--m-max", "--format"),
           "frobnicate": (0, "--n")}
    anything = st.one_of(ints, st.sampled_from(("x", "", "1.5", "even", "json")))
    extra = st.tuples(st.sampled_from(("--n", "--m", "--family", "--method",
                                       "--algebra", "--column-cap", "--help")),
                      anything)

    def value(flag):
        return st.sampled_from(choices[flag]) if flag in choices else ints

    def argv_for(verb):
        required, *flags = own[verb]
        options = [st.tuples(st.just(f), value(f)) for f in flags[:required]]
        options += [st.one_of(st.none(), st.tuples(st.just(f), value(f)))
                    for f in flags[required:]]
        return st.tuples(st.just(verb), st.tuples(*options),
                         st.lists(extra, max_size=1),
                         # last, so it wins: every job admitted is at
                         # most 300 columns wide
                         st.integers(-1, 300))

    # random bytes, random lines, or a valid file with one random line more
    line = st.lists(st.sampled_from(_FILE_TOKENS), max_size=6).map(" ".join)
    valid = (format_algebra(make_heisenberg_odd(1)),
             format_algebra(make_heisenberg_even(1, 1)))
    near_valid = st.tuples(st.sampled_from(valid), line).map("".join)
    files = st.one_of(
        st.binary(max_size=40), st.lists(line, max_size=8).map("\n".join),
        near_valid, near_valid).map(
            lambda text: text if isinstance(text, bytes) else text.encode("utf-8"))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.sampled_from(sorted(own)).flatmap(argv_for), files)
    def check(spec, text):
        verb, options, extras, cap = spec
        path.write_bytes(text)
        argv = [verb]
        if verb == "compute":
            argv += ["--algebra", str(path)]
        for option in [o for o in options if o is not None] + extras:
            argv += option
        argv += ["--column-cap", str(cap)]
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        _, err = capsysbinary.readouterr()
        assert code in range(6), (argv, code)
        assert b"Traceback" not in err, argv
        assert elapsed < 10, (argv, elapsed)

    check()
