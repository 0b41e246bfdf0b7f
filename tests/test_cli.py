import csv
import io
import json

import pytest

from heisenberg_cohomology import cli, verify
from heisenberg_cohomology.algebra import make_heisenberg_odd
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
    monkeypatch.setattr(verify, "check_column_cap", _never_built)
    for argv, points in (
            (["verify", "--family", "odd", "--n-max", "100000000", "--q-max", "0"],
             100000000),
            (["verify", "--family", "even", "--n-max", "40", "--m-max", "40",
              "--q-max", "0"], 1600)):
        code, out, err = run_cli(capsysbinary, argv)
        assert (code, out) == (3, b""), argv
        assert err == ("resource refusal: refusing a verify grid of %d points, "
                       "limit is %d\n" % (points, verify.MAX_GRID_POINTS)).encode()


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
    monkeypatch.setattr(verify, "check_column_cap", _never_built)
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
