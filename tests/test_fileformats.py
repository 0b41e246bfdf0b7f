import csv
import io
import json
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from heisenberg_cohomology import algebra, cli
from heisenberg_cohomology.algebra import (LieSuperalgebra, adapted_basis,
                                           make_heisenberg_even,
                                           make_heisenberg_odd, validate)
from heisenberg_cohomology.cohomology import betti_table, cohomology_dims
from heisenberg_cohomology.fileformats import format_algebra, parse_algebra
from heisenberg_cohomology.limits import AlgebraParseError, AlgebraValidationError
from heisenberg_cohomology.reports import CSV_FIELDS, JSON_FIELDS, emit_report

from test_adapted_basis import HIDDEN_SUMS
from test_validate import BAD_SL2, OSP12, SL2, _table, change_basis, direct_sum


def test_round_trip_builtin_families():
    algebras = [make_heisenberg_odd(n) for n in (1, 2, 3)]
    algebras += [make_heisenberg_even(n, m) for n in (1, 2) for m in (1, 2)]
    # and tables with other names and coefficients: the hidden-basis
    # sums, and rational constants under a name holding ':', which no
    # bracket reads
    algebras += [alg for _, _, alg in HIDDEN_SUMS]
    algebras.append(LieSuperalgebra(
        "q:rational", [("x", 0), ("y", 0), ("u", 1), ("z", 0)],
        {(0, 1): {3: Fraction(-7, 3)}, (2, 2): {3: Fraction(1, 2)}}))
    for alg in algebras:
        text = format_algebra(alg)
        assert parse_algebra(text) == alg, alg.name
        # formatting is idempotent
        assert format_algebra(parse_algebra(text)) == text


def test_names_a_file_cannot_carry_are_refused():
    # no bracket could name a generator a:b, since a:b:1 reads as target a
    with pytest.raises(AlgebraParseError) as err:
        parse_algebra("name t\ngenerator x 0\ngenerator a:b 0\nbracket x x = a:b:1\n")
    assert str(err.value) == "line 3: generator name 'a:b' contains ':'"
    x = ("x", 0)
    for name, gens, refused in (
            ("n m", [x], "n m"), ("", [x], ""), ("a#b", [x], "a#b"),
            ("n\x1cm", [x], "n\x1cm"), ("n m", [("a:b", 0)], "n m"),
            ("t", [x, ("a:b", 1)], "a:b"), ("t", [x, ("x y", 0)], "x y"),
            ("t", [("#", 0)], "#"), ("t", [x, ("", 0), ("a:b", 0)], "")):
        alg = LieSuperalgebra(name, gens, {})
        with pytest.raises(ValueError) as err:
            format_algebra(alg)
        assert str(err.value) == "a definition file cannot carry the name %r" % refused


def test_hand_written_file_matches_constructor():
    text = """\
# odd-center Heisenberg superalgebra with one x/y pair
name h_1
generator x1 0
generator y1 1
generator z 1
bracket x1 y1 = z:1
"""
    assert parse_algebra(text) == make_heisenberg_odd(1)
    assert parse_algebra(text.encode("utf-8")) == make_heisenberg_odd(1)


def test_fractional_coefficients():
    text = """\
name half
generator y 1
generator z 0
bracket y y = z:1/2
"""
    alg = parse_algebra(text)
    assert alg.bracket(0, 0) == {1: Fraction(1, 2)}
    base = "name a\ngenerator x 0\ngenerator y 0\ngenerator z 0\n"
    for coeff, want in (("+3", {2: Fraction(3)}), ("-0", {}), ("4/2", {2: Fraction(2)}),
                        ("-7/3", {2: Fraction(-7, 3)}), ("007", {2: Fraction(7)})):
        alg = parse_algebra(base + "bracket x y = z:%s\n" % coeff)
        got = {pair: dict(targets) for pair, targets in alg.brackets.items()}
        assert got == ({(0, 1): want} if want else {}), coeff
        assert all(type(c) is Fraction for t in got.values() for c in t.values())


def test_reversed_pair_is_sign_normalized():
    base = "name a\ngenerator p 0\ngenerator q 0\ngenerator r 0\n"
    fwd = parse_algebra(base + "bracket p q = r:2\n")
    rev = parse_algebra(base + "bracket q p = r:-2\n")
    assert fwd == rev
    assert fwd.bracket(0, 1) == {2: Fraction(2)}
    # odd-odd pairs are symmetric: no sign flip on reversal
    odd = "name b\ngenerator u 1\ngenerator v 1\ngenerator w 0\n"
    assert parse_algebra(odd + "bracket u v = w:3\n") == \
        parse_algebra(odd + "bracket v u = w:3\n")


def parse_error(text):
    with pytest.raises(AlgebraParseError) as err:
        parse_algebra(text)
    return err.value


def test_parse_errors_carry_line_numbers():
    err = parse_error("name a\ngenerator x 0\nbracket x w = x:1\n")
    assert err.line == 3 and "unknown generator" in str(err)

    err = parse_error("name a\ngenerator x 2\n")
    assert err.line == 2 and "parity" in str(err)

    err = parse_error("name a\ngenerator x 0\ngenerator y 0\nbracket x y = x:1.5\n")
    assert err.line == 4 and "rational" in str(err)

    err = parse_error("name a\ngenerator x 0\ngenerator y 0\nbracket x y = x:1/0\n")
    assert err.line == 4 and "rational" in str(err)

    # the grammar's digits are ASCII: an Arabic-Indic or a fullwidth
    # digit is refused wherever it stands
    for coeff in ("\u0663", "1/1\u0663", "\uff11", "\uff11/\uff17", "-\u0663/2"):
        err = parse_error("name a\ngenerator x 0\ngenerator y 0\n"
                          "bracket x y = x:%s\n" % coeff)
        assert err.line == 4 and str(err).endswith("malformed rational %r" % coeff), coeff

    err = parse_error("name a\ngenerator x 0\ngenerator x 1\n")
    assert err.line == 3 and "duplicate generator" in str(err)

    err = parse_error("name a\nname b\n")
    assert err.line == 2 and "duplicate 'name'" in str(err)

    err = parse_error("generator x 0\n")
    assert "missing 'name'" in str(err)

    err = parse_error("name a\nfoo bar\n")
    assert err.line == 2 and "unknown directive" in str(err)

    err = parse_error("name a\ngenerator x 0\ngenerator y 0\nbracket x y x:1\n")
    assert err.line == 4 and "expected 'bracket" in str(err)

    err = parse_error("name a\n")
    assert "no generators" in str(err)

    for text, line in ((b"\xff", 1), (b"name a\n\xfe", 2),
                       (b"name a\ngenerator x \xff\n", 2),
                       (b"name a\r\ngenerator x 0\n# caf\xe9\n", 3)):
        err = parse_error(text)
        assert err.line == line and "not UTF-8" in str(err), text


# the characters that end a line for str.splitlines and not for an editor
NOT_NEWLINES = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"

PLAIN = "name a\ngenerator x 0\ngenerator y 0\ngenerator z 0\nbracket x y = z:1\n"


def test_a_comment_ends_only_at_a_newline():
    want = parse_algebra(PLAIN)
    for ch in NOT_NEWLINES:
        # each comment hides a directive that would change the table
        text = ("name a # note%sname b\ngenerator x 0 # parity%sgenerator w 1\n"
                "generator y 0\ngenerator z 0\n# note%sbracket x z = y:1\n"
                "bracket x y = z:1\n" % (ch, ch, ch))
        assert parse_algebra(text) == want, repr(ch)
        assert parse_algebra(text.encode("utf-8")) == want, repr(ch)


def test_crlf_and_cr_files_parse_as_lf_files():
    want = parse_algebra(PLAIN)
    for newline in ("\r\n", "\r"):
        text = PLAIN.replace("\n", newline)
        assert parse_algebra(text) == want
        assert parse_algebra(text.encode("ascii")) == want
        err = parse_error("name a%sgenerator x 0%s%sgenerator y 2%s" % ((newline,) * 4))
        assert err.line == 4 and "parity" in str(err)


def test_a_line_number_after_a_form_feed_is_the_editors():
    err = parse_error("name a\ngenerator x 0\n\f\ngenerator y 2\n")
    assert err.line == 4 and "parity" in str(err)
    err = parse_error(b"name a\n# \x0c page\n\xff")
    assert err.line == 3 and "not UTF-8" in str(err)


def test_an_over_long_numeral_is_a_parse_error(tmp_path, capsysbinary):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length")
    digits = "7" * (limit + 700)
    for coeff in (digits, "-" + digits, "1/" + digits):
        text = "name a\ngenerator x 0\ngenerator y 0\nbracket x y = x:%s\n" % coeff
        err = parse_error(text)
        assert err.line == 4 and "rational of %d characters" % len(coeff) in str(err)
    path = tmp_path / "long.alg"
    path.write_text("name a\ngenerator x 0\ngenerator y 0\n"
                    "generator z 0\nbracket x y = z:%s\n" % digits)
    code = cli.main(["compute", "--algebra", str(path), "--q-max", "1"])
    captured = capsysbinary.readouterr()
    assert (code, captured.out) == (1, b"")
    assert captured.err.startswith(b"parse error: line 5: rational of %d characters: "
                                   % len(digits))
    assert captured.err.count(b"\n") == 1


def test_duplicate_pair_rejected_in_either_order():
    base = ("name a\ngenerator p 0\ngenerator q 0\ngenerator r 0\n"
            "bracket p q = r:1\n")
    err = parse_error(base + "bracket p q = r:1\n")
    assert err.line == 6 and "already given on line 5" in str(err)
    err = parse_error(base + "bracket q p = r:-1\n")
    assert err.line == 6 and "already given on line 5" in str(err)


def test_axiom_violations_are_validation_errors():
    # an even generator cannot square to something nonzero
    text = """\
name bad
generator x 0
generator z 0
bracket x x = z:1
"""
    with pytest.raises(AlgebraValidationError) as err:
        parse_algebra(text)
    assert any("skew" in v for v in err.value.violations)


def _hidden(name, table, seed):
    alg = LieSuperalgebra(name, *change_basis(random.Random(seed), table))
    # the rewrite is not the identity, so the check runs on another table
    assert adapted_basis(alg) is not alg, name
    return alg


# skew-symmetric and parity-homogeneous; only the Jacobi identity fails
JACOBI_ONLY = _hidden("jacobi_only", direct_sum(BAD_SL2, _table(make_heisenberg_odd(1))), 5)


def test_hidden_jacobi_fault_is_worded_in_the_files_basis():
    issues = validate(JACOBI_ONLY)
    assert issues and all(v.startswith("jacobi:") for v in issues)
    assert validate(adapted_basis(JACOBI_ONLY)) not in ([], issues)
    with pytest.raises(AlgebraValidationError) as err:
        parse_algebra(format_algebra(JACOBI_ONLY))
    # the messages name the file's own basis, not the adapted table
    # that was checked
    assert err.value.violations == issues


def test_valid_hidden_sums_parse_to_their_input(monkeypatch):
    checked = []
    monkeypatch.setattr(algebra, "validate",
                        lambda alg: checked.append(alg) or validate(alg))
    h_1, h_2 = _table(make_heisenberg_odd(1)), _table(make_heisenberg_odd(2))
    h_11, h_12 = _table(make_heisenberg_even(1, 1)), _table(make_heisenberg_even(1, 2))
    for k, (a, b) in enumerate(((SL2, h_1), (OSP12, h_12), (h_2, h_11))):
        alg = _hidden("sum%d" % k, direct_sum(a, b), k)
        assert validate(alg) == []
        checked.clear()
        assert parse_algebra(format_algebra(alg)) == alg
        # a valid file is checked once, on the sparse adapted table
        assert checked == [adapted_basis(alg)]


def test_compute_refuses_a_hidden_jacobi_fault(tmp_path, capsysbinary):
    path = tmp_path / "jacobi.alg"
    path.write_text(format_algebra(JACOBI_ONLY))
    code = cli.main(["compute", "--algebra", str(path), "--q-max", "2"])
    captured = capsysbinary.readouterr()
    assert code == 2 and captured.out == b""
    want = "validation error: %s\n" % AlgebraValidationError(validate(JACOBI_ONLY))
    assert captured.err == want.encode("utf-8")


# 1200 even generators: C^1 fits the default cap of 5000 columns, and
# C^2 has 719,400 rows, over the 500,000 the cap allows a codomain
WIDE = 1200


def _wide_text():
    # [g0, g1] = g2 + g3 is no single generator, so the adapted basis
    # is not the identity
    return ("name wide\n"
            + "".join("generator g%d 0\n" % i for i in range(WIDE))
            + "bracket g0 g1 = g2:1 g3:1\n")


def test_wide_file_with_a_basis_change_parses_in_sparse_work():
    tracemalloc.start()
    try:
        alg = parse_algebra(_wide_text())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a rewrite over every generator pair builds about 720,000 dicts,
    # some 160 MiB; the sparse one touches the single bracket
    assert peak < 4 * 2 ** 20
    adapted = adapted_basis(alg)
    assert adapted is not alg
    # the rewrite kept on alg holds the nonzero brackets only
    assert adapted.brackets == {(0, 1): {2: 1}}


def test_compute_refuses_a_wide_file_by_its_size(tmp_path, capsysbinary):
    path = tmp_path / "wide.alg"
    path.write_text(_wide_text())
    code = cli.main(["compute", "--algebra", str(path), "--q-max", "1"])
    captured = capsysbinary.readouterr()
    assert code == 3 and captured.out == b""
    assert captured.err == (b"resource refusal: refusing wide at q=1: codomain C^2 "
                            b"has 719400 rows, limit is 500000 (100 times the column "
                            b"cap; raise the cap to force the computation)\n")


def test_emit_csv_golden():
    rep = cohomology_dims(make_heisenberg_odd(1), 0)
    data = emit_report([rep], "csv").decode()
    lines = data.splitlines()
    assert lines[0] == "algebra,q,dim_cochain,dim_cocycles,dim_coboundaries,dim_cohomology,method"
    assert lines[1] == "h_1,0,1,1,0,1,rank"
    assert data.endswith("\n")


def test_emit_csv_quotes_comma_in_name():
    rep = cohomology_dims(make_heisenberg_even(1, 1), 0)
    data = emit_report([rep], "csv").decode()
    assert '"h_{1,1}"' in data.splitlines()[1]
    rows = list(csv.reader(io.StringIO(data)))
    assert rows[1][0] == "h_{1,1}"


def test_emit_empty_report_list():
    assert emit_report([], "csv").decode() == ",".join(CSV_FIELDS) + "\n"
    assert json.loads(emit_report([], "json")) == []


def test_emit_json_field_names():
    reports = betti_table(make_heisenberg_odd(1), 2)
    payload = json.loads(emit_report(reports, "json"))
    assert len(payload) == 3
    for obj, rep in zip(payload, reports):
        assert tuple(obj.keys()) == JSON_FIELDS
        assert obj["algebra_name"] == "h_1"
        assert obj["q"] == rep.q
        assert obj["dim_cohomology"] == rep.dim_cohomology
        assert obj["method"] == "rank"


def test_emit_text_layout():
    reports = betti_table(make_heisenberg_odd(1), 1)
    lines = emit_report(reports, "text").decode().splitlines()
    assert lines[0].split() == list(CSV_FIELDS)
    assert lines[1].split() == ["h_1", "0", "1", "1", "0", "1", "rank"]
    assert lines[2].split() == ["h_1", "1", "3", "2", "0", "2", "rank"]


def test_emit_is_deterministic():
    reports = betti_table(make_heisenberg_even(1, 1), 3)
    for fmt in ("json", "csv", "text"):
        assert emit_report(reports, fmt) == emit_report(reports, fmt)
    with pytest.raises(ValueError):
        emit_report(reports, "yaml")
