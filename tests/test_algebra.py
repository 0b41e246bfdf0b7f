import copy
import pickle
from fractions import Fraction

import pytest

from heisenberg_cohomology.algebra import (
    EVEN, ODD, Generator, LieSuperalgebra, make_heisenberg_even,
    make_heisenberg_odd, validate)
from heisenberg_cohomology.cohomology import betti_table
from heisenberg_cohomology.elements import DifferentialMatrix, differential_matrix
from heisenberg_cohomology.limits import ReportInvariantError
from heisenberg_cohomology.reports import METHOD_RANK, CohomologyReport
from heisenberg_cohomology.verify import verify_family

from oracles import centralizer, derived_subalgebra_dim
from test_validate import OSP12


def test_even_family_shape():
    alg = make_heisenberg_even(1, 1)
    assert alg.name == "h_{1,1}"
    assert alg.dim == 4
    assert alg.superdim == (3, 1)
    assert len(alg.brackets) == 2
    assert alg.bracket(1, 2) == {0: 1}          # [x1, x2] = z
    assert alg.bracket(3, 3) == {0: 1}          # [y1, y1] = z
    alg23 = make_heisenberg_even(2, 3)
    assert alg23.superdim == (5, 3)
    assert len(alg23.brackets) == 5
    assert validate(alg23) == []


def test_odd_family_shape():
    alg = make_heisenberg_odd(1)
    assert alg.name == "h_1"
    assert alg.dim == 3
    assert alg.superdim == (1, 2)
    assert alg.bracket(0, 1) == {2: 1}          # [x1, y1] = z
    assert make_heisenberg_odd(2).superdim == (2, 3)
    assert validate(make_heisenberg_odd(3)) == []


def test_family_argument_guards():
    for bad in (0, -1):
        with pytest.raises(ValueError):
            make_heisenberg_even(bad, 1)
        with pytest.raises(ValueError):
            make_heisenberg_even(1, bad)
        with pytest.raises(ValueError):
            make_heisenberg_odd(bad)


def test_derived_bracket_signs():
    alg = make_heisenberg_even(2, 2)
    # [x_{n+i}, x_i] = -z, while odd self-brackets have no sign to flip
    assert alg.bracket(3, 1) == {0: -1}
    assert alg.bracket(1, 3) == {0: 1}
    assert alg.bracket(5, 5) == {0: 1}
    odd = make_heisenberg_odd(2)
    # [y_i, x_i] = -[x_i, y_i]: even-odd pairs are antisymmetric
    assert odd.bracket(2, 0) == {4: -1}
    assert odd.bracket(0, 2) == {4: 1}


def test_center_is_exactly_z():
    for alg, z_index in ((make_heisenberg_even(1, 1), 0),
                         (make_heisenberg_even(2, 2), 0),
                         (make_heisenberg_odd(1), 2),
                         (make_heisenberg_odd(2), 4)):
        assert centralizer(alg) == [z_index]


def test_derived_subalgebra_is_span_of_z():
    for alg in (make_heisenberg_even(1, 1), make_heisenberg_even(3, 2),
                make_heisenberg_odd(1), make_heisenberg_odd(3)):
        assert derived_subalgebra_dim(alg) == 1


def test_validate_skew_symmetry_violation():
    alg = LieSuperalgebra("bad", [("x1", EVEN), ("z", EVEN)],
                          {(0, 0): {1: 1}})
    issues = validate(alg)
    assert any("skew-symmetry" in v for v in issues)


def test_validate_parity_violation():
    alg = LieSuperalgebra("bad", [("x1", EVEN), ("y1", ODD), ("x2", EVEN)],
                          {(0, 1): {2: 1}})
    issues = validate(alg)
    assert any("parity" in v for v in issues)


def test_validate_jacobi_violation():
    # [a,b]=c, [b,c]=a, [a,c]=-c leaves [b,[c,a]] = a uncancelled
    alg = LieSuperalgebra("bad", [("a", EVEN), ("b", EVEN), ("c", EVEN)],
                          {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {2: -1}})
    issues = validate(alg)
    assert any("jacobi" in v for v in issues)


def test_validate_jacobi_with_odd_signs():
    # [y,y]=x with [x,y]=y: jacobi on (y,y,y) needs the odd sign rule
    alg = LieSuperalgebra("bad", [("x", EVEN), ("y", ODD)],
                          {(1, 1): {0: 1}, (0, 1): {1: 1}})
    issues = validate(alg)
    assert any("jacobi" in v for v in issues)
    ok = LieSuperalgebra("ok", [("x", EVEN), ("y", ODD)], {(1, 1): {0: 1}})
    assert validate(ok) == []


def test_constructor_guards():
    with pytest.raises(ValueError):
        LieSuperalgebra("dup", [("a", EVEN), ("a", EVEN)], {})
    with pytest.raises(ValueError):
        LieSuperalgebra("parity", [("a", 2)], {})
    # a parity is refused unless it equals 0 or 1, before it is converted
    for parity in (1.5, 0.7, -1, "1", "0", None):
        with pytest.raises(ValueError, match="parity of 'b' must be 0 or 1"):
            LieSuperalgebra("x", [("a", EVEN), ("b", parity)], {})
    assert LieSuperalgebra("x", [("a", 1.0), ("b", False)], {})._parities == (ODD, EVEN)
    with pytest.raises(ValueError):
        LieSuperalgebra("empty", [], {})
    with pytest.raises(ValueError):
        LieSuperalgebra("unordered", [("a", EVEN), ("b", EVEN)], {(1, 0): {0: 1}})
    with pytest.raises(ValueError):
        LieSuperalgebra("range", [("a", EVEN)], {(0, 0): {3: 1}})
    with pytest.raises(ValueError):
        LieSuperalgebra("gen", [Generator("a", 1, EVEN)], {})
    # a float is refused, not taken as the binary fraction it stores
    # (0.1 as 3602879701896397/36028797018963968) or let out as
    # OverflowError (inf) or ValueError (nan)
    for c in (0.1, 0.5, float("inf"), float("nan")):
        with pytest.raises(TypeError, match=r"bracket \(0, 1\) has the float %s on target 2"
                           % c):
            LieSuperalgebra("x", [("a", EVEN), ("b", EVEN), ("c", EVEN)], {(0, 1): {2: c}})


def test_a_generator_index_that_is_not_an_int_is_refused():
    # a float pair or target passed the range check, and the engine
    # failed on it as a tuple index
    gens = [("x", EVEN), ("y", ODD), ("z", ODD)]
    for brackets, bad in (({(0, 1.0): {2: 1}}, "1.0"), ({(0, 1): {2.0: 1}}, "2.0"),
                          ({(Fraction(0), 1): {2: 1}}, "Fraction"), ({(0, 1): {"2": 1}}, "'2'")):
        with pytest.raises(TypeError, match="names the generator index %s" % bad):
            LieSuperalgebra("t", gens, brackets)


def test_constructor_normalizes_coefficients():
    alg = LieSuperalgebra("h", [("z", EVEN), ("y", ODD)],
                          {(1, 1): {0: "1/2"}, (0, 1): {1: 0}})
    assert alg.bracket(1, 1) == {0: Fraction(1, 2)}
    assert (0, 1) not in alg.brackets
    assert alg.bracket(0, 1) == {}
    # the view holds every constant as exactly a Fraction, in the given
    # order, and is built once
    subclass = type("FractionSubclass", (Fraction,), {})
    exact = Fraction(-4, 5)
    given = {0: 3, 1: "2/6", 2: exact, 3: subclass(1, 3), 4: True, 5: 0}
    alg = LieSuperalgebra("c", [("g%d" % k, EVEN) for k in range(6)],
                          {(0, 1): given, (2, 3): {4: 0, 5: "0/7"}})
    stored = alg.brackets[(0, 1)]
    assert list(stored) == [0, 1, 2, 3, 4] and (2, 3) not in alg.brackets
    assert all(type(c) is Fraction for c in stored.values())
    assert stored == {0: 3, 1: Fraction(1, 3), 2: exact, 3: Fraction(1, 3), 4: 1}
    assert alg.brackets is alg.brackets


def test_bracket_returns_a_copy():
    # osp(1|2) brackets every parity pair in both orders; the second table
    # has constants over a common denominator of 105
    rational = ([("a", EVEN), ("b", EVEN), ("c", EVEN), ("u", ODD), ("v", ODD)],
                {(0, 1): {2: Fraction(1, 3)}, (3, 3): {2: Fraction(3, 5)},
                 (3, 4): {2: Fraction(-2, 7)}})
    for gens, brackets in (OSP12, rational):
        alg, twin = (LieSuperalgebra("g", gens, brackets) for _ in range(2))
        pairs = [(i, j) for i in range(alg.dim) for j in range(alg.dim)]
        for i, j in pairs:
            got = alg.bracket(i, j)
            for k in got:
                got[k] += 1
            got[0] = 7
        assert all(alg.bracket(i, j) == twin.bracket(i, j) for i, j in pairs)
        assert validate(alg) == validate(twin) == []
        assert betti_table(alg, 3) == betti_table(twin, 3)


def test_index_of_and_parity():
    alg = make_heisenberg_odd(2)
    assert alg.index_of("z") == 4
    assert alg.parity(alg.index_of("z")) == ODD
    assert alg.parity(alg.index_of("x1")) == EVEN
    with pytest.raises(ValueError):
        alg.index_of("nope")
    # bracket() refuses a generator that does not exist, in either slot
    h1 = make_heisenberg_odd(1)
    for i, j, bad in ((7, 0, 7), (-1, 0, -1), (0, 3, 3), (2, -2, -2)):
        with pytest.raises(ValueError, match="generator index %d out of range" % bad):
            h1.bracket(i, j)
    assert h1.bracket(2, 2) == {} and h1.bracket(1, 0) == {2: -1}


def check_record(rec, fields, text, frozen=True, hashable=True):
    """Pin the record behaviour of `rec`: its fields in order, its repr,
    equality and hash by value, construction by keyword, TypeError on a
    wrong field count, AttributeError on assignment when frozen, and
    copy, deepcopy and pickle round trips at every protocol."""
    cls = type(rec)
    values = tuple(getattr(rec, f) for f in fields)
    assert repr(rec) == text
    assert cls.__match_args__ == fields
    same = cls(**dict(zip(fields, values)))
    assert same == rec and not same != rec and cls(*values) == rec
    if hashable:
        assert hash(same) == hash(rec) == hash(values)
    else:
        with pytest.raises(TypeError):
            hash(rec)
    # equal only to a record of the very same class, from either side
    assert rec != values and values != rec and rec.__eq__(values) is False

    class Sub(cls):
        __slots__ = ()

    assert Sub(*values) != rec and rec.__eq__(Sub(*values)) is False
    for args, kwargs in ((values[:1], {}), (values + (None,), {}),
                         (values, {"unknown": 1}), (values, {fields[0]: values[0]})):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    if frozen:
        for change in (lambda: setattr(rec, fields[0], values[0]),
                       lambda: delattr(rec, fields[-1]),
                       lambda: setattr(rec, "unknown", 1)):
            with pytest.raises(AttributeError):
                change()
        assert tuple(getattr(rec, f) for f in fields) == values
    copies = [copy.copy(rec), copy.deepcopy(rec), copy.deepcopy([rec])[0]]
    copies += [pickle.loads(pickle.dumps(rec, p))
               for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert type(c) is cls and c == rec and repr(c) == text


def test_records_rebuild_through_their_constructor():
    # pickle at every protocol, copy and deepcopy each call the record's
    # own constructor exactly once per rebuild, so a subclass's checks
    # run on load: protocols 0 and 1 would skip a __getnewargs__
    records = (make_heisenberg_odd(1).generators[2], betti_table(make_heisenberg_odd(1), 2)[2],
               verify_family("odd", 1, q_max=1).checks[0],
               differential_matrix(make_heisenberg_odd(1), 1))
    rebuilds = [copy.copy, copy.deepcopy]
    rebuilds += [lambda rec, p=p: pickle.loads(pickle.dumps(rec, p))
                 for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for rec in records:
        cls, calls = type(rec), []
        real = cls.__new__

        def counted(klass, *args, **kwargs):
            calls.append(klass)
            return real(klass, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cls, "__new__", counted)
            for rebuild in rebuilds:
                calls.clear()
                assert rebuild(rec) == rec and calls == [cls], (cls.__name__, rebuild)
    # a payload that breaks the report's invariants is refused on load
    broken = tuple.__new__(CohomologyReport, ("h_1", 2, 3, 3, 1, 5, METHOD_RANK))
    for p in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(broken, p)
        with pytest.raises(ReportInvariantError, match="inconsistent dimensions"):
            pickle.loads(data)


def test_an_algebra_copies_and_pickles_through_its_constructor():
    # the read-only slots refuse a restore of their state, so copy,
    # deepcopy and pickle at every protocol rebuild the algebra from its
    # name, its (name, parity) pairs and its bracket table: equal, with
    # the same records, table and Betti numbers, on int and on rational
    # constants
    rational = LieSuperalgebra("r", [("a", EVEN), ("b", EVEN), ("c", EVEN), ("u", ODD)],
                               {(0, 1): {2: Fraction(1, 3)}, (3, 3): {2: Fraction(-3, 5)}})
    for alg in (make_heisenberg_odd(1), make_heisenberg_even(2, 1), rational):
        want = betti_table(alg, 4)
        copies = [copy.copy(alg), copy.deepcopy(alg), copy.deepcopy([alg])[0]]
        copies += [pickle.loads(pickle.dumps(alg, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for c in copies:
            assert type(c) is LieSuperalgebra and c is not alg and c == alg, alg.name
            assert (c.generators, c.brackets, repr(c)) == (alg.generators, alg.brackets, repr(alg))
            assert betti_table(c, 4) == want, alg.name


def test_equality_and_repr():
    a = make_heisenberg_even(1, 2)
    b = make_heisenberg_even(1, 2)
    assert a == b
    assert a != make_heisenberg_even(2, 1)
    # another type is not an algebra, and Python then compares identity
    assert a.__eq__(a.name) is NotImplemented and a != a.name
    assert "h_{1,2}" in repr(a)
    h1 = make_heisenberg_odd(1)
    z = h1.generators[2]
    check_record(z, ("name", "index", "parity"),
                 "Generator(name='z', index=2, parity=1)")
    assert z == Generator("z", 2, ODD) != Generator("z", 2, EVEN)
    assert LieSuperalgebra("h", h1.generators, h1.brackets) == LieSuperalgebra(
        "h", [(g.name, g.parity) for g in copy.deepcopy(h1.generators)], h1.brackets)
    # equal as Fraction tables, however the constants are given; one
    # constant, or only the scale L, apart is unequal
    gens = [("a", EVEN), ("b", EVEN), ("c", EVEN)]

    def table(first, second):
        return LieSuperalgebra("t", gens, {(0, 1): {2: first}, (0, 2): {2: second}})

    given = [table(x, y) for x in (3, "6/2", Fraction(3)) for y in ("2/6", Fraction(1, 3))]
    assert all(t == given[0] for t in given)
    assert table(3, Fraction(2, 3)) != given[0] != table(4, Fraction(1, 3))
    # 1 and 2 over L = 1 against 1/2 and 1 over L = 2: the same ints
    assert table(1, 2) != table("1/2", 1)
    assert repr(given[1]) == "LieSuperalgebra('t', dim=(3|0), brackets=2)"
    d1 = differential_matrix(h1, 1)
    check_record(d1, ("q", "domain", "codomain", "matrix"),
                 "DifferentialMatrix(q=1, domain=(SuperMonomial((0,), (0, 0)), "
                 "SuperMonomial((), (1, 0)), SuperMonomial((), (0, 1))), "
                 "codomain=(SuperMonomial((0,), (1, 0)), SuperMonomial((0,), (0, 1)), "
                 "SuperMonomial((), (2, 0)), SuperMonomial((), (1, 1)), "
                 "SuperMonomial((), (0, 2))), matrix=RationalMatrix(5, 3, nnz=1))",
                 hashable=False)  # its RationalMatrix is unhashable
    assert d1 == DifferentialMatrix(1, d1.domain, d1.codomain, d1.matrix)
    assert d1 != differential_matrix(h1, 0)
