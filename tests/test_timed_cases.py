"""The table of timed cases is well formed, its refusals pass, and the
runner fails each kind of planted defect, naming the case."""

import pytest

from timed_cases import CASES, Case, cli, column, run

REFUSALS = [c for c in CASES if c.name.startswith("refuse-")]

# each planted case, and the complaint the runner must print for it
PLANTED = [
    (REFUSALS[0]._replace(name="planted-exit-code", code=0), "exit 3, expected 0"),
    (Case("planted-timeout", ("-c", "import time; time.sleep(30)"), 0.5), "timed out"),
    (Case("planted-traceback", ("-c", "raise ValueError('planted')"), 10, code=1),
     "a traceback reached stderr"),
    (Case("planted-betti", cli("odd --n 1 --q-max 2"), 10, checks=(column([1, 2, 3]),)),
     "Betti numbers [1, 2, 2], expected [1, 2, 3]"),
]


def test_the_table_is_well_formed():
    assert len(CASES) == 44
    assert len({c.name for c in CASES}) == len(CASES)
    for c in CASES:
        assert c.timeout > 0, c.name
        assert c.code in range(6), c.name
        assert c.memory is None or c.memory > 0, c.name
        assert all(callable(check) for check in c.checks), c.name
        assert c.build is None or "{alg}" in c.argv, c.name
    assert sum(c.memory is not None for c in CASES) == 2


def test_the_refusals_pass(capsys):
    assert len(REFUSALS) == 10
    assert run(REFUSALS) == 0, capsys.readouterr().out


@pytest.mark.parametrize("planted, complaint", PLANTED, ids=[c.name for c, _ in PLANTED])
def test_the_runner_fails_a_planted_defect(planted, complaint, capsys):
    assert run([planted]) == 1
    out = capsys.readouterr().out
    assert complaint in out
    assert out.splitlines()[-1] == "FAILED: " + planted.name
