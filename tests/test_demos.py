import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_its_expected_output():
    assert len(DEMOS) == 4
    expected = sorted(p.stem for p in (ROOT / "demos" / "expected").glob("*.txt"))
    assert expected == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_prints_its_expected_output(demo):
    # each demo runs as CI runs it, in a child against src/, and prints
    # the pinned bytes
    run = subprocess.run([sys.executable, str(demo)], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH="src"),
                         capture_output=True, check=True)
    want = (ROOT / "demos" / "expected" / (demo.stem + ".txt")).read_bytes()
    assert run.stdout == want
    assert run.stderr == b""


def test_the_readme_library_block_runs():
    # the README's one Python block, run as a reader would against src/;
    # its CLI block is pinned in test_cli
    (block,) = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                          re.M | re.S)
    run = subprocess.run([sys.executable, "-c", block], cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH="src"), capture_output=True)
    assert run.returncode == 0, run.stderr.decode()
