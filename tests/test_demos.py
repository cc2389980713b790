"""Every demo prints exactly its committed golden output.

Each ``demos/<name>.py`` runs in its own interpreter, as a reader would run
it, and its stdout must equal ``demos/expected/<name>.txt`` byte for byte.
A change that moves a printed number, or a demo's own docstring (each demo
prints its ``__doc__``), shows up here; regenerate the golden file only
when the change is meant.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = ROOT / "demos" / "expected"


def test_every_demo_has_one_golden_file():
    assert DEMOS
    golden = sorted(path.stem for path in EXPECTED.glob("*.txt"))
    assert [path.stem for path in DEMOS] == golden


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_prints_its_golden_output(demo):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout == (EXPECTED / f"{demo.stem}.txt").read_text()
