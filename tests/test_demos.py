"""Every demo script runs to completion against the source tree and prints
exactly the text committed beside this file in ``demo_output``."""

import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).resolve().parent / "demo_output"


@cache  # one run per demo, shared by the whole-output and line tests
def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(path)], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (EXPECTED / f"{path.stem}.txt").read_text(encoding="utf-8")


def test_demo_01_basis_change_lines():
    proc = run_demo(ROOT / "demos" / "01_words_and_reduction.py")
    assert proc.stdout.splitlines()[-3:] == [
        "f-basis word:  f2 f1^-1",
        "as e-word:     e1 e2 e1^-1",
        "round trip:    f2 f1^-1",
    ]


def test_demo_04_ball_and_verdict_lines():
    lines = run_demo(ROOT / "demos" / "04_balls_and_certificates.py").stdout.splitlines()
    assert lines[0] == "N(w) = 2 | in radius-3 ball: True"
    assert [line for line in lines if "verifies:" in line] == [
        "verifies: True",
        "verifies: True",
        "still verifies: True",
    ]
