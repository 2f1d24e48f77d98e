"""Each narrative script in demos/ runs to completion and prints, byte for
byte, the output pinned in tests/demo_output/<demo>.txt."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = ROOT / "tests" / "demo_output"


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4
    assert sorted(p.stem for p in PINNED.glob("*.txt")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (PINNED / f"{demo.stem}.txt").read_bytes()
