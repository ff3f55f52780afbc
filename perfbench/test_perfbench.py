"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gates import brute_witness  # noqa: E402
from run import tail  # noqa: E402


def test_brute_witness_hand_checked_cases():
    assert brute_witness(2, 1, "type1", 1, 0, 3) == (1, 0)
    assert brute_witness(2, 2, "type1", 0, 0, 1) == (0, 1)
    assert brute_witness(2, 3, "type1", 0, 0, 1) is None


def test_tail_needs_ten_samples_beyond():
    assert tail([1.0] * 19) is None
    assert tail(list(range(20))) == (50, 9)
    assert tail(list(range(100))) == (90, 89)


def test_smoke_prints_declared_metrics():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
