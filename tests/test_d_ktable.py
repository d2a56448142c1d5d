"""tools/d_ktable.py: one table row per k, whose verdict and reason
count are a function of k."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "d_ktable.py"
ROW = re.compile(r"\| (\d+) \| (yes|no) \| ([\d,]+) \| (\d+\.\d\d) \|")


def test_d_ktable_prints_a_row_per_k():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "1", "2", "3", "4"], capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    header, rule, *rows = proc.stdout.splitlines()
    assert header == "| k | verdict | reason lines | best of 15 (ms) |"
    assert rule == "|---|---|---|---|"
    rows = [ROW.fullmatch(line).groups()[:3] for line in rows]
    # every 2x2 matrix is D-related to its transpose; the k = 3 and
    # k = 4 draws are not, and a no has one reason line per permutation
    assert rows == [("1", "yes", "0"), ("2", "yes", "0"),
                    ("3", "no", "6"), ("4", "no", "24")]
