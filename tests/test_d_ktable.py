"""tools/d_ktable.py: one table row per k, whose verdict and reason
count are a function of the family and k."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

from trop.convex import col_span
from trop.linalg import transpose

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "d_ktable.py"
ROW = re.compile(r"\| (\d+) \| (yes|no) \| ([\d,]+) \| (\d+\.\d\d) \|")


def _run(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args], capture_output=True, text=True, timeout=60,
    )


def _rows(proc):
    """The (k, verdict, reason lines) of each table row, after the header."""
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    header, rule, *lines = proc.stdout.splitlines()
    assert header == "| k | verdict | reason lines | best of 15 (ms) |"
    assert rule == "|---|---|---|---|"
    return [ROW.fullmatch(line).groups()[:3] for line in lines]


def test_d_ktable_prints_a_row_per_k():
    # every 2x2 matrix is D-related to its transpose; the k = 3 and
    # k = 4 draws are not, and a no has one reason line per permutation
    assert _rows(_run("1", "2", "3", "4")) == [("1", "yes", "0"), ("2", "yes", "0"),
                                               ("3", "no", "6"), ("4", "no", "24")]


def test_d_ktable_diag_family_prints_a_row_per_k():
    # -inf on the diagonal: yes up to k = 4, then a no over all 5! sigmas
    assert _rows(_run("--family", "diag", "2", "3", "4", "5")) == [
        ("2", "yes", "0"), ("3", "yes", "0"), ("4", "yes", "0"), ("5", "no", "120")]


def test_d_ktable_draws_keep_their_weak_basis_sizes():
    # each draw's C(A) has a weak basis of k elements, and so has C(A^T):
    # a change to the weak basis cannot shrink a family unseen
    spec = importlib.util.spec_from_file_location("d_ktable", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for family, ks in (("finite", range(1, 6)), ("diag", range(2, 6))):
        for k in ks:
            a = tool.draw(k, family)
            assert (a.rows, len(col_span(a).weak_basis()), len(col_span(transpose(a)).weak_basis())) \
                == (k, k, k), (family, k)


def test_d_ktable_diag_needs_k_of_two():
    # the 1 x 1 -inf diagonal matrix is -inf, with an empty weak basis
    proc = _run("--family", "diag", "1")
    assert proc.returncode == 2 and "the diag family needs k >= 2" in proc.stderr
