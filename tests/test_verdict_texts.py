"""tools/verdict_texts.py: the same bytes on every run, and every
verdict block a text that parse_verdict reads back."""

import re
import subprocess
import sys
from pathlib import Path

from trop.formats import format_verdict, parse_verdict
from trop.greens import RELATIONS

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "verdict_texts.py"
HEADER = re.compile(r"== (\d+) (transpose|perm-scale|two-sided|random) (\S+)")


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, args)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return proc.stdout


def test_verdict_texts_are_a_function_of_the_arguments():
    first = _run(8)
    assert _run(8, 0) == first
    blocks = re.split(r"^(== .*)\n", first, flags=re.M)[1:]
    headers, bodies = blocks[::2], blocks[1::2]
    assert [HEADER.fullmatch(h).groups()[::2] for h in headers] == [
        (str(i), relation) for i in range(8) for relation in RELATIONS
    ]
    for body in bodies:
        assert format_verdict(parse_verdict(body)) == body
    assert _run(8, 1) != first
