"""Time rel_D on an all-finite k x k matrix against its transpose, for
each weak-basis size k, to compare one commit's D search with another's.

    python3 tools/d_ktable.py [K ...]

trop is imported from the src directory beside this one, so the script
runs the checkout it sits in: copy it into a second checkout and run
the two one after the other, since a host's speed can drift over
minutes.  K defaults to 5 6 7 8.

For each k, a fresh ``Random(20261020)`` draws k x k matrices A with
integer entries in [-9, 9] until the weak basis of C(A) has k elements.
It prints one table row per k: k, the verdict of ``rel_D(A, A^T)``,
its number of reason lines (k! for a no over all of the k!
permutations, none for a yes), and the best of CALLS = 15 wall times
in ms: a fixed count, so that two checkouts' tables compare.  All but
the times is a pure function of K.
"""

import argparse
import sys
import time
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from trop.convex import col_span
from trop.greens import rel_D
from trop.linalg import TropMatrix, transpose

SEED = 20261020
LOW, HIGH = -9, 9
CALLS = 15


def draw(k):
    """The first k x k draw of Random(SEED) whose column space has a
    weak basis of k elements."""
    rng = Random(SEED)
    while True:
        a = TropMatrix([[rng.randint(LOW, HIGH) for _ in range(k)] for _ in range(k)])
        if len(col_span(a).weak_basis()) == k:
            return a


def row(k):
    """k, the verdict, its number of reason lines, and the best of
    CALLS times in ms."""
    a = draw(k)
    b = transpose(a)
    times = []
    for _ in range(CALLS):
        start = time.perf_counter()
        verdict = rel_D(a, b)
        times.append(time.perf_counter() - start)
    return k, "yes" if verdict.holds else "no", len(verdict.reasons), 1000 * min(times)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ks", type=int, nargs="*", default=[5, 6, 7, 8], metavar="K",
                        help="weak-basis sizes (default 5 6 7 8)")
    args = parser.parse_args(argv)
    print(f"| k | verdict | reason lines | best of {CALLS} (ms) |")
    print("|---|---|---|---|")
    for k in args.ks:
        k, verdict, lines, ms = row(k)
        print(f"| {k} | {verdict} | {lines:,} | {ms:.2f} |", flush=True)


if __name__ == "__main__":
    main()
