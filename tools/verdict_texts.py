"""Print the verdict text of every Green's relation on seeded pairs of T
matrices, for diffs of one commit's verdicts against another's.

    python3 tools/verdict_texts.py PAIRS [SEED]

trop is imported from the src directory beside this one, so the script
runs the checkout it sits in: copy it into a second checkout, run both
with the same arguments and diff the outputs.  The output is a pure
function of PAIRS and SEED (default 0).

Pair i (from 0) is two n x n matrices over T, n drawn from 1..4, of the
family i mod 4:
- transpose: (A, A^T);
- perm-scale: (A, A with its columns permuted and rescaled);
- two-sided: (A, the same for the rows of a perm-scale variant);
- random: two independent draws.
For each relation of ``greens.RELATIONS`` it prints a line
``== i family relation``, then the ``format_verdict`` text of the
verdict of ``greens.rel``, or ``raise Type: message`` for a TropError.
"""

import argparse
import sys
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from trop.errors import TropError
from trop.formats import format_verdict
from trop.greens import RELATIONS, rel
from trop.harness import EntryPool, Sampler
from trop.linalg import scale_columns, transpose
from trop.semiring import Domain


def _variant(s, a):
    """A with its columns permuted and finitely rescaled: C(A) again."""
    perm = s.rng.sample(range(a.cols), a.cols)
    return scale_columns(a, perm, [s.finite_scalar() for _ in perm])


FAMILIES = (
    ("transpose", lambda s, a: transpose(a)),
    ("perm-scale", _variant),
    ("two-sided", lambda s, a: transpose(_variant(s, transpose(_variant(s, a))))),
    ("random", lambda s, a: s.matrix(a.rows, a.cols)),
)


def verdict_texts(pairs, seed=0):
    """The printed text, block by block."""
    s = Sampler(Random(seed), EntryPool.for_domain(Domain.T))
    for i in range(pairs):
        family, other = FAMILIES[i % len(FAMILIES)]
        n = s.dim((1, 4))
        a = s.matrix(n, n)
        b = other(s, a)
        for relation in RELATIONS:
            yield f"== {i} {family} {relation}\n"
            try:
                yield format_verdict(rel(a, b, relation))
            except TropError as exc:
                yield f"raise {type(exc).__name__}: {exc}\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pairs", type=int, help="number of seeded pairs")
    parser.add_argument("seed", type=int, nargs="?", default=0, help="seed (default 0)")
    args = parser.parse_args(argv)
    sys.stdout.writelines(verdict_texts(args.pairs, args.seed))


if __name__ == "__main__":
    main()
