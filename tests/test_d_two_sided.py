"""A two-sided net for the D relation: a brute force that shares no
decision code with ``trop.greens`` or ``linalg.DFrame``.

Let E be the weak basis of C(A) and M_A the weak basis of R(E), an
r x k matrix whose rows and columns are both weak bases.  Restricting to
the kept rows maps C(E) isomorphically onto C(M_A), and weak bases are
unique up to order and scaling, so A D B iff M_A and M_B are equal up to
a permutation of rows, a permutation of columns and a finite shift of
each row and each column.  The brute force finds both weak bases with
one greedy over ``harness._member_oracle`` (boxed scalars, brackets by
breakpoint enumeration) and tries every pair of permutations.
"""

import itertools
import random

from trop.greens import rel_D
from trop.harness import EntryPool, Sampler, _member_oracle
from trop.linalg import ROW, TropMatrix, TropVector, scale_columns, transpose
from trop.semiring import Domain


def _in_span(gens, v):
    """Membership by the oracle; the empty family spans only the zero vector."""
    return _member_oracle(gens, v) if gens else all(x.is_neg_inf for x in v.entries)


def _greedy_basis(vectors):
    """Each vector, in order, is dropped iff the others still standing
    recombine to it."""
    kept = list(range(len(vectors)))
    for t in range(len(vectors)):
        if _in_span([vectors[j] for j in kept if j != t], vectors[t]):
            kept.remove(t)
    return [vectors[j] for j in kept]


def _doubly_reduced(a):
    """The weak basis of R(E), E the weak basis of C(A), as rows of
    entries (k columns)."""
    e = [col.entries for col in _greedy_basis(a.col_vectors())]
    if not e:
        return []
    rows = [TropVector([g[i] for g in e], ROW) for i in range(a.rows)]
    return [row.entries for row in _greedy_basis(rows)]


def _shifts_exist(m, m2):
    """Whether m2_ij = m_ij + x_i + y_j for finite x and y, -inf exactly
    where m has it: one potential forest over rows i and columns r + j,
    pot(i) - pot(r + j) = m2_ij - m_ij."""
    r = len(m)
    forest = {v: (v, 0) for v in range(r + len(m[0]))}

    def find(v):
        d = 0
        while forest[v][0] != v:
            d, v = d + forest[v][1], forest[v][0]
        return v, d

    for i, j in itertools.product(range(r), range(len(m[0]))):
        x, y = m[i][j], m2[i][j]
        if x.is_neg_inf != y.is_neg_inf:
            return False
        if x.is_neg_inf:
            continue
        (ri, di), (rj, dj) = find(i), find(r + j)
        d = y.value - x.value
        if ri == rj:
            if di - dj != d:
                return False
        else:
            forest[ri] = (rj, d - di + dj)
    return True


def brute_d(a, b):
    m, m2 = _doubly_reduced(a), _doubly_reduced(b)
    if not m or not m2:
        return not m and not m2
    r, k = len(m), len(m[0])
    if (len(m2), len(m2[0])) != (r, k):
        return False
    return any(
        _shifts_exist(m, [[m2[p][q] for q in cols] for p in rows])
        for rows in itertools.permutations(range(r))
        for cols in itertools.permutations(range(k))
    )


def _variant(s, a):
    """A with its columns permuted and finitely rescaled."""
    perm = s.rng.sample(range(a.cols), a.cols)
    return scale_columns(a, perm, [s.finite_scalar() for _ in perm])


def _two_sided(s, a):
    """P * A * Q with finite scalings on both sides: D-related to A."""
    return transpose(_variant(s, transpose(_variant(s, a))))


def _near_miss(s, a):
    """A two-sided variant with one entry redrawn."""
    rows = [list(row) for row in _two_sided(s, a).entries]
    rows[s.rng.randrange(a.rows)][s.rng.randrange(a.cols)] = s.scalar()
    return TropMatrix(rows)


FAMILIES = (
    lambda s, a: transpose(a),
    _two_sided,
    lambda s, a: s.matrix(a.rows, a.cols),
    _near_miss,
)


def test_brute_force_two_sided_d_equals_rel_d():
    # 800 seeded T pairs at n 1-3, 200 per family; both verdicts occur,
    # each in more than one family, so both bind
    s = Sampler(random.Random(20261021), EntryPool.for_domain(Domain.T))
    seen = {True: set(), False: set()}
    for trial in range(800):
        n = s.dim((1, 3))
        a = s.matrix(n, n)
        b = FAMILIES[trial % 4](s, a)
        holds = rel_D(a, b).holds
        assert brute_d(a, b) == holds, (a, b)
        seen[holds].add(trial % 4)
    assert len(seen[True]) > 1 and len(seen[False]) > 1
