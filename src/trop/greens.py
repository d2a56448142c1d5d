"""Green's pre-orders and equivalences for square tropical matrices.

Order relations reduce to span inclusion, decided exactly by the
principal solutions ``_SIDES`` lists; certificates that products alone
check are ROADMAP items 22 and 23.  The D relation is decided by
matching weak bases in ``_d_search``, over the exact ints of a
``linalg.DFrame`` (A and B aligned once to a common denominator): the
two bracket tables up front, and the basis values and row-space weak
bases only once a permutation passes both bracket stages.  It yields
one record per permutation sigma it tries, ``(sigma, stage, None)`` for
a refutation or ``(sigma, None, lambdas)`` for the first match;
``rel_D`` words the refutations and certifies a match over the same
frame, boxing only the scalings, the descriptor and the bridge.
"""

import itertools
from collections import namedtuple

from .convex import ConvexSpan, col_span
from .duality import IsoDescriptor
from .errors import (
    DomainError,
    PreconditionError,
    ShapeError,
    SizeLimitError,
    VerificationError,
)
from .linalg import (
    COL,
    ROW,
    DFrame,
    TropMatrix,
    mat_mul,
    residuate,
)
from .semiring import Domain, ZERO, finite, format_domain

LEQ_R = "leq-r"
LEQ_L = "leq-l"
REL_R = "r"
REL_L = "l"
REL_H = "h"
REL_D = "d"
RELATIONS = (LEQ_R, LEQ_L, REL_R, REL_L, REL_H, REL_D)
MAX_N, MAX_BASIS = 10, 8  # rel_D's default guards on n and on the weak-basis size


class GreenVerdict(
    namedtuple(
        "GreenVerdict",
        "relation holds domain witnesses iso bridge reasons",
        defaults=((), None, None, ()),
    )
):
    """Outcome of a Green's relation test: an immutable named tuple.

    witnesses holds labelled matrices, the principal solutions of
    ``_SIDES``.  For the D relation the witness is an IsoDescriptor plus
    the bridge matrix D with R(D) = R(A) and C(D) = C(B).  reasons
    explain a negative verdict.
    """

    __slots__ = ()


def _validate_pair(a: TropMatrix, b: TropMatrix, domain):
    if not a.is_square() or not b.is_square() or a.rows != b.rows:
        raise ShapeError("Green's relations need square matrices of equal size")
    joined = max(a.domain(), b.domain())
    if domain is None:
        return joined
    if joined > domain:
        raise DomainError(
            f"matrix entries lie outside the declared domain {format_domain(domain)}"
        )
    return domain


# The principal solutions each relation rests on, as (label,
# orientation, swapped): X: B*X = A, Y: Y*B = A, and swapped X2: A*X2 = B,
# Y2: Y2*A = B.  The covering pass that computes a solution proves its
# equation, with no product run; a no names the first column (row) each
# failing side misses, after its label if the relation has two or more.
_SIDES = {
    LEQ_R: (("X", COL, False),),
    LEQ_L: (("Y", ROW, False),),
    REL_R: (("X", COL, False), ("X2", COL, True)),
    REL_L: (("Y", ROW, False), ("Y2", ROW, True)),
    REL_H: (("X", COL, False), ("X2", COL, True), ("Y", ROW, False), ("Y2", ROW, True)),
}


def rel(a: TropMatrix, b: TropMatrix, which: str, domain=None) -> GreenVerdict:
    """The Green's relation named ``which``, one of ``RELATIONS``: D is
    ``rel_D`` with its default guards, and every other name is decided
    by the principal solutions ``_SIDES`` lists, the pair validated once."""
    if which == REL_D:
        return rel_D(a, b, domain)
    if which not in _SIDES:
        raise ValueError(f"rel expects one of {'/'.join(RELATIONS)}, got {which!r}")
    dom = _validate_pair(a, b, domain)
    sides = _SIDES[which]
    witnesses, reasons = [], []
    for label, orientation, swapped in sides:
        x, bad = residuate(a, b, orientation) if swapped else residuate(b, a, orientation)
        if bad is None:
            witnesses.append((label, x))
            continue
        side = "column" if orientation == COL else "row"
        reason = f"{side} {bad + 1} of A is not in the {side} space of B"
        reasons.append(f"{label}: {reason}" if len(sides) > 1 else reason)
    if reasons:
        return GreenVerdict(which, False, dom, reasons=tuple(reasons))
    return GreenVerdict(which, True, dom, witnesses=tuple(witnesses))


def leq_R(a: TropMatrix, b: TropMatrix, domain=None) -> GreenVerdict:
    """A <=_R B: C(A) within C(B), with witness X."""
    return rel(a, b, LEQ_R, domain)


def leq_L(a: TropMatrix, b: TropMatrix, domain=None) -> GreenVerdict:
    """A <=_L B: R(A) within R(B), with witness Y."""
    return rel(a, b, LEQ_L, domain)


def finitize_witness_ft(b: TropMatrix, a: TropMatrix, p: TropMatrix) -> TropMatrix:
    """Replace -inf entries of a witness P (with B*P = A, all of A and B
    finite) by a finite value small enough not to disturb any product.

    delta is one less than the minimum of b + p - b' over entries b, b'
    of B and finite entries p of P: min(B) + min(finite P) - max(B) - 1.
    """
    if a.domain() != Domain.FT or b.domain() != Domain.FT:
        raise PreconditionError("finitize_witness_ft needs all-finite A and B")
    if p.domain() > Domain.T:
        raise PreconditionError("witness P must not contain +inf")
    if mat_mul(b, p) != a:
        raise PreconditionError("finitize_witness_ft: B*P != A")
    if p.domain() == Domain.FT:
        return p
    p_rows = p.entries
    finite_ps = [e.value for row in p_rows for e in row if e.is_finite]
    b_vals = [e.value for row in b.entries for e in row]
    delta_scalar = finite(min(b_vals) + min(finite_ps) - max(b_vals) - 1)
    p2 = TropMatrix([[delta_scalar if e.is_neg_inf else e for e in row] for row in p_rows])
    if mat_mul(b, p2) != a:
        raise VerificationError("finitize_witness_ft: adjusted witness broke B*P = A")
    return p2


def definitize_witness_t(b: TropMatrix, a: TropMatrix, p: TropMatrix) -> TropMatrix:
    """Replace +inf entries of a witness P (with B*P = A, A and B free of
    +inf) by 0; any such entry only ever multiplies a -inf column of B."""
    if a.domain() > Domain.T or b.domain() > Domain.T:
        raise PreconditionError("definitize_witness_t needs +inf-free A and B")
    if mat_mul(b, p) != a:
        raise PreconditionError("definitize_witness_t: B*P != A")
    p2 = TropMatrix([[ZERO if e.is_pos_inf else e for e in row] for row in p.entries])
    if mat_mul(b, p2) != a:
        raise VerificationError("definitize_witness_t: adjusted witness broke B*P = A")
    return p2


def _pattern(row):
    return tuple(x is None for x in row)


def _find(forest, x):
    """Root of x in the potential forest, and pot_x - pot_root.  The
    forest is a list of (parent, pot - pot_parent) pairs, one per
    coordinate: a weighted union-find over exact values."""
    d = 0
    while forest[x][0] != x:
        d += forest[x][1]
        x = forest[x][0]
    return x, d


def _link(forest, i, j, d):
    """Record pot_j - pot_i = d; False if the forest contradicts it."""
    (ri, di), (rj, dj) = _find(forest, i), _find(forest, j)
    if ri == rj:
        return dj - di == d
    forest[rj] = (ri, di + d - dj)
    return True


def _match_rows(forest, rows_e, rows_f, free, patterns):
    """Pair each row u of rows_e with its own row w of rows_f (indices in
    free) of the same -inf pattern, u - w = lambda + a constant on the
    finite coordinates; the forest extended accordingly, or None.
    patterns holds the two lists of row patterns."""
    if not rows_e:
        return forest
    pats_e, pats_f = patterns
    u, rest = rows_e[0], rows_e[1:]
    js = [j for j, x in enumerate(u) if x is not None]
    for q in free:
        if pats_f[q] != pats_e[0]:
            continue
        w = rows_f[q]
        trial = forest[:]
        d0 = u[js[0]] - w[js[0]]
        if all(_link(trial, js[0], j, u[j] - w[j] - d0) for j in js[1:]):
            found = _match_rows(
                trial, rest, rows_f, [r for r in free if r != q], (pats_e[1:], pats_f)
            )
            if found is not None:
                return found
    return None


def _lambdas(brackets, forest, e, f):
    """Scalings lambda_j = pot_j + shift for a matched permutation, ints
    over the denominator of pot and of the values of e and f.

    Components of the finite-bracket graph (classes of ``brackets``) are
    fixed in the order of their least coordinate c: the first at
    lambda_c = 0, one tied by matched rows (classes of ``forest``) to a
    fixed one at the shift those rows force, and any other, a direct
    summand valid at every shift, at the least of lambda_c = 0 and the
    alignments of entries of e_j and f_j (the entries of f_sigma(j)),
    alone or as differences across a fixed coordinate.  The least
    alignment of two vectors is min(e_j) - max(f_j) over their finite
    entries, the least of all entry pairs in one pass over each.
    """
    k = len(e)
    comps = [_find(brackets, j)[0] for j in range(k)]
    classes, pot = zip(*[_find(forest, j) for j in range(k)]) if k else ((), ())
    lam = {}
    for c in range(k):
        if c in lam:
            continue
        tied = [jp for jp in lam if classes[jp] == classes[c]]
        comp = [j for j in range(k) if comps[j] == comps[c]]
        shift = lam[tied[0]] - pot[tied[0]] if tied else -pot[c]
        if lam and not tied:
            origin = (0,) * len(e[c])  # fixed at lambda 0: differences across it are e_j, f_j
            for j in comp:
                for u, v, at in [(origin, origin, 0)] + [(e[jp], f[jp], lam[jp]) for jp in lam]:
                    xs = [x - y for x, y in zip(e[j], u) if x is not None and y is not None]
                    ys = [x - y for x, y in zip(f[j], v) if x is not None and y is not None]
                    if xs and ys:
                        shift = min(shift, min(xs) - max(ys) - pot[j] + at)
        lam.update((j, pot[j] + shift) for j in comp)
    return tuple(lam[j] for j in range(k))


def _d_search(table_e, table_f, row_side):
    """The D search over the int bracket tables of two weak bases E and
    F, with ``row_side()`` giving, for E and for F, the basis values and
    the row-space weak basis (``DFrame.rows``); it is called once, at
    the first sigma that passes both bracket stages, and not at all if
    none does.

    e_i -> lambda_i * f_sigma(i) extends to an isomorphism iff R(E) =
    R(F_sigma * diag lambda).  Weak bases are unique up to scaling and
    order, so for each sigma, in lexicographic order, that holds iff the
    row-space weak bases of E and F_sigma pair up, each pair differing
    by lambda plus a constant: a backtracking search over one potential
    forest, seeded with the lambda differences brackets force.  A
    refuted sigma yields (sigma, stage, None), stage naming the first
    test it fails; the first match yields (sigma, None, lambdas), ints
    over the tables' denominator, and ends the search.
    """
    k = len(table_e)
    rows_e = None
    pairs = [(i, j) for i in range(k) for j in range(k)]
    finite_pairs = [(i, j) for i, j in pairs if table_e[i][j] is not None]
    for sigma in itertools.permutations(range(k)):
        if any(
            (table_e[i][j] is None) != (table_f[sigma[i]][sigma[j]] is None)
            for i, j in pairs
        ):
            yield sigma, "bracket finiteness pattern differs", None
            continue
        brackets = [(j, 0) for j in range(k)]
        if not all(
            _link(brackets, i, j, table_e[i][j] - table_f[sigma[i]][sigma[j]])
            for i, j in finite_pairs
        ):
            yield sigma, "bracket differences are inconsistent", None
            continue
        if rows_e is None:
            (grid_e, rows_e), (grid_f, rows_f) = row_side()
            pats_e, pats_f = list(map(_pattern, rows_e)), list(map(_pattern, rows_f))
            patterns_e = sorted(pats_e)
        rows_s = [tuple(w[s] for s in sigma) for w in rows_f]
        pats_s = [tuple(p[s] for s in sigma) for p in pats_f]
        forest = None
        # not just a fast path: it forces equal row-basis sizes, which _match_rows does not
        if sorted(pats_s) == patterns_e:
            forest = _match_rows(brackets, rows_e, rows_s, range(len(rows_s)), (pats_e, pats_s))
        if forest is None:
            yield sigma, "the row-space weak bases differ", None
            continue
        yield sigma, None, _lambdas(brackets, forest, grid_e, [grid_f[s] for s in sigma])
        return


def rel_D(
    a: TropMatrix, b: TropMatrix, domain=None, *, max_n=MAX_N, max_basis=MAX_BASIS
) -> GreenVerdict:
    """A D B for +inf-free square matrices: are the column spaces
    isomorphic as semimodules?

    Runs ``_d_search`` on the weak bases E of C(A) and F of C(B), in one
    frame: each refuted sigma becomes the reason ``sigma (..): stage``,
    and the match, if any, a yes whose certificate runs over the same
    ints: R(E) = R(G) for G = F_sigma * diag lambda, then the bridge
    D = G * X (X the principal solution of E * X = A) with R(D) = R(A)
    and C(D) = C(B); ``DFrame.certify`` raises VerificationError at the
    first of these checks that fails.  Refutations are complete by
    construction.  A declared domain is checked as for leq_R, and must
    not be TBAR.
    """
    dom = _validate_pair(a, b, domain)
    if dom > Domain.T:
        raise DomainError("relation D requires entries in T (no +inf)")
    n = a.rows
    if n > max_n:
        raise SizeLimitError(
            f"rel_D guards at n <= {max_n} (got {n}); raise max_n / TROP_MAX_N to override"
        )
    frame = DFrame(a, b)
    k, k_b = frame.sizes
    if k != k_b:
        return GreenVerdict(
            REL_D,
            False,
            dom,
            reasons=(f"weak basis sizes differ: {k} vs {k_b}",),
        )
    if k > max_basis:
        raise SizeLimitError(
            f"rel_D guards at weak basis size <= {max_basis} (got {k}); "
            "raise max_basis / TROP_MAX_N to override"
        )

    # brackets between nonzero T vectors are never +inf
    refuted = []
    for sigma, stage, lambdas in _d_search(*frame.tables(), frame.rows):
        if stage is not None:
            refuted.append((sigma, stage))
            continue
        bridge = frame.certify(sigma, lambdas)
        basis_a, basis_b = (
            ConvexSpan([], n, COL) if m is None else col_span(m) for m in frame.bases()
        )
        iso = IsoDescriptor(basis_a, basis_b, sigma, frame.scalars(lambdas))
        return GreenVerdict(REL_D, True, dom, iso=iso, bridge=bridge)
    reasons = tuple(f"sigma {sigma}: {stage}" for sigma, stage in refuted)
    return GreenVerdict(REL_D, False, dom, reasons=reasons)
