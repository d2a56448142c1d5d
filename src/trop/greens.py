"""Green's pre-orders and equivalences for square tropical matrices.

Order relations reduce to span inclusion and are decided exactly by
principal solutions; every positive verdict carries a witness that is
re-multiplied before being returned.  The D relation is decided by
matching weak bases: an isomorphism of the column spaces maps weak
basis onto scaled weak basis, and it extends exactly when the
row-space weak bases of the two basis matrices pair up, one for one,
up to the scalings.  Since weak bases are unique up to scaling and
order, the search is complete by construction; positive verdicts are
still re-verified through the bridge matrix.  The search runs on exact
ints: ``d_search_tables`` aligns both weak bases once to a common
denominator, and only the scalings of a yes are divided back by it.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .convex import col_span, span_equal
from .duality import IsoDescriptor, descriptor_valid, matrix_from_iso
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
    TropMatrix,
    d_search_tables,
    mat_mul,
    residuate,
)
from .semiring import Domain, ZERO, finite

LEQ_R = "leq-r"
LEQ_L = "leq-l"
REL_R = "r"
REL_L = "l"
REL_H = "h"
REL_D = "d"
RELATIONS = (LEQ_R, LEQ_L, REL_R, REL_L, REL_H, REL_D)


@dataclass(frozen=True)
class GreenVerdict:
    """Outcome of a Green's relation test.

    witnesses holds labelled matrices; the defining equations are
    X: B*X = A,   X2: A*X2 = B,   Y: Y*B = A,   Y2: Y2*A = B.
    For the D relation the witness is an IsoDescriptor plus the bridge
    matrix D with R(D) = R(A) and C(D) = C(B).  reasons explain a
    negative verdict.
    """

    relation: str
    holds: bool
    domain: Domain
    witnesses: tuple = ()
    iso: IsoDescriptor = None
    bridge: TropMatrix = None
    reasons: tuple = ()


def _validate_pair(a: TropMatrix, b: TropMatrix, domain):
    if not a.is_square() or not b.is_square() or a.rows != b.rows:
        raise ShapeError("Green's relations need square matrices of equal size")
    joined = Domain(max(a.domain(), b.domain()))
    if domain is None:
        return joined
    if joined > domain:
        raise DomainError(
            f"matrix entries lie outside the declared domain {domain.name.lower()}"
        )
    return domain


def _leq(relation, label, orientation, a, b, domain):
    """A <= B on one side: C(A) within C(B), with witness X: B*X = A, or
    for ROW R(A) within R(B), with Y: Y*B = A.  The witness is the
    principal solution, and the verdict is exactly its equation."""
    dom = _validate_pair(a, b, domain)
    x, bad = residuate(b, a, orientation)
    if bad is None:
        return GreenVerdict(relation, True, dom, witnesses=((label, x),))
    side = "column" if orientation == COL else "row"
    reason = f"{side} {bad + 1} of A is not in the {side} space of B"
    return GreenVerdict(relation, False, dom, reasons=(reason,))


def leq_R(a: TropMatrix, b: TropMatrix, domain=None) -> GreenVerdict:
    """A <=_R B: C(A) within C(B), with witness X: B*X = A."""
    return _leq(LEQ_R, "X", COL, a, b, domain)


def leq_L(a: TropMatrix, b: TropMatrix, domain=None) -> GreenVerdict:
    """A <=_L B: R(A) within R(B), with witness Y: Y*B = A."""
    return _leq(LEQ_L, "Y", ROW, a, b, domain)


def rel(a: TropMatrix, b: TropMatrix, which: str, domain=None) -> GreenVerdict:
    """Two-sided equivalences R, L, H via the one-sided pre-orders."""
    if which not in (REL_R, REL_L, REL_H):
        raise ValueError(f"rel expects one of r/l/h, got {which!r}")
    parts = []
    if which in (REL_R, REL_H):
        parts.append((leq_R(a, b, domain), "X"))
        parts.append((leq_R(b, a, domain), "X2"))
    if which in (REL_L, REL_H):
        parts.append((leq_L(a, b, domain), "Y"))
        parts.append((leq_L(b, a, domain), "Y2"))
    holds = all(v.holds for v, _ in parts)
    dom = parts[0][0].domain
    if holds:
        witnesses = tuple((label, v.witnesses[0][1]) for v, label in parts)
        return GreenVerdict(which, True, dom, witnesses=witnesses)
    reasons = tuple(
        f"{label}: {reason}" for v, label in parts if not v.holds for reason in v.reasons
    )
    return GreenVerdict(which, False, dom, reasons=reasons)


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


def _match_rows(forest, rows_e, rows_f, free):
    """Pair each row u of rows_e with its own row w of rows_f (indices in
    free) of the same -inf pattern, u - w = lambda + a constant on the
    finite coordinates; the forest extended accordingly, or None."""
    if not rows_e:
        return forest
    u, rest = rows_e[0], rows_e[1:]
    js = [j for j, x in enumerate(u) if x is not None]
    for q in free:
        w = rows_f[q]
        if _pattern(w) != _pattern(u):
            continue
        trial = forest[:]
        d0 = u[js[0]] - w[js[0]]
        if all(_link(trial, js[0], j, u[j] - w[j] - d0) for j in js[1:]):
            found = _match_rows(trial, rest, rows_f, [r for r in free if r != q])
            if found is not None:
                return found
    return None


def _lambdas(brackets, forest, e, f, den):
    """Exact scalings lambda_j = (pot_j + shift) / den for a matched
    permutation, where pot and the values of e and f are den times exact.

    Components of the finite-bracket graph (classes of ``brackets``) are
    fixed in the order of their least coordinate c: the first at
    lambda_c = 0, one tied by matched rows (classes of ``forest``) to a
    fixed one at the shift those rows force, and any other, a direct
    summand valid at every shift, at the least of lambda_c = 0 and the
    alignments of entries of e_j and f_j (the entries of f_sigma(j)),
    alone or as differences across a fixed coordinate.
    """
    k = len(e)
    comps = [_find(brackets, j)[0] for j in range(k)]
    classes = [_find(forest, j)[0] for j in range(k)]
    pot = [_find(forest, j)[1] for j in range(k)]
    lam = {}
    for c in range(k):
        if c in lam:
            continue
        tied = [jp for jp in lam if classes[jp] == classes[c]]
        comp = [j for j in range(k) if comps[j] == comps[c]]
        shift = lam[tied[0]] - pot[tied[0]] if tied else -pot[c]
        if lam and not tied:
            shift = min(
                [shift]
                + [x - y - pot[j] for j in comp for x in e[j] for y in f[j]
                   if x is not None and y is not None]
                + [
                    (ej - ejp) - (fj - fjp) - pot[j] + lam[jp]
                    for j in comp
                    for jp in lam
                    for ej, ejp in zip(e[j], e[jp])
                    if ej is not None and ejp is not None
                    for fj, fjp in zip(f[j], f[jp])
                    if fj is not None and fjp is not None
                ]
            )
        lam.update((j, pot[j] + shift) for j in comp)
    return tuple(finite(Fraction(lam[j], den)) for j in range(k))


def rel_D(a: TropMatrix, b: TropMatrix, domain=None, *, max_n=10, max_basis=8) -> GreenVerdict:
    """A D B for +inf-free square matrices: are the column spaces
    isomorphic as semimodules?

    e_i -> lambda_i * f_sigma(i) between the weak bases E of C(A) and F
    of C(B) extends to an isomorphism iff R(E) = R(F_sigma * diag
    lambda).  Weak bases are unique up to scaling and order, so for each
    sigma, in lexicographic order, that holds iff the row-space weak
    bases of E and F_sigma pair up, each pair differing by lambda plus a
    constant: a backtracking search over one potential forest, seeded
    with the lambda differences brackets force.  Refutations are thus
    complete by construction; the first match is re-verified.  A declared
    domain is checked as for leq_R, and must not be TBAR.
    """
    dom = _validate_pair(a, b, domain)
    if dom > Domain.T:
        raise DomainError("relation D requires entries in T (no +inf)")
    n = a.rows
    if n > max_n:
        raise SizeLimitError(
            f"rel_D guards at n <= {max_n} (got {n}); raise max_n / TROP_MAX_N to override"
        )
    span_b = col_span(b)
    basis_a = col_span(a).weak_basis()
    basis_b = span_b.weak_basis()
    k = len(basis_a)
    if k != len(basis_b):
        return GreenVerdict(
            REL_D,
            False,
            dom,
            reasons=(f"weak basis sizes differ: {k} vs {len(basis_b)}",),
        )
    if k > max_basis:
        raise SizeLimitError(
            f"rel_D guards at weak basis size <= {max_basis} (got {k}); "
            "raise max_basis / TROP_MAX_N to override"
        )

    # brackets between nonzero T vectors are never +inf
    den, (grid_e, table_e, rows_e), (grid_f, table_f, rows_f) = d_search_tables(
        basis_a.matrix, basis_b.matrix
    )
    patterns_e = sorted(map(_pattern, rows_e))
    pairs = [(i, j) for i in range(k) for j in range(k)]
    reasons = []
    for sigma in itertools.permutations(range(k)):
        if any(
            (table_e[i][j] is None) != (table_f[sigma[i]][sigma[j]] is None)
            for i, j in pairs
        ):
            reasons.append(f"sigma {sigma}: bracket finiteness pattern differs")
            continue
        brackets = [(j, 0) for j in range(k)]
        if not all(
            _link(brackets, i, j, table_e[i][j] - table_f[sigma[i]][sigma[j]])
            for i, j in pairs
            if table_e[i][j] is not None
        ):
            reasons.append(f"sigma {sigma}: bracket differences are inconsistent")
            continue
        rows_s = [tuple(w[s] for s in sigma) for w in rows_f]
        forest = None
        # not just a fast path: it forces equal row-basis sizes, which _match_rows does not
        if sorted(map(_pattern, rows_s)) == patterns_e:
            forest = _match_rows(brackets, rows_e, rows_s, range(len(rows_s)))
        if forest is None:
            reasons.append(f"sigma {sigma}: the row-space weak bases differ")
            continue
        lambdas = _lambdas(brackets, forest, grid_e, [grid_f[s] for s in sigma], den)
        iso = IsoDescriptor(basis_a, basis_b, sigma, lambdas)
        if not descriptor_valid(iso):
            raise VerificationError("rel_D: matched descriptor failed the row space check")
        bridge = matrix_from_iso(a, iso)
        # matrix_from_iso checks C(bridge) against the weak basis of C(B):
        # only this check, against B itself, certifies that basis spans C(B)
        if not span_equal(col_span(bridge), span_b):
            raise VerificationError("rel_D: bridge failed column space check")
        return GreenVerdict(REL_D, True, dom, iso=iso, bridge=bridge)
    return GreenVerdict(REL_D, False, dom, reasons=tuple(reasons))
