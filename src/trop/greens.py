"""Green's pre-orders and equivalences for square tropical matrices.

Order relations reduce to span inclusion and are decided exactly by
principal solutions; every positive verdict carries a witness that is
re-multiplied before being returned.  The D relation is decided by
searching for an isomorphism between the weak bases of the two column
spaces; soundness rests purely on verification of the found bridge,
while completeness of the candidate enumeration is cross-checked at
2x2 by the exhaustive bridge oracle in ``harness`` (property P15).
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .convex import col_span, solve_right, span_equal
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
    TropMatrix,
    bracket,
    map_entries,
    mat_mul,
    scale,
    transpose,
    vec_oplus,
)
from .semiring import Domain, TropScalar, ZERO, finite

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


def leq_R(a: TropMatrix, b: TropMatrix, domain=None) -> GreenVerdict:
    """A <=_R B: every column of A lies in the column space of B.

    The witness X is assembled from principal solutions, and the
    verdict is exactly the statement B*X = A: each column of B*X is
    recombined and compared with the column of A.
    """
    dom = _validate_pair(a, b, domain)
    x, bad = solve_right(b, a)
    if bad is None:
        return GreenVerdict(LEQ_R, True, dom, witnesses=(("X", x),))
    return GreenVerdict(
        LEQ_R,
        False,
        dom,
        reasons=(f"column {bad + 1} of A is not in the column space of B",),
    )


def leq_L(a: TropMatrix, b: TropMatrix, domain=None) -> GreenVerdict:
    """A <=_L B: every row of A lies in the row space of B (transpose dual)."""
    v = leq_R(transpose(a), transpose(b), domain)
    if v.holds:
        ((_, x),) = v.witnesses
        return GreenVerdict(LEQ_L, True, v.domain, witnesses=(("Y", transpose(x)),))
    reasons = tuple(r.replace("column", "row") for r in v.reasons)
    return GreenVerdict(LEQ_L, False, v.domain, reasons=reasons)


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
    of B and finite entries p of P.
    """
    if a.domain() != Domain.FT or b.domain() != Domain.FT:
        raise PreconditionError("finitize_witness_ft needs all-finite A and B")
    if p.domain() > Domain.T:
        raise PreconditionError("witness P must not contain +inf")
    if mat_mul(b, p) != a:
        raise PreconditionError("finitize_witness_ft: B*P != A")
    finite_ps = [e.value for row in p.entries for e in row if e.is_finite]
    if not any(e.is_neg_inf for row in p.entries for e in row):
        return p
    b_vals = [e.value for row in b.entries for e in row]
    delta = min(bv + pv - bv2 for bv in b_vals for pv in finite_ps for bv2 in b_vals) - 1
    delta_scalar = finite(delta)
    p2 = map_entries(p, lambda e: delta_scalar if e.is_neg_inf else e)
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
    p2 = map_entries(p, lambda e: ZERO if e.is_pos_inf else e)
    if mat_mul(b, p2) != a:
        raise VerificationError("definitize_witness_t: adjusted witness broke B*P = A")
    return p2


def _bracket_table(basis):
    return [[bracket(g, h) for h in basis] for g in basis]


def _finite_class(s: TropScalar):
    return 0 if s.is_finite else (1 if s.is_pos_inf else -1)


def _components(table_e, k):
    """Connected components of the finite-bracket graph, each sorted."""
    seen = [False] * k
    comps = []
    for start in range(k):
        if seen[start]:
            continue
        comp = []
        queue = [start]
        seen[start] = True
        while queue:
            i = queue.pop()
            comp.append(i)
            for j in range(k):
                if not seen[j] and (
                    table_e[i][j].is_finite or table_e[j][i].is_finite
                ):
                    seen[j] = True
                    queue.append(j)
        comps.append(sorted(comp))
    return sorted(comps, key=lambda c: c[0])


def _base_lambdas(table_e, table_f, sigma, comps, k):
    """Propagate lambda differences along finite brackets; None on clash."""
    base = [None] * k
    for comp in comps:
        base[comp[0]] = Fraction(0)
        queue = [comp[0]]
        while queue:
            i = queue.pop()
            for j in comp:
                if base[j] is not None:
                    continue
                if table_e[i][j].is_finite:
                    diff = table_e[i][j].value - table_f[sigma[i]][sigma[j]].value
                    base[j] = base[i] + diff
                    queue.append(j)
                elif table_e[j][i].is_finite:
                    diff = table_e[j][i].value - table_f[sigma[j]][sigma[i]].value
                    base[j] = base[i] - diff
                    queue.append(j)
    for i in range(k):
        for j in range(k):
            if table_e[i][j].is_finite:
                want = table_e[i][j].value - table_f[sigma[i]][sigma[j]].value
                if base[j] - base[i] != want:
                    return None
    return base


def _entry_grid(vectors):
    """Per-coordinate finite values of stacked vectors: grid[r][i]."""
    dim = vectors[0].dim
    return [
        [v.entries[r].value if v.entries[r].is_finite else None for v in vectors]
        for r in range(dim)
    ]


def _offset_candidates(e_grid, f_grid, base, offsets, comp, pinned):
    """Rational offsets worth trying for one component of the basis graph.

    Collects t = e - (f + lambda) alignments of single entries plus the
    cross alignments t = (e_rj - e_rj') - ((f_sj + l_j) - (f_sj' + l_j'))
    against already pinned coordinates; 0 is always included.  At any
    boundary of the (closed, piecewise linear) feasibility region in t,
    one of these alignments is tight.
    """
    n = len(e_grid)
    cands = {Fraction(0)}
    for j in comp:
        for r in range(n):
            ev = e_grid[r][j]
            if ev is None:
                continue
            for s in range(n):
                fv = f_grid[s][j]
                if fv is None:
                    continue
                cands.add(ev - (fv + base[j]))
    for j in comp:
        for jp in pinned:
            off_jp = base[jp] + offsets[jp]
            for r in range(n):
                ej, ejp = e_grid[r][j], e_grid[r][jp]
                if ej is None or ejp is None:
                    continue
                d1 = ej - ejp
                for s in range(n):
                    fj, fjp = f_grid[s][j], f_grid[s][jp]
                    if fj is None or fjp is None:
                        continue
                    cands.add(d1 - ((fj + base[j]) - (fjp + off_jp)))
    return sorted(cands)


def _triple_table(basis):
    """brackets <e_l | e_i + e_j> of each basis element against each
    pairwise sum; an isomorphism preserves all of them."""
    k = len(basis)
    sums = [[vec_oplus(basis[i], basis[j]) for j in range(k)] for i in range(k)]
    return [
        [[bracket(basis[l], sums[i][j]) for j in range(k)] for i in range(k)]
        for l in range(k)
    ]


def _image_triple_ok(table_e, gens_f, sigma, offsets, base, fresh):
    """Necessary filter for a partial scaling assignment: every triple
    bracket whose three indices are decided, at least one fresh, must
    match its source-side value."""
    known = sorted(offsets)
    scaled = {i: scale(finite(base[i] + offsets[i]), gens_f[sigma[i]]) for i in known}
    for a_idx, i in enumerate(known):
        for j in known[a_idx:]:
            pair_fresh = i in fresh or j in fresh
            image_sum = vec_oplus(scaled[i], scaled[j])
            for l in known:
                if not pair_fresh and l not in fresh:
                    continue
                if bracket(scaled[l], image_sum) != table_e[l][i][j]:
                    return False
    return True


def rel_D(a: TropMatrix, b: TropMatrix, *, max_n=10, max_basis=8,
          assignment_budget=200_000) -> GreenVerdict:
    """A D B for +inf-free square matrices: are the column spaces
    isomorphic as semimodules?

    Candidate isomorphisms map the weak basis of C(A) onto scalings of
    the weak basis of C(B).  Permutations are tried in lexicographic
    order; scalings are pinned by bracket preservation inside each
    connected component of the finite-bracket graph, and residual
    per-component offsets are enumerated from entry alignments.  The
    first candidate whose bridge matrix re-verifies both span
    equalities is returned, so positive verdicts are sound by
    construction; refutation means the certified family is exhausted.
    """
    dom = _validate_pair(a, b, None)
    if dom > Domain.T:
        raise DomainError("relation D requires entries in T (no +inf)")
    n = a.rows
    if n > max_n:
        raise SizeLimitError(
            f"rel_D guards at n <= {max_n} (got {n}); raise max_n / TROP_MAX_N to override"
        )
    span_b = col_span(b)  # also checks every bridge below
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
    if k == 0:
        iso = IsoDescriptor(
            (), (), (), (), source_shape=(n, COL), target_shape=(n, COL)
        )
        bridge = matrix_from_iso(a, iso)
        if not span_equal(col_span(bridge), span_b):
            raise VerificationError("rel_D: zero-span bridge failed verification")
        return GreenVerdict(REL_D, True, dom, iso=iso, bridge=bridge)
    if k > max_basis:
        raise SizeLimitError(
            f"rel_D guards at weak basis size <= {max_basis} (got {k}); "
            "raise max_basis / TROP_MAX_N to override"
        )

    gens_e = list(basis_a.generators)
    gens_f = list(basis_b.generators)
    table_e = _bracket_table(gens_e)
    table_f = _bracket_table(gens_f)
    triples_e = _triple_table(gens_e)
    e_grid = _entry_grid(gens_e)
    f_grid_raw = _entry_grid(gens_f)
    reasons = []
    tried = 0
    for sigma in itertools.permutations(range(k)):
        if any(
            _finite_class(table_e[i][j]) != _finite_class(table_f[sigma[i]][sigma[j]])
            for i in range(k)
            for j in range(k)
        ):
            reasons.append(f"sigma {sigma}: bracket finiteness pattern differs")
            continue
        comps = _components(table_e, k)
        base = _base_lambdas(table_e, table_f, sigma, comps, k)
        if base is None:
            reasons.append(f"sigma {sigma}: bracket differences are inconsistent")
            continue
        # target entries aligned to source indexing: f_grid[r][i] is the
        # r-th coordinate of the sigma-image of basis element i
        f_grid = [[row[sigma[i]] for i in range(k)] for row in f_grid_raw]

        failures = 0
        seen = set()

        def check(offsets):
            nonlocal tried, failures
            lambdas = tuple(finite(base[i] + offsets[i]) for i in range(k))
            if lambdas in seen:
                return None
            seen.add(lambdas)
            tried += 1
            if tried > assignment_budget:
                raise SizeLimitError(
                    "rel_D: offset assignment budget exhausted; "
                    "raise assignment_budget to push further"
                )
            cand = IsoDescriptor(tuple(gens_e), tuple(gens_f), sigma, lambdas)
            if not descriptor_valid(cand):
                failures += 1
                return None
            bridge = matrix_from_iso(a, cand)
            if not span_equal(col_span(bridge), span_b):
                raise VerificationError("rel_D: bridge failed column space check")
            return cand, bridge

        def assign(order, pos, offsets):
            if pos == len(order):
                return check(offsets)
            comp = comps[order[pos]]
            pinned = sorted(offsets)
            for t in _offset_candidates(e_grid, f_grid, base, offsets, comp, pinned):
                for node in comp:
                    offsets[node] = t
                # sums of basis elements must keep their brackets under
                # any isomorphism; prune offsets that already break one
                if _image_triple_ok(triples_e, gens_f, sigma, offsets, base, comp):
                    found = assign(order, pos + 1, offsets)
                    if found is not None:
                        return found
            for node in comp:
                del offsets[node]
            return None

        root_offsets = {node: Fraction(0) for node in comps[0]}
        if not _image_triple_ok(triples_e, gens_f, sigma, root_offsets, base, comps[0]):
            reasons.append(f"sigma {sigma}: a bracket of summed basis elements differs")
            continue
        # a feasible offset tuple, when one exists, is anchored to the
        # pinned component through a chain of entry alignments; trying
        # every processing order of the free components covers every
        # chain topology
        found = None
        for order in itertools.permutations(range(1, len(comps))):
            offsets = dict(root_offsets)
            found = assign(order, 0, offsets)
            if found is not None:
                break
        if found is not None:
            iso, bridge = found
            return GreenVerdict(REL_D, True, dom, iso=iso, bridge=bridge)
        reasons.append(f"sigma {sigma}: {failures} scaling candidates all failed")
    return GreenVerdict(REL_D, False, dom, reasons=tuple(reasons))
