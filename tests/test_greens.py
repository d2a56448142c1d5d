"""Green's relations: order witnesses, transfers, and the D decision."""

import hashlib
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trop import greens, harness, linalg
from trop.convex import col_span, row_span, span_equal
from trop.errors import (
    DomainError,
    PreconditionError,
    ShapeError,
    SizeLimitError,
    TropError,
    VerificationError,
)
from trop.formats import format_verdict, parse_matrix
from trop.greens import (
    LEQ_L,
    LEQ_R,
    RELATIONS,
    REL_D,
    REL_H,
    REL_L,
    REL_R,
    GreenVerdict,
    _d_search,
    _link,
    _match_rows,
    _pattern,
    definitize_witness_t,
    finitize_witness_ft,
    leq_L,
    leq_R,
    rel,
    rel_D,
)
from trop.harness import BridgeOracleIndex, EntryPool, Sampler
from trop.linalg import (
    COL,
    DFrame,
    TropMatrix,
    identity,
    mat_mul,
    scale,
    scale_columns,
    stack,
    transpose,
    zero_matrix,
)
from trop.semiring import Domain, NEG_INF, POS_INF, ZERO, finite

t_scalars = st.one_of(
    st.just(NEG_INF),
    st.fractions(min_value=-6, max_value=6, max_denominator=2).map(finite),
)


def t_matrices(n):
    return st.lists(
        st.lists(t_scalars, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(TropMatrix)


def square_pairs():
    return st.integers(2, 3).flatmap(lambda n: st.tuples(t_matrices(n), t_matrices(n)))


def test_leq_r_identity():
    a = TropMatrix([[finite(1), NEG_INF], [finite(2), ZERO]])
    v = leq_R(a, identity(2))
    assert v.holds
    ((_, x),) = v.witnesses
    assert mat_mul(identity(2), x) == a
    assert x == a


def test_leq_r_scaled_columns():
    a = TropMatrix([[ZERO, ZERO], [ZERO, ZERO]])
    b = TropMatrix([[ZERO, finite(1)], [ZERO, finite(1)]])
    v = leq_R(a, b)
    assert v.holds
    ((_, x),) = v.witnesses
    assert mat_mul(b, x) == a


def test_leq_r_failure():
    v = leq_R(identity(2), TropMatrix([[ZERO, ZERO], [ZERO, ZERO]]))
    assert not v.holds
    assert v.reasons


def test_leq_l_identity_and_duality():
    a = TropMatrix([[finite(1), NEG_INF], [finite(2), ZERO]])
    v = leq_L(a, identity(2))
    assert v.holds
    ((_, y),) = v.witnesses
    assert mat_mul(y, identity(2)) == a

    assert not leq_L(identity(2), zero_matrix(2, 2)).holds


def transposed_leq_l(a, b):
    """A <=_L B as A^T <=_R B^T: witness and reasons transposed back."""
    v = leq_R(transpose(a), transpose(b))
    if v.holds:
        ((_, x),) = v.witnesses
        return GreenVerdict(LEQ_L, True, v.domain, witnesses=(("Y", transpose(x)),))
    reasons = tuple(r.replace("column", "row") for r in v.reasons)
    return GreenVerdict(LEQ_L, False, v.domain, reasons=reasons)


@given(square_pairs())
def test_leq_l_is_transpose_dual(pair):
    a, b = pair
    want = transposed_leq_l(a, b)
    assert leq_L(a, b) == want
    assert format_verdict(leq_L(a, b)) == format_verdict(want)


def test_rel_reflexive():
    a = TropMatrix([[ZERO, finite(2)], [NEG_INF, finite(-1)]])
    for which in (REL_R, REL_L, REL_H):
        v = rel(a, a, which)
        assert v.holds
        for label, w in v.witnesses:
            if label in ("X", "X2"):
                assert mat_mul(a, w) == a
            else:
                assert mat_mul(w, a) == a


def test_rel_column_permutation():
    a = TropMatrix([[ZERO, finite(5)], [finite(1), NEG_INF]])
    swapped = TropMatrix([[finite(5), ZERO], [NEG_INF, finite(1)]])
    assert rel(a, swapped, REL_R).holds
    assert not rel(a, swapped, REL_L).holds  # row spaces differ here
    assert not rel(a, swapped, REL_H).holds


def test_rel_identity_vs_zero():
    for which in (REL_R, REL_L, REL_H):
        assert not rel(identity(2), zero_matrix(2, 2), which).holds


def test_rel_witnesses_reverify():
    a = TropMatrix([[ZERO, finite(1)], [finite(1), ZERO]])
    b = TropMatrix([[finite(1), ZERO], [ZERO, finite(1)]])  # columns swapped
    v = rel(a, b, REL_R)
    assert v.holds
    labels = dict(v.witnesses)
    assert mat_mul(b, labels["X"]) == a
    assert mat_mul(a, labels["X2"]) == b


@pytest.mark.parametrize("which", [REL_R, REL_L, REL_H])
def test_rel_validates_the_pair_once(monkeypatch, which):
    # rel checks shapes and the domain of (A, B) once and hands the
    # domain to its one-sided decisions; a bad pair raises as before
    a = TropMatrix([[ZERO, finite(1)], [NEG_INF, ZERO]])
    calls, validate = [], greens._validate_pair

    def counting_validate(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(greens, "_validate_pair", counting_validate)
    assert rel(a, transpose(a), which).domain == Domain.T
    assert len(calls) == 1
    with pytest.raises(DomainError):
        rel(a, identity(2), which, Domain.FT)
    with pytest.raises(ShapeError):
        rel(identity(3), a, which)


def test_finitize_witness_example():
    b = TropMatrix([[ZERO, ZERO], [ZERO, ZERO]])
    p = TropMatrix([[finite(1), NEG_INF], [NEG_INF, finite(1)]])
    a = mat_mul(b, p)
    assert a == TropMatrix([[finite(1), finite(1)], [finite(1), finite(1)]])
    p2 = finitize_witness_ft(b, a, p)
    # delta = (0 + 1 - 0) - 1 = 0 replaces the -inf entries
    assert p2 == TropMatrix([[finite(1), ZERO], [ZERO, finite(1)]])
    assert mat_mul(b, p2) == a


def test_finitize_witness_pinned_delta():
    b = TropMatrix([[finite(1), finite(5)], [finite(-2), finite(3)]])
    p = TropMatrix([[finite(2), NEG_INF], [NEG_INF, finite(Fraction(1, 2))]])
    a = mat_mul(b, p)
    # delta = min(B) + min(finite P) - max(B) - 1 = -2 + 1/2 - 5 - 1
    delta = finite(Fraction(-15, 2))
    b_vals = [e.value for row in b.entries for e in row]
    brute = min(x + q - y for x in b_vals for q in (2, Fraction(1, 2)) for y in b_vals) - 1
    assert delta == finite(brute)
    p2 = finitize_witness_ft(b, a, p)
    assert p2 == TropMatrix([[finite(2), delta], [delta, finite(Fraction(1, 2))]])
    assert mat_mul(b, p2) == a


def test_finitize_witness_noop_and_guards():
    b = TropMatrix([[ZERO, ZERO], [ZERO, finite(1)]])
    p = TropMatrix([[finite(2), ZERO], [ZERO, finite(-1)]])
    a = mat_mul(b, p)
    assert finitize_witness_ft(b, a, p) == p
    with pytest.raises(PreconditionError):
        finitize_witness_ft(b, a, zero_matrix(2, 2))
    with pytest.raises(PreconditionError):
        finitize_witness_ft(zero_matrix(2, 2), a, p)


def test_definitize_witness_example():
    b = TropMatrix([[NEG_INF, ZERO], [NEG_INF, ZERO]])
    p = TropMatrix([[POS_INF, NEG_INF], [ZERO, ZERO]])
    a = mat_mul(b, p)
    assert a == TropMatrix([[ZERO, ZERO], [ZERO, ZERO]])
    p2 = definitize_witness_t(b, a, p)
    assert p2 == TropMatrix([[ZERO, NEG_INF], [ZERO, ZERO]])
    assert mat_mul(b, p2) == a


def test_definitize_witness_guards():
    b = TropMatrix([[NEG_INF, ZERO], [NEG_INF, ZERO]])
    p = TropMatrix([[ZERO, ZERO], [ZERO, ZERO]])
    a = mat_mul(b, p)
    assert definitize_witness_t(b, a, p) == p
    with pytest.raises(PreconditionError):
        definitize_witness_t(b, identity(2), p)


def test_rel_d_zero_matrix_class():
    z2 = zero_matrix(2, 2)
    v = rel_D(z2, z2)
    assert v.holds
    assert v.iso.k == 0 and v.bridge == z2
    v = rel_D(identity(2), z2)
    assert not v.holds
    assert any("sizes differ" in r for r in v.reasons)


def test_rel_d_perm_scale_variant():
    a = TropMatrix([[ZERO, finite(2)], [NEG_INF, finite(1)]])
    b = TropMatrix([[scale(finite(3), a.col(1)).entries[0], a.col(0).entries[0]],
                    [scale(finite(3), a.col(1)).entries[1], a.col(0).entries[1]]])
    v = rel_D(a, b)
    assert v.holds
    assert span_equal(row_span(v.bridge), row_span(a))
    assert span_equal(col_span(v.bridge), col_span(b))


def test_rel_d_2x2_transpose():
    # in dimension 2, every matrix is D-related to its transpose
    mats = [
        TropMatrix([[ZERO, finite(1)], [NEG_INF, finite(2)]]),
        TropMatrix([[finite(1), finite(1)], [ZERO, NEG_INF]]),
        TropMatrix([[NEG_INF, ZERO], [ZERO, NEG_INF]]),
    ]
    for a in mats:
        v = rel_D(a, transpose(a))
        assert v.holds
        assert span_equal(row_span(v.bridge), row_span(a))
        assert span_equal(col_span(v.bridge), col_span(transpose(a)))


def test_rel_d_verdicts_are_values():
    # equal inputs built apart give equal verdicts with equal hashes, for
    # a yes (iso and bridge) and for a no (reasons); the fields are read-only
    def pair():
        a = TropMatrix([[ZERO, finite(2)], [NEG_INF, finite(1)]])
        return a, TropMatrix([[finite(5), ZERO], [finite(4), NEG_INF]])

    yes, no = rel_D(*pair()), rel_D(pair()[0], identity(2))
    assert yes.holds and yes.iso is not None and yes.bridge is not None
    assert not no.holds and no.reasons
    for v, again in ((yes, rel_D(*pair())), (no, rel_D(pair()[0], identity(2)))):
        assert v == again and v is not again
        assert hash(v) == hash(again)
    assert yes != no
    with pytest.raises(AttributeError):
        yes.holds = False


def test_rel_d_transpose_counterexample():
    # the column space has one basis ray sitting below the two others,
    # the row space has two rays below one; brackets are isomorphism
    # invariants, so these spans are not isomorphic and A is not
    # D-related to its transpose
    a = TropMatrix(
        [
            [ZERO, finite(1), finite(1)],
            [NEG_INF, NEG_INF, ZERO],
            [ZERO, NEG_INF, NEG_INF],
        ]
    )
    v = rel_D(a, transpose(a))
    assert not v.holds
    assert all("pattern differs" in r or "differs" in r for r in v.reasons)


def test_rel_d_left_right_symmetry():
    # transposition is an anti-automorphism and D is left-right
    # symmetric, so A D B iff A^T D B^T; the transposed call matches
    # other weak bases, an independent check of refutations at n >= 3
    rng = random.Random(20261018)
    s = Sampler(rng, EntryPool(num_bound=4, p_neg_inf=0.35))
    partners = (
        lambda a: s.matrix(a.rows, a.cols),
        transpose,
        lambda a: _perm_scale(rng, transpose(a)),
        lambda a: transpose(_perm_scale(rng, a)),
    )
    verdicts = []
    for trial in range(200):
        n = 3 + trial % 2
        a = s.matrix(n, n)
        b = partners[trial // 2 % 4](a)
        v = rel_D(a, b)
        assert v.holds == rel_D(transpose(a), transpose(b)).holds, (a, b)
        verdicts.append(v.holds)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize(
    "a, b, lambdas",
    [
        ([[None, "-14/3"], ["17/6", None]], [["-7/6", None], [None, "41/6"]], ("0", "-23/2")),
        ([[None, "-10/3"], ["25/6", None]], [["2/3", None], [None, "-23/6"]], ("0", "0")),
    ],
)
def test_rel_d_direct_sum_scalings(a, b, lambdas):
    # C(A) and C(B) are direct sums of two rays, so the second scaling
    # is free; rel_D fixes it at the least entry alignment, or at 0
    # when that is larger
    def mat(rows):
        return TropMatrix([[NEG_INF if x is None else finite(Fraction(x)) for x in r] for r in rows])

    v = rel_D(mat(a), mat(b))
    assert v.holds
    assert v.iso.sigma == (0, 1)
    assert v.iso.lambdas == tuple(finite(Fraction(x)) for x in lambdas)


def _entry_pair_lambdas(brackets, forest, e, f):
    """_lambdas with the direct-summand shift as the least alignment of
    every pair of finite entries, O(k^2 n^2); and, for each component
    that took that shift, whether an alignment across a fixed
    coordinate entered it."""
    k = len(e)
    comps = [greens._find(brackets, j)[0] for j in range(k)]
    classes = [greens._find(forest, j)[0] for j in range(k)]
    pot = [greens._find(forest, j)[1] for j in range(k)]
    lam, summands = {}, []
    for c in range(k):
        if c in lam:
            continue
        tied = [jp for jp in lam if classes[jp] == classes[c]]
        comp = [j for j in range(k) if comps[j] == comps[c]]
        shift = lam[tied[0]] - pot[tied[0]] if tied else -pot[c]
        if lam and not tied:
            across = [
                (ej - ejp) - (fj - fjp) - pot[j] + lam[jp]
                for j in comp
                for jp in lam
                for ej, ejp in zip(e[j], e[jp])
                if ej is not None and ejp is not None
                for fj, fjp in zip(f[j], f[jp])
                if fj is not None and fjp is not None
            ]
            shift = min(
                [shift]
                + [x - y - pot[j] for j in comp for x in e[j] for y in f[j]
                   if x is not None and y is not None]
                + across
            )
            summands.append(bool(across))
        lam.update((j, pot[j] + shift) for j in comp)
    return tuple(lam[j] for j in range(k)), summands


def _block_diagonal(blocks):
    """The T matrix with the given square blocks down its diagonal and
    -inf elsewhere."""
    n = sum(b.rows for b in blocks)
    rows, at = [[NEG_INF] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b.entries):
            rows[at + i][at:at + b.rows] = row
        at += b.rows
    return TropMatrix(rows)


def test_lambdas_closed_form_equals_the_entry_pair_minimum(monkeypatch):
    # seeded direct-sum frames: the 2 x 2 monomial pairs of
    # test_rel_d_direct_sum_scalings; block-diagonal T pairs against the
    # blocks swapped or a two-sided perm/scale variant; and two
    # overlapping rays (their brackets -inf, their supports sharing a
    # coordinate) against a two-sided variant.  Each match's lambdas
    # equal the entry-pair minimum's, and the direct-summand shift is
    # taken, with and without alignments across a fixed coordinate
    lambdas, calls = greens._lambdas, []

    def recorded(*args):
        calls.append((args, lambdas(*args)))
        return calls[-1][1]

    monkeypatch.setattr(greens, "_lambdas", recorded)
    s = Sampler(random.Random(20261021), EntryPool.for_domain(Domain.T))
    for trial in range(400):
        x, y, z, w = (s.finite_scalar() for _ in range(4))
        blocks = [s.matrix(m, m) for m in (s.dim((1, 2)), s.dim((1, 2)))]
        if trial % 4 == 0:
            a = TropMatrix([[NEG_INF, x], [y, NEG_INF]])
            b = TropMatrix([[z, NEG_INF], [NEG_INF, w]])
        elif trial % 4 == 1:
            a, b = _block_diagonal(blocks), _block_diagonal(blocks[::-1])
        elif trial % 4 == 2:
            a = _block_diagonal(blocks)
            b = transpose(_perm_scale(s.rng, transpose(_perm_scale(s.rng, a))))
        else:
            a = TropMatrix([[x, NEG_INF, NEG_INF], [y, z, NEG_INF], [NEG_INF, w, NEG_INF]])
            b = transpose(_perm_scale(s.rng, transpose(_perm_scale(s.rng, a))))
        assert rel_D(a, b).holds
    summands = []
    for args, found in calls:
        expected, taken = _entry_pair_lambdas(*args)
        assert found == expected, args
        summands += taken
    assert len(calls) == 400 and summands.count(True) > 50 and summands.count(False) > 50


def test_rel_d_row_matching_backtracks():
    # no two basis columns have a finite bracket, so no lambda
    # difference is known up front; B swaps the first two rows of A, and
    # R(E) has two rows of one -inf pattern whose first pairing in the
    # row order of B is the wrong one
    a = TropMatrix([[ZERO, ZERO, NEG_INF, NEG_INF], [ZERO, finite(1), NEG_INF, NEG_INF],
                    [NEG_INF, ZERO, ZERO, NEG_INF], [ZERO, NEG_INF, ZERO, NEG_INF]])
    b = TropMatrix([a.entries[1], a.entries[0], a.entries[2], a.entries[3]])
    v = rel_D(a, b)
    assert v.holds
    assert v.iso.sigma == (0, 1, 2) and v.iso.lambdas == (ZERO,) * 3


@pytest.mark.parametrize("mu, lam", [(2, 3), (Fraction(1, 2), Fraction(3, 2))])
def test_rel_d_scalings_leave_the_common_denominator(mu, lam):
    # the search runs on ints over the denominator 6 of A; lambda_1 =
    # mu - (-1) comes back canonical, an int when it is integral
    a = TropMatrix([[Fraction(1, 2), 0], [Fraction(-1, 3), Fraction(5, 6)]])
    b = stack([scale(finite(mu), a.col(0)), scale(finite(-1), a.col(1))])
    v = rel_D(a, b)
    assert v.holds and v.iso.sigma == (0, 1)
    assert v.iso.lambdas == (ZERO, finite(lam))
    assert [x.value.__class__ for x in v.iso.lambdas] == [int, lam.__class__]


def _drop_the_second_generator(monkeypatch, cols):
    """Make the greedy weak basis of exactly these aligned columns keep
    only its first generator, its coefficient table and masks as they
    are."""
    greedy = linalg._greedy

    def drop_the_second(rows):
        kept, coeffs, covers = greedy(rows)
        return (kept[:1] if rows == cols else kept), coeffs, covers

    monkeypatch.setattr(linalg, "_greedy", drop_the_second)


def test_rel_d_certifies_that_the_weak_basis_spans_c_b(monkeypatch):
    # the frame's weak basis of C(B) loses its second generator: the
    # search still matches A's one generator with the one left, and only
    # the certificate's check of C(D) against B itself refuses the yes
    a = TropMatrix([[ZERO, ZERO], [ZERO, ZERO]])
    b = TropMatrix([[ZERO, finite(1)], [ZERO, ZERO]])
    assert not rel_D(a, b).holds
    _drop_the_second_generator(monkeypatch, [(0, 0), (1, 0)])  # B's columns over den 1
    with pytest.raises(VerificationError, match="^rel_D: bridge failed column space check$"):
        rel_D(a, b)


def test_rel_d_certifies_that_the_weak_basis_spans_c_a(monkeypatch):
    # the twin on A's side: the second column of A is outside C(E), so
    # X recombines no whole A and the certificate refuses the yes
    # before it builds a bridge
    a = TropMatrix([[ZERO, finite(1)], [ZERO, ZERO]])
    b = TropMatrix([[ZERO, ZERO], [ZERO, ZERO]])
    assert not rel_D(a, b).holds
    _drop_the_second_generator(monkeypatch, [(0, 0), (1, 0)])  # A's columns over den 1
    monkeypatch.setattr(linalg, "_combine", lambda *args: pytest.fail("built a bridge"))
    with pytest.raises(VerificationError, match="^rel_D: bridge failed row space check$"):
        rel_D(a, b)


# A yes of rel_D at n = 2 whose bracket graph is connected: shifting one
# scaling, or one entry of the bridge, breaks the iso.
CONNECTED = TropMatrix([[ZERO, finite(1)], [finite(2), ZERO]])


def test_rel_d_certifies_the_matched_descriptor(monkeypatch):
    assert rel_D(CONNECTED, CONNECTED).holds
    lambdas = greens._lambdas

    def shift_the_first(*args):
        first, *rest = lambdas(*args)
        return (first + 1, *rest)

    monkeypatch.setattr(greens, "_lambdas", shift_the_first)
    with pytest.raises(
        VerificationError, match="^rel_D: matched descriptor failed the row space check$"
    ):
        rel_D(CONNECTED, CONNECTED)


def test_rel_d_certifies_the_bridge_row_space(monkeypatch):
    # the descriptor is right, but the first column of the bridge
    # D = G * X comes out one unit over den too high in its first entry
    combine, calls = linalg._combine, []

    def raise_the_first_entry(coeffs, rows, dim):
        calls.append(coeffs)
        first, *rest = combine(coeffs, rows, dim)
        return (first + (len(calls) == 1), *rest)

    monkeypatch.setattr(linalg, "_combine", raise_the_first_entry)
    with pytest.raises(VerificationError, match="^rel_D: bridge failed row space check$"):
        rel_D(CONNECTED, CONNECTED)


def _kernel_calls(monkeypatch):
    """The names of the _align and _residuate calls made from here on,
    with "certify" marking the start of DFrame.certify."""
    calls = []
    align, residuate, certify = linalg._align, linalg._residuate, linalg.DFrame.certify

    def counting_align(p, q):
        calls.append("_align")
        return align(p, q)

    def counting_residuate(grows, trows, *args):
        calls.append("_residuate")
        return residuate(grows, trows, *args)

    def marking_certify(frame, sigma, lambdas):
        calls.append("certify")
        return certify(frame, sigma, lambdas)

    monkeypatch.setattr(linalg, "_align", counting_align)
    monkeypatch.setattr(linalg, "_residuate", counting_residuate)
    monkeypatch.setattr(linalg.DFrame, "certify", marking_certify)
    return calls


def test_rel_d_yes_aligns_once_and_runs_one_pass_per_weak_basis(monkeypatch):
    # a yes at n = k = 3 like d-disconnected's (-inf diagonal, every
    # bracket -inf, B the reversal of A's scaled columns): the frame is
    # the one alignment of A and B, and the IsoDescriptor the verdict
    # returns only stores its four fields.  The weak bases of C(A) and
    # C(B) take one all-pairs pass each, which also gives the bracket
    # tables and X, and the row side takes one pass for each of E and F.
    # Each family the certificate compares holds the same projective
    # points as the other, so its three span checks run no pass
    rng = random.Random(20261022)
    a = TropMatrix([[NEG_INF if r == c else finite(rng.randint(-9, 9)) for c in range(3)]
                    for r in range(3)])
    b = stack([scale(finite(rng.randint(-9, 9)), a.col(j)) for j in (2, 1, 0)])
    calls = _kernel_calls(monkeypatch)
    verdict = rel_D(a, b)
    assert verdict.holds and len(verdict.iso.sigma) == 3
    assert calls == ["_align"] + ["_residuate"] * (2 + 2) + ["certify"]


def test_rel_d_yes_with_a_redundant_column_certifies_with_six_residuations(monkeypatch):
    # the first column of A is the max of its other two, and the first
    # column of B a max of rescalings of its other two, so k = 2 at
    # n = 3; R(E) and R(G), R(D) and R(A), and C(D) and C(B) each hold
    # two families of different projective points, and each check
    # falls back to its two passes
    a = parse_matrix("3 3\n1 -inf 1\n2 2 -inf\n0 -inf 0\n")
    b = parse_matrix("3 3\n-inf -inf -inf\n1 2 -inf\n0 -inf 0\n")
    calls = _kernel_calls(monkeypatch)
    verdict = rel_D(a, b)
    assert verdict.holds and len(verdict.iso.sigma) == 2
    assert calls == ["_align"] + ["_residuate"] * (2 + 2) + ["certify"] + ["_residuate"] * 6


def test_rel_d_needs_row_space_weak_bases_of_one_size():
    # both weak bases have 3 elements, but the row-space weak bases have
    # 3 and 4 rows; under sigma (0, 2, 1) each row of A's still matches
    # its own row of B's, so only the -inf pattern check refuses that
    # sigma (without it, the descriptor check raises)
    a = parse_matrix("4 4\n0 1/2 -inf 1/2\n-inf -inf -inf -inf\n"
                     "-inf -inf -1 -inf\n1/3 -inf 1 -1\n")
    b = parse_matrix("4 4\n-2 -inf -inf -1\n-1/3 1/3 -inf -inf\n"
                     "0 -1/2 -inf -1\n-inf -1 -inf -inf\n")
    assert format_verdict(rel_D(a, b)) == (
        "d no t\n"
        "reason: sigma (0, 1, 2): bracket finiteness pattern differs\n"
        "reason: sigma (0, 2, 1): the row-space weak bases differ\n"
        "reason: sigma (1, 0, 2): bracket finiteness pattern differs\n"
        "reason: sigma (1, 2, 0): bracket finiteness pattern differs\n"
        "reason: sigma (2, 0, 1): bracket finiteness pattern differs\n"
        "reason: sigma (2, 1, 0): bracket finiteness pattern differs\n"
    )


# The search alone, on hand-built int tables: (values of each basis
# vector, bracket table, row-space weak basis), finite values as ints
# over one denominator and -inf as None.
SIGMAS_3 = list(itertools.permutations(range(3)))
STAGE_FINITE = "bracket finiteness pattern differs"
STAGE_BRACKETS = "bracket differences are inconsistent"
STAGE_ROWS = "the row-space weak bases differ"


def _search(e, f):
    """_d_search's records on two hand-built tables, handed over as
    DFrame hands them (the bracket tables, then the row side on
    request), and how many times it asked for the row side."""
    (grid_e, table_e, rows_e), (grid_f, table_f, rows_f) = e, f
    asked = []

    def row_side():
        asked.append(True)
        return (grid_e, rows_e), (grid_f, rows_f)

    return list(_d_search(table_e, table_f, row_side)), len(asked)


@pytest.mark.parametrize(
    "table_e, stage",
    [
        ([(0, 0, None), (-1, 0, 0), (0, 0, 0)], STAGE_FINITE),
        ([(0, 0, 0), (-1, 0, 0), (0, 0, 0)], STAGE_BRACKETS),
        ([(0, 0, 0), (0, 0, 0), (0, 0, 0)], STAGE_ROWS),
    ],
)
def test_d_search_names_the_first_stage_that_fails(table_e, stage):
    # F's brackets are all 0, and its row-space weak basis has two rows
    # to E's one: the first table fails all three stages, the second
    # the last two, the third only the rows; each sigma is named by its
    # first failing stage, one record per sigma, in permutation order,
    # and the row side is asked for once if a sigma reaches it, else never
    e = ([(0,)] * 3, table_e, [(0, 0, 0)])
    f = ([(0,)] * 3, [(0, 0, 0)] * 3, [(0, 0, 0), (0, 1, 2)])
    records = [(sigma, stage, None) for sigma in SIGMAS_3]
    assert _search(e, f) == (records, int(stage == STAGE_ROWS))
    # with equal row-space weak bases, the third table matches at once
    if stage == STAGE_ROWS:
        assert _search(e, f[:2] + (e[2],)) == ([((0, 1, 2), None, (0, 0, 0))], 1)


def test_d_search_stops_at_the_first_match():
    # E: columns (0, 0, -inf), (-inf, 0, -inf), (-inf, -inf, 0); F has
    # E's first two columns swapped, so sigma (1, 0, 2) is the first match
    e = (
        [(0, 0, None), (None, 0, None), (None, None, 0)],
        [(0, None, None), (0, 0, None), (None, None, 0)],
        [(0, None, None), (0, 0, None), (None, None, 0)],
    )
    f = (
        [(None, 0, None), (0, 0, None), (None, None, 0)],
        [(0, 0, None), (None, 0, None), (None, None, 0)],
        [(None, 0, None), (0, 0, None), (None, None, 0)],
    )
    assert _search(e, f) == ([
        ((0, 1, 2), STAGE_FINITE, None),
        ((0, 2, 1), STAGE_FINITE, None),
        ((1, 0, 2), None, (0, 0, 0)),
    ], 1)


def test_d_search_sorted_patterns_force_one_row_basis_size():
    # the tables (den 6) of the 4x4 pair above: row-space weak bases of
    # 3 and 4 rows; the one sigma that reaches the row stage is refused
    # there, though _match_rows alone pairs each of E's rows with F's
    e = (
        [(0, None, None, 2), (3, None, None, None), (None, None, -6, 6)],
        [(0, None, None), (-3, 0, None), (None, None, 0)],
        [(0, 3, None), (None, None, -6), (2, None, 6)],
    )
    f = (
        [(-12, -2, 0, None), (None, 2, -3, -6), (-6, None, -6, None)],
        [(0, None, None), (None, 0, None), (-6, None, 0)],
        [(-12, None, -6), (-2, 2, None), (0, -3, -6), (None, -6, None)],
    )
    records, asked = _search(e, f)
    assert asked == 1 and [sigma for sigma, _, _ in records] == SIGMAS_3
    assert [sigma for sigma, stage, _ in records if stage != STAGE_FINITE] == [(0, 2, 1)]
    assert records[1] == ((0, 2, 1), STAGE_ROWS, None)
    rows_s = [(w[0], w[2], w[1]) for w in f[2]]
    brackets = [(j, 0) for j in range(3)]
    assert _link(brackets, 1, 0, e[1][1][0] - f[1][2][0])  # the one finite pair off the diagonal
    patterns = (list(map(_pattern, e[2])), list(map(_pattern, rows_s)))
    assert _match_rows(brackets, e[2], rows_s, range(len(rows_s)), patterns) is not None


def test_rel_d_words_the_search_records():
    s = Sampler(random.Random(20261019), EntryPool.for_domain(Domain.T))
    seen = set()
    for trial in range(120):
        a, b = _green_pair(s, trial)
        verdict = rel_D(a, b)
        frame = DFrame(a, b)
        k, k_b = frame.sizes
        if k != k_b:
            continue
        den = frame.den
        records = list(_d_search(*frame.tables(), frame.rows))
        refuted = [f"sigma {sigma}: {stage}" for sigma, stage, _ in records if stage]
        seen.add(verdict.holds)
        if verdict.holds:
            sigma, stage, lambdas = records[-1]
            assert stage is None and len(refuted) == len(records) - 1
            assert verdict.reasons == () and verdict.iso.sigma == sigma
            assert verdict.iso.lambdas == tuple(finite(Fraction(x, den)) for x in lambdas)
        else:
            assert list(verdict.reasons) == refuted
            assert len(records) == math.factorial(k)
    assert seen == {True, False}


def _reference_d_records(frame):
    """The D search written plainly: the row side built up front, then
    every permutation in lexicographic order through the three stages
    in turn, up to the first match."""
    table_e, table_f = frame.tables()
    (grid_e, rows_e), (grid_f, rows_f) = frame.rows()
    k = len(table_e)
    records = []
    for sigma in itertools.permutations(range(k)):
        pairs = [(i, j, table_e[i][j], table_f[sigma[i]][sigma[j]])
                 for i in range(k) for j in range(k)]
        if any((x is None) != (y is None) for _, _, x, y in pairs):
            records.append((sigma, STAGE_FINITE, None))
            continue
        brackets = [(j, 0) for j in range(k)]
        if not all(_link(brackets, i, j, x - y) for i, j, x, y in pairs if x is not None):
            records.append((sigma, STAGE_BRACKETS, None))
            continue
        rows_s = [tuple(w[s] for s in sigma) for w in rows_f]
        patterns = (list(map(_pattern, rows_e)), list(map(_pattern, rows_s)))
        forest = None
        if sorted(patterns[0]) == sorted(patterns[1]):
            forest = _match_rows(brackets, rows_e, rows_s, range(len(rows_s)), patterns)
        if forest is None:
            records.append((sigma, STAGE_ROWS, None))
            continue
        lambdas = greens._lambdas(brackets, forest, grid_e, [grid_f[s] for s in sigma])
        records.append((sigma, None, lambdas))
        break
    return records


def test_d_search_equals_the_reference_enumeration():
    # seeded pairs of equal weak-basis size, n 1-5: transposes, column
    # perm/scale variants, two-sided variants and random pairs, over FT
    # and T; the search builds the row side only when a sigma reaches
    # the row stage, and its records equal the plain enumeration's
    rng = random.Random(20261020)
    samplers = [Sampler(rng, EntryPool.for_domain(d)) for d in (Domain.FT, Domain.T)]
    families = (
        lambda s, a, perm, lambdas: transpose(a),
        lambda s, a, perm, lambdas: scale_columns(a, perm, lambdas),
        lambda s, a, perm, lambdas: transpose(scale_columns(transpose(a), perm, lambdas)),
        lambda s, a, perm, lambdas: s.matrix(a.rows, a.cols),
    )
    trial, compared, stages = 0, 0, set()
    while compared < 520:
        s = samplers[trial % 2]
        n = s.dim((1, 5))
        a = s.matrix(n, n)
        perm = s.rng.sample(range(n), n)
        b = families[trial % 4](s, a, perm, [s.finite_scalar() for _ in perm])
        trial += 1
        frame = DFrame(a, b)
        k, k_b = frame.sizes
        if k != k_b:
            continue
        asked = []

        def row_side():
            asked.append(True)
            return frame.rows()

        records = list(_d_search(*frame.tables(), row_side))
        assert records == _reference_d_records(frame), (a, b)
        reached = [stage for _, stage, _ in records if stage in (STAGE_ROWS, None)]
        assert len(asked) == (1 if reached else 0)
        stages.update(stage for _, stage, _ in records)
        compared += 1
    assert stages == {STAGE_FINITE, STAGE_BRACKETS, STAGE_ROWS, None}


# A no at k = 3 in which every sigma fails bracket differences.
BRACKET_REFUTED = TropMatrix([[-2, 1, 3], [3, 3, -3], [-1, -3, 0]])


@pytest.mark.parametrize(
    "a, b, greedies",
    [
        (BRACKET_REFUTED, transpose(BRACKET_REFUTED), 2),
        (CONNECTED, CONNECTED, 4),
        (parse_matrix("4 4\n0 1/2 -inf 1/2\n-inf -inf -inf -inf\n"
                      "-inf -inf -1 -inf\n1/3 -inf 1 -1\n"),
         parse_matrix("4 4\n-2 -inf -inf -1\n-1/3 1/3 -inf -inf\n"
                      "0 -1/2 -inf -1\n-inf -1 -inf -inf\n"), 4),
    ],
    ids=["no-at-the-brackets", "yes", "no-at-the-rows"],
)
def test_rel_d_runs_the_row_greedies_only_when_a_sigma_reaches_them(monkeypatch, a, b, greedies):
    # the weak bases of C(A) and C(B) take one greedy each; the weak
    # bases of the row spaces of E and F take two more, only for a pair
    # in which some sigma passes both bracket stages
    calls, greedy = [], linalg._greedy

    def counting_greedy(rows):
        calls.append(len(rows))
        return greedy(rows)

    monkeypatch.setattr(linalg, "_greedy", counting_greedy)
    verdict = rel_D(a, b)
    assert len(calls) == greedies
    assert verdict.holds == (a is CONNECTED)
    if greedies == 2:
        assert {reason.split(": ")[1] for reason in verdict.reasons} == {STAGE_BRACKETS}


def test_rel_d_rejects_pos_inf():
    a = TropMatrix([[POS_INF, ZERO], [ZERO, ZERO]])
    with pytest.raises(DomainError):
        rel_D(a, a)


def test_rel_d_size_guards():
    big = identity(11)
    with pytest.raises(SizeLimitError):
        rel_D(big, big)
    wide = identity(9)
    with pytest.raises(SizeLimitError):
        rel_D(wide, wide)  # weak basis of size 9 exceeds the default guard
    assert rel_D(wide, wide, max_n=12, max_basis=9).holds


def test_rel_d_shape_and_domain_checks():
    with pytest.raises(ShapeError):
        rel_D(identity(2), identity(3))
    with pytest.raises(DomainError):
        leq_R(TropMatrix([[NEG_INF, ZERO], [ZERO, ZERO]]), identity(2), Domain.FT)


def test_bridge_oracle_agrees_on_small_sample():
    rng = random.Random(5)
    vals = [NEG_INF, finite(-1), ZERO, finite(1)]
    # P15's index, so the suite builds it once
    index = harness._oracle_index((NEG_INF,) + tuple(finite(v) for v in range(-4, 5)), 2)
    for _ in range(25):
        a = TropMatrix([[rng.choice(vals) for _ in range(2)] for _ in range(2)])
        b = TropMatrix([[rng.choice(vals) for _ in range(2)] for _ in range(2)])
        bridge = index.bridge(a, b)
        assert rel_D(a, b).holds == (bridge is not None)
        if bridge is not None:
            assert span_equal(row_span(bridge), row_span(a))
            assert span_equal(col_span(bridge), col_span(b))


def test_bridge_index_refuses_a_key_shared_by_unequal_spans(monkeypatch):
    # one key for every span: the zero span and span{(0)} collide
    monkeypatch.setattr(harness, "span_key", lambda span: 0)
    with pytest.raises(TropError, match="collided on unequal spans"):
        BridgeOracleIndex((NEG_INF, ZERO), 1)


def test_bridge_index_refuses_keys_that_split_equal_spans(monkeypatch):
    # one key per generator set: {(0, 0)} and {(0, 0), (-inf, -inf)} span
    # the same set under two keys, which only the sampled check can see
    monkeypatch.setattr(harness, "span_key", lambda span: frozenset(span.generators))
    index = BridgeOracleIndex((NEG_INF, ZERO), 2)
    with pytest.raises(TropError, match="disagrees with span_equal"):
        index.validate_keys(random.Random(0))


@settings(deadline=None, max_examples=30)
@given(square_pairs())
def test_leq_r_matches_membership(pair):
    a, b = pair
    verdict = leq_R(a, b)
    by_membership = all(col_span(b).member(a.col(j)) for j in range(a.cols))
    assert verdict.holds == by_membership


@settings(deadline=None, max_examples=25)
@given(st.integers(2, 3).flatmap(lambda n: st.tuples(t_matrices(n), t_matrices(n))))
def test_constructed_products_are_leq_r(pair):
    b, x = pair
    a = mat_mul(b, x)
    v = leq_R(a, b)
    assert v.holds
    ((_, w),) = v.witnesses
    assert mat_mul(b, w) == a


def _perm_scale(rng, a):
    n = a.cols
    perm = list(range(n))
    rng.shuffle(perm)
    cols = [scale(finite(Fraction(rng.randint(-3, 3))), a.col(perm[j])) for j in range(n)]
    return TropMatrix([[c.entries[i] for c in cols] for i in range(a.rows)])


def test_rel_d_is_an_equivalence_at_desk_scale():
    rng = random.Random(77)
    vals = [NEG_INF, finite(-2), finite(0), finite(1)]
    for _ in range(10):
        n = rng.randint(2, 3)
        a = TropMatrix([[rng.choice(vals) for _ in range(n)] for _ in range(n)])
        assert rel_D(a, a).holds  # reflexive
        b = TropMatrix([[rng.choice(vals) for _ in range(n)] for _ in range(n)])
        assert rel_D(a, b).holds == rel_D(b, a).holds  # symmetric
        # transitivity along constructed chains of variants
        v1 = _perm_scale(rng, a)
        v2 = _perm_scale(rng, v1)
        assert rel_D(a, v1).holds and rel_D(v1, v2).holds and rel_D(a, v2).holds


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: rel(identity(2), identity(2), "q"),
            ValueError,
            "rel expects one of leq-r/leq-l/r/l/h/d, got 'q'",
        ),
        (
            lambda: finitize_witness_ft(TropMatrix([[0]]), TropMatrix([[0]]), TropMatrix([[POS_INF]])),
            PreconditionError,
            "witness P must not contain +inf",
        ),
        (
            lambda: definitize_witness_t(TropMatrix([[0]]), TropMatrix([[POS_INF]]), TropMatrix([[0]])),
            PreconditionError,
            "definitize_witness_t needs +inf-free A and B",
        ),
    ],
)
def test_witness_transfer_and_rel_errors(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# sha256 of the format_verdict text (or the error) of all six relations
# over seeded FT/T/TBAR pairs; the bench goldens pin only leq-r, h and d
GREEN_VERDICT_DIGEST = "91f1a621fdb4bd0e830d4f9d2e1db08f3a51fdd420f9692c5b2af4e3ab888c25"


def _green_pair(s, trial):
    """A seeded pair (A, B), biased per trial towards leq-r, leq-l and
    the R and L classes: B random, A = B*X, A = Y*B, B with A's columns
    permuted and rescaled, or the same for rows."""
    n = s.dim((1, 4))
    a, b = s.matrix(n, n), s.matrix(n, n)
    perm = s.rng.sample(range(n), n)
    lambdas = [s.finite_scalar() for _ in perm]
    kind = trial % 5
    if kind == 1:
        a = mat_mul(b, a)
    elif kind == 2:
        a = mat_mul(a, b)
    elif kind == 3:
        b = scale_columns(a, perm, lambdas)
    elif kind == 4:
        b = transpose(scale_columns(transpose(a), perm, lambdas))
    return a, b


def green_verdict_digest(pairs=300):
    rng = random.Random(20261019)
    pools = [EntryPool.for_domain(d) for d in (Domain.FT, Domain.T, Domain.TBAR)]
    digest = hashlib.sha256()
    for trial in range(pairs):
        a, b = _green_pair(Sampler(rng, pools[trial % 3]), trial)
        for relation in RELATIONS:
            try:
                text = format_verdict(rel(a, b, relation))
            except DomainError as exc:  # D over TBAR
                text = f"error: {exc}\n"
            digest.update(text.encode())
    return digest.hexdigest()


def test_green_verdict_texts_are_pinned():
    assert green_verdict_digest() == GREEN_VERDICT_DIGEST


def _two_sided(a, b, which):
    """R, L or H composed from the one-sided verdicts of leq_R and leq_L
    on (A, B) and (B, A), each part's reasons after its witness label."""
    parts = []
    if which in (REL_R, REL_H):
        parts += [(leq_R(a, b), "X"), (leq_R(b, a), "X2")]
    if which in (REL_L, REL_H):
        parts += [(leq_L(a, b), "Y"), (leq_L(b, a), "Y2")]
    dom = parts[0][0].domain
    if all(v.holds for v, _ in parts):
        witnesses = tuple((label, v.witnesses[0][1]) for v, label in parts)
        return GreenVerdict(which, True, dom, witnesses=witnesses)
    reasons = tuple(f"{label}: {r}" for v, label in parts if not v.holds for r in v.reasons)
    return GreenVerdict(which, False, dom, reasons=reasons)


def _outcome(decide, a, b):
    """The verdict and its text, or the error a decider raises."""
    try:
        verdict = decide(a, b)
    except TropError as exc:
        return f"raise {type(exc).__name__}: {exc}"
    return verdict, format_verdict(verdict)


def test_rel_decides_every_relation_by_name():
    # rel(a, b, name) is leq_R, leq_L, rel_D (with its default guards) or
    # R/L/H composed from one-sided verdicts, on the digest's pair family
    by_name = {LEQ_R: leq_R, LEQ_L: leq_L, REL_D: rel_D}
    rng = random.Random(20261021)
    pools = [EntryPool.for_domain(d) for d in (Domain.FT, Domain.T, Domain.TBAR)]
    for trial in range(150):
        a, b = _green_pair(Sampler(rng, pools[trial % 3]), trial)
        for name in RELATIONS:
            want = by_name.get(name) or (lambda a, b: _two_sided(a, b, name))
            got = _outcome(lambda a, b: rel(a, b, name), a, b)
            assert got == _outcome(want, a, b), (trial, name)
