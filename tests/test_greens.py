"""Green's relations: order witnesses, transfers, and the D decision."""

import hashlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trop import convex, harness
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


def test_rel_d_certifies_that_the_weak_basis_spans_c_b(monkeypatch):
    # matrix_from_iso checks the bridge against the weak basis of C(B)
    # only; a basis that lost a generator passes there, and rel_D's own
    # check against B is all that refuses the yes
    a = TropMatrix([[ZERO, ZERO], [ZERO, ZERO]])
    b = TropMatrix([[ZERO, finite(1)], [ZERO, ZERO]])
    assert not rel_D(a, b).holds
    weak_basis_matrix = convex.weak_basis_matrix

    def drop_the_second_of_b(gens, orientation=COL):
        m = weak_basis_matrix(gens, orientation)
        return stack([m.col(0)]) if gens is b else m

    monkeypatch.setattr(convex, "weak_basis_matrix", drop_the_second_of_b)
    with pytest.raises(VerificationError, match="^rel_D: bridge failed column space check$"):
        rel_D(a, b)


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
            lambda: rel(identity(2), identity(2), "d"),
            ValueError,
            "rel expects one of r/l/h, got 'd'",
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
    deciders = {LEQ_R: leq_R, LEQ_L: leq_L, REL_D: rel_D}
    digest = hashlib.sha256()
    for trial in range(pairs):
        a, b = _green_pair(Sampler(rng, pools[trial % 3]), trial)
        for relation in RELATIONS:
            decide = deciders.get(relation) or (lambda a, b: rel(a, b, relation))
            try:
                text = format_verdict(decide(a, b))
            except DomainError as exc:  # D over TBAR
                text = f"error: {exc}\n"
            digest.update(text.encode())
    return digest.hexdigest()


def test_green_verdict_texts_are_pinned():
    assert green_verdict_digest() == GREEN_VERDICT_DIGEST
