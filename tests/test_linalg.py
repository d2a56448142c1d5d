"""Vectors, matrices, bracket and Hilbert metric."""

import random
import re
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from trop.convex import col_span, row_span
from trop.duality import kernel_witness, theta, theta_prime
from trop.errors import ShapeError
from trop.formats import format_matrix, format_vector, parse_matrix, parse_vector
from trop.harness import bracket_oracle
from trop.linalg import (
    COL,
    ROW,
    TropMatrix,
    TropVector,
    DFrame,
    bracket,
    hilbert,
    identity,
    mat_mul,
    proj_normalize,
    residuate,
    scale,
    scale_columns,
    stack,
    transpose,
    vec_leq,
    vec_oplus,
    vector,
    zero_vector,
)
from trop.semiring import NEG_INF, POS_INF, ZERO, Domain, domain_of, finite, neg, oplus, otimes

scalars = st.one_of(
    st.just(NEG_INF),
    st.just(POS_INF),
    st.fractions(min_value=-30, max_value=30, max_denominator=6).map(finite),
)


# Finite entries far beyond the float range, on huge and small coprime
# denominators, next to both infinities: a kernel that lets an int meet
# a float infinity in a sum raises OverflowError on these.
BIG = 10**400
HUGE = (
    finite(BIG),
    finite(-BIG),
    finite(Fraction(BIG, BIG + 1)),
    finite(Fraction(-BIG - 3, 7)),
    finite(Fraction(2, 7)),
    ZERO,
    NEG_INF,
    POS_INF,
)

mixed_finite = st.builds(
    lambda n, d: finite(Fraction(n, d)),
    st.one_of(st.integers(-30, 30), st.integers(-BIG, BIG)),
    st.sampled_from((1, 2, 3, 7, BIG + 1)),
)
mixed_scalars = st.one_of(st.just(NEG_INF), st.just(POS_INF), mixed_finite)


def ref_bracket(x, y):
    """-(max_i x_i * (-y_i)) from the scalar operations alone."""
    return neg(reduce(oplus, (otimes(a, neg(b)) for a, b in zip(x, y)), NEG_INF))


def ref_mat_mul(a, b):
    cols = list(zip(*b.entries))
    return TropMatrix(
        [[reduce(oplus, map(otimes, row, col), NEG_INF) for col in cols] for row in a.entries]
    )


def ref_hilbert(x, y):
    """0 when y is a finite scaling of x, else -(<x|y> * <y|x>)."""
    lam = next((otimes(b, neg(a)) for a, b in zip(x, y) if a.is_finite), ZERO)
    if lam.is_finite and all(otimes(lam, a) == b for a, b in zip(x, y)):
        return ZERO
    return neg(otimes(ref_bracket(x, y), ref_bracket(y, x)))


def huge_vectors(rng, count, dim):
    return [TropVector([rng.choice(HUGE) for _ in range(dim)]) for _ in range(count)]


_rng = random.Random(400)
HUGE_PAIRS = list(zip(huge_vectors(_rng, 24, 3), huge_vectors(_rng, 24, 3)))
# scalings by a huge non-integral constant
HUGE_PAIRS += [
    (x, TropVector([otimes(finite(Fraction(BIG, 7)), e) for e in x]))
    for x in huge_vectors(_rng, 6, 3)
]
HUGE_MATRIX_PAIRS = [
    (TropMatrix([v.entries for v in huge_vectors(_rng, 3, 2)]),
     TropMatrix([v.entries for v in huge_vectors(_rng, 2, 3)]))
    for _ in range(12)
]


def vectors(dim=None, orientation=ROW):
    dims = st.just(dim) if dim else st.integers(1, 5)
    return dims.flatmap(
        lambda n: st.lists(scalars, min_size=n, max_size=n).map(
            lambda es: TropVector(es, orientation)
        )
    )


def vector_pairs():
    return st.integers(1, 5).flatmap(
        lambda n: st.tuples(vectors(n), vectors(n))
    )


def matrices(rows, cols):
    return st.lists(
        st.lists(scalars, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(TropMatrix)


def test_mat_mul_example():
    a = TropMatrix([[ZERO, finite(1)], [NEG_INF, finite(2)]])
    b = TropMatrix([[ZERO], [ZERO]])
    assert mat_mul(a, b) == TropMatrix([[finite(1)], [finite(2)]])


def test_mat_mul_identity():
    a = TropMatrix([[finite(3), NEG_INF], [finite(-1), POS_INF]])
    assert mat_mul(a, identity(2)) == a
    assert mat_mul(identity(2), a) == a


def test_mat_mul_exceptional_product():
    assert mat_mul(TropMatrix([[NEG_INF]]), TropMatrix([[POS_INF]])) == TropMatrix(
        [[NEG_INF]]
    )


def test_mat_mul_shape_error():
    with pytest.raises(ShapeError):
        mat_mul(identity(2), identity(3))


def test_scale_examples():
    assert scale(finite(2), vector([0, -1])) == vector([2, 1])
    assert scale(NEG_INF, vector([0, 5])) == TropVector([NEG_INF, NEG_INF])
    assert scale(POS_INF, TropVector([ZERO, NEG_INF])) == TropVector([POS_INF, NEG_INF])


def test_vec_oplus_and_leq_examples():
    assert vec_oplus(vector([0, 3]), vector([1, 2])) == vector([1, 3])
    assert vec_leq(TropVector([NEG_INF, ZERO]), vector([0, 0]))
    assert not vec_leq(vector([1, 0]), vector([0, 1]))
    with pytest.raises(ShapeError):
        vec_oplus(vector([0]), vector([0, 1]))


def grid_bracket(x, y):
    """Brute force: the largest lam on a fine rational grid with lam*x <= y.

    Only meaningful when the true bracket is finite and on the grid;
    used to confirm frozen example values independently.
    """
    best = None
    for num in range(-40, 41):
        lam = finite(Fraction(num, 4))
        if vec_leq(scale(lam, x), y):
            if best is None or best.value < lam.value:
                best = lam
    return best


def test_bracket_examples():
    x, y = vector([0, 0]), vector([1, 2])
    assert bracket(x, y) == finite(1)
    assert grid_bracket(x, y) == finite(1)

    x = TropVector([ZERO, NEG_INF])
    y = TropVector([NEG_INF, ZERO])
    assert bracket(x, y) == NEG_INF
    assert grid_bracket(x, y) is None  # no finite scaling works at all

    assert bracket(zero_vector(2), y) == POS_INF


def test_hilbert_examples():
    x, y = vector([0, 0]), vector([0, 3])
    assert hilbert(x, y) == finite(3)
    # cross-check by scanning scalings: the best one-sided fits
    assert bracket(x, y) == finite(0) and bracket(y, x) == finite(-3)

    x = vector([1, 4])
    assert hilbert(x, scale(finite(7), x)) == ZERO

    assert hilbert(TropVector([ZERO, NEG_INF]), vector([0, 0])) == POS_INF

    # no finite entry and the same infinity pattern: distance 0 in
    # either orientation
    assert hilbert(zero_vector(2, ROW), zero_vector(2, COL)) == ZERO
    inf2 = TropVector([POS_INF, POS_INF])
    assert hilbert(inf2, inf2.transpose()) == ZERO == hilbert(inf2, inf2)


def test_proj_normalize_examples():
    assert proj_normalize(vector([3, 5])) == vector([-2, 0])
    z = zero_vector(2)
    assert proj_normalize(z) == z
    v = TropVector([ZERO, POS_INF, finite(-1)])
    assert proj_normalize(v) == v  # +inf cannot be normalized away
    assert proj_normalize(proj_normalize(vector([3, 5]))) == vector([-2, 0])


def test_transpose_examples():
    a = TropMatrix([[finite(0), finite(1)], [finite(2), finite(3)]])
    assert transpose(a) == TropMatrix([[finite(0), finite(2)], [finite(1), finite(3)]])
    assert transpose(transpose(a)) == a
    row = TropMatrix([[finite(1), finite(2), finite(3)]])
    assert transpose(row).rows == 3 and transpose(row).cols == 1


@given(vector_pairs())
def test_bracket_is_the_defining_maximum(pair):
    x, y = pair
    lam = bracket(x, y)
    assert vec_leq(scale(lam, x), y)
    if lam.is_finite:
        assert not vec_leq(scale(finite(lam.value + 1), x), y)
        assert not vec_leq(scale(finite(lam.value + Fraction(1, 7)), x), y)


@given(vector_pairs())
def test_bracket_sign_change(pair):
    x, y = pair
    nx = TropVector([POS_INF if e.is_neg_inf else NEG_INF if e.is_pos_inf else finite(-e.value) for e in x.entries], x.orientation)
    ny = TropVector([POS_INF if e.is_neg_inf else NEG_INF if e.is_pos_inf else finite(-e.value) for e in y.entries], y.orientation)
    assert bracket(x, y) == bracket(ny, nx)


@given(vector_pairs())
def test_order_iff_nonnegative_bracket(pair):
    x, y = pair
    assert vec_leq(x, y) == (ZERO <= bracket(x, y))


@given(vector_pairs())
def test_hilbert_symmetric_nonnegative(pair):
    x, y = pair
    d = hilbert(x, y)
    assert d == hilbert(y, x)
    assert ZERO <= d


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(vectors(n), vectors(n), vectors(n))))
def test_hilbert_triangle(triple):
    from trop.semiring import leq, otimes

    x, y, z = triple
    assert leq(hilbert(x, z), otimes(hilbert(x, y), hilbert(y, z)))


@given(vector_pairs(), st.fractions(min_value=-9, max_value=9, max_denominator=3),
       st.fractions(min_value=-9, max_value=9, max_denominator=3))
def test_hilbert_scaling_invariance(pair, lam, mu):
    x, y = pair
    assert hilbert(scale(finite(lam), x), scale(finite(mu), y)) == hilbert(x, y)


def is_finite_scaling(x, y):
    if any(a.is_finite != b.is_finite or (not a.is_finite and a != b)
           for a, b in zip(x.entries, y.entries)):
        return False
    for a, b in zip(x.entries, y.entries):
        if a.is_finite:
            return scale(finite(b.value - a.value), x) == y
    return True  # identical infinity patterns and no finite entries


@given(vector_pairs())
def test_hilbert_zero_iff_proportional(pair):
    x, y = pair
    assert (hilbert(x, y) == ZERO) == is_finite_scaling(x, y)


@settings(deadline=None)
@given(matrices(2, 3), matrices(3, 2), matrices(2, 2))
def test_mat_mul_associative(a, b, c):
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


@settings(deadline=None)
@given(matrices(2, 3), matrices(3, 3))
def test_transpose_antimultiplicative(a, b):
    assert transpose(mat_mul(a, b)) == mat_mul(transpose(b), transpose(a))


@pytest.mark.parametrize("x, y", HUGE_PAIRS)
def test_bracket_exact_on_huge_entries(x, y):
    assert bracket(x, y) == ref_bracket(x, y)
    assert bracket(y, x) == ref_bracket(y, x)


@pytest.mark.parametrize("x, y", HUGE_PAIRS)
def test_hilbert_exact_on_huge_entries(x, y):
    assert hilbert(x, y) == ref_hilbert(x, y)


@pytest.mark.parametrize("a, b", HUGE_MATRIX_PAIRS)
def test_mat_mul_exact_on_huge_entries(a, b):
    assert mat_mul(a, b) == ref_mat_mul(a, b)
    assert mat_mul(b, a) == ref_mat_mul(b, a)


@settings(deadline=None)
@given(st.data())
def test_kernel_matches_scalar_references_mixed_denominators(data):
    n = data.draw(st.integers(1, 4))
    x, y = (TropVector(data.draw(st.lists(mixed_scalars, min_size=n, max_size=n))) for _ in "xy")
    assert bracket(x, y) == bracket_oracle(x, y)
    a, b = (
        TropMatrix(data.draw(st.lists(st.lists(mixed_scalars, min_size=n, max_size=n),
                                      min_size=n, max_size=n)))
        for _ in "ab"
    )
    assert mat_mul(a, b) == ref_mat_mul(a, b)


def test_vector_constructor_lifts_like_matrix():
    assert TropVector([1, 2]) == vector([1, 2])
    assert hash(TropVector([1, Fraction(1, 2)], COL)) == hash(vector([1, Fraction(1, 2)], COL))
    assert TropVector([Fraction(4, 2), "3/2"]).entries == (finite(2), finite(Fraction(3, 2)))
    assert bracket(TropVector([1, 2]), vector([0, 1])) == finite(-1)
    assert TropMatrix([TropVector([1, 2])]) == TropMatrix([[finite(1), finite(2)]])


def test_domain_examples():
    assert vector([0, Fraction(1, 2)]).domain() == Domain.FT
    assert TropVector([NEG_INF, ZERO]).domain() == Domain.T
    assert TropMatrix([[NEG_INF, POS_INF], [ZERO, ZERO]]).domain() == Domain.TBAR
    assert transpose(TropMatrix([[POS_INF], [NEG_INF]])).domain() == Domain.TBAR


def assert_same_as_boxed(r):
    """r, a kernel result, equals, hashes, prints and formats like the
    same value rebuilt from its boxed entries and like r read back from
    its text format."""
    if isinstance(r, TropVector):
        fmt = format_vector
        copies = (TropVector(r.entries, r.orientation), parse_vector(fmt(r), r.orientation))
    else:
        fmt = format_matrix
        copies = (TropMatrix(r.entries), parse_matrix(fmt(r)))
    entries = r.entries if isinstance(r, TropMatrix) else (r.entries,)
    assert r.domain() == max(domain_of(e) for row in entries for e in row)
    for c in copies:
        assert hash(r) == hash(c)
        assert r == c and c == r and not r != c
        assert str(r) == str(c)
        assert fmt(r) == fmt(c)
        assert r.domain() == c.domain()


def mixed_matrices(rows, cols):
    return st.lists(
        st.lists(mixed_scalars, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(TropMatrix)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_kernel_results_match_their_boxed_form(data):
    n = data.draw(st.integers(1, 4))
    a, b = data.draw(mixed_matrices(n, n)), data.draw(mixed_matrices(n, n))
    x, z = (TropVector(data.draw(st.lists(mixed_scalars, min_size=n, max_size=n))) for _ in "xz")
    lam = data.draw(mixed_scalars)
    results = [mat_mul(a, b), transpose(a), scale(lam, x), proj_normalize(x)]
    results += [theta(a, x, strict=False), theta_prime(a, x.transpose(), strict=False)]
    results += col_span(a).weak_basis().generators
    solution, _ = residuate(b, mat_mul(b, a))
    results.append(solution)
    if not row_span(b).member(z):
        results += kernel_witness(b, z)
    for r in results:
        assert_same_as_boxed(r)


def test_stack_rejects_vectors_of_two_dims():
    with pytest.raises(ShapeError, match="^stacked vectors must share one dim$"):
        stack([vector([0, 1], COL), vector([0, 1, 2], COL)])
    with pytest.raises(ShapeError, match="^stacked vectors must share one dim$"):
        stack([vector([0, 1, 2]), vector([0, 1])], ROW)


def test_scale_columns_example():
    f = TropMatrix([[0, NEG_INF], [POS_INF, Fraction(1, 7)]])
    lambdas = (finite(2), finite(Fraction(-1, 3)))
    g = TropMatrix([[NEG_INF, Fraction(-1, 3)], [Fraction(15, 7), POS_INF]])
    assert scale_columns(f, (1, 0), lambdas) == g
    assert scale_columns(None, (), ()) is None


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_scale_columns_matches_scaling_each_generator(data):
    # G = F * P_sigma * diag(lambdas) in one pass over F, against one
    # scale per generator and a stack; k = 0 has no G
    dim, k = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 4))
    rows = [data.draw(st.lists(mixed_scalars, min_size=dim, max_size=dim)) for _ in range(k)]
    if k and dim > 1:
        mixed = data.draw(st.integers(0, k - 1))
        rows[mixed][0], rows[mixed][-1] = POS_INF, NEG_INF
    gens = [TropVector(r, COL) for r in rows]
    sigma = data.draw(st.permutations(range(k)))
    lambdas = data.draw(st.lists(mixed_finite, min_size=k, max_size=k))
    g = scale_columns(stack(gens) if k else None, sigma, lambdas)
    if not k:
        assert g is None
        return
    assert g == stack([scale(lambdas[i], gens[sigma[i]]) for i in range(k)])
    assert_same_as_boxed(g)


def test_kernel_result_over_a_non_minimal_denominator():
    sixth = finite(Fraction(1, 6))
    five_sixths = finite(Fraction(5, 6))
    product = mat_mul(TropMatrix([[sixth, five_sixths]]), TropMatrix([[five_sixths], [sixth]]))
    assert product._packed == (6, [(6,)])  # integral, but still over den 6
    assert product == TropMatrix([[1]]) and product.entries[0][0].value.__class__ is int
    assert_same_as_boxed(product)
    assert_same_as_boxed(product.row(0))
    assert_same_as_boxed(scale(finite(Fraction(-1, 6)), product.col(0)))


def _t_matrix(rng, n):
    """An n x n T matrix on mixed denominators, at times with zero columns."""
    p_neg_inf = rng.choice((0.0, 0.3, 0.6, 1.0))
    return TropMatrix([
        [NEG_INF if rng.random() < p_neg_inf
         else finite(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))))
         for _ in range(n)]
        for _ in range(n)
    ])


def test_d_frame_matches_the_boxed_path():
    # the frame's weak bases, and every table, each value times den,
    # against weak_basis, bracket and the weak basis of the row span of
    # each basis matrix
    rng = random.Random(20261018)
    for trial in range(300):
        n = rng.randint(1, 4)
        a, b = _t_matrix(rng, n), _t_matrix(rng, n)
        frame = DFrame(a, b)
        den = frame.den

        def times_den(s):
            if s.is_neg_inf:
                return None
            assert (s.value * den).denominator == 1
            return int(s.value * den)

        bases = [col_span(m).weak_basis() for m in (a, b)]
        assert frame.sizes == tuple(map(len, bases))
        assert frame.bases() == tuple(basis.matrix for basis in bases)
        for basis, brackets, (grid, rows) in zip(bases, frame.tables(), frame.rows()):
            gens = basis.generators
            assert grid == [tuple(map(times_den, g.entries)) for g in gens]
            assert brackets == [[times_den(bracket(g, h)) for h in gens] for g in gens]
            row_basis = col_span(stack(gens, ROW)).weak_basis().generators if gens else ()
            assert rows == [tuple(map(times_den, u.entries)) for u in row_basis]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: TropVector([]), "vector must have at least one entry"),
        (lambda: TropVector([0], "diag"), "orientation must be 'row' or 'col', got 'diag'"),
        (lambda: TropMatrix([]), "matrix must have at least one row and one column"),
        (lambda: TropMatrix([[]]), "matrix must have at least one row and one column"),
        (lambda: TropMatrix([[0, 1], [0]]), "matrix rows must all have the same length"),
        (lambda: identity(2).as_vector(), "2x2 matrix is not a vector"),
        (lambda: vec_oplus(vector([0, 1]), vector([0, 1], COL)), "orientation mismatch: row vs col"),
        (lambda: vec_leq(vector([0, 1], COL), vector([0, 1])), "orientation mismatch: col vs row"),
    ],
)
def test_vector_and_matrix_shape_errors(call, message):
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        call()
