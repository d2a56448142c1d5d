"""Duality maps, kernel witnesses, and isomorphism descriptors."""

import copy
import itertools
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trop import duality, linalg
from trop.convex import ConvexSpan, col_span, row_span, span_equal
from trop.duality import (
    IsoDescriptor,
    apply_iso,
    descriptor_valid,
    identity_descriptor,
    kernel_witness,
    matrix_from_iso,
    theta,
    theta_prime,
    vec_neg,
)
from trop.errors import DomainError, PreconditionError, ShapeError, VerificationError
from trop.formats import format_matrix
from trop.greens import rel_D
from trop.harness import EntryPool, Sampler, theta_oracle
from trop.linalg import (
    COL,
    ROW,
    TropMatrix,
    TropVector,
    bracket,
    hilbert,
    identity,
    mat_mul,
    scale,
    transpose,
    vec_leq,
    vec_oplus,
    vector,
    zero_matrix,
    zero_vector,
)
from trop.semiring import NEG_INF, POS_INF, ZERO, Domain, finite, neg, otimes, ratio

finite_scalars = st.fractions(min_value=-9, max_value=9, max_denominator=3).map(finite)
scalars = st.one_of(st.just(NEG_INF), st.just(POS_INF), finite_scalars)


def matrices(rows, cols):
    return st.lists(
        st.lists(scalars, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(TropMatrix)


def random_matrices():
    return st.tuples(st.integers(2, 4), st.integers(2, 4)).flatmap(
        lambda rc: matrices(*rc)
    )


def member_of(span_vectors, coeff_list):
    acc = zero_vector(span_vectors[0].dim, span_vectors[0].orientation)
    for c, g in zip(coeff_list, span_vectors):
        acc = vec_oplus(acc, scale(c, g))
    return acc


def with_members(n_members=2):
    def build(m):
        coeffs = st.lists(
            st.lists(scalars, min_size=m.rows, max_size=m.rows),
            min_size=n_members,
            max_size=n_members,
        )
        return st.tuples(st.just(m), coeffs)

    return random_matrices().flatmap(build)


def test_theta_example():
    a = TropMatrix([[ZERO, ZERO], [ZERO, finite(1)]])
    x = vector([0, 0])
    out = theta(a, x)
    assert out == TropVector([ZERO, finite(1)], COL)
    assert theta_prime(a, out) == x


def test_theta_dim1_is_negation():
    a = TropMatrix([[ZERO]])
    c = finite(Fraction(7, 2))
    assert theta(a, TropVector([c], ROW)) == TropVector([neg(c)], COL)
    assert theta_prime(a, TropVector([c], COL)) == TropVector([neg(c)], ROW)


def test_theta_strict_rejects_non_members():
    a = TropMatrix([[ZERO, ZERO], [ZERO, finite(1)]])
    outsider = vector([0, -5])  # not in the row space
    with pytest.raises(DomainError):
        theta(a, outsider)
    # lenient mode evaluates the formula anyway
    assert theta(a, outsider, strict=False) == mat_mul(
        a, vec_neg(outsider).transpose().as_matrix()
    ).as_vector()


def test_theta_finite_matrices_preserve_finiteness():
    a = TropMatrix([[finite(1), finite(-2)], [ZERO, finite(3)]])
    x = member_of(a.row_vectors(), [finite(2), finite(0)])
    out = theta(a, x)
    assert all(e.is_finite for e in out.entries)


def test_theta_shape_errors():
    a = identity(2)
    with pytest.raises(ShapeError):
        theta(a, vector([0, 0, 0]))
    with pytest.raises(ShapeError):
        theta(a, TropVector([ZERO, ZERO], COL))


GRID = (NEG_INF, ZERO, finite(1), POS_INF)


def assert_strict_mode(dual, a, v, member, image, message):
    """dual(a, v) in strict mode: the image for a member, else the
    DomainError with the given message."""
    if member:
        assert dual(a, v) == image
    else:
        refusal = f"^{re.escape(message)} \\(use lenient mode to force\\)$"
        with pytest.raises(DomainError, match=refusal):
            dual(a, v)


def assert_duality_maps_match_their_definition(a, x, y):
    # lenient mode is the product formula everywhere, which the harness
    # oracle computes in boxed scalars; strict mode refuses exactly what
    # the span membership check refuses
    want_x = mat_mul(a, vec_neg(x).transpose().as_matrix()).col(0)
    want_y = mat_mul(vec_neg(y).transpose().as_matrix(), a).row(0)
    assert want_x == theta_oracle(a, x, ROW) and want_y == theta_oracle(a, y, COL)
    assert theta(a, x, strict=False) == want_x
    assert theta_prime(a, y, strict=False) == want_y
    assert_strict_mode(theta, a, x, row_span(a).member(x), want_x,
                       "theta: vector is not in the row space")
    assert_strict_mode(theta_prime, a, y, col_span(a).member(y), want_y,
                       "theta_prime: vector is not in the column space")


def test_duality_maps_match_their_definition_on_the_2x2_grid():
    # every 2x2 A and every vector over {-inf, 0, 1, +inf}: 4,096 pairs
    # for each map, the exceptional product (-inf) * (+inf) included
    for entries in itertools.product(GRID, repeat=4):
        a = TropMatrix([entries[:2], entries[2:]])
        for pair in itertools.product(GRID, repeat=2):
            assert_duality_maps_match_their_definition(a, TropVector(pair, ROW),
                                                       TropVector(pair, COL))


def test_duality_maps_match_their_definition_across_denominators():
    # A over thirds, the vectors over fifths and sevenths, at dims 1-8;
    # half the vectors are span members, so both strict outcomes occur
    rng = random.Random(20261020)

    def entry(den):
        roll = rng.random()
        if roll < 0.15:
            return NEG_INF
        return POS_INF if roll < 0.2 else ratio(rng.randint(-20, 20), den)

    def vec(gens, dim, den, orientation):
        if rng.random() < 0.5:
            return TropVector([entry(den) for _ in range(dim)], orientation)
        return member_of(gens, [entry(den) for _ in gens])

    members = 0
    for _ in range(300):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        a = TropMatrix([[entry(3) for _ in range(cols)] for _ in range(rows)])
        x = vec(a.row_vectors(), cols, 5, ROW)
        y = vec(a.col_vectors(), rows, 7, COL)
        assert_duality_maps_match_their_definition(a, x, y)
        members += row_span(a).member(x)
    assert 100 < members < 250


def test_kernel_witness_refuses_exactly_the_row_space_members():
    def check(b, z):
        if row_span(b).member(z):
            with pytest.raises(PreconditionError, match="^kernel_witness: z lies in the row"):
                kernel_witness(b, z)
        else:
            x, y = kernel_witness(b, z)
            assert x == vec_neg(z).transpose()
            assert mat_mul(b, x.as_matrix()) == mat_mul(b, y.as_matrix())

    for entries in itertools.product(GRID, repeat=4):
        b = TropMatrix([entries[:2], entries[2:]])
        for pair in itertools.product(GRID, repeat=2):
            check(b, TropVector(pair, ROW))
    rng = random.Random(20261021)
    s = Sampler(rng, EntryPool.for_domain(Domain.TBAR))
    for _ in range(200):
        b = s.matrix(rng.randint(1, 8), rng.randint(1, 8))
        check(b, s.span_member(b.row_vectors()) if rng.random() < 0.5 else s.vector(b.cols))


def test_duality_maps_take_one_residuation_pass(monkeypatch):
    # theta and theta_prime align A with the vector once and read image
    # and verdict from one _residuate, building no product; kernel_witness
    # makes one pass for theta_B(z) and one for theta'_B(B*x), and its
    # three products are its re-verifications B*y, z*x and z*y
    calls = []

    def counting(name, f):
        def count(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return count

    for name in ("_align", "_residuate", "_combine", "mat_mul"):
        monkeypatch.setattr(linalg, name, counting(name, getattr(linalg, name)))
    monkeypatch.setattr(duality, "mat_mul", linalg.mat_mul)
    a = TropMatrix([[ZERO, ZERO, NEG_INF], [ZERO, finite(1), ratio(1, 2)]])
    for dual, v in ((theta, vector([0, 1, POS_INF])),
                    (theta_prime, vector([ratio(2, 3), 0], COL))):
        for strict in (True, False):
            calls.clear()
            try:
                dual(a, v, strict)
            except DomainError:
                assert strict
            assert sorted(calls) == ["_align", "_residuate"]
    calls.clear()
    kernel_witness(TropMatrix([[ZERO, ZERO]]), vector([0, 1]))
    assert calls.count("_residuate") == 2 and calls.count("mat_mul") == 3


def test_kernel_witness_example():
    b = TropMatrix([[ZERO, ZERO]])
    z = vector([0, 1])
    x, y = kernel_witness(b, z)
    assert x == TropVector([ZERO, finite(-1)], COL)
    assert y == TropVector([ZERO, ZERO], COL)
    assert mat_mul(b, x.as_matrix()) == mat_mul(b, y.as_matrix()) == TropMatrix([[ZERO]])
    assert mat_mul(z.as_matrix(), x.as_matrix()) == TropMatrix([[ZERO]])
    assert mat_mul(z.as_matrix(), y.as_matrix()) == TropMatrix([[finite(1)]])


def test_kernel_witness_rejects_members():
    for z_entries in ([0, 0], [1, -3], [5, 5]):
        with pytest.raises(PreconditionError):
            kernel_witness(identity(2), vector(z_entries))


def test_kernel_witness_with_zero_entries():
    b = TropMatrix([[ZERO, NEG_INF]])
    z = vector([0, 0])
    x, y = kernel_witness(b, z)
    assert mat_mul(b, x.as_matrix()) == mat_mul(b, y.as_matrix())
    assert mat_mul(z.as_matrix(), x.as_matrix()) != mat_mul(z.as_matrix(), y.as_matrix())


def test_apply_iso_identity():
    basis = (vector([0, 0], COL), vector([0, 1], COL))
    f = identity_descriptor(ConvexSpan(basis))
    assert descriptor_valid(f)
    c = member_of(basis, [finite(2), finite(-1)])
    assert apply_iso(f, c) == c


def test_apply_iso_single_ray():
    e1 = vector([1, 4], COL)
    f1 = vector([0, 2], COL)
    f = IsoDescriptor(ConvexSpan((e1,)), ConvexSpan((f1,)), (0,), (finite(3),))
    assert apply_iso(f, scale(finite(5), e1)) == scale(finite(8), f1)


def test_apply_iso_swap_example():
    e = ConvexSpan((TropVector([ZERO, NEG_INF], COL), TropVector([NEG_INF, ZERO], COL)))
    f = IsoDescriptor(e, e, (1, 0), (ZERO, ZERO))
    c = TropVector([finite(2), finite(5)], COL)
    assert apply_iso(f, c) == TropVector([finite(5), finite(2)], COL)


def test_descriptor_is_a_checked_record_of_four_fields():
    e = ConvexSpan((TropVector([ZERO, NEG_INF], COL), TropVector([NEG_INF, ZERO], COL)))
    f, g = (IsoDescriptor(e, e, (1, 0), (finite(1), ZERO)) for _ in range(2))
    assert f == g and hash(f) == hash(g) == hash((e, e, (1, 0), (finite(1), ZERO)))
    assert f != IsoDescriptor(e, e, (1, 0), (ZERO, ZERO))
    assert f._fields == ("source", "target", "sigma", "lambdas") and f.k == 2
    for name in f._fields:
        with pytest.raises(AttributeError):
            setattr(f, name, None)
        with pytest.raises(AttributeError):
            delattr(f, name)
    # _replace, copy and pickle build through the checked constructor
    with pytest.raises(ShapeError, match="^sigma must be a permutation of 0..k-1$"):
        f._replace(sigma=(0, 0))
    for h in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert h == f and h.__class__ is IsoDescriptor and repr(h) == repr(f)


def test_apply_iso_rejects_outsiders():
    basis = ConvexSpan((vector([0, 0], COL),))
    f = identity_descriptor(basis)
    with pytest.raises(DomainError):
        apply_iso(f, vector([0, 1], COL))


def test_matrix_from_iso_identity_and_permutation():
    a = TropMatrix([[ZERO, finite(1)], [NEG_INF, finite(2)]])
    basis = col_span(a).weak_basis()
    ident = identity_descriptor(basis)
    assert matrix_from_iso(a, ident) == a

    # permuting the columns of A permutes the column space generators
    k = len(basis)
    if k == 2:
        swap = IsoDescriptor(basis, basis, (1, 0), (ZERO, ZERO))
        if descriptor_valid(swap):
            d = matrix_from_iso(a, swap)
            assert span_equal(row_span(d), row_span(a))


def test_matrix_from_iso_uniform_scaling():
    a = TropMatrix([[finite(1), finite(-1)], [ZERO, finite(2)]])
    basis = col_span(a).weak_basis()
    f = IsoDescriptor(
        basis, basis, tuple(range(len(basis))), (finite(1),) * len(basis)
    )
    assert descriptor_valid(f)
    d = matrix_from_iso(a, f)
    assert span_equal(row_span(d), row_span(a))
    assert span_equal(col_span(d), col_span(a))


@settings(deadline=None)
@given(with_members())
def test_duality_bijection(data):
    m, coeff_rows = data
    for coeffs in coeff_rows:
        x = member_of(m.row_vectors(), coeffs)
        assert theta_prime(m, theta(m, x)) == x
    for coeffs in coeff_rows:
        y = member_of(m.col_vectors(), coeffs[: m.cols] or [ZERO])
        if len(coeffs) >= m.cols:
            y = member_of(m.col_vectors(), coeffs[: m.cols])
            assert theta(m, theta_prime(m, y)) == y


@settings(deadline=None)
@given(with_members())
def test_duality_reverses_brackets_and_scaling(data):
    m, (c1, c2) = data
    x = member_of(m.row_vectors(), c1)
    y = member_of(m.row_vectors(), c2)
    assert bracket(x, y) == bracket(theta(m, y), theta(m, x))
    lam = finite(3)
    assert theta(m, scale(lam, x)) == scale(neg(lam), theta(m, x))


@settings(deadline=None)
@given(with_members())
def test_duality_antitone_and_isometric(data):
    m, (c1, c2) = data
    x = member_of(m.row_vectors(), c1)
    y = member_of(m.row_vectors(), c2)
    if vec_leq(x, y):
        assert vec_leq(theta(m, y), theta(m, x))
    assert hilbert(theta(m, x), theta(m, y)) == hilbert(x, y)


@settings(deadline=None)
@given(with_members())
def test_change_of_coordinates(data):
    m, (c1, c2) = data
    rows = m.row_vectors()
    span = ConvexSpan(rows)
    a = member_of(rows, c1)
    b = member_of(rows, c2)

    def coeff_vector(v):
        return TropVector(span.membership(v)[1], ROW)

    assert bracket(a, b) == bracket(coeff_vector(a), coeff_vector(b))


@settings(deadline=None)
@given(with_members())
def test_composed_anti_isomorphisms_are_linear(data):
    # duplicate a row: R(A) = R(B), so theta_B after theta_prime_A is a
    # linear isomorphism from C(A) to C(B)
    m, (c1, c2) = data
    b = TropMatrix(list(m.entries) + [m.entries[0]])
    assert span_equal(row_span(m), row_span(b))

    def composite(y):
        return theta(b, theta_prime(m, y))

    u = member_of(m.col_vectors(), c1[: m.cols] if len(c1) >= m.cols else [ZERO] * m.cols)
    v = member_of(m.col_vectors(), c2[: m.cols] if len(c2) >= m.cols else [ZERO] * m.cols)
    assert composite(vec_oplus(u, v)) == vec_oplus(composite(u), composite(v))
    lam = finite(-2)
    assert composite(scale(lam, u)) == scale(lam, composite(u))


@settings(deadline=None, max_examples=40)
@given(random_matrices(), st.data())
def test_kernel_witness_random(m, data):
    rspan = row_span(m)
    z = None
    for _ in range(25):
        cand = TropVector(
            [data.draw(scalars) for _ in range(m.cols)], ROW
        )
        if not rspan.member(cand):
            z = cand
            break
    if z is None:
        return
    x, y = kernel_witness(m, z)
    assert mat_mul(m, x.as_matrix()) == mat_mul(m, y.as_matrix())
    assert mat_mul(z.as_matrix(), x.as_matrix()) != mat_mul(z.as_matrix(), y.as_matrix())


# The bridge as the per-column loop it once was: each column of A pushed
# through the descriptor by its principal coefficients, then both span
# checks.  matrix_from_iso builds it as one product G*X instead.


def reference_apply_iso(f, c):
    ok, coeffs = f.source.membership(c)
    if not ok:
        raise DomainError("apply_iso: vector is not in the source span")
    targets = f.target.generators
    acc = zero_vector(f.target.dim, f.target.orientation)
    for i in range(f.k):
        acc = vec_oplus(acc, scale(otimes(coeffs[i], f.lambdas[i]), targets[f.sigma[i]]))
    return acc


def reference_matrix_from_iso(a, f):
    cols = [reference_apply_iso(f, a.col(j)) for j in range(a.cols)]
    d = TropMatrix([[col.entries[i] for col in cols] for i in range(cols[0].dim)])
    if not span_equal(row_span(d), row_span(a)):
        raise VerificationError("matrix_from_iso: row spaces differ")
    targets = f.target.generators
    images = [scale(f.lambdas[i], targets[f.sigma[i]]) for i in range(f.k)]
    image_span = ConvexSpan(images, dim=f.target.dim, orientation=f.target.orientation)
    if not span_equal(col_span(d), image_span):
        raise VerificationError("matrix_from_iso: column space differs from basis image span")
    return d


def outcome(fn, *args):
    try:
        return fn(*args)
    except (DomainError, ShapeError, VerificationError) as exc:
        return exc


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    elif isinstance(want, TropMatrix):
        assert isinstance(got, TropMatrix)
        assert got == want
        assert format_matrix(got) == format_matrix(want)
    else:
        assert isinstance(got, TropVector)
        assert got == want  # orientation too
        assert format_matrix(got.as_matrix()) == format_matrix(want.as_matrix())


def check_against_reference(a, f):
    assert_same_outcome(outcome(matrix_from_iso, a, f), outcome(reference_matrix_from_iso, a, f))
    for j in range(a.cols):
        c = a.col(j)
        assert_same_outcome(outcome(apply_iso, f, c), outcome(reference_apply_iso, f, c))


def _disconnected(rng, n):
    """-inf on the diagonal and finite ints elsewhere: every bracket
    between two columns is -inf, so each weak-basis element is its own
    component of the bracket graph."""
    return TropMatrix([[NEG_INF if r == c else finite(rng.randint(-9, 9)) for c in range(n)]
                       for r in range(n)])


def test_bridge_matches_column_loop_on_rel_d_isos():
    # random T matrices, -inf-diagonal ones and zero matrices (k = 0),
    # each against a perm/scale variant and its transpose
    rng = random.Random(20261018)
    cases = []
    for trial in range(60):
        n = 2 + trial % 4
        s = Sampler(rng, EntryPool(p_neg_inf=rng.choice([0.0, 0.2, 0.4])))
        cases.append(("random", s, s.matrix(n, n)))
    s = Sampler(rng, EntryPool(p_neg_inf=0.0))
    cases += [("disconnected", s, _disconnected(rng, 2 + trial % 3)) for trial in range(24)]
    cases += [("zero", s, zero_matrix(n, n)) for n in (1, 2, 3)]
    yes = dict.fromkeys(["random", "disconnected", "zero"], 0)
    for kind, s, a in cases:
        n = a.rows
        perm = list(range(n))
        rng.shuffle(perm)
        cols = [scale(s.finite_scalar(), a.col(perm[j])) for j in range(n)]
        b = TropMatrix([[c.entries[i] for c in cols] for i in range(n)])
        for other in (b, transpose(a)):
            verdict = rel_D(a, other)
            if verdict.holds:
                yes[kind] += 1
                assert kind != "zero" or verdict.iso.k == 0
                assert_same_outcome(verdict.bridge, reference_matrix_from_iso(a, verdict.iso))
                check_against_reference(a, verdict.iso)
    assert yes == {"random": 79, "disconnected": 40, "zero": 6}


def tbar_descriptors():
    """Descriptors over TBAR, valid or not, whose source holds +inf next
    to -inf and whose target is the source itself or random, with a
    matrix whose columns are the source, members of its span and at
    times an outsider."""

    def build(shape):
        dim, k = shape
        rows = st.lists(scalars, min_size=dim, max_size=dim)
        vecs = rows.map(lambda e: TropVector(e, COL))
        return st.tuples(
            st.lists(rows, min_size=k, max_size=k),
            st.integers(0, k - 1),
            st.permutations(range(dim)),
            st.one_of(st.none(), st.lists(vecs, min_size=k, max_size=k)),
            st.permutations(range(k)),
            st.lists(finite_scalars, min_size=k, max_size=k),
            st.lists(st.lists(scalars, min_size=k, max_size=k), min_size=1, max_size=3),
            st.one_of(st.none(), vecs),
        )

    return st.tuples(st.integers(2, 4), st.integers(1, 3)).flatmap(build)


@settings(deadline=None, max_examples=150)
@given(tbar_descriptors())
def test_bridge_matches_column_loop_over_tbar(data):
    rows, mixed, (hi, lo, *_), target, sigma, lambdas, coeff_cols, outsider = data
    rows[mixed][hi], rows[mixed][lo] = POS_INF, NEG_INF
    source = [TropVector(r, COL) for r in rows]
    f = IsoDescriptor(
        ConvexSpan(source), ConvexSpan(target or source), tuple(sigma), tuple(lambdas)
    )
    cols = source + [member_of(source, coeffs) for coeffs in coeff_cols]
    if outsider is not None:
        cols.append(outsider)
    a = TropMatrix([[c.entries[i] for c in cols] for i in range(cols[0].dim)])
    check_against_reference(a, f)


def test_matrix_from_iso_rejects_an_invalid_swap():
    a = TropMatrix([[NEG_INF, ZERO], [ZERO, finite(1)]])
    basis = col_span(a).weak_basis()
    swap = IsoDescriptor(basis, basis, (1, 0), (ZERO, ZERO))
    assert not descriptor_valid(swap)
    with pytest.raises(VerificationError, match="^matrix_from_iso: row spaces differ$"):
        matrix_from_iso(a, swap)


def test_matrix_from_iso_rejects_columns_outside_the_source_span():
    a = TropMatrix([[ZERO, ZERO], [ZERO, finite(1)]])
    f = identity_descriptor(ConvexSpan((TropVector([ZERO, ZERO], COL),)))
    with pytest.raises(DomainError, match="^apply_iso: vector is not in the source span$"):
        matrix_from_iso(a, f)


def test_matrix_from_iso_rejects_a_row_oriented_source():
    # a row source cannot even be described; a wrong dim is caught on use
    a = TropMatrix([[ZERO, ZERO], [ZERO, finite(1)]])
    with pytest.raises(ShapeError, match="^descriptor bases must be column spans$"):
        identity_descriptor(row_span(a).weak_basis())
    column = TropMatrix([[ZERO], [ZERO], [ZERO]])
    f = identity_descriptor(ConvexSpan((vector([0, 0], COL),)))
    with pytest.raises(ShapeError, match="^dimension mismatch: 3 vs span dim 2$"):
        matrix_from_iso(column, f)


def test_matrix_from_iso_empty_descriptor():
    f = IsoDescriptor(ConvexSpan((), 3, COL), ConvexSpan((), 2, COL), (), ())
    assert descriptor_valid(f)
    d = matrix_from_iso(zero_matrix(3, 2), f)
    assert d == zero_matrix(2, 2)
    assert format_matrix(d) == format_matrix(zero_matrix(2, 2))
    with pytest.raises(DomainError, match="^apply_iso: vector is not in the source span$"):
        matrix_from_iso(TropMatrix([[NEG_INF, NEG_INF], [NEG_INF, ZERO], [NEG_INF, NEG_INF]]), f)
    assert apply_iso(f, zero_vector(3, COL)) == zero_vector(2, COL)


def _two_generators():
    return ConvexSpan([vector([0, 1], COL), vector([1, 0], COL)])


def _one_generator(orientation):
    return ConvexSpan([vector([0, 1], orientation)])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: theta_prime(identity(2), vector([0, 0])),
            ShapeError,
            "theta_prime expects a column vector of dim 2",
        ),
        (
            lambda: theta_prime(TropMatrix([[0], [0]]), vector([0, 1], COL)),
            DomainError,
            "theta_prime: vector is not in the column space (use lenient mode to force)",
        ),
        (
            lambda: kernel_witness(identity(2), vector([0, 1], COL)),
            ShapeError,
            "kernel_witness expects a row vector of dim 2",
        ),
        (
            lambda: IsoDescriptor(
                _two_generators(), ConvexSpan([vector([0, 1], COL)]), (0,), (ZERO,)
            ),
            ShapeError,
            "descriptor parts must have equal length",
        ),
        (
            lambda: IsoDescriptor(_two_generators(), _two_generators(), (0, 0), (ZERO, ZERO)),
            ShapeError,
            "sigma must be a permutation of 0..k-1",
        ),
        pytest.param(  # floats that sort equal to 0..k-1 index no tuple and format as 1.0 2.0
            lambda: IsoDescriptor(_two_generators(), _two_generators(), (0.0, 1.0), (ZERO, ZERO)),
            ShapeError,
            "sigma must be a permutation of 0..k-1",
            id="float sigma",
        ),
        (
            lambda: IsoDescriptor(_two_generators(), _two_generators(), (1, 0), (ZERO, NEG_INF)),
            DomainError,
            "descriptor scalings must be finite rationals",
        ),
        (
            lambda: IsoDescriptor(_two_generators(), _two_generators(), (1, 0), (ZERO, 0)),
            DomainError,
            "descriptor scalings must be finite rationals",
        ),
    ]
    + [
        (
            lambda s=source, t=target: IsoDescriptor(s, t, (0,) * len(s), (ZERO,) * len(s)),
            ShapeError,
            "descriptor bases must be column spans",
        )
        for source, target in (
            (_one_generator(ROW), _one_generator(ROW)),
            (_one_generator(ROW), _one_generator(COL)),
            (_one_generator(COL), _one_generator(ROW)),
            (ConvexSpan((), 2, COL), ConvexSpan((), 2, ROW)),
        )
    ],
)
def test_duality_and_descriptor_errors(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
