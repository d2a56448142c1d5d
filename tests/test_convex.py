"""Spans, membership, weak bases, and the extension calculus."""

import random
import re
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from trop import linalg
from trop.convex import (
    ConvexSpan,
    col_span,
    extended_pair,
    principal_solution,
    row_span,
    span_equal,
    welldef_criterion,
)
from trop.duality import identity_descriptor
from trop.errors import DomainError, ShapeError
from trop.formats import format_descriptor, parse_descriptor
from trop.greens import leq_R, rel_D
from trop.linalg import (
    COL,
    ROW,
    TropMatrix,
    TropVector,
    identity,
    mat_mul,
    scale,
    transpose,
    vec_leq,
    vec_oplus,
    vector,
    zero_vector,
)
from trop.semiring import NEG_INF, POS_INF, ZERO, finite, leq, neg, oplus, otimes

t_scalars = st.one_of(
    st.just(NEG_INF),
    st.fractions(min_value=-9, max_value=9, max_denominator=3).map(finite),
)


def t_vectors(dim, orientation=ROW):
    return st.lists(t_scalars, min_size=dim, max_size=dim).map(
        lambda es: TropVector(es, orientation)
    )


# Entries far beyond the float range, on huge and small coprime
# denominators, next to both infinities (see test_linalg).
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


def ref_coeffs(gens, a):
    """Principal coefficients -(max_i g_i * (-a_i)) from the scalar operations alone."""
    return [neg(reduce(oplus, (otimes(p, neg(q)) for p, q in zip(g, a)), NEG_INF)) for g in gens]


def ref_combine(coeffs, gens, dim):
    return tuple(
        reduce(oplus, (otimes(c, g[i]) for c, g in zip(coeffs, gens)), NEG_INF) for i in range(dim)
    )


def ref_member(gens, a):
    return ref_combine(ref_coeffs(gens, a), gens, a.dim) == a.entries


def _huge_cases(seed, count, dim, k):
    """(generators, vector) pairs; every other vector is a combination of
    the generators with huge coefficients, so both verdicts occur."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        gens = [TropVector([rng.choice(HUGE) for _ in range(dim)], COL) for _ in range(k)]
        if i % 2:
            a = TropVector([rng.choice(HUGE) for _ in range(dim)], COL)
        else:
            a = TropVector(ref_combine([rng.choice(HUGE) for _ in gens], gens, dim), COL)
        cases.append((gens, a))
    return cases


def _huge_green_pairs(seed, count, n):
    """(A, B) pairs; every other A is B times a matrix of huge entries."""
    rng = random.Random(seed)
    pairs = []
    for i in range(count):
        b = TropMatrix([[rng.choice(HUGE) for _ in range(n)] for _ in range(n)])
        cols = [
            ref_combine([rng.choice(HUGE) for _ in range(n)], b.col_vectors(), n)
            if i % 2 == 0
            else [rng.choice(HUGE) for _ in range(n)]
            for _ in range(n)
        ]
        pairs.append((TropMatrix(list(zip(*cols))), b))
    return pairs


HUGE_SPANS = _huge_cases(401, 24, 3, 3)
HUGE_GREEN_PAIRS = _huge_green_pairs(402, 12, 3)

H = finite(Fraction(BIG, BIG + 1))
F = finite(Fraction(-BIG - 3, 7))


def _cols(*vectors):
    return [TropVector(v, COL) for v in vectors]


# BIG * g_1 and TIE_COEFFS[1] * g_2 agree on the first coordinate
TIE_GENS = _cols((H, ZERO), (F, finite(BIG)))
TIE_COEFFS = [finite(BIG), otimes(otimes(H, finite(BIG)), neg(F))]

# (generators, target, verdict): membership is decided by which target
# coordinates the principal coefficients cover
COVERING_CASES = {
    # the all -inf generator gets +inf, and +inf * -inf covers nothing
    "all -inf generator": (
        _cols((NEG_INF, NEG_INF), (finite(BIG), H)),
        TropVector(ref_combine([F], _cols((finite(BIG), H)), 2), COL),
        True,
    ),
    "all -inf generator alone": (
        _cols((NEG_INF, NEG_INF)), TropVector((finite(BIG), NEG_INF), COL), False
    ),
    # <g|a> = +inf, so +inf * g covers the +inf coordinate where g is finite
    "+inf coordinate, +inf coefficient": (
        _cols((finite(BIG), NEG_INF), (NEG_INF, ZERO)), TropVector((POS_INF, F), COL), True
    ),
    # <g|a> is finite, and only the +inf entry of g reaches +inf
    "+inf coordinate, +inf generator entry": (
        _cols((POS_INF, H), (NEG_INF, finite(-BIG))),
        TropVector(ref_combine([F], _cols((POS_INF, H)), 2), COL),
        True,
    ),
    "+inf coordinate, finite coefficient and entry": (
        _cols((finite(BIG), H)), TropVector((POS_INF, H), COL), False
    ),
    # both generators reach the first coordinate, and g_2 reaches both
    "tie": (TIE_GENS, TropVector(ref_combine(TIE_COEFFS, TIE_GENS, 2), COL), True),
    "tie missing a coordinate": (
        TIE_GENS, TropVector((finite(BIG), finite(-BIG)), COL), False
    ),
    "all -inf target": (
        _cols((POS_INF, F), (NEG_INF, NEG_INF), (finite(BIG), NEG_INF)),
        TropVector((NEG_INF, NEG_INF), COL),
        True,
    ),
    "all -inf target, no generator": ([], TropVector((NEG_INF, NEG_INF), COL), True),
}


@pytest.mark.parametrize("case", COVERING_CASES, ids=str)
def test_covering_decides_membership_as_the_scalar_reference(case):
    gens, a, verdict = COVERING_CASES[case]
    assert ref_member(gens, a) is verdict
    for s in (ConvexSpan(gens, 2, COL), ConvexSpan([g.transpose() for g in gens], 2, ROW)):
        fit = a if s.orientation == COL else a.transpose()
        assert s.membership(fit) == (verdict, tuple(ref_coeffs(gens, a)))


def test_covering_cases_reach_each_rule():
    # the cases above exercise what their names say
    gens, a, _ = COVERING_CASES["all -inf generator"]
    assert ref_coeffs(gens, a)[0] == POS_INF
    gens, a, _ = COVERING_CASES["+inf coordinate, +inf coefficient"]
    assert ref_coeffs(gens, a) == [POS_INF, F]
    gens, a, _ = COVERING_CASES["+inf coordinate, +inf generator entry"]
    assert a[0] == POS_INF and ref_coeffs(gens, a)[0] == F
    gens, a, _ = COVERING_CASES["tie"]
    coeffs = ref_coeffs(gens, a)
    assert [otimes(c, g[0]) for c, g in zip(coeffs, gens)] == [a[0], a[0]]


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_residuate_rows_are_the_brackets_of_each_pair(data):
    # the coefficient rows of _residuate become X in leq_R and in the D
    # bridge: each entry is the bracket of its own generator and target,
    # and the rows stop at the first target the scalar reference refutes
    dim = data.draw(st.integers(1, 3))
    entries = st.one_of(st.sampled_from(HUGE), st.integers(-3, 3).map(finite))
    vectors = st.lists(st.lists(entries, min_size=dim, max_size=dim), max_size=3)
    gens, targets = data.draw(vectors), data.draw(vectors)
    _, rows = linalg.pack(gens + targets)
    grows, trows = rows[: len(gens)], rows[len(gens) :]
    coeffs, bad = linalg._residuate(grows, trows)
    assert _boxed(coeffs) == [
        tuple(ref_coeffs(_boxed(grows), a)) for a in _boxed(trows[: len(coeffs)])
    ]
    refuted = [
        t for t, a in enumerate(targets)
        if not ref_member(_cols(*gens), TropVector(a, COL))
    ]
    assert bad == (refuted[0] if refuted else None)
    assert len(coeffs) == (len(trows) if bad is None else bad + 1)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_verdict_only_covering_finds_the_first_target_missed(data):
    # with rows=False the kernel leaves each target once it is covered
    # and keeps no coefficient: its verdict is the full pass's, over
    # huge entries, both infinities and empty sides
    dim = data.draw(st.integers(1, 4))
    entries = st.one_of(st.sampled_from(HUGE), st.integers(-3, 3).map(finite))
    vectors = st.lists(st.lists(entries, min_size=dim, max_size=dim), max_size=4)
    gens, targets = data.draw(vectors), data.draw(vectors)
    _, rows = linalg.pack(gens + targets)
    grows, trows = rows[: len(gens)], rows[len(gens) :]
    assert linalg._residuate(grows, trows, False) == linalg._residuate(grows, trows)[1]


class _Unread(tuple):
    """A generator row that fails if the kernel reads it."""

    def __iter__(self):
        raise AssertionError("generator tried after its target was covered")


def test_verdict_only_covering_leaves_a_covered_target():
    # g_1 covers both targets (each a scaling of it), so the verdict
    # never reads g_2; the full pass needs its coefficient and reads it
    grows, trows = [(0, 1), _Unread((5, 5))], [(0, 1), (2, 3)]
    assert linalg._residuate(grows, trows, False) is None
    with pytest.raises(AssertionError, match="after its target was covered"):
        linalg._residuate(grows, trows)


def test_verdict_only_callers_build_no_coefficient_rows(monkeypatch):
    # member and span_equal (same_span) read only the kernel's verdict,
    # so the kernel hands them no coefficient rows, and member builds no
    # matrix.  weak_basis (weak_basis_matrix) is one all-pairs pass that
    # keeps its rows, as are the weak bases of rel_D's frame and row side
    results, built = [], []
    residuate, of = linalg._residuate, TropMatrix._of

    def recording_residuate(grows, trows, *args):
        results.append(got := residuate(grows, trows, *args))
        return got

    def counting_of(packed):
        built.append(packed)
        return of(packed)

    m = TropMatrix([[0, NEG_INF, 2], [Fraction(1, 7), POS_INF, 0]])
    redundant = ConvexSpan(m.col_vectors() + [scale(finite(1), m.col(0))])
    monkeypatch.setattr(linalg, "_residuate", recording_residuate)
    monkeypatch.setattr(TropMatrix, "_of", staticmethod(counting_of))
    for span, a, verdict in (
        (col_span(m), m.col(2), True),
        (col_span(m), TropVector([0, 5], COL), False),
        (row_span(m), m.row(1), True),
        (row_span(m), vector([0, 0, POS_INF]), False),
    ):
        assert span.member(a) is verdict
    assert not built
    assert span_equal(col_span(m), redundant) and not span_equal(row_span(m), row_span(identity(3)))
    assert results and all(r is None or r.__class__ is int for r in results)

    results.clear()
    assert len(redundant.weak_basis()) == 3 and len(row_span(m).weak_basis()) == 2
    assert [(len(r[0]), r[1]) for r in results] == [(4, None), (2, None)]

    results.clear()
    a = TropMatrix([[0, 1], [2, 0]])
    assert rel_D(a, transpose(a)).holds
    # the four weak bases keep rows; the certificate's three span checks
    # find the same projective points on both sides and run no pass
    assert [(len(r[0]), r[1]) for r in results] == [(2, None)] * 4


_NEG, _POS = linalg._NEG, linalg._POS  # packed rows hold these very floats


def _tbar_rows(rng, dim, count):
    """count packed TBAR vectors over one denominator: both infinities,
    mixed denominators, at times an all -inf vector and a duplicate."""
    def entry():
        r = rng.random()
        return NEG_INF if r < 0.2 else POS_INF if r < 0.3 else finite(
            Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))))

    vecs = [[entry() for _ in range(dim)] for _ in range(count)]
    if rng.random() < 0.3:
        vecs.append([NEG_INF] * dim)
    if vecs and rng.random() < 0.3:
        vecs.append(rng.choice(vecs))
    return linalg.pack(vecs)[1]


def _shifted(row, c):
    return tuple([x if x.__class__ is float else x + c for x in row])


def _two_passes(rows1, rows2):
    residuate = linalg._residuate
    return residuate(rows2, rows1, False) is None and residuate(rows1, rows2, False) is None


def _counting_residuate(monkeypatch):
    calls, residuate = [], linalg._residuate

    def counting(*args):
        calls.append(True)
        return residuate(*args)

    monkeypatch.setattr(linalg, "_residuate", counting)
    return calls


def test_same_answers_as_its_two_passes(monkeypatch):
    # _same answers yes with no pass when both families hold the same
    # projective points, and else by the two passes: over seeded TBAR
    # families against rescaled permutations of themselves (with +inf
    # entries, which only match themselves), with a redundant max of two
    # vectors added, with a vector dropped, and against fresh families
    rng = random.Random(20261022)
    calls = _counting_residuate(monkeypatch)
    seen = set()
    for _ in range(600):
        dim = rng.randint(1, 5)
        rows1 = _tbar_rows(rng, dim, rng.randint(0, 4))
        rows2 = [_shifted(row, rng.randint(-5, 5)) for row in rows1]
        rng.shuffle(rows2)
        how = rng.choice(("rescaled", "redundant", "dropped", "fresh"))
        if how == "redundant" and rows1:
            u, v = rng.choice(rows1), rng.choice(rows1)
            rows2.append(tuple(map(max, u, _shifted(v, rng.randint(-2, 2)))))
        elif how == "dropped" and rows2:
            rows2.pop()
        elif how == "fresh":
            rows2 = _tbar_rows(rng, dim, rng.randint(0, 4))
        expected = _two_passes(rows1, rows2)
        calls.clear()
        assert linalg._same(rows1, rows2) is expected
        assert linalg._same(rows2, rows1) is expected
        seen.add((expected, bool(calls)))
    # shortcut yes, two-pass yes and two-pass no all occur
    assert seen == {(True, False), (True, True), (False, True)}


SAME_CASES = {
    # each vector a finite multiple of one of the other family: no pass
    "rescaled permutation": (
        [(0, 1, _NEG), (_NEG, _NEG, _NEG), (2, _POS, 0)],
        [(2, _POS, 0), (-3, -2, _NEG), (_NEG, _NEG, _NEG)],
        0,
    ),
    # the max of (0, 1, -inf) and 1 * (-inf, 0, 2) is in both spans
    "redundant max-combination": (
        [(0, 1, _NEG), (_NEG, 0, 2)],
        [(0, 1, _NEG), (_NEG, 0, 2), (0, 1, 3)],
        2,
    ),
    # a +inf-bearing vector is left as it is by _normalized
    "+inf-bearing rescaling": ([(1, _POS)], [(2, _POS)], 2),
}


@pytest.mark.parametrize("case", SAME_CASES)
def test_same_shortcut_cases(monkeypatch, case):
    rows1, rows2, passes = SAME_CASES[case]
    assert _two_passes(rows1, rows2)
    calls = _counting_residuate(monkeypatch)
    assert linalg._same(rows1, rows2)
    assert len(calls) == passes


def test_bracket_runs_one_pass_and_hilbert_none_on_scalings(monkeypatch):
    # the bracket is the kernel's one coefficient, and the Hilbert metric
    # takes its two brackets from the kernel unless the vectors are finite
    # scalings of each other
    calls = _counting_residuate(monkeypatch)
    x, y = vector([0, 2, NEG_INF]), vector([1, 0, 5], COL)
    assert linalg.bracket(x, y) == finite(-2) and len(calls) == 1
    calls.clear()
    assert linalg.hilbert(x, scale(finite(Fraction(1, 3)), x)) == ZERO and not calls
    assert linalg.hilbert(vector([0, 2]), vector([1, 0])) == finite(3) and len(calls) == 2


def _boxed(rows):
    """Packed rows boxed over den 1: scaling every value by den keeps
    every verdict and scales every bracket by den, so the scalar
    reference reads packed ints exactly."""
    return [tuple([linalg._box(n, 1) for n in row]) for row in rows]


def _reference_kept(rows):
    """The greedy weak basis of packed rows from boxed verdicts alone:
    each row, in ascending order, dropped iff the rows still standing
    besides it recombine to it, by the scalar reference."""
    vecs = [TropVector(row, COL) for row in _boxed(rows)]
    kept = list(range(len(rows)))
    for t in range(len(rows)):
        if ref_member([vecs[j].entries for j in kept if j != t], vecs[t]):
            kept.remove(t)
    return kept


def test_greedy_keeps_the_verdict_only_greedy_and_tables_every_pair():
    # the greedy read off one all-pairs pass keeps what the verdict-only
    # greedy keeps, and its coefficient table is every pair's bracket
    rng = random.Random(20261023)
    sizes = set()
    for _ in range(300):
        rows = _tbar_rows(rng, rng.randint(1, 6), rng.randint(0, 6))
        kept, coeffs, covers = linalg._greedy(rows)
        assert kept == _reference_kept(rows)
        assert _boxed(coeffs) == [tuple(ref_coeffs(_boxed(rows), a)) for a in _boxed(rows)]
        assert len(covers) == len(rows) and all(len(masks) == len(rows) for masks in covers)
        sizes.add((len(rows), len(kept)))
    assert any(k < n for n, k in sizes) and any(0 < k == n for n, k in sizes)


def test_span_equal_aligns_once_and_builds_no_coefficient_matrix(monkeypatch):
    calls = []
    align = linalg._align
    of = TropMatrix._of

    def counting_align(p, q):
        calls.append("_align")
        return align(p, q)

    def counting_of(packed):
        calls.append("_of")
        return of(packed)

    m = TropMatrix([[0, NEG_INF, 2], [Fraction(1, 7), POS_INF, 0]])
    redundant = ConvexSpan(m.col_vectors() + [scale(finite(1), m.col(0))])
    pairs = [
        (col_span(m), redundant, True),
        (row_span(m), row_span(TropMatrix(m.entries[::-1])), True),
        (col_span(m), ConvexSpan([], 2, COL), False),
        (row_span(m), row_span(TropMatrix([[0, 0, 0], [1, 1, 1]])), False),
    ]
    monkeypatch.setattr(linalg, "_align", counting_align)
    monkeypatch.setattr(TropMatrix, "_of", staticmethod(counting_of))
    for s1, s2, equal in pairs:
        calls.clear()
        assert span_equal(s1, s2) is equal
        assert calls == ["_align"]


def span_00_01():
    return ConvexSpan([vector([0, 0]), vector([0, 1])])


def test_principal_coeffs_examples():
    s = span_00_01()
    coeffs = s.membership(vector([1, 2]))[1]
    assert coeffs == (finite(1), finite(1))
    assert s.combine(coeffs) == vector([1, 2])

    single = ConvexSpan([vector([0, 0])])
    assert single.membership(vector([3, 3]))[1] == (finite(3),)
    assert single.membership(zero_vector(2))[1] == (NEG_INF,)


def test_member_examples():
    s = span_00_01()
    ok, coeffs = s.membership(vector([1, 2]))
    assert ok and coeffs == (finite(1), finite(1))
    assert not s.member(vector([0, -5]))
    assert s.combine(s.membership(vector([0, -5]))[1]) == vector([-5, -5])
    for g in s.generators:
        assert s.member(g)


def test_member_shape_error():
    with pytest.raises(ShapeError):
        span_00_01().member(vector([0, 0, 0]))


def test_principal_solution_examples():
    c = TropVector([finite(4), finite(7)], COL)
    x = principal_solution(identity(2), c)
    assert x == c
    assert mat_mul(identity(2), x.as_matrix()).as_vector() == c

    b = TropMatrix([[ZERO], [ZERO]])
    c = TropVector([ZERO, finite(1)], COL)
    x = principal_solution(b, c)
    assert x == TropVector([ZERO], COL)
    assert mat_mul(b, x.as_matrix()).as_vector() == TropVector([ZERO, ZERO], COL)  # != c

    b = TropMatrix([[ZERO, ZERO], [ZERO, finite(1)]])
    c = TropVector([finite(1), finite(2)], COL)
    x = principal_solution(b, c)
    assert x == TropVector([finite(1), finite(1)], COL)
    assert mat_mul(b, x.as_matrix()).as_vector() == c


def test_weak_basis_examples():
    s = ConvexSpan([vector([0, 0]), vector([0, 1]), vector([1, 2])])
    basis = s.weak_basis()
    # (0,1) and (1,2) are scalings of one another; the ascending scan
    # drops (0,1) first because its later copy still generates it
    assert basis.generators == (vector([0, 0]), vector([1, 2]))
    assert span_equal(s, basis)
    assert s.member(vector([1, 2]))  # 1*(0,0) + 1*(0,1) reproduces it
    for i, g in enumerate(basis.generators):
        others = ConvexSpan(
            basis.generators[:i] + basis.generators[i + 1 :], dim=2, orientation=ROW
        )
        assert not others.member(g)

    assert ConvexSpan([zero_vector(2)]).weak_basis().generators == ()

    s = ConvexSpan([TropVector([ZERO, NEG_INF]), TropVector([NEG_INF, ZERO])])
    assert len(s.weak_basis().generators) == 2


def test_weak_basis_idempotent_and_cached():
    s = ConvexSpan([vector([0, 0]), vector([1, 1]), vector([0, 1])])
    b1 = s.weak_basis()
    # recomputed on each call, so equal rather than the same object
    assert s.weak_basis().generators == b1.generators
    assert b1.weak_basis().generators == b1.generators
    assert span_equal(b1.weak_basis(), b1)


def test_span_equal_examples():
    s1 = span_00_01()
    s2 = ConvexSpan([vector([0, 1]), vector([0, 0]), vector([1, 2])])
    assert span_equal(s1, s2)
    assert not span_equal(ConvexSpan([vector([0, 0])]), ConvexSpan([vector([0, 1])]))
    assert span_equal(s1, s1)


def test_zero_span():
    empty = ConvexSpan([], dim=2, orientation=ROW)
    assert empty.member(zero_vector(2))
    assert not empty.member(vector([0, 0]))
    assert span_equal(empty, ConvexSpan([zero_vector(2)]))


def test_extended_pair_examples():
    a = TropVector([ZERO, NEG_INF])
    b = vector([0, 0])
    p = extended_pair(a, b)
    assert p == TropVector([POS_INF, ZERO])

    z = zero_vector(2)
    assert extended_pair(z, b) == b

    p2 = extended_pair(TropVector([finite(1), NEG_INF]), vector([5, 0]))
    assert p == p2

    col = extended_pair(TropVector([NEG_INF, finite(2)], COL), TropVector([finite(1), ZERO], COL))
    assert col == TropVector([finite(1), POS_INF], COL)


def test_extended_pair_rejects_pos_inf():
    with pytest.raises(DomainError):
        extended_pair(TropVector([POS_INF, ZERO]), vector([0, 0]))
    with pytest.raises(DomainError):
        extended_pair(vector([0, 0]), TropVector([ZERO, POS_INF]))
    with pytest.raises(ShapeError):
        extended_pair(vector([0, 0]), vector([0, 0]).transpose())


def test_extended_equal_examples():
    a = TropVector([ZERO, NEG_INF])
    b = vector([0, 0])
    p = extended_pair(a, b)
    q = extended_pair(vector([0, 0]), b)
    assert p != q  # supports differ
    assert p == p


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(*(t_vectors(n) for _ in range(4)))))
def test_extended_equality_matches_large_lambda_criterion(vs):
    a, b, a2, b2 = vs
    canonical = extended_pair(a, b) == extended_pair(a2, b2)
    assert canonical == welldef_criterion(a, b, a2, b2)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(t_vectors(n), t_vectors(n))),
       st.fractions(min_value=-6, max_value=6, max_denominator=2))
def test_constructed_equal_pairs(pair, mu):
    a, b = pair
    # replacing b by b + mu*a never changes inf*a + b
    b2 = vec_oplus(b, scale(finite(mu), a))
    p, q = extended_pair(a, b), extended_pair(a, b2)
    assert p == q
    assert hash(p) == hash(q)
    assert welldef_criterion(a, b, a, b2)


def canonical_form(a, b):
    """inf*a + b as the 0/-inf support pattern of a together with b
    masked to -inf on that support, built entry by entry: a reference
    independent of TBAR vector arithmetic."""
    support = tuple(NEG_INF if e.is_neg_inf else ZERO for e in a.entries)
    rest = tuple(bv if av.is_neg_inf else NEG_INF for av, bv in zip(a.entries, b.entries))
    return a.orientation, support, rest


@given(st.data())
def test_extended_equality_matches_canonical_form(data):
    dim = data.draw(st.integers(1, 5))
    orientation = data.draw(st.sampled_from((ROW, COL)))
    a, b, a2, b2 = (data.draw(t_vectors(dim, orientation)) for _ in range(4))
    if data.draw(st.booleans()):
        mu1, mu2 = (finite(data.draw(st.integers(-5, 5))) for _ in range(2))
        a2, b2 = vec_oplus(a, scale(mu1, a)), vec_oplus(b, scale(mu2, a))
    same = extended_pair(a, b) == extended_pair(a2, b2)
    assert same == (canonical_form(a, b) == canonical_form(a2, b2))


def test_pair_algebra():
    a1, b1 = TropVector([ZERO, NEG_INF, NEG_INF]), vector([0, 1, 2])
    a2, b2 = TropVector([NEG_INF, ZERO, NEG_INF]), vector([-1, 0, 5])
    p, q = extended_pair(a1, b1), extended_pair(a2, b2)
    # (inf*a1 + b1) + (inf*a2 + b2) = inf*(a1 + a2) + (b1 + b2)
    s = vec_oplus(p, q)
    assert s == extended_pair(vec_oplus(a1, a2), vec_oplus(b1, b2))
    assert s == TropVector([POS_INF, POS_INF, finite(5)])
    lam = finite(3)
    assert scale(lam, p) == extended_pair(scale(lam, a1), scale(lam, b1))
    assert scale(lam, p) == TropVector([POS_INF, finite(4), finite(5)])
    assert scale(NEG_INF, p) == zero_vector(3)
    # inf*(inf*a + b) = inf*(a + b)
    assert scale(POS_INF, p) == extended_pair(vec_oplus(a1, b1), zero_vector(3))
    assert scale(POS_INF, p) == TropVector([POS_INF] * 3)


@given(st.data())
def test_combine_is_the_fold_of_scalings(data):
    # one matrix product gives what k scalings and k sums give, in both
    # orientations and over TBAR, where (-inf) * (+inf) = -inf
    dim = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(0, 4))
    orientation = data.draw(st.sampled_from([ROW, COL]))
    entries = st.one_of(st.just(POS_INF), t_scalars)
    vectors = st.lists(entries, min_size=dim, max_size=dim).map(
        lambda es: TropVector(es, orientation)
    )
    gens = [data.draw(vectors) for _ in range(k)]
    coeffs = data.draw(st.lists(entries, min_size=k, max_size=k))
    fold = reduce(vec_oplus, map(scale, coeffs, gens), zero_vector(dim, orientation))
    x = ConvexSpan(gens, dim=dim, orientation=orientation).combine(coeffs)
    assert x == fold
    assert x.orientation == orientation and x.entries == fold.entries


@given(st.data())
def test_greatest_subsolution_law(data):
    dim = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, 4))
    gens = [data.draw(t_vectors(dim)) for _ in range(k)]
    a = data.draw(t_vectors(dim))
    s = ConvexSpan(gens)
    coeffs = s.membership(a)[1]
    assert vec_leq(s.combine(coeffs), a)
    mu = [data.draw(t_scalars) for _ in range(k)]
    if vec_leq(s.combine(mu), a):
        assert all(leq(m, c) for m, c in zip(mu, coeffs))


@given(st.data())
def test_member_invariant_under_regeneration(data):
    dim = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 3))
    gens = [data.draw(t_vectors(dim)) for _ in range(k)]
    s = ConvexSpan(gens)
    a = data.draw(t_vectors(dim))
    # permute generators and append redundant combinations of them
    perm = data.draw(st.permutations(list(range(k))))
    extra = vec_oplus(scale(finite(2), gens[0]), gens[-1])
    s2 = ConvexSpan([gens[i] for i in perm] + [extra, zero_vector(dim)])
    assert span_equal(s, s2)
    assert s.member(a) == s2.member(a)


@given(st.data())
def test_weak_basis_size_is_a_span_invariant(data):
    # permuting and rescaling generators leaves the extremal ray count alone
    dim = data.draw(st.integers(2, 4))
    k = data.draw(st.integers(1, 4))
    gens = [data.draw(t_vectors(dim)) for _ in range(k)]
    perm = data.draw(st.permutations(list(range(k))))
    scaled = [
        scale(finite(data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=2))), gens[i])
        for i in perm
    ]
    s1, s2 = ConvexSpan(gens), ConvexSpan(scaled)
    assert len(s1.weak_basis().generators) == len(s2.weak_basis().generators)


@pytest.mark.parametrize("gens, a", HUGE_SPANS)
def test_member_exact_on_huge_entries(gens, a):
    s = ConvexSpan(gens)
    assert s.member(a) == ref_member(gens, a)
    coeffs = s.membership(a)[1]
    assert coeffs == tuple(ref_coeffs(gens, a))
    assert principal_solution(TropMatrix(list(zip(*gens))), a).entries == coeffs


@pytest.mark.parametrize("a, b", HUGE_GREEN_PAIRS)
def test_leq_R_exact_on_huge_entries(a, b):
    gens = b.col_vectors()
    coeffs = [ref_coeffs(gens, a.col(j)) for j in range(a.cols)]
    holds = all(ref_member(gens, a.col(j)) for j in range(a.cols))
    v = leq_R(a, b)
    assert v.holds == holds
    if holds:
        assert v.witnesses == (("X", TropMatrix(list(zip(*coeffs)))),)


# TBAR entries on denominators 1, 7 and 10**400 + 1, small and huge,
# next to both infinities.
tbar_exact = st.one_of(
    st.sampled_from((NEG_INF, POS_INF)),
    st.builds(
        lambda n, d: finite(Fraction(n, d)),
        st.one_of(st.integers(-20, 20), st.sampled_from((BIG, -BIG))),
        st.sampled_from((1, 7, BIG + 1)),
    ),
)


def _span_forms(gens, dim):
    """One span in every form: ConvexSpan of the column vectors gens and
    of their transposes, col_span of the matrix with gens as columns and
    row_span of its transpose (the last two only for k > 0)."""
    forms = [ConvexSpan(gens, dim, COL), ConvexSpan([g.transpose() for g in gens], dim, ROW)]
    if gens:
        m = TropMatrix(list(zip(*(g.entries for g in gens))))
        forms += [col_span(m), row_span(transpose(m))]
    return forms


def _as_col(v):
    return v if v.orientation == COL else v.transpose()


def _observe(s, targets, coeffs, others):
    """What a span answers, every vector read as a column."""
    def fit(v):
        return v if v.orientation == s.orientation else v.transpose()

    basis = s.weak_basis()
    return (
        len(s),
        [_as_col(g) for g in s.generators],
        [s.member(fit(a)) for a in targets],
        [s.membership(fit(a)) for a in targets],
        len(basis),
        [_as_col(g) for g in basis.generators],
        span_equal(s, basis),
        [span_equal(s, ConvexSpan([fit(g) for g in t], s.dim, s.orientation)) for t in others],
        _as_col(s.combine(coeffs)),
    )


@settings(deadline=None, max_examples=120)
@given(st.data())
def test_span_forms_agree_over_tbar(data):
    # row_span(m), col_span(m) and ConvexSpan(vectors) hold one span
    # three ways; each answers every query alike, and as the scalar
    # operations alone do
    dim = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(0, 3))
    vectors = st.lists(tbar_exact, min_size=dim, max_size=dim).map(
        lambda es: TropVector(es, COL)
    )
    gens = [data.draw(vectors) for _ in range(k)]
    coeffs = data.draw(st.lists(tbar_exact, min_size=k, max_size=k))
    member = TropVector(ref_combine(coeffs, gens, dim), COL)
    targets = [member, zero_vector(dim, COL)] + [data.draw(vectors) for _ in range(2)]
    others = [gens[::-1] + [member], gens[1:], [data.draw(vectors)]]
    forms = _span_forms(gens, dim)
    seen = [_observe(s, targets, coeffs, others) for s in forms]
    assert all(x == seen[0] for x in seen[1:])
    assert seen[0][2] == [ref_member(gens, a) for a in targets]
    assert [c for _, c in seen[0][3]] == [tuple(ref_coeffs(gens, a)) for a in targets]
    assert seen[0][8].entries == ref_combine(coeffs, gens, dim)


def test_matrix_spans_wrap_the_matrix():
    # row_span and col_span hold the matrix itself, not a copy of its
    # entries; the generators are views read off it
    a = TropMatrix([[0, NEG_INF, 2], [Fraction(1, 7), POS_INF, 0]])
    rows, cols = row_span(a), col_span(a)
    assert rows.matrix is a and cols.matrix is a
    assert rows.generators == tuple(a.row_vectors()) and len(rows) == 2 and rows.dim == 3
    assert cols.generators == tuple(a.col_vectors()) and len(cols) == 3 and cols.dim == 2
    assert ConvexSpan(a.col_vectors()).matrix == a
    assert ConvexSpan([], dim=2, orientation=COL).matrix is None


def test_span_generators_share_dim_and_orientation():
    with pytest.raises(ShapeError, match="^span generators must share dim and orientation$"):
        ConvexSpan([vector([0, 1]), vector([0, 1, 2])])
    with pytest.raises(ShapeError, match="^span generators must share dim and orientation$"):
        ConvexSpan([vector([0, 1]), vector([0, 1], COL)])


def test_span_equality_is_the_generator_list():
    # == and hash compare dim, orientation and generator matrix: the same
    # generators in the same order, however the span was built; span_equal
    # compares the sets the generators span
    m = TropMatrix([[0, NEG_INF, 2], [Fraction(1, 7), POS_INF, 0]])
    parsed = parse_descriptor(format_descriptor(identity_descriptor(col_span(m)))).source
    forms = [col_span(m), ConvexSpan(m.col_vectors()), parsed]
    for s in forms:
        assert all(s == t and hash(s) == hash(t) for t in forms)
    reordered = ConvexSpan(m.col_vectors()[::-1])
    redundant = ConvexSpan(m.col_vectors() + [scale(finite(1), m.col(0))])
    for other in (reordered, redundant):
        assert span_equal(other, col_span(m)) and other != col_span(m)
        assert repr(other) != repr(col_span(m))
    assert repr(parsed) == repr(col_span(m))
    assert row_span(transpose(m)) != col_span(m)
    assert ConvexSpan((), 2, COL) == ConvexSpan((), 2, COL)
    assert hash(ConvexSpan((), 2, COL)) == hash(ConvexSpan((), 2, COL))
    assert ConvexSpan((), 2, COL) != ConvexSpan((), 3, COL)
    assert ConvexSpan((), 2, COL) != ConvexSpan((), 2, ROW)
    assert col_span(m) != m


def test_empty_span_checks_orientation_and_dim():
    assert len(ConvexSpan([], 1, ROW)) == 0
    with pytest.raises(ShapeError, match="^orientation must be 'row' or 'col', got 'diag'$"):
        ConvexSpan([], 3, "diag")
    with pytest.raises(ShapeError, match="^span dim must be at least 1, got 0$"):
        ConvexSpan([], 0, COL)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ConvexSpan([]), "empty span needs explicit dim and orientation"),
        # 2.0 compares as 2, but would format as "0 2.0" and build no zero vector
        (lambda: ConvexSpan([], 2.0, COL), "span dim must be at least 1, got 2.0"),
        (lambda: span_00_01().combine([ZERO]), "expected 2 coefficients"),
        (
            lambda: span_equal(col_span(identity(2)), row_span(identity(2))),
            "spans must share dim and orientation",
        ),
        (
            lambda: principal_solution(vector([0, 1]), vector([0, 1], COL)),
            "principal_solution expects a matrix",
        ),
        (
            lambda: principal_solution(identity(2), vector([0, 0, 0], COL)),
            "dimension mismatch: 3 vs 2 rows",
        ),
    ],
)
def test_span_shape_errors(call, message):
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        call()
