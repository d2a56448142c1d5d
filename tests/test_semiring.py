"""Scalar arithmetic: frozen examples plus algebraic laws."""

import copy
import operator
import pickle
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from trop import semiring
from trop.errors import DomainError, ParseError, SizeLimitError
from trop.linalg import COL, TropMatrix, TropVector, bracket, vector
from trop.semiring import (
    NEG_INF,
    POS_INF,
    ZERO,
    Domain,
    TropScalar,
    domain_of,
    finite,
    format_scalar,
    leq,
    neg,
    oplus,
    otimes,
    parse_domain,
    parse_scalar,
    ratio,
)

scalars = st.one_of(
    st.just(NEG_INF),
    st.just(POS_INF),
    st.fractions(min_value=-50, max_value=50, max_denominator=12).map(finite),
)

finite_scalars = st.fractions(min_value=-50, max_value=50, max_denominator=12).map(finite)

# the five-element probe set covering every case split of the product rule
PROBE = (NEG_INF, finite(-1), ZERO, finite(2), POS_INF)


def test_oplus_examples():
    assert oplus(finite(3), finite(5)) == finite(5)
    assert oplus(NEG_INF, finite(7)) == finite(7)  # -inf is the additive identity
    assert oplus(POS_INF, finite(2)) == POS_INF


def test_otimes_examples():
    assert otimes(finite(3), finite(5)) == finite(8)
    assert otimes(NEG_INF, POS_INF) == NEG_INF  # the exceptional product
    assert otimes(POS_INF, NEG_INF) == NEG_INF
    assert otimes(POS_INF, finite(2)) == POS_INF


def test_neg_examples():
    assert neg(finite(3)) == finite(-3)
    assert neg(NEG_INF) == POS_INF
    x = finite(Fraction(5, 2))
    assert neg(neg(x)) == x


def test_leq_examples():
    assert leq(NEG_INF, finite(-(10**6)))
    assert leq(finite(Fraction(1, 3)), finite(Fraction(1, 2)))
    assert leq(POS_INF, POS_INF)
    assert not leq(POS_INF, finite(0))


def test_domain_of():
    assert domain_of(ZERO) == Domain.FT
    assert domain_of(NEG_INF) == Domain.T
    assert domain_of(POS_INF) == Domain.TBAR
    assert Domain.FT < Domain.T < Domain.TBAR


def test_oplus_characterizes_order():
    for a in PROBE:
        for b in PROBE:
            assert (oplus(a, b) == b) == leq(a, b)


def test_distributivity_exhaustive_on_probe_set():
    for a in PROBE:
        for b in PROBE:
            for c in PROBE:
                assert otimes(a, oplus(b, c)) == oplus(otimes(a, b), otimes(a, c))


def test_complete_inequality_exhaustive_on_probe_set():
    # a*b <= c iff a*(-c) <= -b, including every infinity combination
    for a in PROBE:
        for b in PROBE:
            for c in PROBE:
                assert leq(otimes(a, b), c) == leq(otimes(a, neg(c)), neg(b))


def test_negation_distributes_over_product_only_finitarily():
    a, b = finite(Fraction(7, 3)), finite(-4)
    assert neg(otimes(a, b)) == otimes(neg(a), neg(b))
    # in the completed semiring the involution is not multiplicative
    assert neg(otimes(POS_INF, NEG_INF)) != otimes(NEG_INF, POS_INF)


@given(scalars, scalars)
def test_oplus_commutative_idempotent(a, b):
    assert oplus(a, b) == oplus(b, a)
    assert oplus(a, a) == a


@given(scalars, scalars, scalars)
def test_oplus_otimes_associative(a, b, c):
    assert oplus(oplus(a, b), c) == oplus(a, oplus(b, c))
    assert otimes(otimes(a, b), c) == otimes(a, otimes(b, c))


@given(scalars, scalars)
def test_otimes_commutative(a, b):
    assert otimes(a, b) == otimes(b, a)


@given(scalars, scalars, scalars)
def test_distributivity(a, b, c):
    assert otimes(a, oplus(b, c)) == oplus(otimes(a, b), otimes(a, c))


@given(scalars, scalars, scalars)
def test_complete_inequality(a, b, c):
    assert leq(otimes(a, b), c) == leq(otimes(a, neg(c)), neg(b))


@given(scalars)
def test_neg_is_an_involution_and_reverses_order(a):
    assert neg(neg(a)) == a


@given(scalars, scalars)
def test_neg_reverses_order(a, b):
    assert leq(a, b) == leq(neg(b), neg(a))


@given(scalars)
def test_units(a):
    assert oplus(a, NEG_INF) == a
    assert otimes(a, ZERO) == a


@given(scalars)
def test_token_round_trip(a):
    assert parse_scalar(format_scalar(a)) == a


def test_parse_scalar_tokens():
    assert parse_scalar("-inf") == NEG_INF
    assert parse_scalar("inf") == POS_INF
    assert parse_scalar("-3") == finite(-3)
    assert parse_scalar("5/2") == finite(Fraction(5, 2))
    assert parse_scalar("+7") == finite(7)
    assert parse_scalar("-4/6") == finite(Fraction(-2, 3))
    for bad in ("infty", "1/0", "1e5000", "1.5", "1_000", " 3", "3 ", "+inf", "1/-2",
                "\u0663", "", "-", "/2", "2/"):
        with pytest.raises(ParseError):
            parse_scalar(bad)


def _fraction_token(token):
    """finite(Fraction(token)), or ParseError where Fraction refuses."""
    try:
        return finite(Fraction(token))
    except (ValueError, ZeroDivisionError):
        return ParseError


@pytest.mark.parametrize("seed", range(4))
def test_parse_scalar_agrees_with_fraction(seed):
    # parse_scalar builds the matched token through ratio; on every
    # signed integer or p/q token in ASCII digits it gives Fraction's
    # value, and where Fraction refuses (q = 0, or past the int digit
    # limit) it raises the one ParseError
    rng = random.Random(seed)

    def digits():
        return "0" * rng.randint(0, 2) + str(rng.randint(0, 10 ** rng.randint(0, 25)))

    tokens = ["+7", "-0", "0/5", "-4/6", "007/0030", "-00/01", "1/0", "3/00", "9" * 5000,
              "1/" + "7" * 5000]
    for _ in range(400):
        token = rng.choice(("", "+", "-")) + digits()
        tokens.append(token + "/" + digits() if rng.random() < 0.6 else token)
    for token in tokens:
        want = _fraction_token(token)
        if want is ParseError:
            with pytest.raises(ParseError, match="^bad scalar token "):
                parse_scalar(token)
            continue
        got = parse_scalar(token)
        assert (got.kind, got.num, got.den) == (want.kind, want.num, want.den)
    assert _fraction_token("3/00") is ParseError and _fraction_token("9" * 5000) is ParseError


def test_hash_is_the_hash_of_the_triple(monkeypatch):
    # __hash__ hashes (kind, num, den), the triple == compares, so equal
    # scalars hash alike on every edge that builds one, and hashing
    # builds no Fraction: negative values, dens that are multiples of the
    # modulus, values whose Fraction hash would be -1 (and is -2), huge
    # ints and both infinities
    p = sys.hash_info.modulus
    rng = random.Random(20261020)
    values = [Fraction(1, 2), Fraction(-1, 2), Fraction(-(p + 2), 2), Fraction(1, p),
              Fraction(-7, 3 * p), Fraction(p + 1, 2 * p), Fraction(-BIG - 3, 7), 0, -1, -BIG]
    values += [Fraction(rng.randint(-BIG, BIG), rng.choice((2, 7, p - 1, p + 1, BIG + 1)))
               for _ in range(60)]
    assert hash(Fraction(-(p + 2), 2)) == -2 and hash(Fraction(1, p)) == sys.hash_info.inf
    families = [
        [ratio(3 * f.numerator, 3 * f.denominator), finite(f), finite(str(f)),
         parse_scalar(str(f)), TropScalar(0, f)]
        for f in map(Fraction, values)
    ]
    families += [[NEG_INF, TropScalar(-1), parse_scalar("-inf")],
                 [POS_INF, TropScalar(1), parse_scalar("inf")]]
    for family in families:
        x = family[0]
        family += [vector([x, ratio(1, 3)]).entries[0], bracket(vector([0]), vector([x])),
                   copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))]
    monkeypatch.setattr(semiring, "Fraction", None)
    for family in families:
        x = family[0]
        assert all(y == x for y in family)
        assert {hash(y) for y in family} == {hash((x.kind, x.num, x.den))}


def test_finite_reads_strings_with_the_text_grammar():
    # finite and parse_scalar share the text format's grammar, so a
    # string lifted into a vector reads as it would in a matrix file
    for token, value in (("-7", -7), ("+7", 7), ("3/2", Fraction(3, 2)), ("4/6", Fraction(2, 3))):
        assert finite(token) == finite(Fraction(value)) == parse_scalar(token)
    for bad in ("1.5", "1e1000", " 3", "1_0", "\u0663", "1/0", "inf", "-inf", "nan"):
        with pytest.raises(ParseError, match="^bad scalar token "):
            finite(bad)
    assert TropVector(["3/2", "-7"], COL) == vector([Fraction(3, 2), -7], COL)


def test_finite_takes_only_exact_values():
    # ints, Fractions and other rationals lift to plain int pairs; bools,
    # floats and other inexact or non-numeric values raise DomainError
    class Count(int):
        pass

    class Ratio(Fraction):
        pass

    for value, want in ((Count(7), finite(7)), (Ratio(4, 6), ratio(2, 3))):
        got = finite(value)
        assert got == want and type(got.num) is int and type(got.den) is int
    for bad in (True, False, 0.1, 2.0, float("nan"), float("inf"), 1j, Decimal("1.5"), None, [1]):
        name = type(bad).__name__
        with pytest.raises(DomainError, match=f"^finite scalars are exact rationals, not {name}$"):
            finite(bad)
    with pytest.raises(DomainError, match="not float$"):
        TropVector([0.5])
    with pytest.raises(DomainError, match="not float$"):
        TropMatrix([[2.0]])


def test_format_scalar_digit_limit():
    # past the interpreter's int-to-str limit: a package error, not ValueError
    with pytest.raises(SizeLimitError):
        format_scalar(finite(10**5000))
    with pytest.raises(SizeLimitError):
        format_scalar(finite(Fraction(1, 10**5000)))


def test_canonical_reduction():
    assert finite(Fraction(4, 6)) == finite(Fraction(2, 3))
    assert format_scalar(finite(Fraction(-4, 6))) == "-2/3"
    two = finite(Fraction(4, 2))
    assert two == finite(2) and hash(two) == hash(finite(2))
    assert format_scalar(two) == "2" and type(two.value) is int
    assert type(otimes(finite(Fraction(1, 2)), finite(Fraction(3, 2))).value) is int


# Ints of every size, and Fractions on small and huge coprime
# denominators, next to both infinities: oplus and otimes on int pairs
# must agree with plain Fraction arithmetic on each.
BIG = 10**400
exact_scalars = st.one_of(
    st.sampled_from((NEG_INF, POS_INF)),
    st.integers(-(BIG + 1), BIG + 1).map(finite),
    st.builds(
        lambda n, d: finite(Fraction(n, d)),
        st.one_of(st.integers(-60, 60), st.integers(-(2 * BIG), 2 * BIG)),
        st.sampled_from((1, 2, 7, BIG + 1)),
    ),
)


def _via_fraction(a, b):
    """oplus and otimes of a and b in plain Fraction arithmetic: both
    values Fractions, the sum re-canonicalized."""
    if not (a.is_finite and b.is_finite):
        return (b if leq(a, b) else a), (
            NEG_INF if NEG_INF in (a, b) else POS_INF
        )
    x, y = Fraction(a.value), Fraction(b.value)
    return (b if x <= y else a), finite(x + y)


@given(exact_scalars, exact_scalars)
def test_int_fast_paths_match_the_fraction_path(a, b):
    want_sum, want_product = _via_fraction(a, b)
    got_sum, got_product = oplus(a, b), otimes(a, b)
    assert got_sum is want_sum  # the max is one of the operands, b on a tie
    assert got_product == want_product
    assert hash(got_product) == hash(want_product)
    assert str(got_product) == str(want_product)
    assert type(got_product.value) is type(want_product.value)


def test_order_operators_follow_leq():
    for a in PROBE:
        for b in PROBE:
            assert (a <= b, a < b, a >= b, a > b) == (
                leq(a, b), leq(a, b) and a != b, leq(b, a), leq(b, a) and a != b
            )
    assert sorted(reversed(PROBE)) == list(PROBE)


@pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
def test_ordering_against_a_non_scalar_raises_type_error(op):
    with pytest.raises(TypeError):
        op(ZERO, 3)
    with pytest.raises(TypeError):
        op(Fraction(1, 2), ZERO)


def test_parse_domain_rejects_unknown_names():
    assert [parse_domain(name) for name in ("ft", "T", "tbar")] == list(Domain)
    with pytest.raises(ParseError, match=r"^unknown domain 'xyz' \(expected ft, t, or tbar\)$"):
        parse_domain("xyz")


# Differential check of the int-pair representation against plain
# Fraction arithmetic.  A reference value is "-inf", "inf" or a Fraction;
# the scalars are built on every edge (finite of an int, a Fraction or a
# string, ratio of an unreduced pair, parse_scalar) from seeded draws of
# both infinities, ints, and rationals whose numerators and
# denominators run past 2^64.
REF_KIND = {"-inf": -1, "inf": 1}


def _draw(rng):
    """A (scalar, reference) pair."""
    r = rng.random()
    if r < 0.1:
        return NEG_INF, "-inf"
    if r < 0.2:
        return POS_INF, "inf"
    big = rng.choice((8, 64, 70, 130))
    n = rng.randint(-(1 << big), 1 << big)
    d = 1 if r < 0.4 else rng.choice((2, 3, 6, rng.randint(1, 1 << big)))
    f = Fraction(n, d)
    edge = rng.randrange(4)
    if edge == 0:
        x = finite(f if d != 1 else n)
    elif edge == 1:
        x = finite(f"{n}/{d}")
    elif edge == 2:
        k = rng.randint(1, 1 << 66)
        x = ratio(n * k, d * k)
    else:
        x = parse_scalar(str(f))
    return x, f


def _ref_value(f):
    if f in REF_KIND:
        return None
    return f.numerator if f.denominator == 1 else f


def _ref_leq(f, g):
    kf, kg = REF_KIND.get(f, 0), REF_KIND.get(g, 0)
    return kf < kg if kf != kg else kf != 0 or f <= g


def _ref_otimes(f, g):
    if "-inf" in (f, g):
        return "-inf"
    if "inf" in (f, g):
        return "inf"
    return f + g


def _ref_neg(f):
    return {"-inf": "inf", "inf": "-inf"}.get(f) if f in REF_KIND else -f


def _assert_matches(x, f):
    value = _ref_value(f)
    assert x.value == value and type(x.value) is type(value)
    assert x.kind == REF_KIND.get(f, 0)
    assert hash(x) == hash((x.kind, x.num, x.den))
    assert str(x) == (f if f in REF_KIND else str(f))
    assert parse_scalar(format_scalar(x)) == x
    if x.is_finite:
        assert (x.num, x.den) == (f.numerator, f.denominator)
    else:
        assert (x.num, x.den) == (0, 1)


@pytest.mark.parametrize("seed", range(8))
def test_int_pairs_match_fraction_arithmetic(seed):
    rng = random.Random(seed)
    draws = [_draw(rng) for _ in range(120)]
    for x, f in draws:
        _assert_matches(x, f)
        _assert_matches(neg(x), _ref_neg(f))
        twin = parse_scalar(str(x))
        assert twin == x and oplus(x, twin) is twin and leq(x, twin) and leq(twin, x)
    for (x, f), (y, g) in zip(draws, draws[1:] + draws[:1]):
        assert leq(x, y) == _ref_leq(f, g)
        assert (x == y) == (_ref_value(f) == _ref_value(g) and REF_KIND.get(f) == REF_KIND.get(g))
        assert oplus(x, y) is (y if _ref_leq(f, g) else x)  # b on a tie
        _assert_matches(otimes(x, y), _ref_otimes(f, g))


def test_scalars_copy_and_pickle():
    rng = random.Random(99)
    for x, f in [_draw(rng) for _ in range(60)]:
        copies = [copy.copy(x), copy.deepcopy(x)]
        copies += [
            pickle.loads(pickle.dumps(x, proto)) for proto in range(2, pickle.HIGHEST_PROTOCOL + 1)
        ]
        for c in copies:
            assert c == x and hash(c) == hash(x) and str(c) == str(x)
            _assert_matches(c, f)


def test_value_is_read_only():
    for x in (ZERO, finite(Fraction(1, 3)), NEG_INF, TropScalar(0, Fraction(-6, 4))):
        with pytest.raises(AttributeError):
            x.value = 1
    assert (TropScalar(0, Fraction(-6, 4)).num, TropScalar(0, Fraction(-6, 4)).den) == (-3, 2)
    assert TropScalar(0, 5) == finite(5) and TropScalar(1) == POS_INF
    assert TropScalar(0, "3/2") == ratio(3, 2)  # the value is read through finite


@pytest.mark.parametrize(
    "args",
    [(-1, 5), (1, 0), (-1, Fraction(1, 2)), (7,), (2, 3), (0,), (0, None), (0, True),
     (0, 1.5), (0, Decimal("1.5")), (True,), (1.0,), (None,), ("0", 3)],
    ids=repr,
)
def test_constructor_refuses_what_finite_refuses(args):
    # a finite kind reads its value through finite, an infinity takes no
    # value, and no other kind exists: each of these built a scalar that
    # printed as a valid token (or, for an inexact value, raised
    # AttributeError)
    with pytest.raises(DomainError):
        TropScalar(*args)
