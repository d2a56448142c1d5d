"""Exact scalar arithmetic for the max-plus semirings FT, T and TBAR.

Scalars are exact rationals extended with -inf and +inf.  Addition is
maximum (``oplus``), multiplication is ordinary addition (``otimes``).
The completed semiring TBAR makes +inf absorbing for both operations,
with the one exceptional product (-inf) * (+inf) = (+inf) * (-inf) = -inf.
A scalar holds its kind and a reduced pair of ints ``num/den``, den >= 1,
with 0/1 for both infinities, so the four operations run on ints:
``oplus`` and ``leq`` cross-multiply, ``otimes`` adds over one
denominator and reduces with one gcd, and ``neg`` negates ``num``.
``value`` is derived on each read, an ``int`` when integral and a
reduced ``Fraction`` otherwise, and the hash is that of the triple
(kind, num, den) that ``==`` compares.  Strings have one grammar, the
text format's: ``parse_scalar`` reads a token and ``finite`` a finite
one.  Vector and matrix loops do not use these boxed scalars but ints
over a shared denominator (see ``linalg``).
"""

import re
from enum import IntEnum
from fractions import Fraction
from functools import total_ordering
from math import gcd
from numbers import Rational

from .errors import DomainError, ParseError, SizeLimitError

_NEG = -1
_FIN = 0
_POS = 1

_SCALAR_TOKEN = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


class Domain(IntEnum):
    """Which of the three nested semirings a value (or matrix) lives in.

    FT admits only finite rationals, T adds -inf, TBAR adds +inf.
    ``max`` of two tags is the join (smallest domain containing both).
    """

    FT = 0
    T = 1
    TBAR = 2


@total_ordering
class TropScalar:
    """A rational number, -inf, or +inf, totally ordered.

    Instances are immutable and hashable.  A finite value is the reduced
    pair ``num/den`` of ints with den >= 1 and an infinity holds 0/1, so
    ``==`` on the triple (kind, num, den) is exact.
    """

    __slots__ = ("kind", "num", "den")

    def __init__(self, kind, value=None):
        """kind _FIN with a value that ``finite`` takes, or _NEG or _POS
        with none; anything else raises DomainError."""
        if kind.__class__ is int and kind == _FIN:
            x = finite(value)
            self.num, self.den = x.num, x.den
        elif kind.__class__ is int and kind in (_NEG, _POS) and value is None:
            self.num, self.den = 0, 1
        else:
            raise DomainError(f"no scalar of kind {kind!r} with value {value!r}")
        self.kind = kind

    @property
    def value(self):
        """An int when integral, a reduced Fraction otherwise; None for
        an infinity.  Read-only: built from (num, den) on each read."""
        if self.kind != _FIN:
            return None
        return self.num if self.den == 1 else Fraction(self.num, self.den)

    @property
    def is_finite(self):
        return self.kind == _FIN

    @property
    def is_neg_inf(self):
        return self.kind == _NEG

    @property
    def is_pos_inf(self):
        return self.kind == _POS

    def __eq__(self, other):
        if not isinstance(other, TropScalar):
            return NotImplemented
        return self.kind == other.kind and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.kind, self.num, self.den))

    def __le__(self, other):
        if not isinstance(other, TropScalar):
            return NotImplemented
        return leq(self, other)

    def __repr__(self):
        return f"TropScalar({format_scalar(self)})"

    def __str__(self):
        return format_scalar(self)


NEG_INF = TropScalar(_NEG)
POS_INF = TropScalar(_POS)

_new = object.__new__


def _finite(num, den):
    """The finite scalar num/den, for a reduced pair with den >= 1."""
    x = _new(TropScalar)
    x.kind, x.num, x.den = _FIN, num, den
    return x


def finite(x) -> TropScalar:
    """Finite scalar from an int, a Fraction or another exact rational,
    or a finite token of the text format such as '-7' or '3/2'; any
    other string, '1.5' and 'inf' among them, raises ParseError, and a
    bool, a float or any other inexact or non-numeric value raises
    DomainError."""
    if x.__class__ is int:
        return _finite(x, 1)
    if isinstance(x, str):
        return _parse_finite(x)
    if x.__class__ is not Fraction:
        if x.__class__ is bool or not isinstance(x, Rational):
            raise DomainError(f"finite scalars are exact rationals, not {type(x).__name__}")
        x = Fraction(int(x.numerator), int(x.denominator))
    return _finite(x.numerator, x.denominator)


def ratio(num, den) -> TropScalar:
    """The finite scalar num/den, for ints num and den >= 1, reduced
    with one gcd (none when den is 1)."""
    if den == 1:
        return _finite(num, 1)
    g = gcd(num, den)
    return _finite(num // g, den // g)


ZERO = finite(0)  # multiplicative identity (tropical "one")


def oplus(a: TropScalar, b: TropScalar) -> TropScalar:
    """Tropical addition: max under the total order (b on a tie)."""
    if a.kind != b.kind:
        return b if a.kind < b.kind else a
    return b if a.num * b.den <= b.num * a.den else a  # an infinity is 0/1


def otimes(a: TropScalar, b: TropScalar) -> TropScalar:
    """Tropical multiplication: a + b, with -inf absorbing even against +inf."""
    ak, bk = a.kind, b.kind
    if ak == _NEG or bk == _NEG:
        return NEG_INF
    if ak == _POS or bk == _POS:
        return POS_INF
    ad, bd = a.den, b.den
    if ad == bd:
        return ratio(a.num + b.num, ad)
    return ratio(a.num * bd + b.num * ad, ad * bd)


def neg(a: TropScalar) -> TropScalar:
    """The order-reversing involution x -> -x, swapping the infinities."""
    if a.kind == _FIN:
        return _finite(-a.num, a.den)
    return NEG_INF if a.kind == _POS else POS_INF


def leq(a: TropScalar, b: TropScalar) -> bool:
    """Total order with -inf < rationals < +inf."""
    if a.kind != b.kind:
        return a.kind < b.kind
    return a.num * b.den <= b.num * a.den  # an infinity is 0/1


def domain_of(a: TropScalar) -> Domain:
    """Smallest domain tag containing the scalar."""
    if a.kind == _FIN:
        return Domain.FT
    return Domain.T if a.kind == _NEG else Domain.TBAR


def parse_scalar(token: str, line=None, column=None) -> TropScalar:
    """Parse a scalar token: 'inf', '-inf', or a (signed) integer or p/q
    in ASCII digits.

    Round-trips bit-exactly with :func:`format_scalar`.
    """
    if token == "-inf":
        return NEG_INF
    if token == "inf":
        return POS_INF
    return _parse_finite(token, line, column)


def _parse_finite(token, line=None, column=None):
    """Parse a (signed) integer or p/q token in ASCII digits."""
    match = _SCALAR_TOKEN.fullmatch(token)
    if match:
        p, q = match.groups()
        try:
            den = 1 if q is None else int(q)
            if den:
                return ratio(int(p), den)
        except ValueError:  # past the interpreter's int digit limit
            pass
    raise ParseError(f"bad scalar token {token!r}", line, column)


def format_scalar(a: TropScalar) -> str:
    """Canonical token for a scalar; inverse of :func:`parse_scalar`."""
    if a.kind == _NEG:
        return "-inf"
    if a.kind == _POS:
        return "inf"
    try:
        return str(a.num) if a.den == 1 else f"{a.num}/{a.den}"
    except ValueError:  # past the interpreter's int-to-str digit limit
        raise SizeLimitError("scalar has too many digits to print") from None


def parse_domain(name: str, line=None) -> Domain:
    try:
        return Domain[name.upper()]
    except KeyError:
        raise ParseError(f"unknown domain {name!r} (expected ft, t, or tbar)", line) from None


def format_domain(d: Domain) -> str:
    return d.name.lower()
