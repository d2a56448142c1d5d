"""Exact scalar arithmetic for the max-plus semirings FT, T and TBAR.

Scalars are exact rationals extended with -inf and +inf.  Addition is
maximum (``oplus``), multiplication is ordinary addition (``otimes``).
The completed semiring TBAR makes +inf absorbing for both operations,
with the one exceptional product (-inf) * (+inf) = (+inf) * (-inf) = -inf.
A finite scalar's ``value`` is canonical: an ``int`` when integral, a
reduced ``Fraction`` otherwise.  Vector and matrix loops do not use
these boxed scalars but ints over a shared denominator (see ``linalg``).
"""

import re
from enum import IntEnum
from fractions import Fraction
from functools import total_ordering

from .errors import ParseError, SizeLimitError

_NEG = -1
_FIN = 0
_POS = 1

_SCALAR_TOKEN = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


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

    Instances are immutable and hashable; rationals are kept in canonical
    form (an int, or a reduced ``fractions.Fraction``), so ``==`` is exact.
    """

    __slots__ = ("kind", "value")

    def __init__(self, kind, value=None):
        self.kind = kind  # _NEG | _FIN | _POS
        self.value = value  # int or non-integral Fraction when finite, else None

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
        return self.kind == other.kind and self.value == other.value

    def __hash__(self):
        return hash((self.kind, self.value))

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


def finite(x) -> TropScalar:
    """Finite scalar from an int, Fraction, or fraction string like '3/2'."""
    if x.__class__ is not int:
        if x.__class__ is not Fraction:
            x = Fraction(x)
        if x.denominator == 1:
            x = x.numerator
    return TropScalar(_FIN, x)


ZERO = finite(0)  # multiplicative identity (tropical "one")


def oplus(a: TropScalar, b: TropScalar) -> TropScalar:
    """Tropical addition: max under the total order (b on a tie)."""
    if a.kind != b.kind:
        return b if a.kind < b.kind else a
    return b if a.kind != _FIN or a.value <= b.value else a


def otimes(a: TropScalar, b: TropScalar) -> TropScalar:
    """Tropical multiplication: a + b, with -inf absorbing even against +inf."""
    ak, bk = a.kind, b.kind
    if ak == _NEG or bk == _NEG:
        return NEG_INF
    if ak == _POS or bk == _POS:
        return POS_INF
    x = a.value + b.value
    return TropScalar(_FIN, x) if x.__class__ is int else finite(x)  # an int is canonical


def neg(a: TropScalar) -> TropScalar:
    """The order-reversing involution x -> -x, swapping the infinities."""
    if a.kind == _FIN:
        return TropScalar(_FIN, -a.value)
    return NEG_INF if a.kind == _POS else POS_INF


def leq(a: TropScalar, b: TropScalar) -> bool:
    """Total order with -inf < rationals < +inf."""
    if a.kind != b.kind:
        return a.kind < b.kind
    if a.kind != _FIN:
        return True
    return a.value <= b.value


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
    try:
        if _SCALAR_TOKEN.fullmatch(token):
            return finite(token)
    except (ValueError, ZeroDivisionError):  # past the int digit limit, or q = 0
        pass
    raise ParseError(f"bad scalar token {token!r}", line, column)


def format_scalar(a: TropScalar) -> str:
    """Canonical token for a scalar; inverse of :func:`parse_scalar`."""
    if a.kind == _NEG:
        return "-inf"
    if a.kind == _POS:
        return "inf"
    try:
        return str(a.value)
    except ValueError:  # past the interpreter's int-to-str digit limit
        raise SizeLimitError("scalar has too many digits to print") from None


def parse_domain(name: str, line=None) -> Domain:
    try:
        return Domain[name.upper()]
    except KeyError:
        raise ParseError(f"unknown domain {name!r} (expected ft, t, or tbar)", line) from None


def format_domain(d: Domain) -> str:
    return d.name.lower()
