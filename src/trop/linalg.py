"""Vectors and matrices over tropical scalars.

Dense, immutable containers plus the residuation bracket, the Hilbert
projective metric, and projective normalization.  Everything is exact;
the decision procedures built on top never see rounding.

The arithmetic loops run over a packed form that only this module
reads: sequences of scalars pack to ``(den, rows)``, with
``den`` the least common denominator of the finite entries and each row
a tuple of those entries times ``den`` as Python ints, and the floats
-inf/+inf as sentinels.  Ints compare exactly with them, so max and
order need no branch; sums and differences branch on the sentinels,
never adding a float to an int, and -inf absorbs +inf.  Public functions
pack their inputs per call and box only their outputs.
"""

from fractions import Fraction
from math import lcm

from .errors import ShapeError
from .semiring import (
    NEG_INF,
    POS_INF,
    Domain,
    TropScalar,
    ZERO,
    domain_of,
    finite,
    leq,
    neg,
    oplus,
    otimes,
)

_NEG = float("-inf")  # the only two floats in packed rows, so tested by identity
_POS = float("inf")
_INF = {NEG_INF.kind: _NEG, POS_INF.kind: _POS}

ROW = "row"
COL = "col"


def _check_orientation(orientation):
    if orientation not in (ROW, COL):
        raise ShapeError(f"orientation must be {ROW!r} or {COL!r}, got {orientation!r}")


class TropVector:
    """A dense vector of tropical scalars with a row/column orientation."""

    __slots__ = ("entries", "orientation")

    def __init__(self, entries, orientation=ROW):
        entries = tuple(entries)
        if not entries:
            raise ShapeError("vector must have at least one entry")
        _check_orientation(orientation)
        self.entries = entries
        self.orientation = orientation

    @property
    def dim(self):
        return len(self.entries)

    def __eq__(self, other):
        if not isinstance(other, TropVector):
            return NotImplemented
        return self.orientation == other.orientation and self.entries == other.entries

    def __hash__(self):
        return hash((self.orientation, self.entries))

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self):
        body = " ".join(str(e) for e in self.entries)
        return f"TropVector[{self.orientation}]({body})"

    def transpose(self):
        return TropVector(self.entries, COL if self.orientation == ROW else ROW)

    def as_matrix(self):
        if self.orientation == ROW:
            return TropMatrix([list(self.entries)])
        return TropMatrix([[e] for e in self.entries])

    def domain(self) -> Domain:
        return Domain(max((domain_of(e) for e in self.entries), default=Domain.FT))


def vector(values, orientation=ROW) -> TropVector:
    """Build a vector, lifting ints/Fractions to finite scalars."""
    return TropVector([_lift(v) for v in values], orientation)


def _lift(v):
    return v if isinstance(v, TropScalar) else finite(v)


class TropMatrix:
    """A dense rows x cols matrix of tropical scalars."""

    __slots__ = ("entries",)

    def __init__(self, rows):
        rows = tuple(tuple(_lift(e) for e in r) for r in rows)
        if not rows or not rows[0]:
            raise ShapeError("matrix must have at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeError("matrix rows must all have the same length")
        self.entries = rows

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0])

    def __eq__(self, other):
        if not isinstance(other, TropMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in r) for r in self.entries)
        return f"TropMatrix({self.rows}x{self.cols}: {body})"

    def row(self, i) -> TropVector:
        return TropVector(self.entries[i], ROW)

    def col(self, j) -> TropVector:
        return TropVector((r[j] for r in self.entries), COL)

    def row_vectors(self):
        return [self.row(i) for i in range(self.rows)]

    def col_vectors(self):
        return [self.col(j) for j in range(self.cols)]

    def as_vector(self) -> TropVector:
        if self.rows == 1:
            return self.row(0)
        if self.cols == 1:
            return self.col(0)
        raise ShapeError(f"{self.rows}x{self.cols} matrix is not a vector")

    def domain(self) -> Domain:
        return Domain(max(domain_of(e) for r in self.entries for e in r))

    def is_square(self):
        return self.rows == self.cols


def identity(n) -> TropMatrix:
    """Tropical identity: 0 on the diagonal, -inf elsewhere."""
    return TropMatrix([[ZERO if i == j else NEG_INF for j in range(n)] for i in range(n)])


def zero_matrix(rows, cols) -> TropMatrix:
    return TropMatrix([[NEG_INF] * cols for _ in range(rows)])


def zero_vector(dim, orientation=ROW) -> TropVector:
    return TropVector([NEG_INF] * dim, orientation)


def pack(seqs):
    """Pack scalar sequences as ``(den, rows)`` over one denominator."""
    seqs = tuple(seqs)
    den = lcm(*{v.denominator for s in seqs for e in s if (v := e.value).__class__ is Fraction})
    return den, [
        tuple([_INF[e.kind] if (v := e.value) is None else v.numerator * (den // v.denominator)
               for e in s])
        for s in seqs
    ]


def unpack(packed):
    """The rows of a packed family as tuples of scalars."""
    den, rows = packed
    return [tuple([_box(n, den) for n in row]) for row in rows]


def _box(n, den):
    if n.__class__ is float:
        return NEG_INF if n < 0 else POS_INF
    q, r = divmod(n, den)
    return finite(Fraction(n, den) if r else q)


def _align(p, q):
    """Two packed families over one denominator: (den, rows of p, rows of q)."""
    den = lcm(p[0], q[0])
    return den, _rescale(p, den), _rescale(q, den)


def _rescale(packed, den):
    f = den // packed[0]
    if f == 1:
        return packed[1]
    return [tuple([n if n.__class__ is float else n * f for n in row]) for row in packed[1]]


def _residual(x, y):
    """<x|y> = min_i (y_i - x_i), where x_i = -inf or y_i = +inf bounds
    nothing and, failing that, x_i = +inf or y_i = -inf gives -inf."""
    best = _POS
    for p, q in zip(x, y):
        if p is _NEG or q is _POS:
            continue
        if p is _POS or q is _NEG:
            return _NEG
        if q - p < best:
            best = q - p
    return best


def _combine(coeffs, rows, dim):
    """max_i coeffs_i * rows_i, as a list of length dim."""
    acc = [_NEG] * dim
    for c, row in zip(coeffs, rows):
        if c is _NEG:
            continue
        for i, p in enumerate(row):
            if p is not _NEG:
                v = _POS if c is _POS or p is _POS else c + p
                if v > acc[i]:
                    acc[i] = v
    return acc


def residuate(gens, targets):
    """``((den, coeff rows), bad)`` for packed generators g and targets a:
    row t is (<g_1|a_t>, ..., <g_k|a_t>), and bad is the first target
    those coefficients do not recombine to (rows stop there), or None."""
    den, grows, trows = _align(gens, targets)
    coeffs = []
    for t, a in enumerate(trows):
        coeffs.append([_residual(g, a) for g in grows])
        if _combine(coeffs[-1], grows, len(a)) != list(a):
            return (den, coeffs), t
    return (den, coeffs), None


def basis_indices(gens):
    """Greedy weak basis of packed generators: each, in ascending order,
    is dropped iff the others still standing recombine to it."""
    den, rows = gens
    kept = list(range(len(rows)))
    for t in range(len(rows)):
        if residuate((den, [rows[j] for j in kept if j != t]), (den, [rows[t]]))[1] is None:
            kept.remove(t)
    return kept


def mat_mul(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """Tropical matrix product: (AB)_ij = max_k (A_ik + B_kj)."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    den, rows = pack(a.entries + b.entries)
    brows = rows[a.rows :]
    return TropMatrix(unpack((den, [_combine(arow, brows, b.cols) for arow in rows[: a.rows]])))


def transpose(a: TropMatrix) -> TropMatrix:
    return TropMatrix(list(zip(*a.entries)))


def scale(lam: TropScalar, x: TropVector) -> TropVector:
    """Tropical scaling: add lam to every entry."""
    den, (c, xs) = pack(((_lift(lam),), x.entries))
    return TropVector(unpack((den, [_combine(c, [xs], x.dim)]))[0], x.orientation)


def _check_same_shape(x: TropVector, y: TropVector, orientation_too=True):
    if x.dim != y.dim:
        raise ShapeError(f"dimension mismatch: {x.dim} vs {y.dim}")
    if orientation_too and x.orientation != y.orientation:
        raise ShapeError(f"orientation mismatch: {x.orientation} vs {y.orientation}")


def vec_oplus(x: TropVector, y: TropVector) -> TropVector:
    _check_same_shape(x, y)
    return TropVector([oplus(a, b) for a, b in zip(x.entries, y.entries)], x.orientation)


def vec_leq(x: TropVector, y: TropVector) -> bool:
    _check_same_shape(x, y)
    return all(leq(a, b) for a, b in zip(x.entries, y.entries))


def mat_oplus(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    if a.rows != b.rows or a.cols != b.cols:
        raise ShapeError(f"shape mismatch: {a.rows}x{a.cols} vs {b.rows}x{b.cols}")
    return TropMatrix(
        [[oplus(p, q) for p, q in zip(ra, rb)] for ra, rb in zip(a.entries, b.entries)]
    )


def bracket(x: TropVector, y: TropVector) -> TropScalar:
    """Residuation bracket <x|y>: the greatest lam with lam*x <= y.

    Computed by the closed form -(max_i x_i * (-y_i)), which agrees with
    the defining maximum for all TBAR entries, including the exceptional
    products involving both infinities.
    """
    _check_same_shape(x, y, orientation_too=False)
    den, (xs, ys) = pack((x.entries, y.entries))
    return _box(_residual(xs, ys), den)


def _normalized(xs):
    """Packed proj_normalize: the maximum finite entry moved to 0."""
    top = max(xs)
    if top.__class__ is float:  # +inf present, or no finite entry
        return xs
    return tuple([p if p is _NEG else p - top for p in xs])


def proj_normalize(x: TropVector) -> TropVector:
    """Canonical representative of x in projective space.

    Scales so the maximum finite entry becomes 0.  The zero vector, and
    any vector containing +inf, have no finite canonicalizing scaling
    and are returned unchanged.  Idempotent.
    """
    den, (xs,) = pack((x.entries,))
    normal = _normalized(xs)
    return x if normal is xs else TropVector(unpack((den, [normal]))[0], x.orientation)


def hilbert(x: TropVector, y: TropVector) -> TropScalar:
    """Hilbert projective distance: 0 for finite scalings, in either
    orientation, else -(<x|y> * <y|x>).  Values are nonnegative
    rationals or +inf."""
    _check_same_shape(x, y, orientation_too=False)
    den, (xs, ys) = pack((x.entries, y.entries))
    if _normalized(xs) == _normalized(ys):
        return ZERO
    return neg(otimes(_box(_residual(xs, ys), den), _box(_residual(ys, xs), den)))


def map_entries(a: TropMatrix, f) -> TropMatrix:
    return TropMatrix([[f(e) for e in r] for r in a.entries])
