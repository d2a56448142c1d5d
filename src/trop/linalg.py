"""Vectors and matrices over tropical scalars.

Dense, immutable containers plus the residuation bracket, the Hilbert
projective metric, and projective normalization.  Everything is exact;
the decision procedures built on top never see rounding.

The arithmetic loops run over a packed form that only this module
reads: sequences of scalars pack to ``(den, rows)``, with ``den`` a
common denominator of the finite entries and ``rows`` a list of tuples
of those entries times ``den`` as Python ints, and the floats -inf/+inf
as sentinels.  Ints compare exactly with them, so max and order need
no branch; sums and differences branch on the sentinels, never adding
a float to an int, and -inf absorbs +inf.  Packing reads each scalar's
int pair ``num/den``, and boxing reduces ``n/den`` by one gcd, so
neither builds a ``Fraction``.  A vector or matrix holds its packed
form from construction on, and nothing is filled in later: one built
from scalars packs them once, one a kernel returns keeps the kernel's
result, and ``entries`` boxes the packed rows on each read.  ``den``
need not be the least (a product of two den-6 matrices can be
integral), so packed forms are compared only over a common
denominator.  Other modules hand this one vectors and matrices and
never see the packed form.

The bracket, the Hilbert metric, span membership, weak bases, span
equality, principal solutions and the duality maps share one kernel,
``_residuate``, the package's one bracket implementation: it finds each
target's principal coefficients and, in the same pass, whether they
recombine to it, by the coordinates they cover (Cuninghame-Green's
covering criterion), so no recombination is built; asked to, it also
hands back each target's cover mask per generator.  ``dual_map``
negates one target's coefficient row: theta_A(x)_i = -<A_i|x> and
theta'_A(y)_j = -<A^j|y>, so A*(-x)^T and (-y)^T*A need no product,
and the same pass's verdict is the duality map's membership test.
Callers that read only the verdict (``in_span`` and ``same_span``)
stop at the verdict: they build no coefficient row, and they leave
each target once it is covered.  ``same_span`` compares two generator
matrices over one alignment, and answers yes with no pass at all when
the two families hold the same projective points.  The greedy weak
basis (``_greedy``, behind ``weak_basis_matrix``) is read off one
all-pairs pass of a family over itself: each vector, in ascending
order, is dropped iff the cover masks of the vectors still standing
besides it cover it, and the pass's coefficients are the family's
brackets.

``DFrame`` is the D relation's one frame: A and B aligned once, the
weak bases of their column spaces, the D search's bracket tables, its
row side (built only when the search reaches the row stage) and the
certificate of a match, all over the same ints.  One greedy pass over
the columns of A and one over those of B give the weak bases E and F,
and the rest is read off those passes: the bracket tables are their
coefficients between kept vectors, and the bridge's X (the columns of
A over E) and whether E recombines every column of A come from the
pass over A.  The certificate of a yes is three span checks: the
descriptor's row spaces, then the bridge's row space against A and its
column space against B.  ``certify`` returns the bridge, or raises the
verdict's VerificationError at the first check that fails, so the
checks and their wording live in one place.
"""

from itertools import chain, compress
from math import lcm
from operator import le

from .errors import ShapeError, VerificationError
from .semiring import (
    NEG_INF,
    POS_INF,
    Domain,
    TropScalar,
    ZERO,
    finite,
    neg,
    otimes,
    ratio,
)

_NEG = float("-inf")  # the only two floats in packed rows, so tested by identity
_POS = float("inf")
_INF = {NEG_INF.kind: _NEG, POS_INF.kind: _POS}
_BITS = tuple([1 << i for i in range(64)])  # the cover bits of _residuate up to dim 64

ROW = "row"
COL = "col"


class _Dense:
    """The packed form, the only state: set once, as vectors and
    matrices are immutable."""

    __slots__ = ("_packed",)

    @classmethod
    def _of(cls, packed):
        """A kernel result: never lifted or packed again."""
        x = object.__new__(cls)
        x._packed = packed
        return x

    def _rows(self):
        """The entries, freshly boxed from the packed rows."""
        den, rows = self._packed
        return tuple([tuple([_box(n, den) for n in row]) for row in rows])

    def _equal(self, other):
        _, rows, other_rows = _align(self._packed, other._packed)
        return rows == other_rows

    def domain(self) -> Domain:
        """The least domain holding every entry, in one pass: the
        sentinels decide, and the first +inf ends it."""
        found = Domain.FT
        for row in self._packed[1]:
            for e in row:
                if e is _POS:
                    return Domain.TBAR
                if e is _NEG:
                    found = Domain.T
        return found


class TropVector(_Dense):
    """A dense vector of tropical scalars with a row/column orientation."""

    __slots__ = ("orientation",)

    def __init__(self, entries, orientation=ROW):
        entries = tuple([_lift(e) for e in entries])
        if not entries:
            raise ShapeError("vector must have at least one entry")
        if orientation not in (ROW, COL):
            raise ShapeError(f"orientation must be {ROW!r} or {COL!r}, got {orientation!r}")
        self._packed, self.orientation = pack((entries,)), orientation

    @classmethod
    def _of(cls, packed, orientation):
        x = object.__new__(cls)
        x._packed, x.orientation = packed, orientation
        return x

    @property
    def entries(self):
        return self._rows()[0]

    @property
    def dim(self):
        return len(self._packed[1][0])

    def __eq__(self, other):
        if not isinstance(other, TropVector):
            return NotImplemented
        return self.orientation == other.orientation and self._equal(other)

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
        return TropVector._of(self._packed, COL if self.orientation == ROW else ROW)

    def as_matrix(self):
        den, (row,) = self._packed
        return TropMatrix._of((den, [row] if self.orientation == ROW else [(n,) for n in row]))


vector = TropVector  # builds a vector, lifting ints/Fractions to finite scalars


def _lift(v):
    return v if isinstance(v, TropScalar) else finite(v)


class TropMatrix(_Dense):
    """A dense rows x cols matrix of tropical scalars."""

    __slots__ = ()

    def __init__(self, rows):
        rows = tuple(tuple([_lift(e) for e in r]) for r in rows)
        if not rows or not rows[0]:
            raise ShapeError("matrix must have at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeError("matrix rows must all have the same length")
        self._packed = pack(rows)

    entries = property(_Dense._rows)

    @property
    def rows(self):
        return len(self._packed[1])

    @property
    def cols(self):
        return len(self._packed[1][0])

    def __eq__(self, other):
        if not isinstance(other, TropMatrix):
            return NotImplemented
        return self._equal(other)

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in r) for r in self.entries)
        return f"TropMatrix({self.rows}x{self.cols}: {body})"

    def row(self, i) -> TropVector:
        den, rows = self._packed
        return TropVector._of((den, [rows[i]]), ROW)

    def col(self, j) -> TropVector:
        den, rows = self._packed
        return TropVector._of((den, [tuple([r[j] for r in rows])]), COL)

    def row_vectors(self):
        return [self.row(i) for i in range(self.rows)]

    def col_vectors(self):
        den, rows = self._packed
        return [TropVector._of((den, [col]), COL) for col in zip(*rows)]

    def as_vector(self) -> TropVector:
        if self.rows == 1:
            return self.row(0)
        if self.cols == 1:
            return self.col(0)
        raise ShapeError(f"{self.rows}x{self.cols} matrix is not a vector")

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
    """Pack scalar sequences as ``(den, rows)`` over their least common
    denominator: the one encoder of scalars into the packed form."""
    seqs = tuple(seqs)
    den = lcm(*{e.den for s in seqs for e in s})  # an infinity's den is 1
    return den, [
        tuple([_INF[k] if (k := e.kind) in _INF else e.num * (den // e.den) for e in s])
        for s in seqs
    ]


def _box(n, den):
    if n.__class__ is float:
        return NEG_INF if n < 0 else POS_INF
    return ratio(n, den)


def _spanning(m, orientation):
    """The packed vectors a matrix spans with: its columns (for ROW,
    its rows) as rows over its den; none when m is None."""
    if m is None:
        return 1, []
    den, rows = m._packed
    return den, (rows if orientation == ROW else list(zip(*rows)))


def _align(p, q):
    """Two packed families over one denominator: (den, rows of p, rows of q)."""
    den = lcm(p[0], q[0])
    return den, _rescale(p, den), _rescale(q, den)


def _rescale(packed, den):
    f = den // packed[0]
    if f == 1:
        return packed[1]
    return [tuple([n if n.__class__ is float else n * f for n in row]) for row in packed[1]]


def _combine(coeffs, rows, dim):
    """max_i coeffs_i * rows_i, as a tuple of length dim."""
    acc = [_NEG] * dim
    for c, row in zip(coeffs, rows):
        if c is _NEG:
            continue
        for i, p in enumerate(row):
            if p is not _NEG:
                v = _POS if c is _POS or p is _POS else c + p
                if v > acc[i]:
                    acc[i] = v
    return tuple(acc)


def _residuate(grows, trows, rows=True, covers=None):
    """Coefficient rows (<g_1|a_t>, ..., <g_k|a_t>) of aligned target rows
    over aligned generator rows, and the first target they do not
    recombine to (rows stop there), or None.  With rows false, the
    verdict only: the first target not covered, or None, with no
    coefficient row built and no generator tried once a target is
    covered.  With rows true and a list covers, each target's cover
    masks, one per generator, are appended to covers.

    max_g <g|a> g <= a always, so a recombines iff every coordinate
    with a_i != -inf is covered, in the same pass that finds each
    c = <g|a>: a finite a_i by a finite g_i with a_i - g_i = c (c is
    the least such difference, so the ties at the minimum cover), and
    a_i = +inf by g_i = +inf with c != -inf or by g_i != -inf with
    c = +inf.  Covers are bitmasks over the coordinates, and a cover
    only grows towards the one it needs."""
    coeffs = []
    dim = len(trows[0]) if trows else 0
    bits = _BITS if dim <= len(_BITS) else [1 << i for i in range(dim)]  # zip stops at dim
    full = (1 << dim) - 1
    for t, a in enumerate(trows):
        need = full if _NEG not in a else sum(compress(bits, map(_NEG.__ne__, a)))
        row, masks, cover = [], [], 0
        for g in grows:
            if not rows and cover == need:
                break
            c, ties, tops, pos = _POS, 0, 0, 0
            for bit, p, q in zip(bits, g, a):
                if p is _NEG:
                    continue
                if q is _POS:  # bounds nothing; covered by an infinite c * g_i
                    pos |= bit
                    if p is _POS:
                        tops |= bit
                    continue
                if p is _POS or q is _NEG:
                    c, ties, tops = _NEG, 0, 0
                    break
                d = q - p
                if d < c:
                    c, ties = d, bit
                elif d == c:
                    ties |= bit
            mask = pos if c is _POS else ties | tops
            cover |= mask
            if rows:
                row.append(c)
                masks.append(mask)
        if rows:
            coeffs.append(tuple(row))
            if covers is not None:
                covers.append(masks)
        if cover != need:
            return (coeffs, t) if rows else t
    return (coeffs, None) if rows else None


def residuate(gens, targets, orientation=COL):
    """The principal solution X of gens * X = targets (for ROW, of
    X * gens = targets): column j of X (row j, for ROW) holds the
    principal coefficients of column (row) j of targets over the columns
    (rows) of gens.  Each side is aligned once.  Returns ``(X, bad)``,
    bad as for ``_residuate`` and X stopping at that target; None stands
    for a matrix of no vectors, and X is None when either side is."""
    den, grows, trows = _align(_spanning(gens, orientation), _spanning(targets, orientation))
    coeffs, bad = _residuate(grows, trows)
    if not (grows and trows):
        return None, bad
    x = TropMatrix._of((den, coeffs))
    return (x if orientation == ROW else transpose(x)), bad


def dual_map(a, x, orientation):
    """The duality image of the vector x under a and whether x lies in
    the span of the rows (columns, for COL) of a, from one pass: the
    image's component i is -<g_i|x> for g_i row (column) i of a, that
    is A*(-x)^T for ROW and (-x)^T*A for COL, and it is oriented the
    other way.  Returns ``(image, member)``.  A single target's
    coefficient row is complete whether or not it is covered, so the
    image is whole either way."""
    den, grows, trows = _align(_spanning(a, orientation), x._packed)
    (coeffs,), bad = _residuate(grows, trows)
    image = TropVector._of((den, [_negated(coeffs)]), COL if orientation == ROW else ROW)
    return image, bad is None


def in_span(gens, x, orientation=COL):
    """Whether the vector x recombines from the columns (rows, for ROW)
    of gens, None for no vector: the verdict only, over one alignment."""
    _, grows, trows = _align(_spanning(gens, orientation), x._packed)
    return _residuate(grows, trows, False) is None


def same_span(m1, m2, orientation=COL):
    """Whether the columns (rows, for ROW) of m1 and of m2 span one set:
    each side's vectors recombine from the other's.  Both sides are
    aligned once and no coefficient is kept; None stands for a matrix
    of no vectors."""
    return _same(*_align(_spanning(m1, orientation), _spanning(m2, orientation))[1:])


def _same(rows1, rows2):
    """Whether two aligned families span one set: at once when they hold
    the same projective points (each vector a finite multiple of one of
    the other family), else by each side's vectors recombining from the
    other's."""
    if set(map(_normalized, rows1)) == set(map(_normalized, rows2)):
        return True
    return _residuate(rows2, rows1, False) is None and _residuate(rows1, rows2, False) is None


def weak_basis_matrix(gens, orientation=COL):
    """The greedy weak basis of the columns (rows, for ROW) of a matrix,
    as the matrix of those kept, or None for none (or for gens None):
    each, in ascending order, is dropped iff the others still standing
    recombine to it."""
    den, vecs = _spanning(gens, orientation)
    kept = [vecs[i] for i in _greedy(vecs)[0]]
    if not kept:
        return None
    m = TropMatrix._of((den, kept))
    return m if orientation == ROW else transpose(m)


def _greedy(rows):
    """The greedy weak basis of aligned rows from one all-pairs pass:
    ``(kept, coeffs, covers)``, the indices kept, and coeffs[t][j] =
    <rows_j|rows_t> with covers[t][j] its cover mask, as ``_residuate``
    lists them.  Each row covers itself wholly (so the pass never stops
    and covers[t][t] is the cover row t needs), and row t is dropped iff
    the masks of the rows still standing besides it, kept ones before
    it and all after it, cover it."""
    covers = []
    coeffs = _residuate(rows, rows, True, covers)[0]
    kept = []
    for t, masks in enumerate(covers):
        if _union(masks, chain(kept, range(t + 1, len(rows)))) != masks[t]:
            kept.append(t)
    return kept, coeffs, covers


def _union(masks, js):
    """The cover of the masks at indices js."""
    cover = 0
    for j in js:
        cover |= masks[j]
    return cover


class DFrame:
    """Two +inf-free n x n matrices A and B aligned once, to one common
    denominator den, for deciding and certifying A D B over the same
    ints.  Building it runs the greedy of ``weak_basis_matrix`` once on
    the columns of A and once on those of B, which finds the weak bases
    E of C(A) and F of C(B) and keeps each pass's coefficient table and
    cover masks: the bracket tables <g_i|g_j> of E and of F, the
    principal solution X of E * X = A (the columns of A over E) and
    whether E recombines every column of A are all read off them."""

    __slots__ = ("den", "_rows_a", "_cols", "_greedies", "_bases")

    def __init__(self, a, b):
        den, self._rows_a, rows_b = _align(a._packed, b._packed)
        self.den, self._cols = den, (list(zip(*self._rows_a)), list(zip(*rows_b)))
        self._greedies = tuple(map(_greedy, self._cols))
        self._bases = tuple(
            [cols[i] for i in kept] for cols, (kept, _, _) in zip(self._cols, self._greedies)
        )

    @property
    def sizes(self):
        """The sizes of E and of F."""
        return tuple(map(len, self._bases))

    def tables(self):
        """The D search's bracket tables of E and of F: for each basis
        g_1..g_k, the k x k table <g_i|g_j> as lists, finite values
        Python ints times den and -inf None, read off the greedy's
        coefficient table.  Each kept g has a finite entry, so the
        diagonal <g|g> is 0."""
        return tuple(
            [[None if (c := coeffs[j][i]) is _NEG else c for j in kept] for i in kept]
            for kept, coeffs, _ in self._greedies
        )

    def rows(self):
        """The D search's row side of E and of F: for each basis
        g_1..g_k, the values of the g_i and the weak basis of the row
        space of its matrix, finite values Python ints times den and
        -inf None.  Each call runs two weak-basis greedies, so the
        search asks for it once, at the first permutation that passes
        both bracket stages."""
        side = []
        for basis in self._bases:
            rows = list(zip(*basis))
            side.append((list(map(_t_values, basis)), [_t_values(rows[i]) for i in _greedy(rows)[0]]))
        return tuple(side)

    def scalars(self, ns):
        """Ints over den as scalars."""
        return tuple([_box(n, self.den) for n in ns])

    def bases(self):
        """E and F as matrices over den, None for an empty basis."""
        return tuple(
            TropMatrix._of((self.den, list(zip(*basis)))) if basis else None
            for basis in self._bases
        )

    def certify(self, sigma, lambdas):
        """The bridge of the match e_i -> lambdas_i * f_sigma(i), lambdas
        ints over den: D = G * X, for G = F_sigma * diag lambdas and X
        the principal solution of E * X = A read off the frame's
        coefficient table, once R(E) = R(G), R(D) = R(A) and C(D) = C(B)
        hold.  The first check that fails raises
        VerificationError with rel_D's message for it; a column of A
        outside C(E) fails the row space check before D is built."""
        e, f = self._bases
        g = [tuple([n if n is _NEG else n + lam for n in f[s]]) for s, lam in zip(sigma, lambdas)]
        if not _same(list(zip(*e)), list(zip(*g))):
            raise VerificationError("rel_D: matched descriptor failed the row space check")
        kept, coeffs, covers = self._greedies[0]
        if any(_union(masks, kept) != masks[t] for t, masks in enumerate(covers)):
            raise VerificationError("rel_D: bridge failed row space check")
        cols_d = [_combine([x[i] for i in kept], g, len(self._rows_a)) for x in coeffs]
        if not _same(rows_d := list(zip(*cols_d)), self._rows_a):
            raise VerificationError("rel_D: bridge failed row space check")
        if not _same(cols_d, self._cols[1]):
            raise VerificationError("rel_D: bridge failed column space check")
        return TropMatrix._of((self.den, rows_d))


def _t_values(ns):
    """Packed T entries: finite ones as they are, -inf as None."""
    return tuple([None if n is _NEG else n for n in ns])


def mat_mul(a: TropMatrix, b: TropMatrix) -> TropMatrix:
    """Tropical matrix product: (AB)_ij = max_k (A_ik + B_kj)."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    den, arows, brows = _align(a._packed, b._packed)
    return TropMatrix._of((den, [_combine(row, brows, b.cols) for row in arows]))


def transpose(a: TropMatrix) -> TropMatrix:
    den, rows = a._packed
    return TropMatrix._of((den, list(zip(*rows))))


def stack(vectors, orientation=COL) -> TropMatrix:
    """The matrix whose columns (rows, for ROW) are the vectors, of one
    dim, over one common denominator; ShapeError for vectors of two dims."""
    packs = [x._packed for x in vectors]
    if len({len(p[1][0]) for p in packs}) > 1:
        raise ShapeError("stacked vectors must share one dim")
    den = lcm(*[p[0] for p in packs])
    rows = [row for p in packs for row in _rescale(p, den)]
    return TropMatrix._of((den, list(zip(*rows)) if orientation == COL else rows))


def scale_columns(gens, sigma, lambdas):
    """gens * P_sigma * diag(lambdas), for finite scalars lambdas: the
    matrix whose column i is lambdas_i times column sigma_i of gens,
    built in one pass over gens; None when gens is."""
    if gens is None:
        return None
    den, rows, (shifts,) = _align(gens._packed, pack((lambdas,)))
    return TropMatrix._of((den, [
        tuple([n if (n := row[s]).__class__ is float else n + c for s, c in zip(sigma, shifts)])
        for row in rows
    ]))


def scale(lam: TropScalar, x: TropVector) -> TropVector:
    """Tropical scaling: add lam to every entry."""
    den, (coeffs,), (xs,) = _align(pack(((_lift(lam),),)), x._packed)
    return TropVector._of((den, [_combine(coeffs, (xs,), len(xs))]), x.orientation)


def vec_neg(x: TropVector) -> TropVector:
    """-x: each finite entry negated, the infinities swapped."""
    den, (xs,) = x._packed
    return TropVector._of((den, [_negated(xs)]), x.orientation)


def _negated(xs):
    """Packed -x: each finite entry negated, the infinities swapped."""
    return tuple([_POS if n is _NEG else _NEG if n is _POS else -n for n in xs])


def _check_same_shape(x: TropVector, y: TropVector, orientation_too=True):
    if x.dim != y.dim:
        raise ShapeError(f"dimension mismatch: {x.dim} vs {y.dim}")
    if orientation_too and x.orientation != y.orientation:
        raise ShapeError(f"orientation mismatch: {x.orientation} vs {y.orientation}")


def vec_oplus(x: TropVector, y: TropVector) -> TropVector:
    _check_same_shape(x, y)
    den, (xs,), (ys,) = _align(x._packed, y._packed)
    return TropVector._of((den, [tuple(map(max, xs, ys))]), x.orientation)


def vec_leq(x: TropVector, y: TropVector) -> bool:
    _check_same_shape(x, y)
    _, (xs,), (ys,) = _align(x._packed, y._packed)
    return all(map(le, xs, ys))


def bracket(x: TropVector, y: TropVector) -> TropScalar:
    """Residuation bracket <x|y>: the greatest lam with lam*x <= y.

    Defined by the closed form -(max_i x_i * (-y_i)), which agrees with
    the defining maximum for all TBAR entries, including the exceptional
    products involving both infinities, and computed by ``_residuate``,
    the kernel every decider uses, as y's one coefficient over x.
    """
    _check_same_shape(x, y, orientation_too=False)
    den, (xs,), (ys,) = _align(x._packed, y._packed)
    ((c,),), _ = _residuate((xs,), (ys,))  # one target's row is whole, covered or not
    return _box(c, den)


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
    den, (xs,) = x._packed
    normal = _normalized(xs)
    return x if normal is xs else TropVector._of((den, [normal]), x.orientation)


def hilbert(x: TropVector, y: TropVector) -> TropScalar:
    """Hilbert projective distance: 0 for finite scalings, in either
    orientation, else -(<x|y> * <y|x>).  Values are nonnegative
    rationals or +inf."""
    _check_same_shape(x, y, orientation_too=False)
    den, (xs,), (ys,) = _align(x._packed, y._packed)
    if _normalized(xs) == _normalized(ys):
        return ZERO
    ((c,),), _ = _residuate((xs,), (ys,))
    ((d,),), _ = _residuate((ys,), (xs,))
    return neg(otimes(_box(c, den), _box(d, den)))
