"""Finitely generated tropical convex sets (spans) and their calculus.

A span is held as its generator matrix: the generators are the columns
of a column span's matrix and the rows of a row span's, so row_span(a)
and col_span(a) wrap a itself.  Membership is decided exactly by
principal coefficients: the recombination max_i <r_i|a> r_i is the
greatest element of the span below a, so it equals a iff a belongs,
that is iff the coefficients cover every coordinate where a is not
-inf (see linalg._residuate).
An element inf*a + b adjoined to a T-span, when scaling by +inf is
allowed, is the TBAR vector (+inf)*a + b, so the extension calculus is
plain vector arithmetic: vec_oplus adds such elements and scale scales
them by any TBAR scalar.
"""

from .errors import DomainError, ShapeError
from .linalg import (
    COL,
    ROW,
    TropMatrix,
    TropVector,
    hilbert,
    in_span,
    mat_mul,
    residuate,
    same_span,
    scale,
    stack,
    vec_oplus,
    weak_basis_matrix,
    zero_vector,
)
from .semiring import POS_INF, Domain, finite


class ConvexSpan:
    """Span of finitely many equally-shaped vectors, built from the
    vectors and held as their generator matrix (None for no vector).

    The generator list may be empty (the zero span, containing only the
    all -inf vector) provided dim and orientation are given explicitly.
    == compares dim, orientation and matrix, the generators in order;
    span_equal compares the sets they span.
    """

    __slots__ = ("matrix", "dim", "orientation")

    def __init__(self, generators, dim=None, orientation=None):
        generators = tuple(generators)
        if generators:
            dim = generators[0].dim
            orientation = generators[0].orientation
            for g in generators:
                if g.dim != dim or g.orientation != orientation:
                    raise ShapeError("span generators must share dim and orientation")
        elif dim is None or orientation is None:
            raise ShapeError("empty span needs explicit dim and orientation")
        elif orientation not in (ROW, COL):
            raise ShapeError(f"orientation must be {ROW!r} or {COL!r}, got {orientation!r}")
        elif dim < 1:
            raise ShapeError(f"span dim must be at least 1, got {dim}")
        self.matrix = stack(generators, orientation) if generators else None
        self.dim = dim
        self.orientation = orientation

    @property
    def generators(self):
        """The generators, a tuple of vectors read off the matrix."""
        m = self.matrix
        if m is None:
            return ()
        return tuple(m.row_vectors() if self.orientation == ROW else m.col_vectors())

    def __len__(self):
        m = self.matrix
        return 0 if m is None else m.rows if self.orientation == ROW else m.cols

    def __eq__(self, other):
        if not isinstance(other, ConvexSpan):
            return NotImplemented
        return (self.dim, self.orientation, self.matrix) == (
            other.dim, other.orientation, other.matrix
        )

    def __hash__(self):
        return hash((self.dim, self.orientation, self.matrix))

    def __repr__(self):
        return f"ConvexSpan({self.matrix!r}, dim={self.dim}, {self.orientation})"

    def check_vector(self, a: TropVector):
        """ShapeError unless a has the span's dim and orientation."""
        if a.dim != self.dim:
            raise ShapeError(f"dimension mismatch: {a.dim} vs span dim {self.dim}")
        if a.orientation != self.orientation:
            raise ShapeError(
                f"orientation mismatch: {a.orientation} vs span {self.orientation}"
            )

    def combine(self, coeffs) -> TropVector:
        """Evaluate the linear combination max_i coeffs_i * r_i: the
        generator matrix times the coefficient column (a row span: the
        coefficient row times the generator matrix)."""
        if len(coeffs) != len(self):
            raise ShapeError(f"expected {len(self)} coefficients")
        if not coeffs:
            return zero_vector(self.dim, self.orientation)
        c = TropVector(coeffs, self.orientation).as_matrix()
        if self.orientation == ROW:
            return mat_mul(c, self.matrix).row(0)
        return mat_mul(self.matrix, c).col(0)

    def member(self, a: TropVector) -> bool:
        """Exact span membership: the principal combination equals a."""
        self.check_vector(a)
        return in_span(self.matrix, a, self.orientation)

    def membership(self, a: TropVector):
        """(is_member, principal coefficients).

        The principal coefficients (<r_1|a>, ..., <r_k|a>) are the
        greatest ones: the combination they produce is always <= a, and
        dominates every other coefficient vector whose combination is
        <= a, so they witness membership whenever the verdict is true.
        """
        self.check_vector(a)
        coeffs, bad = residuate(self.matrix, a.as_matrix(), self.orientation)
        return bad is None, coeffs.as_vector().entries if coeffs is not None else ()

    def weak_basis(self) -> "ConvexSpan":
        """Minimal generating sublist, greedy in ascending index order.

        Each generator is dropped iff it lies in the span of all the
        others still standing (previously kept plus not yet scanned).
        All -inf generators are always dropped, so the zero span comes
        back empty.
        """
        basis = weak_basis_matrix(self.matrix, self.orientation)
        return _spanned(basis, self.dim, self.orientation)


def _spanned(m, dim, orientation) -> ConvexSpan:
    """The span of the columns (rows, for ROW) of m, or the zero span."""
    s = object.__new__(ConvexSpan)
    s.matrix, s.dim, s.orientation = m, dim, orientation
    return s


def row_span(a) -> ConvexSpan:
    return _spanned(a, a.cols, ROW)


def col_span(a) -> ConvexSpan:
    return _spanned(a, a.rows, COL)


def span_equal(s1: ConvexSpan, s2: ConvexSpan) -> bool:
    """Mutual membership of generators decides span equality."""
    if s1.dim != s2.dim or s1.orientation != s2.orientation:
        raise ShapeError("spans must share dim and orientation")
    return same_span(s1.matrix, s2.matrix, s1.orientation)


def principal_solution(b, c: TropVector) -> TropVector:
    """Greatest x with B*x <= c, as a column vector.

    B*x equals c for this x iff the system B*x = c is solvable at all.
    """
    if not isinstance(b, TropMatrix):
        raise ShapeError("principal_solution expects a matrix")
    if c.dim != b.rows:
        raise ShapeError(f"dimension mismatch: {c.dim} vs {b.rows} rows")
    return residuate(b, stack([c]))[0].col(0)


def _require_t_vector(v: TropVector, name):
    if v.domain() > Domain.T:
        raise DomainError(f"{name} must not contain +inf")


def extended_pair(a: TropVector, b: TropVector) -> TropVector:
    """inf*a + b as the TBAR vector (+inf)*a + b: +inf on the support of
    a and b elsewhere.  Both vectors must be +inf-free, so the +inf
    pattern recovers the support and the other entries the masked b."""
    if a.dim != b.dim or a.orientation != b.orientation:
        raise ShapeError("a and b must share dim and orientation")
    _require_t_vector(a, "a")
    _require_t_vector(b, "b")
    return vec_oplus(scale(POS_INF, a), b)


def welldef_criterion(a: TropVector, b: TropVector, a2: TropVector, b2: TropVector) -> bool:
    """Direct test that inf*a + b and inf*a2 + b2 coincide, without
    scaling by +inf: the supports of a and a2 agree (finite Hilbert
    distance for +inf-free vectors) and b + lam*a = b2 + lam*a for one
    sufficiently large lam.

    lam is pinned at 1 + (max finite entry of b, b2) - (min finite entry
    of a over its support); beyond that point lam*a dominates both b and
    b2 on the support of a.
    """
    for v, name in ((a, "a"), (b, "b"), (a2, "a2"), (b2, "b2")):
        _require_t_vector(v, name)
    if hilbert(a, a2) == POS_INF:
        return False
    hi = max(
        (e.value for v in (b, b2) for e in v.entries if e.is_finite), default=0
    )
    lo = min((e.value for e in a.entries if e.is_finite), default=0)
    lam = finite(1 + hi - lo)
    return vec_oplus(b, scale(lam, a)) == vec_oplus(b2, scale(lam, a))
