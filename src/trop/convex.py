"""Finitely generated tropical convex sets (spans) and their calculus.

A span is held as a generator list.  Membership is decided exactly by
principal coefficients: the recombination max_i <r_i|a> r_i is the
greatest element of the span below a, so it equals a iff a belongs.
An element inf*a + b adjoined to a T-span, when scaling by +inf is
allowed, is the TBAR vector (+inf)*a + b, so the extension calculus is
plain vector arithmetic: vec_oplus adds such elements and scale scales
them by any TBAR scalar.
"""

from .errors import DomainError, ShapeError
from .linalg import (
    ROW,
    TropMatrix,
    TropVector,
    basis_indices,
    hilbert,
    mat_mul,
    residuate,
    scale,
    stack,
    transpose,
    vec_oplus,
    zero_vector,
)
from .semiring import POS_INF, Domain, finite


class ConvexSpan:
    """Span of finitely many equally-shaped vectors.

    The generator list may be empty (the zero span, containing only the
    all -inf vector) provided dim and orientation are given explicitly.
    """

    __slots__ = ("generators", "dim", "orientation")

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
        self.generators = generators
        self.dim = dim
        self.orientation = orientation

    def __len__(self):
        return len(self.generators)

    def __repr__(self):
        return f"ConvexSpan({len(self.generators)} gens, dim={self.dim}, {self.orientation})"

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
        if len(coeffs) != len(self.generators):
            raise ShapeError(f"expected {len(self.generators)} coefficients")
        if not coeffs:
            return zero_vector(self.dim, self.orientation)
        c = TropVector(coeffs, self.orientation).as_matrix()
        if self.orientation == ROW:
            return mat_mul(c, stack(self.generators, ROW)).row(0)
        return mat_mul(stack(self.generators), c).col(0)

    def member(self, a: TropVector) -> bool:
        """Exact span membership: the principal combination equals a."""
        self.check_vector(a)
        return residuate(self.generators, [a])[1] is None

    def membership(self, a: TropVector):
        """(is_member, principal coefficients).

        The principal coefficients (<r_1|a>, ..., <r_k|a>) are the
        greatest ones: the combination they produce is always <= a, and
        dominates every other coefficient vector whose combination is
        <= a, so they witness membership whenever the verdict is true.
        """
        self.check_vector(a)
        coeffs, bad = residuate(self.generators, [a])
        return bad is None, coeffs.row(0).entries if coeffs is not None else ()

    def weak_basis(self) -> "ConvexSpan":
        """Minimal generating sublist, greedy in ascending index order.

        Each generator is dropped iff it lies in the span of all the
        others still standing (previously kept plus not yet scanned).
        All -inf generators are always dropped, so the zero span comes
        back empty.
        """
        kept = [self.generators[i] for i in basis_indices(self.generators)]
        return ConvexSpan(kept, dim=self.dim, orientation=self.orientation)


def row_span(a) -> ConvexSpan:
    return ConvexSpan(a.row_vectors())


def col_span(a) -> ConvexSpan:
    return ConvexSpan(a.col_vectors())


def span_equal(s1: ConvexSpan, s2: ConvexSpan) -> bool:
    """Mutual membership of generators decides span equality."""
    if s1.dim != s2.dim or s1.orientation != s2.orientation:
        raise ShapeError("spans must share dim and orientation")
    return (
        residuate(s2.generators, s1.generators)[1] is None
        and residuate(s1.generators, s2.generators)[1] is None
    )


def principal_solution(b, c: TropVector) -> TropVector:
    """Greatest x with B*x <= c, as a column vector.

    B*x equals c for this x iff the system B*x = c is solvable at all.
    """
    if not isinstance(b, TropMatrix):
        raise ShapeError("principal_solution expects a matrix")
    if c.dim != b.rows:
        raise ShapeError(f"dimension mismatch: {c.dim} vs {b.rows} rows")
    return residuate(b.col_vectors(), [c])[0].row(0).transpose()


def solve_right(b: TropMatrix, a: TropMatrix):
    """(X, None) for the principal solution X of B*X = A when it solves
    it, else (None, j) for the first column j of A outside C(B)."""
    coeffs, bad = residuate(b.col_vectors(), a.col_vectors())
    if bad is not None:
        return None, bad
    return transpose(coeffs), None


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
