"""Finitely generated tropical convex sets (spans) and their calculus.

A span is held as a generator list.  Membership is decided exactly by
principal coefficients: the recombination max_i <r_i|a> r_i is the
greatest element of the span below a, so it equals a iff a belongs.
The extension calculus represents elements inf*a + b adjoined to a
T-span when scaling by +inf is allowed.
"""

from .errors import DomainError, ShapeError
from .linalg import (
    NEG_INF,
    TropMatrix,
    TropVector,
    ZERO,
    basis_indices,
    hilbert,
    residuate,
    scale,
    transpose,
    vec_oplus,
    zero_vector,
)
from .semiring import POS_INF, TropScalar, finite, oplus


class ConvexSpan:
    """Span of finitely many equally-shaped vectors, with a cached weak basis.

    The generator list may be empty (the zero span, containing only the
    all -inf vector) provided dim and orientation are given explicitly.
    """

    __slots__ = ("generators", "dim", "orientation", "_basis")

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
        self._basis = None

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

    def principal_coeffs(self, a: TropVector):
        """Greatest coefficients: (<r_1|a>, ..., <r_k|a>).

        The combination they produce is always <= a, and dominates every
        other coefficient vector whose combination is <= a.
        """
        return self.membership(a)[1]

    def combine(self, coeffs) -> TropVector:
        """Evaluate the linear combination max_i coeffs_i * r_i."""
        if len(coeffs) != len(self.generators):
            raise ShapeError(f"expected {len(self.generators)} coefficients")
        acc = zero_vector(self.dim, self.orientation)
        for c, g in zip(coeffs, self.generators):
            acc = vec_oplus(acc, scale(c, g))
        return acc

    def principal_combination(self, a: TropVector) -> TropVector:
        return self.combine(self.principal_coeffs(a))

    def member(self, a: TropVector) -> bool:
        """Exact span membership: the principal combination equals a."""
        self.check_vector(a)
        return residuate(self.generators, [a])[1] is None

    def membership(self, a: TropVector):
        """(is_member, principal coefficients); the coefficients witness
        membership whenever the verdict is true."""
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
        if self._basis is None:
            kept = [self.generators[i] for i in basis_indices(self.generators)]
            basis = ConvexSpan(kept, dim=self.dim, orientation=self.orientation)
            basis._basis = basis
            self._basis = basis
        return self._basis


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


class ExtendedPair:
    """Canonical form of inf*a + b for T-vectors a, b.

    Stored as the 0/-inf support pattern of a together with b masked to
    -inf on that support (those coordinates read +inf regardless of b).
    Two pairs denote the same element iff their canonical forms agree.
    """

    __slots__ = ("support", "rest")

    def __init__(self, support: TropVector, rest: TropVector):
        self.support = support
        self.rest = rest

    @property
    def dim(self):
        return self.support.dim

    @property
    def orientation(self):
        return self.support.orientation

    def __eq__(self, other):
        if not isinstance(other, ExtendedPair):
            return NotImplemented
        return self.support == other.support and self.rest == other.rest

    def __hash__(self):
        return hash((self.support, self.rest))

    def __repr__(self):
        return f"ExtendedPair(support={self.support!r}, rest={self.rest!r})"

    def denotation(self) -> TropVector:
        """The TBAR vector this pair stands for: +inf on the support,
        the masked b elsewhere."""
        return TropVector(
            [
                POS_INF if s == ZERO else r
                for s, r in zip(self.support.entries, self.rest.entries)
            ],
            self.orientation,
        )


def _require_t_vector(v: TropVector, name):
    if any(e.is_pos_inf for e in v.entries):
        raise DomainError(f"{name} must not contain +inf")


def extended_pair(a: TropVector, b: TropVector) -> ExtendedPair:
    """Canonicalize inf*a + b.  Both vectors must be +inf-free."""
    if a.dim != b.dim or a.orientation != b.orientation:
        raise ShapeError("a and b must share dim and orientation")
    _require_t_vector(a, "a")
    _require_t_vector(b, "b")
    support = TropVector(
        [NEG_INF if e.is_neg_inf else ZERO for e in a.entries], a.orientation
    )
    rest = TropVector(
        [bv if av.is_neg_inf else NEG_INF for av, bv in zip(a.entries, b.entries)],
        a.orientation,
    )
    return ExtendedPair(support, rest)


def pair_oplus(p: ExtendedPair, q: ExtendedPair) -> ExtendedPair:
    """(inf*a + b) + (inf*a' + b') = inf*(a + a') + (b + b')."""
    if p.dim != q.dim or p.orientation != q.orientation:
        raise ShapeError("pairs must share dim and orientation")
    support = vec_oplus(p.support, q.support)
    rest = TropVector(
        [
            NEG_INF if s == ZERO else oplus(r1, r2)
            for s, r1, r2 in zip(support.entries, p.rest.entries, q.rest.entries)
        ],
        p.orientation,
    )
    return ExtendedPair(support, rest)


def pair_scale(lam, p: ExtendedPair) -> ExtendedPair:
    """Scale inf*a + b by lam in TBAR."""
    if not isinstance(lam, TropScalar):
        lam = finite(lam)
    if lam.is_neg_inf:
        z = zero_vector(p.dim, p.orientation)
        return ExtendedPair(z, z)
    if lam.is_pos_inf:
        # inf*(inf*a + b) = inf*(a + b)
        support = TropVector(
            [
                NEG_INF if s.is_neg_inf and r.is_neg_inf else ZERO
                for s, r in zip(p.support.entries, p.rest.entries)
            ],
            p.orientation,
        )
        return ExtendedPair(support, zero_vector(p.dim, p.orientation))
    return ExtendedPair(p.support, scale(lam, p.rest))


def welldef_criterion(a: TropVector, b: TropVector, a2: TropVector, b2: TropVector) -> bool:
    """Direct test that inf*a + b and inf*a2 + b2 coincide, without
    canonical forms: the supports of a and a2 agree (finite Hilbert
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
