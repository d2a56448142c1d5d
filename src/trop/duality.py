"""Duality maps between row and column spaces, and span isomorphisms.

The duality map of a matrix A sends a row-space element x to A*(-x)^T,
entry i -<A_i|x>, and its inverse sends y to (-y)^T*A, entry j -<A^j|y>:
one pass, linalg.dual_map, finds the image and whether x is in the span.
It reverses the residuation bracket and anti-commutes with finite
scaling, so composing two such maps yields a genuine linear isomorphism
of spans.  IsoDescriptor records a candidate isomorphism concretely as
a basis correspondence, a named tuple of its four fields; validity is
always certified by a row-space equality check, never assumed.  Its
linear extension at A is one product G*X: G = F_sigma * diag lambda
holds the basis images and is built where it is read, and X holds the
principal coefficients of A over the basis.  Every check is linalg's
same_span: R(E) = R(G) for the descriptor, and R(D) = R(A) and
C(D) = C(F) for the bridge; rel_D runs the same ones in its D frame.
"""

from collections import namedtuple

from .convex import ConvexSpan, extended_pair
from .errors import DomainError, PreconditionError, ShapeError, VerificationError
from .linalg import (
    COL,
    ROW,
    TropMatrix,
    TropVector,
    dual_map,
    mat_mul,
    residuate,
    same_span,
    scale_columns,
    stack,
    vec_neg,
    zero_matrix,
)
from .semiring import ZERO, TropScalar


def theta(a: TropMatrix, x: TropVector, strict: bool = True) -> TropVector:
    """Duality map of A at a row vector x: the column vector A*(-x)^T.

    Component i equals -<A_i|x>.  The bracket/scaling/metric laws hold
    for x in the row space of A, as decided by the pass that computes
    the image; strict mode rejects other x, lenient mode maps it too.
    """
    if x.orientation != ROW or x.dim != a.cols:
        raise ShapeError(f"theta expects a row vector of dim {a.cols}")
    image, member = dual_map(a, x, ROW)
    if strict and not member:
        raise DomainError("theta: vector is not in the row space (use lenient mode to force)")
    return image


def theta_prime(a: TropMatrix, y: TropVector, strict: bool = True) -> TropVector:
    """Inverse duality map at a column vector y: the row vector (-y)^T*A, entry j -<A^j|y>."""
    if y.orientation != COL or y.dim != a.rows:
        raise ShapeError(f"theta_prime expects a column vector of dim {a.rows}")
    image, member = dual_map(a, y, COL)
    if strict and not member:
        raise DomainError(
            "theta_prime: vector is not in the column space (use lenient mode to force)"
        )
    return image


def kernel_witness(b: TropMatrix, z: TropVector):
    """For a row vector z outside the row space of B, produce columns
    x, y with B*x = B*y but z*x != z*y.

    x is -z transposed, so B*x is theta_B(z), from the pass that finds z
    outside the row space; y is B*x pulled back through the inverse
    duality map and negated.  Both identities are re-verified by matrix
    products before returning; a failure there would be an internal bug.
    """
    if z.orientation != ROW or z.dim != b.cols:
        raise ShapeError(f"kernel_witness expects a row vector of dim {b.cols}")
    bx, member = dual_map(b, z, ROW)
    if member:
        raise PreconditionError("kernel_witness: z lies in the row space of B")
    x = vec_neg(z).transpose()
    y = vec_neg(theta_prime(b, bx, strict=False)).transpose()
    by = mat_mul(b, y.as_matrix()).col(0)
    if bx != by:
        raise VerificationError("kernel_witness: B*x != B*y")
    zrow = z.as_matrix()
    if mat_mul(zrow, x.as_matrix()) == mat_mul(zrow, y.as_matrix()):
        raise VerificationError("kernel_witness: z*x == z*y")
    return x, y


class IsoDescriptor(namedtuple("IsoDescriptor", "source target sigma lambdas")):
    """A candidate span isomorphism e_i -> lambdas_i * f_sigma(i).

    e_i and f_j are the generators of the source and target spans, both
    column spans, sigma is a 0-based permutation of the basis indices and
    every lambda is a finite rational.  The map extends linearly to the
    whole source span via principal coefficients; whether the extension
    is a genuine isomorphism is decided by :func:`descriptor_valid`.
    An immutable named tuple, checked on every construction (_replace,
    copy and pickle included); it stores no derived state.
    """

    __slots__ = ()

    def __new__(cls, source: ConvexSpan, target: ConvexSpan, sigma: tuple, lambdas: tuple):
        if ROW in (source.orientation, target.orientation):
            raise ShapeError("descriptor bases must be column spans")
        k = len(source)
        if not (len(target) == len(sigma) == len(lambdas) == k):
            raise ShapeError("descriptor parts must have equal length")
        if sorted(sigma) != list(range(k)):
            raise ShapeError("sigma must be a permutation of 0..k-1")
        for lam in lambdas:
            if not (isinstance(lam, TropScalar) and lam.is_finite):
                raise DomainError("descriptor scalings must be finite rationals")
        return super().__new__(cls, source, target, sigma, lambdas)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    @property
    def k(self):
        return len(self.source)


def identity_descriptor(span: ConvexSpan) -> IsoDescriptor:
    k = len(span)
    return IsoDescriptor(span, span, tuple(range(k)), (ZERO,) * k)


def descriptor_valid(f: IsoDescriptor) -> bool:
    """Certify that the descriptor extends to a linear isomorphism.

    The correspondence e_i -> image_i extends iff the matrices E and G
    having the e_i and the images as respective i-th columns share a
    row space.  The empty descriptor (zero span to zero span) is valid.
    """
    return same_span(f.source.matrix, scale_columns(f.target.matrix, f.sigma, f.lambdas), ROW)


def _extend(f: IsoDescriptor, a: TropMatrix) -> TropMatrix:
    """G*X, for X the principal solution of E*X = A, A of the source
    span's dim: f extended to each column."""
    x, bad = residuate(f.source.matrix, a)
    if bad is not None:
        raise DomainError("apply_iso: vector is not in the source span")
    if x is None:  # k = 0, and A is zero
        return zero_matrix(f.target.dim, a.cols)
    return mat_mul(scale_columns(f.target.matrix, f.sigma, f.lambdas), x)


def apply_iso(f: IsoDescriptor, c: TropVector) -> TropVector:
    """Extend the descriptor linearly and evaluate at c.

    c must belong to the span of the source basis E; its principal
    coefficients x give G*x, the one-column case of matrix_from_iso.
    Agrees with e_i -> lambdas_i * f_sigma(i) on the basis itself,
    and is linear whenever the descriptor is valid.
    """
    f.source.check_vector(c)
    return _extend(f, stack([c])).col(0)


def extend_iso_pair(g: IsoDescriptor, a: TropVector, b: TropVector) -> TropVector:
    """inf*a + b mapped to inf*g(a) + g(b) for explicit representatives,
    as the TBAR vector (+inf)*g(a) + g(b) (see extended_pair)."""
    return extended_pair(apply_iso(g, a), apply_iso(g, b))


def matrix_from_iso(a: TropMatrix, f: IsoDescriptor) -> TropMatrix:
    """Apply the isomorphism to every column of A and verify the result.

    The bridge D = G*X (G the basis images, X the principal solution
    of E*X = A over the source basis E) satisfies R(D) = R(A) and
    C(D) = span of the images = the target span (sigma permutes, every
    lambda is finite); both are re-checked here, by the two span
    checks of the bridge certificate rel_D runs, so an invalid
    descriptor surfaces as a VerificationError naming the failing side
    rather than as a wrong bridge.
    """
    f.source.check_vector(a.col(0))
    d = _extend(f, a)
    if not same_span(d, a, ROW):
        raise VerificationError("matrix_from_iso: row spaces differ")
    if not same_span(d, f.target.matrix):
        raise VerificationError("matrix_from_iso: column space differs from basis image span")
    return d
