"""Exact max-plus (tropical) linear algebra.

Scalars are exact rationals extended by -inf and +inf; on top of them
sit vectors and matrices, the residuation bracket and Hilbert projective
metric, finitely generated convex spans with weak bases, the row/column
space duality maps, and decision procedures with witnesses for Green's
relations on square matrices.  The ``trop`` command line exposes the
same operations on text files plus a seeded property-check harness.
"""

from .convex import (
    ConvexSpan,
    col_span,
    extended_pair,
    principal_solution,
    row_span,
    span_equal,
    welldef_criterion,
)
from .duality import (
    IsoDescriptor,
    apply_iso,
    descriptor_valid,
    extend_iso_pair,
    identity_descriptor,
    kernel_witness,
    matrix_from_iso,
    theta,
    theta_prime,
    vec_neg,
)
from .errors import (
    DomainError,
    ParseError,
    PreconditionError,
    ShapeError,
    SizeLimitError,
    TropError,
    VerificationError,
)
from .greens import (
    GreenVerdict,
    definitize_witness_t,
    finitize_witness_ft,
    leq_L,
    leq_R,
    rel,
    rel_D,
)
from .linalg import (
    COL,
    ROW,
    TropMatrix,
    TropVector,
    bracket,
    hilbert,
    identity,
    mat_mul,
    proj_normalize,
    scale,
    transpose,
    vec_leq,
    vec_oplus,
    vector,
    zero_matrix,
    zero_vector,
)
from .semiring import (
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
    parse_scalar,
)

__version__ = "0.1.0"
