"""Seeded property-check harness.

Each property P1..P16 replays a fixed number of randomized trials and
collects counterexamples.  Sampling is driven entirely by Python's
``random.Random`` (Mersenne Twister) seeded from the config, so a
report is a pure function of its configuration: reruns are
byte-identical.  Wall-clock time is kept on the report object for
interactive display but never serialized.
"""

import functools
import itertools
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .convex import (
    ConvexSpan,
    col_span,
    extended_pair,
    row_span,
    span_equal,
    welldef_criterion,
)
from .duality import extend_iso_pair, theta, theta_prime, kernel_witness, vec_neg
from .errors import TropError
from .formats import format_matrix, format_vector
from .greens import (
    definitize_witness_t,
    finitize_witness_ft,
    leq_R,
    rel_D,
)
from .linalg import (
    COL,
    ROW,
    TropMatrix,
    TropVector,
    bracket,
    hilbert,
    mat_mul,
    proj_normalize,
    scale,
    scale_columns,
    transpose,
    vec_leq,
    vec_oplus,
    zero_vector,
)
from .semiring import (
    Domain,
    NEG_INF,
    POS_INF,
    TropScalar,
    ZERO,
    finite,
    leq,
    neg,
    oplus,
    otimes,
)


@dataclass(frozen=True)
class EntryPool:
    """Scalar sampling spec: small rationals plus optional infinities.

    Numerators are drawn uniformly from [-num_bound, num_bound] and
    denominators from (1, 2, 3); small exact values maximize the ties
    and collisions where max-plus degeneracies live.
    """

    num_bound: int = 8
    p_neg_inf: float = 0.0
    p_pos_inf: float = 0.0

    @staticmethod
    def for_domain(domain: Domain) -> "EntryPool":
        if domain == Domain.FT:
            return EntryPool()
        if domain == Domain.T:
            return EntryPool(p_neg_inf=0.2)
        return EntryPool(p_neg_inf=0.2, p_pos_inf=0.1)


@dataclass(frozen=True)
class HarnessConfig:
    property_id: str
    trials: int
    dim_range: tuple
    pool: EntryPool
    seed: int = 0


@dataclass(frozen=True)
class Failure:
    trial: int
    description: str
    artifacts: tuple = ()  # (name, text-block) pairs in the shared formats
    replay: str = ""  # suggested trop command over the artifact files


@dataclass
class RunReport:
    property_id: str
    trials: int
    seed: int
    failures: list
    elapsed: float = 0.0  # informational only; excluded from serialization

    @property
    def ok(self):
        return not self.failures

    def to_text(self) -> str:
        lines = [
            f"report {self.property_id}",
            f"seed {self.seed}",
            f"trials {self.trials}",
            f"failures {len(self.failures)}",
        ]
        for i, f in enumerate(self.failures):
            lines.append(f"--- failure {i + 1} (trial {f.trial}) ---")
            lines.append(f.description)
            for name, block in f.artifacts:
                lines.append(f"artifact {name}")
                lines.append(block.rstrip("\n"))
            if f.replay:
                lines.append(f"replay: {f.replay}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "property": self.property_id,
            "seed": self.seed,
            "trials": self.trials,
            "failures": [
                {
                    "trial": f.trial,
                    "description": f.description,
                    "artifacts": [{"name": n, "text": t} for n, t in f.artifacts],
                    "replay": f.replay,
                }
                for f in self.failures
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class Sampler:
    """All randomness flows through here so trial sequences are stable."""

    def __init__(self, rng: Random, pool: EntryPool):
        self.rng = rng
        self.pool = pool

    def scalar(self, pool=None) -> TropScalar:
        pool = pool or self.pool
        r = self.rng.random()
        if r < pool.p_neg_inf:
            return NEG_INF
        if r < pool.p_neg_inf + pool.p_pos_inf:
            return POS_INF
        return self.finite_scalar(pool)

    def finite_scalar(self, pool=None) -> TropScalar:
        pool = pool or self.pool
        num = self.rng.randint(-pool.num_bound, pool.num_bound)
        den = self.rng.choice((1, 2, 3))
        return finite(Fraction(num, den))

    def vector(self, dim, orientation=ROW, pool=None) -> TropVector:
        return TropVector([self.scalar(pool) for _ in range(dim)], orientation)

    def matrix(self, rows, cols, pool=None) -> TropMatrix:
        return TropMatrix([[self.scalar(pool) for _ in range(cols)] for _ in range(rows)])

    def dim(self, dim_range):
        return self.rng.randint(*dim_range)

    def span_member(self, generators, pool=None) -> TropVector:
        """A random combination of the given vectors, or of a span's."""
        span = generators if isinstance(generators, ConvexSpan) else ConvexSpan(generators)
        return span.combine([self.scalar(pool) for _ in range(len(span))])


def bracket_oracle(x: TropVector, y: TropVector) -> TropScalar:
    """The defining maximum of the bracket, computed by breakpoint
    enumeration and feasibility checks only (independent of the closed
    form): max{lam : lam*x <= y}."""

    def feasible(lam):
        return vec_leq(scale(lam, x), y)

    if feasible(POS_INF):
        return POS_INF
    breaks = [
        yi.value - xi.value
        for xi, yi in zip(x.entries, y.entries)
        if xi.is_finite and yi.is_finite
    ]
    if breaks:
        c = finite(min(breaks))
        if feasible(c):
            return c
    return NEG_INF


def _member_oracle(gens, a: TropVector) -> bool:
    """Span membership by the recombination max_i <g_i|a> g_i = a, with
    the coefficients from bracket_oracle and the sum in boxed scalars."""
    coeffs = [bracket_oracle(g, a) for g in gens]
    terms = [[otimes(c, e) for e in g.entries] for c, g in zip(coeffs, gens)]
    return [functools.reduce(oplus, column) for column in zip(*terms)] == list(a.entries)


def _fail(failures, trial, description, replay="", **artifacts):
    """Record a failure.  Each keyword artifact, a vector or a matrix, is
    formatted here as ``name.vec`` or ``name.mat``, in argument order."""
    arts = tuple(
        (f"{name}.vec", format_vector(v)) if isinstance(v, TropVector)
        else (f"{name}.mat", format_matrix(v))
        for name, v in artifacts.items()
    )
    failures.append(Failure(trial, description, arts, replay))


# ---------------------------------------------------------------------------
# properties


def _p1_bracket_closed_form(cfg, s, failures):
    for trial in range(cfg.trials):
        dim = s.dim(cfg.dim_range)
        x = s.vector(dim)
        y = s.vector(dim)
        got = bracket(x, y)
        want = bracket_oracle(x, y)

        def fail(description):
            _fail(failures, trial, description, "trop bracket x.vec y.vec", x=x, y=y)

        if got != want:
            fail(f"closed form gives {got} but the defining maximum is {want}")
            continue
        if not vec_leq(scale(got, x), y):
            fail(f"lam={got} does not satisfy lam*x <= y")
            continue
        if got.is_finite:
            eps = s.rng.choice((Fraction(1), Fraction(1, 2), Fraction(17)))
            bigger = finite(got.value + eps)
            if vec_leq(scale(bigger, x), y):
                fail(f"lam={got} is not maximal: lam+{eps} still satisfies lam*x <= y")


def _p2_bracket_sign_change(cfg, s, failures):
    for trial in range(cfg.trials):
        dim = s.dim(cfg.dim_range)
        x = s.vector(dim)
        y = s.vector(dim)
        lhs = bracket(x, y)
        rhs = bracket(vec_neg(y), vec_neg(x))
        if lhs != rhs:
            _fail(failures, trial, f"<x|y> = {lhs} but <-y|-x> = {rhs}",
                  "trop bracket x.vec y.vec", x=x, y=y)


def _p3_order_bracket(cfg, s, failures):
    for trial in range(cfg.trials):
        dim = s.dim(cfg.dim_range)
        x = s.vector(dim)
        y = s.vector(dim)
        if trial % 2:
            y = vec_oplus(x, y)  # bias towards comparable pairs
        ordered = vec_leq(x, y)
        nonneg = leq(ZERO, bracket(x, y))
        if ordered != nonneg:
            _fail(failures, trial, f"x <= y is {ordered} but <x|y> >= 0 is {nonneg}",
                  "trop bracket x.vec y.vec", x=x, y=y)


def _p4_metric_axioms(cfg, s, failures):
    for trial in range(cfg.trials):
        dim = s.dim(cfg.dim_range)
        x, y, z = (s.vector(dim) for _ in range(3))

        def fail(description):
            _fail(failures, trial, description, "trop metric x.vec y.vec", x=x, y=y, z=z)

        dxy, dyx = hilbert(x, y), hilbert(y, x)
        if hilbert(x, x) != ZERO:
            fail(f"d(x,x) = {hilbert(x, x)} != 0")
        if dxy != dyx:
            fail(f"symmetry broken: {dxy} vs {dyx}")
        if not leq(ZERO, dxy):
            fail(f"negative distance {dxy}")
        dxz, dyz = hilbert(x, z), hilbert(y, z)
        if not leq(dxz, otimes(dxy, dyz)):
            fail(f"triangle inequality broken: d(x,z)={dxz} > {dxy}+{dyz}")
        lam, mu = s.finite_scalar(), s.finite_scalar()
        if hilbert(scale(lam, x), scale(mu, y)) != dxy:
            fail(f"not scaling invariant at lam={lam}, mu={mu}")


def _p5_duality_roundtrip(cfg, s, failures):
    for trial in range(cfg.trials):
        rows, cols = s.dim(cfg.dim_range), s.dim(cfg.dim_range)
        a = s.matrix(rows, cols)
        x = s.span_member(a.row_vectors())
        y = s.span_member(a.col_vectors())
        if theta_prime(a, theta(a, x)) != x:
            _fail(failures, trial, "theta_prime(theta(x)) != x on R(A)",
                  "trop dual A.mat x.vec", A=a, x=x, y=y)
            continue
        if theta(a, theta_prime(a, y)) != y:
            _fail(failures, trial, "theta(theta_prime(y)) != y on C(A)",
                  "trop dual --inverse A.mat y.vec", A=a, x=x, y=y)
            continue
        fin = s.matrix(rows, cols, EntryPool.for_domain(Domain.FT))
        xf = s.span_member(fin.row_vectors(), EntryPool.for_domain(Domain.FT))
        img = theta(fin, xf)
        if not all(e.is_finite for e in img.entries):
            _fail(failures, trial, "duality image of a finitary row-space member is not finite",
                  "trop dual A.mat x.vec", A=fin, x=xf)
        elif theta_prime(fin, img) != xf:
            _fail(failures, trial, "finitary round-trip broke", "trop dual A.mat x.vec",
                  A=fin, x=xf)


def _p6_anti_isomorphism(cfg, s, failures):
    for trial in range(cfg.trials):
        rows, cols = s.dim(cfg.dim_range), s.dim(cfg.dim_range)
        m = s.matrix(rows, cols)
        x = s.span_member(m.row_vectors())
        y = s.span_member(m.row_vectors())
        lhs = bracket(x, y)
        rhs = bracket(theta(m, y), theta(m, x))
        if lhs != rhs:
            _fail(failures, trial, f"bracket not reversed: {lhs} vs {rhs}",
                  "trop bracket x.vec y.vec", A=m, x=x, y=y)
            continue
        lam = s.finite_scalar()
        if theta(m, scale(lam, x)) != scale(neg(lam), theta(m, x)):
            _fail(failures, trial, f"anti-homogeneity broken at lam={lam}",
                  "trop dual A.mat x.vec", A=m, x=x, y=y)


def _p7_antitone(cfg, s, failures):
    for trial in range(cfg.trials):
        rows, cols = s.dim(cfg.dim_range), s.dim(cfg.dim_range)
        m = s.matrix(rows, cols)
        x = s.span_member(m.row_vectors())
        y = vec_oplus(x, s.span_member(m.row_vectors()))  # x <= y inside R(A)
        if not vec_leq(theta(m, y), theta(m, x)):
            _fail(failures, trial, "duality map is not order reversing",
                  "trop dual A.mat x.vec", A=m, x=x, y=y)


def _p8_isometry(cfg, s, failures):
    for trial in range(cfg.trials):
        rows, cols = s.dim(cfg.dim_range), s.dim(cfg.dim_range)
        m = s.matrix(rows, cols)
        x = s.span_member(m.row_vectors())
        y = s.span_member(m.row_vectors())
        d1 = hilbert(x, y)
        d2 = hilbert(theta(m, x), theta(m, y))
        if d1 != d2:
            _fail(failures, trial, f"duality map is not an isometry: {d1} vs {d2}",
                  "trop metric x.vec y.vec", A=m, x=x, y=y)


def _p9_changecoords(cfg, s, failures):
    for trial in range(cfg.trials):
        dim = s.dim(cfg.dim_range)
        k = s.rng.randint(1, max(2, dim))
        gens = [s.vector(dim) for _ in range(k)]
        span = ConvexSpan(gens)

        def coeff_vector(v):
            return TropVector(span.membership(v)[1], ROW)

        a, b = s.vector(dim), s.vector(dim)
        if not leq(bracket(a, b), bracket(coeff_vector(a), coeff_vector(b))):
            _fail(failures, trial, "coordinate-change inequality broken",
                  "trop bracket a.vec b.vec", a=a, b=b)
            continue
        am = s.span_member(gens)
        bm = s.span_member(gens)
        lhs = bracket(am, bm)
        rhs = bracket(coeff_vector(am), coeff_vector(bm))
        if lhs != rhs:
            _fail(failures, trial,
                  f"coordinate-change equality broken on span members: {lhs} vs {rhs}",
                  "trop bracket a.vec b.vec", a=am, b=bm)


def _p10_kernel_witness(cfg, s, failures):
    for trial in range(cfg.trials):
        rows, cols = s.dim(cfg.dim_range), s.dim(cfg.dim_range)
        z = None
        for _ in range(50):
            b = s.matrix(rows, cols)
            rspan = row_span(b)
            for _ in range(20):
                cand = s.vector(cols)
                if not rspan.member(cand):
                    z = cand
                    break
            if z is not None:
                break
        if z is None:
            continue  # row space filled everything we sampled; skip trial
        try:
            x, y = kernel_witness(b, z)
        except TropError as exc:
            _fail(failures, trial, f"kernel witness construction failed: {exc}", B=b, z=z)
            continue
        bx = mat_mul(b, x.as_matrix())
        by = mat_mul(b, y.as_matrix())
        zx = mat_mul(z.as_matrix(), x.as_matrix())
        zy = mat_mul(z.as_matrix(), y.as_matrix())
        if bx != by or zx == zy:
            _fail(failures, trial, "kernel witness identities do not hold", B=b, z=z)


def _p11_landr_consistency(cfg, s, failures):
    domains = (Domain.FT, Domain.T, Domain.TBAR)
    for trial in range(cfg.trials):
        domain = domains[trial % 3]
        pool = EntryPool.for_domain(domain)
        n = s.dim(cfg.dim_range)
        a = s.matrix(n, n, pool)
        b = s.matrix(n, n, pool)
        if trial % 2:
            # bias towards positive instances: A = B*X is always <=_R B
            a = mat_mul(b, s.matrix(n, n, pool))

        def fail(description):
            _fail(failures, trial, description, "trop green A.mat B.mat --relation leq-r",
                  A=a, B=b)

        verdict = leq_R(a, b)
        gens = b.col_vectors()
        by_membership = all(_member_oracle(gens, a.col(j)) for j in range(n))
        if verdict.holds != by_membership:
            fail(f"principal-solution route says {verdict.holds}, membership route "
                 f"says {by_membership}")
            continue
        if verdict.holds:
            ((_, x),) = verdict.witnesses
            if mat_mul(b, x) != a:
                fail("returned witness does not re-multiply")


def _p12_inheritance(cfg, s, failures):
    ft = EntryPool.for_domain(Domain.FT)
    t = EntryPool.for_domain(Domain.T)
    for trial in range(cfg.trials):
        n = s.dim(cfg.dim_range)
        a = s.matrix(n, n, ft)
        b = s.matrix(n, n, ft)
        verdicts = [leq_R(a, b, domain=d).holds for d in (Domain.FT, Domain.T, Domain.TBAR)]
        if len(set(verdicts)) != 1:
            _fail(failures, trial, f"verdicts differ across domains: {verdicts}",
                  "trop green A.mat B.mat --relation leq-r --domain ft", A=a, B=b)
            continue
        # witness transfer, finitary side: B*P = A with -inf entries in P
        bf = s.matrix(n, n, ft)
        rows = s.matrix(n, n, t).entries
        cols_fixed = []
        for j in range(n):
            col = [rows[i][j] for i in range(n)]
            if all(e.is_neg_inf for e in col):
                col[s.rng.randrange(n)] = s.finite_scalar()
            cols_fixed.append(col)
        p = TropMatrix([[cols_fixed[j][i] for j in range(n)] for i in range(n)])
        af = mat_mul(bf, p)
        try:
            p_ft = finitize_witness_ft(bf, af, p)
        except TropError as exc:
            _fail(failures, trial, f"finitize transfer failed: {exc}", B=bf, P=p)
            continue
        if mat_mul(bf, p_ft) != af or p_ft.domain() != Domain.FT:
            _fail(failures, trial, "finitized witness is wrong", B=bf, P=p)
            continue
        # completed side: +inf entries only ever hit an all -inf column of B
        rows = s.matrix(n, n, t).entries
        kill = s.rng.randrange(n)
        bt = TropMatrix(
            [[NEG_INF if j == kill else rows[i][j] for j in range(n)] for i in range(n)]
        )
        rows = s.matrix(n, n, t).entries
        pt = TropMatrix(
            [
                [POS_INF if i == kill and s.rng.random() < 0.6 else rows[i][j]
                 for j in range(n)]
                for i in range(n)
            ]
        )
        at = mat_mul(bt, pt)
        try:
            p_t = definitize_witness_t(bt, at, pt)
        except TropError as exc:
            _fail(failures, trial, f"definitize transfer failed: {exc}", B=bt, P=pt)
            continue
        if mat_mul(bt, p_t) != at or p_t.domain() > Domain.T:
            _fail(failures, trial, "definitized witness is wrong", B=bt, P=pt)


def _perm_scale_variant(s, a):
    """Columns permuted and finitely rescaled: same column space."""
    perm = list(range(a.cols))
    s.rng.shuffle(perm)
    return scale_columns(a, perm, [s.finite_scalar() for _ in perm])


def _bridge_ok(v, a, b):
    """The D bridge exists and re-verifies: R(bridge) = R(a), C(bridge) = C(b)."""
    return (
        v.bridge is not None
        and span_equal(row_span(v.bridge), row_span(a))
        and span_equal(col_span(v.bridge), col_span(b))
    )


def _decide_d(failures, trial, label, a, b):
    """rel_D(a, b).holds, recording a failure if a positive verdict's
    bridge does not re-verify."""
    v = rel_D(a, b)
    if v.holds and not _bridge_ok(v, a, b):
        _fail(failures, trial, f"bridge for {label} fails span equalities",
              "trop green A.mat B.mat --relation d", A=a, B=b)
    return v.holds


def _p13_d_positive(cfg, s, failures):
    """A perm/scale variant B of A has C(B) = C(A), so A D B; and since
    transposition is an anti-automorphism and D is left-right symmetric,
    also A^T D B^T.  Whether A D A^T depends on A: it holds at n = 2 and
    fails for some A at n >= 3 (see the README), so a "no" there is not
    a failure, and it is not certified here either.  D is an equivalence
    and A D B, so that verdict must agree with rel_D(A^T, A) and
    rel_D(B, B^T).  Every positive verdict's bridge is re-verified.
    """
    pool = EntryPool.for_domain(Domain.T)
    replay = "trop green A.mat B.mat --relation d"
    for trial in range(cfg.trials):
        n = s.dim(cfg.dim_range)
        a = s.matrix(n, n, pool)
        variant = _perm_scale_variant(s, a)
        v = rel_D(a, variant)
        if not v.holds:
            _fail(failures, trial, "perm/scale variant not recognized as D-related",
                  replay, A=a, B=variant)
            continue
        if not _bridge_ok(v, a, variant):
            _fail(failures, trial, "bridge for perm/scale variant fails span equalities",
                  replay, A=a, B=variant)
            continue
        at, bt = transpose(a), transpose(variant)
        if not _decide_d(failures, trial, "transposed perm/scale pair", at, bt):
            _fail(failures, trial, "transposed perm/scale pair not recognized as D-related",
                  replay, A=at, B=bt)
        verdict = _decide_d(failures, trial, "matrix vs its transpose", a, at)
        for label, x, y in (
            ("transpose vs its matrix", at, a),
            ("perm/scale variant vs its transpose", variant, bt),
        ):
            other = _decide_d(failures, trial, label, x, y)
            if other != verdict:
                _fail(failures, trial,
                      f"D verdict for matrix vs its transpose is {verdict}, "
                      f"for {label} {other}",
                      replay, A=a, B=at, V=variant)
        if n == 2 and not verdict:
            _fail(failures, trial, "2x2 matrix is not D-related to its transpose",
                  replay, A=a, B=at)


def _p14_extension_calculus(cfg, s, failures):
    pool, tbar = EntryPool.for_domain(Domain.T), EntryPool.for_domain(Domain.TBAR)
    for trial in range(cfg.trials):
        dim = s.dim(cfg.dim_range)
        a = s.vector(dim, ROW, pool)
        b = s.vector(dim, ROW, pool)
        if trial % 2:
            # construct an equal pair: same support for a2, b2 matching off it
            mu1, mu2 = s.finite_scalar(), s.finite_scalar()
            a2 = vec_oplus(a, scale(mu1, a))
            b2 = vec_oplus(b, scale(mu2, a))
        else:
            a2 = s.vector(dim, ROW, pool)
            b2 = s.vector(dim, ROW, pool)
        canonical = extended_pair(a, b) == extended_pair(a2, b2)
        direct = welldef_criterion(a, b, a2, b2)
        if canonical != direct:
            _fail(failures, trial,
                  f"canonical-form equality is {canonical} but the direct large-lambda "
                  f"criterion gives {direct}",
                  a=a, b=b, a2=a2, b2=b2)
            continue
        # trichotomy of adjoined elements over a random T-span
        k = s.rng.randint(1, max(2, dim))
        gens = [s.vector(dim, COL, pool) for _ in range(k)]
        span = ConvexSpan(gens)
        coeffs = [s.scalar(tbar) for _ in range(k)]
        x = span.combine(coeffs)
        has_inf = any(e.is_pos_inf for e in x.entries)
        if not has_inf:
            if not span.member(x):
                _fail(failures, trial, "+inf-free combination escaped the generating span",
                      "trop member x.vec S.mat --orientation col",
                      S=span.matrix, x=x)
                continue
        else:
            apart = span.combine([ZERO if c.is_pos_inf else NEG_INF for c in coeffs])
            bpart = span.combine([NEG_INF if c.is_pos_inf else c for c in coeffs])
            if apart == zero_vector(dim, COL):
                _fail(failures, trial, "element with +inf had a zero a-part")
                continue
            if extended_pair(apart, bpart) != x:
                _fail(failures, trial, "inf*a + b decomposition does not reproduce x")
                continue
    # well-definedness and linearity of the pushed-forward map, on
    # verified isomorphisms between constructed span pairs
    g_trials = max(1, cfg.trials // 10)
    for trial in range(cfg.trials, cfg.trials + g_trials):
        n = s.rng.randint(2, 4)
        a_mat = s.matrix(n, n, pool)
        b_mat = _perm_scale_variant(s, a_mat)
        verdict = rel_D(a_mat, b_mat)
        if not verdict.holds or verdict.iso.k == 0:
            continue  # a no is covered by P13; the zero span has nothing to adjoin
        g = verdict.iso
        xa = s.span_member(g.source, pool)
        xb = s.span_member(g.source, pool)
        mu1, mu2 = s.finite_scalar(), s.finite_scalar()
        ya = vec_oplus(xa, scale(mu1, xa))
        yb = vec_oplus(xb, scale(mu2, xa))
        p1 = extended_pair(xa, xb)
        p2 = extended_pair(ya, yb)
        if p1 != p2:
            _fail(failures, trial, "constructed equal decompositions disagree")
            continue
        img1 = extend_iso_pair(g, xa, xb)
        img2 = extend_iso_pair(g, ya, yb)
        if img1 != img2:
            _fail(failures, trial,
                  "extension of the isomorphism is not well-defined: equal elements "
                  "map to different elements",
                  A=a_mat, B=b_mat)
            continue
        # linearity: sums and TBAR scalings commute with the extension
        za = s.span_member(g.source, pool)
        zb = s.span_member(g.source, pool)
        q1 = extend_iso_pair(g, za, zb)
        added = extend_iso_pair(g, vec_oplus(xa, za), vec_oplus(xb, zb))
        if added != vec_oplus(img1, q1):
            _fail(failures, trial, "extension does not respect addition")
            continue
        lam = s.finite_scalar()
        if extend_iso_pair(g, scale(lam, xa), scale(lam, xb)) != scale(lam, img1):
            _fail(failures, trial, "extension does not respect finite scaling")
            continue
        zv = zero_vector(xa.dim, xa.orientation)
        if extend_iso_pair(g, zv, zv) != scale(NEG_INF, img1):
            _fail(failures, trial, "extension does not respect scaling by -inf")
            continue
        if extend_iso_pair(g, vec_oplus(xa, xb), zv) != scale(POS_INF, img1):
            _fail(failures, trial, "extension does not respect scaling by +inf")


def span_key(span: ConvexSpan):
    """Canonical hash key for span equality over T: the set of its weak basis
    vectors, projectively normalized, which is unique for +inf-free spans."""
    return frozenset(map(proj_normalize, span.weak_basis().generators))


class BridgeOracleIndex:
    """Exhaustive bridge search over a grid, factored for reuse across pairs.

    Enumerates every n x n matrix D over the grid once and keeps, for
    each realized (row space, column space) combination, the first D in
    enumeration order that realizes it; a pair (A, B) is D-related per
    the oracle iff some D has R(D) = R(A) and C(D) = C(B).  Keys are
    validated against span_equal on a seeded sample so the factoring
    cannot silently diverge from the definitional search.
    """

    def __init__(self, grid, n=2):
        self.grid = tuple(grid)
        self.n = n
        self.row_reps = {}  # key -> representative span
        self.col_reps = {}
        self.bridges = {}  # (row key, column key) -> first realizing D
        self._keys = {}  # generator set -> key: a span is its generator set
        for flat in itertools.product(self.grid, repeat=n * n):
            d = TropMatrix([flat[i * n : (i + 1) * n] for i in range(n)])
            rk = self._classify(row_span(d), self.row_reps)
            ck = self._classify(col_span(d), self.col_reps)
            self.bridges.setdefault((rk, ck), d)

    def _classify(self, span, reps):
        gens = frozenset(span.generators)
        key = self._keys.get(gens)
        if key is None:
            key = self._keys[gens] = span_key(span)
            rep = reps.setdefault(key, span)
            if rep is not span and not span_equal(rep, span):
                raise TropError("span canonicalization collided on unequal spans")
        return key

    def bridge(self, a, b):
        """A grid matrix D with R(D) = R(a) and C(D) = C(b), or None."""
        return self.bridges.get((span_key(row_span(a)), span_key(col_span(b))))

    def validate_keys(self, rng: Random):
        """Spot-check 100 sampled pairs: distinct keys mean distinct spans."""
        reps = list(self.row_reps.items()) + list(self.col_reps.items())
        for _ in range(100):
            (k1, s1), (k2, s2) = rng.sample(reps, 2)
            if s1.orientation != s2.orientation or s1.dim != s2.dim:
                continue
            if (k1 == k2) != span_equal(s1, s2):
                raise TropError("span canonicalization disagrees with span_equal")


@functools.cache
def _oracle_index(grid, n):
    """The bridge index of a grid (a tuple) at n, built on first use and
    shared by every run of P15 and P16 in the process."""
    return BridgeOracleIndex(grid, n)


def _p15_oracle_agreement(cfg, s, failures):
    values = [NEG_INF, finite(-1), finite(0), finite(1)]
    all_mats = [TropMatrix([f[0:2], f[2:4]]) for f in itertools.product(values, repeat=4)]
    total_pairs = len(all_mats) ** 2
    if cfg.trials > total_pairs:
        raise TropError(f"P15 has {total_pairs} pairs, fewer than trials {cfg.trials}")
    index = _oracle_index((NEG_INF,) + tuple(finite(v) for v in range(-4, 5)), 2)
    index.validate_keys(s.rng)
    if cfg.trials == total_pairs:
        pairs = itertools.product(all_mats, all_mats)
    else:
        pairs = (
            (s.rng.choice(all_mats), s.rng.choice(all_mats)) for _ in range(cfg.trials)
        )
    for trial, (a, b) in enumerate(pairs):
        got = rel_D(a, b).holds
        want = index.bridge(a, b) is not None
        if got != want:
            _fail(failures, trial,
                  f"decision procedure says {got} but exhaustive bridge search says {want}",
                  "trop green A.mat B.mat --relation d", A=a, B=b)


def _p16_bridge_net(cfg, s, failures):
    # one-sided: the grid is not closed under bridges, so a pair the
    # index does not relate may still be D-related, and only its yes binds
    index = _oracle_index((NEG_INF, ZERO, finite(1)), 3)
    pairs = list(index.bridges.items())
    if cfg.trials > len(pairs):
        raise TropError(f"P16 has {len(pairs)} pairs, fewer than trials {cfg.trials}")
    if cfg.trials < len(pairs):
        pairs = s.rng.sample(pairs, cfg.trials)
    for trial, ((rk, ck), d) in enumerate(pairs):
        # each representative span is the row (column) span of the
        # first grid matrix with that row (column) space
        a = index.row_reps[rk].matrix
        b = index.col_reps[ck].matrix
        if not rel_D(a, b).holds:
            _fail(failures, trial,
                  "decision procedure says False but the grid bridge D has "
                  "R(D) = R(A) and C(D) = C(B)",
                  "trop green A.mat B.mat --relation d", A=a, B=b, D=d)


PROPERTIES = {
    "P1": ("bracket closed form equals the defining maximum", _p1_bracket_closed_form,
           dict(trials=500, dim_range=(1, 8), domain=Domain.TBAR)),
    "P2": ("bracket sign change under negation", _p2_bracket_sign_change,
           dict(trials=500, dim_range=(1, 8), domain=Domain.TBAR)),
    "P3": ("order agrees with nonnegative bracket", _p3_order_bracket,
           dict(trials=500, dim_range=(1, 8), domain=Domain.TBAR)),
    "P4": ("Hilbert metric axioms and scaling invariance", _p4_metric_axioms,
           dict(trials=500, dim_range=(1, 6), domain=Domain.TBAR)),
    "P5": ("duality maps are mutually inverse on the spans", _p5_duality_roundtrip,
           dict(trials=200, dim_range=(2, 6), domain=Domain.TBAR)),
    "P6": ("duality reverses brackets and anti-commutes with scaling", _p6_anti_isomorphism,
           dict(trials=200, dim_range=(2, 6), domain=Domain.TBAR)),
    "P7": ("duality is order reversing", _p7_antitone,
           dict(trials=200, dim_range=(2, 6), domain=Domain.TBAR)),
    "P8": ("duality preserves the Hilbert metric", _p8_isometry,
           dict(trials=200, dim_range=(2, 6), domain=Domain.TBAR)),
    "P9": ("coordinate-change inequality and equality on spans", _p9_changecoords,
           dict(trials=500, dim_range=(1, 6), domain=Domain.TBAR)),
    "P10": ("kernel witnesses separate non-members", _p10_kernel_witness,
            dict(trials=200, dim_range=(2, 6), domain=Domain.TBAR)),
    "P11": ("right order agrees between membership and principal solutions",
            _p11_landr_consistency,
            dict(trials=300, dim_range=(2, 5), domain=None)),
    "P12": ("verdicts inherit across domains and witnesses transfer", _p12_inheritance,
            dict(trials=200, dim_range=(2, 5), domain=None)),
    "P13": ("perm/scale pairs and their transposes are D-related; A D A^T is "
            "consistent across the D-class and holds at n = 2", _p13_d_positive,
            dict(trials=100, dim_range=(2, 5), domain=None)),
    "P14": ("extension calculus: equality criterion, well-definedness, linearity",
            _p14_extension_calculus,
            dict(trials=300, dim_range=(2, 5), domain=None)),
    "P15": ("2x2 decisions agree with the exhaustive bridge oracle",
            _p15_oracle_agreement,
            dict(trials=2000, dim_range=None, domain=None)),
    "P16": ("3x3 pairs joined by a {-inf, 0, 1} grid bridge are D-related "
            "(one-sided: a pair without one proves nothing)",
            _p16_bridge_net,
            dict(trials=2000, dim_range=None, domain=None)),
}


def default_config(property_id, seed=0, trials=None, dim_range=None, pool=None):
    if property_id not in PROPERTIES:
        raise TropError(f"unknown property {property_id!r}")
    if trials is not None and trials < 0:
        raise TropError(f"trials must be >= 0, got {trials}")
    _, _, defaults = PROPERTIES[property_id]
    if dim_range is not None and defaults["dim_range"] is None:
        raise TropError(f"{property_id} checks fixed sizes and takes no dimension range")
    if pool is not None and defaults["domain"] is None:
        raise TropError(f"{property_id} draws from fixed entry pools and takes no entry domain")
    return HarnessConfig(
        property_id=property_id,
        trials=trials if trials is not None else defaults["trials"],
        dim_range=dim_range or defaults["dim_range"],
        # a fixed-pool property reads only the finite scalars of its pool
        pool=pool or EntryPool.for_domain(defaults["domain"] or Domain.FT),
        seed=seed,
    )


def run_property(cfg: HarnessConfig) -> RunReport:
    """Run one property; deterministic for a fixed config."""
    if cfg.property_id not in PROPERTIES:
        raise TropError(f"unknown property {cfg.property_id!r}")
    _, func, _ = PROPERTIES[cfg.property_id]
    rng = Random(cfg.seed)
    sampler = Sampler(rng, cfg.pool)
    failures = []
    start = time.monotonic()
    func(cfg, sampler, failures)
    elapsed = time.monotonic() - start
    return RunReport(cfg.property_id, cfg.trials, cfg.seed, failures, elapsed)
