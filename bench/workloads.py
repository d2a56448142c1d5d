"""Seeded inputs, independent output checks and input-property counts
for the four benchmark workloads.

Every op is one call into a public trop function.  Sizes are fixed per
workload.  kernels and the D workloads rescale fixed base inputs by
seeded constants; cli draws its files from the seed.
"""

import io
import itertools
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

from trop import formats
from trop.convex import ConvexSpan, col_span, row_span, span_equal
from trop.duality import kernel_witness, theta, theta_prime
from trop.greens import GreenVerdict, leq_R, rel, rel_D
from trop.harness import EntryPool, Sampler, bracket_oracle
from trop.linalg import (
    COL,
    TropMatrix,
    TropVector,
    bracket,
    hilbert,
    mat_mul,
    scale,
    transpose,
)
from trop.semiring import (
    NEG_INF,
    POS_INF,
    Domain,
    TropScalar,
    finite,
    format_scalar,
    leq,
    neg,
    oplus,
    otimes,
)

TBAR = EntryPool.for_domain(Domain.TBAR)
T = EntryPool.for_domain(Domain.T)

# kernels and the D workloads draw their inputs from this constant seed
# and let --seed only rescale them.  rel_D's cost varies a hundredfold
# between random matrices of one size, and even relabelling rows and
# columns moves it by a fifth, so fresh draws per seed would make the
# seed, not the code, decide a run's speed.  Scaling a vector or matrix by a
# finite constant changes every input value but no verdict, and the
# algorithms only see the scalings as offsets.
BASE_SEED = 20261017

KERNEL_DIMS = range(1, 9)
KERNEL_GREEN_DIMS = range(2, 7)
KERNEL_ROUNDS = 2
SCALAR_BATCH = 64
D_MIXED_DIMS = (2, 3, 4)
D_MIXED_PER_DIM = 6
D_MIXED_MIN_PER_K = 2
D_DISC_N = 3
D_DISC_PAIRS = 12
D_DISC_VALUES = (0, 2)  # finite entries are integers in this closed range

SIZES = {
    "kernels": {
        "dims": [KERNEL_DIMS[0], KERNEL_DIMS[-1]],
        "green_dims": [KERNEL_GREEN_DIMS[0], KERNEL_GREEN_DIMS[-1]],
        "rounds": KERNEL_ROUNDS,
        "scalar_batch": SCALAR_BATCH,
        "entries": "TBAR",
        "base_seed": BASE_SEED,
    },
    "d-mixed": {
        "n": list(D_MIXED_DIMS),
        "matrices_per_n": D_MIXED_PER_DIM,
        "min_matrices_per_k": D_MIXED_MIN_PER_K,
        "partners": ["perm/scale variant", "transpose"],
        "entries": "T",
        "base_seed": BASE_SEED,
    },
    "d-disconnected": {
        "n": D_DISC_N,
        "matrices": D_DISC_PAIRS,
        "entries": "-inf on the diagonal, integers %d..%d elsewhere" % D_DISC_VALUES,
        "variant_perm": "column reversal",
        "partners": ["perm/scale variant", "transpose"],
        "base_seed": BASE_SEED,
    },
    "cli": {"vector_dim": 5, "matrix_n": 4, "green_n": 3},
}

@dataclass
class Op:
    layer: str  # span name of the public call it makes
    group: str  # golden digest group
    fn: object
    args: tuple
    expect: object = None  # output known by construction, else None
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# kernels


def weak_basis_fresh(generators):
    """Weak basis of a span built for this call, so its cache is empty."""
    return ConvexSpan(generators).weak_basis().generators


def scalar_batch(pairs):
    out = []
    for a, b in pairs:
        out.append(oplus(a, b))
        out.append(otimes(a, b))
        out.append(neg(a))
        out.append(leq(a, b))
    return tuple(out)


def _non_member_row(s, b):
    span = row_span(b)
    for _ in range(50):
        z = s.vector(b.cols)
        if not span.member(z):
            return z
    return None


def _monomial(s, n):
    """A permutation matrix with finite weights: invertible over T."""
    perm = list(range(n))
    s.rng.shuffle(perm)
    return TropMatrix(
        [[s.finite_scalar() if perm[i] == j else NEG_INF for j in range(n)] for i in range(n)]
    )


def _shift(a, c):
    return TropMatrix([[otimes(e, c) for e in row] for row in a.entries])


def build_kernels(seed):
    """Base inputs drawn from BASE_SEED; the seed scales every vector and
    matrix argument by its own finite constant and shifts every finite
    scalar.  That changes each input value but no verdict or the amount
    of work a call does, so the pool's cost does not depend on the seed."""
    s = Sampler(random.Random(BASE_SEED), TBAR)
    by_seed = Sampler(random.Random(seed), TBAR)

    def v(x):
        return scale(by_seed.finite_scalar(), x)

    def m(x):
        return _shift(x, by_seed.finite_scalar())

    def c(x):
        return otimes(x, by_seed.finite_scalar())

    ops = []
    for rnd in range(KERNEL_ROUNDS):
        members = rnd % 2 == 0  # alternate constructed-yes and random inputs
        for d in KERNEL_DIMS:
            info = {"dim": d}
            ops.append(
                Op("linalg.bracket", "bracket", bracket, (v(s.vector(d)), v(s.vector(d))),
                   info=info)
            )
            ops.append(
                Op("linalg.hilbert", "hilbert", hilbert, (v(s.vector(d)), v(s.vector(d))),
                   info=info)
            )
            ops.append(
                Op("linalg.mat_mul", "mat_mul", mat_mul, (m(s.matrix(d, d)), m(s.matrix(d, d))),
                   info=info)
            )
            gens = [s.vector(d, COL) for _ in range(d)]
            x = s.span_member(gens) if members else s.vector(d, COL)
            ops.append(
                Op("convex.member", "member", ConvexSpan([v(g) for g in gens]).member, (v(x),),
                   expect=True if members else None, info=info)
            )
            gens = tuple(v(s.vector(d, COL)) for _ in range(d))
            ops.append(Op("convex.weak_basis", "weak_basis", weak_basis_fresh, (gens,), info=info))
            a = s.matrix(d, d)
            ops.append(
                Op("duality.theta", "theta", theta, (m(a), v(s.span_member(a.row_vectors()))),
                   info=info)
            )
            ops.append(
                Op("duality.theta_prime", "theta_prime", theta_prime,
                   (m(a), v(s.span_member(a.col_vectors()))), info=info)
            )
            b = s.matrix(d, d)
            z = _non_member_row(s, b)
            if z is not None:
                ops.append(
                    Op("duality.kernel_witness", "kernel_witness", kernel_witness, (m(b), v(z)),
                       info=info)
                )
            pairs = tuple((c(s.scalar()), c(s.scalar())) for _ in range(SCALAR_BATCH))
            ops.append(Op("semiring.scalar_batch", "scalar", scalar_batch, (pairs,), info=info))
        for n in KERNEL_GREEN_DIMS:
            info = {"dim": n}
            b = s.matrix(n, n)
            a = mat_mul(b, s.matrix(n, n)) if members else s.matrix(n, n)
            ops.append(
                Op("greens.leq_R", "leq_R", leq_R, (m(a), m(b)), expect=True if members else None,
                   info=info)
            )
            a = s.matrix(n, n)
            b = mat_mul(a, _monomial(s, n)) if members else s.matrix(n, n)
            ops.append(Op("greens.rel_h", "rel_h", rel, (m(a), m(b), "h"), info=info))
    by_seed.rng.shuffle(ops)
    return ops


def _key(x: TropScalar):
    return (x.kind, x.value if x.is_finite else 0)


def _ref_times(a, b):
    if a.is_neg_inf or b.is_neg_inf:
        return NEG_INF
    if a.is_pos_inf or b.is_pos_inf:
        return POS_INF
    return finite(a.value + b.value)


def _ref_neg(a):
    if a.is_finite:
        return finite(-a.value)
    return NEG_INF if a.is_pos_inf else POS_INF


def ref_mat_mul(a, b):
    """The tropical product written out from its definition."""
    return TropMatrix(
        [
            [
                max((_ref_times(a.entries[i][k], b.entries[k][j]) for k in range(a.cols)), key=_key)
                for j in range(b.cols)
            ]
            for i in range(a.rows)
        ]
    )


def ref_scalar_batch(pairs):
    out = []
    for a, b in pairs:
        out.append(max(a, b, key=_key))
        out.append(_ref_times(a, b))
        out.append(_ref_neg(a))
        out.append(_key(a) <= _key(b))
    return tuple(out)


_WITNESS_EQUATIONS = {
    "X": lambda a, b, w: mat_mul(b, w) == a,
    "X2": lambda a, b, w: mat_mul(a, w) == b,
    "Y": lambda a, b, w: mat_mul(w, b) == a,
    "Y2": lambda a, b, w: mat_mul(w, a) == b,
}


def _witnesses_hold(a, b, verdict):
    return all(_WITNESS_EQUATIONS[label](a, b, w) for label, w in verdict.witnesses)


def check_kernel(op, out):
    """Independent check of one output; True when it is right."""
    layer = op.layer
    if layer == "linalg.bracket":
        return out == bracket_oracle(*op.args)
    if layer == "linalg.hilbert":
        x, y = op.args
        return out == hilbert(y, x) and leq(finite(0), out)
    if layer == "linalg.mat_mul":
        return out == ref_mat_mul(*op.args)
    if layer == "convex.member":
        return isinstance(out, bool) and (op.expect is None or out == op.expect)
    if layer == "convex.weak_basis":
        gens = op.args[0]
        basis = ConvexSpan(out, dim=gens[0].dim, orientation=gens[0].orientation)
        return len(out) <= len(gens) and span_equal(basis, ConvexSpan(gens))
    if layer == "duality.theta":
        a, x = op.args
        return theta_prime(a, out) == x
    if layer == "duality.theta_prime":
        a, y = op.args
        return theta(a, out) == y
    if layer == "duality.kernel_witness":
        b, z = op.args
        x, y = (v.as_matrix() for v in out)
        return mat_mul(b, x) == mat_mul(b, y) and mat_mul(z.as_matrix(), x) != mat_mul(
            z.as_matrix(), y
        )
    if layer == "semiring.scalar_batch":
        return out == ref_scalar_batch(op.args[0])
    if layer in ("greens.leq_R", "greens.rel_h"):
        a, b = op.args[:2]
        if op.expect is not None and out.holds != op.expect:
            return False
        return not out.holds or _witnesses_hold(a, b, out)
    raise ValueError(f"no check for {layer}")


def kernel_properties(ops, outs):
    dims = {}
    verdicts = {}
    basis_k = {}
    for op, out in zip(ops, outs):
        if out is None:
            continue
        per = dims.setdefault(op.group, {})
        per[op.info["dim"]] = per.get(op.info["dim"], 0) + 1
        if op.layer in ("convex.member", "greens.leq_R", "greens.rel_h"):
            holds = out if isinstance(out, bool) else out.holds
            tally = verdicts.setdefault(op.group, {"yes": 0, "no": 0})
            tally["yes" if holds else "no"] += 1
        if op.layer == "convex.weak_basis":
            basis_k[len(out)] = basis_k.get(len(out), 0) + 1
    return {"dims": dims, "verdicts": verdicts, "weak_basis_k": _sorted(basis_k)}


# ---------------------------------------------------------------------------
# D workloads


def perm_scale_variant(a, perm, mus):
    """Column j of the result is mus[j] * column perm[j] of A."""
    cols = [scale(mus[j], a.col(perm[j])) for j in range(a.cols)]
    return TropMatrix([[c.entries[i] for c in cols] for i in range(a.rows)])


def _d_ops(a, variant, info):
    return [
        Op("greens.rel_D", "variant", rel_D, (a, variant), expect=True,
           info=dict(info, partner="variant")),
        Op("greens.rel_D", "transpose", rel_D, (a, transpose(a)),
           info=dict(info, partner="transpose")),
    ]


def d_mixed_bases():
    """Bases: a matrix and the column permutation of its variant.
    D_MIXED_PER_DIM random T matrices per n, plus rarer weak-basis sizes
    topped up to D_MIXED_MIN_PER_K each."""
    s = Sampler(random.Random(BASE_SEED), T)
    bases, per_k = [], {}

    def draw(n):
        a = s.matrix(n, n)
        perm = list(range(n))
        s.rng.shuffle(perm)
        return (a, perm), len(col_span(a).weak_basis())

    for n in D_MIXED_DIMS:
        for _ in range(D_MIXED_PER_DIM):
            base, k = draw(n)
            per_k[k] = per_k.get(k, 0) + 1
            bases.append(base)
    for k in range(1, max(D_MIXED_DIMS) + 1):
        while per_k.get(k, 0) < D_MIXED_MIN_PER_K:
            base, got = draw(max(k, 2))
            if got == k:
                per_k[k] = per_k.get(k, 0) + 1
                bases.append(base)
    return bases


def d_disconnected_bases():
    """n x n matrices with -inf on the diagonal and finite entries
    elsewhere.  Column i is the only one with -inf in row i, so the weak
    basis keeps all n columns, and every bracket between two of them is
    -inf: all n! permutations pass the finiteness filter and rel_D
    searches offsets for each it tries.  n = 3: at n = 4 one decision
    takes 0.05 to 0.5 s, too long for a run to time each one often
    enough to see past the host's drift."""
    rng = random.Random(BASE_SEED)
    lo, hi = D_DISC_VALUES
    n = D_DISC_N
    return [
        TropMatrix(
            [
                [NEG_INF if r == c else finite(rng.randint(lo, hi)) for c in range(n)]
                for r in range(n)
            ]
        )
        for _ in range(D_DISC_PAIRS)
    ]


def build_d_mixed(seed):
    """Each base A is scaled by a seeded constant and decided against a
    variant (its columns permuted and scaled by seeded constants) and
    against its transpose."""
    s = Sampler(random.Random(seed), T)
    ops = []
    for i, (base, perm) in enumerate(d_mixed_bases()):
        n = base.rows
        a = _shift(base, s.finite_scalar())
        variant = perm_scale_variant(a, perm, [s.finite_scalar() for _ in range(n)])
        ops.extend(_d_ops(a, variant, {"n": n, "base": i}))
    for op in ops:
        op.group = f"{op.group}.n{op.info['n']}"
    s.rng.shuffle(ops)
    return ops


def build_d_disconnected(seed):
    """Each base is scaled by a seeded constant.  Its variant reverses
    the columns and scales them by seeded constants: the reversal is
    last in lexicographic order, so the yes decision first searches the
    other permutations, unless one of them fits too."""
    rng = random.Random(seed)
    lo, hi = D_DISC_VALUES
    ops = []
    for i, base in enumerate(d_disconnected_bases()):
        n = base.rows
        a = _shift(base, finite(rng.randint(-hi, hi)))
        mus = [finite(rng.randint(lo, hi)) for _ in range(n)]
        ops.extend(_d_ops(a, perm_scale_variant(a, list(range(n))[::-1], mus), {"n": n, "base": i}))
    rng.shuffle(ops)
    return ops


def bridge_verified(a, b, verdict):
    return span_equal(row_span(verdict.bridge), row_span(a)) and span_equal(
        col_span(verdict.bridge), col_span(b)
    )


def check_d(op, out):
    if not isinstance(out, GreenVerdict):
        return False
    if op.expect is not None and out.holds != op.expect:
        return False
    return not out.holds or bridge_verified(*op.args, out)


def _finite_class(x):
    return 0 if x.is_finite else (1 if x.is_pos_inf else -1)


def basis_brackets(m):
    """Finiteness classes of all brackets within the weak basis of C(M)."""
    gens = col_span(m).weak_basis().generators
    return [[_finite_class(bracket(g, h)) for h in gens] for g in gens]


def components(table):
    k = len(table)
    seen, count = set(), 0
    for start in range(k):
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            i = stack.pop()
            for j in range(k):
                if j not in seen and (table[i][j] == 0 or table[j][i] == 0):
                    seen.add(j)
                    stack.append(j)
    return count


def sigma_candidates(table_a, table_b):
    """Permutations of the weak basis that keep every bracket's
    finiteness class: the ones rel_D goes on to search."""
    k = len(table_a)
    if k != len(table_b):
        return 0
    return sum(
        all(table_a[i][j] == table_b[p[i]][p[j]] for i in range(k) for j in range(k))
        for p in itertools.permutations(range(k))
    )


def d_pair_properties(ops):
    """Exact per-pair input properties, one entry per op."""
    tables = {}  # id -> (matrix, table); holding the matrix keeps its id unique

    def table(m):
        if id(m) not in tables:
            tables[id(m)] = (m, basis_brackets(m))
        return tables[id(m)][1]

    props = []
    for op in ops:
        a, b = op.args
        ta = table(a)
        edges = any(ta[i][j] == 0 for i in range(len(ta)) for j in range(len(ta)) if i != j)
        props.append(
            {
                "k": len(ta),
                "components": components(ta),
                "disconnected": len(ta) >= 2 and not edges,
                "sigma_candidates": sigma_candidates(ta, table(b)),
            }
        )
    return props


def d_properties(ops, outs, pair_props):
    hist = {"n": {}, "k": {}, "components": {}, "sigma_candidates": {}}
    verdicts = {}
    for op, out, p in zip(ops, outs, pair_props):
        for key, value in (("n", op.info["n"]), ("k", p["k"]), ("components", p["components"]),
                           ("sigma_candidates", p["sigma_candidates"])):
            hist[key][value] = hist[key].get(value, 0) + 1
        if isinstance(out, GreenVerdict):
            tally = verdicts.setdefault(op.info["partner"], {"yes": 0, "no": 0})
            tally["yes" if out.holds else "no"] += 1
    result = {key: _sorted(h) for key, h in hist.items()}
    result["sigma_candidates_total"] = sum(p["sigma_candidates"] for p in pair_props)
    result["disconnected_pairs"] = sum(p["disconnected"] for p in pair_props)
    result["pairs"] = len(pair_props)
    result["verdicts"] = verdicts
    return result


def _sorted(hist):
    return {str(k): hist[k] for k in sorted(hist)}


# ---------------------------------------------------------------------------
# cli


@dataclass
class CliResult:
    code: int
    stdout: str
    traceback: bool


class CliRunner:
    """Runs ``python -m trop.cli`` against the checkout's sources."""

    def __init__(self, src):
        self.env = dict(os.environ, PYTHONPATH=src)

    def __call__(self, *argv):
        proc = subprocess.run(
            [sys.executable, "-m", "trop.cli", *argv],
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return CliResult(proc.returncode, proc.stdout, "Traceback" in proc.stderr)


def run_inprocess(argv):
    """trop.cli.main(argv) with stdout captured, as a CliResult."""
    from trop.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return CliResult(code, out.getvalue(), False)


def cli_files(s):
    """Text inputs of the cli script, as {file name: contents}."""
    fmt_m, fmt_v = formats.format_matrix, formats.format_vector
    files = {
        "x.vec": fmt_v(s.vector(5)),
        "y.vec": fmt_v(s.vector(5)),
        "a.mat": fmt_m(s.matrix(4, 4)),
        "b.mat": fmt_m(s.matrix(4, 4)),
    }
    dual = s.matrix(4, 5)
    files["dual.mat"] = fmt_m(dual)
    files["dx.vec"] = fmt_v(s.span_member(dual.row_vectors()))
    span = s.matrix(4, 4)
    files["s.mat"] = fmt_m(span)
    files["in.vec"] = fmt_v(s.span_member(span.col_vectors()))
    out = None
    while out is None or col_span(span).member(out):
        out = s.vector(4, COL)
    files["out.vec"] = fmt_v(out)
    g2 = s.matrix(3, 3)
    files["g1.mat"] = fmt_m(mat_mul(g2, s.matrix(3, 3)))
    files["g2.mat"] = fmt_m(g2)
    files["h1.mat"] = fmt_m(s.matrix(3, 3))
    files["h2.mat"] = fmt_m(s.matrix(3, 3))
    d1 = s.matrix(3, 3, T)
    perm = [0, 1, 2]
    s.rng.shuffle(perm)
    files["d1.mat"] = fmt_m(d1)
    files["d2.mat"] = fmt_m(perm_scale_variant(d1, perm, [s.finite_scalar() for _ in range(3)]))
    files["bad_header.mat"] = "2 x\n0 1\n1 0\n"
    files["bad_token.mat"] = "2 2\n0 1\n1 q\n"
    return files


# (call name, argv with file names, exit code known by construction or None)
CLI_SCRIPT = (
    ("bracket", ["bracket", "x.vec", "y.vec"], 0),
    ("metric", ["metric", "x.vec", "y.vec"], 0),
    ("mul", ["mul", "a.mat", "b.mat"], 0),
    ("dual", ["dual", "dual.mat", "dx.vec"], 0),
    ("member-yes", ["member", "in.vec", "s.mat"], 0),
    ("member-no", ["member", "out.vec", "s.mat"], 1),
    ("basis", ["basis", "s.mat"], 0),
    ("green-leq-r", ["green", "g1.mat", "g2.mat", "--relation", "leq-r"], 0),
    ("green-h", ["green", "h1.mat", "h2.mat", "--relation", "h"], None),
    ("green-d-variant", ["green", "d1.mat", "d2.mat", "--relation", "d"], 0),
    ("bad-header", ["mul", "bad_header.mat", "b.mat"], 2),
    ("bad-token", ["basis", "bad_token.mat"], 2),
)
SIZES["cli"]["calls"] = len(CLI_SCRIPT)

# A known defect, run once per run outside the timed loop: it should
# exit 2 without a traceback.
CLI_CONTRACT_PROBE = ["check", "--property", "P1", "--dims", "5:2", "--trials", "3"]

_FILE_SUFFIXES = (".mat", ".vec")


def cli_argv(argv, workdir):
    return [os.path.join(workdir, a) if a.endswith(_FILE_SUFFIXES) else a for a in argv]


def build_cli(seed, workdir, runner):
    s = Sampler(random.Random(seed), TBAR)
    for name, text in cli_files(s).items():
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(text)
    return [
        Op("cli.call", name, runner, tuple(cli_argv(argv, workdir)), expect=code,
           info={"command": argv[0]})
        for name, argv, code in CLI_SCRIPT
    ]


def check_cli(op, out):
    if not isinstance(out, CliResult) or out.traceback:
        return False
    if op.expect is not None and out.code != op.expect:
        return False
    return out == run_inprocess(op.args)


def cli_properties(ops, outs):
    commands, codes = {}, {}
    for op, out in zip(ops, outs):
        if out is None:
            continue
        commands[op.info["command"]] = commands.get(op.info["command"], 0) + 1
        if isinstance(out, CliResult):
            codes[out.code] = codes.get(out.code, 0) + 1
    return {"commands": dict(sorted(commands.items())), "exit_codes": _sorted(codes)}


# ---------------------------------------------------------------------------
# canonical text of an output, for the golden digests


def canonical(out):
    if isinstance(out, Exception):
        return f"raise {type(out).__name__}: {out}"
    if isinstance(out, bool):
        return "yes" if out else "no"
    if isinstance(out, TropScalar):
        return format_scalar(out)
    if isinstance(out, TropVector):
        return formats.format_vector(out)
    if isinstance(out, TropMatrix):
        return formats.format_matrix(out)
    if isinstance(out, GreenVerdict):
        return formats.format_verdict(out)
    if isinstance(out, CliResult):
        return f"exit {out.code}\n{out.stdout}"
    if isinstance(out, tuple):
        return "\n".join(canonical(x) for x in out)
    raise TypeError(f"no canonical text for {type(out).__name__}")


def same(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and a.args == b.args
    return a == b

