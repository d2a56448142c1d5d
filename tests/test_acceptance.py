"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one pass/fail line.  All randomness is seeded, so runs
are reproducible.  Criterion 9 checks the D-positive family of P13:
perm/scale variants and their transposes are D-related, and whether a
matrix is D-related to its transpose is consistent across its D-class
and holds at n = 2.  It does not assert A D A^T in general, which is
false in dimension 3 and above (see
test_greens.test_rel_d_transpose_counterexample).
"""

import contextlib
import hashlib
import io
import itertools
import os
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from trop import formats, harness, linalg
from trop.cli import main
from trop.convex import ConvexSpan
from trop.greens import rel_D
from trop.harness import (
    EntryPool,
    Sampler,
    default_config,
    run_property,
)
from trop.linalg import scale
from trop.semiring import (
    Domain,
    NEG_INF,
    POS_INF,
    ZERO,
    finite,
    leq,
    neg,
    oplus,
    otimes,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def report(criterion, ok, detail=""):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def run(pid, trials, seed=20260810, dims=None):
    cfg = default_config(pid, seed=seed, trials=trials, dim_range=dims)
    return run_property(cfg)


def test_criterion_01_scalar_laws():
    start = time.monotonic()
    probe = (NEG_INF, finite(-1), ZERO, finite(2), POS_INF)
    rng = Random(101)

    def laws(a, b, c):
        assert oplus(oplus(a, b), c) == oplus(a, oplus(b, c))
        assert otimes(otimes(a, b), c) == otimes(a, otimes(b, c))
        assert oplus(a, b) == oplus(b, a)
        assert otimes(a, b) == otimes(b, a)
        assert otimes(a, oplus(b, c)) == oplus(otimes(a, b), otimes(a, c))
        assert leq(otimes(a, b), c) == leq(otimes(a, neg(c)), neg(b))

    for a in probe:
        for b in probe:
            for c in probe:
                laws(a, b, c)
    for _ in range(100_000):
        a, b, c = (
            finite(Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3))))
            for _ in range(3)
        )
        laws(a, b, c)
    elapsed = time.monotonic() - start
    report(1, elapsed < 10, f"exhaustive probe + 1e5 random triples in {elapsed:.1f}s")


def test_criterion_02_bracket_props():
    start = time.monotonic()
    reports = [run(pid, 10_000, dims=(1, 8)) for pid in ("P1", "P2", "P3")]
    elapsed = time.monotonic() - start
    ok = all(r.ok for r in reports) and elapsed < 30
    report(2, ok, f"3 x 10^4 vector pairs in {elapsed:.1f}s")


def test_criterion_03_metric_axioms():
    r = run("P4", 10_000)
    report(3, r.ok, f"{r.trials} random triples")


def test_criterion_04_duality_theorems():
    start = time.monotonic()
    reports = [run(pid, 1000, dims=(2, 6)) for pid in ("P5", "P6", "P7", "P8")]
    elapsed = time.monotonic() - start
    ok = all(r.ok for r in reports) and elapsed < 120
    report(4, ok, f"4 x 10^3 matrices in {elapsed:.1f}s")


def test_criterion_05_changecoords():
    r = run("P9", 10_000)
    report(5, r.ok, "inequality and span equality, 10^4 instances each")


def test_criterion_06_kernel_witness():
    r = run("P10", 1000)
    report(6, r.ok, "10^3 separating witnesses verified")


def test_criterion_07_landr_consistency():
    r = run("P11", 3000)
    report(7, r.ok, "10^3 pairs per domain, two decision routes")


def test_p11_membership_route_is_independent_of_residuate(monkeypatch):
    # leq_R decides through _residuate and the membership route must not:
    # one that misses the first target splits the two routes apart
    residuate = linalg._residuate

    def first_target_missed(grows, trows):
        return residuate(grows, trows)[0][:1], 0

    monkeypatch.setattr(linalg, "_residuate", first_target_missed)
    r = run("P11", 60, seed=0)
    assert r.failures
    assert {f.description for f in r.failures} == {
        "principal-solution route says False, membership route says True"
    }


def test_member_oracle_asks_one_bracket_per_generator(monkeypatch):
    calls = []
    bracket_oracle = harness.bracket_oracle

    def counting(x, y):
        calls.append(x)
        return bracket_oracle(x, y)

    monkeypatch.setattr(harness, "bracket_oracle", counting)
    s = Sampler(Random(0), EntryPool.for_domain(Domain.T))
    gens = [s.vector(4) for _ in range(3)]
    assert harness._member_oracle(gens, s.span_member(gens))
    assert len(calls) == 3


def test_sampler_finite_scalars_are_the_fraction_draws():
    # finite_scalar builds num/den through ratio: the draws, and so every
    # report, are those of finite(Fraction(num, den))
    s, rng = Sampler(Random(20261020), EntryPool(num_bound=9)), Random(20261020)
    for _ in range(300):
        x = s.finite_scalar()
        want = finite(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))))
        assert (x.kind, x.num, x.den) == (want.kind, want.num, want.den)


def test_criterion_08_inheritance():
    r = run("P12", 1000)
    report(8, r.ok, "verdicts across domains + witness transfers")


@pytest.fixture(scope="module")
def p13_run():
    """The 500-trial P13 report and its wall time, shared by both
    criterion-9 tests."""
    start = time.monotonic()
    r = run("P13", 500, dims=(2, 5))
    return r, time.monotonic() - start


def test_criterion_09_d_positive_family(p13_run):
    r, elapsed = p13_run
    report(
        9,
        r.ok and elapsed < 300,
        f"{len(r.failures)} failures in {elapsed:.1f}s",
    )


def test_criterion_09_supplement_perm_scale_only(p13_run):
    # the perm/scale half on its own: every transpose-side failure names
    # the transpose, so the remaining ones are perm/scale or bridge faults
    r, _ = p13_run
    non_transpose = [f for f in r.failures if "transpose" not in f.description]
    report("9-supplement", not non_transpose,
           "perm/scale variants and bridge verification only")


def test_criterion_10_oracle_agreement():
    start = time.monotonic()
    r = run("P15", 10_000)
    elapsed = time.monotonic() - start
    ok = r.ok and elapsed < 600
    report(10, ok, f"10^4 sampled 2x2 pairs vs exhaustive bridge search in {elapsed:.1f}s")


def test_criterion_10_supplement_3x3_bridge_net():
    # P16 on a seeded sample of the 15,844 realised (row space, column
    # space) pairs of 3x3 matrices over {-inf, 0, 1}; the full net is
    # `trop check --property P16 --trials 15844`
    start = time.monotonic()
    r = run("P16", 2000)
    elapsed = time.monotonic() - start
    report("10-supplement", r.ok, f"2000 grid-bridged 3x3 pairs in {elapsed:.1f}s")


def test_p16_catches_a_search_that_tries_only_the_identity(monkeypatch):
    # permutations are tried in lexicographic order, so a yes through
    # another sigma is one the identity alone would have refuted
    def identity_only(a, b):
        v = rel_D(a, b)
        return v._replace(holds=v.holds and v.iso.sigma == tuple(range(v.iso.k)))

    monkeypatch.setattr(harness, "rel_D", identity_only)
    r = run("P16", 200)
    assert r.failures
    assert all("grid bridge D has R(D) = R(A)" in f.description for f in r.failures)
    assert [name for name, _ in r.failures[0].artifacts] == ["A.mat", "B.mat", "D.mat"]


# the bridge indexes of P15 (n = 2) and P16 (n = 3): counts of row
# representatives, column representatives and bridges, and sha256 of
# each bridge's row representative, column representative and first D,
# formatted, in bridges order
BRIDGE_INDEX_PINS = {
    2: (191, 191, 2247, "a8d861ea9edbf5e2cae1c0e26c6253b14ead6bd9ce2dff1c32b6d71d825a9d24"),
    3: (953, 953, 15844, "1d3e827b61be03c66ae452149d994c3f46ed9c9e0b26881084ed25efb9ee7805"),
}


@pytest.mark.parametrize("grid, n", [
    ((NEG_INF,) + tuple(finite(v) for v in range(-4, 5)), 2),
    ((NEG_INF, ZERO, finite(1)), 3),
])
def test_bridge_indexes_are_pinned(grid, n):
    # the grids P15 and P16 use, so the cached indexes are the ones pinned
    index = harness._oracle_index(grid, n)
    rows = {k: formats.format_matrix(s.matrix) for k, s in index.row_reps.items()}
    cols = {k: formats.format_matrix(s.matrix) for k, s in index.col_reps.items()}
    digest = hashlib.sha256()
    for (rk, ck), d in index.bridges.items():
        digest.update((rows[rk] + cols[ck] + formats.format_matrix(d)).encode())
    got = (len(index.row_reps), len(index.col_reps), len(index.bridges), digest.hexdigest())
    assert got == BRIDGE_INDEX_PINS[n]


def test_criterion_11_extension_calculus():
    r = run("P14", 10_000)
    report(11, r.ok, "equality criterion 10^4 + extension map 10^3")


def test_p14_reaches_the_decomposition_check(monkeypatch):
    # P14 draws TBAR coefficients, so at its default config some
    # combinations carry +inf and go through the inf*a + b decomposition
    combine, has_pos_inf = ConvexSpan.combine, []

    def recording(span, coeffs):
        x = combine(span, coeffs)
        has_pos_inf.append(POS_INF in x.entries)
        return x

    monkeypatch.setattr(ConvexSpan, "combine", recording)
    assert run_property(default_config("P14")).ok
    assert any(has_pos_inf)


def test_p14_numbers_its_second_phase_after_the_first(monkeypatch):
    # a broken extension fails the second phase, whose trials follow the
    # first phase's, so no two failures of P14 share a trial number
    shifts = itertools.count()
    monkeypatch.setattr(
        harness, "extend_iso_pair", lambda g, a, b: scale(finite(next(shifts)), a)
    )
    r = run_property(default_config("P14", trials=30))
    assert r.failures
    assert {f.trial for f in r.failures} <= set(range(30, 33))


# sha256 of the text reports of P1-P16 at seed 0 with 20 trials each,
# and of each run's generator state after it: a passing report shows no
# draw, but the end state moves with every draw a run makes
REPORT_STREAM_DIGEST = "0e3d852929ea7f7b22d1840d07e4dfca08696f2125a8e5372f6fbc65d9e3e5a5"


def report_stream_digest(trials=20):
    samplers = []
    init = harness.Sampler.__init__

    def recording(self, rng, pool):
        init(self, rng, pool)
        samplers.append(self)

    digest = hashlib.sha256()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness.Sampler, "__init__", recording)
        for i in range(1, 17):
            r = run_property(default_config(f"P{i}", seed=0, trials=trials))
            digest.update(r.to_text().encode())
            digest.update(repr(samplers[-1].rng.getstate()).encode())
    return digest.hexdigest()


def test_report_streams_are_pinned():
    # P16 shares its cached 3x3 index with criterion 10
    assert report_stream_digest() == REPORT_STREAM_DIGEST


def _artifact_stream(seed, count):
    rng = Random(seed)
    s = Sampler(rng, EntryPool.for_domain(Domain.TBAR))
    from trop.semiring import format_scalar, parse_scalar

    for i in range(count):
        kind = i % 3
        if kind == 0:
            x = s.scalar()
            yield ("scalar", format_scalar(x), lambda t, x=x: parse_scalar(t) == x)
        elif kind == 1:
            # a 1 x 1 body cannot carry an orientation, so dimension-1
            # vectors are canonically rows in this format
            dim = rng.randint(1, 6)
            orientation = "col" if dim > 1 and rng.random() < 0.5 else "row"
            v = s.vector(dim, orientation)
            yield (
                "vector",
                formats.format_vector(v),
                lambda t, v=v: formats.parse_vector(t) == v
                and formats.format_vector(formats.parse_vector(t)) == t,
            )
        else:
            m = s.matrix(rng.randint(1, 5), rng.randint(1, 5))
            yield (
                "matrix",
                formats.format_matrix(m),
                lambda t, m=m: formats.parse_matrix(t) == m,
            )


def test_criterion_12_round_trip():
    bad = 0
    for kind, text, check in _artifact_stream(314, 1000):
        if not check(text):
            bad += 1
    # verdicts round-trip too, on a seeded batch of green decisions
    from trop.greens import leq_R, rel, rel_D

    rng = Random(914)
    s = Sampler(rng, EntryPool.for_domain(Domain.T))
    for _ in range(25):
        n = rng.randint(2, 3)
        a = s.matrix(n, n)
        b = s.matrix(n, n)
        for v in (leq_R(a, b), rel(a, a, "h"), rel_D(a, a)):
            if formats.parse_verdict(formats.format_verdict(v)) != v:
                bad += 1
    report("12a", bad == 0, "1000 artifacts + 75 verdicts round-tripped")


SESSION_FILES = {
    "x.vec": "1 2\n0 0\n",
    "y.vec": "1 2\n1 2\n",
    "i2.mat": "2 2\n0 -inf\n-inf 0\n",
    "a.mat": "2 2\n0 1\n-inf 2\n",
    "at.mat": "2 2\n0 -inf\n1 2\n",
    "z2.mat": "2 2\n-inf -inf\n-inf -inf\n",
    "dual.mat": "2 2\n0 0\n0 1\n",
    "xr.vec": "1 2\n0 0\n",
    "s.mat": "2 3\n0 0 1\n0 1 2\n",
    "v.vec": "2 1\n1\n2\n",
    "w.vec": "2 1\n0\n-5\n",
    "pinf.mat": "2 2\ninf 0\n0 0\n",
}

SESSION_COMMANDS = [
    ["bracket", "x.vec", "y.vec"],
    ["metric", "x.vec", "y.vec"],
    ["mul", "i2.mat", "a.mat"],
    ["dual", "dual.mat", "xr.vec"],
    ["member", "v.vec", "s.mat", "--orientation", "col"],
    ["member", "w.vec", "s.mat", "--orientation", "col"],
    ["basis", "s.mat", "--orientation", "col"],
    ["green", "a.mat", "at.mat", "--relation", "d", "--witness", "wit.txt"],
    ["green", "a.mat", "i2.mat", "--relation", "leq-r", "--witness", "rwit.txt"],
    ["green", "i2.mat", "z2.mat", "--relation", "leq-r"],
    ["green", "pinf.mat", "pinf.mat", "--relation", "d"],
    ["check", "--property", "P1", "--trials", "5", "--seed", "1"],
]


def _run_session(tmp_path):
    for name, text in SESSION_FILES.items():
        (tmp_path / name).write_text(text)
    transcript = io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        for argv in SESSION_COMMANDS:
            out = io.StringIO()
            err = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            transcript.write(f"$ trop {' '.join(argv)}\n")
            transcript.write(f"exit {code}\n")
            transcript.write(out.getvalue())
            transcript.write("--\n")
        # replay: the leq-r witness X must re-multiply to A byte-exactly
        verdict = formats.parse_verdict((tmp_path / "rwit.txt").read_text())
        (tmp_path / "x.mat").write_text(formats.format_matrix(dict(verdict.witnesses)["X"]))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["mul", "i2.mat", "x.mat"])
        transcript.write("$ trop mul i2.mat x.mat\n")
        transcript.write(f"exit {code}\n")
        transcript.write(out.getvalue())
        transcript.write("--\n")
        replay_ok = out.getvalue() == SESSION_FILES["a.mat"]
        transcript.write(f"replay matches a.mat: {'yes' if replay_ok else 'no'}\n")
    finally:
        os.chdir(cwd)
    return transcript.getvalue()


def test_criterion_12_scripted_session(tmp_path):
    golden_path = GOLDEN_DIR / "session.txt"
    got = _run_session(tmp_path)
    if os.environ.get("TROP_REGEN_GOLDEN"):
        golden_path.parent.mkdir(exist_ok=True)
        golden_path.write_text(got)
    golden = golden_path.read_text()
    report("12b", got == golden, "scripted session matches the committed transcript")
