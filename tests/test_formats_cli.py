"""Text formats and the command line: round-trips, exit codes, replay."""

import contextlib
import io
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from trop import formats, harness
from trop.cli import main
from trop.convex import ConvexSpan
from trop.duality import IsoDescriptor, identity_descriptor
from trop.errors import (
    DomainError,
    ParseError,
    PreconditionError,
    SizeLimitError,
    TropError,
    VerificationError,
)
from trop.greens import RELATIONS, GreenVerdict, leq_R, rel_D
from trop.linalg import (
    COL,
    ROW,
    TropMatrix,
    TropVector,
    identity,
    transpose,
    zero_matrix,
)
from trop.semiring import NEG_INF, POS_INF, ZERO, Domain, finite

finite_scalars = st.fractions(min_value=-50, max_value=50, max_denominator=7).map(finite)
scalars = st.sampled_from((NEG_INF, POS_INF)) | finite_scalars


def scalar_lists(n):
    return st.lists(scalars, min_size=n, max_size=n)


def matrices():
    return st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda rc: st.lists(scalar_lists(rc[1]), min_size=rc[0], max_size=rc[0]).map(TropMatrix)
    )


vectors = st.tuples(st.integers(1, 4), st.sampled_from((ROW, COL))).flatmap(
    lambda shape: scalar_lists(shape[0]).map(lambda xs: TropVector(xs, shape[1]))
)


@st.composite
def descriptors(draw):
    k = draw(st.integers(0, 3))
    source, target = (
        ConvexSpan([TropVector(draw(scalar_lists(dim)), COL) for _ in range(k)], dim, COL)
        for dim in (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    )
    sigma = tuple(draw(st.permutations(range(k))))
    lambdas = tuple(draw(st.lists(finite_scalars, min_size=k, max_size=k)))
    return IsoDescriptor(source, target, sigma, lambdas)


@st.composite
def verdicts(draw):
    labels = st.sampled_from(("X", "X2", "Y", "Y2"))
    return GreenVerdict(
        draw(st.sampled_from(RELATIONS)),
        draw(st.booleans()),
        draw(st.sampled_from(list(Domain))),
        witnesses=tuple(draw(st.lists(st.tuples(labels, matrices()), max_size=2))),
        iso=draw(st.none() | descriptors()),
        bridge=draw(st.none() | matrices()),
        reasons=tuple(draw(st.lists(st.text("sigma (0, 1): differs", max_size=20), max_size=3))),
    )


def test_matrix_round_trip():
    m = TropMatrix(
        [[finite(Fraction(-5, 3)), NEG_INF], [POS_INF, finite(7)]]
    )
    assert formats.parse_matrix(formats.format_matrix(m)) == m


def test_vector_round_trip():
    v = TropVector([ZERO, NEG_INF, finite(Fraction(1, 2))], COL)
    assert formats.parse_vector(formats.format_vector(v)) == v


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        formats.parse_matrix("2 2\n0 1\n0 oops\n")
    assert err.value.line == 3
    assert err.value.column == 3

    with pytest.raises(ParseError):
        formats.parse_matrix("2 2\n0 1\n")  # body ends early
    with pytest.raises(ParseError):
        formats.parse_matrix("2 2\n0 1\n0 2\n9 9\n")  # trailing content

    # counts are ASCII digits only, like the scalar grammar's numerators
    for header in ("1_0 1", "+1 \uff12", "1 -1", "\u0663 1", "9" * 4301 + " 1"):
        with pytest.raises(ParseError) as err:
            formats.parse_matrix(header + "\n" + "0\n" * 10)
        assert err.value.line == 1
    basis = "col 1 2\n0 -inf\n"
    descriptor = "1\n1\n0\n" + basis + basis
    assert formats.parse_descriptor(descriptor).k == 1
    for bad, line in (("+1\n", 1), ("1_0\n", 1), ("1\nx\n", 2), ("1\n+1\n", 2)):
        with pytest.raises(ParseError) as err:
            formats.parse_descriptor(bad + "0\n" + basis + basis)
        assert err.value.line == line
    with pytest.raises(ParseError) as err:
        formats.parse_descriptor("1\n1\n0\ncol +1 2\n0 -inf\n" + basis)
    assert err.value.line == 4


@settings(max_examples=60, deadline=None)
@given(matrices(), vectors, descriptors(), verdicts())
def test_round_trip_fuzz(m, v, f, verdict):
    assert formats.parse_matrix(formats.format_matrix(m)) == m
    assert formats.parse_vector(formats.format_vector(v), v.orientation) == v
    assert formats.parse_descriptor(formats.format_descriptor(f)) == f
    assert formats.parse_verdict(formats.format_verdict(verdict)) == verdict


def test_descriptor_round_trip():
    basis = ConvexSpan(
        (TropVector([ZERO, finite(1)], COL), TropVector([finite(2), NEG_INF], COL))
    )
    f = IsoDescriptor(basis, basis, (1, 0), (finite(Fraction(1, 3)), ZERO))
    assert formats.parse_descriptor(formats.format_descriptor(f)) == f

    empty = identity_descriptor(ConvexSpan((), 3, COL))
    assert formats.parse_descriptor(formats.format_descriptor(empty)) == empty

    apart = IsoDescriptor(ConvexSpan((), 3, COL), ConvexSpan((), 2, COL), (), ())
    assert formats.format_descriptor(apart) == "0\ncol 0 3\ncol 0 2\n"
    assert formats.parse_descriptor(formats.format_descriptor(apart)) == apart
    assert apart != IsoDescriptor(ConvexSpan((), 3, COL), ConvexSpan((), 3, COL), (), ())


def test_verdict_round_trip_order_relation():
    a = TropMatrix([[finite(1), NEG_INF], [finite(2), ZERO]])
    v = leq_R(a, identity(2))
    assert formats.parse_verdict(formats.format_verdict(v)) == v


def test_verdict_round_trip_d_relation():
    a = TropMatrix([[ZERO, finite(1)], [NEG_INF, finite(2)]])
    v = rel_D(a, transpose(a))
    assert v.holds
    assert formats.parse_verdict(formats.format_verdict(v)) == v


def test_verdict_round_trip_refutation():
    v = rel_D(identity(2), zero_matrix(2, 2))
    assert not v.holds
    assert formats.parse_verdict(formats.format_verdict(v)) == v


@pytest.fixture()
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return tmp_path, write


def test_cli_bracket_and_metric(files, capsys):
    _, write = files
    x = write("x.vec", "1 2\n0 0\n")
    y = write("y.vec", "1 2\n1 2\n")
    assert main(["bracket", x, y]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["metric", x, y]) == 0
    assert capsys.readouterr().out == "1\n"


def test_cli_mul_identity(files, capsys):
    _, write = files
    i2 = write("i2.mat", formats.format_matrix(identity(2)))
    a = write("a.mat", "2 2\n0 1\n-inf 2\n")
    assert main(["mul", i2, a]) == 0
    assert capsys.readouterr().out == "2 2\n0 1\n-inf 2\n"


def test_cli_dual_and_inverse(files, capsys):
    _, write = files
    a = write("a.mat", "2 2\n0 0\n0 1\n")
    x = write("x.vec", "1 2\n0 0\n")
    assert main(["dual", a, x]) == 0
    assert capsys.readouterr().out == "2 1\n0\n1\n"
    y = write("y.vec", "2 1\n0\n1\n")
    assert main(["dual", "--inverse", a, y]) == 0
    assert capsys.readouterr().out == "1 2\n0 0\n"


def test_cli_member_yes_no(files, capsys):
    _, write = files
    s = write("s.mat", "2 2\n0 0\n0 1\n")
    good = write("v.vec", "2 1\n1\n2\n")
    bad = write("w.vec", "2 1\n0\n-5\n")
    assert main(["member", good, s, "--orientation", "col"]) == 0
    assert capsys.readouterr().out == "yes\n1 1\n"
    assert main(["member", bad, s, "--orientation", "col"]) == 1
    assert capsys.readouterr().out == "no\n"


def test_cli_basis(files, capsys):
    _, write = files
    s = write("s.mat", "2 3\n0 0 1\n0 1 2\n")
    assert main(["basis", s, "--orientation", "col"]) == 0
    out = capsys.readouterr().out
    parsed = formats.parse_matrix(out)
    assert parsed.cols == 2  # one redundant generator dropped


def test_cli_green_yes_no_witness(files, capsys, tmp_path):
    _, write = files
    a = write("a.mat", "2 2\n0 1\n-inf 2\n")
    at = write("at.mat", "2 2\n0 -inf\n1 2\n")
    z = write("z.mat", "2 2\n-inf -inf\n-inf -inf\n")
    wit = str(tmp_path / "wit.txt")
    assert main(["green", a, at, "--relation", "d", "--witness", wit]) == 0
    assert capsys.readouterr().out == "yes\n"
    v = formats.parse_verdict((tmp_path / "wit.txt").read_text())
    assert v.holds and v.relation == "d"

    assert main(["green", a, z, "--relation", "leq-r"]) == 1
    assert capsys.readouterr().out == "no\n"


def test_cli_green_domain_guard(files, capsys):
    _, write = files
    a = write("a.mat", "2 2\ninf 0\n0 0\n")
    assert main(["green", a, a, "--relation", "d"]) == 2
    err = capsys.readouterr().err
    assert "requires entries in T" in err


def test_cli_green_json(files, capsys):
    _, write = files
    a = write("a.mat", "2 2\n0 1\n-inf 2\n")
    assert main(["green", a, a, "--relation", "h", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is True
    assert payload["relation"] == "h"
    assert set(payload["witnesses"]) == {"X", "X2", "Y", "Y2"}


def test_cli_parse_error_exit_code(files, capsys):
    _, write = files
    bad = write("bad.mat", "2 2\n0 zap\n0 0\n")
    good = write("good.mat", "1 1\n0\n")
    assert main(["mul", bad, good]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column 3" in err


def test_cli_check_deterministic(capsys):
    assert main(["check", "--property", "P2", "--trials", "25", "--seed", "11"]) == 0
    first = capsys.readouterr().out
    assert main(["check", "--property", "P2", "--trials", "25", "--seed", "11"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "failures 0" in first


@pytest.mark.parametrize("dims", ["5:2", "0:3", "x:2"])
def test_cli_check_bad_dims_exit_code(dims, capsys):
    assert main(["check", "--property", "P1", "--dims", dims, "--trials", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad dimension range") and err.count("\n") == 1


@pytest.mark.parametrize(
    "dim_range", [(5, 2), (0, 2), (-1, 3), (1,), (1, 2, 3), (1.0, 2), (True, 2), ("1", "2"), 3]
)
def test_harness_rejects_bad_dimension_ranges(dim_range):
    # the library holds the rule the cli's --dims relies on: before it,
    # (5, 2) built a config whose first draw raised a bare ValueError and
    # (0, 2) one whose run stopped at a ShapeError
    with pytest.raises(TropError, match="^bad dimension range "):
        harness.default_config("P1", dim_range=dim_range)


def test_harness_takes_good_dimension_ranges():
    for dim_range in [(1, 1), (2, 5), [3, 4]]:
        cfg = harness.default_config("P1", trials=3, dim_range=dim_range)
        assert cfg.dim_range == dim_range and harness.run_property(cfg).ok


def test_cli_check_json(capsys):
    assert main(["check", "--property", "P3", "--trials", "10", "--seed", "3",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["property"] == "P3"
    assert payload["failures"] == []


def test_cli_witness_replay(files, capsys, tmp_path):
    # a witness written by green re-multiplies through mul byte-exactly
    _, write = files
    a_text = "2 2\n0 0\n0 0\n"
    b_text = "2 2\n0 1\n0 1\n"
    a = write("a.mat", a_text)
    b = write("b.mat", b_text)
    wit = str(tmp_path / "wit.txt")
    assert main(["green", a, b, "--relation", "leq-r", "--witness", wit]) == 0
    capsys.readouterr()
    v = formats.parse_verdict((tmp_path / "wit.txt").read_text())
    x = write("x.mat", formats.format_matrix(dict(v.witnesses)["X"]))
    assert main(["mul", b, x]) == 0
    assert capsys.readouterr().out == a_text


def _run(argv):
    """main(argv) as (exit code, stdout, stderr); lets every exception escape."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_one_line_error(err):
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("tokens", [("1e5000", "0"), ("9" * 4300, "9" * 4300)])
def test_cli_scalar_grammar_and_digit_limit_exit_code(files, tokens):
    # a 6-byte token may not expand to a 5,001-digit value, and a product
    # past the int-to-str limit is an error, not a traceback
    _, write = files
    a = write("a.mat", f"1 1\n{tokens[0]}\n")
    b = write("b.mat", f"1 1\n{tokens[1]}\n")
    code, out, err = _run(["mul", a, b])
    assert code == 2 and out == ""
    _assert_one_line_error(err)


def test_cli_unreadable_and_unwritable_paths_exit_code(files, tmp_path):
    _, write = files
    a = write("a.mat", "2 2\n0 1\n-inf 2\n")
    latin1 = tmp_path / "latin1.mat"
    latin1.write_bytes(b"1 1\n\xe9\n")
    code, _, err = _run(["mul", str(latin1), a])
    assert code == 2
    _assert_one_line_error(err)
    wit = str(tmp_path / "missing" / "wit.txt")
    code, out, err = _run(["green", a, a, "--relation", "d", "--witness", wit])
    assert code == 2 and out == ""
    _assert_one_line_error(err)


def test_cli_check_counterexamples_unwritable_exit_code(tmp_path, monkeypatch):
    # a wrong bracket makes P2 fail, and the artifact directory sits
    # below a regular file
    monkeypatch.setattr(harness, "bracket", lambda x, y: x.entries[0])
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = _run(["check", "--property", "P2", "--trials", "5",
                           "--counterexamples", str(blocker / "out")])
    assert code == 2 and out == ""
    _assert_one_line_error(err.split("\n", 1)[1])  # after the elapsed-time line


def test_check_failure_reports_and_counterexample_files(tmp_path, monkeypatch):
    # a wrong bracket makes P2 fail: both report formats and the
    # counterexample directory carry each failure's artifacts and replay
    monkeypatch.setattr(harness, "bracket", lambda x, y: x.entries[0])
    report = harness.run_property(harness.default_config("P2", seed=1, trials=5))
    assert not report.ok
    first = report.failures[0]
    x_text, y_text = (block for _, block in first.artifacts)
    assert [name for name, _ in first.artifacts] == ["x.vec", "y.vec"]
    assert formats.parse_vector(x_text).dim == formats.parse_vector(y_text).dim
    text = report.to_text()
    assert (f"--- failure 1 (trial {first.trial}) ---\n{first.description}\n"
            f"artifact x.vec\n{x_text}artifact y.vec\n{y_text}"
            "replay: trop bracket x.vec y.vec\n") in text
    payload = json.loads(report.to_json())
    assert payload["failures"][0]["artifacts"] == [
        {"name": "x.vec", "text": x_text}, {"name": "y.vec", "text": y_text}
    ]
    out = tmp_path / "out"
    argv = ["check", "--property", "P2", "--trials", "5", "--seed", "1"]
    code, stdout, _ = _run(argv + ["--counterexamples", str(out)])
    assert code == 1 and stdout == text
    stem = f"p2_trial{first.trial}"
    assert (out / f"{stem}_x.vec").read_text() == x_text
    assert (out / f"{stem}_y.vec").read_text() == y_text
    assert (out / f"{stem}.txt").read_text() == (
        f"{first.description}\nreplay: trop bracket x.vec y.vec\n"
    )
    assert len(list(out.iterdir())) == 3 * len(report.failures)
    assert _run(argv + ["--format", "json"])[:2] == (1, report.to_json())


@pytest.mark.parametrize("domain", ["ft", "t", "tbar"])
def test_cli_green_d_checks_the_declared_domain(files, domain):
    # D checks a declared domain as leq-r does, and refuses tbar
    _, write = files
    a = write("a.mat", "2 2\n0 1\n-inf 2\n")  # in t, not in ft
    argv = ["green", a, a, "--domain", domain, "--format", "json"]
    leq = _run(argv + ["--relation", "leq-r"])
    code, out, err = _run(argv + ["--relation", "d"])
    if domain == "ft":
        assert (code, out, err) == leq
        assert leq == (2, "", "error: matrix entries lie outside the declared domain ft\n")
    elif domain == "t":
        assert code == 0 and json.loads(out)["domain"] == json.loads(leq[1])["domain"] == "t"
    else:
        assert (code, out, err) == (2, "", "error: relation D requires entries in T (no +inf)\n")


def test_cli_green_leq_l_and_d_json(files):
    _, write = files
    a_text = "2 2\n0 1\n-inf 2\n"
    a, at = write("a.mat", a_text), write("at.mat", "2 2\n0 -inf\n1 2\n")
    assert _run(["green", a, at, "--relation", "leq-l"]) == (1, "no\n", "")
    code, out, _ = _run(["green", a, a, "--relation", "leq-l", "--format", "json"])
    payload = json.loads(out)
    assert code == 0 and payload["relation"] == "leq-l" and set(payload["witnesses"]) == {"Y"}
    y = write("y.mat", payload["witnesses"]["Y"])
    assert _run(["mul", y, a]) == (0, a_text, "")  # Y*A = A
    code, out, _ = _run(["green", a, at, "--relation", "d", "--format", "json"])
    payload = json.loads(out)
    v = rel_D(formats.parse_matrix(a_text), transpose(formats.parse_matrix(a_text)))
    assert code == 0 and payload["holds"] is True
    assert payload["iso"] == formats.format_descriptor(v.iso)
    assert payload["bridge"] == formats.format_matrix(v.bridge)


def test_cli_check_dims_and_entry_domain():
    argv = ["check", "--property", "P3", "--trials", "6", "--seed", "2"]
    for extra, cfg in (
        (["--dims", "2:3"], harness.default_config("P3", 2, 6, dim_range=(2, 3))),
        (["--dims", "4"], harness.default_config("P3", 2, 6, dim_range=(4, 4))),
        (["--entry-domain", "tbar"],
         harness.default_config("P3", 2, 6, pool=harness.EntryPool.for_domain(Domain.TBAR))),
    ):
        report = harness.run_property(cfg)
        assert report.ok
        assert _run(argv + extra)[:2] == (0, report.to_text())


@pytest.mark.parametrize(
    "pid, flag, value, message",
    [(f"P{i}", "--entry-domain", "tbar", "draws from fixed entry pools and takes no entry domain")
     for i in range(11, 17)]
    + [(pid, "--dims", "2:3", "checks fixed sizes and takes no dimension range")
       for pid in ("P15", "P16")],
)
def test_cli_check_rejects_a_flag_the_property_does_not_read(pid, flag, value, message):
    # these properties draw every entry from their own pools (and P15,
    # P16 use fixed sizes), so the flag would change nothing
    argv = ["check", "--property", pid, "--trials", "1", flag, value]
    assert _run(argv) == (2, "", f"error: {pid} {message}\n")


@pytest.mark.parametrize("pid, pairs", [("P15", 65536), ("P16", 15844)])
def test_cli_check_rejects_more_trials_than_pairs(pid, pairs):
    # P15 and P16 check a fixed set of pairs: trials past it would be
    # reported but never run
    argv = ["check", "--property", pid, "--trials", str(pairs + 1)]
    message = f"error: {pid} has {pairs} pairs, fewer than trials {pairs + 1}\n"
    assert _run(argv) == (2, "", message)


def test_cli_basis_of_the_zero_span(files):
    # an all -inf matrix spans only the zero vector: an empty basis
    _, write = files
    z = write("z.mat", "2 3\n-inf -inf -inf\n-inf -inf -inf\n")
    assert _run(["basis", z]) == (0, "0 2\n", "")
    assert _run(["basis", z, "--orientation", "row"]) == (0, "0 3\n", "")


def test_cli_trop_max_n_environment(files, monkeypatch):
    # identity(9) has a weak basis of 9 > 8 generators: refused by
    # default, decided once TROP_MAX_N raises both guards
    _, write = files
    a = write("a.mat", formats.format_matrix(identity(9)))
    b = write("b.mat", formats.format_matrix(identity(9)))
    argv = ["green", a, b, "--relation", "d"]
    monkeypatch.delenv("TROP_MAX_N", raising=False)
    code, out, err = _run(argv)
    assert code == 2 and out == ""
    _assert_one_line_error(err)
    monkeypatch.setenv("TROP_MAX_N", "12")
    assert _run(argv) == (0, "yes\n", "")
    monkeypatch.setenv("TROP_MAX_N", "abc")
    code, out, err = _run(argv)
    assert code == 2 and out == ""
    _assert_one_line_error(err)
    assert "TROP_MAX_N must be an integer" in err
    for raw in ("0", "-3"):
        # below 1 every D pair would be refused at the n guard
        monkeypatch.setenv("TROP_MAX_N", raw)
        code, out, err = _run(argv)
        assert code == 2 and out == ""
        _assert_one_line_error(err)
        assert f"TROP_MAX_N must be at least 1, got '{raw}'" in err


def test_cli_check_negative_trials_exit_code():
    code, out, err = _run(["check", "--property", "P1", "--trials", "-3"])
    assert code == 2 and out == ""
    _assert_one_line_error(err)


def test_cli_check_p14_zero_span_exit_code():
    # at this seed rel_D relates an all -inf pair through the empty weak
    # basis (k = 0), whose span has no element to extend the iso to
    assert harness.run_property(harness.default_config("P14", seed=9)).ok
    code, out, err = _run(["check", "--property", "P14", "--seed", "9"])
    assert code == 0 and "failures 0" in out


_VALID_TEXTS = (
    "2 2\n0 1\n-inf 2\n",
    "2 2\n0 -inf\n1 2\n",
    "3 3\n0 1 1\n-inf -inf 0\n0 -inf -inf\n",
    "2 2\ninf 0\n0 3/2\n",
    "1 2\n0 -1\n",
    "2 1\n0\n1\n",
    "1 1\n+7\n",
)
_ODD_TOKENS = ("0", "-1", "+7", "3/2", "inf", "-inf", "1/0", "1e5000", "1.5", "1_000",
               "x", "", "\n", "4 4", "\u0663", "9" * 4300, "9" * 4301)


@st.composite
def _mutated_text(draw):
    parts = re.split(r"(\s+)", draw(st.sampled_from(_VALID_TEXTS)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(parts) - 1))
        parts[i] = draw(st.sampled_from(_ODD_TOKENS) | st.text(max_size=4))
    return "".join(parts).encode("utf-8", "surrogatepass")


_FUZZ_ARGVS = tuple(
    [cmd, "{0}", "{1}", *rest]
    for cmd, rest in (
        ("bracket", []),
        ("metric", []),
        ("mul", []),
        ("dual", []),
        ("dual", ["--inverse", "--strict"]),
        ("member", ["--orientation", "row"]),
        ("member", ["--orientation", "col"]),
        *(("green", ["--relation", r, "--witness", "{2}"])
          for r in ("leq-r", "leq-l", "r", "l", "h", "d")),
        ("green", ["--relation", "d", "--domain", "t", "--format", "json"]),
    )
) + (["basis", "{0}", "--orientation", "row"], ["basis", "{0}"])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_FUZZ_ARGVS),
       st.lists(st.binary(max_size=40) | _mutated_text(), min_size=2, max_size=2))
def test_cli_exit_contract_fuzz(argv, contents):
    """Whatever the input files hold, every subcommand exits 0, 1 or 2,
    errors are one line, and no exception escapes."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, f"in{i}") for i in range(2)]
        for path, data in zip(paths, contents):
            path.write_bytes(data)
        names = [str(p) for p in paths] + [str(Path(tmp, "wit.txt"))]
        code, _, err = _run([arg.format(*names) for arg in argv])
    assert code in (0, 1, 2)
    if code == 2:
        _assert_one_line_error(err)


@pytest.mark.parametrize(
    "parse, text, message, line",
    [
        (formats.parse_matrix, "2 2\n0 1\n", "missing matrix row", 2),
        (formats.parse_matrix, "2 2\n\n0 1\n\n\n", "missing matrix row", 5),
        (formats.parse_matrix, "1 1\n0\n\n7 7\n", "trailing content after matrix body", 4),
        (formats.parse_matrix, "", "missing matrix header", 1),
        (formats.parse_descriptor, "0\ndiag 0 2\ncol 0 2\n",
         "expected a col basis header, found 'diag'", 2),
        (formats.parse_descriptor, "0\nrow 0 2\ncol 0 2\n",
         "expected a col basis header, found 'row'", 2),
        (formats.parse_descriptor, "0\ncol 0 2\n\nrow 1 2\n0 0\n",
         "expected a col basis header, found 'row'", 4),
        (formats.parse_descriptor, "0\ncol 0 2\n\ncol 0 0\n",
         "bad basis shape 0 generators x 0", 4),
        (formats.parse_descriptor, "0\ncol 0 2\n", "missing basis header", 2),
        (formats.parse_verdict, "", "missing verdict line", 1),
        (formats.parse_verdict, "d yes t\niso\n1\n1\n0\nrow 1 1\n0\n",
         "expected a col basis header, found 'row'", 6),
        (formats.parse_verdict, "x yes t\n", "unknown relation 'x'", 1),
        (formats.parse_verdict, "\nd maybe t\n", "verdict must be yes or no", 2),
        (formats.parse_verdict, "d no xyz\n", "unknown domain 'xyz' (expected ft, t, or tbar)", 1),
        (formats.parse_verdict, "d no t\n\nbogus\n", "unexpected verdict block 'bogus'", 3),
    ],
)
def test_parse_error_messages_and_lines(parse, text, message, line):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (str(err.value), err.value.line) == (f"{message} (line {line})", line)


def test_counterexample_files_keep_every_failure_of_a_trial(tmp_path, monkeypatch):
    # a metric that is 1 on (x, x) and -1 otherwise fails three P4
    # checks in each trial; each failure keeps its own files
    monkeypatch.setattr(harness, "hilbert", lambda x, y: finite(1 if x is y else -1))
    report = harness.run_property(harness.default_config("P4", trials=2))
    assert [f.trial for f in report.failures] == [0, 0, 0, 1, 1, 1]
    out = tmp_path / "out"
    argv = ["check", "--property", "P4", "--trials", "2", "--counterexamples", str(out)]
    assert _run(argv)[:2] == (1, report.to_text())
    stems = ["p4_trial0", "p4_trial0_2", "p4_trial0_3", "p4_trial1", "p4_trial1_2", "p4_trial1_3"]
    for stem, failure in zip(stems, report.failures):
        assert (out / f"{stem}.txt").read_text() == (
            f"{failure.description}\nreplay: trop metric x.vec y.vec\n"
        )
        for name, block in failure.artifacts:
            assert (out / f"{stem}_{name}").read_text() == block
    assert len(list(out.iterdir())) == 4 * len(stems)


@pytest.mark.parametrize(
    "pid, name, error, artifacts, replay",
    [
        ("P5", "theta", DomainError, ["A.mat", "x.vec", "y.vec"], "trop dual A.mat x.vec"),
        ("P10", "kernel_witness", PreconditionError, ["B.mat", "z.vec"], ""),
        ("P12", "finitize_witness_ft", PreconditionError, ["B.mat", "P.mat"], ""),
        ("P16", "rel_D", VerificationError, ["A.mat", "B.mat", "D.mat"],
         "trop green A.mat B.mat --relation d"),
    ],
)
def test_an_error_inside_a_trial_is_that_trials_failure(
    tmp_path, monkeypatch, pid, name, error, artifacts, replay
):
    # the code under test raising is a failing trial that keeps its
    # inputs, not an error that ends the run without a report
    def raising(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(harness, name, raising)
    report = harness.run_property(harness.default_config(pid, trials=4))
    assert [f.trial for f in report.failures] == [0, 1, 2, 3]
    for failure in report.failures:
        assert failure.description == f"{error.__name__}: injected"
        assert [n for n, _ in failure.artifacts] == artifacts
        assert failure.replay == replay
    out = tmp_path / "out"
    argv = ["check", "--property", pid, "--trials", "4", "--counterexamples", str(out)]
    assert _run(argv)[:2] == (1, report.to_text())
    for failure in report.failures:
        stem = f"{pid.lower()}_trial{failure.trial}"
        for n, block in failure.artifacts:
            assert (out / f"{stem}_{n}").read_text() == block
    assert len(list(out.iterdir())) == (len(artifacts) + 1) * 4


def test_p13_re_verifies_every_bridge_through_one_path(monkeypatch):
    # a yes whose bridge is missing fails re-verification on each pair,
    # the perm/scale variant included, and the trial goes on
    real = harness.rel_D
    monkeypatch.setattr(harness, "rel_D", lambda a, b: real(a, b)._replace(bridge=None))
    report = harness.run_property(harness.default_config("P13", trials=2))
    first = report.failures[0]
    assert first.description == "bridge for perm/scale variant fails span equalities"
    assert [n for n, _ in first.artifacts] == ["A.mat", "B.mat"]
    assert first.replay == "trop green A.mat B.mat --relation d"
    labels = {f.description for f in report.failures if f.trial == 0}
    assert "bridge for transposed perm/scale pair fails span equalities" in labels
    assert all(f.description.endswith("fails span equalities") for f in report.failures)


def test_cli_check_size_guard_and_setup_errors_end_the_run(monkeypatch):
    # a guard's refusal inside a trial is not a verdict: identity-sized
    # 9x9 draws have weak bases past 8, and the run ends with exit 2
    argv = ["check", "--property", "P13", "--dims", "9:9", "--trials", "3"]
    code, out, err = _run(argv)
    assert (code, out) == (2, "")
    _assert_one_line_error(err)
    assert "guards at weak basis size <= 8" in err
    # the bridge index refusing its own keys happens before any trial
    monkeypatch.setattr(harness, "span_key", lambda span: 0)
    monkeypatch.setattr(
        harness, "_oracle_index", lambda grid, n: harness.BridgeOracleIndex((NEG_INF, ZERO), 1)
    )
    code, out, err = _run(["check", "--property", "P15", "--trials", "1"])
    assert (code, out) == (2, "")
    _assert_one_line_error(err)
    assert "collided on unequal spans" in err


def test_harness_records_keep_their_defaults_and_keywords():
    pool = harness.EntryPool()
    assert (pool.num_bound, pool.p_neg_inf, pool.p_pos_inf) == (8, 0.0, 0.0)
    assert harness.EntryPool(4, p_pos_inf=0.1) == harness.EntryPool(
        num_bound=4, p_neg_inf=0.0, p_pos_inf=0.1
    )
    assert pool  # Sampler falls back on its own pool with `pool or self.pool`
    cfg = harness.HarnessConfig("P1", 10, (1, 3), pool)
    assert cfg.seed == 0
    assert cfg == harness.HarnessConfig(
        pool=pool, dim_range=(1, 3), trials=10, property_id="P1", seed=0
    )
    failure = harness.Failure(3, "broken")
    assert (failure.trial, failure.description, failure.artifacts, failure.replay) == (
        3, "broken", (), ""
    )
    assert failure == harness.Failure(description="broken", trial=3, artifacts=(), replay="")
    report = harness.RunReport("P1", 10, 0, (failure,))
    assert report.elapsed == 0.0 and not report.ok
    assert report == harness.RunReport(
        failures=(failure,), seed=0, trials=10, property_id="P1", elapsed=0.0
    )
    records = ((pool, "num_bound"), (cfg, "seed"), (failure, "replay"), (report, "failures"))
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, 1)


def test_harness_rejects_unknown_properties():
    with pytest.raises(TropError, match="^unknown property 'P99'$"):
        harness.default_config("P99")
    cfg = harness.default_config("P1")._replace(property_id="P99")
    with pytest.raises(TropError, match="^unknown property 'P99'$"):
        harness.run_property(cfg)
