"""Text formats for scalars, matrices, vectors, spans, descriptors and
verdicts.

All formats round-trip bit-exactly: parse(print(x)) == x.  A matrix is
a `rows cols` header line followed by that many rows of whitespace
separated scalar tokens; vectors are 1 x n or n x 1 matrices.  Spans
travel as a generator matrix plus an orientation flag.  A descriptor's
bases are column spans, each a `col k dim` headed block that may declare
zero generators (the zero span), which the plain matrix reader rejects.
"""

import re

from .convex import ConvexSpan
from .duality import IsoDescriptor
from .errors import ParseError
from .greens import RELATIONS, GreenVerdict
from .linalg import COL, TropMatrix, TropVector
from .semiring import (
    format_domain,
    format_scalar,
    parse_domain,
    parse_scalar,
)


def format_matrix(a: TropMatrix) -> str:
    lines = [f"{a.rows} {a.cols}"]
    for row in a.entries:
        lines.append(" ".join(format_scalar(e) for e in row))
    return "\n".join(lines) + "\n"


def format_vector(x: TropVector) -> str:
    return format_matrix(x.as_matrix())


class _Lines:
    """Cursor over the input's non-blank lines, numbered from 1."""

    def __init__(self, text):
        lines = text.splitlines()
        self.end = max(len(lines), 1)  # the line number a missing line reports
        self.numbered = ((i, line) for i, line in enumerate(lines, 1) if line.strip())

    def next_content_line(self):
        lineno, line = next(self.numbered, (self.end, None))
        return line, lineno

    def expect_line(self, what):
        line, lineno = self.next_content_line()
        if line is None:
            raise ParseError(f"missing {what}", line=lineno)
        return line, lineno

    def require_exhausted(self, what):
        line, lineno = self.next_content_line()
        if line is not None:
            raise ParseError(f"trailing content after {what}", line=lineno)


def _parse_tokens(line, lineno, expected, what):
    tokens = line.split()
    if len(tokens) != expected:
        raise ParseError(f"expected {expected} {what}, found {len(tokens)}", line=lineno)
    return tokens


_TOKEN = re.compile(r"\S+")  # \s and str.isspace agree, so these are line.split()


def _parse_scalar_row(line, lineno, expected):
    found = list(_TOKEN.finditer(line))
    if len(found) != expected:
        raise ParseError(f"expected {expected} scalar tokens, found {len(found)}", line=lineno)
    return [parse_scalar(m[0], line=lineno, column=m.start() + 1) for m in found]


_COUNT = re.compile(r"[0-9]+")


def _parse_counts(tokens, lineno, message):
    """Counts are ASCII decimal digits only: no sign, no underscores."""
    try:
        if all(_COUNT.fullmatch(t) for t in tokens):
            return [int(t) for t in tokens]
    except ValueError:  # past Python's int-to-str digit limit
        pass
    raise ParseError(message, line=lineno)


def _parse_matrix_block(cur: _Lines) -> TropMatrix:
    line, lineno = cur.expect_line("matrix header")
    what = "header fields (rows cols)"
    tokens = _parse_tokens(line, lineno, 2, what)
    rows, cols = _parse_counts(tokens, lineno, f"{what} must be integers")
    if rows < 1 or cols < 1:
        raise ParseError(f"bad matrix shape {rows} x {cols}", line=lineno)
    body = []
    for _ in range(rows):
        line, lineno = cur.expect_line("matrix row")
        body.append(_parse_scalar_row(line, lineno, cols))
    return TropMatrix(body)


def parse_matrix(text: str) -> TropMatrix:
    cur = _Lines(text)
    m = _parse_matrix_block(cur)
    cur.require_exhausted("matrix body")
    return m


def parse_vector(text: str, orientation=None) -> TropVector:
    """A vector is a 1 x n (row) or n x 1 (column) matrix.  A 1 x 1
    matrix is ambiguous and parses as a row unless an orientation is
    supplied by the caller."""
    m = parse_matrix(text)
    if m.rows != 1 and m.cols != 1:
        raise ParseError(f"{m.rows} x {m.cols} matrix is not a vector")
    v = m.as_vector()
    if orientation is not None and v.dim == 1 and v.orientation != orientation:
        return v.transpose()
    return v


def format_span(s: ConvexSpan) -> str:
    """Generators stacked in the span's natural shape (rows of a k x dim
    matrix for row spans, columns of a dim x k matrix for column spans).
    A zero span prints as a `0 dim` generator count header."""
    if s.matrix is None:
        return f"0 {s.dim}\n"
    return format_matrix(s.matrix)


def _format_basis_block(s: ConvexSpan):
    lines = [f"{COL} {len(s)} {s.dim}"]
    for v in s.generators:
        lines.append(" ".join(format_scalar(e) for e in v.entries))
    return lines


def format_descriptor(f: IsoDescriptor) -> str:
    """Descriptor block: k, sigma (1-based), lambda line, then source and
    target bases as `col k dim` headed generator row lists."""
    lines = [str(f.k)]
    if f.k:
        lines.append(" ".join(str(i + 1) for i in f.sigma))
        lines.append(" ".join(format_scalar(l) for l in f.lambdas))
    lines.extend(_format_basis_block(f.source))
    lines.extend(_format_basis_block(f.target))
    return "\n".join(lines) + "\n"


def _parse_basis_block(cur: _Lines):
    line, lineno = cur.expect_line("basis header")
    tokens = _parse_tokens(line, lineno, 3, "basis header fields")
    if tokens[0] != COL:
        raise ParseError(f"expected a col basis header, found {tokens[0]!r}", line=lineno)
    k, dim = _parse_counts(tokens[1:], lineno, "basis header counts must be integers")
    if dim < 1:
        raise ParseError(f"bad basis shape {k} generators x {dim}", line=lineno)
    vectors = []
    for _ in range(k):
        line, lineno = cur.expect_line("basis generator row")
        vectors.append(TropVector(_parse_scalar_row(line, lineno, dim), COL))
    return ConvexSpan(vectors, dim, COL)


def _parse_descriptor_block(cur: _Lines) -> IsoDescriptor:
    line, lineno = cur.expect_line("descriptor size line")
    (k,) = _parse_counts([line.strip()], lineno, "descriptor size must be an integer")
    if k == 0:
        sigma, lambdas = (), ()
    else:
        line, lineno = cur.expect_line("permutation line")
        tokens = _parse_tokens(line, lineno, k, "permutation entries")
        sigma = tuple(
            i - 1 for i in _parse_counts(tokens, lineno, "permutation entries must be integers")
        )
        line, lineno = cur.expect_line("scaling line")
        lambdas = tuple(_parse_scalar_row(line, lineno, k))
    source = _parse_basis_block(cur)
    target = _parse_basis_block(cur)
    return IsoDescriptor(source, target, sigma, lambdas)


def parse_descriptor(text: str) -> IsoDescriptor:
    cur = _Lines(text)
    f = _parse_descriptor_block(cur)
    cur.require_exhausted("descriptor")
    return f


def format_verdict(v: GreenVerdict) -> str:
    lines = [f"{v.relation} {'yes' if v.holds else 'no'} {format_domain(v.domain)}"]
    for label, m in v.witnesses:
        lines.append(f"witness {label}")
        lines.append(format_matrix(m).rstrip("\n"))
    if v.iso is not None:
        lines.append("iso")
        lines.append(format_descriptor(v.iso).rstrip("\n"))
    if v.bridge is not None:
        lines.append("bridge")
        lines.append(format_matrix(v.bridge).rstrip("\n"))
    for reason in v.reasons:
        lines.append(f"reason: {reason}")
    return "\n".join(lines) + "\n"


def parse_verdict(text: str) -> GreenVerdict:
    cur = _Lines(text)
    line, lineno = cur.expect_line("verdict line")
    tokens = _parse_tokens(line, lineno, 3, "verdict fields")
    relation, holds_token, domain_token = tokens
    if relation not in RELATIONS:
        raise ParseError(f"unknown relation {relation!r}", line=lineno)
    if holds_token not in ("yes", "no"):
        raise ParseError("verdict must be yes or no", line=lineno)
    domain = parse_domain(domain_token, lineno)
    witnesses = []
    iso = None
    bridge = None
    reasons = []
    while True:
        line, lineno = cur.next_content_line()
        if line is None:
            break
        if line.startswith("witness "):
            label = line.split(None, 1)[1]
            witnesses.append((label, _parse_matrix_block(cur)))
        elif line.strip() == "iso":
            iso = _parse_descriptor_block(cur)
        elif line.strip() == "bridge":
            bridge = _parse_matrix_block(cur)
        elif line.startswith("reason: "):
            reasons.append(line[len("reason: ") :])
        else:
            raise ParseError(f"unexpected verdict block {line!r}", line=lineno)
    return GreenVerdict(
        relation,
        holds_token == "yes",
        domain,
        witnesses=tuple(witnesses),
        iso=iso,
        bridge=bridge,
        reasons=tuple(reasons),
    )
