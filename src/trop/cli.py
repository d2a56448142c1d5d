"""Command line interface.

Exit codes are uniform across subcommands: 0 for success or an
affirmative verdict, 1 for a negative verdict (or any property-check
failure), 2 for errors of any kind (parse, shape, domain, size guard).
All outputs use the shared text formats, so results can be fed back in.
"""

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path

from . import formats
from .convex import col_span, row_span
from .duality import theta, theta_prime
from .errors import TropError
from .greens import (
    LEQ_L,
    LEQ_R,
    REL_D,
    REL_H,
    REL_L,
    REL_R,
    leq_L,
    leq_R,
    rel,
    rel_D,
)
from .harness import PROPERTIES, EntryPool, default_config, run_property
from .linalg import COL, ROW, bracket, hilbert, mat_mul
from .semiring import format_scalar, parse_domain


def _read(path):
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise TropError(f"cannot read {path}: {exc}") from None


def _write(path, text):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise TropError(f"cannot write {path}: {exc}") from None


def _load_matrix(path):
    return formats.parse_matrix(_read(path))


def _load_vector(path):
    return formats.parse_vector(_read(path))


def _load_span(path, orientation):
    m = _load_matrix(path)
    return row_span(m) if orientation == ROW else col_span(m)


def cmd_pair(args):
    """bracket or metric: one scalar of two vectors."""
    print(format_scalar(args.op(_load_vector(args.x), _load_vector(args.y))))
    return 0


def cmd_mul(args):
    a = _load_matrix(args.a)
    b = _load_matrix(args.b)
    sys.stdout.write(formats.format_matrix(mat_mul(a, b)))
    return 0


def cmd_dual(args):
    a = _load_matrix(args.matrix)
    want = COL if args.inverse else ROW
    x = formats.parse_vector(_read(args.vector), orientation=want)
    strict = args.strict  # exploration-friendly default: evaluate anywhere
    if args.inverse:
        result = theta_prime(a, x, strict=strict)
    else:
        result = theta(a, x, strict=strict)
    sys.stdout.write(formats.format_vector(result))
    return 0


def cmd_member(args):
    v = formats.parse_vector(_read(args.vector), orientation=args.orientation)
    span = _load_span(args.span, args.orientation)
    ok, coeffs = span.membership(v)
    if ok:
        print("yes")
        print(" ".join(format_scalar(c) for c in coeffs))
        return 0
    print("no")
    return 1


def cmd_basis(args):
    span = _load_span(args.span, args.orientation)
    sys.stdout.write(formats.format_span(span.weak_basis()))
    return 0


def _max_n_override():
    raw = os.environ.get("TROP_MAX_N")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise TropError(f"TROP_MAX_N must be an integer, got {raw!r}") from None


def cmd_green(args):
    a = _load_matrix(args.a)
    b = _load_matrix(args.b)
    domain = parse_domain(args.domain) if args.domain else None
    relation = args.relation
    if relation == LEQ_R:
        verdict = leq_R(a, b, domain)
    elif relation == LEQ_L:
        verdict = leq_L(a, b, domain)
    elif relation in (REL_R, REL_L, REL_H):
        verdict = rel(a, b, relation, domain)
    else:
        override = _max_n_override()
        kwargs = {}
        if override is not None:
            kwargs = dict(max_n=override, max_basis=max(8, override))
        verdict = rel_D(a, b, domain, **kwargs)
    if args.witness:
        _write(args.witness, formats.format_verdict(verdict))
    if args.format == "json":
        print(json.dumps(_verdict_json(verdict), sort_keys=True))
    else:
        print("yes" if verdict.holds else "no")
    return 0 if verdict.holds else 1


def _verdict_json(v):
    payload = {
        "relation": v.relation,
        "holds": v.holds,
        "domain": v.domain.name.lower(),
        "reasons": list(v.reasons),
        "witnesses": {label: formats.format_matrix(m) for label, m in v.witnesses},
    }
    if v.iso is not None:
        payload["iso"] = formats.format_descriptor(v.iso)
    if v.bridge is not None:
        payload["bridge"] = formats.format_matrix(v.bridge)
    return payload


def _parse_dims(raw):
    lo, _, hi = raw.partition(":")
    try:
        lo, hi = int(lo), int(hi or lo)
    except ValueError:
        raise TropError(f"bad dimension range {raw!r} (expected lo:hi)") from None
    return lo, hi


def cmd_check(args):
    pool = None
    if args.entry_domain:
        pool = EntryPool.for_domain(parse_domain(args.entry_domain))
    cfg = default_config(
        args.property,
        seed=args.seed,
        trials=args.trials,
        dim_range=_parse_dims(args.dims) if args.dims else None,
        pool=pool,
    )
    report = run_property(cfg)
    print(f"[{report.property_id}] elapsed {report.elapsed:.2f}s", file=sys.stderr)
    if args.counterexamples and report.failures:
        outdir = Path(args.counterexamples)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise TropError(f"cannot create {outdir}: {exc}") from None
        seen = Counter()  # a trial's second and later failures get _2, _3, ...
        for failure in report.failures:
            seen[failure.trial] += 1
            stem = f"{report.property_id.lower()}_trial{failure.trial}"
            if seen[failure.trial] > 1:
                stem += f"_{seen[failure.trial]}"
            for name, block in failure.artifacts:
                _write(outdir / f"{stem}_{name}", block)
            note = failure.description + "\n"
            if failure.replay:
                note += f"replay: {failure.replay}\n"
            _write(outdir / f"{stem}.txt", note)
    sys.stdout.write(report.to_json() if args.format == "json" else report.to_text())
    return 0 if report.ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trop",
        description="Exact max-plus linear algebra: residuation, duality, Green's relations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", help="residuation bracket <x|y> of two vectors")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_pair, op=bracket)

    p = sub.add_parser("metric", help="Hilbert projective distance of two vectors")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_pair, op=hilbert)

    p = sub.add_parser("mul", help="tropical matrix product")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("dual", help="duality map of a matrix at a vector")
    p.add_argument("matrix")
    p.add_argument("vector")
    p.add_argument("--inverse", action="store_true",
                   help="apply the inverse map (column space to row space)")
    p.add_argument("--strict", action="store_true",
                   help="reject vectors outside the source span")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("member", help="decide span membership of a vector")
    p.add_argument("vector")
    p.add_argument("span", help="matrix whose rows or columns generate the span")
    p.add_argument("--orientation", choices=(ROW, COL), default=COL)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("basis", help="weak (minimal) basis of a span")
    p.add_argument("span")
    p.add_argument("--orientation", choices=(ROW, COL), default=COL)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("green", help="decide a Green's relation between two matrices")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--relation", required=True,
                   choices=(LEQ_R, LEQ_L, REL_R, REL_L, REL_H, REL_D))
    p.add_argument("--domain", choices=("ft", "t", "tbar"))
    p.add_argument("--witness", help="write the verified witness to this file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("check", help="run a seeded property check")
    p.add_argument("--property", required=True, choices=sorted(PROPERTIES))
    p.add_argument("--trials", type=int)
    p.add_argument("--dims", help="dimension range lo:hi (P1-P14)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--entry-domain", choices=("ft", "t", "tbar"),
                   help="override the property's sampling domain (P1-P10)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--counterexamples", help="directory for failure artifacts")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TropError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
