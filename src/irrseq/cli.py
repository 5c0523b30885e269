"""Command-line front end.

Subcommands: transform, factor, sequence, tilde, graph, verify.  All
output is byte-deterministic for identical invocations.  Exit codes: 0
success, 1 verification failure, 2 usage or parse error, 3 domain
precondition failure (e.g. factoring a reducible polynomial).
"""

from __future__ import annotations

import argparse
import sys

from .errors import PolyParseError
from .extfield import factor_r, tilde
from .fp import is_prime
from .graph import GRAPH_LIMIT, build_graph, conjugacy_check, export_dot, verify_tree_structure
from .poly import FpPoly, admissible_seed
from .sequence import SeqConfig, TieBreak, build_sequence
from .verify import run_all
from .extfield import ExtField


class _UsageError(Exception):
    pass


class _DomainError(Exception):
    pass


def _parse_prime(text: str) -> int:
    try:
        p = int(text)
    except ValueError:
        raise _UsageError(f"prime expected, got {text!r}")
    if p == 2 or not is_prime(p):
        raise _UsageError(f"{p} is not an odd prime")
    return p


def _parse_poly(text: str, p: int) -> FpPoly:
    try:
        return FpPoly(text, p)
    except PolyParseError as exc:
        raise _UsageError(str(exc))


def _require_seed(f: FpPoly, *, allow_x: bool = True) -> None:
    if not admissible_seed(f):
        raise _UsageError(f"{f} is not an admissible input: it must be monic "
                          "of degree >= 1 and neither x+1 nor x-1")
    if not allow_x and f == FpPoly.x(f.p):
        raise _UsageError("x is an excluded input here (its only root is 0)")


def _cmd_transform(args) -> int:
    p = _parse_prime(args.p)
    f = _parse_poly(args.poly, p)
    if not f.is_monic or f.degree < 1:
        raise _UsageError(f"{f} is not monic of degree >= 1")
    out = f.q_transform() if args.q_transform else f.r_transform()
    print(out)
    return 0


def _cmd_factor(args) -> int:
    p = _parse_prime(args.p)
    f = _parse_poly(args.poly, p)
    _require_seed(f)
    if not f.is_irreducible():
        raise _DomainError(f"{f} is reducible over F_{p}")
    res = factor_r(f, trusted=True)
    if res.is_irreducible:
        print(f"irreducible: {res.r_poly}")
    else:
        g1, g2 = sorted(res.factors, key=lambda g: tuple(reversed(g.coeffs)))
        print(f"split: {g1} * {g2}")
    return 0


def _cmd_sequence(args) -> int:
    p = _parse_prime(args.p)
    f = _parse_poly(args.poly, p)
    _require_seed(f)
    if args.steps < 1:
        raise _UsageError("--steps must be at least 1")
    if not f.is_irreducible():
        raise _UsageError(f"{f} is reducible over F_{p}")
    cfg = SeqConfig(p=p, f0=f, target_steps=args.steps,
                    tie_break=TieBreak(args.tie_break))
    trace = build_sequence(cfg)
    for rec in trace.steps:
        poly = rec.result_poly
        if rec.outcome == "split":
            other = rec.factors[2 - rec.chosen]
            print(f"f{rec.index} deg={rec.degree} split {poly} (other: {other})")
        else:
            print(f"f{rec.index} deg={rec.degree} irreducible {poly}")
    print(f"e0={trace.e0} e1={trace.e1} s1={trace.s1} s2={trace.s2} "
          f"backtracked={'true' if trace.backtracked else 'false'}")
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(trace.to_json())
    return 0


def _cmd_tilde(args) -> int:
    p = _parse_prime(args.p)
    f = _parse_poly(args.poly, p)
    _require_seed(f, allow_x=False)
    if not f.is_irreducible():
        raise _UsageError(f"{f} is reducible over F_{p}")
    result = tilde(f)
    print(result)
    print(f"degree={result.degree}")
    return 0


def _cmd_graph(args) -> int:
    p = _parse_prime(args.p)
    n = args.n
    if n < 1:
        raise _UsageError("--n must be at least 1")
    if p ** n > GRAPH_LIMIT:
        raise _UsageError(f"{p}^{n} exceeds the graph size limit {GRAPH_LIMIT}")
    if n == 1:
        g = build_graph(p)
    else:
        from .poly import irreducibles
        modulus = next(iter(irreducibles(p, n)))
        g = build_graph(ExtField(p, modulus, check_modulus=False))
    wrote = False
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(export_dot(g))
        wrote = True
    if args.report or not wrote:
        report = verify_tree_structure(g)
        conj = conjugacy_check(g)
        depths = sorted({r.depth for r in report.roots})
        print(f"q={g.q} nu2(q-1)={report.expected_depth}")
        print(f"roots={len(report.roots)} depth={'/'.join(map(str, depths)) or '-'}")
        print(f"violations={len(report.violations)}")
        for v in report.violations:
            print(f"  {v}")
        print(f"conjugacy={'pass' if conj else 'fail'}")
        if report.violations or not conj:
            return 1
    return 0


def _cmd_verify(args) -> int:
    if args.p_max < 3 or args.n_max < 1:
        raise _UsageError("--p-max must be >= 3 and --n-max >= 1")
    results = run_all(args.p_max, args.n_max)
    bad = False
    for res in results:
        status = "ok" if res.ok else "FAIL"
        print(f"{status} {res.name} cases={res.cases} failures={len(res.failures)}")
        for f in res.failures[:20]:
            print(f"  {f}")
        bad = bad or not res.ok
    return 1 if bad else 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="irrseq",
        description="Irreducible polynomial sequences over odd prime fields")
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transform", help="apply the degree-doubling transform")
    t.add_argument("--p", required=True)
    t.add_argument("--poly", required=True)
    t.add_argument("--q-transform", action="store_true",
                   help="use x^n f(x+1/x) instead of (2x)^n f((x+1/x)/2)")
    t.set_defaults(func=_cmd_transform)

    f = sub.add_parser("factor", help="factor the transform of an irreducible input")
    f.add_argument("--p", required=True)
    f.add_argument("--poly", required=True)
    f.set_defaults(func=_cmd_factor)

    s = sub.add_parser("sequence", help="build an irreducible sequence with trace")
    s.add_argument("--p", required=True)
    s.add_argument("--poly", required=True)
    s.add_argument("--steps", type=int, required=True)
    s.add_argument("--tie-break", choices=[t.value for t in TieBreak],
                   default=TieBreak.DESCENDING_LEX.value)
    s.add_argument("--json", metavar="PATH", help="write the structured trace here")
    s.set_defaults(func=_cmd_sequence)

    td = sub.add_parser("tilde", help="minimal polynomial of the mapped root")
    td.add_argument("--p", required=True)
    td.add_argument("--poly", required=True)
    td.set_defaults(func=_cmd_tilde)

    g = sub.add_parser("graph", help="build and check the halving-map graph")
    g.add_argument("--p", required=True)
    g.add_argument("--n", type=int, default=1)
    g.add_argument("--dot", metavar="PATH", help="write DOT text here")
    g.add_argument("--report", action="store_true", help="print the structure report")
    g.set_defaults(func=_cmd_graph)

    v = sub.add_parser("verify", help="run the exhaustive property suite")
    v.add_argument("--p-max", type=int, default=13)
    v.add_argument("--n-max", type=int, default=3)
    v.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
