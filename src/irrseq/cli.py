"""Command-line front end.

Subcommands: transform, factor, sequence, tilde, graph, verify.  All
output is byte-deterministic for identical invocations.  Inputs are
validated by the library functions the commands call; ``main`` maps what
they raise to one exit code each and prints ``error: ...`` to stderr,
never a traceback:

- 0: success;
- 1: a verification failed (``graph``, ``verify``), or an internal
  invariant broke (``InternalInvariantError``);
- 2: usage or parse error: a bad prime, polynomial or option, an excluded
  seed, or an ``OSError`` writing ``--json`` or ``--dot``;
- 3: a seed that must be irreducible is not (``ReducibleError``).
"""

from __future__ import annotations

import argparse
import sys

from .errors import InternalInvariantError, ReducibleError
from .extfield import ExtField, factor_r, tilde
from .graph import GRAPH_LIMIT, build_graph, conjugacy_check, export_dot, verify_tree_structure
from .poly import FpPoly, irreducibles
from .sequence import SeqConfig, TieBreak, build_sequence
from .verify import run_all


def _cmd_transform(args) -> int:
    f = FpPoly(args.poly, args.p)
    print(f.q_transform() if args.q_transform else f.r_transform())
    return 0


def _cmd_factor(args) -> int:
    res = factor_r(FpPoly(args.poly, args.p))
    if res.factors:
        g1, g2 = sorted(res.factors, key=lambda g: tuple(reversed(g.coeffs)))
        print(f"split: {g1} * {g2}")
    else:
        print(f"irreducible: {res.r_poly}")
    return 0


def _cmd_sequence(args) -> int:
    cfg = SeqConfig(p=args.p, f0=FpPoly(args.poly, args.p), target_steps=args.steps,
                    tie_break=TieBreak(args.tie_break))
    trace = build_sequence(cfg)
    # write the file first, so that a failed write prints no partial result
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(trace.to_json())
    for rec in trace.steps:
        poly = rec.result_poly
        if rec.outcome == "split":
            other = rec.factors[2 - rec.chosen]
            print(f"f{rec.index} deg={rec.degree} split {poly} (other: {other})")
        else:
            print(f"f{rec.index} deg={rec.degree} irreducible {poly}")
    print(f"e0={trace.e0} e1={trace.e1} s1={trace.s1} s2={trace.s2} "
          f"backtracked={'true' if trace.backtracked else 'false'}")
    return 0


def _cmd_tilde(args) -> int:
    result = tilde(FpPoly(args.poly, args.p))
    print(result)
    print(f"degree={result.degree}")
    return 0


def _cmd_graph(args) -> int:
    p, n = args.p, args.n
    # build_graph checks the size too, but only after the modulus search.
    # For p >= 2, p^n exceeds the limit once n reaches its bit length, so
    # the exact power, slow for a huge n, is only computed below that.
    if n > 1 and p > 1 and (n >= GRAPH_LIMIT.bit_length() or p ** n > GRAPH_LIMIT):
        raise ValueError(f"{p}^{n} exceeds the graph size limit {GRAPH_LIMIT}")
    if n == 1:
        g = build_graph(p)
    else:
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
        raise ValueError("--p-max must be >= 3 and --n-max >= 1")
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
    t.add_argument("--p", type=int, required=True)
    t.add_argument("--poly", required=True)
    t.add_argument("--q-transform", action="store_true",
                   help="use x^n f(x+1/x) instead of (2x)^n f((x+1/x)/2)")
    t.set_defaults(func=_cmd_transform)

    f = sub.add_parser("factor", help="factor the transform of an irreducible input")
    f.add_argument("--p", type=int, required=True)
    f.add_argument("--poly", required=True)
    f.set_defaults(func=_cmd_factor)

    s = sub.add_parser("sequence", help="build an irreducible sequence with trace")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--poly", required=True)
    s.add_argument("--steps", type=int, required=True)
    s.add_argument("--tie-break", choices=[t.value for t in TieBreak],
                   default=TieBreak.DESCENDING_LEX.value)
    s.add_argument("--json", metavar="PATH", help="write the structured trace here")
    s.set_defaults(func=_cmd_sequence)

    td = sub.add_parser("tilde", help="minimal polynomial of the mapped root")
    td.add_argument("--p", type=int, required=True)
    td.add_argument("--poly", required=True)
    td.set_defaults(func=_cmd_tilde)

    g = sub.add_parser("graph", help="build and check the halving-map graph")
    g.add_argument("--p", type=int, required=True)
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
    except (ValueError, OSError, InternalInvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ReducibleError):
            return 3
        return 1 if isinstance(exc, InternalInvariantError) else 2


if __name__ == "__main__":
    sys.exit(main())
