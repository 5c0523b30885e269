"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive (trial division, dense schoolbook
loops) or delegated to sympy, so the fast paths in the package are
checked against code that shares none of their machinery.
"""

import itertools

import sympy
from sympy.abc import x as _x

from irrseq import FpPoly, nu2
# the trial-division oracle lives in the package, where `irrseq verify` uses it
from irrseq.verify import all_monic, brute_irreducible  # noqa: F401


def to_sympy(f: FpPoly):
    return sympy.Poly(list(reversed(f.coeffs)), _x, modulus=f.p)


def from_sympy(poly, p: int) -> FpPoly:
    return FpPoly([int(c) % p for c in reversed(poly.all_coeffs())], p)


def sympy_irreducible(f: FpPoly) -> bool:
    return to_sympy(f).is_irreducible


def sympy_factors(f: FpPoly) -> list[FpPoly]:
    """Monic irreducible factors with multiplicity, sorted canonically."""
    _, factors = sympy.factor_list(to_sympy(f))
    out = []
    for poly, mult in factors:
        out.extend([from_sympy(poly.monic(), f.p)] * mult)
    return sorted(out, key=lambda g: tuple(reversed(g.coeffs)))


def sympy_r_transform(f: FpPoly) -> FpPoly:
    """(2x)^n f((x + 1/x)/2) expanded symbolically over the integers."""
    n = f.degree
    expr = sympy.expand(
        (2 * _x) ** n * to_sympy(f).as_expr().subs(_x, (_x + 1 / _x) / 2))
    return from_sympy(sympy.Poly(expr, _x), f.p)


def sympy_q_transform(f: FpPoly) -> FpPoly:
    n = f.degree
    expr = sympy.expand(_x ** n * to_sympy(f).as_expr().subs(_x, _x + 1 / _x))
    return from_sympy(sympy.Poly(expr, _x), f.p)


def slow_pow_mod(base: FpPoly, e: int, modulus: FpPoly) -> FpPoly:
    acc = FpPoly.one(base.p) % modulus
    for _ in range(e):
        acc = (acc * base) % modulus
    return acc


def squares_in_field(field) -> set:
    """All nonzero squares of an ExtField, by enumeration."""
    p, n = field.p, field.n
    out = set()
    for coords in itertools.product(range(p), repeat=n):
        u = field.element(coords)
        if not u.is_zero:
            out.add((u * u).coords)
    return out


def count_irreducibles(p: int, n: int) -> int:
    """Number of monic irreducibles of degree n via Moebius inversion."""
    total = 0
    for d in sympy.divisors(n):
        total += sympy.mobius(n // d) * p ** d
    return total // n


def tree_report_by_points(g) -> tuple[list[str], list[tuple]]:
    """Violations and root records of verify_tree_structure, computed one
    point at a time from the graph's lists; records are tuples (root,
    label, depth, root_children, nodes_per_level, leaf_count)."""
    succ, per, level, root = (a.tolist() for a in
                              (g.successor, g.periodic, g.level, g.tree_root))
    labels, want = g.labels, nu2(g.q - 1)
    kids = [[] for _ in range(g.size)]
    members = {}
    for v in range(g.size):
        if not per[v]:
            kids[succ[v]].append(v)
            members.setdefault(root[v], []).append(v)
    violations, records = [], []
    for r in (r for r in range(g.size) if per[r]):
        mem = members.get(r, [])
        if r in (g.one, g.minus_one):
            if mem or kids[r]:
                violations.append(f"q={g.q}: fixed point {labels[r]} has a tree")
            continue
        depth = max((level[u] for u in mem), default=0)
        per_level = [1] + [0] * depth
        for u in mem:
            per_level[level[u]] += 1
        if depth != want:
            violations.append(f"q={g.q}: tree at {labels[r]} has depth {depth}, want {want}")
        if len(kids[r]) != 1:
            violations.append(f"q={g.q}: root {labels[r]} has {len(kids[r])} children, want 1")
        leaves = 0
        for u in mem:
            if level[u] == want:
                leaves += 1
                if kids[u]:
                    violations.append(f"q={g.q}: node {labels[u]} at full depth has children")
            elif len(kids[u]) != 2:
                violations.append(
                    f"q={g.q}: internal node {labels[u]} has {len(kids[u])} children, want 2")
        records.append((r, labels[r], depth, len(kids[r]), per_level, leaves))
    return violations, records


def indegree_violations_by_points(g) -> list[str]:
    """verify's in-degree violations, one point at a time."""
    succ, labels = g.successor.tolist(), g.labels
    indeg = [succ.count(v) for v in range(g.size)]
    out = []
    for v in range(g.size):
        if v == g.inf:
            if sorted(u for u, w in enumerate(succ) if w == v) != [0, g.inf]:
                out.append(f"q={g.q}: preimages of infinity are not {{0, inf}}")
        elif v in (g.one, g.minus_one):
            if indeg[v] != 1:
                out.append(f"q={g.q}: fixed point {labels[v]} has in-degree {indeg[v]}")
        elif indeg[v] not in (0, 2):
            out.append(f"q={g.q}: point {labels[v]} has in-degree {indeg[v]}")
    return out
