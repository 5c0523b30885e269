"""Exhaustive property sweeps over desk-scale parameter ranges.

Each check function walks a finite family of cases, counts them, and
collects human-readable failure strings instead of raising, so the CLI
can report everything it found.  The acceptance test suite drives the
same functions at the documented parameter ranges.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError, NonResidueError
from .extfield import ExtField, factor_r, tilde
from .fp import fp_sqrt, is_prime, legendre, matvec, nu2, solve_nullspace
from .graph import build_graph, conjugacy_check, verify_tree_structure
from .poly import (FpPoly, admissible_seed, irreducibles,
                   q_irreducibility_predicate, r_irreducibility_predicate,
                   random_irreducible)
from .sequence import SeqConfig, SeqTrace, build_sequence

DEFAULT_SEED = 20240813


@dataclass
class PropertyResult:
    name: str
    cases: int
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def _primes_upto(bound: int) -> list[int]:
    return [p for p in range(3, bound + 1, 2) if is_prime(p)]


def _odd_prime_powers_upto(bound: int) -> list[tuple[int, int]]:
    out = []
    for p in _primes_upto(bound):
        n = 1
        while p ** n <= bound:
            out.append((p, n))
            n += 1
    return sorted(out, key=lambda t: t[0] ** t[1])


def check_nu2_doubling(p_max: int = 97, n_max: int = 8) -> PropertyResult:
    """When nu2(p^n - 1) >= 2 the valuation of p^(2n) - 1 is one larger;
    the two classic small counterexamples confirm the hypothesis matters."""
    failures = []
    cases = 0
    for p in _primes_upto(p_max):
        for n in range(1, n_max + 1):
            e = nu2(p ** n - 1)
            if e < 2:
                continue
            cases += 1
            if nu2(p ** (2 * n) - 1) != e + 1:
                failures.append(f"p={p} n={n}: nu2(p^2n-1) != nu2(p^n-1)+1")
    for p, want in ((23, 4), (31, 6)):
        cases += 1
        if nu2(p ** 2 - 1) != want or nu2(p - 1) != 1:
            failures.append(f"counterexample p={p} drifted from nu2={want}")
    return PropertyResult("nu2-doubling", cases, failures)


def check_legendre(p_max: int = 13) -> PropertyResult:
    """Multiplicativity of the Legendre symbol and square-root round trips."""
    failures = []
    cases = 0
    for p in _primes_upto(p_max):
        for a in range(1, p):
            for b in range(1, p):
                cases += 1
                if legendre(a * b, p) != legendre(a, p) * legendre(b, p):
                    failures.append(f"legendre not multiplicative at p={p} a={a} b={b}")
        for a in range(p):
            if legendre(a, p) >= 0:
                cases += 1
                r = fp_sqrt(a, p)
                if r * r % p != a or r > p - r:
                    failures.append(f"fp_sqrt({a}, {p}) = {r} is not the smaller root")
    return PropertyResult("legendre-and-sqrt", cases, failures)


def check_nullspace(seed: int = DEFAULT_SEED, rounds: int = 200) -> PropertyResult:
    """Random matrices: kernel vectors annihilate, rank-nullity holds."""
    rng = random.Random(seed)
    failures = []
    cases = 0
    for _ in range(rounds):
        p = rng.choice([3, 5, 7, 11, 13])
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        basis = solve_nullspace(m, p)
        cases += 1
        for v in basis:
            if any(matvec(m, v, p)):
                failures.append(f"kernel vector fails: p={p} m={m} v={v}")
        rank = rows - len(solve_nullspace(_transpose(m), p)) if rows else 0
        if rank + len(basis) != cols:
            failures.append(f"rank-nullity fails: p={p} m={m}")
    return PropertyResult("nullspace", cases, failures)


def _transpose(m):
    return [list(col) for col in zip(*m)]


def check_transform_properties(p_list, n_max: int) -> PropertyResult:
    """Shape laws of the doubling transform over exhaustive seed ranges.

    For every monic irreducible f (excluding x+-1): the transform is
    monic of doubled degree with constant term 1 and is self-reciprocal;
    a split yields reciprocal factors multiplying back to the transform,
    both irreducible of the seed's degree.
    """
    failures = []
    cases = 0
    for p in p_list:
        for n in range(1, n_max + 1):
            for f in irreducibles(p, n):
                if not admissible_seed(f):
                    continue
                cases += 1
                res = factor_r(f)
                rp = res.r_poly
                if not rp.is_monic or rp.degree != 2 * n or rp.coeffs[0] != 1:
                    failures.append(f"p={p} f={f}: transform shape broken")
                    continue
                if rp.reciprocal() != rp:
                    failures.append(f"p={p} f={f}: transform not self-reciprocal")
                if res.factors is not None:
                    g1, g2 = res.factors
                    if g2 != g1.reciprocal() or g1 * g2 != rp or g1 == g2:
                        failures.append(f"p={p} f={f}: split pair inconsistent")
                    if not (g1.is_irreducible() and g2.is_irreducible()):
                        failures.append(f"p={p} f={f}: split factor reducible")
                    if g1.degree != n or g2.degree != n:
                        failures.append(f"p={p} f={f}: split degrees wrong")
                elif not rp.is_irreducible():
                    failures.append(f"p={p} f={f}: claimed irreducible transform is not")
    return PropertyResult("transform-shape", cases, failures)


def check_predicate_agreement(p_list, n_max: int) -> PropertyResult:
    """The character-based predicates match Rabin's test on the transforms,
    and the f(1)f(-1) character, on which factor_r decides, matches the
    residue test on b^2 - 1 in F_p[x]/(f)."""
    failures = []
    cases = 0
    for p in p_list:
        for n in range(1, n_max + 1):
            for f in irreducibles(p, n):
                if not admissible_seed(f):
                    continue
                cases += 1
                r_pred = r_irreducibility_predicate(f)
                if r_pred != f.r_transform().is_irreducible():
                    failures.append(f"p={p} f={f}: r-predicate disagrees with the test")
                field = ExtField(p, f, check_modulus=False)
                if r_pred == field.is_square(field.beta * field.beta - field.one):
                    failures.append(f"p={p} f={f}: r-predicate disagrees with the "
                                    "residue test on b^2-1")
                q_pred = q_irreducibility_predicate(f)
                if q_pred != f.q_transform().is_irreducible():
                    failures.append(f"p={p} f={f}: q-predicate disagrees with the test")
    return PropertyResult("predicate-agreement", cases, failures)


def check_tilde_degrees(p_max: int = 7, n_max: int = 4) -> PropertyResult:
    """Degree law of the minimal polynomial of the mapped root: full degree
    for seeds whose root set is not inverse-closed, half otherwise."""
    failures = []
    cases = 0
    for p in _primes_upto(p_max):
        for n in range(1, n_max + 1):
            for f in irreducibles(p, n):
                if f == FpPoly.x(p) or not admissible_seed(f):
                    continue
                cases += 1
                t = tilde(f)
                inverse_closed = f.reciprocal() == f
                want = n // 2 if inverse_closed else n
                if t.degree != want:
                    failures.append(f"p={p} f={f}: tilde degree {t.degree}, want {want}")
                if inverse_closed and n % 2:
                    failures.append(f"p={p} f={f}: odd-degree seed claims inverse-closed roots")
    return PropertyResult("tilde-degree-law", cases, failures)


def check_sequences(p_list, n_list, steps: int = 8,
                    verify_each_step: bool = True) -> PropertyResult:
    """Run the construction from every admissible seed and check the
    segment bounds, the doubling pattern, and per-step irreducibility."""
    failures = []
    cases = 0
    for p in p_list:
        for n in n_list:
            e0 = nu2(p ** n - 1)
            e1 = nu2(p ** (2 * n) - 1)
            for f0 in irreducibles(p, n):
                if not admissible_seed(f0):
                    continue
                cases += 1
                trace = build_sequence(SeqConfig(p=p, f0=f0, target_steps=steps))
                degrees = trace.degrees()
                if trace.s1 > e0 + 1:
                    failures.append(f"p={p} f0={f0}: s1={trace.s1} > e0+1={e0 + 1}")
                if degrees[-1] >= 4 * n and trace.s2 != e1 - e0:
                    failures.append(f"p={p} f0={f0}: s2={trace.s2} != e1-e0={e1 - e0}")
                want = [n] * trace.s1 + [2 * n] * trace.s2
                k = 2
                while len(want) < len(degrees):
                    want.append(2 ** k * n)
                    k += 1
                if degrees != want:
                    failures.append(f"p={p} f0={f0}: degrees {degrees} != {want}")
                if trace.factorization_count > trace.factorization_bound:
                    failures.append(f"p={p} f0={f0}: factorization count over bound")
                if verify_each_step:
                    for g in trace.polynomials():
                        if not g.is_irreducible():
                            failures.append(f"p={p} f0={f0}: member {g} reducible")
                            break
    return PropertyResult("sequence-bounds", cases, failures)


def check_sequence_goldens() -> PropertyResult:
    """The two worked runs over F_7 reproduce their published traces."""
    failures = []
    trace = build_sequence(SeqConfig(p=7, f0=FpPoly.x(7), target_steps=5))
    got = [str(f) for f in trace.polynomials()]
    want = ["x", "x^2+1", "x^2+2", "x^2+3x+6", "x^4+6x^3+5x^2+6x+1"]
    if got[:5] != want or trace.degrees() != [1, 2, 2, 2, 4, 8]:
        failures.append(f"run from x: {got} does not extend {want} with doubling")
    if (trace.e0, trace.e1, trace.s1, trace.s2, trace.backtracked) != (1, 4, 1, 3, False):
        failures.append(f"run from x: summary {trace.e0},{trace.e1},{trace.s1},"
                        f"{trace.s2},{trace.backtracked}")
    trace2 = build_sequence(SeqConfig(p=7, f0=FpPoly("x-3", 7), target_steps=5))
    got2 = [str(f) for f in trace2.polynomials()]
    want2 = ["x+4", "x+5", "x^2+3x+1", "x^2+x+3", "x^2+4x+5", "x^4+x^3+x^2+x+1"]
    if got2 != want2:
        failures.append(f"run from x-3: {got2} != {want2}")
    if not trace2.backtracked or [str(s.result_poly) for s in trace2.discarded] != ["x+3", "x+2"]:
        failures.append("run from x-3: backtracking trail wrong")
    return PropertyResult("sequence-goldens", 2, failures)


def check_graphs(q_max: int = 2197, *, conjugacy: bool = True) -> PropertyResult:
    """Tree structure, in-degree law, and squaring-map conjugacy for every
    odd prime power q up to the bound."""
    failures = []
    cases = 0
    for p, n in _odd_prime_powers_upto(q_max):
        cases += 1
        g = _graph_for(p, n)
        report = verify_tree_structure(g)
        failures.extend(report.violations)
        failures.extend(_indegree_violations(g))
        if conjugacy and not conjugacy_check(g):
            failures.append(f"q={g.q}: conjugacy with the squaring map fails")
    return PropertyResult("graph-structure", cases, failures)


def _graph_for(p: int, n: int):
    if n == 1:
        return build_graph(p)
    field = ExtField(p, _fixed_irreducible(p, n))
    return build_graph(field)


def _fixed_irreducible(p: int, n: int) -> FpPoly:
    # deterministic: first irreducible in enumeration order
    return next(iter(irreducibles(p, n)))


def _indegree_violations(g) -> list[str]:
    indeg = np.bincount(g.successor, minlength=g.size)
    fixed = np.zeros(g.size, dtype=bool)
    fixed[[g.one, g.minus_one]] = True
    bad = np.where(fixed, indeg != 1, (indeg != 0) & (indeg != 2))
    bad[g.inf] = False
    points = np.flatnonzero(bad)
    out = [f"q={g.q}: {'fixed point' if fixed[v] else 'point'} {label} has in-degree {indeg[v]}"
           for v, label in zip(points.tolist(), g.labels_of(points))]
    # the preimages of infinity are exactly 0 and infinity itself
    if indeg[g.inf] != 2 or g.successor[0] != g.inf or g.successor[g.inf] != g.inf:
        out.append(f"q={g.q}: preimages of infinity are not {{0, inf}}")
    return out


def check_tree_depth_doubling(q_max: int = 4096) -> PropertyResult:
    """Rebuilding over the quadratic extension deepens every tree by one
    when nu2(q - 1) >= 2."""
    failures = []
    cases = 0
    for p, n in _odd_prime_powers_upto(q_max):
        q = p ** n
        if q * q > q_max or nu2(q - 1) < 2:
            continue
        cases += 1
        d1 = verify_tree_structure(_graph_for(p, n)).expected_depth
        g2 = _graph_for(p, 2 * n)
        report2 = verify_tree_structure(g2)
        if report2.expected_depth != d1 + 1 or not report2.depths_ok:
            failures.append(f"q={q}: depth did not grow from {d1} to {d1 + 1}")
    return PropertyResult("tree-depth-doubling", cases, failures)


def check_ext_sqrt(samples: int = 200, p_max: int = 1000, n_max: int = 8,
                   seed: int = DEFAULT_SEED) -> PropertyResult:
    """Random square roots in random extensions square back.  ExtField.sqrt
    itself raises when its linear system does not have a one-dimensional
    kernel; each such error is recorded as a failure."""
    rng = random.Random(seed)
    primes = _primes_upto(p_max)
    failures = []
    cases = 0
    while cases < samples:
        p = rng.choice(primes)
        n = rng.randrange(1, n_max + 1)
        field = ExtField(p, random_irreducible(p, n, rng), check_modulus=False)
        r = field.element([rng.randrange(p) for _ in range(n)])
        if r.is_zero:
            continue
        cases += 1
        a = r * r
        try:
            root = field.sqrt(a)
        except (InternalInvariantError, NonResidueError) as exc:
            failures.append(f"p={p} n={n}: sqrt raised {type(exc).__name__}: {exc}")
            continue
        if root * root != a:
            failures.append(f"p={p} n={n}: sqrt fails to square back")
    return PropertyResult("ext-sqrt", cases, failures)


def run_all(p_max: int = 13, n_max: int = 3, *, graph_q_max: int | None = None,
            sqrt_samples: int = 200, seed: int = DEFAULT_SEED) -> list[PropertyResult]:
    """The full desk-scale suite at CLI defaults."""
    p_list = _primes_upto(p_max)
    if graph_q_max is None:
        graph_q_max = min(p_max ** n_max, 4096)
    results = [
        check_nu2_doubling(),
        check_legendre(p_max),
        check_nullspace(seed=seed),
        check_transform_properties(p_list, n_max),
        check_predicate_agreement(p_list, n_max),
        check_rabin_bruteforce(min(p_max, 7), min(n_max + 1, 4)),
        check_tilde_degrees(min(p_max, 7), min(n_max + 1, 4)),
        check_sequences(p_list, list(range(1, min(n_max, 2) + 1))),
        check_sequence_goldens(),
        check_graphs(graph_q_max),
        check_tree_depth_doubling(graph_q_max),
        check_ext_sqrt(samples=sqrt_samples, seed=seed),
    ]
    return results


def all_monic(p: int, n: int):
    """Every monic polynomial of degree n over F_p."""
    for tail in itertools.product(range(p), repeat=n):
        yield FpPoly(tail + (1,), p)


def brute_irreducible(f: FpPoly) -> bool:
    """Trial division by every monic polynomial of at most half degree;
    False for constants."""
    n = f.degree
    if n < 1:
        return False
    for d in range(1, n // 2 + 1):
        for g in all_monic(f.p, d):
            if (f % g).is_zero:
                return False
    return True


def check_rabin_bruteforce(p_max: int = 7, n_max: int = 4) -> PropertyResult:
    """The fast irreducibility test agrees with trial division by all
    monic polynomials of at most half the degree."""
    failures = []
    cases = 0
    for p in _primes_upto(p_max):
        for n in range(1, n_max + 1):
            for f in all_monic(p, n):
                cases += 1
                if f.is_irreducible() != brute_irreducible(f):
                    failures.append(f"p={p} f={f}: fast and brute-force tests disagree")
    return PropertyResult("irreducibility-vs-bruteforce", cases, failures)
