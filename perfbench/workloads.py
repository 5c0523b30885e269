"""The four benchmark workloads: inputs from a seed, passes, and output checks.

Each workload is a closed loop of passes in one process.  ``generate``
turns the workload seed into the inputs the program receives,
``warm_up`` runs the same calls on a small instance, ``run_pass`` does
one pass and returns its items (one timed request each, with its
result), ``check`` decides, outside the timed phase, whether an item's
result is right, and ``top_stages`` gives the longest stage of every
pass.  Functions of irrseq are looked up on their modules at call time,
so the tracer's patches take effect.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import irrseq.extfield as ext
import irrseq.graph as graph
import irrseq.poly as poly
import irrseq.sequence as seq

import reference as ref

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

SPLIT_P = 7
SPLIT_DEGREE = 64
SPLIT_BATCH = 8               # factorizations per pass
SPLIT_POOL = 80               # distinct seeds generated per run
GRAPH_PRIME = 524287          # 2^19 - 1
GRAPH_EXT = (3, 9)            # F_{3^9}, modulus picked by the seed


@dataclass
class Item:
    """One timed request and what it returned."""

    seconds: float
    result: object
    inputs: object
    stages: list[float] = field(default_factory=list)   # per-stage times, if any
    verdict: list[str] | None = None                     # set by an inline check


# -- sequences: doubling over F_7, wide over a 31-bit prime ----------------


class Sequence:
    """build_sequence from a degree-1 seed until the last member has the
    top degree.  The seed table, with the degrees and a SHA-256 digest of
    the trace JSON of every entry, ships in expected.json."""

    check_inline = False

    def __init__(self, name: str):
        self.name = name
        self.table = EXPECTED[name]

    def generate(self, seed: int):
        entry = self.table["seeds"][seed % len(self.table["seeds"])]
        p = self.table["p"]
        return p, poly.FpPoly([entry["c"], 1], p), entry

    def warm_up(self, inputs) -> None:
        # the same small build for every seed, so set-up cost does not
        # depend on which table entry the seed picked
        p, f0, _ = self.generate(0)
        seq.build_sequence(seq.SeqConfig(p=p, f0=f0, target_steps=self.table["warm_steps"]))

    def run_pass(self, inputs, done: int) -> list[Item]:
        p, f0, entry = inputs
        stamps = []
        real = seq.factor_r

        def step_probe(*args, **kwargs):
            # one timestamp per step: a step starts when the builder asks
            # for its factorization and ends when the next one starts
            stamps.append(time.perf_counter())
            return real(*args, **kwargs)

        seq.factor_r = step_probe
        try:
            t0 = time.perf_counter()
            trace = seq.build_sequence(seq.SeqConfig(p=p, f0=f0,
                                                     target_steps=entry["steps"]))
            t1 = time.perf_counter()
        finally:
            seq.factor_r = real
        bounds = stamps + [t1]
        stages = [b - a for a, b in zip(bounds, bounds[1:])]
        # the last stage is the top step; the first call is the shared
        # first factorization, which the step loop reuses
        return [Item(t1 - t0, trace, inputs, stages=stages[-1:])]

    def top_stages(self, items: list[Item]) -> list[float]:
        return [max(it.stages) for it in items]

    def check(self, item: Item) -> list[str]:
        p, f0, entry = item.inputs
        trace = item.result
        bad = []
        if trace.degrees() != entry["degrees"]:
            bad.append(f"degrees {trace.degrees()} != {entry['degrees']}")
        bad += _degree_law(trace.degrees())
        for rec in trace.steps + trace.discarded:
            if rec.factors is None:
                continue
            want_r = ref.r_transform(list(rec.input_poly.coeffs), p)
            g1, g2 = (list(g.coeffs) for g in rec.factors)
            if ref.mul(g1, g2, p) != want_r or list(rec.r_poly.coeffs) != want_r:
                bad.append(f"step {rec.index}: g1*g2 != R(f)")
            if ref.reciprocal(g1, p) != g2:
                bad.append(f"step {rec.index}: g2 != reciprocal(g1)")
        digest = hashlib.sha256(trace.to_json().encode()).hexdigest()
        if digest != entry["sha256"]:
            bad.append(f"trace digest {digest[:12]} != {entry['sha256'][:12]}")
        return bad


def _degree_law(degrees: list[int]) -> list[str]:
    # a block of n's, a block of 2n's, then strict doubling
    n = degrees[0]
    k = 0
    while k < len(degrees) and degrees[k] == n:
        k += 1
    while k < len(degrees) and degrees[k] == 2 * n:
        k += 1
    for a, b in zip(degrees[k - 1:], degrees[k:]):
        if b != 2 * a:
            return [f"degree pattern {degrees} is not n..n 2n..2n then doubling"]
    return []


# -- split: factor_r on splitting seeds of degree 64 over F_7 --------------


class Split:
    """factor_r with public defaults on degree-64 seeds whose transform splits.

    Seeds are a^-n F(a x + b) for F = R^4(g), g a random quartic with
    g(1)g(-1) a non-square: once the degree is even and that character
    is -1 every transform stays irreducible, so F is irreducible of
    degree 64, and an affine substitution keeps it irreducible while
    moving f(1)f(-1) onto a nonzero square.  This costs milliseconds,
    where a random search costs about a second per seed.
    """

    name = "split"
    check_inline = False

    def __init__(self):
        self._oracle: dict[tuple[int, ...], bool] = {}

    def generate(self, seed: int, count: int = SPLIT_POOL, degree: int = SPLIT_DEGREE):
        p = SPLIT_P
        rng = random.Random(seed)
        seeds: list[list[int]] = []
        seen = set()
        while len(seeds) < count:
            base = _transformed_irreducible(p, degree, rng)
            pairs = [(a, b) for a in range(1, p) for b in range(p)]
            rng.shuffle(pairs)
            for a, b in pairs[:8]:
                f = ref.affine(base, a, b, p)
                lam = ref.evaluate(f, 1, p) * ref.evaluate(f, p - 1, p) % p
                if lam and ref.is_square(lam, p) and tuple(f) not in seen:
                    seen.add(tuple(f))
                    seeds.append(f)
        return [poly.FpPoly(f, p) for f in seeds[:count]]

    def warm_up(self, inputs) -> None:
        for f in self.generate(0, count=2, degree=16):
            ext.factor_r(f)

    def run_pass(self, inputs, done: int) -> list[Item]:
        items = []
        for k in range(SPLIT_BATCH):
            f = inputs[(done + k) % len(inputs)]
            t0 = time.perf_counter()
            res = ext.factor_r(f)
            items.append(Item(time.perf_counter() - t0, res, f))
        return items

    def top_stages(self, items: list[Item]) -> list[float]:
        return [max(it.seconds for it in items[i:i + SPLIT_BATCH])
                for i in range(0, len(items), SPLIT_BATCH)]

    def check(self, item: Item) -> list[str]:
        f, res, p = item.inputs, item.result, SPLIT_P
        if res.factors is None:
            return ["transform reported irreducible for a splitting seed"]
        g1, g2 = (list(g.coeffs) for g in res.factors)
        want_r = ref.r_transform(list(f.coeffs), p)
        bad = []
        if list(res.r_poly.coeffs) != want_r or ref.mul(g1, g2, p) != want_r:
            bad.append("g1*g2 != R(f)")
        if ref.reciprocal(g1, p) != g2:
            bad.append("g2 != reciprocal(g1)")
        if len(g1) != len(f.coeffs) or not self._irreducible(g1):
            bad.append("g1 is not irreducible of the seed's degree")
        return bad

    def _irreducible(self, coeffs: list[int]) -> bool:
        # sympy's factoring, independent of irrseq; about 30 ms at n = 64
        key = tuple(coeffs)
        if key not in self._oracle:
            import sympy
            from sympy.abc import x
            self._oracle[key] = sympy.Poly(list(reversed(coeffs)), x,
                                           modulus=SPLIT_P).is_irreducible
        return self._oracle[key]


def _transformed_irreducible(p: int, degree: int, rng: random.Random) -> list[int]:
    while True:
        g = [rng.randrange(p) for _ in range(4)] + [1]
        lam = ref.evaluate(g, 1, p) * ref.evaluate(g, p - 1, p) % p
        if lam and not ref.is_square(lam, p) and poly.FpPoly(g, p).is_irreducible():
            break
    while len(g) - 1 < degree:
        g = ref.r_transform(g, p)
    return g


# -- graph: the halving map on P^1(F_q) for a prime field and F_{3^9} ------


class Graph:
    """build_graph + verify_tree_structure + conjugacy_check on two fields."""

    name = "graph"
    # a graph holds ~300 MB: check each pass at once and keep the verdict
    check_inline = True

    def generate(self, seed: int, ext_field=GRAPH_EXT, prime=GRAPH_PRIME):
        p, n = ext_field
        modulus = poly.random_irreducible(p, n, random.Random(seed))
        return prime, ext.ExtField(p, modulus)

    def warm_up(self, inputs) -> None:
        self.run_pass(self.generate(0, ext_field=(3, 5), prime=1031), 0)

    def run_pass(self, inputs, done: int) -> list[Item]:
        stages, results = [], []
        t0 = time.perf_counter()
        for fld in inputs:
            s0 = time.perf_counter()
            g = graph.build_graph(fld)
            report = graph.verify_tree_structure(g)
            conj = graph.conjugacy_check(g)
            stages.append(time.perf_counter() - s0)
            results.append((g, report, conj))
        return [Item(time.perf_counter() - t0, results, inputs, stages=stages)]

    def top_stages(self, items: list[Item]) -> list[float]:
        return [max(it.stages) for it in items]

    def check(self, item: Item) -> list[str]:
        bad = []
        for g, report, conj in item.result:
            if not report.ok:
                bad.append(f"q={g.q}: tree report has {len(report.violations)} violations")
            if not conj:
                bad.append(f"q={g.q}: conjugacy check failed")
            bad += _indegree_law(g)
        return bad


def _indegree_law(g) -> list[str]:
    # y has the preimages x with x^2 - 2yx + 1 = 0: one for y = +-1, two
    # when y^2 - 1 is a nonzero square, none otherwise; inf has 0 and inf.
    # So (q-1)/2 points have two preimages, 1 and -1 one, the rest none.
    indeg = [0] * g.size
    for w in g.successor:
        indeg[w] += 1
    bad = []
    half = (g.q - 1) // 2
    hist = {k: indeg.count(k) for k in (0, 1, 2)}
    if hist != {0: half, 1: 2, 2: half} or indeg[g.inf] != 2 \
            or indeg[g.one] != 1 or indeg[g.minus_one] != 1:
        bad.append(f"q={g.q}: in-degree histogram {hist} breaks the law")
    elif g.n == 1:
        p = g.p
        for y in range(p):
            want = 1 if y in (1, p - 1) else (2 if ref.is_square(y * y - 1, p) else 0)
            if indeg[y] != want:
                bad.append(f"q={g.q}: in-degree of {y} is {indeg[y]}, want {want}")
                break
    return bad


WORKLOADS = {
    "doubling": Sequence("doubling"),
    "wide": Sequence("wide"),
    "split": Split(),
    "graph": Graph(),
}
