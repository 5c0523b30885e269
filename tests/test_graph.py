import dataclasses
import hashlib
import random
import time

import numpy as np
import pytest

from irrseq import (INFINITY, ExtField, FpPoly, InternalInvariantError, build_graph,
                    conjugacy_check, export_dot, nu2, theta, verify_tree_structure)
from irrseq.fp import is_prime, legendre
from irrseq.poly import irreducibles
import irrseq.graph as graph_mod
from irrseq.verify import _indegree_violations
import oracles

SMALL_PRIMES = [3, 5, 7, 11, 13]


def ext_graph(p, n):
    return build_graph(ExtField(p, next(iter(irreducibles(p, n)))))


class TestBuild:
    def test_point_count_and_out_degree(self):
        for q in SMALL_PRIMES:
            g = build_graph(q)
            assert g.size == q + 1
            assert len(g.successor) == q + 1

    def test_q5_successors_match_direct_formula(self):
        g = build_graph(5)
        inv2 = pow(2, -1, 5)
        want = [g.inf if x == 0 else (x + pow(x, -2, 5) * x) * inv2 % 5
                for x in range(5)] + [g.inf]
        assert g.successor.tolist() == want
        assert g.successor[0] == g.inf and g.successor[g.inf] == g.inf

    def test_extension_successors_match_element_arithmetic(self):
        for p, n in [(3, 2), (5, 2)]:
            field = ExtField(p, next(iter(irreducibles(p, n))))
            g = build_graph(field)
            assert _successors_by_theta(g, field, range(g.q)) == g.successor[:g.q].tolist()

    @pytest.mark.parametrize("p, n", [(3, 5), (5, 3), (7, 3), (3, 7), (65537, 1)])
    def test_array_successor_matches_scalar_theta(self, p, n):
        # the exp/log tables (n > 1) and the Fermat inverses (n = 1)
        # against ExtElem arithmetic on sampled points
        modulus = FpPoly([0, 1], p) if n == 1 else next(iter(irreducibles(p, n)))
        field = ExtField(p, modulus)
        g = build_graph(field)
        sample = ([0, 1, g.one, g.minus_one, g.q - 1]
                  + random.Random(p).sample(range(g.q), min(g.q, 200)))
        assert _successors_by_theta(g, field, sample) == g.successor[sample].tolist()

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            build_graph(5, limit=4)

    def test_outside_int64_bounds_refused_up_front(self):
        # a limit that admits the field does not lift the exactness bounds:
        # p^2 < 2^63 for the Fermat power, n(p-1)^2 < 2^63 for the block
        # matmul of the exp table
        big = 3037000507                      # smallest prime with p^2 >= 2^63
        assert is_prime(big) and big * big >= 1 << 63
        p2 = 2147483659                       # smallest prime above 2^31
        c = next(c for c in range(2, 100) if legendre(c, p2) == -1)
        quadratic = ExtField(p2, FpPoly([-c, 0, 1], p2))
        assert 2 * (p2 - 1) ** 2 >= 1 << 63
        for fld in (big, quadratic):
            t0 = time.perf_counter()
            with pytest.raises(ValueError, match="int64 exactness"):
                build_graph(fld, limit=1 << 70)
            assert time.perf_counter() - t0 < 1.0

    def test_fermat_power_exact_at_the_bound(self):
        p = 3037000493                        # largest prime with p^2 < 2^63
        assert is_prime(p) and p * p < 1 << 63
        x = np.array([1, 2, 3, p // 2, p - 2, p - 1] + list(range(p - 40, p - 2)), dtype=np.int64)
        inv = graph_mod._power(x, p - 2, p)
        assert inv.tolist() == [pow(v, -1, p) for v in x.tolist()]

    def test_fixed_points(self):
        g = build_graph(7)
        assert g.successor[1] == 1
        assert g.successor[7 - 1] == 7 - 1


class TestStructure:
    def test_depths_small_primes(self):
        for q in SMALL_PRIMES + [17, 29, 97]:
            rep = verify_tree_structure(build_graph(q))
            assert rep.ok, rep.violations
            assert rep.expected_depth == nu2(q - 1)
            for root in rep.roots:
                assert root.depth == nu2(q - 1)
                assert root.root_children == 1

    def test_q13_depth_two(self):
        rep = verify_tree_structure(build_graph(13))
        assert rep.expected_depth == 2
        assert all(r.depth == 2 for r in rep.roots)

    def test_q9_depth_three(self):
        rep = verify_tree_structure(ext_graph(3, 2))
        assert rep.expected_depth == 3
        assert rep.ok, rep.violations

    def test_plus_minus_one_tree_free(self):
        for q in SMALL_PRIMES:
            g = build_graph(q)
            preds = g.predecessors()
            assert preds[g.one] == [g.one]
            assert preds[g.minus_one] == [g.minus_one]

    def test_indegree_distribution(self):
        for q in [7, 13, 29]:
            g = build_graph(q)
            preds = g.predecessors()
            assert sorted(preds[g.inf]) == sorted([0, g.inf])
            for v in range(g.size):
                if v in (g.one, g.minus_one, g.inf):
                    continue
                assert len(preds[v]) in (0, 2)

    def test_every_node_reaches_periodic(self):
        g = ext_graph(5, 2)
        for v in range(g.size):
            x, hops = v, 0
            while not g.periodic[x]:
                x = g.successor[x]
                hops += 1
                assert hops <= g.size
            assert g.level[v] == hops
            assert g.tree_root[v] == x or g.periodic[v]

    def test_depth_doubles_in_quadratic_extension(self):
        for p, n in [(5, 1), (3, 2), (13, 1)]:
            base_depth = nu2(p ** n - 1)
            assert base_depth >= 2
            rep1 = verify_tree_structure(ext_graph(p, n) if n > 1 else build_graph(p))
            rep2 = verify_tree_structure(ext_graph(p, 2 * n))
            assert rep1.ok and rep2.ok
            assert rep2.expected_depth == rep1.expected_depth + 1


class TestReportsAgainstPointwiseOracles:
    @pytest.mark.parametrize("spec", [13, 17, 41, (3, 2), (5, 2), (3, 3)], ids=str)
    def test_corrupted_graphs(self, spec):
        # random damage to the successor, periodic, level and tree-root
        # arrays; the array checks must report exactly what a walk over
        # the points reports, in the same order
        g = build_graph(spec) if isinstance(spec, int) else ext_graph(*spec)
        rng = random.Random(str(spec))
        flagged = 0
        for _ in range(40):
            bent = dataclasses.replace(
                g, successor=g.successor.copy(), periodic=g.periodic.copy(),
                level=g.level.copy(), tree_root=g.tree_root.copy())
            for _ in range(rng.randint(1, 4)):
                a, b = rng.randrange(g.size), rng.randrange(g.size)
                kind = rng.randrange(4)
                if kind == 0:
                    bent.successor[a] = bent.successor[b]
                elif kind == 1:
                    bent.periodic[a] = not bent.periodic[a]
                elif kind == 2:
                    bent.level[a] = rng.randrange(4)
                else:
                    bent.tree_root[a] = b
            report = verify_tree_structure(bent)
            violations, records = oracles.tree_report_by_points(bent)
            assert report.violations == violations
            assert [dataclasses.astuple(r) for r in report.roots] == records
            assert _indegree_violations(bent) == oracles.indegree_violations_by_points(bent)
            flagged += bool(violations)
        assert flagged >= 20


class TestBatchInverse:
    def test_wrong_power_raises(self, monkeypatch):
        # the inverse and exp-table checks must survive python -O, so they
        # cannot be asserts: wrong Fermat inverses over F_7, and an exp
        # table with two rows swapped over F_9
        monkeypatch.setattr(graph_mod, "_power", lambda x, e, p: np.ones_like(x))
        with pytest.raises(InternalInvariantError):
            build_graph(7)

        real = graph_mod._exp_table

        def swapped(fld, g):
            table = real(fld, g)
            table[[1, 2]] = table[[2, 1]]
            return table

        monkeypatch.setattr(graph_mod, "_exp_table", swapped)
        with pytest.raises(InternalInvariantError):
            ext_graph(3, 2)


class TestConjugacy:
    def test_small_fields(self):
        for q in [3, 5, 7, 11, 13]:
            assert conjugacy_check(build_graph(q))
        for p, n in [(3, 2), (5, 2), (3, 3), (7, 2)]:
            assert conjugacy_check(ext_graph(p, n))

    def test_moved_successor_fails(self):
        for g in (build_graph(13), ext_graph(3, 3)):
            bent = dataclasses.replace(g, successor=g.successor.copy())
            bent.successor[2] = bent.successor[3]
            assert conjugacy_check(g) and not conjugacy_check(bent)


class TestDot:
    def test_deterministic(self):
        assert export_dot(build_graph(7)) == export_dot(build_graph(7))

    def test_q3_node_count(self):
        dot = export_dot(build_graph(3))
        node_lines = [l for l in dot.splitlines() if l.endswith(";") and "->" not in l]
        assert len(node_lines) == 4

    def test_q5_contains_zero_to_inf(self):
        assert "0 -> inf;" in export_dot(build_graph(5))

    def test_q7_counts(self):
        dot = export_dot(build_graph(7))
        lines = dot.splitlines()
        nodes = [l for l in lines if l.endswith(";") and "->" not in l]
        edges = [l for l in lines if "->" in l]
        assert len(nodes) == 8 and len(edges) == 8

    def test_periodic_marked(self):
        dot = export_dot(build_graph(5))
        assert "1 [shape=doublecircle];" in dot
        assert "inf [shape=doublecircle];" in dot

    def test_extension_labels_quoted_when_needed(self):
        dot = export_dot(ext_graph(3, 2))
        assert '"b+1"' in dot or '"2b+1"' in dot or '"b+2"' in dot
        assert "digraph theta_q9 {" in dot


# SHA-256 of export_dot(g) and repr(verify_tree_structure(g)) as the
# per-point list implementation produced them
GOLDEN = {
    103: ("bab81a77d0b249fb58d6f1e4250f0c2efbb38482ec23317830e9fa6ed9344673",
          "0b5ddbfe9d9f0a1c3f93d1ab9d4ad1b0dd7459025f7b37f09d70c1dfc9a7d507"),
    8191: ("3085239343d77bc87e86c2b0af29be3ac7be7c044caffe1d1a307456d2bda770",
           "82119d16298a53416a61df1848e56317db2b2e480944972133530422d719aea5"),
    (5, 2): ("b9b88c77196b77c23d9706db8101e0e3cc0cebd451331c7d3fa29acd5bccfad5",
             "7c4fdd2bf1dbee98647d9c040c15a80359ff4bf2e83d5d5d5b979618fae4929d"),
    (13, 2): ("028d98f43b0781ac3d2fbda08688e506e31c8db9cf076f5efc52e131f150b144",
              "ac333415317b4a868345e45a0c1353def986a3b02c50f6397adfd140c5f93870"),
    (3, 7): ("b8706396e5e6f00e4a7611714b767da85150537bcc0fdf0cec04054fd782dc79",
             "9be96594805dd20064cb885ee7161c1e47b4090efaec8321646e97ee03664a9a"),
}


@pytest.mark.parametrize("spec", list(GOLDEN), ids=str)
def test_golden_dot_and_report(spec):
    g = build_graph(spec) if isinstance(spec, int) else ext_graph(*spec)
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
    assert (digest(export_dot(g)), digest(repr(verify_tree_structure(g)))) == GOLDEN[spec]


def _successors_by_theta(g, field, points):
    out = []
    for idx in points:
        image = theta(field.element(g._ops.coords(np.array(idx)).tolist()))
        out.append(g.inf if image is INFINITY else
                   int(g._ops.index(np.array(image.coords))))
    return out
