import pytest

from irrseq import (ExtField, FpPoly, build_graph, conjugacy_check, export_dot,
                    nu2, verify_tree_structure)
from irrseq.poly import irreducibles

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
        assert g.successor == want
        assert g.successor[0] == g.inf and g.successor[g.inf] == g.inf

    def test_extension_successors_match_element_arithmetic(self):
        from irrseq import theta, INFINITY
        for p, n in [(3, 2), (5, 2)]:
            field = ExtField(p, next(iter(irreducibles(p, n))))
            g = build_graph(field)
            ops = g._ops
            for idx in range(g.q):
                u = field.element(ops.coords(idx))
                image = theta(u)
                if image is INFINITY:
                    assert g.successor[idx] == g.inf
                else:
                    assert ops.coords(g.successor[idx]) == list(image.coords)

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            build_graph(5, limit=4)

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


class TestBatchInverse:
    def test_wrong_power_raises(self, monkeypatch):
        # the batch-inverse check must survive python -O, so it cannot be
        # an assert
        import irrseq.graph as graph_mod
        from irrseq import InternalInvariantError
        monkeypatch.setattr(graph_mod._FieldOps, "_pow", lambda self, i, e: 1)
        with pytest.raises(InternalInvariantError):
            build_graph(7)
        with pytest.raises(InternalInvariantError):
            ext_graph(3, 2)


class TestConjugacy:
    def test_small_fields(self):
        for q in [3, 5, 7, 11, 13]:
            assert conjugacy_check(build_graph(q))
        for p, n in [(3, 2), (5, 2), (3, 3), (7, 2)]:
            assert conjugacy_check(ext_graph(p, n))


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
