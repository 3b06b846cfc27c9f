import math
import random
from decimal import Decimal

import pytest

from abcmax import invariants
from abcmax.enumeration import connected_graph_list
from abcmax.graphs import (
    Graph,
    add_edge,
    bridge_cliques_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    kn_k_graph,
    turan_graph,
)
from abcmax.invariants import _degree_pairs, abc_index, abc_index_decimal, f_abc

# expected values below are frozen from explicit degree-pair decompositions,
# e.g. K_6(3) has edge multiset {(5,5)x3, (4,4)x1, (3,5)x3, (4,5)x6}


def permuted(g: Graph, perm: list[int]) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def per_edge_abc(g: Graph) -> float:
    deg = g.degrees()
    return math.fsum(f_abc(deg[u], deg[v]) for u, v in g.edges())


class TestEdgeFunction:
    def test_values(self):
        assert f_abc(1, 1) == 0.0
        assert f_abc(2, 2) == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
        assert f_abc(3, 3) == pytest.approx(2 / 3, abs=1e-15)
        assert f_abc(4, 5) == pytest.approx(math.sqrt(7 / 20), abs=1e-15)

    def test_symmetric(self):
        for a in range(1, 8):
            for b in range(a, 8):
                assert f_abc(a, b) == f_abc(b, a)

    def test_unit_interval(self):
        for a in range(1, 20):
            for b in range(1, 20):
                assert 0.0 <= f_abc(a, b) <= 1.0

    def test_degree_errors(self):
        with pytest.raises(ValueError):
            f_abc(0, 3)
        with pytest.raises(ValueError):
            f_abc(2, 0)


class TestAbcIndex:
    def test_k2_is_zero(self):
        assert abc_index(complete_graph(2)) == 0.0

    def test_edgeless_is_zero(self):
        assert abc_index(empty_graph(5)) == 0.0

    def test_k4_exact(self):
        assert abc_index(complete_graph(4)) == pytest.approx(4.0, abs=1e-12)

    def test_kn_k_values(self):
        assert abc_index(kn_k_graph(6, 3)) == pytest.approx(7.756443176504305, abs=1e-12)
        assert abc_index(kn_k_graph(6, 2)) == pytest.approx(7.366664164269486, abs=1e-12)
        assert abc_index(kn_k_graph(6, 1)) == pytest.approx(6.935093718414529, abs=1e-12)
        assert abc_index(kn_k_graph(5, 1)) == pytest.approx(4.802517076888147, abs=1e-12)

    def test_turan_values(self):
        assert abc_index(turan_graph(6, 3)) == pytest.approx(3 * math.sqrt(6), abs=1e-12)
        assert abc_index(turan_graph(9, 3)) == pytest.approx(27 * math.sqrt(10) / 6, abs=1e-12)

    def test_cycle_value(self):
        assert abc_index(cycle_graph(5)) == pytest.approx(5 * math.sqrt(2) / 2, abs=1e-12)

    def test_complete_closed_form(self):
        # C(n,2) edges, all with degree pair (n-1, n-1)
        for n in range(2, 201):
            expected = n * math.sqrt(2 * n - 4) / 2
            assert abs(abc_index(complete_graph(n)) - expected) <= 1e-9

    def test_isomorphism_invariance(self):
        rng = random.Random(7)
        for g in (kn_k_graph(7, 3), turan_graph(8, 3), cycle_graph(9)):
            base = abc_index(g)
            for _ in range(10):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert abc_index(permuted(g, perm)) == pytest.approx(base, abs=1e-12)

    def test_edge_addition_strictly_increases(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(3, 10)
            while True:
                g = Graph.from_edges(
                    n,
                    [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5],
                )
                from abcmax.graphs import is_connected
                if is_connected(g) and g.edge_count() < n * (n - 1) // 2:
                    break
            non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)]
            u, v = non_edges[rng.randrange(len(non_edges))]
            assert abc_index(add_edge(g, u, v)) - abc_index(g) > 1e-12

    def test_complete_graph_maximizes_over_all_connected(self):
        # among every connected class of order n <= 7, the maximum is K_n alone
        from abcmax.enumeration import connected_graph_list
        for n in range(2, 8):
            target = abc_index(complete_graph(n))
            hits = [g for g in connected_graph_list(n)
                    if abc_index(g) > target - 1e-9]
            assert len(hits) == 1
            assert hits[0].edge_count() == n * (n - 1) // 2

    def test_degree_pair_sum_equals_per_edge_sum(self):
        graphs = [g for n in range(2, 8) for g in connected_graph_list(n)]
        graphs += [bridge_cliques_graph(x, n - x) for n in range(2, 101) for x in range(1, n // 2 + 1)]
        graphs += [complete_graph(n) for n in range(2, 201)]
        for g in graphs:
            assert abc_index(g) == per_edge_abc(g)

    def test_decimal_agrees_with_float(self):
        for g in (kn_k_graph(6, 3), turan_graph(9, 3), cycle_graph(7)):
            assert float(abc_index_decimal(g)) == pytest.approx(abc_index(g), abs=1e-12)

    def test_decimal_precision(self):
        # K_4: six edges of f(3,3) = 2/3 exactly
        d = abc_index_decimal(complete_graph(4))
        assert abs(d - 4) < Decimal("1e-37")


class TestEdgeSum:
    def test_constant_one_counts_edges(self):
        g = kn_k_graph(7, 2)
        assert sum(_degree_pairs(g).values()) == g.edge_count()

    def test_k5_abc(self):
        assert abc_index(complete_graph(5)) == pytest.approx(5 * math.sqrt(6) / 2, abs=1e-12)

    def test_one_call_per_degree_pair(self, monkeypatch):
        calls = []
        real_f_abc = invariants.f_abc
        monkeypatch.setattr(invariants, "f_abc", lambda a, b: calls.append((a, b)) or real_f_abc(a, b))
        g = kn_k_graph(6, 3)
        assert _degree_pairs(g) == {(5, 5): 3, (4, 4): 1, (3, 5): 3, (4, 5): 6}
        abc_index(g)
        assert sorted(calls) == [(3, 5), (4, 4), (4, 5), (5, 5)]
