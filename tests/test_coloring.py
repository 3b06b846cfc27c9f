import pytest

from abcmax import coloring
from abcmax.coloring import chromatic_number, is_k_colorable, k_coloring
from abcmax.enumeration import all_graphs, connected_graph_list
from abcmax.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
    turan_graph,
)

PETERSEN = Graph.from_edges(10, [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),          # outer cycle
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),          # inner pentagram
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),          # spokes
])

# Mycielskian of C5: triangle-free with chi = 4
GROTZSCH = Graph.from_edges(11, [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),          # the 5-cycle
    (5, 1), (5, 4), (6, 0), (6, 2), (7, 1), (7, 3),  # u_i joined to N(v_i)
    (8, 2), (8, 4), (9, 3), (9, 0),
    (10, 5), (10, 6), (10, 7), (10, 8), (10, 9),     # apex
])


def brute_chromatic(g: Graph) -> int:
    """Try-all-assignments oracle, vertices in index order, no heuristics."""
    n = g.n

    def colorable(k: int) -> bool:
        color = [-1] * n

        def go(v: int) -> bool:
            if v == n:
                return True
            for c in range(k):
                if all(color[u] != c for u in g.neighbors(v)):
                    color[v] = c
                    if go(v + 1):
                        return True
                    color[v] = -1
            return False

        return go(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


def assert_proper(g: Graph, witness, chi: int):
    assert len(witness) == g.n
    assert len(set(witness)) == chi
    for u, v in g.edges():
        assert witness[u] != witness[v]


class TestChromaticNumber:
    def test_complete(self):
        res = chromatic_number(complete_graph(6))
        assert res.chi == 6
        assert_proper(complete_graph(6), res.witness, 6)

    def test_odd_cycle(self):
        res = chromatic_number(cycle_graph(5))
        assert res.chi == 3
        assert_proper(cycle_graph(5), res.witness, 3)

    def test_turan(self):
        res = chromatic_number(turan_graph(9, 3))
        assert res.chi == 3
        assert_proper(turan_graph(9, 3), res.witness, 3)

    def test_petersen(self):
        assert not is_k_colorable(PETERSEN, 2)
        res = chromatic_number(PETERSEN)
        assert res.chi == 3
        assert_proper(PETERSEN, res.witness, 3)

    def test_edgeless(self):
        res = chromatic_number(Graph(4))
        assert res.chi == 1
        assert_proper(Graph(4), res.witness, 1)

    def test_grotzsch(self):
        # no triangle, so the clique bound is 2 and the search must refute 3 colours
        assert all(not GROTZSCH.rows[u] & GROTZSCH.rows[v] for u, v in GROTZSCH.edges())
        assert not is_k_colorable(GROTZSCH, 3)
        res = chromatic_number(GROTZSCH)
        assert res.chi == 4
        assert_proper(GROTZSCH, res.witness, 4)

    def test_brute_force_agreement_n_le_7(self):
        for n in range(2, 8):
            for g in connected_graph_list(n):
                res = chromatic_number(g)
                assert res.chi == brute_chromatic(g)
                assert_proper(g, res.witness, res.chi)

    def test_brute_force_agreement_all_graphs_n_le_7(self):
        # disconnected classes too: each component after the first starts fresh
        graphs = [g for n in range(1, 8) for g in all_graphs(n)]
        assert len(graphs) == 1252
        for g in graphs:
            res = chromatic_number(g)
            assert res.chi == brute_chromatic(g)
            assert_proper(g, res.witness, res.chi)

    def test_failure_in_a_component_is_final(self, monkeypatch):
        # ten stars, then a K_4 that 3 colours cannot cover: the search must not
        # retry the stars' colourings, so its work stays linear in the order
        g = star_graph(5)
        for _ in range(9):
            g = disjoint_union(g, star_graph(5))
        g = disjoint_union(g, complete_graph(4))
        calls = 0
        real_bits = coloring._bits

        def counting_bits(mask):
            nonlocal calls
            calls += 1
            assert calls <= 10 * g.n, "search retried earlier components"
            return real_bits(mask)

        monkeypatch.setattr(coloring, "_bits", counting_bits)
        assert k_coloring(g, 3) is None
        res = chromatic_number(g)
        assert res.chi == 4
        assert_proper(g, res.witness, 4)

    def test_long_cycles_beyond_the_recursion_limit(self):
        # the search keeps one stack entry per coloured vertex, more than
        # the interpreter's default recursion limit of 1000
        for n in (1001, 1501):
            g = cycle_graph(n)
            res = chromatic_number(g)
            assert res.chi == 3
            assert_proper(g, res.witness, 3)

    def test_turan_chi_equals_parts(self):
        for n in range(1, 31):
            for l in range(1, n + 1):
                assert chromatic_number(turan_graph(n, l)).chi == l


class TestDecision:
    def test_k4_not_3_colorable(self):
        assert not is_k_colorable(complete_graph(4), 3)

    def test_bipartite_2_colorable(self):
        for g in (path_graph(6), star_graph(7), turan_graph(8, 2), cycle_graph(6)):
            w = k_coloring(g, 2)
            assert w is not None
            for u, v in g.edges():
                assert w[u] != w[v]

    def test_odd_cycle_not_2_colorable(self):
        assert not is_k_colorable(cycle_graph(5), 2)

    def test_zero_and_negative(self):
        assert not is_k_colorable(complete_graph(2), 0)
        with pytest.raises(ValueError):
            is_k_colorable(complete_graph(2), -1)

    def test_monotone_in_k(self):
        for g in connected_graph_list(6)[::7]:
            chi = chromatic_number(g).chi
            for k in range(1, 8):
                ok = is_k_colorable(g, k)
                assert ok == (k >= chi)

    def test_witness_uses_at_most_k_colors(self):
        for g in connected_graph_list(5):
            chi = chromatic_number(g).chi
            w = k_coloring(g, chi)
            assert w is not None and max(w) + 1 <= chi
