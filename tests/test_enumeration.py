import random
from itertools import combinations

import pytest

from abcmax.enumeration import (
    all_graphs,
    are_isomorphic,
    canonical_form,
    connected_graph_list,
    connected_graphs,
    expand_seed,
)
from abcmax.graphs import (
    Graph,
    bridge_cliques_graph,
    complete_graph,
    disjoint_union,
    encode_graph6,
    is_connected,
    kn_k_graph,
    path_graph,
)

# connected graph classes by order, cross-checked against the labeled oracle below
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
ALL_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def labeled_connected_classes(n: int) -> int:
    """Independent oracle: every labeled graph, filter connected, dedup."""
    pairs = list(combinations(range(n), 2))
    forms = set()
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        g = Graph.from_edges(n, edges)
        if is_connected(g):
            forms.add(canonical_form(g))
    return len(forms)


def permuted(g: Graph, perm: list[int]) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestCanonicalForm:
    def test_all_labelings_of_path3_agree(self):
        import itertools
        forms = set()
        for perm in itertools.permutations(range(3)):
            forms.add(canonical_form(permuted(path_graph(3), list(perm))))
        assert len(forms) == 1

    def test_distinguishes_non_isomorphic(self):
        k3_plus_k1 = disjoint_union(complete_graph(3), complete_graph(1))
        assert canonical_form(k3_plus_k1) != canonical_form(path_graph(4))
        assert not are_isomorphic(k3_plus_k1, path_graph(4))

    def test_bridge_is_kn_k_with_k1(self):
        assert canonical_form(bridge_cliques_graph(1, 5)) == canonical_form(kn_k_graph(6, 1))
        assert are_isomorphic(bridge_cliques_graph(1, 5), kn_k_graph(6, 1))

    def test_invariant_under_random_relabeling(self):
        rng = random.Random(3)
        for g in list(connected_graph_list(6))[::11]:
            base = canonical_form(g)
            for _ in range(5):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert canonical_form(permuted(g, perm)) == base

    def test_order_cap(self):
        with pytest.raises(ValueError):
            canonical_form(complete_graph(17))
        with pytest.raises(ValueError):
            are_isomorphic(complete_graph(17), complete_graph(17))

    def test_different_orders_never_isomorphic(self):
        assert not are_isomorphic(complete_graph(3), complete_graph(4))


class TestConnectedEnumeration:
    def test_counts(self):
        for n, expected in CONNECTED_COUNTS.items():
            if n <= 7:
                assert sum(1 for _ in connected_graphs(n)) == expected

    def test_count_n8(self):
        assert len(connected_graph_list(8)) == CONNECTED_COUNTS[8]

    def test_labeled_oracle_agreement(self):
        for n in range(1, 7):
            assert labeled_connected_classes(n) == CONNECTED_COUNTS[n]

    def test_no_duplicate_forms(self):
        for n in range(1, 8):
            forms = [canonical_form(g) for g in connected_graphs(n)]
            assert len(forms) == len(set(forms))

    def test_all_connected(self):
        for n in range(1, 8):
            assert all(is_connected(g) for g in connected_graphs(n))

    def test_stream_order_is_stable(self):
        first = [encode_graph6(g) for g in connected_graphs(6)]
        second = [encode_graph6(g) for g in connected_graphs(6)]
        assert first == second

    def test_order_range_checks(self):
        with pytest.raises(ValueError):
            list(connected_graphs(0))
        with pytest.raises(ValueError):
            next(connected_graphs(10))  # needs allow_long
        with pytest.raises(ValueError):
            next(connected_graphs(11, allow_long=True))

    def test_subtree_partition_reproduces_stream(self):
        whole = [encode_graph6(g) for g in connected_graphs(7)]
        seeds = connected_graph_list(4)
        pieces = [encode_graph6(g) for seed in seeds for g in expand_seed(seed.rows, 7)]
        assert pieces == whole

    def test_matches_networkx_atlas(self):
        nx = pytest.importorskip("networkx")
        atlas: dict[int, set] = {}
        for atlas_graph in nx.graph_atlas_g():
            n = atlas_graph.number_of_nodes()
            if n and nx.is_connected(atlas_graph):
                atlas.setdefault(n, set()).add(
                    canonical_form(Graph.from_edges(n, atlas_graph.edges())))
        for n in range(1, 8):
            forms = [canonical_form(g) for g in connected_graphs(n)]
            assert len(forms) == len(set(forms)) == CONNECTED_COUNTS[n]
            assert set(forms) == atlas[n]


class TestAllGraphs:
    def test_counts(self):
        for n, expected in ALL_GRAPH_COUNTS.items():
            if n <= 6:
                assert sum(1 for _ in all_graphs(n)) == expected

    def test_no_duplicates_n5(self):
        forms = [canonical_form(g) for g in all_graphs(5)]
        assert len(forms) == len(set(forms))

    def test_orders_match(self):
        assert all(g.n == 5 for g in all_graphs(5))
