import random
from collections import Counter
from itertools import combinations

import pytest

from abcmax import connectivity, verifier
from abcmax.connectivity import (
    edge_connectivity,
    edge_cut_side,
    separator_parts,
    vertex_connectivity,
)
from abcmax.enumeration import connected_graph_list
from abcmax.graphs import (
    Graph,
    _bits,
    bridge_cliques_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    is_connected,
    kn_k_graph,
    path_graph,
)


def without_vertices(g: Graph, cut) -> Graph:
    keep = [v for v in range(g.n) if v not in cut]
    return Graph.from_edges(
        len(keep),
        [
            (i, j)
            for i in range(len(keep))
            for j in range(i + 1, len(keep))
            if g.has_edge(keep[i], keep[j])
        ],
    )


def without_edges(g: Graph, cut) -> Graph:
    rows = list(g.rows)
    for u, v in cut:
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
    return Graph(g.n, tuple(rows))


def brute_edge_connectivity_upto(g: Graph, max_size: int):
    """Smallest disconnecting edge set of size <= max_size, else None."""
    edges = list(g.edges())
    for size in range(0, max_size + 1):
        for subset in combinations(edges, size):
            if not is_connected(without_edges(g, subset)):
                return size
    return None


def brute_vertex_connectivity(g: Graph) -> int:
    """Minimum separator by removal of every vertex subset; n-1 if none."""
    n = g.n
    for size in range(0, n - 1):
        for subset in combinations(range(n), size):
            if not is_connected(without_vertices(g, subset)):
                return size
    return n - 1


def reference_edge_cut(g: Graph) -> int:
    """lambda from a flow 0 -> t for every t, capped at the minimum degree."""
    n = g.n
    if n == 1 or not is_connected(g):
        return 0
    best = min(r.bit_count() for r in g.rows)
    free = (0,) * n
    for t in range(1, n):
        if best == 1:
            break
        best = min(best, connectivity._augment(g.rows, free, 0, t, best)[0])
    return best


def reference_vertex_cut(g: Graph) -> int:
    """kappa from a split-graph flow for every non-adjacent pair, capped at n-1."""
    n = g.n
    if n == 1 or not is_connected(g):
        return 0
    unit = [0] * (2 * n)
    free = [0] * (2 * n)
    for v in range(n):
        unit[2 * v] = 1 << (2 * v + 1)
        for u in _bits(g.rows[v]):
            free[2 * v + 1] |= 1 << (2 * u)
    full = (1 << n) - 1
    best = n - 1
    for s in range(n):
        for t in _bits(full & ~g.rows[s] & ~((1 << (s + 1)) - 1)):
            best = min(best, connectivity._augment(unit, free, 2 * s + 1, 2 * t, best)[0])
            if best == 1:
                return best
    return best


@pytest.fixture(scope="module")
def random_graphs():
    """2 000 seeded connected graphs, 2 <= n <= 16, edge densities 0.15..0.95."""
    rng = random.Random(10)
    graphs = []
    while len(graphs) < 2000:
        n = rng.randint(2, 16)
        p = rng.choice((0.15, 0.3, 0.5, 0.7, 0.85, 0.95))
        g = Graph.from_edges(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
        if is_connected(g):
            graphs.append(g)
    return graphs


@pytest.fixture
def augment_calls(monkeypatch):
    """The argument tuples of every `_augment` call made during the test."""
    calls = []
    real_augment = connectivity._augment

    def counting_augment(*args):
        calls.append(args)
        return real_augment(*args)

    monkeypatch.setattr(connectivity, "_augment", counting_augment)
    return calls


class TestEdgeConnectivity:
    def test_complete(self):
        for n in range(2, 11):
            assert edge_connectivity(complete_graph(n)) == n - 1

    def test_bridge_of_cliques(self):
        assert edge_connectivity(bridge_cliques_graph(3, 3)) == 1

    def test_kn_k_example(self):
        g = kn_k_graph(6, 3)
        assert edge_connectivity(g) == 3
        assert brute_edge_connectivity_upto(g, 3) == 3

    def test_cycle(self):
        assert edge_connectivity(cycle_graph(7)) == 2

    def test_trivial_and_disconnected(self):
        assert edge_connectivity(complete_graph(1)) == 0
        assert edge_connectivity(disjoint_union(complete_graph(3), complete_graph(2))) == 0

    def test_brute_force_agreement_n_le_6(self):
        for n in range(2, 7):
            for g in connected_graph_list(n):
                brute = brute_edge_connectivity_upto(g, 3)
                lam = edge_connectivity(g)
                if brute is None:
                    assert lam >= 4
                else:
                    assert lam == brute


class TestVertexConnectivity:
    def test_complete_convention(self):
        assert vertex_connectivity(complete_graph(5)) == 4
        assert vertex_connectivity(complete_graph(1)) == 0

    def test_kn_k_example(self):
        g = kn_k_graph(6, 3)
        assert vertex_connectivity(g) == 3
        assert brute_vertex_connectivity(g) == 3

    def test_path(self):
        assert vertex_connectivity(path_graph(4)) == 1

    def test_disconnected(self):
        assert vertex_connectivity(disjoint_union(complete_graph(2), complete_graph(2))) == 0

    def test_brute_force_agreement_n_le_7(self):
        for n in range(2, 8):
            for g in connected_graph_list(n):
                assert vertex_connectivity(g) == brute_vertex_connectivity(g)


class TestStructuralProperties:
    def test_whitney_chain(self):
        # kappa <= lambda <= min degree on every enumerated graph
        for n in range(2, 8):
            for g in connected_graph_list(n):
                lam = edge_connectivity(g)
                kap = vertex_connectivity(g)
                assert kap <= lam <= min(g.degrees())

    def test_kn_k_connectivities(self):
        for n in range(6, 13):
            for k in range(1, n - 1):
                g = kn_k_graph(n, k)
                assert edge_connectivity(g) == k
                assert vertex_connectivity(g) == k


def connected_classes_upto_7():
    return [g for n in range(1, 8) for g in connected_graph_list(n)]


class TestReferenceOracle:
    """The pruned cuts against a flow for every candidate pair."""

    def test_every_class_upto_7(self):
        for g in connected_classes_upto_7():
            assert edge_connectivity(g) == reference_edge_cut(g)
            assert vertex_connectivity(g) == reference_vertex_cut(g)

    def test_random_graphs(self, random_graphs):
        kappas = set()
        for g in random_graphs:
            assert edge_connectivity(g) == reference_edge_cut(g)
            kap = vertex_connectivity(g)
            assert kap == reference_vertex_cut(g)
            kappas.add(kap)
        # dense graphs reach sources beyond v_1 and skip pairs on common neighbours
        assert max(kappas) >= 8

    def test_flow_counts_pinned(self, augment_calls):
        # a lost pruning rule shows here as a count
        graphs = connected_graph_list(7)
        for g in graphs:
            edge_connectivity(g)
        assert len(augment_calls) == 487  # 3 030 with a flow 0 -> t for every t
        augment_calls.clear()
        for g in graphs:
            vertex_connectivity(g)
        assert len(augment_calls) == 643  # 4 668 with a flow for every non-adjacent pair

    def test_scan_calls_pinned(self, monkeypatch, augment_calls):
        # the order-8 scan of `verify all`: a lost parent lemma shows here as a count
        calls = Counter()
        for name in ("edge_connectivity", "vertex_connectivity", "is_k_colorable",
                     "chromatic_number"):
            def counted(*args, _real=getattr(verifier, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(verifier, name, counted)
        cells = [verifier.ConstraintSpec(kind, k) for kind in
                 ("edge_connectivity_eq", "vertex_connectivity_eq") for k in range(1, 7)]
        cells += [verifier.ConstraintSpec("chromatic_eq", k) for k in range(2, 9)]
        partials = [verifier._scan_kernel(g.rows, 8, cells) for g in connected_graph_list(7)]
        verifier._scan_cells(8, cells, partials)
        # from scratch: 11 123 lambda and kappa calls, 51 163 colouring calls;
        # the 853 parents' kappa and chi are 853 of the vertex_connectivity and
        # chromatic_number calls, the rest re-check maximizers: no child runs a kappa flow
        assert calls == {"edge_connectivity": 1824, "vertex_connectivity": 859,
                         "is_k_colorable": 249, "chromatic_number": 860}
        assert len(augment_calls) == 5480  # 22 752 from scratch; parents' searches included

    def test_low_order_scan_calls_pinned(self, monkeypatch):
        # the battery's orders 4..7, one task per class of order n - 1, with
        # every graph decided from its parent
        calls = Counter()
        for name in ("edge_connectivity", "vertex_connectivity", "is_k_colorable",
                     "chromatic_number"):
            def counted(*args, _real=getattr(verifier, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(verifier, name, counted)
        for n in range(4, 8):
            cells = [verifier.ConstraintSpec(kind, k) for kind in
                     ("edge_connectivity_eq", "vertex_connectivity_eq") for k in range(1, n - 1)]
            cells += [verifier.ConstraintSpec("chromatic_eq", k) for k in range(2, n + 1)]
            partials = [verifier._scan_kernel(g.rows, n, cells) for g in connected_graph_list(n - 1)]
            verifier._scan_cells(n, cells, partials)
        # from scratch: 1 006 lambda and kappa calls, 4 331 colouring calls; the
        # 141 parents of orders 3..6 are in the vertex_connectivity and
        # chromatic_number calls, and the 14 kappa cells re-check their maximizers
        assert calls == {"edge_connectivity": 202, "vertex_connectivity": 155,
                         "is_k_colorable": 34, "chromatic_number": 159}


class TestAtlasOracle:
    def test_matches_networkx_on_connected_atlas(self):
        nx = pytest.importorskip("networkx")
        checked = 0
        for atlas_graph in nx.graph_atlas_g():
            n = atlas_graph.number_of_nodes()
            if n == 0 or not nx.is_connected(atlas_graph):
                continue
            g = Graph.from_edges(n, atlas_graph.edges())
            assert edge_connectivity(g) == nx.edge_connectivity(atlas_graph)
            assert vertex_connectivity(g) == nx.node_connectivity(atlas_graph)
            checked += 1
        assert checked == 996


def cut_edges(g: Graph, side: int) -> list[tuple[int, int]]:
    """The edges leaving the vertex mask `side`."""
    return [(u, v) for u in _bits(side) for v in _bits(g.rows[u] & ~side)]


def assert_witnesses(g: Graph):
    full = (1 << g.n) - 1
    lam, side = edge_cut_side(g)
    assert lam == edge_connectivity(g)
    assert 0 < side < full
    assert len(cut_edges(g, side)) == lam
    assert not is_connected(without_edges(g, cut_edges(g, side)))
    kap = vertex_connectivity(g)
    assert kap <= lam
    assert (kap == g.n - 1) == (g.edge_count() == g.n * (g.n - 1) // 2)


class TestProfile:
    def test_witnesses_on_every_class_upto_7(self):
        for g in connected_classes_upto_7():
            if g.n > 1:
                assert_witnesses(g)

    def test_witnesses_on_random_graphs(self, random_graphs):
        for g in random_graphs:
            assert_witnesses(g)


class TestWitnesses:
    def test_edge_cut_witness_disconnects(self):
        for g in (bridge_cliques_graph(3, 4), kn_k_graph(6, 2), cycle_graph(6)):
            lam, side = edge_cut_side(g)
            assert len(cut_edges(g, side)) == lam
            assert not is_connected(without_edges(g, cut_edges(g, side)))

    def test_complete_graph_has_no_vertex_cut(self):
        g = complete_graph(4)
        assert vertex_connectivity(g) == 3
        assert separator_parts(g, 3) == []
        lam, side = edge_cut_side(g)
        assert lam == len(cut_edges(g, side)) == 3


def brute_separator_parts(g: Graph) -> list[int]:
    """The components of g - X, as vertex masks, for every X of kappa(g)
    vertices that disconnects g, each found by a depth-first search."""
    parts = []
    for sep in combinations(range(g.n), brute_vertex_connectivity(g)):
        left = [v for v in range(g.n) if v not in sep]
        comps = []
        while left:
            stack, comp = [left[0]], 0
            while stack:
                v = stack.pop()
                if not (comp >> v) & 1:
                    comp |= 1 << v
                    stack.extend(u for u in g.neighbors(v) if u not in sep)
            comps.append(comp)
            left = [v for v in left if not (comp >> v) & 1]
        if len(comps) > 1:
            parts.extend(comps)
    return parts


class TestSeparatorParts:
    """The components left by every minimum separator, against a listing of
    every vertex subset of size kappa."""

    def test_every_class_upto_7(self):
        for g in connected_classes_upto_7():
            assert sorted(separator_parts(g, vertex_connectivity(g))) == sorted(
                brute_separator_parts(g)), g.rows

    def test_random_graphs_upto_10(self):
        rng = random.Random(26)
        listed = 0
        for _ in range(300):
            n = rng.randint(2, 10)
            p = rng.choice((0.2, 0.4, 0.6, 0.85))
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                     if rng.random() < p])
            if is_connected(g):
                parts = separator_parts(g, vertex_connectivity(g))
                assert sorted(parts) == sorted(brute_separator_parts(g)), g.rows
                listed += bool(parts)
        assert listed >= 100
