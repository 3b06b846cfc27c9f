import json
import os
import random
import resource
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcmax.graphs import (
    Graph,
    Graph6Error,
    add_edge,
    bridge_cliques_graph,
    complete_graph,
    components,
    cycle_graph,
    decode_graph6,
    disjoint_union,
    empty_graph,
    encode_graph6,
    is_connected,
    join,
    kn_k_graph,
    path_graph,
    remove_edge,
    star_graph,
    turan_graph,
)


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    return Graph.from_edges(n, edges)


class TestBasics:
    def test_empty_graph(self):
        g = empty_graph(1)
        assert g.degrees() == [0]
        assert g.edge_count() == 0
        g5 = empty_graph(5)
        assert g5.edge_count() == 0
        assert not is_connected(g5)

    def test_order_cap(self):
        empty_graph(4096)
        with pytest.raises(ValueError):
            empty_graph(4097)
        with pytest.raises(ValueError):
            empty_graph(0)

    def test_add_edge(self):
        g = add_edge(empty_graph(2), 0, 1)
        assert g == complete_graph(2)

    def test_add_remove_round_trip(self):
        g = cycle_graph(5)
        assert add_edge(remove_edge(g, 1, 2), 1, 2) == g

    def test_mutation_is_value_semantic(self):
        g = path_graph(3)
        h = add_edge(g, 0, 2)
        assert g.edge_count() == 2 and h.edge_count() == 3
        assert not g.has_edge(0, 2)

    def test_add_edge_errors(self):
        with pytest.raises(ValueError):
            add_edge(complete_graph(3), 0, 1)
        with pytest.raises(ValueError):
            add_edge(empty_graph(3), 1, 1)
        with pytest.raises(ValueError, match=r"^edge \(0,3\) out of range for n=3$"):
            add_edge(empty_graph(3), 0, 3)
        with pytest.raises(ValueError):
            remove_edge(empty_graph(3), 0, 1)

    def test_disjoint_union(self):
        assert disjoint_union(complete_graph(1), complete_graph(1)) == empty_graph(2)
        g = disjoint_union(complete_graph(3), complete_graph(2))
        assert g.n == 5
        assert g.edge_count() == 4
        assert not is_connected(g)

    def test_join_small(self):
        assert join(complete_graph(1), complete_graph(1)) == complete_graph(2)
        built = join(complete_graph(3), disjoint_union(complete_graph(1), complete_graph(2)))
        assert built == kn_k_graph(6, 3)

    def test_order_checked_before_anything_is_built(self):
        # every builder refuses an order of 10**12 before it allocates: in a
        # child limited to 1 GiB of address space, a build that came first
        # would raise MemoryError, not the order's ValueError
        script = textwrap.dedent("""
            import json
            from abcmax.graphs import *

            n = 10 ** 12
            calls = {
                "from_edges": lambda: Graph.from_edges(n, []),
                "complete_graph": lambda: complete_graph(n),
                "turan_graph": lambda: turan_graph(n, n),
                "cycle_graph": lambda: cycle_graph(n),
                "path_graph": lambda: path_graph(n),
                "star_graph": lambda: star_graph(n),
                "kn_k_graph": lambda: kn_k_graph(n, 1),
                "bridge_cliques_graph": lambda: bridge_cliques_graph(1, n - 1),
            }
            outcomes = {}
            for name, call in calls.items():
                try:
                    call()
                    outcomes[name] = "built"
                except Exception as exc:
                    outcomes[name] = f"{type(exc).__name__}: {exc}"
            print(json.dumps(outcomes))
        """)
        cap = 1 << 30
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert proc.returncode == 0, proc.stderr
        outcomes = json.loads(proc.stdout)
        assert len(outcomes) == 8
        for name, outcome in outcomes.items():
            assert outcome == "ValueError: vertex count 1000000000000 outside 1..4096", name

    def test_union_caps(self):
        big = empty_graph(4090)
        with pytest.raises(ValueError, match=r"^vertex count 4097 outside 1\.\.4096$"):
            disjoint_union(big, empty_graph(7))
        with pytest.raises(ValueError, match=r"^vertex count 4097 outside 1\.\.4096$"):
            join(big, empty_graph(7))

    def test_audit_passes_after_operations(self):
        for g in (complete_graph(6), kn_k_graph(7, 3), turan_graph(9, 4),
                  bridge_cliques_graph(3, 4), cycle_graph(5), star_graph(6)):
            g.audit()

    def test_edges_in_lex_order(self):
        g = kn_k_graph(5, 2)
        es = list(g.edges())
        assert es == sorted(es)
        assert len(es) == g.edge_count()


class TestFamilies:
    def test_kn_k_shape(self):
        g = kn_k_graph(6, 3)
        assert g.edge_count() == 13
        assert sorted(g.degrees(), reverse=True) == [5, 5, 5, 4, 4, 3]

    def test_kn_k_edge_count_identity(self):
        for n in range(6, 13):
            for k in range(1, n - 1):
                assert kn_k_graph(n, k).edge_count() == (n - 1) * (n - 2) // 2 + k

    def test_kn_k_param_errors(self):
        with pytest.raises(ValueError):
            kn_k_graph(6, 0)
        with pytest.raises(ValueError):
            kn_k_graph(6, 5)

    def test_turan_balanced(self):
        g = turan_graph(6, 3)
        assert g.edge_count() == 12
        assert g.degrees() == [4] * 6

    def test_turan_parts_larger_first(self):
        g = turan_graph(5, 2)
        # parts (3, 2): the first three vertices see the last two
        assert g.edge_count() == 6
        assert g.degrees() == [2, 2, 2, 3, 3]

    def test_turan_edge_count_identity(self):
        for n in range(1, 26):
            for l in range(1, n + 1):
                q, r = divmod(n, l)
                sizes = [q + 1] * r + [q] * (l - r)
                expected = (n * n - sum(t * t for t in sizes)) // 2
                assert turan_graph(n, l).edge_count() == expected

    def test_turan_errors(self):
        with pytest.raises(ValueError):
            turan_graph(5, 6)
        with pytest.raises(ValueError):
            turan_graph(5, 0)

    def test_bridge_cliques(self):
        g = bridge_cliques_graph(3, 3)
        assert is_connected(g)
        assert g.edge_count() == 7
        assert g.has_edge(0, 3)
        with pytest.raises(ValueError):
            bridge_cliques_graph(0, 3)

    def test_complete_edge_count(self):
        for n in (1, 2, 5, 9, 40):
            assert complete_graph(n).edge_count() == n * (n - 1) // 2

    def test_standard_shapes(self):
        assert cycle_graph(7).degrees() == [2] * 7
        assert path_graph(4).degrees() == [1, 2, 2, 1]
        assert sorted(star_graph(6).degrees()) == [1] * 5 + [5]
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_is_connected(self):
        assert is_connected(complete_graph(1))
        assert not is_connected(disjoint_union(complete_graph(3), complete_graph(2)))
        assert is_connected(bridge_cliques_graph(3, 3))

    def test_components_of_an_induced_subgraph(self):
        g = disjoint_union(path_graph(3), complete_graph(2))  # 0-1-2 and 3-4
        assert components(g.rows, 0b11111) == [0b00111, 0b11000]
        assert components(g.rows, 0b11101) == [0b00001, 0b00100, 0b11000]
        assert components(g.rows, 0) == []


class TestGraph6:
    def test_known_encodings(self):
        assert encode_graph6(complete_graph(4)) == "C~"
        assert encode_graph6(path_graph(3)) == "Bg"

    def test_decode_known(self):
        g = decode_graph6("C~")
        assert g == complete_graph(4)
        assert decode_graph6("Bg") == path_graph(3)

    def test_optional_header_prefix(self):
        assert decode_graph6(">>graph6<<C~") == complete_graph(4)

    def test_extended_header_round_trip(self):
        for n in (63, 64, 100):
            g = cycle_graph(n)
            text = encode_graph6(g)
            assert text.startswith("~")
            assert decode_graph6(text) == g

    def test_decode_errors(self):
        with pytest.raises(Graph6Error):
            decode_graph6("")
        with pytest.raises(Graph6Error):
            decode_graph6("C~~")  # length mismatch
        with pytest.raises(Graph6Error):
            decode_graph6("C")  # truncated body
        with pytest.raises(Graph6Error):
            decode_graph6("B" + chr(40))  # byte below offset
        # path on 3 vertices has 3 pair bits; set a padding bit
        with pytest.raises(Graph6Error):
            decode_graph6("B" + chr(63 + 0b101001))

    def test_equals_networkx(self):
        # an independent writer; orders above 62 take the four-byte header
        nx = pytest.importorskip("networkx")
        rng = random.Random(19)
        for n in range(1, 101):
            for p in (rng.random(), 0.5):
                edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
                ref = nx.Graph()
                ref.add_nodes_from(range(n))
                ref.add_edges_from(edges)
                expected = nx.to_graph6_bytes(ref, header=False).strip().decode()
                assert encode_graph6(Graph.from_edges(n, edges)) == expected

    @given(graphs(max_n=32))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, g):
        assert decode_graph6(encode_graph6(g)) == g


class TestCompositionIdentities:
    @given(graphs(max_n=10), graphs(max_n=10))
    @settings(max_examples=100, deadline=None)
    def test_union_edge_count_additive(self, g, h):
        assert disjoint_union(g, h).edge_count() == g.edge_count() + h.edge_count()

    @given(graphs(max_n=10), graphs(max_n=10))
    @settings(max_examples=100, deadline=None)
    def test_join_edge_count(self, g, h):
        assert join(g, h).edge_count() == g.edge_count() + h.edge_count() + g.n * h.n

    @given(graphs(max_n=10), graphs(max_n=10))
    @settings(max_examples=50, deadline=None)
    def test_composites_pass_audit(self, g, h):
        disjoint_union(g, h).audit()
        join(g, h).audit()
