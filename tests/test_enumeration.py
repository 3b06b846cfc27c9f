import hashlib
import random
from itertools import combinations, permutations

import pytest

from abcmax import enumeration
from abcmax.enumeration import (
    _canonical_cols,
    _children,
    _decide_ties,
    _delete_vertex,
    _fingerprint,
    _neighbours,
    _orbit_skips,
    _parent_search,
    _refinement_colors,
    _twin_reps,
    all_graphs,
    are_isomorphic,
    canonical_form,
    connected_graph_list,
    connected_graphs,
    expand_seed,
)
from abcmax.graphs import (
    Graph,
    _bits,
    bridge_cliques_graph,
    complete_graph,
    components,
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


def reference_refinement_colors(n: int, rows) -> list[int]:
    """Degree refinement run until a round reproduces the previous colours."""
    colors = [rows[v].bit_count() for v in range(n)]
    while True:
        keys = []
        for v in range(n):
            sig = sorted(colors[u] for u in _bits(rows[v]))
            keys.append((colors[v], tuple(sig)))
        rank = {key: i for i, key in enumerate(sorted(set(keys)))}
        new = [rank[k] for k in keys]
        if new == colors:
            return colors
        colors = new


def compare_forms(g: Graph, h: Graph) -> tuple[bool, bool]:
    """(g's form < h's, g's form == h's) by `canonical_form` bytes, checked
    against the comparison of the `_canonical_cols` lists."""
    a, b = canonical_form(g), canonical_form(h)
    cols_a, cols_b = _canonical_cols(g.n, g.rows), _canonical_cols(h.n, h.rows)
    assert (cols_a < cols_b, cols_a == cols_b) == (a < b, a == b)
    return a < b, a == b


def parent_rows(g: Graph) -> tuple[int, ...]:
    """The rows of g minus its last vertex."""
    low = (1 << (g.n - 1)) - 1
    return tuple(r & low for r in g.rows[:-1])


def reference_children(rows, k: int):
    """`_children` without the orbit skip: every subset is tried, and forms
    are compared as graph6 bytes."""
    parent = Graph(k, rows)
    deg_g = [rows[v].bit_count() for v in range(k)]
    comps = [components(rows, ((1 << k) - 1) ^ (1 << v)) for v in range(k)]
    z = k
    nh = k + 1
    zbit = 1 << z
    seen_fps: dict = {}
    for sub in range(1, 1 << k):
        dz = sub.bit_count()

        # reject if a valid deletion with smaller degree exists
        rejected = False
        ties = []
        for v in range(k):
            dv = deg_g[v] + ((sub >> v) & 1)
            if dv < dz:
                if all(c & sub for c in comps[v]):
                    rejected = True
                    break
            elif dv == dz:
                ties.append(v)
        if rejected:
            continue

        hr = list(rows)
        for v in _neighbours(sub):
            hr[v] |= zbit
        hr.append(sub)
        colors = None
        if ties:
            ties = [v for v in ties if all(c & sub for c in comps[v])]
        if ties:
            colors = _refinement_colors(hr)
            cz = colors[z]
            if any(colors[v] < cz for v in ties):
                continue
            ties = [v for v in ties if colors[v] == cz]
        if ties and any(
            compare_forms(Graph(k, _delete_vertex(hr, nh, v)), parent)[0]
            for v in ties
        ):
            continue

        # accepted: dedup against same-parent siblings
        if colors is None:
            colors = _refinement_colors(hr)
        child = Graph(nh, tuple(hr))
        bucket = seen_fps.setdefault(_fingerprint(nh, hr, colors), [])
        if not any(compare_forms(child, other)[1] for other in bucket):
            bucket.append(child)
            yield child.rows


def twin_swaps(g: Graph) -> list[list[int]]:
    """The transposition of every vertex with its twin class representative."""
    swaps = []
    for v, r in enumerate(_twin_reps(g.n, g.rows)):
        if r != v:
            perm = list(range(g.n))
            perm[r], perm[v] = v, r
            swaps.append(perm)
    return swaps


def twin_classes(g: Graph) -> list[list[int]]:
    """The twin classes of g, each in vertex order."""
    classes: dict[int, list[int]] = {}
    for v, r in enumerate(_twin_reps(g.n, g.rows)):
        classes.setdefault(r, []).append(v)
    return list(classes.values())


def maps_rows_to_rows(g: Graph, perm) -> bool:
    image = [0] * g.n
    for u, row in enumerate(g.rows):
        image[perm[u]] = sum(1 << perm[v] for v in _bits(row))
    return tuple(image) == g.rows


def subset_image(perm, sub: int) -> int:
    return sum(1 << perm[v] for v in _bits(sub))


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All of Aut(g), by trying every permutation."""
    return [perm for perm in permutations(range(g.n)) if maps_rows_to_rows(g, perm)]


def subset_orbits(k: int, perms) -> list[frozenset]:
    """Orbit of every subset mask under the group the permutations generate."""
    orbits = []
    for sub in range(1 << k):
        orbit = {sub}
        frontier = [sub]
        while frontier:
            s = frontier.pop()
            for p in perms:
                t = subset_image(p, s)
                if t not in orbit:
                    orbit.add(t)
                    frontier.append(t)
        orbits.append(frozenset(orbit))
    return orbits


def random_graph_of_order(rng: random.Random, n: int) -> Graph:
    p = rng.random()
    return Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


def random_graph(rng: random.Random) -> Graph:
    """Any density, sometimes split in two parts, sometimes with isolated vertices."""
    n = rng.randint(1, 16)
    p = rng.random()
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    if n > 1 and rng.random() < 0.3:
        cut = rng.randint(1, n - 1)
        edges = [(u, v) for u, v in edges if (u < cut) == (v < cut)]
    if rng.random() < 0.3:
        isolated = set(rng.sample(range(n), rng.randint(1, n)))
        edges = [(u, v) for u, v in edges if u not in isolated and v not in isolated]
    return Graph.from_edges(n, edges)


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

    def test_column_order_is_graph6_byte_order(self):
        # column j holds j bits, so comparing the lists of two graphs of one
        # order compares their concatenated bit strings
        rng = random.Random(17)
        outcomes = set()
        for _ in range(3000):
            n = rng.randint(1, 10)
            g = random_graph_of_order(rng, n)
            h = random_graph_of_order(rng, n) if rng.random() < 0.8 else \
                permuted(g, rng.sample(range(n), n))
            outcomes.add(compare_forms(g, h))
        assert outcomes == {(True, False), (False, True), (False, False)}

    def test_order_cap(self):
        with pytest.raises(ValueError):
            canonical_form(complete_graph(17))
        with pytest.raises(ValueError):
            are_isomorphic(complete_graph(17), complete_graph(17))

    def test_different_orders_never_isomorphic(self):
        assert not are_isomorphic(complete_graph(3), complete_graph(4))


class TestReportedAutomorphisms:
    @staticmethod
    def check(g: Graph) -> None:
        autos = []
        assert _canonical_cols(g.n, g.rows, None, autos) == _canonical_cols(g.n, g.rows)
        classes = twin_classes(g)
        for perm in autos:
            assert sorted(perm) == list(range(g.n))
            assert maps_rows_to_rows(g, perm)
            # each twin class onto a twin class, in vertex order
            for members in classes:
                assert [perm[v] for v in members] in classes

    def test_every_class_n_le_7(self):
        for n in range(1, 8):
            for g in all_graphs(n):
                self.check(g)

    def test_random_graphs(self):
        rng = random.Random(11)
        graphs = [random_graph(rng) for _ in range(2000)]
        assert any(not is_connected(g) for g in graphs)
        for g in graphs:
            self.check(g)


class TestRefinement:
    def test_equals_reference_on_every_class_n_le_7(self):
        for n in range(1, 8):
            for g in all_graphs(n):
                assert _refinement_colors(g.rows) == reference_refinement_colors(n, g.rows)

    def test_equals_reference_on_random_graphs(self):
        rng = random.Random(7)
        graphs = [random_graph(rng) for _ in range(2000)]
        assert any(not is_connected(g) for g in graphs)
        assert any(0 in g.degrees() for g in graphs if g.n > 1)
        for g in graphs:
            assert _refinement_colors(g.rows) == reference_refinement_colors(g.n, g.rows)


def reference_tie_decision(n: int, rows, z: int, ties: list[int]):
    """Refine to the fixed point, then filter the ties by z's colour."""
    colors = reference_refinement_colors(n, rows)
    if any(colors[v] < colors[z] for v in ties):
        return None
    ties = [v for v in ties if colors[v] == colors[z]]
    return ties, (colors if ties else None)


class TestTieDecision:
    @staticmethod
    def check(n: int, rows, z: int, ties: list[int], verdicts: dict) -> None:
        decided = _decide_ties(rows, z, ties)
        assert decided == reference_tie_decision(n, rows, z, ties)
        kind = "reject" if decided is None else "tied" if decided[0] else "won"
        verdicts[kind] = verdicts.get(kind, 0) + 1

    def test_every_candidate_of_every_class_n_le_6(self):
        # z joined to every subset of every connected parent, tied with
        # every vertex of its degree
        verdicts: dict = {}
        for k in range(1, 7):
            for g in connected_graph_list(k):
                for sub in range(1, 1 << k):
                    hr = list(g.rows)
                    for v in _bits(sub):
                        hr[v] |= 1 << k
                    hr.append(sub)
                    dz = sub.bit_count()
                    ties = [v for v in range(k) if hr[v].bit_count() == dz]
                    if ties:
                        self.check(k + 1, hr, k, ties, verdicts)
        assert min(verdicts.get(kind, 0) for kind in ("reject", "tied", "won")) > 100

    def test_random_graphs(self):
        rng = random.Random(13)
        verdicts: dict = {}
        for _ in range(3000):
            g = random_graph(rng)
            z = rng.randrange(g.n)
            dz = g.rows[z].bit_count()
            ties = [v for v in range(g.n)
                    if v != z and g.rows[v].bit_count() == dz and rng.random() < 0.7]
            if ties:
                self.check(g.n, g.rows, z, ties, verdicts)
        assert min(verdicts.get(kind, 0) for kind in ("reject", "tied", "won")) > 100


class TestDeletionComponents:
    def test_matches_explicit_child(self):
        for k in range(1, 7):
            for g in connected_graphs(k):
                comps = [components(g.rows, ((1 << k) - 1) ^ (1 << v)) for v in range(k)]
                for sub in range(1, 1 << k):
                    child = list(g.rows)
                    for v in _bits(sub):
                        child[v] |= 1 << k
                    child.append(sub)
                    for v in range(k):
                        without = Graph(k, _delete_vertex(child, k + 1, v))
                        assert all(c & sub for c in comps[v]) == is_connected(without)


class TestOrbitSkip:
    def test_twin_swaps_are_automorphisms_n_le_7(self):
        for n in range(1, 8):
            for g in connected_graph_list(n):
                for perm in twin_swaps(g):
                    assert maps_rows_to_rows(g, perm)

    def test_skips_equal_brute_force_n_le_6(self):
        # with no reported automorphisms, a subset is skipped exactly when
        # the twin swaps carry it to a smaller one
        for n in range(1, 7):
            for g in connected_graph_list(n):
                orbits = subset_orbits(n, twin_swaps(g))
                assert [bool(flag) for flag in _orbit_skips(n, g.rows, [])] == [
                    sub != min(orbit) for sub, orbit in enumerate(orbits)]

    def test_parent_skips_equal_full_aut_orbits_n_le_6(self):
        # a subset is skipped exactly when some automorphism carries it to
        # a smaller one
        for n in range(1, 7):
            for g in all_graphs(n):
                group = automorphisms(g)
                cf, skip = _parent_search(n, g.rows)
                assert cf == _canonical_cols(n, g.rows)
                assert [bool(flag) for flag in skip] == [
                    min(subset_image(p, sub) for p in group) < sub
                    for sub in range(1 << n)]

    def test_skip_count_at_order_7_parents(self):
        parents = connected_graph_list(7)
        assert sum(sum(_parent_search(7, g.rows)[1]) for g in parents) == 41190
        assert sum(sum(_orbit_skips(7, g.rows, [])) for g in parents) == 28394

    def test_every_subtree_parent_is_searched(self, monkeypatch):
        # the skip table under Aut(g) is built for each parent of a subtree,
        # the deepest ones included
        seeds = connected_graph_list(7)[::40]
        expected = [[seed.rows] + [g.rows for g in expand_seed(seed.rows, 8)] for seed in seeds]
        searched = []
        search = enumeration._parent_search

        def recording(k, rows):
            searched.append(rows)
            return search(k, rows)

        monkeypatch.setattr(enumeration, "_parent_search", recording)
        for seed, parents in zip(seeds, expected):
            searched.clear()
            assert list(expand_seed(seed.rows, 9))
            assert searched == parents

    def test_children_equal_reference(self):
        parents = [g for k in range(1, 7) for g in connected_graph_list(k)]
        parents += connected_graph_list(7)[::10]
        for g in parents:
            assert list(_children(g.rows, g.n)) == list(reference_children(g.rows, g.n))


class TestDedup:
    def test_fingerprints_only_children_that_can_repeat(self, monkeypatch):
        # a child is fingerprinted only when a tie's deletion is another
        # copy of its parent; 11 117 calls without that rule
        calls = []
        fingerprint = enumeration._fingerprint

        def counting(*args):
            calls.append(args)
            return fingerprint(*args)

        monkeypatch.setattr(enumeration, "_fingerprint", counting)
        parents = connected_graph_list(7)
        assert sum(1 for g in parents for _ in _children(g.rows, 7)) == 11117
        assert len(calls) == 2170

    def test_twin_only_skip_table_repeats_classes(self, monkeypatch):
        # the dedup elision needs the skip table of all of Aut(g): with the
        # twin swaps alone, isomorphic siblings both pass
        search = enumeration._parent_search

        def twin_only(k, rows):
            return search(k, rows)[0], _orbit_skips(k, rows, [])

        monkeypatch.setattr(enumeration, "_parent_search", twin_only)
        forms = [canonical_form(g) for g in connected_graphs(6)]
        assert len(forms) != CONNECTED_COUNTS[6]
        assert len(set(forms)) < len(forms)


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

    def test_stream_and_forms_pinned(self):
        # sha256 of the graph6 stream and of its canonical forms, as first
        # released; a change of representative or of stream order shows here
        pinned = {
            7: ("eac9f84090fbe5f63837684df544b70b541b34ed00ba9c65523a3a0a6e5e30c6",
                "fd2b5a502cbb893fc15f06e65421851fdf764443189163d59541aba8d8ae318b"),
            8: ("55198a9ff78bdb29f212e08c5a4c150470c2848b5f1900c6180d98f3defc2ab9",
                "a4af12c48654f320ff5773de36361a9e855b5d26318c4f3c42d49c2302179067"),
        }
        for n, (stream, forms) in pinned.items():
            graphs = connected_graph_list(n)
            assert hashlib.sha256(
                "\n".join(encode_graph6(g) for g in graphs).encode()).hexdigest() == stream
            assert hashlib.sha256(
                b"\n".join(canonical_form(g) for g in graphs)).hexdigest() == forms

    def test_order_9_sample_stream_pinned(self):
        # every order-8 graph of these subtrees is a parent of order-9 ones
        seeds = connected_graph_list(7)[::20]
        stream = "\n".join(
            encode_graph6(g) for seed in seeds for g in expand_seed(seed.rows, 9))
        assert stream.count("\n") + 1 == 11063
        assert hashlib.sha256(stream.encode()).hexdigest() == (
            "daa544ef2f48bb1c9f18d68acff534e44c36b5d7d5c10e8aaee1062bb09c4be7")

    def test_stream_order_is_stable(self):
        first = [encode_graph6(g) for g in connected_graphs(6)]
        second = [encode_graph6(g) for g in connected_graphs(6)]
        assert first == second

    def test_order_range_checks(self):
        with pytest.raises(ValueError):
            list(connected_graphs(0))
        with pytest.raises(ValueError):
            next(connected_graphs(9))  # needs allow_long
        with pytest.raises(ValueError):
            next(connected_graphs(10))
        with pytest.raises(ValueError):
            next(connected_graphs(11, allow_long=True))

    def test_order_checked_at_the_call(self):
        # before any next(): the walk is returned, not run, by connected_graphs
        with pytest.raises(ValueError):
            connected_graphs(9)
        with pytest.raises(ValueError):
            connected_graphs(11, allow_long=True)

    def test_every_graph_is_its_parent_plus_a_last_vertex(self):
        # the parent property the verifier's scan kernel decides graphs by
        for n in range(3, 9):
            for seed in connected_graph_list(n - 1):
                for g in expand_seed(seed.rows, n):
                    assert parent_rows(g) == seed.rows

    def test_siblings_are_consecutive(self):
        parents = [parent_rows(g)
                   for seed in connected_graph_list(6) for g in expand_seed(seed.rows, 8)]
        runs = [rows for i, rows in enumerate(parents) if i == 0 or rows != parents[i - 1]]
        assert len(parents) == CONNECTED_COUNTS[8]
        assert len(runs) == len(set(runs)) == CONNECTED_COUNTS[7]

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
            assert sum(1 for _ in all_graphs(n)) == expected

    def test_no_duplicates_n5(self):
        forms = [canonical_form(g) for g in all_graphs(5)]
        assert len(forms) == len(set(forms))

    def test_orders_match(self):
        assert all(g.n == 5 for g in all_graphs(5))

    def test_stream_pinned_n6(self):
        stream = "\n".join(encode_graph6(g) for g in all_graphs(6))
        assert hashlib.sha256(stream.encode()).hexdigest() == (
            "54ae8a89a2605c7c02c3038a729f641af60452af928f2dabbc3aaf673d32728f")

    def test_streamed_pool_pinned_n6(self, monkeypatch):
        # below the resident order the size-5 components come from the
        # connected_graphs stream, in the same order as from the list
        sizes = []
        streamed = enumeration.connected_graphs

        def recording(n, allow_long=False):
            sizes.append(n)
            return streamed(n, allow_long)

        monkeypatch.setattr(enumeration, "RESIDENT_N_MAX", 4)
        monkeypatch.setattr(enumeration, "connected_graphs", recording)
        stream = "\n".join(encode_graph6(g) for g in all_graphs(6))
        assert sizes == [6, 5]
        assert hashlib.sha256(stream.encode()).hexdigest() == (
            "54ae8a89a2605c7c02c3038a729f641af60452af928f2dabbc3aaf673d32728f")

    def test_first_graph_streams(self, monkeypatch):
        # the connected graphs come first and are not collected beforehand
        drawn = []
        streamed = enumeration.connected_graphs

        def counting(n, allow_long=False):
            for g in streamed(n, allow_long):
                if n == 7:
                    drawn.append(g)
                yield g

        monkeypatch.setattr(enumeration, "connected_graphs", counting)
        first = next(all_graphs(7))
        assert len(drawn) == 1
        assert is_connected(first) and first.n == 7
