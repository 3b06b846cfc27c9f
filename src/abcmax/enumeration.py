"""Canonical forms, isomorphism tests, and exhaustive connected-graph streams.

Canonical form: the lexicographically smallest upper-triangle bit string of
the adjacency matrix over all vertex orderings (column-major, the graph6
bit order), found by branch-and-bound with twin skipping.  Two graphs are
isomorphic iff their forms agree.  Inside this module a form is the column
list that `_canonical_cols` returns.  Column j holds exactly j bits, so for
graphs of one order the list order is the order of the concatenated bit
strings, which is graph6 byte order; graph6 is written only in
`canonical_form`.

Refinement: iterated degree refinement.  A round's key starts with the old
colour, so each round refines the partition of the round before and keeps
its order: c_r(u) < c_r(v) implies c_{r+1}(u) < c_{r+1}(v).  The first
round that splits no class is stable and its colours are final;
refinement stops there.

Generation: one representative per isomorphism class of connected graphs,
grown one vertex at a time.  A child h = g+z is kept only when z passes the
acceptance test: among the vertices v whose deletion leaves h connected, z
has the least degree, then the least stable colour, then the least
canonical form of h - v (h - z is g itself).  Whether a vertex passes
depends only on h up to isomorphism, so each class is produced from
exactly one parent class, and no memory-resident global seen-set is
needed.  `expand_seed` is the one walk of this tree: a fixed depth-first
order, identical across runs, in which every graph is its parent plus a
last vertex (its rows minus that vertex are the parent's rows) and the
children of one parent arrive together.  `connected_graphs` is the walk
from K_1, and disjoint subtrees can be expanded independently by workers.

Orbit skip: every parent g gets its canonical search up front, and the
search also yields Aut(g).  Two leaves whose relabelled matrices are equal,
placing vertices p(i) and q(i) at each position i, agree on the adjacency
of every pair of positions, so p(i) -> q(i) is an automorphism.  Each leaf
equal to the best one is visited, except in branches cut as the image of a
visited branch under a twin swap, so the twin swaps and the automorphisms
from the best leaf to each visited equal leaf generate all of Aut(g)
(McKay, Isomorph-free exhaustive generation, J. Algorithms 26, 1998).  A
vertex subset `sub` is tried only when it is the least integer in its
Aut(g)-orbit.  For an automorphism p with sub < p(sub), p extended by
z -> z is an isomorphism from g+z on `sub` to g+z on p(sub), and the test
is invariant under it, so the child of p(sub) is a copy of the child of
`sub`, and skipping it leaves the stream byte-identical.  The table must
hold all of Aut(g), not just a subgroup: the dedup below relies on it, and
with the twin swaps alone orders 5, 6 and 8 yield 22, 132 and 18 573
graphs in place of 21, 112 and 11 117.  A permutation that is not an
automorphism would drop classes.

Dedup: two accepted siblings h and h' can still be isomorphic.  Let
phi: h' -> h be an isomorphism.  phi maps z to a vertex of h that passes
the test.  When no tie of z has h - w equal to g, z is the only such
vertex, so phi fixes z, and phi restricted to g is an automorphism of g
carrying the subset of h' to the subset of h.  Only the least subset of
that Aut(g)-orbit is tried, so h' = h, and such a child is yielded with no
dedup.  A child with a tie w whose deletion is another copy of g has at
least two vertices that pass, so it can only repeat a sibling of the same
kind, and only these go through the per-parent set, keyed by a fingerprint
of the stable colours and compared by canonical form.  Such a w can lie
outside z's Aut(h)-orbit (w and z pseudo-similar): an isomorphism
h - w -> g then carries w's neighbours to a subset in another
Aut(g)-orbit, and that subset yields h again.

Per parent g, the components of g - v are found once for every vertex v:
z, joined to the subset `sub`, leaves g+z-v connected iff `sub` meets every
one of them, so no child is searched to test a deletion.  The ties of z
(equal degree, deletion connected) are decided round by round: the child
is rejected as soon as a tie has a smaller colour than z, and the ties
with a larger colour drop out, since colour order holds in every later
round.  When none is left, z wins on colour and refinement stops there.
Only a child whose ties still share z's class at the fixed point is
refined to the end, and compared by its deletions' forms; if it can
repeat, its stable colours give the fingerprint and its own canonical
form.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import chain, combinations_with_replacement, product
from typing import Iterator

from .graphs import Graph, _bits, _graph6, components, disjoint_union

MAX_CANONICAL_ORDER = 16
DEFAULT_ENUMERATION_CAP = 8
LONG_RUN_CAP = 10
RESIDENT_N_MAX = 8  # largest order whose class list is kept in memory

# row mask -> its set bits; a pure cache, one entry per mask below 2**n seen
_NEIGHBOURS: dict[int, tuple[int, ...]] = {}


def _neighbours(row: int) -> tuple[int, ...]:
    bits = _NEIGHBOURS.get(row)
    if bits is None:
        bits = _NEIGHBOURS[row] = tuple(_bits(row))
    return bits


def _twin_reps(n: int, rows) -> list[int]:
    # true twins: identical adjacency outside the pair; swapping them is an
    # automorphism, so search trees below either are interchangeable
    rep = list(range(n))
    for v in range(n):
        if rep[v] != v:
            continue
        for u in range(v + 1, n):
            if rep[u] != u:
                continue
            mask = ~((1 << u) | (1 << v))
            if rows[u] & mask == rows[v] & mask:
                rep[u] = v
    return rep


def _canonical_cols(n: int, rows, colors=None, autos=None) -> list[int]:
    """Columns of the minimal relabelled adjacency matrix.

    The minimum is taken over orderings consistent with the refinement
    partition: positions are filled class by class (ascending colour), and
    only vertices within a class permute.  The partition is invariant, so
    isomorphic graphs still get identical columns.  cols[p] holds the
    adjacency bits of the vertex at position p to positions 0..p-1, most
    significant bit first.  `colors`, if given, is the graph's
    `_refinement_colors`.  `autos`, if given, is a list that receives, for
    every leaf whose matrix equals the best leaf's, the automorphism
    mapping the best leaf's vertex at each position to this leaf's, as a
    list perm with perm[u] the image of u.  Twins have equal columns and
    only the least unplaced member of a twin class is tried, so every leaf
    places the members of each twin class in vertex order, and each such
    automorphism maps every twin class onto one in vertex order.
    """
    if n == 1:
        return [0]
    if colors is None:
        colors = _refinement_colors(rows)
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    slot_members = []  # per position: vertices of the class owning it
    for c in sorted(by_color):
        members = by_color[c]
        slot_members.extend([members] * len(members))
    twin = _twin_reps(n, rows)
    best = [0] * n
    best_at = [0] * n  # vertex at each position of the best leaf
    path = [0] * n  # vertex at each position of the current branch

    def greedy_rest(pos: int, used: int, cols: list[int]) -> None:
        best_at[:pos] = path[:pos]
        cols = cols[:]
        while pos < n:
            arg = -1
            m = -1
            for v in slot_members[pos]:
                if not (used >> v) & 1 and (arg == -1 or cols[v] < m):
                    m = cols[v]
                    arg = v
            best[pos] = m
            best_at[pos] = arg
            used |= 1 << arg
            row = rows[arg]
            for v in range(n):
                if not (used >> v) & 1:
                    cols[v] = (cols[v] << 1) | ((row >> v) & 1)
            pos += 1

    def dfs(pos: int, used: int, cols: list[int]) -> None:
        if pos == n:
            if autos is not None and path != best_at:
                perm = [0] * n
                for u, v in zip(best_at, path):
                    perm[u] = v
                autos.append(perm)
            return
        members = [v for v in slot_members[pos] if not (used >> v) & 1]
        # kept apart from the loop below: folding it in took chi3-order8
        # from 0.834 to 0.887 s (14 pairs, 2 cores, Python 3.11)
        if len(members) == 1:
            v = members[0]
            if cols[v] > best[pos]:
                return
            if cols[v] < best[pos]:
                greedy_rest(pos, used, cols)
            path[pos] = v
            row = rows[v]
            used2 = used | (1 << v)
            cols2 = [
                ((cols[u] << 1) | ((row >> u) & 1)) if not (used2 >> u) & 1 else cols[u]
                for u in range(n)
            ]
            dfs(pos + 1, used2, cols2)
            return
        m = min(cols[v] for v in members)
        if m > best[pos]:
            return
        if m < best[pos]:
            greedy_rest(pos, used, cols)
        tried = set()
        for v in members:
            if cols[v] != m:
                continue
            r = twin[v]
            if r in tried:
                continue
            tried.add(r)
            path[pos] = v
            row = rows[v]
            used2 = used | (1 << v)
            cols2 = [
                ((cols[u] << 1) | ((row >> u) & 1)) if not (used2 >> u) & 1 else cols[u]
                for u in range(n)
            ]
            dfs(pos + 1, used2, cols2)

    greedy_rest(0, 0, [0] * n)
    dfs(0, 0, [0] * n)
    return best


def canonical_form(g: Graph) -> bytes:
    """Order-invariant byte signature: graph6 of the minimal relabelling."""
    if g.n > MAX_CANONICAL_ORDER:
        raise ValueError(f"canonical_form limited to n <= {MAX_CANONICAL_ORDER}, got {g.n}")
    bits = 0
    for j, col in enumerate(_canonical_cols(g.n, g.rows)):
        bits = bits << j | col
    return _graph6(g.n, bits)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n:
        return False
    if max(g.n, h.n) > MAX_CANONICAL_ORDER:
        raise ValueError(f"isomorphism test limited to n <= {MAX_CANONICAL_ORDER}")
    if sorted(r.bit_count() for r in g.rows) != sorted(r.bit_count() for r in h.rows):
        return False
    return _canonical_cols(g.n, g.rows) == _canonical_cols(h.n, h.rows)


def _refinement_rounds(rows) -> Iterator[list[int]]:
    # iterated degree refinement, one list of colours per round, starting
    # from the degrees; ids order vertices by an isomorphism-invariant key,
    # so they compare consistently across copies.  A round's key starts
    # with the old colour, so it refines the old partition and keeps its
    # order; a round that splits no class has reached the fixed point and
    # is the last one yielded.
    nbrs = [_neighbours(row) for row in rows]
    colors = [len(nb) for nb in nbrs]
    count = len(set(colors))
    while True:
        get = colors.__getitem__
        keys = [(c, tuple(sorted(map(get, nb)))) for c, nb in zip(colors, nbrs)]
        rank = {key: i for i, key in enumerate(sorted(set(keys)))}
        colors = [rank[key] for key in keys]
        yield colors
        if len(rank) == count:
            return
        count = len(rank)


def _refinement_colors(rows) -> list[int]:
    """The stable colours of degree refinement."""
    for colors in _refinement_rounds(rows):
        pass
    return colors


def _decide_ties(rows, z: int, ties: list[int]):
    """Compare z's refinement colour with its tied vertices', round by round.

    Returns None as soon as a tie has a smaller colour than z.  Otherwise
    returns (ties, colors): the ties that share z's stable colour, and the
    stable colours if that list is not empty.  The list is empty, and
    colors None, from the first round where no tie shares z's colour.
    Refinement keeps colour order, so a colour smaller or larger than z's
    stays so in every later round, and the verdict equals filtering the
    ties by the stable colours.
    """
    for colors in _refinement_rounds(rows):
        cz = colors[z]
        if any(colors[v] < cz for v in ties):
            return None
        ties = [v for v in ties if colors[v] == cz]
        if not ties:
            return ties, None
    return ties, colors


def _delete_vertex(rows, n: int, v: int) -> tuple[int, ...]:
    low = (1 << v) - 1
    return tuple(
        (rows[u] & low) | ((rows[u] >> (v + 1)) << v)
        for u in range(n)
        if u != v
    )


def _fingerprint(n: int, rows, colors):
    pairs = []
    for u in range(n):
        cu = colors[u]
        for v in _neighbours(rows[u] >> (u + 1) << (u + 1)):
            cv = colors[v]
            pairs.append((cu, cv) if cu <= cv else (cv, cu))
    pairs.sort()
    return tuple(sorted(colors)), tuple(pairs)


def _orbit_skips(k: int, rows, autos) -> bytearray:
    """skip[sub] = 1 unless the vertex subset `sub` is the least integer in
    its orbit under the group that the twin swaps and the automorphisms
    `autos` generate.

    Swapping two twins is an automorphism, and these swaps generate the full
    symmetric group on every twin class, so the least subset of a twin-swap
    orbit, its prefix form, holds a prefix of each class in vertex order.  A
    subset is skipped when it holds a member b of a class but not the member
    a just before it.  Each automorphism in `autos` must map every twin
    class onto a twin class in vertex order, as `_canonical_cols` reports
    them: it then maps prefix forms to prefix forms, and normalises the
    twin-swap group, so the rest of each orbit is walked on prefix forms.
    """
    size = 1 << k
    skip = bytearray(size)
    last: dict[int, int] = {}
    for b, r in enumerate(_twin_reps(k, rows)):
        a = last.get(r)
        last[r] = b
        if a is None:
            continue
        rest = size - 1 & ~(1 << a | 1 << b)
        s = rest
        while True:
            skip[s | 1 << b] = 1
            if not s:
                break
            s = (s - 1) & rest
    if not autos:
        return skip
    images = []  # per automorphism: the image of every subset
    for perm in autos:
        image = [0] * size
        for s in range(1, size):
            low = s & -s
            image[s] = image[s ^ low] | 1 << perm[low.bit_length() - 1]
        images.append(image)
    for least in range(size):
        if skip[least]:
            continue
        # every subset below `least` lies in an earlier orbit, so the rest
        # of this orbit is above it
        stack = [least]
        while stack:
            s = stack.pop()
            for image in images:
                t = image[s]
                if t != least and not skip[t]:
                    skip[t] = 1
                    stack.append(t)
    return skip


def _parent_search(k: int, rows) -> tuple[list[int], bytearray]:
    """The parent's canonical form, and its skip table under Aut(g).

    The canonical search reports the automorphisms shown by its equal
    leaves; with the twin swaps they generate Aut(g).
    """
    autos: list[list[int]] = []
    cf = _canonical_cols(k, rows, None, autos)
    return cf, _orbit_skips(k, rows, autos)


def _children(rows, k: int) -> Iterator[tuple[int, ...]]:
    """Accepted, deduplicated one-vertex extensions of a connected parent."""
    deg_g = [rows[v].bit_count() for v in range(k)]
    # g - v plus z joined to `sub` is connected iff `sub` meets every part of comps[v]
    comps = [components(rows, ((1 << k) - 1) ^ (1 << v)) for v in range(k)]
    cf_parent, skip = _parent_search(k, rows)
    z = k
    nh = k + 1
    zbit = 1 << z
    seen_fps: dict = {}
    for sub in range(1, 1 << k):
        if skip[sub]:
            continue
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
        if ties:
            ties = [v for v in ties if all(c & sub for c in comps[v])]
        if ties:
            decided = _decide_ties(hr, z, ties)
            if decided is None:
                continue
            ties, colors = decided
        repeats = False
        for v in ties:
            form = _canonical_cols(k, _delete_vertex(hr, nh, v))
            if form < cf_parent:
                rejected = True
                break
            repeats = repeats or form == cf_parent
        if rejected:
            continue

        child_rows = tuple(hr)
        if not repeats:
            # z is the only vertex of h that passes the test, so no
            # sibling is isomorphic to h (module docstring, "Dedup")
            yield child_rows
            continue
        # accepted with a tie w where h - w is another copy of g: dedup
        # against the same-parent siblings that have one too
        # [rows, canonical form once needed, colours to compute it from]
        bucket = seen_fps.setdefault(_fingerprint(nh, hr, colors), [])
        cf_child = _canonical_cols(nh, child_rows, colors) if bucket else None
        for entry in bucket:
            if entry[1] is None:
                entry[1] = _canonical_cols(nh, entry[0], entry[2])
            if entry[1] == cf_child:
                break
        else:
            bucket.append([child_rows, cf_child, colors])
            yield child_rows


def check_order(n: int, allow_long: bool) -> None:
    cap = LONG_RUN_CAP if allow_long else DEFAULT_ENUMERATION_CAP
    if not 1 <= n <= cap:
        raise ValueError(
            f"enumeration order {n} outside 1..{cap}"
            + ("" if allow_long else f" (orders up to {LONG_RUN_CAP} need allow_long / --allow-long)")
        )


def connected_graphs(n: int, allow_long: bool = False) -> Iterator[Graph]:
    """All connected graphs on n vertices, one per isomorphism class; the
    order is checked at the call."""
    check_order(n, allow_long)
    return expand_seed((0,), n)


@lru_cache(maxsize=None)
def connected_graph_list(n: int) -> tuple[Graph, ...]:
    """Cached stream for the orders small enough to keep resident; each
    order is grown from the cached order below it."""
    if n > RESIDENT_N_MAX:
        raise ValueError(f"cached enumeration only for n <= {RESIDENT_N_MAX}; stream larger orders")
    if n <= 1:
        return tuple(connected_graphs(n))
    return tuple(g for seed in connected_graph_list(n - 1) for g in expand_seed(seed.rows, n))


def expand_seed(rows: tuple[int, ...], n_target: int) -> Iterator[Graph]:
    """The subtree of the class with these rows, grown to order n_target:
    the one walk of the augmentation tree.

    Every graph it yields is a parent grown by one last vertex: its rows
    minus that vertex are the rows of the parent it was grown from, and
    the children of one parent are yielded together.  Expanding every
    class of connected_graph_list(k), k <= n_target, in list order
    reproduces the connected_graphs(n_target) stream exactly."""
    if len(rows) == n_target:
        yield Graph(n_target, rows)
        return
    for child_rows in _children(rows, len(rows)):
        yield from expand_seed(child_rows, n_target)


def _partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def all_graphs(n: int, allow_long: bool = False) -> Iterator[Graph]:
    """All graphs on n vertices up to isomorphism, as multisets of
    connected components (a class is exactly its component multiset).

    The connected graphs, partition (n,), are streamed first.  Each other
    partition is one product over its component sizes, largest first; a
    size above RESIDENT_N_MAX is drawn from connected_graphs, not from the
    cached list."""
    check_order(n, allow_long)
    yield from connected_graphs(n, allow_long)
    for partition in _partitions(n, n - 1):
        groups = []
        for size in sorted(set(partition), reverse=True):
            pool = (connected_graph_list(size) if size <= RESIDENT_N_MAX
                    else connected_graphs(size, allow_long))
            groups.append(combinations_with_replacement(pool, partition.count(size)))
        for choice in product(*groups):
            yield reduce(disjoint_union, chain.from_iterable(choice))
