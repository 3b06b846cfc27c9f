"""Canonical forms, isomorphism tests, and exhaustive connected-graph streams.

Canonical form: the lexicographically smallest upper-triangle bit string of
the adjacency matrix over all vertex orderings (column-major, the graph6
bit order), found by branch-and-bound with twin skipping.  Two graphs are
isomorphic iff their forms agree.

Generation: one representative per isomorphism class of connected graphs,
grown one vertex at a time.  A child g+z is kept only when deleting z yields
the same parent class as deleting the canonically-chosen vertex, so each
class is produced from exactly one parent and a small per-parent set removes
the remaining same-parent duplicates; no memory-resident global seen-set is
needed.  The stream order is a fixed depth-first order, identical across
runs, and disjoint subtrees can be expanded independently by workers.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Iterator, Optional

from .graphs import Graph, _bits, disjoint_union

MAX_CANONICAL_ORDER = 16
DEFAULT_ENUMERATION_CAP = 9
LONG_RUN_CAP = 10


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


def _canonical_cols(n: int, rows) -> list[int]:
    """Columns of the minimal relabelled adjacency matrix.

    The minimum is taken over orderings consistent with the refinement
    partition: positions are filled class by class (ascending colour), and
    only vertices within a class permute.  The partition is invariant, so
    isomorphic graphs still get identical columns.  cols[p] holds the
    adjacency bits of the vertex at position p to positions 0..p-1, most
    significant bit first.
    """
    if n == 1:
        return [0]
    colors = _refinement_colors(n, rows)
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    slot_members = []  # per position: vertices of the class owning it
    for c in sorted(by_color):
        members = by_color[c]
        slot_members.extend([members] * len(members))
    twin = _twin_reps(n, rows)
    best = [0] * n

    def greedy_rest(pos: int, used: int, cols: list[int]) -> None:
        cols = cols[:]
        while pos < n:
            arg = -1
            m = -1
            for v in slot_members[pos]:
                if not (used >> v) & 1 and (arg == -1 or cols[v] < m):
                    m = cols[v]
                    arg = v
            best[pos] = m
            used |= 1 << arg
            row = rows[arg]
            for v in range(n):
                if not (used >> v) & 1:
                    cols[v] = (cols[v] << 1) | ((row >> v) & 1)
            pos += 1

    def dfs(pos: int, used: int, cols: list[int]) -> None:
        if pos == n:
            return
        members = [v for v in slot_members[pos] if not (used >> v) & 1]
        if len(members) == 1:
            v = members[0]
            if cols[v] > best[pos]:
                return
            if cols[v] < best[pos]:
                greedy_rest(pos, used, cols)
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


def _pack_cols(n: int, cols) -> bytes:
    out = [63 + n]
    acc = 0
    nbits = 0
    for j in range(1, n):
        col = cols[j]
        for shift in range(j - 1, -1, -1):
            acc = (acc << 1) | ((col >> shift) & 1)
            nbits += 1
            if nbits == 6:
                out.append(63 + acc)
                acc = 0
                nbits = 0
    if nbits:
        out.append(63 + (acc << (6 - nbits)))
    return bytes(out)


def _canonical_bytes(n: int, rows) -> bytes:
    return _pack_cols(n, _canonical_cols(n, rows))


def canonical_form(g: Graph) -> bytes:
    """Order-invariant byte signature: graph6 of the minimal relabelling."""
    if g.n > MAX_CANONICAL_ORDER:
        raise ValueError(f"canonical_form limited to n <= {MAX_CANONICAL_ORDER}, got {g.n}")
    return _canonical_bytes(g.n, g.rows)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n:
        return False
    if max(g.n, h.n) > MAX_CANONICAL_ORDER:
        raise ValueError(f"isomorphism test limited to n <= {MAX_CANONICAL_ORDER}")
    if sorted(r.bit_count() for r in g.rows) != sorted(r.bit_count() for r in h.rows):
        return False
    return _canonical_bytes(g.n, g.rows) == _canonical_bytes(h.n, h.rows)


def _refinement_colors(n: int, rows) -> list[int]:
    # iterated degree refinement; final ids order vertices by an
    # isomorphism-invariant key, so they compare consistently across copies
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


def _connected_without(rows, n: int, skip: int) -> bool:
    if n <= 2:
        return True
    alive = ((1 << n) - 1) ^ (1 << skip)
    start = 1 if skip == 0 else 0
    visited = 1 << start
    frontier = rows[start] & alive
    while frontier:
        visited |= frontier
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= rows[low.bit_length() - 1]
            m ^= low
        frontier = nxt & alive & ~visited
    return visited == alive


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
        for v in _bits(rows[u] >> (u + 1) << (u + 1)):
            cv = colors[v]
            pairs.append((cu, cv) if cu <= cv else (cv, cu))
    pairs.sort()
    return tuple(sorted(colors)), tuple(pairs)


def _children(rows, k: int, parent_cf: list):
    """Accepted, deduplicated one-vertex extensions of a connected parent.

    `parent_cf` is a one-element list caching the parent's canonical form;
    it is only filled in when a tie actually needs it.  Yields
    (child_rows, child_canonical_or_None).
    """
    deg_g = [rows[v].bit_count() for v in range(k)]
    z = k
    nh = k + 1
    seen_fps: dict = {}
    for sub in range(1, 1 << k):
        dz = sub.bit_count()
        hr = list(rows)
        zbit = 1 << z
        m = sub
        while m:
            low = m & -m
            hr[low.bit_length() - 1] |= zbit
            m ^= low
        hr.append(sub)

        # reject if a valid deletion with smaller degree exists
        rejected = False
        ties = []
        for v in range(k):
            dv = deg_g[v] + ((sub >> v) & 1)
            if dv < dz:
                if _connected_without(hr, nh, v):
                    rejected = True
                    break
            elif dv == dz:
                ties.append(v)
        if rejected:
            continue

        colors = None
        if ties:
            ties = [v for v in ties if _connected_without(hr, nh, v)]
        if ties:
            colors = _refinement_colors(nh, hr)
            cz = colors[z]
            if any(colors[v] < cz for v in ties):
                continue
            ties = [v for v in ties if colors[v] == cz]
        if ties:
            if parent_cf[0] is None:
                parent_cf[0] = _canonical_bytes(k, rows)
            cf_parent = parent_cf[0]
            if any(
                _canonical_bytes(k, _delete_vertex(hr, nh, v)) < cf_parent
                for v in ties
            ):
                continue

        # accepted: dedup against same-parent siblings
        if colors is None:
            colors = _refinement_colors(nh, hr)
        fp = _fingerprint(nh, hr, colors)
        child_rows = tuple(hr)
        bucket = seen_fps.get(fp)
        if bucket is None:
            seen_fps[fp] = [[child_rows, None]]
            yield child_rows, None
            continue
        cf_child = _canonical_bytes(nh, child_rows)
        duplicate = False
        for entry in bucket:
            if entry[1] is None:
                entry[1] = _canonical_bytes(nh, entry[0])
            if entry[1] == cf_child:
                duplicate = True
                break
        if not duplicate:
            bucket.append([child_rows, cf_child])
            yield child_rows, cf_child


def _expand(rows, k: int, cf: Optional[bytes], n_target: int) -> Iterator[tuple[tuple[int, ...], Optional[bytes]]]:
    if k == n_target:
        yield rows, cf
        return
    parent_cf = [cf]
    for child_rows, child_cf in _children(rows, k, parent_cf):
        yield from _expand(child_rows, k + 1, child_cf, n_target)


def check_order(n: int, allow_long: bool) -> None:
    cap = LONG_RUN_CAP if allow_long else DEFAULT_ENUMERATION_CAP
    if not 1 <= n <= cap:
        raise ValueError(
            f"enumeration order {n} outside 1..{cap}"
            + ("" if allow_long else f" (orders up to {LONG_RUN_CAP} need allow_long)")
        )


def connected_graphs(n: int, allow_long: bool = False) -> Iterator[Graph]:
    """All connected graphs on n vertices, one per isomorphism class."""
    check_order(n, allow_long)
    for rows, _ in _expand((0,), 1, None, n):
        yield Graph(n, rows)


@lru_cache(maxsize=None)
def connected_graph_list(n: int) -> tuple[Graph, ...]:
    """Cached stream for the orders small enough to keep resident."""
    if n > 8:
        raise ValueError("cached enumeration only for n <= 8; stream larger orders")
    return tuple(connected_graphs(n))


def expand_seed(rows: tuple[int, ...], n_target: int) -> Iterator[Graph]:
    """The subtree of the class with these rows, grown to order n_target.
    Expanding every class of connected_graph_list(k), k <= n_target, in list
    order reproduces the connected_graphs(n_target) stream exactly."""
    k = len(rows)
    for child_rows, _ in _expand(rows, k, None, n_target):
        yield Graph(n_target, child_rows)


def _partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def all_graphs(n: int, allow_long: bool = False) -> Iterator[Graph]:
    """All graphs on n vertices up to isomorphism, as multisets of
    connected components (a class is exactly its component multiset)."""
    check_order(n, allow_long)
    pools = {size: list(connected_graphs(size, allow_long)) for size in range(1, n + 1)}
    for partition in _partitions(n, n):
        sizes = sorted(set(partition), reverse=True)
        choices_per_size = []
        for size in sizes:
            count = partition.count(size)
            choices_per_size.append(
                list(combinations_with_replacement(pools[size], count))
            )
        def build(idx: int, acc: Optional[Graph]) -> Iterator[Graph]:
            if idx == len(choices_per_size):
                yield acc
                return
            for combo in choices_per_size[idx]:
                g = acc
                for comp in combo:
                    g = comp if g is None else disjoint_union(g, comp)
                yield from build(idx + 1, g)
        yield from build(0, None)
