"""Exact chromatic number by saturation-ordered backtracking.

`k_coloring` is the one colouring search.  It settles k <= 2 and k >= n
directly (2 by bipartition) and otherwise backtracks in DSATUR order (most
coloured-neighbour colours first, then degree; Brelaz, CACM 22, 1979),
restricting the first fresh vertex to colours 0..(max used + 1), the
standard symmetry cut; without it order-9 campaigns are not feasible.
A picked vertex with no coloured neighbour starts a component that no
earlier choice constrains, so it takes colour 0 only, and a failure below
it is final: the search never retries earlier components, which would make
it exponential in their number.  `chromatic_number` is the least k at which
that search succeeds.

A scan meets every graph h as its parent g plus one last vertex z, joined
to S; g is the subgraph of h induced on the other vertices.  Then
chi(g) <= chi(h) <= chi(g) + 1: a colouring of h colours g, and a fresh
colour for z extends any colouring of g.  If S meets fewer than chi(g)
colour classes of a chi(g)-colouring of g, z takes a missing colour and
chi(h) = chi(g).  Otherwise one call, `is_k_colorable(h, chi(g))`, decides
between chi(g) and chi(g) + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, _bits


@dataclass(frozen=True)
class ColoringResult:
    chi: int
    witness: tuple[int, ...]


def _bipartition(rows, n: int) -> Optional[list[int]]:
    color = [-1] * n
    for start in range(n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v in _bits(rows[u]):
                if color[v] == -1:
                    color[v] = color[u] ^ 1
                    stack.append(v)
                elif color[v] == color[u]:
                    return None
    return color


def k_coloring(g: Graph, k: int) -> Optional[tuple[int, ...]]:
    """A proper k-colouring of g, or None if none exists."""
    n = g.n
    rows = g.rows
    if k < 0:
        raise ValueError(f"colour count must be >= 0, got {k}")
    if k == 0:
        return None
    if all(r == 0 for r in rows):
        return (0,) * n
    if k == 1:
        return None
    if k >= n:
        return tuple(range(n))
    if k == 2:
        two = _bipartition(rows, n)
        return tuple(two) if two is not None else None

    color = [-1] * n
    adj_masks = [0] * n  # bitmask of colours used by coloured neighbours
    degs = [r.bit_count() for r in rows]

    def pick() -> int:
        best_v = -1
        best_key = (-1, -1)
        for v in range(n):
            if color[v] == -1:
                key = (adj_masks[v].bit_count(), degs[v])
                if key > best_key:
                    best_key = key
                    best_v = v
        return best_v

    # depth-first over the picked vertices, on an explicit stack so that
    # the depth is not bounded by the recursion limit; per coloured vertex:
    # (vertex, colours used before it, its colour, neighbours it saturated)
    stack: list[tuple[int, int, int, list[int]]] = []
    used = 0
    v = pick()
    c = 0  # the first colour to try for v
    while v != -1:
        forbidden = adj_masks[v]
        # colours 0..used, capped at k-1; a fresh component needs colour 0 only
        limit = min(k - 1, used) if forbidden else 0
        while c <= limit and (forbidden >> c) & 1:
            c += 1
        if c <= limit:
            color[v] = c
            touched = []
            bit = 1 << c
            for u in _bits(rows[v]):
                if color[u] == -1 and not adj_masks[u] & bit:
                    adj_masks[u] |= bit
                    touched.append(u)
            stack.append((v, used, c, touched))
            used = max(used, c + 1)
            v = pick()
            c = 0
            continue
        if not forbidden:
            return None  # this component has no k-colouring
        # v has no colour left: undo the vertex before it and try its next colour
        v, used, c, touched = stack.pop()
        color[v] = -1
        bit = 1 << c
        for u in touched:
            adj_masks[u] &= ~bit
        c += 1
    return tuple(color)


def is_k_colorable(g: Graph, k: int) -> bool:
    return k_coloring(g, k) is not None


def chromatic_number(g: Graph) -> ColoringResult:
    """The least k at which `k_coloring` succeeds, with that colouring."""
    k = 1
    while (witness := k_coloring(g, k)) is None:
        k += 1
    return ColoringResult(k, witness)
