"""Exact edge- and vertex-connectivity via unit-capacity augmenting paths.

One routine, `_augment`, pushes augmenting paths over int bitset rows: arcs
in `unit` carry capacity 1 and arcs in `free` are uncapacitated.  Edge
connectivity runs it on the adjacency rows themselves.  Vertex connectivity
runs it on the split graph, built once per graph: node 2v is v_in and 2v+1 is
v_out, the arc v_in -> v_out is unit, and every edge uv becomes the free arcs
v_out -> u_in and u_out -> v_in, so a minimum cut can only cross in -> out
arcs, i.e. vertices.  The residual reach set of the call that sets the
minimum is the source side of a minimum cut, which gives the witnesses.

Three rules, each sound for any graph, keep the flow calls few (after Even,
SIAM J. Comput. 4, 1975, and Esfahanian & Hakimi, Networks 14, 1984):

- Both caps start at the minimum degree delta.  The star of a minimum-degree
  vertex v is an edge cut, and for a non-complete graph N(v) is a vertex cut,
  because v has a non-neighbour.  When no flow beats delta, these are the
  witnesses.
- kappa takes sources v_0, v_1, ... only while the source index is below the
  current best, and targets t > s not adjacent to s.  A minimum cut S with
  |S| = kappa < best misses one of v_0..v_{best-1}; let v_s be the first.
  v_0..v_{s-1} all lie in S, so every vertex on the far side of S from v_s
  has an index above s, and the pair (s, t) is tried.
- A pair is skipped when a lower bound on its local connectivity already
  reaches best, as it cannot lower the minimum: for non-adjacent s, t the
  common neighbours give |N(s) & N(t)| internally disjoint paths, and for
  lambda's pairs (0, t) the common neighbours and the edge 0t give
  |N(0) & N(t)| + [0t in E] edge-disjoint paths.

Disconnected graphs return 0 (campaign filters rely on the value rather than
an error), and complete graphs use the n-1 convention for vertex
connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, _bits, is_connected


@dataclass(frozen=True)
class ConnectivityResult:
    edge_connectivity: int
    vertex_connectivity: int
    min_edge_cut: Optional[tuple[tuple[int, int], ...]] = None
    min_vertex_cut: Optional[tuple[int, ...]] = None


def _augment(unit, free, s: int, t: int, limit: int) -> tuple[int, int]:
    """Max s-t flow, capped at `limit`, and the residual reach set of s.

    When the flow is below `limit`, `reach` is the source side of a minimum
    s-t cut.  out[u] holds the heads and inn[u] the tails of arcs that carry
    flow; an arc back along carried flow cancels it.
    """
    out = [0] * len(unit)
    inn = [0] * len(unit)
    flow = 0
    reach = 1 << s
    while flow < limit:
        reach = frontier = 1 << s
        layers = [frontier]
        while frontier and not (reach >> t) & 1:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                u = low.bit_length() - 1
                frontier ^= low
                nxt |= (unit[u] & ~out[u]) | free[u] | inn[u]
            frontier = nxt & ~reach
            reach |= frontier
            layers.append(frontier)
        if not (reach >> t) & 1:
            return flow, reach
        v = t
        for layer in reversed(layers[:-1]):
            while True:  # a predecessor of v in the previous BFS layer
                low = layer & -layer
                u = low.bit_length() - 1
                if (((unit[u] & ~out[u]) | free[u] | inn[u]) >> v) & 1:
                    break
                layer ^= low
            if (inn[u] >> v) & 1:
                inn[u] ^= 1 << v
                out[v] ^= 1 << u
            else:
                out[u] |= 1 << v
                inn[v] |= 1 << u
            v = u
        flow += 1
    return flow, reach


def _edge_cut(g: Graph) -> tuple[int, int]:
    """(lambda, source side of a minimum edge cut as a vertex mask)."""
    n = g.n
    if n == 1 or not is_connected(g):
        return 0, 0
    rows = g.rows
    # lambda <= min degree, witnessed by the star of a minimum-degree vertex
    best, v = min((r.bit_count(), v) for v, r in enumerate(rows))
    best_reach = 1 << v
    free = (0,) * n
    for t in range(1, n):
        if best == 1:
            break
        if (rows[0] & rows[t]).bit_count() + ((rows[0] >> t) & 1) >= best:
            continue
        flow, reach = _augment(rows, free, 0, t, best)
        if flow < best:
            best, best_reach = flow, reach
    return best, best_reach


def _vertex_cut(g: Graph) -> tuple[int, Optional[int]]:
    """(kappa, split-graph reach set of a minimum vertex cut, None if none)."""
    n = g.n
    if n == 1 or not is_connected(g):
        return 0, None
    rows = g.rows
    best, v = min((r.bit_count(), v) for v, r in enumerate(rows))
    if best == n - 1:
        return best, None  # complete graphs have no non-adjacent pair
    # kappa <= min degree, witnessed by N(v): reach holds v_in, v_out and the
    # in-nodes of v's neighbours, so exactly the arcs u_in -> u_out cross
    best_reach = 3 << (2 * v)
    for u in _bits(rows[v]):
        best_reach |= 1 << (2 * u)
    unit = [0] * (2 * n)
    free = [0] * (2 * n)
    for v in range(n):
        unit[2 * v] = 1 << (2 * v + 1)
        for u in _bits(rows[v]):
            free[2 * v + 1] |= 1 << (2 * u)
    full = (1 << n) - 1
    s = 0
    while s < best and best > 1:  # kappa >= 1, so best == 1 is final
        for t in _bits(full & ~rows[s] & ~((1 << (s + 1)) - 1)):
            if (rows[s] & rows[t]).bit_count() >= best:
                continue
            flow, reach = _augment(unit, free, 2 * s + 1, 2 * t, best)
            if flow < best:
                best, best_reach = flow, reach
                if best == 1:
                    break
        s += 1
    return best, best_reach


def edge_connectivity(g: Graph) -> int:
    """Minimum number of edges whose deletion disconnects g (0 for K_1)."""
    return _edge_cut(g)[0]


def vertex_connectivity(g: Graph) -> int:
    """Minimum vertex-cut size; n-1 for complete graphs by convention."""
    return _vertex_cut(g)[0]


def connectivity_profile(g: Graph) -> ConnectivityResult:
    """Both connectivities plus witness cuts realizing them (when they exist)."""
    lam, side = _edge_cut(g)
    kap, reach = _vertex_cut(g)
    if lam == 0:
        return ConnectivityResult(lam, kap, (), () if g.n > 1 else None)
    edge_cut = tuple(sorted(
        (min(u, v), max(u, v)) for u in _bits(side) for v in _bits(g.rows[u] & ~side)
    ))
    vertex_cut = None
    if reach is not None:
        vertex_cut = tuple(
            v for v in range(g.n) if (reach >> (2 * v)) & 1 and not (reach >> (2 * v + 1)) & 1
        )
    return ConnectivityResult(lam, kap, edge_cut, vertex_cut)
