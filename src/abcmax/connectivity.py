"""Exact edge- and vertex-connectivity via unit-capacity augmenting paths.

One routine, `_augment`, pushes augmenting paths over int bitset rows: arcs
in `unit` carry capacity 1 and arcs in `free` are uncapacitated.  Edge
connectivity runs it on the adjacency rows themselves.  Vertex connectivity
runs it on the split graph, built once per graph: node 2v is v_in and 2v+1 is
v_out, the arc v_in -> v_out is unit, and every edge uv becomes the free arcs
v_out -> u_in and u_out -> v_in, so a minimum cut can only cross in -> out
arcs, i.e. vertices.  For lambda, the residual reach set of the call that
sets the minimum is the source side of a minimum cut, the witness.

Three rules, each sound for any graph, keep the flow calls few (after Even,
SIAM J. Comput. 4, 1975, and Esfahanian & Hakimi, Networks 14, 1984):

- Both caps start at the minimum degree delta.  The star of a minimum-degree
  vertex v is an edge cut, and for a non-complete graph N(v) is a vertex cut,
  because v has a non-neighbour.  When no flow beats delta, the star is the
  witness.
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

`edge_cut_side` is the one lambda search and returns its witness as a vertex
mask; `vertex_connectivity` is the one kappa search and returns kappa alone.
`separator_parts` lists the components that the minimum separators leave
(Kanevsky, Networks 23, 1993, lists every minimum separator in general).
With them, a scan decides the kappa of every one-vertex extension, and the
lambda of most, without a flow.
Let g be connected with k >= 2 vertices, and let h = g + z, with z joined to
a nonempty S, s = |S|:

- lambda: min(lambda(g), s) <= lambda(h)
  <= min(s, lambda(g) + min(|S & A|, |S - A|)) for the source side A of any
  minimum edge cut of g.  Lower bound: let F be a minimum edge cut of h and
  P the side holding z.  If P = {z}, F is z's star and |F| = s.  Otherwise
  P - z and the other side are nonempty vertex sets of g, and the edges of
  F inside g separate them, so |F| >= lambda(g).  Upper bound: z's star
  has s edges; the cut (A, V(g) - A) of g, with z put on A's side, crosses
  lambda(g) + |S - A| edges, and with z on the other side lambda(g) +
  |S & A|.  When the two bounds meet, lambda(h) is decided.
- kappa: first, min(kappa(g), s) <= kappa(h) whenever S != V(g).  Let Y be
  a minimum separator of h (h is not complete, as z misses a vertex).  If
  z is in Y, then h - Y = g - (Y - z) is disconnected, so |Y| > kappa(g).
  If z is not in Y and S is inside Y, then |Y| >= s.  Otherwise z has a
  neighbour in h - Y, so z's component there holds a vertex of g and
  another component lies in g, and Y separates g: |Y| >= kappa(g).  (For a
  complete g only the middle case can occur, and kappa(g) = k - 1 >= s.)
  Write kappa = kappa(g).  Two cases then decide kappa(h):
  - s <= kappa: kappa(h) = s.  S != V(g), as kappa <= k - 1; S separates
    z from V(g) - S, and the lower bound is min(kappa, s) = s.
  - s > kappa: kappa(h) = kappa if S misses some component of g - X for
    a minimum separator X of g, and kappa + 1 if it misses none (always
    so for a complete g, which has no separator).  kappa(h) >= kappa: by
    the lower bound if S != V(g); if S = V(g), z sees every vertex, so
    every separator of h holds z and loses it to a separator of g (a
    complete g makes h complete, with kappa(h) = k = kappa + 1).  And
    X + z separates h, so kappa(h) <= kappa + 1.  Now take a separator
    Y of h with |Y| = kappa.  Y cannot hold z, or Y - z would separate
    g with kappa - 1 vertices.  Y cannot hold all of S, as s > kappa.
    So z has a neighbour in h - Y, Y separates g as above, and Y is a
    minimum separator of g.  h - Y is g - Y with z joined to S - Y, so
    it is disconnected iff z misses a component of g - Y.  Conversely,
    such an X is a separator of h of size kappa.
"""

from __future__ import annotations

from itertools import combinations

from .graphs import Graph, _bits, components, is_connected


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


def edge_cut_side(g: Graph) -> tuple[int, int]:
    """(lambda, the source side A of a minimum edge cut as a vertex mask).

    A is 0 when lambda is 0; otherwise it is a nonempty proper subset of the
    vertices, and exactly lambda edges leave it.
    """
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


def edge_connectivity(g: Graph) -> int:
    """Minimum number of edges whose deletion disconnects g (0 for K_1)."""
    return edge_cut_side(g)[0]


def vertex_connectivity(g: Graph) -> int:
    """Minimum vertex-cut size; n-1 for complete graphs by convention."""
    n = g.n
    if n == 1 or not is_connected(g):
        return 0
    rows = g.rows
    best = min(r.bit_count() for r in rows)  # kappa <= min degree, by N(v)
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
            best = min(best, _augment(unit, free, 2 * s + 1, 2 * t, best)[0])
            if best == 1:
                break
        s += 1
    return best


def separator_parts(g: Graph, kappa: int) -> list[int]:
    """The component masks of g - X for every X of kappa vertices whose
    removal disconnects g, kappa being vertex_connectivity(g); [] for a
    complete g.  Each size-kappa subset is tried, C(n, kappa) component
    searches, which stays cheap at the orders of a scan's parents.  A
    component C names its X, as X = N(C), so no mask repeats."""
    full = (1 << g.n) - 1
    parts = []
    for sep in combinations([1 << v for v in range(g.n)], kappa):
        comps = components(g.rows, full ^ sum(sep))
        if len(comps) > 1:
            parts.extend(comps)
    return parts
