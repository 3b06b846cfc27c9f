"""Simple undirected graphs on bitset adjacency rows, plus the named families.

Vertices are 0..n-1. Each adjacency row is a Python int used as a bitset,
which keeps degree counts, neighbourhood intersections and whole-row
comparisons cheap at every order this package cares about (n <= 4096).
Graphs are value-like: mutators return a new Graph and never touch their
argument, so published graphs are safe to share across workers.  Every
builder checks its order and its vertex pairs once, before it builds.
"""

from __future__ import annotations

import binascii
from typing import Iterator, Optional

MAX_VERTICES = 4096


class Graph6Error(ValueError):
    """Malformed graph6 text (bad header, bad length, nonzero padding)."""


def _check_order(n: int) -> int:
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    return n


def _check_pair(n: int, u: int, v: int) -> None:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u},{v}) out of range for n={n}")


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph: n vertices, symmetric bitset adjacency rows."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Optional[tuple[int, ...]] = None):
        self.n = _check_order(n)
        self.rows = rows if rows is not None else (0,) * n

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * _check_order(n)
        for u, v in edges:
            _check_pair(n, u, v)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    def has_edge(self, u: int, v: int) -> bool:
        return (self.rows[u] >> v) & 1 == 1

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def neighbors(self, v: int) -> Iterator[int]:
        return _bits(self.rows[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in (min, max) lexicographic order."""
        for u in range(self.n):
            yield from ((u, v) for v in _bits(self.rows[u] >> (u + 1) << (u + 1)))

    def audit(self) -> None:
        """Structural check: symmetric adjacency, empty diagonal, rows in range."""
        n = self.n
        if len(self.rows) != n:
            raise AssertionError("row count != n")
        full = (1 << n) - 1
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise AssertionError(f"row {v} has bits beyond vertex range")
            if (row >> v) & 1:
                raise AssertionError(f"self-loop at {v}")
            for u in _bits(row):
                if not (self.rows[u] >> v) & 1:
                    raise AssertionError(f"asymmetric pair ({v},{u})")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def empty_graph(n: int) -> Graph:
    return Graph(n)


def complete_graph(n: int) -> Graph:
    _check_order(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def add_edge(g: Graph, u: int, v: int) -> Graph:
    _check_pair(g.n, u, v)
    if g.has_edge(u, v):
        raise ValueError(f"edge ({u},{v}) already present")
    rows = list(g.rows)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return Graph(g.n, tuple(rows))


def remove_edge(g: Graph, u: int, v: int) -> Graph:
    _check_pair(g.n, u, v)
    if not g.has_edge(u, v):
        raise ValueError(f"edge ({u},{v}) not present")
    rows = list(g.rows)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return Graph(g.n, tuple(rows))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    n = _check_order(g.n + h.n)
    rows = list(g.rows) + [r << g.n for r in h.rows]
    return Graph(n, tuple(rows))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets."""
    n = _check_order(g.n + h.n)
    g_mask = (1 << g.n) - 1
    h_mask = ((1 << h.n) - 1) << g.n
    rows = [r | h_mask for r in g.rows]
    rows += [(r << g.n) | g_mask for r in h.rows]
    return Graph(n, tuple(rows))


def kn_k_graph(n: int, k: int) -> Graph:
    """K_k joined to (K_1 + K_{n-k-1}): one vertex attached to k vertices of K_{n-1}.

    Vertices 0..k-1 form the K_k block, vertex k is the low-degree vertex,
    vertices k+1..n-1 the remaining clique.
    """
    if not (1 <= k <= n - 2):
        raise ValueError(f"kn_k needs 1 <= k <= n-2, got n={n}, k={k}")
    _check_order(n)
    return join(complete_graph(k), disjoint_union(complete_graph(1), complete_graph(n - k - 1)))


def turan_graph(n: int, l: int) -> Graph:
    """Complete l-partite graph with part sizes differing by at most one.

    Parts are sorted non-increasing and vertices labelled part by part, so
    the construction is byte-for-byte reproducible in graph6.
    """
    if not (1 <= l <= n):
        raise ValueError(f"turan needs 1 <= l <= n, got n={n}, l={l}")
    _check_order(n)
    q, r = divmod(n, l)
    sizes = [q + 1] * r + [q] * (l - r)
    rows = [0] * n
    start = 0
    full = (1 << n) - 1
    for size in sizes:
        part_mask = ((1 << size) - 1) << start
        for v in range(start, start + size):
            rows[v] = full & ~part_mask
        start += size
    return Graph(n, tuple(rows))


def bridge_cliques_graph(x: int, y: int) -> Graph:
    """K_x and K_y joined by a single edge between vertex 0 and vertex x."""
    if x < 1 or y < 1:
        raise ValueError(f"bridge_cliques needs x >= 1 and y >= 1, got x={x}, y={y}")
    _check_order(x + y)
    g = disjoint_union(complete_graph(x), complete_graph(y))
    return add_edge(g, 0, x)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, ((v, (v + 1) % n) for v in range(n)))


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((v, v + 1) for v in range(n - 1)))


def star_graph(n: int) -> Graph:
    return Graph.from_edges(n, ((0, v) for v in range(1, n)))


def components(rows, alive: int) -> list[int]:
    """The component vertex masks of the subgraph that `rows` induce on the
    vertex mask `alive`, in order of their lowest vertex."""
    parts = []
    while alive:
        seen = frontier = alive & -alive
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= rows[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & alive & ~seen
            seen |= frontier
        parts.append(seen)
        alive &= ~seen
    return parts


def is_connected(g: Graph) -> bool:
    return len(components(g.rows, (1 << g.n) - 1)) == 1


# graph6 text interchange.
#
# Header: chr(63+n) for n <= 62, else '~' plus three bytes carrying n in 18
# big-endian bits (6 per byte, each offset by 63).  Body: the upper triangle
# in column-major order -- pairs (0,1),(0,2),(1,2),(0,3),... -- packed 6 bits
# per byte MSB-first, zero-padded, each byte offset by 63.

_G6_OPTIONAL_PREFIX = ">>graph6<<"
# base64 cuts bytes into the same big-endian 6-bit groups; only the alphabet differs
_BASE64_TO_G6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127)))


def _graph6(n: int, bits: int) -> bytes:
    """graph6 of the order-n graph whose upper triangle, in column-major
    order, is the n(n-1)/2 bits of `bits`, the first pair most significant."""
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    groups = (nbytes + 3) // 4  # 3 bytes in, 4 graph6 bytes out
    raw = (bits << (24 * groups - npairs)).to_bytes(3 * groups, "big")
    body = binascii.b2a_base64(raw, newline=False).translate(_BASE64_TO_G6)[:nbytes]
    if n <= 62:
        return bytes((63 + n,)) + body
    return bytes((126, 63 + (n >> 12 & 63), 63 + (n >> 6 & 63), 63 + (n & 63))) + body


def encode_graph6(g: Graph) -> str:
    # bit i of rows[j] is pair (i, j): lay the columns out first pair
    # lowest, then reverse the string so that the first pair leads
    rows = g.rows
    low_first = 0
    npairs = 0
    for j in range(1, g.n):
        low_first |= (rows[j] & ((1 << j) - 1)) << npairs
        npairs += j
    return _graph6(g.n, int(format(low_first, f"0{npairs}b")[::-1], 2)).decode()


def decode_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_G6_OPTIONAL_PREFIX):
        s = s[len(_G6_OPTIONAL_PREFIX):]
    if not s:
        raise Graph6Error("empty graph6 text")
    vals = []
    for ch in s:
        c = ord(ch)
        if not 63 <= c <= 126:
            raise Graph6Error(f"byte {c} outside graph6 alphabet")
        vals.append(c - 63)
    if vals[0] < 63:
        n = vals[0]
        body = vals[1:]
    else:
        if len(vals) >= 4 and vals[1] == 63:
            raise Graph6Error("graph6 orders beyond 258047 are not supported")
        if len(vals) < 4:
            raise Graph6Error("truncated graph6 extended header")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
    if n == 0:
        raise Graph6Error("graph6 order 0 not representable here")
    if n > MAX_VERTICES:
        raise Graph6Error(f"graph6 order {n} exceeds cap {MAX_VERTICES}")
    npairs = n * (n - 1) // 2
    expected = (npairs + 5) // 6
    if len(body) != expected:
        raise Graph6Error(f"graph6 body length {len(body)}, expected {expected} for n={n}")
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if (body[idx // 6] >> (5 - idx % 6)) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    # padding bits beyond the last pair must be zero
    while idx < expected * 6:
        if (body[idx // 6] >> (5 - idx % 6)) & 1:
            raise Graph6Error("nonzero padding bits in graph6 body")
        idx += 1
    return Graph(n, tuple(rows))
