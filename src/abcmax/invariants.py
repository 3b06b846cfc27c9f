"""The atom-bond connectivity index, as a float and at fixed Decimal precision.

For an edge uv the ABC contribution is sqrt((d(u)+d(v)-2)/(d(u)d(v))); the
index is the sum over all edges.  Both sums walk the graph once, in
`_degree_pairs`, which counts the edges per endpoint-degree pair; each
distinct pair's term is evaluated once and repeated by its count.  Floats are
accumulated with math.fsum, which rounds the exact sum of the term multiset
once, so values are bit-reproducible and exact to the last double bit even at
n = 200.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

from .graphs import Graph

TIE_DIGITS = 40  # significant decimals of abc_index_decimal


def f_abc(a, b) -> float:
    """Edge contribution sqrt((a+b-2)/(a*b)) for endpoint degrees a, b >= 1."""
    if a < 1 or b < 1:
        raise ValueError(f"degrees must be >= 1, got ({a}, {b})")
    return math.sqrt((a + b - 2) / (a * b))


def _degree_pairs(g: Graph) -> dict[tuple[int, int], int]:
    """Number of edges uv with {d(u), d(v)} = {a, b}, keyed by (a, b), a <= b."""
    deg = [r.bit_count() for r in g.rows]
    masks: dict[int, int] = {}
    for v, d in enumerate(deg):
        masks[d] = masks.get(d, 0) | 1 << v
    pairs: dict[tuple[int, int], int] = {}
    for u, row in enumerate(g.rows):
        a = deg[u]
        higher = row >> (u + 1) << (u + 1)
        for b, mask in masks.items():
            count = (higher & mask).bit_count()
            if count:
                key = (a, b) if a <= b else (b, a)
                pairs[key] = pairs.get(key, 0) + count
    return pairs


def abc_index(g: Graph) -> float:
    terms: list[float] = []
    for (a, b), count in _degree_pairs(g).items():
        terms += [f_abc(a, b)] * count
    return math.fsum(terms)


def abc_index_decimal(g: Graph) -> Decimal:
    """ABC index at TIE_DIGITS significant decimals, for tie adjudication.

    Terms are sorted before summation so equal degree-pair multisets give
    identical Decimal values.
    """
    with localcontext() as ctx:
        ctx.prec = TIE_DIGITS
        terms: list[Decimal] = []
        for (a, b), count in _degree_pairs(g).items():
            terms += [(Decimal(a + b - 2) / Decimal(a * b)).sqrt()] * count
        terms.sort()
        total = Decimal(0)
        for t in terms:
            total += t
        return total
