"""Closed-form ABC bounds, partition vectors, and convexity/majorization checks.

Everything here is pure arithmetic: no graph is ever constructed, so
agreement between these formulas and edge sums over built graphs is a
genuine two-sided test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

STRICT_GAP_TOL = 1e-12


def edge_connectivity_bound(n: int, k: int) -> float:
    """Largest ABC index over n-vertex connected graphs with edge-connectivity k.

    Attained exactly by the graph that joins one vertex to k vertices of
    K_{n-1}.  The range k >= 2 was proven earlier; the paper settles k = 1,
    where the same formula holds.
    """
    if n < 6 or not 1 <= k <= n - 2:
        raise ValueError(f"need n >= 6 and 1 <= k <= n-2, got n={n}, k={k}")
    return (
        k * math.sqrt((n + k - 3) / (k * (n - 1)))
        + k * (k - 1) / (2 * (n - 1)) * math.sqrt(2 * n - 4)
        + (n - k - 1) * (n - k - 2) / (2 * (n - 2)) * math.sqrt(2 * n - 6)
        + k * (n - k - 1) * math.sqrt((2 * n - 5) / ((n - 1) * (n - 2)))
    )


def bipartite_bound(n: int) -> float:
    """Largest ABC index over connected graphs with chromatic number 2."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n % 2 == 0:
        return (n / 2) * math.sqrt(n - 2)
    return 0.5 * math.sqrt((n - 2) * (n * n - 1))


def chromatic_bound(n: int, chi: int) -> float:
    """Largest ABC index over connected graphs with chromatic number chi,
    attained by the balanced complete chi-partite graph when chi divides n."""
    if chi < 2 or n < chi:
        raise ValueError(f"need chi >= 2 and n >= chi, got n={n}, chi={chi}")
    return n * math.sqrt((chi * (n - 1) - n) / (2 * chi))


@dataclass(frozen=True)
class PartitionProfile:
    """Colour-class sizes (t_1,...,t_chi), each >= 1, at least two classes."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("profile needs at least two parts")
        if any(t < 1 for t in self.parts):
            raise ValueError(f"parts must be >= 1, got {self.parts}")
        object.__setattr__(self, "parts", tuple(int(t) for t in self.parts))

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def chi(self) -> int:
        return len(self.parts)

    def xy_pairs(self) -> list[tuple[float, float]]:
        """(x_ij, y_ij) over pairs i < j: x weighs the cross-edge count,
        y the shared square-root factor of the multipartite edge term."""
        n = self.n
        t = self.parts
        out = []
        for i in range(len(t)):
            for j in range(i + 1, len(t)):
                x = t[i] * t[j] / math.sqrt((n - t[i]) * (n - t[j]))
                y = math.sqrt(2 * n - (t[i] + t[j]) - 2)
                out.append((x, y))
        return out


def multipartite_bound(p: PartitionProfile) -> float:
    """ABC index of the complete multipartite graph with parts p, an upper
    bound for every connected graph admitting p as a colouring profile."""
    n = p.n
    t = p.parts
    terms = []
    for i in range(len(t)):
        for j in range(i + 1, len(t)):
            terms.append(
                t[i] * t[j] * math.sqrt((2 * n - t[i] - t[j] - 2) / ((n - t[i]) * (n - t[j])))
            )
    return math.fsum(terms)


class CauchySchwarzBound(NamedTuple):
    inner_sum: float
    norm_product: float


def cauchy_schwarz_bound(p: PartitionProfile) -> CauchySchwarzBound:
    """The multipartite edge sum <x, y> next to its Cauchy-Schwarz cap ||x||*||y||.

    ||y||^2 is also checked exactly against its closed form
    (chi-1)(chi(n-1)-n), which the components must reproduce integer-for-integer.
    """
    n, chi, t = p.n, p.chi, p.parts
    y_sq_exact = sum(2 * n - t[i] - t[j] - 2 for i in range(chi) for j in range(i + 1, chi))
    identity = (chi - 1) * (chi * (n - 1) - n)
    if y_sq_exact != identity:
        raise AssertionError(f"||y||^2 identity violated: {y_sq_exact} != {identity}")
    pairs = p.xy_pairs()
    inner = math.fsum(x * y for x, y in pairs)
    x_sq = math.fsum(x * x for x, _ in pairs)
    norm_product = math.sqrt(x_sq) * math.sqrt(y_sq_exact)
    if inner > norm_product + STRICT_GAP_TOL:
        raise AssertionError(f"Cauchy-Schwarz violated: {inner} > {norm_product}")
    return CauchySchwarzBound(inner, norm_product)


def cs_equality_gap(p: PartitionProfile) -> float:
    """Spread of the ratios x_ij/y_ij around their mean; ~0 means x and y are
    parallel, so the Cauchy-Schwarz cap is attained.  With three or more
    classes that forces all parts equal; with two classes the single ratio
    is trivially parallel whatever the parts."""
    ratios = [x / y for x, y in p.xy_pairs()]
    mean = math.fsum(ratios) / len(ratios)
    return max(abs(r - mean) for r in ratios)


def clique_side_value(z: float) -> float:
    """ABC mass of one clique side of a bridged clique pair, as a function of
    its internal degree z: C(z,2) f(z,z) + z f(z,z+1), with the binomial read
    as z(z-1)/2 so real z differentiates cleanly.  Defined for z >= 1."""
    if z < 1:
        raise ValueError(f"need z >= 1, got {z}")
    internal = 0.0
    if z > 1:  # f(z,z) = sqrt(2z-2)/z
        internal = z * (z - 1) / 2 * math.sqrt((2 * z - 2) / (z * z))
    return internal + z * math.sqrt((2 * z - 1) / (z * (z + 1)))


def clique_side_second_derivative(z: float) -> float:
    """Second derivative of clique_side_value; positive for all z > 1, which
    is what makes the side function convex."""
    if z <= 1:
        raise ValueError(f"need z > 1, got {z}")
    return 0.125 * (
        3 * math.sqrt(2) / math.sqrt(z - 1)
        + 24 / ((z + 1) ** 2.5 * math.sqrt(z * (2 * z - 1)))
        - 2 * (1 - 2 * z * (z + 2)) ** 2 / ((z + 1) ** 2.5 * (z * (2 * z - 1)) ** 1.5)
    )


def vertex_migration_gain(x: int, y: int) -> float:
    """f(x-1, y+1) - f(x, y) for 3 <= x <= y: the edge-function gain when the
    bridge endpoint degrees shift one vertex from the small side to the large.
    Positive throughout the range."""
    if not 3 <= x <= y:
        raise ValueError(f"need 3 <= x <= y, got x={x}, y={y}")
    before = math.sqrt((x + y - 2) / (x * y))
    after = math.sqrt((x + y - 2) / ((x - 1) * (y + 1)))
    return after - before


@dataclass(frozen=True)
class KaramataResult:
    majorizes: bool
    convex_sum_holds: bool

    @property
    def holds(self) -> bool:
        return self.majorizes and self.convex_sum_holds


def majorizes(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when every prefix sum of a dominates b's and the totals agree,
    both up to STRICT_GAP_TOL."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    for seq, name in ((a, "a"), (b, "b")):
        if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
            raise ValueError(f"sequence {name} is not sorted non-increasing")
    pa = pb = 0.0
    for ai, bi in zip(a, b):
        pa += ai
        pb += bi
        if pa < pb - STRICT_GAP_TOL:
            return False
    return abs(pa - pb) <= STRICT_GAP_TOL


def karamata_check(
    a: Sequence[float], b: Sequence[float], convex_fn: Callable[[float], float]
) -> KaramataResult:
    """Majorization premise plus the convex-sum conclusion it forces:
    when a majorizes b, sum convex_fn(a_i) >= sum convex_fn(b_i)."""
    major = majorizes(a, b)
    sum_a = math.fsum(convex_fn(v) for v in a)
    sum_b = math.fsum(convex_fn(v) for v in b)
    return KaramataResult(major, sum_a >= sum_b - STRICT_GAP_TOL)
