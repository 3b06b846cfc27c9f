import math
import random
from functools import reduce

import pytest

from abcmax.bounds import (
    PartitionProfile,
    bipartite_bound,
    cauchy_schwarz_bound,
    chromatic_bound,
    clique_side_second_derivative,
    clique_side_value,
    cs_equality_gap,
    edge_connectivity_bound,
    karamata_check,
    majorizes,
    multipartite_bound,
    vertex_migration_gain,
)
from abcmax.graphs import empty_graph, join, kn_k_graph, turan_graph
from abcmax.invariants import abc_index


def complete_multipartite(parts):
    return reduce(join, [empty_graph(t) for t in parts])


class TestEdgeConnectivityBound:
    def test_frozen_values(self):
        assert edge_connectivity_bound(6, 3) == pytest.approx(7.756443176504305, abs=1e-12)
        assert edge_connectivity_bound(6, 2) == pytest.approx(7.366664164269486, abs=1e-12)
        assert edge_connectivity_bound(6, 1) == pytest.approx(6.935093718414530, abs=1e-12)

    def test_matches_construction(self):
        for n in range(6, 31):
            for k in range(1, n - 1):
                assert abs(abc_index(kn_k_graph(n, k)) - edge_connectivity_bound(n, k)) <= 1e-9

    def test_range_errors(self):
        with pytest.raises(ValueError):
            edge_connectivity_bound(5, 2)
        with pytest.raises(ValueError):
            edge_connectivity_bound(6, 5)
        with pytest.raises(ValueError):
            edge_connectivity_bound(6, 0)


class TestBipartiteBound:
    def test_frozen_values(self):
        assert bipartite_bound(4) == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert bipartite_bound(5) == pytest.approx(3 * math.sqrt(2), abs=1e-12)
        assert bipartite_bound(6) == pytest.approx(6.0, abs=1e-12)

    def test_matches_construction(self):
        for n in range(4, 61):
            assert abs(abc_index(turan_graph(n, 2)) - bipartite_bound(n)) <= 1e-9

    def test_range_error(self):
        with pytest.raises(ValueError):
            bipartite_bound(1)


class TestChromaticBound:
    def test_frozen_values(self):
        assert chromatic_bound(6, 3) == pytest.approx(7.348469228349534, abs=1e-12)
        assert chromatic_bound(9, 3) == pytest.approx(14.230249470757707, abs=1e-12)
        assert chromatic_bound(4, 2) == pytest.approx(bipartite_bound(4), abs=1e-12)

    def test_matches_construction_when_chi_divides_n(self):
        for chi in range(2, 7):
            for n in range(chi, 61, chi):
                assert abs(abc_index(turan_graph(n, chi)) - chromatic_bound(n, chi)) <= 1e-9

    def test_range_errors(self):
        with pytest.raises(ValueError):
            chromatic_bound(3, 1)
        with pytest.raises(ValueError):
            chromatic_bound(2, 3)


class TestPartitionProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionProfile((5,))
        with pytest.raises(ValueError):
            PartitionProfile((3, 0))

    def test_derived_fields(self):
        p = PartitionProfile((1, 2, 3))
        assert p.n == 6
        assert p.chi == 3


class TestMultipartiteBound:
    def test_frozen_values(self):
        assert multipartite_bound(PartitionProfile((2, 2, 2))) == pytest.approx(
            7.348469228349534, abs=1e-12)
        assert multipartite_bound(PartitionProfile((1, 2, 3))) == pytest.approx(
            6.9535658989283675, abs=1e-12)
        assert multipartite_bound(PartitionProfile((3, 3))) == pytest.approx(6.0, abs=1e-12)

    def test_equals_abc_of_complete_multipartite(self):
        rng = random.Random(5)
        for _ in range(60):
            chi = rng.randint(2, 5)
            parts = tuple(rng.randint(1, 7) for _ in range(chi))
            p = PartitionProfile(parts)
            assert multipartite_bound(p) == pytest.approx(
                abc_index(complete_multipartite(parts)), abs=1e-9)


class TestCauchySchwarz:
    def test_equal_parts_tight(self):
        cs = cauchy_schwarz_bound(PartitionProfile((2, 2, 2)))
        assert cs.inner_sum == pytest.approx(7.348469228349534, abs=1e-12)
        assert cs.norm_product == pytest.approx(cs.inner_sum, abs=1e-12)

    def test_unequal_parts_strict(self):
        cs = cauchy_schwarz_bound(PartitionProfile((1, 2, 3)))
        assert cs.inner_sum == pytest.approx(6.9535658989283675, abs=1e-12)
        assert cs.norm_product == pytest.approx(8.270429251254134, abs=1e-12)
        assert cs.norm_product - cs.inner_sum > 1e-9

    def test_balanced_profile_equals_chromatic_bound(self):
        for chi in range(2, 8):
            for size in range(1, 8):
                p = PartitionProfile((size,) * chi)
                cs = cauchy_schwarz_bound(p)
                target = chromatic_bound(p.n, chi)
                assert cs.inner_sum == pytest.approx(target, abs=1e-9)
                assert cs.norm_product == pytest.approx(target, abs=1e-9)

    def test_sum_never_exceeds_norm_product(self):
        rng = random.Random(9)
        for _ in range(2000):
            chi = rng.randint(2, 7)
            parts = tuple(rng.randint(1, 12) for _ in range(chi))
            cs = cauchy_schwarz_bound(PartitionProfile(parts))
            assert cs.inner_sum <= cs.norm_product + 1e-12

    def test_y_norm_identity_is_exact(self):
        rng = random.Random(13)
        for _ in range(500):
            chi = rng.randint(2, 8)
            parts = tuple(rng.randint(1, 15) for _ in range(chi))
            p = PartitionProfile(parts)
            n = p.n
            y_sq = sum(
                2 * n - parts[i] - parts[j] - 2
                for i in range(chi)
                for j in range(i + 1, chi)
            )
            assert y_sq == (chi - 1) * (chi * (n - 1) - n)
            cauchy_schwarz_bound(p)  # internal identity check must not raise


class TestEqualityGap:
    def test_equal_parts_zero(self):
        assert cs_equality_gap(PartitionProfile((3, 3, 3))) <= 1e-12
        assert cs_equality_gap(PartitionProfile((4, 4))) <= 1e-12

    def test_unequal_parts_positive(self):
        p = PartitionProfile((1, 2, 3))
        ratios = [x / y for x, y in p.xy_pairs()]
        assert ratios == pytest.approx(
            [0.1690308509457033, 0.316227766016838, 0.7745966692414834], abs=1e-12)
        assert cs_equality_gap(p) > 0.1

    def test_two_part_profiles_always_parallel(self):
        # a single (x, y) component cannot spread: the gap is 0 whatever the parts
        assert cs_equality_gap(PartitionProfile((1, 3))) <= 1e-12


class TestCliqueSideFunction:
    def test_frozen_values(self):
        assert clique_side_value(2) == pytest.approx(3 * math.sqrt(2) / 2, abs=1e-12)
        assert clique_side_value(3) == pytest.approx(2 + 3 * math.sqrt(5 / 12), abs=1e-12)
        assert clique_side_value(1) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            clique_side_value(0.5)
        with pytest.raises(ValueError):
            clique_side_second_derivative(1.0)

    def test_second_derivative_positive_on_grid(self):
        for z in (1.01, 1.1, 2.0, 5.0, 10.0, 100.0, 10000.0):
            assert clique_side_second_derivative(z) > 0.0

    def test_second_derivative_matches_central_difference(self):
        for z in (1.5, 2.0, 3.0, 7.0, 50.0, 400.0):
            h = 1e-4 * max(1.0, z)
            fd = (clique_side_value(z + h) - 2 * clique_side_value(z)
                  + clique_side_value(z - h)) / (h * h)
            assert clique_side_second_derivative(z) == pytest.approx(fd, rel=1e-4)


class TestVertexMigrationGain:
    def test_frozen_values(self):
        assert vertex_migration_gain(3, 3) == pytest.approx(0.04044011451988094, abs=1e-12)
        assert vertex_migration_gain(4, 5) == pytest.approx(0.03200158615236193, abs=1e-12)

    def test_positive_on_sample_grid(self):
        for x in range(3, 30):
            for y in range(x, 300, 7):
                assert vertex_migration_gain(x, y) > 0.0
        assert vertex_migration_gain(3, 300) > 0.0

    def test_range_errors(self):
        with pytest.raises(ValueError):
            vertex_migration_gain(2, 5)
        with pytest.raises(ValueError):
            vertex_migration_gain(5, 4)


class TestKaramata:
    def test_square_example(self):
        res = karamata_check((3.0, 1.0), (2.0, 2.0), lambda v: v * v)
        assert res.majorizes and res.convex_sum_holds and res.holds

    def test_reversed_roles_fail(self):
        res = karamata_check((2.0, 2.0), (3.0, 1.0), lambda v: v * v)
        assert not res.majorizes
        assert not res.holds

    def test_clique_side_pairs(self):
        # (y, x-2) majorizes (y-1, x-1) whenever y >= x; convexity then orders the sums
        for x in range(3, 12):
            for y in range(x, 15):
                res = karamata_check(
                    (float(y), float(x - 2)),
                    (float(y - 1), float(x - 1)),
                    clique_side_value,
                )
                assert res.holds

    def test_input_validation(self):
        with pytest.raises(ValueError):
            karamata_check((1.0, 2.0), (2.0, 1.0), abs)  # first not sorted
        with pytest.raises(ValueError):
            karamata_check((2.0, 1.0), (1.0,), abs)

    def test_random_majorizing_pairs(self):
        rng = random.Random(17)
        for fn in (lambda v: v * v, math.exp, clique_side_value):
            for _ in range(200):
                length = rng.randint(2, 6)
                b = sorted((rng.uniform(1.0, 9.0) for _ in range(length)), reverse=True)
                # push mass upward: increase the head, decrease the tail by the same amount
                delta = rng.uniform(0.0, b[-1] - 1.0)
                a = b[:]
                a[0] += delta
                a[-1] -= delta
                a.sort(reverse=True)
                assert majorizes(a, b)
                assert karamata_check(a, b, fn).holds
