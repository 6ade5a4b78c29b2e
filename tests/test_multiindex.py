import itertools

import pytest

from ssmopt.multiindex import (
    all_indices,
    canonical_indices,
    decomps,
    order,
    r1_active_index,
    resonant_slot,
    symmetric,
)


class TestEnumeration:
    def test_leading_order(self):
        assert canonical_indices(1) == [(1, 0)]

    def test_order_three_canonical_half(self):
        assert canonical_indices(3) == [(3, 0), (2, 1)]

    def test_order_five_counts(self):
        assert len(all_indices(5)) == 6
        assert len(canonical_indices(5)) == 3

    def test_counting_rule(self):
        for q in range(1, 12):
            assert len(all_indices(q)) == q + 1
            assert len(canonical_indices(q)) == (q + 2) // 2

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            canonical_indices(0)


class TestNearResonance:
    def test_first_slot_active(self):
        assert resonant_slot((2, 1)) == 0

    def test_even_order_inactive(self):
        assert resonant_slot((2, 0)) is None
        assert resonant_slot((1, 1)) is None

    def test_second_slot_on_swapped(self):
        assert resonant_slot((1, 2)) == 1

    def test_tags_mirror_under_swap(self):
        for q in range(2, 10):
            for m in all_indices(q):
                a, b = resonant_slot(m), resonant_slot(symmetric(m))
                if a is None:
                    assert b is None
                else:
                    assert b == 1 - a

    def test_exactly_one_canonical_active_per_odd_order(self):
        for q in range(2, 12):
            active = [m for m in canonical_indices(q) if resonant_slot(m) == 0]
            if q % 2 == 0:
                assert active == []
            else:
                assert active == [r1_active_index(q)]


class TestDecompositions:
    @pytest.mark.parametrize("parts", [2, 3])
    def test_decomps_closed_under_permutation(self, parts):
        for m in [(3, 1), (2, 2), (5, 0)]:
            d = set(decomps(m, parts))
            for split in d:
                assert (sum(u[0] for u in split), sum(u[1] for u in split)) == m
                assert all(order(u) >= 1 for u in split)
                for perm in itertools.permutations(split):
                    assert perm in d

    def test_pair_counts(self):
        # order-2 target: the only split of (1,1) is e1+e2 in both orders
        assert len(decomps((1, 1), 2)) == 2
        assert len(decomps((2, 0), 2)) == 1  # (1,0)+(1,0)
