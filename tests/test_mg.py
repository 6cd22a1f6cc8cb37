"""Unit tests for the mergeable Misra–Gries sketch (paper §2.3)."""
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mg import MisraGries


def exact_counts(stream):
    out = {}
    for x in stream:
        out[x] = out.get(x, 0) + 1
    return out


class TestBasics:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            MisraGries(0)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            MisraGries(4).add(1, weight=0)

    def test_single_item(self):
        mg = MisraGries(4)
        mg.add(7)
        assert mg.estimate(7) == 1
        assert mg.total == 1

    def test_exact_when_under_capacity(self):
        mg = MisraGries(10)
        stream = [1, 2, 3, 1, 2, 1]
        mg.add_all(stream)
        for item, f in exact_counts(stream).items():
            assert mg.estimate(item) == f

    def test_eviction_keeps_heavy_item(self):
        mg = MisraGries(2)
        stream = [1] * 100 + [2, 3, 4, 5, 6]
        mg.add_all(stream)
        # heavy item must survive: estimate >= f - N/(cap+1)
        assert mg.estimate(1) >= 100 - mg.error_bound()

    def test_estimate_never_exceeds_true(self):
        mg = MisraGries(3)
        stream = [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 1]
        mg.add_all(stream)
        for item, f in exact_counts(stream).items():
            assert mg.estimate(item) <= f

    def test_len_and_repr(self):
        mg = MisraGries(4)
        mg.add_all([1, 2, 3])
        assert len(mg) == 3
        assert "MisraGries" in repr(mg)

    def test_weighted_add(self):
        mg = MisraGries(4)
        mg.add(1, weight=5.0)
        mg.add(2, weight=2.5)
        assert mg.estimate(1) == 5.0
        assert mg.total == 7.5

    def test_items_at_least(self):
        mg = MisraGries(10)
        mg.add_all([1, 1, 1, 2, 2, 3])
        assert mg.items_at_least(2) == [(1, 3), (2, 2)]

    def test_copy_is_independent(self):
        mg = MisraGries(4)
        mg.add_all([1, 2])
        cp = mg.copy()
        cp.add(3)
        assert mg.estimate(3) == 0
        assert cp.estimate(3) == 1


class TestGuarantee:
    """f_a - N/(cap+1) <= estimate <= f_a, the Misra–Gries invariant."""

    @given(
        st.lists(st.integers(0, 20), min_size=1, max_size=300),
        st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_error_bound_random_streams(self, stream, cap):
        mg = MisraGries(cap)
        mg.add_all(stream)
        exact = exact_counts(stream)
        bound = mg.error_bound()
        for item, f in exact.items():
            est = mg.estimate(item)
            assert est <= f + 1e-9
            assert est >= f - bound - 1e-9

    @given(st.lists(st.integers(0, 10), max_size=100), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_total_equals_stream_weight(self, stream, cap):
        mg = MisraGries(cap)
        mg.add_all(stream)
        assert mg.total == pytest.approx(len(stream))

    def test_heavy_hitters_guarantee(self):
        # classic eps-heavy-hitter statement with cap = 2/eps counters
        rng = np.random.default_rng(0)
        n = 2000
        heavy = [1] * 500 + [2] * 400
        tail = rng.integers(10, 1000, n - len(heavy)).tolist()
        stream = heavy + tail
        rng.shuffle(stream)
        eps = 0.05
        mg = MisraGries(int(2 / eps))
        mg.add_all(stream)
        out = {k for k, _ in mg.items_at_least(eps * len(stream) / 2)}
        assert 1 in out and 2 in out


class TestMerge:
    @given(
        st.lists(st.integers(0, 15), max_size=150),
        st.lists(st.integers(0, 15), max_size=150),
        st.integers(2, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_guarantee_matches_concat(self, s1, s2, cap):
        """Agarwal et al.: merged sketch has the concatenated-stream
        guarantee f_a - N/(cap+1) <= est <= f_a."""
        a, b = MisraGries(cap), MisraGries(cap)
        a.add_all(s1)
        b.add_all(s2)
        a.merge(b)
        exact = exact_counts(s1 + s2)
        n = len(s1) + len(s2)
        assert a.total == pytest.approx(n)
        for item, f in exact.items():
            est = a.estimate(item)
            assert est <= f + 1e-9
            assert est >= f - n / (cap + 1) - 1e-9
        assert len(a) <= cap

    def test_merge_under_capacity_is_exact_sum(self):
        a, b = MisraGries(10), MisraGries(10)
        a.add_all([1, 1, 2])
        b.add_all([2, 3])
        a.merge(b)
        assert a.estimate(1) == 2
        assert a.estimate(2) == 2
        assert a.estimate(3) == 1

    def test_merge_does_not_mutate_other(self):
        a, b = MisraGries(4), MisraGries(4)
        a.add_all([1])
        b.add_all([2, 2])
        a.merge(b)
        assert b.estimate(2) == 2
        assert b.total == 2

    def test_merge_chain_associativity_of_guarantee(self):
        streams = [[i] * (10 - i) for i in range(5)]
        cap = 3
        acc = MisraGries(cap)
        for s in streams:
            part = MisraGries(cap)
            part.add_all(s)
            acc.merge(part)
        flat = [x for s in streams for x in s]
        exact = exact_counts(flat)
        for item, f in exact.items():
            assert acc.estimate(item) >= f - len(flat) / (cap + 1) - 1e-9
            assert acc.estimate(item) <= f + 1e-9


class TestSerialization:
    def test_roundtrip(self):
        mg = MisraGries(5)
        mg.add_all([1, 1, 2, 3])
        back = pickle.loads(pickle.dumps(mg))
        assert back.capacity == mg.capacity
        assert back.counters == mg.counters
        assert back.total == mg.total
