"""Exact-equivalence tests: fast inverted-index §4.2 cover vs the
reference implementation (they must agree bit-for-bit)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import synth_data as sd
from repro.core.second_pass import assign_left_bmf, assign_left_bmf_fast


def random_instance(rng, m=40, n=60, k=6):
    stream = [
        sorted(set(rng.integers(0, n, rng.integers(0, 12)).tolist()))
        for _ in range(m)
    ]
    clusters = [
        sorted(set(rng.integers(0, n, rng.integers(0, 10)).tolist()))
        for _ in range(k)
    ]
    return stream, clusters


class TestBmfEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(100 + seed)
        stream, clusters = random_instance(rng)
        fast = assign_left_bmf_fast(stream, clusters)
        ref = assign_left_bmf(stream, clusters)
        assert fast.memberships == ref.memberships
        assert fast.choice_scores == ref.choice_scores
        assert np.allclose(fast.cluster_scores, ref.cluster_scores)

    def test_overlapping_clusters(self):
        stream = [[1, 2, 3, 4, 5, 6]]
        clusters = [[1, 2, 3, 4], [3, 4, 5, 6], [5, 6, 7]]
        fast = assign_left_bmf_fast(stream, clusters)
        ref = assign_left_bmf(stream, clusters)
        assert fast.memberships == ref.memberships

    def test_duplicate_clusters_tie_break(self):
        stream = [[1, 2]]
        clusters = [[1, 2], [1, 2]]
        fast = assign_left_bmf_fast(stream, clusters)
        ref = assign_left_bmf(stream, clusters)
        assert fast.memberships == ref.memberships == [[0]]

    def test_empty_stream_and_clusters(self):
        fast = assign_left_bmf_fast([], [])
        assert fast.memberships == []
        fast2 = assign_left_bmf_fast([[1]], [])
        assert fast2.memberships == [[]]

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_instances(self, seed):
        rng = np.random.default_rng(seed)
        stream, clusters = random_instance(rng, m=15, n=25, k=4)
        fast = assign_left_bmf_fast(stream, clusters)
        ref = assign_left_bmf(stream, clusters)
        assert fast.memberships == ref.memberships
        assert fast.choice_scores == ref.choice_scores

    def test_planted_dataset(self):
        g = sd.planted_zipf_bipartite(
            n_left=200, n_right=300, k_true=6, r=12, p=0.8,
            memberships_per_left=1.3, background_deg=2.0, seed=7,
        )
        stream = [a.tolist() for a in g.adj]
        clusters = [c.tolist() for c in g.right_clusters]
        fast = assign_left_bmf_fast(stream, clusters)
        ref = assign_left_bmf(stream, clusters)
        assert fast.memberships == ref.memberships
        assert np.allclose(fast.cluster_scores, ref.cluster_scores)
