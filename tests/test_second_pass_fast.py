"""Exact-equivalence tests: fast inverted-index §4.2 cover vs the
reference implementation (they must agree bit-for-bit), and the cover
tied to the reconstruction metrics."""
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import synth_data as sd
from repro.core.bmf import reconstruction_metrics
from repro.core.second_pass import _BLOCK_ROWS, assign_left_bmf_fast
from repro.core.sofa import sofa_pass
from repro.core.thresholds import LINE_SEARCH_THETAS
from repro.eval.datasets import DATASET_NAMES, K_GRID, load_dataset
from repro.eval.harness import sofa_params_for

from .second_pass_reference import assign_left_bmf


def assert_same(fast, ref):
    assert fast.memberships == ref.memberships
    assert fast.choice_scores == ref.choice_scores
    assert np.array_equal(fast.cluster_scores, ref.cluster_scores)


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
        assert_same(fast, ref)

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

    def test_empty_clusters_rows_and_no_clusters(self):
        stream = [[], [1, 2, 3], [], [3, 4]]
        clusters = [[], [1, 2, 3], [], [3, 4, 5]]
        fast = assign_left_bmf_fast(stream, clusters)
        assert_same(fast, assign_left_bmf(stream, clusters))
        assert fast.memberships == [[], [1], [], [3]]
        assert fast.choice_scores == [[], [3.0], [], [1.0]]
        none = assign_left_bmf_fast(stream, [])
        assert_same(none, assign_left_bmf(stream, []))
        assert none.memberships == [[]] * 4 and none.cluster_scores.shape == (0,)

    def test_duplicate_ids_in_rows_and_clusters(self):
        stream = [[1, 1, 2, 3, 3, 3], [5, 5], [7, 1, 7]]
        clusters = [[1, 2, 2, 3], [3, 3, 5, 6], [5, 5], [7, 7, 1]]
        ref = assign_left_bmf(stream, clusters)
        assert_same(assign_left_bmf_fast(stream, clusters), ref)

    def test_right_ids_beyond_every_cluster(self):
        stream = [[1, 2, 900, 10**12], [10**12], [-4, 1], []]
        clusters = [[1, 2, 3], [2, 50]]
        ref = assign_left_bmf(stream, clusters)
        assert_same(assign_left_bmf_fast(stream, clusters), ref)
        assert ref.memberships == [[0], [], [], []]

    def test_numpy_int_array_input(self):
        rng = np.random.default_rng(5)
        stream, clusters = random_instance(rng)
        ref = assign_left_bmf(stream, clusters)
        fast = assign_left_bmf_fast(
            [np.asarray(r, dtype=np.int64) for r in stream],
            [np.asarray(c, dtype=np.int32) for c in clusters],
        )
        assert_same(fast, ref)
        assert all(type(c) is int for mem in fast.memberships for c in mem)
        assert all(type(s) is float for scs in fast.choice_scores for s in scs)

    def test_block_mixes_skipped_and_multi_pick_rows(self):
        clusters = [[0, 1, 2, 3], [4, 5, 6, 7], [20, 21, 22, 23, 24, 25]]
        # row kinds: no overlap, too little overlap, one pick, two picks
        kinds = [[30, 31], [0, 20], [0, 1, 2], [0, 1, 2, 4, 5, 6, 40]]
        stream = [kinds[i % 4] for i in range(2 * _BLOCK_ROWS + 7)]
        ref = assign_left_bmf(stream, clusters)
        fast = assign_left_bmf_fast(iter(stream), clusters)
        assert_same(fast, ref)
        assert fast.memberships[:4] == [[], [], [0], [0, 1]]

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


@lru_cache(maxsize=None)
def first_pass(dataset: str, k: int):
    """The stand-in's BMF first pass at k (shared by the tests below)."""
    g = load_dataset(dataset)
    return sofa_pass([a.tolist() for a in g.adj], sofa_params_for(g, k), m_hint=g.n_left)


@pytest.mark.parametrize("dataset", DATASET_NAMES)
def test_standin_line_search_covers_match_reference(dataset):
    """The line search's covers on a stand-in: the BMF first pass's
    candidate clusters at every grid k and line-search θ, over every
    ``n/48``-th row (rows are covered independently, so a sample is a
    fair check; the set reference is too slow for whole streams)."""
    g = load_dataset(dataset)
    rows = [a.tolist() for a in g.adj[::g.n_left // 48]]
    most_picks = 0
    for k in K_GRID:
        res = first_pass(dataset, k)
        for theta in LINE_SEARCH_THETAS:
            clusters = [gr.right_cluster(theta).tolist() for gr in res.groups]
            fast = assign_left_bmf_fast(rows, clusters)
            assert_same(fast, assign_left_bmf(rows, clusters))
            most_picks = max(most_picks, *map(len, fast.memberships))
    assert most_picks >= 2


@pytest.mark.parametrize("k", K_GRID)
@pytest.mark.parametrize("dataset", DATASET_NAMES)
def test_unpruned_cover_scores_sum_to_tp_minus_fp(dataset, k):
    """The §4.2 score of a pick is the change it makes to tp − fp of the
    row, so over an unpruned cover the choice scores of all rows add up
    to the reconstruction metrics' tp − fp, at every line-search θ."""
    g = load_dataset(dataset)
    res = first_pass(dataset, k)
    for theta in LINE_SEARCH_THETAS:
        clusters = [gr.right_cluster(theta).tolist() for gr in res.groups]
        cover = assign_left_bmf_fast(g.adj, clusters)
        met = reconstruction_metrics(g.adj, cover.memberships, clusters)
        assert sum(map(sum, cover.choice_scores)) == met.true_positives - met.false_positives
        assert met.true_positives > 0
