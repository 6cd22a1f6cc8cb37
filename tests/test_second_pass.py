"""Tests for the second-pass algorithms (§4.1 biclustering, §4.2 BMF)."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.core.second_pass import (
    assign_left_biclustering,
    assign_left_bmf_fast,
    prune_to_top_k,
)
from repro.eval.datasets import DATASET_NAMES, load_dataset
from repro.eval.quality import jaccard_quality, labels_to_clusters

from . import second_pass_reference as reference
from .second_pass_reference import assign_left_bmf, score


class TestScore:
    def test_no_prior_cover(self):
        # score(A | X, {}) = |X ∩ A| - |A \ X|
        assert score({1, 2, 3}, {2, 3, 4}, set()) == 2 - 1

    def test_already_covered_not_rewarded(self):
        assert score({1, 2}, {1, 2}, {1}) == 1  # only 2 is new

    def test_previously_overcovered_not_penalized(self):
        # 9 is outside X but already in Y -> no fresh penalty
        assert score({1, 9}, {1, 2}, {9}) == 1

    def test_pure_overcover_negative(self):
        assert score({7, 8}, {1, 2}, set()) == -2

    def test_empty_candidate(self):
        assert score(set(), {1, 2}, set()) == 0

    def test_disjoint_from_everything(self):
        assert score({5}, set(), set()) == -1


class TestBiclusteringAssignment:
    def test_perfect_match(self):
        clusters = [[1, 2, 3], [10, 11, 12]]
        stream = [[1, 2, 3], [10, 11], [2, 3], [11, 12]]
        labels = assign_left_biclustering(stream, clusters)
        assert labels == [0, 1, 0, 1]

    def test_relative_overlap_wins(self):
        # u overlaps cluster0 2/10 and cluster1 1/2 -> cluster1 wins
        clusters = [list(range(10)), [100, 101]]
        labels = assign_left_biclustering([[0, 1, 100]], clusters)
        assert labels == [1]

    def test_empty_cluster_never_wins(self):
        clusters = [[], [5, 6]]
        labels = assign_left_biclustering([[5]], clusters)
        assert labels == [1]

    def test_no_overlap_still_assigned(self):
        labels = assign_left_biclustering([[999]], [[1], [2]])
        assert labels[0] in (0, 1)

    def test_empty_stream(self):
        assert assign_left_biclustering([], [[1]]) == []

    def test_no_clusters(self):
        assert assign_left_biclustering([[1]], []) == []

    def test_recovers_planted_left_clusters(self):
        g = sd.bipartite_sbm(k=4, ell=30, n_right=400, r=20, p=0.9,
                             q=sd.noise_q_for_expected_degree(3, 400, 20), seed=0)
        labels = assign_left_biclustering(
            [a.tolist() for a in g.adj],
            [c.tolist() for c in g.right_clusters],  # oracle right clusters
        )
        got = labels_to_clusters(labels)
        assert jaccard_quality(g.left_clusters, got) > 0.95


@pytest.mark.parametrize("dataset", DATASET_NAMES)
def test_standin_biclustering_matches_reference(dataset):
    """The array §4.1 assignment equals the set-based oracle on a whole
    stand-in stream: over its planted right clusters with an empty
    cluster inserted first and in the middle, over empty clusters only
    (every label 0), and over no clusters (``[]``)."""
    g = load_dataset(dataset)
    stream = [a.tolist() for a in g.adj]
    planted = [c.tolist() for c in g.right_clusters]
    half = len(planted) // 2
    for clusters in ([[]] + planted[:half] + [[]] + planted[half:], [[]] * 3, []):
        got = assign_left_biclustering(stream, clusters)
        assert got == reference.assign_left_biclustering(stream, clusters)
    assert assign_left_biclustering(stream, [[]] * 3) == [0] * g.n_left
    labels = assign_left_biclustering(stream, [[]] + planted)
    assert 0 not in labels and len(set(labels)) > 1


class TestBmfAssignment:
    """§4.2 cover behaviour, on the set-based oracle; the subclass below
    runs every test again on the array cover in src/."""

    cover = staticmethod(assign_left_bmf)

    def test_single_cluster_covers(self):
        res = self.cover([[1, 2, 3]], [[1, 2, 3]])
        assert res.memberships == [[0]]
        assert res.cluster_scores[0] == 3

    def test_multi_membership(self):
        res = self.cover([[1, 2, 10, 11]], [[1, 2], [10, 11]])
        assert res.memberships == [[0, 1]]

    def test_stops_on_nonpositive_score(self):
        # cluster overcovers more than it covers -> skipped
        res = self.cover([[1]], [[1, 2, 3]])
        assert res.memberships == [[]]

    def test_each_cluster_used_at_most_once_per_vertex(self):
        res = self.cover([[1, 2, 3, 4]], [[1, 2], [3, 4]])
        assert sorted(res.memberships[0]) == [0, 1]
        assert len(res.memberships[0]) == len(set(res.memberships[0]))

    def test_overcover_tolerated_when_net_positive(self):
        # covers 3 of X, overcovers 1 -> net +2, should be taken
        res = self.cover([[1, 2, 3]], [[1, 2, 3, 99]])
        assert res.memberships == [[0]]

    def test_scores_accumulate_across_vertices(self):
        res = self.cover([[1, 2]] * 5, [[1, 2]])
        assert res.cluster_scores[0] == 10

    def test_greedy_order_prefers_higher_score(self):
        # big cluster covers more first; then small adds the rest
        stream = [[1, 2, 3, 4, 10]]
        res = self.cover(stream, [[10], [1, 2, 3, 4]])
        assert res.memberships[0] == [0, 1]  # both taken, order-insensitive check

    def test_empty_stream(self):
        res = self.cover([], [[1]])
        assert res.memberships == []
        assert res.cluster_scores.tolist() == [0.0]

    def test_planted_overlapping_memberships(self):
        g = sd.planted_zipf_bipartite(
            n_left=200, n_right=300, k_true=5, r=15, p=0.9,
            memberships_per_left=1.5, background_deg=1.0, seed=2,
        )
        res = self.cover(
            [a.tolist() for a in g.adj],
            [c.tolist() for c in g.right_clusters],
        )
        got = [set(m) for m in res.memberships]
        want = [set() for _ in range(g.n_left)]
        for i, uc in enumerate(g.left_clusters):
            for u in uc:
                want[int(u)].add(i)
        agree = sum(1 for a, b in zip(got, want) if a == b)
        assert agree / g.n_left > 0.7


class TestBmfAssignmentFast(TestBmfAssignment):
    cover = staticmethod(assign_left_bmf_fast)


class TestPruneTopK:
    def test_keeps_best_k(self):
        clusters = [[1], [2], [3]]
        scores = np.asarray([5.0, 1.0, 3.0])
        kept, idx = prune_to_top_k(clusters, scores, 2)
        assert idx == [0, 2]
        assert [c.tolist() for c in kept] == [[1], [3]]

    def test_k_larger_than_available(self):
        kept, idx = prune_to_top_k([[1]], np.asarray([1.0]), 5)
        assert idx == [0]

    def test_stable_on_ties(self):
        kept, idx = prune_to_top_k([[1], [2]], np.asarray([1.0, 1.0]), 1)
        assert idx == [0]
