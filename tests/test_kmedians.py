"""Tests for the static k-Medians postprocessing step (Alg. 2 line 21)."""
import numpy as np
import pytest

from repro.core.kmedians import _l1_dist, kmedians


class TestL1Dist:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_broadcast_formula(self, seed):
        rng = np.random.default_rng(seed)
        X = (rng.random((40, 70)) < 0.3).astype(np.float64)
        C = (rng.random((6, 70)) < 0.5).astype(np.float64)
        expected = np.abs(X[:, None, :] - C[None, :, :]).sum(axis=2)
        assert np.array_equal(_l1_dist(X, C), expected)


class TestKMedians:
    def test_empty(self):
        assert kmedians([], 3) == []

    def test_k_ge_n_gives_singletons_allowed(self):
        labels = kmedians([[1], [2], [3]], 5)
        assert len(labels) == 3
        assert max(labels) <= 2

    def test_identical_points_one_cluster(self):
        labels = kmedians([[1, 2]] * 6, 3, seed=0)
        assert len(set(labels)) == 1

    def test_two_well_separated_blobs(self):
        pts = [[1, 2, 3], [1, 2, 4], [1, 3], [50, 51, 52], [50, 51], [51, 52, 53]]
        labels = kmedians(pts, 2, seed=0)
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_planted_blocks_recovered(self, seed):
        rng = np.random.default_rng(seed)
        pts, truth = [], []
        for b in range(4):
            base = list(range(b * 20, b * 20 + 12))
            for _ in range(8):
                keep = [v for v in base if rng.random() < 0.9]
                pts.append(keep)
                truth.append(b)
        labels = kmedians(pts, 4, seed=seed)
        # same-block points share labels; cross-block differ (check purity)
        from collections import Counter

        purity = 0
        for l in set(labels):
            members = [truth[i] for i in range(len(pts)) if labels[i] == l]
            purity += Counter(members).most_common(1)[0][1]
        assert purity / len(pts) > 0.9

    def test_weights_pull_median(self):
        # one heavy point at {1,2,3}, many light at {10}; k=1 median should
        # follow the heavy mass
        pts = [[1, 2, 3]] + [[10]] * 3
        labels = kmedians(pts, 1, weights=[100, 1, 1, 1], seed=0)
        assert len(set(labels)) == 1

    def test_labels_compacted(self):
        labels = kmedians([[1], [1], [100], [100]], 4, seed=1)
        assert set(labels) == set(range(len(set(labels))))

    def test_deterministic_in_seed(self):
        pts = [[i, i + 1] for i in range(20)]
        assert kmedians(pts, 3, seed=5) == kmedians(pts, 3, seed=5)
