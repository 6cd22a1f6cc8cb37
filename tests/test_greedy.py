"""Tests for Algorithm 1 (greedy streaming biclustering, §3.1)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import synth_data as sd
from repro.core.greedy import greedy_cluster
from repro.core.mg import MisraGries
from repro.eval.quality import jaccard_quality

from .sofa_reference import hamming


def greedy_reference(stream, *, alpha, theta, mg_capacity):
    """Algorithm 1 as written, on sets: the first center at the smallest
    Hamming distance takes the vertex unless that distance exceeds
    alpha, in which case the vertex opens a center. Returns the centers,
    n_c, the sketches and the thresholded right clusters."""
    centers, sketches, n_assigned = [], [], []
    for nbrs in stream:
        ds = [hamming(nbrs, c) for c in centers]
        sk = MisraGries(mg_capacity)
        sk.add_all(list(nbrs))
        if not ds or min(ds) > alpha:
            centers.append(list(nbrs))
            sketches.append(sk)
            n_assigned.append(1)
        else:
            best = ds.index(min(ds))
            sketches[best].merge(sk)
            n_assigned[best] += 1
    right = [[v for v, _ in sk.items_at_least(theta * n)] for sk, n in zip(sketches, n_assigned)]
    return centers, n_assigned, sketches, right


class TestMechanics:
    def test_empty_stream(self):
        res = greedy_cluster([], alpha=1.0, theta=0.5, mg_capacity=8)
        assert res.centers == []
        assert res.right_clusters == []

    def test_single_vertex_opens_center(self):
        res = greedy_cluster([[1, 2, 3]], alpha=1.0, theta=0.5, mg_capacity=8)
        assert len(res.centers) == 1
        assert res.n_assigned == [1]
        assert res.right_clusters[0].tolist() == [1, 2, 3]

    def test_identical_vertices_share_center(self):
        stream = [[1, 2, 3]] * 5
        res = greedy_cluster(stream, alpha=1.0, theta=0.5, mg_capacity=8)
        assert len(res.centers) == 1
        assert res.n_assigned == [5]

    def test_distant_vertices_open_new_centers(self):
        stream = [[1, 2, 3], [10, 11, 12], [20, 21, 22]]
        res = greedy_cluster(stream, alpha=2.0, theta=0.5, mg_capacity=8)
        assert len(res.centers) == 3

    def test_threshold_filters_noise(self):
        # 10 vertices share {1,2}; each also brings one unique noise id
        stream = [[1, 2, 100 + i] for i in range(10)]
        res = greedy_cluster(stream, alpha=4.0, theta=0.6, mg_capacity=50)
        assert len(res.centers) == 1
        assert res.right_clusters[0].tolist() == [1, 2]

    def test_alpha_zero_means_one_center_per_distinct_point(self):
        stream = [[1], [2], [1], [3]]
        res = greedy_cluster(stream, alpha=0.0, theta=0.5, mg_capacity=4)
        assert len(res.centers) == 3

    def test_counts_include_center_itself(self):
        stream = [[1, 2], [1, 2], [1, 3]]
        res = greedy_cluster(stream, alpha=3.0, theta=0.1, mg_capacity=8)
        assert sum(res.n_assigned) == 3


class TestMatchesSetReference:
    """A small id alphabet makes distance ties (between centers, and at
    exactly alpha) common; rows may repeat ids and be empty."""

    @given(
        st.lists(st.lists(st.integers(0, 9), max_size=7), max_size=40),
        st.sampled_from([0.0, 1.0, 2.0, 2.5, 4.0]),
        st.sampled_from([0.3, 0.5, 0.8]),
        st.sampled_from([2, 5, 50]),
    )
    @settings(max_examples=200, deadline=None)
    def test_small_alphabet(self, stream, alpha, theta, cap):
        self._check(stream, alpha, theta, cap)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("alpha", [1.0, 3.0, 5.0])
    def test_long_random_stream(self, seed, alpha):
        rng = np.random.default_rng(seed)
        stream = [rng.integers(0, 12, rng.integers(0, 9)).tolist() for _ in range(300)]
        self._check(stream, alpha, 0.5, 6)

    @staticmethod
    def _check(stream, alpha, theta, cap):
        """Same centers, n_c, sketch counters (in order) and totals, and
        right clusters."""
        res = greedy_cluster(stream, alpha=alpha, theta=theta, mg_capacity=cap)
        centers, n_assigned, sketches, right = greedy_reference(
            stream, alpha=alpha, theta=theta, mg_capacity=cap)
        assert [c.tolist() for c in res.centers] == centers
        assert res.n_assigned == n_assigned
        assert [(list(s.counters.items()), s.total) for s in res.sketches] == \
            [(list(s.counters.items()), s.total) for s in sketches]
        assert [c.tolist() for c in res.right_clusters] == right


class TestTheorem1Regime:
    """Integration: under the §7 parameter regime (p>=1/2, q ~ ps/n,
    |V_i| and |U_i| = Ω(log n), well-separated V_i) Algorithm 1 with
    alpha = Θ(s) and theta = 0.75 p recovers the planted right clusters
    exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_right_cluster_recovery(self, seed):
        n, k, r, ell, p = 600, 4, 25, 40, 0.9
        q = 0.2 * p * r / n  # q = K1 * p * s / n with K1 = 0.2
        g = sd.bipartite_sbm(k=k, ell=ell, n_right=n, r=r, p=p, q=q, seed=seed)
        res = greedy_cluster(
            (a.tolist() for a in g.adj),
            alpha=1.2 * r,  # between intra (~2rp(1-p)+2nq) and inter (~2rp) dists
            theta=0.75 * p,
            mg_capacity=4 * r,
        )
        assert len(res.centers) == k
        got = {tuple(c.tolist()) for c in res.right_clusters}
        want = {tuple(c.tolist()) for c in g.right_clusters}
        assert got == want

    def test_quality_degrades_gracefully_with_noise(self):
        n, k, r, ell, p = 600, 4, 25, 40, 0.9
        g = sd.bipartite_sbm(k=k, ell=ell, n_right=n, r=r, p=p, q=0.05, seed=0)
        res = greedy_cluster(
            (a.tolist() for a in g.adj),
            alpha=2.0 * r,
            theta=0.6 * p,
            mg_capacity=6 * r,
        )
        q = jaccard_quality(g.right_clusters, res.right_clusters)
        assert q > 0.5  # noisy but still informative

    def test_space_is_O_ks(self):
        """Prop. 2 upper side: state stays O(k * s) entries in-regime."""
        n, k, r, ell, p = 600, 4, 25, 40, 0.9
        q = 0.2 * p * r / n
        g = sd.bipartite_sbm(k=k, ell=ell, n_right=n, r=r, p=p, q=q, seed=3)
        cap = 4 * r
        res = greedy_cluster(
            (a.tolist() for a in g.adj), alpha=1.2 * r, theta=0.7, mg_capacity=cap
        )
        total_counters = sum(len(sk.counters) for sk in res.sketches)
        assert total_counters <= len(res.centers) * cap
        assert len(res.centers) == k
