"""Tests for the baseline algorithms: Asso/basso, the spectral
co-clusterers, static sofa, and the §5.5 random-subgraph reduction."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.baselines.asso import (
    DEFAULT_TAU_GRID,
    MemoryBudgetExceeded,
    asso,
    asso_best_tau,
    estimate_workspace_bytes,
)
from repro.baselines.reduction import (
    reservoir_sample_indices,
    rs_dhillon,
    rs_zha,
)
from repro.baselines.spectral import (
    dhillon_cocluster,
    labels_to_right_clusters,
    zha_cocluster,
)
from repro.baselines.static_sofa import static_sofa
from repro.core.bmf import reconstruction_metrics
from repro.core.second_pass import assign_left_bmf_fast
from repro.eval.quality import jaccard_quality, labels_to_clusters


@pytest.fixture(scope="module")
def planted():
    n, k, r, ell, p = 300, 4, 15, 30, 0.9
    q = sd.noise_q_for_expected_degree(2, n, r)
    return sd.bipartite_sbm(k=k, ell=ell, n_right=n, r=r, p=p, q=q, seed=8)


class TestDense:
    def test_workspace_estimate_flip_invariant(self):
        assert estimate_workspace_bytes(100, 50) == estimate_workspace_bytes(50, 100)


class TestAsso:
    def test_block_diagonal_exact(self):
        """Two clean rectangles -> Asso recovers both factors exactly."""
        adj = [np.arange(0, 5)] * 6 + [np.arange(10, 15)] * 6
        res = asso(adj, 20, 2, tau=0.8)
        rights = {tuple(r.tolist()) for r in res.right if len(r)}
        assert rights == {tuple(range(0, 5)), tuple(range(10, 15))}
        mems = res.memberships
        mems += [[] for _ in range(len(adj) - len(mems))]
        m = reconstruction_metrics(adj, mems, [r.tolist() for r in res.right])
        assert m.relative_hamming_gain == pytest.approx(1.0)

    def test_noisy_planted_good_gain(self, planted):
        res = asso_best_tau(planted.adj, planted.n_right, 4)
        mems = res.memberships
        mems += [[] for _ in range(len(planted.adj) - len(mems))]
        m = reconstruction_metrics(
            planted.adj, mems, [r.tolist() for r in res.right]
        )
        assert m.relative_hamming_gain > 0.4
        assert m.recall > 0.5

    def test_flip_when_wide(self):
        """|U| > |V| input is transposed internally; factors come back in
        the original orientation."""
        adj = [np.array([0, 1])] * 30  # 30 x 3 matrix
        res = asso(adj, 3, 1, tau=0.5)
        assert all(r.max(initial=-1) < 3 for r in res.right)
        assert all(l.max(initial=-1) < 30 for l in res.left)

    def test_budget_enforced(self):
        adj = [np.array([0])] * 10
        with pytest.raises(MemoryBudgetExceeded):
            asso(adj, 10_000_000, 2, budget_bytes=1024)

    def test_empty_rounds_when_no_positive_gain(self):
        adj = [np.array([], dtype=np.int64)] * 4
        res = asso(adj, 5, 3, tau=0.5)
        assert all(len(r) == 0 for r in res.right)

    def test_tau_grid_default(self):
        assert DEFAULT_TAU_GRID == (0.2, 0.4, 0.6, 0.8)


class TestSpectral:
    def _block_matrix(self, rng):
        B = np.zeros((60, 40), dtype=np.float32)
        for b in range(2):
            rows = slice(b * 30, (b + 1) * 30)
            cols = slice(b * 20, (b + 1) * 20)
            B[rows, cols] = (rng.random((30, 20)) < 0.8).astype(np.float32)
        return B

    def test_dhillon_separates_blocks(self):
        rng = np.random.default_rng(0)
        B = self._block_matrix(rng)
        res = dhillon_cocluster(B, 2, seed=0)
        # rows of the same block share a label
        assert len(set(res.row_labels[:30])) == 1
        assert len(set(res.row_labels[30:])) == 1
        assert res.row_labels[0] != res.row_labels[30]
        # columns align with their block's rows
        assert res.col_labels[0] == res.row_labels[0]
        assert res.col_labels[39] == res.row_labels[59]

    def test_zha_separates_blocks(self):
        rng = np.random.default_rng(1)
        B = self._block_matrix(rng)
        res = zha_cocluster(B, 2, seed=0)
        assert res.row_labels[0] != res.row_labels[30]

    def test_workspace_positive(self):
        B = np.ones((10, 8), dtype=np.float32)
        assert dhillon_cocluster(B, 2).workspace_bytes > 0

    def test_labels_to_right_clusters(self):
        out = labels_to_right_clusters(np.array([0, 1, 0]), [10, 20, 30], 2)
        assert out == [[10, 30], [20]]


class TestStaticSofa:
    def test_recovers_planted(self, planted):
        res = static_sofa(planted.adj, planted.n_right, 4, theta=0.5, seed=0)
        q = jaccard_quality(planted.right_clusters, res.right_clusters)
        assert q > 0.9, f"quality {q}"

    def test_left_labels_cover_all(self, planted):
        res = static_sofa(planted.adj, planted.n_right, 4)
        assert len(res.left_labels) == planted.n_left
        lq = jaccard_quality(
            planted.left_clusters, labels_to_clusters(res.left_labels)
        )
        assert lq > 0.9

    def test_workspace_larger_than_sofa_state(self, planted):
        from repro.core.sofa import SofaParams, sofa_pass

        stat = static_sofa(planted.adj, planted.n_right, 4)
        stream = [a.tolist() for a in planted.adj]
        dyn = sofa_pass(stream, SofaParams(k=4, c_max=30, mg_capacity=60, seed=0))
        assert stat.workspace_bytes > dyn.state_bytes()


class TestReservoir:
    def test_small_stream_all_kept(self):
        assert reservoir_sample_indices(5, 10).tolist() == [0, 1, 2, 3, 4]

    def test_sample_size_and_range(self):
        s = reservoir_sample_indices(1000, 50, seed=1)
        assert len(s) == 50
        assert len(set(s.tolist())) == 50
        assert s.min() >= 0 and s.max() < 1000

    def test_approximately_uniform(self):
        hits = np.zeros(100)
        for seed in range(200):
            hits[reservoir_sample_indices(100, 20, seed=seed)] += 1
        # each index expected 40 times; allow generous spread
        assert hits.min() > 10
        assert hits.max() < 80

    def test_deterministic(self):
        a = reservoir_sample_indices(500, 30, seed=7)
        b = reservoir_sample_indices(500, 30, seed=7)
        assert np.array_equal(a, b)


class TestReduction:
    def test_rs_dhillon_quality_on_planted(self, planted):
        res = rs_dhillon(planted.adj, 4, m_tilde=80, n_tilde=80, seed=0)
        q = jaccard_quality(planted.right_clusters, res.right_clusters)
        assert q > 0.4, f"quality {q}"

    def test_all_neighbor_vertices_clustered(self, planted):
        res = rs_dhillon(planted.adj, 4, m_tilde=60, n_tilde=40, seed=0)
        covered = set()
        for c in res.right_clusters:
            covered |= set(c.tolist())
        vprime = set()
        for u in res.sampled_left:
            vprime |= set(planted.adj[int(u)].tolist())
        assert vprime <= covered

    def test_rs_zha_runs(self, planted):
        res = rs_zha(planted.adj, 4, m_tilde=60, n_tilde=60, seed=0)
        assert len(res.right_clusters) == 4

    def test_reduction_plus_second_pass_end_to_end(self, planted):
        res = rs_dhillon(planted.adj, 4, m_tilde=100, n_tilde=80, seed=0)
        clusters = [c.tolist() for c in res.right_clusters]
        bmf = assign_left_bmf_fast([a.tolist() for a in planted.adj], clusters)
        m = reconstruction_metrics(planted.adj, bmf.memberships, clusters)
        assert m.recall > 0.2  # weak but nonzero signal, as in the paper
