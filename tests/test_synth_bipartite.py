"""Tests for the bipartite graph generators in synth_data."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.spark.stream_df import edges_from_stream, to_spark_stream

from .oracle_frames import edge_frame


class TestBipartiteSBM:
    @pytest.fixture(scope="class")
    def graph(self):
        return sd.bipartite_sbm(k=5, ell=30, n_right=400, r=20, p=0.8, q=0.01, seed=1)

    def test_shapes(self, graph):
        assert graph.n_left == 150
        assert graph.n_right == 400
        assert len(graph.adj) == 150
        assert len(graph.left_clusters) == 5
        assert len(graph.right_clusters) == 5

    def test_left_clusters_partition(self, graph):
        all_left = np.concatenate(graph.left_clusters)
        assert sorted(all_left.tolist()) == list(range(150))

    def test_right_cluster_sizes(self, graph):
        for vc in graph.right_clusters:
            assert len(vc) == 20
            assert len(set(vc.tolist())) == 20
            assert vc.max() < 400

    def test_signal_edges_dominate_in_cluster(self, graph):
        """Members of U_i should hit V_i at ~rate p."""
        for i in range(5):
            vi = set(graph.right_clusters[i].tolist())
            hits = [len(vi & set(graph.adj[u].tolist())) for u in graph.left_clusters[i]]
            assert np.mean(hits) > 0.6 * 20  # p=0.8, r=20

    def test_noise_rate(self, graph):
        """Out-of-cluster edges appear at ~rate q per right vertex."""
        i = 0
        vi = set(graph.right_clusters[i].tolist())
        noise = [len(set(graph.adj[u].tolist()) - vi) for u in graph.left_clusters[i]]
        # expected q * (400 - 20) = 3.8
        assert np.mean(noise) < 12

    def test_determinism(self):
        g1 = sd.bipartite_sbm(k=2, ell=5, n_right=50, r=5, p=0.7, q=0.02, seed=7)
        g2 = sd.bipartite_sbm(k=2, ell=5, n_right=50, r=5, p=0.7, q=0.02, seed=7)
        assert all(np.array_equal(a, b) for a, b in zip(g1.adj, g2.adj))

    def test_adjacency_sorted_unique(self, graph):
        for a in graph.adj:
            assert np.all(np.diff(a) > 0) or len(a) <= 1

    def test_edge_frame_roundtrip(self, graph):
        pdf = edge_frame(graph)
        assert len(pdf) == graph.n_edges
        assert pdf["u"].between(0, 149).all()
        assert pdf["v"].between(0, 399).all()
        assert sorted(pdf.itertuples(index=False, name=None)) == [
            (u, int(v)) for u, a in enumerate(graph.adj) for v in a
        ]

    def test_noise_q_helper(self):
        q = sd.noise_q_for_expected_degree(20, 8000, 30)
        assert q == pytest.approx(20 / 7970)
        assert sd.noise_q_for_expected_degree(1e9, 10, 5) == 1.0


class TestPlantedZipf:
    @pytest.fixture(scope="class")
    def graph(self):
        return sd.planted_zipf_bipartite(
            n_left=300,
            n_right=500,
            k_true=8,
            r=15,
            p=0.8,
            memberships_per_left=1.2,
            background_deg=4.0,
            seed=3,
        )

    def test_shapes(self, graph):
        assert graph.n_left == 300
        assert graph.n_right == 500
        assert len(graph.right_clusters) == 8

    def test_overlapping_left_clusters_allowed(self, graph):
        sizes = [len(c) for c in graph.left_clusters]
        assert sum(sizes) >= max(sizes)  # at least some memberships drawn

    def test_background_skew(self, graph):
        """zipf background concentrates on few right vertices."""
        counts = np.zeros(500)
        for a in graph.adj:
            counts[a] += 1
        top_share = np.sort(counts)[::-1][:25].sum() / max(1, counts.sum())
        assert top_share > 0.15  # top 5% of right vertices get >15% of edges

    def test_degree_zipf_drives_median_down(self):
        g = sd.planted_zipf_bipartite(
            n_left=400, n_right=600, k_true=5, r=10, p=0.7,
            memberships_per_left=0.4, background_deg=1.0,
            degree_zipf=1.2, seed=4,
        )
        med = np.median(g.degrees())
        assert med <= 3  # Book-like: median degree ~1

    def test_determinism(self):
        kw = dict(n_left=50, n_right=100, k_true=3, r=5, p=0.7,
                  memberships_per_left=1.0, background_deg=2.0, seed=9)
        g1, g2 = sd.planted_zipf_bipartite(**kw), sd.planted_zipf_bipartite(**kw)
        assert all(np.array_equal(a, b) for a, b in zip(g1.adj, g2.adj))


class TestSparkLifting:
    def test_to_spark_edges(self, spark):
        g = sd.bipartite_sbm(k=2, ell=10, n_right=60, r=8, p=0.8, q=0.02, seed=0)
        df = edges_from_stream(to_spark_stream(spark, g))
        assert df.count() == g.n_edges
        assert set(df.columns) == {"u", "v"}

    def test_to_spark_stream(self, spark):
        g = sd.bipartite_sbm(k=2, ell=10, n_right=60, r=8, p=0.8, q=0.02, seed=0)
        df = to_spark_stream(spark, g)
        rows = {r["u"]: sorted(r["neighbors"]) for r in df.collect()}
        assert len(rows) == g.n_left
        assert rows[0] == g.adj[0].tolist()

    def test_to_spark_stream_partitioned(self, spark):
        g = sd.bipartite_sbm(k=2, ell=20, n_right=60, r=8, p=0.8, q=0.02, seed=0)
        df = to_spark_stream(spark, g, num_partitions=4)
        assert df.rdd.getNumPartitions() == 4
        assert df.count() == g.n_left
