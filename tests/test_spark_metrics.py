"""Tests for Spark reconstruction metrics vs DuckDB oracle and the
sequential reference (§6.2 measures)."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd
from repro.core.bmf import reconstruction_metrics
from .oracle import assert_equivalent
from repro.spark.metrics_df import (
    SparkReconstruction,
    metrics_summary_df,
    reconstructed_cells_df,
)
from repro.spark.second_pass_df import assign_left_bmf_df, clusters_to_df
from repro.spark.stream_df import edges_from_stream, to_spark_stream

from .oracle_frames import edge_frame
from .second_pass_reference import assign_left_bmf


@pytest.fixture(scope="module")
def graph():
    return sd.planted_zipf_bipartite(
        n_left=120, n_right=200, k_true=4, r=12, p=0.85,
        memberships_per_left=1.2, background_deg=2.0, seed=21,
    )


@pytest.fixture(scope="module")
def clusters(graph):
    return [c.tolist() for c in graph.right_clusters]


@pytest.fixture(scope="module")
def dfs(spark, graph, clusters):
    stream = to_spark_stream(spark, graph, num_partitions=3).cache()
    edges = edges_from_stream(stream).cache()
    cdf = clusters_to_df(spark, clusters).cache()
    mdf = assign_left_bmf_df(stream, clusters).cache()
    mdf.count()
    return stream, edges, cdf, mdf


class TestSparkReconstructionDataclass:
    def test_perfect(self):
        r = SparkReconstruction(ones=10, true_positives=10, false_positives=0)
        assert r.relative_hamming_gain == 1.0
        assert r.recall == 1.0
        assert r.errors == 0

    def test_empty(self):
        r = SparkReconstruction(ones=0, true_positives=0, false_positives=0)
        assert r.relative_hamming_gain == 0.0
        assert r.recall == 0.0

    def test_errors_formula(self):
        r = SparkReconstruction(ones=10, true_positives=6, false_positives=3)
        assert r.errors == 7
        assert r.relative_hamming_gain == pytest.approx(0.3)
        assert r.recall == pytest.approx(0.6)


class TestAgainstSequential:
    def test_counts_match_reference(self, graph, clusters, dfs):
        _, edges, cdf, mdf = dfs
        row = metrics_summary_df(edges, mdf, cdf).collect()[0]
        got = SparkReconstruction(int(row["ones"]), int(row["tp"]), int(row["fp"]))
        want_assign = assign_left_bmf([a.tolist() for a in graph.adj], clusters)
        want = reconstruction_metrics(graph.adj, want_assign.memberships, clusters)
        assert got.ones == want.ones
        assert got.true_positives == want.true_positives
        assert got.errors == want.errors
        assert got.relative_hamming_gain == pytest.approx(want.relative_hamming_gain)
        assert got.recall == pytest.approx(want.recall)

    def test_edgeless_stream_counts_zero(self, spark):
        """No edges and no memberships: zeros, as the sequential metrics
        give, not the nulls of a sum over no rows."""
        g = sd.BipartiteGraph(2, 3, [np.empty(0, np.int64)] * 2)
        clusters = [[0, 1]]
        stream = to_spark_stream(spark, g)
        mdf = assign_left_bmf_df(stream, clusters)
        row = metrics_summary_df(
            edges_from_stream(stream), mdf, clusters_to_df(spark, clusters)
        ).collect()[0]
        got = SparkReconstruction(int(row["ones"]), int(row["tp"]), int(row["fp"]))
        assert got == reconstruction_metrics(g.adj, [[], []], clusters)


class TestOracle:
    def test_reconstructed_cells_oracle(self, graph, clusters, dfs):
        _, _, cdf, mdf = dfs
        cells = reconstructed_cells_df(mdf, cdf)
        mpdf = mdf.toPandas()
        cpdf = pd.DataFrame(
            [(i, v) for i, vc in enumerate(clusters) for v in vc],
            columns=["cluster", "v"],
        )
        assert_equivalent(
            cells,
            "SELECT DISTINCT m.u AS u, c.v AS v FROM m JOIN c ON m.cluster = c.cluster",
            m=mpdf,
            c=cpdf,
        )

    def test_metrics_summary_oracle(self, graph, clusters, dfs):
        _, edges, cdf, mdf = dfs
        summary = metrics_summary_df(edges, mdf, cdf)
        mpdf = mdf.toPandas()
        cpdf = pd.DataFrame(
            [(i, v) for i, vc in enumerate(clusters) for v in vc],
            columns=["cluster", "v"],
        )
        sql = """
            WITH cells AS (
                SELECT DISTINCT m.u AS u, c.v AS v
                FROM m JOIN c ON m.cluster = c.cluster
            ), b AS (SELECT DISTINCT u, v FROM e)
            SELECT
                (SELECT count(*) FROM b) AS ones,
                (SELECT count(*) FROM b JOIN cells USING (u, v)) AS tp,
                (SELECT count(*) FROM cells
                  WHERE NOT EXISTS (SELECT 1 FROM b
                                    WHERE b.u = cells.u AND b.v = cells.v)) AS fp
        """
        assert_equivalent(summary, sql, e=edge_frame(graph), m=mpdf, c=cpdf)
