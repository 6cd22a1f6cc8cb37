"""Tests for Spark reconstruction metrics vs DuckDB oracle and the
set-based reference (§6.2 measures)."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd
from .oracle import assert_equivalent
from repro.spark.metrics_df import SparkReconstruction, metrics_summary_df
from repro.spark.second_pass_df import assign_left_bmf_df, clusters_to_df
from repro.spark.stream_df import STREAM_SCHEMA, edges_from_stream, to_spark_stream

from .oracle_frames import edge_frame
from .second_pass_reference import assign_left_bmf, reconstruction_metrics

# (ones, tp, fp) over the edge list e, the memberships m and the cluster
# table c, with B̃'s cells built by a join and deduplicated.
SUMMARY_SQL = """
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


def _frame(pairs, a: str, b: str) -> pd.DataFrame:
    """Pairs as a pandas frame with int64 columns ``a`` and ``b``."""
    cols = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return pd.DataFrame({a: cols[:, 0], b: cols[:, 1]})


def _summary(row) -> SparkReconstruction:
    return SparkReconstruction(int(row["ones"]), int(row["tp"]), int(row["fp"]))


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
        got = _summary(metrics_summary_df(edges, mdf, cdf).collect()[0])
        want_assign = assign_left_bmf([a.tolist() for a in graph.adj], clusters)
        want = reconstruction_metrics(graph.adj, want_assign.memberships, clusters)
        assert got == want
        assert got.relative_hamming_gain == pytest.approx(want.relative_hamming_gain)
        assert got.recall == pytest.approx(want.recall)

    def test_edgeless_stream_counts_zero(self, spark):
        """No edges and no memberships: zeros, as the sequential metrics
        give, not the nulls of a sum over no rows."""
        g = sd.BipartiteGraph(2, 3, [np.empty(0, np.int64)] * 2)
        clusters = [[0, 1]]
        stream = to_spark_stream(spark, g)
        mdf = assign_left_bmf_df(stream, clusters)
        summary = metrics_summary_df(
            edges_from_stream(stream), mdf, clusters_to_df(spark, clusters)
        )
        got = _summary(summary.collect()[0])
        assert got == reconstruction_metrics(g.adj, [[], []], clusters)
        assert got == SparkReconstruction(0, 0, 0)
        assert_equivalent(
            summary, SUMMARY_SQL,
            e=_frame([], "u", "v"), m=_frame([], "u", "cluster"),
            c=_frame([(0, 0), (0, 1)], "cluster", "v"),
        )


class TestEdgeCases:
    """Inputs the per-vertex plan must count as the join plan did: each
    case against the set-based oracle and the DuckDB query. ``adj[u]``
    is u's neighbor list in the stream (``None`` a null list),
    ``memberships[u]`` its clusters."""

    def _check(self, spark, adj, memberships, clusters):
        stream = spark.createDataFrame(list(enumerate(adj)), schema=STREAM_SCHEMA)
        mpairs = [(u, c) for u, cs in enumerate(memberships) for c in cs]
        mdf = spark.createDataFrame(mpairs, schema="u bigint, cluster bigint")
        summary = metrics_summary_df(
            edges_from_stream(stream), mdf, clusters_to_df(spark, clusters))
        got = _summary(summary.collect()[0])
        # a membership of a cluster with no rows covers nothing
        width = max([len(clusters), *(c + 1 for _, c in mpairs)])
        padded = list(clusters) + [[]] * (width - len(clusters))
        assert got == reconstruction_metrics(
            [a or [] for a in adj], memberships, padded)
        assert_equivalent(
            summary, SUMMARY_SQL,
            e=_frame([(u, v) for u, a in enumerate(adj) for v in a or []], "u", "v"),
            m=_frame(mpairs, "u", "cluster"),
            c=_frame([(i, v) for i, vc in enumerate(clusters) for v in vc], "cluster", "v"),
        )
        return got

    def test_cluster_without_rows_covers_nothing(self, spark):
        # cluster 1 is empty (no rows in clusters_df), cluster 4 is unknown
        got = self._check(spark, [[1, 2], [5], [1, 9]], [[0, 1], [1, 4], [4]],
                          [[1, 2, 3], [], [5]])
        assert got == SparkReconstruction(ones=5, true_positives=2, false_positives=1)

    def test_memberships_without_edges_are_false_positives(self, spark):
        got = self._check(spark, [[1, 2], [], [3]], [[0], [0, 1], []],
                          [[1, 2], [2, 3, 4]])
        assert got == SparkReconstruction(ones=3, true_positives=2, false_positives=4)

    def test_duplicate_edges_count_once(self, spark):
        got = self._check(spark, [[1, 1, 2, 2, 2], [3, 3]], [[0], [0]], [[1, 2]])
        assert got == SparkReconstruction(ones=3, true_positives=2, false_positives=2)

    def test_null_neighbor_list(self, spark):
        got = self._check(spark, [[1, 2], None, [2]], [[0], [0], []], [[1, 2]])
        assert got == SparkReconstruction(ones=3, true_positives=2, false_positives=2)


class TestOracle:
    def test_metrics_summary_oracle(self, graph, clusters, dfs):
        _, edges, cdf, mdf = dfs
        summary = metrics_summary_df(edges, mdf, cdf)
        mpdf = mdf.toPandas()
        cpdf = pd.DataFrame(
            [(i, v) for i, vc in enumerate(clusters) for v in vc],
            columns=["cluster", "v"],
        )
        assert_equivalent(summary, SUMMARY_SQL, e=edge_frame(graph), m=mpdf, c=cpdf)
