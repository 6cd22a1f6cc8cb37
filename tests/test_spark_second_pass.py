"""Tests for the Spark second pass (§4.2 as dataflow), checked against
the set-based reference cover."""
import pyspark.sql.functions as F
import pytest

from repro import synth_data as sd
from repro.core.second_pass import assign_left_bmf_fast
from repro.spark.metrics_df import metrics_summary_df
from repro.spark.second_pass_df import (
    assign_left_bmf_df,
    clusters_to_df,
    prune_membership_to_top_k,
)
from repro.spark.stream_df import STREAM_SCHEMA, edges_from_stream, to_spark_stream

from .second_pass_reference import assign_left_bmf


@pytest.fixture(scope="module")
def graph():
    return sd.planted_zipf_bipartite(
        n_left=150, n_right=250, k_true=5, r=12, p=0.85,
        memberships_per_left=1.3, background_deg=2.0, seed=11,
    )


@pytest.fixture(scope="module")
def stream(spark, graph):
    return to_spark_stream(spark, graph, num_partitions=4).cache()


@pytest.fixture(scope="module")
def clusters(graph):
    return [c.tolist() for c in graph.right_clusters]


@pytest.fixture(scope="module")
def clusters_df(spark, clusters):
    return clusters_to_df(spark, clusters).cache()


class TestClustersToDf:
    def test_row_count(self, clusters_df, clusters):
        assert clusters_df.count() == sum(len(c) for c in clusters)

    def test_empty_clusters(self, spark):
        df = clusters_to_df(spark, [])
        assert df.count() == 0
        assert df.columns == ["cluster", "v"]

    def test_empty_cluster_contributes_no_rows(self, spark):
        df = clusters_to_df(spark, [[1, 2], [], [5]])
        got = {r["cluster"] for r in df.collect()}
        assert got == {0, 2}


class TestBmfAssignment:
    def test_matches_sequential_reference(self, stream, graph, clusters):
        rows = assign_left_bmf_df(stream, clusters).collect()
        got = {}
        for r in rows:
            got.setdefault(r["u"], []).append(r["cluster"])
        want = assign_left_bmf([a.tolist() for a in graph.adj], clusters)
        for u in range(graph.n_left):
            assert sorted(got.get(u, [])) == want.memberships[u]

    def test_null_neighbors_cover_as_empty(self, spark):
        """A null neighbor list is covered as the empty row, the rule the
        first passes use."""
        rows = [(0, [1, 2]), (1, None), (2, [2])]
        stream = spark.createDataFrame(rows, schema=STREAM_SCHEMA)
        got = sorted(tuple(r) for r in assign_left_bmf_df(stream, [[1, 2]]).collect())
        assert got == [(0, 0, 2.0)]
        want = assign_left_bmf_fast([[1, 2], [], [2]], [[1, 2]])
        assert got == [
            (u, c, sc)
            for u, (mem, scs) in enumerate(zip(want.memberships, want.choice_scores))
            for c, sc in zip(mem, scs)
        ]

    def test_cluster_scores_match_reference(self, spark, stream, graph, clusters):
        mdf = assign_left_bmf_df(stream, clusters)
        got = {
            r["cluster"]: r["total_score"]
            for r in mdf.groupBy("cluster").agg(F.sum("sc").alias("total_score")).collect()
        }
        want = assign_left_bmf([a.tolist() for a in graph.adj], clusters)
        for i, s in enumerate(want.cluster_scores):
            assert got.get(i, 0.0) == pytest.approx(s)

    def test_prune_runs_the_cover_once(self, spark, graph, clusters):
        """The pruned plan holds one Python cover operator: the cluster
        totals do not re-read the memberships. (An uncached stream, so
        the plan shows the cover itself.)"""
        rows = [(u, a.tolist()) for u, a in enumerate(graph.adj)]
        stream = spark.createDataFrame(rows, schema=STREAM_SCHEMA)
        pruned = prune_membership_to_top_k(assign_left_bmf_df(stream, clusters), 2)
        plan = pruned._jdf.queryExecution().executedPlan().toString()
        assert plan.count("MapInArrow") == 1

    def test_metrics_plan_has_one_python_operator(self, spark, graph, clusters):
        """The metrics plan runs one Python operator over the per-vertex
        neighbor and membership lists; B̃ is never joined out. (Inputs
        with no Python operator of their own, so the plan shows only the
        metrics'.)"""
        rows = [(u, a.tolist()) for u, a in enumerate(graph.adj)]
        stream = spark.createDataFrame(rows, schema=STREAM_SCHEMA)
        mdf = spark.createDataFrame(
            [(u, c) for u, mem in enumerate(assign_left_bmf_fast(
                [r for _, r in rows], clusters).memberships) for c in mem],
            schema="u bigint, cluster bigint",
        )
        summary = metrics_summary_df(
            edges_from_stream(stream), mdf, clusters_to_df(spark, clusters))
        plan = summary._jdf.queryExecution().executedPlan().toString()
        assert plan.count("MapInArrow") == 1

    def test_prune_to_top_k(self, spark, stream, clusters):
        mdf = assign_left_bmf_df(stream, clusters).cache()
        pruned = prune_membership_to_top_k(mdf, 2)
        kept = {r["cluster"] for r in pruned.select("cluster").distinct().collect()}
        assert len(kept) <= 2
        # kept clusters are the top-2 by total score
        scores = {
            r["cluster"]: r["total_score"]
            for r in mdf.groupBy("cluster").agg(F.sum("sc").alias("total_score")).collect()
        }
        top2 = sorted(scores, key=lambda c: (-scores[c], c))[:2]
        assert kept == set(top2)
