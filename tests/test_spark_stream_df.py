"""Tests for stream/edge DataFrame helpers and Table 1 statistics, with
DuckDB oracle checks on every SQL-expressible aggregate."""
import pyspark.sql.functions as F
import pytest

from repro import synth_data as sd
from .oracle import assert_equivalent
from repro.spark.stream_df import (
    dataset_stats,
    degree_df,
    edges_from_stream,
    to_spark_stream,
)

from .oracle_frames import edge_frame


@pytest.fixture(scope="module")
def graph():
    return sd.bipartite_sbm(k=3, ell=25, n_right=300, r=15, p=0.8,
                            q=sd.noise_q_for_expected_degree(4, 300, 15), seed=5)


@pytest.fixture(scope="module")
def stream(spark, graph):
    return to_spark_stream(spark, graph).cache()


@pytest.fixture(scope="module")
def edges(spark, stream):
    return edges_from_stream(stream).cache()


class TestConversions:
    def test_edge_count_matches(self, edges, graph):
        assert edges.count() == graph.n_edges

    def test_edges_oracle(self, edges, graph):
        assert_equivalent(
            edges.groupBy("u").agg(F.count("*").alias("deg")),
            "SELECT u, count(*) AS deg FROM e GROUP BY u",
            e=edge_frame(graph),
        )

    def test_roundtrip_stream_edges_stream(self, spark, stream, edges, graph):
        got = sorted((r["u"], r["v"]) for r in edges.collect())
        want = sorted(edge_frame(graph).itertuples(index=False, name=None))
        assert got == want

    def test_degree_df_oracle(self, edges, graph):
        assert_equivalent(
            degree_df(edges),
            "SELECT u, count(*) AS degree FROM e GROUP BY u",
            e=edge_frame(graph),
        )


class TestDatasetStats:
    def test_against_numpy(self, edges, graph):
        st = dataset_stats(edges, n_left=graph.n_left, n_right=graph.n_right)
        degs = graph.degrees()
        assert st.n_edges == graph.n_edges
        assert st.avg_degree == pytest.approx(degs[degs > 0].mean(), rel=1e-6)
        assert st.density == pytest.approx(
            graph.n_edges / (graph.n_left * graph.n_right)
        )

    def test_distinct_counts_oracle(self, spark, edges, graph):
        got = edges.agg(
            F.countDistinct("u").alias("nu"),
            F.countDistinct("v").alias("nv"),
            F.count("*").alias("ne"),
        )
        assert_equivalent(
            got,
            "SELECT count(DISTINCT u) AS nu, count(DISTINCT v) AS nv, count(*) AS ne FROM e",
            e=edge_frame(graph),
        )

    def test_p99_close_to_numpy_percentile(self, edges, graph):
        import numpy as np

        st = dataset_stats(edges)
        degs = graph.degrees()
        degs = degs[degs > 0]
        np_p99 = np.percentile(degs, 99)
        assert abs(st.p99_degree - np_p99) <= max(2, 0.05 * np_p99)

    def test_defaults_use_distinct_endpoints(self, edges):
        st = dataset_stats(edges)
        assert st.n_left <= 75
        assert st.n_right <= 300
