"""Tests for stream/edge DataFrame helpers and Table 1 statistics, with
DuckDB oracle checks on every SQL-expressible aggregate."""
import numpy as np
import pyarrow as pa
import pyspark.sql.functions as F
import pytest

from repro import synth_data as sd
from .oracle import assert_equivalent
from repro.core.sofa import SofaParams, sofa_pass
from repro.spark.distributed_sofa import collect_partition_coresets
from repro.spark.stream_df import (
    arrival_order,
    dataset_stats,
    degree_df,
    edges_from_stream,
    list_array,
    spark_hash_long,
    to_spark_stream,
)

from .oracle_frames import edge_frame
from .sofa_reference import centers_of


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


def _plan(df, capsys) -> str:
    """The physical plan ``df.explain()`` prints."""
    capsys.readouterr()
    df.explain()
    return capsys.readouterr().out


def _tags(df):
    return df.select("u", F.spark_partition_id().alias("p"))


class TestHashLayout:
    """``to_spark_stream(..., num_partitions=n)`` lays the rows out as
    ``repartition(n, "u")`` does, without an exchange."""

    def test_numpy_hash_equals_spark_hash(self, spark):
        vals = [0, -1, 2**31, -2**63, 2**63 - 1, 2**32, -123456789012, *range(-40, 60)]
        df = spark.createDataFrame([(v,) for v in vals], "u bigint")
        want = [r[0] for r in df.select(F.hash("u")).collect()]
        assert spark_hash_long(np.array(vals, dtype=np.int64)).tolist() == want

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_layout_equals_repartition(self, spark, graph, n, capsys):
        df = to_spark_stream(spark, graph, num_partitions=n)
        want = _tags(to_spark_stream(spark, graph).repartition(n, "u"))
        got = _tags(df).collect()  # partition by partition, rows in order
        assert df.rdd.getNumPartitions() == n
        assert dict(got) == dict(want.collect())
        assert len(got) == graph.n_left
        assert all(a.p < b.p or a.p == b.p and a.u < b.u for a, b in zip(got, got[1:]))
        assert {r.u: r.neighbors for r in df.collect()} == {
            u: a.tolist() for u, a in enumerate(graph.adj)}
        assert "Exchange" not in _plan(_tags(df), capsys)
        assert "Exchange" in _plan(want, capsys)

    @pytest.mark.parametrize("n_left", [0, 3])
    def test_more_partitions_than_rows(self, spark, n_left, capsys):
        """Partitions after the last row exist too, and an empty
        partition yields no coreset."""
        n = 8
        adj = [np.array([u, u + 1], dtype=np.int64) for u in range(n_left)]
        g = sd.BipartiteGraph(n_left, n_left + 1, adj)
        part = spark_hash_long(np.arange(n_left)) % n
        assert n_left == 0 or part.max() < n - 1  # trailing empty partitions
        df = to_spark_stream(spark, g, num_partitions=n)
        assert df.rdd.getNumPartitions() == n
        assert dict(_tags(df).collect()) == dict(enumerate(part.tolist()))
        assert "Exchange" not in _plan(_tags(df), capsys)
        params = SofaParams(k=1, c_max=4, mg_capacity=8)
        want = []
        for p in range(n):
            us = np.flatnonzero(part == p)
            if len(us):
                want += sofa_pass([adj[u].tolist() for u in us], params, m_hint=len(us)).centers
        assert centers_of(collect_partition_coresets(df, params)) == centers_of(want)


def test_arrival_order_decodes_sliced_chunked_and_null_lists():
    """Rows sorted by ``u`` (stable), a null list read as ``[]``, values
    as Python ints, over a table of two chunks, one of them a slice of a
    larger list array."""
    lists = list_array([np.array([9, 8]), np.array([], np.int64), np.array([7, 2**40, -3]),
                        np.array([5])], pa.int64())
    first = pa.record_batch([pa.array([3, 1]), lists.slice(2, 2)], names=["u", "neighbors"])
    second = pa.record_batch([pa.array([2, 1, 0]), pa.array([[4], None, [6, 6]], pa.list_(pa.int64()))],
                             names=["u", "neighbors"])
    table = pa.Table.from_batches([first, second])
    us, rows = arrival_order(table)
    assert us == [0, 1, 1, 2, 3]
    assert rows == [[6, 6], [5], [], [4], [7, 2**40, -3]]
    assert all(type(v) is int for r in rows for v in r)
