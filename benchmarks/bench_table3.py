"""Benchmark for Table 3: the BMF second pass (cover + recall metrics),
sequential-fast and Spark dataflow variants, and the sofa-auto θ
likelihood that picks the threshold of the single sofa-auto cover."""
import pytest

from repro.core.bmf import reconstruction_metrics
from repro.core.second_pass import assign_left_bmf_fast
from repro.core.sofa import sofa_pass
from repro.core.thresholds import auto_theta_from_groups
from repro.eval.datasets import load_dataset
from repro.eval.harness import sofa_params_for
from repro.spark.metrics_df import metrics_summary_df
from repro.spark.second_pass_df import assign_left_bmf_df, clusters_to_df
from repro.spark.stream_df import edges_from_stream, to_spark_stream


@pytest.fixture(scope="module")
def setup(spark):
    g = load_dataset("flickr")
    clusters = [c.tolist() for c in g.right_clusters[:16]]
    return g, clusters


@pytest.mark.benchmark(group="table3")
def test_second_pass_recall_sequential(benchmark, setup):
    g, clusters = setup
    stream = [a.tolist() for a in g.adj]

    def run():
        bmf = assign_left_bmf_fast(stream, clusters)
        return reconstruction_metrics(g.adj, bmf.memberships, clusters)

    m = benchmark.pedantic(run, rounds=3, iterations=1)
    assert m.recall > 0


@pytest.mark.benchmark(group="table3")
def test_auto_theta_flickr(benchmark):
    """sofa-auto θ over the flickr k=16 SOFA groups (MG counters)."""
    g = load_dataset("flickr")
    groups = sofa_pass(g.adj, sofa_params_for(g, 16)).groups
    theta, p, q = benchmark.pedantic(
        auto_theta_from_groups, args=(groups,), rounds=5, iterations=1
    )
    assert q < theta < p


@pytest.mark.benchmark(group="table3")
def test_second_pass_recall_spark(benchmark, spark, setup):
    g, clusters = setup
    stream = to_spark_stream(spark, g, num_partitions=8).cache()
    stream.count()
    edges = edges_from_stream(stream).cache()
    edges.count()
    cdf = clusters_to_df(spark, clusters).cache()
    cdf.count()

    def run():
        mdf = assign_left_bmf_df(stream, clusters)
        return metrics_summary_df(edges, mdf, cdf).collect()[0]

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    assert row["tp"] > 0
