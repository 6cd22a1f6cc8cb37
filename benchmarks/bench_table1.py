"""Benchmark for Table 1: dataset generation + property statistics."""
import pytest

from repro.eval.datasets import load_dataset
from repro.spark.stream_df import dataset_stats, edges_from_stream, to_spark_stream


@pytest.mark.benchmark(group="table1")
def test_table1_stats_flickr(benchmark, spark):
    g = load_dataset("flickr")
    edges = edges_from_stream(to_spark_stream(spark, g)).cache()
    edges.count()

    def run():
        return dataset_stats(edges, n_left=g.n_left, n_right=g.n_right)

    st = benchmark.pedantic(run, rounds=3, iterations=1)
    assert st.n_edges == g.n_edges


@pytest.mark.benchmark(group="table1")
def test_table1_generation_wiki(benchmark):
    from repro.synth_data import planted_zipf_bipartite
    from repro.eval.datasets import _SPECS

    def run():
        return planted_zipf_bipartite(**_SPECS["wiki"])

    g = benchmark.pedantic(run, rounds=1, iterations=1)
    assert g.n_left == 12000
