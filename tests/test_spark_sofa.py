"""Tests for the distributed SOFA operator and Structured Streaming path."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.core.sofa import SofaParams, sofa_pass
from repro.eval.quality import jaccard_quality
from repro.spark.distributed_sofa import (
    collect_partition_coresets,
    distributed_sofa,
)
from repro.spark.structured import (
    sofa_from_stream_dir,
    write_stream_files,
)


@pytest.fixture(scope="module")
def planted():
    n, k, r, ell, p = 400, 4, 18, 40, 0.9
    q = sd.noise_q_for_expected_degree(3, n, r)
    return sd.bipartite_sbm(k=k, ell=ell, n_right=n, r=r, p=p, q=q, seed=2)


@pytest.fixture(scope="module")
def params():
    return SofaParams(k=4, c_max=40, mg_capacity=120, seed=0)


class TestPartitionCoresets:
    def test_single_partition_equals_sequential(self, spark, planted, params):
        """With one partition the coreset is exactly the sequential
        engine's center set (same order, same seed)."""
        stream = sd.to_spark_stream(spark, planted, num_partitions=1)
        states = collect_partition_coresets(stream, params)
        seq = sofa_pass([a.tolist() for a in planted.adj], params,
                        m_hint=planted.n_left)
        # mapInPandas m_hint is the partition size = full stream here
        assert len(states) == len(seq.centers)
        for got, want in zip(states, seq.centers):
            assert got.support.tolist() == want.support.tolist()
            assert got.weight == want.weight
            assert got.sketch.capacity == want.sketch.capacity
            assert got.sketch.counters == want.sketch.counters
            assert got.sketch.total == want.sketch.total

    def test_weight_conservation_across_partitions(self, spark, planted, params):
        stream = sd.to_spark_stream(spark, planted, num_partitions=4)
        states = collect_partition_coresets(stream, params)
        assert sum(s.weight for s in states) == pytest.approx(planted.n_left)

    def test_coreset_size_bounded(self, spark, planted, params):
        n_parts = 4
        stream = sd.to_spark_stream(spark, planted, num_partitions=n_parts)
        states = collect_partition_coresets(stream, params)
        assert len(states) <= n_parts * params.c_max

    def test_sketch_capacity_respected(self, spark, planted, params):
        stream = sd.to_spark_stream(spark, planted, num_partitions=4)
        states = collect_partition_coresets(stream, params)
        for s in states:
            assert len(s.sketch.counters) <= params.mg_capacity


class TestDistributedSofa:
    @pytest.mark.parametrize("n_parts", [1, 2, 4])
    def test_recovery_quality(self, spark, planted, params, n_parts):
        stream = sd.to_spark_stream(spark, planted, num_partitions=n_parts)
        res = distributed_sofa(stream, params, m_hint=planted.n_left)
        q = jaccard_quality(planted.right_clusters, res.right_clusters(0.5))
        assert q > 0.7, f"n_parts={n_parts} quality={q}"

    def test_total_weight_preserved(self, spark, planted, params):
        stream = sd.to_spark_stream(spark, planted, num_partitions=4)
        res = distributed_sofa(stream, params)
        assert sum(c.weight for c in res.centers) == pytest.approx(planted.n_left)

    def test_groups_nonempty(self, spark, planted, params):
        stream = sd.to_spark_stream(spark, planted, num_partitions=2)
        res = distributed_sofa(stream, params)
        assert 1 <= len(res.groups) <= params.c_max


class TestStructuredStreaming:
    def test_stream_files_roundtrip(self, tmp_path, planted):
        n_files = write_stream_files(planted, str(tmp_path / "s"), vertices_per_file=50)
        assert n_files == int(np.ceil(planted.n_left / 50))

    def test_sofa_over_structured_stream(self, spark, tmp_path, planted, params):
        """foreachBatch-fed SOFA matches the sequential pass in quality."""
        sdir = str(tmp_path / "stream")
        write_stream_files(planted, sdir, vertices_per_file=64)
        res = sofa_from_stream_dir(
            spark, sdir, params,
            m_hint=planted.n_left,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        assert res.n_processed == planted.n_left
        q = jaccard_quality(planted.right_clusters, res.right_clusters(0.5))
        assert q > 0.7, f"quality={q}"

    def test_micro_batching_does_not_lose_vertices(self, spark, tmp_path, params):
        g = sd.bipartite_sbm(k=2, ell=20, n_right=100, r=10, p=0.9, q=0.01, seed=9)
        sdir = str(tmp_path / "s2")
        write_stream_files(g, sdir, vertices_per_file=7)  # ragged batches
        res = sofa_from_stream_dir(spark, sdir, params, m_hint=g.n_left)
        assert res.n_processed == g.n_left
