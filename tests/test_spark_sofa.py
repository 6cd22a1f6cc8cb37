"""Tests for the distributed SOFA operator and Structured Streaming path."""
import json
import os
import threading
import time

import numpy as np
import pyspark.sql.functions as F
import pytest
from pyspark import AccumulatorParam, TaskContext
from pyspark.errors import StreamingQueryException
from pyspark.sql.classic.dataframe import DataFrame

import repro.spark.distributed_sofa as dsofa
import repro.spark.structured as structured
from repro import synth_data as sd
from repro.core.sofa import SofaParams, sofa_pass
from repro.eval.quality import jaccard_quality
from repro.spark.distributed_sofa import (
    collect_partition_coresets,
    distributed_sofa,
)
from repro.spark.stream_df import STREAM_SCHEMA, to_spark_stream
from repro.spark.structured import (
    MAX_FILES_PER_TRIGGER,
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
        stream = to_spark_stream(spark, planted, num_partitions=1)
        states = collect_partition_coresets(stream, params)
        seq = sofa_pass([a.tolist() for a in planted.adj], params,
                        m_hint=planted.n_left)
        # the partition runner's m_hint is the partition size = full stream here
        assert len(states) == len(seq.centers)
        for got, want in zip(states, seq.centers):
            assert got.support.tolist() == want.support.tolist()
            assert got.weight == want.weight
            assert got.sketch.capacity == want.sketch.capacity
            assert got.sketch.counters == want.sketch.counters
            assert got.sketch.total == want.sketch.total

    def test_null_neighbors_push_as_empty(self, spark, planted, params):
        """A null neighbor list in a partition is pushed as an empty one,
        as the Structured Streaming feed does."""
        null_u = planted.n_left // 3
        assert len(planted.adj[null_u]) > 0
        stream = [[] if u == null_u else a.tolist() for u, a in enumerate(planted.adj)]
        rows = [(u, None if u == null_u else nbrs) for u, nbrs in enumerate(stream)]
        df = spark.createDataFrame(rows, schema=STREAM_SCHEMA).repartition(1)
        states = collect_partition_coresets(df, params)
        assert_same_centers(states, sofa_pass(stream, params, m_hint=planted.n_left).centers)

    def test_partitions_share_python_tasks(self, spark, planted, params, monkeypatch):
        """A stream with twice as many partitions as core slots (8 on 4
        cores) runs in at most ``defaultParallelism`` Python tasks and
        still yields the single-partition coresets, in partition order."""

        class TaskIds(AccumulatorParam):
            def zero(self, value):
                return set()

            def addInPlace(self, a, b):
                return a | b

        tasks = spark.sparkContext.accumulator(set(), TaskIds())
        runner = dsofa._partition_runner

        def probe(p):
            run = runner(p)

            def probed(batches):
                tasks.add({TaskContext.get().partitionId()})
                return run(batches)

            return probed

        monkeypatch.setattr(dsofa, "_partition_runner", probe)
        slots = spark.sparkContext.defaultParallelism
        stream = to_spark_stream(spark, planted, num_partitions=2 * slots)
        states = collect_partition_coresets(stream, params)
        part_of = dict(stream.select("u", F.spark_partition_id().alias("p")).collect())
        want = []
        for p in range(2 * slots):
            us = sorted(u for u, q in part_of.items() if q == p)
            assert us
            want += sofa_pass([planted.adj[u].tolist() for u in us], params, m_hint=len(us)).centers
        assert_same_centers(states, want)
        assert 1 <= len(tasks.value) <= slots

    def test_weight_conservation_across_partitions(self, spark, planted, params):
        stream = to_spark_stream(spark, planted, num_partitions=4)
        states = collect_partition_coresets(stream, params)
        assert sum(s.weight for s in states) == pytest.approx(planted.n_left)

    def test_coreset_size_bounded(self, spark, planted, params):
        n_parts = 4
        stream = to_spark_stream(spark, planted, num_partitions=n_parts)
        states = collect_partition_coresets(stream, params)
        assert len(states) <= n_parts * params.c_max

    def test_sketch_capacity_respected(self, spark, planted, params):
        stream = to_spark_stream(spark, planted, num_partitions=4)
        states = collect_partition_coresets(stream, params)
        for s in states:
            assert len(s.sketch.counters) <= params.mg_capacity


class TestDistributedSofa:
    @pytest.mark.parametrize("n_parts", [1, 2, 4])
    def test_recovery_quality(self, spark, planted, params, n_parts):
        stream = to_spark_stream(spark, planted, num_partitions=n_parts)
        res = distributed_sofa(stream, params, m_hint=planted.n_left)
        q = jaccard_quality(planted.right_clusters, res.right_clusters(0.5))
        assert q > 0.7, f"n_parts={n_parts} quality={q}"

    def test_total_weight_preserved(self, spark, planted, params):
        stream = to_spark_stream(spark, planted, num_partitions=4)
        res = distributed_sofa(stream, params)
        assert sum(c.weight for c in res.centers) == pytest.approx(planted.n_left)

    def test_groups_nonempty(self, spark, planted, params):
        stream = to_spark_stream(spark, planted, num_partitions=2)
        res = distributed_sofa(stream, params)
        assert 1 <= len(res.groups) <= params.c_max


def _ragged_stream(vertices_per_file: int) -> sd.BipartiteGraph:
    """A shuffled planted stream that fills more than three micro-batches
    of files, the last file short, with one vertex that has no neighbors."""
    n_files = 3 * MAX_FILES_PER_TRIGGER + 2
    n = vertices_per_file * (n_files - 1) + vertices_per_file // 2 + 1
    g = sd.bipartite_sbm(k=4, ell=-(-n // 4), n_right=300, r=18, p=0.9,
                         q=sd.noise_q_for_expected_degree(3, 300, 18), seed=5)
    order = np.random.default_rng(5).permutation(g.n_left)[:n]
    adj = [g.adj[i] for i in order]
    adj[n // 3] = np.empty(0, dtype=np.int64)
    return sd.BipartiteGraph(n, g.n_right, adj)


def _null_neighbors_line(stream_dir: str, file_no: int, line_no: int) -> int:
    """Rewrite one line of a stream file as ``"neighbors": null``, keeping
    the file's mtime (arrival order); returns that line's vertex."""
    path = os.path.join(stream_dir, f"batch-{file_no:06d}.json")
    st = os.stat(path)
    with open(path) as f:
        lines = f.readlines()
    u = json.loads(lines[line_no])["u"]
    lines[line_no] = '{"u": %d, "neighbors": null}\n' % u
    with open(path, "w") as f:
        f.writelines(lines)
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    return u


def assert_same_centers(got, want):
    """Support, weight, sketch capacity, MG counters in order and total."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.support.tolist() == b.support.tolist()
        assert a.weight == b.weight
        assert a.sketch.capacity == b.sketch.capacity
        assert list(a.sketch.counters.items()) == list(b.sketch.counters.items())
        assert a.sketch.total == b.sketch.total


def assert_same_result(got, want):
    assert_same_centers(got.centers, want.centers)
    assert got.n_restarts == want.n_restarts
    assert got.final_lb == want.final_lb
    assert got.n_processed == want.n_processed


class TestStructuredStreaming:
    def test_stream_files_roundtrip(self, tmp_path, planted):
        n_files = write_stream_files(planted, str(tmp_path / "s"), vertices_per_file=50)
        assert n_files == int(np.ceil(planted.n_left / 50))

    def test_file_mtimes_follow_arrival_order(self, tmp_path, planted):
        """The file source orders files by mtime: file numbers must sort
        the same way, at least 2 s apart (coarse-mtime filesystems)."""
        sdir = tmp_path / "s"
        n_files = write_stream_files(planted, str(sdir), vertices_per_file=20)
        mtimes = [os.stat(sdir / f"batch-{i:06d}.json").st_mtime_ns
                  for i in range(n_files)]
        assert n_files > 2
        assert all(b - a >= 2_000_000_000 for a, b in zip(mtimes, mtimes[1:]))

    @pytest.mark.parametrize("vertices_per_file", [7, 64])
    def test_stream_equals_sequential_pass(
        self, spark, tmp_path, params, vertices_per_file
    ):
        """Several triggers of ragged files, an empty neighbor list and a
        null one give exactly the sequential engine's result."""
        g = _ragged_stream(vertices_per_file)
        sdir = str(tmp_path / "stream")
        n_files = write_stream_files(g, sdir, vertices_per_file=vertices_per_file)
        assert n_files > 3 * MAX_FILES_PER_TRIGGER
        null_u = _null_neighbors_line(sdir, n_files // 2, vertices_per_file // 2)
        assert len(g.adj[null_u]) > 0
        stream = [[] if u == null_u else a.tolist() for u, a in enumerate(g.adj)]
        want = sofa_pass(stream, params, m_hint=g.n_left)
        assert want.n_restarts > 0
        got = sofa_from_stream_dir(
            spark, sdir, params, m_hint=g.n_left,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        assert_same_result(got, want)

    def test_empty_stream(self, spark, tmp_path, params):
        sdir = tmp_path / "empty"
        sdir.mkdir()
        (sdir / "batch-000000.json").write_text("")
        res = sofa_from_stream_dir(spark, str(sdir), params)
        assert res.n_processed == 0
        assert res.centers == [] and res.groups == []

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


def _threads_since(before: set) -> list:
    """Threads alive now that were not in ``before``, except py4j's: the
    callback server starts with the session's first ``foreachBatch``, and
    py4j keeps one connection thread per JVM thread that called into
    Python (each streaming query runs on a new one)."""
    return [
        t for t in threading.enumerate()
        if t not in before
        and not type(getattr(t._target, "__self__", None)).__module__.startswith("py4j.")
    ]


class TestPipelinedStream:
    """The engine thread of ``sofa_from_stream_dir`` (a one-worker
    executor): exact while it lags behind Spark, at most three
    micro-batches held, its errors reach the caller, and it never
    outlives the call."""

    @pytest.fixture
    def ragged(self, tmp_path):
        """A >3-trigger ragged stream and the threads alive before the call."""
        g = _ragged_stream(7)
        sdir = str(tmp_path / "stream")
        write_stream_files(g, sdir, vertices_per_file=7)
        return g, sdir, set(threading.enumerate())

    def test_engine_lagging_behind_triggers_is_exact(
        self, spark, tmp_path, params, ragged, monkeypatch
    ):
        g, sdir, threads = ragged
        first_batch = MAX_FILES_PER_TRIGGER * 7
        fetched, fetched_by_end_of_first = [], []
        fetch = DataFrame.toArrow

        def counted_fetch(self):
            table = fetch(self)
            fetched.append(table.num_rows)
            return table

        class SlowEngine(structured.SofaEngine):
            n_pushed = 0

            def push(self, nbrs):
                time.sleep(0.008)  # ~0.9 s per 16-file batch: Spark runs ahead
                super().push(nbrs)
                self.n_pushed += 1
                if self.n_pushed == first_batch:
                    fetched_by_end_of_first.append(len(fetched))

        monkeypatch.setattr(DataFrame, "toArrow", counted_fetch)
        monkeypatch.setattr(structured, "SofaEngine", SlowEngine)
        want = sofa_pass([a.tolist() for a in g.adj], params, m_hint=g.n_left)
        got = sofa_from_stream_dir(
            spark, sdir, params, m_hint=g.n_left, checkpoint_dir=str(tmp_path / "ckpt")
        )
        assert_same_result(got, want)
        assert fetched[0] == first_batch and len(fetched) > 3
        assert fetched_by_end_of_first[0] >= 2  # the next batch came in meanwhile
        assert _threads_since(threads) == []

    def test_at_most_three_batches_held(self, spark, params, ragged, monkeypatch):
        """A table is held from its fetch until its push finishes: one
        being pushed, one queued and one being fetched at most, however
        far the engine lags, and the bound is reached."""
        g, sdir, threads = ragged
        held, most, lock = [0], [0], threading.Lock()
        fetch, push_table = DataFrame.toArrow, structured.push_in_arrival_order

        def counted_fetch(self):
            table = fetch(self)
            with lock:
                held[0] += 1
                most[0] = max(most[0], held[0])
            return table

        def counted_push(engine, table):
            push_table(engine, table)
            with lock:
                held[0] -= 1

        class SlowEngine(structured.SofaEngine):
            n_pushed = 0

            def push(self, nbrs):
                # the first vertex stalls while Spark runs three triggers ahead
                time.sleep(3.0 if self.n_pushed == 0 else 0.002)
                super().push(nbrs)
                self.n_pushed += 1

        monkeypatch.setattr(DataFrame, "toArrow", counted_fetch)
        monkeypatch.setattr(structured, "push_in_arrival_order", counted_push)
        monkeypatch.setattr(structured, "SofaEngine", SlowEngine)
        res = sofa_from_stream_dir(spark, sdir, params, m_hint=g.n_left)
        assert res.n_processed == g.n_left
        assert held == [0] and most == [3]
        assert _threads_since(threads) == []

    @pytest.mark.parametrize("fail_at", [10, -1])  # first batch, last vertex
    def test_engine_error_reaches_caller(
        self, spark, params, ragged, monkeypatch, fail_at
    ):
        g, sdir, threads = ragged
        fail_at %= g.n_left

        class FailingEngine(structured.SofaEngine):
            n_pushed = 0

            def push(self, nbrs):
                if self.n_pushed == fail_at:
                    raise ValueError("engine failed")
                self.n_pushed += 1
                super().push(nbrs)

        monkeypatch.setattr(structured, "SofaEngine", FailingEngine)
        with pytest.raises(ValueError, match="engine failed"):
            sofa_from_stream_dir(spark, sdir, params, m_hint=g.n_left)
        assert _threads_since(threads) == []

    def test_query_error_joins_engine_thread(self, spark, params, ragged, monkeypatch):
        g, sdir, threads = ragged

        def broken_fetch(self):
            raise RuntimeError("fetch failed")

        monkeypatch.setattr(DataFrame, "toArrow", broken_fetch)
        with pytest.raises(StreamingQueryException, match="fetch failed"):
            sofa_from_stream_dir(spark, sdir, params, m_hint=g.n_left)
        assert _threads_since(threads) == []
