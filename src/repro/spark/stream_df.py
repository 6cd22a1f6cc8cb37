"""The vertex stream's one wire format (paper §2.1) and Table 1 statistics.

The streaming model delivers left vertices one by one with all incident
edges; in Spark that is a DataFrame with schema :data:`STREAM_SCHEMA`
whose row order within a partition is the arrival order. This module
owns the format: the encoder :func:`to_spark_stream` (Arrow batches
laid out as Spark's hash partitioning, with no shuffle) and
the decoder :func:`arrival_order`, which every Spark operator over
the stream (both first passes and the §4.2 cover) calls on its Arrow
input, a null list read as ``[]``. The Table 1 statistics (|U|, |V|,
|E|, density, mean degree, P99 degree) are pure Catalyst expressions
over the exploded edge list, each checked against DuckDB via the oracle.

Every ``mapInArrow`` body first calls :func:`keep_zip_directories`, so a
reused Python worker stops re-reading its zip archives on every task.
"""
from __future__ import annotations

import os
import sys
import zipimport
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import pyarrow as pa
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession

from repro.synth_data import BipartiteGraph

STREAM_SCHEMA = "u bigint, neighbors array<bigint>"


def to_spark_stream(
    spark: SparkSession, graph: BipartiteGraph, *, num_partitions: Optional[int] = None
) -> DataFrame:
    """Vertex-stream DataFrame: one row per left vertex, in stream order,
    with its neighbor array — the unit of arrival in the paper's model.
    The ``neighbors`` column is one Arrow list array over the
    concatenated adjacency arrays.

    The layout equals ``repartition(n, "u")`` without its exchange, n =
    ``num_partitions`` or else ``defaultParallelism``: row ``u`` lies in
    partition ``pmod(hash(u), n)`` (:func:`spark_hash_long`, computed
    here), the rows of a partition in ``u`` order, and the frame has
    exactly n partitions. Spark gets one Arrow batch per partition and
    parallelizes them one per partition (``createDataFrame``'s RDD path,
    which it takes while ``localRelationThreshold`` is 0). Arrow hands
    over no empty batch after the last row, so an empty ``range`` of the
    missing partitions is appended by a union."""
    if num_partitions is None:
        num_partitions = spark.sparkContext.defaultParallelism
    us = np.arange(graph.n_left, dtype=np.int64)
    part = spark_hash_long(us) % num_partitions
    order = np.argsort(part, kind="stable")  # by partition, then u
    batch = pa.RecordBatch.from_arrays(
        [pa.array(us[order], pa.int64()), list_array([graph.adj[u] for u in order], pa.int64())],
        names=["u", "neighbors"],
    )
    bounds = np.searchsorted(part[order], np.arange(num_partitions + 1))
    sizes = np.diff(bounds)
    table = pa.Table.from_batches(
        [batch.slice(lo, n) for lo, n in zip(bounds, sizes)], schema=batch.schema
    )
    arrow = "spark.sql.execution.arrow."
    conf = {arrow + "localRelationThreshold": "0",
            arrow + "maxRecordsPerBatch": str(max(1, int(sizes.max())))}
    saved = {key: spark.conf.get(key) for key in conf}
    try:
        for key, value in conf.items():
            spark.conf.set(key, value)
        df = spark.createDataFrame(table, schema=STREAM_SCHEMA)
    finally:
        for key, value in saved.items():
            spark.conf.set(key, value)
    filled = np.flatnonzero(sizes)
    tail = num_partitions - (int(filled[-1]) + 1 if len(filled) else 0)
    if tail:
        df = df.union(spark.range(0, tail, 1, tail).where("id < 0").selectExpr(
            "id AS u", "CAST(NULL AS array<bigint>) AS neighbors"))
    return df


def list_array(arrays: Sequence[np.ndarray], type_: pa.DataType) -> pa.ListArray:
    """One Arrow list per array: offsets over the arrays' concatenation."""
    offsets = np.zeros(len(arrays) + 1, dtype=np.int32)
    np.cumsum([len(a) for a in arrays], out=offsets[1:])
    values = np.concatenate([np.empty(0, type_.to_pandas_dtype()), *arrays])
    return pa.ListArray.from_arrays(offsets, pa.array(values, type_))


def spark_hash_long(values: np.ndarray) -> np.ndarray:
    """Spark's ``hash()`` of bigint values, as int32: Murmur3 x86_32 with
    seed 42 over each value's low, then high 32-bit word
    (``Murmur3_x86_32.hashLong``), all arithmetic modulo 2**32."""
    w = np.asarray(values, dtype=np.int64).view(np.uint64)
    u32 = np.uint32
    h = np.full(w.shape, 42, dtype=u32)
    for word in ((w & np.uint64(0xFFFFFFFF)).astype(u32), (w >> np.uint64(32)).astype(u32)):
        k = word * u32(0xCC9E2D51)
        k = (k << u32(15)) | (k >> u32(17))
        h ^= k * u32(0x1B873593)
        h = (h << u32(13)) | (h >> u32(19))
        h = h * u32(5) + u32(0xE6546B64)
    h ^= u32(8)  # the input length in bytes
    h ^= h >> u32(16)
    h *= u32(0x85EBCA6B)
    h ^= h >> u32(13)
    h *= u32(0xC2B2AE35)
    h ^= h >> u32(16)
    return h.view(np.int32)


def arrival_order(table: pa.Table) -> tuple[list[int], list[list[int]]]:
    """Decode a ``(u, neighbors)`` Arrow table in arrival order: rows
    sorted by ``u`` (stable), each vertex's neighbors a slice of the
    table's flattened values cut at the list offsets, a null list read
    as ``[]``. Returns the vertex ids and their neighbor lists."""
    us = table.column("u").to_numpy()
    order = np.argsort(us, kind="stable").tolist()
    lists = table.column("neighbors").combine_chunks()
    offsets = lists.offsets.to_numpy().tolist()
    values = lists.values.to_numpy().tolist()  # pyarrow's own tolist is ~15x slower
    valid = lists.is_valid().to_numpy(zero_copy_only=False).tolist()
    return us[order].tolist(), [
        values[offsets[i]:offsets[i + 1]] if valid[i] else [] for i in order
    ]


def keep_zip_directories() -> None:
    """Stop ``importlib.invalidate_caches()`` from re-reading unchanged
    zip archives in this process.

    PySpark calls ``invalidate_caches()`` once per task. Before Python
    3.13 each ``zipimporter`` then re-reads its archive's whole directory,
    and a worker's ``sys.path`` holds ``pyspark.zip``, the py4j zip and
    the Spark core jar (thousands of entries each), so a task's start
    costs more than its work. The replacement re-reads an archive only
    when its ``(st_mtime_ns, st_size)`` changed since that importer last
    read it, and falls back to the original method when ``os.stat``
    fails. Idempotent; Python 3.13 drops the cache instead of re-reading,
    so there it changes nothing."""
    cls = zipimport.zipimporter
    if sys.version_info >= (3, 13) or getattr(cls, "_keeps_directory", False):
        return
    reread = cls.invalidate_caches

    def invalidate_caches(self) -> None:
        try:
            st = os.stat(self.archive)
        except OSError:
            self._directory_stamp = None
            return reread(self)
        stamp = (st.st_mtime_ns, st.st_size)
        if getattr(self, "_directory_stamp", None) != stamp:
            reread(self)
            self._directory_stamp = stamp

    cls.invalidate_caches = invalidate_caches
    cls._keeps_directory = True


def push_in_arrival_order(engine, table: pa.Table) -> None:
    """Push a ``(u, neighbors)`` Arrow table into ``engine`` in
    :func:`arrival_order`, one ``engine.push`` per vertex."""
    for nbrs in arrival_order(table)[1]:
        engine.push(nbrs)


def edges_from_stream(stream_df: DataFrame) -> DataFrame:
    """Explode a (u, neighbors) stream into an edge list (u, v)."""
    return stream_df.select("u", F.explode("neighbors").alias("v"))


def degree_df(edges_df: DataFrame) -> DataFrame:
    """Left-side degrees: (u, degree)."""
    return edges_df.groupBy("u").agg(F.count("*").alias("degree"))


@dataclass
class DatasetStats:
    """The columns of the paper's Table 1."""

    n_left: int
    n_right: int
    n_edges: int
    density: float
    avg_degree: float
    p99_degree: int


def dataset_stats(
    edges_df: DataFrame, *, n_left: int | None = None, n_right: int | None = None
) -> DatasetStats:
    """Compute Table 1 statistics from an edge list.

    ``n_left`` / ``n_right`` override the vertex-universe sizes (isolated
    vertices do not appear in the edge list); when absent the distinct
    endpoint counts are used, matching how the paper's datasets are
    specified by their edge files.
    """
    row = edges_df.agg(
        F.count("*").alias("m_edges"),
        F.countDistinct("u").alias("nu"),
        F.countDistinct("v").alias("nv"),
    ).collect()[0]
    nu = n_left if n_left is not None else int(row["nu"])
    nv = n_right if n_right is not None else int(row["nv"])
    ne = int(row["m_edges"])
    deg = degree_df(edges_df)
    drow = deg.agg(
        F.avg("degree").alias("avg_deg"),
        F.expr("percentile(degree, 0.99)").alias("p99"),
    ).collect()[0]
    return DatasetStats(
        n_left=nu,
        n_right=nv,
        n_edges=ne,
        density=ne / (nu * nv) if nu and nv else 0.0,
        avg_degree=float(drow["avg_deg"] or 0.0),
        p99_degree=int(round(float(drow["p99"] or 0.0))),
    )
