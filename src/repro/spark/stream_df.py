"""The vertex stream's one wire format (paper §2.1) and Table 1 statistics.

The streaming model delivers left vertices one by one with all incident
edges; in Spark that is a DataFrame with schema :data:`STREAM_SCHEMA`
whose row order within a partition is the arrival order. This module
owns the format: the encoder :func:`to_spark_stream` (one Arrow table)
and the decoder :func:`arrival_order`, which every Spark operator over
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
from typing import Optional

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
    concatenated adjacency arrays."""
    offsets = np.zeros(graph.n_left + 1, dtype=np.int32)
    np.cumsum(graph.degrees(), out=offsets[1:])
    values = np.concatenate([np.empty(0, np.int64), *graph.adj])
    table = pa.table({
        "u": np.arange(graph.n_left, dtype=np.int64),
        "neighbors": pa.ListArray.from_arrays(offsets, pa.array(values, pa.int64())),
    })
    df = spark.createDataFrame(table, schema=STREAM_SCHEMA)
    if num_partitions is not None:
        df = df.repartition(num_partitions, "u")
    return df


def arrival_order(table: pa.Table) -> tuple[list[int], list[list[int]]]:
    """Decode a ``(u, neighbors)`` Arrow table in arrival order: rows
    sorted by ``u`` (stable), each vertex's neighbors a slice of the
    table's flattened values cut at the list offsets, a null list read
    as ``[]``. Returns the vertex ids and their neighbor lists."""
    us = table.column("u").to_numpy()
    order = np.argsort(us, kind="stable").tolist()
    lists = table.column("neighbors").combine_chunks()
    offsets = lists.offsets.to_numpy().tolist()
    values = lists.values.tolist()
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
