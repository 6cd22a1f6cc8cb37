"""Vertex-stream DataFrames and degree statistics (paper §2.1, Table 1).

The streaming model delivers left vertices one by one with all incident
edges; in Spark that is a DataFrame with schema
``(u BIGINT, neighbors ARRAY<BIGINT>)`` whose row order within a
partition is the arrival order. Helpers here explode the stream into
an edge list and compute the Table 1 dataset
statistics (|U|, |V|, |E|, density, mean degree, P99 degree) with pure
Catalyst expressions — each has a direct SQL equivalent that the tests
check against DuckDB via the oracle.

Both Spark first passes (partition coresets, Structured Streaming) feed
a SOFA engine through one Arrow decoder, :func:`push_in_arrival_order`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyspark.sql.functions as F
from pyspark.sql import DataFrame


def push_in_arrival_order(engine, table: pa.Table) -> None:
    """Push a ``(u, neighbors)`` Arrow table into ``engine`` in arrival
    order: rows sorted by ``u`` (stable), each vertex's neighbors a slice
    of the table's flattened values cut at the list offsets, a null list
    pushed as ``[]``. One ``engine.push`` per vertex."""
    order = np.argsort(table.column("u").to_numpy(), kind="stable")
    lists = table.column("neighbors").combine_chunks()
    offsets = lists.offsets.to_numpy().tolist()
    values = lists.values.tolist()
    valid = lists.is_valid().to_numpy(zero_copy_only=False).tolist()
    for i in order.tolist():
        engine.push(values[offsets[i]:offsets[i + 1]] if valid[i] else [])


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
