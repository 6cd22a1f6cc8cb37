"""Reconstruction metrics as one Spark operator (paper §6.2 measures).

B and B̃ = L ∘ R are never materialized. Edges and memberships become
one neighbor and one cluster list per left vertex, full-outer-joined on
``u``; a ``mapInArrow`` operator decodes each Arrow batch with
:func:`~repro.spark.stream_df.arrival_order` and counts it with
:func:`repro.core.bmf.reconstruction_metrics` (cluster table collected
once, captured in the closure); a final sum adds the batches' (ones, tp,
fp) up. ``SparkReconstruction`` is :class:`repro.core.bmf.ReconstructionMetrics`.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pyarrow as pa
import pyspark.sql.functions as F
from pyspark.sql import DataFrame

from repro.core.bmf import ReconstructionMetrics as SparkReconstruction  # noqa: F401
from repro.core.bmf import reconstruction_metrics
from repro.spark.stream_df import arrival_order, keep_zip_directories


def metrics_summary_df(
    edges_df: DataFrame, membership_df: DataFrame, clusters_df: DataFrame
) -> DataFrame:
    """Single-row DataFrame (ones, tp, fp): the counters of
    :class:`SparkReconstruction`, zeros on an edgeless, uncovered stream.
    Duplicate edges count once; a membership of a cluster with no rows in
    ``clusters_df`` covers nothing."""
    cluster, v = (c.to_numpy() for c in clusters_df.select("cluster", "v").toArrow().columns)
    k = int(cluster.max(initial=-1)) + 1
    clusters = np.split(v[np.argsort(cluster, kind="stable")], np.cumsum(np.bincount(cluster))[:-1])

    def run(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        keep_zip_directories()
        for batch in batches:
            table = pa.Table.from_batches([batch])
            adj = arrival_order(table.select(["u", "neighbors"]))[1]
            mems = arrival_order(table.select(["u", "clusters"]).rename_columns(["u", "neighbors"]))[1]
            met = reconstruction_metrics(adj, mems, clusters)
            yield pa.RecordBatch.from_pydict(
                {"ones": [met.ones], "tp": [met.true_positives], "fp": [met.false_positives]})

    rows = edges_df.groupBy("u").agg(F.collect_list("v").alias("neighbors")).join(
        membership_df.where(F.col("cluster").between(0, k - 1))
        .groupBy("u").agg(F.collect_list("cluster").alias("clusters")),
        "u", "full_outer",
    )
    # coalesce: the sum over no rows (an edgeless, uncovered stream) is null
    return rows.mapInArrow(run, schema="ones bigint, tp bigint, fp bigint").agg(
        *(F.coalesce(F.sum(c), F.lit(0)).alias(c) for c in ("ones", "tp", "fp"))
    )
