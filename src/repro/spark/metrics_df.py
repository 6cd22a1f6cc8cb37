"""Reconstruction metrics as Spark SQL joins (paper §6.2 measures).

Relative Hamming gain and recall compare the biadjacency matrix B
against B̃ = L ∘ R. Neither matrix is ever materialized densely: B is
the edge list, and B̃'s non-zero cells are the union of rectangles
Ũ_i × Ṽ_i, produced by joining the left-membership table with the
right-cluster table and deduplicating. The quantities

    ones   = |{B = 1}|             (edge count)
    tp     = |{B = 1 ∧ B̃ = 1}|    (edges ∩ reconstructed cells)
    fp     = |{B = 0 ∧ B̃ = 1}|    (reconstructed cells − edges)
    errors = (ones − tp) + fp      (symmetric difference)

give gain = 1 − errors/ones and recall = tp/ones — exactly the paper's
definitions, computed by :class:`repro.core.bmf.ReconstructionMetrics`
(re-exported here as ``SparkReconstruction``). Every aggregate is plain
relational algebra, so the tests oracle-check these against DuckDB SQL
on the same inputs.
"""
from __future__ import annotations

import pyspark.sql.functions as F
from pyspark.sql import DataFrame

from repro.core.bmf import ReconstructionMetrics as SparkReconstruction  # noqa: F401


def reconstructed_cells_df(membership_df: DataFrame, clusters_df: DataFrame) -> DataFrame:
    """Distinct non-zero cells (u, v) of B̃ = L ∘ R: the Boolean matrix
    product is exactly 'u and v share at least one cluster'."""
    return (
        membership_df.select("u", "cluster")
        .join(clusters_df, "cluster")
        .select("u", "v")
        .distinct()
    )


def metrics_summary_df(
    edges_df: DataFrame, membership_df: DataFrame, clusters_df: DataFrame
) -> DataFrame:
    """Single-row DataFrame (ones, tp, fp): the counters of
    :class:`SparkReconstruction` from one Catalyst plan and one collect;
    zeros when there are neither edges nor reconstructed cells."""
    cells = reconstructed_cells_df(membership_df, clusters_df)
    edges = edges_df.select("u", "v").distinct()
    both = edges.withColumn("in_b", F.lit(1)).join(
        cells.withColumn("in_bt", F.lit(1)), ["u", "v"], "full_outer"
    )
    in_b, in_bt = F.coalesce("in_b", F.lit(0)), F.coalesce("in_bt", F.lit(0))
    # coalesce: the sum over no rows (an edgeless, uncovered stream) is null
    return both.agg(
        F.coalesce(F.sum(in_b), F.lit(0)).alias("ones"),
        F.coalesce(F.sum(in_b * in_bt), F.lit(0)).alias("tp"),
        F.coalesce(F.sum((F.lit(1) - in_b) * in_bt), F.lit(0)).alias("fp"),
    )
