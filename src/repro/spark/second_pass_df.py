"""Second pass over the stream as Spark dataflow (paper §4).

Both second-pass algorithms are embarrassingly parallel over the left
vertices, so they map cleanly onto Catalyst:

* **Biclustering assignment** (§4.1) is pure relational algebra: explode
  the stream into edges, join against the cluster membership table,
  aggregate overlap counts per (u, cluster), rank by relative overlap
  with a window, keep rank 1. Vertices with zero overlap everywhere are
  attached to the lowest-indexed non-empty cluster (the sequential
  reference's argmax tie-break). The whole plan is shuffle-joins +
  window — no Python UDFs.

* **BMF greedy cover** (§4.2) is an iterative per-vertex loop, so it is
  a mapInPandas operator over the stream with the (small, O(k s))
  cluster table broadcast in the closure; per (u, chosen cluster) rows
  carry the score contribution so cluster totals (needed by §5.3
  pruning) are a groupBy away.
"""
from __future__ import annotations

from itertools import chain
from typing import Iterator, Sequence

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession, Window

from repro.core.second_pass import assign_left_bmf_fast


def clusters_to_df(spark: SparkSession, right_clusters: Sequence[Sequence[int]]) -> DataFrame:
    """Cluster membership table (cluster BIGINT, v BIGINT). Empty clusters
    contribute no rows (and can therefore never win an assignment)."""
    rows = [
        (int(i), int(v))
        for i, vc in enumerate(right_clusters)
        for v in vc
    ]
    return spark.createDataFrame(
        pd.DataFrame(rows, columns=["cluster", "v"])
        if rows
        else pd.DataFrame({"cluster": pd.Series(dtype="int64"), "v": pd.Series(dtype="int64")}),
        schema="cluster bigint, v bigint",
    )


def assign_left_biclustering_df(
    stream_df: DataFrame, clusters_df: DataFrame
) -> DataFrame:
    """§4.1 as a Catalyst plan. Returns (u BIGINT, cluster BIGINT)."""
    edges = stream_df.select("u", F.explode("neighbors").alias("v"))
    sizes = clusters_df.groupBy("cluster").agg(F.count("*").alias("csize"))
    overlap = (
        edges.join(clusters_df, "v")
        .groupBy("u", "cluster")
        .agg(F.count("*").alias("ov"))
        .join(sizes, "cluster")
        .withColumn("ratio", F.col("ov") / F.col("csize"))
    )
    w = Window.partitionBy("u").orderBy(F.desc("ratio"), F.asc("cluster"))
    best = (
        overlap.withColumn("rn", F.row_number().over(w))
        .filter(F.col("rn") == 1)
        .select("u", "cluster")
    )
    # zero-overlap vertices: argmax over all-zero ratios = lowest-indexed
    # non-empty cluster (matches repro.core.second_pass reference)
    default_cluster = sizes.agg(F.min("cluster").alias("cluster"))
    rest = (
        stream_df.select("u")
        .join(best.select("u"), "u", "left_anti")
        .crossJoin(default_cluster)
    )
    return best.unionByName(rest)


def assign_left_bmf_df(
    stream_df: DataFrame, right_clusters: Sequence[Sequence[int]]
) -> DataFrame:
    """§4.2 as a mapInPandas operator. Returns one row per (u, cluster)
    membership with the score contribution: (u, cluster, sc).

    Vertices covered by no cluster emit no rows. Cluster score totals are
    ``result.groupBy("cluster").agg(sum("sc"))``.
    """
    clusters = [[int(v) for v in vc] for vc in right_clusters]

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            if pdf.empty:
                continue
            res = assign_left_bmf_fast(pdf["neighbors"], clusters)
            counts = [len(mem) for mem in res.memberships]
            yield pd.DataFrame({
                "u": np.repeat(pdf["u"].to_numpy(dtype=np.int64), counts),
                "cluster": np.fromiter(chain.from_iterable(res.memberships), np.int64),
                "sc": np.fromiter(chain.from_iterable(res.choice_scores), np.float64),
            })

    return stream_df.mapInPandas(run, schema="u bigint, cluster bigint, sc double")


def cluster_scores_df(membership_df: DataFrame) -> DataFrame:
    """Total §5.3 cover score per cluster: (cluster, total_score)."""
    return membership_df.groupBy("cluster").agg(F.sum("sc").alias("total_score"))


def prune_membership_to_top_k(membership_df: DataFrame, k: int) -> DataFrame:
    """§5.3: keep memberships of the k clusters with the highest total
    score (stable: ties broken by lower cluster id)."""
    top = (
        cluster_scores_df(membership_df)
        .orderBy(F.desc("total_score"), F.asc("cluster"))
        .limit(k)
        .select("cluster")
    )
    return membership_df.join(top, "cluster").select("u", "cluster", "sc")
