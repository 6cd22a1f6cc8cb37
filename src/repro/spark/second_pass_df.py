"""Second pass over the stream as Spark dataflow (paper §4.2).

The BMF greedy cover (§4.2) is embarrassingly parallel over the left
vertices but iterative per vertex, so it is a mapInPandas operator over
the stream running the array cover
:func:`~repro.core.second_pass.assign_left_bmf_fast`, with the (small,
O(k s)) cluster table broadcast in the closure; per (u, chosen cluster)
rows carry the score contribution so cluster totals (needed by §5.3
pruning) are a groupBy away. The §4.1 biclustering assignment has one
implementation, the sequential
:func:`~repro.core.second_pass.assign_left_biclustering` that the Fig. 1
job calls.
"""
from __future__ import annotations

from itertools import chain
from typing import Iterator, Sequence

import numpy as np
import pandas as pd
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession

from repro.core.second_pass import assign_left_bmf_fast


def clusters_to_df(spark: SparkSession, right_clusters: Sequence[Sequence[int]]) -> DataFrame:
    """Cluster membership table (cluster BIGINT, v BIGINT). Empty clusters
    contribute no rows."""
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
