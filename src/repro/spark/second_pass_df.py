"""Second pass over the stream as Spark dataflow (paper §4.2).

The BMF greedy cover is parallel over the left vertices but iterative
per vertex, so it is a mapInArrow operator over the stream: each Arrow
batch is decoded by :func:`~repro.spark.stream_df.arrival_order` and
covered by :func:`~repro.core.second_pass.assign_left_bmf_fast`, the
cluster table captured in the closure. Rows (u, cluster, sc) carry each
pick's score; §5.3 pruning sums them per cluster as a window in the same
scan. §4.1 runs only sequentially (the Fig. 1 job).
"""
from __future__ import annotations

from itertools import chain
from typing import Iterator, Sequence

import numpy as np
import pyarrow as pa
import pyspark.sql.functions as F
from pyspark.sql import DataFrame, SparkSession, Window

from repro.core.distance import _flat
from repro.core.second_pass import assign_left_bmf_fast
from repro.spark.stream_df import arrival_order, keep_zip_directories


def clusters_to_df(spark: SparkSession, right_clusters: Sequence[Sequence[int]]) -> DataFrame:
    """Cluster membership table (cluster BIGINT, v BIGINT). Empty clusters
    contribute no rows."""
    v, cluster, _ = _flat(right_clusters)
    table = pa.table({"cluster": cluster, "v": v})
    return spark.createDataFrame(table, schema="cluster bigint, v bigint")


def assign_left_bmf_df(
    stream_df: DataFrame, right_clusters: Sequence[Sequence[int]]
) -> DataFrame:
    """§4.2 as a mapInArrow operator. Returns one row per (u, cluster)
    membership with the score contribution: (u, cluster, sc).

    Vertices covered by no cluster emit no rows. Cluster score totals are
    ``result.groupBy("cluster").agg(sum("sc"))``.
    """

    def run(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        keep_zip_directories()
        for batch in batches:
            us, lists = arrival_order(pa.Table.from_batches([batch]))
            res = assign_left_bmf_fast(lists, right_clusters)
            yield pa.RecordBatch.from_pydict({
                "u": np.repeat(np.asarray(us, np.int64), [len(m) for m in res.memberships]),
                "cluster": np.fromiter(chain.from_iterable(res.memberships), np.int64),
                "sc": np.fromiter(chain.from_iterable(res.choice_scores), np.float64),
            })

    return stream_df.mapInArrow(run, schema="u bigint, cluster bigint, sc double")


def prune_membership_to_top_k(membership_df: DataFrame, k: int) -> DataFrame:
    """§5.3: keep memberships of the k clusters with the highest total
    score (stable: ties broken by lower cluster id).

    One scan of ``membership_df``: the totals are a window sum, so the
    cover upstream runs once (a join of the totals back onto the
    memberships would run it twice). Sums of the integer-valued ``sc``
    are exact in any order, and ``dense_rank`` gives all rows of one
    cluster the same rank."""
    total = F.sum("sc").over(Window.partitionBy("cluster"))
    rank = F.dense_rank().over(Window.orderBy(F.desc("total_score"), F.asc("cluster")))
    return (
        membership_df.withColumn("total_score", total)
        .withColumn("rank", rank)
        .where(F.col("rank") <= k)
        .select("u", "cluster", "sc")
    )
