"""Distributed SOFA over Spark (DESIGN.md §2, paper's conclusion sketch).

The paper notes that SOFA's building blocks — coreset-style weighted
centers and mergeable Misra–Gries sketches — extend to distributed
settings. This module implements that composition as a DataFrame
physical operator:

1. **Partition pass** (``mapInArrow``): each partition of the vertex
   stream is one *logical partition*: its rows are tagged with
   ``spark_partition_id()``, then coalesced into at most
   ``defaultParallelism`` Python tasks, since starting a task costs more
   than a partition's engine work (a second wave of four no-op Python
   tasks adds 0.03–0.05 s; one flickr logical partition's engine work at
   k = 16 is ~0.02 s; 4 vCPU, local[4]). A coalesced task reads its parent
   partitions one after another, so the runner sees each tag's rows as
   one run; per tag it runs the sequential
   :class:`~repro.core.sofa.SofaEngine` over those rows, pushed in
   arrival order (``u``) by
   :func:`~repro.spark.stream_df.push_in_arrival_order`, and emits the
   surviving weighted centers, one ``(part, pickled CenterState)`` row
   each — a mergeable coreset of at most ``c_max`` rows per logical
   partition, the same as one task per partition would give.
2. **Driver merge**: the collected coresets (tiny: ``partitions * c_max``
   rows), in (partition, center) order, are re-streamed through the
   engine via :func:`~repro.core.sofa.merge_center_states`, then the
   standard postprocessing (k-Medians + thresholding) runs.

The result type is the same ``SofaResult`` as the sequential engine, so
the second pass and all metrics are shared. A true JVM operator is out
of scope (DESIGN.md §6): the state is per-partition and mergeable, which
is exactly what mapInArrow + a driver-side merge expresses.
"""
from __future__ import annotations

import pickle
from typing import Iterator, List, Optional

import numpy as np
import pyarrow as pa
import pyspark.sql.functions as F
from pyspark.sql import DataFrame

from repro.core.sofa import (
    CenterState,
    SofaEngine,
    SofaParams,
    SofaResult,
    merge_center_states,
)
from repro.spark.stream_df import keep_zip_directories, push_in_arrival_order

_PART = "part"  # logical partition: spark_partition_id() of the input stream
_CORESET_SCHEMA = "part int, state binary"  # a center: its partition, its pickled CenterState


def _partition_runner(params: SofaParams):
    """Build the mapInArrow function: run one SofaEngine per logical
    partition over its rows (in arrival order) and emit its centers.

    The input holds the rows of one or more logical partitions, tagged
    by ``part``, each partition's rows in one run (a table without the
    tag is one partition). Only the current partition's rows are held;
    a batch that spans two tags is split."""

    def coreset(part: int, batches: List[pa.RecordBatch]) -> pa.RecordBatch:
        table = pa.Table.from_batches(batches)
        eng = SofaEngine(params, m_hint=table.num_rows)
        push_in_arrival_order(eng, table)
        eng.flush()
        states = [pickle.dumps(c) for c in eng.centers]
        return pa.RecordBatch.from_pydict({
            _PART: pa.array([part] * len(states), pa.int32()),
            "state": pa.array(states, pa.binary()),
        })

    def run(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        keep_zip_directories()
        part, held, done = None, [], set()
        for batch in batches:
            if _PART in batch.schema.names:
                tags = batch.column(_PART).to_numpy()
            else:
                tags = np.zeros(batch.num_rows, dtype=np.int32)
            starts = np.flatnonzero(np.diff(tags, prepend=-1)).tolist()  # tags are >= 0
            for lo, hi in zip(starts, [*starts[1:], len(tags)]):
                tag = int(tags[lo])
                if tag != part:
                    if tag in done:
                        raise ValueError(f"logical partition {tag} is not one run of rows")
                    if held:
                        yield coreset(part, held)
                        done.add(part)
                    part, held = tag, []
                held.append(batch.slice(lo, hi - lo))
        if held:
            yield coreset(part, held)

    return run


def collect_partition_coresets(
    stream_df: DataFrame, params: SofaParams
) -> list[CenterState]:
    """First stage: run SOFA inside each partition of ``stream_df``,
    return the union of the per-partition coresets as CenterState
    objects on the driver, in (partition, center) order."""
    slots = stream_df.sparkSession.sparkContext.defaultParallelism
    rows = (
        stream_df.withColumn(_PART, F.spark_partition_id())
        .coalesce(slots)
        .mapInArrow(_partition_runner(params), schema=_CORESET_SCHEMA)
        .collect()
    )
    rows.sort(key=lambda r: r[_PART])  # stable: center order within a partition
    return [pickle.loads(r["state"]) for r in rows]


def distributed_sofa(
    stream_df: DataFrame, params: SofaParams, *, m_hint: Optional[int] = None
) -> SofaResult:
    """Full distributed first pass: partition-level SOFA, driver merge,
    shared postprocessing. Returns the same SofaResult as sofa_pass."""
    states = collect_partition_coresets(stream_df, params)
    # Merge order: heavy coreset centers first (a stable sort, so ties
    # keep the (partition, center) order) — improves merge stability and
    # is permitted because coreset order is not part of the streaming
    # contract once the first pass is done.
    states.sort(key=lambda s: -s.weight)
    return merge_center_states(states, params, m_hint=m_hint)
