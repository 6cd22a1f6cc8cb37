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
   surviving weighted centers as Arrow rows, one per center (its
   partition, support, weight, MG counters in insertion order, total
   and capacity) — a mergeable coreset of at most ``c_max`` rows per
   logical partition, the same as one task per partition would give.
2. **Driver merge**: the collected coresets (tiny: ``partitions * c_max``
   rows) come back as one Arrow table (``toArrow``), are put in
   (partition, center) order and decoded into fresh ``CenterState``s,
   then re-streamed through the engine via
   :func:`~repro.core.sofa.merge_center_states`, and the standard
   postprocessing (k-Medians + thresholding) runs.

:func:`coresets_to_arrow` and :func:`coresets_from_arrow` are the engine
state's one serialization: no center travels pickled.

The result type is the same ``SofaResult`` as the sequential engine, so
the second pass and all metrics are shared. A true JVM operator is out
of scope (DESIGN.md §6): the state is per-partition and mergeable, which
is exactly what mapInArrow + a driver-side merge expresses.
"""
from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyspark.sql.functions as F
from pyspark.sql import DataFrame

from repro.core.mg import MisraGries
from repro.core.sofa import (
    CenterState,
    SofaEngine,
    SofaParams,
    SofaResult,
    merge_center_states,
)
from repro.spark.stream_df import keep_zip_directories, list_array, push_in_arrival_order

_PART = "part"  # logical partition: spark_partition_id() of the input stream
_CORESET_SCHEMA = (  # a center a row: its partition, then its CenterState's fields
    "part int, support array<bigint>, weight double, sketch_ids array<bigint>, "
    "sketch_counts array<double>, total double, capacity int"
)
_COLUMNS = [field.split()[0] for field in _CORESET_SCHEMA.split(", ")]


def coresets_to_arrow(states: Sequence[CenterState], part: int = 0) -> pa.RecordBatch:
    """Encode centers in order, one :data:`_CORESET_SCHEMA` row each,
    tagged ``part``. A sketch's ids and counts keep its counters'
    insertion order, which ``auto_theta`` and the engine's merges read."""
    sketches = [s.sketch for s in states]
    return pa.RecordBatch.from_arrays([
        pa.array(np.full(len(states), part, dtype=np.int32)),
        list_array([s.support for s in states], pa.int64()),
        pa.array([s.weight for s in states], pa.float64()),
        list_array([np.fromiter(k.counters, np.int64, len(k)) for k in sketches], pa.int64()),
        list_array([np.fromiter(k.counters.values(), np.float64, len(k)) for k in sketches],
                    pa.float64()),
        pa.array([k.total for k in sketches], pa.float64()),
        pa.array([k.capacity for k in sketches], pa.int32()),
    ], names=_COLUMNS)


def coresets_from_arrow(table: pa.Table) -> List[CenterState]:
    """Decode :func:`coresets_to_arrow` rows, in table order, into fresh
    ``CenterState``s (supports are views of one new array)."""
    def lists(name):  # a list column's offsets into its values
        col = table.column(name).combine_chunks()
        return col.offsets.to_numpy().tolist(), np.array(col.values.to_numpy())

    sup_at, sup = lists("support")  # a writable copy, as the engine's supports are
    id_at, ids = lists("sketch_ids")
    count_at, counts = lists("sketch_counts")
    ids, counts = ids.tolist(), counts.tolist()
    weights, totals, caps = (table.column(c).to_pylist() for c in ("weight", "total", "capacity"))
    out = []
    for i in range(table.num_rows):
        sk = MisraGries(caps[i])
        sk.counters = dict(zip(ids[id_at[i]:id_at[i + 1]], counts[count_at[i]:count_at[i + 1]]))
        sk.total = totals[i]
        out.append(CenterState(sup[sup_at[i]:sup_at[i + 1]], weights[i], sk))
    return out


def _partition_runner(params: SofaParams):
    """Build the mapInArrow function: run one SofaEngine per logical
    partition over its rows (in arrival order) and emit its centers.

    The input holds the rows of one or more logical partitions, tagged
    by ``part``, each partition's rows in one run. Only the current
    partition's rows are held; a batch that spans two tags is split."""

    def coreset(part: int, batches: List[pa.RecordBatch]) -> pa.RecordBatch:
        table = pa.Table.from_batches(batches)
        eng = SofaEngine(params, m_hint=table.num_rows)
        push_in_arrival_order(eng, table)
        eng.flush()
        return coresets_to_arrow(eng.centers, part)

    def run(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        keep_zip_directories()
        part, held, done = None, [], set()
        for batch in batches:
            tags = batch.column(_PART).to_numpy()
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
    return the union of the per-partition coresets as fresh CenterState
    objects on the driver, in (partition, center) order."""
    slots = stream_df.sparkSession.sparkContext.defaultParallelism
    table = (
        stream_df.withColumn(_PART, F.spark_partition_id())
        .coalesce(slots)
        .mapInArrow(_partition_runner(params), schema=_CORESET_SCHEMA)
        .toArrow()
    )
    # stable: center order within a partition
    order = np.argsort(table.column(_PART).to_numpy(), kind="stable")
    return coresets_from_arrow(table.take(order))


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
