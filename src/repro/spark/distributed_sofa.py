"""Distributed SOFA over Spark (DESIGN.md §2, paper's conclusion sketch).

The paper notes that SOFA's building blocks — coreset-style weighted
centers and mergeable Misra–Gries sketches — extend to distributed
settings. This module implements that composition as a DataFrame
physical operator:

1. **Partition pass** (``mapInArrow``): each partition of the vertex
   stream runs the sequential :class:`~repro.core.sofa.SofaEngine` over
   its rows, pushed in arrival order (``u``) by
   :func:`~repro.spark.stream_df.push_in_arrival_order`, and emits its
   surviving weighted centers, one pickled ``CenterState`` (support,
   weight, MG sketch) per row — a mergeable coreset of at most
   ``c_max`` rows per partition.
2. **Driver merge**: the collected coresets (tiny: ``partitions * c_max``
   rows) are re-streamed through the engine via
   :func:`~repro.core.sofa.merge_center_states`, then the standard
   postprocessing (k-Medians + thresholding) runs.

The result type is the same ``SofaResult`` as the sequential engine, so
the second pass and all metrics are shared. A true JVM operator is out
of scope (DESIGN.md §6): the state is per-partition and mergeable, which
is exactly what mapInArrow + a driver-side merge expresses.
"""
from __future__ import annotations

import pickle
from typing import Iterator, Optional

import pyarrow as pa
from pyspark.sql import DataFrame

from repro.core.sofa import (
    CenterState,
    SofaEngine,
    SofaParams,
    SofaResult,
    merge_center_states,
)
from repro.spark.stream_df import push_in_arrival_order

_CORESET_SCHEMA = "state binary"  # one pickled CenterState per row


def _partition_runner(params: SofaParams):
    """Build the mapInArrow function: run a SofaEngine over the
    partition's rows (in arrival order) and emit its centers."""

    def run(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        batches = list(batches)
        if not sum(b.num_rows for b in batches):
            return
        table = pa.Table.from_batches(batches)
        eng = SofaEngine(params, m_hint=table.num_rows)
        push_in_arrival_order(eng, table)
        eng.flush()
        states = [pickle.dumps(c) for c in eng.centers]
        yield pa.RecordBatch.from_pydict({"state": pa.array(states, pa.binary())})

    return run


def collect_partition_coresets(
    stream_df: DataFrame, params: SofaParams
) -> list[CenterState]:
    """First stage: run SOFA inside each partition, return the union of
    the per-partition coresets as CenterState objects on the driver."""
    rows = stream_df.mapInArrow(_partition_runner(params), schema=_CORESET_SCHEMA).collect()
    return [pickle.loads(r["state"]) for r in rows]


def distributed_sofa(
    stream_df: DataFrame, params: SofaParams, *, m_hint: Optional[int] = None
) -> SofaResult:
    """Full distributed first pass: partition-level SOFA, driver merge,
    shared postprocessing. Returns the same SofaResult as sofa_pass."""
    states = collect_partition_coresets(stream_df, params)
    # stream order across partitions: keep deterministic by sorting on
    # (weight desc) so heavy coreset centers are seen first — improves
    # merge stability and is permitted because coreset order is not part
    # of the streaming contract once the first pass is done.
    states.sort(key=lambda s: -s.weight)
    return merge_center_states(states, params, m_hint=m_hint)
