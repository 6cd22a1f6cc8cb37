"""Distributed SOFA over Spark (DESIGN.md §2, paper's conclusion sketch).

The paper notes that SOFA's building blocks — coreset-style weighted
centers and mergeable Misra–Gries sketches — extend to distributed
settings. This module implements that composition as a DataFrame
physical operator:

1. **Partition pass** (``mapInPandas``): each partition of the vertex
   stream runs the sequential :class:`~repro.core.sofa.SofaEngine` over
   its rows (ordered by ``u``, the arrival order) and emits its
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
is exactly what mapInPandas + a driver-side merge expresses.
"""
from __future__ import annotations

import pickle
from typing import Iterator, Optional

import pandas as pd
from pyspark.sql import DataFrame

from repro.core.sofa import (
    CenterState,
    SofaEngine,
    SofaParams,
    SofaResult,
    merge_center_states,
)

_CORESET_SCHEMA = "state binary"  # one pickled CenterState per row


def _partition_runner(params: SofaParams):
    """Build the mapInPandas function: run a SofaEngine over the
    partition's rows (sorted by u = arrival order) and emit its centers."""

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        dfs = list(batches)
        if not dfs:
            return
        rows = pd.concat(dfs, ignore_index=True)
        if rows.empty:
            return
        rows = rows.sort_values("u")
        eng = SofaEngine(params, m_hint=len(rows))
        for nbrs in rows["neighbors"]:
            eng.push([int(v) for v in nbrs])
        eng.flush()
        yield pd.DataFrame({"state": [pickle.dumps(c) for c in eng.centers]})

    return run


def collect_partition_coresets(
    stream_df: DataFrame, params: SofaParams, *, num_partitions: Optional[int] = None
) -> list[CenterState]:
    """First stage: run SOFA inside each partition, return the union of
    the per-partition coresets as CenterState objects on the driver."""
    df = stream_df
    if num_partitions is not None:
        df = df.repartition(num_partitions, "u")
    rows = df.mapInPandas(_partition_runner(params), schema=_CORESET_SCHEMA).collect()
    return [pickle.loads(r["state"]) for r in rows]


def distributed_sofa(
    stream_df: DataFrame,
    params: SofaParams,
    *,
    num_partitions: Optional[int] = None,
    m_hint: Optional[int] = None,
) -> SofaResult:
    """Full distributed first pass: partition-level SOFA, driver merge,
    shared postprocessing. Returns the same SofaResult as sofa_pass."""
    states = collect_partition_coresets(
        stream_df, params, num_partitions=num_partitions
    )
    # stream order across partitions: keep deterministic by sorting on
    # (weight desc) so heavy coreset centers are seen first — improves
    # merge stability and is permitted because coreset order is not part
    # of the streaming contract once the first pass is done.
    states.sort(key=lambda s: -s.weight)
    return merge_center_states(states, params, m_hint=m_hint)
