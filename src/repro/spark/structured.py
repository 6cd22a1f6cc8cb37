"""Structured Streaming ingestion for SOFA (repro hint: per-vertex
arrival via Structured Streaming).

The paper's stream delivers left vertices one at a time with their
incident edges. Here the stream is a Structured Streaming *file source*:
the vertex stream is written as a sequence of JSON micro-batch files
(``write_stream_files``), a streaming DataFrame reads them with the
(u, neighbors) schema, and ``foreachBatch`` pushes each micro-batch —
ordered by ``u``, the arrival order — into an incremental
:class:`~repro.core.sofa.SofaEngine` held by the driver. The engine's
state is exactly Algorithm 2's sublinear state (≤ c_max weighted centers
+ MG sketches), so this is the paper's one-pass semantics riding on
Spark's streaming runtime.

``availableNow`` triggering processes the backlog and stops, which makes
the path deterministic and testable; a live deployment would use the
same code with a continuous trigger.
"""
from __future__ import annotations

import json
import os
from typing import Optional

from pyspark.sql import SparkSession

from repro.core.sofa import SofaEngine, SofaParams, SofaResult
from repro.synth_data import BipartiteGraph

STREAM_SCHEMA = "u bigint, neighbors array<bigint>"
MAX_FILES_PER_TRIGGER = 4  # stream files per micro-batch


def write_stream_files(
    graph: BipartiteGraph, out_dir: str, *, vertices_per_file: int = 256
) -> int:
    """Materialize the vertex stream as numbered JSON-lines files (one
    vertex per line, ``vertices_per_file`` per file). Returns the number
    of files written. File numbering preserves arrival order."""
    os.makedirs(out_dir, exist_ok=True)
    n_files = 0
    for start in range(0, graph.n_left, vertices_per_file):
        path = os.path.join(out_dir, f"batch-{n_files:06d}.json")
        with open(path, "w") as f:
            for u in range(start, min(start + vertices_per_file, graph.n_left)):
                f.write(
                    json.dumps({"u": u, "neighbors": [int(v) for v in graph.adj[u]]})
                    + "\n"
                )
        n_files += 1
    return n_files


def sofa_from_stream_dir(
    spark: SparkSession,
    stream_dir: str,
    params: SofaParams,
    *,
    m_hint: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
) -> SofaResult:
    """Run SOFA's first pass over a directory of stream files using
    Structured Streaming with an availableNow trigger; returns the
    finalized SofaResult once the backlog is drained."""
    engine = SofaEngine(params, m_hint=m_hint)

    reader = (
        spark.readStream.schema(STREAM_SCHEMA)
        .option("maxFilesPerTrigger", MAX_FILES_PER_TRIGGER)
        .json(stream_dir)
    )

    def feed(batch_df, batch_id: int) -> None:
        rows = batch_df.orderBy("u").collect()
        for r in rows:
            engine.push([int(v) for v in (r["neighbors"] or [])])

    writer = reader.writeStream.foreachBatch(feed).trigger(availableNow=True)
    if checkpoint_dir is not None:
        writer = writer.option("checkpointLocation", checkpoint_dir)
    query = writer.start()
    query.awaitTermination()
    return engine.finalize()
