"""Structured Streaming ingestion for SOFA (repro hint: per-vertex
arrival via Structured Streaming).

The paper's stream delivers left vertices one at a time with their
incident edges. Here the stream is a Structured Streaming *file source*:
the vertex stream is written as a sequence of JSON micro-batch files
(``write_stream_files``), a streaming DataFrame reads them with the
(u, neighbors) schema, and ``foreachBatch`` feeds each micro-batch to
an incremental :class:`~repro.core.sofa.SofaEngine` held by the driver.
The engine's state is exactly Algorithm 2's sublinear state (≤ c_max
weighted centers + MG sketches), so this is the paper's one-pass
semantics riding on Spark's streaming runtime.

Each micro-batch reaches the driver as one Arrow table
(``DataFrame.toArrow``) and is pushed vertex by vertex in arrival order
(``u``) by :func:`~repro.spark.stream_df.push_in_arrival_order`, the
decoder the partition pass shares; a null list pushes as empty.
``foreachBatch`` only fetches the table and submits its push to a
one-worker executor, so the engine pushes batch *j* while Spark commits
it and plans, lists and fetches batch *j + 1*; the one worker runs the
pushes in batch order, so the result is the single-threaded one. Before
it submits, ``foreachBatch`` waits for the push two batches back, so the
driver holds at most three micro-batches (one being pushed, one queued,
one being fetched), each at most ``MAX_FILES_PER_TRIGGER ×
vertices_per_file`` vertices, whatever the stream's length.

``availableNow`` triggering processes the backlog and stops, which makes
the path deterministic and testable; a live deployment would use the
same code with a continuous trigger.
"""
from __future__ import annotations

import json
import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Optional

from pyspark.sql import SparkSession

from repro.core.sofa import SofaEngine, SofaParams, SofaResult
from repro.spark.stream_df import STREAM_SCHEMA, push_in_arrival_order
from repro.synth_data import BipartiteGraph

# Stream files per micro-batch. Outside ``addBatch`` a trigger spends
# ~0.12–0.15 s: latestOffset, walCommit and commitOffsets ~30–50 ms each,
# getBatch and queryPlanning ~20–30 ms together (query.recentProgress
# durationMs, wiki stand-in, 4 vCPU, local[4]). Fewer, larger batches pay
# that less often: the 47-file wiki stream takes 3 triggers instead of
# 12. The bound keeps a micro-batch at 16 × 256 = 4096 vertices with the
# default file size.
MAX_FILES_PER_TRIGGER = 16
_MTIME_STEP_NS = 2_000_000_000  # ≥ the coarsest common mtime resolution (2 s)


def write_stream_files(
    graph: BipartiteGraph, out_dir: str, *, vertices_per_file: int = 256
) -> int:
    """Materialize the vertex stream as numbered JSON-lines files (one
    vertex per line, ``vertices_per_file`` per file). Returns the number
    of files written.

    File numbering is arrival order. The file source orders files by
    modification time, so file ``i`` is stamped ``2 s`` after file
    ``i - 1`` (the last one at the current time): the order survives
    filesystems whose mtime resolution is as coarse as 2 s."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for start in range(0, graph.n_left, vertices_per_file):
        path = os.path.join(out_dir, f"batch-{len(paths):06d}.json")
        with open(path, "w") as f:
            for u in range(start, min(start + vertices_per_file, graph.n_left)):
                f.write(
                    json.dumps({"u": u, "neighbors": [int(v) for v in graph.adj[u]]})
                    + "\n"
                )
        paths.append(path)
    now = time.time_ns()
    for i, path in enumerate(paths):
        t = now - (len(paths) - 1 - i) * _MTIME_STEP_NS
        os.utime(path, ns=(t, t))
    return len(paths)


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
    finalized SofaResult once the backlog is drained.

    ``foreachBatch`` only fetches each micro-batch and submits its push
    to a one-worker executor, which pushes the tables in batch order
    while Spark runs the next trigger. An engine error stops the query
    at the second batch after it and is raised here with its own type.
    The executor is shut down, every push finished, before this returns
    or raises."""
    engine = SofaEngine(params, m_hint=m_hint)
    pusher = ThreadPoolExecutor(max_workers=1, thread_name_prefix="sofa-engine")
    pushes: list[Future] = []

    def feed(batch_df, batch_id: int) -> None:
        table = batch_df.toArrow()
        if len(pushes) > 1:
            pushes[-2].result()  # at most one push queued behind the running one
        pushes.append(pusher.submit(push_in_arrival_order, engine, table))

    reader = (
        spark.readStream.schema(STREAM_SCHEMA)
        .option("maxFilesPerTrigger", MAX_FILES_PER_TRIGGER)
        .json(stream_dir)
    )
    writer = reader.writeStream.foreachBatch(feed).trigger(availableNow=True)
    if checkpoint_dir is not None:
        writer = writer.option("checkpointLocation", checkpoint_dir)
    try:
        writer.start().awaitTermination()
    finally:
        pusher.shutdown(wait=True)
        for push in pushes:  # the first engine error, in its own type
            push.result()
    return engine.finalize()
