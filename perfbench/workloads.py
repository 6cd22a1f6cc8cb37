"""The benchmark's workloads.

Each workload prepares its inputs from the run's seed and warms up with
one untimed repetition on them (JVM code paths, Python workers, the
driver's heap). Each call to :meth:`run` is then one repetition,
returning an :class:`Outcome` (wall time plus the user-visible results).
:meth:`check` lists what is wrong with an outcome; :meth:`layers` turns
one traced repetition into the per-layer metrics.

Inputs: the stand-in datasets of ``repro.eval.datasets`` (the Table 2
shapes). The seed relabels the right-hand vertices of the stand-in with
a seeded permutation; seed 0 is the identity and reproduces the Table 2
cell exactly. The program only ever receives the generated graph:
``harness.load_dataset`` is served from here for the run.
"""
from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import repro.eval.harness as harness
import repro.spark.distributed_sofa as dsofa
import repro.spark.structured as structured
from repro.core.bmf import reconstruction_metrics
from repro.core.sofa import SofaEngine, sofa_pass
from repro.eval.datasets import _SPECS
from repro.eval.memory import membership_bytes
from repro.spark.metrics_df import SparkReconstruction, metrics_summary_df
from repro.spark.second_pass_df import (
    assign_left_bmf_df,
    clusters_to_df,
    prune_membership_to_top_k,
)
from repro.spark.stream_df import edges_from_stream
from repro.synth_data import BipartiteGraph, planted_zipf_bipartite

from spans import NullTracer, Tracer, instrument, traced

K = 16                 # the Table 2/4 cell
STREAM_THETA = 0.5     # rounding threshold of the stream-wiki second pass

# per-layer metrics, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "second_pass.cover_s": "s",
    "second_pass.cover_calls": "count",
    "second_pass.candidate_entries": "count",
    "second_pass.memberships": "count",
    "second_pass.prune_s": "s",
    "harness.self_s": "s",
    "thresholds.auto_s": "s",
    "thresholds.counters": "count",
    "distributed_sofa.partition_s": "s",
    "distributed_sofa.input_rows": "count",
    "distributed_sofa.coreset_rows": "count",
    "distributed_sofa.self_s": "s",
    "sofa.merge_s": "s",
    "sofa.merge_inputs": "count",
    "sofa.merge_restarts": "count",
    "sofa.merge_final_lb": "cost",
    "sofa.merge_centers": "count",
    "synth_data.to_spark_stream_s": "s",
    "structured.pass_s": "s",
    "structured.non_engine_s": "s",
    "sofa.push_s": "s",
    "sofa.pushes": "count",
    "sofa.centers": "count",
    "sofa.restarts": "count",
    "sofa.final_lb": "cost",
    "second_pass_df.cover_s": "s",
    "second_pass_df.rows": "count",
    "metrics_df.summary_s": "s",
    "bmf.metrics_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def make_graph(dataset: str, seed: int, *, shrink: int = 1) -> BipartiteGraph:
    """The stand-in ``dataset`` with its right vertices relabelled by
    ``seed``; ``shrink`` > 1 scales it down (for the self-test)."""
    spec = dict(_SPECS[dataset])
    if shrink > 1:
        for key in ("n_left", "n_right"):
            spec[key] //= shrink
        spec["k_true"] = max(2, spec["k_true"] // shrink)
        spec["r"] = min(spec["r"], spec["n_right"] // 4)
    g = planted_zipf_bipartite(**spec)
    if seed == 0:
        return g
    perm = np.random.default_rng(seed).permutation(g.n_right).astype(np.int64)
    return BipartiteGraph(
        g.n_left,
        g.n_right,
        [np.sort(perm[a]) for a in g.adj],
        g.left_clusters,
        [np.sort(perm[c]) for c in g.right_clusters],
    )


@dataclass
class Outcome:
    wall_s: float
    gain: float
    recall: float
    memory_bytes: int
    extra: Dict[str, object] = field(default_factory=dict)


def _common_problems(out: Outcome, first: Optional[Outcome]) -> List[str]:
    bad = []
    # gain = recall - fp/ones, computed as 1 - errors/ones: allow rounding
    if not (0.0 < out.gain <= out.recall + 1e-12 and out.recall <= 1.0):
        bad.append(f"expected 0 < gain <= recall <= 1, got {out.gain}, {out.recall}")
    if first is not None:
        for name in ("gain", "recall", "memory_bytes"):
            if getattr(out, name) != getattr(first, name):
                bad.append(f"{name} changed between repetitions")
    return bad


def _layer_row(tr: Tracer, rep: int, totals: Dict[str, str],
               selves: Optional[Dict[str, str]] = None) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition: its counters, summed
    span durations (``totals``: metric -> span) and self times
    (``selves``). Layers the workload does not reach read 0."""
    m = dict.fromkeys(LAYER_METRICS, 0.0)
    m.update((k, v) for k, v in tr.counts[rep].items() if k in m)
    for metric, span in totals.items():
        m[metric] = tr.total(rep, span)
    for metric, span in (selves or {}).items():
        m[metric] = tr.self_time(rep, span)
    return m


class HarnessCell:
    """One Table 2/4 cell through ``harness.run_cell`` (distributed first
    pass on 8 partitions, then the θ line search or sofa-auto θ)."""

    def __init__(self, spark, dataset: str, algorithm: str, seed: int,
                 work_dir: str, shrink: int = 1):
        self.spark, self.dataset, self.algorithm = spark, dataset, algorithm
        self.seed, self.work_dir, self.shrink = seed, work_dir, shrink
        self.graph: Optional[BipartiteGraph] = None
        self._rows = spark.sparkContext.accumulator(0)

    def prepare(self) -> None:
        self.graph = make_graph(self.dataset, self.seed, shrink=self.shrink)

    def warm_up(self) -> None:
        self.run(NullTracer())

    def finish_setup(self) -> None:
        pass

    def _load_dataset(self, name: str) -> BipartiteGraph:
        if name != self.dataset:
            raise KeyError(name)
        return self.graph

    def run(self, tracer) -> Outcome:
        patches = {(harness, "load_dataset"): self._load_dataset}
        if isinstance(tracer, Tracer):
            patches.update(self._probes(tracer))
        harness.clear_pass_cache()
        rows0 = self._rows.value
        with instrument(patches):
            t0 = time.perf_counter()
            with tracer.span("harness.run_cell"):
                cell = harness.run_cell(self.spark, self.dataset, self.algorithm, K)
            wall = time.perf_counter() - t0
        tracer.set("distributed_sofa.input_rows", self._rows.value - rows0)
        return Outcome(wall, cell.gain, cell.recall, cell.memory_bytes)

    def _probes(self, tr: Tracer) -> dict:
        rows = self._rows
        runner = dsofa._partition_runner

        def counting_runner(params):
            run = runner(params)

            def counted(batches):
                def tee(it):
                    for pdf in it:
                        rows.add(len(pdf))
                        yield pdf

                return run(tee(batches))

            return counted

        def cover_in(args, kwargs):
            tr.add("second_pass.cover_calls")
            tr.add("second_pass.candidate_entries", sum(len(c) for c in args[1]))

        def cover_out(res, args, kwargs):
            tr.add("second_pass.memberships", sum(len(m) for m in res.memberships))

        def merge_out(res, args, kwargs):
            tr.add("sofa.merge_inputs", len(args[0]))
            tr.set("sofa.merge_restarts", res.n_restarts)
            tr.set("sofa.merge_final_lb", res.final_lb)
            tr.set("sofa.merge_centers", len(res.centers))

        def auto_in(args, kwargs):
            tr.add("thresholds.counters", sum(len(g.sketch.counters) for g in args[0]))

        return {
            (harness, "to_spark_stream"): traced(
                tr, "synth_data.to_spark_stream", harness.to_spark_stream),
            (harness, "distributed_sofa"): traced(
                tr, "distributed_sofa.first_pass", harness.distributed_sofa),
            (dsofa, "_partition_runner"): counting_runner,
            (dsofa, "collect_partition_coresets"): traced(
                tr, "distributed_sofa.partition", dsofa.collect_partition_coresets,
                after=lambda res, a, k: tr.add("distributed_sofa.coreset_rows", len(res))),
            (dsofa, "merge_center_states"): traced(
                tr, "sofa.merge", dsofa.merge_center_states, after=merge_out),
            (harness, "auto_theta_from_groups"): traced(
                tr, "thresholds.auto", harness.auto_theta_from_groups, before=auto_in),
            (harness, "assign_left_bmf_fast"): traced(
                tr, "second_pass.cover", harness.assign_left_bmf_fast,
                before=cover_in, after=cover_out),
            (harness, "prune_to_top_k"): traced(
                tr, "second_pass.prune", harness.prune_to_top_k),
            (harness, "reconstruction_metrics"): traced(
                tr, "bmf.metrics", harness.reconstruction_metrics),
        }

    def check(self, out: Outcome, first: Optional[Outcome]) -> List[str]:
        return _common_problems(out, first)

    def layers(self, tr: Tracer, rep: int) -> Dict[str, float]:
        return _layer_row(tr, rep, {
            "second_pass.cover_s": "second_pass.cover",
            "second_pass.prune_s": "second_pass.prune",
            "thresholds.auto_s": "thresholds.auto",
            "distributed_sofa.partition_s": "distributed_sofa.partition",
            "sofa.merge_s": "sofa.merge",
            "synth_data.to_spark_stream_s": "synth_data.to_spark_stream",
            "bmf.metrics_s": "bmf.metrics",
        }, {
            "harness.self_s": "harness.run_cell",
            "distributed_sofa.self_s": "distributed_sofa.first_pass",
        })


class StreamWiki:
    """The all-dataflow path on wiki: Structured Streaming first pass with
    one driver-held engine, the Spark §4.2 cover at θ = 0.5 pruned to the
    top k, and the one-plan Spark SQL metrics."""

    dataset = "wiki"

    def __init__(self, spark, seed: int, work_dir: str, shrink: int = 1):
        self.spark, self.seed, self.work_dir, self.shrink = spark, seed, work_dir, shrink
        self.graph: Optional[BipartiteGraph] = None
        self.stream_dir = ""
        self._round = 0
        self._runs = 0
        self._oracle = None

    def prepare(self) -> None:
        if self.stream_dir:
            shutil.rmtree(self.stream_dir)
        self.graph = make_graph(self.dataset, self.seed, shrink=self.shrink)
        self.stream_dir = os.path.join(self.work_dir, f"stream-{self._round}")
        self._round += 1
        structured.write_stream_files(self.graph, self.stream_dir)

    def warm_up(self) -> None:
        self.run(NullTracer())

    def finish_setup(self) -> None:
        """Sequential reference for the checks (not part of set-up time)."""
        params = harness.sofa_params_for(self.graph, K)
        self._oracle = sofa_pass(
            [a.tolist() for a in self.graph.adj], params, m_hint=self.graph.n_left
        )

    def run(self, tracer) -> Outcome:
        spark, graph, stream_dir = self.spark, self.graph, self.stream_dir
        params = harness.sofa_params_for(graph, K)
        checkpoint = os.path.join(self.work_dir, f"checkpoint-{self._runs}")
        self._runs += 1
        patches = self._probes(tracer) if isinstance(tracer, Tracer) else {}
        with instrument(patches):
            t0 = time.perf_counter()
            with tracer.span("structured.pass"):
                res = structured.sofa_from_stream_dir(
                    spark, stream_dir, params,
                    m_hint=graph.n_left, checkpoint_dir=checkpoint,
                )
            candidates = [g.right_cluster(STREAM_THETA).tolist() for g in res.groups]
            stream_df = spark.read.schema(structured.STREAM_SCHEMA).json(stream_dir)
            with tracer.span("second_pass_df.cover"):
                pruned = prune_membership_to_top_k(
                    assign_left_bmf_df(stream_df, candidates), K
                ).toPandas()
            with tracer.span("metrics_df.summary"):
                membership_df = spark.createDataFrame(
                    pruned[["u", "cluster"]], schema="u bigint, cluster bigint"
                )
                row = metrics_summary_df(
                    edges_from_stream(stream_df), membership_df,
                    clusters_to_df(spark, candidates),
                ).collect()[0]
            memberships: List[List[int]] = [[] for _ in range(graph.n_left)]
            for u, c in zip(pruned["u"].tolist(), pruned["cluster"].tolist()):
                memberships[u].append(c)
            counts = SparkReconstruction(int(row["ones"]), int(row["tp"]), int(row["fp"]))
            memory = res.state_bytes() + membership_bytes(memberships)
            wall = time.perf_counter() - t0
        shutil.rmtree(checkpoint, ignore_errors=True)
        tracer.set("second_pass_df.rows", len(pruned))
        tracer.set("sofa.centers", len(res.centers))
        tracer.set("sofa.restarts", res.n_restarts)
        tracer.set("sofa.final_lb", res.final_lb)
        return Outcome(
            wall, counts.relative_hamming_gain, counts.recall, memory,
            {"result": res, "counts": counts, "memberships": memberships,
             "candidates": candidates},
        )

    def _probes(self, tr: Tracer) -> dict:
        class TimedEngine(SofaEngine):
            def push(self, nbrs) -> None:
                t0 = time.perf_counter()
                super().push(nbrs)
                tr.add("sofa.push_s", time.perf_counter() - t0)
                tr.add("sofa.pushes")

        return {(structured, "SofaEngine"): TimedEngine}

    def check(self, out: Outcome, first: Optional[Outcome]) -> List[str]:
        bad = _common_problems(out, first)
        res, want = out.extra["result"], self._oracle
        if res.n_processed != self.graph.n_left:
            bad.append(f"stream pushed {res.n_processed} of {self.graph.n_left} vertices")
        same_centers = len(res.centers) == len(want.centers) and all(
            np.array_equal(a.support, b.support) and a.weight == b.weight
            for a, b in zip(res.centers, want.centers)
        )
        if not same_centers:
            bad.append("structured centers differ from sofa_pass")
        if (res.final_lb, res.n_restarts) != (want.final_lb, want.n_restarts):
            bad.append("structured final_lb/restarts differ from sofa_pass")
        seq = reconstruction_metrics(
            self.graph.adj, out.extra["memberships"], out.extra["candidates"]
        )
        got = out.extra["counts"]
        if (got.ones, got.true_positives, got.errors) != (
            seq.ones, seq.true_positives, seq.errors
        ):
            bad.append("metrics_df counts differ from reconstruction_metrics")
        return bad

    def layers(self, tr: Tracer, rep: int) -> Dict[str, float]:
        m = _layer_row(tr, rep, {
            "structured.pass_s": "structured.pass",
            "second_pass_df.cover_s": "second_pass_df.cover",
            "metrics_df.summary_s": "metrics_df.summary",
        })
        m["structured.non_engine_s"] = m["structured.pass_s"] - m["sofa.push_s"]
        return m


def build(name: str, spark, seed: int, work_dir: str, *, shrink: int = 1):
    """The workload ``name``; ``shrink`` > 1 scales its inputs down."""
    if name == "sofa-wiki":
        return HarnessCell(spark, "wiki", "sofa", seed, work_dir, shrink)
    if name == "sofa-auto-flickr":
        return HarnessCell(spark, "flickr", "sofa-auto", seed, work_dir, shrink)
    if name == "stream-wiki":
        return StreamWiki(spark, seed, work_dir, shrink)
    raise KeyError(name)


# BENCHMARK.json lists sofa-auto-flickr and stream-wiki, which between them
# reach every layer. sofa-wiki (the 5-θ line search, ~12 s a repetition on
# 4 cores) stays runnable by name: a third listed workload would not fit
# the benchmark's total time budget.
WORKLOADS = ("sofa-wiki", "sofa-auto-flickr", "stream-wiki")
