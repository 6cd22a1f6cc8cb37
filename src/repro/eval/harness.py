"""Experiment harness for Tables 2–5 (paper §6.2).

One call = one table cell: ``run_cell(spark, dataset, algorithm, k)``
runs the full two-pass pipeline for one of {sofa, sofa-auto, basso,
rs-dhillon, rs-zha} on one stand-in dataset and returns relative Hamming
gain, recall, wall-clock seconds and accounted memory — the four
quantities Tables 2, 3, 4 and 5 report.

Protocol (matching §6.2):

* **sofa**: BMF variant (§5.3) — distributed first pass with
  ``skip_kmedians`` (one candidate cluster per surviving center),
  θ line-search over {0.3..0.7}; per θ the §4.2 cover pass runs with all
  candidate clusters, clusters are pruned to the top k by total cover
  score, and the best θ by relative Hamming gain wins. Reported time is
  the full line-search time, as in the paper.
* **sofa-auto**: same first pass, θ chosen by the likelihood heuristic,
  a single second pass.
* **basso**: Asso with τ ∈ {0.2, 0.4, 0.6, 0.8}, best τ reported;
  out-of-budget datasets yield an ``oom`` cell (the paper's "—").
* **rs-dhillon / rs-zha**: §5.5 reduction with m̃ = ñ = 600 (the paper's
  15000 scaled like the datasets), then the shared §4.2 second pass.

Parameters follow §6.2: c_max = 20k, s = P99 of left degrees, MG
capacity = max(3s, 0.05 n).

The first pass for sofa/sofa-auto is cached per (dataset, k) — the two
variants share it by construction (the paper's comparison is about the
θ-selection cost, not the pass) — but its wall time is charged to every
cell that uses it.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from pyspark.sql import SparkSession

from repro.baselines.asso import (
    DEFAULT_BUDGET_BYTES as ASSO_BUDGET,
    DEFAULT_TAU_GRID,
    MemoryBudgetExceeded,
    asso_best_tau,
    estimate_workspace_bytes,
)
from repro.baselines.reduction import rs_dhillon, rs_zha
from repro.core.bmf import reconstruction_metrics
from repro.core.second_pass import assign_left_bmf_fast, prune_to_top_k
from repro.core.sofa import SofaParams, SofaResult
from repro.core.thresholds import LINE_SEARCH_THETAS, auto_theta_from_groups
from repro.eval.datasets import load_dataset
from repro.eval.memory import membership_bytes
from repro.spark.distributed_sofa import distributed_sofa
from repro.spark.stream_df import to_spark_stream
from repro.synth_data import BipartiteGraph

ALGORITHMS = ("sofa-auto", "sofa", "basso", "rs-dhillon", "rs-zha")

RS_SAMPLE = 600              # paper: 15000, scaled with the datasets
SOFA_PARTITIONS = 8


@dataclass
class CellResult:
    dataset: str
    algorithm: str
    k: int
    gain: float
    recall: float
    seconds: float
    memory_bytes: int
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.note != "oom"


def sofa_params_for(graph: BipartiteGraph, k: int) -> SofaParams:
    """§6.2 parameter rules: c_max = 20k, s = P99(degree),
    mg_capacity = max(3 s, 0.05 n); seed 0."""
    degs = graph.degrees()
    pos = degs[degs > 0]
    s = int(np.percentile(pos, 99)) if len(pos) else 1
    cap = max(3 * s, int(0.05 * graph.n_right))
    return SofaParams(
        k=k, c_max=20 * k, mg_capacity=max(8, cap), seed=0, skip_kmedians=True
    )


# -- first-pass cache --------------------------------------------------------
_pass_cache: Dict[Tuple[str, int], Tuple[SofaResult, float]] = {}


def _first_pass(spark: SparkSession, dataset: str, k: int) -> Tuple[SofaResult, float]:
    key = (dataset, k)
    if key not in _pass_cache:
        graph = load_dataset(dataset)
        params = sofa_params_for(graph, k)
        stream = to_spark_stream(spark, graph, num_partitions=SOFA_PARTITIONS)
        t0 = time.perf_counter()
        res = distributed_sofa(stream, params, m_hint=graph.n_left)
        _pass_cache[key] = (res, time.perf_counter() - t0)
    return _pass_cache[key]


def clear_pass_cache() -> None:
    _pass_cache.clear()


def _evaluate_theta(
    graph: BipartiteGraph, result: SofaResult, theta: float, k: int
) -> Tuple[float, float, List[List[int]]]:
    """Second pass for one θ: cover with all candidate clusters, prune to
    the top-k by total score, compute (gain, recall)."""
    candidates = [g.right_cluster(theta) for g in result.groups]
    bmf = assign_left_bmf_fast(graph.adj, candidates)
    kept, kept_idx = prune_to_top_k(candidates, bmf.cluster_scores, k)
    remap = {old: new for new, old in enumerate(kept_idx)}
    memberships = [
        [remap[c] for c in mem if c in remap] for mem in bmf.memberships
    ]
    met = reconstruction_metrics(graph.adj, memberships, kept)
    return met.relative_hamming_gain, met.recall, memberships


def _run_sofa(
    spark: SparkSession, dataset: str, k: int, *, auto: bool
) -> CellResult:
    graph = load_dataset(dataset)
    result, pass_seconds = _first_pass(spark, dataset, k)
    t0 = time.perf_counter()
    if auto:
        theta, _, _ = auto_theta_from_groups(result.groups)
        thetas: Sequence[float] = (theta,)
    else:
        thetas = LINE_SEARCH_THETAS
    best = (-np.inf, -np.inf, None, [])
    for th in thetas:
        gain, recall, memberships = _evaluate_theta(graph, result, th, k)
        if gain > best[0]:
            best = (gain, recall, th, memberships)
    seconds = pass_seconds + (time.perf_counter() - t0)
    mem = result.state_bytes() + membership_bytes(best[3])
    return CellResult(
        dataset=dataset,
        algorithm="sofa-auto" if auto else "sofa",
        k=k,
        gain=float(best[0]),
        recall=float(best[1]),
        seconds=seconds,
        memory_bytes=mem,
        note=f"theta={best[2]}",
    )


def _run_basso(dataset: str, k: int) -> CellResult:
    graph = load_dataset(dataset)
    t0 = time.perf_counter()
    ws = estimate_workspace_bytes(graph.n_left, graph.n_right)
    try:
        _, met = asso_best_tau(graph.adj, graph.n_right, k, budget_bytes=ASSO_BUDGET)
    except MemoryBudgetExceeded:
        return CellResult(
            dataset=dataset, algorithm="basso", k=k,
            gain=float("nan"), recall=float("nan"),
            seconds=time.perf_counter() - t0,
            memory_bytes=ws, note="oom",
        )
    # paper reports basso's average single-τ time; we report it likewise
    seconds = (time.perf_counter() - t0) / len(DEFAULT_TAU_GRID)
    return CellResult(
        dataset=dataset, algorithm="basso", k=k,
        gain=met.relative_hamming_gain, recall=met.recall,
        seconds=seconds, memory_bytes=ws,
    )


def _run_rs(dataset: str, k: int, *, zha: bool) -> CellResult:
    graph = load_dataset(dataset)
    fn = rs_zha if zha else rs_dhillon
    t0 = time.perf_counter()
    red = fn(graph.adj, k, m_tilde=RS_SAMPLE, n_tilde=RS_SAMPLE, seed=0)
    bmf = assign_left_bmf_fast(graph.adj, red.right_clusters)
    met = reconstruction_metrics(graph.adj, bmf.memberships, red.right_clusters)
    seconds = time.perf_counter() - t0
    return CellResult(
        dataset=dataset,
        algorithm="rs-zha" if zha else "rs-dhillon",
        k=k,
        gain=met.relative_hamming_gain,
        recall=met.recall,
        seconds=seconds,
        memory_bytes=red.workspace_bytes + membership_bytes(bmf.memberships),
    )


def run_cell(
    spark: Optional[SparkSession], dataset: str, algorithm: str, k: int
) -> CellResult:
    """Run one (dataset, algorithm, k) cell of Tables 2–5."""
    if algorithm in ("sofa", "sofa-auto"):
        assert spark is not None, f"{algorithm} needs a SparkSession"
        return _run_sofa(spark, dataset, k, auto=algorithm == "sofa-auto")
    if algorithm == "basso":
        return _run_basso(dataset, k)
    if algorithm in ("rs-dhillon", "rs-zha"):
        return _run_rs(dataset, k, zha=algorithm == "rs-zha")
    raise ValueError(f"unknown algorithm {algorithm!r}; known: {ALGORITHMS}")
