"""Reference SOFA engine: Algorithm 2 one item at a time (test oracle).

This is the per-vertex form of the first pass: each item scans every
center for its nearest one (``ScanIndex.nearest``), and a restart
re-queues the surviving centers in front of the item queue. The engine
in ``repro.core.sofa`` walks the same stream in blocks and must leave
exactly the same state; ``state_of`` is what the tests compare.
``asymmetric_hamming`` is the §5.1 distance as a set formula, the oracle
of ``repro.core.distance.CenterIndex``, and ``hamming`` is its plain form
(alpha = 1), Algorithm 1's distance.

Run as a script, it compares the two on every stand-in (dataset, k)
cell of the grid, and on flickr and wiki at the paper's k = 200, in
three places: the sequential pass, 8 partition coresets (rows split as
the harness's stream is, ``pmod(hash(u), 8)``, through
``_partition_runner`` and decoded by the Arrow coreset codec) and the
driver merge of those coresets::

    PYTHONPATH=src python -m tests.sofa_reference
"""
from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence

import numpy as np
import pyarrow as pa

from repro.core.distance import DEFAULT_ALPHA
from repro.core.mg import MisraGries
from repro.core.sofa import (
    CenterState,
    SofaParams,
    SofaResult,
    _as_support,
    _postprocess,
    merge_center_states,
    sofa_pass,
)
from repro.eval.datasets import DATASET_NAMES, K_GRID, load_dataset
from repro.eval.harness import sofa_params_for
from repro.spark.distributed_sofa import (
    _partition_runner,
    coresets_from_arrow,
    coresets_to_arrow,
)
from repro.spark.stream_df import spark_hash_long

N_PARTS = 8


def hamming(x: Sequence[int], y: Sequence[int]) -> int:
    """Symmetric Hamming distance between two supports."""
    return len(set(x) ^ set(y))


def asymmetric_hamming(
    center: Sequence[int], point: Sequence[int], alpha: float = DEFAULT_ALPHA
) -> float:
    """Asymmetric weighted Hamming distance of a center to a point.

    cost = |supp(point) \\ supp(center)| + alpha * |supp(center) \\ supp(point)|
    """
    sc, sp = set(center), set(point)
    return len(sp - sc) + alpha * len(sc - sp)


class ScanIndex:
    """Posting lists plus a scan over every center's support size."""

    def __init__(self, alpha: float = DEFAULT_ALPHA):
        self.alpha = float(alpha)
        self._sizes: list[int] = []
        self._postings: Dict[int, list[int]] = {}

    def add(self, support: Sequence[int]) -> int:
        idx = len(self._sizes)
        vs = sorted(set(int(v) for v in support))
        self._sizes.append(len(vs))
        for v in vs:
            self._postings.setdefault(v, []).append(idx)
        return idx

    def nearest(self, point: Sequence[int]) -> tuple[int, float]:
        if not self._sizes:
            raise ValueError("no centers")
        pts = set(int(v) for v in point)
        overlaps: Dict[int, int] = {}
        for v in pts:
            for ci in self._postings.get(v, ()):
                overlaps[ci] = overlaps.get(ci, 0) + 1
        a = self.alpha
        base = len(pts)
        best_i, best_d = -1, float("inf")
        # Centers with zero overlap all share distance |S| + alpha*|supp(c)|;
        # among those the one with the smallest support wins, so scan sizes.
        for ci, size in enumerate(self._sizes):
            d = base + a * size - (1.0 + a) * overlaps.get(ci, 0)
            if d < best_d:
                best_i, best_d = ci, d
        return best_i, max(0.0, best_d)


class ReferenceEngine:
    """Same interface as ``SofaEngine``; processes each item as it arrives."""

    def __init__(self, params: SofaParams, *, m_hint: Optional[int] = None):
        self.params = params
        self.m_hint = m_hint
        self._rng = np.random.default_rng(params.seed)
        self.lb = 1.0
        self.cost = 0.0
        self.n_restarts = 0
        self.n_processed = 0
        self.n_replayed = 0
        self.n_opened = 0
        self.n_merged = 0
        self.centers: List[CenterState] = []
        self._index = ScanIndex(alpha=params.alpha)
        self._f = self._weight_f()

    def _weight_f(self) -> float:
        m_est = self.m_hint if self.m_hint is not None else max(16, self.n_processed)
        return self.lb / (self.params.k * (1.0 + math.log(max(2, m_est))))

    def push(self, nbrs: Sequence[int]) -> None:
        sup = _as_support(nbrs)
        sk = MisraGries(self.params.mg_capacity)
        sk.add_all(sup.tolist())
        self.n_processed += 1
        self._ingest(CenterState(sup, 1.0, sk))

    def push_state(self, state: CenterState) -> None:
        self.n_processed += 1
        self._ingest(state)

    def flush(self) -> None:
        pass

    def _ingest(self, item: CenterState) -> None:
        queue: List[CenterState] = [item]
        while queue:
            it = queue.pop(0)
            restart = self._step(it)
            if restart:
                # restart on (surviving centers ++ unread suffix): the
                # centers go to the front of the queue; the unread suffix
                # is whatever future push() calls deliver.
                queue = self.centers + queue
                self.n_replayed += len(self.centers)
                self.centers = []
                self._index = ScanIndex(alpha=self.params.alpha)
                self.cost = 0.0
                self.lb *= 2.0
                self.n_restarts += 1
                self._f = self._weight_f()

    def _step(self, item: CenterState) -> bool:
        if self.centers:
            ci, d = self._index.nearest(item.support)
            p_open = min(item.weight * d / self._f, 1.0)
        else:
            p_open = 1.0
        if self._rng.random() < p_open:
            self._index.add(item.support)
            self.centers.append(item)
            self.n_opened += 1
            if len(self.centers) >= self.params.c_max:
                return True
        else:
            self.cost += item.weight * d
            self.centers[ci].weight += item.weight
            self.centers[ci].sketch.merge(item.sketch)
            self.n_merged += 1
            if self.cost > 2.0 * self.lb:
                return True
        return False

    def finalize(self) -> SofaResult:
        return SofaResult(
            centers=self.centers,
            groups=_postprocess(self.centers, self.params),
            n_restarts=self.n_restarts,
            n_processed=self.n_processed,
            final_lb=self.lb,
            n_opened=self.n_opened,
            n_merged=self.n_merged,
            n_replayed=self.n_replayed,
        )


def reference_pass(stream, params: SofaParams, *, m_hint: Optional[int] = None) -> SofaResult:
    eng = ReferenceEngine(params, m_hint=m_hint)
    for nbrs in stream:
        eng.push(nbrs)
    return eng.finalize()


def reference_merge(states, params: SofaParams, *, m_hint: Optional[int] = None) -> SofaResult:
    eng = ReferenceEngine(params, m_hint=m_hint or max(16, len(states)))
    for st in states:
        eng.push_state(st)
    return eng.finalize()


def centers_of(centers: List[CenterState]) -> tuple:
    """Each center's support, weight, MG counters in order and total."""
    return tuple(
        (tuple(c.support.tolist()), c.weight, tuple(c.sketch.counters.items()),
         c.sketch.total)
        for c in centers
    )


def state_of(res: SofaResult) -> tuple:
    """Everything the first pass leaves behind, in a comparable form."""
    return centers_of(res.centers), (
        res.n_restarts, res.final_lb, res.n_processed,
        res.n_opened, res.n_merged, res.n_replayed,
    )


def copy_states(states: List[CenterState]) -> List[CenterState]:
    """A deep copy through the Arrow coreset codec: both engines merge
    into the states they are fed."""
    return decode_batches([coresets_to_arrow(states)])


def decode_batches(batches: List[pa.RecordBatch]) -> List[CenterState]:
    """The centers in coreset batches (``_partition_runner`` output)."""
    return coresets_from_arrow(pa.Table.from_batches(batches)) if batches else []


def stream_batch(us, lists) -> pa.RecordBatch:
    """A ``(u, neighbors)`` Arrow batch with Spark's stream types, every
    row tagged as logical partition 0 (``_partition_runner``'s input)."""
    return pa.RecordBatch.from_pydict({
        "u": pa.array(us, pa.int64()),
        "neighbors": pa.array(lists, pa.list_(pa.int64())),
        "part": pa.array(np.zeros(len(us), dtype=np.int32)),
    })


def run_partition(adj, us, params: SofaParams) -> List[CenterState]:
    """``_partition_runner`` on rows ``us``, handed over shuffled in two
    Arrow batches (it orders them by ``u``)."""
    us = np.random.default_rng(len(us)).permutation(us)
    half = len(us) // 2
    batches = [stream_batch(part, [adj[u] for u in part]) for part in (us[:half], us[half:])]
    return decode_batches(list(_partition_runner(params)(iter(batches))))


def coresets_match(graph, params: SofaParams) -> tuple[bool, List[CenterState]]:
    """Whether every partition's coreset equals the reference's, the
    rows split as the harness's stream is (``pmod(hash(u), N_PARTS)``),
    and the coresets in the driver's merge order."""
    same, states = True, []
    all_us = np.arange(graph.n_left)
    part_of = spark_hash_long(all_us) % N_PARTS
    for part in range(N_PARTS):
        us = all_us[part_of == part]
        coreset = run_partition(graph.adj, us, params)
        want = reference_pass([graph.adj[u].tolist() for u in us], params, m_hint=len(us))
        same &= centers_of(coreset) == centers_of(want.centers)
        states += coreset
    return same, sorted(states, key=lambda s: -s.weight)


def main() -> None:
    cells = [(ds, k) for ds in DATASET_NAMES for k in K_GRID]
    cells += [("flickr", 200), ("wiki", 200)]
    print("dataset k pass coresets merge block_pass_s reference_pass_s")
    for ds, k in cells:
        g = load_dataset(ds)
        params = sofa_params_for(g, k)
        stream = [a.tolist() for a in g.adj]
        t0 = time.perf_counter()
        got = sofa_pass(stream, params, m_hint=g.n_left)
        t1 = time.perf_counter()
        want = reference_pass(stream, params, m_hint=g.n_left)
        t2 = time.perf_counter()
        same_parts, states = coresets_match(g, params)
        merged = merge_center_states(copy_states(states), params, m_hint=g.n_left)
        ref_merged = reference_merge(copy_states(states), params, m_hint=g.n_left)
        print(ds, k, state_of(got) == state_of(want), same_parts,
              state_of(merged) == state_of(ref_merged),
              f"{t1 - t0:.2f}", f"{t2 - t1:.2f}", flush=True)


if __name__ == "__main__":
    main()
