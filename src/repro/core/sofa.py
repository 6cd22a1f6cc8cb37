"""SOFA — Streaming bOolean FactorizAtion (paper §3.2, Algorithm 2).

One pass over the stream of left vertices (each arriving with its
neighbor list) maintaining at most ``c_max`` weighted centers, each with
a mergeable Misra–Gries sketch of the right-vertex ids seen in its
cluster. Center opening follows the Braverman et al. streaming
k-Medians scheme: a vertex at distance ``d`` from its closest center
becomes a center with probability ``min(w * d / f, 1)`` where
``f = LB / (k (1 + log m))``; when the center budget is exhausted or the
accumulated cost exceeds ``2 * LB``, the lower bound doubles and the
pass restarts on the stream formed by the surviving weighted centers
followed by the unread suffix of the input stream.

Distances use the asymmetric weighted Hamming distance of §5.1
(``alpha = 0.1`` by default) — plain Hamming makes SOFA collapse onto
near-empty centers on sparse real data, as the paper reports.

Postprocessing (lines 21–25): a static k-Medians over the surviving
centers groups them into k clusters; per group the sketches are merged
and the right cluster is ``{ v : estimate(v) >= theta * W_i }`` with
``W_i`` the group's total weight. The BMF variant (§5.3) skips the
k-Medians and emits one group per center; reduction to k clusters then
happens in the second pass by total cover score.

The engine is *incremental* (``SofaEngine.push``) so that the Spark
layer can drive it from ``mapInPandas`` partitions and from Structured
Streaming ``foreachBatch`` callbacks; ``sofa_pass`` is the one-shot
wrapper matching the paper's pseudocode interface.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .distance import DEFAULT_ALPHA, CenterIndex
from .kmedians import kmedians
from .mg import MisraGries


@dataclass
class SofaParams:
    """Knobs of Algorithm 2 (names follow the paper)."""

    k: int                       # target number of clusters
    c_max: int                   # center budget (paper: 20k on real data)
    mg_capacity: int             # counters per MG sketch (max(3s, 0.05n))
    alpha: float = DEFAULT_ALPHA  # asymmetric Hamming weight (§5.1)
    seed: int = 0
    skip_kmedians: bool = False  # §5.3 BMF variant: one group per center

    def __post_init__(self) -> None:
        if self.c_max <= self.k:
            raise ValueError(f"c_max ({self.c_max}) must exceed k ({self.k})")


@dataclass
class CenterState:
    """A surviving center: its representative support, the accumulated
    weight of everything assigned to it, and its merged MG sketch."""

    support: np.ndarray
    weight: float
    sketch: MisraGries


@dataclass
class ClusterGroup:
    """A post-processing group of centers: merged sketch + total weight."""

    member_centers: List[int]
    total_weight: float
    sketch: MisraGries

    def right_cluster(self, theta: float) -> np.ndarray:
        thr = theta * self.total_weight
        return np.asarray(
            [v for v, _ in self.sketch.items_at_least(thr)], dtype=np.int64
        )


@dataclass
class SofaResult:
    centers: List[CenterState]
    groups: List[ClusterGroup]
    n_restarts: int
    n_processed: int
    final_lb: float

    def right_clusters(self, theta: float) -> List[np.ndarray]:
        """Ṽ_1..Ṽ_k for one rounding threshold (empty groups dropped)."""
        out = [g.right_cluster(theta) for g in self.groups]
        return [c for c in out if len(c) > 0]

    def state_bytes(self) -> int:
        """Deterministic accounting of live state (eval/memory.py)."""
        b = 0
        for c in self.centers:
            b += c.support.nbytes + 8 + 16 * len(c.sketch.counters)
        return b


def _as_support(nbrs: Sequence[int]) -> np.ndarray:
    return np.asarray(sorted(set(int(v) for v in nbrs)), dtype=np.int64)


class SofaEngine:
    """Incremental first-pass engine (Algorithm 2 lines 1–20).

    ``push(neighbors)`` feeds one fresh stream vertex, ``push_state``
    feeds a pre-weighted center (restart replay / distributed merge);
    ``finalize()`` runs the postprocessing (lines 21–25) and returns a
    :class:`SofaResult`. The engine may be finalized repeatedly — each
    call re-derives groups from the current centers.
    """

    def __init__(self, params: SofaParams, *, m_hint: Optional[int] = None):
        self.params = params
        self.m_hint = m_hint
        self._rng = np.random.default_rng(params.seed)
        self.lb = 1.0
        self.cost = 0.0
        self.n_restarts = 0
        self.n_processed = 0
        self.centers: List[CenterState] = []
        self._index = CenterIndex(alpha=params.alpha)
        self._f = self._weight_f()

    def _weight_f(self) -> float:
        m_est = self.m_hint if self.m_hint is not None else max(16, self.n_processed)
        return self.lb / (self.params.k * (1.0 + math.log(max(2, m_est))))

    # -- stream interface ---------------------------------------------------
    def push(self, nbrs: Sequence[int]) -> None:
        """Feed the next fresh vertex (weight 1, sketch = its own edges)."""
        sup = _as_support(nbrs)
        sk = MisraGries(self.params.mg_capacity)
        sk.add_all(sup.tolist())
        self.n_processed += 1
        self._ingest(CenterState(sup, 1.0, sk))

    def push_state(self, state: CenterState) -> None:
        """Feed a pre-weighted center (carries its accumulated sketch)."""
        self.n_processed += 1
        self._ingest(state)

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
                self.centers = []
                self._index = CenterIndex(alpha=self.params.alpha)
                self.cost = 0.0
                self.lb *= 2.0
                self.n_restarts += 1
                self._f = self._weight_f()

    def _step(self, item: CenterState) -> bool:
        """Process one item; returns True when a restart was triggered."""
        if self.centers:
            ci, d = self._index.nearest(item.support)
            p_open = min(item.weight * d / self._f, 1.0)
        else:
            p_open = 1.0
        if self._rng.random() < p_open:
            self._index.add(item.support)
            self.centers.append(item)
            if len(self.centers) >= self.params.c_max:
                return True
        else:
            self.cost += item.weight * d
            self.centers[ci].weight += item.weight
            self.centers[ci].sketch.merge(item.sketch)
            if self.cost > 2.0 * self.lb:
                return True
        return False

    # -- postprocessing -----------------------------------------------------
    def finalize(self) -> SofaResult:
        groups = _postprocess(self.centers, self.params)
        return SofaResult(
            centers=self.centers,
            groups=groups,
            n_restarts=self.n_restarts,
            n_processed=self.n_processed,
            final_lb=self.lb,
        )


def sofa_pass(
    stream: Iterable[Sequence[int]],
    params: SofaParams,
    *,
    m_hint: Optional[int] = None,
) -> SofaResult:
    """One-shot Algorithm 2 over an iterable of neighbor lists."""
    eng = SofaEngine(params, m_hint=m_hint)
    for nbrs in stream:
        eng.push(nbrs)
    return eng.finalize()


def merge_center_states(
    states: List[CenterState], params: SofaParams, *, m_hint: Optional[int] = None
) -> SofaResult:
    """Re-run SOFA over a list of weighted centers (used by the
    distributed implementation to combine per-partition coresets). The
    mergeability of MG sketches makes this semantically equivalent to a
    single pass over the concatenated streams, up to sketch error."""
    eng = SofaEngine(params, m_hint=m_hint or max(16, len(states)))
    for st in states:
        eng.push_state(st)
    return eng.finalize()


def _postprocess(centers: List[CenterState], params: SofaParams) -> List[ClusterGroup]:
    """Lines 21–24: group centers (k-Medians or one-per-center) and merge
    sketches/weights per group."""
    if not centers:
        return []
    if params.skip_kmedians:
        labels = list(range(len(centers)))
    else:
        labels = kmedians(
            [c.support for c in centers],
            params.k,
            weights=[c.weight for c in centers],
            seed=params.seed,
        )
    n_groups = max(labels) + 1
    groups: List[ClusterGroup] = []
    for gi in range(n_groups):
        members = [i for i, l in enumerate(labels) if l == gi]
        sk = centers[members[0]].sketch.copy()
        for i in members[1:]:
            sk.merge(centers[i].sketch)
        groups.append(
            ClusterGroup(
                member_centers=members,
                total_weight=float(sum(centers[i].weight for i in members)),
                sketch=sk,
            )
        )
    return groups
