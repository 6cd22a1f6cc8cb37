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
layer can drive it from ``mapInArrow`` partitions and from Structured
Streaming ``foreachBatch`` callbacks; ``sofa_pass`` is the one-shot
wrapper matching the paper's pseudocode interface. ``push`` queues the
vertex, and every ``BLOCK`` vertices the queue is walked in order, so
the state is at most ``c_max`` centers plus ``BLOCK`` queued items. One
block query gives each row its nearest center among those open when the
block starts. This is exact: a merge changes no support, and a center
opened at row r replaces a later row's nearest only when strictly
closer, so the lower index keeps a tie, as a scan in order would. (The
clamp of distances at 0 hides no tie: only a center with the row's own
support is within 0, and no second one opens.) A restart ends the
block; the survivors, then the unwalked rest, are queued again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .distance import DEFAULT_ALPHA, CenterIndex, block_distances
from .kmedians import kmedians
from .mg import MisraGries

BLOCK = 64  # items per block query; 32 and 128 were no faster on the stand-ins


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
    n_opened: int    # items that became centers (replays included)
    n_merged: int    # items merged into their nearest center
    n_replayed: int  # surviving centers re-fed after a restart

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
    # a set of Python ints beats np.unique on rows of a few dozen ids
    return np.array(sorted(set(nbrs)), dtype=np.int64)


class SofaEngine:
    """Incremental first-pass engine (Algorithm 2 lines 1–20).

    ``push(neighbors)`` queues a fresh vertex, ``push_state`` a weighted
    center (distributed merge); ``flush()`` walks the queue, and
    ``centers`` and the counters cover walked items only. ``finalize()``
    flushes and runs the postprocessing (lines 21–25), repeatably.
    """

    def __init__(self, params: SofaParams, *, m_hint: Optional[int] = None):
        self.params = params
        self.m_hint = m_hint
        self._rng = np.random.default_rng(params.seed)
        self.lb = 1.0
        self.cost = 0.0
        self.n_restarts = self.n_processed = self.n_replayed = 0
        self.n_opened = self.n_merged = 0
        self.centers: List[CenterState] = []
        self._pending: List[CenterState] = []
        self._index = CenterIndex(alpha=params.alpha)
        self._f = self._weight_f()

    def _weight_f(self) -> float:
        m_est = self.m_hint if self.m_hint is not None else max(16, self.n_processed)
        return self.lb / (self.params.k * (1.0 + math.log(max(2, m_est))))

    # -- stream interface ---------------------------------------------------
    def push(self, nbrs: Sequence[int]) -> None:
        """Feed the next fresh vertex (weight 1, sketch = its own edges)."""
        sup = _as_support(nbrs)
        ids = sup.tolist()
        sk = MisraGries(self.params.mg_capacity)
        # distinct ids added one at a time: every (capacity + 1)-th empties
        # the sketch, so the last len % (capacity + 1) ids hold a 1 each
        sk.counters = dict.fromkeys(ids[len(ids) - len(ids) % (sk.capacity + 1):], 1.0)
        sk.total = float(len(ids))
        self.push_state(CenterState(sup, 1.0, sk))

    def push_state(self, state: CenterState) -> None:
        """Feed a pre-weighted center (carries its accumulated sketch).

        The engine takes ownership: if ``state`` opens a center, later
        items merge into it, changing its weight and sketch in place.
        Feed a copy (e.g. a fresh decoding of the Arrow coresets) to
        keep the original."""
        self._pending.append(state)
        if len(self._pending) >= BLOCK:
            self.flush()

    def flush(self) -> None:
        """Walk the queued items in order, ``BLOCK`` at a time. After a
        restart the queue is the surviving centers (replays), then the
        unwalked rest; its first ``n_rep`` items are replays."""
        queue, self._pending = self._pending, []
        i = n_rep = 0
        while i < len(queue):
            n = self._walk(queue[i:i + BLOCK], n_rep - i)
            i += n or BLOCK
            if n:
                queue, n_rep = self.centers + queue[i:], len(self.centers) + max(0, n_rep - i)
                i = 0
                self.centers = []
                self._index = CenterIndex(alpha=self.params.alpha)
                self.cost = 0.0
                self.lb *= 2.0
                self.n_restarts += 1
                self._f = self._weight_f()

    def _walk(self, block: List[CenterState], n_rep: int) -> int:
        """Lines 5–20 for each row in order (the first ``n_rep`` are
        replays). Returns the rows walked if one restarts the pass, else 0."""
        sups = [it.support for it in block]
        among = None  # the block's distances among its rows, made at its first open
        ci, dist = np.zeros(len(block), dtype=np.int64), np.full(len(block), np.inf)
        if self.centers:
            ci, dist = self._index.nearest_block(sups)
        for r, it in enumerate(block):
            self.n_replayed += r < n_rep
            self.n_processed += r >= n_rep
            d = float(dist[r])
            p_open = min(it.weight * d / self._f, 1.0) if self.centers else 1.0
            if self._rng.random() < p_open:
                self._index.add(it.support)
                self.centers.append(it)
                self.n_opened += 1
                if len(self.centers) >= self.params.c_max:
                    return r + 1
                if among is None:
                    among = block_distances(sups, self.params.alpha)
                col = among[r]
                win = col < dist  # strict: a tie keeps the lower index
                win[:r + 1] = False
                ci[win], dist[win] = len(self.centers) - 1, col[win]
            else:
                self.cost += it.weight * d
                self.centers[ci[r]].weight += it.weight
                self.centers[ci[r]].sketch.merge(it.sketch)
                self.n_merged += 1
                if self.cost > 2.0 * self.lb:
                    return r + 1
        return 0

    # -- postprocessing -----------------------------------------------------
    def finalize(self) -> SofaResult:
        self.flush()
        groups = _postprocess(self.centers, self.params)
        return SofaResult(
            centers=self.centers,
            groups=groups,
            n_restarts=self.n_restarts,
            n_processed=self.n_processed,
            final_lb=self.lb,
            n_opened=self.n_opened,
            n_merged=self.n_merged,
            n_replayed=self.n_replayed,
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
    single pass over the concatenated streams, up to sketch error.

    The states are consumed, as by :meth:`SofaEngine.push_state`: those
    that open centers absorb later merges in place, and the result's
    centers are those objects. Merging the same list twice therefore
    merges different inputs (flickr's k = 16 coresets: 299 centers the
    second time instead of 237); merge fresh copies instead."""
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
    by_group: List[List[int]] = [[] for _ in range(max(labels) + 1)]
    for i, gi in enumerate(labels):
        by_group[gi].append(i)
    groups: List[ClusterGroup] = []
    for members in by_group:
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
