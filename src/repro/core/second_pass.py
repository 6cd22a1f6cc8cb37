"""Second pass over the stream: recovering the left clusters (paper §4).

Two variants, matching the paper:

* **Biclustering** (§4.1): each left vertex u is assigned to exactly one
  cluster — the one maximizing ``|Γ(u) ∩ Ṽ_i| / |Ṽ_i|``.
* **BMF** (§4.2): u may join several clusters; its neighborhood Γ(u) is
  greedily covered by right clusters using the over-cover-aware score
  ``score(A | X, Y) = |(X \\ Y) ∩ A| - |A \\ (X ∪ Y)|``, stopping when no
  cluster has positive score. Per-cluster total scores are accumulated
  (§5.3 uses them to prune down to the k best clusters when the
  k-Medians postprocessing step was skipped).

Both are embarrassingly parallel over u — the Spark implementation in
``repro.spark.second_pass_df`` fans them out; this module is the
sequential reference used inside partitions and in unit tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np


def score(a: set, x: set, y: set) -> int:
    """The §4.2 covering score: reward newly covered elements of x,
    penalize fresh over-cover outside x ∪ y."""
    return len((x - y) & a) - len(a - (x | y))


def assign_left_biclustering(
    stream: Iterable[Sequence[int]],
    right_clusters: Sequence[Sequence[int]],
) -> List[int]:
    """§4.1: one cluster index per left vertex (argmax relative overlap).

    Empty right clusters never win (relative overlap treated as -inf);
    a vertex with zero overlap everywhere still gets the argmax (index
    of the first maximal ratio, i.e. 0 overlap / size), matching the
    paper's formulation where every u is assigned somewhere. With no
    clusters at all there is nothing to assign to, and the result is
    ``[]``.
    """
    vsets = [set(int(v) for v in vc) for vc in right_clusters]
    if not vsets:
        return []
    sizes = np.asarray([max(1, len(s)) for s in vsets], dtype=np.float64)
    out: List[int] = []
    for nbrs in stream:
        gu = set(int(v) for v in nbrs)
        ratios = np.asarray([len(gu & s) for s in vsets], dtype=np.float64) / sizes
        ratios[[i for i, s in enumerate(vsets) if not s]] = -np.inf
        out.append(int(np.argmax(ratios)))
    return out


@dataclass
class BmfAssignment:
    """Result of the §4.2 cover pass."""

    memberships: List[List[int]]   # per left vertex, the clusters it joined
    cluster_scores: np.ndarray     # total accumulated score per cluster (§5.3)
    choice_scores: List[List[float]]  # per vertex, score of each chosen cluster
    # memberships[u] is sorted by cluster id; choice_scores[u] is aligned
    # with it (the score each cluster contributed when it was picked).


def assign_left_bmf(
    stream: Iterable[Sequence[int]],
    right_clusters: Sequence[Sequence[int]],
) -> BmfAssignment:
    """§4.2 greedy cover: per u, repeatedly add the positive-score argmax
    cluster until none has positive score."""
    vsets = [set(int(v) for v in vc) for vc in right_clusters]
    totals = np.zeros(len(vsets), dtype=np.float64)
    memberships: List[List[int]] = []
    choice_scores: List[List[float]] = []
    for nbrs in stream:
        x = set(int(v) for v in nbrs)
        y: set = set()
        chosen: List[tuple[int, float]] = []
        avail = set(range(len(vsets)))
        while avail:
            scores = {i: score(vsets[i], x, y) for i in avail}
            i_star = max(scores, key=lambda i: (scores[i], -i))
            if scores[i_star] <= 0:
                break
            chosen.append((i_star, float(scores[i_star])))
            totals[i_star] += scores[i_star]
            y |= vsets[i_star]
            avail.discard(i_star)
        chosen.sort()
        memberships.append([c for c, _ in chosen])
        choice_scores.append([s for _, s in chosen])
    return BmfAssignment(memberships, totals, choice_scores)


def prune_to_top_k(
    right_clusters: Sequence[Sequence[int]],
    cluster_scores: np.ndarray,
    k: int,
) -> tuple[List[np.ndarray], List[int]]:
    """§5.3: keep the k clusters with the highest total cover score.

    Returns (kept clusters, kept original indices), score-descending.
    """
    order = np.argsort(-cluster_scores, kind="stable")[:k]
    kept = [np.asarray(sorted(right_clusters[i]), dtype=np.int64) for i in order]
    return kept, [int(i) for i in order]


# ---------------------------------------------------------------------------
# Fast §4.2 cover (inverted-index). Semantically identical to
# assign_left_bmf — tests assert exact agreement — but
# O(deg(u) * clusters-per-right-vertex) per vertex instead of O(k * s),
# which is what makes the θ line search over wiki-scale harness runs
# tractable.
# ---------------------------------------------------------------------------


def _build_inverted(right_clusters: Sequence[Sequence[int]]):
    """v -> list of cluster ids containing v, plus cluster sizes/sets."""
    inv: dict[int, List[int]] = {}
    vsets = []
    for i, vc in enumerate(right_clusters):
        s = set(int(v) for v in vc)
        vsets.append(s)
        for v in s:
            inv.setdefault(v, []).append(i)
    sizes = np.asarray([len(s) for s in vsets], dtype=np.int64)
    return inv, vsets, sizes


def assign_left_bmf_fast(
    stream: Iterable[Sequence[int]],
    right_clusters: Sequence[Sequence[int]],
) -> BmfAssignment:
    """Inverted-index version of :func:`assign_left_bmf` (identical
    output). Per vertex it maintains, for every cluster c,

        A_c = |V_c ∩ (X \\ Y)|   (reward term)
        B_c = |V_c \\ (X ∪ Y)|   (penalty term)

    so score(V_c | X, Y) = A_c - B_c. Choosing cluster j moves the
    elements of V_j \\ Y into Y; each moved element v decrements A_c of
    every cluster containing v when v ∈ X, else decrements B_c.
    """
    inv, vsets, sizes = _build_inverted(right_clusters)
    k = len(vsets)
    totals = np.zeros(k, dtype=np.float64)
    memberships: List[List[int]] = []
    choice_scores: List[List[float]] = []
    A = np.zeros(k, dtype=np.int64)
    for nbrs in stream:
        x = set(int(v) for v in nbrs)
        # A_c = |V_c ∩ X| initially (Y empty); B_c = size_c - A_c
        touched: List[int] = []
        for v in x:
            for ci in inv.get(v, ()):
                if A[ci] == 0:
                    touched.append(ci)
                A[ci] += 1
        # candidate clusters with possibly positive score must intersect X
        # (otherwise score = -|V_c \ Y| <= 0, never chosen)
        cand = {ci: (int(A[ci]), int(sizes[ci] - A[ci])) for ci in touched}
        y: set = set()
        chosen: List[tuple[int, float]] = []
        while cand:
            best_i, best_s = -1, None
            for ci, (a, b) in cand.items():
                s = a - b
                if best_s is None or s > best_s or (s == best_s and ci < best_i):
                    best_i, best_s = ci, s
            if best_s is None or best_s <= 0:
                break
            chosen.append((best_i, float(best_s)))
            totals[best_i] += best_s
            # move V_best \ Y into Y and update counters of co-clusters
            for v in vsets[best_i]:
                if v in y:
                    continue
                y.add(v)
                v_in_x = v in x
                for cj in inv.get(v, ()):
                    if cj not in cand:
                        continue
                    a, b = cand[cj]
                    if v_in_x:
                        cand[cj] = (a - 1, b)
                    else:
                        cand[cj] = (a, b - 1)
            cand.pop(best_i, None)
        chosen.sort()
        memberships.append([c for c, _ in chosen])
        choice_scores.append([s for _, s in chosen])
        for ci in touched:
            A[ci] = 0
    return BmfAssignment(memberships, totals, choice_scores)
