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

The cover here is the array form, :func:`assign_left_bmf_fast`; the
set-based pseudocode version it must match exactly is the test oracle in
``tests/second_pass_reference.py``. ``repro.spark.second_pass_df`` runs
the same cover inside each partition of the stream.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, List, Sequence

import numpy as np


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


_BLOCK_ROWS = 1024  # left vertices whose initial overlaps are counted at once


def _gather(ptr: np.ndarray, post: np.ndarray, keys: np.ndarray):
    """Concatenated CSR rows ``post[ptr[i]:ptr[i+1]]`` for i in ``keys``,
    plus the length of each."""
    lo, cnt = ptr[keys], ptr[keys + 1] - ptr[keys]
    ends = np.cumsum(cnt)
    idx = np.arange(ends[-1] if len(ends) else 0) + np.repeat(lo - (ends - cnt), cnt)
    return post[idx], cnt


def assign_left_bmf_fast(
    stream: Iterable[Sequence[int]],
    right_clusters: Sequence[Sequence[int]],
) -> BmfAssignment:
    """§4.2 greedy cover: per u, repeatedly add the positive-score argmax
    cluster until none has positive score (the set-based reference's
    output, exactly).

    Right ids that lie in some cluster are numbered by rank ("keys"); a
    CSR index maps each key to the clusters containing it. Per vertex,
    with X = Γ(u) and Y the union of the clusters chosen so far, the
    dense array ``s`` holds score(V_c | X, Y) = A_c - B_c for every
    cluster c, with A_c = |V_c ∩ (X \\ Y)| and B_c = |V_c \\ (X ∪ Y)|.
    Initially s = 2|V_c ∩ X| - |V_c|, from one ``bincount`` over the
    (row, cluster) postings of a block of rows; rows whose best initial
    score is <= 0 choose nothing. Choosing cluster j moves V_j \\ Y into
    Y: a moved key in X lowers A_c (s -= 1), any other lowers B_c
    (s += 1), for every cluster c holding it. A chosen cluster is then
    at score 0 and is never picked again. ``argmax`` takes the first
    maximum, i.e. the lowest cluster id: the reference's tie-break.
    Memory is O(block * k + Σ|V_c|).
    """
    k = len(right_clusters)
    members = [np.unique(np.asarray(vc, dtype=np.int64)) for vc in right_clusters]
    sizes = np.asarray([len(m) for m in members], dtype=np.int64)
    flat = np.concatenate(members) if k else np.empty(0, dtype=np.int64)
    keys, key_of = np.unique(flat, return_inverse=True)
    order = np.argsort(key_of, kind="stable")
    post = np.repeat(np.arange(k), sizes)[order]  # clusters of each key, ascending
    ptr = np.searchsorted(key_of[order], np.arange(len(keys) + 1))
    cluster_keys = np.split(key_of, np.cumsum(sizes)[:-1]) if k else []
    in_x = np.zeros(len(keys), dtype=bool)
    in_y = np.zeros(len(keys), dtype=bool)

    totals = np.zeros(k, dtype=np.float64)
    memberships: List[List[int]] = []
    choice_scores: List[List[float]] = []
    rows_iter = iter(stream)
    while rows := list(islice(rows_iter, _BLOCK_ROWS)):
        nb, base = len(rows), len(memberships)
        ids = [np.asarray(r, dtype=np.int64) for r in rows]
        vals = np.concatenate(ids)
        row = np.repeat(np.arange(nb), [len(a) for a in ids])
        pos = np.searchsorted(keys, vals)
        hit = pos < len(keys)
        hit[hit] = keys[pos[hit]] == vals[hit]
        # distinct (row, key) pairs, sorted by row then key
        pair = np.unique(row[hit] * len(keys) + pos[hit])
        prow, pkey = np.divmod(pair, max(len(keys), 1))
        pclusters, pcnt = _gather(ptr, post, pkey)
        overlap = np.bincount(np.repeat(prow, pcnt) * k + pclusters, minlength=nb * k)
        start = 2 * overlap.reshape(nb, k) - sizes
        bounds = np.searchsorted(prow, np.arange(nb + 1))
        memberships += [[] for _ in range(nb)]
        choice_scores += [[] for _ in range(nb)]
        for r in np.flatnonzero(start.max(axis=1, initial=0) > 0):
            x = pkey[bounds[r]:bounds[r + 1]]
            in_x[x] = True
            s = start[r].copy()
            chosen = []
            while True:
                j = int(s.argmax())
                sj = int(s[j])
                if sj <= 0:
                    break
                chosen.append((j, sj))
                totals[j] += sj
                moved = cluster_keys[j][~in_y[cluster_keys[j]]]
                in_y[moved] = True
                # postings of moved keys in X count at c, the others at k + c
                moved_c, cnt = _gather(ptr, post, moved)
                d = np.bincount(moved_c + k * np.repeat(~in_x[moved], cnt), minlength=2 * k)
                s += d[k:] - d[:k]
            in_x[x] = False
            for j, _ in chosen:
                in_y[cluster_keys[j]] = False
            chosen.sort()
            memberships[base + r] = [j for j, _ in chosen]
            choice_scores[base + r] = [float(sj) for _, sj in chosen]
    return BmfAssignment(memberships, totals, choice_scores)
