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

The cover here is the array form, :func:`assign_left_bmf_fast`, which
covers a block of rows in rounds (each active row picks once per round);
the set-based pseudocode version it must match exactly is the test
oracle in ``tests/second_pass_reference.py``.
``repro.spark.second_pass_df`` runs the same cover inside each partition
of the stream.
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


_BLOCK_ROWS = 1024  # left vertices whose covers are computed together


def _gather(ptr: np.ndarray, post: np.ndarray, keys: np.ndarray):
    """Concatenated CSR rows ``post[ptr[i]:ptr[i+1]]`` for i in ``keys``,
    plus the length of each."""
    lo, cnt = ptr[keys], ptr[keys + 1] - ptr[keys]
    ends = np.cumsum(cnt)
    idx = np.arange(ends[-1] if len(ends) else 0) + np.repeat(lo - (ends - cnt), cnt)
    return post[idx], cnt


def _in_sorted(table: np.ndarray, codes: np.ndarray):
    """Positions of ``codes`` in the sorted ``table`` and whether each is
    there."""
    at = np.searchsorted(table, codes)
    found = at < len(table)
    found[found] = table[at[found]] == codes[found]
    return at, found


def assign_left_bmf_fast(
    stream: Iterable[Sequence[int]],
    right_clusters: Sequence[Sequence[int]],
) -> BmfAssignment:
    """§4.2 greedy cover: per u, repeatedly add the positive-score argmax
    cluster until none has positive score (the set-based reference's
    output, exactly).

    Right ids that lie in some cluster are numbered by rank ("keys"); a
    CSR index maps each key to the clusters containing it. The rows of a
    block of ``_BLOCK_ROWS`` vertices are covered together. With X = Γ(u)
    and Y the union of the clusters u chose so far, row i of the array
    ``S`` holds score(V_c | X, Y) = A_c - B_c of the i-th active row for
    every cluster c, with A_c = |V_c ∩ (X \\ Y)| and
    B_c = |V_c \\ (X ∪ Y)| (small integers, exact as float64). Initially
    S = 2|V_c ∩ X| - |V_c|, from one ``bincount`` over the block's
    (row, cluster) postings. Then, in rounds, every active row picks its
    ``argmax`` (the first maximum, i.e. the lowest cluster id: the
    reference's tie-break), and rows whose pick scores <= 0 leave (their
    rows of ``S`` are dropped). Picking cluster j moves V_j \\ Y into Y:
    a moved key in X lowers A_c (-1), any other lowers B_c (+1), for
    every cluster c holding it; one ``bincount`` of these ±1 over
    (active row, cluster) updates S. A picked cluster is then at score 0
    and is never picked again. X and Y are sorted ``row * |keys| + key``
    codes, so memory is O(block * k + Σ|V_c| + Σ|Γ(u)|) per block.
    """
    k = len(right_clusters)
    members = [np.unique(np.asarray(vc, dtype=np.int64)) for vc in right_clusters]
    sizes = np.asarray([len(m) for m in members], dtype=np.int64)
    flat = np.concatenate(members) if k else np.empty(0, dtype=np.int64)
    keys, key_of = np.unique(flat, return_inverse=True)
    nkeys = max(len(keys), 1)
    order = np.argsort(key_of, kind="stable")
    post = np.repeat(np.arange(k), sizes)[order]  # clusters of each key, ascending
    ptr = np.searchsorted(key_of[order], np.arange(len(keys) + 1))
    cptr = np.concatenate([[0], np.cumsum(sizes)])  # keys of cluster c: key_of[cptr[c]:cptr[c+1]]

    totals = np.zeros(k, dtype=np.float64)
    memberships: List[List[int]] = []
    choice_scores: List[List[float]] = []
    rows_iter = iter(stream)
    while rows := list(islice(rows_iter, _BLOCK_ROWS)):
        nb = len(rows)
        ids = [np.asarray(r, dtype=np.int64) for r in rows]
        vals = np.concatenate(ids)
        row = np.repeat(np.arange(nb), [len(a) for a in ids])
        pos = np.searchsorted(keys, vals)
        hit = pos < len(keys)
        hit[hit] = keys[pos[hit]] == vals[hit]
        x = np.unique(row[hit] * nkeys + pos[hit])  # X as sorted codes
        prow, pkey = np.divmod(x, nkeys)
        pclusters, pcnt = _gather(ptr, post, pkey)
        overlap = np.bincount(np.repeat(prow, pcnt) * k + pclusters, minlength=nb * k)
        S = (2 * overlap.reshape(nb, k) - sizes).astype(np.float64)
        act = np.flatnonzero(S.max(axis=1, initial=0) > 0)
        S = S[act]  # row i holds the scores of block row act[i]
        y = np.empty(0, dtype=np.int64)
        picked = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
        while len(act):
            j = S.argmax(axis=1)
            sj = S[np.arange(len(act)), j]
            if not (keep := sj > 0).all():
                act, j, sj, S = act[keep], j[keep], sj[keep], S[keep]
                if not len(act):
                    break
            picked.append((act, j, sj))
            ck, cnt = _gather(cptr, key_of, j)
            local = np.repeat(np.arange(len(act)), cnt)
            code = act[local] * nkeys + ck
            at, in_y = _in_sorted(y, code)
            y = np.insert(y, at[~in_y], code[~in_y])  # codes ascend, so y stays sorted
            local, moved = local[~in_y], ck[~in_y]
            in_x = _in_sorted(x, code[~in_y])[1]
            moved_c, mcnt = _gather(ptr, post, moved)
            S += np.bincount(
                np.repeat(local, mcnt) * k + moved_c,
                weights=np.repeat(np.where(in_x, -1.0, 1.0), mcnt),
                minlength=len(act) * k,
            ).reshape(len(act), k)
        pr, pc, ps = (np.concatenate(a) for a in zip(*picked))
        o = np.lexsort((pc, pr))
        pr, pc, ps = pr[o], pc[o], ps[o]
        totals += np.bincount(pc, weights=ps, minlength=k)
        cut = np.searchsorted(pr, np.arange(nb + 1)).tolist()
        cl, sc = pc.tolist(), ps.tolist()
        memberships += [cl[a:b] for a, b in zip(cut, cut[1:])]
        choice_scores += [sc[a:b] for a, b in zip(cut, cut[1:])]
    return BmfAssignment(memberships, totals, choice_scores)
