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

Both, and the metrics of ``repro.core.bmf``, read one index of the right
clusters, :class:`_ClusterIndex` (the :class:`~repro.core.distance.Postings`
SOFA's center index also uses), a block of rows at a time; the §4.2
cover :func:`assign_left_bmf_fast` covers a block in rounds. The
set-based pseudocode versions are the test oracles in
``tests/second_pass_reference.py``; ``repro.spark.second_pass_df`` runs
the same cover inside each partition of the stream.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, List, Sequence

import numpy as np

from repro.core.distance import Postings, _flat, _gather, _in_sorted


def assign_left_biclustering(
    stream: Iterable[Sequence[int]],
    right_clusters: Sequence[Sequence[int]],
) -> List[int]:
    """§4.1: one cluster index per left vertex, the first argmax of the
    relative overlap |Γ(u) ∩ Ṽ_i| / |Ṽ_i| (an empty cluster is -inf and
    never wins; zero overlap everywhere still assigns u somewhere, as in
    the paper). With no clusters there is nothing to assign to: ``[]``.
    """
    if not len(right_clusters):
        return []
    index = _ClusterIndex(right_clusters)
    sizes, empty = np.maximum(index.sizes, 1), index.sizes == 0
    out: List[int] = []
    for nb, _, _, x in index.blocks(stream):
        ratios = index.overlap(nb, *np.divmod(x, index.nkeys)) / sizes
        ratios[:, empty] = -np.inf
        out += ratios.argmax(axis=1).tolist()
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


class _ClusterIndex(Postings):
    """The right clusters posted for §4.1, §4.2 and
    ``repro.core.bmf.reconstruction_metrics``: the right ids that lie in
    some cluster ("keys", numbered by rank), the clusters of each key
    (``post[ptr[key]:ptr[key + 1]]``, ascending) and the keys of each
    cluster (``key_of[cptr[c]:cptr[c + 1]]``)."""

    def __init__(self, right_clusters: Sequence[Sequence[int]]):
        super().__init__()
        members = [np.unique(np.asarray(vc, dtype=np.int64)) for vc in right_clusters]
        self.add(members)
        self.k, self.nkeys = len(members), max(len(self.keys), 1)
        self.key_of = np.searchsorted(self.keys, _flat(members)[0])
        self.cptr = np.concatenate([[0], np.cumsum(self.sizes)])

    def blocks(self, rows: Iterable[Sequence[int]]):
        """Per ``_BLOCK_ROWS`` rows: their number, each id's row and value,
        and X, the ids that are keys as sorted ``row * nkeys + key`` codes."""
        rows_iter = iter(rows)
        while block := list(islice(rows_iter, _BLOCK_ROWS)):
            vals, row, _ = _flat(block)
            pos, hit = _in_sorted(self.keys, vals)
            yield len(block), row, vals, np.unique(row[hit] * self.nkeys + pos[hit])


def assign_left_bmf_fast(
    stream: Iterable[Sequence[int]],
    right_clusters: Sequence[Sequence[int]],
) -> BmfAssignment:
    """§4.2 greedy cover: per u, repeatedly add the positive-score argmax
    cluster until none has positive score (the set-based reference's
    output, exactly).

    The rows of a block of :class:`_ClusterIndex` are covered together.
    With X = Γ(u) and Y the union of the clusters u chose so far, row i
    of the array ``S`` holds score(V_c | X, Y) = A_c - B_c of the i-th
    active row for every cluster c, with A_c = |V_c ∩ (X \\ Y)| and
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
    index = _ClusterIndex(right_clusters)
    k, nkeys, sizes = index.k, index.nkeys, index.sizes
    totals = np.zeros(k, dtype=np.float64)
    memberships: List[List[int]] = []
    choice_scores: List[List[float]] = []
    for nb, _, _, x in index.blocks(stream):
        S = (2 * index.overlap(nb, *np.divmod(x, nkeys)) - sizes).astype(np.float64)
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
            ck, cnt = _gather(index.cptr, index.key_of, j)
            local = np.repeat(np.arange(len(act)), cnt)
            code = act[local] * nkeys + ck
            at, in_y = _in_sorted(y, code)
            y = np.insert(y, at[~in_y], code[~in_y])  # codes ascend, so y stays sorted
            local, moved = local[~in_y], ck[~in_y]
            in_x = _in_sorted(x, code[~in_y])[1]
            moved_c, mcnt = _gather(index.ptr, index.post, moved)
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
