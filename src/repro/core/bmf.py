"""Boolean matrix factorization quality measures (paper §2.2, §6.2).

Clusters ↔ factors: the left clusters Ũ_i are the columns of
L ∈ {0,1}^{m×k} and the right clusters Ṽ_i are the rows of
R ∈ {0,1}^{k×n}; B̃ = L ∘ R under the Boolean algebra is the union of
the k rectangles Ũ_i × Ṽ_i. The factors are never built: a left
vertex's membership list and the right clusters are enough.

This module holds the one implementation of the paper's quality
measures over that *sparse* representation (never a dense m×n matrix),
array code over the second pass's cluster index that
``repro.spark.metrics_df`` runs per Arrow batch (set-based oracle:
``tests/second_pass_reference.py``):

* relative Hamming gain: ``1 - |{(i,j): B_ij != B̃_ij}| / |{B_ij = 1}|``
* recall: ``|{B_ij = 1 and B̃_ij = 1}| / |{B_ij = 1}|``
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count
from typing import Sequence

import numpy as np

from repro.core.distance import _gather
from repro.core.second_pass import _BLOCK_ROWS, _ClusterIndex


@dataclass
class ReconstructionMetrics:
    ones: int             # |{B_ij = 1}|
    true_positives: int   # |{B_ij = 1 and B̃_ij = 1}|
    false_positives: int  # |{B_ij = 0 and B̃_ij = 1}|

    @property
    def errors(self) -> int:
        """|{B_ij != B̃_ij}|: false negatives plus false positives."""
        return (self.ones - self.true_positives) + self.false_positives

    @property
    def relative_hamming_gain(self) -> float:
        return 1.0 - self.errors / self.ones if self.ones else 0.0

    @property
    def recall(self) -> float:
        return self.true_positives / self.ones if self.ones else 0.0


def reconstruction_metrics(
    adj: Sequence[Sequence[int]],
    memberships: Sequence[Sequence[int]],
    right_clusters: Sequence[Sequence[int]],
) -> ReconstructionMetrics:
    """B vs B̃ = L ∘ R, a block of rows of the cluster index at a time:
    u's cover (B̃'s row) is the unique codes of its member clusters' keys,
    tp the ones among them found in X (Γ(u)'s codes), fp the rest, and
    ones the distinct (row, id) pairs of Γ(u)."""
    index = _ClusterIndex(right_clusters)
    ones = tp = covered = 0
    for lo, (nb, row, vals, x) in zip(count(0, _BLOCK_ROWS), index.blocks(adj)):
        o = np.lexsort((vals, row))
        ones += len(o) - np.count_nonzero((np.diff(row[o]) == 0) & (np.diff(vals[o]) == 0))
        mems = memberships[lo:lo + nb]
        ck, cnt = _gather(index.cptr, index.key_of, np.fromiter(chain(*mems), np.int64))
        mrow = np.repeat(np.arange(nb), [len(m) for m in mems])
        cover = np.unique(np.repeat(mrow, cnt) * index.nkeys + ck)
        tp += np.count_nonzero(np.isin(cover, x, assume_unique=True))
        covered += len(cover)
    return ReconstructionMetrics(int(ones), int(tp), int(covered - tp))
