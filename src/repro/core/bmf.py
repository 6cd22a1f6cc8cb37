"""Boolean matrix factorization quality measures (paper §2.2, §6.2).

Clusters ↔ factors: the left clusters Ũ_i are the columns of
L ∈ {0,1}^{m×k} and the right clusters Ṽ_i are the rows of
R ∈ {0,1}^{k×n}; B̃ = L ∘ R under the Boolean algebra is the union of
the k rectangles Ũ_i × Ṽ_i. The factors are never built: a left
vertex's membership list and the right clusters are enough.

This module holds the sequential implementations of the paper's quality
measures over that *sparse* representation (never a dense m×n matrix):

* relative Hamming gain: ``1 - |{(i,j): B_ij != B̃_ij}| / |{B_ij = 1}|``
* recall: ``|{B_ij = 1 and B̃_ij = 1}| / |{B_ij = 1}|``

The Spark version lives in ``repro.spark.metrics_df``; it returns the
same three counters, is oracle-checked against DuckDB and is unit-tested
against this implementation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


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
    adj: Sequence[np.ndarray],
    memberships: Sequence[Sequence[int]],
    right_clusters: Sequence[Sequence[int]],
) -> ReconstructionMetrics:
    """Row-by-row sparse evaluation of B vs B̃ = L ∘ R.

    For left vertex u the reconstructed row is the union of its member
    clusters; false negatives are Γ(u) \\ cover, false positives are
    cover \\ Γ(u).
    """
    vsets = [set(int(v) for v in vc) for vc in right_clusters]
    ones = tp = fp = 0
    for u, nbrs in enumerate(adj):
        gu = set(int(v) for v in nbrs)
        cover: set = set()
        for i in memberships[u]:
            cover |= vsets[i]
        ones += len(gu)
        tp += len(gu & cover)
        fp += len(cover - gu)
    return ReconstructionMetrics(ones, tp, fp)
