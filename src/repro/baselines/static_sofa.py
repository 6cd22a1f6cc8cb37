"""`static sofa` baseline (paper §6.1): the offline version of SOFA.

It is the [33]-style algorithm without spectral preprocessing: cluster
*all* left vertices offline with k-Means/k-Medians (no streaming, no
center budget), then threshold the *exact* per-cluster frequency counts
(no sketches):

    Ṽ_i = { v : |{u ∈ C_i : (u, v) ∈ E}| >= theta * |C_i| }.

The paper uses it as the quality upper bound for SOFA: same clustering
objective and thresholding, but with full memory. Its state is the full
dense left-vertex matrix, which is what makes it infeasible at scale —
``workspace_bytes`` accounts for that (Table 5's ordering).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.distance import densify
from repro.core.kmedians import kmedians


@dataclass
class StaticSofaResult:
    left_labels: List[int]              # offline clustering of U
    right_clusters: List[np.ndarray]    # thresholded Ṽ_i
    workspace_bytes: int


def static_sofa(
    adj: Sequence[np.ndarray],
    n_right: int,
    k: int,
    *,
    theta: float = 0.5,
    seed: int = 0,
) -> StaticSofaResult:
    """Offline clustering + exact-count thresholding."""
    labels = kmedians(adj, k, seed=seed)
    n_clusters = (max(labels) + 1) if labels else 0
    counts = np.zeros((n_clusters, n_right), dtype=np.int64)
    np.add.at(counts, np.asarray(labels, np.int64), densify(adj, np.arange(n_right), np.int64))
    sizes = np.bincount(labels, minlength=n_clusters)
    right = [np.flatnonzero(counts[c] >= theta * sizes[c]).astype(np.int64)
             for c in range(n_clusters)]
    # workspace: dense m x (union support) clustering matrix + exact counts
    union = np.count_nonzero(counts.any(axis=0))
    ws = 8 * len(adj) * max(1, union) + counts.nbytes
    return StaticSofaResult(
        left_labels=labels, right_clusters=right, workspace_bytes=int(ws)
    )
