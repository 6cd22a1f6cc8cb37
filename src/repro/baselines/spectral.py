"""Static spectral co-clustering baselines (paper §6: Dhillon 2001 and
Zha et al. 2001), run on the sampled subgraph of the §5.5 reduction.

Both methods normalize the biadjacency matrix
``An = D1^{-1/2} A D2^{-1/2}`` and read cluster structure from its
singular vectors:

* **Dhillon (2001)**: take the ``l = ceil(log2 k)`` singular vector
  pairs after the first, embed rows as ``D1^{-1/2} U_l`` and columns as
  ``D2^{-1/2} V_l``, stack both into one point set Z and k-means Z into
  k co-clusters; each co-cluster's column part is a right cluster and
  its row part a left cluster.

* **Zha et al. (2001)**: same normalization but with ``k`` singular
  vector pairs (their bipartite min-cut relaxation), the same joint
  embedding, and k-means into k parts.

Implementation is dense NumPy SVD — the reduction caps the subgraph at
m̃ = ñ rows/columns, which is exactly why the paper (and we) can afford
a dense spectral method here and nowhere else. k-means on the embedding
is this module's own L2 Lloyd with k-means++ seeding (``_kmeans_real``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


@dataclass
class SpectralResult:
    """Co-clusters over the *subgraph's* local indices."""

    row_labels: np.ndarray  # per subgraph row, cluster id in [0, k)
    col_labels: np.ndarray  # per subgraph column, cluster id in [0, k)
    workspace_bytes: int


def _kmeans_real(X: np.ndarray, k: int, *, seed: int = 0) -> np.ndarray:
    """Plain k-means (L2) with k-means++ seeding on real-valued rows, at
    most 50 Lloyd iterations."""
    n = X.shape[0]
    k = min(k, n)
    g = np.random.default_rng(seed)
    centers = [int(g.integers(n))]
    d2 = ((X - X[centers[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        s = d2.sum()
        centers.append(int(g.choice(n, p=d2 / s)) if s > 0 else int(g.integers(n)))
        d2 = np.minimum(d2, ((X - X[centers[-1]]) ** 2).sum(axis=1))
    C = X[centers].copy()
    labels = np.full(n, -1)
    for _ in range(50):
        dists = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        new = dists.argmin(axis=1)
        if np.array_equal(new, labels):
            break
        labels = new
        for j in range(k):
            mask = labels == j
            if mask.any():
                C[j] = X[mask].mean(axis=0)
            else:  # reseed empty cluster at worst-served point
                far = int(dists.min(axis=1).argmax())
                C[j] = X[far]
    return labels


def _normalized_svd(B: np.ndarray, n_vecs: int):
    d1 = np.maximum(B.sum(axis=1), 1e-9)
    d2 = np.maximum(B.sum(axis=0), 1e-9)
    An = B / np.sqrt(d1)[:, None] / np.sqrt(d2)[None, :]
    U, S, Vt = np.linalg.svd(An, full_matrices=False)
    # skip the trivial first pair (constant in the normalized space)
    lo, hi = 1, min(1 + n_vecs, U.shape[1])
    Zr = U[:, lo:hi] / np.sqrt(d1)[:, None]
    Zc = Vt.T[:, lo:hi] / np.sqrt(d2)[:, None]
    return Zr, Zc


def _cocluster(B: np.ndarray, k: int, n_vecs: int, seed: int) -> SpectralResult:
    m, n = B.shape
    Zr, Zc = _normalized_svd(B, n_vecs)
    Z = np.vstack([Zr, Zc])
    labels = _kmeans_real(Z, k, seed=seed)
    ws = 4 * m * n + 8 * (m * n + (m + n) * max(1, n_vecs)) + 8 * min(m, n) ** 2
    return SpectralResult(
        row_labels=labels[:m], col_labels=labels[m:], workspace_bytes=int(ws)
    )


def dhillon_cocluster(B: np.ndarray, k: int, *, seed: int = 0) -> SpectralResult:
    """Dhillon (2001) bipartite spectral co-clustering (log2 k vectors)."""
    return _cocluster(B, k, max(1, math.ceil(math.log2(max(2, k)))), seed)


def zha_cocluster(B: np.ndarray, k: int, *, seed: int = 0) -> SpectralResult:
    """Zha et al. (2001) bipartite partitioning (k vectors)."""
    return _cocluster(B, k, k, seed)


def labels_to_right_clusters(
    col_labels: np.ndarray, col_ids: Sequence[int], k: int
) -> List[List[int]]:
    """Map subgraph column labels back to global right-vertex clusters."""
    out: List[List[int]] = [[] for _ in range(k)]
    for local, lab in enumerate(col_labels):
        if 0 <= lab < k:
            out[int(lab)].append(int(col_ids[local]))
    return [sorted(c) for c in out]
