"""Static O(1)-approximate k-Medians over SOFA's surviving centers
(paper Algorithm 2, line 21).

The paper uses sklearn's k-Means as a stand-in for the Arya et al. local
search; we use a NumPy k-means++ seeding + Lloyd iteration with an L1
(median) update, restricted to the *union support* of the input points.
The input is at most c_max sparse points, so densifying over their union
support is O(c_max * s) — exactly the space budget the paper allots to
this step (O(|C| * s)).

Points carry weights (SOFA centers accumulate the weights of everything
assigned to them); both the assignment step and the median update are
weighted accordingly.
"""
from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .distance import _flat, densify

N_ITER = 25  # Lloyd iterations per restart
N_INIT = 5   # seeded restarts; the lowest-cost labeling wins


def _seed_pp(X: np.ndarray, k: int, w: np.ndarray, g: np.random.Generator) -> np.ndarray:
    """Weighted k-means++ seeding with squared-L1 spreading."""
    n = X.shape[0]
    centers = [int(g.choice(n, p=w / w.sum()))]
    d = np.abs(X - X[centers[0]]).sum(axis=1)
    for _ in range(1, k):
        probs = w * d**2
        s = probs.sum()
        if s <= 0:
            centers.append(int(g.integers(n)))
        else:
            centers.append(int(g.choice(n, p=probs / s)))
        d = np.minimum(d, np.abs(X - X[centers[-1]]).sum(axis=1))
    return X[centers].copy()


def _l1_dist(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """n x k L1 distances |x - c|_1 = |x| + |c| - 2 x.c between binary rows
    x and rows c in [0, 1] (where |x - c| = x + c - 2xc per coordinate). On
    0/1 rows every term is an integer below 2**53, so this equals the
    broadcast ``np.abs(X[:, None] - C[None]).sum(2)`` exactly, in O(nk) memory."""
    return X.sum(axis=1)[:, None] + C.sum(axis=1)[None, :] - 2 * (X @ C.T)


def _lloyd_l1(
    X: np.ndarray, C: np.ndarray, w: np.ndarray, n_iter: int
) -> tuple[np.ndarray, float]:
    """Weighted Lloyd iteration with coordinate-wise-median update and
    empty-cluster reseeding to the farthest point. Returns (labels, cost)."""
    labels = np.full(X.shape[0], -1, dtype=np.int64)
    for it in range(n_iter):
        dists = _l1_dist(X, C)
        new_labels = dists.argmin(axis=1)
        mind = dists[np.arange(X.shape[0]), new_labels]
        # reseed empty clusters at the currently worst-served point
        for j in range(C.shape[0]):
            if not (new_labels == j).any():
                far = int(np.argmax(mind))
                C[j] = X[far]
                new_labels[far] = j
                mind[far] = 0.0
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(C.shape[0]):
            mask = labels == j
            if not mask.any():
                continue
            wj = w[mask]
            # weighted median per coordinate of 0/1 data = 1 iff weight of
            # ones > half the total weight
            ones_w = (X[mask] * wj[:, None]).sum(axis=0)
            C[j] = (ones_w > wj.sum() / 2).astype(np.float64)
    dists = _l1_dist(X, C)
    labels = dists.argmin(axis=1)
    cost = float((w * dists[np.arange(X.shape[0]), labels]).sum())
    return labels, cost


def kmedians(
    points: Sequence[Sequence[int]],
    k: int,
    *,
    weights: Sequence[float] | None = None,
    seed: int = 0,
) -> List[int]:
    """Cluster sparse binary points into <= k groups; returns a label per
    point in [0, k). Runs ``N_INIT`` seeded restarts of at most ``N_ITER``
    Lloyd iterations each and keeps the lowest weighted-L1-cost labeling
    (the O(1)-approx role of Alg. 2 line 21).
    Labels are compacted so every returned label has at least one member."""
    n = len(points)
    if n == 0:
        return []
    k = min(k, n)
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.float64)
    X = densify(points, np.unique(_flat(points)[0]), np.float64)  # over the union support
    g = np.random.default_rng(seed)

    best_labels, best_cost = None, float("inf")
    for _ in range(N_INIT):
        C = _seed_pp(X, k, w, g)
        labels, cost = _lloyd_l1(X, C, w, N_ITER)
        if cost < best_cost:
            best_labels, best_cost = labels, cost
    labels = best_labels

    # compact labels
    uniq = np.unique(labels)
    remap = {int(u): i for i, u in enumerate(uniq)}
    return [remap[int(l)] for l in labels]
