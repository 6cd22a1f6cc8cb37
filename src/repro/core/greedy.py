"""Algorithm 1 (paper §3.1): greedy streaming biclustering with known α, θ.

This is the theory algorithm behind Theorem 1. It maintains a set of
centers; a new left vertex whose (symmetric) Hamming distance to every
center exceeds ``alpha`` opens a new center, otherwise it is assigned to
its closest center: the center's Misra–Gries sketch absorbs the vertex's
neighbor ids and its assignment counter n_c increments. Postprocessing
emits, per center c, the right cluster
``V_c = { v : MG(c).estimate(v) >= theta * n_c }``.

Theorem 1 regime (p in [1/2, .99], q <~ ps/n, |V_i| >= K log n,
|U_i| >= K log n, pairwise |V_i Δ V_j| >= K' s) with alpha ~ 0.49*K4*s
and theta = 0.75 p makes this recover the planted V_i exactly w.h.p.;
``tests/test_greedy.py::TestTheorem1Regime`` exercises that regime.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from .distance import hamming
from .mg import MisraGries


@dataclass
class GreedyResult:
    centers: List[np.ndarray]          # support of each center's representative
    sketches: List[MisraGries]         # per-center MG sketch
    n_assigned: List[int]              # n_c including the center itself
    right_clusters: List[np.ndarray]   # thresholded V_c, one per center


def greedy_cluster(
    stream: Iterable[Sequence[int]],
    *,
    alpha: float,
    theta: float,
    mg_capacity: int,
) -> GreedyResult:
    """Run Algorithm 1 over a stream of neighbor lists.

    ``stream`` yields, per left vertex, its sorted right-neighbor ids.
    ``alpha`` is the center-opening distance threshold, ``theta`` the
    rounding threshold, ``mg_capacity`` the number of MG counters per
    center (O(s) in the paper).
    """
    centers: List[np.ndarray] = []
    sketches: List[MisraGries] = []
    n_assigned: List[int] = []

    for nbrs in stream:
        x = np.asarray(nbrs, dtype=np.int64)
        if not centers:
            best, bestd = -1, float("inf")
        else:
            ds = [hamming(x, c) for c in centers]
            best = int(np.argmin(ds))
            bestd = ds[best]
        if bestd > alpha:
            # open x as a new center; its own edges seed the sketch
            sk = MisraGries(mg_capacity)
            sk.add_all(x.tolist())
            centers.append(x)
            sketches.append(sk)
            n_assigned.append(1)
        else:
            sk = MisraGries(mg_capacity)
            sk.add_all(x.tolist())
            sketches[best].merge(sk)
            n_assigned[best] += 1

    right_clusters = [
        np.asarray([v for v, _ in sk.items_at_least(theta * n)], dtype=np.int64)
        for sk, n in zip(sketches, n_assigned)
    ]
    return GreedyResult(centers, sketches, n_assigned, right_clusters)
