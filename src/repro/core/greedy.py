"""Algorithm 1 (paper §3.1): greedy streaming biclustering with known α, θ.

This is the theory algorithm behind Theorem 1. It maintains a set of
centers; a new left vertex whose (symmetric) Hamming distance to every
center exceeds ``alpha`` opens a new center, otherwise it is assigned to
its closest center: the center's Misra–Gries sketch absorbs the vertex's
neighbor ids and its assignment counter n_c increments. Postprocessing
emits, per center c, the right cluster
``V_c = { v : MG(c).estimate(v) >= theta * n_c }``. The closest center
is SOFA's :class:`~repro.core.distance.CenterIndex` query at weight 1
(plain Hamming) over the vertex's distinct ids; the set-based form is the
test oracle in ``tests/sofa_reference.py``.

Theorem 1 regime (p in [1/2, .99], q <~ ps/n, |V_i| >= K log n,
|U_i| >= K log n, pairwise |V_i Δ V_j| >= K' s) with alpha ~ 0.49*K4*s
and theta = 0.75 p makes this recover the planted V_i exactly w.h.p.;
``tests/test_greedy.py::TestTheorem1Regime`` exercises that regime.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from .distance import CenterIndex
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
    index = CenterIndex(alpha=1.0)  # alpha = 1: plain Hamming distance

    for nbrs in stream:
        x = np.asarray(nbrs, dtype=np.int64)
        sup, best, bestd = np.unique(x), -1, float("inf")
        if centers:
            ci, d = index.nearest_block([sup])
            best, bestd = int(ci[0]), float(d[0])
        sk = MisraGries(mg_capacity)  # the vertex's own edges
        sk.add_all(x.tolist())
        if bestd > alpha:  # open x as a new center, its edges seeding the sketch
            index.add(sup)
            centers.append(x)
            sketches.append(sk)
            n_assigned.append(1)
        else:
            sketches[best].merge(sk)
            n_assigned[best] += 1

    right_clusters = [
        np.asarray([v for v, _ in sk.items_at_least(theta * n)], dtype=np.int64)
        for sk, n in zip(sketches, n_assigned)
    ]
    return GreedyResult(centers, sketches, n_assigned, right_clusters)
