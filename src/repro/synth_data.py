"""Synthetic bipartite graphs for the SOFA reproduction (paper §2.1, §6.1).

The paper's evaluation is on bipartite graphs G = (U ∪ V, E), streamed as
left-side vertices with their incident edges. The generators are pure
NumPy and deterministic in ``seed`` (the sequential engine consumes them
directly, and the DuckDB oracle sees identical input);
``repro.spark.stream_df.to_spark_stream`` lifts a graph into the Spark
vertex stream.
"""
from dataclasses import dataclass, field
from typing import List

import numpy as np

ZIPF_ALPHA = 1.3  # background popularity exponent of planted_zipf_bipartite


@dataclass
class BipartiteGraph:
    """A bipartite graph as an adjacency list over the left side.

    ``adj[u]`` is a sorted int64 array with the right-neighbors of left
    vertex ``u``. Ground-truth planted clusters (when generated) are kept
    as index lists; ``right_clusters`` may overlap, ``left_clusters``
    partition U for SBM data and may overlap for BMF-style data.
    """

    n_left: int
    n_right: int
    adj: List[np.ndarray]
    left_clusters: List[np.ndarray] = field(default_factory=list)
    right_clusters: List[np.ndarray] = field(default_factory=list)

    @property
    def n_edges(self) -> int:
        return int(sum(len(a) for a in self.adj))

    def degrees(self) -> np.ndarray:
        return np.asarray([len(a) for a in self.adj], dtype=np.int64)


def bipartite_sbm(
    *,
    k: int,
    ell: int,
    n_right: int,
    r: int,
    p: float,
    q: float,
    seed: int = 0,
) -> BipartiteGraph:
    """Planted bipartite SBM exactly as in paper §6.1.

    For each of ``k`` ground-truth clusters, ``ell`` left vertices are
    planted; each right cluster V_i is ``r`` vertices sampled uniformly
    from the ``n_right`` right vertices (clusters may overlap). A left
    vertex in U_i links to v ∈ V_i w.p. ``p`` and to v ∉ V_i w.p. ``q``.
    """
    g = np.random.default_rng(seed)
    right_clusters = [
        np.sort(g.choice(n_right, size=r, replace=False)) for _ in range(k)
    ]
    left_clusters = [
        np.arange(i * ell, (i + 1) * ell, dtype=np.int64) for i in range(k)
    ]
    adj: List[np.ndarray] = []
    all_v = np.arange(n_right)
    for i in range(k):
        vi = right_clusters[i]
        in_vi = np.zeros(n_right, dtype=bool)
        in_vi[vi] = True
        outside = all_v[~in_vi]
        for _ in range(ell):
            sig = vi[g.random(len(vi)) < p]
            noise = outside[g.random(len(outside)) < q]
            adj.append(np.sort(np.concatenate([sig, noise])).astype(np.int64))
    return BipartiteGraph(k * ell, n_right, adj, left_clusters, right_clusters)


def noise_q_for_expected_degree(expected_noise_deg: float, n_right: int, r: int) -> float:
    """q such that a left vertex gets ``expected_noise_deg`` noise edges
    in expectation (paper §6.1 uses 20 expected random neighbors)."""
    return min(1.0, expected_noise_deg / max(1, n_right - r))


def planted_zipf_bipartite(
    *,
    n_left: int,
    n_right: int,
    k_true: int,
    r: int,
    p: float,
    memberships_per_left: float,
    background_deg: float,
    degree_zipf: float = 0.0,
    seed: int = 0,
) -> BipartiteGraph:
    """Real-world-like bipartite graph: overlapping planted clusters plus
    zipf-skewed background noise.

    This is the generator behind the six real-world stand-in datasets
    (DESIGN.md §3). Each left vertex draws ``Poisson(memberships_per_left)``
    cluster memberships (possibly zero — a pure-noise vertex), links to each
    member cluster's right vertices w.p. ``p``, and adds
    ``Poisson(background_deg)`` background edges to right vertices drawn
    from a zipf(``ZIPF_ALPHA`` = 1.3) popularity distribution — reproducing the
    few-high-degree-right-vertices property the paper stresses. When
    ``degree_zipf > 0``, per-left-vertex activity is itself zipf-skewed, so
    the median left degree can be driven to ~1 (the Book pathology).
    """
    g = np.random.default_rng(seed)
    right_clusters = [
        np.sort(g.choice(n_right, size=r, replace=False)) for _ in range(k_true)
    ]
    # zipf popularity over right vertices for background edges
    pop = 1.0 / np.arange(1, n_right + 1) ** ZIPF_ALPHA
    pop /= pop.sum()
    pop_perm = g.permutation(n_right)  # popular ids scattered, not 0..n
    left_clusters: List[np.ndarray] = [[] for _ in range(k_true)]
    adj: List[np.ndarray] = []
    if degree_zipf > 0:
        act = 1.0 / np.arange(1, n_left + 1) ** degree_zipf
        act = act / act.mean()  # mean 1 — scales Poisson rates
        act = g.permutation(act)
    else:
        act = np.ones(n_left)
    for u in range(n_left):
        n_mem = g.poisson(memberships_per_left * act[u])
        mems = g.choice(k_true, size=min(n_mem, k_true), replace=False)
        parts = []
        for i in mems:
            vi = right_clusters[i]
            parts.append(vi[g.random(len(vi)) < p])
            left_clusters[i].append(u)
        n_bg = g.poisson(background_deg * act[u])
        if n_bg > 0:
            parts.append(pop_perm[g.choice(n_right, size=n_bg, p=pop)])
        if parts:
            nbrs = np.unique(np.concatenate(parts)).astype(np.int64)
        else:
            nbrs = np.empty(0, dtype=np.int64)
        adj.append(nbrs)
    lc = [np.asarray(sorted(c), dtype=np.int64) for c in left_clusters]
    return BipartiteGraph(n_left, n_right, adj, lc, right_clusters)
