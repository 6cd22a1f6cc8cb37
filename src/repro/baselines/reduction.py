"""Static→streaming reduction (paper §5.5): RSdhillon / RSzhaEtAl.

First pass: reservoir-sample m̃ left vertices from the stream; let V' be
their neighbors and V'' the ñ highest-degree vertices of V' (degree
within the sampled subgraph). Run a static co-clustering algorithm on
the m̃ × ñ subgraph to get right clusters over V''; attach each
remaining v ∈ V' \\ V'' to the cluster whose *average left-neighborhood*
vector is closest (L1) to v's own neighborhood vector over the sample.

Second pass: exactly SOFA's §4 algorithms, shared via
``repro.core.second_pass`` — the reduction only supplies right clusters.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from repro.core.distance import _flat, densify
from repro.core.kmedians import _l1_dist

from .spectral import (
    SpectralResult,
    dhillon_cocluster,
    labels_to_right_clusters,
    zha_cocluster,
)


def reservoir_sample_indices(m: int, m_tilde: int, *, seed: int = 0) -> np.ndarray:
    """Classic one-pass reservoir sampling of m̃ indices out of a stream
    of length m; returned in stream order (sorted)."""
    g = np.random.default_rng(seed)
    if m <= m_tilde:
        return np.arange(m, dtype=np.int64)
    res = np.arange(m_tilde, dtype=np.int64)
    for i in range(m_tilde, m):
        j = int(g.integers(0, i + 1))
        if j < m_tilde:
            res[j] = i
    return np.sort(res)


@dataclass
class ReductionResult:
    right_clusters: List[np.ndarray]   # global right-vertex ids per cluster
    sampled_left: np.ndarray           # the reservoir U'
    workspace_bytes: int


def random_subgraph_clusters(
    adj: Sequence[np.ndarray],
    k: int,
    *,
    m_tilde: int,
    n_tilde: int,
    method: Callable[[np.ndarray, int], SpectralResult],
    seed: int = 0,
) -> ReductionResult:
    """Run the full §5.5 first pass with the given static co-clustering
    ``method`` (e.g. :func:`dhillon_cocluster`)."""
    sample = reservoir_sample_indices(len(adj), m_tilde, seed=seed)
    rows = [adj[int(u)] for u in sample]
    # V' with in-sample degrees; V'' = top-ñ by degree (ties: lower id)
    vprime, deg = np.unique(_flat(rows)[0], return_counts=True)
    vpp = np.sort(vprime[np.lexsort((vprime, -deg))[:n_tilde]])

    B = densify(rows, vpp, np.float32)
    res = method(B, k)
    clusters = labels_to_right_clusters(res.col_labels, vpp, k)

    # attach low-degree leftovers V' \ V'' by average-neighborhood distance
    leftovers = np.setdiff1d(vprime, vpp, assume_unique=True)
    if len(leftovers) and any(clusters):
        # average left-neighborhood per cluster, over the sample's rows
        avg = np.zeros((k, len(sample)), dtype=np.float64)
        cnt = np.asarray([len(mem) for mem in clusters])
        for ci, mem in enumerate(clusters):
            if mem:
                avg[ci] = B[:, np.searchsorted(vpp, mem)].sum(axis=1, dtype=np.float64) / cnt[ci]
        # neighborhood vectors of the leftovers over the sample; C-order
        # float64, so the distances' X @ avg.T is one BLAS call
        XV = np.ascontiguousarray(densify(rows, leftovers, np.float64).T)
        dists = _l1_dist(XV, avg)
        dists[:, cnt == 0] = np.inf
        for j, v in enumerate(leftovers):
            clusters[int(np.argmin(dists[j]))].append(int(v))

    ws = int(res.workspace_bytes + B.nbytes + 8 * k * len(sample))
    return ReductionResult(
        right_clusters=[np.asarray(sorted(c), dtype=np.int64) for c in clusters],
        sampled_left=sample,
        workspace_bytes=ws,
    )


def rs_dhillon(adj, k, *, m_tilde, n_tilde, seed=0) -> ReductionResult:
    return random_subgraph_clusters(
        adj, k, m_tilde=m_tilde, n_tilde=n_tilde,
        method=lambda B, kk: dhillon_cocluster(B, kk, seed=seed), seed=seed,
    )


def rs_zha(adj, k, *, m_tilde, n_tilde, seed=0) -> ReductionResult:
    return random_subgraph_clusters(
        adj, k, m_tilde=m_tilde, n_tilde=n_tilde,
        method=lambda B, kk: zha_cocluster(B, kk, seed=seed), seed=seed,
    )
