"""Reference second pass and metrics: the paper's pseudocode over
Python sets (test oracles).

``score`` is the §4.2 covering score and ``assign_left_bmf`` the greedy
cover built on it, one set operation per candidate cluster. The array
cover ``repro.core.second_pass.assign_left_bmf_fast`` must return exactly
the same memberships, choice scores and cluster scores.
``assign_left_biclustering`` is the §4.1 assignment and
``reconstruction_metrics`` the §6.2 counters (ones, tp, fp), one set
per row; ``repro.core.second_pass.assign_left_biclustering`` and
``repro.core.bmf.reconstruction_metrics`` must return exactly the same.
"""
from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from repro.core.bmf import ReconstructionMetrics
from repro.core.second_pass import BmfAssignment


def score(a: set, x: set, y: set) -> int:
    """The §4.2 covering score: reward newly covered elements of x,
    penalize fresh over-cover outside x ∪ y."""
    return len((x - y) & a) - len(a - (x | y))


def assign_left_bmf(
    stream: Iterable[Sequence[int]],
    right_clusters: Sequence[Sequence[int]],
) -> BmfAssignment:
    """§4.2 greedy cover: per u, repeatedly add the positive-score argmax
    cluster until none has positive score."""
    vsets = [set(int(v) for v in vc) for vc in right_clusters]
    totals = np.zeros(len(vsets), dtype=np.float64)
    memberships: List[List[int]] = []
    choice_scores: List[List[float]] = []
    for nbrs in stream:
        x = set(int(v) for v in nbrs)
        y: set = set()
        chosen: List[tuple[int, float]] = []
        avail = set(range(len(vsets)))
        while avail:
            scores = {i: score(vsets[i], x, y) for i in avail}
            i_star = max(scores, key=lambda i: (scores[i], -i))
            if scores[i_star] <= 0:
                break
            chosen.append((i_star, float(scores[i_star])))
            totals[i_star] += scores[i_star]
            y |= vsets[i_star]
            avail.discard(i_star)
        chosen.sort()
        memberships.append([c for c, _ in chosen])
        choice_scores.append([s for _, s in chosen])
    return BmfAssignment(memberships, totals, choice_scores)


def assign_left_biclustering(
    stream: Iterable[Sequence[int]],
    right_clusters: Sequence[Sequence[int]],
) -> List[int]:
    """§4.1: per u, the first cluster maximizing |Γ(u) ∩ Ṽ_i| / |Ṽ_i|,
    an empty cluster never winning; ``[]`` with no clusters."""
    vsets = [set(int(v) for v in vc) for vc in right_clusters]
    if not vsets:
        return []
    sizes = np.asarray([max(1, len(s)) for s in vsets], dtype=np.float64)
    out: List[int] = []
    for nbrs in stream:
        gu = set(int(v) for v in nbrs)
        ratios = np.asarray([len(gu & s) for s in vsets], dtype=np.float64) / sizes
        ratios[[i for i, s in enumerate(vsets) if not s]] = -np.inf
        out.append(int(np.argmax(ratios)))
    return out


def reconstruction_metrics(
    adj: Sequence[Sequence[int]],
    memberships: Sequence[Sequence[int]],
    right_clusters: Sequence[Sequence[int]],
) -> ReconstructionMetrics:
    """(ones, tp, fp) of B against B̃ = L ∘ R, row by row: u's cover is
    the union of its member clusters, tp = |Γ(u) ∩ cover| and
    fp = |cover \\ Γ(u)|."""
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
