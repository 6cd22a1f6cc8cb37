"""Reference §4.2 cover: the paper's pseudocode over Python sets (test
oracle).

``score`` is the §4.2 covering score and ``assign_left_bmf`` the greedy
cover built on it, one set operation per candidate cluster. The array
cover ``repro.core.second_pass.assign_left_bmf_fast`` must return exactly
the same memberships, choice scores and cluster scores.
"""
from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

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
