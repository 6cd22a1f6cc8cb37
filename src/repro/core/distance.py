"""Hamming distances over sparse binary vectors (paper §3, §5.1).

Left-side vertices and SOFA centers are sparse 0/1 vectors over the
right-side vertex set V; we represent them by their support sets (sorted
int arrays). Two forms are provided:

* plain (symmetric) Hamming distance ``d(x, y) = |supp(x) Δ supp(y)|``;
* the paper's *asymmetric weighted* Hamming distance (§5.1): for a
  center ``c`` and a point ``u``, position-wise cost is 0 when they
  agree, 1 when ``u`` has a 1 the center lacks, and ``alpha < 1`` when
  the center has a 1 the point lacks. ``alpha = 1`` recovers plain
  Hamming. Smaller ``alpha`` promotes denser centers, which the paper
  found essential on sparse real-world data (they use 0.1).

``CenterIndex`` answers SOFA's nearest-center query (line 6 of
Algorithm 2): its posting lists give the overlap of a point with every
center, and a Python scan over the center support sizes picks the
nearest, so one query costs O(postings of supp(u) + |C|).
"""
from __future__ import annotations

from typing import Dict, Sequence

DEFAULT_ALPHA = 0.1  # paper §5.1: alpha = 0.1 worked well on all datasets


def hamming(x: Sequence[int], y: Sequence[int]) -> int:
    """Symmetric Hamming distance between two supports."""
    sx, sy = set(x), set(y)
    return len(sx ^ sy)


def asymmetric_hamming(
    center: Sequence[int], point: Sequence[int], alpha: float = DEFAULT_ALPHA
) -> float:
    """Asymmetric weighted Hamming distance of a center to a point.

    cost = |supp(point) \\ supp(center)| + alpha * |supp(center) \\ supp(point)|
    """
    sc, sp = set(center), set(point)
    return len(sp - sc) + alpha * len(sc - sp)


class CenterIndex:
    """Incremental index over centers for fast nearest-center queries.

    Maintains, for each right-side vertex ``v``, the list of centers whose
    support contains ``v`` (an inverted index). For a query point ``u``
    with support ``S``, the overlap of ``u`` with every center is
    accumulated by walking the posting lists of ``S``; the asymmetric
    distance to center ``c`` is then::

        d(c, u) = (|S| - ov_c) + alpha * (|supp(c)| - ov_c)
                = |S| + alpha * |supp(c)| - (1 + alpha) * ov_c

    which needs only the overlap counts and the center support sizes.
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA):
        self.alpha = float(alpha)
        self._sizes: list[int] = []
        self._postings: Dict[int, list[int]] = {}

    def add(self, support: Sequence[int]) -> int:
        """Register a new center; returns its index."""
        idx = len(self._sizes)
        vs = sorted(set(int(v) for v in support))
        self._sizes.append(len(vs))
        for v in vs:
            self._postings.setdefault(v, []).append(idx)
        return idx

    def nearest(self, point: Sequence[int]) -> tuple[int, float]:
        """(index, distance) of the center closest to ``point``.

        Raises ValueError when there are no centers.
        """
        if not self._sizes:
            raise ValueError("no centers")
        pts = set(int(v) for v in point)
        overlaps: Dict[int, int] = {}
        for v in pts:
            for ci in self._postings.get(v, ()):
                overlaps[ci] = overlaps.get(ci, 0) + 1
        a = self.alpha
        base = len(pts)
        best_i, best_d = -1, float("inf")
        # Centers with zero overlap all share distance |S| + alpha*|supp(c)|;
        # among those the one with the smallest support wins, so scan sizes.
        for ci, size in enumerate(self._sizes):
            d = base + a * size - (1.0 + a) * overlaps.get(ci, 0)
            if d < best_d:
                best_i, best_d = ci, d
        return best_i, max(0.0, best_d)

    def __len__(self) -> int:
        return len(self._sizes)
