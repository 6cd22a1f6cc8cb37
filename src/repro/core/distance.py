"""Hamming distances over sparse binary vectors (paper §3, §5.1).

Left-side vertices and SOFA centers are sparse 0/1 vectors over the
right-side vertex set V; we represent them by their support sets (sorted
int arrays). Two forms are used:

* plain (symmetric) Hamming distance ``d(x, y) = |supp(x) Δ supp(y)|``;
* the paper's *asymmetric weighted* Hamming distance (§5.1): for a
  center ``c`` and a point ``u``, position-wise cost is 0 when they
  agree, 1 when ``u`` has a 1 the center lacks, and ``alpha < 1`` when
  the center has a 1 the point lacks. ``alpha = 1`` recovers plain
  Hamming. Smaller ``alpha`` promotes denser centers, which the paper
  found essential on sparse real-world data (they use 0.1). SOFA uses
  it only in the overlap form below; the set-based formula is the test
  oracle in ``tests/sofa_reference.py``.

``CenterIndex`` answers SOFA's nearest-center query (line 6 of
Algorithm 2) for a block of B points at once: one ``bincount`` over
their posting lists gives all B×C overlaps, and a first-minimum
``argmin`` per row of the dense B×C distances picks the nearest.
``block_distances`` gives the B×B distances among the block's own
points, which a point opened mid-block needs, from the same query with
the block's points posted as the centers.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

DEFAULT_ALPHA = 0.1  # paper §5.1: alpha = 0.1 worked well on all datasets


def hamming(x: Sequence[int], y: Sequence[int]) -> int:
    """Symmetric Hamming distance between two supports."""
    sx, sy = set(x), set(y)
    return len(sx ^ sy)


class CenterIndex:
    """Incremental inverted index: its postings are (right vertex, center)
    pairs sorted by vertex, so a point's overlap ``ov_c`` with center ``c``
    counts the postings of its support. The asymmetric distance then needs
    only sizes::

        d(c, u) = |S| + alpha * |supp(c)| - (1 + alpha) * ov_c

    Supports are sorted, duplicate-free id arrays.
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA):
        self.alpha = float(alpha)
        self._supports: list[np.ndarray] = []
        self._ids = self._owner = np.zeros(0, dtype=np.int64)  # the postings
        self._n_posted = 0  # centers already in the postings

    def add(self, support: Sequence[int]) -> int:
        """Register a new center; returns its index."""
        self._supports.append(np.asarray(support, dtype=np.int64))
        return len(self._supports) - 1

    def nearest_block(self, supports: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """First-minimum nearest center of each support: ``(index,
        distance)`` arrays, distances clamped at 0. Raises ValueError when
        there are no centers."""
        if not self._supports:
            raise ValueError("no centers")
        n_c, new = len(self._supports), self._supports[self._n_posted:]
        if new:  # post the new centers: a stable sort of all postings by id
            owner = np.repeat(np.arange(self._n_posted, n_c), [len(s) for s in new])
            ids, owner = np.concatenate([self._ids, *new]), np.concatenate([self._owner, owner])
            order = np.argsort(ids, kind="stable")
            self._ids, self._owner, self._n_posted = ids[order], owner[order], n_c
        c_sizes = np.asarray([len(s) for s in self._supports])
        dist = _distances(self._ids, self._owner, c_sizes, supports, self.alpha)
        ci = np.argmin(dist, axis=1)
        return ci, np.maximum(dist[np.arange(len(supports)), ci], 0.0)


def block_distances(points: Sequence[np.ndarray], alpha: float) -> np.ndarray:
    """All distances within a block of point supports (sorted, no
    duplicates): entry ``[j, i]`` is point ``i``'s distance to point ``j``
    as a center, clamped at 0. The points are posted as the centers of
    :func:`_distances`, whose B×B result this transposes."""
    sizes = np.asarray([len(p) for p in points], dtype=np.int64)
    ids = np.concatenate([np.empty(0, np.int64), *points])
    order = np.argsort(ids, kind="stable")
    owner = np.repeat(np.arange(len(points)), sizes)
    return np.maximum(_distances(ids[order], owner[order], sizes, points, alpha), 0.0).T


def _distances(ids, owner, c_sizes, supports, alpha: float) -> np.ndarray:
    """The B×C asymmetric distances of ``supports`` to the centers whose
    postings are ``(ids, owner)``, sorted by id (``c_sizes`` their sizes):
    one ``searchsorted`` finds each support value's postings and one
    ``bincount`` counts the overlaps, unclamped."""
    b, n_c = len(supports), len(c_sizes)
    sizes = np.asarray([len(s) for s in supports], dtype=np.int64)
    vals = np.concatenate([np.empty(0, np.int64), *supports])
    lo = np.searchsorted(ids, vals, "left")
    n_hit = np.searchsorted(ids, vals, "right") - lo  # postings per value
    at = np.repeat(lo - np.cumsum(n_hit) + n_hit, n_hit) + np.arange(n_hit.sum())
    row = np.repeat(np.repeat(np.arange(b), sizes), n_hit)
    ov = np.bincount(row * n_c + owner[at], minlength=b * n_c).reshape(b, n_c)
    return sizes[:, None] + alpha * c_sizes - (1.0 + alpha) * ov
