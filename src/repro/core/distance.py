"""Sparse 0/1 rows: one posting index and one densifier (paper §3–§5).

Left vertices, SOFA centers and right clusters are sparse 0/1 vectors
over the right vertex set V, held as their supports (sorted int arrays).
Every overlap the paper needs is a count through :class:`Postings`, an
inverted index from right id to the sets holding it: SOFA's
nearest-center query (Algorithm 2 line 6), Algorithm 1's Hamming test
(§3.1), and the second pass's ``|Γ(u) ∩ Ṽ_i|`` (§4.1, §4.2), which the
metrics reuse (``repro.core.second_pass._ClusterIndex``).

The distance is the paper's *asymmetric weighted* Hamming distance
(§5.1): for a center ``c`` and a point ``u``, position-wise cost is 0
when they agree, 1 when ``u`` has a 1 the center lacks, and ``alpha <
1`` when the center has a 1 the point lacks; ``alpha = 1`` is plain
Hamming. Smaller ``alpha`` promotes denser centers, which the paper
found essential on sparse real data (they use 0.1). The set-based
formulas are the test oracles in ``tests/sofa_reference.py``.

``CenterIndex`` answers the nearest-center query for a block of B points
at once (a first-minimum ``argmin`` per row of the B×C distances);
``block_distances`` gives the B×B distances among the block's own
points, which a point opened mid-block needs. The offline code
(k-Medians and the baselines) reads rows dense through :func:`densify`.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

DEFAULT_ALPHA = 0.1  # paper §5.1: alpha = 0.1 worked well on all datasets


def _flat(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each id of ``rows``, the row it is in, and each row's length."""
    # "unsafe" casts like np.asarray(r, np.int64) would: an empty list reads as float64
    vals = np.concatenate([np.empty(0, np.int64), *rows], dtype=np.int64, casting="unsafe")
    sizes = np.asarray([len(r) for r in rows], dtype=np.int64)
    return vals, np.repeat(np.arange(len(rows)), sizes), sizes


def _in_sorted(table: np.ndarray, codes: np.ndarray):
    """Positions of ``codes`` in the sorted ``table`` and whether each is
    there."""
    at = np.searchsorted(table, codes)
    found = at < len(table)
    found[found] = table[at[found]] == codes[found]
    return at, found


def _gather(ptr: np.ndarray, post: np.ndarray, keys: np.ndarray):
    """Concatenated CSR rows ``post[ptr[i]:ptr[i+1]]`` for i in ``keys``,
    plus the length of each."""
    lo, cnt = ptr[keys], ptr[keys + 1] - ptr[keys]
    ends = np.cumsum(cnt)
    idx = np.arange(ends[-1] if len(ends) else 0) + np.repeat(lo - (ends - cnt), cnt)
    return post[idx], cnt


def densify(rows: Sequence[Sequence[int]], cols: np.ndarray, dtype) -> np.ndarray:
    """The 0/1 matrix of ``rows`` over the sorted ids ``cols``: entry
    ``[i, j]`` is 1 iff ``cols[j]`` is in row i; ids outside ``cols`` are
    dropped."""
    vals, row, _ = _flat(rows)
    at, hit = _in_sorted(cols, vals)
    X = np.zeros((len(rows), len(cols)), dtype=dtype)
    X[row[hit], at[hit]] = 1
    return X


class Postings:
    """Sets of ids (sorted, duplicate-free) as an inverted index: the
    distinct ids are ``keys`` (sorted), the sets holding ``keys[i]`` are
    ``post[ptr[i]:ptr[i + 1]]`` (ascending) and set ``c`` has
    ``sizes[c]`` ids. Sets are numbered in the order they are added."""

    def __init__(self):
        self.keys = self.post = self.sizes = np.zeros(0, dtype=np.int64)
        self.ptr = np.zeros(1, dtype=np.int64)

    def add(self, sets: Sequence[Sequence[int]]) -> None:
        """Post ``sets`` after those already posted: one stable sort of
        all postings by id keeps each id's sets ascending."""
        vals, owner, sizes = _flat(sets)
        ids = np.concatenate([np.repeat(self.keys, np.diff(self.ptr)), vals])
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        self.post = np.concatenate([self.post, owner + len(self.sizes)])[order]
        start = np.flatnonzero(np.diff(ids, prepend=ids[:1] - 1))  # each key's first posting
        self.keys, self.ptr = ids[start], np.append(start, len(ids))
        self.sizes = np.concatenate([self.sizes, sizes])

    def overlap(self, n_rows: int, row: np.ndarray, at: np.ndarray) -> np.ndarray:
        """The (n_rows, sets) overlap counts of rows whose ids are the keys
        at positions ``at`` (each id of row ``row[i]`` once)."""
        sets, cnt = _gather(self.ptr, self.post, at)
        n = len(self.sizes)
        return np.bincount(np.repeat(row, cnt) * n + sets, minlength=n_rows * n).reshape(n_rows, n)


class CenterIndex:
    """SOFA's centers as :class:`Postings` (supports: sorted, duplicate-free
    id arrays): a point's overlap ``ov_c`` with center ``c`` is a count over
    its support's postings, and the asymmetric distance needs only sizes::

        d(c, u) = |S| + alpha * |supp(c)| - (1 + alpha) * ov_c
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA):
        self.alpha = float(alpha)
        self._postings = Postings()
        self._new: list[np.ndarray] = []  # added, posted at the next query

    def add(self, support: Sequence[int]) -> int:
        """Register a new center; returns its index."""
        self._new.append(np.asarray(support, dtype=np.int64))
        return len(self._postings.sizes) + len(self._new) - 1

    def nearest_block(self, supports: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """First-minimum nearest center of each support: ``(index,
        distance)`` arrays, distances clamped at 0. Raises ValueError when
        there are no centers."""
        if self._new:
            self._postings.add(self._new)
            self._new = []
        if not len(self._postings.sizes):
            raise ValueError("no centers")
        dist = _distances(self._postings, supports, self.alpha)
        ci = np.argmin(dist, axis=1)
        return ci, np.maximum(dist[np.arange(len(supports)), ci], 0.0)


def block_distances(points: Sequence[np.ndarray], alpha: float) -> np.ndarray:
    """All distances within a block of point supports (sorted, no
    duplicates): entry ``[j, i]`` is point ``i``'s distance to point ``j``
    as a center, clamped at 0. The points are posted as the centers of
    :func:`_distances`, whose B×B result this transposes."""
    postings = Postings()
    postings.add(points)
    return np.maximum(_distances(postings, points, alpha), 0.0).T


def _distances(postings: Postings, supports: Sequence[np.ndarray], alpha: float) -> np.ndarray:
    """The B×C asymmetric distances of ``supports`` to the posted centers, unclamped."""
    vals, row, sizes = _flat(supports)
    at, hit = _in_sorted(postings.keys, vals)
    ov = postings.overlap(len(supports), row[hit], at[hit])
    return sizes[:, None] + alpha * postings.sizes - (1.0 + alpha) * ov
