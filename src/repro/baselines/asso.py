"""The Asso algorithm (Miettinen et al. 2008), standing in for the
paper's `basso` static BMF baseline (§6.2).

Asso works on a dense Boolean matrix B ∈ {0,1}^{m×n}:

1. **Candidate generation.** The column-association matrix
   ``A[i, j] = <b_i, b_j> / <b_i, b_i>`` (confidence of column i
   implying column j); each row of ``A >= tau`` is a candidate basis
   vector (a row of R).
2. **Greedy selection.** k rounds; in each round every candidate ``a``
   is scored by ``sum_rows max(0, gain(row, a))`` where
   ``gain = |uncovered positives hit| - |uncovered negatives hit|``; the
   best candidate becomes the next row of R, rows with positive gain set
   the corresponding column of L, and the covered cells are locked in
   (Boolean OR is monotone, so covered cells never hurt again).

The gain computation is three matmuls per round, so the run-time grows
with ``k * m * n^2`` — the same asymptotics the paper cites for basso
(O(k |U|^2 |V|)) and the reason it is orders of magnitude slower than
SOFA. As the paper does, the matrix is transposed when |U| > |V| (basso
is quadratic in the candidate dimension).

**Memory budget.** The paper's basso ran out of memory on Wiki on a
16 GB workstation. We reproduce that mechanism with explicit accounting:
the dense workspace (B, covered mask, gain matrix, association matrix)
is computed up front and a :class:`MemoryBudgetExceeded` is raised when
it exceeds ``budget_bytes`` — deterministic, and scaled to our stand-in
dataset sizes (DESIGN.md §3).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.bmf import reconstruction_metrics
from repro.core.distance import densify

DEFAULT_TAU_GRID = (0.2, 0.4, 0.6, 0.8)  # the paper's basso grid
DEFAULT_BUDGET_BYTES = 512 * 1024 * 1024  # scaled stand-in for the 16 GB workstation


class MemoryBudgetExceeded(MemoryError):
    """Raised when the dense workspace exceeds the configured budget."""


@dataclass
class AssoResult:
    """Factors in cluster form: left[i] ⊆ U and right[i] ⊆ V per factor."""

    left: List[np.ndarray]
    right: List[np.ndarray]
    tau: float
    workspace_bytes: int

    @property
    def memberships(self) -> List[List[int]]:
        """Per-left-vertex membership lists (for the shared metrics)."""
        m = max((int(l.max()) + 1 for l in self.left if len(l)), default=0)
        out: List[List[int]] = [[] for _ in range(m)]
        for i, l in enumerate(self.left):
            for u in l:
                out[int(u)].append(i)
        return out


def estimate_workspace_bytes(m: int, n: int) -> int:
    """Dense workspace of one Asso run *after* the |U|>|V| flip:
    B + covered + candidate matrix (float32 m×n each, candidates n×n)
    plus the association and gain matrices."""
    if m > n:
        m, n = n, m
    return 4 * (3 * m * n + 2 * n * n + m * n)


def asso(
    adj: Sequence[np.ndarray],
    n_right: int,
    k: int,
    *,
    tau: float = 0.6,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
) -> AssoResult:
    """Run Asso for one threshold value. ``adj`` is the left adjacency
    list over ``n_right`` right vertices; returns k factors (some may be
    empty when no candidate has positive gain)."""
    m, n = len(adj), n_right
    ws = estimate_workspace_bytes(m, n)
    if ws > budget_bytes:
        raise MemoryBudgetExceeded(
            f"Asso workspace {ws / 2**20:.0f} MiB exceeds budget "
            f"{budget_bytes / 2**20:.0f} MiB for a {m}x{n} matrix"
        )
    B = densify(adj, np.arange(n_right), np.float32)  # float32 for BLAS matmuls
    flipped = False
    if B.shape[0] > B.shape[1]:
        # paper §6.2: basso is O(k |U|^2 |V|), so flip when |U| > |V|
        B = B.T.copy()
        flipped = True
    m_, n_ = B.shape

    # association/confidence matrix over columns
    col_sums = B.sum(axis=0)
    co = B.T @ B  # n_ x n_ co-occurrence counts
    with np.errstate(divide="ignore", invalid="ignore"):
        A = np.where(col_sums[:, None] > 0, co / col_sums[:, None], 0.0)
    cand = (A >= tau).astype(np.float32)  # candidate basis vectors (rows)
    # drop all-zero and duplicate candidates (cheap win, same output)
    nz = cand.sum(axis=1) > 0
    cand = np.unique(cand[nz], axis=0) if nz.any() else cand[:0]

    left: List[np.ndarray] = []
    right: List[np.ndarray] = []
    if len(cand) == 0:
        empty = [np.empty(0, np.int64) for _ in range(k)]
        return AssoResult(left=empty, right=list(empty), tau=tau, workspace_bytes=ws)

    # Signed uncovered-cell matrix: +1 reward (B=1, uncovered), -1 penalty
    # (B=0, uncovered), 0 once covered. gains = S @ cand.T is computed once;
    # each round only the newly covered rectangle changes S, so gains are
    # updated with a |rows| x |basis| x n_cand rectangle matmul instead of a
    # full m x n x n_cand recomputation (this is what keeps basso's k-sweep
    # tractable at stand-in scale; the asymptotics are unchanged).
    S = (2.0 * B - 1.0).astype(np.float32)
    gains = S @ cand.T  # m_ x n_cand
    for _ in range(k):
        per_cand = np.maximum(gains, 0.0).sum(axis=0)
        best = int(np.argmax(per_cand))
        if per_cand[best] <= 0:
            left.append(np.empty(0, np.int64))
            right.append(np.empty(0, np.int64))
            continue
        rows = np.flatnonzero(gains[:, best] > 0)
        basis = np.flatnonzero(cand[best] > 0)
        rect = S[np.ix_(rows, basis)]
        if rect.any():
            gains[rows] -= rect @ cand[:, basis].T
            S[np.ix_(rows, basis)] = 0.0
        left.append(rows.astype(np.int64))
        right.append(basis.astype(np.int64))

    if flipped:
        left, right = right, left
    return AssoResult(left=left, right=right, tau=tau, workspace_bytes=ws)


def asso_best_tau(
    adj: Sequence[np.ndarray],
    n_right: int,
    k: int,
    *,
    tau_grid: Sequence[float] = DEFAULT_TAU_GRID,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
) -> AssoResult:
    """Paper protocol: try every tau in the grid, keep the best by
    relative Hamming gain (computed sparsely via the shared metrics)."""
    best: AssoResult | None = None
    best_gain = -np.inf
    for tau in tau_grid:
        res = asso(adj, n_right, k, tau=tau, budget_bytes=budget_bytes)
        mem = res.memberships
        mem += [[] for _ in range(len(adj) - len(mem))]
        gain = reconstruction_metrics(
            adj, mem, [r.tolist() for r in res.right]
        ).relative_hamming_gain
        if gain > best_gain:
            best, best_gain = res, gain
    assert best is not None
    return best
