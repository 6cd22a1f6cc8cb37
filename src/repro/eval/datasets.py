"""Six real-world stand-in datasets (paper Table 1, DESIGN.md §3).

The paper evaluates on 20News, Reuters, Book, Movie, Flickr and Wiki.
Those need downloads we cannot make, so each is replaced by a synthetic
bipartite graph at ~1/50 scale generated by
:func:`repro.synth_data.planted_zipf_bipartite`, with parameters tuned to
match the *shape* that drives the paper's findings:

* |U|/|V| ratio and extreme sparsity (density ≪ 1%),
* left-degree distribution: small average, heavy 99th percentile
  (``degree_zipf`` skews per-vertex activity),
* Book's pathology — median left degree ~1 — which is the paper's
  explanation for SOFA's weak Book numbers,
* Wiki's size — the only dataset whose dense workspace exceeds the
  basso memory budget, reproducing the paper's out-of-memory cells.

``PAPER_TABLE1`` records the original Table 1 rows so jobs/table1 can
print paper-vs-ours side by side.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict

from repro.synth_data import BipartiteGraph, planted_zipf_bipartite


@dataclass(frozen=True)
class PaperRow:
    """A row of the paper's Table 1."""

    n_left: int
    n_right: int
    n_edges: int
    density: float
    avg_degree: int
    p99_degree: int


PAPER_TABLE1: Dict[str, PaperRow] = {
    "20news": PaperRow(18773, 61056, 1766780, 0.0015, 94, 548),
    "reuters": PaperRow(38677, 19757, 978446, 0.0013, 25, 498),
    "book": PaperRow(105282, 340550, 1149779, 0.0000321, 11, 174),
    "movie": PaperRow(138493, 26744, 20000263, 0.0054, 144, 1113),
    "flickr": PaperRow(395979, 103631, 8545307, 0.0002, 22, 268),
    "wiki": PaperRow(1562433, 1170854, 19753078, 0.0000108, 17, 177),
}

# generator parameters per stand-in (≈1/50 linear scale, matched shape)
_SPECS: Dict[str, dict] = {
    "20news": dict(n_left=900, n_right=2400, k_true=30, r=20, p=0.5,
                   memberships_per_left=2.0, background_deg=25.0,
                   degree_zipf=0.6, seed=101),
    "reuters": dict(n_left=1500, n_right=800, k_true=25, r=15, p=0.6,
                    memberships_per_left=0.8, background_deg=6.0,
                    degree_zipf=0.9, seed=102),
    # Book: per-row signal is deliberately starved (p=0.3 over r=8 →
    # ~2 signal edges/member row, median left degree ~2, background ≈
    # signal per row): rows are individually uninformative, which is the
    # paper's explanation for SOFA's weak Book numbers, while the column
    # co-occurrence across many rows still lets basso recover clusters.
    # (The basso/sofa gain gap direction reproduces; its magnitude is
    # milder than the paper's 5.8x — see EXPERIMENTS.md.)
    "book": dict(n_left=2000, n_right=3200, k_true=50, r=8, p=0.3,
                 memberships_per_left=0.8, background_deg=3.5,
                 degree_zipf=0.9, seed=103),
    "movie": dict(n_left=1800, n_right=1000, k_true=30, r=25, p=0.7,
                  memberships_per_left=1.5, background_deg=30.0,
                  degree_zipf=0.7, seed=104),
    "flickr": dict(n_left=3000, n_right=2000, k_true=40, r=15, p=0.6,
                   memberships_per_left=0.7, background_deg=5.0,
                   degree_zipf=0.9, seed=105),
    "wiki": dict(n_left=12000, n_right=9000, k_true=60, r=15, p=0.5,
                 memberships_per_left=0.6, background_deg=5.0,
                 degree_zipf=0.9, seed=106),
}

DATASET_NAMES = tuple(_SPECS)

# k grid: the paper's {50, 100, 200} scaled by the same ~1/12 factor as
# the cluster counts in the stand-ins
K_GRID = (4, 8, 16)
PAPER_K_GRID = (50, 100, 200)


@lru_cache(maxsize=None)
def load_dataset(name: str) -> BipartiteGraph:
    """Generate (and cache) one stand-in dataset by name."""
    if name not in _SPECS:
        raise KeyError(f"unknown dataset {name!r}; known: {DATASET_NAMES}")
    return planted_zipf_bipartite(**_SPECS[name])

