"""Digest of the offline baselines' outputs, to diff between two checkouts.

It prints, one line each:

* every rs-dhillon, rs-zha and basso cell of the grid (each stand-in
  dataset × k in ``K_GRID``, through ``harness.run_cell``): ``repr`` of
  its gain and recall, its ``memory_bytes`` and its note (run-times are
  left out, so two runs of the same code print the same text);
* on three planted SBM graphs at the base point of the Fig. 1 job
  (``jobs/synthetic_quality.py``), a hash of the output of
  ``static_sofa``, of a ``sofa_pass`` with the k-Medians postprocessing
  and of ``rs_dhillon``.

Run it in each checkout and diff the two outputs; a change that keeps the
baselines exact prints the same text::

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python -m tests.baseline_reference
"""
from __future__ import annotations

import hashlib

from repro import synth_data as sd
from repro.baselines.reduction import rs_dhillon
from repro.baselines.static_sofa import static_sofa
from repro.core.sofa import SofaParams, sofa_pass
from repro.eval.datasets import DATASET_NAMES, K_GRID
from repro.eval.harness import run_cell

# the Fig. 1 job's base point (n = 800, k = 10, p = 0.7, r = 15, ell = 40)
N_RIGHT, K, THETA, RS_SAMPLE = 800, 10, 0.5, 200
SBM_SEEDS = (0, 1000, 2000)


def digest(obj) -> str:
    return hashlib.sha1(repr(obj).encode()).hexdigest()[:16]


def sbm(seed: int) -> sd.BipartiteGraph:
    q = sd.noise_q_for_expected_degree(4, N_RIGHT, 15)
    return sd.bipartite_sbm(k=K, ell=40, n_right=N_RIGHT, r=15, p=0.7, q=q, seed=seed)


def main() -> None:
    for algorithm in ("rs-dhillon", "rs-zha", "basso"):
        for ds in DATASET_NAMES:
            for k in K_GRID:
                cell = run_cell(None, ds, algorithm, k)
                print(algorithm, ds, k, repr(cell.gain), repr(cell.recall),
                      cell.memory_bytes, repr(cell.note), flush=True)
    for seed in SBM_SEEDS:
        g = sbm(seed)
        st = static_sofa(g.adj, N_RIGHT, K, theta=THETA, seed=0)
        print("static_sofa", seed, digest((st.left_labels, [c.tolist() for c in st.right_clusters])),
              st.workspace_bytes, flush=True)
        res = sofa_pass([a.tolist() for a in g.adj],
                        SofaParams(k=K, c_max=4 * K, mg_capacity=100, seed=0), m_hint=g.n_left)
        print("sofa_pass_kmedians", seed,
              digest(([gr.member_centers for gr in res.groups],
                      [c.tolist() for c in res.right_clusters(THETA)])), flush=True)
        red = rs_dhillon(g.adj, K, m_tilde=RS_SAMPLE, n_tilde=RS_SAMPLE, seed=0)
        print("rs_dhillon", seed, digest([c.tolist() for c in red.right_clusters]),
              red.workspace_bytes, flush=True)


if __name__ == "__main__":
    main()
