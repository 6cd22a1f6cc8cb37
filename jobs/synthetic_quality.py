"""Figure-1-style synthetic experiment (§6.1), reproduced as a table.

Sweeps signal p, right-cluster size r and left-cluster size ℓ on planted
bipartite SBM graphs (scaled: n=800, k=10 vs the paper's n=8000, k=50)
and reports the Jaccard recovery quality Q for left and right clusters
plus run-time, for: sofa with two (c_max, counters) configurations,
static sofa, RSdhillon and RSzhaEtAl. Markers in the paper are means
over 15 datasets; we use 3 seeds (means reported).

Run: ``spark-submit jobs/synthetic_quality.py``.
Writes results/synthetic_quality.md.
"""
import _common  # noqa: F401
import os
import time

import numpy as np

from repro import synth_data as sd
from repro.baselines.reduction import rs_dhillon, rs_zha
from repro.baselines.static_sofa import static_sofa
from repro.core.second_pass import assign_left_biclustering
from repro.core.sofa import SofaParams, sofa_pass
from repro.eval.quality import jaccard_quality, labels_to_clusters
from repro.eval.tables import write_table

N_RIGHT = 800
K = 10
REPS = 3
BASE = dict(p=0.7, r=15, ell=40)
THETA = 0.5
RS_SAMPLE = 200  # paper: 5000, scaled with the graphs
# graph seed of repetition rep in a sweep: 1000 * rep + the sweep's offset
SWEEP_SEED_OFFSET = {"p": 0, "r": 1, "ell": 2}


def gen(p, r, ell, seed):
    q = sd.noise_q_for_expected_degree(4, N_RIGHT, r)
    return sd.bipartite_sbm(k=K, ell=ell, n_right=N_RIGHT, r=r, p=p, q=q, seed=seed)


def eval_clusters(g, right_clusters):
    """Given right clusters, run the §4.1 second pass and score both sides."""
    stream = [a.tolist() for a in g.adj]
    labels = assign_left_biclustering(stream, [c.tolist() for c in right_clusters])
    ql = jaccard_quality(g.left_clusters, labels_to_clusters(labels))
    qr = jaccard_quality(g.right_clusters, right_clusters)
    return ql, qr


def run_algo(name, g):
    t0 = time.perf_counter()
    if name.startswith("sofa"):
        cmax, counters = (4 * K, 100) if name == "sofa-4k" else (8 * K, 200)
        res = sofa_pass(
            [a.tolist() for a in g.adj],
            SofaParams(k=K, c_max=cmax, mg_capacity=counters, seed=0),
            m_hint=g.n_left,
        )
        right = res.right_clusters(THETA)
    elif name == "static-sofa":
        res = static_sofa(g.adj, N_RIGHT, K, theta=THETA, seed=0)
        right = [c for c in res.right_clusters if len(c)]
    elif name == "rs-dhillon":
        red = rs_dhillon(g.adj, K, m_tilde=RS_SAMPLE, n_tilde=RS_SAMPLE, seed=0)
        right = [c for c in red.right_clusters if len(c)]
    elif name == "rs-zha":
        red = rs_zha(g.adj, K, m_tilde=RS_SAMPLE, n_tilde=RS_SAMPLE, seed=0)
        right = [c for c in red.right_clusters if len(c)]
    else:
        raise ValueError(name)
    ql, qr = eval_clusters(g, right)
    return ql, qr, time.perf_counter() - t0


ALGOS = ("sofa-4k", "sofa-8k", "static-sofa", "rs-dhillon", "rs-zha")


def sweep(param, values):
    rows = []
    for val in values:
        kw = dict(BASE)
        kw[param] = val
        for algo in ALGOS:
            qls, qrs, ts = [], [], []
            for rep in range(REPS):
                seed = 1000 * rep + SWEEP_SEED_OFFSET[param]
                g = gen(kw["p"], kw["r"], kw["ell"], seed=seed)
                ql, qr, t = run_algo(algo, g)
                qls.append(ql)
                qrs.append(qr)
                ts.append(t)
            rows.append(
                f"| {param}={val} | {algo} | {np.mean(qls):.3f} | "
                f"{np.mean(qrs):.3f} | {np.mean(ts):.2f} |"
            )
            print(rows[-1], flush=True)
    return rows


def main() -> None:
    header = ["| sweep | algorithm | Q_left | Q_right | seconds |", "|---|---|---|---|---|"]
    body = header[:]
    body += sweep("p", [0.5, 0.6, 0.7, 0.8, 0.9])
    body += sweep("r", [8, 10, 15, 25])
    body += sweep("ell", [20, 30, 40, 60])
    write_table(
        os.path.join(_common.RESULTS_DIR, "synthetic_quality.md"),
        "Synthetic recovery quality (Fig. 1 of the paper, as a table)",
        "\n".join(body),
    )


if __name__ == "__main__":
    main()
