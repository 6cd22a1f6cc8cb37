"""The Fig. 1 job (jobs/synthetic_quality.py) must draw the same graphs in
every process: its seeds may not depend on Python's per-process string
hash salt (PYTHONHASHSEED)."""
import os
import subprocess
import sys

JOBS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "jobs")

# Runs one point of each sweep with the algorithms replaced by a recorder
# of the generated graphs, and prints one digest per graph.
_SCRIPT = f"""
import hashlib, sys
sys.path.insert(0, {JOBS_DIR!r})
import synthetic_quality as sq

digests = []

def record(name, g):
    adj = repr([a.tolist() for a in g.adj]).encode()
    digests.append(hashlib.sha256(adj).hexdigest())
    return 0.0, 0.0, 0.0

sq.run_algo = record
sq.ALGOS = ("sofa-4k",)
for param in ("p", "r", "ell"):
    sq.sweep(param, [sq.BASE[param]])
print("DIGESTS", *digests)
"""


def _graph_digests(hash_seed: str) -> list[str]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    line = next(l for l in out.splitlines() if l.startswith("DIGESTS "))
    return line.split()[1:]


def test_sweep_graphs_independent_of_hash_seed():
    a, b = _graph_digests("1"), _graph_digests("2")
    assert len(a) == 9  # 3 sweeps x 3 repetitions
    assert a == b
