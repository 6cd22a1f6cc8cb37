"""Deterministic memory accounting (paper Table 5, DESIGN.md §3).

The paper reports process RSS; on a JVM+Python hybrid RSS measures the
runtime, not the algorithm, so Table 5 is reproduced by counting the
bytes of live *algorithm state* instead:

* SOFA / sofa-auto: center supports + weights + MG counters
  (``SofaResult.state_bytes``) plus the second-pass membership lists —
  the paper's O(ks log m) + O(km) state;
* basso: the dense workspace estimate (B, covered mask, association and
  gain matrices) that also drives the memory budget;
* RSdhillon / RSzhaEtAl: the sampled dense subgraph + SVD factors +
  embeddings (``workspace_bytes`` from the reduction);
* static sofa: the dense clustering matrix + exact count table.

What matters for Table 5 — and what this accounting preserves — is the
*ordering and ratios*: sofa ≪ basso and sofa ≪ RS*, with basso's
workspace exploding past its budget on the largest dataset.
"""
from __future__ import annotations

from typing import Sequence


def membership_bytes(memberships: Sequence[Sequence[int]]) -> int:
    return sum(8 * max(1, len(m)) for m in memberships)

