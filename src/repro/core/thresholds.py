"""Rounding-threshold selection (paper §5.4).

Two strategies, matching the paper:

* **Line search** ("sofa"): evaluate a list of thresholds
  θ ∈ {0.3, 0.4, 0.5, 0.6, 0.7}; the second pass is run for all of them
  (sharing the single pass over the stream) and the best clustering by
  the target metric is kept.

* **Likelihood heuristic** ("sofa-auto"), after [33]'s supplement: θ is a
  function of the model parameters (p, q) — the crossing point of the
  Binomial(W, p) and Binomial(W, q) counter distributions. A grid over
  (p, q) is scored by the log-likelihood of the observed MG counters
  under the two-component model, and the θ of the best (p*, q*) pair is
  used. We implement the crossing point in closed form,

      θ(p, q) = log((1-q)/(1-p)) / ( log(p/q) + log((1-q)/(1-p)) ),

  which is the count fraction t/W at which the two binomial pmfs are
  equal, and score each observed normalized counter c/W by
  ``log max(pmf_p, pmf_q)`` (hard-assignment likelihood). This is a
  faithful re-derivation of the heuristic; the original supplement is
  not reproduced verbatim (documented substitution, DESIGN.md §3).
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

import numpy as np

LINE_SEARCH_THETAS: Tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7)

_P_GRID = (0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
_Q_GRID = (0.005, 0.01, 0.02, 0.05, 0.1)


def theta_crossing(p: float, q: float) -> float:
    """Normalized count at which Binomial(W,p) and Binomial(W,q) pmfs
    cross (per-trial log-odds balance point); lies strictly in (q, p)."""
    if not (0 < q < p < 1):
        raise ValueError(f"need 0 < q < p < 1, got p={p}, q={q}")
    a = math.log((1 - q) / (1 - p))
    b = math.log(p / q)
    return a / (a + b)


def auto_theta(
    counter_sets: Iterable[Sequence[float]], weights: Sequence[float]
) -> Tuple[float, float, float]:
    """sofa-auto: pick (p*, q*) on the fixed §5.4 grid ``_P_GRID`` ×
    ``_Q_GRID`` maximizing the hard-assignment likelihood of the observed
    MG counters; return (theta*, p*, q*).

    ``counter_sets[i]`` are the counter values of cluster group i,
    ``weights[i]`` its total weight W_i. Groups with W_i <= 0 or no
    counters are skipped; counters are clamped to [0, W_i].

    Each counter c of weight W scores ``max(log Binom(c; W, p),
    log Binom(c; W, q))`` and a grid point's likelihood is the sum of
    these scores. The binomial coefficient ``lgamma(W+1) - lgamma(c+1)
    - lgamma(W-c+1)`` is the same constant inside both arguments of the
    max, so it shifts every grid point's total by the same amount: in
    exact arithmetic, dropping it leaves the argmax unchanged. In
    floating point it changes the rounding, and a grid pair that wins
    by less than an ulp can flip, so it is kept — but computed once per
    counter instead of once per grid point. The per-grid scores are
    arrays with the scalar formula's operation order, and the sum runs
    in counter order (``cumsum``), so the result is the scalar loop's to
    the last bit. Ties keep the first grid pair in (p, q) order.
    """
    cs, ws = [], []
    for c, w in zip(counter_sets, weights):
        c, w = np.asarray(c, dtype=np.float64), float(w)
        if w <= 0 or len(c) == 0:
            continue
        cs.append(np.minimum(np.maximum(c, 0.0), w))
        ws.append(np.full(len(c), w))
    c = np.concatenate(cs) if cs else np.empty(0)
    w = np.concatenate(ws) if ws else np.empty(0)
    rest = w - c

    def lgamma(a: np.ndarray) -> np.ndarray:
        # MG counters repeat a few distinct values; evaluate each once
        vals, inv = np.unique(a, return_inverse=True)
        return np.fromiter(map(math.lgamma, vals), np.float64, len(vals))[inv]

    coef = lgamma(w + 1) - lgamma(c + 1) - lgamma(rest + 1)

    def logpmf(prob: float) -> np.ndarray:
        return coef + c * math.log(prob) + rest * math.log1p(-prob)

    lq = {q: logpmf(q) for q in _Q_GRID}
    best = (-math.inf, 0.5, 0.01)
    for p in _P_GRID:
        lp = logpmf(p)
        for q in _Q_GRID:
            if q >= p:
                continue
            ll = float(np.maximum(lp, lq[q]).cumsum()[-1]) if len(c) else 0.0
            if ll > best[0]:
                best = (ll, p, q)
    _, p_star, q_star = best
    return theta_crossing(p_star, q_star), p_star, q_star


def auto_theta_from_groups(groups) -> Tuple[float, float, float]:
    """Convenience wrapper over ``SofaResult.groups``."""
    counter_sets = [list(gr.sketch.counters.values()) for gr in groups]
    weights = [gr.total_weight for gr in groups]
    return auto_theta(counter_sets, weights)
