"""Tests for θ selection (§5.4) and the BMF reconstruction metrics (§2.2)."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import synth_data as sd
from repro.core.bmf import reconstruction_metrics
from repro.core.sofa import SofaParams, sofa_pass
from repro.core.thresholds import (
    _P_GRID,
    _Q_GRID,
    LINE_SEARCH_THETAS,
    auto_theta,
    auto_theta_from_groups,
    theta_crossing,
)
from repro.eval.datasets import load_dataset
from repro.eval.harness import sofa_params_for

from . import second_pass_reference as reference
from .second_pass_reference import assign_left_bmf


def _binom_logpmf(c, w, prob):
    """Full log Binomial(c; w, prob) via lgamma (c, w may be fractional)."""
    c = min(max(c, 0.0), w)
    return (
        math.lgamma(w + 1)
        - math.lgamma(c + 1)
        - math.lgamma(w - c + 1)
        + c * math.log(prob)
        + (w - c) * math.log1p(-prob)
    )


def auto_theta_reference(counter_sets, weights):
    """Scalar oracle of ``auto_theta``: the hard-assignment likelihood
    with the binomial coefficient kept, summed counter by counter."""
    counter_sets = [np.asarray(cs, dtype=np.float64) for cs in counter_sets]
    weights = [float(w) for w in weights]
    best = (-math.inf, 0.5, 0.01)
    for p in _P_GRID:
        for q in _Q_GRID:
            if q >= p:
                continue
            ll = 0.0
            for cs, w in zip(counter_sets, weights):
                if w <= 0 or len(cs) == 0:
                    continue
                for c in cs:
                    ll += max(_binom_logpmf(c, w, p), _binom_logpmf(c, w, q))
            if ll > best[0]:
                best = (ll, p, q)
    _, p_star, q_star = best
    return theta_crossing(p_star, q_star), p_star, q_star


class TestThetaCrossing:
    def test_bounds(self):
        th = theta_crossing(0.8, 0.05)
        assert 0.05 < th < 0.8

    def test_symmetric_case(self):
        # p = 1 - q makes the crossing land at exactly 1/2
        assert theta_crossing(0.9, 0.1) == pytest.approx(0.5)

    def test_monotone_in_p(self):
        assert theta_crossing(0.9, 0.05) > theta_crossing(0.6, 0.05)

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            theta_crossing(0.3, 0.5)
        with pytest.raises(ValueError):
            theta_crossing(1.0, 0.5)

    def test_crossing_balances_binomial_pmfs(self):
        """At t = W*theta the per-trial log-likelihood ratio is zero."""
        p, q, w = 0.8, 0.04, 200.0
        th = theta_crossing(p, q)
        t = th * w
        ll_p = t * math.log(p) + (w - t) * math.log(1 - p)
        ll_q = t * math.log(q) + (w - t) * math.log(1 - q)
        assert ll_p == pytest.approx(ll_q, abs=1e-9)


class TestAutoTheta:
    def test_recovers_planted_p_q(self):
        """Counters drawn from a clean two-component model pick the right
        grid cell."""
        rng = np.random.default_rng(0)
        w = 100.0
        members = rng.binomial(100, 0.8, 30).astype(float)
        noise = rng.binomial(100, 0.02, 50).astype(float)
        noise = noise[noise > 0]
        th, p, q = auto_theta([np.concatenate([members, noise])], [w])
        assert p == pytest.approx(0.8)
        assert q <= 0.05
        assert 0.1 < th < 0.8

    def test_empty_groups_ok(self):
        th, p, q = auto_theta([[]], [0.0])
        assert 0 < th < 1

    def test_from_sofa_groups(self):
        g = sd.bipartite_sbm(k=3, ell=40, n_right=400, r=18, p=0.8,
                             q=sd.noise_q_for_expected_degree(3, 400, 18), seed=0)
        res = sofa_pass(
            [a.tolist() for a in g.adj],
            SofaParams(k=3, c_max=30, mg_capacity=100, seed=0),
        )
        th, p, q = auto_theta_from_groups(res.groups)
        assert 0.05 < th < 0.95

    def test_all_groups_skipped_gives_first_grid_pair(self):
        expected = (theta_crossing(_P_GRID[0], _Q_GRID[0]), _P_GRID[0], _Q_GRID[0])
        assert auto_theta([], []) == expected
        assert auto_theta([[], [3.0]], [5.0, 0.0]) == expected

    @given(st.lists(
        st.tuples(
            st.one_of(st.just(0.0), st.floats(-5.0, 300.0)),
            st.lists(st.floats(-5.0, 400.0), max_size=12),
        ),
        max_size=6,
    ))
    # near-ties decided by rounding: the first flips if the binomial
    # coefficient is dropped, the second under pairwise summation
    @example([(5.0, [1.0]), (2.0**-52, [1.0])])
    @example([(8.0, [0.0] * 11), (2.0**-52, [0.0, 0.0, 0.0, 0.0, 1.0])])
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_oracle(self, groups):
        """Identical (θ, p, q) to the scalar loop, including empty and
        zero-weight groups and counters outside [0, W]."""
        weights = [w for w, _ in groups]
        counter_sets = [cs for _, cs in groups]
        assert auto_theta(counter_sets, weights) == auto_theta_reference(
            counter_sets, weights
        )

    @pytest.mark.parametrize("dataset", ["flickr", "book"])
    def test_matches_scalar_oracle_on_standin_groups(self, dataset):
        g = load_dataset(dataset)
        groups = sofa_pass(g.adj, sofa_params_for(g, 16)).groups
        counter_sets = [list(gr.sketch.counters.values()) for gr in groups]
        weights = [gr.total_weight for gr in groups]
        assert auto_theta_from_groups(groups) == auto_theta_reference(
            counter_sets, weights
        )

    def test_line_search_grid_matches_paper(self):
        assert LINE_SEARCH_THETAS == (0.3, 0.4, 0.5, 0.6, 0.7)


class TestReconstructionMetrics:
    def test_perfect_reconstruction(self):
        adj = [np.array([1, 2]), np.array([3])]
        m = reconstruction_metrics(adj, [[0], [1]], [[1, 2], [3]])
        assert m.relative_hamming_gain == pytest.approx(1.0)
        assert m.recall == pytest.approx(1.0)

    def test_empty_factorization(self):
        adj = [np.array([1, 2, 3])]
        m = reconstruction_metrics(adj, [[]], [[9]])
        assert m.relative_hamming_gain == pytest.approx(0.0)
        assert m.recall == pytest.approx(0.0)

    def test_overcover_hurts_gain_not_recall(self):
        adj = [np.array([1])]
        m = reconstruction_metrics(adj, [[0]], [[1, 2, 3]])
        assert m.recall == pytest.approx(1.0)
        assert m.relative_hamming_gain == pytest.approx(1.0 - 2 / 1)

    def test_matches_dense_computation(self):
        """Sparse row-wise metrics == dense B vs L∘R comparison."""
        rng = np.random.default_rng(1)
        m_, n_ = 30, 20
        adj = [np.flatnonzero(rng.random(n_) < 0.2) for _ in range(m_)]
        clusters = [sorted(rng.choice(n_, 5, replace=False).tolist()) for _ in range(3)]
        res = assign_left_bmf([a.tolist() for a in adj], clusters)
        met = reconstruction_metrics(adj, res.memberships, clusters)

        B = np.zeros((m_, n_), dtype=int)
        for u, a in enumerate(adj):
            B[u, a] = 1
        L = np.zeros((m_, len(clusters)), dtype=int)
        R = np.zeros((len(clusters), n_), dtype=int)
        for u, mem in enumerate(res.memberships):
            L[u, mem] = 1
        for i, vc in enumerate(clusters):
            R[i, vc] = 1
        Bt = (L @ R > 0).astype(int)
        ones = B.sum()
        errors = (B != Bt).sum()
        tp = ((B == 1) & (Bt == 1)).sum()
        assert met.ones == ones
        assert met.errors == errors
        assert met.true_positives == tp

    def test_gain_can_be_negative(self):
        adj = [np.array([1])]
        m = reconstruction_metrics(adj, [[0]], [list(range(10))])
        assert m.relative_hamming_gain < 0

    def test_awkward_inputs_match_set_oracle(self):
        """Duplicate ids in rows, clusters and memberships, ids in no
        cluster (huge, negative), empty rows and clusters, no clusters."""
        adj = [[1, 1, 2, 10**12], [], [-4, 5, 5], [7], [2, 3]]
        memberships = [[0, 0, 2], [1], [2, 1], [], [3]]
        clusters = [[1, 2, 2], [2, 3], [5, 6, 5], []]
        got = reconstruction_metrics(adj, memberships, clusters)
        assert got == reference.reconstruction_metrics(adj, memberships, clusters)
        assert (got.ones, got.true_positives, got.false_positives) == (8, 3, 7)
        none = reconstruction_metrics(adj, [[]] * 5, [])
        assert none == reference.reconstruction_metrics(adj, [[]] * 5, []) == (
            type(none)(8, 0, 0))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_set_oracle_across_blocks(self, seed):
        """Random rows and covers, more than one block of the cluster
        index (the block size is 1024 rows)."""
        rng = np.random.default_rng(seed)
        m_ = int(rng.integers(0, 2500))
        adj = [rng.integers(0, 40, rng.integers(0, 8)) for _ in range(m_)]
        clusters = [rng.integers(0, 40, rng.integers(0, 10)).tolist() for _ in range(5)]
        memberships = [rng.integers(0, 5, rng.integers(0, 3)).tolist() for _ in range(m_)]
        assert reconstruction_metrics(adj, memberships, clusters) == (
            reference.reconstruction_metrics(adj, memberships, clusters))
