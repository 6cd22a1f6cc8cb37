"""Tests for the sequential SOFA engine (Algorithm 2, §3.2)."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import synth_data as sd
from repro.core.sofa import (
    CenterState,
    SofaEngine,
    SofaParams,
    SofaResult,
    merge_center_states,
    sofa_pass,
)
from repro.core.mg import MisraGries
from repro.eval.quality import jaccard_quality


def make_params(**kw):
    base = dict(k=4, c_max=40, mg_capacity=100, seed=0)
    base.update(kw)
    return SofaParams(**base)


class TestParams:
    def test_cmax_must_exceed_k(self):
        with pytest.raises(ValueError):
            SofaParams(k=5, c_max=5, mg_capacity=10)


class TestFreshSketch:
    """``push`` builds a fresh vertex's sketch in closed form; it must be
    the sketch of its distinct ids added one at a time."""

    @given(st.integers(1, 8).flatmap(
        lambda c: st.tuples(st.just(c), st.integers(0, 3 * c + 2), st.randoms())))
    @settings(max_examples=300, deadline=None)
    @example((3, 0, None))  # no ids, then multiples of capacity + 1
    @example((3, 4, None))
    @example((3, 8, None))
    @example((3, 12, None))
    @example((1, 2, None))
    def test_matches_adding_ids_one_by_one(self, case):
        cap, n_ids, rnd = case
        ids = list(range(0, 3 * n_ids, 3))
        if rnd is not None:
            rnd.shuffle(ids)
            ids += ids[:2]  # a repeated id counts once
        eng = SofaEngine(make_params(k=1, c_max=2, mg_capacity=cap))
        eng.push(ids)
        eng.flush()  # the first item always opens a center
        want = MisraGries(cap)
        want.add_all(sorted(set(ids)))
        got = eng.centers[0].sketch
        assert list(got.counters.items()) == list(want.counters.items())
        assert got.total == want.total and isinstance(got.total, float)


class TestMechanics:
    def test_empty_stream(self):
        res = sofa_pass([], make_params())
        assert res.centers == []
        assert res.groups == []
        assert res.right_clusters(0.5) == []

    def test_single_vertex(self):
        res = sofa_pass([[1, 2, 3]], make_params())
        assert len(res.centers) == 1
        assert res.centers[0].weight == 1.0
        assert res.right_clusters(0.5)[0].tolist() == [1, 2, 3]

    def test_duplicates_collapse_to_one_center(self):
        # distance 0 -> opening probability 0 after the first
        res = sofa_pass([[1, 2, 3]] * 20, make_params())
        assert len(res.centers) == 1
        assert res.centers[0].weight == 20.0

    def test_weights_conserved(self):
        """Total center weight == number of stream vertices, across
        restarts (weight is never lost when centers merge)."""
        rng = np.random.default_rng(0)
        stream = [sorted(set(rng.integers(0, 50, 6).tolist())) for _ in range(200)]
        res = sofa_pass(stream, make_params(c_max=10, k=3))
        assert sum(c.weight for c in res.centers) == pytest.approx(200.0)

    def test_restarts_triggered_by_small_cmax(self):
        rng = np.random.default_rng(1)
        stream = [sorted(set(rng.integers(0, 200, 8).tolist())) for _ in range(300)]
        res = sofa_pass(stream, make_params(c_max=6, k=2))
        assert res.n_restarts > 0
        assert len(res.centers) <= 6

    def test_center_budget_respected(self):
        rng = np.random.default_rng(2)
        stream = [[int(v)] for v in rng.integers(0, 1000, 300)]
        res = sofa_pass(stream, make_params(c_max=8, k=2))
        assert len(res.centers) <= 8

    def test_n_processed(self):
        stream = [[1], [2], [3]]
        res = sofa_pass(stream, make_params())
        assert res.n_processed == 3

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(3)
        stream = [sorted(set(rng.integers(0, 80, 5).tolist())) for _ in range(100)]
        r1 = sofa_pass(stream, make_params(seed=11))
        r2 = sofa_pass(stream, make_params(seed=11))
        assert len(r1.centers) == len(r2.centers)
        assert [c.weight for c in r1.centers] == [c.weight for c in r2.centers]

    def test_groups_cover_all_centers(self):
        rng = np.random.default_rng(4)
        stream = [sorted(set(rng.integers(0, 60, 5).tolist())) for _ in range(80)]
        res = sofa_pass(stream, make_params(k=3, c_max=30))
        covered = sorted(i for g in res.groups for i in g.member_centers)
        assert covered == list(range(len(res.centers)))

    def test_group_weight_sums(self):
        rng = np.random.default_rng(5)
        stream = [sorted(set(rng.integers(0, 60, 5).tolist())) for _ in range(80)]
        res = sofa_pass(stream, make_params(k=3, c_max=30))
        assert sum(g.total_weight for g in res.groups) == pytest.approx(80.0)

    def test_skip_kmedians_one_group_per_center(self):
        rng = np.random.default_rng(6)
        stream = [sorted(set(rng.integers(0, 60, 5).tolist())) for _ in range(60)]
        res = sofa_pass(stream, make_params(skip_kmedians=True))
        assert len(res.groups) == len(res.centers)

    def test_state_bytes_positive_and_bounded(self):
        rng = np.random.default_rng(7)
        stream = [sorted(set(rng.integers(0, 60, 5).tolist())) for _ in range(60)]
        p = make_params(c_max=10, k=3, mg_capacity=20)
        res = sofa_pass(stream, p)
        b = res.state_bytes()
        assert b > 0
        # loose upper bound: c_max centers x (support + sketch)
        assert b <= p.c_max * (8 * 60 + 8 + 16 * p.mg_capacity)


class TestRecovery:
    """SOFA on planted SBM data (§6.1 scaled down)."""

    @pytest.fixture(scope="class")
    def planted(self):
        n, k, r, ell, p = 500, 4, 20, 40, 0.9
        q = sd.noise_q_for_expected_degree(3, n, r)
        return sd.bipartite_sbm(k=k, ell=ell, n_right=n, r=r, p=p, q=q, seed=0)

    def test_right_cluster_recovery_quality(self, planted):
        res = sofa_pass(
            [a.tolist() for a in planted.adj],
            make_params(k=4, c_max=40, mg_capacity=120, seed=0),
        )
        got = res.right_clusters(0.5)
        q = jaccard_quality(planted.right_clusters, got)
        assert q > 0.8, f"quality {q}"

    def test_more_centers_never_much_worse(self, planted):
        qs = []
        for c_max in (12, 40):
            res = sofa_pass(
                [a.tolist() for a in planted.adj],
                make_params(k=4, c_max=c_max, mg_capacity=120, seed=0),
            )
            qs.append(jaccard_quality(planted.right_clusters, res.right_clusters(0.5)))
        assert qs[1] >= qs[0] - 0.15

    def test_theta_line_search_beats_worst(self, planted):
        res = sofa_pass(
            [a.tolist() for a in planted.adj],
            make_params(k=4, c_max=40, mg_capacity=120, seed=0),
        )
        quals = {
            th: jaccard_quality(planted.right_clusters, res.right_clusters(th))
            for th in (0.3, 0.5, 0.7)
        }
        assert max(quals.values()) >= quals[0.3]
        assert max(quals.values()) >= quals[0.7]


class TestMergeCenterStates:
    def _state(self, support, weight=1.0, cap=20):
        sk = MisraGries(cap)
        sk.add_all(support)
        return CenterState(np.asarray(support, dtype=np.int64), weight, sk)

    def test_merge_empty(self):
        res = merge_center_states([], make_params())
        assert res.centers == []

    def test_merge_preserves_weight(self):
        states = [self._state([1, 2], 5.0), self._state([1, 2, 3], 7.0)]
        res = merge_center_states(states, make_params(k=1, c_max=5))
        assert sum(c.weight for c in res.centers) == pytest.approx(12.0)

    def test_merge_identical_states_collapse(self):
        states = [self._state([1, 2, 3], 2.0) for _ in range(6)]
        res = merge_center_states(states, make_params(k=1, c_max=5))
        assert len(res.centers) == 1
        assert res.centers[0].weight == pytest.approx(12.0)

    def test_partitioned_equals_sequential_quality(self):
        """Distributed composition: run SOFA on two halves, merge the
        coresets, and compare recovery quality against one sequential
        pass — the mergeability claim of the paper's conclusion."""
        g = sd.bipartite_sbm(k=3, ell=40, n_right=400, r=18, p=0.9,
                             q=sd.noise_q_for_expected_degree(3, 400, 18), seed=1)
        params = make_params(k=3, c_max=30, mg_capacity=100, seed=0)
        seq = sofa_pass([a.tolist() for a in g.adj], params)
        q_seq = jaccard_quality(g.right_clusters, seq.right_clusters(0.5))

        half = g.n_left // 2
        p1 = sofa_pass([a.tolist() for a in g.adj[:half]], params)
        p2 = sofa_pass([a.tolist() for a in g.adj[half:]], params)
        merged = merge_center_states(p1.centers + p2.centers, params)
        q_dist = jaccard_quality(g.right_clusters, merged.right_clusters(0.5))
        assert q_dist > q_seq - 0.2
        assert q_dist > 0.6
