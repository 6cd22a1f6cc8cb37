"""The block-walking SOFA engine against the per-vertex reference
(tests/sofa_reference.py): full engine state must be identical."""
import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mg import MisraGries
from repro.core.sofa import (
    BLOCK,
    CenterState,
    SofaEngine,
    SofaParams,
    merge_center_states,
    sofa_pass,
)
from repro.eval.datasets import DATASET_NAMES, K_GRID, load_dataset
from repro.eval.harness import sofa_params_for
from repro.spark.distributed_sofa import _partition_runner

from .sofa_reference import (
    ReferenceEngine,
    centers_of,
    coresets_match,
    copy_states,
    decode_batches,
    reference_merge,
    reference_pass,
    run_partition,
    state_of,
    stream_batch,
)

@pytest.mark.parametrize("dataset", DATASET_NAMES)
def test_standin_first_pass_matches_reference(dataset):
    """The sequential pass at the grid's largest k (most centers)."""
    g = load_dataset(dataset)
    params = sofa_params_for(g, max(K_GRID))
    stream = [a.tolist() for a in g.adj]
    got = sofa_pass(stream, params, m_hint=g.n_left)
    assert state_of(got) == state_of(reference_pass(stream, params, m_hint=g.n_left))


@pytest.mark.parametrize("dataset", DATASET_NAMES)
def test_standin_coresets_and_merge_match_reference(dataset):
    """8 partition coresets (rows split by ``pmod(hash(u), 8)``, as the
    harness's stream is) and the driver merge of those coresets, at the grid's smallest k (most restarts per
    center)."""
    g = load_dataset(dataset)
    params = sofa_params_for(g, min(K_GRID))
    same, states = coresets_match(g, params)
    assert same
    got = merge_center_states(copy_states(states), params, m_hint=g.n_left)
    want = reference_merge(copy_states(states), params, m_hint=g.n_left)
    assert want.n_restarts > 0
    assert state_of(got) == state_of(want)


def test_partition_runner_splits_tagged_partitions():
    """Two logical partitions in one task's input, their vertices
    interleaved in ``u`` and one batch spanning the boundary: the runner
    emits each partition's own single-partition run, in tag order."""
    g = load_dataset("movie")
    params = sofa_params_for(g, min(K_GRID))
    us = np.arange(g.n_left)
    tags = (us % 2).astype(np.int32)
    order = np.argsort(tags, kind="stable")  # partition 0's rows, then 1's
    cuts = [0, g.n_left // 4, 3 * g.n_left // 4, g.n_left]
    batches = [
        pa.RecordBatch.from_pydict({
            "u": pa.array(us[order[lo:hi]], pa.int64()),
            "neighbors": pa.array([g.adj[u] for u in us[order[lo:hi]]], pa.list_(pa.int64())),
            "part": pa.array(tags[order[lo:hi]], pa.int32()),
        })
        for lo, hi in zip(cuts, cuts[1:])
    ]
    out = list(_partition_runner(params)(iter(batches)))
    assert [set(b.column("part").to_pylist()) for b in out] == [{0}, {1}]
    for part, batch in enumerate(out):
        got = decode_batches([batch])
        assert centers_of(got) == centers_of(run_partition(g.adj, us[part::2], params))


def test_flickr_paper_k_matches_reference():
    """k = 200 (c_max = 4000, the paper's largest k): thousands of
    centers per block query."""
    g = load_dataset("flickr")
    params = sofa_params_for(g, 200)
    stream = [a.tolist() for a in g.adj]
    got = sofa_pass(stream, params, m_hint=g.n_left)
    assert len(got.centers) > 1000
    assert state_of(got) == state_of(reference_pass(stream, params, m_hint=g.n_left))


class _RecordingEngine(SofaEngine):
    """Records, per walked block, (rows, rows walked when it restarted)."""

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.walks = []

    def _walk(self, block, n_rep):
        n = super()._walk(block, n_rep)
        self.walks.append((len(block), n))
        return n


def _run_both(items, params, m_hint, weighted):
    engines = [_RecordingEngine(params, m_hint=m_hint),
               ReferenceEngine(params, m_hint=m_hint)]
    for eng in engines:
        if weighted:  # each engine merges into its own copy
            for it in copy_states(items):
                eng.push_state(it)
        else:
            for it in items:
                eng.push(it)
    got, want = (eng.finalize() for eng in engines)
    assert state_of(got) == state_of(want)
    return engines[0], got


def _weighted(rows, weights, cap):
    out = []
    for row, w in zip(rows, weights):
        sup = np.asarray(sorted(set(row)), dtype=np.int64)
        sk = MisraGries(cap)
        sk.add_all(sup.tolist(), weight=float(w))
        out.append(CenterState(sup, float(w), sk))
    return out


@given(
    n=st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]),
    ids=st.lists(st.lists(st.integers(0, 7), max_size=6), min_size=1, max_size=8),
    alpha=st.sampled_from([0.1, 1.0]),
    k=st.sampled_from([1, 2]),
    c_max=st.integers(3, 12),
    cap=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    weighted=st.booleans(),
    hint=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_random_streams_match_reference(n, ids, alpha, k, c_max, cap, seed, weighted, hint):
    """Rows drawn from a few short id lists over 8 ids (duplicates, empty
    lists and tied distances are common); a small c_max restarts often,
    anywhere in a block."""
    rng = np.random.default_rng(seed)
    rows = [ids[i] for i in rng.integers(0, len(ids), n)]
    params = SofaParams(k=k, c_max=c_max, mg_capacity=cap, alpha=alpha, seed=seed)
    items = _weighted(rows, rng.integers(1, 6, n), cap) if weighted else rows
    _run_both(items, params, n if hint else None, weighted)


@pytest.mark.parametrize("c_max,last_row", [(10, False), (BLOCK, True)])
@pytest.mark.parametrize("weighted", [False, True])
def test_budget_restart_mid_block_and_on_last_row(c_max, last_row, weighted):
    """Disjoint singleton rows all open, so the budget restart falls on
    row c_max − 1 of the first block: mid-block, or its last row."""
    rows = [[v] for v in range(3 * BLOCK)]
    items = _weighted(rows, [1 + v % 3 for v in range(len(rows))], 4) if weighted else rows
    params = SofaParams(k=2, c_max=c_max, mg_capacity=4, seed=0)
    eng, res = _run_both(items, params, None, weighted)
    assert eng.walks[0] == (BLOCK, c_max)
    assert any(n == size for size, n in eng.walks) == last_row
    assert res.n_restarts > 1


def test_counters_add_up_on_restart_heavy_stream():
    rng = np.random.default_rng(1)
    stream = [sorted(set(rng.integers(0, 200, 8).tolist())) for _ in range(500)]
    res = sofa_pass(stream, SofaParams(k=2, c_max=6, mg_capacity=10, seed=0))
    assert res.n_restarts > 3 and res.n_replayed > 0
    assert res.n_processed == len(stream)
    assert res.n_opened + res.n_merged == res.n_processed + res.n_replayed
    assert all(type(c) is int for c in (res.n_opened, res.n_merged, res.n_replayed))


class TestDegenerate:
    def params(self):
        return SofaParams(k=2, c_max=8, mg_capacity=4, seed=3)

    def test_finalize_after_fewer_than_block_pushes(self):
        eng = SofaEngine(self.params())
        stream = [[v, v + 1] for v in range(BLOCK - 1)]
        for row in stream:
            eng.push(row)
        assert eng.centers == [] and eng.n_processed == 0  # still queued
        assert state_of(eng.finalize()) == state_of(reference_pass(stream, self.params()))

    def test_flush_on_empty_queue_is_a_no_op(self):
        eng = SofaEngine(self.params())
        rng_state = eng._rng.bit_generator.state
        eng.flush()
        assert eng._rng.bit_generator.state == rng_state
        res = eng.finalize()
        assert res.centers == [] and res.n_processed == 0 and res.n_restarts == 0

    def test_only_empty_neighbor_lists(self):
        stream = [[]] * (2 * BLOCK + 3)
        res = sofa_pass(stream, self.params())
        assert state_of(res) == state_of(reference_pass(stream, self.params()))
        assert len(res.centers) == 1 and res.centers[0].weight == len(stream)

    def test_partition_runner_on_empty_partition(self):
        run = _partition_runner(self.params())
        assert list(run(iter([]))) == []
        assert list(run(iter([stream_batch([], [])]))) == []
