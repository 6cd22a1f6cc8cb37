"""The Arrow coreset codec (``distributed_sofa.coresets_to_arrow`` /
``coresets_from_arrow``), the one serialization of engine state, and
who owns the states a merge is given."""
import numpy as np
import pyarrow as pa

from repro.core.mg import MisraGries
from repro.core.sofa import CenterState, merge_center_states
from repro.eval.datasets import load_dataset
from repro.eval.harness import sofa_params_for
from repro.spark.distributed_sofa import coresets_from_arrow, coresets_to_arrow

from .sofa_reference import coresets_match, state_of


def _state(support, weight, counters, total, capacity):
    sk = MisraGries(capacity)
    sk.counters, sk.total = dict(counters), total
    return CenterState(np.asarray(support, dtype=np.int64), weight, sk)


def _round_trip(states):
    return coresets_from_arrow(pa.Table.from_batches([coresets_to_arrow(states)]))


def _fields(c):
    return (c.support.dtype, c.support.tolist(), c.weight, c.sketch.capacity,
            list(c.sketch.counters.items()), c.sketch.total)


def test_round_trip_keeps_every_field():
    """Counters keep insertion order (not id order), counts need not be
    integers, and an empty support or an empty sketch survives."""
    states = [
        _state([2, 5, 9], 3.0, [(9, 2.5), (2, 0.75), (5, 1.0)], 4.25, 8),
        _state([], 1.0, [], 0.0, 8),
        _state([7], 2.0, [], 2.0, 3),
        _state([1, 4], 1.5, [(4, 1.5), (1, 1e-9)], 1.5 + 1e-9, 1),
    ]
    got = _round_trip(states)
    assert [_fields(c) for c in got] == [_fields(c) for c in states]
    assert [type(k) for c in got for k in c.sketch.counters] == [int] * 5


def test_decoded_states_are_fresh():
    """Decoding gives new objects: writing to them leaves the source and
    a second decoding alone."""
    batch = coresets_to_arrow([_state([1, 2], 1.0, [(1, 1.0), (2, 1.0)], 2.0, 4)])
    table = pa.Table.from_batches([batch])
    first, second = coresets_from_arrow(table), coresets_from_arrow(table)
    first[0].weight += 1.0
    first[0].sketch.merge(first[0].sketch.copy())
    first[0].support[0] = 99
    assert _fields(second[0]) == _fields(coresets_from_arrow(table)[0])
    assert second[0].weight == 1.0 and second[0].support.tolist() == [1, 2]


def test_merging_decoded_copies_gives_identical_results():
    """``merge_center_states`` merges into the states it is given, so a
    list can be merged only once; two decodings of the same coresets are
    two independent inputs with identical results."""
    g = load_dataset("flickr")
    params = sofa_params_for(g, 4)
    _, states = coresets_match(g, params)
    table = pa.Table.from_batches([coresets_to_arrow(states)])
    first = merge_center_states(coresets_from_arrow(table), params, m_hint=g.n_left)
    second = merge_center_states(coresets_from_arrow(table), params, m_hint=g.n_left)
    assert first.n_restarts > 0
    assert state_of(first) == state_of(second)
    assert [grp.right_cluster(0.5).tolist() for grp in first.groups] == \
        [grp.right_cluster(0.5).tolist() for grp in second.groups]

    # the states given to a merge are its own: the open centers absorbed
    # later items, so the list no longer holds the coresets
    given = coresets_from_arrow(table)
    before = [c.weight for c in given]
    merge_center_states(given, params, m_hint=g.n_left)
    assert [c.weight for c in given] != before
