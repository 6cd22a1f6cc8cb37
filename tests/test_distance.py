"""Unit tests for Hamming distances, the posting index, the inverted
center index (§5.1) and the densifier."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import CenterIndex, Postings, _flat, _in_sorted, block_distances, densify

from .sofa_reference import asymmetric_hamming, hamming

supports = st.lists(st.integers(0, 40), max_size=20).map(lambda l: sorted(set(l)))


class TestHamming:
    def test_identical(self):
        assert hamming([1, 2, 3], [1, 2, 3]) == 0

    def test_disjoint(self):
        assert hamming([1, 2], [3, 4]) == 4

    def test_partial(self):
        assert hamming([1, 2, 3], [2, 3, 4]) == 2

    def test_empty(self):
        assert hamming([], [1, 2]) == 2
        assert hamming([], []) == 0

    @given(supports, supports)
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, a, b):
        assert hamming(a, b) == hamming(b, a)

    @given(supports, supports, supports)
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


class TestAsymmetricHamming:
    def test_alpha_one_is_plain_hamming(self):
        a, b = [1, 2, 5], [2, 3]
        assert asymmetric_hamming(a, b, alpha=1.0) == hamming(a, b)

    def test_paper_example(self):
        """§5.1 worked example: with alpha=0.1, u=(1,0,0,0,0) is closer to
        c1=(1,1,1,1,0) (0.3) than to c2=(0,0,0,0,1) (1.1)."""
        c1, c2, u = [0, 1, 2, 3], [4], [0]
        assert asymmetric_hamming(c1, u, alpha=0.1) == pytest.approx(0.3)
        assert asymmetric_hamming(c2, u, alpha=0.1) == pytest.approx(1.1)
        # vanilla Hamming prefers c2 — the pathology the paper fixes
        assert hamming(c2, u) < hamming(c1, u)

    def test_point_extra_costs_full(self):
        # point has 1s the center lacks -> cost 1 each
        assert asymmetric_hamming([], [1, 2, 3], alpha=0.1) == 3

    def test_center_extra_costs_alpha(self):
        assert asymmetric_hamming([1, 2, 3], [], alpha=0.1) == pytest.approx(0.3)

    @given(supports, supports)
    @settings(max_examples=50, deadline=None)
    def test_decomposition_identity(self, c, p):
        """d = |S_p| + alpha*|S_c| - (1+alpha)*overlap — the identity the
        vectorized CenterIndex uses."""
        alpha = 0.1
        ov = len(set(c) & set(p))
        expect = len(p) + alpha * len(c) - (1 + alpha) * ov
        assert asymmetric_hamming(c, p, alpha) == pytest.approx(expect)


def _sup(ids):
    return np.asarray(sorted(set(ids)), dtype=np.int64)


class TestCenterIndex:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            CenterIndex().nearest_block([_sup([1])])

    def test_single_center(self):
        ix = CenterIndex(alpha=0.1)
        i = ix.add([1, 2, 3])
        ci, d = ix.nearest_block([_sup([1, 2, 3])])
        assert ci[0] == i
        assert d[0] == pytest.approx(0.0)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        ix = CenterIndex(alpha=0.1)
        centers = [sorted(set(rng.integers(0, 60, rng.integers(1, 15)).tolist())) for _ in range(20)]
        for c in centers:
            ix.add(c)
        points = [sorted(set(rng.integers(0, 60, rng.integers(0, 15)).tolist())) for _ in range(30)]
        cis, ds = ix.nearest_block([_sup(p) for p in points])
        for p, ci, d in zip(points, cis, ds):
            brute = [asymmetric_hamming(c, p, 0.1) for c in centers]
            assert d == pytest.approx(min(brute))
            assert brute[ci] == pytest.approx(min(brute))

    def test_zero_overlap_prefers_smallest_center(self):
        ix = CenterIndex(alpha=0.1)
        ix.add(list(range(10)))
        small = ix.add([20])
        ci, d = ix.nearest_block([_sup([30])])
        assert ci[0] == small
        assert d[0] == pytest.approx(1 + 0.1 * 1)

    def test_distance_never_negative(self):
        ix = CenterIndex(alpha=0.1)
        ix.add([1, 2, 3])
        _, d = ix.nearest_block([_sup([1, 2, 3])])
        assert d[0] >= 0.0

    def test_alpha_one_matches_plain_hamming(self):
        ix = CenterIndex(alpha=1.0)
        centers = [[1, 2, 3], [4, 5], [1, 9]]
        for c in centers:
            ix.add(c)
        p = [1, 4, 9]
        ci, d = ix.nearest_block([_sup(p)])
        brute = [hamming(c, p) for c in centers]
        assert d[0] == pytest.approx(min(brute))
        assert brute[ci[0]] == min(brute)

    def test_exact_tie_takes_lower_index(self):
        ix = CenterIndex(alpha=0.1)
        first = ix.add([1, 2])
        ix.add([2, 3])
        ci, d = ix.nearest_block([_sup([2]), _sup([7])])
        assert ci.tolist() == [first, first]
        assert d.tolist() == pytest.approx([0.1, 1.2])

    @given(
        st.lists(st.lists(st.integers(0, 6), max_size=5), min_size=1, max_size=8),
        st.lists(st.lists(st.integers(0, 6), max_size=5), min_size=1, max_size=10),
        st.sampled_from([0.1, 1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_block_matches_bruteforce_first_minimum(self, centers, points, alpha):
        """A small id alphabet makes ties common; each row must name the
        first center at the smallest distance."""
        ix = CenterIndex(alpha=alpha)
        for c in centers:
            ix.add(_sup(c))
        cis, ds = ix.nearest_block([_sup(p) for p in points])
        for p, ci, d in zip(points, cis, ds):
            brute = [asymmetric_hamming(c, p, alpha) for c in centers]
            assert ci == brute.index(min(brute))
            assert d == pytest.approx(min(brute))


class TestBlockDistances:
    """Entry ``[j, i]``: point i's distance to point j as a center."""

    @staticmethod
    def _check(points, alpha):
        got = block_distances([_sup(p) for p in points], alpha)
        assert got.shape == (len(points), len(points))
        for j, center in enumerate(points):
            want = [max(asymmetric_hamming(center, p, alpha), 0.0) for p in points]
            assert got[j] == pytest.approx(want, abs=1e-12)

    @given(
        st.lists(st.lists(st.integers(0, 9), max_size=6), min_size=1, max_size=12),
        st.sampled_from([0.1, 1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce(self, points, alpha):
        """A small id alphabet: duplicate rows, empty rows and rows that
        share no id are common."""
        self._check(points, alpha)

    def test_duplicate_rows_are_at_zero(self):
        points = [[1, 2, 3], [4], [1, 2, 3], [], [2, 3]]
        self._check(points, 0.1)
        got = block_distances([_sup(p) for p in points], 0.1)
        assert got[0, 2] == got[2, 0] == 0.0

    def test_empty_support(self):
        self._check([[], [5, 6], []], 0.1)

    def test_one_row_block(self):
        self._check([[3, 7, 9]], 0.1)
        self._check([[]], 0.1)

    def test_all_points_empty(self):
        got = block_distances([_sup([]), _sup([])], 0.1)
        assert got.tolist() == [[0.0, 0.0], [0.0, 0.0]]


def _overlap(postings, rows):
    """``Postings.overlap`` of duplicate-free rows, their ids looked up
    among the keys as the distance and second-pass code does."""
    vals, row, _ = _flat(rows)
    at, hit = _in_sorted(postings.keys, vals)
    return postings.overlap(len(rows), row[hit], at[hit])


sets_lists = st.lists(supports, max_size=8)  # empty sets, and no sets at all


class TestPostings:
    @staticmethod
    def _check(postings, sets):
        keys = sorted(set().union(*map(set, sets)))
        assert postings.keys.tolist() == keys
        assert postings.sizes.tolist() == [len(s) for s in sets]
        assert postings.ptr[0] == 0 and postings.ptr[-1] == len(postings.post)
        for i, v in enumerate(keys):
            got = postings.post[postings.ptr[i]:postings.ptr[i + 1]].tolist()
            assert got == [c for c, s in enumerate(sets) if v in s]

    @given(sets_lists, st.lists(supports, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce(self, sets, rows):
        p = Postings()
        p.add([_sup(s) for s in sets])
        self._check(p, sets)
        want = [[len(set(r) & set(s)) for s in sets] for r in rows]
        assert _overlap(p, [_sup(r) for r in rows]).tolist() == want

    @given(sets_lists, sets_lists)
    @settings(max_examples=200, deadline=None)
    def test_two_adds_equal_one_build(self, first, second):
        two, one = Postings(), Postings()
        two.add([_sup(s) for s in first])
        two.add([_sup(s) for s in second])
        one.add([_sup(s) for s in first + second])
        for name in ("keys", "ptr", "post", "sizes"):
            assert getattr(two, name).tolist() == getattr(one, name).tolist()
        self._check(two, first + second)

    def test_empty(self):
        p = Postings()
        p.add([])
        assert p.keys.size == p.post.size == p.sizes.size == 0
        assert p.ptr.tolist() == [0]
        assert _overlap(p, [_sup([1, 2])]).shape == (1, 0)


class TestDensify:
    def test_rows_over_cols(self):
        X = densify([[1, 5], [5, 9]], np.asarray([1, 5, 9]), np.float64)
        assert X.tolist() == [[1, 1, 0], [0, 1, 1]]
        assert X.dtype == np.float64

    def test_ids_outside_cols_are_dropped(self):
        X = densify([[0, 3, 7, 12], [2]], np.asarray([3, 7, 8]), np.int64)
        assert X.tolist() == [[1, 1, 0], [0, 0, 0]]

    def test_empty_rows(self):
        X = densify([np.array([0, 2]), np.array([], dtype=np.int64)], np.arange(4), np.float32)
        assert X.tolist() == [[1, 0, 1, 0], [0, 0, 0, 0]]
        assert X.dtype == np.float32

    def test_empty_cols(self):
        assert densify([[], []], np.empty(0, np.int64), np.float64).shape == (2, 0)
        assert densify([[4]], np.empty(0, np.int64), np.float64).shape == (1, 0)

    def test_no_rows(self):
        assert densify([], np.arange(3), np.int64).shape == (0, 3)

    def test_duplicate_ids_set_once(self):
        assert densify([[2, 2, 0]], np.arange(3), np.int64).tolist() == [[1, 0, 1]]
