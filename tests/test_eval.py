"""Tests for the evaluation layer: quality measure, dataset stand-ins,
memory accounting, and the table harness."""
import math

import numpy as np
import pytest

from repro.eval.datasets import (
    DATASET_NAMES,
    K_GRID,
    PAPER_K_GRID,
    PAPER_TABLE1,
    load_dataset,
)
from repro.eval.memory import membership_bytes
from repro.eval.quality import jaccard, jaccard_quality, labels_to_clusters


class TestJaccardQuality:
    def test_jaccard_basic(self):
        assert jaccard([1, 2], [1, 2]) == 1.0
        assert jaccard([1], [2]) == 0.0
        assert jaccard([1, 2], [2, 3]) == pytest.approx(1 / 3)
        assert jaccard([], []) == 1.0

    def test_perfect_match(self):
        gt = [[1, 2], [3, 4]]
        assert jaccard_quality(gt, gt) == 1.0

    def test_permuted_clusters(self):
        assert jaccard_quality([[1, 2], [3]], [[3], [1, 2]]) == 1.0

    def test_partial(self):
        q = jaccard_quality([[1, 2, 3, 4]], [[1, 2]])
        assert q == pytest.approx(0.5)

    def test_empty_returned(self):
        assert jaccard_quality([[1]], []) == 0.0

    def test_no_ground_truth(self):
        assert jaccard_quality([], [[1]]) == 1.0

    def test_extra_returned_clusters_dont_hurt(self):
        q = jaccard_quality([[1, 2]], [[1, 2], [99], [5, 6]])
        assert q == 1.0

    def test_labels_to_clusters(self):
        out = labels_to_clusters([1, 0, 1, 2])
        assert [c.tolist() for c in out] == [[1], [0, 2], [3]]


class TestDatasets:
    def test_registry_names(self):
        assert set(DATASET_NAMES) == set(PAPER_TABLE1)
        assert len(DATASET_NAMES) == 6

    def test_k_grids_aligned(self):
        assert len(K_GRID) == len(PAPER_K_GRID) == 3

    def test_load_is_cached(self):
        a = load_dataset("reuters")
        b = load_dataset("reuters")
        assert a is b

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            load_dataset("netflix")

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_shapes_and_sparsity(self, name):
        g = load_dataset(name)
        assert g.n_left >= 900
        assert g.n_edges > 0
        density = g.n_edges / (g.n_left * g.n_right)
        assert density < 0.05  # all paper datasets are very sparse

    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_degree_skew_matches_paper_shape(self, name):
        """P99 degree well above the mean, as in Table 1."""
        g = load_dataset(name)
        degs = g.degrees()
        pos = degs[degs > 0]
        assert np.percentile(pos, 99) > 2.5 * pos.mean()

    def test_book_pathology(self):
        """Book stand-in: median left degree <= 2 (the paper's failure
        driver for sofa)."""
        degs = load_dataset("book").degrees()
        assert np.median(degs) <= 2

    def test_wiki_is_largest(self):
        wiki = load_dataset("wiki")
        for name in DATASET_NAMES:
            if name != "wiki":
                g = load_dataset(name)
                assert wiki.n_left * wiki.n_right > g.n_left * g.n_right

    def test_relative_sizes_match_paper_ordering(self):
        """|U|/|V| > 1 exactly for the datasets where the paper has it."""
        for name in DATASET_NAMES:
            g = load_dataset(name)
            p = PAPER_TABLE1[name]
            assert (g.n_left > g.n_right) == (p.n_left > p.n_right), name


class TestMemoryAccounting:
    def test_membership_bytes(self):
        assert membership_bytes([[1, 2], [], [3]]) == 8 * 2 + 8 + 8


class TestWikiBassoOom:
    def test_wiki_exceeds_budget(self):
        from repro.baselines.asso import estimate_workspace_bytes
        from repro.eval.harness import ASSO_BUDGET

        g = load_dataset("wiki")
        assert estimate_workspace_bytes(g.n_left, g.n_right) > ASSO_BUDGET

    @pytest.mark.parametrize("name", [n for n in DATASET_NAMES if n != "wiki"])
    def test_others_fit_budget(self, name):
        from repro.baselines.asso import estimate_workspace_bytes
        from repro.eval.harness import ASSO_BUDGET

        g = load_dataset(name)
        assert estimate_workspace_bytes(g.n_left, g.n_right) <= ASSO_BUDGET


class TestHarness:
    """Integration: one cell per algorithm on the smallest dataset."""

    def test_basso_cell(self):
        from repro.eval.harness import run_cell

        c = run_cell(None, "reuters", "basso", 4)
        assert c.ok
        assert 0 < c.gain <= 1
        assert 0 < c.recall <= 1
        assert c.seconds > 0
        assert c.memory_bytes > 0

    def test_rs_cells(self):
        from repro.eval.harness import run_cell

        c1 = run_cell(None, "reuters", "rs-dhillon", 4)
        c2 = run_cell(None, "reuters", "rs-zha", 4)
        assert c1.ok and c2.ok
        assert c1.recall >= 0 and c2.recall >= 0

    def test_sofa_cells_share_first_pass(self, spark):
        from repro.eval import harness

        harness.clear_pass_cache()
        c1 = harness.run_cell(spark, "reuters", "sofa", 4)
        assert ("reuters", 4) in harness._pass_cache
        c2 = harness.run_cell(spark, "reuters", "sofa-auto", 4)
        assert c1.ok and c2.ok
        assert c1.gain > 0 and c2.gain > 0
        # line search can only improve on any single threshold choice
        assert c1.gain >= c2.gain - 0.05

    def test_wiki_basso_oom_cell(self):
        from repro.eval.harness import run_cell

        c = run_cell(None, "wiki", "basso", 4)
        assert not c.ok
        assert math.isnan(c.gain)
        assert c.note == "oom"

    def test_unknown_algorithm(self):
        from repro.eval.harness import run_cell

        with pytest.raises(ValueError):
            run_cell(None, "reuters", "svd", 4)

    def test_basso_beats_rs_on_small_v(self):
        """Paper shape: on small-|V| datasets basso > RS*."""
        from repro.eval.harness import run_cell

        b = run_cell(None, "reuters", "basso", 4)
        d = run_cell(None, "reuters", "rs-dhillon", 4)
        assert b.gain > d.gain
