"""Tests for the regression tree (Fig. 5b) and the significance checker."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.exceptions import SubspaceError
from repro.subspace.significance import wilcoxon_signed_rank
from repro.subspace.tree import (
    RegressionTree,
    path_to_halfspaces,
)


class TestRegressionTree:
    def test_single_split_recovered(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(300, 1))
        y = np.where(x[:, 0] > 0.6, 5.0, 1.0)
        tree = RegressionTree(max_depth=2, min_samples_leaf=10).fit(x, y)
        assert tree.num_leaves() >= 2
        assert tree.predict_one(np.array([0.9])) == pytest.approx(5.0, abs=0.2)
        assert tree.predict_one(np.array([0.1])) == pytest.approx(1.0, abs=0.2)
        # The split threshold sits near 0.6.
        path = tree.path_to(np.array([0.9]))
        assert path[0].threshold == pytest.approx(0.6, abs=0.05)

    def test_two_feature_interaction(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(600, 2))
        y = np.where((x[:, 0] > 0.5) & (x[:, 1] > 0.5), 3.0, 0.0)
        tree = RegressionTree(max_depth=3, min_samples_leaf=15).fit(x, y)
        corner = np.array([0.9, 0.9])
        assert tree.predict_one(corner) > 2.0
        path = tree.path_to(corner)
        assert len(path) >= 2

    def test_constant_target_single_leaf(self):
        x = np.linspace(0, 1, 50).reshape(-1, 1)
        y = np.full(50, 2.5)
        tree = RegressionTree().fit(x, y)
        assert tree.num_leaves() == 1
        assert tree.depth() == 0
        assert tree.predict_one(np.array([0.3])) == 2.5

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=(30, 1))
        y = rng.uniform(0, 1, size=30)
        tree = RegressionTree(max_depth=10, min_samples_leaf=16).fit(x, y)
        # 30 samples cannot split into two leaves of >= 16.
        assert tree.num_leaves() == 1

    def test_max_depth_respected(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, size=(500, 1))
        y = x[:, 0] ** 2
        tree = RegressionTree(max_depth=2, min_samples_leaf=5).fit(x, y)
        assert tree.depth() <= 2

    def test_unfitted_raises(self):
        with pytest.raises(SubspaceError):
            RegressionTree().predict_one(np.zeros(1))

    def test_empty_fit_rejected(self):
        with pytest.raises(SubspaceError):
            RegressionTree().fit(np.zeros((0, 1)), np.zeros(0))

    def test_path_predicates_hold_for_their_point(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 1, size=(400, 3))
        y = x[:, 0] + np.where(x[:, 2] > 0.7, 2.0, 0.0)
        tree = RegressionTree(max_depth=4, min_samples_leaf=10).fit(x, y)
        for point in x[:20]:
            for predicate in tree.path_to(point):
                assert predicate.holds(point)

    def test_path_to_halfspaces_membership(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, size=(400, 2))
        y = np.where(x[:, 1] > 0.5, 1.0, 0.0)
        tree = RegressionTree(max_depth=2, min_samples_leaf=10).fit(x, y)
        point = np.array([0.5, 0.9])
        halfspaces = path_to_halfspaces(tree.path_to(point), 2)
        assert all(h.contains(point) for h in halfspaces)

    def test_render_mentions_features(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, size=(200, 2))
        y = np.where(x[:, 0] > 0.5, 1.0, 0.0)
        tree = RegressionTree(
            max_depth=2, min_samples_leaf=10, feature_names=["alpha", "beta"]
        ).fit(x, y)
        assert "alpha" in tree.render()

    def test_predictions_piecewise_constant_in_leaf(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, size=(300, 1))
        y = np.where(x[:, 0] > 0.5, 4.0, 1.0)
        tree = RegressionTree(max_depth=1, min_samples_leaf=20).fit(x, y)
        # Two points in the same leaf get the same prediction.
        assert tree.predict_one(np.array([0.8])) == tree.predict_one(
            np.array([0.9])
        )


class TestWilcoxon:
    def test_clear_separation_significant(self):
        rng = np.random.default_rng(0)
        inside = rng.normal(2.0, 0.3, size=40)
        outside = rng.normal(0.5, 0.3, size=40)
        result = wilcoxon_signed_rank(inside, outside)
        assert result.significant
        assert result.p_value < 1e-5

    def test_identical_pools_not_significant(self):
        values = np.linspace(0, 1, 30)
        result = wilcoxon_signed_rank(values, values)
        assert not result.significant
        assert result.p_value == 1.0

    def test_wrong_direction_not_significant(self):
        rng = np.random.default_rng(1)
        inside = rng.normal(0.2, 0.1, size=30)
        outside = rng.normal(1.0, 0.1, size=30)
        result = wilcoxon_signed_rank(inside, outside)
        assert not result.significant

    def test_size_mismatch_rejected(self):
        with pytest.raises(SubspaceError):
            wilcoxon_signed_rank(np.zeros(10), np.zeros(9))

    def test_too_few_pairs_rejected(self):
        with pytest.raises(SubspaceError):
            wilcoxon_signed_rank(np.zeros(3), np.ones(3))

    def test_builtin_matches_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(6):
            inside = rng.normal(1.0, 0.5, size=35)
            outside = rng.normal(0.7, 0.5, size=35)
            ours = wilcoxon_signed_rank(inside, outside, method="builtin")
            scipys = wilcoxon_signed_rank(inside, outside, method="scipy")
            # Normal approximation vs exact: agree within a tolerance.
            assert ours.p_value == pytest.approx(scipys.p_value, abs=0.02)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1, max_value=1),
            min_size=12,
            max_size=12,
        )
    )
    def test_builtin_p_value_in_unit_interval(self, shifts):
        inside = np.linspace(0, 1, 12) + np.array(shifts)
        outside = np.linspace(0, 1, 12)
        result = wilcoxon_signed_rank(inside, outside, method="builtin")
        assert 0.0 <= result.p_value <= 1.0

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0]),
            min_size=5,
            max_size=13,
        ),
        st.sampled_from([1.0, 0.1, 1e-3]),
    )
    def test_sign_flip_path_equals_scipy(self, values, scale):
        """Small pools with ties or zeros, which SciPy answers with a
        permutation test: the subset-sum count gives the same p-value
        and statistic, bit for bit."""
        differences = np.array(values) * scale
        assume(not np.allclose(differences, 0.0))
        result = wilcoxon_signed_rank(differences, np.zeros_like(differences))
        reference = stats.wilcoxon(
            differences, alternative="greater", zero_method="wilcox"
        )
        assert result.p_value == float(reference.pvalue)
        assert result.statistic == float(reference.statistic)

    def test_describe_mentions_verdict(self):
        rng = np.random.default_rng(3)
        inside = rng.normal(2.0, 0.1, size=20)
        outside = rng.normal(0.0, 0.1, size=20)
        text = wilcoxon_signed_rank(inside, outside).describe()
        assert "significant" in text
