import numpy as np
import pytest
from oracles import RefTree, ref_grow_tree, ref_tree_predict

from qselect.errors import ValidationError
from qselect.gbt import (
    BLOCK_ROWS,
    GradientBoostedRegressor,
    RegressionTree,
    RegressorHyper,
    _grow_tree,
    fit_gradient_boosted,
)


def quadratic_data(m=5, n=256, seed=0):
    rng = np.random.default_rng(seed)
    w_star = rng.dirichlet(np.ones(m))
    X = rng.dirichlet(np.ones(m), size=n)
    y = 1.0 + ((X - w_star) ** 2).sum(axis=1)
    return X, y


class TestHyper:
    def test_defaults(self):
        h = RegressorHyper()
        assert (h.n_trees, h.max_depth, h.learning_rate, h.subsample) == (100, 4, 0.05, 0.8)

    def test_validation(self):
        with pytest.raises(ValidationError):
            RegressorHyper(max_depth=0)
        with pytest.raises(ValidationError):
            RegressorHyper(learning_rate=0.0)
        with pytest.raises(ValidationError):
            RegressorHyper(subsample=1.5)


class TestFit:
    def test_in_sample_rmse_under_5pct_of_range(self):
        X, y = quadratic_data()
        model = fit_gradient_boosted(X, y)
        rmse = np.sqrt(np.mean((model.predict(X) - y) ** 2))
        assert rmse < 0.05 * np.ptp(y)

    def test_constant_targets_yield_constant_model(self):
        X = np.random.default_rng(0).random((30, 3))
        y = np.full(30, 2.5)
        model = fit_gradient_boosted(X, y)
        assert model.n_trees == 0
        assert np.all(model.predict(X) == 2.5)

    def test_deterministic_given_seed_and_order(self):
        X, y = quadratic_data(seed=3)
        a = fit_gradient_boosted(X, y, RegressorHyper(seed=7))
        b = fit_gradient_boosted(X, y, RegressorHyper(seed=7))
        grid = np.random.default_rng(1).dirichlet(np.ones(5), size=500)
        assert np.array_equal(a.predict(grid), b.predict(grid))

    def test_seed_changes_model(self):
        X, y = quadratic_data(seed=3)
        a = fit_gradient_boosted(X, y, RegressorHyper(seed=7))
        b = fit_gradient_boosted(X, y, RegressorHyper(seed=8))
        grid = np.random.default_rng(1).dirichlet(np.ones(5), size=500)
        assert not np.array_equal(a.predict(grid), b.predict(grid))

    def test_single_feature_step_function(self):
        X = np.linspace(0, 1, 100)[:, None]
        y = (X[:, 0] > 0.5).astype(float)
        model = fit_gradient_boosted(X, y, RegressorHyper(subsample=1.0))
        pred = model.predict(np.array([[0.1], [0.9]]))
        assert pred[0] < 0.1 and pred[1] > 0.9

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValidationError):
            fit_gradient_boosted(np.zeros((4, 2)), np.zeros(5))
        with pytest.raises(ValidationError):
            fit_gradient_boosted(np.zeros((0, 2)), np.zeros(0))

    def test_depth_limit_respected(self):
        X, y = quadratic_data(m=3, n=200)
        model = fit_gradient_boosted(X, y, RegressorHyper(max_depth=2, n_trees=10))
        for tree in model.trees:
            # depth-2 tree has at most 7 nodes
            assert len(tree.feature) <= 7

    def test_prediction_vector_matches_scalar_walk(self):
        # vectorized routing agrees exactly with a straightforward nodewise walk
        X, y = quadratic_data(m=4, n=120, seed=9)
        model = fit_gradient_boosted(X, y, RegressorHyper(n_trees=20))
        queries = np.random.default_rng(2).dirichlet(np.ones(4), size=50)
        assert np.array_equal(model.predict(queries), scalar_walk(model, queries))

    def test_lopsided_tree_matches_scalar_walk(self):
        # leaves at depths 1, 2, 3 and 3: rows that reach the shallow leaves
        # keep walking on their self-loops while others descend
        inf = np.inf
        tree = RegressionTree(
            feature=np.array([0, 0, 1, 0, 0, 0, 0]),
            threshold=np.array([0.5, inf, 0.2, inf, 0.8, inf, inf]),
            left=np.array([1, 1, 3, 3, 5, 5, 6]),
            right=np.array([2, 1, 4, 3, 6, 5, 6]),
            value=np.array([0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 4.0]),
            depth=3,
        )
        model = GradientBoostedRegressor(0.25, [tree], 0.5)
        queries = np.random.default_rng(4).random((200, 2))
        queries[:4] = [[0.5, 0.0], [0.6, 0.2], [0.8, 0.9], [0.81, 0.9]]  # on the thresholds
        got = model.predict(queries)
        assert np.array_equal(got, scalar_walk(model, queries))
        assert list(got[:4]) == [0.75, 1.25, 1.75, 2.25]

    def test_zero_tree_model_predicts_base(self):
        model = GradientBoostedRegressor(2.5, [], 0.05)
        assert np.array_equal(model.predict(np.ones((3, 2))), np.full(3, 2.5))


def scalar_walk(model, queries):
    """Sum the trees in tree order, routing each query node by node."""

    def walk(tree, x):
        node = 0
        while tree.left[node] != node:
            if x[tree.feature[node]] <= tree.threshold[node]:
                node = tree.left[node]
            else:
                node = tree.right[node]
        return tree.value[node]

    want = np.full(len(queries), model.base)
    for tree in model.trees:
        want += model.learning_rate * np.array([walk(tree, q) for q in queries])
    return want


def self_looping(ref):
    """The oracle's tree with each leaf as the package stores it: looping to itself."""
    leaf = ref.feature < 0
    nodes = np.arange(ref.feature.size)
    return (
        np.where(leaf, 0, ref.feature),
        np.where(leaf, np.inf, ref.threshold),
        np.where(leaf, nodes, ref.left),
        np.where(leaf, nodes, ref.right),
        ref.value,
    )


def as_ref_tree(tree):
    """The package's tree in the oracle's encoding: -1 marks a leaf."""
    leaf = tree.left == np.arange(tree.left.size)
    return RefTree(
        np.where(leaf, -1, tree.feature),
        np.where(leaf, 0.0, tree.threshold),
        np.where(leaf, -1, tree.left),
        np.where(leaf, -1, tree.right),
        tree.value,
    )


def random_tree_input(trial):
    """Rows, targets and settings for one trial; the kind of rows cycles with the trial."""
    rng = np.random.default_rng(1000 + trial)
    n = int(rng.integers(1, 90))
    m = int(rng.integers(1, 7))
    kind = trial % 4
    if kind == 0:  # tie-heavy integer-valued columns
        X = rng.integers(0, 4, size=(n, m)).astype(float)
    elif kind == 1:  # constant columns among continuous ones
        X = rng.random((n, m))
        X[:, rng.random(m) < 0.5] = 3.0
    elif kind == 2:  # every row three times
        X = np.repeat(rng.random((n // 3 + 1, m)), 3, axis=0)[:n]
    else:
        X = rng.normal(size=(n, m))
    y = rng.integers(0, 3, size=n).astype(float) if trial % 3 == 0 else rng.normal(size=n)
    return X, y, int(rng.integers(1, 7)), int(rng.choice([1, 3, 7]))


def rows_per_node(ref, X):
    """How many rows of ``X`` reach each node of the oracle's tree."""
    counts = np.zeros(ref.feature.size, dtype=int)
    for x in X:
        node = 0
        counts[node] += 1
        while ref.feature[node] >= 0:
            go_left = x[ref.feature[node]] <= ref.threshold[node]
            node = ref.left[node] if go_left else ref.right[node]
            counts[node] += 1
    return counts


def fitted_ensemble():
    X, y = quadratic_data(m=6, n=200, seed=5)
    y = np.round(y, 2)  # ties in the targets
    return fit_gradient_boosted(X, y, RegressorHyper(n_trees=30, max_depth=5, min_samples_leaf=3))


def stump_ensemble():
    """Depth-1 trees around a root leaf, a mix that one fit does not produce."""
    inf = np.inf

    def stump(feature, threshold, low, high):
        return RegressionTree(
            feature=np.array([feature, 0, 0]),
            threshold=np.array([threshold, inf, inf]),
            left=np.array([1, 1, 2]),
            right=np.array([2, 1, 2]),
            value=np.array([0.0, low, high]),
            depth=1,
        )

    zero = np.array([0])
    leaf = RegressionTree(zero, np.array([inf]), zero, zero, np.array([0.75]), depth=0)
    trees = [stump(0, 0.2, -1.0, 2.0), leaf, stump(1, 0.1, 3.0, -0.5)]
    return GradientBoostedRegressor(0.5, trees, 0.1)


class TestMatchesReference:
    def test_trees_match_node_for_node(self):
        names = ("feature", "threshold", "left", "right", "value")
        settings = set()
        small_nodes = 0
        for trial in range(240):
            X, y, max_depth, min_leaf = random_tree_input(trial)
            got = _grow_tree(X, y, max_depth, min_leaf)
            ref = ref_grow_tree(X, y, max_depth, min_leaf)
            for name, want in zip(names, self_looping(ref)):
                assert np.array_equal(getattr(got, name), want), (trial, name)
            depth = np.zeros(ref.feature.size, dtype=int)
            for node in np.flatnonzero(ref.feature >= 0):  # parents precede their children
                depth[ref.left[node]] = depth[ref.right[node]] = depth[node] + 1
            assert got.depth == depth.max(), trial
            queries = np.vstack([X, np.random.default_rng(trial).normal(size=(40, X.shape[1]))])
            assert np.array_equal(got.predict(queries), ref_tree_predict(ref, queries)), trial
            settings.add((max_depth, min_leaf))
            small_nodes += int((rows_per_node(ref, X) < 2 * min_leaf).sum())
        assert settings == {(d, k) for d in range(1, 7) for k in (1, 3, 7)}
        assert small_nodes > 0

    @pytest.mark.parametrize("rows", [1, BLOCK_ROWS, 2 * BLOCK_ROWS + 37])
    def test_ensemble_predictions_match_reference(self, rows):
        for build in (fitted_ensemble, stump_ensemble):
            model = build()
            queries = np.random.default_rng(rows).dirichlet(np.ones(6), size=rows)
            special = (np.arange(rows)[:, None] + np.arange(6)) % 4
            queries[special == 1] = np.nan
            queries[special == 2] = np.inf
            queries[special == 3] = -np.inf
            root = model.trees[0]
            queries[0, root.feature[0]] = root.threshold[0]  # on the threshold: goes left
            want = np.full(rows, model.base)
            for tree in model.trees:
                want += model.learning_rate * ref_tree_predict(as_ref_tree(tree), queries)
            assert np.array_equal(model.predict(queries), want), build.__name__
