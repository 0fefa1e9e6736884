"""Gradient-boosted regression trees, implemented from scratch.

Squared-error boosting: start from the target mean, then repeatedly fit a
depth-limited regression tree to the current residuals on a random
subsample and add it with shrinkage. Trees split greedily on the
axis-aligned threshold that maximizes the reduction in sum of squared
errors: the exact greedy search, not a histogram one. Everything is
deterministic given the seed and the input order.

Split search sorts each feature's rows once per tree (a stable argsort, one
row of an (m, n) index array per feature). A node scores every split of
every feature in one 2-D pass of running sums, and its children keep the
parent's sorted rows that fall on their side, which is the order a fresh
stable sort would give. A node's value is its row sum over its row count,
the sum its split search uses.

Prediction walks every row the same number of steps, the tree's depth: a
leaf loops to itself, so a row that reaches a shallow leaf stays on it.
The root's test is one column compare; below it, node ids are doubled so
that ``id + (x <= threshold)`` indexes the tree's child table. The
ensemble takes the rows a fixed-size block at a time and walks each block
through every tree, adding the trees' shrunken leaf values in tree order:
one block stays in cache across all the trees, where walking the whole
matrix tree by tree would read it once per tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldError, ValidationError

_MIN_GAIN = 1e-12
_PREDICT_CHUNK = 8192  # rows per block: at 16 features a block is 1 MB, which stays in L2


@dataclass(frozen=True)
class RegressorHyper:
    """Boosting hyperparameters."""

    n_trees: int = 100
    max_depth: int = 4
    learning_rate: float = 0.05
    subsample: float = 0.8
    min_samples_leaf: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 0:
            raise FieldError("n_trees", "must be nonnegative")
        if self.max_depth < 1:
            raise FieldError("max_depth", "must be at least 1")
        if not 0 < self.learning_rate <= 1:
            raise FieldError("learning_rate", "must be in (0, 1]")
        if not 0 < self.subsample <= 1:
            raise FieldError("subsample", "must be in (0, 1]")
        if self.min_samples_leaf < 1:
            raise FieldError("min_samples_leaf", "must be at least 1")


class RegressionTree:
    """One fitted tree, stored as flat arrays for vectorized prediction.

    A leaf loops to itself: feature 0, threshold +inf, and both children the
    leaf. Every row can then walk exactly ``depth`` steps, the depth of the
    deepest leaf, and stop on its leaf wherever that lies.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value", "depth", "_walk_tables")

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        depth: int,
    ) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.depth = depth
        # The walk doubles node ids: node i is 2i, and slot 2i + (x <= threshold)
        # of the child table holds its right child, then its left, both doubled.
        self._walk_tables = (
            2 * np.stack([right, left], axis=1).ravel(),
            np.repeat(feature, 2),
            np.repeat(threshold, 2),
            np.repeat(value, 2),
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.ascontiguousarray(X)
        out = np.empty(X.shape[0])
        for rows, block, row_base in _blocks(X):
            out[rows] = self._walk(block, row_base)
        return out

    def _walk(self, block: np.ndarray, row_base: np.ndarray) -> np.ndarray:
        """The leaf value of each row of ``block``; ``row_base`` holds each row's
        offset in the raveled block."""
        child, feature, threshold, value = self._walk_tables
        flat = block.ravel()
        # A root leaf (depth 0) loops back to itself on this first step.
        node = child.take(block[:, self.feature[0]] <= self.threshold[0])
        for _ in range(self.depth - 1):
            x = flat.take(row_base + feature.take(node))
            node = child.take(node + (x <= threshold.take(node)))
        return value.take(node)


def _blocks(X: np.ndarray):
    """Cut the C-contiguous ``X`` into blocks of ``_PREDICT_CHUNK`` rows.

    Yields each block's row slice, the block, and each of its rows' offset
    in the raveled block.
    """
    n, m = X.shape
    for start in range(0, n, _PREDICT_CHUNK):
        block = X[start : start + _PREDICT_CHUNK]
        yield slice(start, start + block.shape[0]), block, np.arange(0, block.size, m)


def _best_split(
    y_sorted: np.ndarray, x_sorted: np.ndarray, total_sum: float, total_sq: float, min_leaf: int
) -> tuple[int, int] | None:
    """Find the (feature, position) split maximizing SSE reduction.

    ``y_sorted`` and ``x_sorted`` hold the node's targets and values with
    each feature's rows in stable sorted order, one feature per row. A split
    after position i sends that feature's first i + 1 rows left; the
    threshold is the last left-hand value, so the routing rule x <= threshold
    partitions training and prediction points alike. The first feature with
    the greatest gain wins. Returns None when no split clears the minimum
    gain.
    """
    n = y_sorted.shape[1]
    total_sse = total_sq - total_sum * total_sum / n
    csum = y_sorted.cumsum(axis=1)[:, :-1]
    csq = (y_sorted * y_sorted).cumsum(axis=1)[:, :-1]
    left_n = np.arange(1, n)
    valid = (x_sorted[:, :-1] < x_sorted[:, 1:]) & (
        (left_n >= min_leaf) & (n - left_n >= min_leaf)
    )
    left_sse = csq - csum**2 / left_n
    right_sum = total_sum - csum
    right_sse = (total_sq - csq) - right_sum**2 / (n - left_n)
    gain = np.where(valid, total_sse - left_sse - right_sse, -np.inf)
    position = gain.argmax(axis=1)
    best = gain[np.arange(gain.shape[0]), position]
    clears = best > _MIN_GAIN
    if not clears.any():
        return None
    j = int(np.where(clears, best, -np.inf).argmax())
    return j, int(position[j])


def _grow_tree(X: np.ndarray, y: np.ndarray, max_depth: int, min_leaf: int) -> RegressionTree:
    """Grow one tree greedily on all rows of ``X``.

    Each feature's rows are stable-sorted once. A node keeps its rows in
    ascending order (for its sums and value) and, per feature, in that
    sorted order; a child takes the parent's sorted rows that fall on its
    side, which equals a stable sort of the child's rows.
    """
    n = y.size
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    depth_reached = 0

    def grow(rows: np.ndarray, order: np.ndarray, x_sorted: np.ndarray, depth: int) -> int:
        nonlocal depth_reached
        node = len(feature)
        y_node = y[rows]
        total = y_node.sum()
        feature.append(0)
        threshold.append(np.inf)
        left.append(node)
        right.append(node)
        value.append(float(total / rows.size))  # the bits of np.mean
        depth_reached = max(depth_reached, depth)
        if depth >= max_depth or rows.size < 2 * min_leaf or y_node.max() == y_node.min():
            return node
        split = _best_split(y[order], x_sorted, total, float(y_node @ y_node), min_leaf)
        if split is None:
            return node
        j, i = split
        goes_left = np.zeros(n, dtype=bool)
        goes_left[order[j, : i + 1]] = True
        feature[node] = j
        threshold[node] = float(x_sorted[j, i])
        for side, child in ((left, goes_left), (right, ~goes_left)):
            keep = child[order]
            side[node] = grow(
                rows[child[rows]],
                order[keep].reshape(order.shape[0], -1),
                x_sorted[keep].reshape(order.shape[0], -1),
                depth + 1,
            )
        return node

    order = np.argsort(X.T, axis=1, kind="stable")
    grow(np.arange(n), order, np.take_along_axis(X.T, order, axis=1), 0)
    return RegressionTree(
        np.asarray(feature, dtype=np.intp),
        np.asarray(threshold),
        np.asarray(left, dtype=np.intp),
        np.asarray(right, dtype=np.intp),
        np.asarray(value),
        depth_reached,
    )


class GradientBoostedRegressor:
    """Additive ensemble of shrunken regression trees."""

    def __init__(self, base: float, trees: list[RegressionTree], learning_rate: float) -> None:
        self.base = base
        self.trees = trees
        self.learning_rate = learning_rate

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        out = np.full(X.shape[0], self.base)
        for rows, block, row_base in _blocks(X):
            block_out = out[rows]
            for tree in self.trees:
                block_out += self.learning_rate * tree._walk(block, row_base)
        return out


def fit_gradient_boosted(
    X: np.ndarray, y: np.ndarray, hyper: RegressorHyper | None = None
) -> GradientBoostedRegressor:
    """Fit the boosted ensemble. Constant targets yield a zero-tree model."""
    hyper = hyper or RegressorHyper()
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise ValidationError(f"bad training shapes X={X.shape}, y={y.shape}")
    if y.size == 0:
        raise ValidationError("no training rows")

    if np.ptp(y) == 0.0:
        return GradientBoostedRegressor(float(y[0]), [], hyper.learning_rate)
    base = float(y.mean())
    model = GradientBoostedRegressor(base, [], hyper.learning_rate)

    rng = np.random.default_rng(hyper.seed)
    n = y.size
    sample_size = max(1, int(round(hyper.subsample * n)))
    pred = np.full(n, base)
    for _ in range(hyper.n_trees):
        if sample_size < n:
            idx = rng.choice(n, size=sample_size, replace=False)
            idx.sort()
        else:
            idx = np.arange(n)
        residual = y[idx] - pred[idx]
        tree = _grow_tree(X[idx], residual, hyper.max_depth, hyper.min_samples_leaf)
        pred += hyper.learning_rate * tree.predict(X)
        model.trees.append(tree)
    return model
