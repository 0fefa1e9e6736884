"""Gradient-boosted regression trees, implemented from scratch.

Squared-error boosting: start from the target mean, then repeatedly fit a
depth-limited regression tree to the current residuals on a row sample
and add it with shrinkage. The sample is drawn afresh for each tree when
``subsample`` leaves rows out; otherwise it is every row, and nothing is
drawn. Trees split greedily on the axis-aligned threshold that maximizes
the reduction in sum of squared errors: the exact greedy search, not a
histogram one. Everything is deterministic given the seed and the input
order.

Split search sorts each feature's rows once per fit (a stable argsort, one
row of an (m, n) index array per feature, as in XGBoost's exact greedy
search). A tree takes the sorted rows that lie in its sample, and a
child the parent's sorted rows that fall on its side. Both are in
ascending row order, so each is the order a fresh stable sort would give.
A child builds its sorted rows only when it goes on to split; a leaf needs
only its rows. A node scores every split of every feature in one 2-D pass
of running sums and takes one row-major ``argmax`` over the (features,
positions) gains: the first feature with the greatest gain wins, at its
first position with it. No gain is NaN, since ``optimizer.fit_regressor``
refuses losses whose sums of squares could overflow. A node's value is its
row sum over its row count, the sum its split search uses.

Prediction walks every row the same number of steps, the tree's depth: a
leaf loops to itself, so a row that reaches a shallow leaf stays on it.
The root's test is one column compare; below it, node ids are doubled so
that ``id + (x <= threshold)`` indexes the tree's child table. The
ensemble takes the rows a fixed-size block at a time and walks each block
through every tree, adding the trees' shrunken leaf values in tree order:
one block stays in cache across all the trees, where walking the whole
matrix tree by tree would read it once per tree. The fit adds each new
tree's leaf values to its residuals by the same walk, over all its
training rows at once.

A block walk may also take a cutoff and drop the rows sure to predict
above it (exact early exit for additive ensembles, as in Cambazoglu et al.,
WSDM 2010). After t trees a row's prediction is at least its partial sum
plus R, the sum over the remaining trees of ``learning_rate`` times the
tree's least leaf: rounding is monotone, so no remaining tree adds less
than its term of R. Every ``PRUNE_EVERY`` trees the walk drops each row
whose partial sum plus R, less a margin, is above the cutoff, keeps the
survivors compact, and reads ``inf`` for the dropped rows. The margin is
``4 (n_trees + 1) eps M``, where M is ``|base|`` plus each tree's largest
``|learning_rate * leaf|``. No sum of the walk or of the bound is larger
than 2M, so each float addition is off by at most ``eps M``, and at most
``2 n_trees + 1`` of them lie between the bound and a finished prediction:
those still ahead of the row, those that summed R, and the two of the
comparison. The margin covers them twice over. It is absolute because a
bound near 0 can have sums near M behind it, which a margin relative to
the bound would not cover. A kept row adds every tree in tree order, one
elementwise addition at a time, whichever rows beside it were dropped, so
its prediction has the bits ``predict`` gives it. For the same reason a
walk may stop after some trees and resume from its partial sums later.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldError

_MIN_GAIN = 1e-12
BLOCK_ROWS = 8192  # rows per block: at 16 features a block is 1 MB, which stays in L2
PRUNE_EVERY = 10  # trees between a cutoff walk's checks of its bound


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


def _row_offsets(block: np.ndarray) -> np.ndarray:
    """Each row's offset in the raveled C-contiguous ``block``."""
    return np.arange(0, block.size, block.shape[1])


def _best_split(
    y_sorted: np.ndarray,
    x_sorted: np.ndarray,
    total_sum: float,
    total_sq: float,
    min_leaf: int,
    counts: tuple[np.ndarray, np.ndarray],
) -> tuple[int, int] | None:
    """Find the (feature, position) split maximizing SSE reduction.

    ``y_sorted`` and ``x_sorted`` hold the node's targets and values with
    each feature's rows in stable sorted order, one feature per row;
    ``y_sorted`` is squared in place. ``counts`` holds the left and right row
    counts of each position, as floats. A split after position i sends that
    feature's first i + 1 rows left; the threshold is the last left-hand
    value, so the routing rule x <= threshold partitions training and
    prediction points alike. The first feature with the greatest gain wins,
    at its first position with that gain. Returns None when no split clears
    the minimum gain.
    """
    n = y_sorted.shape[1]
    left_n, right_n = counts
    total_sse = total_sq - total_sum * total_sum / n
    csum = y_sorted[:, :-1].cumsum(axis=1)
    np.multiply(y_sorted, y_sorted, out=y_sorted)
    csq = y_sorted[:, :-1].cumsum(axis=1)
    # gain = (total_sse - left_sse) - right_sse, where
    # left_sse = csq - csum**2 / left_n and
    # right_sse = (total_sq - csq) - (total_sum - csum)**2 / right_n,
    # one operation at a time, in place.
    right = total_sum - csum
    right *= right
    right /= right_n
    csum *= csum
    csum /= left_n
    gain = np.subtract(csq, csum, out=csum)  # left_sse
    right_sse = np.subtract(total_sq, csq, out=csq)
    right_sse -= right
    np.subtract(total_sse, gain, out=gain)
    gain -= right_sse
    np.copyto(gain, -np.inf, where=~(x_sorted[:, :-1] < x_sorted[:, 1:]))
    gain[:, : min_leaf - 1] = -np.inf  # fewer than min_leaf rows on the left
    gain[:, n - min_leaf :] = -np.inf  # or on the right
    best = int(gain.argmax())  # row-major: the first feature wins a tie, at its first position
    if not gain.flat[best] > _MIN_GAIN:
        return None
    return divmod(best, n - 1)


class _TreeGrower:
    """What every tree of one boosted fit shares: each feature's rows in
    stable sorted order with their values, sorted once, and the row counts
    of each split position for each node size met so far."""

    def __init__(self, X: np.ndarray, max_depth: int, min_leaf: int) -> None:
        self.order = np.argsort(X.T, axis=1, kind="stable")
        self.x_sorted = np.take_along_axis(X.T, self.order, axis=1)
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self._counts: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _split_counts(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        counts = self._counts.get(n)
        if counts is None:
            left_n = np.arange(1.0, n)
            counts = self._counts[n] = (left_n, n - left_n)
        return counts

    def grow(self, y: np.ndarray, sample: np.ndarray) -> RegressionTree:
        """Grow one tree greedily on the rows ``sample`` (ascending indices),
        whose targets are ``y``, one per sampled row.

        A node keeps its rows in ascending order (for its sums and value)
        and, per feature, in sorted order. The sample's sorted rows are the
        fit's sorted rows that lie in the sample, and a child's are its
        parent's that fall on its side: each equals a fresh stable sort,
        since the sample and the parent's rows are in ascending order. A
        child builds them only when it splits.
        """
        in_sample = np.zeros(self.order.shape[1], dtype=bool)
        in_sample[sample] = True
        local = np.cumsum(in_sample) - 1  # each sampled row's index in the sample
        keep = in_sample[self.order]
        order = local[self.order[keep]].reshape(self.order.shape[0], -1)
        x_sorted = self.x_sorted[keep].reshape(order.shape[0], -1)
        max_depth, min_leaf = self.max_depth, self.min_leaf
        n = y.size
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        depth_reached = 0

        def grow_node(rows, order, x_sorted, side, depth) -> int:
            """Grow the node of ``rows``, whose parent's sorted rows are
            ``order`` and ``x_sorted``; ``side`` marks the node's rows among
            them (None at the root)."""
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
            if side is not None:
                keep = side[order]
                order = order[keep].reshape(order.shape[0], -1)
                x_sorted = x_sorted[keep].reshape(order.shape[0], -1)
            split = _best_split(
                y[order], x_sorted, total, float(y_node @ y_node), min_leaf,
                self._split_counts(rows.size),
            )
            if split is None:
                return node
            j, i = split
            goes_left = np.zeros(n, dtype=bool)
            goes_left[order[j, : i + 1]] = True
            feature[node] = j
            threshold[node] = float(x_sorted[j, i])
            for side_nodes, child in ((left, goes_left), (right, ~goes_left)):
                side_nodes[node] = grow_node(rows[child[rows]], order, x_sorted, child, depth + 1)
            return node

        grow_node(np.arange(n), order, x_sorted, None, 0)
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
        # floors[t] is the least the trees from t on can add, less the
        # rounding margin (see the module docstring).
        least = learning_rate * np.array([tree.value.min() for tree in trees])
        most = learning_rate * np.array([np.abs(tree.value).max() for tree in trees])
        margin = 4 * (len(trees) + 1) * np.finfo(float).eps * (abs(base) + most.sum())
        self._floors = np.cumsum(least[::-1])[::-1] - margin

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        out = np.empty(X.shape[0])
        for start in range(0, X.shape[0], BLOCK_ROWS):
            out[start : start + BLOCK_ROWS] = self.predict_block(X[start : start + BLOCK_ROWS])
        return out

    def predict_block(
        self,
        block: np.ndarray,
        cutoff: float | None = None,
        *,
        sums: np.ndarray | None = None,
        start: int = 0,
        stop: int | None = None,
    ) -> np.ndarray:
        """The prediction of each row of the C-contiguous float64 ``block``;
        with a ``cutoff``, ``inf`` for each row dropped as sure to predict
        above it (see the module docstring for the bound and its margin).

        The walk adds trees ``start`` to ``stop`` (the last by default) to
        ``sums``, each row's sum of the trees before ``start`` (``base`` by
        default), so a walk stopped early can be resumed with the bits of an
        unbroken one.
        """
        n = block.shape[0]
        sums = np.full(n, self.base) if sums is None else np.array(sums, dtype=np.float64)
        row_base = _row_offsets(block)
        kept = None  # the surviving rows' indices in block, once any check ran
        for t in range(start, self.n_trees if stop is None else stop):
            if cutoff is not None and t and t % PRUNE_EVERY == 0:
                keep = sums <= cutoff - self._floors[t]
                kept = np.flatnonzero(keep) if kept is None else kept[keep]
                block, sums = block[keep], sums[keep]
                row_base = row_base[: sums.size]
            sums += self.learning_rate * self.trees[t]._walk(block, row_base)
        if kept is None:
            return sums
        out = np.full(n, np.inf)
        out[kept] = sums
        return out


def fit_gradient_boosted(
    X: np.ndarray, y: np.ndarray, hyper: RegressorHyper | None = None
) -> GradientBoostedRegressor:
    """Fit the boosted ensemble to the rows of ``X`` (n, m) and their
    targets ``y`` (n,), n >= 1. Constant targets yield a zero-tree model."""
    hyper = hyper or RegressorHyper()
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    if np.ptp(y) == 0.0:
        return GradientBoostedRegressor(float(y[0]), [], hyper.learning_rate)
    base = float(y.mean())
    trees = []

    rng = np.random.default_rng(hyper.seed)
    n = y.size
    sample_size = max(1, int(round(hyper.subsample * n)))
    pred = np.full(n, base)
    grower = _TreeGrower(X, hyper.max_depth, hyper.min_samples_leaf)
    row_base = _row_offsets(X)
    sample = np.arange(n)  # every row, unless subsample leaves some out
    for _ in range(hyper.n_trees):
        if sample_size < n:
            sample = np.sort(rng.choice(n, size=sample_size, replace=False))
        tree = grower.grow(y[sample] - pred[sample], sample)
        pred += hyper.learning_rate * tree._walk(X, row_base)
        trees.append(tree)
    return GradientBoostedRegressor(base, trees, hyper.learning_rate)
