"""Regression over campaign records and optimal-weight search.

Fits the boosted-trees regressor mapping weight vectors to validation
loss, scores a dense set of simplex candidates, and averages the top-k
candidates into the final weight vector. The sweep streams its candidates:
it draws, predicts and ranks one block of rows at a time and keeps only the
best k so far, so its memory does not grow with the number of candidates.
Also exports a 2-D PCA view of the predicted loss surface over the weight
space.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FieldError, ValidationError, is_finite_number, require_file
from .gbt import BLOCK_ROWS, GradientBoostedRegressor, RegressorHyper, fit_gradient_boosted
from .proxy import ExperimentRecord, sample_simplex
from .selection import WeightVector

logger = logging.getLogger(__name__)

MIN_RECORDS = 16


@dataclass(frozen=True)
class OptimizerConfig:
    """The fit's settings: the regressor's hyperparameters, the sweep's
    ``candidates`` Dirichlet draws (at ``concentration``) of which the best
    ``top_k`` are averaged, and the landscape's ``grid`` points per axis."""

    hyper: RegressorHyper = field(default_factory=RegressorHyper)
    candidates: int = 100_000
    top_k: int = 100
    concentration: float = 1.0
    grid: int = 41

    def __post_init__(self) -> None:
        if self.top_k < 1:
            raise FieldError("top_k", f"must be at least 1, got {self.top_k}")
        if self.candidates < self.top_k:
            raise FieldError(
                "candidates", f"must be at least top_k ({self.top_k}), got {self.candidates}"
            )
        if self.concentration <= 0:
            raise FieldError("concentration", f"must be positive, got {self.concentration}")
        if self.grid < 2:
            raise FieldError("grid", f"must be at least 2, got {self.grid}")


@dataclass
class RegressorModel:
    """Fitted loss predictor over weight-vector features."""

    score_names: tuple[str, ...]
    booster: GradientBoostedRegressor
    in_sample_rmse: float

    def predict(self, w: WeightVector) -> float:
        row = w.aligned_to(self.score_names)
        return float(self.booster.predict(row[None, :])[0])


def _records_to_arrays(
    records: Sequence[ExperimentRecord], min_records: int = MIN_RECORDS
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    ok = [r for r in records if r.status == "ok"]
    if len(ok) < min_records:
        raise ValidationError(
            f"need at least {min_records} successful records, got {len(ok)}"
        )
    names = tuple(ok[0].weights)
    X = np.empty((len(ok), len(names)))
    y = np.empty(len(ok))
    for i, record in enumerate(ok):
        if set(record.weights) != set(names):
            raise ValidationError(
                f"record {record.experiment_id} has inconsistent score names"
            )
        X[i] = [record.weights[n] for n in names]
        y[i] = record.loss
    return names, X, y


def fit_regressor(
    records: Sequence[ExperimentRecord], hyper: RegressorHyper | None = None
) -> RegressorModel:
    """Fit the loss regression on successful campaign records.

    Rows are put into a canonical lexicographic order first, so the fitted
    model is identical however the records were collected or permuted.
    """
    hyper = hyper or RegressorHyper()
    names, X, y = _records_to_arrays(records)
    order = np.lexsort(np.vstack([y[None, :], X.T])[::-1])
    X, y = X[order], y[order]
    if np.ptp(y) == 0.0:
        logger.warning("all %d losses are identical; fitting a constant model", y.size)
    booster = fit_gradient_boosted(X, y, hyper)
    rmse = float(np.sqrt(np.mean((booster.predict(X) - y) ** 2)))
    return RegressorModel(names, booster, rmse)


@dataclass
class SearchOutcome:
    """Result of the candidate sweep."""

    w_star: WeightVector
    predicted_loss_at_star: float


def search_optimal(model: RegressorModel, settings: OptimizerConfig, seed: int) -> SearchOutcome:
    """Sweep ``settings.candidates`` Dirichlet draws through the model and
    average the best ``settings.top_k``.

    The returned vector is the renormalized mean of the k candidates with
    the lowest predicted loss (ties resolved by draw order), which is more
    robust than trusting the single best cell of a piecewise-constant
    model.

    The candidates are drawn, predicted and ranked one ``BLOCK_ROWS`` block
    at a time, so memory stays flat however many there are. The sweep keeps
    the best k so far, in rank order: it ranks each block by a stable sort,
    appends the block's best k to the kept rows, and keeps the best k of
    those by a second stable sort. Ties stay in draw order, so the kept rows
    end as the first k of a stable sort of every prediction.

    Once k rows are kept, each block walks the trees with the k-th best
    kept prediction as its cutoff (``GradientBoostedRegressor.
    predict_block``). Every 10th tree a row is dropped, and reads ``inf``,
    when its partial sum plus the remaining trees' least shrunken leaves,
    less an absolute margin of ``4 (n_trees + 1) eps`` times the largest
    sum the walk can reach, is above the cutoff: the margin covers every
    rounding between that bound and the finished prediction, so a dropped
    row would rank after every kept row. A row that survives adds every
    tree in tree order, so its bits are the bits ``predict`` gives it, and
    the sweep keeps the rows and bits it would keep without the cutoff.
    """
    m, k = len(model.score_names), settings.top_k
    kept, kept_preds = np.empty((0, m)), np.empty(0)
    for block in sample_simplex(m, settings.candidates, seed, settings.concentration, BLOCK_ROWS):
        cutoff = kept_preds[-1] if kept_preds.size == k else None
        preds = model.booster.predict_block(block, cutoff)
        top = np.argsort(preds, kind="stable")[:k]
        rows = np.concatenate([kept, block[top]])
        preds = np.concatenate([kept_preds, preds[top]])
        best = np.argsort(preds, kind="stable")[:k]
        kept, kept_preds = rows[best], preds[best]
    mean = kept.mean(axis=0)
    w_star = WeightVector(model.score_names, mean / mean.sum())
    return SearchOutcome(w_star, model.predict(w_star))


def rank_weights(w: WeightVector) -> list[dict]:
    """Sorted weight report with competition ranking (ties share a rank)."""
    items = sorted(w.as_mapping().items(), key=lambda kv: (-kv[1], kv[0]))
    report = []
    rank = 0
    previous: float | None = None
    for position, (name, weight) in enumerate(items, start=1):
        if previous is None or weight != previous:
            rank = position
            previous = weight
        report.append({"name": name, "weight": weight, "pct": 100.0 * weight, "rank": rank})
    return report


def write_weights(path: str | Path, w: WeightVector, seed: int | None = None) -> None:
    """Write the weight report file: {seed, weights: [{name, weight, rank}]}."""
    payload: dict = {}
    if seed is not None:
        payload["seed"] = seed
    payload["weights"] = [
        {"name": row["name"], "weight": row["weight"], "rank": row["rank"]}
        for row in rank_weights(w)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_weights(path: str | Path) -> WeightVector:
    """Load a weights file, normalized to sum to 1.

    Accepts the report object or a bare list; every weight must be a JSON
    number, and no name may be listed twice.
    """
    require_file(Path(path), "weights file")
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
            rows = payload["weights"] if isinstance(payload, dict) else payload
            mapping = {}
            for row in rows:
                name, value = row["name"], row["weight"]
                if name in mapping:
                    raise ValueError(f"name {name!r} is listed twice")
                if not is_finite_number(value):
                    raise ValueError(f"weight {name!r} = {value!r} is not a finite number")
                mapping[name] = value
        except (ValueError, KeyError, TypeError) as exc:
            raise ValidationError(
                f"malformed weights file {path}: {type(exc).__name__}: {exc}"
            ) from exc
    return WeightVector.from_mapping(mapping)


@dataclass
class Landscape:
    """2-D principal-component view of the predicted loss surface."""

    components: np.ndarray  # (2, m) orthonormal rows
    explained_variance: np.ndarray  # all components, non-increasing
    projections: np.ndarray  # (n_records, 2)
    grid_points: list[tuple[float, float, float]]  # (pc1, pc2, predicted loss)

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("pc1,pc2,predicted_loss\n")
            for pc1, pc2, loss in self.grid_points:
                fh.write(f"{pc1!r},{pc2!r},{loss!r}\n")


def pca_landscape(
    records: Sequence[ExperimentRecord], model: RegressorModel, settings: OptimizerConfig
) -> Landscape:
    """Project campaign weights onto their top-2 principal directions and
    evaluate the regressor on a grid x grid lattice (``settings.grid``)
    over the projected range. Weight sets with fewer than two independent
    directions fall back to a 1-D sweep along the first component."""
    names, X, _ = _records_to_arrays(records, min_records=3)
    if set(names) != set(model.score_names):
        raise ValidationError("records and model disagree on score names")
    mean = X.mean(axis=0)
    centered = X - mean
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    explained = singular**2 / (X.shape[0] - 1)
    rank = int((singular > 1e-12 * max(singular[0], 1.0)).sum())
    two_d = rank >= 2
    if not two_d:
        logger.warning("weight set spans <2 directions; falling back to a 1-D sweep")
    components = vt[:2] if two_d else np.vstack([vt[0], np.zeros_like(vt[0])])
    projections = centered @ components.T

    pc1 = np.linspace(projections[:, 0].min(), projections[:, 0].max(), settings.grid)
    if two_d:
        pc2 = np.linspace(projections[:, 1].min(), projections[:, 1].max(), settings.grid)
    else:
        pc2 = np.array([0.0])
    a, b = (axis.reshape(-1, 1) for axis in np.meshgrid(pc1, pc2, indexing="ij"))
    ws = mean[None, :] + a * components[0][None, :] + b * components[1][None, :]
    W = np.empty_like(ws)
    W[:, [model.score_names.index(n) for n in names]] = ws
    losses = model.booster.predict(W)
    points = list(zip(a.ravel().tolist(), b.ravel().tolist(), losses.tolist()))
    return Landscape(components, explained, projections, points)
