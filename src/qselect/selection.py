"""Weighted score aggregation and budgeted, domain-proportional selection.

Selection fills each domain's token quota (budget x proportion)
independently, taking documents in descending aggregate score. The
document that crosses a quota is included, so per-domain overshoot is at
most one document. Ties break by document id, so results are
reproducible across runs and thread counts. It runs on the score
matrix's columns alone: one aggregate per experiment, then per domain a
partition, a stable sort of the candidate rows, a token cumsum and a
searchsorted for the quota.

The candidates are exact. A domain's rows (``ScoreMatrix.domain_rows``)
are in id order, so its full order is their stable sort by descending
score. A partition finds the c-th best score; the rows scoring at least
that are the first rows of the full order, ties at the cut included, and
their own stable sort is that order's prefix. If their tokens reach the
quota, the row that crosses it is among them, and so is every row taken;
otherwise the whole domain is sorted.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import check_proportions
from .errors import FieldError, ValidationError
from .matrix import ScoreMatrix
from .registry import DEFAULT_DOMAIN_WEIGHTS

SIMPLEX_TOL = 1e-9

# Candidate rows a domain's partition keeps beyond those its quota needs
# at the domain's mean token count, so that rows shorter than the mean
# seldom make the candidates fall short of the quota.
CANDIDATE_SLACK = 64


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative weights over score names, summing to 1."""

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if len(self.names) != values.size:
            raise ValidationError("weight names and values differ in length")
        if len(set(self.names)) != len(self.names):
            raise ValidationError("duplicate names in weight vector")
        if values.size == 0:
            raise ValidationError("empty weight vector")
        if (values < 0).any():
            bad = self.names[int(np.argmin(values))]
            raise ValidationError(f"negative weight for {bad!r}")
        total = float(values.sum())
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise ValidationError(f"weights sum to {total!r}, expected 1 within {SIMPLEX_TOL}")

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, float]) -> "WeightVector":
        """Weights in ``mapping``'s order, scaled to sum to 1."""
        names = tuple(mapping)
        values = np.array([float(mapping[n]) for n in names])
        if (values < 0).any():
            raise ValidationError("cannot normalize weights with negative entries")
        total = values.sum()
        if total <= 0:
            raise ValidationError("cannot normalize an all-zero weight vector")
        return cls(names, values / total)

    @classmethod
    def uniform(cls, names: Sequence[str]) -> "WeightVector":
        n = len(names)
        return cls(tuple(names), np.full(n, 1.0 / n))

    def as_mapping(self) -> dict[str, float]:
        return {name: float(v) for name, v in zip(self.names, self.values)}

    def aligned_to(self, names: Sequence[str]) -> np.ndarray:
        """Values reordered to ``names``; name sets must match exactly."""
        if set(names) != set(self.names):
            missing = set(names) - set(self.names)
            extra = set(self.names) - set(names)
            raise ValidationError(
                f"weight names do not match matrix: missing={sorted(missing)}, "
                f"extra={sorted(extra)}"
            )
        index = {n: i for i, n in enumerate(self.names)}
        return self.values[[index[n] for n in names]]


@dataclass(frozen=True)
class SelectionPlan:
    """Token budget and per-domain target proportions."""

    token_budget: int
    domain_targets: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_DOMAIN_WEIGHTS)
    )

    def __post_init__(self) -> None:
        if self.token_budget <= 0:
            raise FieldError("token_budget", "must be positive")
        try:
            check_proportions(self.domain_targets)
        except ValidationError as exc:
            raise FieldError("domain_targets", str(exc)) from None

    @classmethod
    def cc_only(cls, token_budget: int) -> "SelectionPlan":
        return cls(token_budget, {"CommonCrawl": 1.0})


@dataclass
class DomainShortfall:
    domain: str
    target_tokens: float
    achieved_tokens: int


@dataclass
class SelectionResult:
    """Outcome of a budgeted selection."""

    selected_ids: list[str]
    domain_tokens: dict[str, int]
    achieved_proportions: dict[str, float]
    thresholds: dict[str, float | None]
    shortfalls: list[DomainShortfall]

    @property
    def total_tokens(self) -> int:
        return sum(self.domain_tokens.values())

    def write_manifest(self, path: str | Path) -> None:
        Path(path).write_text("".join(doc_id + "\n" for doc_id in self.selected_ids), encoding="utf-8")

    def report_dict(self, seed: int | None = None) -> dict:
        report: dict = {}
        if seed is not None:
            report["seed"] = seed
        report.update(
            {
                "total_tokens": self.total_tokens,
                "domain_tokens": self.domain_tokens,
                "achieved_proportions": self.achieved_proportions,
                "thresholds": self.thresholds,
                "shortfalls": [
                    {
                        "domain": s.domain,
                        "target_tokens": s.target_tokens,
                        "achieved_tokens": s.achieved_tokens,
                    }
                    for s in self.shortfalls
                ],
            }
        )
        return report

    def write_report(self, path: str | Path, seed: int | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.report_dict(seed), fh, indent=2)
            fh.write("\n")


def aggregate_scores(matrix: ScoreMatrix, w: WeightVector) -> np.ndarray:
    """Aggregate scores for every document, in matrix row order."""
    normalized = matrix.normalized
    if normalized is None:
        raise ValidationError("matrix must be normalized before aggregation")
    return normalized @ w.aligned_to(matrix.score_names)


def _ranked_prefix(scores: np.ndarray, rows: np.ndarray, tokens: np.ndarray, target: float) -> np.ndarray:
    """Positions in ``rows`` (one domain's rows, in id order) of a prefix of
    their order by descending score, ties by id: the candidates at or above
    a partition's cut when their ``tokens`` reach ``target``, else the
    whole order."""
    count = target / tokens.mean() + CANDIDATE_SLACK if tokens.any() else math.inf
    if count < rows.size:
        domain_scores = scores[rows]
        cut = rows.size - math.ceil(count)
        candidates = np.flatnonzero(domain_scores >= np.partition(domain_scores, cut)[cut])
        if tokens[candidates].sum() >= target:
            return candidates[np.argsort(-domain_scores[candidates], kind="stable")]
    return np.argsort(-scores[rows], kind="stable")


def select_top_k(
    matrix: ScoreMatrix, w: WeightVector, plan: SelectionPlan
) -> SelectionResult:
    """Select the top-scoring documents per domain under the plan's quotas.

    Equivalent to sorting each domain by aggregate score (ties by id) and
    taking the shortest prefix whose token sum reaches the domain target;
    the document that crosses the target is included. Only a prefix of
    that order is sorted: the rows a partition puts at or above the cut,
    when their tokens reach the target (see the module docstring).
    Domains whose pools run out early are reported as shortfalls.
    Documents of domains outside the plan contribute nothing to any quota.
    """
    scores = aggregate_scores(matrix, w)
    empty = np.empty(0, dtype=np.intp)

    taken: list[np.ndarray] = []
    domain_tokens: dict[str, int] = {}
    thresholds: dict[str, float | None] = {}
    shortfalls: list[DomainShortfall] = []
    for domain, proportion in plan.domain_targets.items():
        target = plan.token_budget * proportion
        rows = matrix.domain_rows.get(domain, empty)
        domain_row_tokens = matrix.tokens[rows]
        order = _ranked_prefix(scores, rows, domain_row_tokens, target)
        rows, row_tokens = rows[order], domain_row_tokens[order]
        cumulative = np.cumsum(row_tokens)
        # A row is taken while the tokens before it are still short of target.
        k = int(np.searchsorted(cumulative - row_tokens, target, "left"))
        taken.append(rows[:k])
        tokens = int(cumulative[k - 1]) if k else 0
        domain_tokens[domain] = tokens
        thresholds[domain] = float(scores[rows[k - 1]]) if k else None
        if tokens < target:
            shortfalls.append(DomainShortfall(domain, target, tokens))
    selected = matrix.ids_at(np.concatenate(taken))
    total = sum(domain_tokens.values())
    achieved = {
        domain: (tokens / total if total else 0.0)
        for domain, tokens in domain_tokens.items()
    }
    return SelectionResult(selected, domain_tokens, achieved, thresholds, shortfalls)
