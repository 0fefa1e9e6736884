"""Weighted score aggregation and budgeted, domain-proportional selection.

Selection fills each domain's token quota (budget x proportion)
independently, taking documents in descending aggregate score. The
document that crosses a quota is included, so per-domain overshoot is at
most one document. Ties break by document id, so results are
reproducible across runs and thread counts. It runs on the score
matrix's columns alone: one stable sort of the aggregate scores over the
rows in id order, then per domain a token cumsum and a searchsorted for
the quota.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import check_proportions
from .errors import FieldError, ValidationError
from .matrix import ScoreMatrix
from .registry import DEFAULT_DOMAIN_WEIGHTS

SIMPLEX_TOL = 1e-9


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
        with open(path, "w", encoding="utf-8") as fh:
            for doc_id in self.selected_ids:
                fh.write(doc_id + "\n")

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


def select_top_k(
    matrix: ScoreMatrix, w: WeightVector, plan: SelectionPlan
) -> SelectionResult:
    """Select the top-scoring documents per domain under the plan's quotas.

    Equivalent to sorting each domain by aggregate score (ties by id) and
    taking the shortest prefix whose token sum reaches the domain target;
    the document that crosses the target is included. Domains whose pools
    run out early are reported as shortfalls. Documents of domains outside
    the plan contribute nothing to any quota.
    """
    scores = aggregate_scores(matrix, w)
    ranked = matrix.id_order[np.argsort(-scores[matrix.id_order], kind="stable")]
    ranked_domains = matrix.domains[ranked]

    taken: list[np.ndarray] = []
    domain_tokens: dict[str, int] = {}
    thresholds: dict[str, float | None] = {}
    shortfalls: list[DomainShortfall] = []
    for domain, proportion in plan.domain_targets.items():
        target = plan.token_budget * proportion
        rows = ranked[ranked_domains == domain]
        row_tokens = matrix.tokens[rows]
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
