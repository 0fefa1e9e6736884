"""Per-document score matrix: ingestion, normalization, correlation.

Each row carries its document's id, domain and token estimate beside the
scores, so selection needs nothing but the matrix. Raw scores live on
wildly different scales (counts, entropies, log ratios, 0-5 ratings), so
columns are rank-normalized to [0, 1] before weighting; a z-score mode
exists for comparison. Model-based ratings may arrive with gaps and are
imputed to the column median (flagged); signals and importance scores
are computed locally and must be complete.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .corpus import Document
from .errors import MatrixError, ValidationError
from .registry import IMPORTANCE_NAMES, PRRC_NAMES, SIGNAL_NAMES

# Columns that must be complete before normalization; everything else is
# imputable (model-based ratings and ad hoc score channels).
_STRICT_NAMES = frozenset(SIGNAL_NAMES) | frozenset(IMPORTANCE_NAMES)

PRRC_RANGE = (0.0, 5.0)


@dataclass(frozen=True)
class RatingAnnotation:
    """One externally produced model-based rating for one document."""

    doc_id: str
    rater: str
    value: float


@dataclass
class IngestReport:
    """Outcome of streaming annotations into a matrix."""

    filled: dict[str, int] = field(default_factory=dict)
    unknown_doc_ids: list[str] = field(default_factory=list)

    def coverage(self, doc_count: int) -> dict[str, float]:
        if doc_count == 0:
            return {name: 0.0 for name in self.filled}
        return {name: count / doc_count for name, count in self.filled.items()}


class ScoreMatrix:
    """Documents x score-names matrix of raw and normalized values.

    Row ``i`` is document ``doc_ids[i]`` of domain ``domains[i]`` with
    ``tokens[i]`` estimated tokens; ``id_order`` lists the rows by id.
    """

    def __init__(
        self,
        score_names: Sequence[str],
        doc_ids: Sequence[str],
        domains: Sequence[str],
        tokens: Sequence[int],
        raw: np.ndarray,
        normalized: np.ndarray | None = None,
    ) -> None:
        names = list(score_names)
        if len(set(names)) != len(names):
            raise MatrixError("duplicate score names")
        ids = list(doc_ids)
        if len(set(ids)) != len(ids):
            raise MatrixError("duplicate doc ids")
        domains = np.asarray(domains, dtype=str)
        tokens = np.asarray(tokens, dtype=np.int64)
        if domains.shape != (len(ids),) or tokens.shape != (len(ids),):
            raise MatrixError("domains and tokens must have one entry per doc id")
        raw = np.asarray(raw, dtype=np.float64)
        if raw.shape != (len(ids), len(names)):
            raise MatrixError(f"raw shape {raw.shape} does not match ids x names")
        self.score_names = names
        self.doc_ids = ids
        self.domains = domains
        self.tokens = tokens
        self.raw = raw
        self.normalized = normalized
        # An object array compares and gathers the ids as Python strings.
        self._ids = np.array(ids, dtype=object)
        self.id_order = np.argsort(self._ids, kind="stable")

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    def ids_at(self, rows: np.ndarray) -> list[str]:
        """Doc ids of ``rows``, in the order given."""
        return self._ids[rows].tolist()

    @classmethod
    def from_documents(
        cls, docs: Sequence[Document], score_names: Sequence[str]
    ) -> "ScoreMatrix":
        """Build a raw matrix from documents' attached scores maps.

        Missing cells stay NaN; call ingest_ratings / impute_missing before
        normalizing.
        """
        names = list(score_names)
        raw = np.full((len(docs), len(names)), np.nan)
        for i, doc in enumerate(docs):
            if doc.scores:
                for j, name in enumerate(names):
                    value = doc.scores.get(name)
                    if value is not None:
                        raw[i, j] = value
        return cls(
            names,
            [doc.id for doc in docs],
            [doc.domain for doc in docs],
            [doc.token_estimate for doc in docs],
            raw,
        )


def ingest_ratings(
    matrix: ScoreMatrix, annotations: Iterable[RatingAnnotation]
) -> IngestReport:
    """Write external ratings into the raw matrix.

    Unknown doc ids are collected in the report rather than raised (shard
    mismatches are routine); an unregistered rater name or an out-of-range
    PRRC value is an error.
    """
    if matrix.normalized is not None:
        raise MatrixError("cannot ingest into a normalized matrix")
    rows = {doc_id: i for i, doc_id in enumerate(matrix.doc_ids)}
    cols = {name: j for j, name in enumerate(matrix.score_names)}
    report = IngestReport()
    for ann in annotations:
        if ann.rater not in cols:
            raise MatrixError(f"unregistered rater {ann.rater!r}")
        if ann.rater in PRRC_NAMES and not (PRRC_RANGE[0] <= ann.value <= PRRC_RANGE[1]):
            raise ValidationError(
                f"{ann.rater} value {ann.value} outside {list(PRRC_RANGE)}"
            )
        row = rows.get(ann.doc_id)
        if row is None:
            report.unknown_doc_ids.append(ann.doc_id)
            continue
        col = cols[ann.rater]
        if math.isnan(matrix.raw[row, col]):
            report.filled[ann.rater] = report.filled.get(ann.rater, 0) + 1
        matrix.raw[row, col] = ann.value
    return report


def impute_missing(matrix: ScoreMatrix) -> list[tuple[str, str]]:
    """Fill remaining gaps with column medians; return the cells filled.

    Signal and importance columns are computed locally and must already be
    complete; a gap there is an upstream bug, not missing data.
    """
    flagged: list[tuple[str, str]] = []
    for j, name in enumerate(matrix.score_names):
        col = matrix.raw[:, j]
        missing = np.isnan(col)
        if not missing.any():
            continue
        if name in _STRICT_NAMES:
            raise MatrixError(
                f"column {name!r} has {int(missing.sum())} missing cells; "
                "signals and importance scores must be complete"
            )
        if missing.all():
            raise MatrixError(f"column {name!r} has no observed values to impute from")
        median = float(np.median(col[~missing]))
        for i in np.nonzero(missing)[0]:
            flagged.append((matrix.doc_ids[i], name))
        col[missing] = median
    return flagged


def _average_ranks(col: np.ndarray) -> np.ndarray:
    """1-based ranks of a column; tied values share their average rank."""
    order = np.argsort(col, kind="stable")
    ordered = col[order]
    boundaries = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [col.size]))
    ranks = np.empty(col.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _rank_unit(col: np.ndarray) -> np.ndarray:
    n = col.size
    if n == 1:
        return np.array([0.5])
    return (_average_ranks(col) - 1.0) / (n - 1.0)


def rank_normalize(matrix: ScoreMatrix, method: str = "rank") -> ScoreMatrix:
    """Return a copy of the matrix (sharing its arrays) with normalized columns.

    ``rank`` maps each column to average-tie ranks scaled to [0, 1] (a
    single-document matrix maps to 0.5); ``zscore`` is the comparison mode
    and standardizes to mean 0, sd 1 (constant columns map to 0).
    """
    if matrix.n_docs == 0:
        raise MatrixError("cannot normalize an empty matrix")
    if np.isnan(matrix.raw).any():
        raise MatrixError("matrix has missing cells; impute before normalizing")
    if method == "rank":
        normalized = np.column_stack(
            [_rank_unit(matrix.raw[:, j]) for j in range(len(matrix.score_names))]
        )
    elif method == "zscore":
        mean = matrix.raw.mean(axis=0)
        std = matrix.raw.std(axis=0)
        std[std == 0.0] = 1.0
        normalized = (matrix.raw - mean) / std
    else:
        raise ValidationError(f"unknown normalization method {method!r}")
    result = copy.copy(matrix)
    result.normalized = normalized
    return result


def spearman_matrix(matrix: ScoreMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise Spearman correlations (Pearson of average-tie ranks).

    Returns ``(rho, flagged)``: a symmetric matrix with unit diagonal, and
    a boolean mask marking cells involving a constant column, whose
    correlation is undefined and reported as NaN.
    """
    n, m = matrix.raw.shape
    if n < 2:
        raise MatrixError("spearman correlation needs at least 2 documents")
    if np.isnan(matrix.raw).any():
        raise MatrixError("matrix has missing cells; impute before correlating")
    ranks = np.column_stack([_average_ranks(matrix.raw[:, j]) for j in range(m)])
    constant = ranks.std(axis=0) == 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.corrcoef(ranks, rowvar=False)
    rho = np.atleast_2d(rho)
    flagged = np.zeros((m, m), dtype=bool)
    flagged[constant, :] = True
    flagged[:, constant] = True
    rho[flagged] = np.nan
    np.fill_diagonal(rho, 1.0)
    np.fill_diagonal(flagged, False)
    return rho, flagged


def correlation_csv(score_names: Sequence[str], rho: np.ndarray) -> str:
    """Render a correlation matrix as CSV with name headers."""
    lines = ["name," + ",".join(score_names)]
    for i, name in enumerate(score_names):
        cells = ",".join("" if math.isnan(v) else repr(float(v)) for v in rho[i])
        lines.append(f"{name},{cells}")
    return "\n".join(lines) + "\n"

