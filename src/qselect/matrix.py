"""Per-document score matrix: ingestion, normalization, correlation.

Each row carries its document's id, domain and token estimate beside the
scores, so selection needs nothing but the matrix. Raw scores live on
wildly different scales (counts, entropies, log ratios, 0-5 ratings), so
columns are rank-normalized to [0, 1] before weighting; a z-score mode
exists for comparison. Model-based ratings arrive as one map,
``{rater: {doc_id: value}}``, written into the matrix one column per
rater; they may have gaps, which are imputed to the column median
(flagged). Signals and importance scores are computed locally and must
be complete.

The commands that write a scored corpus ``X.jsonl`` (annotate, synth) also
write its score store ``X.scores.npz``: the raw matrix with its row and
column labels, the corpus schema it was built under and the sha256 of the
JSONL bytes. Downstream commands read only the store.
"""

from __future__ import annotations

import copy
import hashlib
import math
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

import numpy as np

from .corpus import Corpus, CorpusSchema
from .errors import MatrixError, ValidationError, require_file
from .registry import IMPORTANCE_NAMES, SIGNAL_NAMES, canonical_order

# Columns that must be complete before normalization; everything else is
# imputable (model-based ratings and ad hoc score channels).
_STRICT_NAMES = frozenset(SIGNAL_NAMES) | frozenset(IMPORTANCE_NAMES)


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
    def from_documents(cls, corpus: Corpus, added: Sequence[str] = ()) -> "ScoreMatrix":
        """Build the raw matrix of a parsed corpus.

        Its columns are the records' score names and ``added`` in canonical
        order; a cell whose record lacks the name is NaN. Call
        ingest_ratings / impute_missing before normalizing.
        """
        names = canonical_order(set(added).union(*filter(None, set(corpus.score_keys))))
        col = {name: j for j, name in enumerate(names)}
        rows = np.repeat(np.arange(len(corpus)), [len(keys or ()) for keys in corpus.score_keys])
        cols = [col[name] for keys in corpus.score_keys if keys for name in keys]
        raw = np.full((len(corpus), len(names)), np.nan)
        raw[rows, np.asarray(cols, dtype=np.intp)] = corpus.score_values
        return cls(names, corpus.ids, corpus.domains, corpus.tokens, raw)


def store_path(corpus_path: str | Path) -> Path:
    """Where the score store of the corpus ``X.jsonl`` lives: ``X.scores.npz``."""
    return Path(corpus_path).with_suffix(".scores.npz")


def _file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# Each stored array: its dtype (a kind letter for strings) and one letter
# per axis; arrays sharing a letter must agree in that axis's length.
_STORE_LAYOUT = {
    "ids": ("U", "n"),
    "domains": ("U", "n"),
    "tokens": (np.int64, "n"),
    "score_names": ("U", "m"),
    "raw": (np.float64, "nm"),
    "sha256": ("U", ""),
    "token_estimator": ("U", ""),
    "schema_domains": ("U", "d"),
}


def check_store_ids(doc_ids: Iterable[str]) -> None:
    """Refuse an id that a score store cannot give back: numpy string
    arrays drop trailing NULs."""
    for doc_id in doc_ids:
        if doc_id.endswith("\0"):
            raise ValidationError(f"doc id {doc_id!r} ends in NUL, which a score store cannot hold")


def write_score_store(corpus_path: str | Path, matrix: ScoreMatrix, schema: CorpusSchema) -> None:
    """Write the score store of the corpus file ``corpus_path``, written from ``matrix``.

    The store holds the raw matrix a reader of the file under ``schema``
    would build: a file with no lines carries no score names.
    """
    check_store_ids(matrix.doc_ids)
    names = matrix.score_names if matrix.n_docs else []
    np.savez(
        store_path(corpus_path),
        ids=np.array(matrix.doc_ids, dtype=str),
        domains=matrix.domains,
        tokens=matrix.tokens,
        score_names=np.array(names, dtype=str),
        raw=matrix.raw[:, : len(names)],
        sha256=np.array(_file_sha256(corpus_path)),
        token_estimator=np.array(schema.token_estimator),
        schema_domains=np.array(schema.domains, dtype=str),
    )


def load_score_store(corpus_path: str | Path, schema: CorpusSchema) -> ScoreMatrix:
    """Read the raw matrix of the corpus file ``corpus_path`` from its score store.

    The store must exist, be a well-formed npz of the layout above, mirror
    the file's current bytes and have been built under ``schema``. NaN
    cells are missing scores; infinite ones, and a gap in a signal or
    importance column (``_strict_gap``), are refused.
    """
    import zipfile  # numpy imports it lazily as well

    path = store_path(corpus_path)
    require_file(path, "score store", "; run annotate first")
    try:
        store = np.load(path, allow_pickle=False)
        if not isinstance(store, np.lib.npyio.NpzFile):
            raise ValueError("not an npz archive")
        with store:
            arrays = {name: store[name] for name in _STORE_LAYOUT}
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise ValidationError(f"score store {path} is not readable: {exc}") from None
    sizes: dict[str, int] = {}
    for name, (dtype, axes) in _STORE_LAYOUT.items():
        arr = arrays[name]
        ok = arr.dtype.kind == "U" if dtype == "U" else arr.dtype == dtype
        ok = ok and arr.ndim == len(axes)
        ok = ok and all(sizes.setdefault(axis, size) == size for axis, size in zip(axes, arr.shape))
        if not ok:
            raise ValidationError(
                f"score store {path}: array {name!r} has dtype {arr.dtype} and shape {arr.shape}"
            )
    if str(arrays["sha256"]) != _file_sha256(corpus_path):
        raise ValidationError(
            f"score store {path} does not match {corpus_path}, "
            "which changed after the store was written; run annotate again"
        )
    # Only the set of domains decides which lines a reader keeps.
    for key, built, wanted in (
        ("token_estimator", str(arrays["token_estimator"]), schema.token_estimator),
        ("domains", sorted(set(arrays["schema_domains"].tolist())), sorted(set(schema.domains))),
    ):
        if built != wanted:
            raise ValidationError(
                f"score store {path} was built under corpus.{key} {built!r}, "
                f"this config has {wanted!r}; run annotate again"
            )
    raw = arrays["raw"]
    names = arrays["score_names"].tolist()
    infinite = np.isinf(raw).any(axis=0)
    if infinite.any():
        name = names[int(np.argmax(infinite))]
        raise ValidationError(f"score store {path}: column {name!r} holds an infinite score")
    for j, name in enumerate(names):
        problem = _strict_gap(name, raw[:, j])
        if problem:
            raise ValidationError(f"score store {path}: {problem}")
    return ScoreMatrix(
        names,
        arrays["ids"].tolist(),
        arrays["domains"],
        arrays["tokens"],
        raw,
    )


def ingest_ratings(
    matrix: ScoreMatrix, ratings: Mapping[str, Mapping[str, float]]
) -> tuple[dict[str, int], int]:
    """Write ``{rater: {doc_id: value}}`` into the raw matrix, one column per rater.

    Returns the missing cells each rater filled, and the number of ratings
    whose doc id has no row: those are counted, not raised (shard
    mismatches are routine). A rater without a column is an error.
    """
    if matrix.normalized is not None:
        raise MatrixError("cannot ingest into a normalized matrix")
    rows = {doc_id: i for i, doc_id in enumerate(matrix.doc_ids)}
    filled: dict[str, int] = {}
    unknown = 0
    for rater, values in ratings.items():
        if rater not in matrix.score_names:
            raise MatrixError(f"unregistered rater {rater!r}")
        col = matrix.raw[:, matrix.score_names.index(rater)]
        at = np.fromiter((rows.get(doc_id, -1) for doc_id in values), np.intp, len(values))
        known = at >= 0
        filled[rater] = int(np.isnan(col[at[known]]).sum())
        col[at[known]] = np.fromiter(values.values(), np.float64, len(values))[known]
        unknown += len(values) - int(known.sum())
    return filled, unknown


def _strict_gap(name: str, col: np.ndarray) -> str | None:
    """Why column ``name`` may not be imputed, if it is a signal or
    importance column with missing cells; those are computed locally, so a
    gap there is an upstream bug, not missing data."""
    if name not in _STRICT_NAMES:
        return None
    missing = int(np.isnan(col).sum())
    if not missing:
        return None
    return (
        f"column {name!r} has {missing} missing cells; "
        "signals and importance scores must be complete"
    )


def impute_missing(matrix: ScoreMatrix, names: Sequence[str] | None = None) -> list[tuple[str, str]]:
    """Fill remaining gaps in the columns ``names`` (default: all) with
    column medians; return the cells filled. A gap in a signal or
    importance column is refused (``_strict_gap``)."""
    flagged: list[tuple[str, str]] = []
    for name in matrix.score_names if names is None else names:
        col = matrix.raw[:, matrix.score_names.index(name)]
        missing = np.isnan(col)
        if not missing.any():
            continue
        problem = _strict_gap(name, col)
        if problem:
            raise MatrixError(problem)
        if missing.all():
            raise MatrixError(f"column {name!r} has no observed values to impute from")
        median = _median(col[~missing])
        for i in np.nonzero(missing)[0]:
            flagged.append((matrix.doc_ids[i], name))
        col[missing] = median
    return flagged


def _median(values: np.ndarray) -> float:
    """The median of a nonempty array, with the bits of ``np.median``: the
    middle value, or the two middle values' sum halved, from one partition.
    Unlike ``np.median``, its first call does not import ``numpy.ma``.

    The sums start from 0.0, as ``np.median``'s mean does, so a median of
    -0.0 comes out as 0.0.
    """
    half = values.size // 2
    if values.size % 2:
        return float(0.0 + np.partition(values, half)[half])
    low, high = np.partition(values, (half - 1, half))[half - 1 : half + 1]
    return float((0.0 + low + high) / 2)


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

