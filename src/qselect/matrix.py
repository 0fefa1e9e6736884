"""Per-document score matrix: ingestion, normalization, correlation.

Each row carries its document's id, domain and token estimate beside the
scores, so selection needs nothing but the matrix. Raw scores live on
wildly different scales (counts, entropies, log ratios, 0-5 ratings), so
columns are rank-normalized to [0, 1] before weighting, the one scale on
which weights are learned and applied. Model-based ratings arrive as one
map, ``{rater: {doc_id: value}}``, written into the matrix one column per
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
from functools import cached_property
from pathlib import Path

import numpy as np

from .corpus import Corpus, CorpusSchema
from .errors import ValidationError, require_file
from .registry import IMPORTANCE_NAMES, SIGNAL_NAMES, canonical_order

# Columns that must be complete before normalization; everything else is
# imputable (model-based ratings and ad hoc score channels).
_STRICT_NAMES = frozenset(SIGNAL_NAMES) | frozenset(IMPORTANCE_NAMES)


class ScoreMatrix:
    """Documents x score-names matrix of raw and normalized values.

    Row ``i`` is document ``doc_ids[i]`` of domain ``domains[i]`` with
    ``tokens[i]`` estimated tokens; ``id_order`` lists the rows by id. The
    ids are unique, and so are the names, and the arrays agree in shape:
    the corpus reader, the synthesizer and ``load_score_store`` see to it.
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
        self.score_names = list(score_names)
        self.doc_ids = list(doc_ids)
        self.domains = np.asarray(domains, dtype=str)
        self.tokens = np.asarray(tokens, dtype=np.int64)
        self.raw = np.asarray(raw, dtype=np.float64)
        self.normalized = normalized
        # An object array compares and gathers the ids as Python strings.
        self._ids = np.array(self.doc_ids, dtype=object)

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    def ids_at(self, rows: np.ndarray) -> list[str]:
        """Doc ids of ``rows``, in the order given."""
        return self._ids[rows].tolist()

    @cached_property
    def id_order(self) -> np.ndarray:
        """The rows by id, built on first use: only selection reads them."""
        return np.argsort(self._ids, kind="stable")

    @cached_property
    def domain_rows(self) -> dict[str, np.ndarray]:
        """Each domain's rows, in id order, built on first use. Threads that
        race to build it build equal dicts, and one of them is kept."""
        domains = self.domains[self.id_order]
        return {domain: self.id_order[domains == domain] for domain in set(domains.tolist())}

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


def write_score_store(path: Path, corpus_path: Path, matrix: ScoreMatrix, schema: CorpusSchema) -> None:
    """Write at ``path`` the score store of the corpus file ``corpus_path``, written from ``matrix``.

    The store holds the raw matrix a reader of the file under ``schema``
    would build: a file with no lines carries no score names. The caller
    refuses ids that the store cannot hold (``check_store_ids``).
    """
    names = matrix.score_names if matrix.n_docs else []
    np.savez(
        path,
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

    The store must exist, be a well-formed npz of the layout above with
    unique ids and score names, mirror the file's current bytes and have
    been built under ``schema``. NaN cells are missing scores, which
    ``impute_missing`` fills or refuses; infinite ones are refused here.
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
    ids, names = arrays["ids"].tolist(), arrays["score_names"].tolist()
    for name, labels in (("ids", ids), ("score_names", names)):
        if len(set(labels)) < len(labels):
            raise ValidationError(f"score store {path}: array {name!r} repeats a value")
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
    infinite = np.isinf(raw).any(axis=0)
    if infinite.any():
        name = names[int(np.argmax(infinite))]
        raise ValidationError(f"score store {path}: column {name!r} holds an infinite score")
    return ScoreMatrix(names, ids, arrays["domains"], arrays["tokens"], raw)


def ingest_ratings(
    matrix: ScoreMatrix, ratings: Mapping[str, Mapping[str, float]]
) -> tuple[dict[str, int], int]:
    """Write ``{rater: {doc_id: value}}`` into the raw matrix, one column per rater.

    Returns the missing cells each rater filled, and the number of ratings
    whose doc id has no row: those are counted, not raised (shard
    mismatches are routine). Every rater must have a column of the raw,
    not yet normalized, matrix.
    """
    rows = {doc_id: i for i, doc_id in enumerate(matrix.doc_ids)}
    filled: dict[str, int] = {}
    unknown = 0
    for rater, values in ratings.items():
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
    """Fill the gaps in the columns ``names`` (default: all) with column
    medians; return the cells filled.

    Before it fills any cell, it refuses with one ValidationError naming
    every signal or importance column with a gap (``_strict_gap``) and
    every other column with no observed value, each column once.
    """
    names = matrix.score_names if names is None else names
    columns = (matrix.raw[:, matrix.score_names.index(name)] for name in names)
    gaps = {name: col for name, col in zip(names, columns) if np.isnan(col).any()}
    problems = []
    for name, col in gaps.items():
        problem = _strict_gap(name, col)
        if problem is None and np.isnan(col).all():
            problem = f"column {name!r} has no observed value to impute from"
        if problem:
            problems.append(problem)
    if problems:
        raise ValidationError("; ".join(problems))
    flagged: list[tuple[str, str]] = []
    for name, col in gaps.items():
        missing = np.isnan(col)
        flagged.extend((matrix.doc_ids[i], name) for i in np.flatnonzero(missing))
        col[missing] = _median(col[~missing])
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
    """1-based ranks of a column; tied values share their average rank.

    The sort need not be stable: a tie's values are equal (-0.0 equals
    0.0), so they sit in one run of the sorted column in any order, and
    every row of the run gets the run's one average rank.
    """
    order = np.argsort(col)
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


def rank_normalize(matrix: ScoreMatrix) -> ScoreMatrix:
    """Return a copy of the matrix (sharing its arrays) whose normalized
    columns are the raw ones' average-tie ranks scaled to [0, 1]; a
    single-document matrix maps to 0.5. The matrix has a document, a
    column and no missing cell."""
    result = copy.copy(matrix)
    result.normalized = np.column_stack(
        [_rank_unit(matrix.raw[:, j]) for j in range(len(matrix.score_names))]
    )
    return result


def spearman_matrix(matrix: ScoreMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise Spearman correlations (Pearson of average-tie ranks).

    Returns ``(rho, flagged)``: a symmetric matrix with unit diagonal, and
    a boolean mask marking cells involving a constant column, whose
    correlation is undefined and reported as NaN. The matrix has at least
    2 documents and no missing cell.
    """
    m = len(matrix.score_names)
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

