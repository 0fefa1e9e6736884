"""The columnar corpus, JSONL corpus I/O, and a synthetic corpus generator.

The corpus format is line-delimited JSON (UTF-8, no BOM), one object per
line with keys ``id``, ``text``, ``domain`` and an optional ``scores``
object mapping score names to numbers. The writer emits keys in exactly
that order so that repeated runs are byte-identical. A parsed corpus
holds its records as columns, one per field.

Token budgets throughout the engine are denominated in estimator units
(whitespace words by default), not in any specific tokenizer's tokens.
"""

from __future__ import annotations

import json
import math
from array import array
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import FieldError, ValidationError, is_finite_number
from .registry import DEFAULT_DOMAINS, DEFAULT_DOMAIN_WEIGHTS

if TYPE_CHECKING:
    from .matrix import ScoreMatrix

# Estimated tokens per character for the character-ratio estimator: the
# corpus this engine targets averages 0.77 characters per token.
_CHARS_PER_TOKEN = 0.77


def estimate_tokens_whitespace(text: str) -> int:
    """Count whitespace-delimited words."""
    return len(text.split())


def estimate_tokens_char_ratio(text: str) -> int:
    """Estimate token count from character length."""
    return int(round(len(text) / _CHARS_PER_TOKEN))


TOKEN_ESTIMATORS = {
    "whitespace": estimate_tokens_whitespace,
    "char_ratio": estimate_tokens_char_ratio,
}


@dataclass
class Corpus:
    """Records in file order, held as columns.

    Document ``i`` is ``ids[i]`` of domain ``domains[i]``, with text
    ``texts[i]`` and ``tokens[i]`` estimated tokens. ``score_keys[i]`` is
    its score names in its record's order (``None`` without a ``scores``
    object), one shared tuple per key order; their values are the next
    ``len(score_keys[i])`` floats of ``score_values``.
    """

    ids: list[str] = field(default_factory=list)
    texts: list[str] = field(default_factory=list)
    domains: list[str] = field(default_factory=list)
    tokens: array = field(default_factory=lambda: array("q"))
    score_keys: list[tuple[str, ...] | None] = field(default_factory=list)
    score_values: array = field(default_factory=lambda: array("d"))
    _key_orders: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.ids)

    def append(
        self, doc_id: str, text: str, domain: str, tokens: int, scores: Mapping[str, float] | None
    ) -> None:
        """Add one record; its scores map (finite numbers) is not kept."""
        keys = None if scores is None else tuple(scores)
        keys = self._key_orders.setdefault(keys, keys)
        self.score_values.extend(scores.values() if scores else ())
        self.ids.append(doc_id)
        self.texts.append(text)
        self.domains.append(domain)
        self.tokens.append(tokens)
        self.score_keys.append(keys)


@dataclass(frozen=True)
class CorpusSchema:
    """Validation and token-estimation settings for a corpus file."""

    domains: tuple[str, ...] = DEFAULT_DOMAINS
    token_estimator: str = "whitespace"

    def __post_init__(self) -> None:
        if not self.domains:
            raise FieldError("domains", "must name at least one domain tag")
        if self.token_estimator not in TOKEN_ESTIMATORS:
            raise FieldError(
                "token_estimator",
                f"must be one of {sorted(TOKEN_ESTIMATORS)}, got {self.token_estimator!r}",
            )

    def estimate_tokens(self, text: str) -> int:
        return TOKEN_ESTIMATORS[self.token_estimator](text)


@dataclass
class RecordError:
    """One rejected input line, located by its 1-based line number."""

    line_no: int
    reason: str


@dataclass
class ReadReport:
    """Accumulates per-record errors during a streaming read."""

    errors: list[RecordError] = field(default_factory=list)
    records_ok: int = 0

    def add(self, line_no: int, reason: str) -> None:
        self.errors.append(RecordError(line_no, reason))

    def summary(self) -> str:
        return f"{self.records_ok} records read, {len(self.errors)} rejected"


def numbered_lines(path: str | Path) -> Iterator[tuple[int, bytes]]:
    """Stream a file's lines as bytes, numbered from 1 and cut where text
    mode cuts them: at ``\\n``, ``\\r\\n`` or a lone ``\\r``. Each caller
    decodes a line inside its own check, so a bad byte names its line."""
    with open(path, "rb") as fh:
        yield from enumerate(chain.from_iterable(map(bytes.splitlines, fh)), start=1)


def check_encodable(what: str, value: str) -> None:
    """Refuse a string holding a lone surrogate, which UTF-8 cannot write."""
    if not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"{what} holds the lone surrogate {exc.object[exc.start]!r}") from None


# One parsed record: id, text, domain, token estimate and scores object.
Record = tuple[str, str, str, int, "dict | None"]


def _parse_record(line: str, schema: CorpusSchema) -> Record:
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    doc_id = obj.get("id")
    if not isinstance(doc_id, str) or not doc_id:
        raise ValueError("missing or empty 'id'")
    text = obj.get("text")
    if not isinstance(text, str):
        raise ValueError("missing 'text'")
    domain = obj.get("domain")
    # Before the domain lookup: a config cannot name a domain that holds a
    # lone surrogate, so such a line would otherwise read as an unknown domain.
    for what, value in (("id", doc_id), ("text", text), ("domain", domain)):
        if isinstance(value, str):
            check_encodable(what, value)
    if domain not in schema.domains:
        raise ValueError(f"unknown domain {domain!r}")
    scores = obj.get("scores")
    if scores is not None:
        if not isinstance(scores, dict):
            raise ValueError("'scores' is not an object")
        for name, value in scores.items():
            if not is_finite_number(value):
                raise ValueError(f"score {name!r} = {value!r} is not a finite number")
    for name in scores or ():
        check_encodable("score name", name)
    return doc_id, text, domain, schema.estimate_tokens(text), scores


def read_corpus(
    path: str | Path,
    schema: CorpusSchema | None = None,
    report: ReadReport | None = None,
) -> Iterator[Record]:
    """Stream (id, text, domain, token estimate, scores object or None)
    records from a JSONL corpus file in file order.

    Malformed lines (not UTF-8, bad JSON, missing id/text, unknown domain,
    a score that is not a finite number, a lone surrogate escape in a
    string that is written back) are recorded in ``report`` with their
    line numbers and skipped. A duplicate document id is a hard error:
    selection outputs reference ids, so silently keeping either copy would
    corrupt downstream manifests. Memory stays bounded by one record plus the id index used
    for duplicate detection.
    """
    schema = schema or CorpusSchema()
    seen_ids: set[str] = set()
    for line_no, line in numbered_lines(path):
        try:
            line = line.decode("utf-8").strip()
            if not line:
                continue
            record = _parse_record(line, schema)
        except ValueError as exc:  # UTF-8 and JSON errors are ValueErrors
            if report is not None:
                report.add(line_no, str(exc))
            continue
        doc_id = record[0]
        if doc_id in seen_ids:
            raise ValidationError(f"{path}:{line_no}: duplicate document id {doc_id!r}")
        seen_ids.add(doc_id)
        if report is not None:
            report.records_ok += 1
        yield record


def load_corpus(
    path: str | Path, schema: CorpusSchema | None = None
) -> tuple[Corpus, ReadReport]:
    """Read a whole corpus into memory, returning it and the error report."""
    report = ReadReport()
    corpus = Corpus()
    for record in read_corpus(path, schema, report):
        corpus.append(*record)
    return corpus, report


def write_corpus(
    corpus: Corpus, path: str | Path, matrix: ScoreMatrix, added: Sequence[str] = ()
) -> int:
    """Write the corpus as JSONL with keys in fixed order. Returns the count.

    A record's scores are its own names in its own order, then the names
    of ``added`` it lacks, valued from its row of ``matrix`` (the corpus's
    raw matrix); a record with neither gets no ``scores`` key.
    """
    col = {name: j for j, name in enumerate(matrix.score_names)}
    columns = (corpus.ids, corpus.texts, corpus.domains, corpus.score_keys, matrix.raw)
    with open(path, "w", encoding="utf-8") as fh:
        for doc_id, text, domain, keys, row in zip(*columns):
            record: dict[str, object] = {"id": doc_id, "text": text, "domain": domain}
            if keys is not None or added:
                values = row.tolist()
                record["scores"] = {name: values[col[name]] for name in (*(keys or ()), *added)}
            fh.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")
    return len(corpus)


def apportion(proportions: Mapping[str, float], total: int) -> dict[str, int]:
    """Split ``total`` items across keys by largest-remainder rounding.

    Fractional remainders are quantized to 9 decimals before comparison so
    that float dust cannot reorder ties; remaining ties go to the earlier
    key in iteration order. The returned counts sum to ``total`` exactly.
    ``total`` is nonnegative and the proportions pass ``check_proportions``.
    """
    names = list(proportions)
    floors: list[int] = []
    remainders: list[float] = []
    for name in names:
        exact = proportions[name] * total
        fl = math.floor(exact)
        floors.append(fl)
        remainders.append(round(exact - fl, 9))
    leftover = total - sum(floors)
    order = sorted(range(len(names)), key=lambda i: (-remainders[i], i))
    for i in order[:leftover]:
        floors[i] += 1
    return dict(zip(names, floors))


def check_proportions(proportions: Mapping[str, float]) -> None:
    """Refuse an empty map, a negative share, or shares whose ``fsum`` is
    not 1 within 1e-9."""
    if not proportions:
        raise ValidationError("empty proportion map")
    for name, p in proportions.items():
        if p < 0:
            raise ValidationError(f"negative proportion for {name!r}")
    s = math.fsum(proportions.values())
    if abs(s - 1.0) > 1e-9:
        raise ValidationError(f"proportions sum to {s!r}, expected 1 within 1e-9")


@dataclass(frozen=True)
class ScoreChannel:
    """A synthetic score column: offset + scale * (loading * latent + noise * eps)."""

    loading: float = 0.0
    noise: float = 1.0
    offset: float = 0.0
    scale: float = 1.0


@dataclass(frozen=True)
class SynthesisSpec:
    """Recipe for a deterministic desk-scale test corpus.

    Each document draws a latent quality value from N(0, 1); declared
    score channels are linear responses to that latent plus independent
    noise. Setting ``latent_name`` additionally writes the latent itself
    into the scores map, which lets tests evaluate how much true quality
    a selection captured.
    """

    doc_count: int
    domain_mix: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_DOMAIN_WEIGHTS)
    )
    channels: Mapping[str, ScoreChannel] = field(default_factory=dict)
    latent_name: str | None = None
    token_mean: float = 80.0
    token_sigma: float = 0.4

    def __post_init__(self) -> None:
        if self.doc_count < 0:
            raise FieldError("doc_count", "must be nonnegative")
        if self.token_mean <= 0:
            raise FieldError("token_mean", "must be positive")
        check_proportions(self.domain_mix)


# Small skewed vocabulary for generated text; the leading entries act as
# stopwords so unigram statistics look vaguely natural.
_VOCAB = (
    "the of and to in a is that for it as was with be by on not he this are "
    "at from or his they an which one you were her all she there would their "
    "we him been has when who will no more if out so up said what its about "
    "than into them can only other time new some could these two may first "
    "then do any like my now over such our man me even most made after also "
    "did many before must through years where much your way well down should "
    "because each just those people how too little state good very make world "
    "still own see men work long here get both between life being under never "
    "day same another know while last might us great old year off come since "
    "against go came right used take three"
).split()

_VOCAB_WEIGHTS = np.array([1.0 / (r + 1) ** 1.1 for r in range(len(_VOCAB))])
_VOCAB_WEIGHTS /= _VOCAB_WEIGHTS.sum()


def _synth_text(rng: np.random.Generator, n_words: int) -> str:
    words = list(rng.choice(_VOCAB, size=n_words, p=_VOCAB_WEIGHTS))
    lines: list[str] = []
    sentence: list[str] = []
    i = 0
    while i < len(words):
        take = int(rng.integers(5, 13))
        chunk = words[i : i + take]
        i += take
        if not chunk:
            break
        chunk[0] = chunk[0].capitalize()
        if rng.random() < 0.08:
            chunk.append(str(int(rng.integers(0, 10000))))
        mark = "." if rng.random() < 0.85 else ("!" if rng.random() < 0.5 else "?")
        sentence.append(" ".join(chunk) + mark)
        if rng.random() < 0.4 or i >= len(words):
            lines.append(" ".join(sentence))
            sentence = []
    return "\n".join(lines)


def synthesize_corpus(
    spec: SynthesisSpec, seed: int, schema: CorpusSchema | None = None
) -> tuple[dict[str, int], Corpus]:
    """Generate a corpus from ``spec``; bitwise deterministic per seed.

    Domain counts follow largest-remainder apportionment of the declared
    mix (each within one document of the exact share); the domain sequence
    is then shuffled so domains interleave. Token estimates follow
    ``schema``. Returns the per-domain counts and the corpus.
    """
    schema = schema or CorpusSchema()
    rng = np.random.default_rng(seed)
    counts = apportion(spec.domain_mix, spec.doc_count)
    tags: list[str] = []
    for name, count in counts.items():
        tags.extend([name] * count)
    rng.shuffle(tags)

    channel_names = list(spec.channels)
    corpus = Corpus()
    for i, domain in enumerate(tags):
        latent = float(rng.normal())
        n_words = max(1, int(round(float(rng.lognormal(math.log(spec.token_mean), spec.token_sigma)))))
        text = _synth_text(rng, n_words)
        scores: dict[str, float] = {}
        for name in channel_names:
            ch = spec.channels[name]
            eps = float(rng.normal())
            scores[name] = ch.offset + ch.scale * (ch.loading * latent + ch.noise * eps)
        if spec.latent_name is not None:
            scores[spec.latent_name] = latent
        corpus.append(f"doc-{i:06d}", text, domain, schema.estimate_tokens(text), scores or None)
    return counts, corpus
