"""Document model, JSONL corpus I/O, and a synthetic corpus generator.

The corpus format is line-delimited JSON (UTF-8, no BOM), one object per
line with keys ``id``, ``text``, ``domain`` and an optional ``scores``
object mapping score names to numbers. The writer emits keys in exactly
that order so that repeated runs are byte-identical.

Token budgets throughout the engine are denominated in estimator units
(whitespace words by default), not in any specific tokenizer's tokens.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CorpusError, ValidationError
from .registry import DEFAULT_DOMAINS, DEFAULT_DOMAIN_WEIGHTS

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


@dataclass(frozen=True)
class Document:
    """One corpus record. Immutable; safe to share across threads."""

    id: str
    text: str
    domain: str
    token_estimate: int
    scores: dict[str, float] | None = None

    def with_scores(self, scores: Mapping[str, float]) -> "Document":
        """Return a copy with ``scores`` replacing the current map."""
        return Document(self.id, self.text, self.domain, self.token_estimate, dict(scores))


@dataclass(frozen=True)
class CorpusSchema:
    """Validation and token-estimation settings for a corpus file."""

    domains: tuple[str, ...] = DEFAULT_DOMAINS
    token_estimator: str = "whitespace"

    def __post_init__(self) -> None:
        if not self.domains:
            raise ValidationError("schema requires at least one domain tag")
        if self.token_estimator not in TOKEN_ESTIMATORS:
            raise ValidationError(
                f"unknown token estimator {self.token_estimator!r}; "
                f"expected one of {sorted(TOKEN_ESTIMATORS)}"
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


def _parse_record(obj: object, schema: CorpusSchema) -> Document:
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    doc_id = obj.get("id")
    if not isinstance(doc_id, str) or not doc_id:
        raise ValueError("missing or empty 'id'")
    text = obj.get("text")
    if not isinstance(text, str):
        raise ValueError("missing 'text'")
    domain = obj.get("domain")
    if domain not in schema.domains:
        raise ValueError(f"unknown domain {domain!r}")
    scores = obj.get("scores")
    if scores is not None:
        if not isinstance(scores, dict):
            raise ValueError("'scores' is not an object")
        for name, value in scores.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"score {name!r} is not a number")
            if not math.isfinite(value):
                raise ValueError(f"score {name!r} is not finite")
        scores = {name: float(value) for name, value in scores.items()}
    return Document(doc_id, text, domain, schema.estimate_tokens(text), scores)


def read_corpus(
    path: str | Path,
    schema: CorpusSchema | None = None,
    report: ReadReport | None = None,
) -> Iterator[Document]:
    """Stream Documents from a JSONL corpus file in file order.

    Malformed lines (bad JSON, missing id/text, unknown domain, a score
    that is not a finite number) are recorded in ``report`` with their
    line numbers and skipped. A duplicate document id is a hard error:
    selection outputs reference ids, so silently keeping either copy would
    corrupt downstream manifests. Memory stays bounded by one record plus the id index used
    for duplicate detection.
    """
    schema = schema or CorpusSchema()
    seen_ids: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                doc = _parse_record(obj, schema)
            except (json.JSONDecodeError, ValueError, OverflowError) as exc:
                if report is not None:
                    report.add(line_no, str(exc))
                continue
            if doc.id in seen_ids:
                raise CorpusError(f"duplicate document id {doc.id!r} at line {line_no}")
            seen_ids.add(doc.id)
            if report is not None:
                report.records_ok += 1
            yield doc


def load_corpus(
    path: str | Path, schema: CorpusSchema | None = None
) -> tuple[list[Document], ReadReport]:
    """Read a whole corpus into memory, returning documents and the error report."""
    report = ReadReport()
    docs = list(read_corpus(path, schema, report))
    return docs, report


def write_corpus(docs: Iterable[Document], path: str | Path) -> int:
    """Write documents as JSONL with keys in fixed order. Returns the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            record: dict[str, object] = {"id": doc.id, "text": doc.text, "domain": doc.domain}
            if doc.scores is not None:
                record["scores"] = doc.scores
            fh.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")
            count += 1
    return count


def apportion(proportions: Mapping[str, float], total: int) -> dict[str, int]:
    """Split ``total`` items across keys by largest-remainder rounding.

    Fractional remainders are quantized to 9 decimals before comparison so
    that float dust cannot reorder ties; remaining ties go to the earlier
    key in iteration order. The returned counts sum to ``total`` exactly.
    """
    if total < 0:
        raise ValidationError("total must be nonnegative")
    _check_proportions(proportions)
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


def _check_proportions(proportions: Mapping[str, float]) -> None:
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
            raise ValidationError("doc_count must be nonnegative")
        if self.token_mean <= 0:
            raise ValidationError("token_mean must be positive")
        _check_proportions(self.domain_mix)


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
    spec: SynthesisSpec, seed: int, path: str | Path
) -> dict[str, int]:
    """Generate a corpus file from ``spec``; bitwise deterministic per seed.

    Domain counts follow largest-remainder apportionment of the declared
    mix (each within one document of the exact share); the domain sequence
    is then shuffled so domains interleave. Returns per-domain counts.
    """
    rng = np.random.default_rng(seed)
    counts = apportion(spec.domain_mix, spec.doc_count)
    tags: list[str] = []
    for name, count in counts.items():
        tags.extend([name] * count)
    rng.shuffle(tags)

    channel_names = list(spec.channels)
    with open(path, "w", encoding="utf-8") as fh:
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
            record: dict[str, object] = {"id": f"doc-{i:06d}", "text": text, "domain": domain}
            if scores:
                record["scores"] = scores
            fh.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")
    return counts
