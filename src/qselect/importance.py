"""Hashed {1,2}-wordgram bag models and log-ratio importance scoring.

A document's importance against a target domain is
``log p(doc) - log q(doc)`` where ``p`` is a bag model fit on the target
corpus and ``q`` one fit on the source pool. Features (unigrams and
bigrams of the normalized word stream) are hashed into a fixed number of
buckets with a seeded 64-bit hash; additive smoothing keeps every
log-ratio finite.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from hashlib import blake2b

import numpy as np

from .corpus import Document
from .errors import ValidationError
from .signals import normalize_words

DEFAULT_BUCKET_COUNT = 65_536

# Unigram and bigram tokens are joined with the unit-separator control
# character, which cannot occur inside a word (words never contain
# whitespace, and U+001F is not whitespace but is stripped by split()
# boundaries in practice; it simply never collides with real text).
_BIGRAM_SEP = "\x1f"


def _hash_bucket(feature: str, seed: int, bucket_count: int) -> int:
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    digest = blake2b(feature.encode("utf-8"), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little") % bucket_count


def features(text: str) -> list[str]:
    """Unigram and bigram feature tokens of the normalized word stream."""
    words = normalize_words(text)
    feats = list(words)
    feats.extend(words[i] + _BIGRAM_SEP + words[i + 1] for i in range(len(words) - 1))
    return feats


@dataclass
class HashedBagModel:
    """Bucketed feature counts with additive smoothing."""

    bucket_count: int
    seed: int
    smoothing: float = 1.0
    counts: np.ndarray = field(init=False)
    _log_probs: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.bucket_count < 2:
            raise ValidationError("bucket_count must be at least 2")
        if self.smoothing <= 0:
            raise ValidationError("smoothing must be positive")
        self.counts = np.zeros(self.bucket_count, dtype=np.int64)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def bucket_of(self, feature: str) -> int:
        return _hash_bucket(feature, self.seed, self.bucket_count)

    def log_probs(self) -> np.ndarray:
        """Smoothed per-bucket log probabilities (cached)."""
        if self._log_probs is None:
            denom = self.total + self.smoothing * self.bucket_count
            self._log_probs = np.log((self.counts + self.smoothing) / denom)
        return self._log_probs


def fit_bag_model(
    docs: Iterable[Document | str],
    bucket_count: int = DEFAULT_BUCKET_COUNT,
    seed: int = 0,
    smoothing: float = 1.0,
) -> HashedBagModel:
    """Accumulate hashed feature counts over a corpus stream.

    Accepts Documents or raw strings. Raises on an empty corpus (a model
    fit on nothing would silently score everything 0 against itself).
    """
    model = HashedBagModel(bucket_count=bucket_count, seed=seed, smoothing=smoothing)
    bucket_cache: dict[str, int] = {}
    n_docs = 0
    for doc in docs:
        n_docs += 1
        text = doc.text if isinstance(doc, Document) else doc
        for feat in features(text):
            bucket = bucket_cache.get(feat)
            if bucket is None:
                bucket = model.bucket_of(feat)
                if len(bucket_cache) < 1_000_000:
                    bucket_cache[feat] = bucket
            model.counts[bucket] += 1
    if n_docs == 0:
        raise ValidationError("cannot fit a bag model on an empty corpus")
    return model


def _check_compatible(p: HashedBagModel, q: HashedBagModel) -> None:
    if p.bucket_count != q.bucket_count:
        raise ValidationError(
            f"bucket_count mismatch: {p.bucket_count} vs {q.bucket_count}"
        )
    if p.seed != q.seed:
        raise ValidationError(f"hash seed mismatch: {p.seed} vs {q.seed}")


def importance_score(
    doc: Document | str, p: HashedBagModel, q: HashedBagModel
) -> float:
    """Sum over the document's hashed features of log p - log q (nats).

    Zero-feature documents score 0. ``p`` and ``q`` must share bucket
    count and hash seed so features land in the same buckets.
    """
    _check_compatible(p, q)
    text = doc.text if isinstance(doc, Document) else doc
    feats = features(text)
    if not feats:
        return 0.0
    buckets = np.fromiter(
        (_hash_bucket(f, p.seed, p.bucket_count) for f in feats),
        dtype=np.int64,
        count=len(feats),
    )
    delta = p.log_probs()[buckets] - q.log_probs()[buckets]
    return float(delta.sum())
