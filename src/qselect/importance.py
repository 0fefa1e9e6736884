"""Hashed {1,2}-wordgram bag models and log-ratio importance scoring.

A document's importance against a target domain is
``log p(doc) - log q(doc)`` where ``p`` is a bag model fit on the target
corpus and ``q`` one fit on the source pool. Features (unigrams and
bigrams of the normalized word stream) are hashed into a fixed number of
buckets with a seeded 64-bit hash; additive smoothing keeps every
log-ratio finite.

Each corpus is hashed in one pass (``hash_corpus``): every text's
features become one flat int32 array of buckets plus a feature count
per text, and each distinct feature is hashed once per pass. A model is
the ``bincount`` of those buckets. Scoring gathers the per-bucket
log-ratio ``log p - log q`` at every bucket of the corpus once per
target, then sums each text's slice, in feature order.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from dataclasses import dataclass, field
from hashlib import blake2b
from itertools import accumulate

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

# Most distinct features one hash pass remembers; past it, a feature is
# hashed again at each occurrence. Bounds the memory of one pass.
_CACHE_LIMIT = 1_000_000


class _BucketCache(dict):
    """Feature -> bucket map that hashes a feature on its first lookup."""

    def __init__(self, bucket_count: int, seed: int) -> None:
        if bucket_count > 1 << 31:
            raise ValidationError("bucket_count must be at most 2**31 (buckets are C ints)")
        super().__init__()
        self.bucket_count = bucket_count
        # Copying a keyed hash skips re-keying it for every feature.
        self.keyed = blake2b(digest_size=8, key=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))

    def __missing__(self, feature: str) -> int:
        h = self.keyed.copy()
        h.update(feature.encode("utf-8"))
        bucket = int.from_bytes(h.digest(), "little") % self.bucket_count
        if len(self) < _CACHE_LIMIT:
            self[feature] = bucket
        return bucket


def features(text: str) -> list[str]:
    """Unigram and bigram feature tokens of the normalized word stream."""
    words = normalize_words(text)
    return words + [a + _BIGRAM_SEP + b for a, b in zip(words, words[1:])]


@dataclass(frozen=True)
class HashedCorpus:
    """Every feature of a corpus as its bucket, text after text.

    ``buckets`` holds each text's features in ``features`` order, and
    ``lengths`` the number of features of each text.
    """

    buckets: np.ndarray  # C int (int32), one per feature
    lengths: array  # C ints, one per text
    bucket_count: int
    seed: int

    def spans(self) -> Iterable[tuple[int, int]]:
        """Each text's ``(start, end)`` in ``buckets``."""
        ends = list(accumulate(self.lengths))
        return zip([0, *ends], ends)


def hash_corpus(
    docs: Iterable[Document | str], bucket_count: int, seed: int
) -> HashedCorpus:
    """Hash every feature of every text once, in one pass over the corpus."""
    cache = _BucketCache(bucket_count, seed)
    lookup = cache.__getitem__
    # Raw C ints: a long-lived int object would pin the pages that the
    # freed cache leaves behind.
    buckets, lengths = array("i"), array("i")
    for doc in docs:
        feats = features(doc.text if isinstance(doc, Document) else doc)
        buckets.extend(map(lookup, feats))
        lengths.append(len(feats))
    return HashedCorpus(np.frombuffer(buckets, dtype=np.intc), lengths, bucket_count, seed)


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
        return _BucketCache(self.bucket_count, self.seed)[feature]

    def log_probs(self) -> np.ndarray:
        """Smoothed per-bucket log probabilities (cached)."""
        if self._log_probs is None:
            denom = self.total + self.smoothing * self.bucket_count
            self._log_probs = np.log((self.counts + self.smoothing) / denom)
        return self._log_probs


def fit_bag_model(
    docs: Iterable[Document | str] | HashedCorpus,
    bucket_count: int = DEFAULT_BUCKET_COUNT,
    seed: int = 0,
    smoothing: float = 1.0,
) -> HashedBagModel:
    """Count hashed features over a corpus of Documents, raw strings, or
    a corpus already hashed with the same bucket count and seed.

    Raises on an empty corpus (a model fit on nothing would silently
    score everything 0 against itself).
    """
    model = HashedBagModel(bucket_count=bucket_count, seed=seed, smoothing=smoothing)
    if not isinstance(docs, HashedCorpus):
        docs = hash_corpus(docs, bucket_count, seed)
    _check_compatible(model, docs)
    if not docs.lengths:
        raise ValidationError("cannot fit a bag model on an empty corpus")
    model.counts = np.bincount(docs.buckets, minlength=bucket_count)
    return model


def _check_compatible(p: HashedBagModel | HashedCorpus, q: HashedBagModel | HashedCorpus) -> None:
    if p.bucket_count != q.bucket_count:
        raise ValidationError(
            f"bucket_count mismatch: {p.bucket_count} vs {q.bucket_count}"
        )
    if p.seed != q.seed:
        raise ValidationError(f"hash seed mismatch: {p.seed} vs {q.seed}")


def importance_scores(
    corpus: HashedCorpus, p: HashedBagModel, q: HashedBagModel
) -> list[float]:
    """Each text's sum over its hashed features of log p - log q (nats).

    Zero-feature texts score 0. ``p``, ``q`` and the corpus must share
    bucket count and hash seed so features land in the same buckets.
    Each sum is numpy's sum of that text's slice alone, so a text scores
    the same bits whatever corpus it is hashed with.
    """
    _check_compatible(p, q)
    _check_compatible(p, corpus)
    delta = (p.log_probs() - q.log_probs())[corpus.buckets]
    return [float(delta[start:end].sum()) for start, end in corpus.spans()]


def importance_score(
    doc: Document | str, p: HashedBagModel, q: HashedBagModel
) -> float:
    """One document's importance: ``importance_scores`` of a one-text corpus."""
    return importance_scores(hash_corpus([doc], p.bucket_count, p.seed), p, q)[0]
