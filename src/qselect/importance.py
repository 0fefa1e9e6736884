"""Hashed {1,2}-wordgram bag models and log-ratio importance scoring.

A document's importance against a target domain is
``log p(doc) - log q(doc)`` where ``p`` is a bag model fit on the target
corpus and ``q`` one fit on the source pool. Features (unigrams and
bigrams of the normalized word stream) are hashed into a fixed number of
buckets with a seeded 64-bit hash; additive smoothing keeps every
log-ratio finite.

Each corpus is hashed in one pass over its word ids (``hash_corpus`` of
``tokens.tokenize``): each vocabulary word and each distinct adjacent
word pair is hashed once, in batches, and the buckets are scattered into
one flat int32 array, each text's unigrams then its bigrams, with a
feature count per text. A model is one smoothed log probability per
bucket, from one ``bincount`` of those buckets. Scoring gathers both
models at each feature's bucket and subtracts there, so a one-text call
costs its features and not the model's buckets, then sums each text's
slice, in feature order.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from hashlib import blake2b
from itertools import islice, repeat

import numpy as np

from .errors import ValidationError
from .tokens import Tokens, blocks, normalize_words, tokenize

DEFAULT_BUCKET_COUNT = 65_536

# A bigram feature joins its two words with U+001F. str.split() treats
# U+001C-U+001F as whitespace, so no word holds the separator and no
# bigram can equal a unigram or another bigram.
_BIGRAM_SEP = "\x1f"

# Features hashed per batch: bounds the hash objects alive at once.
_HASH_BATCH = 1024


def features(text: str) -> list[str]:
    """Unigram and bigram feature tokens of the normalized word stream."""
    words = normalize_words(text)
    return words + [a + _BIGRAM_SEP + b for a, b in zip(words, words[1:])]


def _hash_buckets(feats: Iterator[bytes], count: int, bucket_count: int, seed: int) -> np.ndarray:
    """The bucket of each of ``count`` UTF-8 features: its 8-byte blake2b
    digest keyed by the low 64 bits of ``seed``, little-endian, modulo
    ``bucket_count``. Hashed a batch at a time by C-level maps."""
    # Copying a keyed hash skips re-keying it for every feature.
    keyed = blake2b(digest_size=8, key=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))
    buckets = np.empty(count, np.intc)
    for lo in range(0, count, _HASH_BATCH):
        batch = list(islice(feats, _HASH_BATCH))
        hashes = list(map(blake2b.copy, repeat(keyed, len(batch))))
        deque(map(blake2b.update, hashes, batch), maxlen=0)
        digests = np.frombuffer(b"".join(map(blake2b.digest, hashes)), "<u8")
        buckets[lo : lo + len(batch)] = digests % bucket_count
    return buckets


def _pair_features(pairs: np.ndarray, words: list[bytes]) -> Iterator[bytes]:
    """The UTF-8 bigram feature of each pair code ``first * len(words) + second``."""
    heads = [word + _BIGRAM_SEP.encode() for word in words]
    for lo in range(0, len(pairs), _HASH_BATCH):
        first, second = np.divmod(pairs[lo : lo + _HASH_BATCH], len(words))
        yield from map(
            bytes.__add__, map(heads.__getitem__, first.tolist()), map(words.__getitem__, second.tolist())
        )


@dataclass(frozen=True)
class HashedCorpus:
    """Every feature of a corpus as its bucket, text after text.

    ``buckets`` holds each text's features in ``features`` order, and
    ``lengths`` the number of features of each text.
    """

    buckets: np.ndarray  # C int (int32), one per feature
    lengths: np.ndarray  # int64, one per text
    bucket_count: int
    seed: int


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an int array (``np.unique`` of a
    plain array builds a hash table, several times slower here)."""
    values = np.sort(values)
    keep = np.ones(len(values), bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _pair_codes(ids: np.ndarray, lengths: np.ndarray, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each within-text adjacent word pair starts in ``ids``, and its
    code ``first * vocab_size + second``."""
    at = np.ones(len(ids), bool)
    at[np.cumsum(lengths)[lengths > 0] - 1] = False
    at = np.flatnonzero(at)
    return at, ids[at] * vocab_size + ids[at + 1]


def hash_corpus(tokens: Tokens, bucket_count: int, seed: int) -> HashedCorpus:
    """Hash every feature of a tokenized corpus, each distinct one once,
    into ``bucket_count`` buckets, at most 2**31 (buckets are C ints)."""
    vocab_size = len(tokens.vocab)
    words = list(map(str.encode, tokens.vocab))
    word_buckets = _hash_buckets(iter(words), vocab_size, bucket_count, seed)
    runs = [(tokens.lengths[texts], tokens.ids[span]) for texts, span in blocks(tokens.lengths)]
    pairs = _distinct(np.concatenate([
        np.empty(0, np.int64),
        *(_distinct(_pair_codes(ids, lengths, vocab_size)[1]) for lengths, ids in runs),
    ]))
    pair_buckets = _hash_buckets(_pair_features(pairs, words), len(pairs), bucket_count, seed)
    n_feats = 2 * tokens.lengths - (tokens.lengths > 0)
    buckets = np.empty(int(n_feats.sum()), np.intc)
    done = 0
    for lengths, ids in runs:
        # Each text's unigrams, then its bigrams: a word's feature sits at
        # its position plus its text's shift, a pair's one text length on.
        feats = 2 * lengths - (lengths > 0)
        shift = (np.cumsum(feats) - feats) - (np.cumsum(lengths) - lengths)
        text_of = np.repeat(np.arange(len(lengths)), lengths)
        out = buckets[done : done + int(feats.sum())]
        out[np.arange(len(ids)) + shift[text_of]] = word_buckets[ids]
        at, codes = _pair_codes(ids, lengths, vocab_size)
        codes, pair_of = np.unique(codes, return_inverse=True)
        out[at + (shift + lengths)[text_of[at]]] = pair_buckets[np.searchsorted(pairs, codes)][pair_of]
        done += len(out)
    return HashedCorpus(buckets, n_feats, bucket_count, seed)


@dataclass(frozen=True)
class HashedBagModel:
    """Smoothed log probability of each bucket, under the hash seed that
    put features in them; the bucket count is ``len(log_probs)``."""

    log_probs: np.ndarray  # float64, one per bucket
    seed: int


def fit_bag_model(corpus: HashedCorpus, smoothing: float) -> HashedBagModel:
    """The additively smoothed bag model of a hashed corpus.

    ``smoothing`` is positive. Raises on an empty corpus (a model fit on
    nothing would silently score everything 0 against itself).
    """
    if not len(corpus.lengths):
        raise ValidationError("cannot fit a bag model on an empty corpus")
    counts = np.bincount(corpus.buckets, minlength=corpus.bucket_count)
    log_probs = np.log((counts + smoothing) / (int(counts.sum()) + smoothing * corpus.bucket_count))
    return HashedBagModel(log_probs, corpus.seed)


def importance_scores(corpus: HashedCorpus, p: HashedBagModel, q: HashedBagModel) -> np.ndarray:
    """Each text's sum over its hashed features of log p - log q (nats).

    Zero-feature texts score 0. Precondition: ``p``, ``q`` and the corpus
    share bucket count and hash seed, so features land in the same buckets;
    ``annotate`` hashes every corpus under one of each. Each sum is numpy's
    sum of that text's slice alone, so a text scores the same bits whatever
    corpus it is hashed with.
    """
    scores = np.empty(len(corpus.lengths))
    for texts, span in blocks(corpus.lengths):
        buckets = corpus.buckets[span]
        feats = p.log_probs[buckets] - q.log_probs[buckets]
        ends = np.cumsum(corpus.lengths[texts]).tolist()
        scores[texts] = [feats[start:end].sum() for start, end in zip([0, *ends], ends)]
    return scores


def importance_score(text: str, p: HashedBagModel, q: HashedBagModel) -> float:
    """One text's importance: ``importance_scores`` of a one-text corpus."""
    return float(importance_scores(hash_corpus(tokenize([text]), len(p.log_probs), p.seed), p, q)[0])
