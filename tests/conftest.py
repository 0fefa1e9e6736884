import math
import sys
from collections.abc import Mapping, Sequence
from hashlib import blake2b
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qselect.corpus import Corpus
from qselect.matrix import ScoreMatrix, rank_normalize
from qselect.proxy import TrainerRequest
from qselect.selection import WeightVector

from oracles import ref_hash_bucket, ref_top_ngram_fraction_of_words, ref_word_signals, ref_words


# Learned weights (percent) published from the reference full-scale run,
# criterion 2's fixture. The percentages are as published and sum to 100.30
# due to rounding; normalize before using them as a weight vector.
REFERENCE_WEIGHT_PCT: dict[str, float] = {
    "Educational Value": 5.64,
    "doc_frac_no_alph_words": 4.93,
    "Fineweb-edu": 4.93,
    "lines_uppercase_letter_fraction": 4.88,
    "Facts and Trivia": 4.77,
    "doc_frac_chars_top_3gram": 4.73,
    "lines_ending_with_terminal_punctution_mark": 4.73,
    "doc_frac_chars_top_2gram": 4.71,
    "wikipedia_importance": 4.69,
    "lines_numerical_chars_fraction": 4.60,
    "doc_num_sentences": 4.58,
    "math_importance": 4.48,
    "Reasoning": 4.44,
    "doc_frac_unique_words": 4.32,
    "doc_word_count": 4.23,
    "doc_unigram_entropy": 4.22,
    "books_importance": 4.14,
    "Professionalism": 4.05,
    "Fluency": 4.02,
    "Readability": 3.93,
    "Required Expertise": 3.73,
    "Advertisement": 3.68,
    "Cleanliness": 1.17,
    "doc_mean_word_length": 0.65,
    "Writing Style": 0.05,
}


def reference_weights() -> WeightVector:
    """The published learned weights, projected onto the simplex."""
    return WeightVector.from_mapping(REFERENCE_WEIGHT_PCT)


def uniform_weights(names: Sequence[str]) -> WeightVector:
    """Equal weights over ``names``."""
    return WeightVector(tuple(names), np.full(len(names), 1.0 / len(names)))


class Row(NamedTuple):
    """The labels of one matrix row, for tests that build a matrix directly."""

    id: str
    domain: str
    token_estimate: int


def matrix_of(rows, names, raw):
    """Rank-normalized matrix whose rows are ``rows`` with scores ``raw``."""
    ids, domains, tokens = zip(*rows)
    return rank_normalize(ScoreMatrix(list(names), ids, domains, tokens, np.asarray(raw, dtype=float)))


def matrix_of_docs(records, names):
    """The raw matrix of ``(id, text, domain, scores map or None)`` records
    over the columns ``names``, in that order, NaN where a record lacks a name."""
    corpus = Corpus()
    for doc_id, text, domain, scores in records:
        corpus.append(doc_id, text, domain, len(text.split()), scores)
    full = ScoreMatrix.from_documents(corpus, names)
    cols = [full.score_names.index(name) for name in names]
    return ScoreMatrix(names, full.doc_ids, full.domains, full.tokens, full.raw[:, cols])


word_signals = ref_word_signals


def ngram_repetition(text):
    """Top 2-gram and 3-gram character fractions of one text."""
    words = ref_words(text)
    return {
        "doc_frac_chars_top_2gram": ref_top_ngram_fraction_of_words(words, 2),
        "doc_frac_chars_top_3gram": ref_top_ngram_fraction_of_words(words, 3),
    }


def bucket_of(model, feature):
    """The bucket ``model`` hashes ``feature`` to."""
    return ref_hash_bucket(feature, model.seed, len(model.log_probs))


class SubsetOracleTrainer:
    """Trainer stand-in that scores the selected subset.

    Loss is ``base - mean(true quality of selected docs)`` plus optional
    seeded noise keyed on the manifest contents, so the full
    weights -> selection -> loss path is exercised without any training.
    """

    def __init__(
        self,
        quality_by_id: Mapping[str, float],
        base: float = 2.0,
        sigma: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.quality_by_id = dict(quality_by_id)
        self.base = base
        self.sigma = sigma
        self.seed = seed

    def loss_for_ids(self, ids: Sequence[str]) -> float:
        if not ids:
            return self.base
        mean_quality = math.fsum(self.quality_by_id[i] for i in ids) / len(ids)
        loss = self.base - mean_quality
        if self.sigma > 0:
            digest = blake2b("\n".join(ids).encode("utf-8"), digest_size=16).digest()
            words = [int.from_bytes(digest[i : i + 8], "little") for i in (0, 8)]
            rng = np.random.default_rng([self.seed & 0xFFFFFFFFFFFFFFFF, *words])
            loss += float(rng.normal(0.0, self.sigma))
        return loss

    def __call__(self, request: TrainerRequest) -> float:
        with open(request.manifest_path, encoding="utf-8") as fh:
            ids = [line.strip() for line in fh if line.strip()]
        return self.loss_for_ids(ids)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_text(rng, max_len=200):
    """Mixed-content random string: words, digits, punctuation, CJK, emoji."""
    pools = [
        "abcdefghijklmnopqrstuvwxyz",
        "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
        "0123456789",
        " \t\n",
        ".,!?\"'();:-",
        "éüßñđł",
        "你好世界文字",
        "こんにちは",
        "\U0001f600\U0001f680☃",
    ]
    n = int(rng.integers(0, max_len))
    chars = []
    for _ in range(n):
        pool = pools[int(rng.integers(0, len(pools)))]
        chars.append(pool[int(rng.integers(0, len(pool)))])
    return "".join(chars)


def mixed_language_fixture(n_docs=200, seed=7):
    """Deterministic 200-document fixture mixing scripts and structures."""
    rng = np.random.default_rng(seed)
    english = (
        "The quick brown fox jumps over the lazy dog. It was the best of times, "
        "it was the worst of times. All happy families are alike."
    ).split()
    texts = []
    for i in range(n_docs):
        kind = i % 5
        if kind == 0:
            k = int(rng.integers(5, 120))
            words = [english[int(rng.integers(0, len(english)))] for _ in range(k)]
            texts.append(" ".join(words))
        elif kind == 1:
            texts.append(random_text(rng, 300))
        elif kind == 2:
            lines = []
            for _ in range(int(rng.integers(1, 8))):
                lines.append(random_text(rng, 60).replace("\n", " "))
            texts.append("\n".join(lines))
        elif kind == 3:
            texts.append("x " * int(rng.integers(1, 30)) + str(int(rng.integers(0, 1e6))))
        else:
            texts.append("")
    return texts


# Word pools for annotation-kernel corpora: case and NFC variants of one
# word (composed, decomposed, upper), non-ASCII letters, non-ASCII digits
# and numerics, punctuation-only and mixed tokens.
KERNEL_WORDS = [
    "a", "b", "c", "the", "The", "THE", "caf\u00e9", "cafe\u0301", "CAFE\u0301",
    "Stra\u00dfe", "STRASSE", "\u0130stanbul", "\u03a3\u039f\u03a6\u038a\u0391",
    "\u03c3\u03bf\u03c6\u03af\u03b1", "\u65e5\u672c\u8a9e", "\u0646\u0635", "\u0663\u0664",
    "\u00b2", "\u00bd", "\u216b", "42", "3.14", "...", "!?", "x1", "don't", "\U0001f600",
]
KERNEL_BLANKS = [" ", "  ", "\t", "\n", " \n ", "\u3000", "\u00a0"]


def kernel_text(rng, max_words=30):
    """One text for the annotation kernels: empty, blank, one word, or a run
    of words that repeats a short phrase, so n-gram counts tie."""
    kind = int(rng.integers(0, 6))
    if kind == 0:
        return ""
    if kind == 1:
        return "".join(KERNEL_BLANKS[int(i)] for i in rng.integers(0, len(KERNEL_BLANKS), 3))
    if kind == 2:
        return KERNEL_WORDS[int(rng.integers(0, len(KERNEL_WORDS)))]
    vocab = [KERNEL_WORDS[int(i)] for i in rng.integers(0, len(KERNEL_WORDS), 6)]
    words = [vocab[int(i)] for i in rng.integers(0, len(vocab), int(rng.integers(2, max_words)))]
    if kind == 3:
        words = words[:3] * int(rng.integers(2, 4)) + words[3:6] * int(rng.integers(2, 4))
    seps = KERNEL_BLANKS if kind == 4 else [" "]
    return "".join(w + seps[int(rng.integers(0, len(seps)))] for w in words)


def kernel_corpus(seed, n_docs=None):
    """A seeded corpus for the annotation-kernel oracle tests."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 25)) if n_docs is None else n_docs
    return [kernel_text(rng) for _ in range(n)]
