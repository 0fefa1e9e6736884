import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qselect.corpus import Document


def make_doc(doc_id, text, domain="C4", scores=None):
    return Document(doc_id, text, domain, len(text.split()), scores)


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
