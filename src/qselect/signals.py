"""The 11 rule-based natural-language quality signals.

All signals are pure functions of the document text. Word-level signals
operate on the normalized word stream: NFC-normalize, lowercase, split on
Unicode whitespace, where a word is a maximal non-whitespace run.
Line-level signals are per-line ratios reduced to one document value by
an unweighted mean over lines. Empty documents score zero everywhere.
"""

from __future__ import annotations

import math
import re
import unicodedata
from collections import Counter
from operator import itemgetter, mul

from .registry import SIGNAL_NAMES

# Terminal punctuation marks for the line-ending signal.
TERMINAL_MARKS = (".", "!", "?", '"')

_SENTENCE_RE = re.compile(r"\b[^.!?]+[.!?]*")


def normalize_words(text: str) -> list[str]:
    """NFC-normalized, lowercased, whitespace-split word stream."""
    return unicodedata.normalize("NFC", text).lower().split()


def word_signals(text: str) -> dict[str, float]:
    """Word-stream signals: non-alphabetic fraction, mean length, uniqueness,
    unigram entropy (natural log), and word count."""
    return _word_signals(normalize_words(text))


def _word_signals(words: list[str]) -> dict[str, float]:
    n = len(words)
    if n == 0:
        return {
            "doc_frac_no_alph_words": 0.0,
            "doc_mean_word_length": 0.0,
            "doc_frac_unique_words": 0.0,
            "doc_unigram_entropy": 0.0,
            "doc_word_count": 0.0,
        }
    counts = Counter(words)
    no_alph = sum(c for w, c in counts.items() if not any(map(str.isalpha, w)))
    probs = [c / n for c in counts.values()]
    entropy = -math.fsum(map(mul, probs, map(math.log, probs)))
    return {
        "doc_frac_no_alph_words": no_alph / n,
        "doc_mean_word_length": sum(map(len, words)) / n,
        "doc_frac_unique_words": len(counts) / n,
        "doc_unigram_entropy": entropy,
        "doc_word_count": float(n),
    }


def _line_ratio(line: str, predicate) -> float:
    if not line:
        return 0.0
    return sum(map(predicate, line)) / len(line)


def line_signals(text: str) -> dict[str, float]:
    """Line-level signals averaged over lines.

    Terminal punctuation is checked on the raw line; the numerical-character
    ratio uses the normalized (NFC, lowercased) line; the uppercase ratio
    uses the raw line. A document with no lines scores zero on all three.
    """
    lines = text.split("\n") if text else []
    if not lines:
        return {
            "lines_ending_with_terminal_punctution_mark": 0.0,
            "lines_numerical_chars_fraction": 0.0,
            "lines_uppercase_letter_fraction": 0.0,
        }
    n = len(lines)
    terminal = sum(1 for line in lines if line.endswith(TERMINAL_MARKS)) / n
    numerical = (
        math.fsum(
            _line_ratio(unicodedata.normalize("NFC", line).lower(), str.isdigit)
            for line in lines
        )
        / n
    )
    uppercase = math.fsum(_line_ratio(line, str.isupper) for line in lines) / n
    return {
        "lines_ending_with_terminal_punctution_mark": terminal,
        "lines_numerical_chars_fraction": numerical,
        "lines_uppercase_letter_fraction": uppercase,
    }


def sentence_count(text: str) -> int:
    """Number of sentences: non-overlapping matches of ``\\b[^.!?]+[.!?]*``
    against the raw text."""
    return len(_SENTENCE_RE.findall(text))


def _top_ngram_fraction(words: list[str], n: int) -> float:
    if len(words) < n:
        return 0.0
    counts = Counter(zip(*(words[i:] for i in range(n))))
    # Ties resolve to the first-seen gram: Counter keeps insertion order
    # and max returns the first maximum. Only its length matters.
    best_gram, best_count = max(counts.items(), key=itemgetter(1))
    # Overlapping occurrences can claim more characters than the document
    # has; clamp so the signal stays a fraction. Words are non-empty, so
    # the total is positive.
    return min(1.0, best_count * sum(map(len, best_gram)) / sum(map(len, words)))


def ngram_repetition(text: str) -> dict[str, float]:
    """Fraction of document characters claimed by the most frequent word
    2-gram and 3-gram (non-whitespace characters, overlap counted)."""
    return _ngram_repetition(normalize_words(text))


def _ngram_repetition(words: list[str]) -> dict[str, float]:
    return {
        "doc_frac_chars_top_2gram": _top_ngram_fraction(words, 2),
        "doc_frac_chars_top_3gram": _top_ngram_fraction(words, 3),
    }


def compute_signals(text: str) -> dict[str, float]:
    """All 11 signals, keyed by their canonical names."""
    words = normalize_words(text)
    out = _word_signals(words)
    out.update(line_signals(text))
    out["doc_num_sentences"] = float(sentence_count(text))
    out.update(_ngram_repetition(words))
    return {name: out[name] for name in SIGNAL_NAMES}
