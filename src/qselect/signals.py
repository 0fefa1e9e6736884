"""The 11 rule-based natural-language quality signals.

All signals are pure functions of the document text. Word-level signals
operate on the normalized word stream: NFC-normalize, lowercase, split on
Unicode whitespace, where a word is a maximal non-whitespace run.
Line-level signals are per-line ratios reduced to one document value by
an unweighted mean over lines. Empty documents score zero everywhere.

``corpus_signals`` counts the word and n-gram signals of a tokenized
corpus (``tokens.tokenize``) as array passes over its word ids, a block
of texts at a time. The line signals and the sentence count stay per text.
"""

from __future__ import annotations

import math
import re
import unicodedata
from collections.abc import Sequence
from itertools import accumulate

import numpy as np

from .registry import SIGNAL_NAMES
from .tokens import Tokens, blocks, tokenize

# Terminal punctuation marks for the line-ending signal.
TERMINAL_MARKS = (".", "!", "?", '"')

_SENTENCE_RE = re.compile(r"\b[^.!?]+[.!?]*")


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


def _segment_sums(values: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Exact integer sum of ``values[s:e]`` for each segment (empty ones too)."""
    total = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))
    return total[ends] - total[starts]


def _entropies(counts: np.ndarray, words: np.ndarray, text_of: np.ndarray) -> list[float]:
    """Each text's ``-fsum(p * log p)`` over its distinct words' counts.

    ``counts`` holds one count per distinct (text, word) pair, grouped by
    text, and ``words`` each text's word count. ``math.log`` runs once per
    distinct ``p``; ``fsum`` is exact, so the order of the terms is free.
    """
    probs = counts / words[text_of]
    distinct, inverse = np.unique(probs, return_inverse=True)
    logs = np.fromiter(map(math.log, distinct.tolist()), np.float64, len(distinct))
    terms = (probs * logs[inverse]).tolist()
    bounds = [0, *accumulate(np.bincount(text_of, minlength=len(words)).tolist())]
    return [
        -math.fsum(terms[a:b]) if a < b else 0.0 for a, b in zip(bounds, bounds[1:])
    ]


def _top_gram_fractions(
    ids: np.ndarray, text_of: np.ndarray, pos: np.ndarray, lengths: np.ndarray,
    chars: np.ndarray, word_len: np.ndarray, vocab_size: int,
) -> dict[int, np.ndarray]:
    """Fraction of each text's word characters claimed by its most frequent
    2-gram and 3-gram (overlap counted, clamped to 1).

    A gram's code is the dense id of its first n-1 words and its last word.
    Sorted by dense gram id, then position, the occurrences of a gram in
    one text form a run (texts rise with positions) that starts at its
    first occurrence. A tie on the count goes to the first-seen gram.
    """
    n_texts, size = len(lengths), len(ids)
    prefix = ids  # each position's (n-1)-gram id
    fractions = {}
    for n in (2, 3):
        starts = np.flatnonzero(pos <= lengths[text_of] - n)
        _, gram = np.unique(prefix[starts] * vocab_size + ids[starts + n - 1], return_inverse=True)
        gram_sorted, at = np.divmod(np.sort(gram * size + starts), size)
        text_sorted = text_of[at]
        new_run = np.ones(len(at), bool)
        new_run[1:] = (gram_sorted[1:] != gram_sorted[:-1]) | (text_sorted[1:] != text_sorted[:-1])
        run_start = np.flatnonzero(new_run)
        run_count = np.diff(np.append(run_start, len(at)))
        run_text, run_first = text_sorted[run_start], at[run_start]
        best = np.zeros(n_texts, np.int64)
        np.maximum.at(best, run_text, run_count)
        top = run_count == best[run_text]
        first = np.full(n_texts, size, np.int64)
        np.minimum.at(first, run_text[top], run_first[top])
        has = lengths >= n
        gram_chars = np.zeros(n_texts, np.int64)
        for k in range(n):
            gram_chars[has] += word_len[ids[first[has] + k]]
        out = np.zeros(n_texts)
        out[has] = np.minimum(1.0, best[has] * gram_chars[has] / chars[has])
        fractions[n] = out
        prefix = np.empty(size, np.int64)
        prefix[starts] = gram
    return fractions


def corpus_signals(texts: Sequence[str], tokens: Tokens) -> np.ndarray:
    """All 11 signals of every text, one row per text in ``SIGNAL_NAMES``
    order; ``tokens`` must be ``tokenize(texts)``.

    Ratios are int/int divisions of exact counts, so every value has the
    bits of the per-text definition whatever texts share its block.
    """
    vocab = tokens.vocab
    vocab_size = len(vocab)
    word_len = np.fromiter(map(len, vocab), np.int64, vocab_size)
    no_alpha = np.fromiter(
        (not any(map(str.isalpha, w)) for w in vocab), np.int64, vocab_size
    )
    columns = {name: np.zeros(len(texts)) for name in SIGNAL_NAMES}
    for block, words_of_block in blocks(tokens.lengths):
        lengths, ids = tokens.lengths[block], tokens.ids[words_of_block]
        if not len(ids):
            continue
        ends = np.cumsum(lengths)
        starts = ends - lengths
        words = np.maximum(lengths, 1)  # empty texts count 0 of everything
        text_of = np.repeat(np.arange(len(lengths)), lengths)
        chars = _segment_sums(word_len[ids], starts, ends)
        pairs, counts = np.unique(text_of * vocab_size + ids, return_counts=True)
        pair_text = pairs // vocab_size
        columns["doc_frac_no_alph_words"][block] = _segment_sums(no_alpha[ids], starts, ends) / words
        columns["doc_mean_word_length"][block] = chars / words
        columns["doc_frac_unique_words"][block] = (
            np.bincount(pair_text, minlength=len(lengths)) / words
        )
        columns["doc_unigram_entropy"][block] = _entropies(counts, words, pair_text)
        columns["doc_word_count"][block] = lengths
        pos = np.arange(len(ids)) - starts[text_of]
        tops = _top_gram_fractions(ids, text_of, pos, lengths, chars, word_len, vocab_size)
        columns["doc_frac_chars_top_2gram"][block] = tops[2]
        columns["doc_frac_chars_top_3gram"][block] = tops[3]
    for i, text in enumerate(texts):
        for name, value in line_signals(text).items():
            columns[name][i] = value
        columns["doc_num_sentences"][i] = sentence_count(text)
    return np.column_stack([columns[name] for name in SIGNAL_NAMES])


def compute_signals(text: str) -> dict[str, float]:
    """All 11 signals, keyed by their canonical names: ``corpus_signals``
    of a one-text corpus."""
    row = corpus_signals([text], tokenize([text]))[0]
    return dict(zip(SIGNAL_NAMES, row.tolist()))
