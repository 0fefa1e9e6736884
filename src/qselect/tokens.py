"""Tokenization: each text's normalized word stream, and a corpus as word ids.

A word is a maximal non-whitespace run of the NFC-normalized, lowercased
text. ``tokenize`` normalizes each text of a corpus once and interns its
words into one vocabulary; the signal and hashing kernels then work on
the word ids, a block of texts at a time (``blocks``).
"""

from __future__ import annotations

import unicodedata
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

# Most words (or features) in a block of texts that one array pass takes
# at a time: bounds the temporaries of its sorts and gathers.
_BLOCK_ITEMS = 16_384


def normalize_words(text: str) -> list[str]:
    """NFC-normalized, lowercased, whitespace-split word stream."""
    return unicodedata.normalize("NFC", text).lower().split()


@dataclass(frozen=True)
class Tokens:
    """The normalized words of a corpus as ids into one vocabulary.

    ``vocab`` holds each distinct word once, in first-seen order; ``ids``
    every text's words, text after text; ``lengths`` each text's word count.
    """

    vocab: list[str]
    ids: np.ndarray  # int64
    lengths: np.ndarray  # int64, one per text


def blocks(lengths: np.ndarray) -> Iterator[tuple[slice, slice]]:
    """Runs of consecutive texts of ``lengths`` items each, at most
    ``_BLOCK_ITEMS`` items in all (a longer text is a run alone), as
    slices of the texts and of their items laid end to end."""
    ends = np.cumsum(lengths)
    t0 = 0
    while t0 < len(ends):
        i0 = int(ends[t0] - lengths[t0])
        t1 = max(t0 + 1, int(np.searchsorted(ends, i0 + _BLOCK_ITEMS, side="right")))
        yield slice(t0, t1), slice(i0, int(ends[t1 - 1]))
        t0 = t1


class _Interner(dict):
    """Word -> id map that numbers a word on its first lookup."""

    def __missing__(self, word: str) -> int:
        self[word] = i = len(self)
        return i


def tokenize(texts: Iterable[str]) -> Tokens:
    """Normalize each text once and intern its words as they arrive."""
    interner = _Interner()
    lookup = interner.__getitem__
    ids, lengths = array("q"), array("q")
    for text in texts:
        words = normalize_words(text)
        ids.extend(map(lookup, words))
        lengths.append(len(words))
    return Tokens(list(interner), np.frombuffer(ids, np.int64), np.frombuffer(lengths, np.int64))
