import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qselect import tokens as tokens_module
from qselect.registry import SIGNAL_NAMES
from qselect.signals import compute_signals, corpus_signals, line_signals, sentence_count
from qselect.tokens import tokenize

from conftest import (
    kernel_corpus,
    mixed_language_fixture,
    ngram_repetition,
    random_text,
    word_signals,
)
from oracles import (
    ref_all_signals,
    ref_line_signals,
    ref_top_ngram_fraction_of_words,
    ref_word_signals,
    ref_words,
)

FRACTION_SIGNALS = [
    "doc_frac_no_alph_words",
    "doc_frac_unique_words",
    "lines_ending_with_terminal_punctution_mark",
    "lines_numerical_chars_fraction",
    "lines_uppercase_letter_fraction",
    "doc_frac_chars_top_2gram",
    "doc_frac_chars_top_3gram",
]


class TestWordSignals:
    def test_frac_no_alph_hand_count(self):
        sig = word_signals("hello 123 world")
        assert sig["doc_frac_no_alph_words"] == pytest.approx(1 / 3, abs=1e-12)
        assert sig["doc_word_count"] == 3

    def test_unigram_entropy_hand_oracle(self):
        # counts {the: 2, cat: 1} over 3 words
        expected = -(2 / 3 * math.log(2 / 3) + 1 / 3 * math.log(1 / 3))
        sig = word_signals("the cat the")
        assert sig["doc_unigram_entropy"] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.63651, abs=5e-6)

    def test_all_distinct_words_unique_fraction(self):
        assert word_signals("a b c")["doc_frac_unique_words"] == 1.0

    def test_mean_word_length(self):
        assert word_signals("ab cdef")["doc_mean_word_length"] == 3.0

    def test_empty_text_zeros(self):
        sig = word_signals("")
        assert all(v == 0.0 for v in sig.values())

    def test_case_folding(self):
        assert word_signals("The THE the")["doc_frac_unique_words"] == pytest.approx(1 / 3)


class TestLineSignals:
    def test_terminal_fraction(self):
        assert (
            line_signals("Done.\noops")["lines_ending_with_terminal_punctution_mark"]
            == 0.5
        )

    def test_quote_is_terminal(self):
        sig = line_signals('He said "stop"')
        assert sig["lines_ending_with_terminal_punctution_mark"] == 1.0

    def test_character_tally(self):
        sig = line_signals("A1b2")
        assert sig["lines_numerical_chars_fraction"] == 0.5
        assert sig["lines_uppercase_letter_fraction"] == 0.25

    def test_all_lowercase(self):
        assert line_signals("nothing here\nat all")["lines_uppercase_letter_fraction"] == 0.0

    def test_zero_lines(self):
        sig = line_signals("")
        assert all(v == 0.0 for v in sig.values())


class TestSentenceCount:
    def test_two_sentences(self):
        assert sentence_count("Hi. Bye!") == 2

    def test_empty(self):
        assert sentence_count("") == 0

    def test_no_punctuation_is_one_sentence(self):
        assert sentence_count("no punctuation at all") == 1


class TestNgramRepetition:
    def test_top_2gram_tally(self):
        # "ab cd" occurs twice, 4 chars, out of 10 total word chars
        sig = ngram_repetition("ab cd ab cd ef")
        assert sig["doc_frac_chars_top_2gram"] == pytest.approx(0.8, abs=1e-12)

    def test_one_word_doc(self):
        sig = ngram_repetition("word")
        assert sig["doc_frac_chars_top_2gram"] == 0.0
        assert sig["doc_frac_chars_top_3gram"] == 0.0

    def test_overlap_clamped(self):
        # "x x" occurs 3 times overlapping: 3*2/4 clamps to 1
        sig = ngram_repetition("x x x x")
        assert sig["doc_frac_chars_top_2gram"] == 1.0


class TestOracleSuite:
    def test_mixed_language_fixture_matches_bruteforce(self):
        texts = mixed_language_fixture(200)
        for text in texts:
            got = compute_signals(text)
            want = ref_all_signals(text)
            assert set(got) == set(SIGNAL_NAMES)
            for name in SIGNAL_NAMES:
                if name in ("doc_word_count", "doc_num_sentences"):
                    assert got[name] == want[name], (name, text[:50])
                else:
                    assert got[name] == pytest.approx(want[name], abs=1e-12), (
                        name,
                        text[:50],
                    )

    def test_bulk_random_property_suite(self):
        # 10,000 seeded random strings: range, entropy bound, determinism.
        rng = np.random.default_rng(99)
        for _ in range(10_000):
            text = random_text(rng)
            sig = compute_signals(text)
            for name in FRACTION_SIGNALS:
                assert 0.0 <= sig[name] <= 1.0, (name, text)
            assert sig["doc_unigram_entropy"] >= 0.0
            n = sig["doc_word_count"]
            if n >= 1:
                assert sig["doc_unigram_entropy"] <= math.log(n) + 1e-9
                if sig["doc_frac_unique_words"] == 1.0 and n > 1:
                    assert sig["doc_unigram_entropy"] == pytest.approx(
                        math.log(n), abs=1e-9
                    )
            assert sig["doc_num_sentences"] >= 0
            assert sig == compute_signals(text)


def _reference_signals(text):
    words = ref_words(text)
    want = ref_word_signals(text)
    want.update(ref_line_signals(text))
    want["doc_num_sentences"] = float(sentence_count(text))
    want["doc_frac_chars_top_2gram"] = ref_top_ngram_fraction_of_words(words, 2)
    want["doc_frac_chars_top_3gram"] = ref_top_ngram_fraction_of_words(words, 3)
    return {name: want[name] for name in SIGNAL_NAMES}


class TestMatchesReference:
    """Signals equal the per-word loop code's, key order and float bits."""

    def test_120_kernel_corpora(self):
        for seed in range(120):
            texts = kernel_corpus(seed)
            rows = corpus_signals(texts, tokenize(texts)).tolist()
            for text, row in zip(texts, rows):
                assert repr(line_signals(text)) == repr(ref_line_signals(text)), text
                assert repr(compute_signals(text)) == repr(_reference_signals(text)), text
                assert repr(dict(zip(SIGNAL_NAMES, row))) == repr(_reference_signals(text)), text

    def test_random_and_mixed_language_texts(self):
        rng = np.random.default_rng(3)
        texts = mixed_language_fixture(200) + [random_text(rng, 400) for _ in range(500)]
        for text in texts:
            assert repr(compute_signals(text)) == repr(_reference_signals(text)), text

    def test_tied_ngrams_resolve_to_first_seen(self):
        # "aaa b" and "c d" both occur twice in 15 chars; the first seen wins
        for text, want in (("aaa b x c d y aaa b z c d", 2 * 4 / 15),
                           ("c d x aaa b y c d z aaa b", 2 * 2 / 15)):
            assert ngram_repetition(text)["doc_frac_chars_top_2gram"] == want
            assert compute_signals(text)["doc_frac_chars_top_2gram"] == want


# Words for the batch-kernel property test: final and capital sigma,
# dotted capital I (it lowercases to two code points), combining marks,
# superscript, fullwidth and Arabic-Indic digits, punctuation-only words.
BATCH_WORDS = [
    "a", "b", "ab", "the", "The", "\u03bf\u03b4\u03bf\u03c2", "\u039f\u0394\u039f\u03a3",
    "\u03c3", "\u03a3", "\u0130", "\u0130stanbul", "i\u0307", "cafe\u0301", "caf\u00e9",
    "\u0301", "x\u00b2", "\u00b2", "\uff11\uff12", "\uff21", "\u0663", "42", "...", "?!",
]
# Separators, among them U+001C-U+001F, which str.split() treats as whitespace.
BATCH_SEPARATORS = [" ", "  ", "\n", "\t", "\x1c", "\x1d", "\x1e", "\x1f", "\u3000", " \n "]


@st.composite
def tied_text(draw):
    """Two phrases that occur equally often, so their n-gram counts tie."""
    first = draw(st.lists(st.sampled_from(BATCH_WORDS), min_size=2, max_size=3))
    second = draw(st.lists(st.sampled_from(BATCH_WORDS), min_size=2, max_size=3))
    fillers = draw(st.lists(st.sampled_from(BATCH_WORDS), min_size=2, max_size=6))
    words = []
    for i in range(0, len(fillers) - 1, 2):
        words += first + [fillers[i]] + second + [fillers[i + 1]]
    return " ".join(words)


batch_texts = st.one_of(
    st.sampled_from(["", " ", "\n\n", "\x1f", "\x1c\x1d\x1e", "\u3000 \t"]),
    st.sampled_from(BATCH_WORDS),
    st.lists(st.tuples(st.sampled_from(BATCH_WORDS), st.sampled_from(BATCH_SEPARATORS)),
             max_size=30).map(lambda parts: "".join(w + sep for w, sep in parts)),
    tied_text(),
    st.text(max_size=80),
)


class TestBatchKernel:
    """Each text's row of ``corpus_signals`` is the per-text oracle's,
    whatever texts share its batch or its blocks."""

    @given(st.lists(batch_texts, max_size=12), st.integers(1, 48))
    @settings(max_examples=400, deadline=None)
    def test_rows_match_oracle(self, texts, block_items):
        with mock.patch.object(tokens_module, "_BLOCK_ITEMS", block_items):
            rows = corpus_signals(texts, tokenize(texts))
        assert rows.shape == (len(texts), len(SIGNAL_NAMES))
        for text, row in zip(texts, rows.tolist()):
            want = ref_all_signals(text)
            # ref_all_signals sums the negated terms, so a text of one
            # distinct word gets +0.0 entropy; the per-word loop, and the
            # package, negate the sum and keep -0.0.
            assert row[3] == want["doc_unigram_entropy"]
            want["doc_unigram_entropy"] = ref_word_signals(text)["doc_unigram_entropy"]
            assert repr(dict(zip(SIGNAL_NAMES, row))) == repr(want), text


class TestProperties:
    @given(st.text(max_size=400))
    @settings(max_examples=300, deadline=None)
    def test_fractions_in_unit_interval(self, text):
        sig = compute_signals(text)
        for name in FRACTION_SIGNALS:
            assert 0.0 <= sig[name] <= 1.0

    @given(st.text(max_size=400))
    @settings(max_examples=300, deadline=None)
    def test_entropy_bounded_by_log_word_count(self, text):
        sig = compute_signals(text)
        if sig["doc_word_count"] >= 1:
            assert sig["doc_unigram_entropy"] <= math.log(sig["doc_word_count"]) + 1e-9

    @given(st.text(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_self_concatenation(self, text):
        base = compute_signals(text)
        doubled = compute_signals(text + "\n" + text)
        if base["doc_word_count"] > 0:
            assert doubled["doc_word_count"] == 2 * base["doc_word_count"]
            assert doubled["doc_frac_unique_words"] <= base["doc_frac_unique_words"] + 1e-12
