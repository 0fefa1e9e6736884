"""Canonical score names, domain tags, and published reference constants.

Score names are spelled exactly as they appear in the annotated corpus
releases this engine interoperates with, including the historical
misspelling "punctution" in the terminal-punctuation signal.
"""

from __future__ import annotations

# Rule-based natural-language quality signals, in canonical column order.
SIGNAL_NAMES: tuple[str, ...] = (
    "doc_frac_no_alph_words",
    "doc_mean_word_length",
    "doc_frac_unique_words",
    "doc_unigram_entropy",
    "doc_word_count",
    "lines_ending_with_terminal_punctution_mark",
    "lines_numerical_chars_fraction",
    "lines_uppercase_letter_fraction",
    "doc_num_sentences",
    "doc_frac_chars_top_2gram",
    "doc_frac_chars_top_3gram",
)

# Hashed n-gram log-ratio importance scores against target domains.
IMPORTANCE_NAMES: tuple[str, ...] = (
    "books_importance",
    "wikipedia_importance",
    "math_importance",
)

# Model-based ratings. These are ingested from external annotation runs;
# the classifiers themselves are out of scope here.
MODEL_RATER_NAMES: tuple[str, ...] = (
    "Fineweb-edu",
    "Advertisement",
    "Fluency",
    "Required Expertise",
    "Writing Style",
    "Facts and Trivia",
    "Educational Value",
    "Professionalism",
    "Readability",
    "Reasoning",
    "Cleanliness",
)

# The four dimensions scored on an additive 0-5 scale; values are
# range-checked when the ratings files are read.
PRRC_NAMES: tuple[str, ...] = (
    "Professionalism",
    "Readability",
    "Reasoning",
    "Cleanliness",
)

CANONICAL_SCORE_NAMES: tuple[str, ...] = SIGNAL_NAMES + IMPORTANCE_NAMES + MODEL_RATER_NAMES


def canonical_order(names) -> list[str]:
    """Sort score names into canonical column order; unknown names follow
    alphabetically after the canonical ones."""
    known = {name: i for i, name in enumerate(CANONICAL_SCORE_NAMES)}
    present = set(names)
    ordered = [n for n in CANONICAL_SCORE_NAMES if n in present]
    ordered.extend(sorted(n for n in present if n not in known))
    return ordered

DEFAULT_DOMAINS: tuple[str, ...] = (
    "CommonCrawl",
    "C4",
    "GitHub",
    "Books",
    "ArXiv",
    "Wikipedia",
    "StackExchange",
)

# SlimPajama domain proportions, used as the default selection mix.
DEFAULT_DOMAIN_WEIGHTS: dict[str, float] = {
    "CommonCrawl": 0.5220,
    "C4": 0.2670,
    "GitHub": 0.0520,
    "Books": 0.0420,
    "ArXiv": 0.0460,
    "Wikipedia": 0.0380,
    "StackExchange": 0.0330,
}
