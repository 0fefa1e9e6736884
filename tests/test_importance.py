from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qselect import tokens as tokens_module
from qselect.errors import ValidationError
from qselect.importance import (
    features,
    fit_bag_model,
    hash_corpus,
    importance_score,
    importance_scores,
)
from qselect.tokens import tokenize

from conftest import bucket_of, kernel_corpus
from oracles import (
    ref_features,
    ref_fit_bag_model,
    ref_hash_bucket,
    ref_importance_score,
    ref_unhashed_log_ratio,
)

# Vocabulary of <=100 words used for collision-free equivalence checks.
VOCAB = [f"w{i:02d}" for i in range(100)]

# With 2^22 buckets and ~2k observed features, this fixed seed was
# verified collision-free for the fixtures below; the tests assert it
# stays that way.
CF_BUCKETS = 1 << 22
CF_SEED = 1


def sample_texts(rng, n_docs, vocab, min_len=1, max_len=40):
    texts = []
    for _ in range(n_docs):
        k = int(rng.integers(min_len, max_len))
        texts.append(" ".join(vocab[int(rng.integers(0, len(vocab)))] for _ in range(k)))
    return texts


def fit(texts, bucket_count, seed=0, smoothing=1.0):
    """The bag model of ``texts`` hashed into ``bucket_count`` buckets under ``seed``."""
    return fit_bag_model(hash_corpus(tokenize(texts), bucket_count, seed), smoothing)


def assert_collision_free(texts, model):
    feats = set()
    for t in texts:
        feats.update(features(t))
    buckets = {bucket_of(model, f) for f in feats}
    assert len(buckets) == len(feats), "hash seed no longer collision-free"
    return len(feats)


class TestFitBagModel:
    def test_single_doc_features(self):
        model = fit(["a b"], 64, 1)
        assert sorted(f for f in features("a b")) == ["a", "a\x1fb", "b"]
        counts = np.zeros(64)
        for feat in features("a b"):
            counts[bucket_of(model, feat)] += 1
        assert np.array_equal(model.log_probs, np.log((counts + 1) / (3 + 64)))  # a, b, a_b

    def test_separator_never_inside_a_word(self):
        # str.split() treats U+001F as whitespace, so a text holding the
        # bigram separator has the features of one with a space there.
        assert features("a\x1fb") == features("a b") == ["a", "b", "a\x1fb"]

    def test_additivity(self):
        one = hash_corpus(tokenize(["a b c a"]), 128, 3)
        two = hash_corpus(tokenize(["a b c a", "a b c a"]), 128, 3)
        assert np.array_equal(two.buckets, np.tile(one.buckets, 2))
        counts = 2 * np.bincount(one.buckets, minlength=128)
        want = np.log((counts + 1.0) / (int(counts.sum()) + 128.0))
        assert np.array_equal(fit_bag_model(two, 1.0).log_probs, want)

    def test_determinism(self):
        m1 = fit(["x y z"], 256, 9)
        m2 = fit(["x y z"], 256, 9)
        assert np.array_equal(m1.log_probs, m2.log_probs)
        m3 = fit(["x y z"], 256, 10)
        assert not np.array_equal(m1.log_probs, m3.log_probs)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError, match="cannot fit a bag model on an empty corpus"):
            fit([], 64)

    @pytest.mark.parametrize("smoothing", [0.0, -1.0, float("nan")])
    def test_nonpositive_smoothing_rejected(self, smoothing):
        with pytest.raises(ValidationError, match="smoothing must be positive"):
            fit(["a b"], 64, 0, smoothing)

    def test_zero_feature_corpus_fits_all_zero_model(self):
        model = fit(["", " \n\t ", "\u3000"], 16, 2)
        assert model.log_probs.dtype == np.float64
        assert np.array_equal(model.log_probs, np.full(16, np.log(1 / 16)))

    def test_hashed_corpus_must_match_model(self):
        model = fit(["a b"], 64, 1)
        with pytest.raises(ValidationError, match="bucket_count mismatch"):
            importance_scores(hash_corpus(tokenize(["a b"]), 128, 1), model, model)
        with pytest.raises(ValidationError, match="hash seed mismatch"):
            importance_scores(hash_corpus(tokenize(["a b"]), 64, 2), model, model)

    def test_probabilities_sum_to_one(self):
        model = fit(["a b c"], 512, 0)
        probs = np.exp(model.log_probs)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert (probs > 0).all() and (probs < 1).all()


class TestImportanceScore:
    def test_identical_models_score_zero(self):
        model = fit(["a b c"], 128, 1)
        assert importance_score("any doc at all", model, model) == 0.0

    def test_empty_doc_scores_zero(self):
        p = fit(["a b"], 128, 1)
        q = fit(["c d"], 128, 1)
        assert repr(importance_score("", p, q)) == "0.0"
        scores = importance_scores(hash_corpus(tokenize(["", "a", " \n "]), 128, 1), p, q)
        assert [repr(x) for x in scores[::2].tolist()] == ["0.0", "0.0"]
        assert scores[1] != 0.0

    def test_mismatched_models_rejected(self):
        p = fit(["a"], 128, 1)
        q = fit(["a"], 128, 2)
        with pytest.raises(ValidationError):
            importance_score("a", p, q)
        q2 = fit(["a"], 256, 1)
        with pytest.raises(ValidationError):
            importance_score("a", p, q2)

    def test_tiny_vocab_matches_unhashed_oracle(self):
        p_texts = ["a a a b"]
        q_texts = ["a b b b"]
        p = fit(p_texts, CF_BUCKETS, CF_SEED)
        q = fit(q_texts, CF_BUCKETS, CF_SEED)
        assert_collision_free(p_texts + q_texts + ["a"], p)
        got = importance_score("a", p, q)
        want = ref_unhashed_log_ratio("a", p_texts, q_texts, 1.0, CF_BUCKETS)
        assert got == pytest.approx(want, abs=1e-12)

    def test_hashed_equals_unhashed_oracle_on_100_word_vocab(self):
        rng = np.random.default_rng(42)
        p_texts = sample_texts(rng, 40, VOCAB)
        q_texts = sample_texts(rng, 40, VOCAB)
        score_texts = sample_texts(rng, 50, VOCAB)
        p = fit(p_texts, CF_BUCKETS, CF_SEED)
        q = fit(q_texts, CF_BUCKETS, CF_SEED)
        n_feats = assert_collision_free(p_texts + q_texts + score_texts, p)
        assert n_feats <= CF_BUCKETS
        for text in score_texts:
            got = importance_score(text, p, q)
            want = ref_unhashed_log_ratio(text, p_texts, q_texts, 1.0, CF_BUCKETS)
            assert got == pytest.approx(want, abs=1e-12)

    def test_antisymmetry_on_1000_random_docs(self):
        rng = np.random.default_rng(11)
        p = fit(sample_texts(rng, 50, VOCAB), 4096, 5)
        q = fit(sample_texts(rng, 50, VOCAB), 4096, 5)
        for text in sample_texts(rng, 1000, VOCAB):
            assert importance_score(text, p, q) == pytest.approx(
                -importance_score(text, q, p), abs=1e-9
            )

    def test_monotone_in_target_evidence(self):
        # appending a feature seen only in p's training data raises the score
        p = fit(["alpha beta", "alpha gamma"], CF_BUCKETS, CF_SEED)
        q = fit(["delta epsilon"], CF_BUCKETS, CF_SEED)
        base = importance_score("beta", p, q)
        extended = importance_score("beta alpha", p, q)
        assert extended > base


class TestHashCorpus:
    @pytest.mark.parametrize("seed", [2**63, 2**63 + 12345, 2**64 - 1, 2**64 + 7, -1])
    def test_buckets_below_bucket_count_for_wide_seeds(self, seed):
        texts = kernel_corpus(3, n_docs=40)
        for bucket_count in (2, 61, 65_536):
            hashed = hash_corpus(tokenize(texts), bucket_count, seed)
            assert hashed.buckets.min() >= 0 and hashed.buckets.max() < bucket_count
            want = [ref_hash_bucket(f, seed, bucket_count) for t in texts for f in ref_features(t)]
            assert hashed.buckets.tolist() == want
        # only the low 64 bits of the seed key the hash
        assert np.array_equal(
            hash_corpus(tokenize(texts), 997, seed).buckets,
            hash_corpus(tokenize(texts), 997, seed & 0xFFFFFFFFFFFFFFFF).buckets,
        )

    def test_bucket_count_beyond_c_int_rejected(self):
        assert hash_corpus(tokenize(["a b"]), 1 << 31, 0).buckets.max() < 1 << 31
        with pytest.raises(ValidationError, match="at most 2"):
            hash_corpus(tokenize(["a b"]), (1 << 31) + 1, 0)

    def test_lengths_count_each_texts_features(self):
        texts = ["", "a", "a b c", "  ", "A a"]
        hashed = hash_corpus(tokenize(texts), 64, 0)
        assert list(hashed.lengths) == [len(features(t)) for t in texts] == [0, 1, 5, 0, 3]
        assert len(hashed.buckets) == 9


def _wide_seed(rng):
    """A hash seed from the whole 64-bit range and beyond."""
    return int(rng.integers(0, 2**62)) << int(rng.integers(0, 4))


class TestMatchesReference:
    """Models and scores equal the per-feature code's bit for bit."""

    def test_models_match_reference_on_120_corpora(self):
        for corpus_seed in range(120):
            rng = np.random.default_rng(corpus_seed)
            texts = kernel_corpus(corpus_seed)
            bucket_count = 2 + corpus_seed % 63 if corpus_seed % 10 else 65_536
            seed = _wide_seed(rng)
            smoothing = (1.0, 0.5, 0.01)[corpus_seed % 3]
            want = ref_fit_bag_model(texts, bucket_count, seed, smoothing)
            got = fit(texts, bucket_count, seed, smoothing)
            assert got.log_probs.tobytes() == want.log_probs.tobytes(), corpus_seed
            assert got.log_probs.dtype == want.log_probs.dtype
            assert got.seed == want.seed

    def test_scores_match_reference_on_120_corpora(self):
        for corpus_seed in range(120):
            rng = np.random.default_rng(10_000 + corpus_seed)
            bucket_count = 2 + corpus_seed % 63 if corpus_seed % 10 else 65_536
            seed = _wide_seed(rng)
            smoothing = (1.0, 0.5, 0.01)[corpus_seed % 3]
            p_texts, q_texts = kernel_corpus(2 * corpus_seed), kernel_corpus(2 * corpus_seed + 1)
            texts = kernel_corpus(500 + corpus_seed)
            p = fit(p_texts, bucket_count, seed, smoothing)
            q = fit(q_texts, bucket_count, seed, smoothing)
            want = [repr(ref_importance_score(t, p, q)) for t in texts]
            got = importance_scores(hash_corpus(tokenize(texts), bucket_count, seed), p, q)
            assert [repr(x) for x in got.tolist()] == want, corpus_seed
            assert [repr(importance_score(t, p, q)) for t in texts] == want, corpus_seed

    def test_long_documents_match_reference(self):
        # Documents past numpy's 8-wide unrolled and 128-wide pairwise
        # blocks, at every offset in one flat bucket array.
        rng = np.random.default_rng(5)
        vocab = [f"w{i}" for i in range(300)]
        texts = [
            " ".join(vocab[int(j)] for j in rng.integers(0, 300, int(n)))
            for n in rng.integers(0, 2000, 60)
        ]
        p = fit(texts[:20], 4096, 9)
        q = fit(texts[20:40], 4096, 9)
        got = importance_scores(hash_corpus(tokenize(texts), 4096, 9), p, q)
        assert [repr(x) for x in got.tolist()] == [repr(ref_importance_score(t, p, q)) for t in texts]


# Few words, so adjacent pairs repeat within and across texts.
HASH_WORDS = ["a", "b", "c", "The", "the", "caf\u00e9", "cafe\u0301", "\u03a3", "42", "\u00b2", "\x1f"]


@st.composite
def repeating_corpus(draw):
    """Texts over a few words, some repeated whole, so pairs recur across texts."""
    texts = draw(st.lists(
        st.lists(st.sampled_from(HASH_WORDS), max_size=20).map(" ".join), max_size=8
    ))
    repeats = draw(st.lists(st.sampled_from(texts), max_size=4)) if texts else []
    return texts + repeats


class TestHashCorpusProperties:
    """Every bucket is the per-feature oracle's, in ``features`` order,
    whatever texts share the corpus or its blocks."""

    @given(repeating_corpus(), st.sampled_from([2, 2**31]), st.integers(-1, 2**64 + 7),
           st.integers(1, 48))
    @settings(max_examples=300, deadline=None)
    def test_buckets_match_oracle(self, texts, bucket_count, seed, block_items):
        with mock.patch.object(tokens_module, "_BLOCK_ITEMS", block_items):
            hashed = hash_corpus(tokenize(texts), bucket_count, seed)
        want = [[ref_hash_bucket(f, seed, bucket_count) for f in ref_features(t)] for t in texts]
        assert hashed.lengths.tolist() == [len(w) for w in want]
        assert hashed.buckets.tolist() == [b for w in want for b in w]

    @given(repeating_corpus(), st.integers(0, 2**64 - 1), st.integers(1, 48))
    @settings(max_examples=100, deadline=None)
    def test_scores_match_oracle(self, texts, seed, block_items):
        p = fit(["a b c", "the caf\u00e9"], 2, seed)
        q = fit(["\u03a3 42 a", "b b"], 2, seed)
        with mock.patch.object(tokens_module, "_BLOCK_ITEMS", block_items):
            got = importance_scores(hash_corpus(tokenize(texts), 2, seed), p, q)
        assert [repr(x) for x in got.tolist()] == [repr(ref_importance_score(t, p, q)) for t in texts]
