import numpy as np
import pytest

from qselect.errors import ValidationError
from qselect.importance import features, fit_bag_model, importance_score

from conftest import make_doc
from oracles import ref_unhashed_log_ratio

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


def assert_collision_free(texts, model):
    feats = set()
    for t in texts:
        feats.update(features(t))
    buckets = {model.bucket_of(f) for f in feats}
    assert len(buckets) == len(feats), "hash seed no longer collision-free"
    return len(feats)


class TestFitBagModel:
    def test_single_doc_features(self):
        model = fit_bag_model([make_doc("d", "a b")], bucket_count=64, seed=1)
        assert model.total == 3  # a, b, a_b
        assert sorted(f for f in features("a b")) == ["a", "a\x1fb", "b"]

    def test_additivity(self):
        one = fit_bag_model(["a b c a"], bucket_count=128, seed=3)
        two = fit_bag_model(["a b c a", "a b c a"], bucket_count=128, seed=3)
        assert np.array_equal(two.counts, 2 * one.counts)

    def test_determinism(self):
        m1 = fit_bag_model(["x y z"], bucket_count=256, seed=9)
        m2 = fit_bag_model(["x y z"], bucket_count=256, seed=9)
        assert np.array_equal(m1.counts, m2.counts)
        m3 = fit_bag_model(["x y z"], bucket_count=256, seed=10)
        assert not np.array_equal(m1.counts, m3.counts)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            fit_bag_model([], bucket_count=64)

    def test_tiny_bucket_count_rejected(self):
        with pytest.raises(ValidationError):
            fit_bag_model(["a"], bucket_count=1)

    def test_probabilities_sum_to_one(self):
        model = fit_bag_model(["a b c"], bucket_count=512, seed=0)
        probs = np.exp(model.log_probs())
        assert abs(probs.sum() - 1.0) < 1e-9
        assert (probs > 0).all() and (probs < 1).all()


class TestImportanceScore:
    def test_identical_models_score_zero(self):
        model = fit_bag_model(["a b c"], bucket_count=128, seed=1)
        assert importance_score("any doc at all", model, model) == 0.0

    def test_empty_doc_scores_zero(self):
        p = fit_bag_model(["a b"], bucket_count=128, seed=1)
        q = fit_bag_model(["c d"], bucket_count=128, seed=1)
        assert importance_score("", p, q) == 0.0

    def test_mismatched_models_rejected(self):
        p = fit_bag_model(["a"], bucket_count=128, seed=1)
        q = fit_bag_model(["a"], bucket_count=128, seed=2)
        with pytest.raises(ValidationError):
            importance_score("a", p, q)
        q2 = fit_bag_model(["a"], bucket_count=256, seed=1)
        with pytest.raises(ValidationError):
            importance_score("a", p, q2)

    def test_tiny_vocab_matches_unhashed_oracle(self):
        p_texts = ["a a a b"]
        q_texts = ["a b b b"]
        p = fit_bag_model(p_texts, bucket_count=CF_BUCKETS, seed=CF_SEED)
        q = fit_bag_model(q_texts, bucket_count=CF_BUCKETS, seed=CF_SEED)
        assert_collision_free(p_texts + q_texts + ["a"], p)
        got = importance_score("a", p, q)
        want = ref_unhashed_log_ratio("a", p_texts, q_texts, 1.0, CF_BUCKETS)
        assert got == pytest.approx(want, abs=1e-12)

    def test_hashed_equals_unhashed_oracle_on_100_word_vocab(self):
        rng = np.random.default_rng(42)
        p_texts = sample_texts(rng, 40, VOCAB)
        q_texts = sample_texts(rng, 40, VOCAB)
        score_texts = sample_texts(rng, 50, VOCAB)
        p = fit_bag_model(p_texts, bucket_count=CF_BUCKETS, seed=CF_SEED)
        q = fit_bag_model(q_texts, bucket_count=CF_BUCKETS, seed=CF_SEED)
        n_feats = assert_collision_free(p_texts + q_texts + score_texts, p)
        assert n_feats <= CF_BUCKETS
        for text in score_texts:
            got = importance_score(text, p, q)
            want = ref_unhashed_log_ratio(text, p_texts, q_texts, 1.0, CF_BUCKETS)
            assert got == pytest.approx(want, abs=1e-12)

    def test_antisymmetry_on_1000_random_docs(self):
        rng = np.random.default_rng(11)
        p = fit_bag_model(sample_texts(rng, 50, VOCAB), bucket_count=4096, seed=5)
        q = fit_bag_model(sample_texts(rng, 50, VOCAB), bucket_count=4096, seed=5)
        for text in sample_texts(rng, 1000, VOCAB):
            assert importance_score(text, p, q) == pytest.approx(
                -importance_score(text, q, p), abs=1e-9
            )

    def test_monotone_in_target_evidence(self):
        # appending a feature seen only in p's training data raises the score
        p = fit_bag_model(["alpha beta", "alpha gamma"], bucket_count=CF_BUCKETS, seed=CF_SEED)
        q = fit_bag_model(["delta epsilon"], bucket_count=CF_BUCKETS, seed=CF_SEED)
        base = importance_score("beta", p, q)
        extended = importance_score("beta alpha", p, q)
        assert extended > base
