import json
import tracemalloc

import pytest

from qselect.corpus import (
    CorpusSchema,
    Document,
    ReadReport,
    ScoreChannel,
    SynthesisSpec,
    apportion,
    load_corpus,
    read_corpus,
    synthesize_corpus,
    write_corpus,
)
from qselect.errors import CorpusError, ValidationError
from qselect.registry import DEFAULT_DOMAIN_WEIGHTS


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestReadCorpus:
    def test_basic_line(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_lines(f, ['{"id":"d1","text":"a b c","domain":"C4"}'])
        docs, report = load_corpus(f)
        assert len(docs) == 1
        assert docs[0].id == "d1"
        assert docs[0].token_estimate == 3
        assert not report.errors

    def test_empty_file(self, tmp_path):
        f = tmp_path / "c.jsonl"
        f.write_text("", encoding="utf-8")
        docs, report = load_corpus(f)
        assert docs == []
        assert not report.errors

    def test_malformed_lines_located(self, tmp_path):
        f = tmp_path / "c.jsonl"
        lines = []
        bad_lines = {101, 400, 777}
        for i in range(1, 1001):
            if i in bad_lines:
                lines.append("{not json")
            else:
                lines.append(json.dumps({"id": f"d{i}", "text": "x y", "domain": "C4"}))
        write_lines(f, lines)
        docs, report = load_corpus(f)
        assert len(docs) == 997
        assert len(report.errors) == 3
        assert {e.line_no for e in report.errors} == bad_lines

    def test_schema_violations_reported(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_lines(
            f,
            [
                '{"text":"no id","domain":"C4"}',
                '{"id":"d1","domain":"C4"}',
                '{"id":"d2","text":"ok","domain":"NotADomain"}',
                '{"id":"d3","text":"ok","domain":"C4","scores":{"s":"high"}}',
                '{"id":"d4","text":"ok","domain":"C4"}',
            ],
        )
        docs, report = load_corpus(f)
        assert [d.id for d in docs] == ["d4"]
        assert len(report.errors) == 4

    def test_non_finite_scores_rejected(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_lines(
            f,
            [
                '{"id":"d1","text":"ok","domain":"C4","scores":{"s":1.5}}',
                '{"id":"d2","text":"ok","domain":"C4","scores":{"s":NaN}}',
                '{"id":"d3","text":"ok","domain":"C4","scores":{"s":Infinity}}',
                '{"id":"d4","text":"ok","domain":"C4","scores":{"s":-Infinity}}',
                '{"id":"d5","text":"ok","domain":"C4","scores":{"s":1e400}}',
                '{"id":"d6","text":"ok","domain":"C4","scores":{"s":1%s}}' % ("0" * 400),
            ],
        )
        docs, report = load_corpus(f)
        assert [d.id for d in docs] == ["d1"]
        assert [e.line_no for e in report.errors] == [2, 3, 4, 5, 6]
        assert all("not finite" in e.reason for e in report.errors[:4])

    def test_duplicate_id_hard_error(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_lines(
            f,
            [
                '{"id":"d1","text":"a","domain":"C4"}',
                '{"id":"d1","text":"b","domain":"C4"}',
            ],
        )
        with pytest.raises(CorpusError, match="duplicate"):
            load_corpus(f)

    def test_char_ratio_estimator(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_lines(f, [json.dumps({"id": "d1", "text": "x" * 77, "domain": "C4"})])
        docs, _ = load_corpus(f, CorpusSchema(token_estimator="char_ratio"))
        assert docs[0].token_estimate == 100

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ValidationError):
            CorpusSchema(token_estimator="llama")

    def test_streaming_memory_bounded(self, tmp_path):
        # ~8 MB file; streaming peak must stay far below file size.
        f = tmp_path / "big.jsonl"
        chunk = "lorem ipsum dolor sit amet " * 30
        with open(f, "w", encoding="utf-8") as fh:
            for i in range(10_000):
                fh.write(json.dumps({"id": f"d{i}", "text": chunk, "domain": "C4"}) + "\n")
        file_size = f.stat().st_size
        assert file_size > 6_000_000
        tracemalloc.start()
        count = 0
        for _ in read_corpus(f):
            count += 1
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == 10_000
        assert peak < file_size / 4


class TestRoundTrip:
    def test_write_read_preserves_fields(self, tmp_path):
        docs = [
            Document("a", "Hello über 世界", "Books", 3, {"s1": 0.25, "s2": -3.5}),
            Document("b", "", "C4", 0, None),
            Document("c", "line1\nline2.", "GitHub", 2, {"s1": 1e-300}),
        ]
        f = tmp_path / "c.jsonl"
        write_corpus(docs, f)
        back, report = load_corpus(f)
        assert not report.errors
        assert len(back) == 3
        for orig, rt in zip(docs, back):
            assert rt.id == orig.id
            assert rt.text == orig.text
            assert rt.domain == orig.domain
            assert rt.scores == orig.scores
            assert rt.token_estimate == orig.token_estimate

    def test_writer_key_order(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_corpus([Document("a", "t", "C4", 1, {"s": 1.0})], f)
        line = f.read_text(encoding="utf-8").strip()
        assert line.index('"id"') < line.index('"text"') < line.index('"domain"') < line.index('"scores"')


class TestApportion:
    def test_largest_remainder_on_default_mix(self):
        counts = apportion(DEFAULT_DOMAIN_WEIGHTS, 700)
        assert sum(counts.values()) == 700
        # Known fractional shares: 365.4/186.9/36.4/29.4/32.2/26.6/23.1
        expected_near = {
            "CommonCrawl": 365,
            "C4": 187,
            "GitHub": 36,
            "Books": 29,
            "ArXiv": 32,
            "Wikipedia": 27,
            "StackExchange": 23,
        }
        for name, want in expected_near.items():
            assert abs(counts[name] - want) <= 1
        # Exact fractional share is never off by one whole document.
        for name, p in DEFAULT_DOMAIN_WEIGHTS.items():
            assert abs(counts[name] - p * 700) <= 1.0

    def test_exact_split(self):
        assert apportion({"a": 0.5, "b": 0.5}, 10) == {"a": 5, "b": 5}

    def test_bad_proportions(self):
        with pytest.raises(ValidationError):
            apportion({"a": 0.7, "b": 0.2}, 10)


class TestSynthesize:
    def test_domain_mix_within_one_doc(self, tmp_path):
        f = tmp_path / "synth.jsonl"
        counts = synthesize_corpus(SynthesisSpec(doc_count=700), seed=3, path=f)
        assert sum(counts.values()) == 700
        for name, p in DEFAULT_DOMAIN_WEIGHTS.items():
            assert abs(counts[name] - p * 700) <= 1.0
        docs, report = load_corpus(f)
        assert len(docs) == 700
        assert not report.errors
        observed = {}
        for d in docs:
            observed[d.domain] = observed.get(d.domain, 0) + 1
        assert observed == counts

    def test_deterministic_bytes(self, tmp_path):
        spec = SynthesisSpec(
            doc_count=120,
            channels={"q": ScoreChannel(loading=1.0, noise=0.2)},
            latent_name="_latent",
        )
        f1 = tmp_path / "a.jsonl"
        f2 = tmp_path / "b.jsonl"
        synthesize_corpus(spec, seed=11, path=f1)
        synthesize_corpus(spec, seed=11, path=f2)
        assert f1.read_bytes() == f2.read_bytes()
        f3 = tmp_path / "c.jsonl"
        synthesize_corpus(spec, seed=12, path=f3)
        assert f1.read_bytes() != f3.read_bytes()

    def test_single_domain(self, tmp_path):
        f = tmp_path / "synth.jsonl"
        spec = SynthesisSpec(doc_count=40, domain_mix={"Books": 1.0})
        synthesize_corpus(spec, seed=0, path=f)
        docs, _ = load_corpus(f)
        assert all(d.domain == "Books" for d in docs)

    def test_bad_mix_rejected(self):
        with pytest.raises(ValidationError):
            SynthesisSpec(doc_count=10, domain_mix={"Books": 0.5, "C4": 0.5 + 1e-6})

    def test_correlated_channels(self, tmp_path):
        # two channels driven by the same latent correlate strongly
        import numpy as np

        f = tmp_path / "synth.jsonl"
        spec = SynthesisSpec(
            doc_count=400,
            domain_mix={"C4": 1.0},
            channels={
                "imp_a": ScoreChannel(loading=1.0, noise=0.1),
                "imp_b": ScoreChannel(loading=1.0, noise=0.1),
            },
        )
        synthesize_corpus(spec, seed=5, path=f)
        docs, _ = load_corpus(f)
        a = np.array([d.scores["imp_a"] for d in docs])
        b = np.array([d.scores["imp_b"] for d in docs])
        assert np.corrcoef(a, b)[0, 1] > 0.95
