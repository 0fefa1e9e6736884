import json
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from qselect.corpus import (
    Corpus,
    CorpusSchema,
    ScoreChannel,
    SynthesisSpec,
    apportion,
    load_corpus,
    read_corpus,
    synthesize_corpus,
    write_corpus,
)
from qselect.errors import ValidationError
from qselect.matrix import ScoreMatrix
from qselect.registry import DEFAULT_DOMAIN_WEIGHTS


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_scored(corpus, path):
    write_corpus(corpus, path, ScoreMatrix.from_documents(corpus))


class TestReadCorpus:
    def test_basic_line(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_lines(f, ['{"id":"d1","text":"a b c","domain":"C4"}'])
        corpus, report = load_corpus(f)
        assert corpus.ids == ["d1"]
        assert corpus.tokens.tolist() == [3]
        assert not report.errors

    def test_empty_file(self, tmp_path):
        f = tmp_path / "c.jsonl"
        f.write_text("", encoding="utf-8")
        corpus, report = load_corpus(f)
        assert len(corpus) == 0
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
        corpus, report = load_corpus(f)
        assert len(corpus) == 997
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
        corpus, report = load_corpus(f)
        assert corpus.ids == ["d4"]
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
        corpus, report = load_corpus(f)
        assert corpus.ids == ["d1"]
        assert [e.line_no for e in report.errors] == [2, 3, 4, 5, 6]
        assert all("is not a finite number" in e.reason for e in report.errors)

    def test_duplicate_id_hard_error(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_lines(
            f,
            [
                '{"id":"d1","text":"a","domain":"C4"}',
                '{"id":"d1","text":"b","domain":"C4"}',
            ],
        )
        with pytest.raises(ValidationError, match=re.escape(f"{f}:2: duplicate document id 'd1'")):
            load_corpus(f)

    def test_char_ratio_estimator(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_lines(f, [json.dumps({"id": "d1", "text": "x" * 77, "domain": "C4"})])
        corpus, _ = load_corpus(f, CorpusSchema(token_estimator="char_ratio"))
        assert corpus.tokens.tolist() == [100]

    def test_lines_numbered_as_text_mode_numbers_them(self, tmp_path):
        # A lone CR ends a line as LF and CRLF do; a bad byte fails its line only.
        f = tmp_path / "c.jsonl"
        f.write_bytes(
            b'{"id":"a","text":"x","domain":"C4"}\r{bad\r\n\n'
            b'{"id":"b","text":"y","domain":"C4"}\r\xff\n{"id":"c","text":"\xc3\xa9","domain":"C4"}'
        )
        corpus, report = load_corpus(f)
        assert corpus.ids == ["a", "b", "c"]
        assert corpus.texts[2] == "\u00e9"
        assert [e.line_no for e in report.errors] == [2, 5]
        assert "can't decode byte 0xff" in report.errors[1].reason

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
        corpus = Corpus()
        corpus.append("a", "Hello über 世界", "Books", 3, {"s1": 0.25, "s2": -3.5})
        corpus.append("b", "", "C4", 0, None)
        corpus.append("c", "line1\nline2.", "GitHub", 2, {"s1": 1e-300})
        f = tmp_path / "c.jsonl"
        write_scored(corpus, f)
        back, report = load_corpus(f)
        assert not report.errors
        assert back == corpus

    def test_writer_key_order(self, tmp_path):
        f = tmp_path / "c.jsonl"
        corpus = Corpus()
        corpus.append("a", "t", "C4", 1, {"s": 1.0})
        write_scored(corpus, f)
        line = f.read_text(encoding="utf-8").strip()
        assert line.index('"id"') < line.index('"text"') < line.index('"domain"') < line.index('"scores"')

    def test_scores_parse_flat(self, tmp_path):
        f = tmp_path / "c.jsonl"
        write_lines(
            f,
            [
                '{"id":"a","text":"t","domain":"C4","scores":{"y":1,"x":-0.0}}',
                '{"id":"b","text":"t","domain":"C4"}',
                '{"id":"c","text":"t","domain":"C4","scores":{}}',
                '{"id":"d","text":"t","domain":"C4","scores":{"y":2.5,"x":3,"y":4}}',
                '{"id":"e","text":"t","domain":"C4","scores":{"x":5}}',
            ],
        )
        corpus, _ = load_corpus(f)
        assert corpus.score_keys == [("y", "x"), None, (), ("y", "x"), ("x",)]
        assert corpus.score_keys[0] is corpus.score_keys[3]
        values = corpus.score_values.tolist()
        assert values == [1.0, -0.0, 4.0, 3.0, 5.0]
        assert str(values[1]) == "-0.0"
        matrix = ScoreMatrix.from_documents(corpus, ["doc_word_count"])
        assert matrix.score_names == ["doc_word_count", "x", "y"]
        np.testing.assert_array_equal(
            matrix.raw,
            [[np.nan, -0.0, 1.0], [np.nan] * 3, [np.nan] * 3, [np.nan, 3.0, 4.0],
             [np.nan, 5.0, np.nan]],
        )


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


class TestSynthesize:
    def test_domain_mix_within_one_doc(self, tmp_path):
        f = tmp_path / "synth.jsonl"
        counts, synthesized = synthesize_corpus(SynthesisSpec(doc_count=700), seed=3)
        write_scored(synthesized, f)
        assert sum(counts.values()) == 700
        for name, p in DEFAULT_DOMAIN_WEIGHTS.items():
            assert abs(counts[name] - p * 700) <= 1.0
        back, report = load_corpus(f)
        assert len(back) == 700
        assert not report.errors
        assert Counter(back.domains) == counts
        assert back == synthesized

    def test_deterministic_bytes(self, tmp_path):
        spec = SynthesisSpec(
            doc_count=120,
            channels={"q": ScoreChannel(loading=1.0, noise=0.2)},
            latent_name="_latent",
        )
        f1 = tmp_path / "a.jsonl"
        f2 = tmp_path / "b.jsonl"
        write_scored(synthesize_corpus(spec, seed=11)[1], f1)
        write_scored(synthesize_corpus(spec, seed=11)[1], f2)
        assert f1.read_bytes() == f2.read_bytes()
        f3 = tmp_path / "c.jsonl"
        write_scored(synthesize_corpus(spec, seed=12)[1], f3)
        assert f1.read_bytes() != f3.read_bytes()

    def test_single_domain(self, tmp_path):
        f = tmp_path / "synth.jsonl"
        spec = SynthesisSpec(doc_count=40, domain_mix={"Books": 1.0})
        write_scored(synthesize_corpus(spec, seed=0)[1], f)
        corpus, _ = load_corpus(f)
        assert set(corpus.domains) == {"Books"}

    def test_bad_mix_rejected(self):
        with pytest.raises(ValidationError):
            SynthesisSpec(doc_count=10, domain_mix={"Books": 0.5, "C4": 0.5 + 1e-6})

    def test_correlated_channels(self, tmp_path):
        # two channels driven by the same latent correlate strongly
        f = tmp_path / "synth.jsonl"
        spec = SynthesisSpec(
            doc_count=400,
            domain_mix={"C4": 1.0},
            channels={
                "imp_a": ScoreChannel(loading=1.0, noise=0.1),
                "imp_b": ScoreChannel(loading=1.0, noise=0.1),
            },
        )
        write_scored(synthesize_corpus(spec, seed=5)[1], f)
        matrix = ScoreMatrix.from_documents(load_corpus(f)[0])
        a = matrix.raw[:, matrix.score_names.index("imp_a")]
        b = matrix.raw[:, matrix.score_names.index("imp_b")]
        assert np.corrcoef(a, b)[0, 1] > 0.95
