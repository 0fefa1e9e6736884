import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qselect import cli, proxy
from qselect import signals as signals_module
from qselect.cli import main
from qselect.errors import ValidationError
from qselect.optimizer import Landscape
from qselect.registry import (
    DEFAULT_DOMAIN_WEIGHTS,
    IMPORTANCE_NAMES,
    MODEL_RATER_NAMES,
    SIGNAL_NAMES,
)

from conftest import REFERENCE_WEIGHT_PCT
from oracles import ref_fit_bag_model, ref_importance_score


def run_cli(*argv):
    return main(list(argv))


def tree(root: Path) -> dict:
    """Every path under ``root``: True for a directory, else the file's bytes."""
    return {path: path.is_dir() or path.read_bytes() for path in root.rglob("*")}


def write_config(path: Path, **overrides):
    cfg = {"seed": 1, "output_dir": "out"}
    cfg.update(overrides)
    path.write_text(json.dumps(cfg, indent=2))
    return path


def write_corpus_fixture(path: Path, n=60, seed=0, domains=None):
    rng = np.random.default_rng(seed)
    words = "alpha beta gamma delta epsilon zeta eta theta".split()
    domains = domains or list(DEFAULT_DOMAIN_WEIGHTS)
    with open(path, "w") as fh:
        for i in range(n):
            text = " ".join(rng.choice(words, size=int(rng.integers(5, 40))))
            rec = {
                "id": f"d{i:04d}",
                "text": text + ".",
                "domain": domains[int(rng.integers(0, len(domains)))],
            }
            fh.write(json.dumps(rec) + "\n")
    return path


def write_ratings(path: Path, doc_ids, raters, seed=0):
    rng = np.random.default_rng(seed)
    with open(path, "w") as fh:
        for doc_id in doc_ids:
            for rater in raters:
                value = float(rng.integers(0, 6))
                fh.write(json.dumps({"doc_id": doc_id, "rater": rater, "value": value}) + "\n")
    return path


class TestCost:
    def test_pretraining_rows(self, capsys):
        assert run_cli("cost", "--params", "1.3e9", "--tokens", "30e9") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["flops_1e19"] == pytest.approx(23.40, abs=1e-9)
        assert run_cli("cost", "--params", "3.3e9", "--tokens", "100e9") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["flops_1e19"] == pytest.approx(198.00, abs=1e-9)

    def test_structural_modes(self, capsys):
        assert run_cli(
            "cost", "--layers", "2", "--hidden", "256", "--seq-len", "1024",
            "--samples", "1000", "--epochs", "1",
        ) == 0
        train = json.loads(capsys.readouterr().out)["flops"]
        assert train == 6 * 2 * 256**2 * 1024 * 1000
        assert run_cli(
            "cost", "--layers", "2", "--hidden", "256", "--seq-len", "1024",
            "--samples", "0", "--mode", "infer",
        ) == 0
        assert json.loads(capsys.readouterr().out)["flops"] == 0.0

    def test_missing_args_is_validation_error(self, capsys):
        assert run_cli("cost", "--params", "1e9") == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ValidationError"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--params", "nan", "--tokens", "1"],
             "qselect cost: argument --params: must be a finite number, not negative, got 'nan'"),
            (["--params", "-5", "--tokens", "1"],
             "qselect cost: argument --params: must be a finite number, not negative, got '-5'"),
            (["--layers", "2", "--hidden", "inf", "--seq-len", "1", "--samples", "1"],
             "qselect cost: argument --hidden: must be a finite number, not negative, got 'inf'"),
            (["--params", "1e300", "--tokens", "1e300"],
             "the FLOP count of --params 1e+300 --tokens 1e+300 is too large for a float"),
            (["--layers", "1e200", "--hidden", "1e100", "--seq-len", "1", "--samples", "1",
              "--mode", "infer"],
             "the FLOP count of --layers 1e+200 --hidden 1e+100 --seq-len 1.0 --samples 1.0 "
             "is too large for a float"),
        ],
        ids=["nan", "negative", "inf", "overflow", "structural-overflow"],
    )
    def test_number_that_is_not_a_finite_count_is_refused(self, capsys, argv, message):
        assert run_cli("cost", *argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "ValidationError", "message": message}


class TestSynth:
    def test_synthesizes_and_reports(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "cfg.json",
            synthesis={"doc_count": 70, "channels": {"q": {"loading": 1.0, "noise": 0.3}}},
        )
        assert run_cli("synth", "--config", str(config)) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["documents"] == 70
        assert (tmp_path / "out" / "synth.jsonl").exists()

    def test_missing_section_fails(self, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.json")
        assert run_cli("synth", "--config", str(config)) == 1

    def test_byte_identical_rerun(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "cfg.json",
            synthesis={"doc_count": 40, "channels": {"q": {"loading": 1.0}}},
        )
        run_cli("synth", "--config", str(config))
        first = (tmp_path / "out" / "synth.jsonl").read_bytes()
        run_cli("synth", "--config", str(config))
        assert (tmp_path / "out" / "synth.jsonl").read_bytes() == first


class TestReadRatings:
    def test_out_of_range_prrc_rejected(self, tmp_path):
        path = tmp_path / "r.jsonl"
        for value in (-0.5, 5.5, 7):
            path.write_text(json.dumps({"doc_id": "d1", "rater": "Professionalism", "value": value}))
            with pytest.raises(ValidationError, match=re.escape(
                f"r.jsonl:1: bad annotation: Professionalism value {value} outside [0, 5]"
            )):
                cli._read_annotations([path])
        path.write_text('{"doc_id": "d1", "rater": "Professionalism", "value": 0}\n'
                        '{"doc_id": "d2", "rater": "Professionalism", "value": 5}\n')
        assert cli._read_annotations([path]) == {"Professionalism": {"d1": 0.0, "d2": 5.0}}

    def test_later_rating_replaces_earlier(self, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        first.write_text('{"doc_id": "d1", "rater": "Reasoning", "value": 0}\n'
                         '{"doc_id": "d1", "rater": "Fluency", "value": 2}\n'
                         '{"doc_id": "d1", "rater": "Fluency", "value": 3}\n')
        second.write_text('{"doc_id": "d1", "rater": "Reasoning", "value": 5}\n'
                          '{"doc_id": "d2", "rater": "Reasoning", "value": 1}\n')
        assert cli._read_annotations([first, second]) == {
            "Reasoning": {"d1": 5.0, "d2": 1.0}, "Fluency": {"d1": 3.0}
        }


class TestAnnotate:
    def test_empty_corpus_ok(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("")
        config = write_config(tmp_path / "cfg.json", corpus={"path": "corpus.jsonl"})
        assert run_cli("annotate", "--config", str(config)) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["annotated"] == 0
        assert (tmp_path / "out" / "annotated.jsonl").read_text() == ""

    def test_missing_ratings_file_fails(self, tmp_path, capsys):
        write_corpus_fixture(tmp_path / "corpus.jsonl")
        config = write_config(
            tmp_path / "cfg.json",
            corpus={"path": "corpus.jsonl"},
            scores={"signals": True, "ratings": {"files": ["nope.jsonl"]}},
        )
        assert run_cli("annotate", "--config", str(config)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "does not exist" in err["message"]

    def test_full_25_scores(self, tmp_path, capsys):
        corpus = write_corpus_fixture(tmp_path / "corpus.jsonl", n=50)
        for target in ("books", "wikipedia", "math"):
            write_corpus_fixture(tmp_path / f"{target}.jsonl", n=10, seed=hash(target) % 100)
        doc_ids = [f"d{i:04d}" for i in range(50)]
        write_ratings(tmp_path / "ratings.jsonl", doc_ids, MODEL_RATER_NAMES)
        config = write_config(
            tmp_path / "cfg.json",
            corpus={"path": "corpus.jsonl"},
            scores={
                "signals": True,
                "importance": {
                    "targets": {
                        "books": "books.jsonl",
                        "wikipedia": "wikipedia.jsonl",
                        "math": "math.jsonl",
                    },
                    "bucket_count": 4096,
                },
                "ratings": {"files": ["ratings.jsonl"], "min_coverage": 0.99},
            },
        )
        assert run_cli("annotate", "--config", str(config)) == 0
        annotated = [
            json.loads(line)
            for line in (tmp_path / "out" / "annotated.jsonl").read_text().splitlines()
        ]
        assert len(annotated) == 50
        expected = list(SIGNAL_NAMES) + list(IMPORTANCE_NAMES) + list(MODEL_RATER_NAMES)
        for rec in annotated:
            # all 25 scores, in canonical column order
            assert list(rec["scores"]) == expected

    @pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400, '"4"', "true"]
    )
    def test_non_finite_rating_rejected(self, tmp_path, capsys, literal):
        write_corpus_fixture(tmp_path / "corpus.jsonl", n=5)
        (tmp_path / "ratings.jsonl").write_text(
            '{"doc_id": "d0000", "rater": "Fluency", "value": 3.0}\n'
            f'{{"doc_id": "d0001", "rater": "Fluency", "value": {literal}}}\n'
        )
        config = write_config(
            tmp_path / "cfg.json",
            corpus={"path": "corpus.jsonl"},
            scores={"signals": True, "ratings": {"files": ["ratings.jsonl"], "min_coverage": 0.0}},
        )
        assert run_cli("annotate", "--config", str(config)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ValidationError"
        assert "ratings.jsonl:2" in err["message"]
        assert not (tmp_path / "out" / "annotated.jsonl").exists()

    @pytest.mark.parametrize(
        "fields",
        [
            '"doc_id": 1, "rater": "Fluency", "value": 4',
            '"doc_id": "d0001", "rater": null, "value": 4',
        ],
        ids=["int-doc-id", "null-rater"],
    )
    def test_rating_ids_must_be_strings(self, tmp_path, capsys, fields):
        write_corpus_fixture(tmp_path / "corpus.jsonl", n=5)
        (tmp_path / "ratings.jsonl").write_text(
            '{"doc_id": "d0000", "rater": "Fluency", "value": 3}\n' f"{{{fields}}}\n"
        )
        config = write_config(
            tmp_path / "cfg.json",
            corpus={"path": "corpus.jsonl"},
            scores={"signals": False, "ratings": {"files": ["ratings.jsonl"], "min_coverage": 0.0}},
        )
        assert run_cli("annotate", "--config", str(config)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ValidationError"
        assert f"{tmp_path / 'ratings.jsonl'}:2: bad annotation" in err["message"]

    def test_coverage_threshold_enforced(self, tmp_path, capsys):
        write_corpus_fixture(tmp_path / "corpus.jsonl", n=20)
        write_ratings(tmp_path / "ratings.jsonl", [f"d{i:04d}" for i in range(10)], ["Fluency"])
        config = write_config(
            tmp_path / "cfg.json",
            corpus={"path": "corpus.jsonl"},
            scores={"signals": True, "ratings": {"files": ["ratings.jsonl"], "min_coverage": 0.9}},
        )
        assert run_cli("annotate", "--config", str(config)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "coverage" in err["message"]

    @pytest.mark.parametrize("case", ["unknown-ids-only", "cells-already-held"])
    def test_rater_that_fills_no_cell_is_held_to_min_coverage(
        self, tmp_path, capsys, caplog, monkeypatch, case
    ):
        caplog.set_level("INFO", logger="qselect.cli")
        computed = []
        monkeypatch.setattr(cli, "tokenize", lambda *args: computed.append("tokenize"))
        with open(tmp_path / "corpus.jsonl", "w") as fh:
            for i in range(5):
                rec = {"id": f"d{i:04d}", "text": "alpha beta.", "domain": "C4"}
                if case == "cells-already-held":
                    rec["scores"] = {"Fluency": 1.0}
                fh.write(json.dumps(rec) + "\n")
        doc_ids = ["ghost"] if case == "unknown-ids-only" else [f"d{i:04d}" for i in range(5)]
        write_ratings(tmp_path / "ratings.jsonl", doc_ids, ["Fluency"])
        min_coverage = 0.5 if case == "unknown-ids-only" else 0.9
        config = write_config(
            tmp_path / "cfg.json",
            corpus={"path": "corpus.jsonl"},
            scores={"signals": True,
                    "ratings": {"files": ["ratings.jsonl"], "min_coverage": min_coverage}},
        )
        assert run_cli("annotate", "--config", str(config)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "ValidationError",
                       "message": f"rating coverage below {min_coverage}: {{'Fluency': 0.0}}"}
        assert "rating coverage Fluency: 0.000" in caplog.messages
        assert computed == []  # refused before the tokenize, signal and importance passes

    def test_out_of_range_prrc_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        write_corpus_fixture(tmp_path / "corpus.jsonl", n=5)
        ratings = tmp_path / "ratings.jsonl"
        ratings.write_text(
            '{"doc_id": "d0000", "rater": "Reasoning", "value": 5}\n'
            '{"doc_id": "d0001", "rater": "Reasoning", "value": 7}\n'
        )
        computed = []
        monkeypatch.setattr(cli, "tokenize", lambda *args: computed.append("tokenize"))
        config = write_config(
            tmp_path / "cfg.json",
            corpus={"path": "corpus.jsonl"},
            scores={"signals": True, "ratings": {"files": ["ratings.jsonl"]}},
        )
        assert run_cli("annotate", "--config", str(config)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "ValidationError",
                       "message": f"{ratings}:2: bad annotation: Reasoning value 7 outside [0, 5]"}
        assert computed == []
        assert not (tmp_path / "out" / "annotated.jsonl").exists()

    def test_rater_named_like_a_computed_score_is_refused(self, tmp_path, capsys, monkeypatch):
        write_corpus_fixture(tmp_path / "corpus.jsonl", n=5)
        ids = [f"d{i:04d}" for i in range(5)]
        write_ratings(tmp_path / "ratings.jsonl", ids, ["Fluency", SIGNAL_NAMES[0]])
        scores = {"signals": True, "ratings": {"files": ["ratings.jsonl"]}}
        config = write_config(tmp_path / "cfg.json", corpus={"path": "corpus.jsonl"}, scores=scores)
        computed = []
        monkeypatch.setattr(cli, "tokenize", lambda *args: computed.append("tokenize"))
        assert run_cli("annotate", "--config", str(config)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "ValidationError",
                       "message": f"raters {[SIGNAL_NAMES[0]]} are named like scores this run computes"}
        assert computed == []
        # with signals off, nothing computes that score, and the rater is a column like any other
        monkeypatch.undo()
        config = write_config(tmp_path / "cfg.json", corpus={"path": "corpus.jsonl"},
                              scores={**scores, "signals": False})
        assert run_cli("annotate", "--config", str(config)) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(out["scores"]) == {"Fluency", SIGNAL_NAMES[0]}

    def test_byte_identical_rerun(self, tmp_path, capsys):
        write_corpus_fixture(tmp_path / "corpus.jsonl", n=30)
        config = write_config(tmp_path / "cfg.json", corpus={"path": "corpus.jsonl"})
        run_cli("annotate", "--config", str(config))
        first = (tmp_path / "out" / "annotated.jsonl").read_bytes()
        run_cli("annotate", "--config", str(config))
        assert (tmp_path / "out" / "annotated.jsonl").read_bytes() == first


    def test_importance_columns_match_reference(self, tmp_path, capsys):
        write_corpus_fixture(tmp_path / "corpus.jsonl", n=80)
        write_corpus_fixture(tmp_path / "books.jsonl", n=15, seed=3)
        write_corpus_fixture(tmp_path / "wiki.jsonl", n=9, seed=4)
        config = write_config(
            tmp_path / "cfg.json",
            seed=2**63 + 11,
            corpus={"path": "corpus.jsonl"},
            scores={
                "signals": False,
                "importance": {
                    "targets": {"books": "books.jsonl", "wikipedia": "wiki.jsonl"},
                    "bucket_count": 61,
                    "smoothing": 0.5,
                },
            },
        )
        assert run_cli("annotate", "--config", str(config)) == 0

        def texts(name):
            lines = (tmp_path / name).read_text().splitlines()
            return [json.loads(line)["text"] for line in lines]

        q = ref_fit_bag_model(texts("corpus.jsonl"), 61, 2**63 + 11, 0.5)
        annotated = (tmp_path / "out" / "annotated.jsonl").read_text().splitlines()
        for target, path in (("books", "books.jsonl"), ("wikipedia", "wiki.jsonl")):
            p = ref_fit_bag_model(texts(path), 61, 2**63 + 11, 0.5)
            for line in annotated:
                rec = json.loads(line)
                want = ref_importance_score(rec["text"], p, q)
                assert repr(rec["scores"][f"{target}_importance"]) == repr(want)

    def test_missing_target_fails_before_any_work(self, tmp_path, capsys, monkeypatch):
        write_corpus_fixture(tmp_path / "corpus.jsonl", n=20)
        write_corpus_fixture(tmp_path / "books.jsonl", n=5)
        computed = []
        for module, kernel in ((cli, "tokenize"), (signals_module, "corpus_signals"),
                               (cli, "hash_corpus"), (cli, "fit_bag_model")):
            monkeypatch.setattr(module, kernel, lambda *args, name=kernel: computed.append(name))
        config = write_config(
            tmp_path / "cfg.json",
            corpus={"path": "corpus.jsonl"},
            scores={
                "signals": True,
                "importance": {"targets": {"books": "books.jsonl", "wikipedia": "ghost.jsonl"}},
                "ratings": {"files": ["no-ratings.jsonl"]},
            },
        )
        assert run_cli("annotate", "--config", str(config)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ValidationError"
        assert "ghost.jsonl does not exist" in err["message"]
        assert computed == []
        assert not (tmp_path / "out" / "annotated.jsonl").exists()

    def test_target_rejected_line_is_logged(self, tmp_path, capsys, caplog):
        write_corpus_fixture(tmp_path / "corpus.jsonl", n=20)
        target = write_corpus_fixture(tmp_path / "books.jsonl", n=5)
        lines = target.read_text().splitlines(keepends=True)
        target.write_text(lines[0] + '{"id": "bad"}\n' + "".join(lines[1:]))
        config = write_config(
            tmp_path / "cfg.json",
            corpus={"path": "corpus.jsonl"},
            scores={"signals": False, "importance": {"targets": {"books": "books.jsonl"}}},
        )
        assert run_cli("annotate", "--config", str(config)) == 0
        assert f"{target}:2 rejected" in caplog.text
        assert f"corpus read {target}: 5 records read, 1 rejected" in caplog.text


class TestUndecodableInput:
    """A byte that is not UTF-8, or a lone surrogate escape that UTF-8
    cannot write, fails its own line by number, never the whole run."""

    def annotate_with(self, tmp_path, line, **config):
        corpus = write_corpus_fixture(tmp_path / "corpus.jsonl", n=4)
        lines = corpus.read_bytes().splitlines(keepends=True)
        corpus.write_bytes(lines[0] + line + b"\n" + b"".join(lines[1:]))
        config = write_config(
            tmp_path / "cfg.json", corpus={"path": "corpus.jsonl", **config},
            scores={"signals": True},
        )
        return corpus, run_cli("annotate", "--config", str(config))

    def test_corpus_line_not_utf8_is_rejected(self, tmp_path, capsys, caplog):
        corpus, code = self.annotate_with(tmp_path, b'{"id": "d\xff", "text": "x", "domain": "C4"}')
        assert code == 0
        assert f"{corpus}:2 rejected: 'utf-8' codec can't decode byte 0xff" in caplog.text
        annotated = (tmp_path / "out" / "annotated.jsonl").read_text(encoding="utf-8")
        assert len(annotated.splitlines()) == 4

    @pytest.mark.parametrize(
        "field, line",
        [
            ("id", r'{"id": "d\ud800", "text": "x", "domain": "C4"}'),
            ("text", r'{"id": "z", "text": "x \uDFFF y", "domain": "C4"}'),
            ("domain", r'{"id": "z", "text": "x", "domain": "X\ud800"}'),
            ("score name", r'{"id": "z", "text": "x", "domain": "C4", "scores": {"s\udc00": 1}}'),
        ],
        ids=["id", "text", "domain", "score-name"],
    )
    def test_corpus_line_with_lone_surrogate_is_rejected(self, tmp_path, capsys, caplog, field, line):
        corpus, code = self.annotate_with(tmp_path, line.encode())
        assert code == 0
        assert f"{corpus}:2 rejected: {field} holds the lone surrogate" in caplog.text
        annotated = (tmp_path / "out" / "annotated.jsonl").read_text(encoding="utf-8")
        assert len(annotated.splitlines()) == 4

    def test_escaped_surrogate_pair_is_kept(self, tmp_path, capsys, caplog):
        line = rb'{"id": "z", "text": "\ud83d\ude00 caf\u00e9", "domain": "C4"}'
        _, code = self.annotate_with(tmp_path, line)
        assert code == 0
        assert "rejected" not in caplog.text
        annotated = (tmp_path / "out" / "annotated.jsonl").read_text(encoding="utf-8")
        assert '"text":"\U0001f600 caf\u00e9"' in annotated

    @pytest.mark.parametrize(
        "line",
        [b'{"doc_id": "d0001", "rater": "Fluency", "value": 4}\xff',
         rb'{"doc_id": "d0001", "rater": "Fluency\ud800", "value": 4}'],
        ids=["not-utf8", "lone-surrogate-rater"],
    )
    def test_bad_ratings_line_names_it(self, tmp_path, capsys, line):
        write_corpus_fixture(tmp_path / "corpus.jsonl", n=5)
        ratings = tmp_path / "ratings.jsonl"
        ratings.write_bytes(b'{"doc_id": "d0000", "rater": "Fluency", "value": 3}\n' + line + b"\n")
        config = write_config(
            tmp_path / "cfg.json",
            corpus={"path": "corpus.jsonl"},
            scores={"signals": False, "ratings": {"files": ["ratings.jsonl"]}},
        )
        assert run_cli("annotate", "--config", str(config)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ValidationError"
        assert f"{ratings}:2: bad annotation" in err["message"]
        assert not (tmp_path / "out" / "annotated.jsonl").exists()

    def test_config_not_utf8_is_validation_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_bytes(b'{"seed": 1, "output_dir": "out\xff"}')
        assert run_cli("annotate", "--config", str(config)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ValidationError"
        assert "config is not valid UTF-8 JSON" in err["message"]


@pytest.mark.parametrize("column", ["doc_word_count", "books_importance"])
def test_store_with_a_gap_in_a_strict_column_is_refused(tmp_path, capsys, column):
    # Pass-through annotate keeps the gap; the downstream read refuses it.
    records = [
        {"id": f"d{i}", "text": "a b", "domain": "C4", "scores": {column: 1.0 + i, "s": float(i)}}
        for i in range(3)
    ]
    del records[1]["scores"][column]
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
    config = write_config(
        tmp_path / "cfg.json", corpus={"path": "corpus.jsonl"}, scores={"signals": False},
        plan={"token_budget": 4, "domain_targets": {"C4": 1.0}},
    )
    assert run_cli("annotate", "--config", str(config)) == 0
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps([{"name": column, "weight": 1}, {"name": "s", "weight": 1}]))
    annotated = tmp_path / "out" / "annotated.jsonl"
    capsys.readouterr()
    argv = ["select", "--config", str(config), "--weights", str(weights), "--corpus", str(annotated)]
    assert run_cli(*argv) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ValidationError"
    assert err["message"].startswith(f"score store {tmp_path / 'out' / 'annotated.scores.npz'}: ")
    assert f"column {column!r} has 1 missing cells" in err["message"]


def synth_config(tmp_path, n_docs=900, budget=6000, seed=1, extra=None):
    channels = {f"ch{j}": {"loading": 1.0 if j < 2 else 0.0, "noise": 0.3 if j < 2 else 1.0}
                for j in range(3)}
    cfg = {
        "seed": seed,
        "output_dir": "out",
        "corpus": {"path": "synth.jsonl"},
        "synthesis": {"doc_count": n_docs, "channels": channels, "token_mean": 40.0},
        "plan": {"token_budget": budget},
    }
    if extra:
        cfg.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg, indent=2))
    run_cli("synth", "--config", str(path), "--output", str(tmp_path / "synth.jsonl"))
    return path


class TestSelect:
    def make_weights(self, tmp_path, mapping):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps([{"name": k, "weight": v} for k, v in mapping.items()]))
        return path

    def test_select_with_reference_weights_proportions(self, tmp_path, capsys):
        # synthesize a pool carrying all 25 canonical scores, select with the
        # published weights, check achieved proportions against the plan
        channels = {name: {"loading": 0.0, "noise": 1.0} for name in REFERENCE_WEIGHT_PCT}
        cfg = {
            "seed": 3,
            "output_dir": "out",
            "corpus": {"path": "synth.jsonl"},
            "synthesis": {"doc_count": 9000, "channels": channels, "token_mean": 110.0},
            "plan": {"token_budget": 300_000},
        }
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        assert run_cli("synth", "--config", str(config), "--output", str(tmp_path / "synth.jsonl")) == 0
        weights = self.make_weights(tmp_path, REFERENCE_WEIGHT_PCT)
        assert run_cli("select", "--config", str(config), "--weights", str(weights)) == 0
        report = json.loads((tmp_path / "out" / "selection.json").read_text())
        for domain, target in DEFAULT_DOMAIN_WEIGHTS.items():
            assert abs(report["achieved_proportions"][domain] - target) <= 0.005
        manifest = (tmp_path / "out" / "selection.txt").read_text().splitlines()
        assert len(manifest) == len(set(manifest)) > 0

    def test_cc_only_flag(self, tmp_path, capsys):
        config = synth_config(tmp_path)
        weights = self.make_weights(tmp_path, {"ch0": 0.5, "ch1": 0.3, "ch2": 0.2})
        assert run_cli(
            "select", "--config", str(config), "--weights", str(weights), "--cc-only"
        ) == 0
        report = json.loads((tmp_path / "out" / "selection.json").read_text())
        assert set(report["achieved_proportions"]) == {"CommonCrawl"}
        assert report["achieved_proportions"]["CommonCrawl"] == 1.0

    def test_negative_weights_rejected(self, tmp_path, capsys):
        config = synth_config(tmp_path)
        weights = self.make_weights(tmp_path, {"ch0": 1.5, "ch1": -0.3, "ch2": -0.2})
        assert run_cli("select", "--config", str(config), "--weights", str(weights)) == 1

    @pytest.mark.parametrize(
        "content, cause",
        [
            ("{not json", "JSONDecodeError"),
            ('[{"weight": 1.0}]', "KeyError"),
            ('[{"name": "ch0", "weight": "1"}]', "'ch0' = '1' is not a finite number"),
            ('[{"name": "ch0", "weight": true}]', "'ch0' = True is not a finite number"),
            ('[{"name": "ch0", "weight": NaN}]', "'ch0' = nan is not a finite number"),
        ],
    )
    def test_malformed_weights_file(self, tmp_path, capsys, monkeypatch, content, cause):
        config = synth_config(tmp_path)
        weights = tmp_path / "weights.json"
        weights.write_text(content)
        loads = []
        monkeypatch.setattr(cli, "load_score_store", lambda *args: loads.append(args))
        assert run_cli("select", "--config", str(config), "--weights", str(weights)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ValidationError"
        assert str(weights) in err["message"] and cause in err["message"]
        assert loads == []  # refused before the score store is read

    def test_missing_weights_file(self, tmp_path, capsys):
        config = synth_config(tmp_path)
        weights = tmp_path / "nope.json"
        assert run_cli("select", "--config", str(config), "--weights", str(weights)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "ValidationError", "message": f"weights file {weights} does not exist"}

    def test_missing_weights_are_reported_before_a_missing_corpus(self, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.json", corpus={"path": "absent.jsonl"},
                              plan={"token_budget": 6000})
        weights = tmp_path / "nope.json"
        assert run_cli("select", "--config", str(config), "--weights", str(weights)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "ValidationError", "message": f"weights file {weights} does not exist"}

    def test_name_listed_twice_in_weights_file(self, tmp_path, capsys):
        config = synth_config(tmp_path)
        weights = tmp_path / "weights.json"
        rows = [{"name": "ch0", "weight": 0.5}, {"name": "ch1", "weight": 0.5},
                {"name": "ch0", "weight": 0.1}]
        weights.write_text(json.dumps(rows))
        assert run_cli("select", "--config", str(config), "--weights", str(weights)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "ValidationError", "message":
                       f"malformed weights file {weights}: ValueError: name 'ch0' is listed twice"}
        assert not (tmp_path / "out" / "selection.txt").exists()

    def test_byte_identical_rerun(self, tmp_path, capsys):
        config = synth_config(tmp_path)
        weights = self.make_weights(tmp_path, {"ch0": 0.5, "ch1": 0.3, "ch2": 0.2})
        run_cli("select", "--config", str(config), "--weights", str(weights))
        manifest = (tmp_path / "out" / "selection.txt").read_bytes()
        report = (tmp_path / "out" / "selection.json").read_bytes()
        run_cli("select", "--config", str(config), "--weights", str(weights))
        assert (tmp_path / "out" / "selection.txt").read_bytes() == manifest
        assert (tmp_path / "out" / "selection.json").read_bytes() == report


class TestCampaignAndFit:
    def oracle_config(self, tmp_path, n=32, sigma=0.0):
        return synth_config(
            tmp_path,
            n_docs=600,
            budget=4000,
            seed=1,
            extra={
                "campaign": {
                    "n": n,
                    "trainer": {
                        "type": "oracle",
                        "w_star": {"ch0": 0.6, "ch1": 0.3, "ch2": 0.1},
                        "base": 2.0,
                        "sigma": sigma,
                    },
                },
                "optimizer": {"candidates": 50_000, "top_k": 100},
            },
        )

    def test_campaign_then_fit_recovers_planted_optimum(self, tmp_path, capsys):
        config = self.oracle_config(tmp_path)
        assert run_cli("campaign", "--config", str(config)) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["experiments"] == 32 and out["ok"] == 32
        assert run_cli("fit", "--config", str(config)) == 0
        weights = json.loads((tmp_path / "out" / "weights.json").read_text())
        got = {row["name"]: row["weight"] for row in weights["weights"]}
        w_star = {"ch0": 0.6, "ch1": 0.3, "ch2": 0.1}
        l1 = sum(abs(got[k] - w_star[k]) for k in w_star)
        assert l1 <= 0.2
        assert (tmp_path / "out" / "landscape.csv").exists()

    def test_fit_rerun_byte_identical(self, tmp_path, capsys):
        config = self.oracle_config(tmp_path)
        run_cli("campaign", "--config", str(config))
        run_cli("fit", "--config", str(config))
        weights = (tmp_path / "out" / "weights.json").read_bytes()
        landscape = (tmp_path / "out" / "landscape.csv").read_bytes()
        run_cli("fit", "--config", str(config))
        assert (tmp_path / "out" / "weights.json").read_bytes() == weights
        assert (tmp_path / "out" / "landscape.csv").read_bytes() == landscape

    def test_campaign_rerun_is_noop(self, tmp_path, capsys):
        config = self.oracle_config(tmp_path, n=8)
        run_cli("campaign", "--config", str(config))
        log = (tmp_path / "out" / "campaign.jsonl").read_bytes()
        run_cli("campaign", "--config", str(config))
        assert (tmp_path / "out" / "campaign.jsonl").read_bytes() == log

    def test_negative_threads_flag_rejected(self, tmp_path, capsys):
        config = self.oracle_config(tmp_path, n=4)
        assert run_cli("campaign", "--config", str(config), "--threads", "-3") == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "ValidationError", "message":
                       "--threads must be at least 1 (0 uses campaign.threads), got -3"}
        assert not (tmp_path / "out" / "campaign.jsonl").exists()

    def test_threads_flag_overrides_config(self, tmp_path, capsys, monkeypatch):
        workers = []

        class RecordingPool(proxy.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(proxy, "ThreadPoolExecutor", RecordingPool)
        config = self.oracle_config(tmp_path, n=8)
        raw = json.loads(config.read_text())
        raw["campaign"]["threads"] = 1
        config.write_text(json.dumps(raw))
        log = tmp_path / "out" / "campaign.jsonl"
        assert run_cli("campaign", "--config", str(config)) == 0
        one_thread = log.read_bytes()
        log.unlink()
        assert run_cli("campaign", "--config", str(config), "--threads", "3") == 0
        assert workers == [1, 3]
        assert log.read_bytes() == one_thread

    def test_campaign_resume_cuts_torn_last_line(self, tmp_path, capsys, caplog):
        config = self.oracle_config(tmp_path, n=8)
        out = tmp_path / "out"
        assert run_cli("campaign", "--config", str(config)) == 0
        log = (out / "campaign.jsonl").read_bytes()
        manifests = {p.name: p.read_bytes() for p in (out / "manifests").iterdir()}
        lines = log.splitlines(keepends=True)
        # a run stopped while writing the fourth record: no newline after it
        (out / "campaign.jsonl").write_bytes(b"".join(lines[:3]) + lines[3][:40])
        for name in ("exp-0004.txt", "exp-0005.txt", "exp-0006.txt", "exp-0007.txt"):
            (out / "manifests" / name).unlink()
        assert run_cli("campaign", "--config", str(config)) == 0
        assert "campaign.jsonl:4: cutting a torn last line" in caplog.text
        assert (out / "campaign.jsonl").read_bytes() == log
        assert {p.name: p.read_bytes() for p in (out / "manifests").iterdir()} == manifests

    @pytest.mark.parametrize("tail", [b"", b'{"experiment_id": "exp-0'], ids=["whole", "torn"])
    def test_campaign_bad_middle_line_fails_untouched(self, tmp_path, capsys, tail):
        config = self.oracle_config(tmp_path, n=8)
        out = tmp_path / "out"
        run_cli("campaign", "--config", str(config))
        lines = (out / "campaign.jsonl").read_bytes().splitlines(keepends=True)
        broken = lines[0] + lines[1][:30] + b"\n" + b"".join(lines[2:]) + tail
        (out / "campaign.jsonl").write_bytes(broken)
        capsys.readouterr()
        assert run_cli("campaign", "--config", str(config)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ValidationError"
        assert f"{out / 'campaign.jsonl'}:2:" in err["message"]
        assert (out / "campaign.jsonl").read_bytes() == broken

    def test_campaign_resume_with_other_seed_fails(self, tmp_path, capsys):
        config = self.oracle_config(tmp_path, n=3)
        assert run_cli("campaign", "--config", str(config)) == 0
        log = (tmp_path / "out" / "campaign.jsonl").read_bytes()
        raw = json.loads(config.read_text())
        raw["seed"] = 2
        raw["campaign"]["n"] = 8
        config.write_text(json.dumps(raw))
        capsys.readouterr()
        assert run_cli("campaign", "--config", str(config)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ValidationError"
        assert "exp-0000 is not an experiment of this campaign" in err["message"]
        assert (tmp_path / "out" / "campaign.jsonl").read_bytes() == log

    def test_directory_at_log_path_fails_before_any_experiment(self, tmp_path, capsys):
        config = self.oracle_config(tmp_path, n=8)
        log = tmp_path / "out" / "campaign.jsonl"
        log.mkdir(parents=True)
        before = tree(tmp_path)
        capsys.readouterr()
        assert run_cli("campaign", "--config", str(config)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "ValidationError", "message": f"output {log} is a directory"}
        assert tree(tmp_path) == before

    def test_directory_at_manifest_path_fails_before_any_experiment(self, tmp_path, capsys):
        config = self.oracle_config(tmp_path, n=8)
        blocked = tmp_path / "out" / "manifests" / "exp-0003.txt"
        blocked.mkdir(parents=True)
        before = tree(tmp_path)
        capsys.readouterr()
        assert run_cli("campaign", "--config", str(config)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "ValidationError", "message": f"output {blocked} is a directory"}
        assert tree(tmp_path) == before

    def test_oracle_w_star_must_name_the_corpus_scores(self, tmp_path, capsys):
        config = self.oracle_config(tmp_path, n=8)
        raw = json.loads(config.read_text())
        raw["campaign"]["trainer"]["w_star"] = {"x": 1.0}
        config.write_text(json.dumps(raw))
        capsys.readouterr()
        assert run_cli("campaign", "--config", str(config)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "ValidationError", "message":
                       "campaign.trainer.w_star must name the corpus's scores: "
                       "missing=['ch0', 'ch1', 'ch2'], unknown=['x']"}
        assert not (tmp_path / "out" / "manifests").exists()
        assert not (tmp_path / "out" / "campaign.jsonl").exists()

    def test_fit_with_grid_1_fails_before_writing(self, tmp_path, capsys):
        config = self.oracle_config(tmp_path)
        assert run_cli("campaign", "--config", str(config)) == 0
        raw = json.loads(config.read_text())
        raw["optimizer"]["grid"] = 1
        config.write_text(json.dumps(raw))
        assert run_cli("fit", "--config", str(config)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "ValidationError", "message": "optimizer.grid: must be at least 2, got 1"}
        assert not (tmp_path / "out" / "weights.json").exists()

    def test_fit_with_too_few_records_fails(self, tmp_path, capsys):
        config = self.oracle_config(tmp_path, n=8)
        run_cli("campaign", "--config", str(config))
        assert run_cli("fit", "--config", str(config)) == 1

    @pytest.mark.parametrize(
        "bad_line",
        [
            '{"experiment_id": "exp-0001", "weights": {"ch0": 1.0}, "lo',
            '{"experiment_id": "exp-0001", "weights": {"ch0": 1.0}, "loss": 1.0}',
        ],
        ids=["torn-last-line", "missing-status"],
    )
    def test_fit_malformed_log_line_fails(self, tmp_path, capsys, bad_line):
        good = {"experiment_id": "exp-0000", "weights": {"ch0": 1.0}, "loss": 1.0, "status": "ok"}
        log = tmp_path / "campaign.jsonl"
        log.write_text(json.dumps(good) + "\n" + bad_line)
        config = write_config(tmp_path / "cfg.json")
        assert run_cli("fit", "--config", str(config), "--log", str(log)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ValidationError"
        assert f"{log}:2" in err["message"]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("loss", "NaN"),
            ("loss", "Infinity"),
            ("loss", '"abc"'),
            ("loss", "true"),
            ("loss", "1" + "0" * 400),
            ("loss", "null"),
            ("weights", '{"ch0": "0.5"}'),
            ("weights", '{"ch0": NaN}'),
            ("weights", "[1.0]"),
            ("weights", "{}"),
            ("status", '"OK"'),
            ("status", '"failed"'),
            ("status", "null"),
        ],
        ids=["nan", "infinity", "string", "bool", "huge-int", "null-on-ok", "string-weight",
             "nan-weight", "weights-list", "empty-weights", "upper-case-ok", "failed-with-loss",
             "null-status"],
    )
    def test_fit_bad_log_value_fails(self, tmp_path, capsys, field, value):
        good = {"experiment_id": "exp-0000", "weights": {"ch0": 1.0}, "loss": 1.0, "status": "ok"}
        bad = json.dumps({**good, "experiment_id": "exp-0001", field: "@"}).replace('"@"', value)
        log = tmp_path / "campaign.jsonl"
        log.write_text(json.dumps(good) + "\n" + bad + "\n")
        config = write_config(tmp_path / "cfg.json")
        assert run_cli("fit", "--config", str(config), "--log", str(log)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ValidationError"
        assert f"{log}:2" in err["message"]

    def test_failed_record_may_have_null_loss(self):
        from qselect.proxy import ExperimentRecord

        line = '{"experiment_id": "e", "weights": {"a": 1}, "loss": null, "status": "failed"}'
        assert ExperimentRecord.from_json(line).loss is None

    @pytest.mark.parametrize(
        "field, value",
        [
            ("loss", "NaN"),
            ("loss", "Infinity"),
            ("loss", '"abc"'),
            ("weight", '"0.5"'),
            ("weights", "{}"),
            ("status", '"OK"'),
        ],
        ids=["nan", "infinity", "string-loss", "string-weight", "empty-weights", "upper-case-ok"],
    )
    def test_campaign_resume_bad_log_value_fails(self, tmp_path, capsys, field, value):
        config = self.oracle_config(tmp_path, n=4)
        out = tmp_path / "out"
        assert run_cli("campaign", "--config", str(config)) == 0
        lines = (out / "campaign.jsonl").read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        if field == "weight":
            record["weights"][next(iter(record["weights"]))] = "@"
        else:
            record[field] = "@"
        lines[1] = json.dumps(record).replace('"@"', value) + "\n"
        broken = "".join(lines)
        (out / "campaign.jsonl").write_text(broken)
        capsys.readouterr()
        assert run_cli("campaign", "--config", str(config)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ValidationError"
        assert f"{out / 'campaign.jsonl'}:2:" in err["message"]
        assert (out / "campaign.jsonl").read_text() == broken

    def test_fit_missing_log_fails(self, tmp_path, capsys):
        config = self.oracle_config(tmp_path)
        assert run_cli("fit", "--config", str(config)) == 1


class TestCorrelate:
    def test_writes_csv(self, tmp_path, capsys):
        config = synth_config(tmp_path)
        assert run_cli("correlate", "--config", str(config)) == 0
        csv = (tmp_path / "out" / "spearman.csv").read_text().splitlines()
        assert csv[0] == "name,ch0,ch1,ch2"
        assert len(csv) == 4

    def test_byte_identical_rerun(self, tmp_path, capsys):
        config = synth_config(tmp_path)
        run_cli("correlate", "--config", str(config))
        first = (tmp_path / "out" / "spearman.csv").read_bytes()
        run_cli("correlate", "--config", str(config))
        assert (tmp_path / "out" / "spearman.csv").read_bytes() == first

    def test_ranks_raw_scores_without_normalizing(self, tmp_path, capsys, monkeypatch):
        config = synth_config(tmp_path)
        monkeypatch.setattr(cli, "rank_normalize", None)
        assert run_cli("correlate", "--config", str(config)) == 0


class TestErrorSurface:
    def test_version_imports_no_scipy(self):
        # -X importtime lists every module the start-up imports on stderr
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )}
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "qselect.cli", "--version"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0 and "qselect" in proc.stdout
        modules = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert "qselect.matrix" in modules
        assert not {m for m in modules if m.split(".")[0] == "scipy"}

    def test_unexpected_exception_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        def crash(cfg, args):
            raise RuntimeError("handler crashed")

        monkeypatch.setattr(cli, "cmd_synth", crash)
        config = write_config(tmp_path / "cfg.json")
        assert run_cli("synth", "--config", str(config)) == 2
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "RuntimeError", "message": "handler crashed"}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cost", "--params", "abc", "--tokens", "1"],
             "qselect cost: argument --params: must be a finite number, not negative, got 'abc'"),
            (["select", "--weights", "w.json"],
             "qselect select: the following arguments are required: --config"),
            (["bogus"], "qselect: argument command: invalid choice: 'bogus'"),
            ([], "qselect: the following arguments are required: command"),
            (["fit", "--config", "c.json", "--bogus"], "qselect: unrecognized arguments: --bogus"),
        ],
        ids=["bad-number", "missing-config", "unknown-command", "no-command", "unknown-flag"],
    )
    def test_usage_error_is_validation_error(self, capsys, argv, message):
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "ValidationError" and err["message"].startswith(message)
        assert "usage:" not in captured.err

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        with pytest.raises(SystemExit) as info:
            run_cli(flag)
        assert info.value.code == 0
        assert capsys.readouterr().out

    def test_bad_config_json(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        assert run_cli("annotate", "--config", str(bad)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ValidationError"

    def test_missing_corpus(self, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.json", corpus={"path": "ghost.jsonl"})
        assert run_cli("annotate", "--config", str(config)) == 1

    @pytest.mark.parametrize("command", ["annotate", "select", "campaign", "correlate"])
    def test_missing_corpus_is_validation_error(self, tmp_path, capsys, command):
        config = write_config(
            tmp_path / "cfg.json",
            corpus={"path": "ghost.jsonl"},
            plan={"token_budget": 100},
        )
        weights = tmp_path / "weights.json"
        weights.write_text('[{"name": "s", "weight": 1}]')
        flags = ["--weights", str(weights)] if command == "select" else []
        for path, extra in ((tmp_path / "ghost.jsonl", []),
                            (tmp_path / "flag.jsonl", ["--corpus", str(tmp_path / "flag.jsonl")])):
            assert run_cli(command, "--config", str(config), *flags, *extra) == 1
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert err == {"error": "ValidationError",
                           "message": f"corpus file {path} does not exist"}


@pytest.mark.parametrize(
    "what, name, scores, argv",
    [
        ("config file", "dir", None, ["annotate", "--config", "{d}"]),
        ("corpus file", "dir", None, ["annotate", "--config", "{c}", "--corpus", "{d}"]),
        ("ratings file", "dir", {"ratings": {"files": ["dir"]}}, ["annotate", "--config", "{c}"]),
        ("importance target corpus", "dir", {"importance": {"targets": {"books": "dir"}}},
         ["annotate", "--config", "{c}"]),
        ("weights file", "dir", None, ["select", "--config", "{c}", "--weights", "{d}"]),
        ("score store", "corpus.scores.npz", None, ["correlate", "--config", "{c}"]),
        ("campaign log", "dir", None, ["fit", "--config", "{c}", "--log", "{d}"]),
    ],
    ids=["config", "corpus", "ratings", "importance-target", "weights", "score-store", "log"],
)
def test_input_that_is_a_directory_is_refused(tmp_path, capsys, what, name, scores, argv):
    directory = tmp_path / name
    directory.mkdir()
    write_corpus_fixture(tmp_path / "corpus.jsonl")
    config = write_config(tmp_path / "cfg.json", corpus={"path": "corpus.jsonl"},
                          plan={"token_budget": 100}, scores=scores or {})
    assert run_cli(*(arg.format(c=config, d=directory) for arg in argv)) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    hint = "; run annotate first" if what == "score store" else ""
    assert err == {"error": "ValidationError", "message": f"{what} {directory} is not a file{hint}"}


def file_at_output_dir(tmp_path):
    write_corpus_fixture(tmp_path / "corpus.jsonl", n=5)
    out = tmp_path / "out"
    out.write_text("a file, not a directory\n")
    config = write_config(tmp_path / "cfg.json", corpus={"path": "corpus.jsonl"})
    return ["annotate", "--config", str(config)], f"output {out / 'annotated.jsonl'}: {out} is not a directory"


def file_at_manifest_directory(tmp_path):
    trainer = {"type": "oracle", "w_star": {"ch0": 0.5, "ch1": 0.3, "ch2": 0.2}}
    config = synth_config(tmp_path, n_docs=60, budget=500, extra={"campaign": {"n": 2, "trainer": trainer}})
    manifests = tmp_path / "out" / "manifests"
    manifests.parent.mkdir()
    manifests.write_text("")
    return (
        ["campaign", "--config", str(config)],
        f"output {manifests / 'exp-0000.txt'}: {manifests} is not a directory",
    )


def duplicate_document_id(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "a", "text": "alpha.", "domain": "C4"}\n' * 2)
    config = write_config(tmp_path / "cfg.json", corpus={"path": "corpus.jsonl"})
    return ["annotate", "--config", str(config)], f"{corpus}:2: duplicate document id 'a'"


def one_document_store(tmp_path):
    write_corpus_fixture(tmp_path / "corpus.jsonl", n=1)
    config = write_config(tmp_path / "cfg.json", corpus={"path": "corpus.jsonl"})
    assert run_cli("annotate", "--config", str(config)) == 0
    annotated = tmp_path / "out" / "annotated.jsonl"
    return (
        ["correlate", "--config", str(config), "--corpus", str(annotated)],
        f"corpus {annotated} has one valid document; correlation needs at least 2",
    )


def rater_with_no_observed_value(tmp_path):
    write_corpus_fixture(tmp_path / "corpus.jsonl", n=5)
    write_ratings(tmp_path / "ratings.jsonl", ["ghost"], ["Fluency"])
    config = write_config(
        tmp_path / "cfg.json",
        corpus={"path": "corpus.jsonl"},
        scores={"signals": True, "ratings": {"files": ["ratings.jsonl"], "min_coverage": 0}},
    )
    return ["annotate", "--config", str(config)], "raters ['Fluency'] rate no document of the corpus"


@pytest.mark.parametrize(
    "setup",
    [file_at_output_dir, file_at_manifest_directory, duplicate_document_id, one_document_store,
     rater_with_no_observed_value],
)
def test_input_fault_exits_1_naming_its_place_before_any_work(tmp_path, capsys, monkeypatch, setup):
    argv, message = setup(tmp_path)
    before = tree(tmp_path)
    tokenized = []
    monkeypatch.setattr(cli, "tokenize", lambda *args: tokenized.append(args))
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "ValidationError", "message": message}
    assert tree(tmp_path) == before
    assert tokenized == []


def correlate_argv(tmp_path):
    write_corpus_fixture(tmp_path / "corpus.jsonl", n=5)
    config = write_config(tmp_path / "cfg.json", corpus={"path": "corpus.jsonl"})
    assert run_cli("annotate", "--config", str(config)) == 0
    return ["correlate", "--config", str(config), "--corpus", str(tmp_path / "out" / "annotated.jsonl")]


def synth_argv(tmp_path):
    return ["synth", "--config", str(synth_config(tmp_path, n_docs=60, budget=500))]


@pytest.mark.parametrize("command", [correlate_argv, synth_argv], ids=["correlate", "synth"])
class TestOutputPath:
    def test_missing_parent_is_made(self, tmp_path, command):
        target = tmp_path / "new" / "dir" / "output.jsonl"
        assert run_cli(*command(tmp_path), "--output", str(target)) == 0
        assert target.is_file()

    @pytest.mark.parametrize("in_the_way", ["file-at-parent", "directory-at-target"])
    def test_blocked_output_is_refused_before_any_work(self, tmp_path, capsys, command, in_the_way):
        argv = command(tmp_path)
        blocker = tmp_path / "new"
        if in_the_way == "file-at-parent":
            blocker.write_text("a file, not a directory\n")
            target = blocker / "dir" / "output.jsonl"
            message = f"output {target}: {blocker} is not a directory"
        else:
            blocker.mkdir()
            target = blocker
            message = f"output {target} is a directory"
        before = tree(tmp_path)
        capsys.readouterr()
        assert run_cli(*argv, "--output", str(target)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err == {"error": "ValidationError", "message": message}
        assert tree(tmp_path) == before


def write_fit_log(path, losses, seed=0):
    """A campaign log over scores a, b and c; ``losses`` maps each record's
    weights to its loss."""
    weights = np.random.default_rng(seed).dirichlet(np.ones(3), size=len(losses))
    records = (
        {"experiment_id": f"exp-{i:04d}", "weights": dict(zip("abc", w.tolist())),
         "loss": loss(w), "status": "ok", "manifest": "", "metadata": {}}
        for i, (w, loss) in enumerate(zip(weights, losses))
    )
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    return weights


SMALL_FIT = {"trees": 20, "candidates": 2000, "top_k": 10, "grid": 5}


def fit_argv(tmp_path):
    log = tmp_path / "campaign.jsonl"
    write_fit_log(log, [lambda w: 1.0 + w[0]] * 20)
    config = write_config(tmp_path / "cfg.json", optimizer=SMALL_FIT)
    return ["fit", "--config", str(config), "--log", str(log)]


def annotate_argv(tmp_path):
    write_corpus_fixture(tmp_path / "corpus.jsonl", n=5)
    return ["annotate", "--config", str(write_config(tmp_path / "cfg.json", corpus={"path": "corpus.jsonl"}))]


def select_argv(tmp_path):
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps([{"name": f"ch{j}", "weight": 1} for j in range(3)]))
    return ["select", "--config", str(synth_config(tmp_path, n_docs=60, budget=500)), "--weights", str(weights)]


def campaign_argv(tmp_path):
    trainer = {"type": "oracle", "w_star": {"ch0": 0.5, "ch1": 0.3, "ch2": 0.2}}
    return ["campaign", "--config",
            str(synth_config(tmp_path, n_docs=60, budget=500, extra={"campaign": {"n": 2, "trainer": trainer}}))]


@pytest.mark.parametrize(
    "command, artifact",
    [(fit_argv, "weights.json"), (fit_argv, "landscape.csv"), (annotate_argv, "annotated.jsonl"),
     (annotate_argv, "annotated.scores.npz"), (synth_argv, "synth.scores.npz"),
     (select_argv, "selection.txt"), (select_argv, "selection.json"), (correlate_argv, "spearman.csv"),
     (campaign_argv, "campaign.jsonl")],
    ids=["fit-weights", "fit-landscape", "annotate-corpus", "annotate-store", "synth-store",
         "select-manifest", "select-report", "correlate", "campaign-log"],
)
def test_directory_at_an_artifact_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command, artifact):
    argv = command(tmp_path)
    blocker = tmp_path / "out" / artifact
    blocker.mkdir(parents=True)
    before = tree(tmp_path)
    for module, name in [(proxy, "read_campaign_log"), (cli, "load_corpus"), (cli, "synthesize_corpus"),
                         (cli, "load_score_store")]:
        monkeypatch.setattr(module, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "ValidationError", "message": f"output {blocker} is a directory"}
    assert tree(tmp_path) == before


def test_correlate_refused_with_output_elsewhere_makes_no_directory(tmp_path, capsys):
    write_corpus_fixture(tmp_path / "corpus.jsonl", n=1)
    write_config(tmp_path / "cfg.json", corpus={"path": "corpus.jsonl"}, output_dir="data")
    assert run_cli("annotate", "--config", str(tmp_path / "cfg.json")) == 0
    config = write_config(tmp_path / "cfg2.json", corpus={"path": "data/annotated.jsonl"}, output_dir="out2")
    before = tree(tmp_path)
    capsys.readouterr()
    assert run_cli("correlate", "--config", str(config), "--output", str(tmp_path / "elsewhere" / "s.csv")) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["message"].endswith("has one valid document; correlation needs at least 2")
    assert tree(tmp_path) == before


def test_synth_with_output_elsewhere_makes_no_output_dir(tmp_path):
    config = synth_config(tmp_path, n_docs=60, budget=500)
    assert run_cli("synth", "--config", str(config), "--output", str(tmp_path / "data" / "c.jsonl")) == 0
    assert sorted(path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*")) == [
        "cfg.json", "data", "data/c.jsonl", "data/c.scores.npz", "synth.jsonl", "synth.scores.npz"
    ]


@pytest.mark.parametrize(
    "command, rerun, target, temps",
    [
        (fit_argv, lambda tmp_path: write_config(tmp_path / "cfg.json", seed=2, optimizer=SMALL_FIT),
         (Landscape, "write_csv"), [".tmp-weights.json"]),
        (annotate_argv, lambda tmp_path: write_corpus_fixture(tmp_path / "corpus.jsonl", n=6),
         (cli, "write_score_store"), [".tmp-annotated.jsonl"]),
    ],
    ids=["fit", "annotate"],
)
def test_failed_write_leaves_the_previous_artifacts(tmp_path, capsys, monkeypatch, command, rerun, target, temps):
    argv = command(tmp_path)
    assert run_cli(*argv) == 0
    before = tree(tmp_path / "out")
    rerun(tmp_path)  # the next run's artifacts would differ
    staged = []

    def fail(*args):
        staged.append({path.name: path.read_bytes() for path in (tmp_path / "out").glob(".*")})
        raise OSError("No space left on device")

    monkeypatch.setattr(*target, fail)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "OSError", "message": "No space left on device"}
    assert [sorted(written) for written in staged] == [temps]
    for name, data in staged[0].items():  # the new artifact differs from the one it would replace
        assert data != before[tmp_path / "out" / name.removeprefix(".tmp-")]
    assert tree(tmp_path / "out") == before


class TestFitLossBound:
    """A loss whose square could overflow the split search's sums is refused
    before the fit, naming the log and the first record at fault."""

    def run_fit(self, tmp_path, capsys, losses):
        log = tmp_path / "campaign.jsonl"
        weights = write_fit_log(log, losses)
        config = write_config(tmp_path / "cfg.json", optimizer=SMALL_FIT)
        before = tree(tmp_path)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning would make this exit 2
            code = run_cli("fit", "--config", str(config), "--log", str(log))
        if code:
            assert tree(tmp_path) == before
        return code, capsys.readouterr(), log, weights

    def test_losses_near_1e200_are_refused(self, tmp_path, capsys):
        code, out, log, weights = self.run_fit(tmp_path, capsys, [lambda w: 1e200 * (1 + w[0])] * 40)
        assert code == 1
        assert out.out == ""
        err = json.loads(out.err.strip().splitlines()[-1])
        assert err == {
            "error": "ValidationError",
            "message": f"campaign log {log}: record exp-0000 has loss {float(1e200 * (1 + weights[0, 0]))!r}; "
            "the fit needs every loss within 1e+150 / 40 records = 2.5e+148 of 0, so that its "
            "sums of squares stay finite",
        }

    def test_the_first_record_past_the_bound_is_named(self, tmp_path, capsys):
        losses = [lambda w: 1.0 + w[0]] * 20
        losses[3] = losses[7] = lambda w: -1e149
        code, out, log, _ = self.run_fit(tmp_path, capsys, losses)
        assert code == 1
        message = json.loads(out.err.strip().splitlines()[-1])["message"]
        assert message.startswith(f"campaign log {log}: record exp-0003 has loss -1e+149;")

    def test_a_loss_at_the_bound_is_fitted(self, tmp_path, capsys):
        losses = [lambda w: 1.0 + w[0]] * 20
        losses[5] = lambda w: 1e150 / 20
        code, out, _, _ = self.run_fit(tmp_path, capsys, losses)
        assert code == 0
        assert np.isfinite(json.loads(out.out)["in_sample_rmse"])


@pytest.mark.parametrize("command", ["select", "campaign", "correlate"])
def test_downstream_rejected_line_is_logged(tmp_path, capsys, caplog, command):
    # An edited corpus no longer matches its score store; annotate logs the
    # rejected line and writes the store the downstream command reads.
    trainer = {"type": "oracle", "w_star": {"ch0": 0.5, "ch1": 0.3, "ch2": 0.2}}
    config = synth_config(tmp_path, n_docs=60, budget=500,
                          extra={"campaign": {"n": 2, "trainer": trainer},
                                 "scores": {"signals": False}})
    corpus = tmp_path / "synth.jsonl"
    lines = corpus.read_text().splitlines(keepends=True)
    corpus.write_text("".join(lines[:2]) + '{"id": "bad"}\n' + "".join(lines[2:]))
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps([{"name": f"ch{j}", "weight": 1} for j in range(3)]))
    flags = ["--weights", str(weights)] if command == "select" else []
    capsys.readouterr()
    assert run_cli(command, "--config", str(config), *flags) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ValidationError"
    assert f"score store {tmp_path / 'synth.scores.npz'} does not match {corpus}" in err["message"]
    assert run_cli("annotate", "--config", str(config)) == 0
    assert f"{corpus}:3 rejected: missing 'text'" in caplog.text
    assert f"corpus read {corpus}: 60 records read, 1 rejected" in caplog.text
    annotated = tmp_path / "out" / "annotated.jsonl"
    assert run_cli(command, "--config", str(config), *flags, "--corpus", str(annotated)) == 0
