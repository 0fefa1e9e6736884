import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qselect import cli
from qselect import signals as signals_module
from qselect.cli import main
from qselect.registry import (
    DEFAULT_DOMAIN_WEIGHTS,
    IMPORTANCE_NAMES,
    MODEL_RATER_NAMES,
    REFERENCE_WEIGHT_PCT,
    SIGNAL_NAMES,
)

from oracles import ref_fit_bag_model, ref_importance_score


def run_cli(*argv):
    return main(list(argv))


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

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
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
        monkeypatch.setattr(signals_module, "compute_signals", computed.append)
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
        assert "ghost.jsonl missing" in err["message"]
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
        [("{not json", "JSONDecodeError"), ('[{"weight": 1.0}]', "KeyError")],
    )
    def test_malformed_weights_file(self, tmp_path, capsys, content, cause):
        config = synth_config(tmp_path)
        weights = tmp_path / "weights.json"
        weights.write_text(content)
        assert run_cli("select", "--config", str(config), "--weights", str(weights)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ValidationError"
        assert str(weights) in err["message"] and cause in err["message"]

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
        ],
        ids=["nan", "infinity", "string", "bool", "huge-int", "null-on-ok", "string-weight",
             "nan-weight", "weights-list"],
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
        [("loss", "NaN"), ("loss", "Infinity"), ("loss", '"abc"'), ("weight", '"0.5"')],
        ids=["nan", "infinity", "string-loss", "string-weight"],
    )
    def test_campaign_resume_bad_log_value_fails(self, tmp_path, capsys, field, value):
        config = self.oracle_config(tmp_path, n=4)
        out = tmp_path / "out"
        assert run_cli("campaign", "--config", str(config)) == 0
        lines = (out / "campaign.jsonl").read_text().splitlines(keepends=True)
        record = json.loads(lines[1])
        if field == "loss":
            record["loss"] = "@"
        else:
            record["weights"][next(iter(record["weights"]))] = "@"
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

    def test_bad_config_json(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        assert run_cli("annotate", "--config", str(bad)) == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "ValidationError"

    def test_missing_corpus(self, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.json", corpus={"path": "ghost.jsonl"})
        assert run_cli("annotate", "--config", str(config)) == 1
