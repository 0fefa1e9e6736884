import json
import re
from pathlib import Path

import pytest

from qselect.cli import main
from qselect.config import load_config, parse_config
from qselect.errors import ValidationError
from qselect.proxy import CommandTrainer, OracleTrainer

ORACLE = {"type": "oracle", "w_star": {"a": 1.0, "b": 1.0}}

# (config, the dotted path its error message must name)
MISTAKES = {
    "string-for-bool": ({"scores": {"signals": "false"}}, "scores.signals"),
    "float-for-int": ({"optimizer": {"trees": 5.9}}, "optimizer.trees"),
    "unknown-optimizer-key": ({"optimizer": {"tree": 5}}, "optimizer.tree"),
    "unknown-top-level-key": ({"optimiser": {"trees": 5}}, "optimiser"),
    "removed-optimizer-normalization": (
        {"optimizer": {"normalization": "rank"}},
        "optimizer.normalization",
    ),
    "bool-for-int": ({"seed": True}, "seed"),
    "string-for-list": ({"corpus": {"domains": "C4"}}, "corpus.domains"),
    "unknown-trainer-type": (
        {"campaign": {"trainer": {**ORACLE, "type": "oracel"}}},
        "campaign.trainer.type",
    ),
    "string-for-int": ({"seed": "abc"}, "seed"),
    "unknown-proxy-key": ({"campaign": {"proxy": {"hidden": 64}}}, "campaign.proxy.hidden"),
    "null-for-float": ({"optimizer": {"subsample": None}}, "optimizer.subsample"),
    "removed-optimizer-seed": ({"optimizer": {"seed": 3}}, "optimizer.seed"),
    "removed-trainer-seed": (
        {"campaign": {"trainer": {**ORACLE, "seed": 3}}},
        "campaign.trainer.seed",
    ),
    "key-of-other-trainer-type": (
        {"campaign": {"trainer": {**ORACLE, "argv": ["python3"]}}},
        "campaign.trainer.argv",
    ),
    "missing-required-key": ({"plan": {}}, "plan.token_budget"),
    "list-item-type": (
        {"scores": {"ratings": {"files": ["a.jsonl", 3]}}},
        "scores.ratings.files[1]",
    ),
    "nested-channel-key": (
        {"synthesis": {"doc_count": 10, "channels": {"q": {"loadings": 1.0}}}},
        "synthesis.channels.q.loadings",
    ),
    "non-finite-number": (
        {"optimizer": {"concentration": float("inf")}},
        "optimizer.concentration",
    ),
    "section-not-object": ({"plan": [100]}, "plan"),
    "range-check-of-section": ({"optimizer": {"learning_rate": 2.0}}, "optimizer"),
    "range-check-of-renamed-key": ({"optimizer": {"trees": -1}}, "optimizer.trees"),
    "range-check-of-nested-key": ({"campaign": {"proxy": {"layers": 0}}}, "campaign.proxy.layers"),
    "negative-threads": ({"campaign": {"threads": -7}}, "campaign.threads"),
    "zero-threads": ({"campaign": {"threads": 0}}, "campaign.threads"),
    "empty-domain-targets": ({"plan": {"token_budget": 10, "domain_targets": {}}}, "plan.domain_targets"),
    "negative-domain-target": (
        {"plan": {"token_budget": 10, "domain_targets": {"C4": 1.5, "Books": -0.5}}},
        "plan.domain_targets",
    ),
    "domain-targets-off-simplex": (
        {"plan": {"token_budget": 10, "domain_targets": {"C4": 0.5, "Books": 0.4}}},
        "plan.domain_targets",
    ),
    "lone-surrogate-channel-key": (
        {"synthesis": {"doc_count": 5, "channels": {"q\ud800": {"loading": 1.0}}}},
        "synthesis.channels.q\ud800",
    ),
    "lone-surrogate-domain": ({"corpus": {"domains": ["C4", "X\ud800"]}}, "corpus.domains[1]"),
    "lone-surrogate-latent-name": (
        {"synthesis": {"doc_count": 5, "latent_name": "q\udc00"}},
        "synthesis.latent_name",
    ),
    "lone-surrogate-importance-target": (
        {"scores": {"importance": {"targets": {"b\ud800": "b.jsonl"}}}},
        "scores.importance.targets.b\ud800",
    ),
    "grid-below-2": ({"optimizer": {"grid": 1}}, "optimizer.grid"),
    "candidates-below-top-k": ({"optimizer": {"candidates": 5, "top_k": 10}}, "optimizer.candidates"),
    "zero-top-k": ({"optimizer": {"top_k": 0}}, "optimizer.top_k"),
    "zero-concentration": ({"optimizer": {"concentration": 0}}, "optimizer.concentration"),
    "zero-smoothing": (
        {"scores": {"importance": {"targets": {"b": "b.jsonl"}, "smoothing": 0}}},
        "scores.importance.smoothing",
    ),
    "one-bucket": (
        {"scores": {"importance": {"targets": {"b": "b.jsonl"}, "bucket_count": 1}}},
        "scores.importance.bucket_count",
    ),
    "too-many-buckets": (
        {"scores": {"importance": {"targets": {"b": "b.jsonl"}, "bucket_count": 2**32}}},
        "scores.importance.bucket_count",
    ),
    "zero-campaign-n": ({"campaign": {"n": 0}}, "campaign.n"),
    "negative-doc-count": ({"synthesis": {"doc_count": -1}}, "synthesis.doc_count"),
    "domain-mix-off-simplex": (
        {"synthesis": {"doc_count": 5, "domain_mix": {"C4": 0.5, "Books": 0.4}}},
        "synthesis",
    ),
    "min-coverage-above-1": (
        {"scores": {"ratings": {"files": ["r.jsonl"], "min_coverage": 1.5}}},
        "scores.ratings.min_coverage",
    ),
}


@pytest.mark.parametrize("raw, path", list(MISTAKES.values()), ids=list(MISTAKES))
def test_mistake_is_validation_error_naming_path(tmp_path, raw, path):
    with pytest.raises(ValidationError) as info:
        parse_config(raw, tmp_path)
    assert re.search(rf"(^|\W){re.escape(path)}(\W|$)", str(info.value)), str(info.value)


@pytest.mark.parametrize("raw, path", list(MISTAKES.values()), ids=list(MISTAKES))
def test_mistake_exits_1_with_error_object(tmp_path, capsys, raw, path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(raw))
    assert main(["synth", "--config", str(config)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ValidationError" and path in err["message"]


def test_cli_error_object_for_string_seed(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text('{"seed": "abc"}')
    assert main(["fit", "--config", str(config)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err == {"error": "ValidationError", "message": "seed: expected an integer, got 'abc'"}


@pytest.mark.parametrize("timeout", [0, -1, -0.5])
def test_non_positive_trainer_timeout_rejected(tmp_path, timeout):
    raw = {"campaign": {"trainer": {"type": "command", "argv": ["python3"], "timeout": timeout}}}
    with pytest.raises(ValidationError, match=r"campaign\.trainer\.timeout: must be positive"):
        parse_config(raw, tmp_path)


def test_every_documented_key_is_accepted(tmp_path):
    raw = {
        "seed": 7,
        "output_dir": "results",
        "corpus": {
            "path": "c.jsonl",
            "domains": ["CommonCrawl", "Books"],
            "token_estimator": "char_ratio",
        },
        "scores": {
            "signals": False,
            "importance": {"targets": {"books": "b.jsonl"}, "bucket_count": 64, "smoothing": 2},
            "ratings": {"files": ["r.jsonl"], "min_coverage": 0.5},
        },
        "plan": {"token_budget": 1000, "domain_targets": {"CommonCrawl": 1}},
        "campaign": {
            "n": 8,
            "trainer": {"type": "command", "argv": ["python3", "t.py"], "timeout": 30},
            "valset": "v",
            "threads": 2,
            "proxy": {"hidden_dim": 64, "layers": 1, "heads": 2, "kv_heads": 1, "token_budget": 10},
        },
        "optimizer": {
            "trees": 5, "depth": 2, "learning_rate": 0.1, "subsample": 1, "min_samples_leaf": 2,
            "candidates": 500, "top_k": 5, "concentration": 0.5, "grid": 3,
        },
        "synthesis": {
            "doc_count": 10, "domain_mix": {"Books": 1.0}, "latent_name": "q",
            "channels": {"c": {"loading": 1, "noise": 0.5, "offset": 0, "scale": 2}},
            "token_mean": 20, "token_sigma": 0.1,
        },
    }
    cfg = parse_config(raw, tmp_path)
    assert cfg.output_dir == tmp_path / "results"
    assert cfg.corpus_path == tmp_path / "c.jsonl"
    assert cfg.corpus.domains == ("CommonCrawl", "Books")
    assert cfg.scores.importance.targets == {"books": tmp_path / "b.jsonl"}
    assert cfg.scores.ratings.files == [tmp_path / "r.jsonl"]
    # a JSON integer stays an integer where a number is expected
    assert cfg.plan.domain_targets == {"CommonCrawl": 1}
    assert type(cfg.plan.domain_targets["CommonCrawl"]) is int
    assert cfg.campaign.trainer == CommandTrainer(["python3", "t.py"], timeout=30)
    assert cfg.campaign.proxy.hidden_dim == 64
    hyper = cfg.optimizer.hyper
    assert (hyper.n_trees, hyper.max_depth, hyper.learning_rate) == (5, 2, 0.1)
    assert (hyper.subsample, hyper.min_samples_leaf, hyper.seed) == (1, 2, 7)
    assert cfg.synthesis.channels["c"].scale == 2


def test_defaults_and_root_seed(tmp_path):
    cfg = parse_config({"seed": 3, "campaign": {"trainer": ORACLE}}, tmp_path)
    assert cfg.output_dir == tmp_path / "out"
    assert cfg.corpus_path is None and cfg.plan is None and cfg.synthesis is None
    assert cfg.optimizer.hyper.seed == 3 and cfg.optimizer.hyper.n_trees == 100
    trainer = cfg.require_trainer()
    assert isinstance(trainer, OracleTrainer)
    assert trainer.seed == 3 and trainer.w_star.as_mapping() == {"a": 0.5, "b": 0.5}
    with pytest.raises(ValidationError, match="no campaign.trainer"):
        parse_config({}, tmp_path).require_trainer()


def test_readme_minimal_config_parses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"A minimal end-to-end config:\s*```json\n(.*?)```", readme, re.S)
    config = tmp_path / "run.json"
    config.write_text(block.group(1))
    cfg = load_config(config)
    assert cfg.corpus_path == tmp_path / "corpus.jsonl"
    assert cfg.require_plan().token_budget > 0
    assert isinstance(cfg.require_trainer(), CommandTrainer)
