"""annotate and synth write the same bytes as the per-document score-dict
path they replaced (``oracles.ref_annotate`` / ``oracles.ref_synth``)."""

import json
import logging

import numpy as np
import pytest

from qselect import cli
from qselect.matrix import ScoreMatrix, store_path

from conftest import kernel_text
from oracles import ref_annotate, ref_load_corpus, ref_read_annotations, ref_synth

DOMAINS = ["CommonCrawl", "C4", "Books", "Wikipedia"]
# Ratings, ad hoc channels, a signal and an importance name: annotate
# recomputes the last two when it computes signals and importance.
INPUT_NAMES = ["Fluency", "Readability", "zz_channel", "aa_channel", "doc_word_count",
               "books_importance"]
RATERS = ["Fluency", "Professionalism", "Reasoning"]


def score_text(rng):
    """A ``scores`` object in a random key order; int, float and -0.0
    values; now and then a key repeated inside it."""
    names = [INPUT_NAMES[int(j)] for j in rng.permutation(len(INPUT_NAMES))]
    names = names[: int(rng.integers(0, len(names) + 1))]
    values = []
    for name in names:
        kind = int(rng.integers(0, 4))
        if kind == 0:
            values.append(str(int(rng.integers(-3, 6))))
        elif kind == 1:
            values.append("-0.0")
        else:
            values.append(repr(float(rng.normal() * 10.0 ** int(rng.integers(-5, 5)))))
    pairs = [f"{json.dumps(n)}: {v}" for n, v in zip(names, values)]
    if pairs and rng.random() < 0.2:
        pairs.append(f"{json.dumps(names[0])}: {float(rng.normal())!r}")
    return "{" + ", ".join(pairs) + "}"


def write_corpus_lines(path, seed, strict_half=False):
    """A seeded corpus: mixed key orders, records without ``scores`` and
    with ``{}``, and one rejected line. With ``strict_half``, the first half
    of the records carry ``doc_word_count`` and nothing else."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    lines = []
    for i in range(n):
        head = json.dumps({"id": f"d{i:03d}", "text": kernel_text(rng),
                           "domain": DOMAINS[int(rng.integers(0, len(DOMAINS)))]})
        if strict_half:
            scores = f'{{"doc_word_count": {i}}}' if i < n // 2 else None
        else:
            kind = int(rng.integers(0, 5))
            scores = None if kind == 0 else "{}" if kind == 1 else score_text(rng)
        lines.append(head if scores is None else f'{head[:-1]}, "scores": {scores}}}')
    lines.insert(int(rng.integers(0, n)), '{"id": "bad", "text": 3}')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_ratings(path, seed, n_docs):
    """Ratings with gaps: the first document has every rating, each other
    (document, rater) pair one with p=0.6; plus one of an unknown document."""
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n_docs):
            for rater in RATERS:
                if i == 0 or rng.random() < 0.6:
                    value = int(rng.integers(0, 6)) if rng.random() < 0.5 else float(rng.uniform(0, 5))
                    fh.write(json.dumps({"doc_id": f"d{i:03d}", "rater": rater, "value": value}) + "\n")
        fh.write(json.dumps({"doc_id": "ghost", "rater": RATERS[0], "value": 1}) + "\n")


def write_more_ratings(path, corpus_path):
    """A second ratings file: it rates again a (document, rater) pair of the
    first with another value, gives the PRRC bounds 0 and 5, repeats an
    unknown id, and has ``aa_channel`` rate only documents whose input
    already holds it, so that rater fills no cell."""
    ratings = [("d000", "Fluency", 4.25), ("d000", "Professionalism", 0), ("d000", "Reasoning", 5),
               ("ghost", "Fluency", 2), ("ghost", "Reasoning", 3), ("ghost", "Reasoning", 4)]
    for line in corpus_path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if "aa_channel" in (record.get("scores") or {}):
            ratings.append((record["id"], "aa_channel", -1.5))
    path.write_text("".join(json.dumps({"doc_id": d, "rater": r, "value": v}) + "\n"
                            for d, r, v in ratings), encoding="utf-8")


VARIANTS = {
    "pass-through": {"signals": False},
    "signals": {"signals": True},
    "ratings": {"signals": False, "ratings": {"files": ["r.jsonl"]}},
    "ratings-merged": {"signals": False, "ratings": {"files": ["r.jsonl", "r2.jsonl"]}},
    "all": {"signals": True, "importance": {"targets": {"books": "books.jsonl",
                                                        "wikipedia": "wiki.jsonl"},
                                            "bucket_count": 257},
            "ratings": {"files": ["r.jsonl"]}},
}


def rating_log(cfg, corpus_path, coverage):
    """What annotate logs about ratings, from the reference's reader and
    coverage: a line for every rater read (0.000 for one that filled no
    cell), then the count of distinct (rater, doc id) pairs whose doc id
    has no row."""
    if cfg.scores.ratings is None:
        return []
    pairs = {(a.rater, a.doc_id) for a in ref_read_annotations(cfg.scores.ratings.files)}
    ids = {doc.id for doc in ref_load_corpus(corpus_path, cfg.corpus)}
    lines = [f"rating coverage {r}: {coverage.get(r, 0.0):.3f}" for r in sorted({r for r, _ in pairs})]
    unknown = sum(doc_id not in ids for _, doc_id in pairs)
    if unknown:
        lines.append(f"{unknown} (rater, doc id) pairs referenced unknown doc ids")
    return lines


def annotate_both(tmp_path, seed, estimator, scores, strict_half=False):
    """Run annotate and the reference on one seeded corpus; return the
    paths of both outputs and the rating lines annotate should log."""
    write_corpus_lines(tmp_path / "c.jsonl", seed, strict_half)
    for name, target_seed in (("books.jsonl", seed + 1000), ("wiki.jsonl", seed + 2000)):
        write_corpus_lines(tmp_path / name, target_seed)
    write_ratings(tmp_path / "r.jsonl", seed, 30)
    write_more_ratings(tmp_path / "r2.jsonl", tmp_path / "c.jsonl")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "seed": seed, "output_dir": "out",
        "corpus": {"path": "c.jsonl", "token_estimator": estimator},
        "scores": scores,
    }))
    assert cli.main(["annotate", "--config", str(config)]) == 0
    got = tmp_path / "out" / "annotated.jsonl"
    want = tmp_path / "ref.jsonl"
    cfg = cli.load_config(config)
    coverage = ref_annotate(cfg, tmp_path / "c.jsonl", want)
    return got, want, rating_log(cfg, tmp_path / "c.jsonl", coverage)


def assert_same_bytes(got, want):
    assert got.read_bytes() == want.read_bytes()
    assert store_path(got).read_bytes() == store_path(want).read_bytes()


@pytest.mark.parametrize("estimator", ["whitespace", "char_ratio"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_annotate_matches_reference(tmp_path, caplog, capsys, estimator, variant):
    caplog.set_level(logging.INFO, logger="qselect.cli")
    for seed in range(12):
        caplog.clear()
        got, want, expected_log = annotate_both(tmp_path, seed, estimator, VARIANTS[variant])
        assert_same_bytes(got, want)
        # Coverage counts only the cells a rating filled, not those the
        # input already held.
        logged = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("rating coverage") or "unknown doc ids" in r.getMessage()]
        assert logged == expected_log


@pytest.mark.parametrize("variant", ["pass-through", "ratings"])
def test_strict_column_passes_through_unimputed(tmp_path, capsys, variant):
    for seed in range(4):
        got, want, _ = annotate_both(tmp_path, seed, "whitespace", VARIANTS[variant],
                                     strict_half=True)
        assert_same_bytes(got, want)


def test_corpus_with_no_valid_lines(tmp_path, capsys):
    (tmp_path / "c.jsonl").write_text('{"id": "bad"}\n{"id": "a", "text": "t"}\n')
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"output_dir": "out", "corpus": {"path": "c.jsonl"}}))
    assert cli.main(["annotate", "--config", str(config)]) == 0
    ref_annotate(cli.load_config(config), tmp_path / "c.jsonl", tmp_path / "ref.jsonl")
    assert_same_bytes(tmp_path / "out" / "annotated.jsonl", tmp_path / "ref.jsonl")


# Criterion 9's synthesis section, and one with a latent column.
SYNTHESES = {
    "criterion-9": {
        "doc_count": 400,
        "channels": {
            "ch0": {"loading": 1.0, "noise": 0.4},
            "ch1": {"loading": 0.0, "noise": 1.0},
            "ch2": {"loading": 0.0, "noise": 1.0},
        },
        "token_mean": 30.0,
    },
    "latent": {"doc_count": 120, "channels": {"q": {"loading": 1.0, "offset": 2, "scale": 3}},
               "latent_name": "_latent"},
    "unscored": {"doc_count": 50},
}


@pytest.mark.parametrize("estimator", ["whitespace", "char_ratio"])
@pytest.mark.parametrize("synthesis", sorted(SYNTHESES))
def test_synth_matches_reference(tmp_path, capsys, estimator, synthesis):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "seed": 11, "output_dir": "out", "corpus": {"token_estimator": estimator},
        "synthesis": SYNTHESES[synthesis],
    }))
    assert cli.main(["synth", "--config", str(config)]) == 0
    ref_synth(cli.load_config(config), tmp_path / "ref.jsonl")
    assert_same_bytes(tmp_path / "out" / "synth.jsonl", tmp_path / "ref.jsonl")


def test_each_run_builds_one_matrix(tmp_path, capsys, monkeypatch):
    build = ScoreMatrix.__dict__["from_documents"].__func__
    calls = []

    def counted(cls, *args, **kwargs):
        calls.append(cls)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(ScoreMatrix, "from_documents", classmethod(counted))
    annotate_both(tmp_path, 0, "whitespace", VARIANTS["all"])
    assert len(calls) == 1
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"output_dir": "out", "synthesis": SYNTHESES["latent"]}))
    assert cli.main(["synth", "--config", str(config)]) == 0
    assert len(calls) == 2
