"""The score store: annotate and synth write it, select/campaign/correlate read it."""

import json

import numpy as np
import pytest

from qselect import cli
from qselect.corpus import CorpusSchema
from qselect.matrix import store_path

from oracles import ref_load_scored_matrix

# Ratings-like columns (int and float values) and ad hoc channels; none is
# a signal or importance column, so a missing cell is imputed.
SCORE_NAMES = ["Professionalism", "Readability", "Fluency", "zz_channel", "aa_channel"]
DOMAINS = ["CommonCrawl", "C4", "Books", "Wikipedia"]


def write_scored_corpus(path, seed):
    """A seeded corpus: int and float scores, ties, -0.0, documents missing
    some or all scores, and one rejected line."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    lines = []
    for i in range(n):
        scores = {}
        for j, name in enumerate(SCORE_NAMES):
            if i > 0 and rng.random() < 0.25:
                continue  # a missing rating; the first document has them all
            if j < 2:
                scores[name] = int(rng.integers(0, 6))
            elif j == 2:
                scores[name] = float(rng.choice([-0.0, 0.5, 1.25]))
            else:
                scores[name] = float(rng.normal())
        words = " ".join("w" * int(k) for k in rng.integers(1, 9, int(rng.integers(0, 12))))
        rec = {"id": f"d{i:03d}", "text": words, "domain": DOMAINS[int(rng.integers(0, 4))]}
        if scores or rng.random() < 0.5:
            rec["scores"] = scores
        lines.append(json.dumps(rec))
    lines.insert(int(rng.integers(0, n)), '{"id": "bad", "text": 3}')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_config(tmp_path, **sections):
    cfg = {"seed": 1, "output_dir": "out", "scores": {"signals": False}, **sections}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def loaded(config, corpus):
    """The matrix ``select`` and ``campaign`` work on: the store, imputed and normalized."""
    cfg = cli.load_config(config)
    matrix = cli._load_scored_matrix(cfg, corpus)
    return cli.rank_normalize(matrix)


def assert_same_matrix(got, want):
    assert got.doc_ids == want.doc_ids
    assert got.score_names == want.score_names
    assert got.domains.tolist() == want.domains.tolist()
    assert got.tokens.dtype == want.tokens.dtype and got.tokens.tolist() == want.tokens.tolist()
    for a, b in ((got.raw, want.raw), (got.normalized, want.normalized)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("estimator", ["whitespace", "char_ratio"])
def test_store_matches_jsonl_load(tmp_path, capsys, estimator):
    for seed in range(30):
        corpus = write_scored_corpus(tmp_path / f"c{seed}.jsonl", seed)
        config = write_config(
            tmp_path,
            corpus={"path": corpus.name, "token_estimator": estimator},
        )
        assert cli.main(["annotate", "--config", str(config)]) == 0
        annotated = tmp_path / "out" / "annotated.jsonl"
        got = loaded(config, annotated)
        schema = CorpusSchema(token_estimator=estimator)
        assert_same_matrix(got, ref_load_scored_matrix(corpus, schema))
        assert_same_matrix(got, ref_load_scored_matrix(annotated, schema))


@pytest.mark.parametrize("estimator", ["whitespace", "char_ratio"])
def test_synth_store_matches_jsonl_load(tmp_path, capsys, estimator):
    channels = {"q": {"loading": 1.0, "noise": 0.3}, "r": {"offset": 2, "scale": 3}}
    config = write_config(
        tmp_path,
        corpus={"token_estimator": estimator},
        synthesis={"doc_count": 300, "channels": channels, "latent_name": "_latent"},
    )
    assert cli.main(["synth", "--config", str(config)]) == 0
    synth = tmp_path / "out" / "synth.jsonl"
    want = ref_load_scored_matrix(synth, CorpusSchema(token_estimator=estimator))
    assert_same_matrix(loaded(config, synth), want)


def test_annotate_with_signals_writes_matching_store(tmp_path, capsys):
    corpus = write_scored_corpus(tmp_path / "c.jsonl", 5)
    config = write_config(tmp_path, corpus={"path": "c.jsonl"}, scores={"signals": True})
    assert cli.main(["annotate", "--config", str(config)]) == 0
    annotated = tmp_path / "out" / "annotated.jsonl"
    want = ref_load_scored_matrix(annotated, CorpusSchema())
    assert_same_matrix(loaded(config, annotated), want)


def test_rerun_writes_the_same_store_bytes(tmp_path, capsys):
    corpus = write_scored_corpus(tmp_path / "c.jsonl", 3)
    config = write_config(tmp_path, corpus={"path": corpus.name})
    store = tmp_path / "out" / "annotated.scores.npz"
    assert cli.main(["annotate", "--config", str(config)]) == 0
    first = store.read_bytes()
    store.unlink()
    assert cli.main(["annotate", "--config", str(config)]) == 0
    assert store.read_bytes() == first


def test_id_ending_in_nul_is_refused(tmp_path, capsys):
    # A numpy string array drops trailing NULs, so the store could not
    # give this id back.
    rec = {"id": "a\u0000", "text": "t", "domain": "C4", "scores": {"s": 1}}
    (tmp_path / "c.jsonl").write_text(json.dumps(rec) + "\n")
    config = write_config(tmp_path, corpus={"path": "c.jsonl"})
    assert cli.main(["annotate", "--config", str(config)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["message"] == "doc id 'a\\x00' ends in NUL, which a score store cannot hold"
    # Refused before anything is written: no JSONL is left without its store.
    assert not (tmp_path / "out").exists()


class TestStoreChecks:
    """Each refused store exits 1 with a ValidationError naming the store."""

    @pytest.fixture
    def annotated(self, tmp_path, capsys):
        write_scored_corpus(tmp_path / "c.jsonl", 1)
        config = write_config(tmp_path, corpus={"path": "c.jsonl"})
        assert cli.main(["annotate", "--config", str(config)]) == 0
        capsys.readouterr()
        return config, tmp_path / "out" / "annotated.jsonl"

    def correlate_error(self, config, corpus, capsys):
        assert cli.main(["correlate", "--config", str(config), "--corpus", str(corpus)]) == 1
        return json.loads(capsys.readouterr().err.strip().splitlines()[-1])

    def rewrite_store(self, corpus, **changes):
        path = store_path(corpus)
        with np.load(path) as store:
            arrays = {name: store[name] for name in store.files}
        arrays.update(changes)
        np.savez(path, **{k: v for k, v in arrays.items() if v is not None})

    def assert_refused(self, config, corpus, capsys, *fragments):
        err = self.correlate_error(config, corpus, capsys)
        assert err["error"] == "ValidationError"
        assert str(store_path(corpus)) in err["message"]
        for fragment in fragments:
            assert fragment in err["message"]

    def test_valid_store_is_read(self, annotated, capsys):
        config, corpus = annotated
        assert cli.main(["correlate", "--config", str(config), "--corpus", str(corpus)]) == 0

    def test_missing_store(self, annotated, capsys):
        config, corpus = annotated
        store_path(corpus).unlink()
        self.assert_refused(config, corpus, capsys, "does not exist; run annotate first")

    def test_edited_corpus(self, annotated, capsys):
        config, corpus = annotated
        corpus.write_text(corpus.read_text().replace("d000", "d999"))
        self.assert_refused(config, corpus, capsys, f"does not match {corpus}")

    @pytest.mark.parametrize(
        "schema, key",
        [({"token_estimator": "char_ratio"}, "corpus.token_estimator"),
         ({"domains": DOMAINS}, "corpus.domains")],
    )
    def test_other_schema(self, annotated, capsys, schema, key):
        config, corpus = annotated
        raw = json.loads(config.read_text())
        raw["corpus"].update(schema)
        config.write_text(json.dumps(raw))
        self.assert_refused(config, corpus, capsys, f"built under {key}")

    @pytest.mark.parametrize(
        "content",
        [b"", b"not an archive", b"PK\x03\x04 torn zip", b"\x93NUMPY"],
        ids=["empty", "text", "torn-zip", "torn-npy"],
    )
    def test_unreadable_file(self, annotated, capsys, content):
        config, corpus = annotated
        store_path(corpus).write_bytes(content)
        self.assert_refused(config, corpus, capsys, "is not readable")

    def test_npy_instead_of_npz(self, annotated, capsys):
        config, corpus = annotated
        with open(store_path(corpus), "wb") as fh:
            np.save(fh, np.zeros(3))
        self.assert_refused(config, corpus, capsys, "is not readable", "not an npz archive")

    def test_pickled_array(self, annotated, capsys):
        config, corpus = annotated
        with np.load(store_path(corpus)) as store:
            ids = store["ids"].astype(object)
        self.rewrite_store(corpus, ids=ids)
        self.assert_refused(config, corpus, capsys, "is not readable")

    def test_missing_array(self, annotated, capsys):
        config, corpus = annotated
        self.rewrite_store(corpus, tokens=None)
        self.assert_refused(config, corpus, capsys, "is not readable", "tokens")

    @pytest.mark.parametrize(
        "name, change",
        [
            ("raw", lambda a: a[:, :-1].copy()),
            ("raw", lambda a: a.astype(np.float32)),
            ("tokens", lambda a: a.astype(np.float64)),
            ("tokens", lambda a: a[:-1]),
            ("domains", lambda a: a.astype(bytes)),
            ("ids", lambda a: a.reshape(1, -1)),
            ("sha256", lambda a: np.array([a])),
        ],
        ids=["raw-narrow", "raw-float32", "tokens-float", "tokens-short",
             "domains-bytes", "ids-2d", "sha256-1d"],
    )
    def test_wrong_layout(self, annotated, capsys, name, change):
        config, corpus = annotated
        with np.load(store_path(corpus)) as store:
            array = store[name]
        self.rewrite_store(corpus, **{name: change(array)})
        self.assert_refused(config, corpus, capsys, f"array {name!r} has dtype")

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_cell(self, annotated, capsys, value):
        config, corpus = annotated
        with np.load(store_path(corpus)) as store:
            raw, names = store["raw"].copy(), store["score_names"]
        raw[1, 2] = value
        self.rewrite_store(corpus, raw=raw)
        self.assert_refused(config, corpus, capsys, f"column {str(names[2])!r} holds an infinite")

    @pytest.mark.parametrize("name", ["ids", "score_names"])
    def test_repeated_label(self, annotated, capsys, name):
        config, corpus = annotated
        with np.load(store_path(corpus)) as store:
            labels = store[name].copy()
        labels[1] = labels[0]
        self.rewrite_store(corpus, **{name: labels})
        self.assert_refused(config, corpus, capsys, f"score store {store_path(corpus)}: array {name!r} repeats a value")

    def test_no_valid_documents(self, tmp_path, capsys):
        (tmp_path / "c.jsonl").write_text('{"id": "bad"}\n')
        config = write_config(tmp_path, corpus={"path": "c.jsonl"})
        assert cli.main(["annotate", "--config", str(config)]) == 0
        corpus = tmp_path / "out" / "annotated.jsonl"
        err = self.correlate_error(config, corpus, capsys)
        assert err["message"] == f"corpus {corpus} has no valid documents"

    def test_no_scores(self, tmp_path, capsys):
        (tmp_path / "c.jsonl").write_text('{"id": "a", "text": "t", "domain": "C4"}\n')
        config = write_config(tmp_path, corpus={"path": "c.jsonl"})
        assert cli.main(["annotate", "--config", str(config)]) == 0
        err = self.correlate_error(config, tmp_path / "out" / "annotated.jsonl", capsys)
        assert err["message"] == "corpus documents carry no scores; run annotate first"


def test_synth_refuses_domains_outside_the_schema(tmp_path, capsys):
    config = write_config(
        tmp_path,
        corpus={"domains": ["C4"]},
        synthesis={"doc_count": 10, "domain_mix": {"C4": 0.5, "Books": 0.5}},
    )
    assert cli.main(["synth", "--config", str(config)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["message"] == "synthesis.domain_mix: domains ['Books'] are not in corpus.domains"
    assert not (tmp_path / "out" / "synth.jsonl").exists()


@pytest.mark.parametrize(
    "targets, argv, message",
    [
        ({"Commoncrawl": 0.6, "C4": 0.4}, ["select"], "plan.domain_targets: domains ['Commoncrawl']"),
        ({"Commoncrawl": 0.6, "C4": 0.4}, ["campaign"], "plan.domain_targets: domains ['Commoncrawl']"),
        ({"C4": 1.0}, ["select", "--cc-only"], "--cc-only plan: domains ['CommonCrawl']"),
    ],
    ids=["select", "campaign", "cc-only"],
)
def test_select_and_campaign_refuse_plan_domains_outside_the_schema(tmp_path, capsys, targets, argv, message):
    # The store holds documents of every plan domain that is in the schema,
    # so the refusal comes before the store loads, and nothing is written.
    write_scored_corpus(tmp_path / "c.jsonl", 3)
    schema = ["C4", "Books", "Wikipedia"] if "--cc-only" in argv else DOMAINS
    config = write_config(tmp_path, corpus={"path": "c.jsonl", "domains": schema})
    assert cli.main(["annotate", "--config", str(config)]) == 0
    (tmp_path / "w.json").write_text(json.dumps([{"name": n, "weight": 1} for n in SCORE_NAMES]))
    config = write_config(
        tmp_path,
        corpus={"path": "out/annotated.jsonl", "domains": schema},
        plan={"token_budget": 50, "domain_targets": targets},
        campaign={"n": 2, "trainer": {"type": "oracle", "w_star": {n: 0.2 for n in SCORE_NAMES}}},
    )
    before = {path: path.is_dir() or path.read_bytes() for path in tmp_path.rglob("*")}
    capsys.readouterr()
    weights = ["--weights", str(tmp_path / "w.json")] if argv[0] == "select" else []
    assert cli.main([argv[0], "--config", str(config), *argv[1:], *weights]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["message"] == f"{message} are not in corpus.domains"
    assert {path: path.is_dir() or path.read_bytes() for path in tmp_path.rglob("*")} == before
