"""Acceptance suite: one test per criterion, one printed line per criterion.

Each test prints ``[criterion N] PASS|FAIL ...`` directly to the real
stdout so the verdict survives pytest's capture. Criterion 6 asserts the
required 18/20 recovery bar at its required noise level; development
measurements put that bar beyond what this pipeline design can resolve
(see the assertion message for the numbers), so it fails honestly rather
than being loosened.
"""

import json
import math
import sys
import time

import numpy as np

from qselect.cli import main as cli_main
from qselect.corpus import ScoreChannel, SynthesisSpec, synthesize_corpus
from qselect.gbt import RegressorHyper
from qselect.importance import features, fit_bag_model, hash_corpus, importance_score
from qselect.matrix import ScoreMatrix, rank_normalize, spearman_matrix
from qselect.optimizer import (
    OptimizerConfig,
    fit_regressor,
    pca_landscape,
    rank_weights,
    search_optimal,
)
from qselect.proxy import (
    CampaignConfig,
    ExperimentRecord,
    OracleTrainer,
    oracle_loss,
    run_campaign,
    sample_weights,
)
from qselect.registry import DEFAULT_DOMAIN_WEIGHTS, SIGNAL_NAMES
from qselect.selection import (
    SelectionPlan,
    WeightVector,
    aggregate_scores,
    select_top_k,
)
from qselect.signals import compute_signals
from qselect.tokens import tokenize

from conftest import (
    Row,
    SubsetOracleTrainer,
    bucket_of,
    matrix_of,
    mixed_language_fixture,
    random_text,
    reference_weights,
    uniform_weights,
)
from oracles import ref_all_signals, ref_dot, ref_spearman, ref_unhashed_log_ratio


def verdict(criterion: int, ok: bool, detail: str) -> None:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}\n"
    sys.__stdout__.write(line)
    sys.__stdout__.flush()


class TestCriterion1Flops:
    def test_cost_reproduces_pretraining_constants(self, capsys):
        start = time.monotonic()
        assert cli_main(["cost", "--params", "1.3e9", "--tokens", "30e9"]) == 0
        row_13 = json.loads(capsys.readouterr().out)["flops_1e19"]
        assert cli_main(["cost", "--params", "3.3e9", "--tokens", "100e9"]) == 0
        row_33 = json.loads(capsys.readouterr().out)["flops_1e19"]
        elapsed = time.monotonic() - start
        ok = (
            abs(row_13 - 23.40) < 0.005  # exact to 3 significant figures
            and abs(row_33 - 198.00) < 0.005
            and elapsed < 1.0
        )
        verdict(1, ok, f"cost rows {row_13:.2f} / {row_33:.2f} x1e19 in {elapsed:.3f}s")
        assert ok


class TestCriterion2ReferenceWeights:
    def test_published_weights_rank_and_aggregate(self, rng):
        w = reference_weights()
        report = rank_weights(w)
        order_ok = (
            report[0]["name"] == "Educational Value"
            and report[-1]["name"] == "Writing Style"
            and report[-1]["rank"] == 25
        )
        # published percentages carry a 0.30 rounding surplus; after
        # projection onto the simplex the top weight lands at 5.62
        pct_ok = abs(report[0]["pct"] - 5.64) < 0.03 and abs(report[-1]["pct"] - 0.05) < 0.005

        names = list(w.names)
        values = rng.random(size=(10, 25))
        matrix = ScoreMatrix(
            names, [f"d{i}" for i in range(10)], ["C4"] * 10, [1] * 10, values, normalized=values
        )
        got = aggregate_scores(matrix, w)
        aligned = w.aligned_to(names)
        dot_ok = all(
            abs(got[i] - ref_dot(values[i].tolist(), aligned.tolist())) <= 1e-12
            for i in range(10)
        )
        ok = order_ok and pct_ok and dot_ok
        verdict(
            2,
            ok,
            f"rank1={report[0]['name']} ({report[0]['pct']:.2f}%), "
            f"rank25={report[-1]['name']} ({report[-1]['pct']:.2f}%), dot oracle 1e-12",
        )
        assert ok


class TestCriterion3Signals:
    def test_oracle_suite_and_properties(self):
        start = time.monotonic()
        fixture_ok = True
        for text in mixed_language_fixture(200):
            got = compute_signals(text)
            want = ref_all_signals(text)
            for name in SIGNAL_NAMES:
                if name in ("doc_word_count", "doc_num_sentences"):
                    fixture_ok &= got[name] == want[name]
                else:
                    fixture_ok &= abs(got[name] - want[name]) <= 1e-12

        fracs = [n for n in SIGNAL_NAMES if "frac" in n or n.startswith("lines_")]
        prop_ok = True
        gen = np.random.default_rng(424242)
        for _ in range(10_000):
            text = random_text(gen)
            sig = compute_signals(text)
            prop_ok &= all(0.0 <= sig[f] <= 1.0 for f in fracs)
            n = sig["doc_word_count"]
            prop_ok &= sig["doc_unigram_entropy"] >= 0.0
            if n >= 1:
                prop_ok &= sig["doc_unigram_entropy"] <= math.log(n) + 1e-9
            prop_ok &= sig == compute_signals(text)
        elapsed = time.monotonic() - start
        ok = fixture_ok and prop_ok and elapsed < 30.0
        verdict(
            3,
            ok,
            f"200-doc oracle match={fixture_ok}, 10k-string properties={prop_ok}, "
            f"{elapsed:.1f}s",
        )
        assert ok


class TestCriterion4Importance:
    def test_hashed_matches_unhashed_and_antisymmetry(self):
        vocab = [f"w{i:02d}" for i in range(100)]
        buckets, seed = 1 << 22, 1  # verified collision-free for this fixture

        def texts(gen, count):
            return [
                " ".join(gen.choice(vocab, size=int(gen.integers(1, 40))))
                for _ in range(count)
            ]

        gen = np.random.default_rng(42)
        p_texts, q_texts, score_texts = texts(gen, 40), texts(gen, 40), texts(gen, 120)
        p = fit_bag_model(hash_corpus(tokenize(p_texts), buckets, seed), smoothing=1.0)
        q = fit_bag_model(hash_corpus(tokenize(q_texts), buckets, seed), smoothing=1.0)
        feats = set()
        for t in p_texts + q_texts + score_texts:
            feats.update(features(t))
        collision_free = len({bucket_of(p, f) for f in feats}) == len(feats)
        equiv_ok = all(
            abs(
                importance_score(t, p, q)
                - ref_unhashed_log_ratio(t, p_texts, q_texts, 1.0, buckets)
            )
            <= 1e-12
            for t in score_texts
        )
        anti_ok = all(
            abs(importance_score(t, p, q) + importance_score(t, q, p)) <= 1e-9
            for t in texts(gen, 1000)
        )
        ok = collision_free and equiv_ok and anti_ok
        verdict(
            4,
            ok,
            f"collision-free={collision_free}, unhashed match 1e-12={equiv_ok}, "
            f"anti-symmetry(1000)={anti_ok}",
        )
        assert ok


def random_pool(gen, n_docs, names):
    domains = list(DEFAULT_DOMAIN_WEIGHTS)
    probs = np.array([DEFAULT_DOMAIN_WEIGHTS[d] for d in domains])
    probs /= probs.sum()
    tags = gen.choice(domains, size=n_docs, p=probs)
    docs = [Row(f"d{i:05d}", str(tags[i]), int(gen.integers(20, 200))) for i in range(n_docs)]
    return docs, matrix_of(docs, names, gen.normal(size=(n_docs, len(names))))


def prefix_sort_reference(matrix, docs, w, plan):
    scores = matrix.normalized @ np.array([w.as_mapping()[n] for n in matrix.score_names])
    by_id = {doc_id: scores[i] for i, doc_id in enumerate(matrix.doc_ids)}
    chosen = set()
    for domain, prop in plan.domain_targets.items():
        target = plan.token_budget * prop
        pool = sorted(
            (d for d in docs if d.domain == domain), key=lambda d: (-by_id[d.id], d.id)
        )
        used = 0.0
        for d in pool:
            if used >= target:
                break
            chosen.add(d.id)
            used += d.token_estimate
    return chosen


class TestCriterion5Selection:
    def test_equivalence_proportions_invariance(self):
        names = ["s0", "s1", "s2"]
        equiv_ok = True
        for trial in range(100):
            gen = np.random.default_rng(81000 + trial)
            n = 10_000 if trial >= 98 else int(gen.integers(100, 3000))
            docs, matrix = random_pool(gen, n, names)
            w = WeightVector(tuple(names), gen.dirichlet(np.ones(3)))
            budget = max(1, int(0.3 * sum(d.token_estimate for d in docs)))
            plan = SelectionPlan(budget)
            got = set(select_top_k(matrix, w, plan).selected_ids)
            equiv_ok &= got == prefix_sort_reference(matrix, docs, w, plan)

        gen = np.random.default_rng(555)
        docs, matrix = random_pool(gen, 12_000, ["q"])
        total = sum(d.token_estimate for d in docs)
        plan = SelectionPlan(int(total * 0.3))
        result = select_top_k(matrix, WeightVector(("q",), np.array([1.0])), plan)
        prop_ok = total > 1_000_000 and all(
            abs(result.achieved_proportions[d] - p) <= 0.005
            for d, p in plan.domain_targets.items()
        )

        transformed = matrix.raw.copy()
        transformed[:, 0] = np.exp(2.0 * transformed[:, 0]) - 3.0
        matrix2 = rank_normalize(
            ScoreMatrix(["q"], matrix.doc_ids, matrix.domains, matrix.tokens, transformed)
        )
        again = select_top_k(matrix2, WeightVector(("q",), np.array([1.0])), plan)
        invariance_ok = set(again.selected_ids) == set(result.selected_ids)

        ok = equiv_ok and prop_ok and invariance_ok
        verdict(
            5,
            ok,
            f"brute-force match (100 trials)={equiv_ok}, proportions within "
            f"0.005={prop_ok}, monotone invariance={invariance_ok}",
        )
        assert ok


def pipeline_recovery_trial(m, trial_seed):
    """One full recovery trial at the stated settings: N=256 flat-Dirichlet
    weights, quadratic oracle, noise sigma = 10% of the clean loss range,
    default regression and search parameters."""
    names = tuple(f"s{j}" for j in range(m))
    gen = np.random.default_rng(trial_seed)
    w_star = WeightVector(names, gen.dirichlet(np.ones(m)))
    weights = sample_weights(names, 256, seed=trial_seed + 1)
    clean = [oracle_loss(w, OracleTrainer(w_star=w_star, base=1.0, sigma=0.0)) for w in weights]
    sigma = 0.10 * (max(clean) - min(clean))
    oracle = OracleTrainer(w_star=w_star, base=1.0, sigma=sigma, seed=trial_seed + 2)
    records = [
        ExperimentRecord(f"exp-{i:04d}", w.as_mapping(), oracle_loss(w, oracle), "ok", "")
        for i, w in enumerate(weights)
    ]
    model = fit_regressor(records, RegressorHyper(seed=0))
    outcome = search_optimal(model, OptimizerConfig(), seed=trial_seed + 3)
    return float(np.abs(outcome.w_star.aligned_to(names) - w_star.values).sum())


class TestCriterion6OptimizerRecovery:
    def test_planted_optimum_recovery(self):
        start = time.monotonic()
        passes = {}
        for m in (3, 5, 10):
            errs = [pipeline_recovery_trial(m, 91000 + 17 * t) for t in range(20)]
            passes[m] = sum(e <= 0.2 for e in errs)
        elapsed = time.monotonic() - start
        ok = all(count >= 18 for count in passes.values()) and elapsed < 300.0
        verdict(
            6,
            ok,
            f"recovery within 0.2: m=3 {passes[3]}/20, m=5 {passes[5]}/20, "
            f"m=10 {passes[10]}/20 (need 18/20 each), {elapsed:.0f}s",
        )
        assert ok, (
            f"recovery pass counts {passes} below the 18/20 bar. Development "
            "measurements: at this noise level (sigma = 10% of loss range) a "
            "least-squares fit of the exact quadratic form - the "
            "information-theoretic best case - recovers only 16/20 at m=10, "
            "and the piecewise-constant tree ensemble at its default settings "
            "resolves 9/20 at m=3, 6/20 at m=5 and 1/20 at m=10; no "
            "hyperparameter setting tried reached the bar (trees "
            "100..1000, depth 3..6, leaf 1..32, subsample 0.5..1.0, k "
            "30..3000, bagged ensembles). The bar is attainable only for "
            "sigma <= ~2% of the loss range (19/20 at m=5) and m <= 5."
        )


class TestCriterion7EndToEndSuperiority:
    def test_learned_weights_beat_uniform(self, tmp_path):
        channels = {
            f"ch{j}": ScoreChannel(
                loading=1.0 if j < 2 else 0.0, noise=0.3 if j < 2 else 1.0
            )
            for j in range(8)
        }
        names = list(channels)
        wins = 0
        for t in range(20):
            seed = 3000 + 7 * t
            spec = SynthesisSpec(
                doc_count=1200, channels=channels, latent_name="_latent", token_mean=30.0
            )
            full = ScoreMatrix.from_documents(synthesize_corpus(spec, seed)[1])
            latent = full.raw[:, full.score_names.index("_latent")]
            quality = dict(zip(full.doc_ids, latent.tolist()))
            raw = full.raw[:, [full.score_names.index(name) for name in names]]
            matrix = rank_normalize(
                ScoreMatrix(names, full.doc_ids, full.domains, full.tokens, raw)
            )
            plan = SelectionPlan(8000)
            trainer = SubsetOracleTrainer(quality, base=2.0, sigma=0.01, seed=seed)
            records = run_campaign(
                matrix, plan, CampaignConfig(n=48, trainer=trainer), seed=seed,
                out_dir=tmp_path / f"camp{seed}",
            )
            model = fit_regressor(records, RegressorHyper(seed=seed))
            outcome = search_optimal(model, OptimizerConfig(), seed=seed)
            noiseless = SubsetOracleTrainer(quality, base=2.0, sigma=0.0)
            loss_star = noiseless.loss_for_ids(
                select_top_k(matrix, outcome.w_star, plan).selected_ids
            )
            loss_mean = noiseless.loss_for_ids(
                select_top_k(matrix, uniform_weights(names), plan).selected_ids
            )
            wins += loss_star < loss_mean
        ok = wins >= 19
        verdict(7, ok, f"learned weights beat uniform in {wins}/20 trials (need 19)")
        assert ok


class TestCriterion8Statistics:
    def test_spearman_and_pca(self):
        gen = np.random.default_rng(777)
        sym_ok = diag_ok = oracle_ok = True
        for _ in range(100):
            n = int(gen.integers(3, 25))
            m = int(gen.integers(2, 6))
            raw = gen.integers(0, 7, size=(n, m)).astype(float)
            matrix = ScoreMatrix(
                [f"c{j}" for j in range(m)], [f"d{i}" for i in range(n)], ["C4"] * n, [1] * n, raw
            )
            rho, flagged = spearman_matrix(matrix)
            sym_ok &= np.allclose(rho, rho.T, equal_nan=True)
            diag_ok &= bool(np.all(np.diag(rho) == 1.0))
            for i in range(m):
                for j in range(i + 1, m):
                    want = ref_spearman(raw[:, i].tolist(), raw[:, j].tolist())
                    if math.isnan(want):
                        oracle_ok &= bool(flagged[i, j])
                    else:
                        oracle_ok &= abs(rho[i, j] - want) <= 1e-12

        names = [f"s{j}" for j in range(6)]
        w_star = WeightVector(tuple(names), np.random.default_rng(1).dirichlet(np.ones(6)))
        oracle = OracleTrainer(w_star=w_star, base=1.0, sigma=0.0)
        records = [
            ExperimentRecord(f"exp-{i:04d}", w.as_mapping(), oracle_loss(w, oracle), "ok", "")
            for i, w in enumerate(sample_weights(names, 64, seed=2))
        ]
        model = fit_regressor(records)
        land = pca_landscape(records, model, OptimizerConfig(grid=9))
        v1, v2 = land.components
        pca_ok = (
            abs(float(np.dot(v1, v2))) < 1e-9
            and abs(float(np.linalg.norm(v1)) - 1.0) < 1e-9
            and abs(float(np.linalg.norm(v2)) - 1.0) < 1e-9
        )
        ok = sym_ok and diag_ok and oracle_ok and pca_ok
        verdict(
            8,
            ok,
            f"spearman symmetric={sym_ok}, unit diagonal={diag_ok}, oracle "
            f"1e-12 (100 matrices)={oracle_ok}, pca orthonormal 1e-9={pca_ok}",
        )
        assert ok


class TestCriterion9Reproducibility:
    def test_every_command_is_byte_identical_on_rerun(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text(
            json.dumps(
                {
                    "seed": 11,
                    "output_dir": "out",
                    "corpus": {"path": "synth.jsonl"},
                    "synthesis": {
                        "doc_count": 400,
                        "channels": {
                            "ch0": {"loading": 1.0, "noise": 0.4},
                            "ch1": {"loading": 0.0, "noise": 1.0},
                            "ch2": {"loading": 0.0, "noise": 1.0},
                        },
                        "token_mean": 30.0,
                    },
                    "plan": {"token_budget": 3000},
                    "campaign": {
                        "n": 24,
                        "trainer": {
                            "type": "oracle",
                            "w_star": {"ch0": 0.6, "ch1": 0.2, "ch2": 0.2},
                            "base": 2.0,
                            "sigma": 0.02,
                        },
                    },
                    "optimizer": {"candidates": 20_000, "top_k": 50},
                }
            )
        )
        weights_path = tmp_path / "w.json"
        weights_path.write_text(
            json.dumps([
                {"name": "ch0", "weight": 0.5},
                {"name": "ch1", "weight": 0.25},
                {"name": "ch2", "weight": 0.25},
            ])
        )

        def run_all():
            outputs = {}
            assert cli_main(["synth", "--config", str(config_path)]) == 0
            assert cli_main(["annotate", "--config", str(config_path), "--corpus",
                             str(tmp_path / "out" / "synth.jsonl")]) == 0
            assert cli_main(["select", "--config", str(config_path), "--weights",
                             str(weights_path), "--corpus",
                             str(tmp_path / "out" / "synth.jsonl")]) == 0
            assert cli_main(["campaign", "--config", str(config_path), "--corpus",
                             str(tmp_path / "out" / "synth.jsonl")]) == 0
            assert cli_main(["fit", "--config", str(config_path)]) == 0
            assert cli_main(["correlate", "--config", str(config_path), "--corpus",
                             str(tmp_path / "out" / "synth.jsonl")]) == 0
            assert cli_main(["cost", "--params", "1.3e9", "--tokens", "30e9"]) == 0
            outputs["cost_stdout"] = capsys.readouterr().out.strip().splitlines()[-1].encode()
            out_dir = tmp_path / "out"
            for name in (
                "synth.jsonl",
                "synth.scores.npz",
                "annotated.jsonl",
                "annotated.scores.npz",
                "selection.txt",
                "selection.json",
                "campaign.jsonl",
                "weights.json",
                "landscape.csv",
                "spearman.csv",
            ):
                outputs[name] = (out_dir / name).read_bytes()
            return outputs

        first = run_all()
        # wipe outputs; rerun from scratch with the same root seed
        for child in (tmp_path / "out").iterdir():
            if child.is_file():
                child.unlink()
            else:
                for sub in child.iterdir():
                    sub.unlink()
                child.rmdir()
        second = run_all()
        mismatched = [k for k in first if first[k] != second[k]]
        ok = not mismatched
        verdict(9, ok, f"byte-identical outputs across reruns ({len(first)} artifacts)"
                if ok else f"mismatched artifacts: {mismatched}")
        assert ok
