import json

import numpy as np
import pytest

from qselect.errors import ValidationError
from qselect.gbt import RegressorHyper
from qselect.optimizer import (
    OptimizerConfig,
    fit_regressor,
    pca_landscape,
    rank_weights,
    read_weights,
    search_optimal,
    write_weights,
)
from qselect.proxy import ExperimentRecord, OracleTrainer, oracle_loss, sample_simplex, sample_weights
from qselect.selection import WeightVector

from conftest import reference_weights
from oracles import ref_landscape_points


def quadratic_records(names, w_star_values, n=256, seed=0, sigma=0.0, base=1.0):
    w_star = WeightVector(tuple(names), np.asarray(w_star_values))
    oracle = OracleTrainer(w_star=w_star, base=base, sigma=sigma, seed=seed)
    records = []
    for i, w in enumerate(sample_weights(names, n, seed=seed + 1)):
        records.append(
            ExperimentRecord(f"exp-{i:04d}", w.as_mapping(), oracle_loss(w, oracle), "ok", "")
        )
    return records, w_star


class TestFitRegressor:
    def test_in_sample_rmse_on_clean_quadratic(self):
        names = [f"s{j}" for j in range(5)]
        rng = np.random.default_rng(7000)
        records, _ = quadratic_records(names, rng.dirichlet(np.ones(5)))
        model = fit_regressor(records, RegressorHyper(seed=0))
        losses = [r.loss for r in records]
        assert model.in_sample_rmse < 0.05 * (max(losses) - min(losses))

    def test_constant_losses_constant_model(self):
        names = ["a", "b"]
        records, _ = quadratic_records(names, [0.5, 0.5], n=20)
        for r in records:
            r.loss = 4.2
        model = fit_regressor(records)
        assert model.predict(WeightVector.uniform(names)) == 4.2

    def test_permutation_invariance(self):
        names = ["a", "b", "c"]
        rng = np.random.default_rng(1)
        records, _ = quadratic_records(names, rng.dirichlet(np.ones(3)), n=64)
        model1 = fit_regressor(records, RegressorHyper(seed=5))
        shuffled = list(records)
        rng.shuffle(shuffled)
        model2 = fit_regressor(shuffled, RegressorHyper(seed=5))
        probe = WeightVector(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))
        grid = sample_weights(names, 200, seed=9)
        p1 = [model1.predict(w) for w in grid] + [model1.predict(probe)]
        p2 = [model2.predict(w) for w in grid] + [model2.predict(probe)]
        assert p1 == p2

    def test_too_few_records_rejected(self):
        names = ["a", "b"]
        records, _ = quadratic_records(names, [0.5, 0.5], n=15)
        with pytest.raises(ValidationError, match="at least 16"):
            fit_regressor(records)

    def test_failed_records_excluded(self):
        names = ["a", "b"]
        records, _ = quadratic_records(names, [0.5, 0.5], n=20)
        records[0].status = "failed"
        records[0].loss = None
        model = fit_regressor(records)
        assert model.in_sample_rmse >= 0.0


class TestSearchOptimal:
    def test_recovers_planted_optimum_noiseless_m5(self):
        names = [f"s{j}" for j in range(5)]
        for seed in (7000, 7001, 7004):
            rng = np.random.default_rng(seed)
            records, w_star = quadratic_records(names, rng.dirichlet(np.ones(5)), seed=seed + 100)
            model = fit_regressor(records, RegressorHyper(seed=0))
            outcome = search_optimal(model, OptimizerConfig(), seed=seed + 200)
            err = float(np.abs(outcome.w_star.aligned_to(names) - w_star.values).sum())
            assert err <= 0.15

    def test_k_equals_j_gives_barycenter(self):
        names = [f"s{j}" for j in range(5)]
        records, _ = quadratic_records(names, [0.2] * 5, n=32)
        model = fit_regressor(records)
        outcome = search_optimal(model, OptimizerConfig(candidates=100_000, top_k=100_000), seed=4)
        assert np.allclose(outcome.w_star.values, 0.2, atol=0.01)

    def test_k_one_returns_best_candidate(self):
        names = ["a", "b", "c"]
        records, _ = quadratic_records(names, [0.5, 0.3, 0.2], n=64)
        model = fit_regressor(records)
        outcome = search_optimal(model, OptimizerConfig(candidates=5000, top_k=1), seed=8)
        candidates = sample_simplex(3, 5000, 8)
        preds = model.booster.predict(candidates)
        best = candidates[np.argmin(preds)]
        assert np.array_equal(outcome.w_star.values, best / best.sum())
        assert outcome.predicted_loss_at_star == pytest.approx(preds.min(), abs=1e-12)

    def test_star_beats_mean_candidate_loss(self):
        names = [f"s{j}" for j in range(4)]
        rng = np.random.default_rng(10)
        records, _ = quadratic_records(names, rng.dirichlet(np.ones(4)))
        model = fit_regressor(records)
        outcome = search_optimal(model, OptimizerConfig(candidates=20_000), seed=11)
        cands = sample_weights(names, 2000, seed=12)
        mean_loss = float(np.mean([model.predict(w) for w in cands]))
        assert outcome.predicted_loss_at_star <= mean_loss


class TestRankWeights:
    def test_reference_fixture_order(self):
        report = rank_weights(reference_weights())
        assert report[0]["name"] == "Educational Value"
        assert report[0]["rank"] == 1
        # published percentage is 5.64; projection onto the simplex shifts
        # it by the 0.30% rounding surplus of the published table
        assert report[0]["pct"] == pytest.approx(5.64, abs=0.03)
        assert report[-1]["name"] == "Writing Style"
        assert report[-1]["rank"] == 25
        assert report[-1]["pct"] == pytest.approx(0.05, abs=0.005)

    def test_reference_fixture_shared_ranks(self):
        report = rank_weights(reference_weights())
        by_name = {row["name"]: row for row in report}
        assert by_name["doc_frac_no_alph_words"]["rank"] == 2
        assert by_name["Fineweb-edu"]["rank"] == 2
        assert by_name["lines_uppercase_letter_fraction"]["rank"] == 4
        assert by_name["doc_frac_chars_top_3gram"]["rank"] == 6
        assert by_name["lines_ending_with_terminal_punctution_mark"]["rank"] == 6
        assert by_name["doc_frac_chars_top_2gram"]["rank"] == 8

    def test_uniform_all_rank_one(self):
        report = rank_weights(WeightVector.uniform(["a", "b", "c"]))
        assert all(row["rank"] == 1 for row in report)

    def test_percentages_sum_to_100(self):
        rng = np.random.default_rng(3)
        w = WeightVector(tuple("abcdef"), rng.dirichlet(np.ones(6)))
        report = rank_weights(w)
        assert sum(row["pct"] for row in report) == pytest.approx(100.0, abs=0.01)


class TestWeightsIO:
    def test_round_trip(self, tmp_path):
        w = reference_weights()
        path = tmp_path / "weights.json"
        write_weights(path, w, seed=123)
        payload = json.loads(path.read_text())
        assert payload["seed"] == 123
        back = read_weights(path)
        assert back.as_mapping() == pytest.approx(w.as_mapping(), abs=1e-15)

    def test_reads_bare_list(self, tmp_path):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps([{"name": "a", "weight": 0.5}, {"name": "b", "weight": 0.5}]))
        w = read_weights(path)
        assert w.as_mapping() == {"a": 0.5, "b": 0.5}

    def test_normalizes(self, tmp_path):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps([{"name": "a", "weight": 3}, {"name": "b", "weight": 1}]))
        assert read_weights(path).as_mapping() == {"a": 0.75, "b": 0.25}

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps([{"name": "a", "weight": -0.5}, {"name": "b", "weight": 1.5}]))
        with pytest.raises(ValidationError):
            read_weights(path)


def planar_records(names, n=40, seed=0):
    """Weights on a 2-D affine plane inside the simplex."""
    rng = np.random.default_rng(seed)
    m = len(names)
    center = np.full(m, 1.0 / m)
    d1 = np.zeros(m)
    d1[0], d1[1] = 1.0, -1.0
    d2 = np.zeros(m)
    d2[2], d2[3] = 1.0, -1.0
    records = []
    for i in range(n):
        a, b = rng.uniform(-0.05, 0.05, size=2)
        w = center + a * d1 + b * d2
        records.append(
            ExperimentRecord(
                f"exp-{i:04d}",
                dict(zip(names, w)),
                float(a * a + b * b),
                "ok",
                "",
            )
        )
    return records


class TestPcaLandscape:
    def test_orthonormal_components(self):
        names = [f"s{j}" for j in range(6)]
        rng = np.random.default_rng(5)
        records, _ = quadratic_records(names, rng.dirichlet(np.ones(6)), n=64)
        model = fit_regressor(records)
        land = pca_landscape(records, model, OptimizerConfig(grid=11))
        v1, v2 = land.components
        assert abs(np.dot(v1, v2)) < 1e-9
        assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(v2) == pytest.approx(1.0, abs=1e-9)

    def test_planar_weights_capture_all_variance(self):
        names = [f"s{j}" for j in range(5)]
        records = planar_records(names)
        model = fit_regressor(records, RegressorHyper(n_trees=5))
        land = pca_landscape(records, model, OptimizerConfig(grid=5))
        total = land.explained_variance.sum()
        assert land.explained_variance[:2].sum() == pytest.approx(total, abs=1e-9 * total)

    def test_explained_variance_non_increasing(self):
        names = [f"s{j}" for j in range(6)]
        rng = np.random.default_rng(6)
        records, _ = quadratic_records(names, rng.dirichlet(np.ones(6)), n=64)
        model = fit_regressor(records)
        land = pca_landscape(records, model, OptimizerConfig(grid=5))
        ev = land.explained_variance
        assert all(b <= a + 1e-12 for a, b in zip(ev, ev[1:]))

    def test_grid_size_and_csv(self, tmp_path):
        names = [f"s{j}" for j in range(4)]
        rng = np.random.default_rng(7)
        records, _ = quadratic_records(names, rng.dirichlet(np.ones(4)), n=32)
        model = fit_regressor(records)
        land = pca_landscape(records, model, OptimizerConfig(grid=9))
        assert len(land.grid_points) == 81
        path = tmp_path / "landscape.csv"
        land.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "pc1,pc2,predicted_loss"
        assert len(lines) == 82

    def test_lattice_matches_point_by_point_reference(self):
        names = [f"s{j}" for j in range(5)]
        rng = np.random.default_rng(9)
        records, _ = quadratic_records(names, rng.dirichlet(np.ones(5)), n=48)
        model = fit_regressor(records, RegressorHyper(n_trees=20))
        land = pca_landscape(records, model, OptimizerConfig(grid=6))
        mean = np.array([[r.weights[n] for n in names] for r in records]).mean(axis=0)
        expected = ref_landscape_points(
            mean, land.components, land.projections, model.booster.predict, grid=6
        )
        assert land.grid_points == expected

    def test_rank_deficient_falls_back_to_1d(self, caplog):
        names = ["a", "b", "c"]
        rng = np.random.default_rng(8)
        records = []
        for i in range(20):  # weights vary along a single direction
            t = rng.uniform(0.2, 0.4)
            records.append(
                ExperimentRecord(
                    f"exp-{i:04d}",
                    {"a": t, "b": 0.5 - t, "c": 0.5},
                    float(t),
                    "ok",
                    "",
                )
            )
        model = fit_regressor(records, RegressorHyper(n_trees=5))
        with caplog.at_level("WARNING"):
            land = pca_landscape(records, model, OptimizerConfig(grid=7))
        assert "1-D" in caplog.text
        assert len(land.grid_points) == 7
        assert all(p[1] == 0.0 for p in land.grid_points)

    def test_too_few_records(self):
        names = ["a", "b"]
        records, _ = quadratic_records(names, [0.5, 0.5], n=20)
        with pytest.raises(ValidationError, match="at least 3"):
            pca_landscape(records[:2], fit_regressor(records), OptimizerConfig(grid=5))

    def test_landscape_accepts_small_record_sets(self):
        names = ["a", "b", "c"]
        records, _ = quadratic_records(names, [0.3, 0.3, 0.4], n=20)
        model = fit_regressor(records)
        land = pca_landscape(records[:5], model, OptimizerConfig(grid=4))
        assert len(land.grid_points) == 16
