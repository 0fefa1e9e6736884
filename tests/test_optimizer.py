import functools
import json
import tracemalloc

import numpy as np
import pytest

from qselect import optimizer
from qselect.errors import ValidationError
from qselect.gbt import (
    BLOCK_ROWS,
    PRUNE_EVERY,
    GradientBoostedRegressor,
    RegressionTree,
    RegressorHyper,
)
from qselect.optimizer import (
    OptimizerConfig,
    RegressorModel,
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
from oracles import ref_landscape_points, ref_search_optimal


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
        (candidates,) = sample_simplex(3, 5000, 8)
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


NAMES_M16 = [f"s{j:02d}" for j in range(16)]


@pytest.fixture(scope="module")
def model_m16():
    records, _ = quadratic_records(NAMES_M16, np.random.default_rng(16).dirichlet(np.ones(16)), n=64)
    return fit_regressor(records, RegressorHyper(n_trees=20))


@functools.cache
def sixteen_score_model(n_trees):
    names = [f"s{j:02d}" for j in range(16)]
    w = np.random.default_rng(40).dirichlet(np.ones(16))
    records, _ = quadratic_records(names, w, n=128, seed=40, sigma=0.01)
    return fit_regressor(records, RegressorHyper(n_trees=n_trees, seed=40))


@functools.cache
def hundred_tree_model(m, seed):
    if m == 1:
        records = [
            ExperimentRecord(f"exp-{i:04d}", {"a": 1.0}, 1.0 + 0.01 * (i % 7), "ok", "")
            for i in range(32)
        ]
    else:
        names = [f"s{j:02d}" for j in range(m)]
        w = np.random.default_rng(seed).dirichlet(np.ones(m))
        records, _ = quadratic_records(names, w, n=128, seed=seed, sigma=0.01)
    return fit_regressor(records, RegressorHyper(seed=seed))


def stump(feature, threshold, low, high):
    """A depth-1 tree: ``low`` where x[feature] <= threshold, else ``high``."""
    return RegressionTree(np.array([feature, 0, 0]), np.array([threshold, np.inf, np.inf]),
                          np.array([1, 1, 2]), np.array([2, 1, 2]), np.array([0.0, low, high]), 1)


def leaf(value):
    """A depth-0 tree: ``value`` everywhere."""
    zero = np.array([0])
    return RegressionTree(zero, np.array([np.inf]), zero, zero, np.array([value]), 0)


class TestStreamedSweep:
    """The block-by-block sweep, cutoff walk included, gives the bits of the
    whole-matrix sweep."""

    def assert_matches_whole_sweep(self, model, settings, seed):
        outcome = search_optimal(model, settings, seed)
        values, loss = ref_search_optimal(model, settings, seed)
        assert outcome.w_star.values.tobytes() == values.tobytes()
        assert repr(outcome.predicted_loss_at_star) == repr(loss)
        return outcome

    @pytest.mark.parametrize(
        "candidates, top_k",
        [(20_001, 100), (5000, 100), (20_001, 20_001), (5000, 5000), (20_001, 1)],
        ids=["three-blocks", "under-one-block", "k-all-blocks", "k-all-one-block", "k-one"],
    )
    def test_matches_whole_matrix_sweep(self, model_m16, candidates, top_k):
        settings = OptimizerConfig(candidates=candidates, top_k=top_k)
        self.assert_matches_whole_sweep(model_m16, settings, seed=21)

    @pytest.mark.parametrize("top_k", [300, 12_000])
    def test_two_valued_model_keeps_ties_in_draw_order(self, top_k):
        # One split: every prediction is one of two values, so the best k
        # tie (at k = 12,000, across both values), and only stable sorts keep
        # them in draw order.
        records, _ = quadratic_records(NAMES_M16, np.full(16, 1 / 16), n=64)
        model = fit_regressor(records, RegressorHyper(n_trees=1, max_depth=1))
        settings = OptimizerConfig(candidates=20_001, top_k=top_k)
        self.assert_matches_whole_sweep(model, settings, seed=26)

    def test_low_concentration(self, model_m16):
        settings = OptimizerConfig(candidates=20_001, concentration=0.05)
        self.assert_matches_whole_sweep(model_m16, settings, seed=22)

    def test_one_score(self):
        records = [
            ExperimentRecord(f"exp-{i:04d}", {"a": 1.0}, 1.0 + 0.01 * i, "ok", "")
            for i in range(20)
        ]
        model = fit_regressor(records)
        outcome = self.assert_matches_whole_sweep(model, OptimizerConfig(candidates=9000), seed=23)
        assert outcome.w_star.values.tolist() == [1.0]

    def test_constant_model_averages_the_first_k_draws(self):
        names = [f"s{j}" for j in range(6)]
        records, _ = quadratic_records(names, [1 / 6] * 6, n=20)
        for r in records:
            r.loss = 2.5
        model = fit_regressor(records)
        settings = OptimizerConfig(candidates=20_001, top_k=300)
        outcome = self.assert_matches_whole_sweep(model, settings, seed=24)
        (draws,) = sample_simplex(6, 300, 24)
        mean = draws.mean(axis=0)
        assert outcome.w_star.values.tobytes() == (mean / mean.sum()).tobytes()

    @pytest.mark.parametrize("concentration", [1.0, 0.05])
    @pytest.mark.parametrize("top_k", [1, 100, 20_001], ids=["k-one", "k-100", "k-all"])
    @pytest.mark.parametrize("m, seed", [(1, 30), (3, 31), (3, 32), (16, 33), (16, 34)])
    def test_cutoff_sweep_matches_whole_sweep(self, m, seed, top_k, concentration):
        # 100 trees, so the walk checks its bound nine times per block.
        settings = OptimizerConfig(candidates=20_001, top_k=top_k, concentration=concentration)
        self.assert_matches_whole_sweep(hundred_tree_model(m, seed), settings, seed)

    @pytest.mark.parametrize("top_k", [300, 12_000])
    def test_tied_predictions(self, top_k):
        # Stumps fit on weights rounded to tenths: few distinct predictions,
        # each shared by many draws, some across the cutoff.
        names = ["a", "b", "c"]
        records, _ = quadratic_records(names, [0.5, 0.3, 0.2], n=64, seed=3)
        for r in records:
            r.weights = {name: round(w, 1) for name, w in r.weights.items()}
        model = fit_regressor(records, RegressorHyper(n_trees=40, max_depth=1))
        settings = OptimizerConfig(candidates=20_001, top_k=top_k)
        (draws,) = sample_simplex(3, 20_001, 27)
        assert np.unique(model.booster.predict(draws)).size < 200
        self.assert_matches_whole_sweep(model, settings, seed=27)

    @pytest.mark.parametrize("cancel", [False, True], ids=["large-base", "near-zero"])
    def test_leaves_below_an_ulp(self, cancel):
        # The first ten trees are stumps on the first weight worth 0 or 1 ulp
        # of 2**20 each, so the draws spread over 11 levels and every block
        # holds draws below the cutoff. The other trees add 0.4 ulp (leaf
        # times the learning rate 0.5), which vanishes when added to a sum
        # near 2**20, so each row ends 36 ulp below its partial sum plus the
        # remaining least leaves at the first check: only an absolute margin
        # keeps the best rows. With cancel, the base is 0, a tree adds 2**20
        # after the first check and the last one takes it away, so the bound
        # sits near 0.
        ulp = 2.0**-32  # of 2**20
        steps = [stump(0, 0.002 * (i + 1), 0.0, 2 * ulp) for i in range(10)]
        vanishing = leaf(0.8 * ulp)
        if cancel:
            trees, base = steps + [leaf(2.0**21)] + [vanishing] * 88 + [leaf(-(2.0**21))], 0.0
        else:
            trees, base = steps + [vanishing] * 90, 2.0**20
        model = RegressorModel(("a", "b", "c"), GradientBoostedRegressor(base, trees, 0.5), 0.0)
        self.assert_matches_whole_sweep(model, OptimizerConfig(candidates=20_001), seed=28)

    @pytest.mark.parametrize(
        "n_trees, candidates, top_k, concentration",
        [
            (100, 5000, 100, 1.0),
            (100, 20_001, BLOCK_ROWS // 4 - 1, 1.0),
            (100, 20_001, BLOCK_ROWS // 4, 1.0),
            (100, 5000, 5000, 1.0),
            (0, 20_001, 100, 1.0),
            (PRUNE_EVERY - 1, 20_001, 100, 1.0),
            (PRUNE_EVERY, 20_001, 100, 1.0),
            (PRUNE_EVERY + 1, 20_001, 100, 1.0),
            (100, 20_001, 100, 0.05),
        ],
        ids=["one-block", "seeds-all-but-four-rows", "seeds-fill-the-block", "k-all",
             "zero-trees", "trees-below-prune-every", "trees-at-prune-every",
             "trees-above-prune-every", "low-concentration"],
    )
    def test_seeded_first_block_matches_whole_sweep(self, n_trees, candidates, top_k, concentration):
        # The first block has no kept rows: it finishes its SEED_ROWS * k rows
        # of least partial sums first and takes the k-th best as its cutoff,
        # unless the model or the block is too small for that.
        settings = OptimizerConfig(candidates=candidates, top_k=top_k, concentration=concentration)
        model = sixteen_score_model(n_trees)
        assert model.booster.n_trees == n_trees
        self.assert_matches_whole_sweep(model, settings, seed=41)

    @pytest.mark.parametrize("k", [2, 5, 10, 50, 100, 300, 1000])
    @pytest.mark.parametrize("head", ["fitted", "flat"])
    def test_first_block_keeps_every_row_up_to_its_kth_best(self, head, k):
        # The invariant the seeded cutoff must keep: no row predicting at most
        # the block's k-th best is dropped, and every kept row has predict's
        # bits. With a flat head, the first PRUNE_EVERY trees are leaves, so
        # the partial sums tie and the seed rows are any 4k rows of the block.
        booster = sixteen_score_model(100).booster
        if head == "flat":
            trees = [leaf(0.0)] * PRUNE_EVERY + booster.trees
            booster = GradientBoostedRegressor(booster.base, trees, booster.learning_rate)
        (block,) = sample_simplex(16, BLOCK_ROWS, 42)
        whole = booster.predict(block)
        preds = optimizer._block_predictions(booster, block, np.empty(0), k)
        kept = np.isfinite(preds)
        assert kept[whole <= np.partition(whole, k - 1)[k - 1]].all()
        assert preds[kept].tobytes() == whole[kept].tobytes()
        assert not kept.all()

    def test_a_late_row_between_the_seeds_kth_and_k_minus_first_is_kept(self):
        # After the first PRUNE_EVERY trees the seed rows are the block's best:
        # the k - 1 rows at the least partial sum, then rows at the next. One
        # more tree lifts the worst row to between the two. Only a cutoff of
        # at least the k-th best seed keeps it.
        head = sixteen_score_model(100).booster.trees[:PRUNE_EVERY]
        (block,) = sample_simplex(16, BLOCK_ROWS, 43)
        partial = GradientBoostedRegressor(1.0, head, 0.05).predict(block)
        low, high = np.unique(partial)[:2]
        k = int((partial == low).sum()) + 1
        assert 2 <= k and optimizer.SEED_ROWS * k < BLOCK_ROWS
        row = int(partial.argmax())
        x = block[row, 0]
        inf = np.inf
        lift = RegressionTree(  # (low + high) / 2 - partial[row] at x[0] == x, else 0
            np.array([0, 0, 0, 0, 0]), np.array([np.nextafter(x, -inf), inf, x, inf, inf]),
            np.array([1, 1, 3, 3, 4]), np.array([2, 1, 4, 3, 4]),
            np.array([0.0, 0.0, 0.0, ((low + high) / 2 - partial[row]) / 0.05, 0.0]), 2,
        )
        booster = GradientBoostedRegressor(1.0, head + [lift], 0.05)
        whole = booster.predict(block)
        assert (whole == partial).sum() == BLOCK_ROWS - 1 and low < whole[row] < high
        preds = optimizer._block_predictions(booster, block, np.empty(0), k)
        assert preds[row] == whole[row]
        model = RegressorModel(tuple(NAMES_M16), booster, 0.0)
        self.assert_matches_whole_sweep(model, OptimizerConfig(candidates=BLOCK_ROWS, top_k=k), 43)

    def test_no_top_k_row_is_dropped(self, monkeypatch):
        # A fit-sweep-like model: 256 noisy records over 16 scores, 100
        # trees, the best 100 of 100k candidates.
        names = [f"s{j:02d}" for j in range(16)]
        w = np.random.default_rng(35).dirichlet(np.ones(16))
        records, _ = quadratic_records(names, w, n=256, seed=35, sigma=0.002)
        model = fit_regressor(records, RegressorHyper(seed=35))
        settings = OptimizerConfig()
        walked, preds, walked_by_block = [], [], []
        walk, block_predictions = RegressionTree._walk, optimizer._block_predictions

        def counted_walk(tree, block, row_base):
            walked.append(len(block))
            return walk(tree, block, row_base)

        def recorded_block_predictions(*args):
            preds.append(block_predictions(*args))
            walked_by_block.append(sum(walked))
            return preds[-1]

        monkeypatch.setattr(RegressionTree, "_walk", counted_walk)
        monkeypatch.setattr(optimizer, "_block_predictions", recorded_block_predictions)
        search_optimal(model, settings, seed=36)
        monkeypatch.undo()
        preds = np.concatenate(preds)
        (candidates,) = sample_simplex(16, settings.candidates, 36)
        whole = model.booster.predict(candidates)
        top = np.argsort(whole, kind="stable")[: settings.top_k]
        assert np.isfinite(preds[top]).all()
        survived = np.isfinite(preds)
        assert preds[survived].tobytes() == whole[survived].tobytes()
        # The first block seeds its own cutoff, so it walks under half of its
        # row-tree pairs; the whole sweep walks under a quarter of them.
        n_trees = model.booster.n_trees
        assert walked_by_block[0] < 0.5 * BLOCK_ROWS * n_trees
        assert walked_by_block[-1] < 0.25 * settings.candidates * n_trees

    def test_memory_does_not_grow_with_candidates(self, model_m16):
        # The whole-matrix sweep held every candidate: 16 doubles a row, so
        # 44.8 MB more at 400k candidates than at 50k.
        def peak(candidates):
            tracemalloc.start()
            try:
                search_optimal(model_m16, OptimizerConfig(candidates=candidates), seed=25)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1000)  # warm up lazy imports and caches
        assert peak(400_000) - peak(50_000) <= 1 << 20


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
