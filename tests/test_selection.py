import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qselect.errors import ValidationError
from qselect.matrix import ScoreMatrix
from qselect.registry import DEFAULT_DOMAIN_WEIGHTS
from qselect.selection import (
    SelectionPlan,
    WeightVector,
    aggregate_scores,
    select_top_k,
)

from conftest import Row, matrix_of, reference_weights, uniform_weights
from oracles import ref_dot


def build_pool(
    rng, n_docs, names, domains=None, token_range=(20, 200), mix=None, integer_scores=False
):
    """Random scored docs + normalized matrix over the given score names.

    Domains are drawn from ``mix`` when given (so each domain pool is
    roughly proportional to its selection target), else uniformly.
    ``integer_scores`` draws raw scores from {0, 1, 2, 3}, so ties are common.
    """
    domains = domains or list(DEFAULT_DOMAIN_WEIGHTS)
    probs = None
    if mix is not None:
        probs = np.array([mix[d] for d in domains])
        probs = probs / probs.sum()
    if integer_scores:
        raw = rng.integers(0, 4, size=(n_docs, len(names)))
    else:
        raw = rng.normal(size=(n_docs, len(names)))
    tags = rng.choice(domains, size=n_docs, p=probs)
    docs = [Row(f"d{i:05d}", str(tags[i]), int(rng.integers(*token_range))) for i in range(n_docs)]
    return docs, matrix_of(docs, names, raw)


def brute_force_select(matrix, docs, w, plan):
    """Reference: full per-domain sort, walk the prefix until the quota.

    Written independently of the package implementation. Returns the
    ordered ids, per-domain tokens, thresholds and shortfalls.
    """
    scores = matrix.normalized @ np.array(
        [w.as_mapping()[n] for n in matrix.score_names]
    )
    by_id = {doc_id: float(scores[i]) for i, doc_id in enumerate(matrix.doc_ids)}
    chosen, domain_tokens, thresholds, shortfalls = [], {}, {}, []
    for domain, prop in plan.domain_targets.items():
        target = plan.token_budget * prop
        pool = [d for d in docs if d.domain == domain]
        pool.sort(key=lambda d: (-by_id[d.id], d.id))
        used = 0
        threshold = None
        for d in pool:
            if used >= target:
                break
            chosen.append(d.id)
            used += d.token_estimate
            threshold = by_id[d.id]
        domain_tokens[domain] = used
        thresholds[domain] = threshold
        if used < target:
            shortfalls.append((domain, target, used))
    return chosen, domain_tokens, thresholds, shortfalls


def outcome(result):
    """A SelectionResult in the shape brute_force_select returns."""
    shortfalls = [(s.domain, s.target_tokens, s.achieved_tokens) for s in result.shortfalls]
    return result.selected_ids, result.domain_tokens, result.thresholds, shortfalls


def seeded_pool(trial, kind, large):
    """Seeded pool ``trial`` of the brute-force tests: its matrix, docs,
    weights and plan.

    Kinds of raw scores: 0 normal; 1 tie-heavy integers; 2 normal, with
    0-4 tokens in each top-scoring row and 100-199 in the rest, so a
    partition's candidates fall short of the quota and the whole domain is
    sorted; 3 three integer levels shared by every column, so large tie
    blocks straddle the partition's cut. A ``large`` pool has 10,000 rows.
    Every pool has 0-token documents, ids out of row order, a domain
    outside the plan, and a plan domain with proportion 0.
    """
    names = [f"s{j}" for j in range(4)]
    plan_domains = list(DEFAULT_DOMAIN_WEIGHTS)
    rng = np.random.default_rng(5000 + trial)
    n = 10_000 if large else int(rng.integers(50, 2000))
    tags = rng.choice(plan_domains + ["Elsewhere"], size=n)
    tokens = rng.integers(20, 200, size=n)
    tokens[rng.random(n) < 0.1] = 0
    ids = rng.permutation(n)
    if kind in (1, 3):
        raw = rng.integers(0, 4 if kind == 1 else 3, size=(n, len(names)))
    else:
        raw = rng.normal(size=(n, len(names)))
    if kind == 3:
        raw[:, 1:] = raw[:, :1]
    w = WeightVector(tuple(names), rng.dirichlet(np.ones(4)))
    if kind == 2:
        agg = aggregate_scores(matrix_of([Row(str(i), "C4", 0) for i in range(n)], names, raw), w)
        top = agg > np.median(agg)
        tokens[top] = rng.integers(0, 5, size=int(top.sum()))
        tokens[~top] = rng.integers(100, 200, size=n - int(top.sum()))
    docs = [Row(f"d{ids[i]:05d}", str(tags[i]), int(tokens[i])) for i in range(n)]
    targets = dict(DEFAULT_DOMAIN_WEIGHTS)
    targets[plan_domains[trial % len(plan_domains)]] = 0.0
    total = sum(targets.values())
    targets = {d: p / total for d, p in targets.items()}
    budget = max(1, int(rng.integers(1, 60) / 100 * int(tokens.sum())))
    return matrix_of(docs, names, raw), docs, w, SelectionPlan(budget, targets)


class TestWeightVector:
    def test_negative_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            WeightVector(("a", "b"), np.array([1.2, -0.2]))

    def test_sum_enforced(self):
        with pytest.raises(ValidationError, match="sum"):
            WeightVector(("a", "b"), np.array([0.6, 0.6]))

    def test_normalize_from_mapping(self):
        w = WeightVector.from_mapping({"a": 2.0, "b": 6.0})
        assert w.as_mapping() == {"a": 0.25, "b": 0.75}

    def test_uniform(self):
        w = uniform_weights(["a", "b", "c", "d"])
        assert np.allclose(w.values, 0.25)

    def test_alignment(self):
        w = WeightVector.from_mapping({"b": 0.75, "a": 0.25})
        assert w.aligned_to(["a", "b"]).tolist() == [0.25, 0.75]
        with pytest.raises(ValidationError):
            w.aligned_to(["a", "c"])


def normalized_matrix(names, rows):
    values = np.asarray(rows, dtype=float)
    n = len(values)
    return ScoreMatrix(
        names, [f"d{i}" for i in range(n)], ["C4"] * n, [1] * n, values, normalized=values
    )


class TestAggregate:
    def test_identity_weighting(self):
        w = WeightVector.from_mapping({"a": 1.0, "b": 0.0})
        matrix = normalized_matrix(["a", "b"], [[0.37, 0.99]])
        assert aggregate_scores(matrix, w).tolist() == [0.37]

    def test_uniform_equals_mean(self):
        names = ["a", "b", "c", "d"]
        w = uniform_weights(names)
        matrix = normalized_matrix(names, [[0.1, 0.2, 0.6, 0.9]])
        assert aggregate_scores(matrix, w)[0] == pytest.approx(0.45, abs=1e-12)

    def test_reference_weights_match_dot_oracle(self, rng):
        w = reference_weights()
        names = list(w.names)
        values = rng.random(size=(10, len(names)))
        matrix = normalized_matrix(names, values)
        got = aggregate_scores(matrix, w)
        aligned = w.aligned_to(names)
        for i in range(10):
            want = ref_dot(values[i].tolist(), aligned.tolist())
            assert got[i] == pytest.approx(want, abs=1e-12)

    def test_range_under_simplex_weights(self, rng):
        names = [f"s{j}" for j in range(5)]
        w = WeightVector(tuple(names), rng.dirichlet(np.ones(5)))
        matrix = normalized_matrix(names, rng.random(size=(50, 5)))
        agg = aggregate_scores(matrix, w)
        assert (agg >= -1e-12).all() and (agg <= 1 + 1e-12).all()


S = WeightVector(("s",), np.array([1.0]))


class TestSelectTopK:
    def test_forced_ordering(self):
        docs = [
            Row("a", "C4", 5),
            Row("b", "C4", 5),
            Row("c", "C4", 5),
        ]
        matrix = matrix_of(docs, ["s"], [[0.9], [0.5], [0.1]])
        result = select_top_k(matrix, S, SelectionPlan(10, {"C4": 1.0}))
        assert result.selected_ids == ["a", "b"]
        assert result.total_tokens == 10
        assert not result.shortfalls

    def test_crossing_doc_included(self):
        docs = [Row("a", "C4", 7), Row("b", "C4", 7)]
        matrix = matrix_of(docs, ["s"], [[1.0], [0.0]])
        result = select_top_k(matrix, S, SelectionPlan(10, {"C4": 1.0}))
        # second doc crosses the 10-token target and is included
        assert result.selected_ids == ["a", "b"]
        assert result.total_tokens == 14

    def test_tie_break_lexicographic(self):
        docs = [Row("z1", "C4", 5), Row("a1", "C4", 5)]
        matrix = matrix_of(docs, ["s"], [[0.5], [0.5]])
        result = select_top_k(matrix, S, SelectionPlan(5, {"C4": 1.0}))
        assert result.selected_ids == ["a1"]

    def test_shortfall_reported(self):
        matrix = matrix_of([Row("a", "C4", 5)], ["s"], [[1.0]])
        result = select_top_k(matrix, S, SelectionPlan(100, {"C4": 1.0}))
        assert len(result.shortfalls) == 1
        assert result.shortfalls[0].achieved_tokens == 5

    def test_empty_plan_domain_is_a_shortfall(self):
        matrix = matrix_of([Row("a", "C4", 5)], ["s"], [[1.0]])
        plan = SelectionPlan(10, {"C4": 0.5, "Books": 0.5})
        result = select_top_k(matrix, S, plan)
        assert result.selected_ids == ["a"]
        assert result.domain_tokens["Books"] == 0
        assert result.thresholds["Books"] is None
        [shortfall] = result.shortfalls
        assert (shortfall.domain, shortfall.achieved_tokens) == ("Books", 0)

    def test_zero_proportion_domain_selects_nothing(self):
        docs = [Row("a", "C4", 5), Row("b", "Books", 5)]
        matrix = matrix_of(docs, ["s"], [[0.0], [1.0]])
        plan = SelectionPlan(5, {"C4": 1.0, "Books": 0.0})
        result = select_top_k(matrix, S, plan)
        assert result.selected_ids == ["a"]
        assert result.domain_tokens["Books"] == 0
        assert result.thresholds["Books"] is None
        assert not result.shortfalls

    def test_zero_token_documents(self):
        # zero-token documents never reach the quota by themselves: every
        # one ranked above the crossing document is taken, none below it
        ids = ["a", "b", "c", "d", "e"]
        tokens = [0, 0, 6, 0, 6]
        docs = [Row(i, "C4", t) for i, t in zip(ids, tokens)]
        raw = [[5.0], [4.0], [3.0], [2.0], [1.0]]
        plan = SelectionPlan(6, {"C4": 1.0})
        result = select_top_k(matrix_of(docs, ["s"], raw), S, plan)
        assert result.selected_ids == ["a", "b", "c"]
        assert result.total_tokens == 6
        assert not result.shortfalls
        starved = select_top_k(matrix_of(docs[:2], ["s"], raw[:2]), S, plan)
        assert starved.selected_ids == ["a", "b"]
        assert starved.shortfalls[0].achieved_tokens == 0

    def test_domains_outside_the_plan_ignored(self):
        docs = [Row("a", "C4", 5), Row("b", "Elsewhere", 5)]
        matrix = matrix_of(docs, ["s"], [[0.0], [1.0]])
        result = select_top_k(matrix, S, SelectionPlan(10, {"C4": 1.0}))
        assert result.selected_ids == ["a"]
        assert set(result.domain_tokens) == {"C4"}

    def test_matches_brute_force_on_100_seeded_pools(self):
        # Odd trials draw tie-heavy integer scores.
        for trial in range(100):
            matrix, docs, w, plan = seeded_pool(trial, trial % 2, large=trial >= 98)
            assert outcome(select_top_k(matrix, w, plan)) == brute_force_select(matrix, docs, w, plan)

    def test_matches_brute_force_on_short_and_tied_pools(self):
        # Even trials put the tokens in the lowest-scoring rows, odd trials
        # share large tie blocks across the partition's cut.
        for trial in range(100, 150):
            matrix, docs, w, plan = seeded_pool(trial, 2 + trial % 2, large=trial >= 148)
            assert outcome(select_top_k(matrix, w, plan)) == brute_force_select(matrix, docs, w, plan)

    def test_sorts_a_quarter_of_each_domain_at_most(self, rng, monkeypatch):
        # A 5% budget on a 100k-row pool: each domain's quota is a small
        # prefix of its order, and no argsort may cover more than a quarter
        # of the domain. A return to a full sort per call fails here alone.
        names = ["a", "b", "c"]
        _, matrix = build_pool(rng, 100_000, names, mix=DEFAULT_DOMAIN_WEIGHTS)
        w = WeightVector(tuple(names), rng.dirichlet(np.ones(3)))
        budget = int(matrix.tokens.sum()) // 20
        domain_rows = matrix.domain_rows
        sorted_sizes = []
        argsort = np.argsort

        def spy(a, *args, **kwargs):
            sorted_sizes.append(np.size(a))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        for domain, proportion in DEFAULT_DOMAIN_WEIGHTS.items():
            sorted_sizes.clear()
            result = select_top_k(matrix, w, SelectionPlan(int(budget * proportion), {domain: 1.0}))
            assert result.selected_ids and not result.shortfalls
            assert sorted_sizes and max(sorted_sizes) <= domain_rows[domain].size / 4

    def test_threads_sharing_a_fresh_matrix_agree(self, rng):
        # A campaign's worker threads share one matrix, whose domain rows
        # are built on first use; threads that race to build them must all
        # select what one thread alone selects.
        names = ["a", "b"]
        docs, first = build_pool(rng, 3000, names, integer_scores=True)
        plan = SelectionPlan(20_000)
        w = uniform_weights(names)
        want = outcome(select_top_k(first, w, plan))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                matrix = matrix_of(docs, names, first.raw)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(select_top_k, matrix, w, plan) for _ in range(16)]
                    got = [outcome(f.result(timeout=60)) for f in futures]
                assert all(g == want for g in got)
        finally:
            sys.setswitchinterval(interval)

    def test_rank_invariance_under_monotone_transform(self, rng):
        names = ["u", "v", "w"]
        docs, matrix = build_pool(rng, 300, names)
        transformed = matrix.raw.copy()
        transformed[:, 1] = np.exp(2.0 * transformed[:, 1]) + 10
        matrix2 = matrix_of(docs, names, transformed)
        w = WeightVector(tuple(names), rng.dirichlet(np.ones(3)))
        plan = SelectionPlan(3000)
        a = select_top_k(matrix, w, plan)
        b = select_top_k(matrix2, w, plan)
        assert set(a.selected_ids) == set(b.selected_ids)

    def test_monotonicity_of_membership(self, rng):
        docs, matrix = build_pool(rng, 120, ["s"], domains=["C4"])
        plan = SelectionPlan(1500, {"C4": 1.0})
        base = select_top_k(matrix, S, plan)
        inside = base.selected_ids[len(base.selected_ids) // 2]
        raw2 = matrix.raw.copy()
        row = matrix.doc_ids.index(inside)
        raw2[row, 0] = raw2[:, 0].max() + 1.0
        again = select_top_k(matrix_of(docs, ["s"], raw2), S, plan)
        assert inside in again.selected_ids

    def test_determinism(self, rng):
        # Permuting the rows (ids, domains, tokens and scores together)
        # changes nothing: ties break by id, not by row position.
        names = ["a", "b"]
        docs, matrix = build_pool(rng, 400, names, integer_scores=True)
        w = uniform_weights(names)
        plan = SelectionPlan(5000)
        perm = rng.permutation(len(docs))
        permuted = matrix_of([docs[i] for i in perm], names, matrix.raw[perm])
        r1 = select_top_k(matrix, w, plan)
        r2 = select_top_k(permuted, w, plan)
        assert outcome(r1) == outcome(r2)

    def test_achieved_proportions_on_large_pool(self, rng):
        docs, matrix = build_pool(
            rng, 12_000, ["q"], token_range=(60, 110), mix=DEFAULT_DOMAIN_WEIGHTS
        )
        total = sum(d.token_estimate for d in docs)
        assert total > 1_000_000
        plan = SelectionPlan(300_000)
        result = select_top_k(matrix, WeightVector(("q",), np.array([1.0])), plan)
        assert not result.shortfalls
        for domain, p in plan.domain_targets.items():
            assert abs(result.achieved_proportions[domain] - p) <= 0.005


class TestManifest:
    def test_round_trip(self, tmp_path, rng):
        names = ["s"]
        _, matrix = build_pool(rng, 60, names)
        result = select_top_k(matrix, S, SelectionPlan(800))
        path = tmp_path / "manifest.txt"
        result.write_manifest(path)
        assert path.read_text(encoding="utf-8").splitlines() == result.selected_ids
        report_path = tmp_path / "report.json"
        result.write_report(report_path, seed=42)
        import json

        report = json.loads(report_path.read_text())
        assert report["seed"] == 42
        assert report["total_tokens"] == result.total_tokens

    def test_empty_selection_writes_an_empty_manifest(self, tmp_path):
        matrix = matrix_of([Row("a", "C4", 5)], ["s"], [[1.0]])
        result = select_top_k(matrix, S, SelectionPlan(5, {"Books": 1.0}))
        path = tmp_path / "manifest.txt"
        result.write_manifest(path)
        assert result.selected_ids == [] and path.read_bytes() == b""
