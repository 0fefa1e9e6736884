import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qselect.errors import MatrixError
from qselect.matrix import (
    ScoreMatrix,
    _median,
    correlation_csv,
    impute_missing,
    ingest_ratings,
    rank_normalize,
    spearman_matrix,
)

from conftest import matrix_of_docs
from oracles import ref_rank_unit, ref_spearman


FLOAT_MAX = np.finfo(float).max


def matrix_from(columns: dict[str, list[float]]) -> ScoreMatrix:
    names = list(columns)
    n = len(next(iter(columns.values())))
    raw = np.column_stack([np.asarray(columns[c], dtype=float) for c in names])
    return ScoreMatrix(names, [f"d{i}" for i in range(n)], ["C4"] * n, [1] * n, raw)


class TestRankNormalize:
    def test_strictly_increasing(self):
        m = rank_normalize(matrix_from({"s": [10, 20, 30]}))
        assert m.normalized[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_average_tie_ranks(self):
        m = rank_normalize(matrix_from({"s": [5, 5, 9]}))
        # tied ranks (1,2) -> 1.5 -> (1.5-1)/2 = 0.25
        assert m.normalized[:, 0].tolist() == [0.25, 0.25, 1.0]

    def test_single_document_maps_to_half(self):
        m = rank_normalize(matrix_from({"s": [7.0]}))
        assert m.normalized[0, 0] == 0.5

    def test_monotone_transform_invariance(self, rng):
        col = rng.normal(size=50)
        a = rank_normalize(matrix_from({"s": col.tolist()}))
        b = rank_normalize(matrix_from({"s": (np.exp(3 * col) + 5).tolist()}))
        assert np.allclose(a.normalized, b.normalized)

    def test_idempotent(self, rng):
        col = rng.normal(size=40)
        col[10:20] = col[0]  # inject ties
        once = rank_normalize(matrix_from({"s": col.tolist()}))
        twice = rank_normalize(
            ScoreMatrix(
                once.score_names, once.doc_ids, once.domains, once.tokens, once.normalized
            )
        )
        assert np.array_equal(once.normalized, twice.normalized)

    def test_matches_reference_ranks(self, rng):
        columns = [rng.integers(0, 10, size=17).astype(float) for _ in range(20)]
        columns += [rng.normal(size=int(rng.integers(2, 60))) for _ in range(20)]
        columns += [
            rng.choice([-1.0, -0.0, 0.0, 2.5], size=int(rng.integers(2, 40)))
            for _ in range(20)
        ]
        # Long tie-heavy columns: numpy's default sort does not keep a long
        # column's ties in order, so a rank that depends on the order within
        # a tie fails here.
        columns += [rng.choice([-1.0, -0.0, 0.0, 2.5], size=1000 + 250 * i) for i in range(3)]
        columns += [np.array([3.0]), np.array([-0.0, 0.0]), np.array([0.0, -0.0, 1.0])]
        for col in columns:
            got = rank_normalize(matrix_from({"s": col.tolist()})).normalized[:, 0]
            assert got.tolist() == ref_rank_unit(col.tolist())

    def test_missing_cells_rejected(self):
        m = matrix_from({"s": [1.0, float("nan")]})
        with pytest.raises(MatrixError, match="missing"):
            rank_normalize(m)

    def test_empty_matrix_rejected(self):
        m = ScoreMatrix(["s"], [], [], [], np.zeros((0, 1)))
        with pytest.raises(MatrixError):
            rank_normalize(m)


class TestIngest:
    def docs(self):
        return [(f"d{i}", "text here", "C4", None) for i in range(10)]

    def test_direct_write(self):
        matrix = matrix_of_docs(self.docs(), ["Professionalism"])
        filled, unknown = ingest_ratings(matrix, {"Professionalism": {"d1": 4.0}})
        assert matrix.raw[1, 0] == 4.0
        assert (filled, unknown) == ({"Professionalism": 1}, 0)

    def test_unregistered_rater_rejected(self):
        matrix = matrix_of_docs(self.docs(), ["Professionalism"])
        with pytest.raises(MatrixError, match="unregistered"):
            ingest_ratings(matrix, {"Sparkle": {"d1": 1.0}})

    def test_unknown_doc_ids_reported(self):
        matrix = matrix_of_docs(self.docs(), ["Fluency", "Reasoning"])
        filled, unknown = ingest_ratings(
            matrix, {"Fluency": {"ghost": 1.0, "d2": 3.0}, "Reasoning": {"ghost": 2.0}}
        )
        assert (filled, unknown) == ({"Fluency": 1, "Reasoning": 0}, 2)
        assert np.isnan(matrix.raw[:, 1]).all()

    def test_coverage_with_known_gaps(self):
        docs = self.docs()
        docs[3] = ("d3", "text here", "C4", {"Fluency": 7.0})
        matrix = matrix_of_docs(docs, ["Fluency"])
        filled, _ = ingest_ratings(matrix, {"Fluency": {f"d{i}": 1.0 for i in range(9)}})
        # d3 already held a value: the rating replaces it but fills no gap.
        assert filled == {"Fluency": 8}
        assert matrix.raw[3, 0] == 1.0 and np.isnan(matrix.raw[9, 0])

    def test_impute_to_median_and_flag(self):
        matrix = matrix_of_docs(self.docs(), ["Fluency"])
        ingest_ratings(matrix, {"Fluency": {f"d{i}": float(i) for i in range(9)}})
        flagged = impute_missing(matrix)
        assert flagged == [("d9", "Fluency")]
        assert matrix.raw[9, 0] == 4.0  # median of 0..8

    @given(st.lists(
        st.sampled_from([0.0, -0.0, 1.0, 2.0, 5e-324, -5e-324, FLOAT_MAX, -FLOAT_MAX,
                         np.nextafter(FLOAT_MAX, 0.0)])
        | st.floats(allow_nan=False, allow_infinity=False),
        min_size=1, max_size=9,
    ))
    @example([-0.0])
    @example([-0.0, -0.0])
    @example([-5e-324, -0.0])
    @example([FLOAT_MAX, np.nextafter(FLOAT_MAX, 0.0), 1.0, FLOAT_MAX])
    @settings(max_examples=500, deadline=None)
    def test_median_has_the_bits_of_np_median(self, values):
        values = np.array(values)
        with np.errstate(over="ignore"):  # two values near the float max overflow alike
            assert np.float64(_median(values)).tobytes() == np.median(values).tobytes()

    def test_strict_column_gap_is_error(self):
        matrix = matrix_of_docs(self.docs(), ["doc_word_count"])
        with pytest.raises(MatrixError, match="must be complete"):
            impute_missing(matrix)


class TestSpearman:
    def test_self_correlation(self, rng):
        col = rng.normal(size=20).tolist()
        rho, flagged = spearman_matrix(matrix_from({"a": col, "b": col}))
        assert rho[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert not flagged.any()

    def test_anti_monotone(self, rng):
        col = rng.normal(size=20)
        rho, _ = spearman_matrix(matrix_from({"a": col.tolist(), "b": (-col).tolist()}))
        assert rho[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_shared_latent_columns_correlate(self, rng):
        latent = rng.normal(size=500)
        a = latent + 0.05 * rng.normal(size=500)
        b = 3.0 * latent + 0.05 * rng.normal(size=500)
        rho, _ = spearman_matrix(matrix_from({"a": a.tolist(), "b": b.tolist()}))
        assert rho[0, 1] > 0.95

    def test_matches_reference_on_random_matrices(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 30))
            m = int(rng.integers(2, 6))
            cols = {
                f"c{j}": rng.integers(0, 8, size=n).astype(float).tolist()
                for j in range(m)
            }
            matrix = matrix_from(cols)
            rho, flagged = spearman_matrix(matrix)
            assert np.array_equal(rho, rho.T) or np.allclose(rho, rho.T, equal_nan=True)
            assert np.all(np.diag(rho) == 1.0)
            names = list(cols)
            for i in range(m):
                for j in range(i + 1, m):
                    want = ref_spearman(cols[names[i]], cols[names[j]])
                    if math.isnan(want):
                        assert flagged[i, j]
                    else:
                        assert rho[i, j] == pytest.approx(want, abs=1e-12)

    def test_constant_column_flagged(self, rng):
        rho, flagged = spearman_matrix(
            matrix_from({"a": [1.0, 1.0, 1.0], "b": [1.0, 2.0, 3.0]})
        )
        assert flagged[0, 1] and flagged[1, 0]
        assert math.isnan(rho[0, 1])
        assert rho[0, 0] == 1.0 and rho[1, 1] == 1.0

    def test_monotone_transform_invariance(self, rng):
        a = rng.normal(size=30)
        b = rng.normal(size=30)
        rho1, _ = spearman_matrix(matrix_from({"a": a.tolist(), "b": b.tolist()}))
        rho2, _ = spearman_matrix(
            matrix_from({"a": np.expm1(a).tolist(), "b": (b**3).tolist()})
        )
        assert rho1[0, 1] == pytest.approx(rho2[0, 1], abs=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(MatrixError):
            spearman_matrix(matrix_from({"a": [1.0]}))

    def test_missing_cells_rejected(self):
        m = matrix_from({"a": [1.0, float("nan"), 3.0], "b": [2.0, 1.0, 3.0]})
        with pytest.raises(MatrixError, match="missing"):
            spearman_matrix(m)

    def test_csv_export(self):
        rho, _ = spearman_matrix(matrix_from({"a": [1.0, 2.0], "b": [2.0, 1.0]}))
        csv = correlation_csv(["a", "b"], rho)
        lines = csv.strip().split("\n")
        assert lines[0] == "name,a,b"
        assert lines[1].startswith("a,1.0,")


class TestMatrixIO:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(MatrixError):
            ScoreMatrix(["s"], ["d0", "d0"], ["C4", "C4"], [1, 1], np.zeros((2, 1)))

    def test_row_columns_must_match_ids(self):
        with pytest.raises(MatrixError, match="one entry per doc id"):
            ScoreMatrix(["s"], ["d0", "d1"], ["C4"], [1, 1], np.zeros((2, 1)))
        with pytest.raises(MatrixError, match="one entry per doc id"):
            ScoreMatrix(["s"], ["d0", "d1"], ["C4", "C4"], [1], np.zeros((2, 1)))

    def test_domains_and_tokens_carried_through(self):
        docs = [
            ("b", "two words", "Books", {"s": 2.0}),
            ("a", "one", "C4", {"s": 1.0}),
        ]
        matrix = rank_normalize(matrix_of_docs(docs, ["s"]))
        assert matrix.doc_ids == ["b", "a"]
        assert matrix.domains.tolist() == ["Books", "C4"]
        assert matrix.tokens.tolist() == [2, 1]
        assert matrix.id_order.tolist() == [1, 0]

    def test_from_documents_leaves_missing_cells_nan(self):
        docs = [
            ("a", "x", "C4", {"s": 1.0, "t": 2.5}),
            ("b", "x", "C4", None),
            ("c", "x", "C4", {"t": -3.0}),
        ]
        raw = matrix_of_docs(docs, ["t", "s", "u"]).raw
        assert raw.dtype == np.float64
        np.testing.assert_array_equal(
            raw, [[2.5, 1.0, np.nan], [np.nan] * 3, [-3.0, np.nan, np.nan]]
        )
        assert matrix_of_docs([], ["t", "s"]).raw.shape == (0, 2)
        assert matrix_of_docs(docs, []).raw.shape == (3, 0)
