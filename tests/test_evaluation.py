import re

import numpy as np
import pytest

from purefoodnet import evaluation as E
from purefoodnet import models as M
from purefoodnet.errors import DataError, ShapeError
from purefoodnet.tensor import Tensor4


def sort_oracle(row, k):
    """Full sort with explicit (score desc, index asc) tie rule."""
    order = sorted(range(len(row)), key=lambda j: (-row[j], j))
    return order[:k]


def one_hot_oracle(indices, n):
    """The row-by-row one-hot encoder `one_hot_matrix` replaced."""
    def encode(index):
        if n < 1:
            raise ValueError(f"class count must be >= 1, got {n}")
        if not 0 <= index < n:
            raise ValueError(f"class index {index} out of range for {n} classes")
        vec = np.zeros(n, dtype=np.float64)
        vec[index] = 1.0
        return vec
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise ShapeError(f"expected a vector of indices, got shape {idx.shape}")
    return np.stack([encode(int(i)) for i in idx]) if idx.size else \
        np.zeros((0, n), dtype=np.float64)


class TestOneHot:
    def test_known_encoding(self):
        np.testing.assert_array_equal(E.one_hot_matrix([2], 4), [[0.0, 0.0, 1.0, 0.0]])

    def test_round_trip_small(self):
        for n in (1, 2, 3, 7, 40):
            rows = E.one_hot_matrix(range(n), n)
            assert [np.flatnonzero(row).tolist() for row in rows] == [[i] for i in range(n)]

    def test_round_trip_large(self):
        rows = E.one_hot_matrix([0, 137, 9999], 10000)
        assert [np.flatnonzero(row).tolist() for row in rows] == [[0], [137], [9999]]

    def test_encode_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            E.one_hot_matrix([4], 4)
        with pytest.raises(ValueError):
            E.one_hot_matrix([-1], 4)
        with pytest.raises(ValueError):
            E.one_hot_matrix([0], 0)

    def test_matrix(self):
        got = E.one_hot_matrix([2, 0], 3)
        np.testing.assert_array_equal(got, [[0, 0, 1], [1, 0, 0]])

    def test_matches_row_by_row_oracle(self):
        rng = np.random.default_rng(0)
        cases = [(np.zeros(0, dtype=np.int64), 3), ([], 1), ([0], 1), (range(5), 5)]
        for _ in range(200):
            n = int(rng.integers(1, 20))
            size = int(rng.integers(0, 30))
            cases.append((rng.integers(0, n, size), n))
            cases.append((rng.integers(0, n, size).tolist(), n))
        for indices, n in cases:
            got = E.one_hot_matrix(indices, n)
            want = one_hot_oracle(indices, n)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("indices, n, error", [
        ([0, 3], 3, ValueError), ([3], 3, ValueError), ([-1, 0], 3, ValueError),
        ([2, -1], 3, ValueError), ([[0]], 3, ShapeError), (np.zeros((2, 2), int), 3, ShapeError),
        (0, 3, ShapeError), ([0], 0, ValueError), ([1], -1, ValueError),
    ])
    def test_refuses_what_the_oracle_refuses(self, indices, n, error):
        with pytest.raises(error):
            one_hot_oracle(indices, n)
        with pytest.raises(error):
            E.one_hot_matrix(indices, n)


class TestTopKCandidates:
    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            row = rng.normal(size=n)
            if rng.random() < 0.5:
                row = np.round(row, 1)  # provoke ties
            for k in range(1, n + 1):
                got = list(E.top_k_candidates(row, k))
                assert got == sort_oracle(row, k)

    def test_k_equals_n_returns_everything(self):
        row = np.array([0.1, 0.9, 0.4])
        assert set(E.top_k_candidates(row, 3)) == {0, 1, 2}

    def test_descending_scores_give_leading_indices(self):
        row = np.array([5.0, 4.0, 3.0, 2.0])
        np.testing.assert_array_equal(E.top_k_candidates(row, 2), [0, 1])

    def test_ties_break_to_lower_index(self):
        row = np.array([0.2, 0.7, 0.7])
        np.testing.assert_array_equal(E.top_k_candidates(row, 1), [1])
        np.testing.assert_array_equal(E.top_k_candidates(row, 2), [1, 2])

    def test_k_out_of_range(self):
        row = np.zeros(3)
        with pytest.raises(ValueError):
            E.top_k_candidates(row, 0)
        with pytest.raises(ValueError):
            E.top_k_candidates(row, 4)


class TestPredictionBatch:
    def test_accepts_one_hot_truth(self):
        batch = E.PredictionBatch(np.eye(3), np.eye(3)[[2, 0, 1]])
        np.testing.assert_array_equal(batch.truth, [2, 0, 1])

    def test_validation(self):
        with pytest.raises(ShapeError):
            E.PredictionBatch(np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(ValueError):
            E.PredictionBatch(np.zeros((2, 3)), [0, 3])
        with pytest.raises(ShapeError):
            E.PredictionBatch(np.zeros((2, 3)), [0])
        with pytest.raises(ValueError):
            E.PredictionBatch(np.array([[np.nan, 0.0]]), [0])
        message = re.escape("labels must be one-hot rows (exactly one 1, rest 0)")
        with pytest.raises(ValueError, match=message):
            E.PredictionBatch(np.eye(2), np.array([[0.5, 0.5], [1.0, 0.0]]))

    def test_frozen_arrays(self):
        batch = E.PredictionBatch(np.eye(2), [0, 1])
        with pytest.raises(ValueError):
            batch.scores[0, 0] = 5.0


class TestTopKAccuracy:
    def test_perfect_top1(self):
        scores = np.eye(4) + 0.01
        batch = E.PredictionBatch(scores, [0, 1, 2, 3])
        assert E.top_k_accuracy(batch, 1) == 1.0

    def test_hand_built_three_of_four_at_k2(self):
        scores = np.array([
            [0.9, 0.05, 0.05],   # truth 0: rank 1 -> hit
            [0.5, 0.4, 0.1],     # truth 1: rank 2 -> hit
            [0.6, 0.3, 0.1],     # truth 2: rank 3 -> miss
            [0.2, 0.3, 0.5],     # truth 2: rank 1 -> hit
        ])
        truth = np.array([0, 1, 2, 2])
        batch = E.PredictionBatch(scores, truth)
        # Brute-force indicator loop, straight from the definition.
        hits = 0
        for i in range(4):
            hits += int(truth[i] in sort_oracle(scores[i], 2))
        assert hits == 3
        assert E.top_k_accuracy(batch, 2) == hits / 4

    def test_k_equals_n_classes_is_always_one(self):
        rng = np.random.default_rng(1)
        batch = E.PredictionBatch(rng.normal(size=(10, 6)), rng.integers(0, 6, 10))
        assert E.top_k_accuracy(batch, 6) == 1.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            batch = E.PredictionBatch(rng.normal(size=(15, 8)), rng.integers(0, 8, 15))
            accs = [E.top_k_accuracy(batch, k) for k in range(1, 9)]
            assert all(a <= b for a, b in zip(accs, accs[1:]))
            assert accs[-1] == 1.0

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(12, 5))
        truth = rng.integers(0, 5, 12)
        base = E.PredictionBatch(scores, truth)
        for transform in (lambda s: 2.0 * s + 1.0, np.tanh, lambda s: s ** 3):
            other = E.PredictionBatch(transform(scores), truth)
            for k in range(1, 6):
                assert E.top_k_accuracy(other, k) == E.top_k_accuracy(base, k)

    def test_invariant_under_row_permutation(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=(20, 4))
        truth = rng.integers(0, 4, 20)
        perm = rng.permutation(20)
        a = E.PredictionBatch(scores, truth)
        b = E.PredictionBatch(scores[perm], truth[perm])
        for k in (1, 2, 3, 4):
            assert E.top_k_accuracy(a, k) == E.top_k_accuracy(b, k)


def linear_spec(features, classes):
    return M.ModelSpec((1, 1, features),
                       (M.flatten_spec(), M.dense_spec("out", classes, "softmax")),
                       top_boundary=0)


class TestEvaluate:
    def _batches(self, x, labels, size):
        out = []
        for start in range(0, x.shape[0], size):
            out.append((Tensor4(x[start:start + size].copy()), labels[start:start + size]))
        return out

    def test_constant_model_on_balanced_set_scores_one_over_n(self):
        # Zero weights make every row's scores identical; ties resolve to
        # class 0, so exactly the class-0 samples are top-1 hits.
        n = 4
        spec = linear_spec(3, n)
        params = M.ParamStore({"out.weights": np.zeros((3, n)), "out.bias": np.zeros(n)})
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4 * n, 1, 1, 3))
        truth = np.repeat(np.arange(n), 4)
        report = E.evaluate(spec, params, self._batches(x, truth, 5), ks=(1, 2))
        assert report.accuracy(1) == 1.0 / n
        assert report.n_samples == 4 * n

    def test_matches_sample_by_sample_recomputation(self):
        spec = linear_spec(4, 6)
        params = M.init_params(spec, seed=3, dtype=np.float64)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(50, 1, 1, 4))
        truth = rng.integers(0, 6, 50)
        report = E.evaluate(spec, params, self._batches(x, truth, 7), ks=(1, 3, 5))
        scores = M.forward(spec, params, Tensor4(x.copy())).data.reshape(50, 6)
        for k in (1, 3, 5):
            hits = sum(int(truth[i] in sort_oracle(scores[i], k)) for i in range(50))
            assert report.hits[k] == hits
            assert report.accuracy(k) == hits / 50

    def test_top1_not_above_top5(self):
        spec = linear_spec(3, 8)
        params = M.init_params(spec, seed=4, dtype=np.float64)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(30, 1, 1, 3))
        truth = rng.integers(0, 8, 30)
        report = E.evaluate(spec, params, self._batches(x, truth, 10))
        assert report.ks == (1, 5)
        assert report.accuracy(1) <= report.accuracy(5)

    def test_per_class_counts(self):
        spec = linear_spec(2, 3)
        params = M.init_params(spec, seed=5, dtype=np.float64)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(21, 1, 1, 2))
        truth = rng.integers(0, 3, 21)
        report = E.evaluate(spec, params, self._batches(x, truth, 4), ks=(1,))
        assert report.class_total.sum() == 21
        np.testing.assert_array_equal(report.class_total,
                                      np.bincount(truth, minlength=3))
        assert (report.class_correct <= report.class_total).all()
        assert report.class_correct.sum() == report.hits[1]

    def test_accepts_one_hot_labels(self):
        spec = linear_spec(2, 3)
        params = M.init_params(spec, seed=6, dtype=np.float64)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(9, 1, 1, 2))
        truth = rng.integers(0, 3, 9)
        by_index = E.evaluate(spec, params, self._batches(x, truth, 3), ks=(1,))
        onehot = E.one_hot_matrix(truth, 3)
        by_onehot = E.evaluate(spec, params, self._batches(x, onehot, 3), ks=(1,))
        assert by_index.hits == by_onehot.hits

    def test_empty_split_rejected(self):
        spec = linear_spec(2, 3)
        params = M.init_params(spec, seed=7)
        with pytest.raises(DataError):
            E.evaluate(spec, params, [], ks=(1,))

    def test_bad_k_rejected(self):
        spec = linear_spec(2, 3)
        params = M.init_params(spec, seed=8, dtype=np.float64)
        x = np.zeros((2, 1, 1, 2))
        with pytest.raises(ValueError):
            E.evaluate(spec, params, self._batches(x, np.array([0, 1]), 2), ks=(4,))


class TestReportCsv:
    def test_layout(self):
        report = E.EvalReport(6, 3, {1: 4, 5: 6},
                              np.array([2, 1, 1]), np.array([2, 2, 2]))
        text = E.report_to_csv(report)
        lines = text.splitlines()
        assert lines[0] == "class,correct,total,top1"
        assert lines[1] == "0,2,2,1.0"
        assert lines[2] == "1,1,2,0.5"
        assert lines[-1] == f"summary,6,{4 / 6!r},1.0"
        assert text.endswith("\n")

    def test_class_names_and_missing_top5(self):
        report = E.EvalReport(4, 2, {1: 3}, np.array([2, 1]), np.array([2, 2]))
        text = E.report_to_csv(report, class_names=["ramen", "sushi"])
        lines = text.splitlines()
        assert lines[1].startswith("ramen,")
        assert lines[-1] == "summary,4,0.75,"
