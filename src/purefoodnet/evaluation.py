"""One-hot label codecs, top-k accuracy, and evaluation reports.

Top-k candidate sets are computed by stable argsort on negated scores, so
tied scores resolve to the lower class index first and every metric here
is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ShapeError
from .tensor import Tensor4

__all__ = [
    "EvalReport",
    "PredictionBatch",
    "check_one_hot",
    "evaluate",
    "one_hot_matrix",
    "report_to_csv",
    "top_k_accuracy",
    "top_k_candidates",
]


def one_hot_matrix(indices, n: int) -> np.ndarray:
    """Stack one-hot rows for a vector of class indices."""
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise ShapeError(f"expected a vector of indices, got shape {idx.shape}")
    if n < 1:
        raise ValueError(f"class count must be >= 1, got {n}")
    if idx.size and not 0 <= idx.min() <= idx.max() < n:
        raise ValueError(f"class indices {idx.min()}..{idx.max()} out of range for {n} classes")
    # Row i of the identity, built by comparison: np.eye(n) would hold n^2 floats.
    return (idx[:, None] == np.arange(n)).astype(np.float64)


def check_one_hot(rows: np.ndarray) -> None:
    """Raise ValueError unless every row is 0 except for a single 1."""
    if not (np.isin(rows, (0.0, 1.0)).all() and (rows.sum(axis=1) == 1).all()):
        raise ValueError("labels must be one-hot rows (exactly one 1, rest 0)")


def _truth_indices(labels, n_classes: int) -> np.ndarray:
    """Accept truth as class indices or as one-hot rows."""
    arr = np.asarray(labels)
    if arr.ndim == 2:
        if arr.shape[1] != n_classes:
            raise ShapeError(f"labels have {arr.shape[1]} columns, scores {n_classes}")
        check_one_hot(arr)
        return arr.argmax(axis=1).astype(np.int64)
    if arr.ndim == 1:
        return arr.astype(np.int64)
    raise ShapeError(f"labels must be indices or one-hot rows, got shape {arr.shape}")


@dataclass(frozen=True)
class PredictionBatch:
    """Score matrix plus the true class index of each row."""

    scores: np.ndarray
    truth: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 2 or scores.shape[0] < 1 or scores.shape[1] < 1:
            raise ShapeError(f"scores must be (N, n_classes) with N >= 1, got {scores.shape}")
        if not np.isfinite(scores).all():
            raise ValueError("scores contain non-finite values")
        truth = _truth_indices(self.truth, scores.shape[1])
        if truth.shape[0] != scores.shape[0]:
            raise ShapeError(f"{scores.shape[0]} score rows but {truth.shape[0]} labels")
        if truth.min() < 0 or truth.max() >= scores.shape[1]:
            raise ValueError("truth indices out of range")
        scores = scores.copy()
        scores.setflags(write=False)
        truth = truth.copy()
        truth.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "truth", truth)

    @property
    def n_samples(self) -> int:
        return self.scores.shape[0]

    @property
    def n_classes(self) -> int:
        return self.scores.shape[1]


def check_k(k: int, n_classes: int) -> None:
    if not 1 <= k <= n_classes:
        raise ValueError(f"k must be in [1, {n_classes}], got {k}")


def top_k_candidates(score_row, k: int) -> np.ndarray:
    """Indices of the k highest scores, tied scores to the lower index."""
    row = np.asarray(score_row, dtype=np.float64)
    if row.ndim != 1:
        raise ShapeError(f"expected a score row, got shape {row.shape}")
    check_k(k, row.shape[0])
    return np.argsort(-row, kind="stable")[:k]


def _hit_counts(scores: np.ndarray, truth: np.ndarray, ks) -> dict[int, int]:
    order = np.argsort(-scores, axis=1, kind="stable")
    counts = {}
    for k in ks:
        counts[k] = int((order[:, :k] == truth[:, None]).any(axis=1).sum())
    return counts


def top_k_accuracy(batch: PredictionBatch, k: int) -> float:
    """Fraction of rows whose true class lands in the top-k candidate set."""
    check_k(k, batch.n_classes)
    hits = _hit_counts(batch.scores, batch.truth, (k,))[k]
    return hits / batch.n_samples


@dataclass
class EvalReport:
    """Aggregated accuracy with exact integer counts behind every ratio."""

    n_samples: int
    n_classes: int
    hits: dict[int, int] = field(default_factory=dict)
    class_correct: np.ndarray = None
    class_total: np.ndarray = None

    def accuracy(self, k: int) -> float:
        return self.hits[k] / self.n_samples

    @property
    def ks(self) -> tuple:
        return tuple(sorted(self.hits))


def default_ks(n_classes: int) -> tuple:
    return tuple(k for k in (1, 5) if k <= n_classes)


def evaluate(spec, params, batches, ks=None) -> EvalReport:
    """Run inference over an iterable of (Tensor4, labels) batches.

    Labels may be class-index vectors or one-hot rows. Counters are exact
    integers; a report is the merge of its batches in any order.
    """
    from .models import forward

    n_samples = 0
    n_classes = None
    hits = None
    class_correct = None
    class_total = None
    for x, labels in batches:
        if not isinstance(x, Tensor4):
            x = Tensor4(np.asarray(x))
        out = forward(spec, params, x)
        if out.h != 1 or out.w != 1:
            raise ShapeError(f"model output is not a score vector: {out.shape}")
        scores = out.data.reshape(out.i, out.c)
        if n_classes is None:
            n_classes = scores.shape[1]
            if ks is None:
                ks = default_ks(n_classes)
            ks = tuple(dict.fromkeys(int(k) for k in ks))
            for k in ks:
                check_k(k, n_classes)
            hits = {k: 0 for k in ks}
            class_correct = np.zeros(n_classes, dtype=np.int64)
            class_total = np.zeros(n_classes, dtype=np.int64)
        batch = PredictionBatch(scores, labels)
        for k, count in _hit_counts(batch.scores, batch.truth, ks).items():
            hits[k] += count
        top1 = batch.scores.argmax(axis=1)  # argmax takes the lowest tied index
        np.add.at(class_total, batch.truth, 1)
        np.add.at(class_correct, batch.truth[top1 == batch.truth], 1)
        n_samples += batch.n_samples
    if n_samples == 0:
        raise DataError("evaluation split produced no batches")
    return EvalReport(n_samples, n_classes, hits, class_correct, class_total)


def report_to_csv(report: EvalReport, class_names=None) -> str:
    """Per-class top-1 rows plus a trailing summary line (N, top-1, top-5)."""
    lines = ["class,correct,total,top1"]
    for idx in range(report.n_classes):
        name = class_names[idx] if class_names is not None else str(idx)
        correct = int(report.class_correct[idx])
        total = int(report.class_total[idx])
        ratio = repr(correct / total) if total else ""
        lines.append(f"{name},{correct},{total},{ratio}")
    top1 = repr(report.accuracy(1)) if 1 in report.hits else ""
    top5 = repr(report.accuracy(5)) if 5 in report.hits else ""
    lines.append(f"summary,{report.n_samples},{top1},{top5}")
    return "\n".join(lines) + "\n"
