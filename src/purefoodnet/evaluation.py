"""One-hot label codecs, top-k accuracy, and evaluation reports.

Every metric here, and training's top-1, reads one ranking of the scores,
`rank`: a stable argsort on negated scores, so tied scores resolve to the
lower class index first and every count is deterministic. The class count
and the ks come from the model spec alone (`plan_scores`), before any
forward or weight read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import models
from .errors import DataError, ShapeError
from .tensor import Tensor4

__all__ = [
    "EvalReport",
    "PredictionBatch",
    "ScorePlan",
    "check_one_hot",
    "evaluate",
    "hit_counts",
    "one_hot_matrix",
    "plan_scores",
    "rank",
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


def _truth_indices(truth, n_rows: int, n_classes: int) -> np.ndarray:
    """The true class index of each of n_rows score rows over n_classes,
    from class indices or one-hot rows, checked against both counts."""
    truth = np.asarray(truth)
    if truth.ndim == 2:
        if truth.shape[1] != n_classes:
            raise ShapeError(f"labels have {truth.shape[1]} columns, scores {n_classes}")
        check_one_hot(truth)
        truth = truth.argmax(axis=1)
    elif truth.ndim != 1:
        raise ShapeError(f"labels must be indices or one-hot rows, got shape {truth.shape}")
    truth = truth.astype(np.int64)
    if truth.shape[0] != n_rows:
        raise ShapeError(f"{n_rows} score rows but {truth.shape[0]} labels")
    if truth.min() < 0 or truth.max() >= n_classes:
        raise ValueError("truth indices out of range")
    return truth


@dataclass(frozen=True)
class PredictionBatch:
    """Score matrix plus the true class index of each row."""

    scores: np.ndarray
    truth: np.ndarray

    def __post_init__(self):
        scores = np.array(self.scores, dtype=np.float64)  # a copy, frozen below as truth is
        if scores.ndim != 2 or scores.shape[0] < 1 or scores.shape[1] < 1:
            raise ShapeError(f"scores must be (N, n_classes) with N >= 1, got {scores.shape}")
        if not np.isfinite(scores).all():
            raise ValueError("scores contain non-finite values")
        truth = _truth_indices(self.truth, *scores.shape)
        for name, arr in (("scores", scores), ("truth", truth)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_samples(self) -> int:
        return self.scores.shape[0]

    @property
    def n_classes(self) -> int:
        return self.scores.shape[1]


def check_k(k: int, n_classes: int) -> None:
    if not 1 <= k <= n_classes:
        raise ValueError(f"k must be in [1, {n_classes}], got {k}")


def rank(scores) -> np.ndarray:
    """The class indices of each score row (the last axis), highest score
    first; of tied scores the lower index comes first."""
    return np.argsort(-np.asarray(scores), axis=-1, kind="stable")


def hit_counts(order: np.ndarray, truth: np.ndarray, ks) -> dict[int, int]:
    """Per k, how many rows of a ranking (`rank` of an (N, n_classes) score
    matrix) hold their true class index among their first k."""
    return {k: int((order[:, :k] == truth[:, None]).any(axis=1).sum()) for k in ks}


def top_k_candidates(score_row, k: int) -> np.ndarray:
    """Indices of the k highest scores in `rank` order, ties to the lower index."""
    row = np.asarray(score_row, dtype=np.float64)
    if row.ndim != 1:
        raise ShapeError(f"expected a score row, got shape {row.shape}")
    check_k(k, row.shape[0])
    return rank(row)[:k]


def top_k_accuracy(batch: PredictionBatch, k: int) -> float:
    """Fraction of rows whose true class lands in the top-k candidate set."""
    check_k(k, batch.n_classes)
    return hit_counts(rank(batch.scores), batch.truth, (k,))[k] / batch.n_samples


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


class ScorePlan(NamedTuple):
    """A model's scores, read from its spec alone: the (h, w, c) output of
    one image, its class count (every cell of that output) and the ks."""

    shape: tuple
    n_classes: int
    ks: tuple


def plan_scores(spec, ks=None) -> ScorePlan:
    """The scores of `spec` and the ks to rank them by: `ks` without repeats
    (default 1 and 5, or 1 below 5 classes), each checked against the class
    count. A command calls this before it reads any weight."""
    shape = tuple(models.infer_shapes(spec)[-1])
    n_classes = math.prod(shape)
    if ks is None:
        ks = (k for k in (1, 5) if k <= n_classes)
    ks = tuple(dict.fromkeys(int(k) for k in ks))
    for k in ks:
        check_k(k, n_classes)
    return ScorePlan(shape, n_classes, ks)


def evaluate(spec, params, batches, ks=None) -> EvalReport:
    """Run inference over an iterable of (Tensor4, labels) batches, labels
    as class-index vectors or one-hot rows. `plan_scores` sizes the report,
    so a bad k, or an output that is not a score vector, is refused before
    the first forward. Top-k hits and per-class top-1 (column 0) read one
    `rank` of each batch. Counters are exact integers; a report is the merge
    of its batches in any order."""
    plan = plan_scores(spec, ks)
    if plan.shape[:2] != (1, 1):
        raise ShapeError(f"model output is not a score vector: {plan.shape}")
    hits = dict.fromkeys(plan.ks, 0)
    class_correct, class_total = np.zeros((2, plan.n_classes), dtype=np.int64)
    for x, labels in batches:
        if not isinstance(x, Tensor4):
            x = Tensor4(np.asarray(x))
        out = models.forward(spec, params, x)  # a Tensor4: finite, at least one row
        truth = _truth_indices(labels, out.i, plan.n_classes)
        order = rank(out.data.reshape(out.i, plan.n_classes))
        for k, count in hit_counts(order, truth, plan.ks).items():
            hits[k] += count
        np.add.at(class_total, truth, 1)
        np.add.at(class_correct, truth[order[:, 0] == truth], 1)
    n_samples = int(class_total.sum())
    if n_samples == 0:
        raise DataError("evaluation split produced no batches")
    return EvalReport(n_samples, plan.n_classes, hits, class_correct, class_total)


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
