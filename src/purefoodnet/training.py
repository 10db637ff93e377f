"""Whole-model reverse-mode gradients, the cross-entropy objective,
Nesterov-momentum SGD with step decay, the training loop with early
stopping, the history CSV, and fit diagnostics; each layer kind's backward
is in `layers`, beside its forward. The training loop evaluates gradients
at the Nesterov lookahead point theta + mu*v, then applies
v <- mu*v - lr*grad and theta <- theta + v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import layers as L
from . import models as M
from .errors import ConfigError, DataFormatError, NonFiniteError, ShapeError
from .evaluation import check_one_hot
from .layers import (batchnorm_backward, conv2d_backward, dense_backward, dense_backward_from_pre,
                     dropout_backward, flatten_backward, pool_backward)
from .seeding import make_rng
from .tensor import Tensor4, all_finite, atomic_write_bytes, check_round_trip, decode_utf8

GradStore = dict[str, np.ndarray]

LOG_FLOOR = 1e-12


def _as_rows(x) -> np.ndarray:
    arr = x.data if isinstance(x, Tensor4) else np.asarray(x)
    return arr.reshape(arr.shape[0], -1)


def cross_entropy_loss(probs, labels) -> float:
    """Mean over the batch of -log(probability of the true class)."""
    p = _as_rows(probs)
    y = _as_rows(labels)
    if p.shape != y.shape:
        raise ShapeError(f"probs shape {p.shape} != labels shape {y.shape}")
    check_one_hot(y)
    true_p = (p * y).sum(axis=1)
    return float(-np.log(np.maximum(true_p, LOG_FLOOR)).mean())


# ---------------------------------------------------------------------------
# Whole-model objective and gradients.
# ---------------------------------------------------------------------------

# Backward pass per layer kind: (d, cache, need_dx) -> (dx, gradients of the
# kind's trainable fields in table order). Only kinds with trainable fields
# can be the lowest layer a backward reaches, so only they skip dx. The
# lambdas look up the backwards imported from `layers` in this module's
# globals when they run, so each can be swapped here (`training.<name>`).
_BACKWARD = {
    "conv": lambda d, cache, need_dx: conv2d_backward(d, cache, need_dx),
    "pool": lambda d, cache, need_dx: (pool_backward(d, cache),),
    "flatten": lambda d, cache, need_dx: (flatten_backward(d, cache),),
    "dense": lambda d, cache, need_dx: dense_backward(d, cache, need_dx),
    "dropout": lambda d, cache, need_dx: (dropout_backward(d, cache),),
    "batchnorm": lambda d, cache, need_dx: batchnorm_backward(d, cache, need_dx),
}


def _lowest_trainable(spec: M.ModelSpec) -> int | None:
    """Index of the lowest layer with trainable parameters; None if none has."""
    return next((i for i, layer in enumerate(spec.layers)
                 if layer.trainable and M.KIND_TABLE[layer.kind].trainable), None)


def loss_and_gradients(spec: M.ModelSpec, params: M.ParamStore, x: Tensor4,
                       labels: np.ndarray, l2_strength: float = 0.0,
                       l1_strength: float = 0.0,
                       rng: np.random.Generator | None = None, first: int = 0):
    """Training-mode forward plus full backward.

    Returns (loss, grads, probs) where loss is the regularized objective,
    grads covers exactly the trainable parameters, and probs is the softmax
    output. The cross-entropy/softmax pair is differentiated jointly as
    (probs - labels) / batch through the predictor's pre-activation. Each
    trainable batch norm folds this batch's statistics into its running ones,
    which neither the loss nor the gradients read.

    `first` (internal; see `_frozen_prefix`) starts the forward at that
    layer, x being its input. The penalties, the predictor check and the
    lowest trainable layer still come from the whole spec.
    """
    last = spec.layers[-1] if spec.layers else None
    if last is None or last.kind != "dense" or last.activation != "softmax":
        raise ConfigError("training needs a dense softmax predictor as the final layer")
    lowest = _lowest_trainable(spec)
    if first > (len(spec.layers) - 1 if lowest is None else lowest):
        raise ValueError(f"layer {first} is above the lowest trainable layer or the predictor")
    probs, caches = M.forward_with_caches(spec, params, x, training=True, rng=rng, first=first)
    y = _as_rows(labels)
    loss = cross_entropy_loss(probs, y)
    penalized = M.penalized_weight_names(spec)
    if l2_strength:
        loss += L.l2_penalty((params[n] for n in penalized), l2_strength)
    if l1_strength:
        loss += L.l1_penalty((params[n] for n in penalized), l1_strength)

    grads: GradStore = {}
    if lowest is None:
        return loss, grads, probs

    def record(layer, param_grads):
        if layer.trainable:
            for field, g in zip(M.KIND_TABLE[layer.kind].trainable, param_grads):
                grads[f"{layer.name}.{field}"] = g

    # Backward stops at the lowest layer with trainable parameters, which
    # computes no input gradient: nothing below it would use one.
    top = len(spec.layers) - 1
    d_pre = (_as_rows(probs) - y) / y.shape[0]
    d, *param_grads = dense_backward_from_pre(d_pre.astype(probs.dtype), caches[-1][1],
                                              need_dx=lowest < top)
    record(last, param_grads)
    for index in range(top - 1, lowest - 1, -1):
        layer, cache = caches[index - first]
        d, *param_grads = _BACKWARD[layer.kind](d, cache, index > lowest)
        record(layer, param_grads)

    if l2_strength or l1_strength:
        for name in penalized:
            if name in grads:
                w = params[name]
                if l2_strength:
                    grads[name] = grads[name] + 2.0 * l2_strength * w
                if l1_strength:
                    grads[name] = grads[name] + l1_strength * np.sign(w)
    return loss, grads, probs


def backward(spec: M.ModelSpec, params: M.ParamStore, x: Tensor4,
             labels: np.ndarray, l2_strength: float = 0.0,
             l1_strength: float = 0.0,
             rng: np.random.Generator | None = None) -> GradStore:
    """Gradients of the regularized objective for every trainable parameter."""
    _, grads, _ = loss_and_gradients(spec, params, x, labels, l2_strength,
                                     l1_strength, rng)
    return grads


# ---------------------------------------------------------------------------
# Settings and optimizer.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """Every training setting, with its default and its range check."""

    epochs: int = 50  # 0 trains nothing
    batch_size: int = 32
    learning_rate: float = 0.01
    momentum: float = 0.9
    decay_factor: float = 0.5
    decay_interval: int = 20
    patience: int | None = 5  # None disables early stopping
    l2_strength: float = 0.0
    l1_strength: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if not 0 < self.learning_rate < math.inf:  # false for NaN too
            raise ConfigError(
                f"learning rate must be finite and positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 < self.decay_factor <= 1.0:
            raise ConfigError(f"decay factor must be in (0, 1], got {self.decay_factor}")
        if self.decay_interval < 1:
            raise ConfigError(f"decay interval must be >= 1, got {self.decay_interval}")
        if self.patience is not None and self.patience < 0:
            raise ConfigError(f"patience must be >= 0, got {self.patience}")
        if not (0 <= self.l2_strength < math.inf and 0 <= self.l1_strength < math.inf):
            raise ConfigError("penalty strengths must be finite and >= 0")


def scheduled_lr(config: TrainConfig, epoch: int) -> float:
    """Step decay: the base rate is multiplied by decay_factor once per
    completed decay_interval. Epochs are 1-based."""
    if epoch < 1:
        raise ValueError(f"epoch must be >= 1, got {epoch}")
    return config.learning_rate * config.decay_factor ** ((epoch - 1) // config.decay_interval)


def lookahead_params(params: M.ParamStore, velocity: GradStore, momentum: float,
                     trainable_names) -> M.ParamStore:
    """The Nesterov evaluation point theta + mu*v. Only the shifted arrays are
    new, and only they are checked; the rest, running statistics and frozen
    tensors among them, are shared by reference, so in-place stat updates
    during the lookahead forward land in the caller's store."""
    return params.replaced({name: params[name] + momentum * velocity[name]
                            for name in trainable_names
                            if name in velocity and momentum != 0.0})


def sgd_nesterov_step(params: M.ParamStore, grads: GradStore, velocity: GradStore,
                      momentum: float, lr: float) -> None:
    """v <- mu*v - lr*grad; theta <- theta + v, applied in place to `params`
    and `velocity` (a parameter without velocity starts at zero).

    `grads` must hold gradients evaluated at the lookahead point (see
    `lookahead_params`); only parameters present in `grads` move.
    """
    for name, g in grads.items():
        if not all_finite(g):
            raise NonFiniteError(f"gradient for {name!r} is not finite")
        if g.shape != params[name].shape:
            raise ShapeError(
                f"gradient for {name!r} has shape {g.shape}, parameter is {params[name].shape}"
            )
        v = velocity.get(name)
        if v is None:
            v = np.zeros_like(params[name])
            velocity[name] = v
        v *= momentum
        v -= lr * g.astype(v.dtype, copy=False)
        params[name] = params[name] + v


# ---------------------------------------------------------------------------
# Training loop.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    train_top1: float
    val_loss: float
    val_top1: float
    lr: float


@dataclass
class EarlyStopState:
    """Tracks the best validation metric and the snapshot taken at it."""

    patience: int | None
    best_val_metric: float = -math.inf
    best_epoch: int = 0
    snapshot: M.ParamStore | None = None
    epochs_since_best: int = 0

    def update(self, epoch: int, metric: float, params: M.ParamStore) -> bool:
        """Record this epoch; returns True when training should stop."""
        if metric > self.best_val_metric:
            self.best_val_metric = metric
            self.best_epoch = epoch
            self.snapshot = params.copy()
            self.epochs_since_best = 0
            return False
        self.epochs_since_best += 1
        return self.patience is not None and self.epochs_since_best > self.patience


@dataclass
class TrainResult:
    params: M.ParamStore  # snapshot from the best validation epoch
    history: list[EpochStats]
    best_epoch: int
    best_val_top1: float
    stopped_early: bool


def _top1_hits(probs, labels: np.ndarray) -> int:
    p = _as_rows(probs)
    return int((p.argmax(axis=1) == labels.argmax(axis=1)).sum())


def _batches(source, config: TrainConfig, epoch: int | None = None):
    """One pass over a batch source: a callable, given the epoch of a training
    pass, or an in-memory (Tensor4, labels) pair, which a training pass
    shuffles with the epoch's seed."""
    if callable(source):
        yield from (source() if epoch is None else source(epoch))
        return
    x, labels = source
    n = x.i
    if labels.shape[0] != n:
        raise ShapeError(f"{n} images but {labels.shape[0]} label rows")
    order = np.arange(n)
    if epoch is not None:
        order = make_rng(config.seed, "shuffle", epoch).permutation(n)
    for start in range(0, n, config.batch_size):
        take = order[start:start + config.batch_size]
        yield Tensor4(x.data[take]), labels[take]


def evaluate_loss_top1(spec: M.ModelSpec, params: M.ParamStore, batches, first: int = 0):
    """Inference-mode mean cross-entropy and top-1 accuracy over batches;
    `first` (internal) starts the forward at that layer, each batch being
    its input."""
    loss_sum = 0.0
    hits = 0
    count = 0
    for xb, yb in batches:
        probs = M.forward(spec, params, xb, first=first)
        y = _as_rows(yb)
        loss_sum += cross_entropy_loss(probs, y) * xb.i
        hits += _top1_hits(probs, y)
        count += xb.i
    if count == 0:
        return math.nan, math.nan
    return loss_sum / count, hits / count


def _frozen_prefix(spec: M.ModelSpec) -> int:
    """How many leading layers `train` runs once per image: those below the
    lowest layer with trainable parameters, up to the first dropout that
    draws a mask, never the final predictor. No step moves their parameters
    and a frozen batch norm normalizes with its running statistics, so their
    training output is the bytes of their inference output."""
    lowest = _lowest_trainable(spec)
    stop = max(len(spec.layers) - 1, 0) if lowest is None else lowest
    return next((i for i, layer in enumerate(spec.layers[:stop])
                 if layer.kind == "dropout" and layer.rate > 0), stop)


# Bytes, keys included, of frozen-prefix outputs one `train` call keeps.
_MEMO_BYTES = 256 * 2**20


class _PrefixMemo(dict):
    """(image bytes, shape, dtype, images in its batch) -> the image's output
    of the frozen prefix, kept by one `train` call for its later passes. It
    stores a batch whole or not at all, within `budget` bytes, keys
    included; the first batch that does not fit makes it `full`, and it
    stores nothing more.

    The conv GEMMs pick their BLAS kernel by row count, so a row is reused
    only in a batch of the size it was computed in, and a batch with any
    image missing is run whole, never as a smaller batch: every row has the
    bytes a forward of its batch would give."""

    def __init__(self, spec: M.ModelSpec, params: M.ParamStore, stop: int, budget: int):
        super().__init__()
        self.spec, self.params, self.stop, self.budget = spec, params, stop, budget
        self.nbytes = 0
        self.returns = 0  # looked-up images stored before, at any batch size
        self.images = set()  # (image bytes, shape, dtype) of each stored row
        self.full = False

    def clear(self):
        super().clear()
        self.images.clear()
        self.nbytes = 0

    def features(self, x: Tensor4, look: bool = True) -> Tensor4:
        """The prefix output of batch x; with `look` false the memo is neither
        read nor written."""
        if not self.stop:
            return x
        keys = [(image.tobytes(), image.shape, image.dtype.str, x.i)
                for image in x.data] if look else []
        self.returns += sum(key[:3] in self.images for key in keys)
        rows = [self.get(key) for key in keys]
        if rows and all(row is not None for row in rows):
            return Tensor4(np.stack(rows))
        out = M.forward(self.spec, self.params, x, stop=self.stop)
        new = {key: row for key, row in zip(keys, out.data) if key not in self}
        size = sum(len(key[0]) + row.nbytes for key, row in new.items())
        self.full = self.full or self.nbytes + size > self.budget
        if not self.full:
            self.update((key, row.copy()) for key, row in new.items())
            self.images.update(key[:3] for key in new)
            self.nbytes += size
        return out

    def fill(self, batches) -> int:
        """Store the prefix outputs of `batches`, in order, until a batch does
        not fit; returns how many batches were stored. A batch that the rows
        stored so far (or, before any, its keys alone) show cannot fit is
        not run."""
        stored = 0
        if not self.stop:
            return stored
        for xb, _ in batches:
            row = self.nbytes / len(self) if self else xb.data[0].nbytes
            if self.nbytes + xb.i * row > self.budget:
                self.full = True
            else:
                self.features(xb)
            if self.full:
                break
            stored += 1
        return stored


# A diverging run reports the finiteness check it fails, not numpy's warnings.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(spec: M.ModelSpec, params: M.ParamStore, train_set, val_set,
          config: TrainConfig = TrainConfig()) -> TrainResult:
    """Run the full optimization loop.

    `train_set` is either an in-memory pair (Tensor4, one-hot labels), which
    the loop shuffles and slices into `config.batch_size` mini-batches per
    epoch, or a callable `epoch -> iterable of (Tensor4, labels)` batches
    (the hook data pipelines use to inject augmentation). `val_set` is a pair
    or a zero-argument callable; pass None to skip validation, which then
    requires patience=None.

    `params` is updated in place epoch by epoch; the returned result carries
    the snapshot from the best validation epoch (final params when there is
    no validation). Identical seeds and data reproduce history and parameters
    bit for bit.

    The frozen prefix (`_frozen_prefix`) runs once per image and batch size
    per call, up to `_MEMO_BYTES` of stored outputs (`_PrefixMemo`).
    Validation batches are stored first, in their order, before epoch 1:
    every pass serves those that fit. The room left takes training rows,
    served whenever a shuffle brings a batch of stored rows back. Training
    batches stop using it, and its rows go, when a training batch does not
    fit (a reshuffled batch then seldom finds all its rows) or a pass after
    the first brings back no more than half its images stored before, at
    any batch size. An augmented image comes back only when a reshuffle
    puts its source where it was (the augmentation draws by stream
    position); an un-augmented pass brings back all of its images, though
    it may be served none of its batches whole, since a reshuffle moves
    images between the full batches and a partial last one.
    """
    if val_set is None and config.patience is not None:
        raise ConfigError("early stopping needs a validation set (or set patience=None)")
    velocity: GradStore = {}
    trainable = M.trainable_param_names(spec)
    stopper = EarlyStopState(patience=config.patience)
    history: list[EpochStats] = []
    stopped_early = False
    first = _frozen_prefix(spec)
    val_memo = _PrefixMemo(spec, params, first, _MEMO_BYTES)
    stored = 0 if val_set is None else val_memo.fill(_batches(val_set, config))
    train_memo = _PrefixMemo(spec, params, first, _MEMO_BYTES - val_memo.nbytes)
    look = True  # whether training batches use train_memo

    for epoch in range(1, config.epochs + 1):
        lr = scheduled_lr(config, epoch)
        loss_sum = 0.0
        hits = 0
        count = 0
        batch_index = 0
        returns = train_memo.returns
        for xb, yb in _batches(train_set, config, epoch):
            rng = make_rng(config.seed, "dropout", epoch, batch_index)
            shifted = lookahead_params(params, velocity, config.momentum, trainable)
            features = train_memo.features(xb, look)
            look = look and not train_memo.full
            loss, grads, probs = loss_and_gradients(
                spec, shifted, features, yb,
                l2_strength=config.l2_strength, l1_strength=config.l1_strength,
                rng=rng, first=first)
            loss_sum += loss * xb.i
            hits += _top1_hits(probs, _as_rows(yb))
            count += xb.i
            if grads:
                sgd_nesterov_step(params, grads, velocity, config.momentum, lr)
            batch_index += 1
        if count == 0:
            raise ConfigError("training set produced no batches")
        train_loss, train_top1 = loss_sum / count, hits / count
        look = look and (epoch == 1 or 2 * (train_memo.returns - returns) > count)
        if not look:
            train_memo.clear()

        if val_set is None:
            val_loss = val_top1 = math.nan
        else:
            val_batches = ((val_memo.features(xb, index < stored), yb)
                           for index, (xb, yb) in enumerate(_batches(val_set, config)))
            val_loss, val_top1 = evaluate_loss_top1(spec, params, val_batches, first)
            if math.isnan(val_top1) and config.patience is not None:
                raise ConfigError("early stopping needs at least one validation sample")
        history.append(EpochStats(epoch, train_loss, train_top1, val_loss, val_top1, lr))

        if val_set is None:
            continue
        if stopper.update(epoch, val_top1, params):
            stopped_early = True
            break

    if stopper.snapshot is None:  # no epochs, or no validation top-1 to rank them
        return TrainResult(params.copy(), history, len(history), math.nan, stopped_early)
    return TrainResult(stopper.snapshot, history, stopper.best_epoch,
                       stopper.best_val_metric, stopped_early)


# ---------------------------------------------------------------------------
# History CSV.
# ---------------------------------------------------------------------------

HISTORY_HEADER = "epoch,train_loss,train_top1,val_loss,val_top1,lr"


def history_to_csv(history) -> str:
    lines = [HISTORY_HEADER]
    for row in history:
        lines.append(f"{row.epoch},{row.train_loss!r},{row.train_top1!r},"
                     f"{row.val_loss!r},{row.val_top1!r},{row.lr!r}")
    return "\n".join(lines) + "\n"


def _history_row_faults(row: EpochStats, epoch: int) -> list[str]:
    """Why `train` could not have written `row` as its epoch-th row. Any
    comparison with NaN is false, so NaN passes only where both validation
    columns hold it: `train` writes that when it has no validation set."""
    checks = (
        (row.epoch == epoch, f"epoch {row.epoch} where {epoch} belongs (epochs count up from 1)"),
        (0.0 <= row.train_loss < math.inf, "train_loss must be finite and >= 0"),
        (0.0 <= row.train_top1 <= 1.0, "train_top1 must be in [0, 1]"),
        ((0.0 <= row.val_loss < math.inf and 0.0 <= row.val_top1 <= 1.0)
         or (math.isnan(row.val_loss) and math.isnan(row.val_top1)),
         "val_loss must be finite and >= 0 and val_top1 in [0, 1], or both nan"),
        (0.0 < row.lr < math.inf, "lr must be finite and > 0"),
    )
    return [message for ok, message in checks if not ok]


def history_from_csv(text: str) -> list[EpochStats]:
    """The epochs of the history CSV `history_to_csv` wrote as `text`; blank
    lines are ignored. A row `train` could not have written, or any other
    text than the writer's, raises DataFormatError naming the line."""
    lines = [(lineno, line) for lineno, line in enumerate(text.splitlines(), start=1)
             if line.strip()]
    if not lines or lines[0][1] != HISTORY_HEADER:
        raise DataFormatError(f"history CSV must start with {HISTORY_HEADER!r}")
    out = []
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 6:
            raise DataFormatError(f"line {lineno}: expected 6 columns, got {len(parts)}")
        try:
            row = EpochStats(int(parts[0]), *(float(p) for p in parts[1:]))
        except ValueError:  # int() also refuses more than 4300 digits
            raise DataFormatError(f"line {lineno}: bad number in {line!r}") from None
        faults = _history_row_faults(row, len(out) + 1)
        if faults:
            raise DataFormatError(f"line {lineno}: {'; '.join(faults)}")
        out.append(row)
    check_round_trip(lines, history_to_csv(out))
    return out


def write_history_csv(path, history) -> None:
    atomic_write_bytes(path, history_to_csv(history).encode("utf-8"))


def read_history_csv(path) -> list[EpochStats]:
    with open(path, "rb") as fh:
        return history_from_csv(decode_utf8(fh.read(), f"history CSV {path}"))


# ---------------------------------------------------------------------------
# Fit diagnostics.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitThresholds:
    """Error-rate cutoffs: low/high bounds on train error and the allowed
    train/validation gap."""

    low_error: float = 0.10
    high_error: float = 0.30
    gap: float = 0.15

    def __post_init__(self):
        if not 0.0 <= self.low_error <= self.high_error <= 1.0:
            raise ConfigError(
                f"need 0 <= low_error <= high_error <= 1, got "
                f"{self.low_error}, {self.high_error}"
            )
        if self.gap < 0:
            raise ConfigError(f"gap threshold must be >= 0, got {self.gap}")


@dataclass(frozen=True)
class FitVerdict:
    label: str  # underfitting | overfitting | good_fit | inconclusive
    train_error: float
    val_error: float
    gap: float


def diagnose_fit(history, thresholds: FitThresholds = FitThresholds()) -> FitVerdict:
    """Classify the final epoch's error pattern.

    High train error means the model never fit (underfitting); low train
    error with a large validation gap means it memorized (overfitting); low
    errors on both sides with a small gap is a good fit; anything else is
    inconclusive.
    """
    if not history:
        raise ValueError("history must contain at least one epoch")
    last = history[-1]
    train_error = 1.0 - last.train_top1
    val_error = 1.0 - last.val_top1
    gap = val_error - train_error
    t = thresholds
    if train_error > t.high_error:
        label = "underfitting"
    elif train_error <= t.low_error and gap > t.gap:
        label = "overfitting"
    elif train_error <= t.low_error and val_error <= t.low_error and gap <= t.gap:
        label = "good_fit"
    else:
        label = "inconclusive"
    return FitVerdict(label, train_error, val_error, gap)
