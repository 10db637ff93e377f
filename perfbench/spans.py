"""Outside-in spans for the benchmark's traced runs.

`Tracer.installed()` replaces each public function of the engine at the
attribute its caller looks up with a timing wrapper, and puts every
original back when the context exits. Spans stay in memory as
[name, start, end, parent, work] and are written out once, by `dump`, when
the traced process ends. `layer_metrics` turns the spans of one or more
processes into the per-layer metrics named in BENCHMARK.json.

Nothing under src/ knows about this module: the engine runs unchanged and
only the names it resolves at call time are swapped.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
from time import perf_counter

NAME, START, END, PARENT, WORK = range(5)


def rss_mb() -> float:
    """Current resident set size of this process, from /proc/self/statm."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self.distinct = {}  # span name -> set of distinct inputs (decoded paths)
        self._stack = []

    def wrap(self, name, fn, work=None, key=None, before=None):
        """Return fn wrapped in a span.

        `work(args, kwargs, result, state)` computes the span's work count
        after the call, where `state` is what `before()` returned at entry;
        `key(args, kwargs)` names the input for the distinct-input count.
        """
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            state = before() if before else None
            index = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, 0.0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][END] = perf_counter()
            if work:
                spans[index][WORK] = work(args, kwargs, result, state)
            if key:
                self.distinct.setdefault(name, set()).add(key(args, kwargs))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_iterator(self, name, fn):
        """Wrap a function returning an iterator so that each next() is a span."""
        spans, stack = self.spans, self._stack

        def timed(iterator):
            while True:
                index = len(spans)
                spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, 0.0])
                stack.append(index)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    spans[index][END] = perf_counter()
                yield item

        def wrapper(*args, **kwargs):
            return timed(iter(fn(*args, **kwargs)))

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target in `engine_targets()`; restore them on exit."""
        saved = []
        try:
            for owner, attr, name, options in engine_targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if options.get("iterator"):
                    replacement = self.wrap_iterator(name, original)
                else:
                    replacement = self.wrap(name, original, **options)
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path, label) -> None:
        """Write the spans of this process (one JSON document) to path."""
        doc = {"label": label, "spans": self.spans,
               "distinct": {name: len(keys) for name, keys in self.distinct.items()}}
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# What gets wrapped, and the work each call does (computed from shapes and
# file sizes, never measured).


def _conv_fwd_gflop(args, kwargs, result, state):
    x, layer = args[0], args[1]
    out = result[0]
    f, k, _, c = layer.filters.shape
    return 2.0 * x.i * out.h * out.w * f * k * k * c / 1e9


def _conv_bwd_gflop(args, kwargs, result, state):
    d, cache = args[0], args[1]
    i, oh, ow, f = d.shape
    _, k, _, c = cache.filters.shape
    return 2 * (2.0 * i * oh * ow * f * k * k * c) / 1e9  # dx plus dw


def _file_mb(args, kwargs, result, state):
    """Size of the file named by the first argument (read or just written)."""
    return os.path.getsize(args[0]) / 2**20


def _load_weights_work(args, kwargs, result, state):
    # [PFW1 MB read, peak RSS growth in MB across the call]
    return [_file_mb(args, kwargs, result, state), peak_rss_mb() - state]


def engine_targets():
    """(owner, attribute, span name, wrap options) for every traced function.

    Each owner is the namespace the caller resolves the name in: models
    calls layers through `L.`, dataio imported `apply_policy` by name, and
    the training loop calls its backward passes as module globals.
    """
    from purefoodnet import dataio, evaluation, layers, models, tensor, training

    return [
        (tensor.Tensor4, "__init__", "tensor.construct", {}),
        (layers.ConvLayer, "__post_init__", "layers.param_check", {}),
        (layers.DenseLayer, "__post_init__", "layers.param_check", {}),
        (layers.BatchNormLayer, "__post_init__", "layers.param_check", {}),
        (layers, "conv2d_cached", "layers.conv_fwd", {"work": _conv_fwd_gflop}),
        (layers, "batchnorm_cached", "layers.bn_fwd", {}),
        (layers, "pool_cached", "layers.pool_fwd", {}),
        (layers, "dense_cached", "layers.dense_fwd", {}),
        (layers, "flatten_cached", "layers.flatten_fwd", {}),
        (layers, "dropout_cached", "layers.dropout_fwd", {}),
        (training, "train", "training.train", {}),
        (training, "loss_and_gradients", "training.step", {}),
        (training, "conv2d_backward", "training.conv_bwd", {"work": _conv_bwd_gflop}),
        (training, "batchnorm_backward", "training.bn_bwd", {}),
        (training, "pool_backward", "training.pool_bwd", {}),
        (training, "dense_backward", "training.dense_bwd", {}),
        (training, "lookahead_params", "training.optimizer", {}),
        (training, "sgd_nesterov_step", "training.optimizer", {}),
        (training, "evaluate_loss_top1", "training.validate", {}),
        (models, "forward", "models.forward", {}),
        (models, "forward_with_caches", "models.forward_with_caches", {}),
        (models, "init_params", "models.init_params", {}),
        (models, "save_weights", "models.save_weights", {"work": _file_mb}),
        (models, "load_weights", "models.load_weights",
         {"work": _load_weights_work, "before": rss_mb}),
        (dataio, "load_image", "dataio.decode",
         {"work": _file_mb, "key": lambda args, kwargs: os.fspath(args[0])}),
        (dataio, "pack_image", "dataio.pack", {}),
        (dataio, "apply_policy", "augment.apply", {}),
        (dataio, "batch_iterator", "dataio.batch_next", {"iterator": True}),
        (evaluation, "evaluate", "evaluation.evaluate", {}),
    ]


# ---------------------------------------------------------------------------
# Aggregation.

CLI_COMMANDS = ("train", "finetune", "eval", "predict")

# Kernel spans whose time counts toward a layer kind's share of step time.
STEP_SHARES = {
    "conv": ("layers.conv_fwd", "training.conv_bwd"),
    "bn": ("layers.bn_fwd", "training.bn_bwd"),
    "pool": ("layers.pool_fwd", "training.pool_bwd"),
    "dense": ("layers.dense_fwd", "training.dense_bwd"),
}

# name -> unit, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "tensor.construct_ms": "ms",
    "tensor.constructs": "count",
    "layers.conv_fwd_ms": "ms",
    "layers.conv_fwd_calls": "count",
    "layers.conv_fwd_gflop": "GFLOP",
    "layers.bn_fwd_ms": "ms",
    "layers.pool_fwd_ms": "ms",
    "layers.dense_fwd_ms": "ms",
    "layers.param_check_ms": "ms",
    "training.calls": "count",
    "training.steps": "count",
    "training.step_ms": "ms",
    "training.conv_step_share_pct": "%",
    "training.bn_step_share_pct": "%",
    "training.pool_step_share_pct": "%",
    "training.dense_step_share_pct": "%",
    "training.conv_bwd_ms": "ms",
    "training.conv_bwd_calls": "count",
    "training.conv_bwd_gflop": "GFLOP",
    "training.bn_bwd_ms": "ms",
    "training.pool_bwd_ms": "ms",
    "training.dense_bwd_ms": "ms",
    "training.optimizer_ms": "ms",
    "training.validate_ms": "ms",
    "models.forward_self_ms": "ms",
    "models.load_weights_ms": "ms",
    "models.load_weights_rss_mb": "MB",
    "models.pfw1_read_mb": "MB",
    "models.save_weights_ms": "ms",
    "models.pfw1_written_mb": "MB",
    "models.init_params_ms": "ms",
    "augment.apply_ms": "ms",
    "augment.images": "count",
    "dataio.decode_ms": "ms",
    "dataio.decodes": "count",
    "dataio.decode_mb": "MB",
    "dataio.decodes_per_image": "ratio",
    "dataio.pack_ms": "ms",
    "dataio.batch_wait_ms": "ms",
    "evaluation.evaluate_ms": "ms",
    "cli.train_self_ms": "ms",
    "cli.finetune_self_ms": "ms",
    "cli.eval_self_ms": "ms",
    "cli.predict_self_ms": "ms",
    "cli.startup_ms": "ms",
    "cli.train_conv_bwd_calls": "count",
    "cli.finetune_conv_bwd_calls": "count",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


class _Totals:
    def __init__(self):
        self.ms = {}
        self.self_ms = {}
        self.calls = {}
        self.work = {}

    def add(self, name, dur_ms, self_ms, work):
        self.ms[name] = self.ms.get(name, 0.0) + dur_ms
        self.self_ms[name] = self.self_ms.get(name, 0.0) + self_ms
        self.calls[name] = self.calls.get(name, 0) + 1
        if isinstance(work, list):
            old = self.work.get(name, [0.0] * len(work))
            self.work[name] = [a + b for a, b in zip(old, work)]
        else:
            self.work[name] = self.work.get(name, 0.0) + work


def _self_times(spans):
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _inside(spans, index, name):
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(docs, overhead_pct):
    """Per-layer metrics from the span documents of every traced process.

    Each doc is what `Tracer.dump` wrote, plus `wall_s` (the process wall
    time measured by its parent) for CLI processes. Times are inclusive
    span durations unless the name says self.
    """
    totals = _Totals()
    in_step = {kind: 0.0 for kind in STEP_SHARES}
    cli_self = {cmd: 0.0 for cmd in CLI_COMMANDS}
    cli_conv_bwd = {cmd: 0 for cmd in CLI_COMMANDS}
    startup_ms = 0.0
    distinct_decoded = 0
    n_spans = 0
    for doc in docs:
        spans = doc["spans"]
        n_spans += len(spans)
        selfs = _self_times(spans)
        for index, span in enumerate(spans):
            name = span[NAME]
            totals.add(name, 1e3 * (span[END] - span[START]), 1e3 * selfs[index], span[WORK])
            for kind, names in STEP_SHARES.items():
                if name in names and _inside(spans, index, "training.step"):
                    in_step[kind] += 1e3 * (span[END] - span[START])
            if name == "cli.main":
                cli_self[doc["label"]] += 1e3 * selfs[index]
                startup_ms += 1e3 * (doc["wall_s"] - (span[END] - span[START]))
            if name == "training.conv_bwd" and doc["label"] in cli_conv_bwd:
                cli_conv_bwd[doc["label"]] += 1
        distinct_decoded += doc["distinct"].get("dataio.decode", 0)

    ms, calls, work = totals.ms, totals.calls, totals.work

    def t(name):
        return ms.get(name, 0.0)

    step_ms = t("training.step") + t("training.optimizer")
    load_work = work.get("models.load_weights", [0.0, 0.0])
    decodes = calls.get("dataio.decode", 0)
    out = {
        "tensor.construct_ms": t("tensor.construct"),
        "tensor.constructs": calls.get("tensor.construct", 0),
        "layers.conv_fwd_ms": t("layers.conv_fwd"),
        "layers.conv_fwd_calls": calls.get("layers.conv_fwd", 0),
        "layers.conv_fwd_gflop": work.get("layers.conv_fwd", 0.0),
        "layers.bn_fwd_ms": t("layers.bn_fwd"),
        "layers.pool_fwd_ms": t("layers.pool_fwd"),
        "layers.dense_fwd_ms": t("layers.dense_fwd"),
        "layers.param_check_ms": t("layers.param_check"),
        "training.calls": sum(n for name, n in calls.items() if name.startswith("training.")),
        "training.steps": calls.get("training.step", 0),
        "training.step_ms": step_ms,
        "training.conv_bwd_ms": t("training.conv_bwd"),
        "training.conv_bwd_calls": calls.get("training.conv_bwd", 0),
        "training.conv_bwd_gflop": work.get("training.conv_bwd", 0.0),
        "training.bn_bwd_ms": t("training.bn_bwd"),
        "training.pool_bwd_ms": t("training.pool_bwd"),
        "training.dense_bwd_ms": t("training.dense_bwd"),
        "training.optimizer_ms": t("training.optimizer"),
        "training.validate_ms": t("training.validate"),
        "models.forward_self_ms": totals.self_ms.get("models.forward_with_caches", 0.0),
        "models.load_weights_ms": t("models.load_weights"),
        "models.load_weights_rss_mb": load_work[1],
        "models.pfw1_read_mb": load_work[0],
        "models.save_weights_ms": t("models.save_weights"),
        "models.pfw1_written_mb": work.get("models.save_weights", 0.0),
        "models.init_params_ms": t("models.init_params"),
        "augment.apply_ms": t("augment.apply"),
        "augment.images": calls.get("augment.apply", 0),
        "dataio.decode_ms": t("dataio.decode"),
        "dataio.decodes": decodes,
        "dataio.decode_mb": work.get("dataio.decode", 0.0),
        "dataio.decodes_per_image": decodes / distinct_decoded if distinct_decoded else 0.0,
        "dataio.pack_ms": t("dataio.pack"),
        "dataio.batch_wait_ms": t("dataio.batch_next"),
        "evaluation.evaluate_ms": t("evaluation.evaluate"),
        "cli.startup_ms": startup_ms,
        "trace.spans": n_spans,
        "trace.overhead_pct": overhead_pct,
    }
    for kind, value in in_step.items():
        out[f"training.{kind}_step_share_pct"] = 100.0 * value / step_ms if step_ms else 0.0
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}_self_ms"] = cli_self[cmd]
    for cmd in ("train", "finetune"):
        out[f"cli.{cmd}_conv_bwd_calls"] = cli_conv_bwd[cmd]
    return {name: (out[name], unit) for name, unit in LAYER_METRICS.items()}
