"""Declarative model specs, parameter stores, the reference food-recognition
architecture, transfer-learning surgery, and weight serialization.

A `ModelSpec` is an immutable sequence of `LayerSpec`s plus an input shape
and a `top_boundary` index that splits the convolutional backbone from the
classification top. Parameters live outside the spec in a `ParamStore`
keyed `"<layer>.<field>"`, so the same spec can be evaluated against many
parameter sets.

Two on-disk formats live here: a line-oriented text form of the spec
(one layer per line, `name kind key=value ...`) and the "PFW1" weight
container, which binds its tensors to a digest of the spec text so weights
cannot be loaded onto a different architecture.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import io
import math
import struct
from collections import UserDict
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import layers as L
from . import workers
from .errors import (
    DataFormatError,
    GeometryError,
    NonFiniteError,
    ShapeError,
    UnknownLayerError,
    WeightDigestError,
)
from .seeding import make_rng
from .tensor import (
    ConvGeometry,
    Tensor4,
    all_finite,
    atomic_write_bytes,
    check_round_trip,
    conv_output_size,
    decode_utf8,
    pft1_parts,
    pft1_read,
    same_padding_amount,
)

PFW1_MAGIC = b"PFW1"

# Reference architecture constants: conv layers per block and base filter
# counts, scaled by width_scale at build time.
PUREFOODNET_BLOCKS = (2, 3, 3)
PUREFOODNET_WIDTHS = (128, 256, 512)
PUREFOODNET_DENSE_WIDTH = 512


@dataclass(frozen=True)
class LayerSpec:
    """One layer's kind, name, hyperparameters, and trainable flag.

    Fields that do not apply to the kind must stay None; validation is
    per kind.
    """

    name: str
    kind: str
    trainable: bool = True
    filters: int | None = None
    kernel: int | None = None
    stride: int | None = None
    padding: int | None = None
    activation: str | None = None
    window: int | None = None
    mode: str | None = None
    units: int | None = None
    rate: float | None = None

    def __post_init__(self):
        if not self.name or any(ch.isspace() for ch in self.name):
            raise ValueError(f"layer name must be a non-empty token, got {self.name!r}")
        kind = KIND_TABLE.get(self.kind)
        if kind is None:
            raise UnknownLayerError(f"unknown layer kind {self.kind!r} (layer {self.name!r})")
        for f in dataclasses.fields(self)[3:]:  # the per-kind hyperparameters
            v = getattr(self, f.name)
            if f.name in kind.keys and v is None:
                raise ValueError(f"layer {self.name!r} ({self.kind}) is missing {f.name}")
            if f.name not in kind.keys and v is not None:
                raise ValueError(f"layer {self.name!r} ({self.kind}) does not take {f.name}")
        if self.rate is not None:  # so the text form spells it as its reader returns it
            object.__setattr__(self, "rate", float(self.rate))
        if not kind.valid(self):
            values = ", ".join(f"{key}={getattr(self, key)!r}" for key in kind.keys)
            raise ValueError(f"layer {self.name!r} ({self.kind}): invalid {values}")


# ---------------------------------------------------------------------------
# Layer kinds: one table entry holds everything the engine knows about a
# kind. A new kind is one entry here plus its forward and backward in
# `layers` (the backward registered in `training._BACKWARD`).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerKind:
    keys: tuple[str, ...]  # LayerSpec fields in text-form order (hashed into the digest)
    # (layer, param getter, x, training, rng) -> (out, cache); in inference a
    # kind may return a None cache.
    forward: Callable
    valid: Callable = lambda layer: True  # hyperparameter values are in range
    out_shape: Callable = lambda layer, h, w, c: (h, w, c)
    params: Callable = lambda layer, c: {}  # (layer, c_in) -> {field: shape}, in storage order
    trainable: tuple[str, ...] = ()  # fields the optimizer updates
    penalized: tuple[str, ...] = ()  # fields the L1/L2 penalties cover


def _geometry(layer: LayerSpec) -> ConvGeometry:
    return ConvGeometry(layer.kernel, layer.stride, layer.padding)


def _conv_layer(layer: LayerSpec, p) -> L.ConvLayer:
    return L.ConvLayer(p("filters"), p("bias"), _geometry(layer), layer.activation)


def _pool_layer(layer: LayerSpec) -> L.PoolLayer:
    return L.PoolLayer(layer.window, layer.stride, layer.mode)


def _batchnorm_layer(p) -> L.BatchNormLayer:
    return L.BatchNormLayer(p("gamma"), p("beta"), p("running_mean"), p("running_var"))


def _dense_out(layer: LayerSpec, h: int, w: int, c: int):
    if h != 1 or w != 1:
        raise ShapeError(f"dense needs flattened input, have ({h}, {w}, {c})")
    return h, w, layer.units


# The forwards resolve `L.<kernel>` when they run, so a kernel can be
# swapped at its module attribute (as the benchmark's tracer does).
KIND_TABLE = {
    "conv": LayerKind(
        keys=("filters", "kernel", "stride", "padding", "activation"),
        # _geometry raises GeometryError for a bad kernel, stride or padding.
        valid=lambda layer: (layer.filters >= 1 and _geometry(layer) is not None
                             and layer.activation in L.CONV_ACTIVATIONS),
        out_shape=lambda layer, h, w, c: (conv_output_size(h, _geometry(layer)),
                                          conv_output_size(w, _geometry(layer)), layer.filters),
        params=lambda layer, c: {"filters": (layer.filters, layer.kernel, layer.kernel, c),
                                 "bias": (layer.filters,)},
        trainable=("filters", "bias"),
        penalized=("filters",),
        forward=lambda layer, p, x, training, rng: L.conv2d_cached(
            x, _conv_layer(layer, p), need_cache=training),
    ),
    "pool": LayerKind(
        keys=("mode", "window", "stride"),
        valid=lambda layer: (layer.window >= 1 and layer.stride >= 1
                             and layer.mode in L.POOL_MODES),
        out_shape=lambda layer, h, w, c: (*L.pool_output_size(h, w, layer.window, layer.stride), c),
        forward=lambda layer, p, x, training, rng: L.pool_cached(
            x, _pool_layer(layer), need_cache=training),
    ),
    "flatten": LayerKind(
        keys=(),
        out_shape=lambda layer, h, w, c: (1, 1, h * w * c),
        forward=lambda layer, p, x, training, rng: L.flatten_cached(x),
    ),
    "dense": LayerKind(
        keys=("units", "activation"),
        valid=lambda layer: layer.units >= 1 and layer.activation in L.DENSE_ACTIVATIONS,
        out_shape=_dense_out,
        params=lambda layer, c: {"weights": (c, layer.units), "bias": (layer.units,)},
        trainable=("weights", "bias"),
        penalized=("weights",),
        forward=lambda layer, p, x, training, rng: L.dense_cached(
            x, L.DenseLayer(p("weights"), p("bias"), layer.activation)),
    ),
    "dropout": LayerKind(
        keys=("rate",),
        valid=lambda layer: 0.0 <= layer.rate < 1.0,
        forward=lambda layer, p, x, training, rng: L.dropout_cached(
            x, L.DropoutLayer(layer.rate), training, rng),
    ),
    # Frozen batch norm runs on its running statistics even during training,
    # so freezing keeps its bytes exactly stable.
    "batchnorm": LayerKind(
        keys=(),
        params=lambda layer, c: dict.fromkeys(("gamma", "beta", "running_mean", "running_var"),
                                              (c,)),
        trainable=("gamma", "beta"),
        forward=lambda layer, p, x, training, rng: L.batchnorm_cached(
            x, _batchnorm_layer(p), training and layer.trainable, need_cache=training),
    ),
}


def conv_spec(name, filters, kernel=3, stride=1, padding=None, activation="relu"):
    """Conv LayerSpec; padding defaults to the size-preserving amount."""
    if padding is None:
        padding = same_padding_amount(kernel)
    return LayerSpec(name=name, kind="conv", filters=filters, kernel=kernel,
                     stride=stride, padding=padding, activation=activation)


def pool_spec(name, window=2, stride=2, mode="max"):
    return LayerSpec(name=name, kind="pool", window=window, stride=stride, mode=mode)


def flatten_spec(name="flatten"):
    return LayerSpec(name=name, kind="flatten")


def dense_spec(name, units, activation="none"):
    return LayerSpec(name=name, kind="dense", units=units, activation=activation)


def dropout_spec(name, rate):
    return LayerSpec(name=name, kind="dropout", rate=rate)


def batchnorm_spec(name):
    return LayerSpec(name=name, kind="batchnorm")


@dataclass(frozen=True)
class ModelSpec:
    """Input shape (h, w, c), ordered layers, and the backbone/top split."""

    input_shape: tuple[int, int, int]
    layers: tuple[LayerSpec, ...]
    top_boundary: int

    def __post_init__(self):
        h, w, c = self.input_shape
        if min(h, w, c) < 1:
            raise ValueError(f"input shape must be positive, got {self.input_shape}")
        object.__setattr__(self, "input_shape", (int(h), int(w), int(c)))
        object.__setattr__(self, "layers", tuple(self.layers))
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate layer names: {dupes}")
        if not 0 <= self.top_boundary <= len(self.layers):
            raise ValueError(
                f"top_boundary {self.top_boundary} outside [0, {len(self.layers)}]"
            )
        infer_shapes(self)  # fail construction if the chain cannot be evaluated


def infer_shapes(spec: ModelSpec) -> list[tuple[int, int, int]]:
    """Per-boundary (h, w, c) shapes: entry 0 is the input, entry j+1 follows
    layer j. Raises naming the offending layer when a chain is impossible."""
    shapes = [tuple(spec.input_shape)]
    h, w, c = spec.input_shape
    for layer in spec.layers:
        try:
            h, w, c = KIND_TABLE[layer.kind].out_shape(layer, h, w, c)
        except GeometryError as e:
            raise GeometryError(f"layer {layer.name!r}: {e}") from None
        except ShapeError as e:
            raise ShapeError(f"layer {layer.name!r}: {e}") from None
        shapes.append((h, w, c))
    return shapes


class ParamStore(UserDict):
    """Ordered mapping of parameter name to ndarray of finite values.

    Holds trainable tensors and batch-norm running statistics alike; what the
    optimizer may touch is decided by `trainable_param_names`, not here.
    `UserDict` routes the constructor, `update` and `setdefault` through
    `__setitem__`, the one place parameters are checked; `!=` inverts `__eq__`.
    """

    def __setitem__(self, name: str, arr: np.ndarray):
        if not isinstance(arr, np.ndarray):
            raise TypeError(f"parameter {name!r} must be an ndarray, got {type(arr).__name__}")
        if not all_finite(arr):
            raise NonFiniteError(f"parameter {name!r} must be finite")
        self.data[name] = arr

    def __ior__(self, other):  # UserDict's `|=` would write to `data` unchecked
        self.update(other)
        return self

    def __missing__(self, name: str):
        raise KeyError(f"no parameter named {name!r}")

    def copy(self) -> "ParamStore":
        return ParamStore({name: arr.copy() for name, arr in self.data.items()})

    def replaced(self, changes) -> "ParamStore":
        """A new store sharing this one's arrays, `changes` checked and stored over them."""
        new = ParamStore()
        new.data.update(self.data)
        new.update(changes)
        return new

    def __eq__(self, other):
        """Same names in order, and arrays of one dtype, shape and bytes: -0.0 is not +0.0."""
        if not isinstance(other, ParamStore):
            return NotImplemented
        return list(self) == list(other) and all(
            a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(f"V{a.itemsize}"), b.view(f"V{b.itemsize}"))
            for a, b in zip(self.data.values(), other.data.values()))

    def __repr__(self):
        return f"ParamStore({len(self)} tensors)"


def param_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    """Expected name -> shape for every parameter of the spec, in layer order."""
    out: dict[str, tuple[int, ...]] = {}
    for layer, (_, _, c_in) in zip(spec.layers, infer_shapes(spec)):
        for field, shape in KIND_TABLE[layer.kind].params(layer, c_in).items():
            out[f"{layer.name}.{field}"] = shape
    return out


def trainable_param_names(spec: ModelSpec) -> list[str]:
    """Parameters the optimizer may update: weights and biases of trainable
    layers plus batch-norm gamma/beta. Running statistics are never included."""
    return [f"{layer.name}.{field}" for layer in spec.layers if layer.trainable
            for field in KIND_TABLE[layer.kind].trainable]


def penalized_weight_names(spec: ModelSpec) -> list[str]:
    """Weight tensors subject to L1/L2 penalties: conv filters and dense
    weight matrices. Biases and batch-norm parameters are exempt."""
    return [f"{layer.name}.{field}" for layer in spec.layers
            for field in KIND_TABLE[layer.kind].penalized]


# Values a Glorot draw takes from its stream at a time: the float64 draw is
# never held whole (fc1 at paper scale is 205 M values).
_INIT_CHUNK_VALUES = 1 << 20


def glorot_init(shape, rng: np.random.Generator, dtype=np.float64) -> np.ndarray:
    """Uniform samples in +-sqrt(6 / (fan_in + fan_out)), as `dtype`.

    Dense (n_in, n_out) shapes use the two dims directly; conv banks
    (f, k, k, c) use receptive-field fans k*k*c and k*k*f. The values are
    those of `rng.uniform(-bound, bound, size=shape)`, drawn in row chunks
    cast straight into the result. A PCG64 draw over
    workers._ONE_BLOCK_BYTES goes in one share of rows per worker, each
    from a copy of the stream advanced past the values before it (a double
    is one output; Philox's `advance` counts four); `rng` is then advanced
    past the draw, keeping its buffered uint32.
    """
    if len(shape) == 2:
        fan_in, fan_out = shape
    elif len(shape) == 4:
        f, k1, k2, c = shape
        fan_in = k1 * k2 * c
        fan_out = k1 * k2 * f
    else:
        raise ShapeError(f"no fan rule for shape {shape}")
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    out = np.empty(shape, dtype=dtype)
    rows = out.reshape(shape[0], -1)
    bits = rng.bit_generator
    if out.nbytes <= workers._ONE_BLOCK_BYTES or not isinstance(bits, np.random.PCG64):
        _draw_rows(rng, bound, rows)
        return out
    workers.run_jobs([partial(_draw_rows, np.random.Generator(
        copy.deepcopy(bits).advance(lo * rows.shape[1])), bound, rows[lo:hi])
        for lo, hi in workers.shares(len(rows))])
    state = bits.state
    bits.state = {**bits.advance(rows.size).state,
                  "has_uint32": state["has_uint32"], "uinteger": state["uinteger"]}
    return out


def _draw_rows(rng: np.random.Generator, bound: float, rows: np.ndarray) -> None:
    """Fill `rows` with `rng.uniform(-bound, bound)` draws, in row chunks."""
    step = max(1, _INIT_CHUNK_VALUES // rows.shape[1])
    for r in range(0, len(rows), step):
        rows[r:r + step] = rng.uniform(-bound, bound, size=rows[r:r + step].shape)


def _fresh_param(name: str, shape, seed: int, dtype) -> np.ndarray:
    """The initial value of parameter `name`: Glorot-uniform weights from
    the layer's own seeded stream, zero biases and shifts, unit scales."""
    layer_name, field = name.rsplit(".", 1)
    if field in ("filters", "weights"):
        return glorot_init(shape, make_rng(seed, "init", layer_name), dtype)
    if field in ("bias", "beta", "running_mean"):
        return np.zeros(shape, dtype=dtype)
    return np.ones(shape, dtype=dtype)  # gamma, running_var


def init_params(spec: ModelSpec, seed: int = 0, dtype=np.float32) -> ParamStore:
    """Fresh parameters: Glorot-uniform weights, zero biases, identity norms.

    Each layer draws from its own seeded stream, so adding or removing one
    layer leaves the others' initial values untouched.
    """
    return ParamStore({name: _fresh_param(name, shape, seed, dtype)
                       for name, shape in param_shapes(spec).items()})


def apply_layer(layer: LayerSpec, params: ParamStore, x: Tensor4, training: bool = False,
                rng: np.random.Generator | None = None) -> tuple[Tensor4, object]:
    """One layer on x: (output, cache). In training a trainable batch norm uses
    batch statistics, dropout draws its mask from `rng` and the cache is what
    backward reads; in inference batch norm uses running statistics, dropout is
    the identity and a conv, pool or batch norm returns a None cache."""
    return KIND_TABLE[layer.kind].forward(layer, _params_of(layer, params), x, training, rng)


def _params_of(layer: LayerSpec, params: ParamStore) -> Callable:
    """field -> the layer's parameter of that name in `params`."""
    return lambda field: params[f"{layer.name}.{field}"]


def forward_with_caches(spec: ModelSpec, params: ParamStore, x: Tensor4,
                        rng: np.random.Generator | None = None, first: int = 0,
                        ) -> tuple[Tensor4, list[tuple[LayerSpec, object]]]:
    """The training walk: every layer in training mode, its cache kept in layer
    order. `first` (internal) starts at that layer, x being its input; the
    caches then cover spec.layers[first:]."""
    caches = []
    for layer in spec.layers[first:]:
        x, cache = apply_layer(layer, params, x, True, rng)
        caches.append((layer, cache))
    return x, caches


def forward(spec: ModelSpec, params: ParamStore, x: Tensor4,
            first: int = 0, stop: int | None = None) -> Tensor4:
    """Run the whole model in inference mode; returns the final layer's output.
    `first` and `stop` (internal; `capture_activations` walks by them) run only
    the layers spec.layers[first:stop], x being the input of layer `first`.

    No layer keeps a cache. Each conv runs the batch norm right after it and
    then a pool whose window is its stride, where those follow, in one
    `layers.conv2d_cached` call (`_conv_run`), at any dtype: its workers
    finish each block of the product through the pool, so no full-size
    conv or batch-norm map of such a run is made. The bytes are those of
    the layers run one by one in inference (`apply_layer`). A conv holds its
    whole im2col matrix only when that is at most 16 MB; a larger one is
    taken in blocks of about 512 KB, one buffer per worker, and no conv
    makes a padded copy of its input.
    """
    run = spec.layers[first:stop]
    j = 0
    while j < len(run):
        if run[j].kind == "conv":
            conv, bn, pool, n = _conv_run(run[j:], params)
            x = L.conv2d_cached(x, conv, need_cache=False, bn=bn, pool=pool)[0]
        else:
            x, n = apply_layer(run[j], params, x)[0], 1
        j += n
    return x


def _conv_run(run, params: ParamStore):
    """(conv, batch norm, pool, layers covered) of the inference run that
    starts at the conv run[0]: the batch norm right after it and then the
    pool after that, each None where absent; a pool whose window is not its
    stride is left out of the run, to run alone."""
    conv = _conv_layer(run[0], _params_of(run[0], params))
    bn = pool = None
    n = 1
    if n < len(run) and run[n].kind == "batchnorm":
        bn, n = _batchnorm_layer(_params_of(run[n], params)), n + 1
    if n < len(run) and run[n].kind == "pool" and run[n].window == run[n].stride:
        pool, n = _pool_layer(run[n]), n + 1
    return conv, bn, pool, n


def _known_names(spec: ModelSpec, layer_names) -> set:
    """The set of `layer_names`; raises UnknownLayerError naming the first
    (in sorted order) that is not a layer of the spec."""
    wanted = set(layer_names)
    missing = sorted(wanted - {layer.name for layer in spec.layers})
    if missing:
        raise UnknownLayerError(f"no layer named {missing[0]!r}")
    return wanted


def capture_activations(spec: ModelSpec, params: ParamStore, x: Tensor4,
                        layer_names) -> dict[str, Tensor4]:
    """Inference-mode outputs at the named layers, keyed by name: `forward` runs
    from one named layer to the next (its conv runs fused) and stops at the last."""
    wanted = _known_names(spec, layer_names)
    captured, first = {}, 0
    for stop, layer in enumerate(spec.layers, 1):
        if layer.name in wanted:
            x = captured[layer.name] = forward(spec, params, x, first, stop)
            first = stop
    return captured


@dataclass(frozen=True)
class LayerLiveness:
    """Dead-filter scan result for one conv layer."""

    layer: str
    filter_count: int
    dead: tuple[int, ...]


def dead_filter_report(spec: ModelSpec, params: ParamStore, probes: Tensor4,
                       threshold: float = 1e-6) -> list[LayerLiveness]:
    """Flag conv filters whose activation never rises above threshold.

    A filter is dead when every value of its output map stays <= threshold
    across every probe image, the signature of a unit that no input can turn
    on.
    """
    conv_names = [layer.name for layer in spec.layers if layer.kind == "conv"]
    return _liveness(capture_activations(spec, params, probes, conv_names), conv_names,
                     threshold)


def _liveness(maps: dict[str, Tensor4], conv_names, threshold: float) -> list[LayerLiveness]:
    """`dead_filter_report` of the conv output maps already captured in `maps`."""
    report = []
    for name in conv_names:
        act = maps[name].data  # (i, h, w, f)
        peak = act.max(axis=(0, 1, 2))
        dead = tuple(int(f) for f in np.flatnonzero(peak <= threshold))
        report.append(LayerLiveness(name, act.shape[3], dead))
    return report


def build_purefoodnet(num_classes: int, width_scale: float = 1.0,
                      input_side: int = 224, dropout_rate: float = 0.5) -> ModelSpec:
    """The reference architecture on RGB input: three conv blocks of (2, 3, 3)
    layers with (128, 256, 512) base filter counts scaled by width_scale,
    every conv 3x3/stride-1/same-padding with fused ReLU and a batch norm
    after it, a 2x2/stride-2 max pool closing each block, then
    flatten -> dense(512 * width_scale, ReLU) -> dropout -> softmax predictor.

    `width_scale` shrinks every width by the same factor so small builds keep
    the exact block structure. top_boundary sits at the flatten layer.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if width_scale <= 0:
        raise ValueError(f"width_scale must be positive, got {width_scale}")
    if input_side < 8 or input_side % 8 != 0:
        raise ValueError(
            f"input_side must be a positive multiple of 8 (three 2x pools), got {input_side}"
        )
    specs = []
    for block, (depth, base) in enumerate(zip(PUREFOODNET_BLOCKS, PUREFOODNET_WIDTHS), start=1):
        filters = round(base * width_scale)
        if filters < 1:
            raise ValueError(f"width_scale {width_scale} collapses block {block} to 0 filters")
        for j in range(1, depth + 1):
            specs.append(conv_spec(f"block{block}_conv{j}", filters))
            specs.append(batchnorm_spec(f"block{block}_bn{j}"))
        specs.append(pool_spec(f"block{block}_pool"))
    dense_width = round(PUREFOODNET_DENSE_WIDTH * width_scale)
    if dense_width < 1:
        raise ValueError(f"width_scale {width_scale} collapses the dense layer to 0 units")
    return ModelSpec(input_shape=(input_side, input_side, 3),
                     layers=(*specs, *_classification_top(dense_width, dropout_rate, num_classes)),
                     top_boundary=len(specs))


def _classification_top(units: int, dropout_rate: float, num_classes: int) -> tuple:
    """flatten -> dense(units, ReLU) -> dropout -> softmax predictor."""
    return (flatten_spec("flatten"),
            dense_spec("fc1", units, activation="relu"),
            dropout_spec("fc1_drop", dropout_rate),
            dense_spec("predictor", num_classes, activation="softmax"))


def strip_top_layers(spec: ModelSpec, params: ParamStore) -> tuple[ModelSpec, ParamStore]:
    """Drop the classification top; keep backbone layers and their weights
    bit-identical."""
    backbone = ModelSpec(input_shape=spec.input_shape,
                         layers=spec.layers[:spec.top_boundary],
                         top_boundary=spec.top_boundary)
    keep = set(param_shapes(backbone))
    backbone_params = ParamStore({name: arr.copy() for name, arr in params.items()
                                  if name in keep})
    return backbone, backbone_params


def attach_head(spec: ModelSpec, params: ParamStore, new_num_classes: int,
                units: int = 512, dropout_rate: float = 0.5,
                seed: int = 0) -> tuple[ModelSpec, ParamStore]:
    """Put a fresh classification top on a backbone.

    The new stack is flatten -> dense(units, ReLU) -> dropout -> softmax
    predictor sized to new_num_classes, Glorot-initialized from `seed`.
    Backbone parameters are carried over bit-identically.
    """
    if new_num_classes < 2:
        raise ValueError(f"new_num_classes must be >= 2, got {new_num_classes}")
    backbone = spec.layers[:spec.top_boundary]
    new_spec = ModelSpec(input_shape=spec.input_shape,
                         layers=(*backbone,
                                 *_classification_top(units, dropout_rate, new_num_classes)),
                         top_boundary=len(backbone))
    shapes = param_shapes(new_spec)
    backbone_names = {layer.name for layer in backbone}
    kept = [name for name in shapes if name.rsplit(".", 1)[0] in backbone_names]
    dtype = params[kept[0]].dtype if kept else np.float32
    # Only the head is drawn: each layer has its own stream, so its values
    # are those `init_params(new_spec)` would give it.
    return new_spec, ParamStore({name: params[name].copy() if name in kept
                                 else _fresh_param(name, shape, seed, dtype)
                                 for name, shape in shapes.items()})


def set_trainable(spec: ModelSpec, layer_names, flag: bool) -> ModelSpec:
    """New spec with the named layers' trainable flag set to `flag`."""
    wanted = _known_names(spec, layer_names)
    new_layers = tuple(
        dataclasses.replace(layer, trainable=flag) if layer.name in wanted else layer
        for layer in spec.layers
    )
    return ModelSpec(spec.input_shape, new_layers, spec.top_boundary)


# ---------------------------------------------------------------------------
# Text form: `input h w c`, `top n`, then one `name kind key=value ...` line
# per layer. The digest hashes the architecture only (trainable flags are
# training metadata and excluded), so freezing layers does not orphan weights.
# ---------------------------------------------------------------------------

def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v) if isinstance(v, float) else str(v)


def _layer_line(layer: LayerSpec, include_trainable: bool) -> str:
    parts = [layer.name, layer.kind]
    parts += [f"{key}={_format_value(getattr(layer, key))}" for key in KIND_TABLE[layer.kind].keys]
    if include_trainable and not layer.trainable:
        parts.append("trainable=false")
    return " ".join(parts)


def _spec_text(spec: ModelSpec, include_trainable: bool) -> str:
    h, w, c = spec.input_shape
    lines = [f"input {h} {w} {c}", f"top {spec.top_boundary}"]
    lines += [_layer_line(layer, include_trainable) for layer in spec.layers]
    return "\n".join(lines) + "\n"


def model_spec_text(spec: ModelSpec) -> str:
    return _spec_text(spec, include_trainable=True)


def spec_digest(spec: ModelSpec) -> bytes:
    return hashlib.sha256(_spec_text(spec, include_trainable=False).encode("utf-8")).digest()


# Each layer key's reader, int unless listed; the round trip checks the spelling.
_VALUE_READERS = {"trainable": lambda raw: raw == "true", "rate": float,
                  "activation": str, "mode": str}
_LAYER_KEYS = {f.name for f in dataclasses.fields(LayerSpec)[2:]}


def parse_model_spec(text: str) -> ModelSpec:
    """The spec `model_spec_text` wrote as `text`. Blank lines and whitespace
    around and between tokens are ignored; any other text than the writer's
    raises DataFormatError naming the line."""
    lines = [(lineno, " ".join(raw.split()))
             for lineno, raw in enumerate(text.splitlines(), start=1) if raw.strip()]
    heads = [line for _, line in lines[:2]]
    if len(heads) < 2 or not heads[0].startswith("input ") or not heads[1].startswith("top "):
        raise DataFormatError("model spec must start with 'input h w c' and 'top n' lines")
    try:
        h, w, c = (int(tok) for tok in heads[0].split()[1:])
        top_boundary = int(heads[1].split()[1])
    except ValueError:
        raise DataFormatError(f"bad model spec header: {heads[0]!r} / {heads[1]!r}") from None
    layer_specs = []
    for lineno, line in lines[2:]:
        tokens = line.split()
        if len(tokens) < 2:
            raise DataFormatError(f"line {lineno}: expected 'name kind ...', got {line!r}")
        fields: dict = {"name": tokens[0], "kind": tokens[1]}
        for token in tokens[2:]:
            key, sep, raw = token.partition("=")
            if not sep or key not in _LAYER_KEYS:
                raise DataFormatError(f"line {lineno}: expected layer key=value, got {token!r}")
            try:
                fields[key] = _VALUE_READERS.get(key, int)(raw)
            except ValueError:
                raise DataFormatError(f"line {lineno}: bad value for {key}: {raw!r}") from None
        try:
            layer_specs.append(LayerSpec(**fields))
        except (ValueError, UnknownLayerError, GeometryError) as e:
            raise DataFormatError(f"line {lineno}: {e}") from None
    try:
        spec = ModelSpec((h, w, c), tuple(layer_specs), top_boundary)
    except (ValueError, GeometryError, ShapeError) as e:
        raise DataFormatError(f"invalid model spec: {e}") from None
    check_round_trip(lines, model_spec_text(spec))
    return spec


def save_model_spec(path, spec: ModelSpec) -> None:
    atomic_write_bytes(path, model_spec_text(spec).encode("utf-8"))


def load_model_spec(path) -> ModelSpec:
    with open(path, "rb") as fh:
        return parse_model_spec(decode_utf8(fh.read(), f"model spec {path}"))


# ---------------------------------------------------------------------------
# PFW1 weight container: magic, 32-byte spec digest, u64 tensor count, then
# per tensor, in the spec's parameter order, a u32 name length, the UTF-8
# name, and a PFT1 record. Rank-1 and rank-2 parameters are stored with
# leading unit dims; on load each record's dims must equal the spec's shape
# padded the same way.
# ---------------------------------------------------------------------------

def _weight_parts(spec: ModelSpec, params: ParamStore) -> list:
    """The PFW1 file of `params` as bytes-like parts, in order; each
    parameter's values are its own array wherever `pft1_parts` allows."""
    expected = param_shapes(spec)
    if list(params.keys()) != list(expected.keys()):
        raise ShapeError(
            f"parameter names do not match the spec: have {sorted(params.keys())[:3]}..., "
            f"expected {sorted(expected.keys())[:3]}..."
        )
    parts = [PFW1_MAGIC, spec_digest(spec), struct.pack("<Q", len(params))]
    for name, arr in params.items():
        if arr.shape != expected[name]:
            raise ShapeError(f"parameter {name!r} has shape {arr.shape}, expected {expected[name]}")
        encoded = name.encode("utf-8")
        parts += [struct.pack("<I", len(encoded)), encoded, *pft1_parts(arr)]
    return parts


def weights_to_bytes(spec: ModelSpec, params: ParamStore) -> bytes:
    return b"".join(_weight_parts(spec, params))


def _read_weights(fh, spec: ModelSpec) -> ParamStore:
    """Parameters from the PFW1 file open for binary reading as `fh`, each
    record's payload read straight into its own array and stored as it is
    read, in `param_shapes` order; the whole file is never held in memory."""
    size = fh.seek(0, io.SEEK_END)
    fh.seek(0)
    head = fh.read(44)
    if len(head) < 44 or head[:4] != PFW1_MAGIC:
        raise DataFormatError("not a PFW1 weight payload")
    digest = head[4:36]
    want = spec_digest(spec)
    if digest != want:
        raise WeightDigestError(
            f"weight file was saved for a different architecture "
            f"(digest {digest.hex()[:12]}..., spec {want.hex()[:12]}...)"
        )
    (count,) = struct.unpack("<Q", head[36:44])
    expected = param_shapes(spec)
    if count != len(expected):
        raise DataFormatError(f"weight file holds {count} tensors, spec needs {len(expected)}")
    params = ParamStore()
    for want, shape in expected.items():
        if fh.tell() + 4 > size:
            raise DataFormatError("truncated weight file (name length)")
        (name_len,) = struct.unpack("<I", fh.read(4))
        name = decode_utf8(fh.read(min(name_len, size - fh.tell())), "weight file parameter name")
        if name != want:
            raise DataFormatError(f"weight file names parameter {name!r} where {want!r} belongs")
        try:
            arr = pft1_read(fh, size - fh.tell())
        except DataFormatError as e:
            raise DataFormatError(f"parameter {name!r}: {e}") from None
        if arr.shape != (1,) * (4 - len(shape)) + shape:
            raise DataFormatError(f"parameter {name!r} has dims {arr.shape}, expected {shape}")
        if name.endswith(".running_var") and (arr < 0).any():
            raise DataFormatError(f"parameter {name!r}: running_var must be nonnegative")
        try:
            params[name] = arr.reshape(shape)
        except NonFiniteError as e:
            raise DataFormatError(str(e)) from None
    if fh.tell() != size:
        raise DataFormatError(f"{size - fh.tell()} trailing bytes in weight file")
    return params


def weights_from_bytes(buf: bytes, spec: ModelSpec) -> ParamStore:
    return _read_weights(io.BytesIO(buf), spec)


def save_weights(path, spec: ModelSpec, params: ParamStore) -> None:
    """The PFW1 file, written part by part: the values go to the file
    straight from each parameter's array when it is C-contiguous."""
    atomic_write_bytes(path, *_weight_parts(spec, params))


def load_weights(path, spec: ModelSpec) -> ParamStore:
    with open(path, "rb") as fh:
        return _read_weights(fh, spec)
