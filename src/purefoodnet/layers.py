"""Parameterized layers and their forward passes, plus weight penalties.

Layer objects own their parameter arrays (by reference, so a store can hand
the same buffers to many forward calls). Each operation has two entry
points: a plain forward returning the output tensor, and a `*_cached`
variant that additionally returns the intermediates its matching backward
pass (in `training`) consumes. With `need_cache=False` (inference) conv,
pool and batch norm return no cache and keep nothing for a backward.

Pooling is vectorized with `sliding_window_view` over the two spatial axes;
an inference max-pool takes a running maximum of its k*k strided taps
instead, with no winner index. A convolution copies its input windows into
an im2col matrix (one row per output cell, columns in (channel, row,
column) order) and multiplies it by the filter bank, one block of rows at a
time: it fills a buffer with a block and multiplies it into its slice of
the output. When a backward pass will follow, the only block is the whole
matrix, on the calling thread, and the cache keeps it for the filter
gradient. Without one, a matrix larger than one worker's share of about
32 MB is split into one share of output rows per worker, each share going
block by block through that worker's own buffer. There are as many workers
as the CPU affinity mask allows (`taskset` limits them) when OpenBLAS runs
one thread per call (`OPENBLAS_NUM_THREADS=1`), and one otherwise. Every block takes the BLAS
kernel the whole product would, so the bits are the same at any worker
count. Workers run only untraced numpy work (`run_jobs`). Convolutions are
cross-correlations: the kernel is applied as stored, never flipped.
Activations are fused into the conv and dense layers; `softmax` also exists
standalone, with no backward.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateBatchError, GeometryError, NonFiniteError, ShapeError
from .tensor import ConvGeometry, Tensor4, conv_output_size

BATCHNORM_EPS = 1e-5
BATCHNORM_MOMENTUM = 0.1

CONV_ACTIVATIONS = ("relu", "none")
DENSE_ACTIVATIONS = ("relu", "softmax", "none")
POOL_MODES = ("max", "average")


@dataclass
class ConvLayer:
    """Bank of f square kernels applied across channels, bias, fused activation."""

    filters: np.ndarray  # (f, k, k, c_in)
    bias: np.ndarray  # (f,)
    geometry: ConvGeometry
    activation: str = "none"

    def __post_init__(self):
        f = self.filters
        if f.ndim != 4 or f.shape[0] < 1:
            raise ShapeError(f"filter bank must be (f, k, k, c) with f >= 1, got {f.shape}")
        if f.shape[1] != self.geometry.k or f.shape[2] != self.geometry.k:
            raise ShapeError(
                f"filter spatial dims {f.shape[1:3]} do not match kernel side {self.geometry.k}"
            )
        if self.bias.shape != (f.shape[0],):
            raise ShapeError(f"bias must be ({f.shape[0]},), got {self.bias.shape}")
        if self.activation not in CONV_ACTIVATIONS:
            raise ValueError(f"conv activation must be one of {CONV_ACTIVATIONS}, got {self.activation!r}")


@dataclass
class PoolLayer:
    """Square spatial reduction window; mode picks max or mean."""

    window: int
    stride: int
    mode: str = "max"

    def __post_init__(self):
        if self.window < 1 or self.stride < 1:
            raise GeometryError(
                f"pool window and stride must be >= 1, got {self.window}, {self.stride}"
            )
        if self.mode not in POOL_MODES:
            raise ValueError(f"pool mode must be one of {POOL_MODES}, got {self.mode!r}")


@dataclass
class DenseLayer:
    """Affine map on flattened features with an optional fused activation."""

    weights: np.ndarray  # (n_in, n_out)
    bias: np.ndarray  # (n_out,)
    activation: str = "none"

    def __post_init__(self):
        w = self.weights
        if w.ndim != 2 or w.shape[1] < 1:
            raise ShapeError(f"weights must be (n_in, n_out) with n_out >= 1, got {w.shape}")
        if self.bias.shape != (w.shape[1],):
            raise ShapeError(f"bias must be ({w.shape[1]},), got {self.bias.shape}")
        if self.activation not in DENSE_ACTIVATIONS:
            raise ValueError(
                f"dense activation must be one of {DENSE_ACTIVATIONS}, got {self.activation!r}"
            )


@dataclass
class DropoutLayer:
    rate: float

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {self.rate}")


@dataclass
class BatchNormLayer:
    """Per-channel scale/shift with running statistics for inference."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray

    def __post_init__(self):
        c = self.gamma.shape
        for name in ("beta", "running_mean", "running_var"):
            if getattr(self, name).shape != c:
                raise ShapeError(f"batch norm {name} shape {getattr(self, name).shape} != gamma shape {c}")
        if self.gamma.ndim != 1:
            raise ShapeError(f"batch norm parameters must be rank 1, got {self.gamma.ndim}")
        if (self.running_var < 0).any():
            raise ShapeError("running_var must be nonnegative")


class ConvCache(NamedTuple):
    cols: np.ndarray  # im2col matrix (i*oh*ow, c*k*k) of the padded input
    padded_shape: tuple
    filters: np.ndarray
    geometry: ConvGeometry
    relu_mask: np.ndarray | None


class PoolCache(NamedTuple):
    mode: str
    argmax: np.ndarray | None  # flat in-window winner per output cell, ties -> first
    in_shape: tuple
    window: int
    stride: int


class FlattenCache(NamedTuple):
    in_shape: tuple


class DenseCache(NamedTuple):
    x2d: np.ndarray
    weights: np.ndarray
    relu_mask: np.ndarray | None
    probs: np.ndarray | None  # populated when the fused activation is softmax


class DropoutCache(NamedTuple):
    mask: np.ndarray | None  # None when the pass was an identity


class BatchNormCache(NamedTuple):
    x_hat: np.ndarray
    inv_std: np.ndarray
    gamma: np.ndarray
    count: int | None  # per-channel element count; None when running stats were used


# Bytes of im2col matrix filled per block of output rows; a block this size
# stays in cache while all k*k taps are written into it.
_IM2COL_BLOCK_BYTES = 1 << 19
# Bytes of im2col matrix a conv holds at once, across all its workers, when
# it keeps no cache.
_GEMM_BLOCK_BYTES = 32 << 20
# A block of the product must take the BLAS kernel the whole product takes,
# or its bits differ: OpenBLAS uses GEMV for one row or one column and a
# small-matrix kernel up to 10^6 multiply-adds. So a block has at least this
# many rows and multiply-adds, and a one-filter product is never split.
_MIN_BLOCK_ROWS = 256
_MIN_BLOCK_MACS = 1 << 20
# CPUs this process may use: the affinity mask where the platform has one,
# else every CPU.
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)


def _one_blas_thread() -> bool:
    """Whether OpenBLAS runs each call on one thread: the first of its
    thread-count variables that holds a positive number says 1."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value) == 1
    return False


# Threads that run conv work at once: one per CPU, numpy releasing the GIL
# in np.dot and in large copies and ufunc loops, but only while each BLAS
# call stays on one thread. Otherwise OpenBLAS starts a team per call, the
# teams of two callers compete for the same CPUs, and the work stays on the
# calling thread: with OpenBLAS's default team on two CPUs, two workers
# trained 7% slower than one and took 14 MB more memory.
_WORKERS = _CPUS if _one_blas_thread() else 1
# The calling thread is one worker; the pool's threads start on first use.
_POOL = ThreadPoolExecutor(max(1, _WORKERS - 1), thread_name_prefix="purefoodnet")


def run_jobs(jobs) -> list:
    """The result of each callable in `jobs`, in order. With more than one
    worker, this thread runs jobs[0] while the pool runs the rest; either
    way every job has finished before this returns or raises, and the first
    error in job order is the one raised. Jobs must do only untraced numpy
    work: the benchmark's span tracer is not thread-safe."""
    if _WORKERS == 1:
        return [job() for job in jobs]
    futures = [_POOL.submit(job) for job in jobs[1:]]
    try:
        first = jobs[0]()
    finally:
        wait(futures)
    return [first, *(future.result() for future in futures)]


def _im2col(xp: np.ndarray, k: int, s: int, oh: int, ow: int,
            out: np.ndarray, first: int) -> np.ndarray:
    """Fill `out` with rows of the (i*oh*ow, c*k*k) matrix of every k x k
    window of xp at stride s, columns in (c, k, k) order: as many output
    rows' worth as `out` holds, from output row `first` on (output row u is
    row u % oh of image u // oh). Rows are filled one tap at a time per
    block of one image: a single copy of the 6-D window view runs its
    innermost loop over only k elements, and measured about 2x slower."""
    c = xp.shape[3]
    units = out.reshape(-1, ow, c, k, k)
    rows = max(1, _IM2COL_BLOCK_BYTES // (ow * c * k * k * xp.itemsize))
    done = 0
    while done < len(units):
        n, r = divmod(first + done, oh)
        block = units[done:done + min(rows, oh - r)]
        last = s * (len(block) - 1) + 1
        for p in range(k):
            for q in range(k):
                block[..., p, q] = xp[n, s * r + p:s * r + p + last:s,
                                      q:q + s * (ow - 1) + 1:s]
        done += len(block)
    return out


def _least_units(ow: int, width: int, f: int) -> int:
    """Output rows (ow im2col rows each) in the smallest block that takes
    the BLAS kernel of the whole product."""
    return max(-(-_MIN_BLOCK_ROWS // ow), -(-_MIN_BLOCK_MACS // (ow * width * f)))


def _block_units(units: int, ow: int, width: int, f: int, itemsize: int) -> int:
    """Output rows per block of a conv that keeps no cache: one worker's
    share of the byte budget, but never below the kernel minimums; `units`,
    the number of output rows, means one block."""
    if f < 2:
        return units
    b = max(_least_units(ow, width, f), _GEMM_BLOCK_BYTES // _WORKERS // (ow * width * itemsize))
    return min(b, units)


def _share_bounds(units: int, b: int, least: int, unit_bytes: int) -> list[int]:
    """Bounds of the workers' shares of `units` output rows in blocks of b:
    one share when one block holds them all, else one per worker, but never
    more than there are blocks, shares of at least `least` rows, or buffers
    of b rows of `unit_bytes` each that fit in the byte budget together."""
    n = 1 if b == units else min(_WORKERS, -(-units // b), units // least,
                                 max(1, _GEMM_BLOCK_BYTES // (b * unit_bytes)))
    return [units * j // n for j in range(n + 1)]


def _multiply_rows(xp: np.ndarray, k: int, s: int, oh: int, ow: int, fmat: np.ndarray,
                   rows: np.ndarray, start: int, stop: int, cols: np.ndarray) -> None:
    """Write output rows start..stop-1 of the conv into `rows` through the
    im2col buffer `cols`, as many at a time as it holds, the last block
    overlapping the one before (blocks may span images)."""
    b = len(cols) // ow
    for u in (*range(start, stop - b, b), stop - b):
        np.dot(_im2col(xp, k, s, oh, ow, cols, u), fmat, out=rows[u * ow:(u + b) * ow])


def _relu_inplace(out: np.ndarray) -> None:
    """The bytes of `np.where(out > 0, out, 0)`, written in place: fmax maps
    NaN to 0 as the comparison does, and adding +0.0 turns the -0.0 that
    fmax keeps into +0.0."""
    np.fmax(out, 0, out=out)
    out += 0.0


def conv2d_cached(x: Tensor4, layer: ConvLayer,
                  need_cache: bool = True) -> tuple[Tensor4, ConvCache | None]:
    """The conv output and, when `need_cache` is true, the cache its backward
    consumes (None otherwise). With a cache, the whole im2col matrix is one
    block on the calling thread, and the cache keeps it. Without one, a
    matrix larger than one worker's share of about _GEMM_BLOCK_BYTES is
    never whole: each worker multiplies its own rows (`_share_bounds`)
    through its own buffer."""
    filters = layer.filters
    if filters.shape[3] != x.c:
        raise ShapeError(
            f"filter channels {filters.shape[3]} do not match input channels {x.c} "
            f"(filters {filters.shape}, input {x.shape})"
        )
    g = layer.geometry
    oh, ow = conv_output_size(x.h, g), conv_output_size(x.w, g)
    xp = np.pad(x.data, ((0, 0), (g.z, g.z), (g.z, g.z), (0, 0))) if g.z else x.data
    # Columns stay in (c, k, k) order: the float sums, and with them the
    # trained weights' bytes, depend on it.
    f = filters.shape[0]
    fmat = filters.transpose(3, 1, 2, 0).reshape(-1, f)
    out = np.empty((x.i, oh, ow, f), dtype=np.result_type(xp, fmat))
    units, width = x.i * oh, len(fmat)
    b = units if need_cache else _block_units(units, ow, width, f, xp.itemsize)
    bounds = _share_bounds(units, b, _least_units(ow, width, f), ow * width * xp.itemsize)
    # Every buffer comes from this thread's heap: memory a worker allocated
    # would stay in that thread's own malloc arena.
    buffers = [np.empty((min(b, hi - lo) * ow, width), dtype=xp.dtype)
               for lo, hi in zip(bounds, bounds[1:])]
    run_jobs([partial(_multiply_rows, xp, g.k, g.s, oh, ow, fmat, out.reshape(-1, f), lo, hi, cols)
              for lo, hi, cols in zip(bounds, bounds[1:], buffers)])
    # A bias of a wider dtype widens the sum, as `out + bias` would.
    out = out.astype(np.result_type(out, layer.bias), copy=False)
    out += layer.bias
    relu_mask = None
    if layer.activation == "relu":
        if need_cache:
            relu_mask = out > 0
        _relu_inplace(out)
    cache = ConvCache(buffers[0], xp.shape, filters, g, relu_mask) if need_cache else None
    return Tensor4(out), cache


def conv2d_forward(x: Tensor4, layer: ConvLayer) -> Tensor4:
    """Cross-correlate the filter bank over x, add bias, apply the activation.

    Output is (i, o, o', f) with each spatial extent given by
    `conv_output_size`.
    """
    out, _ = conv2d_cached(x, layer, need_cache=False)
    return out


def pool_output_size(h: int, w: int, window: int, stride: int) -> tuple[int, int]:
    """Output (height, width) of a pool; the window must tile both sides exactly."""
    for name, dim in (("height", h), ("width", w)):
        if window > dim:
            raise GeometryError(f"pool window {window} exceeds {name} {dim}")
        if (dim - window) % stride != 0:
            raise GeometryError(
                f"pool window {window}/stride {stride} does not tile {name} {dim}"
            )
    return (h - window) // stride + 1, (w - window) // stride + 1


def pool_cached(x: Tensor4, layer: PoolLayer,
                need_cache: bool = True) -> tuple[Tensor4, PoolCache | None]:
    window, stride = layer.window, layer.stride
    oh, ow = pool_output_size(x.h, x.w, window, stride)
    if layer.mode == "max" and not need_cache:
        # A running maximum over the taps in (p, q) order, where only a
        # strictly greater tap wins: the first winner, as argmax picks it,
        # so the bytes (the sign of a zero included) are the cached path's.
        taps = (x.data[:, p:p + stride * (oh - 1) + 1:stride, q:q + stride * (ow - 1) + 1:stride]
                for p in range(window) for q in range(window))
        out = next(taps).copy()
        for tap in taps:
            out = np.where(tap > out, tap, out)
        return Tensor4(out), None
    windows = sliding_window_view(x.data, (window, window), axis=(1, 2))[:, ::stride, ::stride]
    if layer.mode == "max":
        i, oh, ow, c = windows.shape[:4]
        flat = windows.reshape(i, oh, ow, c, window * window)
        argmax = flat.argmax(axis=4)
        out = np.take_along_axis(flat, argmax[..., None], axis=4)[..., 0]
    else:
        argmax = None
        out = windows.mean(axis=(4, 5))
    cache = PoolCache(layer.mode, argmax, x.data.shape, window, stride) if need_cache else None
    return Tensor4(out), cache


def pool_forward(x: Tensor4, layer: PoolLayer) -> Tensor4:
    """Max or mean over each window x window patch, stepping by stride.

    The window must tile the spatial dims exactly: (dim - window) % stride == 0.
    """
    out, _ = pool_cached(x, layer, need_cache=False)
    return out


def flatten_cached(x: Tensor4) -> tuple[Tensor4, FlattenCache]:
    out = x.data.reshape(x.i, 1, 1, x.h * x.w * x.c)
    return Tensor4(out), FlattenCache(x.data.shape)


def flatten(x: Tensor4) -> Tensor4:
    """Collapse (i, h, w, c) to (i, 1, 1, h*w*c), row-major order."""
    out, _ = flatten_cached(x)
    return out


def dense_cached(x: Tensor4, layer: DenseLayer) -> tuple[Tensor4, DenseCache]:
    if x.h != 1 or x.w != 1:
        raise ShapeError(f"dense input must be flattened to (i, 1, 1, d), got {x.shape}")
    w = layer.weights
    if w.shape[0] != x.c:
        raise ShapeError(f"dense expects {w.shape[0]} inputs, got {x.c} (weights {w.shape})")
    x2d = x.data.reshape(x.i, x.c)
    out = x2d @ w + layer.bias
    relu_mask = None
    probs = None
    if layer.activation == "relu":
        relu_mask = out > 0
        _relu_inplace(out)
    elif layer.activation == "softmax":
        out = _softmax2d(out)
        probs = out
    return Tensor4(out.reshape(x.i, 1, 1, -1)), DenseCache(x2d, w, relu_mask, probs)


def dense_forward(x: Tensor4, layer: DenseLayer) -> Tensor4:
    """Affine map of flattened features: activation(x @ weights + bias)."""
    out, _ = dense_cached(x, layer)
    return out


def _softmax2d(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax(x: Tensor4) -> Tensor4:
    """Channel-axis softmax, stabilized by max subtraction."""
    return Tensor4(_softmax2d(x.data))


def dropout_cached(x: Tensor4, layer: DropoutLayer, training: bool = False,
                   rng: np.random.Generator | None = None) -> tuple[Tensor4, DropoutCache]:
    if not training or layer.rate == 0.0:
        return x, DropoutCache(None)
    if rng is None:
        raise ValueError("dropout in training mode needs an rng")
    keep = rng.random(x.data.shape) >= layer.rate
    # Inverted scaling: inference is then a plain identity.
    mask = keep.astype(x.dtype) / (1.0 - layer.rate)
    return Tensor4(x.data * mask), DropoutCache(mask)


def dropout_forward(x: Tensor4, layer: DropoutLayer, training: bool = False,
                    rng: np.random.Generator | None = None) -> Tensor4:
    """Zero a random `rate` fraction and rescale survivors by 1/(1-rate).

    Identity outside training mode.
    """
    out, _ = dropout_cached(x, layer, training, rng)
    return out


def batchnorm_cached(x: Tensor4, layer: BatchNormLayer, training: bool = False,
                     update_stats: bool = True,
                     need_cache: bool = True) -> tuple[Tensor4, BatchNormCache | None]:
    if layer.gamma.shape != (x.c,):
        raise ShapeError(f"batch norm has {layer.gamma.shape[0]} channels, input has {x.c}")
    if training:
        count = x.i * x.h * x.w
        if count < 2:
            raise DegenerateBatchError(
                f"batch norm needs >= 2 elements per channel in training, got {count}"
            )
        mean = x.data.mean(axis=(0, 1, 2))
        centered = x.data - mean
        # Biased, matching the running estimate; the same sums as x.var.
        var = np.square(centered).mean(axis=(0, 1, 2))
        if update_stats:
            if not (np.isfinite(mean).all() and np.isfinite(var).all()):
                raise NonFiniteError("batch norm batch statistics must be finite")
            m = BATCHNORM_MOMENTUM
            layer.running_mean *= 1.0 - m
            layer.running_mean += m * mean
            layer.running_var *= 1.0 - m
            layer.running_var += m * var
    else:
        count = None
        centered = x.data - layer.running_mean
        var = layer.running_var
    inv_std = 1.0 / np.sqrt(var + BATCHNORM_EPS)
    x_hat = centered
    x_hat *= inv_std
    if not need_cache:
        # The output in x_hat's buffer; a wider gamma widens it first, as
        # `gamma * x_hat` would.
        out = x_hat.astype(np.result_type(x_hat, layer.gamma), copy=False)
        out *= layer.gamma
        out += layer.beta
        return Tensor4(out), None
    out = layer.gamma * x_hat
    out += layer.beta
    return Tensor4(out), BatchNormCache(x_hat, inv_std, layer.gamma, count)


def batchnorm_forward(x: Tensor4, layer: BatchNormLayer, training: bool = False) -> Tensor4:
    """Per-channel normalization over (batch, height, width), then scale/shift.

    Training mode normalizes with the current batch's mean and biased variance
    and folds them into the running estimates:
    running = (1 - momentum) * running + momentum * batch. Inference mode
    normalizes with the running estimates and touches nothing.
    """
    out, _ = batchnorm_cached(x, layer, training, need_cache=False)
    return out


def l2_penalty(weight_arrays, lam: float) -> float:
    """lam * sum of squared entries across the given weight arrays.

    Callers pass kernel/weight matrices only; biases stay unpenalized.
    """
    if lam < 0:
        raise ValueError(f"penalty strength must be >= 0, got {lam}")
    return lam * float(sum(np.square(w).sum() for w in weight_arrays))


def l1_penalty(weight_arrays, lam: float) -> float:
    """lam * sum of absolute entries across the given weight arrays."""
    if lam < 0:
        raise ValueError(f"penalty strength must be >= 0, got {lam}")
    return lam * float(sum(np.abs(w).sum() for w in weight_arrays))
