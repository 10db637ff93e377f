"""Parameterized layers, their forward and backward passes, and weight
penalties.

Layer objects own their parameter arrays (by reference, so a store can hand
the same buffers to many forward calls). Each operation has a plain forward,
a `*_cached` variant that also returns what its `*_backward` consumes (no
cache for conv, pool and batch norm under `need_cache=False`), and that
backward, which returns the input gradient, then any parameter gradients.

Every walk over the k*k windows of an input goes tap by tap. The pools and
the gradient scattered back onto the input step through strided views of
each tap (`_taps`). The conv's im2col fill and filter gradient read each
tap's cells from the unpadded input and write +0.0 where a window reaches
into the zero padding (`_reach`): no padded copy of a conv input is made.
A max-pool keeps a running maximum of its taps and, for a cache only, each
winning tap in a small unsigned type; an average pool sums its taps and
divides once. A convolution copies its input windows into an im2col matrix
(one row per output cell, columns in (channel, row, column) order) and
multiplies it by the filter bank. A matrix of at most 16 MB is one block,
filled and multiplied on the calling thread. A larger one is split into
one share of output rows per worker, and each worker multiplies its share
in blocks of about 512 KB, never below the smallest block that takes the
whole product's BLAS kernel, through its own buffer of one block: each
block is still in cache when its GEMM reads it. That holds with or without
a backward to follow: a cache keeps the input itself, by reference, not the
matrix, and the filter gradient takes its products from it. The workers
are those of `workers.run_jobs`. Every block takes the BLAS kernel the
whole product would, so the bits are the same at any worker count.
Convolutions are cross-correlations: the kernel is applied as stored,
never flipped.
Every conv, cached or not and at any dtype, finishes each block in the
worker that multiplied it: the worker adds the bias and applies the ReLU
right after the block's GEMM. Without a cache, it can also apply the
inference batch norm after the conv and a pool whose window is its stride
(`conv2d_cached(bn=, pool=)`, as `models.forward` calls it); a pooled
block is scanned for finiteness and only its pooled rows are written. A
pooled run's blocks and shares are whole pool windows of rows. A bias or
batch norm of a wider dtype widens each block as it would the whole map.
The batch-norm and pool arithmetic is one helper each (`_normalize`,
`_pool_windows`), shared with `batchnorm_cached` and `pool_cached`, so a
run has the bytes of its layers run one by one.
Activations are fused into the conv and dense layers; `softmax` also
exists standalone, with no backward.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import workers
from .errors import DegenerateBatchError, GeometryError, NonFiniteError, ShapeError
from .tensor import ConvGeometry, Tensor4, all_finite, conv_output_size

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
    x: np.ndarray  # the input itself, by reference: no padded copy
    filters: np.ndarray
    geometry: ConvGeometry
    relu_mask: np.ndarray | None


class PoolCache(NamedTuple):
    mode: str
    argmax: np.ndarray | None  # max: first winning tap p*window+q per output cell, unsigned
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


# Bytes of im2col matrix per block of a conv whose matrix is larger than
# workers._ONE_BLOCK_BYTES: each block's fill is still in cache when its
# GEMM reads it. The fill of a matrix within that also goes in pieces of
# about this size, one tap at a time.
_IM2COL_BLOCK_BYTES = 1 << 19
# A block of the product must take the BLAS kernel the whole product takes,
# or its bits differ: OpenBLAS uses GEMV for one row or one column and a
# small-matrix kernel up to 10^6 multiply-adds. So a block has at least this
# many rows and multiply-adds, and a one-filter product is never split.
_MIN_BLOCK_ROWS = 256
_MIN_BLOCK_MACS = 1 << 20


def _taps(x: np.ndarray, k: int, s: int, oh: int, ow: int):
    """(p, q, view) for each tap of the k x k windows of x at stride s, in
    (p, q) order: the strided view, over x's last three axes (rows, columns,
    channels), of the cell each of the oh x ow windows holds at (p, q)."""
    for p in range(k):
        for q in range(k):
            yield p, q, x[..., p:p + s * (oh - 1) + 1:s, q:q + s * (ow - 1) + 1:s, :]


def _reach(p: int, s: int, z: int, size: int, count: int) -> tuple[int, int, slice]:
    """The positions lo..hi-1, of `count` output positions, that read a
    cell of the input through tap p, and the slice of the input they read:
    position j reads cell j*s + p - z of an input `size` cells long, and
    every other position a cell of the zero padding. lo == hi == 0 when no
    position reads the input."""
    lo = max(0, -((p - z) // s))
    hi = min(count, (size - 1 + z - p) // s + 1)
    if hi <= lo:
        return 0, 0, slice(0, 0)
    start = lo * s + p - z
    return lo, hi, slice(start, start + (hi - lo - 1) * s + 1, s)


def _im2col(x: np.ndarray, k: int, s: int, z: int, oh: int, ow: int,
            out: np.ndarray, first: int, sides: bool = True) -> np.ndarray:
    """Fill `out` with rows of the (i*oh*ow, c*k*k) matrix of every k x k
    window, at stride s, of x zero-padded by z on each side, columns in
    (c, k, k) order: as many output rows' worth as `out` holds, from output
    row `first` on (output row u is row u % oh of image u // oh).

    The taps are read from x itself, never from a padded copy; the cells
    that fall in the padding get +0.0. Those left and right of x are
    written only when `sides` is true: they are the same cells in every
    block, so a buffer that held an earlier block of the same conv has them
    already. Those above and below are written in each block that reaches
    them. Rows are filled one tap at a time per piece of one image: a
    single copy of the 6-D window view runs its innermost loop over only k
    elements, and measured about 2x slower."""
    h, w, c = x.shape[1:]
    units = out.reshape(-1, ow, c, k, k)
    columns = [_reach(q, s, z, w, ow) for q in range(k)]
    if sides:
        for q, (left, right, _) in enumerate(columns):
            units[:, :left, ..., q] = 0
            units[:, right:, ..., q] = 0
    rows = max(1, _IM2COL_BLOCK_BYTES // units[0].nbytes)
    done = 0
    while done < len(units):
        n, r = divmod(first + done, oh)
        block = units[done:done + min(rows, oh - r)]
        for p in range(k):
            top, bottom, taps = _reach(p, s, z - s * r, h, len(block))
            if top:
                block[:top, ..., p, :] = 0
            if bottom < len(block):
                block[bottom:, ..., p, :] = 0
            for q, (left, right, cols) in enumerate(columns):
                block[top:bottom, left:right, :, p, q] = x[n, taps, cols]
        done += len(block)
    return out


def _least_units(ow: int, width: int, f: int) -> int:
    """Output rows (ow im2col rows each) in the smallest block that takes
    the BLAS kernel of the whole product."""
    return max(-(-_MIN_BLOCK_ROWS // ow), -(-_MIN_BLOCK_MACS // (ow * width * f)))


def _round_up(n: int, step: int) -> int:
    return -(-n // step) * step


def _block_units(units: int, ow: int, width: int, f: int, itemsize: int, step: int = 1) -> int:
    """Output rows per block of a conv: all `units` of them when the im2col
    matrix is within _ONE_BLOCK_BYTES or the bank has one filter, else
    about _IM2COL_BLOCK_BYTES of matrix, but never below the kernel
    minimums; a whole number of `step`s (pool windows) of rows either way,
    `units` being one."""
    unit_bytes = ow * width * itemsize
    if f < 2 or units * unit_bytes <= workers._ONE_BLOCK_BYTES:
        return units
    b = max(_least_units(ow, width, f), _IM2COL_BLOCK_BYTES // unit_bytes)
    return min(units, _round_up(b, step))


def _share_bounds(units: int, b: int, least: int, step: int = 1) -> list[int]:
    """Bounds of the workers' shares of `units` output rows in blocks of b:
    one share when one block holds them all, else one per worker, but never
    more than there are blocks or shares of at least `least` rows. Every
    bound is a whole number of `step`s, which divides `units` and b."""
    n = 1 if b == units else min(workers._WORKERS, -(-units // b),
                                 units // _round_up(least, step))
    return [step * (units // step * j // n) for j in range(n + 1)]


def _multiply_rows(x: np.ndarray, g: ConvGeometry, oh: int, ow: int, fmat: np.ndarray,
                   rows: np.ndarray, start: int, stop: int, cols: np.ndarray,
                   block: np.ndarray | None, finish) -> None:
    """Write output rows start..stop-1 of the conv's product through the
    im2col buffer `cols`, as many at a time as it holds, the last block
    overlapping the one before (blocks may span images). Each block's
    product goes to its rows of `rows`, or to `block`, a buffer of one
    block, when one is given; `finish(product, u)` then takes it, u being
    the block's first output row."""
    b = len(cols) // ow
    for j, u in enumerate((*range(start, stop - b, b), stop - b)):
        product = rows[u * ow:(u + b) * ow] if block is None else block
        np.dot(_im2col(x, g.k, g.s, g.z, oh, ow, cols, u, sides=j == 0), fmat, out=product)
        finish(product, u)


def _filter_matrix(filters: np.ndarray) -> np.ndarray:
    """`filters.transpose(3, 1, 2, 0).reshape(-1, f)`, rows in the (c, k, k)
    order the trained bytes depend on, copied 64 filters at a time (3x as
    fast at paper scale), per call: kept per array it would hold 31 MB more."""
    f, k, _, c = filters.shape
    fmat = np.empty((c * k * k, f), filters.dtype)
    for j in range(0, f, 64):
        fmat.reshape(c, k, k, f)[..., j:j + 64] = filters[j:j + 64].transpose(3, 1, 2, 0)
    return fmat


def _relu_inplace(out: np.ndarray) -> None:
    """The bytes of `np.where(out > 0, out, 0)`, written in place: fmax maps
    NaN to 0 as the comparison does, and adding +0.0 turns the -0.0 that
    fmax keeps into +0.0."""
    np.fmax(out, 0, out=out)
    out += 0.0


def _fused_step(layer: ConvLayer, bn: BatchNormLayer | None, pool: PoolLayer | None,
                need_cache: bool, oh: int, ow: int) -> int:
    """Output rows per pool window of a conv that runs `bn` and `pool` in its
    blocks, 1 without a pool; raises when they cannot run there."""
    if bn is None and pool is None:
        return 1
    if need_cache:
        raise ValueError("a conv runs a batch norm or pool in its blocks only without a cache")
    f = layer.filters.shape[0]
    if bn is not None and bn.gamma.shape != (f,):
        raise ShapeError(f"batch norm has {bn.gamma.shape[0]} channels, input has {f}")
    if pool is None:
        return 1
    if pool.window != pool.stride:
        raise ValueError("a pool in a conv's blocks must have its window as its stride")
    pool_output_size(oh, ow, pool.window, pool.stride)
    return pool.window


def _finish_block(bias: np.ndarray, relu: bool, bn: BatchNormLayer | None,
                  inv_std: np.ndarray | None, pool: PoolLayer | None, out: np.ndarray,
                  product: np.ndarray, u: int) -> None:
    """Bias, ReLU and the inference batch norm `bn` of a block of a conv's
    product, output rows u.. of the conv, each widening the block first
    where its parameter is wider, as the layer alone would. Without `pool`,
    the block then goes to its rows of `out`, the conv's map, unless it is
    those rows already. With `pool`, it is checked for finiteness, as a
    `Tensor4` of the whole map would be (a value that loses its window must
    still fail), and pooled into its rows of `out`, the pooled map."""
    product = product.astype(np.result_type(product, bias), copy=False)
    product += bias
    if relu:
        _relu_inplace(product)
    if bn is not None:
        product = product.astype(np.result_type(product, bn.running_mean), copy=False)
        product -= bn.running_mean
        product = _normalize(product, inv_std, bn.gamma, bn.beta)
    _, _, ow, f = out.shape
    if pool is None:
        if not np.may_share_memory(product, out):
            out.reshape(-1, f)[u * ow:u * ow + len(product)] = product
        return
    if not all_finite(product):
        raise NonFiniteError("Tensor4 values must be finite")
    p = pool.window
    b = len(product) // (ow * p)  # output rows in the block
    out.reshape(-1, ow, f)[u // p:(u + b) // p] = _pool_windows(
        product.reshape(b, ow * p, f), pool, b // p, ow)[0]


def conv2d_cached(x: Tensor4, layer: ConvLayer, need_cache: bool = True,
                  bn: BatchNormLayer | None = None,
                  pool: PoolLayer | None = None) -> tuple[Tensor4, ConvCache | None]:
    """The conv output and, when `need_cache` is true, the cache its backward
    consumes (None otherwise). Each worker multiplies its own share of the
    output rows (`_share_bounds`) through its own buffer of one block
    (`_block_units`), cache or none, and finishes each block right after
    its GEMM (`_finish_block`): bias and ReLU, then, without a cache, `bn`
    (an inference batch norm) and `pool` (a pool whose window is its
    stride), where given. Only the final map is made. A pooled run takes
    its blocks and shares in whole pool windows of rows, so no window spans
    two blocks or two images. A cache's ReLU mask is read from the finished
    map. A bias or batch norm of a wider dtype widens each block as it
    would the whole map; the bytes are those of the layers run one by
    one."""
    filters = layer.filters
    if filters.shape[3] != x.c:
        raise ShapeError(
            f"filter channels {filters.shape[3]} do not match input channels {x.c} "
            f"(filters {filters.shape}, input {x.shape})"
        )
    g = layer.geometry
    oh, ow = conv_output_size(x.h, g), conv_output_size(x.w, g)
    f = filters.shape[0]
    fmat = _filter_matrix(filters)
    dtype = np.result_type(x.data, fmat)
    step = _fused_step(layer, bn, pool, need_cache, oh, ow)
    units, width = x.i * oh, len(fmat)
    b = _block_units(units, ow, width, f, x.data.itemsize, step)
    bounds = _share_bounds(units, b, _least_units(ow, width, f), step)
    shares = list(zip(bounds, bounds[1:]))
    # Every buffer comes from this thread's heap: memory a worker allocated
    # would stay in that thread's own malloc arena.
    buffers = [np.empty((min(b, hi - lo) * ow, width), dtype=x.data.dtype) for lo, hi in shares]
    wide = np.result_type(dtype, layer.bias, *(() if bn is None else (bn.running_mean, bn.gamma)))
    out = np.empty((x.i, oh // step, ow // step, f), dtype=wide)
    finish = partial(_finish_block, layer.bias, layer.activation == "relu", bn,
                     None if bn is None else _inv_std(bn.running_var), pool, out)
    # A pooled or widened block's product goes to a buffer of one block.
    blocks = [np.empty((len(cols), f), dtype) if pool is not None or wide != dtype else None
              for cols in buffers]
    workers.run_jobs([partial(_multiply_rows, x.data, g, oh, ow, fmat, out.reshape(-1, f),
                              lo, hi, cols, block, finish)
              for (lo, hi), cols, block in zip(shares, buffers, blocks)])
    relu_mask = out > 0 if need_cache and layer.activation == "relu" else None
    cache = ConvCache(x.data, filters, g, relu_mask) if need_cache else None
    return Tensor4(out), cache


def conv2d_forward(x: Tensor4, layer: ConvLayer) -> Tensor4:
    """Cross-correlate the filter bank over x, add bias, apply the activation.

    Output is (i, o, o', f) with each spatial extent given by
    `conv_output_size`.
    """
    out, _ = conv2d_cached(x, layer, need_cache=False)
    return out


def _tap_gradients(d_rows: np.ndarray, x: np.ndarray, s: int, z: int, tap: np.ndarray,
                   dw: np.ndarray) -> None:
    """Write dw[p, q] = d_rows @ tap(p, q) for every tap of the k x k filter,
    where tap(p, q), copied into the (i, oh, ow, c) buffer `tap`, holds the
    cell of x, zero-padded by z on each side, that each output cell reads
    through it: +0.0 where that cell is in the padding."""
    _, oh, ow, c = tap.shape
    rows = tap.reshape(-1, c)
    k = dw.shape[0]
    for p in range(k):
        top, bottom, taps = _reach(p, s, z, x.shape[1], oh)
        for q in range(k):
            left, right, cols = _reach(q, s, z, x.shape[2], ow)
            tap[:, :top] = 0
            tap[:, bottom:] = 0
            tap[:, :, :left] = 0
            tap[:, :, right:] = 0
            tap[:, top:bottom, left:right] = x[:, taps, cols]
            np.dot(d_rows, rows, out=dw[p, q])


def _scatter_taps(shape, k: int, s: int, d: np.ndarray, contribution) -> np.ndarray:
    """Adjoint of a k x k strided window read with output d: output cell
    (r, t) read input cell (r*s + p, t*s + q) through tap (p, q), so each
    tap's `contribution(p, q)`, shaped like d, is added back there."""
    dx = np.zeros(shape, dtype=d.dtype)
    for p, q, tap in _taps(dx, k, s, d.shape[1], d.shape[2]):
        tap += contribution(p, q)
    return dx


def conv2d_backward(d: np.ndarray, cache: ConvCache, need_dx: bool = True):
    """Returns (dx, dfilters, dbias) for a conv forward (fused ReLU included);
    dx is None when `need_dx` is false.

    The filter gradient is d_rows @ cols, cols being the im2col matrix of
    the cached input, taken one tap at a time: the (f, c) block of
    tap (p, q) is d_rows times that tap's (rows, c) slab of the input, and
    has the bytes of its columns of the whole product while both take
    OpenBLAS's large-matrix kernel on one thread. Under a BLAS thread team,
    for a tap product that would leave that kernel (one filter or channel,
    or fewer than _MIN_BLOCK_MACS multiply-adds), and for fewer than 8
    channels, whose taps are slower than one GEMM, the matrix is rebuilt
    and the whole product taken instead."""
    if cache.relu_mask is not None:
        d = d * cache.relu_mask
    x, filters, g = cache.x, cache.filters, cache.geometry
    f, k, _, c = filters.shape
    i, oh, ow, _ = d.shape
    db = d.sum(axis=(0, 1, 2))
    d_rows = d.transpose(3, 0, 1, 2).reshape(f, -1)
    dtype = np.result_type(d_rows, x)
    # The buffers come from this thread's heap, as in `conv2d_cached`.
    if (workers._ONE_BLAS_THREAD and f >= 2 and c >= 8
            and f * c * d_rows.shape[1] >= _MIN_BLOCK_MACS):
        grad = np.empty((k, k, f, c), dtype)
        tap = np.empty((i, oh, ow, c), x.dtype)
        filter_gradient = partial(_tap_gradients, d_rows, x, g.s, g.z, tap, grad)
        dw = grad.transpose(2, 0, 1, 3)
    else:
        grad = np.empty((f, c * k * k), dtype)
        cols = _im2col(x, k, g.s, g.z, oh, ow, np.empty((d_rows.shape[1], c * k * k), x.dtype), 0)
        filter_gradient = partial(np.dot, d_rows, cols, out=grad)
        dw = grad.reshape(f, c, k, k).transpose(0, 2, 3, 1)
    if not need_dx:
        filter_gradient()
        return None, dw, db
    # The dx taps run on this thread while a worker runs the filter gradient;
    # they scatter into a padded buffer, whose border is then cut off.
    padded = (i, x.shape[1] + 2 * g.z, x.shape[2] + 2 * g.z, c)
    dxp, _ = workers.run_jobs([
        partial(_scatter_taps, padded, k, g.s, d,
                lambda p, q: np.tensordot(d, filters[:, p, q, :], axes=([3], [0]))),
        filter_gradient])
    return (dxp[:, g.z:-g.z, g.z:-g.z, :] if g.z else dxp), dw, db


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


def _pool_windows(x: np.ndarray, layer: PoolLayer, oh: int, ow: int,
                  need_winner: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """The oh x ow pool of x (rows, columns and channels on its last three
    axes) as a new array, and, for a max-pool with `need_winner`, each
    window's winning tap (else None)."""
    window = layer.window
    taps = (tap for _, _, tap in _taps(x, window, layer.stride, oh, ow))
    if layer.mode == "average":
        # A sum over the taps in (p, q) order from +0.0, as numpy's sums
        # start (a window of -0.0 averages to +0.0), then one division.
        out = next(taps) + 0.0
        for tap in taps:
            out += tap
        out /= window * window
        return out, None
    # A running maximum over the taps in (p, q) order, where only a strictly
    # greater tap wins: the first winner, the sign of a zero included.
    out = next(taps).copy()
    winner = np.zeros(out.shape, np.min_scalar_type(window**2 - 1)) if need_winner else None
    for t, tap in enumerate(taps, 1):
        wins = tap > out
        out = np.where(wins, tap, out)
        if need_winner:
            winner = np.where(wins, t, winner)
    return out, winner


def pool_cached(x: Tensor4, layer: PoolLayer,
                need_cache: bool = True) -> tuple[Tensor4, PoolCache | None]:
    window, stride = layer.window, layer.stride
    oh, ow = pool_output_size(x.h, x.w, window, stride)
    out, winner = _pool_windows(x.data, layer, oh, ow, need_cache)
    cache = PoolCache(layer.mode, winner, x.data.shape, window, stride) if need_cache else None
    return Tensor4(out), cache


def pool_forward(x: Tensor4, layer: PoolLayer) -> Tensor4:
    """Max or mean over each window x window patch, stepping by stride.

    The window must tile the spatial dims exactly: (dim - window) % stride == 0.
    """
    out, _ = pool_cached(x, layer, need_cache=False)
    return out


def pool_backward(d: np.ndarray, cache: PoolCache) -> np.ndarray:
    window = cache.window
    if cache.mode == "max":  # each window's gradient goes to its winner only
        return _scatter_taps(cache.in_shape, window, cache.stride, d,
                             lambda p, q: np.where(cache.argmax == p * window + q, d, 0))
    per = d / (window * window)
    return _scatter_taps(cache.in_shape, window, cache.stride, d, lambda p, q: per)


def flatten_cached(x: Tensor4) -> tuple[Tensor4, FlattenCache]:
    out = x.data.reshape(x.i, 1, 1, x.h * x.w * x.c)
    return Tensor4(out), FlattenCache(x.data.shape)


def flatten(x: Tensor4) -> Tensor4:
    """Collapse (i, h, w, c) to (i, 1, 1, h*w*c), row-major order."""
    out, _ = flatten_cached(x)
    return out


def flatten_backward(d: np.ndarray, cache: FlattenCache) -> np.ndarray:
    return d.reshape(cache.in_shape)


def dense_cached(x: Tensor4, layer: DenseLayer) -> tuple[Tensor4, DenseCache]:
    if x.h != 1 or x.w != 1:
        raise ShapeError(f"dense input must be flattened to (i, 1, 1, d), got {x.shape}")
    w = layer.weights
    if w.shape[0] != x.c:
        raise ShapeError(f"dense expects {w.shape[0]} inputs, got {x.c} (weights {w.shape})")
    x2d = x.data.reshape(x.i, x.c)
    out = x2d @ w + layer.bias
    relu_mask = probs = None
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


def dense_backward_from_pre(d_pre: np.ndarray, cache: DenseCache, need_dx: bool = True):
    """Returns (dx, dweights, dbias) given the gradient of the
    pre-activation; dx is None when `need_dx` is false."""
    dw = cache.x2d.T @ d_pre
    db = d_pre.sum(axis=0)
    if not need_dx:
        return None, dw, db
    dx2d = d_pre @ cache.weights.T
    return dx2d.reshape(d_pre.shape[0], 1, 1, -1), dw, db


def dense_backward(d: np.ndarray, cache: DenseCache, need_dx: bool = True):
    """Returns (dx, dweights, dbias), undoing the fused activation first;
    dx is None when `need_dx` is false."""
    d2d = d.reshape(d.shape[0], -1)
    if cache.relu_mask is not None:
        d_pre = d2d * cache.relu_mask
    elif cache.probs is not None:
        p = cache.probs
        d_pre = p * (d2d - (d2d * p).sum(axis=1, keepdims=True))
    else:
        d_pre = d2d
    return dense_backward_from_pre(d_pre, cache, need_dx)


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


def dropout_backward(d: np.ndarray, cache: DropoutCache) -> np.ndarray:
    return d if cache.mask is None else d * cache.mask


def _inv_std(var: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(var + BATCHNORM_EPS)


def _normalize(centered: np.ndarray, inv_std: np.ndarray, gamma: np.ndarray,
               beta: np.ndarray) -> np.ndarray:
    """gamma * (centered * inv_std) + beta, a batch norm's output without a
    cache, in centered's buffer; a wider gamma widens it first, as
    `gamma * x_hat` would."""
    centered *= inv_std
    out = centered.astype(np.result_type(centered, gamma), copy=False)
    out *= gamma
    out += beta
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
    inv_std = _inv_std(var)
    if not need_cache:
        return Tensor4(_normalize(centered, inv_std, layer.gamma, layer.beta)), None
    x_hat = centered
    x_hat *= inv_std
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


def batchnorm_backward(d: np.ndarray, cache: BatchNormCache, need_dx: bool = True):
    """Returns (dx, dgamma, dbeta). Handles both batch-stat and running-stat
    forwards; the latter treats mean/var as constants. dx is None when
    `need_dx` is false."""
    x_hat, inv_std, gamma, count = cache
    dgamma = (d * x_hat).sum(axis=(0, 1, 2))
    dbeta = d.sum(axis=(0, 1, 2))
    if not need_dx:
        return None, dgamma, dbeta
    if count is None:
        return d * (gamma * inv_std), dgamma, dbeta
    # (gamma * inv_std / count) * (count * d - dbeta - x_hat * dgamma),
    # evaluated in place in the same order, so the bits match.
    dx = count * d
    dx -= dbeta
    dx -= x_hat * dgamma
    dx *= gamma * inv_std / count
    return dx, dgamma, dbeta


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
