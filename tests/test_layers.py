"""Layer forward tests against plain nested-loop oracles."""

import importlib.util
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from purefoodnet import layers
from purefoodnet import workers as W
from purefoodnet.errors import DegenerateBatchError, GeometryError, NonFiniteError, ShapeError
from purefoodnet.layers import (
    POOL_MODES,
    BatchNormLayer,
    ConvLayer,
    DenseLayer,
    DropoutLayer,
    PoolLayer,
    batchnorm_cached,
    batchnorm_forward,
    conv2d_cached,
    conv2d_forward,
    dense_forward,
    dropout_forward,
    flatten,
    l1_penalty,
    l2_penalty,
    pool_cached,
    pool_forward,
    softmax,
)
from purefoodnet.models import ParamStore
from purefoodnet.tensor import ConvGeometry, Tensor4
from purefoodnet.training import pool_backward


def conv_oracle(x, filters, bias, k, s, z):
    """Six nested loops over every output cell and every kernel tap."""
    n_img, h, w, c = x.shape
    f = filters.shape[0]
    oh = (h - k + 2 * z) // s + 1
    ow = (w - k + 2 * z) // s + 1
    xp = np.zeros((n_img, h + 2 * z, w + 2 * z, c), dtype=np.float64)
    xp[:, z:z + h, z:z + w, :] = x
    out = np.zeros((n_img, oh, ow, f), dtype=np.float64)
    for n in range(n_img):
        for r in range(oh):
            for col in range(ow):
                for fi in range(f):
                    acc = 0.0
                    for p in range(k):
                        for q in range(k):
                            for ch in range(c):
                                acc += xp[n, r * s + p, col * s + q, ch] * filters[fi, p, q, ch]
                    out[n, r, col, fi] = acc + bias[fi]
    return out


def rounded_with_signed_zeros(rng, shape, dtype) -> np.ndarray:
    """Normal samples rounded to halves, so windows tie, with about half
    of the many zeros negative."""
    x = (np.round(rng.normal(size=shape) * 2) / 2).astype(dtype)
    x[(x == 0) & (rng.random(shape) < 0.5)] = -0.0
    return x


def pool_oracle(x, window, stride, reduce):
    n_img, h, w, c = x.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    out = np.zeros((n_img, oh, ow, c), dtype=x.dtype)
    for n in range(n_img):
        for r in range(oh):
            for col in range(ow):
                for ch in range(c):
                    patch = x[n, r * stride:r * stride + window,
                              col * stride:col * stride + window, ch]
                    out[n, r, col, ch] = reduce(patch)
    return out


def max_pool_oracle(x, window, stride):
    """The max-pool forward as an argmax over a copy of every window: the
    output and the int64 flat index (p*window + q) of each cell's first
    winner."""
    windows = sliding_window_view(x, (window, window), axis=(1, 2))[:, ::stride, ::stride]
    flat = windows.reshape(*windows.shape[:4], window * window)
    argmax = flat.argmax(axis=4)
    return np.take_along_axis(flat, argmax[..., None], axis=4)[..., 0], argmax


def conv_layer(filters, bias, k, s=1, z=0, activation="none"):
    return ConvLayer(filters, bias, ConvGeometry(k=k, s=s, z=z), activation)


def tensordot_conv(x, filters, bias, k, s, z):
    """The conv forward as one tensordot over the strided window view: the
    formula whose float sums the im2col product must reproduce bit for bit."""
    xp = np.pad(x, ((0, 0), (z, z), (z, z), (0, 0)))
    windows = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::s, ::s]
    return np.tensordot(windows, filters, axes=([3, 4, 5], [3, 1, 2])) + bias


class TestConv2d:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            s = int(rng.integers(1, 3))
            z = int(rng.integers(0, 3))
            h = int(rng.integers(max(1, k - 2 * z), 10))
            w = int(rng.integers(max(1, k - 2 * z), 10))
            c = int(rng.integers(1, 4))
            f = int(rng.integers(1, 5))
            n = int(rng.integers(1, 4))
            x = rng.normal(size=(n, h, w, c))
            filters = rng.normal(size=(f, k, k, c))
            bias = rng.normal(size=f)
            got = conv2d_forward(Tensor4(x), conv_layer(filters, bias, k, s, z))
            want = conv_oracle(x, filters, bias, k, s, z)
            assert got.data.shape == want.shape
            np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("block_rows", [None, 1, 2])  # None: the default block size
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("z", [0, 1])
    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_bit_identical_to_tensordot(self, k, s, z, dtype, block_rows, monkeypatch):
        if block_rows is not None:
            ow = (8 + 2 * z - k) // s + 1
            row_bytes = ow * 4 * k * k * np.dtype(dtype).itemsize
            monkeypatch.setattr(layers, "_IM2COL_BLOCK_BYTES", block_rows * row_bytes)
        rng = np.random.default_rng(17 * k + 5 * s + z)
        x = rng.normal(size=(3, 9, 8, 4)).astype(dtype)
        filters = rng.normal(size=(5, k, k, 4)).astype(dtype)
        bias = rng.normal(size=5).astype(dtype)
        out, cache = conv2d_cached(Tensor4(x), conv_layer(filters, bias, k, s, z))
        want = tensordot_conv(x, filters, bias, k, s, z)
        assert out.dtype == want.dtype
        np.testing.assert_array_equal(out.data, want)
        # The cache keeps the input itself, unpadded; the im2col matrix
        # rebuilt from it, times the filter bank, gives the forward's bytes.
        assert cache.x.shape == x.shape and cache.x.tobytes() == x.tobytes()
        oh, ow = want.shape[1:3]
        cols = layers._im2col(cache.x, k, s, z, oh, ow,
                              np.empty((3 * oh * ow, 4 * k * k), dtype), 0)
        product = cols @ filters.transpose(3, 1, 2, 0).reshape(-1, 5) + bias
        assert product.reshape(want.shape).tobytes() == out.data.tobytes()

    def test_identity_kernel(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 5, 5, 3))
        # One filter per channel, 1x1, picking that channel out unchanged.
        filters = np.zeros((3, 1, 1, 3))
        for ch in range(3):
            filters[ch, 0, 0, ch] = 1.0
        out = conv2d_forward(Tensor4(x), conv_layer(filters, np.zeros(3), k=1))
        np.testing.assert_array_equal(out.data, x)

    def test_fused_relu(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(1, 4, 4, 2))
        filters = rng.normal(size=(3, 3, 3, 2))
        bias = rng.normal(size=3)
        plain = conv2d_forward(Tensor4(x), conv_layer(filters, bias, k=3, z=1))
        fused = conv2d_forward(Tensor4(x), conv_layer(filters, bias, k=3, z=1, activation="relu"))
        np.testing.assert_array_equal(fused.data, np.maximum(plain.data, 0))

    def test_no_kernel_flip(self):
        # Asymmetric kernel on a one-hot input reads the raw kernel value at
        # the matching offset, which a flipped (true convolution) would not.
        x = np.zeros((1, 3, 3, 1))
        x[0, 0, 0, 0] = 1.0
        filters = np.arange(9, dtype=np.float64).reshape(1, 3, 3, 1)
        out = conv2d_forward(Tensor4(x), conv_layer(filters, np.zeros(1), k=3))
        assert out.data[0, 0, 0, 0] == 0.0  # tap (0,0) of the unflipped kernel

    def test_rejects_mismatched_filters(self):
        x = Tensor4(np.zeros((1, 4, 4, 2), dtype=np.float32))
        with pytest.raises(ShapeError):
            conv2d_forward(x, conv_layer(np.zeros((3, 3, 3, 1)), np.zeros(3), k=3))
        with pytest.raises(ShapeError):
            conv_layer(np.zeros((3, 3, 3, 2)), np.zeros(4), k=3)
        with pytest.raises(ShapeError):
            conv_layer(np.zeros((3, 2, 2, 1)), np.zeros(3), k=3)

    def test_rejects_oversized_kernel(self):
        x = Tensor4(np.zeros((1, 2, 2, 1), dtype=np.float32))
        with pytest.raises(GeometryError):
            conv2d_forward(x, conv_layer(np.zeros((1, 5, 5, 1)), np.zeros(1), k=5))

    def test_rejects_nonfinite_weights(self):
        filters = np.zeros((1, 1, 1, 1))
        filters[0, 0, 0, 0] = np.nan
        with pytest.raises(NonFiniteError, match="parameter 'c.filters' must be finite"):
            ParamStore({"c.filters": filters, "c.bias": np.zeros(1)})

    def test_linearity_without_bias(self):
        rng = np.random.default_rng(13)
        layer = conv_layer(rng.normal(size=(2, 3, 3, 2)), np.zeros(2), k=3, z=1)
        x = rng.normal(size=(1, 5, 5, 2))
        y = rng.normal(size=(1, 5, 5, 2))
        lhs = conv2d_forward(Tensor4(2.5 * x - 1.5 * y), layer)
        rhs = (2.5 * conv2d_forward(Tensor4(x), layer).data
               - 1.5 * conv2d_forward(Tensor4(y), layer).data)
        np.testing.assert_allclose(lhs.data, rhs, rtol=0, atol=1e-10)


def where_relu(out):
    """The fused ReLU as the comparison-and-select formula: its bytes are the
    reference for the in-place epilogue."""
    return np.where(out > 0, out, 0)


class TestConvEpilogue:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inplace_relu_bytes_equal_where(self, dtype):
        # Whether fmax keeps the sign of a -0.0 depends on the length and
        # alignment of the array, so try many of both.
        special = np.array([-0.0, 0.0, -1.5, 2.5, -np.inf, np.inf, np.nan, -1e-30, 1e-30],
                           dtype=dtype)
        values = np.tile(special, 120)
        for start in range(9):
            for stop in (start + 1, start + 3, start + 17, start + 64, len(values)):
                want = where_relu(values[start:stop])
                got = values.copy()[start:stop]
                layers._relu_inplace(got)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()  # -0.0 -> +0.0 and NaN -> 0

    @pytest.mark.parametrize("need_cache", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv_relu_bytes_equal_where_with_zeros(self, dtype, need_cache):
        # Zero inputs and signed zero biases put exact zeros into the
        # pre-activation (BLAS sums them to +0.0; the helper test above
        # covers -0.0 itself).
        rng = np.random.default_rng(61)
        x = rng.normal(size=(2, 6, 6, 3)).astype(dtype)
        x[:, :3] = -0.0
        filters = rng.normal(size=(4, 1, 1, 3)).astype(dtype)
        bias = np.array([-0.0, 0.0, -0.0, 0.5], dtype=dtype)
        plain = conv2d_forward(Tensor4(x), conv_layer(filters, bias, k=1))
        assert (plain.data == 0).any() and (plain.data < 0).any()
        fused, cache = conv2d_cached(Tensor4(x), conv_layer(filters, bias, k=1, activation="relu"),
                                     need_cache=need_cache)
        assert fused.data.tobytes() == where_relu(plain.data).tobytes()
        assert fused.data.flags.owndata  # Tensor4 did not copy it
        if need_cache:
            np.testing.assert_array_equal(cache.relu_mask, plain.data > 0)
        else:
            assert cache is None

    def test_wider_bias_widens_the_output(self):
        rng = np.random.default_rng(67)
        x = rng.normal(size=(1, 4, 4, 2)).astype(np.float32)
        filters = rng.normal(size=(3, 3, 3, 2)).astype(np.float32)
        bias = rng.normal(size=3)  # float64
        out = conv2d_forward(Tensor4(x), conv_layer(filters, bias, k=3, z=1))
        want = tensordot_conv(x, filters, bias, 3, 1, 1)
        assert out.dtype == want.dtype == np.float64
        assert out.data.tobytes() == want.tobytes()


def one_gemm_conv(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """The conv forward as one GEMM of the whole im2col matrix, plus bias
    and the activation: the bytes every blocking of the product must give.
    The matrix is filled from a padded copy of x."""
    g, f = layer.geometry, layer.filters.shape[0]
    images, h, w, c = x.shape
    oh, ow = (h + 2 * g.z - g.k) // g.s + 1, (w + 2 * g.z - g.k) // g.s + 1
    xp = np.pad(x, ((0, 0), (g.z, g.z), (g.z, g.z), (0, 0)))
    cols = layers._im2col(xp, g.k, g.s, 0, oh, ow,
                          np.empty((images * oh * ow, c * g.k * g.k), x.dtype), 0)
    pre = cols @ layer.filters.transpose(3, 1, 2, 0).reshape(-1, f) + layer.bias
    del cols
    out = np.where(pre > 0, pre, 0) if layer.activation == "relu" else pre
    return out.reshape(images, oh, ow, f)


def spy_on_blocks(monkeypatch) -> list:
    """(first output row, im2col rows filled, thread, whether the fill
    zeroed the buffer's left and right padding) of each block a conv fills
    from now on, in the order the blocks start."""
    calls = []
    im2col = layers._im2col

    def spy(x, k, s, z, oh, ow, out, first, sides=True):
        calls.append((first, len(out), threading.get_ident(), sides))
        return im2col(x, k, s, z, oh, ow, out, first, sides)

    monkeypatch.setattr(layers, "_im2col", spy)
    return calls


class TestBlockedConv:
    """A conv multiplies its im2col matrix block by block, on one to three
    workers, with or without a cache, and must give exactly the bytes of
    one GEMM of the whole matrix."""

    @pytest.fixture(autouse=True, params=[1, 2, 3])
    def workers(self, request, monkeypatch):
        monkeypatch.setattr(W, "_WORKERS", request.param)
        return request.param

    @pytest.mark.parametrize("side, c, f", [(224, 128, 128), (112, 256, 256), (56, 512, 512)])
    def test_paper_scale_shapes_match_one_gemm(self, side, c, f):
        rng = np.random.default_rng(side + 1)
        x = rng.standard_normal((1, side, side, c), dtype=np.float32)
        filters = rng.standard_normal((f, 3, 3, c), dtype=np.float32) * np.float32(0.05)
        layer = conv_layer(filters, rng.standard_normal(f, dtype=np.float32), k=3, z=1,
                           activation="relu")
        want = one_gemm_conv(x, layer).tobytes()
        cached, cache = conv2d_cached(Tensor4(x), layer)
        assert cached.data.tobytes() == want
        del cached, cache
        got, none = conv2d_cached(Tensor4(x), layer, need_cache=False)
        assert none is None and got.data.tobytes() == want

    @pytest.mark.parametrize("dtype, bias_dtype", [(np.float32, np.float32),
                                                   (np.float64, np.float64),
                                                   (np.float32, np.float64)])
    @pytest.mark.parametrize("z", [0, 1])
    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    def test_blocks_match_cached(self, k, s, z, dtype, bias_dtype, workers, monkeypatch):
        # Few filters: there OpenBLAS's small-matrix kernel rounds unlike
        # its large one. A float64 bias widens each block of a float32
        # product in a buffer of its own.
        c, f, side = 16, 8, 23
        oh = (side + 2 * z - k) // s + 1  # = ow
        # No matrix is one block, and every block has the smallest height
        # allowed.
        b = layers._least_units(oh, c * k * k, f)
        unit_bytes = oh * c * k * k * np.dtype(dtype).itemsize
        monkeypatch.setattr(W, "_ONE_BLOCK_BYTES", 0)
        monkeypatch.setattr(layers, "_IM2COL_BLOCK_BYTES", b * unit_bytes)
        assert layers._block_units(10**6, oh, c * k * k, f, np.dtype(dtype).itemsize) == b
        images = math.ceil(2.5 * b / oh)  # room for three blocks or more
        rng = np.random.default_rng(7 * k + 3 * s + z)
        data = rng.normal(size=(images, side, side, c)).astype(dtype)
        # Windows of -0.0 alone and signed zero biases: exact zeros before
        # the ReLU, which it and the mask must both take as not positive.
        data[1, :5] = -0.0
        x = Tensor4(data)
        filters = rng.normal(size=(f, k, k, c)).astype(dtype) * 0.2
        bias = rng.normal(size=f).astype(bias_dtype)
        bias[:2] = (-0.0, 0.0)
        layer = conv_layer(filters, bias, k, s, z, activation="relu")
        units = images * oh
        want = one_gemm_conv(x.data, layer)
        pre = one_gemm_conv(x.data, conv_layer(filters, bias, k, s, z))
        assert (pre == 0).any() and want.dtype == bias_dtype
        calls = spy_on_blocks(monkeypatch)
        cached, cache = conv2d_cached(x, layer)
        assert cache.x is x.data  # the input itself, not a padded copy
        cached_calls = calls[:]
        calls.clear()
        got, _ = conv2d_cached(x, layer, need_cache=False)
        # A cache changes neither the blocks nor the bytes.
        assert sorted(call[:2] for call in cached_calls) == sorted(call[:2] for call in calls)
        blocks = sorted((first, first + rows // oh, thread) for first, rows, thread, _ in calls)
        assert all(hi - lo == b for lo, hi, _ in blocks)
        assert len(blocks) >= 3 and blocks[0][0] == 0 and blocks[-1][1] == units
        assert all(lo <= prev_hi for (_, prev_hi, _), (lo, _, _) in zip(blocks, blocks[1:]))
        # No output row is written by two threads.
        assert not any(a_lo < b_hi and b_lo < a_hi
                       for a_lo, a_hi, a_thread in blocks for b_lo, b_hi, b_thread in blocks
                       if a_thread != b_thread)
        assert (len({thread for *_, thread in blocks}) > 1) == (workers > 1)
        if workers == 1:  # one share: its last block overlaps the one before
            assert blocks[-1][0] < blocks[-2][1]
        assert any(lo // oh != (hi - 1) // oh for lo, hi, _ in blocks)  # spans two images
        # Each share's first block writes the left and right padding of its
        # buffer, and the later blocks through that buffer keep those zeros.
        bounds = layers._share_bounds(units, b, b)
        for lo, hi in zip(bounds, bounds[1:]):
            sides = [sides for first, _, _, sides in calls if lo <= first < hi]
            assert sides == [True] + [False] * (len(sides) - 1)
        for out in (got, cached):
            assert out.dtype == want.dtype and out.data.tobytes() == want.tobytes()
        assert cache.relu_mask.tobytes() == (pre > 0).tobytes()

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(st.data())
    def test_unpadded_fill_equals_the_fill_of_a_padded_copy(self, data):
        # The buffer starts as NaN, so a cell left unwritten shows. Later
        # blocks through the same buffer skip the left and right padding,
        # which the first one wrote. z runs past k, where whole taps, and
        # whole output rows and columns, fall in the padding.
        k = data.draw(st.integers(1, 5), "k")
        s = data.draw(st.integers(1, 3), "s")
        z = data.draw(st.integers(0, k), "z")
        h = data.draw(st.integers(max(1, k - 2 * z), 12), "h")
        w = data.draw(st.integers(max(1, k - 2 * z), 12), "w")
        images = data.draw(st.integers(1, 3), "images")
        c = data.draw(st.integers(1, 3), "c")
        dtype = data.draw(st.sampled_from([np.float32, np.float64]), "dtype")
        oh, ow = (h + 2 * z - k) // s + 1, (w + 2 * z - k) // s + 1
        units = images * oh
        count = data.draw(st.integers(1, units), "output rows per block")
        firsts = data.draw(st.lists(st.integers(0, units - count), min_size=1, max_size=3),
                           "first output row of each block")
        piece = data.draw(st.integers(1, count), "output rows per piece of the fill")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
        x = rounded_with_signed_zeros(rng, (images, h, w, c), dtype)  # -0.0 stays -0.0
        xp = np.pad(x, ((0, 0), (z, z), (z, z), (0, 0)))
        got = np.full((count * ow, c * k * k), np.nan, dtype)
        with mock.patch.object(layers, "_IM2COL_BLOCK_BYTES", piece * ow * got[0].nbytes):
            for j, first in enumerate(firsts):
                layers._im2col(x, k, s, z, oh, ow, got, first, sides=j == 0)
                want = layers._im2col(xp, k, s, 0, oh, ow, np.full_like(got, np.nan), first)
                assert got.tobytes() == want.tobytes()

    def test_wide_product_keeps_blocks_of_many_rows(self, monkeypatch):
        # 2048 x 512 filters reach the multiply-add minimum in a single row,
        # and a one-row block would take GEMV.
        monkeypatch.setattr(W, "_ONE_BLOCK_BYTES", 0)
        rng = np.random.default_rng(83)
        x = Tensor4(rng.standard_normal((1, 700, 1, 2048), dtype=np.float32))
        layer = conv_layer(rng.standard_normal((512, 1, 1, 2048), dtype=np.float32),
                           np.zeros(512, dtype=np.float32), k=1)
        assert layers._block_units(700, 1, 2048, 512, 4) == 256
        got, _ = conv2d_cached(x, layer, need_cache=False)
        assert got.data.tobytes() == one_gemm_conv(x.data, layer).tobytes()

    def test_matrix_above_the_threshold_goes_in_cache_sized_blocks(self, workers, monkeypatch):
        # 23.6 MB of im2col, above _ONE_BLOCK_BYTES: blocks of 28 output
        # rows (516 KB), each worker's share through its own buffer of one
        # block. One output row less than the threshold holds is one block.
        unit_bytes = 32 * 16 * 9 * 4
        b = layers._IM2COL_BLOCK_BYTES // unit_bytes
        assert b == 28 and layers._block_units(40 * 32, 32, 144, 16, 4) == b
        within = W._ONE_BLOCK_BYTES // unit_bytes
        assert layers._block_units(within, 32, 144, 16, 4) == within
        assert layers._block_units(within + 1, 32, 144, 16, 4) == b
        calls = spy_on_blocks(monkeypatch)
        rng = np.random.default_rng(71)
        x = Tensor4(rng.normal(size=(40, 32, 32, 16)).astype(np.float32))
        layer = conv_layer(rng.normal(size=(16, 3, 3, 16)).astype(np.float32),
                           np.zeros(16, dtype=np.float32), k=3, z=1)
        got, _ = conv2d_cached(x, layer, need_cache=False)
        assert {rows for _, rows, _, _ in calls} == {b * 32}
        assert sum(sides for *_, sides in calls) == workers  # one buffer per worker
        assert (len({thread for _, _, thread, _ in calls}) > 1) == (workers > 1)
        written = np.zeros(40 * 32, dtype=int)
        for first, _, _, _ in calls:
            written[first:first + b] += 1
        assert written.min() >= 1  # every output row, each share's last block overlapping
        assert got.data.tobytes() == one_gemm_conv(x.data, layer).tobytes()

    def test_matrix_within_one_share_stays_on_the_calling_thread(self, monkeypatch):
        # 5.9 MB: one block at any worker count, on this thread. Small
        # fills would split (two threads filled a train_inmem-size matrix
        # 1.25-1.37x as fast as one with two CPUs given); the gate keeps
        # training-size convs off the pool's hand-offs.
        calls = spy_on_blocks(monkeypatch)
        rng = np.random.default_rng(72)
        x = Tensor4(rng.normal(size=(20, 16, 16, 32)).astype(np.float32))
        layer = conv_layer(rng.normal(size=(32, 3, 3, 32)).astype(np.float32),
                           np.zeros(32, dtype=np.float32), k=3, z=1)
        got, _ = conv2d_cached(x, layer, need_cache=False)
        assert calls == [(0, 20 * 16 * 16, threading.get_ident(), True)]
        assert got.data.tobytes() == one_gemm_conv(x.data, layer).tobytes()

    def test_one_filter_is_never_split(self, monkeypatch):
        # A one-column product takes GEMV, whose bits depend on its length.
        monkeypatch.setattr(W, "_ONE_BLOCK_BYTES", 0)
        assert layers._block_units(10**6, 224, 1152, 1, 4) == 10**6
        rng = np.random.default_rng(73)
        x = Tensor4(rng.normal(size=(2, 40, 40, 16)).astype(np.float32))
        layer = conv_layer(rng.normal(size=(1, 3, 3, 16)).astype(np.float32),
                           np.zeros(1, dtype=np.float32), k=3, z=1)
        got, _ = conv2d_cached(x, layer, need_cache=False)
        assert got.data.tobytes() == one_gemm_conv(x.data, layer).tobytes()

    @pytest.mark.parametrize("need_cache", [False, True])
    def test_paper_scale_conv_allocates_far_less_than_its_im2col(self, need_cache, workers):
        rng = np.random.default_rng(79)
        x = Tensor4(rng.standard_normal((1, 224, 224, 128), dtype=np.float32))
        layer = conv_layer(rng.standard_normal((128, 3, 3, 128), dtype=np.float32)
                           * np.float32(0.05), np.zeros(128, dtype=np.float32), k=3, z=1,
                           activation="relu")
        # The im2col matrix is 220.5 MiB; a block is two output rows of it.
        block = layers._block_units(224, 224, 1152, 128, 4) * 224 * 1152 * 4
        assert block == 2 * 224 * 1152 * 4  # 1.97 MiB
        tracemalloc.start()
        try:
            out, cache = conv2d_cached(x, layer, need_cache=need_cache)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The output (24.5 MiB) and one block buffer per worker, plus the
        # 0.6 MiB filter matrix and the 1 MiB of the output's finiteness
        # check: no padded copy of the input. On two workers that is under
        # 32 MiB. A cache adds its ReLU mask and keeps the input itself.
        mask = cache.relu_mask.nbytes if need_cache else 0
        assert peak - mask < out.data.nbytes + workers * block + 2 * 2**20
        if need_cache:
            assert np.shares_memory(cache.x, x.data)
        assert out.data.shape == (1, 224, 224, 128)


class TestFilterMatrix:
    """`conv2d_cached` copies the filter bank into its (c*k*k, f) matrix 64
    filters at a time: the bytes of the whole transposed bank."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("f, k, c", [(1, 3, 3), (63, 3, 5), (65, 1, 7), (512, 3, 4)])
    def test_blocks_give_the_transposed_bank(self, f, k, c, dtype):
        filters = rounded_with_signed_zeros(np.random.default_rng(f), (f, k, k, c), dtype)
        want = filters.transpose(3, 1, 2, 0).reshape(-1, f)
        got = layers._filter_matrix(filters)
        assert got.shape == want.shape and got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_strided_bank(self):
        # A bank that is a view of a larger one, as a test may pass it.
        bank = np.random.default_rng(5).standard_normal((130, 3, 3, 8))[::2, :, :, 1:7]
        want = bank.transpose(3, 1, 2, 0).reshape(-1, 65)
        assert layers._filter_matrix(bank).tobytes() == want.tobytes()


class TestWorkerPool:
    """`workers.run_jobs` returns or raises only once every job it started
    has finished, whichever thread a job runs on."""

    def test_imports_without_an_affinity_mask(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity: the worker count
        # is then every CPU. A fresh copy of the module is loaded, so the
        # classes other modules hold stay as they are.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        spec = importlib.util.spec_from_file_location("purefoodnet._workers_copy",
                                                      W.__file__)
        copy = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, copy)
        spec.loader.exec_module(copy)
        assert copy._CPUS == copy._WORKERS == (os.cpu_count() or 1)
        assert copy._pool.cache_info().currsize == 0  # no pool until a job needs it

    def test_many_workers_hold_one_block_each(self, monkeypatch):
        # At 224^2 x 64 -> 64 a block is the smallest allowed, two output
        # rows (1.03 MB): each of 64 workers' shares goes through its own
        # buffer of one block. The pool keeps the threads it started with;
        # the shares queue for them.
        monkeypatch.setattr(W, "_WORKERS", 64)
        buffers = {}
        im2col = layers._im2col

        def spy(x, k, s, z, oh, ow, out, first, sides=True):
            buffers[out.ctypes.data] = out.nbytes
            return im2col(x, k, s, z, oh, ow, out, first, sides)

        monkeypatch.setattr(layers, "_im2col", spy)
        rng = np.random.default_rng(80)
        x = Tensor4(rng.standard_normal((1, 224, 224, 64), dtype=np.float32))
        layer = conv_layer(rng.standard_normal((64, 3, 3, 64), dtype=np.float32)
                           * np.float32(0.05), np.zeros(64, dtype=np.float32), k=3, z=1)
        got, _ = conv2d_cached(x, layer, need_cache=False)
        assert layers._block_units(224, 224, 576, 64, 4) == 2
        assert len(buffers) == 64 and set(buffers.values()) == {2 * 224 * 576 * 4}
        monkeypatch.setattr(layers, "_im2col", im2col)
        assert got.data.tobytes() == conv2d_cached(x, layer)[0].data.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_in_job_order(self, workers, monkeypatch):
        monkeypatch.setattr(W, "_WORKERS", workers)
        jobs = [lambda: threading.get_ident()] + [partial(pow, 2, i) for i in range(1, 4)]
        assert W.run_jobs(jobs) == [threading.get_ident(), 2, 4, 8]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_jobs_run_under_the_callers_error_state(self, workers, monkeypatch):
        # numpy keeps np.errstate in a context variable, which a pool thread
        # sees only in a copy of the caller's context.
        monkeypatch.setattr(W, "_WORKERS", workers)
        overflow = partial(np.multiply, np.float32(3e38), np.float32(2))
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            W.run_jobs([lambda: None, overflow])
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert W.run_jobs([overflow, overflow]) == [np.inf, np.inf]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_conv_share_error_surfaces_after_every_other_share(self, workers, monkeypatch):
        # The share of the last worker fails at once; the caller sees the
        # error only when the other shares have written all their blocks.
        monkeypatch.setattr(W, "_WORKERS", workers)
        # Every block has the smallest height allowed.
        b = layers._least_units(40, 144, 16)
        monkeypatch.setattr(W, "_ONE_BLOCK_BYTES", 0)
        monkeypatch.setattr(layers, "_IM2COL_BLOCK_BYTES", 0)
        rng = np.random.default_rng(74)
        x = Tensor4(rng.normal(size=(4, 40, 40, 16)).astype(np.float32))
        layer = conv_layer(rng.normal(size=(16, 3, 3, 16)).astype(np.float32),
                           np.zeros(16, dtype=np.float32), k=3, z=1)
        assert layers._block_units(160, 40, 144, 16, 4) == b
        bounds = layers._share_bounds(160, b, b)
        assert len(bounds) == workers + 1
        filled = []
        im2col = layers._im2col

        def failing(x, k, s, z, oh, ow, out, first, sides=True):
            if first >= bounds[-2]:
                raise MemoryError("share refused")
            time.sleep(0.02)
            filled.append(first)
            return im2col(x, k, s, z, oh, ow, out, first, sides)

        monkeypatch.setattr(layers, "_im2col", failing)
        with pytest.raises(MemoryError, match="share refused"):
            conv2d_cached(x, layer, need_cache=False)
        want = [u for lo, hi in zip(bounds[:-2], bounds[1:-1])
                for u in (*range(lo, hi - b, b), hi - b)]
        assert sorted(filled) == want

    @pytest.mark.parametrize("workers", [2, 3])
    def test_jobs_started_on_a_pool_thread_run_there(self, workers, monkeypatch):
        # A pool job that calls run_jobs (a conv block's finiteness scan can)
        # runs those jobs in order on its own thread: waiting there for the
        # pool, which that very job occupies, would never end.
        monkeypatch.setattr(W, "_WORKERS", workers)

        def nested():
            return W.run_jobs([threading.get_ident, threading.get_ident])

        result = []
        caller = threading.Thread(target=lambda: result.append(
            W.run_jobs([nested] * workers)), daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "nested run_jobs deadlocked"
        (got,) = result
        # The caller's own nested call may still use the pool.
        assert got[0][0] == caller.ident
        assert all(len(set(pair)) == 1 and caller.ident not in pair for pair in got[1:])

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_caller_error_waits_for_the_pool(self, workers, monkeypatch):
        monkeypatch.setattr(W, "_WORKERS", workers)
        done = []

        def refuse():
            raise MemoryError("caller refused")

        def slow(tag):
            time.sleep(0.05)
            done.append(tag)

        with pytest.raises(MemoryError, match="caller refused"):
            W.run_jobs([refuse, partial(slow, 1), partial(slow, 2)])
        # One worker runs the jobs in order and stops at the first error.
        assert sorted(done) == ([1, 2] if workers > 1 else [])


@pytest.fixture
def blas_team():
    """numpy's OpenBLAS given a team of two threads for the test, and the
    count it had given back after; yields the count's `get` call."""
    if W._BLAS_THREADS is None:
        pytest.skip("this BLAS has no thread-count calls")
    get, put = W._BLAS_THREADS
    before = get()
    put(2)
    yield get
    put(before)


class TestOneBlasThread:
    """`workers.one_blas_thread` holds numpy's OpenBLAS at one thread around
    every product of the engine and gives the caller's count back after."""

    def test_finds_numpys_openblas(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if "openblas" not in blas:
            pytest.skip(f"numpy was built against {blas}")
        assert W._BLAS_THREADS is not None
        assert W._ONE_BLAS_THREAD and W._WORKERS == W._CPUS

    def test_without_the_calls_one_worker_and_the_whole_matrix(self):
        # A BLAS without OpenBLAS's thread-count calls (Accelerate has none)
        # cannot be held: one worker, so no pool, and each filter gradient
        # is one product of the rebuilt im2col matrix, never its taps.
        src = os.path.dirname(os.path.dirname(layers.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import ctypes, sys, types\n"
            "import numpy as np\n"
            "ctypes.CDLL = lambda *args, **kwargs: types.SimpleNamespace()\n"
            "from purefoodnet import layers, models, workers\n"
            "from purefoodnet.tensor import ConvGeometry, Tensor4\n"
            "taps = []\n"
            "real = layers._tap_gradients\n"
            "layers._tap_gradients = lambda *args: taps.append(args) or real(*args)\n"
            "spec = models.build_purefoodnet(3, width_scale=0.125, input_side=8)\n"
            "x = Tensor4(np.zeros((1, 8, 8, 3), dtype=np.float32))\n"
            "models.forward(spec, models.init_params(spec, seed=0), x)\n"
            "rng = np.random.default_rng(0)\n"
            "x = Tensor4(rng.normal(size=(4, 32, 32, 16)).astype(np.float32))\n"
            "bank = rng.normal(size=(16, 3, 3, 16)).astype(np.float32)\n"
            "conv = layers.ConvLayer(bank, np.zeros(16, np.float32), ConvGeometry(3, 1, 1))\n"
            "out, cache = layers.conv2d_cached(x, conv)\n"
            "layers.conv2d_backward(out.data, cache)\n"
            "print(workers._BLAS_THREADS, workers._WORKERS, len(taps),\n"
            "      'concurrent.futures' in sys.modules)\n"
        )
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["None", "1", "0", "False"]

    def test_gives_the_callers_count_back_after_a_return_or_a_raise(self, blas_team):
        with W.one_blas_thread():
            assert blas_team() == 1
        assert blas_team() == 2
        with pytest.raises(KeyError), W.one_blas_thread():
            assert blas_team() == 1
            raise KeyError("refused")
        assert blas_team() == 2

    def test_a_kernel_that_raises_gives_the_count_back(self, blas_team):
        layer = conv_layer(np.zeros((2, 3, 3, 4), np.float32), np.zeros(2, np.float32), k=3, z=1)
        with pytest.raises(ShapeError):
            conv2d_cached(Tensor4(np.zeros((1, 8, 8, 3), np.float32)), layer)
        assert blas_team() == 2

    def test_nested_holds_give_it_back_at_the_outermost(self, blas_team):
        with W.one_blas_thread():
            with W.one_blas_thread():
                assert blas_team() == 1
            assert blas_team() == 1
        assert blas_team() == 2

    @pytest.mark.parametrize("other_leaves_first", [False, True])
    def test_two_threads_holding_at_once(self, other_leaves_first, blas_team):
        # The count is the process's: the thread that leaves first must not
        # give it back while the other still holds.
        entered, leave, left = threading.Event(), threading.Event(), threading.Event()

        def other():
            with W.one_blas_thread():
                entered.set()
                leave.wait(30)
            left.set()

        thread = threading.Thread(target=other, daemon=True)
        with W.one_blas_thread():
            thread.start()
            assert entered.wait(30)
            if other_leaves_first:
                leave.set()
                assert left.wait(30)
                assert blas_team() == 1
        assert blas_team() == (2 if other_leaves_first else 1)
        leave.set()
        thread.join(30)
        assert not thread.is_alive()
        assert blas_team() == 2

    def test_every_kernel_that_multiplies_holds(self, monkeypatch):
        # A stand-in BLAS whose caller runs a team of two records each set.
        sets = []
        monkeypatch.setattr(W, "_BLAS_THREADS", (lambda: 2, sets.append))
        rng = np.random.default_rng(6)
        x = Tensor4(rng.normal(size=(2, 6, 6, 3)).astype(np.float32))
        conv = conv_layer(rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
                          np.zeros(4, np.float32), k=3, z=1)
        dense = DenseLayer(rng.normal(size=(3, 5)).astype(np.float32), np.zeros(5, np.float32))
        flat = Tensor4(x.data[:, :1, :1, :])
        out, conv_cache = conv2d_cached(x, conv)
        scores, dense_cache = layers.dense_cached(flat, dense)
        layers.conv2d_backward(out.data, conv_cache)
        layers.dense_backward_from_pre(scores.data.reshape(2, 5), dense_cache)
        assert sets == [1, 2] * 4

    def test_a_product_a_team_splits_gets_the_one_thread_bytes(self, blas_team):
        # OpenBLAS's team splits the sum of a long float64 dot product across
        # its threads; a dense layer of one unit on 2^18 inputs takes one.
        _, put = W._BLAS_THREADS
        differ = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((1, 1 << 18))
            layer = DenseLayer(rng.standard_normal((1 << 18, 1)), np.zeros(1))
            team = x @ layer.weights
            put(1)
            one = x @ layer.weights
            put(2)
            differ += team.tobytes() != one.tobytes()
            got = dense_forward(Tensor4(x.reshape(1, 1, 1, -1)), layer).data
            assert got.tobytes() == (one + layer.bias).tobytes()
            assert blas_team() == 2
        assert differ  # the team does round this product otherwise


class TestParameterChecks:
    """Layers take their parameters from a ParamStore, whose one check looks
    at every value, past the first finiteness chunk too, whatever the
    array's memory layout."""

    @pytest.mark.parametrize("transposed", [False, True])
    def test_conv_nan_past_the_first_chunk(self, transposed):
        filters = np.zeros((2, 3, 3, 1 << 16), dtype=np.float32)  # 1.2 M values
        filters[1, 2, 2, -1] = np.nan
        if transposed:
            filters = np.ascontiguousarray(filters.transpose(3, 1, 2, 0)).transpose(3, 1, 2, 0)
        with pytest.raises(NonFiniteError, match="parameter 'c.filters' must be finite"):
            ParamStore({"c.filters": filters, "c.bias": np.zeros(2, dtype=np.float32)})
        bias = np.zeros(2, dtype=np.float32)
        bias[1] = np.inf
        with pytest.raises(NonFiniteError, match="parameter 'c.bias' must be finite"):
            ParamStore({"c.filters": np.zeros((2, 3, 3, 1), dtype=np.float32), "c.bias": bias})

    @pytest.mark.parametrize("transposed", [False, True])
    def test_dense_nan_past_the_first_chunk(self, transposed):
        weights = np.zeros((1 << 11, 1025), dtype=np.float32)  # 2.1 M values
        weights[-1, -1] = np.nan
        if transposed:
            weights = np.ascontiguousarray(weights.T).T
        with pytest.raises(NonFiniteError, match="parameter 'fc.weights' must be finite"):
            ParamStore({"fc.weights": weights, "fc.bias": np.zeros(1025, dtype=np.float32)})


class TestPooling:
    def test_max_matches_oracle(self):
        rng = np.random.default_rng(23)
        for window, stride, h, w in ((2, 2, 6, 8), (3, 1, 5, 5), (2, 1, 4, 3), (3, 3, 9, 6)):
            x = rng.normal(size=(2, h, w, 3))
            got = pool_forward(Tensor4(x), PoolLayer(window, stride, "max"))
            np.testing.assert_array_equal(got.data, pool_oracle(x, window, stride, np.max))

    def test_avg_matches_oracle(self):
        rng = np.random.default_rng(29)
        for window, stride, h, w in ((2, 2, 6, 8), (3, 1, 5, 5), (2, 1, 4, 3)):
            x = rng.normal(size=(2, h, w, 3))
            got = pool_forward(Tensor4(x), PoolLayer(window, stride, "average"))
            np.testing.assert_allclose(got.data, pool_oracle(x, window, stride, np.mean),
                                       rtol=0, atol=1e-12)

    def test_literal_two_by_two_max(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
        out = pool_forward(Tensor4(x), PoolLayer(2, 2, "max"))
        assert out.data.reshape(()) == 4.0

    def test_constant_input_both_modes(self):
        x = Tensor4(np.full((1, 4, 4, 2), 7.0))
        for mode in ("max", "average"):
            out = pool_forward(x, PoolLayer(2, 2, mode))
            assert out.data.shape == (1, 2, 2, 2)
            np.testing.assert_array_equal(out.data, 7.0)

    def test_max_outputs_come_from_windows(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(1, 6, 6, 2))
        out = pool_forward(Tensor4(x), PoolLayer(2, 2, "max"))
        for r in range(3):
            for col in range(3):
                for ch in range(2):
                    window = x[0, 2 * r:2 * r + 2, 2 * col:2 * col + 2, ch]
                    assert out.data[0, r, col, ch] in window

    def test_average_preserves_global_mean_when_tiling(self):
        rng = np.random.default_rng(37)
        x = rng.normal(size=(2, 6, 6, 3))
        out = pool_forward(Tensor4(x), PoolLayer(2, 2, "average"))
        assert out.data.mean() == pytest.approx(x.mean(), abs=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", POOL_MODES)
    @pytest.mark.parametrize("window, stride, h, w", [(2, 2, 8, 6), (3, 1, 5, 7), (2, 1, 4, 3),
                                                      (3, 3, 9, 6), (1, 1, 3, 2)])
    def test_inference_keeps_the_cached_bytes(self, window, stride, h, w, mode, dtype):
        # Max pools are held to the argmax oracle, average pools to the
        # cached pass.
        rng = np.random.default_rng(window * 10 + stride + h)
        x = Tensor4(rounded_with_signed_zeros(rng, (3, h, w, 5), dtype))
        layer = PoolLayer(window, stride, mode)
        cached, cache = pool_cached(x, layer)
        want = max_pool_oracle(x.data, window, stride)[0] if mode == "max" else cached.data
        got, none = pool_cached(x, layer, need_cache=False)
        assert none is None and cache.in_shape == x.shape
        for out in (got, cached):
            assert out.dtype == want.dtype and out.shape == want.shape
            assert out.data.tobytes() == want.tobytes()  # the sign of each zero too

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("window", [1, 2, 3, 5, 8, 9])
    def test_average_has_the_bytes_of_the_window_mean(self, window, dtype):
        # Ties and zeros of both signs at magnitudes from 1e-20 to 1e29,
        # where the order of the sums shows. The first image is all -0.0:
        # numpy's sums start from +0.0, so its windows average to +0.0.
        rng = np.random.default_rng(window)
        for stride in sorted({1, 2, window}):
            x = rounded_with_signed_zeros(rng, (3, window + 3 * stride, window + 2 * stride, 5),
                                          dtype)
            x *= (10.0 ** rng.integers(-20, 30, x.shape)).astype(dtype)
            x[0] = -0.0
            windows = sliding_window_view(x, (window, window), axis=(1, 2))[:, ::stride, ::stride]
            want = windows.mean(axis=(4, 5))
            layer = PoolLayer(window, stride, "average")
            for need_cache in (True, False):
                got, _ = pool_cached(Tensor4(x), layer, need_cache)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("window", [2, 3, 9])
    def test_one_channel_averages_as_it_does_beside_others(self, window):
        # numpy's mean of a one-channel window view sums each window row
        # first (pairwise from 8 columns on), unlike with more channels; the
        # pool sums every channel's taps in one order.
        rng = np.random.default_rng(window + 100)
        shape = (2, 3 * window, 2 * window, 1)
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, shape)
        layer = PoolLayer(window, window, "average")
        one = pool_forward(Tensor4(x), layer).data
        beside = pool_forward(Tensor4(np.repeat(x, 3, axis=3)), layer).data
        assert one.tobytes() == np.ascontiguousarray(beside[..., 1:2]).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("window, stride, h, w, winner", [
        (2, 2, 8, 6, np.uint8), (3, 1, 5, 7, np.uint8), (2, 1, 8, 6, np.uint8),
        (3, 2, 9, 7, np.uint8), (17, 2, 19, 17, np.uint16)])
    def test_max_winners_match_the_argmax_oracle(self, window, stride, h, w, winner, dtype):
        # Ties abound, between +0.0 and -0.0 too (13 cells whose maximum is
        # a zero of both signs at 2/1/8x6), and stride < window makes windows
        # overlap; 17 x 17 = 289 taps need uint16 winners.
        rng = np.random.default_rng(window * 10 + stride + h)
        x = rounded_with_signed_zeros(rng, (3, h, w, 5), dtype)
        want, argmax = max_pool_oracle(x, window, stride)
        got, cache = pool_cached(Tensor4(x), PoolLayer(window, stride, "max"))
        assert got.data.tobytes() == want.tobytes()
        assert cache.argmax.dtype == winner
        assert cache.argmax.tobytes() == argmax.astype(winner).tobytes()
        # The backward reads the small winners as it read int64 ones.
        d = rounded_with_signed_zeros(rng, want.shape, dtype)
        oracle = pool_backward(d, cache._replace(argmax=argmax))
        assert pool_backward(d, cache).tobytes() == oracle.tobytes()

    def test_inference_max_builds_no_winner_index(self):
        # No copy of every window (4x the output here): the running maximum
        # holds the output, one np.where result and its boolean mask.
        x = Tensor4(np.random.default_rng(41).normal(size=(1, 64, 64, 32)).astype(np.float32))
        out_bytes = 32 * 32 * 32 * 4
        tracemalloc.start()
        try:
            pool_cached(x, PoolLayer(2, 2, "max"), need_cache=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * out_bytes

    def test_rejects_nontiling_geometry(self):
        x = Tensor4(np.zeros((1, 5, 5, 1), dtype=np.float32))
        with pytest.raises(GeometryError):
            pool_forward(x, PoolLayer(2, 2, "max"))  # (5 - 2) % 2 != 0
        with pytest.raises(GeometryError):
            pool_forward(x, PoolLayer(6, 1, "average"))

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            PoolLayer(2, 2, "median")


class TestFlatten:
    def test_row_major_order(self):
        x = np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2)
        out = flatten(Tensor4(x))
        assert out.data.shape == (2, 1, 1, 12)
        for n in range(2):
            idx = 0
            for h in range(3):
                for w in range(2):
                    for c in range(2):
                        assert out.data[n, 0, 0, idx] == x[n, h, w, c]
                        idx += 1

    def test_reshape_back_is_identity(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(3, 4, 5, 2))
        out = flatten(Tensor4(x))
        np.testing.assert_array_equal(out.data.reshape(x.shape), x)


class TestDense:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(4, 1, 1, 6))
        weights = rng.normal(size=(6, 3))
        bias = rng.normal(size=3)
        got = dense_forward(Tensor4(x), DenseLayer(weights, bias))
        for n in range(4):
            for u in range(3):
                want = bias[u] + sum(x[n, 0, 0, d] * weights[d, u] for d in range(6))
                assert got.data[n, 0, 0, u] == pytest.approx(want, abs=1e-12)

    def test_identity_weights(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(3, 1, 1, 5))
        out = dense_forward(Tensor4(x), DenseLayer(np.eye(5), np.zeros(5)))
        np.testing.assert_allclose(out.data, x, rtol=0, atol=1e-15)

    def test_zero_weights_give_bias(self):
        bias = np.array([1.0, -2.0, 3.0])
        x = Tensor4(np.random.default_rng(47).normal(size=(4, 1, 1, 6)))
        out = dense_forward(x, DenseLayer(np.zeros((6, 3)), bias))
        for n in range(4):
            np.testing.assert_array_equal(out.data[n, 0, 0], bias)

    def test_fused_softmax_rows(self):
        rng = np.random.default_rng(53)
        x = Tensor4(rng.normal(size=(6, 1, 1, 4)))
        layer = DenseLayer(rng.normal(size=(4, 5)), rng.normal(size=5), activation="softmax")
        out = dense_forward(x, layer)
        np.testing.assert_allclose(out.data.sum(axis=3), 1.0, rtol=0, atol=1e-12)

    def test_rejects_spatial_input(self):
        x = Tensor4(np.zeros((1, 2, 2, 3), dtype=np.float32))
        with pytest.raises(ShapeError):
            dense_forward(x, DenseLayer(np.zeros((12, 4)), np.zeros(4)))

    def test_rejects_width_mismatch(self):
        x = Tensor4(np.zeros((1, 1, 1, 3), dtype=np.float32))
        with pytest.raises(ShapeError):
            dense_forward(x, DenseLayer(np.zeros((4, 2)), np.zeros(2)))


class TestRelu:
    """The ReLU fused into a dense layer, seen through identity weights."""

    @staticmethod
    def relu(x):
        n = x.shape[3]
        return dense_forward(Tensor4(x), DenseLayer(np.eye(n), np.zeros(n), "relu"))

    def test_clamps_negatives(self):
        x = np.array([[-2.0, -0.5, 0.0, 0.5, 2.0]]).reshape(1, 1, 1, 5)
        out = self.relu(x)
        np.testing.assert_array_equal(out.data.ravel(), [0.0, 0.0, 0.0, 0.5, 2.0])

    def test_all_positive_identity(self):
        x = np.abs(np.random.default_rng(59).normal(size=(2, 1, 1, 18))) + 0.1
        np.testing.assert_array_equal(self.relu(x).data, x)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(37)
        x = Tensor4(rng.normal(scale=5, size=(16, 1, 1, 10)))
        probs = softmax(x)
        np.testing.assert_allclose(probs.data.sum(axis=3), 1.0, rtol=0, atol=1e-12)
        assert (probs.data > 0).all()

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(5, 1, 1, 7))
        want = np.exp(x) / np.exp(x).sum(axis=3, keepdims=True)
        got = softmax(Tensor4(x))
        np.testing.assert_allclose(got.data, want, rtol=1e-12, atol=0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(3, 1, 1, 6))
        a = softmax(Tensor4(x))
        b = softmax(Tensor4(x + 123.0))
        np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-12)

    def test_uniform_scores(self):
        x = Tensor4(np.full((2, 1, 1, 4), 3.25))
        np.testing.assert_allclose(softmax(x).data, 0.25, rtol=0, atol=1e-15)

    def test_preserves_argmax(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(20, 1, 1, 9))
        probs = softmax(Tensor4(x))
        np.testing.assert_array_equal(probs.data.argmax(axis=3), x.argmax(axis=3))

    def test_survives_large_logits(self):
        x = Tensor4(np.array([1000.0, 1001.0, 999.0]).reshape(1, 1, 1, 3))
        probs = softmax(x)
        assert np.isfinite(probs.data).all()
        assert probs.data.sum() == pytest.approx(1.0, abs=1e-12)


class TestDropout:
    def test_identity_at_inference(self):
        x = Tensor4(np.ones((2, 3, 3, 2), dtype=np.float32))
        assert dropout_forward(x, DropoutLayer(0.5), training=False) is x

    def test_zero_rate_is_identity(self):
        x = Tensor4(np.ones((1, 2, 2, 1), dtype=np.float32))
        assert dropout_forward(x, DropoutLayer(0.0), training=True,
                               rng=np.random.default_rng(0)) is x

    def test_survivors_scaled(self):
        rng = np.random.default_rng(47)
        x = Tensor4(np.full((10, 4, 4, 8), 3.0))
        out = dropout_forward(x, DropoutLayer(0.25), training=True, rng=rng)
        vals = np.unique(out.data)
        np.testing.assert_allclose(vals, [0.0, 3.0 / 0.75], rtol=0, atol=1e-12)

    def test_expected_value_preserved(self):
        x = Tensor4(np.ones((10, 10, 10, 10)))
        out = dropout_forward(x, DropoutLayer(0.5), training=True,
                              rng=np.random.default_rng(3))
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_seed_reproducibility(self):
        x = Tensor4(np.ones((2, 5, 5, 3)))
        a = dropout_forward(x, DropoutLayer(0.4), training=True, rng=np.random.default_rng(9))
        b = dropout_forward(x, DropoutLayer(0.4), training=True, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a.data, b.data)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            DropoutLayer(1.0)
        with pytest.raises(ValueError):
            DropoutLayer(-0.1)


class TestBatchNorm:
    def _layer(self, c):
        return BatchNormLayer(np.ones(c), np.zeros(c), np.zeros(c), np.ones(c))

    def test_training_normalizes_per_channel(self):
        rng = np.random.default_rng(53)
        x = Tensor4(rng.normal(loc=3.0, scale=2.0, size=(8, 6, 6, 4)))
        out = batchnorm_forward(x, self._layer(4), training=True)
        mean = out.data.mean(axis=(0, 1, 2))
        var = out.data.var(axis=(0, 1, 2))
        np.testing.assert_allclose(mean, 0.0, rtol=0, atol=1e-10)
        np.testing.assert_allclose(var, 1.0, rtol=0, atol=1e-4)

    def test_constant_channel_goes_to_zero(self):
        x = Tensor4(np.full((4, 2, 2, 2), 5.0))
        out = batchnorm_forward(x, self._layer(2), training=True)
        np.testing.assert_allclose(out.data, 0.0, rtol=0, atol=1e-12)

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(59)
        x = Tensor4(rng.normal(size=(4, 3, 3, 2)))
        layer = BatchNormLayer(np.zeros(2), np.full(2, 5.0), np.zeros(2), np.ones(2))
        out = batchnorm_forward(x, layer, training=True)
        np.testing.assert_array_equal(out.data, 5.0)

    def test_running_stats_update_rule(self):
        rng = np.random.default_rng(61)
        x = rng.normal(loc=1.5, scale=3.0, size=(6, 4, 4, 3))
        layer = BatchNormLayer(np.ones(3), np.zeros(3), np.full(3, 10.0), np.full(3, 5.0))
        batchnorm_forward(Tensor4(x), layer, training=True)
        want_mean = 0.9 * 10.0 + 0.1 * x.mean(axis=(0, 1, 2))
        want_var = 0.9 * 5.0 + 0.1 * x.var(axis=(0, 1, 2))
        np.testing.assert_allclose(layer.running_mean, want_mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(layer.running_var, want_var, rtol=0, atol=1e-12)

    def test_inference_uses_running_stats(self):
        rng = np.random.default_rng(67)
        x = rng.normal(size=(3, 2, 2, 2))
        layer = BatchNormLayer(np.array([1.5, 2.5]), np.array([0.5, -0.5]),
                               np.array([1.0, -1.0]), np.array([4.0, 9.0]))
        out = batchnorm_forward(Tensor4(x), layer, training=False)
        want = layer.gamma * (x - layer.running_mean) / np.sqrt(layer.running_var + 1e-5) + layer.beta
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-12)
        # Inference never touches the running estimates.
        np.testing.assert_array_equal(layer.running_mean, [1.0, -1.0])
        np.testing.assert_array_equal(layer.running_var, [4.0, 9.0])

    def test_update_can_be_suppressed(self):
        rng = np.random.default_rng(71)
        x = Tensor4(rng.normal(size=(4, 2, 2, 2)))
        layer = self._layer(2)
        batchnorm_cached(x, layer, training=True, update_stats=False)
        np.testing.assert_array_equal(layer.running_mean, 0.0)
        np.testing.assert_array_equal(layer.running_var, 1.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 1, 1, 3), (4, 5, 5, 2), (40, 32, 32, 16),
                                       (1, 7, 3, 9)])
    def test_bit_identical_to_two_pass_formula(self, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(loc=0.7, scale=1.9, size=shape).astype(dtype)
        c = shape[3]
        gamma = rng.normal(size=c).astype(dtype)
        beta = rng.normal(size=c).astype(dtype)
        running = rng.normal(size=c).astype(dtype), rng.uniform(0.5, 2, size=c).astype(dtype)
        layer = BatchNormLayer(gamma, beta, running[0].copy(), running[1].copy())
        out, cache = batchnorm_cached(Tensor4(x), layer, training=True)
        mean, var = x.mean(axis=(0, 1, 2)), x.var(axis=(0, 1, 2))
        inv_std = 1.0 / np.sqrt(var + layers.BATCHNORM_EPS)
        x_hat = (x - mean) * inv_std
        np.testing.assert_array_equal(cache.x_hat, x_hat)
        np.testing.assert_array_equal(cache.inv_std, inv_std)
        np.testing.assert_array_equal(out.data, gamma * x_hat + beta)
        m = layers.BATCHNORM_MOMENTUM
        np.testing.assert_array_equal(layer.running_var, (1.0 - m) * running[1] + m * var)

        out, cache = batchnorm_cached(Tensor4(x), layer, training=False)
        inv_std = 1.0 / np.sqrt(layer.running_var + layers.BATCHNORM_EPS)
        x_hat = (x - layer.running_mean) * inv_std
        np.testing.assert_array_equal(cache.x_hat, x_hat)
        np.testing.assert_array_equal(out.data, gamma * x_hat + beta)

    @pytest.mark.parametrize("dtypes", [(np.float32,) * 3, (np.float64,) * 3,
                                        (np.float32, np.float32, np.float64),
                                        (np.float32, np.float64, np.float32)])
    @pytest.mark.parametrize("shape", [(2, 1, 1, 3), (4, 5, 5, 2), (1, 7, 3, 9)])
    def test_inference_in_place_keeps_the_cached_bytes(self, shape, dtypes):
        # Rounded data and statistics, so x - mean is often zero, and
        # signed-zero shifts: the sign of each zero through the scale and
        # the shift shows. A wider scale widens the output, as before.
        x_dtype, stats_dtype, scale_dtype = dtypes
        rng = np.random.default_rng(sum(shape) + 1)
        c = shape[3]
        x = Tensor4(rounded_with_signed_zeros(rng, shape, x_dtype))
        beta = rounded_with_signed_zeros(rng, (c,), scale_dtype)
        beta[::2] = -0.0
        layer = BatchNormLayer(rounded_with_signed_zeros(rng, (c,), scale_dtype), beta,
                               rounded_with_signed_zeros(rng, (c,), stats_dtype),
                               rng.uniform(0.5, 2, size=c).astype(stats_dtype))
        want, cache = batchnorm_cached(x, layer)
        got, none = batchnorm_cached(x, layer, need_cache=False)
        assert none is None and cache is not None
        assert got.dtype == want.dtype
        assert got.data.tobytes() == want.data.tobytes()
        assert batchnorm_forward(x, layer).data.tobytes() == want.data.tobytes()

    def test_nonfinite_batch_statistics_leave_running_stats_untouched(self):
        x = np.ones((2, 2, 2, 3), dtype=np.float32)
        x[0, 0, 0, 1] = 1e20  # finite, but its square is not in float32
        layer = BatchNormLayer(np.ones(3, np.float32), np.zeros(3, np.float32),
                               np.full(3, 0.5, np.float32), np.full(3, 2.0, np.float32))
        before = layer.running_mean.tobytes(), layer.running_var.tobytes()
        with np.errstate(over="ignore"), \
                pytest.raises(NonFiniteError, match="batch norm batch statistics must be finite"):
            batchnorm_forward(Tensor4(x), layer, training=True)
        assert (layer.running_mean.tobytes(), layer.running_var.tobytes()) == before

    def test_degenerate_batch_rejected(self):
        x = Tensor4(np.ones((1, 1, 1, 3), dtype=np.float64))
        with pytest.raises(DegenerateBatchError):
            batchnorm_forward(x, self._layer(3), training=True)

    def test_rejects_mismatched_params(self):
        with pytest.raises(ShapeError):
            BatchNormLayer(np.ones(2), np.zeros(3), np.zeros(3), np.ones(3))
        x = Tensor4(np.ones((2, 2, 2, 3), dtype=np.float64))
        with pytest.raises(ShapeError):
            batchnorm_forward(x, self._layer(2), training=True)

    def test_rejects_negative_running_var(self):
        with pytest.raises(ShapeError):
            BatchNormLayer(np.ones(2), np.zeros(2), np.zeros(2), np.array([1.0, -0.5]))


class TestPenalties:
    def test_l2_hand_computed(self):
        ws = [np.array([[1.0, 2.0]]), np.array([3.0])]
        # 1 + 4 + 9 = 14
        assert l2_penalty(ws, 0.5) == pytest.approx(7.0, abs=1e-15)

    def test_l1_hand_computed(self):
        ws = [np.array([[-1.0, 2.0]]), np.array([-3.0])]
        assert l1_penalty(ws, 2.0) == pytest.approx(12.0, abs=1e-15)

    def test_coefficient_one_reference_pair(self):
        ws = [np.array([3.0, -4.0])]
        assert l1_penalty(ws, 1.0) == pytest.approx(7.0, abs=1e-15)
        assert l2_penalty(ws, 1.0) == pytest.approx(25.0, abs=1e-15)

    def test_zero_params(self):
        ws = [np.zeros((3, 3))]
        assert l2_penalty(ws, 5.0) == 0.0
        assert l1_penalty(ws, 5.0) == 0.0

    def test_matches_accumulation_loop(self):
        rng = np.random.default_rng(73)
        ws = [rng.normal(size=(2, 3)), rng.normal(size=(4,)), rng.normal(size=(2, 2, 2, 2))]
        l1 = sum(abs(float(v)) for w in ws for v in w.ravel())
        l2 = sum(float(v) ** 2 for w in ws for v in w.ravel())
        assert l1_penalty(ws, 0.3) == pytest.approx(0.3 * l1, rel=1e-12)
        assert l2_penalty(ws, 0.3) == pytest.approx(0.3 * l2, rel=1e-12)

    def test_rejects_negative_strength(self):
        with pytest.raises(ValueError):
            l2_penalty([np.ones(2)], -1.0)
