"""Gradient, optimizer, train-loop, and diagnostics tests.

Gradient correctness is established against central finite differences
computed here, independently of the engine's backward code.
"""

import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from purefoodnet import dataio as D
from purefoodnet import layers as L
from purefoodnet import models as M
from purefoodnet import training as T
from purefoodnet import workers as W
from purefoodnet.errors import ConfigError, NonFiniteError, ShapeError
from purefoodnet.tensor import ConvGeometry, Tensor4
from test_cli import make_dataset, tiny_spec_file
from test_models import count_finite_scans

FD_STEP = 1e-5
FD_TOL = 1e-4


def fd_gradient(f, arr, h=FD_STEP):
    """Central finite differences of scalar f() with respect to arr, in place.

    arr must stay writable, so tests hand Tensor4 a copy of it (the Tensor4
    constructor freezes any array it adopts).
    """
    grad = np.zeros_like(arr, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        ix = it.multi_index
        saved = arr[ix]
        arr[ix] = saved + h
        f_plus = f()
        arr[ix] = saved - h
        f_minus = f()
        arr[ix] = saved
        grad[ix] = (f_plus - f_minus) / (2.0 * h)
    return grad


def rel_errors(analytic, numeric):
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return np.abs(analytic - numeric) / scale


def assert_grads_close(analytic, numeric):
    err = rel_errors(analytic, numeric)
    assert err.size > 0
    assert err.max() < FD_TOL, f"max relative error {err.max():.3e}"


class TestGlorotInit:
    def test_deterministic(self):
        a = M.glorot_init((5, 7), np.random.default_rng(3))
        b = M.glorot_init((5, 7), np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_bounds_dense(self):
        w = M.glorot_init((30, 50), np.random.default_rng(5))
        bound = math.sqrt(6.0 / 80)
        assert np.abs(w).max() <= bound

    def test_bounds_conv(self):
        w = M.glorot_init((8, 3, 3, 4), np.random.default_rng(7))
        bound = math.sqrt(6.0 / (9 * 4 + 9 * 8))
        assert np.abs(w).max() <= bound

    def test_variance_moment(self):
        w = M.glorot_init((100, 100), np.random.default_rng(11))
        # Uniform on +-b has variance b^2/3 = 2 / (fan_in + fan_out).
        want = 2.0 / 200
        assert abs(w.var() - want) / want < 0.10

    def test_rejects_odd_rank(self):
        with pytest.raises(ShapeError):
            M.glorot_init((3, 3, 3), np.random.default_rng(0))


class TestCrossEntropy:
    def test_perfect_prediction(self):
        probs = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        labels = probs.copy()
        assert T.cross_entropy_loss(probs, labels) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_gives_log_n(self):
        n = 5
        probs = np.full((4, n), 1.0 / n)
        labels = np.eye(n)[[0, 2, 3, 1]]
        assert T.cross_entropy_loss(probs, labels) == pytest.approx(math.log(n), abs=1e-12)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(13)
        scores = rng.normal(size=(6, 4))
        probs = np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True)
        classes = rng.integers(0, 4, size=6)
        labels = np.eye(4)[classes]
        total = 0.0
        for i in range(6):
            total += -math.log(max(probs[i, classes[i]], 1e-12))
        assert T.cross_entropy_loss(probs, labels) == pytest.approx(total / 6, rel=1e-12)

    def test_floor_prevents_infinite_loss(self):
        probs = np.array([[0.0, 1.0]])
        labels = np.array([[1.0, 0.0]])
        loss = T.cross_entropy_loss(probs, labels)
        assert math.isfinite(loss)
        assert loss == pytest.approx(-math.log(1e-12), rel=1e-12)

    def test_rejects_bad_labels(self):
        probs = np.full((2, 2), 0.5)
        message = re.escape("labels must be one-hot rows (exactly one 1, rest 0)")
        with pytest.raises(ValueError, match=message):
            T.cross_entropy_loss(probs, np.array([[0.5, 0.5], [1.0, 0.0]]))
        with pytest.raises(ValueError, match=message):
            T.cross_entropy_loss(probs, np.array([[1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ShapeError):
            T.cross_entropy_loss(probs, np.eye(3))


def rebuilt_gemm_dw(d, x, k, s, z):
    """The filter gradient as one GEMM of d's rows by the im2col matrix of
    a padded copy of the input, in (f, k, k, c) layout, taken on one BLAS
    thread as the engine takes its products: a team may split its sum."""
    f, c = d.shape[3], x.shape[3]
    xp = np.pad(x, ((0, 0), (z, z), (z, z), (0, 0)))
    cols = L._im2col(xp, k, s, 0, d.shape[1], d.shape[2],
                     np.empty((d[..., 0].size, c * k * k), x.dtype), 0)
    with W.one_blas_thread():
        dw = np.dot(d.transpose(3, 0, 1, 2).reshape(f, -1), cols)
    return dw.reshape(f, c, k, k).transpose(0, 2, 3, 1)


class TestBackwardBitExactness:
    """The backward passes against the formulas they replaced, which fix the
    float sums the golden artifacts depend on."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("z", [0, 1])
    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_conv_dw_matches_tensordot(self, k, s, z, dtype):
        rng = np.random.default_rng(31 * k + 7 * s + z)
        x = rng.normal(size=(3, 9, 8, 4)).astype(dtype)
        filters = rng.normal(size=(5, k, k, 4)).astype(dtype)
        bias = rng.normal(size=5).astype(dtype)
        layer = L.ConvLayer(filters, bias, ConvGeometry(k, s, z), "relu")
        out, cache = L.conv2d_cached(Tensor4(x), layer)
        r = rng.normal(size=out.data.shape).astype(dtype)
        dx, dw, db = T.conv2d_backward(r, cache)

        xp = np.pad(x, ((0, 0), (z, z), (z, z), (0, 0)))
        windows = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::s, ::s]
        d = r * (out.data > 0)
        want = np.tensordot(d, windows, axes=([0, 1, 2], [0, 1, 2])).transpose(0, 2, 3, 1)
        assert dw.dtype == want.dtype
        np.testing.assert_array_equal(dw, want)

        no_dx, dw2, db2 = T.conv2d_backward(r, cache, need_dx=False)
        assert no_dx is None
        np.testing.assert_array_equal(dw2, dw)
        np.testing.assert_array_equal(db2, db)
        assert dx.shape == x.shape

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("shape, k, s, z", [((3, 9, 8, 4), 1, 1, 0), ((3, 9, 8, 4), 3, 2, 1),
                                                ((2, 11, 11, 6), 5, 2, 0),
                                                ((40, 32, 32, 16), 3, 1, 1)])
    def test_conv_backward_same_bytes_on_any_worker_count(self, shape, k, s, z, workers,
                                                          monkeypatch):
        # dw runs on a worker beside the dx taps; both keep the bytes of the
        # one-thread formulas.
        monkeypatch.setattr(W, "_WORKERS", workers)
        rng = np.random.default_rng(sum(shape) + k)
        f = shape[3]
        x = rng.normal(size=shape).astype(np.float32)
        filters = rng.normal(size=(f, k, k, shape[3])).astype(np.float32)
        layer = L.ConvLayer(filters, np.zeros(f, np.float32), ConvGeometry(k, s, z), "relu")
        out, cache = L.conv2d_cached(Tensor4(x), layer)
        r = rng.normal(size=out.data.shape).astype(np.float32)
        dx, dw, db = T.conv2d_backward(r, cache)

        d = r * cache.relu_mask
        want_dw = rebuilt_gemm_dw(d, x, k, s, z)
        dxp = np.zeros(np.pad(x, ((0, 0), (z, z), (z, z), (0, 0))).shape, np.float32)
        oh, ow = out.data.shape[1:3]
        for p in range(k):
            for q in range(k):
                dxp[:, p:p + s * (oh - 1) + 1:s, q:q + s * (ow - 1) + 1:s, :] += np.tensordot(
                    d, filters[:, p, q, :], axes=([3], [0]))
        want_dx = dxp[:, z:-z, z:-z, :] if z else dxp
        for got, want in ((dx, want_dx), (dw, want_dw), (db, d.sum(axis=(0, 1, 2)))):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_conv_dw_reads_the_padded_dx_slice_from_the_conv_above(self, monkeypatch):
        # A padded conv's dx is a strided slice of its padded buffer, and
        # reaches a conv with activation "none" below it as it is: its
        # filter gradient then copies d's rows into C order, where a
        # contiguous d would give a strided view. The two layouts round
        # differently, so the bytes pin the slice (see CHANGES.md).
        seen = {}
        real = T.conv2d_backward

        def spy(d, cache, need_dx=True):
            seen[need_dx] = (d, cache)
            return real(d, cache, need_dx)

        monkeypatch.setattr(T, "conv2d_backward", spy)
        layouts_differ = []
        for f in (2, 8, 32):
            spec = M.ModelSpec((16, 16, 3), (
                M.conv_spec("c1", f, 1, activation="none"), M.conv_spec("c2", 4, 3, padding=1),
                M.flatten_spec(), M.dense_spec("out", 3, "softmax")), top_boundary=0)
            rng = np.random.default_rng(f)
            x = rng.normal(size=(4, 16, 16, 3)).astype(np.float32)
            labels = np.eye(3, dtype=np.float32)[rng.integers(0, 3, 4)]
            _, grads, _ = T.loss_and_gradients(spec, M.init_params(spec, seed=f),
                                               Tensor4(x.copy()), labels)
            # c2's dx, scattered into a padded buffer and sliced, as conv2d_backward does.
            d2, cache2 = seen[True]
            d2 = d2 * cache2.relu_mask
            dxp = np.zeros((4, 18, 18, f), np.float32)
            for p in range(3):
                for q in range(3):
                    dxp[:, p:p + 16, q:q + 16, :] += np.tensordot(
                        d2, cache2.filters[:, p, q, :], axes=([3], [0]))
            d1 = dxp[:, 1:-1, 1:-1, :]
            assert seen[False][0].tobytes() == d1.tobytes()
            want = rebuilt_gemm_dw(d1, x, 1, 1, 0)
            got = grads["c1.filters"]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            contiguous = rebuilt_gemm_dw(np.ascontiguousarray(d1), x, 1, 1, 0)
            layouts_differ.append(contiguous.tobytes() != want.tobytes())
        # On this BLAS build the layouts give different bytes, so this test
        # would catch a contiguous dx.
        assert any(layouts_differ)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(2, 1, 1, 3), (4, 5, 5, 2), (40, 32, 32, 16),
                                       (1, 7, 3, 9)])
    def test_batchnorm_dx_matches_formula(self, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(loc=-0.4, scale=1.3, size=shape).astype(dtype)
        c = shape[3]
        gamma = rng.normal(size=c).astype(dtype)
        layer = L.BatchNormLayer(gamma, np.zeros(c, dtype), np.zeros(c, dtype),
                                 np.ones(c, dtype))
        _, cache = L.batchnorm_cached(Tensor4(x), layer, training=True)
        d = rng.normal(size=shape).astype(dtype)
        dx, dgamma, dbeta = T.batchnorm_backward(d, cache)
        x_hat, inv_std, count = cache.x_hat, cache.inv_std, cache.count
        want = (gamma * inv_std / count) * (count * d - dbeta - x_hat * dgamma)
        np.testing.assert_array_equal(dx, want)


class TestFilterGradientTaps:
    """On one BLAS thread, where the engine holds every product, a conv's
    filter gradient is taken tap by tap from its cached input, the cells in
    the padding written as +0.0, and must have the bytes of the one GEMM of
    the rebuilt im2col matrix. Whether it does depends on how the BLAS build
    picks its kernels, so CI also runs this class with OpenBLAS given one
    thread, given two, and on one CPU."""

    # (images, side, c, f): 4 x 32^2 puts some tap products above
    # _MIN_BLOCK_MACS and some below; 1 x 40^2 with 3 channels and 8 x 16^2
    # with 32 at stride 2 have small tap products but a large whole product.
    CASES = [(4, 32, c, f) for c in (1, 2, 3, 8, 16) for f in (1, 2, 16, 128)]
    CASES += [(1, 40, 3, 128), (8, 16, 32, 32)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("z", [0, 1])
    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_dw_has_the_bytes_of_the_rebuilt_gemm(self, k, s, z, dtype, monkeypatch):
        tapped = []
        real = L._tap_gradients

        def spy(d_rows, *args):
            tapped.append(d_rows.shape)
            return real(d_rows, *args)

        monkeypatch.setattr(L, "_tap_gradients", spy)
        differ, routes, sides = [], [], set()
        for images, side, c, f in self.CASES:
            rng = np.random.default_rng([k, s, z, images, side, c, f])
            x = rng.normal(size=(images, side, side, c)).astype(dtype)
            layer = L.ConvLayer(rng.normal(size=(f, k, k, c)).astype(dtype),
                                np.zeros(f, dtype), ConvGeometry(k, s, z))
            out, cache = L.conv2d_cached(Tensor4(x), layer)
            d = rng.normal(size=out.data.shape).astype(dtype)
            tapped.clear()
            _, dw, _ = T.conv2d_backward(d, cache, need_dx=False)
            want = rebuilt_gemm_dw(d, x, k, s, z)
            macs = f * c * d[..., 0].size
            taps = W._ONE_BLAS_THREAD and f >= 2 and c >= 8 and macs >= L._MIN_BLOCK_MACS
            routes.append(bool(tapped) == taps)
            if f >= 2 and c >= 8:
                sides.add(macs >= L._MIN_BLOCK_MACS)
            if dw.dtype != want.dtype or dw.tobytes() != want.tobytes():
                differ.append((images, side, c, f))
        assert not differ
        assert all(routes)
        assert sides == {True, False}  # products on both sides of the bound

    def test_the_taps_on_one_blas_thread(self):
        # The engine holds its products on one BLAS thread itself: a process
        # whose OpenBLAS was given a team of two takes the taps above too.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(here), "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, here, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             f"{__file__}::TestFilterGradientTaps::test_dw_has_the_bytes_of_the_rebuilt_gemm"],
            env=env, capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stdout[-4000:]

    def test_conv_caches_hold_no_im2col_matrix(self):
        spec = M.build_purefoodnet(3, width_scale=0.125, input_side=32)
        params = M.init_params(spec, seed=1)
        x = Tensor4(np.random.default_rng(3).normal(size=(4, 32, 32, 3)).astype(np.float32))
        tracemalloc.start()
        try:
            _, caches = M.forward_with_caches(spec, params, x, rng=np.random.default_rng(0))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        first, cache = caches[0]
        assert first.kind == "conv" and cache.x is x.data  # the input itself, unpadded
        im2col = {}
        for layer, cache in caches:
            if layer.kind == "conv":
                _, k, _, c = cache.filters.shape
                g = cache.geometry
                oh = (cache.x.shape[1] + 2 * g.z - k) // g.s + 1
                ow = (cache.x.shape[2] + 2 * g.z - k) // g.s + 1
                im2col[layer.name] = x.i * oh * ow * c * k * k * cache.x.itemsize
                # The filters are the parameter store's, not the cache's.
                assert max(cache.x.nbytes, cache.relu_mask.nbytes) < im2col[layer.name] / 4
        assert len(im2col) == 8
        # Every cache of the model together holds less than its convs'
        # im2col matrices would.
        assert held < sum(im2col.values())


    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_centre_tap_reads_the_input_itself(self, k):
        # A stride-1 conv that keeps its size reads x itself through tap
        # (z, z): a C-contiguous x is multiplied in place, with the bytes
        # of the tap copy a strided x still takes, and the buffer is not
        # touched.
        rng = np.random.default_rng(k)
        z, c, f = (k - 1) // 2, 32, 16
        wide = rng.normal(size=(8, 16, 16, c + 1)).astype(np.float32)
        strided, x = wide[..., :c], np.ascontiguousarray(wide[..., :c])
        d = rng.normal(size=(8, 16, 16, f)).astype(np.float32)
        d_rows = d.transpose(3, 0, 1, 2).reshape(f, -1)
        got, want = (np.empty((k, k, f, c), np.float32) for _ in range(2))
        centre = z * k + z
        tap = np.full((8, 16, 16, c), np.nan, np.float32)
        L._tap_gradients(d_rows, x, 1, z, tap, got, centre, centre + 1)
        assert np.isnan(tap).all()
        L._tap_gradients(d_rows, x, 1, z, tap, got, 0, k * k)
        L._tap_gradients(d_rows, strided, 1, z, tap, want, 0, k * k)
        assert got.tobytes() == want.tobytes()
        assert got[z, z].tobytes() == np.dot(d_rows, x.reshape(-1, c)).tobytes()


class TestImageSharesStep:
    """A whole training step with every kernel split into image shares (the
    work floor at 0) on two workers gives the one-worker bytes: loss,
    probabilities, every gradient and every running statistic."""

    @staticmethod
    def step(spec, seed, images, side, monkeypatch, workers, floor):
        monkeypatch.setattr(W, "_WORKERS", workers)
        monkeypatch.setattr(W, "_LEAST_SHARE_BYTES", floor)
        params = M.init_params(spec, seed=seed)
        rng = np.random.default_rng(seed)
        x = Tensor4(rng.normal(size=(images, side, side, 3)).astype(np.float32))
        classes = spec.layers[-1].units
        labels = np.eye(classes, dtype=np.float32)[rng.integers(0, classes, images)]
        loss, grads, probs = T.loss_and_gradients(spec, params, x, labels, 1e-4, 1e-5,
                                                  rng=np.random.default_rng(seed))
        return [np.float64(loss).tobytes(), probs.data.tobytes(),
                *(name.encode() + grads[name].tobytes() for name in sorted(grads)),
                *(name.encode() + params[name].tobytes() for name in params)]

    @pytest.mark.parametrize("images", [3, 8])
    def test_golden_spec(self, images, monkeypatch):
        from test_golden import SPEC_TEXT
        spec = M.parse_model_spec(SPEC_TEXT)
        want = self.step(spec, 7, images, 16, monkeypatch, 1, W._LEAST_SHARE_BYTES)
        assert self.step(spec, 7, images, 16, monkeypatch, 2, 0) == want

    @pytest.mark.parametrize("images", [40, 41])
    def test_train_inmem_shape(self, images, monkeypatch):
        spec = M.build_purefoodnet(4, width_scale=0.125, input_side=32)
        want = self.step(spec, 9, images, 32, monkeypatch, 1, W._LEAST_SHARE_BYTES)
        assert self.step(spec, 9, images, 32, monkeypatch, 2, 0) == want


class TestLayerGradientsVsFiniteDifferences:
    """Each case drives a layer with loss = sum(out * R) for fixed random R,
    so the analytic input/parameter gradients are backward(R)."""

    def test_conv_gradients(self):
        for seed in range(4):
            rng = np.random.default_rng(100 + seed)
            x = rng.normal(size=(2, 5, 5, 2))
            filters = rng.normal(size=(3, 3, 3, 2))
            bias = rng.normal(size=3)
            r = rng.normal(size=(2, 3, 3, 3))

            def loss():
                layer = L.ConvLayer(filters, bias, ConvGeometry(3, 2, 1))
                return float((L.conv2d_forward(Tensor4(x.copy()), layer).data * r).sum())

            out, cache = L.conv2d_cached(Tensor4(x.copy()), L.ConvLayer(filters, bias,
                                                                 ConvGeometry(3, 2, 1)))
            dx, dw, db = T.conv2d_backward(r, cache)
            assert_grads_close(dx, fd_gradient(loss, x))
            assert_grads_close(dw, fd_gradient(loss, filters))
            assert_grads_close(db, fd_gradient(loss, bias))

    def test_conv_relu_gradients_excluding_kinks(self):
        for seed in range(3):
            rng = np.random.default_rng(200 + seed)
            x = rng.normal(size=(2, 4, 4, 2))
            filters = rng.normal(size=(2, 3, 3, 2))
            bias = rng.normal(size=2)
            r = rng.normal(size=(2, 4, 4, 2))
            geometry = ConvGeometry(3, 1, 1)

            def loss():
                layer = L.ConvLayer(filters, bias, geometry, "relu")
                return float((L.conv2d_forward(Tensor4(x.copy()), layer).data * r).sum())

            plain = L.conv2d_forward(Tensor4(x.copy()), L.ConvLayer(filters, bias, geometry))
            if (np.abs(plain.data) < 1e-6).any():
                continue  # a pre-activation sits on the kink; skip this draw
            _, cache = L.conv2d_cached(Tensor4(x.copy()), L.ConvLayer(filters, bias, geometry, "relu"))
            dx, dw, db = T.conv2d_backward(r, cache)
            assert_grads_close(dx, fd_gradient(loss, x))
            assert_grads_close(dw, fd_gradient(loss, filters))
            assert_grads_close(db, fd_gradient(loss, bias))

    def test_max_pool_gradient(self):
        for seed in range(4):
            rng = np.random.default_rng(300 + seed)
            x = rng.normal(size=(2, 6, 6, 2))
            r = rng.normal(size=(2, 3, 3, 2))
            layer = L.PoolLayer(2, 2, "max")

            def loss():
                return float((L.pool_forward(Tensor4(x.copy()), layer).data * r).sum())

            _, cache = L.pool_cached(Tensor4(x.copy()), layer)
            dx = T.pool_backward(r, cache)
            assert_grads_close(dx, fd_gradient(loss, x))

    def test_max_pool_gradient_overlapping_windows(self):
        rng = np.random.default_rng(310)
        x = rng.normal(size=(1, 5, 5, 2))
        r = rng.normal(size=(1, 4, 4, 2))
        layer = L.PoolLayer(2, 1, "max")

        def loss():
            return float((L.pool_forward(Tensor4(x.copy()), layer).data * r).sum())

        _, cache = L.pool_cached(Tensor4(x.copy()), layer)
        assert_grads_close(T.pool_backward(r, cache), fd_gradient(loss, x))

    def test_avg_pool_gradient(self):
        for seed in range(3):
            rng = np.random.default_rng(400 + seed)
            x = rng.normal(size=(2, 6, 6, 3))
            r = rng.normal(size=(2, 2, 2, 3))
            layer = L.PoolLayer(3, 3, "average")

            def loss():
                return float((L.pool_forward(Tensor4(x.copy()), layer).data * r).sum())

            _, cache = L.pool_cached(Tensor4(x.copy()), layer)
            assert_grads_close(T.pool_backward(r, cache), fd_gradient(loss, x))

    def test_flatten_gradient(self):
        rng = np.random.default_rng(500)
        x = rng.normal(size=(2, 3, 4, 2))
        r = rng.normal(size=(2, 1, 1, 24))

        def loss():
            return float((L.flatten(Tensor4(x.copy())).data * r).sum())

        _, cache = L.flatten_cached(Tensor4(x.copy()))
        assert_grads_close(T.flatten_backward(r, cache), fd_gradient(loss, x))

    def test_dense_gradients(self):
        for activation in ("none", "relu", "softmax"):
            for seed in range(3):
                rng = np.random.default_rng(600 + seed)
                x = rng.normal(size=(3, 1, 1, 5))
                weights = rng.normal(size=(5, 4))
                bias = rng.normal(size=4)
                r = rng.normal(size=(3, 1, 1, 4))

                def loss():
                    layer = L.DenseLayer(weights, bias, activation)
                    return float((L.dense_forward(Tensor4(x.copy()), layer).data * r).sum())

                if activation == "relu":
                    pre = x.reshape(3, 5) @ weights + bias
                    if (np.abs(pre) < 1e-6).any():
                        continue
                _, cache = L.dense_cached(Tensor4(x.copy()), L.DenseLayer(weights, bias, activation))
                dx, dw, db = T.dense_backward(r, cache)
                assert_grads_close(dx, fd_gradient(loss, x))
                assert_grads_close(dw, fd_gradient(loss, weights))
                assert_grads_close(db, fd_gradient(loss, bias))

    def test_dropout_gradient_with_fixed_mask(self):
        rng = np.random.default_rng(900)
        x = rng.normal(size=(2, 4, 4, 2))
        r = rng.normal(size=x.shape)
        layer = L.DropoutLayer(0.4)

        def loss():
            out = L.dropout_forward(Tensor4(x.copy()), layer, training=True,
                                    rng=np.random.default_rng(99))
            return float((out.data * r).sum())

        _, cache = L.dropout_cached(Tensor4(x.copy()), layer, training=True,
                                    rng=np.random.default_rng(99))
        assert_grads_close(T.dropout_backward(r, cache), fd_gradient(loss, x))

    def test_batchnorm_training_gradients(self):
        for seed in range(3):
            rng = np.random.default_rng(1000 + seed)
            x = rng.normal(size=(3, 2, 2, 2))
            gamma = rng.normal(size=2) + 1.5
            beta = rng.normal(size=2)
            r = rng.normal(size=x.shape)

            def loss():
                layer = L.BatchNormLayer(gamma, beta, np.zeros(2), np.ones(2))
                out, _ = L.batchnorm_cached(Tensor4(x.copy()), layer, training=True,
                                            update_stats=False)
                return float((out.data * r).sum())

            layer = L.BatchNormLayer(gamma, beta, np.zeros(2), np.ones(2))
            _, cache = L.batchnorm_cached(Tensor4(x.copy()), layer, training=True,
                                          update_stats=False)
            dx, dgamma, dbeta = T.batchnorm_backward(r, cache)
            assert_grads_close(dx, fd_gradient(loss, x))
            assert_grads_close(dgamma, fd_gradient(loss, gamma))
            assert_grads_close(dbeta, fd_gradient(loss, beta))

    def test_batchnorm_inference_gradients(self):
        rng = np.random.default_rng(1100)
        x = rng.normal(size=(2, 3, 3, 2))
        gamma = rng.normal(size=2) + 1.5
        beta = rng.normal(size=2)
        rmean = rng.normal(size=2)
        rvar = rng.uniform(0.5, 2.0, size=2)
        r = rng.normal(size=x.shape)

        def loss():
            layer = L.BatchNormLayer(gamma, beta, rmean, rvar)
            return float((L.batchnorm_forward(Tensor4(x.copy()), layer).data * r).sum())

        layer = L.BatchNormLayer(gamma, beta, rmean, rvar)
        _, cache = L.batchnorm_cached(Tensor4(x.copy()), layer, training=False)
        dx, dgamma, dbeta = T.batchnorm_backward(r, cache)
        assert_grads_close(dx, fd_gradient(loss, x))
        assert_grads_close(dgamma, fd_gradient(loss, gamma))
        assert_grads_close(dbeta, fd_gradient(loss, beta))


def toy_linear_spec(num_classes=2, features=2):
    return M.ModelSpec((1, 1, features),
                       (M.flatten_spec(),
                        M.dense_spec("out", num_classes, activation="softmax")),
                       top_boundary=0)


def deep_test_spec():
    """Every layer kind in one chain, small enough for end-to-end FD."""
    return M.ModelSpec(
        (6, 6, 2),
        (M.conv_spec("c1", filters=3, kernel=3),
         M.batchnorm_spec("bn1"),
         M.pool_spec("p1", window=2, stride=2, mode="max"),
         M.conv_spec("c2", filters=2, kernel=1, padding=0, activation="none"),
         M.pool_spec("p2", window=3, stride=3, mode="average"),
         M.flatten_spec(),
         M.dense_spec("fc", 5, activation="relu"),
         M.dropout_spec("drop", 0.0),
         M.dense_spec("out", 3, activation="softmax")),
        top_boundary=5,
    )


class TestWholeModelGradients:
    def test_end_to_end_finite_differences(self):
        spec = deep_test_spec()
        rng = np.random.default_rng(42)
        x = Tensor4(rng.normal(size=(4, 6, 6, 2)))
        labels = np.eye(3)[rng.integers(0, 3, size=4)]
        params = M.init_params(spec, seed=1, dtype=np.float64)

        def loss():
            value, _, _ = T.loss_and_gradients(spec, params, x, labels,
                                               l2_strength=0.01, l1_strength=0.005)
            return value

        _, grads, _ = T.loss_and_gradients(spec, params, x, labels,
                                           l2_strength=0.01, l1_strength=0.005)
        assert set(grads) == set(M.trainable_param_names(spec))
        for name in ("c1.bias", "bn1.gamma", "bn1.beta", "c2.filters",
                     "fc.bias", "out.weights", "out.bias"):
            assert_grads_close(grads[name], fd_gradient(loss, params[name]))
        # Spot-check a slice of the big conv bank to keep runtime sane.
        full = fd_gradient(loss, params["c1.filters"][0])
        assert_grads_close(grads["c1.filters"][0], full)

    def test_lowest_trainable_conv_above_frozen_layers(self):
        # c2 is the lowest trainable layer, so its backward skips dx; the
        # frozen c1 and bn1 below it get no gradients and no backward.
        spec = M.set_trainable(deep_test_spec(), ["c1", "bn1"], False)
        rng = np.random.default_rng(43)
        x = Tensor4(rng.normal(size=(4, 6, 6, 2)))
        labels = np.eye(3)[rng.integers(0, 3, size=4)]
        params = M.init_params(spec, seed=4, dtype=np.float64)

        def loss():
            value, _, _ = T.loss_and_gradients(spec, params, x, labels)
            return value

        _, grads, _ = T.loss_and_gradients(spec, params, x, labels)
        assert set(grads) == set(M.trainable_param_names(spec))
        for name in ("c2.filters", "c2.bias", "fc.weights", "out.bias"):
            assert_grads_close(grads[name], fd_gradient(loss, params[name]))

    def test_lowest_layer_computes_no_input_gradient(self, monkeypatch):
        calls = []
        conv_backward = T.conv2d_backward

        def recording(d, cache, need_dx=True):
            calls.append(need_dx)
            return conv_backward(d, cache, need_dx)

        monkeypatch.setattr(T, "conv2d_backward", recording)
        spec = deep_test_spec()
        rng = np.random.default_rng(46)
        x = Tensor4(rng.normal(size=(2, 6, 6, 2)))
        params = M.init_params(spec, seed=5, dtype=np.float64)
        T.loss_and_gradients(spec, params, x, np.eye(3)[[0, 2]])
        assert calls == [True, False]  # c2, then c1 at the bottom

    def test_back_to_back_calls_agree_while_running_stats_move(self):
        # Training-mode batch norm normalizes with the batch's own statistics,
        # so the running statistics it updates feed neither loss nor gradients.
        spec = deep_test_spec()
        rng = np.random.default_rng(47)
        x = Tensor4(rng.normal(loc=0.5, size=(4, 6, 6, 2)))
        labels = np.eye(3)[rng.integers(0, 3, size=4)]
        params = M.init_params(spec, seed=6, dtype=np.float64)
        loss, grads, probs = T.loss_and_gradients(spec, params, x, labels, l2_strength=0.01)
        stats = params["bn1.running_mean"].copy(), params["bn1.running_var"].copy()
        again, regrads, reprobs = T.loss_and_gradients(spec, params, x, labels, l2_strength=0.01)
        assert again == loss
        assert list(regrads) == list(grads)
        for name in grads:
            np.testing.assert_array_equal(regrads[name], grads[name])
        np.testing.assert_array_equal(reprobs.data, probs.data)
        assert not np.array_equal(params["bn1.running_mean"], stats[0])
        assert not np.array_equal(params["bn1.running_var"], stats[1])

    def test_hand_differentiated_two_parameter_case(self):
        # One feature, two classes, weights w = [[w0, w1]], bias 0, label class 0:
        # p = softmax(x*w), dL/dw0 = x*(p0 - 1), dL/dw1 = x*p1.
        spec = toy_linear_spec(num_classes=2, features=1)
        params = M.ParamStore({"out.weights": np.array([[0.3, -0.2]]),
                               "out.bias": np.zeros(2)})
        x_val = 1.7
        x = Tensor4(np.array([[[[x_val]]]]))
        labels = np.array([[1.0, 0.0]])
        _, grads, probs = T.loss_and_gradients(spec, params, x, labels)
        p = probs.data.reshape(2)
        want_dw = np.array([[x_val * (p[0] - 1.0), x_val * p[1]]])
        np.testing.assert_allclose(grads["out.weights"], want_dw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads["out.bias"], [p[0] - 1.0, p[1]], rtol=0, atol=1e-12)

    def test_saturated_correct_prediction_has_tiny_bias_gradient(self):
        spec = toy_linear_spec(num_classes=2, features=2)
        params = M.ParamStore({"out.weights": np.zeros((2, 2)),
                               "out.bias": np.array([30.0, 0.0])})
        x = Tensor4(np.random.default_rng(3).normal(size=(5, 1, 1, 2)))
        labels = np.tile([1.0, 0.0], (5, 1))
        _, grads, _ = T.loss_and_gradients(spec, params, x, labels)
        assert np.abs(grads["out.bias"]).max() < 1e-10

    def test_penalties_add_exact_gradient_terms(self):
        spec = deep_test_spec()
        rng = np.random.default_rng(44)
        x = Tensor4(rng.normal(size=(3, 6, 6, 2)))
        labels = np.eye(3)[rng.integers(0, 3, size=3)]
        params = M.init_params(spec, seed=2, dtype=np.float64)
        lam2, lam1 = 0.03, 0.02
        _, bare, _ = T.loss_and_gradients(spec, params, x, labels)
        _, reg, _ = T.loss_and_gradients(spec, params, x, labels,
                                         l2_strength=lam2, l1_strength=lam1)
        for name in M.penalized_weight_names(spec):
            w = params[name]
            want = bare[name] + 2 * lam2 * w + lam1 * np.sign(w)
            np.testing.assert_allclose(reg[name], want, rtol=0, atol=1e-12)
        for name in ("c1.bias", "bn1.gamma", "out.bias"):
            np.testing.assert_allclose(reg[name], bare[name], rtol=0, atol=0)

    def test_frozen_layers_get_no_gradients(self):
        spec = M.set_trainable(deep_test_spec(), ["c1", "bn1", "c2"], False)
        rng = np.random.default_rng(45)
        x = Tensor4(rng.normal(size=(2, 6, 6, 2)))
        labels = np.eye(3)[[0, 1]]
        params = M.init_params(spec, seed=3, dtype=np.float64)
        grads = T.backward(spec, params, x, labels)
        assert set(grads) == {"fc.weights", "fc.bias", "out.weights", "out.bias"}

    def test_rejects_model_without_softmax_predictor(self):
        spec = M.ModelSpec((1, 1, 2), (M.flatten_spec(), M.dense_spec("out", 2, "none")), 0)
        params = M.init_params(spec, seed=0, dtype=np.float64)
        x = Tensor4(np.zeros((1, 1, 1, 2)))
        with pytest.raises(ConfigError):
            T.loss_and_gradients(spec, params, x, np.array([[1.0, 0.0]]))


class TestOptimizer:
    def test_zero_momentum_is_plain_sgd(self):
        params = M.ParamStore({"w": np.array([1.0, -2.0])})
        grads = {"w": np.array([0.5, 0.25])}
        T.sgd_nesterov_step(params, grads, {}, 0.0, 0.1)
        np.testing.assert_allclose(params["w"], [1.0 - 0.05, -2.0 - 0.025],
                                   rtol=0, atol=1e-15)

    def test_rejects_nonfinite_gradient_past_the_first_chunk(self, monkeypatch):
        from purefoodnet import tensor as TN
        monkeypatch.setattr(TN, "_FINITE_CHUNK", 4)
        params = M.ParamStore({"w": np.zeros((3, 5))})
        grad = np.zeros((5, 3))
        grad[-1, -1] = np.nan
        with pytest.raises(NonFiniteError, match="gradient for 'w' is not finite"):
            T.sgd_nesterov_step(params, {"w": grad.T}, {}, 0.9, 0.01)
        np.testing.assert_array_equal(params["w"], 0.0)

    def test_zero_gradient_zero_velocity_is_identity(self):
        params = M.ParamStore({"w": np.array([3.0])})
        T.sgd_nesterov_step(params, {"w": np.zeros(1)}, {}, 0.9, 0.01)
        np.testing.assert_array_equal(params["w"], [3.0])

    def test_zero_learning_rate_is_identity(self):
        params = M.ParamStore({"w": np.array([3.0, 1.0])})
        T.sgd_nesterov_step(params, {"w": np.array([5.0, -2.0])}, {}, 0.9, lr=0.0)
        np.testing.assert_array_equal(params["w"], [3.0, 1.0])

    def test_velocity_recurrence(self):
        params = M.ParamStore({"w": np.array([0.0])})
        velocity = {}
        T.sgd_nesterov_step(params, {"w": np.array([1.0])}, velocity, 0.9, 0.1)
        np.testing.assert_allclose(velocity["w"], [-0.1], atol=1e-15)
        np.testing.assert_allclose(params["w"], [-0.1], atol=1e-15)
        T.sgd_nesterov_step(params, {"w": np.array([1.0])}, velocity, 0.9, 0.1)
        # v2 = 0.9 * (-0.1) - 0.1 = -0.19; w = -0.1 - 0.19 = -0.29
        np.testing.assert_allclose(velocity["w"], [-0.19], atol=1e-15)
        np.testing.assert_allclose(params["w"], [-0.29], atol=1e-15)

    def test_nonfinite_gradient_rejected(self):
        params = M.ParamStore({"w": np.zeros(2)})
        with pytest.raises(NonFiniteError):
            T.sgd_nesterov_step(params, {"w": np.array([np.nan, 0.0])}, {}, 0.9, 0.01)

    def test_update_that_overflows_is_rejected_at_its_step(self):
        params = M.ParamStore({"b": np.zeros(2, dtype=np.float32),
                               "w": np.array([3e38, 1.0], dtype=np.float32)})
        grads = {"w": np.array([-1e38, 0.0], dtype=np.float32)}  # finite, as is lr * g
        with np.errstate(over="ignore"), \
                pytest.raises(NonFiniteError, match="parameter 'w' must be finite"):
            T.sgd_nesterov_step(params, grads, {}, 0.9, 1.0)
        np.testing.assert_array_equal(params["w"], np.array([3e38, 1.0], dtype=np.float32))

    def test_shape_mismatch_rejected(self):
        params = M.ParamStore({"w": np.zeros(2)})
        with pytest.raises(ShapeError):
            T.sgd_nesterov_step(params, {"w": np.zeros(3)}, {}, 0.9, 0.01)

    def test_quadratic_bowl_convergence_and_momentum_speedup(self):
        # f(theta) = 0.5 * theta^T A theta with A = diag(1, 12); the gradient
        # at any point is A*point, evaluated at the lookahead position.
        a = np.array([1.0, 12.0])
        lr = 0.05

        def run(momentum, steps):
            params = M.ParamStore({"theta": np.array([4.0, -3.0])})
            velocity = {}
            trace = []
            for _ in range(steps):
                shifted = T.lookahead_params(params, velocity, momentum, ["theta"])
                grads = {"theta": a * shifted["theta"]}
                T.sgd_nesterov_step(params, grads, velocity, momentum, lr)
                trace.append(np.linalg.norm(params["theta"]))
            return trace

        trace = run(0.9, 300)
        assert trace[-1] < 1e-6

        def steps_to(tol, trace):
            for i, v in enumerate(trace):
                if v < tol:
                    return i + 1
            return len(trace) + 1

        plain = run(0.0, 400)
        assert steps_to(1e-3, trace) < steps_to(1e-3, plain)

    def test_state_validation(self):
        with pytest.raises(ConfigError, match="learning rate must be finite and positive"):
            T.TrainConfig(learning_rate=0.0)
        with pytest.raises(ConfigError, match=re.escape("momentum must be in [0, 1)")):
            T.TrainConfig(momentum=1.0)
        with pytest.raises(ConfigError, match=re.escape("decay factor must be in (0, 1]")):
            T.TrainConfig(decay_factor=0.0)
        with pytest.raises(ConfigError, match="decay interval must be >= 1"):
            T.TrainConfig(decay_interval=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_state_rejects_non_finite_learning_rate(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            T.TrainConfig(learning_rate=bad)


class TestSchedule:
    def test_step_decay_table(self):
        config = T.TrainConfig(learning_rate=0.4, decay_factor=0.5, decay_interval=3)
        lrs = [T.scheduled_lr(config, e) for e in range(1, 8)]
        assert lrs == [0.4, 0.4, 0.4, 0.2, 0.2, 0.2, 0.1]

    def test_default_interval(self):
        config = T.TrainConfig(learning_rate=0.01)
        assert T.scheduled_lr(config, 20) == 0.01
        assert T.scheduled_lr(config, 21) == 0.005

    def test_rejects_epoch_zero(self):
        with pytest.raises(ValueError):
            T.scheduled_lr(T.TrainConfig(), 0)


class TestLookahead:
    def test_shifts_only_trainable_with_velocity(self):
        params = M.ParamStore({"a": np.array([1.0]), "b": np.array([2.0]),
                               "c": np.array([3.0])})
        velocity = {"a": np.array([0.2]), "b": np.array([0.4])}
        shifted = T.lookahead_params(params, velocity, 0.5, ["a"])
        np.testing.assert_allclose(shifted["a"], [1.1])
        # b has velocity but is not trainable here; c has no velocity at all.
        assert shifted["b"] is params["b"]
        assert shifted["c"] is params["c"]

    def test_frozen_backbone_scans_only_the_shifted_parameters(self, monkeypatch):
        # Built as `finetune --freeze-backbone` builds its model.
        base = M.build_purefoodnet(4, width_scale=0.0625, input_side=8)
        spec, params = M.attach_head(base, M.init_params(base, seed=1), 3, units=8, seed=2)
        spec = M.set_trainable(spec, [layer.name for layer in spec.layers[:spec.top_boundary]],
                               False)
        trainable = M.trainable_param_names(spec)
        assert trainable == ["fc1.weights", "fc1.bias", "predictor.weights", "predictor.bias"]
        moving = trainable[:3]  # the last has no velocity yet
        velocity = {name: np.full_like(params[name], 0.25) for name in moving}
        scans = count_finite_scans(monkeypatch)
        shifted = T.lookahead_params(params, velocity, 0.9, trainable)
        assert scans == [params[name].size for name in moving]
        assert list(shifted) == list(params)
        for name in params:
            if name in velocity:
                assert shifted[name].tobytes() == (params[name] + 0.9 * velocity[name]).tobytes()
            else:
                assert shifted[name] is params[name]

    def test_each_shifted_parameter_takes_one_array(self):
        # numpy adds into the temporary `momentum * v` (it elides a
        # temporary of 256 KiB or more), so the Nesterov point allocates
        # one array per shifted parameter, not two: paper scale's 820 MB
        # fc1 would otherwise hold a second 820 MB during the add.
        rng = np.random.default_rng(4)
        arr, v = (rng.normal(size=2**22).astype(np.float32) for _ in range(2))
        params = M.ParamStore({"w": arr})
        tracemalloc.start()
        try:
            shifted = T.lookahead_params(params, {"w": v}, 0.9, ["w"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arr.nbytes <= peak < 1.5 * arr.nbytes  # the check's chunk buffer is the rest
        assert shifted["w"].tobytes() == (arr + 0.9 * v).tobytes()


def separable_toy_set(n=80, seed=0):
    """2-D points labelled by the sign of a fixed linear score, with margin."""
    rng = np.random.default_rng(seed)
    points = []
    labels = []
    w = np.array([1.0, 0.5])
    while len(points) < n:
        p = rng.normal(size=2)
        score = p @ w
        if abs(score) < 0.3:
            continue
        points.append(p)
        labels.append(1 if score > 0 else 0)
    x = np.array(points).reshape(n, 1, 1, 2)
    y = np.eye(2)[labels]
    return Tensor4(x.copy()), y, np.array(points), np.array(labels)


def perceptron_separates(points, labels01, max_sweeps=200):
    """Direct perceptron run; True when some sweep makes zero mistakes."""
    aug = np.hstack([points, np.ones((len(points), 1))])
    target = 2 * np.asarray(labels01) - 1
    w = np.zeros(aug.shape[1])
    for _ in range(max_sweeps):
        mistakes = 0
        for row, t in zip(aug, target):
            if t * (row @ w) <= 0:
                w += t * row
                mistakes += 1
        if mistakes == 0:
            return True
    return False


class TestTrainLoop:
    def test_learns_separable_toy_set(self):
        x, y, points, labels01 = separable_toy_set(seed=1)
        assert perceptron_separates(points, labels01)  # oracle: it is separable
        spec = toy_linear_spec()
        params = M.init_params(spec, seed=0, dtype=np.float64)
        config = T.TrainConfig(epochs=40, batch_size=16, learning_rate=0.5,
                               patience=None, seed=5)
        result = T.train(spec, params, (x, y), (x, y), config)
        assert max(stats.train_top1 for stats in result.history) == 1.0
        assert result.best_val_top1 == 1.0

    def test_bit_reproducible_given_seed(self):
        x, y, _, _ = separable_toy_set(seed=2)
        spec = toy_linear_spec()
        config = T.TrainConfig(epochs=5, batch_size=8, learning_rate=0.2, seed=9)
        a = T.train(spec, M.init_params(spec, seed=4, dtype=np.float64), (x, y), (x, y), config)
        b = T.train(spec, M.init_params(spec, seed=4, dtype=np.float64), (x, y), (x, y), config)
        assert a.history == b.history
        assert a.params == b.params
        assert T.history_to_csv(a.history) == T.history_to_csv(b.history)

    def test_frozen_model_is_untouched(self):
        x, y, _, _ = separable_toy_set(n=20, seed=3)
        spec = M.set_trainable(toy_linear_spec(), ["out"], False)
        params = M.init_params(spec, seed=6, dtype=np.float64)
        before = {k: v.tobytes() for k, v in params.items()}
        T.train(spec, params, (x, y), (x, y), T.TrainConfig(epochs=3, batch_size=5, seed=1))
        assert {k: v.tobytes() for k, v in params.items()} == before

    def test_patience_zero_stops_at_first_decline(self):
        stopper = T.EarlyStopState(patience=0)
        p = M.ParamStore({"w": np.zeros(1)})
        assert stopper.update(1, 0.8, p) is False
        assert stopper.update(2, 0.7, p) is True
        assert stopper.best_epoch == 1
        assert stopper.best_val_metric == 0.8

    def test_patience_tolerates_plateau(self):
        stopper = T.EarlyStopState(patience=2)
        p = M.ParamStore({"w": np.zeros(1)})
        assert stopper.update(1, 0.5, p) is False
        assert stopper.update(2, 0.5, p) is False  # equal is not an improvement
        assert stopper.update(3, 0.5, p) is False
        assert stopper.update(4, 0.5, p) is True

    def test_early_stop_returns_best_epoch_snapshot(self):
        # Validation labels are inverted, so val accuracy falls as the model
        # learns and the best epoch sits early in the run.
        x, y, _, _ = separable_toy_set(n=60, seed=7)
        y_inverted = y[:, ::-1].copy()
        spec = toy_linear_spec()
        params = M.init_params(spec, seed=8, dtype=np.float64)
        config = T.TrainConfig(epochs=30, batch_size=10, learning_rate=0.5,
                               patience=2, seed=11)
        result = T.train(spec, params, (x, y), (x, y_inverted), config)
        assert result.stopped_early
        assert len(result.history) < 30
        assert len(result.history) <= result.best_epoch + config.patience + 1
        best = max(stats.val_top1 for stats in result.history)
        assert result.best_val_top1 == best
        # The snapshot reproduces the recorded accuracy exactly.
        _, val_top1 = T.evaluate_loss_top1(
            spec, result.params, [(x, y_inverted)])
        assert val_top1 == result.history[result.best_epoch - 1].val_top1

    def test_lr_schedule_lands_in_history(self):
        x, y, _, _ = separable_toy_set(n=20, seed=10)
        spec = toy_linear_spec()
        params = M.init_params(spec, seed=1, dtype=np.float64)
        config = T.TrainConfig(epochs=4, batch_size=10, learning_rate=0.4,
                               decay_factor=0.5, decay_interval=2, patience=None, seed=2)
        result = T.train(spec, params, (x, y), (x, y), config)
        assert [s.lr for s in result.history] == [0.4, 0.4, 0.2, 0.2]

    def test_callable_sources(self):
        x, y, _, _ = separable_toy_set(n=24, seed=12)

        def train_source(epoch):
            order = np.random.default_rng(epoch).permutation(24)
            for start in range(0, 24, 8):
                take = order[start:start + 8]
                yield Tensor4(x.data[take]), y[take]

        def val_source():
            yield x, y

        spec = toy_linear_spec()
        params = M.init_params(spec, seed=2, dtype=np.float64)
        result = T.train(spec, params, train_source, val_source,
                         T.TrainConfig(epochs=3, patience=None, seed=3))
        assert len(result.history) == 3

    @pytest.mark.parametrize("validated", [False, True])
    def test_zero_epochs_returns_a_copy_and_an_empty_history(self, validated):
        x, y, _, _ = separable_toy_set(n=10, seed=1)
        spec = toy_linear_spec()
        params = M.init_params(spec, seed=1, dtype=np.float64)
        before = params.copy()
        result = T.train(spec, params, (x, y), (x, y) if validated else None,
                         T.TrainConfig(epochs=0, patience=3 if validated else None))
        assert result.history == []
        assert result.params == before and params == before
        assert all(result.params[name] is not params[name] for name in params)
        assert (result.best_epoch, result.stopped_early) == (0, False)
        assert math.isnan(result.best_val_top1)

    def test_batch_norm_overflow_stops_at_its_batch(self):
        # A float32 1e20 squares past the float32 range, so the batch
        # variance is infinite while the normalized output stays finite.
        spec = M.ModelSpec((2, 2, 1), (M.batchnorm_spec("bn"), M.flatten_spec(),
                                       M.dense_spec("out", 2, activation="softmax")),
                           top_boundary=1)
        params = M.init_params(spec, seed=3)
        labels = np.eye(2, dtype=np.float32)[[0, 1, 0, 1]]
        pulled = []

        def batches(epoch):
            for j in range(3):
                x = np.random.default_rng(j).normal(size=(4, 2, 2, 1)).astype(np.float32)
                if j == 1:
                    x[0, 0, 0, 0] = 1e20
                pulled.append(j)
                yield Tensor4(x), labels

        running = params["bn.running_mean"].copy(), params["bn.running_var"].copy()
        with np.errstate(over="ignore"), \
                pytest.raises(NonFiniteError, match="batch norm batch statistics must be finite"):
            T.train(spec, params, batches, None, T.TrainConfig(epochs=1, patience=None))
        assert pulled == [0, 1]
        assert np.isfinite(params["bn.running_var"]).all()
        assert params["bn.running_var"].tobytes() != running[1].tobytes()  # batch 0 folded in

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            T.TrainConfig(batch_size=0)
        with pytest.raises(ConfigError, match="epochs must be >= 0"):
            T.TrainConfig(epochs=-1)
        with pytest.raises(ConfigError):
            T.TrainConfig(patience=-1)
        for bad in (math.nan, math.inf):
            for name in ("learning_rate", "momentum", "decay_factor", "l2_strength",
                         "l1_strength"):
                with pytest.raises(ConfigError):
                    T.TrainConfig(**{name: bad})
        x, y, _, _ = separable_toy_set(n=10, seed=1)
        spec = toy_linear_spec()
        params = M.init_params(spec, seed=1)
        with pytest.raises(ConfigError):
            T.train(spec, params, (x, y), None, T.TrainConfig(patience=3))


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture()
def memos(monkeypatch):
    """Every `_PrefixMemo` made from now on (`train` makes one), each with
    `served`, the count of batches, validation and training alike, that it
    returned without running the prefix."""
    made, forward_calls = [], []
    forward = M.forward

    def counting(*args, **kwargs):
        forward_calls.append(args)
        return forward(*args, **kwargs)

    class Recorded(T._PrefixMemo):
        def __init__(self, *args):
            super().__init__(*args)
            self.served = 0
            made.append(self)

        def features(self, x):
            calls = len(forward_calls)
            out = super().features(x)
            self.served += bool(self.stop) and len(forward_calls) == calls
            return out

    monkeypatch.setattr(M, "forward", counting)
    monkeypatch.setattr(T, "_PrefixMemo", Recorded)
    return made


@pytest.fixture()
def conv_images(monkeypatch):
    """The image count of every conv forward from now on."""
    images = []
    real = L.conv2d_cached

    def counting(x, layer, need_cache=True, **fused):
        images.append(x.i)
        return real(x, layer, need_cache, **fused)

    monkeypatch.setattr(L, "conv2d_cached", counting)
    return images


def _backbone_spec(*extra, dropout=0.5):
    """conv -> batch norm -> [extra] -> pool | flatten -> fc1 -> dropout -> predictor."""
    return M.ModelSpec((6, 6, 2),
                       (M.conv_spec("c1", filters=3, kernel=3), M.batchnorm_spec("bn1"), *extra,
                        M.pool_spec("p1", window=2, stride=2), M.flatten_spec(),
                        M.dense_spec("fc1", 5, activation="relu"),
                        M.dropout_spec("drop", dropout),
                        M.dense_spec("predictor", 3, activation="softmax")),
                       top_boundary=3 + len(extra))


def _frozen(spec, names):
    return M.set_trainable(spec, names, False)


# (spec, its frozen prefix): a frozen backbone runs through the flatten; a
# dropout that draws a mask ends the prefix, one of rate 0 does not; a wholly
# frozen model stops below its predictor; a trainable lowest layer means none.
PREFIX_CASES = {
    "frozen-backbone": (_frozen(_backbone_spec(), ["c1", "bn1", "p1"]), 4),
    "backbone-dropout": (_frozen(_backbone_spec(M.dropout_spec("d0", 0.25)),
                                 ["c1", "bn1", "d0", "p1"]), 2),
    "backbone-dropout-0": (_frozen(_backbone_spec(M.dropout_spec("d0", 0.0)),
                                   ["c1", "bn1", "d0", "p1"]), 5),
    "frozen-bn-only": (_frozen(_backbone_spec(), ["bn1"]), 0),
    "nothing-frozen": (_backbone_spec(), 0),
    "wholly-frozen": (_frozen(_backbone_spec(dropout=0.0),
                              ["c1", "bn1", "p1", "fc1", "drop", "predictor"]), 6),
    "wholly-frozen-toy": (_frozen(toy_linear_spec(), ["out"]), 1),
}

# Key and output bytes of one float32 image of the frozen-backbone case.
_ROW = 6 * 6 * 2 * 4 + 3 * 3 * 3 * 4


class TestFrozenPrefix:
    """`train` runs the frozen prefix once per image and batch size, and the
    artifacts keep the bytes of a run without the memo. Whether a memoized
    row keeps its bits in another batch of the same size depends on the BLAS
    build, so CI also runs this class on one BLAS thread and on one CPU."""

    @pytest.mark.parametrize("case", PREFIX_CASES)
    def test_boundary(self, case):
        spec, want = PREFIX_CASES[case]
        assert T._frozen_prefix(spec) == want

    @staticmethod
    def _runner(spec):
        """A 4-epoch `train` of spec on seeded data, returning its history CSV
        and parameter bytes: 10 training images in batches of 4 leave a
        partial last batch, and 6 val images make batches of 4 and 2."""
        h, w, c = spec.input_shape
        rng = np.random.default_rng(5)
        classes = M.infer_shapes(spec)[-1][-1]
        x = Tensor4(rng.normal(size=(10, h, w, c)).astype(np.float32))
        y = np.eye(classes)[rng.integers(0, classes, 10)]
        val = (Tensor4(rng.normal(size=(6, h, w, c)).astype(np.float32)),
               np.eye(classes)[rng.integers(0, classes, 6)])
        config = T.TrainConfig(epochs=4, batch_size=4, learning_rate=0.05, patience=None,
                               l2_strength=1e-3, l1_strength=1e-3, seed=7)

        def run():
            params = M.init_params(spec, seed=3)
            result = T.train(spec, params, (x, y), val, config)
            return (T.history_to_csv(result.history),
                    {name: arr.tobytes() for name, arr in result.params.items()})

        return run

    @pytest.mark.parametrize("case", PREFIX_CASES)
    def test_train_keeps_the_bytes_of_the_unmemoized_path(self, case, memos, monkeypatch):
        spec, first = PREFIX_CASES[case]
        run = self._runner(spec)
        memoized = run()
        memo = memos[-1]
        assert memo.stop == first
        # Both val batches every epoch, and the 4 training batches the
        # shuffles bring back whole.
        assert memo.served == (8 + 4 if first else 0)
        monkeypatch.setattr(T, "_MEMO_BYTES", 0)
        assert run() == memoized
        assert len(memos[-1]) == memos[-1].served == 0
        monkeypatch.setattr(T, "_frozen_prefix", lambda spec: 0)
        assert run() == memoized

    def test_val_rows_go_first_and_a_full_memo_stops(self, memos, conv_images, monkeypatch):
        spec, first = PREFIX_CASES["frozen-backbone"]
        run = self._runner(spec)
        memoized = run()
        val_bytes = 6 * _ROW
        assert memos[-1].nbytes > val_bytes  # the val rows, then training rows
        # Room for the val rows alone: the first training batch makes the
        # memo full, and only the val batches are served.
        monkeypatch.setattr(T, "_MEMO_BYTES", val_bytes)
        conv_images.clear()
        assert run() == memoized
        memo = memos[-1]
        assert len(memo) == 6 and memo.nbytes == val_bytes and memo.full and memo.served == 8
        assert conv_images == [4, 2] + [4, 4, 2] * 4
        # Room for the first val batch only: the second is never run to be
        # stored, and only the first is served.
        monkeypatch.setattr(T, "_MEMO_BYTES", val_bytes - 1)
        conv_images.clear()
        assert run() == memoized
        memo = memos[-1]
        assert len(memo) == 4 and memo.served == 4 and memo.full
        assert conv_images == [4] + [4, 4, 2, 2] * 4
        # No room: nothing runs before epoch 1, and nothing is stored.
        monkeypatch.setattr(T, "_MEMO_BYTES", 0)
        conv_images.clear()
        assert run() == memoized
        assert len(memos[-1]) == memos[-1].served == 0 and memos[-1].full
        assert conv_images == [4, 4, 2, 4, 2] * 4

    @pytest.mark.parametrize("case", ["frozen-backbone", "wholly-frozen-toy"])
    def test_loss_refuses_to_start_above_the_prefix(self, case):
        spec, first = PREFIX_CASES[case]
        params, shapes = M.init_params(spec, seed=1), M.infer_shapes(spec)
        labels = np.eye(shapes[-1][-1])[[0, 1]]
        rng = np.random.default_rng(0)

        def loss(start):  # ones of layer `start`'s input shape, from there up
            x = Tensor4(np.ones((2, *shapes[start]), np.float32))
            return T.loss_and_gradients(spec, params, x, labels, rng=rng, first=start)

        loss(first)
        with pytest.raises(ValueError, match="above the lowest trainable layer"):
            loss(first + 1)

    def test_rows_are_reused_only_in_batches_of_their_size(self, memos, conv_images):
        spec, first = PREFIX_CASES["frozen-backbone"]
        params = M.init_params(spec, seed=1)
        memo = T._PrefixMemo(spec, params, first, T._MEMO_BYTES)
        x = np.random.default_rng(2).normal(size=(3, 6, 6, 2)).astype(np.float32)

        def features(take):
            return memo.features(Tensor4(x[take])).data

        pair = features([0, 1])
        assert features([1, 0]).tobytes() == pair[[1, 0]].tobytes()  # served
        features([0, 1, 2])  # one image new: the whole batch runs
        features([0])  # stored at batch size 2 and 3, not 1
        assert conv_images == [2, 3, 1]
        assert len(memo) == 6 and memo.served == 1
        unmemoized = M.forward(spec, params, Tensor4(x[[2, 1, 0]]), stop=first).data
        assert features([2, 1, 0]).tobytes() == unmemoized.tobytes()
        assert memo.served == 2

    def test_a_batch_is_stored_whole_or_not_at_all(self, memos):
        spec, first = PREFIX_CASES["frozen-backbone"]
        memo = T._PrefixMemo(spec, M.init_params(spec, seed=1), first, 3 * _ROW)
        x = Tensor4(np.random.default_rng(2).normal(size=(4, 6, 6, 2)).astype(np.float32))
        memo.features(Tensor4(x.data[:2]))
        assert memo.nbytes == 2 * _ROW and not memo.full
        memo.features(Tensor4(x.data[2:]))  # 2 more rows would pass the bound
        assert memo.nbytes == 2 * _ROW and len(memo) == 2 and memo.full
        memo.features(Tensor4(x.data[2:3]))  # would fit, but a full memo stores nothing
        assert len(memo) == 2
        memo.features(Tensor4(x.data[:2]))
        assert memo.served == 1  # a full memo still serves its rows

    @pytest.fixture()
    def base(self, tmp_path):
        """A dataset and an untrained base model for finetune runs."""
        make_dataset(tmp_path / "data", classes=2, per_class=8)
        spec = tiny_spec_file(tmp_path / "base.spec")
        M.save_weights(tmp_path / "base.pfw", spec, M.init_params(spec, seed=1))
        return tmp_path

    def _finetune(self, base, out, *extra):
        from purefoodnet.cli import main
        assert main(["finetune", "--base-spec", str(base / "base.spec"),
                     "--base-weights", str(base / "base.pfw"), "--freeze-backbone",
                     "--head-units", "4", "--dataset-root", str(base / "data"),
                     "--batch-size", "4", "--patience", "off", "--learning-rate", "0.05",
                     "--out-dir", str(base / out), *extra]) == 0
        return [_sha(base / out / name) for name in ("weights.pfw", "history.csv")]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cli_finetune_writes_the_bytes_of_a_run_without_the_memo(
            self, base, memos, monkeypatch, seed):
        # 5 training images a class: batches of 4, 4 and 2.
        args = ["--split-counts", "5,2,1", "--epochs", "4", "--seed", str(seed)]
        memoized = self._finetune(base, "memo", *args)
        # The val batch every epoch, and the 5 training batches the shuffles
        # bring back whole.
        assert memos[-1].stop == 4 and memos[-1].served == 4 + 5
        monkeypatch.setattr(T, "_MEMO_BYTES", 0)
        assert self._finetune(base, "bound-0", *args) == memoized
        assert len(memos[-1]) == memos[-1].served == 0
        monkeypatch.setattr(T, "_frozen_prefix", lambda spec: 0)
        assert self._finetune(base, "no-prefix", *args) == memoized

    def test_no_epoch_runs_no_prefix(self, base, memos, monkeypatch):
        # With no epoch to run, the validation rows are never stored, so no
        # forward runs; the artifacts are those of a run without a prefix.
        forwards = []
        real = M.forward

        def counting(*args, **kwargs):
            forwards.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(M, "forward", counting)
        args = ["--split-counts", "4,2,1", "--epochs", "0", "--seed", "4"]
        artifacts = self._finetune(base, "memo", *args)
        assert forwards == [] and memos[-1].stop == 4 and len(memos[-1]) == 0
        monkeypatch.setattr(T, "_frozen_prefix", lambda spec: 0)
        assert self._finetune(base, "no-prefix", *args) == artifacts
        assert forwards == []

    def test_prefix_runs_once_per_image_and_batch_size(self, base, memos, conv_images,
                                                       monkeypatch):
        # 8 training images in 2 batches and 4 val images in 1, 3 epochs;
        # the model's one conv is the whole of the prefix's conv work. The
        # val batch runs first, and is served in every epoch.
        args = ["--split-counts", "4,2,1", "--epochs", "3", "--seed", "4"]
        memoized = self._finetune(base, "memo", *args)
        assert conv_images == [4, 4, 4]
        # 4 val rows and 8 training rows; 3 val batches and 4 training ones served.
        assert len(memos[-1]) == 12 and memos[-1].served == 7
        conv_images.clear()
        monkeypatch.setattr(T, "_frozen_prefix", lambda spec: 0)
        assert self._finetune(base, "no-prefix", *args) == memoized
        assert conv_images == [4, 4, 4] * 3

    def test_a_pass_served_nothing_keeps_rows_that_come_back(self, base, memos, monkeypatch):
        # 10 training images in batches of 4, 4 and 2: epoch 2 brings every
        # stored image back but serves none of its batches whole, as each
        # mixes rows stored at batch size 4 and 2. The rows stay, and epoch
        # 3 is served. The one val batch is served in every epoch.
        passes = []  # (memo rows, batches served so far) when each training pass starts
        real = D.batch_iterator

        def recording(manifest, split, *args, **kwargs):
            if split == "train":
                passes.append((len(memos[-1]), memos[-1].served))
            return real(manifest, split, *args, **kwargs)

        monkeypatch.setattr(D, "batch_iterator", recording)
        args = ["--split-counts", "5,2,1", "--epochs", "4", "--seed", "1"]
        memoized = self._finetune(base, "memo", *args)
        memo = memos[-1]
        (rows1, _), (rows2, hits2), (rows3, hits3), (rows4, hits4) = passes
        assert rows1 == 4 and rows2 == 14 and rows3 > rows2
        # Training batches: none served in epoch 2, some in epoch 3.
        assert (hits2, hits3) == (1, 2) and hits4 > 3
        assert not memo.full and len(memo) >= rows4
        monkeypatch.setattr(T, "_frozen_prefix", lambda spec: 0)
        assert self._finetune(base, "no-prefix", *args) == memoized

    def test_augmented_finetune_stops_storing_training_rows_after_epoch_2(
            self, base, memos, monkeypatch):
        rows = []  # memo rows when each training pass starts
        real = D.batch_iterator

        def recording(manifest, split, *args, **kwargs):
            if split == "train":
                rows.append(len(memos[-1]))
            return real(manifest, split, *args, **kwargs)

        monkeypatch.setattr(D, "batch_iterator", recording)
        args = ["--split-counts", "4,2,1", "--epochs", "5", "--seed", "5",
                "--aug-noise", "0.05", "--aug-flip", "0.5"]
        memoized = self._finetune(base, "memo", *args)
        # The 4 val rows are stored before epoch 1 and served in every
        # epoch. Epoch 1 stores 8 training rows. Epoch 2 brings back 1 of
        # its 8 images and stores the other 7; that is no more than half, so
        # the memo is full from then on: the rows stay, and no training
        # batch is served.
        memo = memos[-1]
        assert rows == [4, 12, 19, 19, 19] and memo.full and memo.served == 5
        monkeypatch.setattr(T, "_frozen_prefix", lambda spec: 0)
        assert self._finetune(base, "no-prefix", *args) == memoized


class TestPrefixMemoProperty:
    """Any sequence of batches drawn from a pool of images, at any sizes,
    with repeats and at any budget: each `features` output has the bytes
    of the prefix run on that batch, `nbytes` counts the keys and rows
    exactly and stays within the budget, a batch is stored whole or not at
    all, and no stored row goes. Whether a row keeps its bits in another
    batch of its size depends on the BLAS build, so CI also runs this class
    on one BLAS thread and on one CPU."""

    SPEC, FIRST = PREFIX_CASES["frozen-backbone"]
    POOL = np.random.default_rng(11).normal(size=(6, 6, 6, 2)).astype(np.float32)

    @settings(derandomize=True, deadline=None, database=None, max_examples=80)
    @given(budget=st.integers(0, 24 * _ROW),
           batches=st.lists(st.tuples(st.lists(st.integers(0, 5), min_size=1, max_size=5),
                                      st.booleans()), max_size=12))
    def test_any_batches_keep_the_bytes_and_the_budget(self, budget, batches):
        params = M.init_params(self.SPEC, seed=1)
        memo = T._PrefixMemo(self.SPEC, params, self.FIRST, budget)
        for take, wide in batches:
            x = Tensor4(self.POOL[take].astype(np.float64 if wide else np.float32))
            before = set(memo)
            out = memo.features(x)
            want = M.forward(self.SPEC, params, x, stop=self.FIRST)
            assert out.dtype == want.dtype and out.data.tobytes() == want.data.tobytes()
            assert memo.nbytes == sum(len(key[0]) + row.nbytes for key, row in memo.items())
            assert memo.nbytes <= budget
            keys = {(image.tobytes(), image.shape, image.dtype.str, x.i) for image in x.data}
            assert before <= set(memo) and set(memo) - before in (set(), keys - before)


class TestHistoryCsv:
    def _history(self):
        return [T.EpochStats(1, 0.9, 0.5, 1.0, 0.4, 0.01),
                T.EpochStats(2, 0.5123456789012345, 0.75, 0.7, 0.625, 0.01)]

    def test_round_trip(self):
        history = self._history()
        text = T.history_to_csv(history)
        assert T.history_from_csv(text) == history
        assert text.splitlines()[0] == "epoch,train_loss,train_top1,val_loss,val_top1,lr"

    def test_file_round_trip(self, tmp_path):
        history = self._history()
        path = tmp_path / "history.csv"
        T.write_history_csv(path, history)
        assert T.read_history_csv(path) == history
        # Writing the same history twice is byte-identical.
        first = path.read_bytes()
        T.write_history_csv(path, history)
        assert path.read_bytes() == first

    def test_rejects_bad_header_and_rows(self):
        from purefoodnet.errors import DataFormatError
        with pytest.raises(DataFormatError):
            T.history_from_csv("wrong,header\n")
        with pytest.raises(DataFormatError):
            T.history_from_csv(T.HISTORY_HEADER + "\n1,2,3\n")
        with pytest.raises(DataFormatError):
            T.history_from_csv(T.HISTORY_HEADER + "\n1,a,b,c,d,e\n")


class TestDiagnoseFit:
    def _stats(self, train_top1, val_top1):
        return [T.EpochStats(1, 0.0, train_top1, 0.0, val_top1, 0.01)]

    def test_underfitting(self):
        verdict = T.diagnose_fit(self._stats(0.55, 0.53))
        assert verdict.label == "underfitting"
        assert verdict.train_error == pytest.approx(0.45)

    def test_overfitting(self):
        verdict = T.diagnose_fit(self._stats(0.98, 0.60))
        assert verdict.label == "overfitting"
        assert verdict.gap == pytest.approx(0.38)

    def test_good_fit(self):
        verdict = T.diagnose_fit(self._stats(0.97, 0.92))
        assert verdict.label == "good_fit"

    def test_inconclusive_band(self):
        # Train error 0.2 sits between the low and high cutoffs.
        assert T.diagnose_fit(self._stats(0.80, 0.75)).label == "inconclusive"

    def test_custom_thresholds(self):
        cuts = T.FitThresholds(low_error=0.3, high_error=0.5, gap=0.2)
        assert T.diagnose_fit(self._stats(0.8, 0.75), cuts).label == "good_fit"

    def test_uses_final_epoch(self):
        history = [T.EpochStats(1, 0.0, 0.5, 0.0, 0.5, 0.1),
                   T.EpochStats(2, 0.0, 0.97, 0.0, 0.93, 0.1)]
        assert T.diagnose_fit(history).label == "good_fit"

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            T.diagnose_fit([])

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            T.FitThresholds(low_error=0.5, high_error=0.3)
        with pytest.raises(ConfigError):
            T.FitThresholds(gap=-0.1)
