"""Model spec, parameter store, architecture, and serialization tests."""

import struct
import tracemalloc

import numpy as np
import pytest

from purefoodnet import layers as L
from purefoodnet import models as M
from purefoodnet import tensor as TN
from purefoodnet import training as T
from purefoodnet import workers as W
from purefoodnet.errors import (
    DataFormatError,
    GeometryError,
    NonFiniteError,
    ShapeError,
    UnknownLayerError,
    WeightDigestError,
)
from purefoodnet.tensor import Tensor4
from test_golden import SPEC_TEXT as GOLDEN_SPEC_TEXT
from test_layers import rounded_with_signed_zeros, spy_on_blocks
from test_tensor import spy_on_jobs


def layer_named(spec, name):
    return next(layer for layer in spec.layers if layer.name == name)


def count_finite_scans(monkeypatch) -> list:
    """The size of each array `all_finite` scans from now on, one entry per
    call, wherever the engine calls it."""
    real = TN.all_finite
    scans = []

    def counting(arr):
        scans.append(arr.size)
        return real(arr)

    for module in (TN, M, T):
        monkeypatch.setattr(module, "all_finite", counting)
    return scans


def tiny_spec(num_classes=3, input_side=8, channels=2):
    """conv/bn/pool backbone with a dense top, small enough for exact checks."""
    return M.ModelSpec(
        input_shape=(input_side, input_side, channels),
        layers=(
            M.conv_spec("c1", filters=4, kernel=3),
            M.batchnorm_spec("bn1"),
            M.pool_spec("p1"),
            M.flatten_spec(),
            M.dense_spec("fc", 6, activation="relu"),
            M.dropout_spec("drop", 0.25),
            M.dense_spec("out", num_classes, activation="softmax"),
        ),
        top_boundary=3,
    )


class TestLayerSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(UnknownLayerError):
            M.LayerSpec(name="x", kind="deconv")

    def test_missing_required_field(self):
        with pytest.raises(ValueError):
            M.LayerSpec(name="c", kind="conv", filters=4, kernel=3, stride=1, padding=1)

    def test_foreign_field_rejected(self):
        with pytest.raises(ValueError):
            M.LayerSpec(name="f", kind="flatten", units=5)

    def test_bad_values(self):
        with pytest.raises(ValueError):
            M.conv_spec("c", filters=0)
        with pytest.raises(ValueError):
            M.dense_spec("d", units=3, activation="tanh")
        with pytest.raises(ValueError):
            M.dropout_spec("d", rate=1.0)
        with pytest.raises(ValueError):
            M.pool_spec("p", mode="median")

    def test_name_must_be_token(self):
        with pytest.raises(ValueError):
            M.flatten_spec("two words")
        with pytest.raises(ValueError):
            M.flatten_spec("")


class TestModelSpecValidation:
    def test_duplicate_names(self):
        with pytest.raises(ValueError):
            M.ModelSpec((4, 4, 1), (M.flatten_spec("a"), M.dense_spec("a", 2, "softmax")), 0)

    def test_top_boundary_bounds(self):
        with pytest.raises(ValueError):
            M.ModelSpec((4, 4, 1), (M.flatten_spec(),), 2)

    def test_invalid_chain_rejected_at_construction(self):
        with pytest.raises(GeometryError):
            M.ModelSpec((4, 4, 1), (M.pool_spec("p", window=6, stride=1),), 0)
        with pytest.raises(ShapeError):
            M.ModelSpec((4, 4, 1), (M.dense_spec("d", 2, "none"),), 0)


class TestInferShapes:
    def test_flatten_only(self):
        spec = M.ModelSpec((3, 5, 2), (M.flatten_spec(),), 0)
        assert M.infer_shapes(spec) == [(3, 5, 2), (1, 1, 30)]

    def test_tiny_spec_chain(self):
        shapes = M.infer_shapes(tiny_spec(input_side=8, channels=2))
        assert shapes == [(8, 8, 2), (8, 8, 4), (8, 8, 4), (4, 4, 4),
                          (1, 1, 64), (1, 1, 6), (1, 1, 6), (1, 1, 3)]

    def test_purefoodnet_spatial_halving(self):
        spec = M.build_purefoodnet(8, width_scale=0.125, input_side=32)
        shapes = M.infer_shapes(spec)
        sides = sorted({s[0] for s in shapes if s[0] > 1}, reverse=True)
        assert sides == [32, 16, 8, 4]

    def test_error_names_offending_layer(self):
        layers = (M.conv_spec("shrink", 4, kernel=3, padding=0, stride=2),
                  M.pool_spec("toobig", window=5, stride=1))
        with pytest.raises(GeometryError, match="toobig"):
            M.ModelSpec((7, 7, 1), layers, 0)


class TestParamStore:
    def test_basic_mapping(self):
        store = M.ParamStore({"a": np.ones(3), "b": np.zeros((2, 2))})
        assert list(store.keys()) == ["a", "b"]
        assert "a" in store and "c" not in store
        assert [arr.size for arr in store.values()] == [3, 4]
        with pytest.raises(KeyError, match="no parameter named 'c'"):
            store["c"]
        with pytest.raises(TypeError):
            store["d"] = [1, 2, 3]

    def test_every_store_path_checks_for_arrays(self):
        with pytest.raises(TypeError):
            M.ParamStore({"a": np.ones(2), "b": [1.0, 2.0]})
        store = M.ParamStore({"a": np.ones(2)})
        with pytest.raises(TypeError):
            store.update({"b": 3.0})
        with pytest.raises(TypeError):
            store.update(b=3.0)
        with pytest.raises(TypeError):
            store.setdefault("b", [3.0])
        with pytest.raises(TypeError):
            store |= {"b": 3.0}
        assert list(store) == ["a"]
        store.setdefault("b", np.zeros(1))
        assert list(store) == ["a", "b"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_every_store_path_refuses_nonfinite_values(self, monkeypatch, bad, transposed):
        monkeypatch.setattr(TN, "_FINITE_CHUNK", 4)
        arr = np.zeros((3, 5), dtype=np.float32)
        arr[-1, -1] = bad  # past the first chunk, read in either layout
        if transposed:
            arr = np.ascontiguousarray(arr.T).T
        message = "parameter 'b' must be finite"
        with pytest.raises(NonFiniteError, match=message):
            M.ParamStore({"a": np.ones(2), "b": arr})
        store = M.ParamStore({"a": np.ones(2)})
        with pytest.raises(NonFiniteError, match=message):
            store["b"] = arr
        with pytest.raises(NonFiniteError, match=message):
            store.update({"b": arr})
        with pytest.raises(NonFiniteError, match=message):
            store.update(b=arr)
        with pytest.raises(NonFiniteError, match=message):
            store.setdefault("b", arr)
        with pytest.raises(NonFiniteError, match=message):
            store |= {"b": arr}
        assert list(store) == ["a"]

    @pytest.mark.parametrize("name, bad", [("fc.weights", np.nan), ("c1.filters", np.inf),
                                           ("bn1.gamma", np.inf)])
    @pytest.mark.parametrize("entry", ["forward", "capture_activations", "train"])
    def test_nonfinite_parameter_stops_every_entry_point_before_any_layer(
            self, monkeypatch, name, bad, entry):
        spec = tiny_spec()
        arrays = dict(M.init_params(spec, seed=41))
        arrays[name] = arrays[name].copy()
        arrays[name].flat[-1] = bad
        for kernel in ("conv2d_cached", "batchnorm_cached", "pool_cached", "flatten_cached",
                       "dense_cached", "dropout_cached"):
            monkeypatch.setattr(L, kernel, lambda *args, **kwargs: pytest.fail("a layer ran"))
        x = Tensor4(np.zeros((2, 8, 8, 2), dtype=np.float32))
        labels = np.eye(3, dtype=np.float32)[[0, 1]]
        runs = {
            "forward": lambda params: M.forward(spec, params, x),
            "capture_activations": lambda params: M.capture_activations(spec, params, x, ["fc"]),
            "train": lambda params: T.train(spec, params, (x, labels), None,
                                            T.TrainConfig(epochs=1, patience=None)),
        }
        with pytest.raises(NonFiniteError, match=f"parameter '{name}' must be finite"):
            runs[entry](M.ParamStore(arrays))

    def test_copy_is_deep(self):
        store = M.ParamStore({"a": np.ones(3)})
        dup = store.copy()
        dup["a"][0] = 9.0
        assert store["a"][0] == 1.0

    def test_replaced_shares_the_rest_and_checks_only_the_changes(self, monkeypatch):
        store = M.ParamStore({"a": np.ones(2), "b": np.zeros(3), "c": np.ones(1)})
        scans = count_finite_scans(monkeypatch)
        new = store.replaced({"b": np.full(3, 2.0)})
        assert scans == [3]
        assert list(new) == ["a", "b", "c"]
        assert new["a"] is store["a"] and new["c"] is store["c"]
        np.testing.assert_array_equal(new["b"], 2.0)
        np.testing.assert_array_equal(store["b"], 0.0)
        with pytest.raises(NonFiniteError, match="parameter 'b' must be finite"):
            store.replaced({"b": np.array([1.0, np.inf, 0.0])})
        with pytest.raises(TypeError):
            store.replaced({"b": [1.0, 2.0, 3.0]})

    def test_equality(self):
        a = M.ParamStore({"x": np.arange(4.0)})
        b = M.ParamStore({"x": np.arange(4.0)})
        c = M.ParamStore({"x": np.arange(4.0) + 1})
        assert a == b and not a != b
        assert a != c and not a == c
        assert a != M.ParamStore({"y": np.arange(4.0)})
        assert a != M.ParamStore({"x": np.arange(5.0)})  # shapes differ: unequal, no raise
        assert M.ParamStore(x=a["x"], y=c["x"]) != M.ParamStore(y=c["x"], x=a["x"])  # order
        assert a != {"x": np.arange(4.0)}

    def test_equality_compares_bytes(self):
        zeros = np.zeros(3)
        signed = np.array([0.0, -0.0, 0.0])
        assert np.array_equal(zeros, signed)  # what `==` must not rely on
        assert M.ParamStore(x=zeros) != M.ParamStore(x=signed)
        assert M.ParamStore(x=signed) == M.ParamStore(x=signed.copy())
        values = np.arange(4.0)
        assert M.ParamStore(x=values) != M.ParamStore(x=values.astype(np.float32))
        assert M.ParamStore(x=values) != M.ParamStore(x=values.astype(">f8"))  # byte order
        # Strided and 0-d arrays compare by their values' bytes, as contiguous ones.
        grid = np.arange(12.0).reshape(3, 4)
        assert M.ParamStore(x=grid.T) == M.ParamStore(x=np.ascontiguousarray(grid.T))
        assert M.ParamStore(x=grid[:, ::2]) != M.ParamStore(x=grid[:, 1::2])
        assert M.ParamStore(x=np.array(-0.0)) != M.ParamStore(x=np.array(0.0))
        assert M.ParamStore(x=np.array(2.5)) == M.ParamStore(x=np.array(2.5))
        wide = np.array([1 + 0j, complex(-0.0, 0.0)])  # 16-byte items
        assert M.ParamStore(x=wide) == M.ParamStore(x=wide.copy())
        assert M.ParamStore(x=wide) != M.ParamStore(x=np.array([1 + 0j, 0j]))


class TestParamShapesAndInit:
    def test_expected_shapes(self):
        shapes = M.param_shapes(tiny_spec())
        assert shapes["c1.filters"] == (4, 3, 3, 2)
        assert shapes["c1.bias"] == (4,)
        assert shapes["bn1.gamma"] == (4,)
        assert shapes["fc.weights"] == (64, 6)
        assert shapes["out.weights"] == (6, 3)
        assert shapes["out.bias"] == (3,)

    def test_init_values(self):
        spec = tiny_spec()
        params = M.init_params(spec, seed=1, dtype=np.float64)
        assert set(params.keys()) == set(M.param_shapes(spec))
        np.testing.assert_array_equal(params["c1.bias"], 0.0)
        np.testing.assert_array_equal(params["bn1.gamma"], 1.0)
        np.testing.assert_array_equal(params["bn1.running_var"], 1.0)
        # Glorot bound for the conv bank: sqrt(6 / (k*k*c + k*k*f))
        bound = np.sqrt(6.0 / (9 * 2 + 9 * 4))
        assert np.abs(params["c1.filters"]).max() <= bound

    def test_init_deterministic(self):
        spec = tiny_spec()
        a = M.init_params(spec, seed=7)
        b = M.init_params(spec, seed=7)
        assert a == b
        c = M.init_params(spec, seed=8)
        assert a != c

    def test_per_layer_streams_are_stable(self):
        # Swapping the top for a wider one must not disturb backbone draws.
        spec = tiny_spec()
        bigger = M.ModelSpec(spec.input_shape,
                             spec.layers[:-1] + (M.dense_spec("out", 9, "softmax"),),
                             spec.top_boundary)
        a = M.init_params(spec, seed=3, dtype=np.float64)
        b = M.init_params(bigger, seed=3, dtype=np.float64)
        np.testing.assert_array_equal(a["c1.filters"], b["c1.filters"])
        np.testing.assert_array_equal(a["fc.weights"], b["fc.weights"])


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(5, 7), (3000, 700), (64, 3, 3, 32), (1, 9)])
    @pytest.mark.parametrize("chunk", [1, 5, 1 << 20])
    def test_glorot_chunks_draw_the_whole_draw(self, shape, chunk, dtype, monkeypatch):
        # A Generator consumes its stream the same way in row chunks as in
        # one draw, and each chunk is cast as `astype` casts the whole.
        monkeypatch.setattr(M, "_INIT_CHUNK_VALUES", chunk)
        got = M.glorot_init(shape, np.random.default_rng(17), dtype)
        fan_in, fan_out = shape if len(shape) == 2 else (np.prod(shape[1:]),
                                                         np.prod(shape[:3]))
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        want = np.random.default_rng(17).uniform(-bound, bound, size=shape).astype(dtype)
        assert got.dtype == np.dtype(dtype) and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_float32_init_holds_no_float64_draw(self):
        # 4 M values: 16 MB as float32, 32 MB as a whole float64 draw.
        spec = M.ModelSpec((1, 1, 2048), (M.dense_spec("fc", 2048),), 0)
        tracemalloc.start()
        try:
            params = M.init_params(spec, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert params["fc.weights"].dtype == np.float32
        assert peak < 16 * 2**20 + 2 * 8 * M._INIT_CHUNK_VALUES


def glorot_reference(shape, rng, dtype):
    """The one-thread Glorot draw: one `uniform` call over the whole shape."""
    fan_in, fan_out = shape if len(shape) == 2 else (np.prod(shape[1:]), np.prod(shape[:3]))
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class TestSplitGlorot:
    """A PCG64 draw past the gate goes in one share of rows per worker, each
    from a copy of the stream advanced to the share's first value: the
    values, and the caller's stream afterwards, are the one-thread draw's."""

    @pytest.fixture(params=[1, 2, 3])
    def workers(self, request, monkeypatch):
        monkeypatch.setattr(W, "_WORKERS", request.param)
        monkeypatch.setattr(W, "_ONE_BLOCK_BYTES", 0)
        return request.param

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(7, 5), (5, 3, 3, 4), (1, 9), (11, 13)])
    @pytest.mark.parametrize("chunk", [4, 1 << 20])
    def test_shares_draw_the_sequential_draw(self, shape, dtype, buffered, chunk, workers,
                                             monkeypatch):
        # Chunks of 4 values make each share draw several row chunks.
        monkeypatch.setattr(M, "_INIT_CHUNK_VALUES", chunk)
        jobs = spy_on_jobs(monkeypatch)
        rng, ref = np.random.default_rng(41), np.random.default_rng(41)
        if buffered:  # a uint32 draw leaves half of a 64-bit output buffered
            for g in (rng, ref):
                g.integers(2**32, dtype=np.uint32)
            assert rng.bit_generator.state["has_uint32"] == 1
        got = M.glorot_init(shape, rng, dtype)
        want = glorot_reference(shape, ref, dtype)
        assert jobs == [min(workers, shape[0])]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.random(3).tobytes() == ref.random(3).tobytes()
        assert rng.integers(2**32, dtype=np.uint32) == ref.integers(2**32, dtype=np.uint32)

    @pytest.mark.parametrize("bits", [np.random.MT19937, np.random.Philox])
    def test_other_bit_generators_draw_on_this_thread(self, bits, workers, monkeypatch):
        # MT19937 cannot advance; Philox's `advance` counts blocks of four
        # outputs, not one per double.
        jobs = spy_on_jobs(monkeypatch)
        rng, ref = np.random.Generator(bits(8)), np.random.Generator(bits(8))
        got = M.glorot_init((9, 4), rng, np.float64)
        assert jobs == []
        assert got.tobytes() == glorot_reference((9, 4), ref, np.float64).tobytes()

    def test_training_size_draws_stay_on_this_thread(self, monkeypatch):
        # The gate is 16 MB: no draw of a 1/8-width model is split.
        monkeypatch.setattr(W, "_WORKERS", 2)
        jobs = spy_on_jobs(monkeypatch)
        spec = M.build_purefoodnet(3, width_scale=0.125, input_side=32)
        M.init_params(spec, seed=1)
        assert jobs == []


class TestForward:
    def test_matches_manual_composition(self):
        spec = tiny_spec()
        params = M.init_params(spec, seed=5, dtype=np.float64)
        rng = np.random.default_rng(11)
        x = Tensor4(rng.normal(size=(4, 8, 8, 2)))
        got = M.forward(spec, params, x)

        from purefoodnet.tensor import ConvGeometry
        y = L.conv2d_forward(x, L.ConvLayer(params["c1.filters"], params["c1.bias"],
                                            ConvGeometry(3, 1, 1), "relu"))
        y = L.batchnorm_forward(y, L.BatchNormLayer(params["bn1.gamma"], params["bn1.beta"],
                                                    params["bn1.running_mean"].copy(),
                                                    params["bn1.running_var"].copy()))
        y = L.pool_forward(y, L.PoolLayer(2, 2, "max"))
        y = L.flatten(y)
        y = L.dense_forward(y, L.DenseLayer(params["fc.weights"], params["fc.bias"], "relu"))
        y = L.dense_forward(y, L.DenseLayer(params["out.weights"], params["out.bias"], "softmax"))
        np.testing.assert_array_equal(got.data, y.data)

    def test_matches_the_layers_one_by_one_on_every_kind(self):
        spec = M.parse_model_spec(GOLDEN_SPEC_TEXT)
        params = M.init_params(spec, seed=9)
        x = Tensor4(np.random.default_rng(12).normal(size=(5, 16, 16, 3)).astype(np.float32))
        got = M.forward(spec, params, x)
        want = per_layer(spec.layers, params, x)
        assert got.dtype == want.dtype and got.data.tobytes() == want.data.tobytes()

    def test_output_shapes_match_inference(self):
        rng = np.random.default_rng(13)
        for seed in range(5):
            spec = tiny_spec(num_classes=2 + seed)
            params = M.init_params(spec, seed=seed)
            x = Tensor4(rng.normal(size=(2, 8, 8, 2)).astype(np.float32))
            out = M.forward(spec, params, x)
            shapes = M.infer_shapes(spec)
            assert out.data.shape == (2, *shapes[-1])

    def test_training_mode_needs_rng_for_dropout(self):
        spec = tiny_spec()
        params = M.init_params(spec, seed=0)
        x = Tensor4(np.random.default_rng(1).normal(size=(2, 8, 8, 2)).astype(np.float32))
        with pytest.raises(ValueError):
            M.forward_with_caches(spec, params, x)

    def test_frozen_batchnorm_ignores_batch_stats(self):
        spec = tiny_spec()
        frozen = M.set_trainable(spec, ["bn1"], False)
        params = M.init_params(spec, seed=2, dtype=np.float64)
        params["bn1.running_mean"][:] = 0.5
        x = Tensor4(np.random.default_rng(3).normal(size=(2, 8, 8, 2)))
        before = params["bn1.running_mean"].copy()
        M.forward_with_caches(frozen, params, x, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(params["bn1.running_mean"], before)
        # The unfrozen spec does update the running stats in training mode.
        M.forward_with_caches(spec, params, x, rng=np.random.default_rng(0))
        assert not np.array_equal(params["bn1.running_mean"], before)


class TestCaptureActivations:
    def test_final_capture_equals_forward(self):
        spec = tiny_spec()
        params = M.init_params(spec, seed=4)
        x = Tensor4(np.random.default_rng(5).normal(size=(3, 8, 8, 2)).astype(np.float32))
        caps = M.capture_activations(spec, params, x, ["out"])
        np.testing.assert_array_equal(caps["out"].data, M.forward(spec, params, x).data)

    @pytest.mark.parametrize("blocks", [None, 0])  # 0: cache-free convs in minimal blocks
    def test_every_layer_equals_the_layers_one_by_one(self, blocks, monkeypatch):
        if blocks is not None:
            monkeypatch.setattr(W, "_ONE_BLOCK_BYTES", blocks)
            monkeypatch.setattr(L, "_IM2COL_BLOCK_BYTES", blocks)
        spec = M.parse_model_spec(GOLDEN_SPEC_TEXT)
        params = M.init_params(spec, seed=10)
        x = Tensor4(np.random.default_rng(14).normal(size=(64, 16, 16, 3)).astype(np.float32))
        caps = M.capture_activations(spec, params, x, [layer.name for layer in spec.layers])
        for j, layer in enumerate(spec.layers):
            want = per_layer(spec.layers[:j + 1], params, x)
            got = caps[layer.name]
            assert got.dtype == want.dtype and got.data.tobytes() == want.data.tobytes()

    def test_splice_consistency(self):
        spec = tiny_spec()
        params = M.init_params(spec, seed=6)
        x = Tensor4(np.random.default_rng(7).normal(size=(2, 8, 8, 2)).astype(np.float32))
        caps = M.capture_activations(spec, params, x, ["p1"])
        resumed = caps["p1"]
        for layer in spec.layers[[layer.name for layer in spec.layers].index("p1") + 1:]:
            resumed, _ = M.apply_layer(layer, params, resumed)
        np.testing.assert_array_equal(resumed.data, M.forward(spec, params, x).data)

    def test_unknown_name(self):
        spec = tiny_spec()
        params = M.init_params(spec, seed=0)
        x = Tensor4(np.zeros((1, 8, 8, 2), dtype=np.float32))
        with pytest.raises(UnknownLayerError):
            M.capture_activations(spec, params, x, ["ghost"])


def per_layer(layers, params, x):
    """The inference output of `layers` run one by one (`apply_layer`)."""
    for layer in layers:
        x = M.apply_layer(layer, params, x)[0]
    return x


def shifted_params(spec, seed, dtype):
    """`init_params`, with the conv and dense biases and the batch norms'
    means, shifts and scales drawn from halves, about half of their zeros
    negative (a scale of zero passes its shift through), and variances from
    [0.5, 2)."""
    params = M.init_params(spec, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed)
    for name, arr in params.items():
        field = name.rsplit(".", 1)[1]
        if field in ("bias", "beta", "gamma", "running_mean"):
            arr[...] = rounded_with_signed_zeros(rng, arr.shape, dtype)
        elif field == "running_var":
            arr[...] = rng.uniform(0.5, 2.0, arr.shape)
    return params


def spy_on_convs(monkeypatch) -> list:
    """The (batch norm, pool) each `conv2d_cached` call from now on runs in
    its blocks, None where it runs none."""
    runs = []
    real = L.conv2d_cached

    def spy(x, layer, need_cache=True, bn=None, pool=None):
        runs.append((bn, pool))
        return real(x, layer, need_cache, bn=bn, pool=pool)

    monkeypatch.setattr(L, "conv2d_cached", spy)
    return runs


def backbone_spec(side=16, channels=16):
    """Three conv runs: conv -> batch norm -> max-pool, a stride-1 conv with
    no activation -> batch norm -> average pool, and a 1x1 conv -> batch
    norm with no pool."""
    return M.ModelSpec(
        (side, side, channels),
        (M.conv_spec("c1", filters=16, kernel=3), M.batchnorm_spec("bn1"),
         M.pool_spec("p1", window=2, stride=2, mode="max"),
         M.conv_spec("c2", filters=16, kernel=3, activation="none"), M.batchnorm_spec("bn2"),
         M.pool_spec("p2", window=2, stride=2, mode="average"),
         M.conv_spec("c3", filters=8, kernel=1), M.batchnorm_spec("bn3")),
        top_boundary=8)


def small_blocks(monkeypatch):
    """Every conv matrix is split into blocks of the least height allowed."""
    monkeypatch.setattr(W, "_ONE_BLOCK_BYTES", 0)
    monkeypatch.setattr(L, "_IM2COL_BLOCK_BYTES", 0)


def spy_on_kernels(monkeypatch) -> list:
    """The kind of each layer a `layers` kernel runs from now on, in order; a
    conv that runs a batch norm and a pool in its blocks counts them too."""
    kinds = []

    def spy(kernel, kind):
        real = getattr(L, kernel)

        def counting(*args, **kwargs):
            kinds.append(kind)
            kinds.extend(fused for fused, key in (("batchnorm", "bn"), ("pool", "pool"))
                         if kwargs.get(key) is not None)
            return real(*args, **kwargs)

        monkeypatch.setattr(L, kernel, counting)

    for kind in ("conv", "batchnorm", "pool", "flatten", "dense", "dropout"):
        spy("conv2d_cached" if kind == "conv" else f"{kind}_cached", kind)
    return kinds


class TestCaptureWalk:
    """`capture_activations` runs `forward` from one named layer to the next:
    the conv runs between two captures run fused, no layer after the last
    named one runs, and every capture has the bytes of the layers run one by
    one."""

    @pytest.fixture(autouse=True, params=[1, 2, 3])
    def workers(self, request, monkeypatch):
        monkeypatch.setattr(W, "_WORKERS", request.param)

    @pytest.fixture(autouse=True, params=["default", "small"])
    def blocks(self, request, monkeypatch):
        if request.param == "small":
            small_blocks(monkeypatch)

    @pytest.fixture()
    def golden(self):
        spec = M.parse_model_spec(GOLDEN_SPEC_TEXT)
        params = shifted_params(spec, 71, np.float32)
        x = Tensor4(rounded_with_signed_zeros(np.random.default_rng(72), (5, 16, 16, 3),
                                              np.float32))
        return spec, params, x

    def check_bytes(self, spec, params, x, caps):
        names = [layer.name for layer in spec.layers]
        for name, got in caps.items():
            want = per_layer(spec.layers[:names.index(name) + 1], params, x)
            assert got.dtype == want.dtype and got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("names, runs", [
        (["bn2"], [(True, "max"), (True, None)]),
        (["fc1"], [(True, "max"), (True, "average")]),
        (["predictor", "bn1"], [(True, None), (True, "average")]),
        (["p1", "bn2", "fc1_drop"], [(True, "max"), (True, None)]),
    ])
    def test_convs_before_a_capture_run_fused(self, golden, names, runs, monkeypatch):
        spec, params, x = golden
        conv_runs = spy_on_convs(monkeypatch)
        caps = M.capture_activations(spec, params, x, names)
        assert [(bn is not None, pool and pool.mode) for bn, pool in conv_runs] == runs
        assert sorted(caps) == sorted(names)
        self.check_bytes(spec, params, x, caps)

    @pytest.mark.parametrize("names", [["c1"], ["c2"], ["c2", "c1"]])
    def test_only_convs_requested_runs_no_layer_after_the_last(self, golden, names,
                                                                monkeypatch):
        spec, params, x = golden
        kinds = spy_on_kernels(monkeypatch)
        caps = M.capture_activations(spec, params, x, names)
        assert "dense" not in kinds
        last = max(j for j, layer in enumerate(spec.layers) if layer.name in names)
        assert kinds == [layer.kind for layer in spec.layers[:last + 1]]
        self.check_bytes(spec, params, x, caps)

    def test_no_names_run_no_layer(self, golden, monkeypatch):
        spec, params, x = golden
        kinds = spy_on_kernels(monkeypatch)
        assert M.capture_activations(spec, params, x, []) == {}
        assert kinds == []

    def test_every_capture_has_the_bytes_of_the_layers_one_by_one(self, golden, monkeypatch):
        spec, params, x = golden
        kinds = spy_on_kernels(monkeypatch)
        caps = M.capture_activations(spec, params, x, [layer.name for layer in spec.layers])
        assert kinds == [layer.kind for layer in spec.layers]
        self.check_bytes(spec, params, x, caps)


class TestFusedForward:
    """`models.forward` runs each conv with the batch norm and the pool after
    it in one call, finishing each block of the product through them; its
    bytes must be those of the layers run one by one."""

    @pytest.fixture(autouse=True, params=[1, 2, 3])
    def workers(self, request, monkeypatch):
        monkeypatch.setattr(W, "_WORKERS", request.param)
        return request.param

    @pytest.mark.parametrize("images", [1, 3, 64])
    @pytest.mark.parametrize("blocks", ["default", "small"])
    def test_golden_spec_matches_the_layers_one_by_one(self, blocks, images, monkeypatch):
        # Max and average pools, a stride-2 conv with no activation and a
        # frozen batch norm.
        if blocks == "small":
            small_blocks(monkeypatch)
        spec = M.parse_model_spec(GOLDEN_SPEC_TEXT)
        params = shifted_params(spec, 21 + images, np.float32)
        x = Tensor4(rounded_with_signed_zeros(np.random.default_rng(images), (images, 16, 16, 3),
                                              np.float32))
        want = per_layer(spec.layers, params, x)
        runs = spy_on_convs(monkeypatch)
        got = M.forward(spec, params, x)
        assert [(bn is not None, pool.mode) for bn, pool in runs] == [(True, "max"),
                                                                       (True, "average")]
        assert got.dtype == want.dtype and got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("images", [1, 5])
    @pytest.mark.parametrize("blocks", ["default", "small"])
    def test_backbone_matches_the_layers_one_by_one(self, blocks, images, dtype, monkeypatch):
        if blocks == "small":
            small_blocks(monkeypatch)
        spec = backbone_spec()
        params = shifted_params(spec, 30 + images, dtype)
        # Zero scales pass their shifts through, -0.0 and +0.0.
        for name in ("bn1", "bn3"):
            params[f"{name}.gamma"][:2] = 0
            params[f"{name}.beta"][:2] = (-0.0, 0.0)
        x = Tensor4(rounded_with_signed_zeros(np.random.default_rng(images), (images, 16, 16, 16),
                                              dtype))
        want = per_layer(spec.layers, params, x)
        runs = spy_on_convs(monkeypatch)
        got = M.forward(spec, params, x)
        assert [(bn is not None, pool is not None) for bn, pool in runs] == [
            (True, True), (True, True), (True, False)]
        assert got.dtype == want.dtype and got.data.tobytes() == want.data.tobytes()
        assert np.signbit(got.data[..., 0]).all() and not np.signbit(got.data[..., 1]).any()

    @pytest.mark.parametrize("mode", ["max", "average"])
    def test_blocks_and_shares_are_whole_pool_windows(self, mode, workers, monkeypatch):
        # Blocks of 29 output rows at the least, rounded up to 30: they span
        # images of 16 rows, and each share's last block overlaps the one
        # before it. 112 rows in 3 shares would split at rows 37 and 74.
        small_blocks(monkeypatch)
        spec = M.ModelSpec((16, 16, 16), (M.conv_spec("c1", filters=16, kernel=3),
                                          M.batchnorm_spec("bn1"),
                                          M.pool_spec("p1", mode=mode)), top_boundary=3)
        assert L._least_units(16, 144, 16) == 29
        params = shifted_params(spec, 41, np.float32)
        x = Tensor4(rounded_with_signed_zeros(np.random.default_rng(42), (7, 16, 16, 16),
                                              np.float32))
        want = per_layer(spec.layers, params, x)
        calls = spy_on_blocks(monkeypatch)
        got = M.forward(spec, params, x)
        assert got.data.tobytes() == want.data.tobytes()
        blocks = sorted((first, first + rows // 16, thread) for first, rows, thread, _ in calls)
        assert all(hi - lo == 30 and lo % 2 == 0 for lo, hi, _ in blocks)
        assert any(lo // 16 != (hi - 1) // 16 for lo, hi, _ in blocks)  # spans two images
        assert (len({thread for *_, thread in blocks}) > 1) == (workers > 1)
        written = np.zeros(7 * 16, dtype=int)
        for lo, hi, _ in blocks:
            written[lo:hi] += 1
        assert written.min() == 1 and written.max() == 2  # overlapping last blocks

    @pytest.mark.parametrize("field", ["c1.bias", "bn1.running_mean", "bn1.running_var",
                                       "bn1.gamma", "bn1.beta"])
    @pytest.mark.parametrize("blocks", ["default", "small"])
    def test_a_wider_parameter_runs_fused_with_the_same_bytes(self, blocks, field, monkeypatch):
        # A float64 bias, mean or gamma widens the map from the first run
        # on; a float64 variance or beta does not.
        if blocks == "small":
            small_blocks(monkeypatch)
        spec = backbone_spec()
        params = shifted_params(spec, 51, np.float32)
        params[field] = params[field].astype(np.float64)
        x = Tensor4(np.random.default_rng(52).normal(size=(2, 16, 16, 16)).astype(np.float32))
        want = per_layer(spec.layers, params, x)
        assert want.dtype == (np.float32 if field in ("bn1.running_var", "bn1.beta")
                              else np.float64)
        runs = spy_on_convs(monkeypatch)
        got = M.forward(spec, params, x)
        assert [(bn is not None, pool is not None) for bn, pool in runs] == [
            (True, True), (True, True), (True, False)]
        assert got.dtype == want.dtype and got.data.tobytes() == want.data.tobytes()

    def test_a_pool_whose_window_is_not_its_stride_runs_alone(self, monkeypatch):
        spec = M.ModelSpec((8, 8, 4), (M.conv_spec("c1", filters=4, kernel=3),
                                       M.batchnorm_spec("bn1"),
                                       M.pool_spec("p1", window=3, stride=1)), top_boundary=3)
        params = shifted_params(spec, 91, np.float32)
        x = Tensor4(rounded_with_signed_zeros(np.random.default_rng(92), (2, 8, 8, 4),
                                              np.float32))
        want = per_layer(spec.layers, params, x)
        runs = spy_on_convs(monkeypatch)
        got = M.forward(spec, params, x)
        assert [(bn is not None, pool) for bn, pool in runs] == [(True, None)]
        assert got.data.tobytes() == want.data.tobytes()

    def test_conv_refuses_a_run_it_cannot_take(self):
        rng = np.random.default_rng(81)
        x = Tensor4(rng.normal(size=(1, 8, 8, 2)).astype(np.float32))
        conv = L.ConvLayer(rng.normal(size=(4, 3, 3, 2)).astype(np.float32),
                           np.zeros(4, np.float32), TN.ConvGeometry(3, 1, 1), "relu")
        bn = L.BatchNormLayer(*(np.ones(4, np.float32) for _ in range(4)))
        for kwargs in ({"need_cache": True, "bn": bn},
                       {"need_cache": False, "pool": L.PoolLayer(3, 1)}):
            with pytest.raises(ValueError):
                L.conv2d_cached(x, conv, **kwargs)

    def test_forward_stops_and_starts_inside_a_run(self):
        spec = backbone_spec()
        params = shifted_params(spec, 61, np.float32)
        x = Tensor4(np.random.default_rng(62).normal(size=(2, 16, 16, 16)).astype(np.float32))
        for first, stop in ((0, 1), (0, 2), (1, 3), (2, 6), (4, 8)):
            start = per_layer(spec.layers[:first], params, x)
            want = per_layer(spec.layers[first:stop], params, start)
            got = M.forward(spec, params, start, first=first, stop=stop)
            assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("poison", ["overflow", "nan"])
    @pytest.mark.parametrize("pool", [True, False])
    def test_a_non_finite_batch_norm_output_fails_even_where_it_loses_its_window(
            self, poison, pool, monkeypatch):
        # A 1x1 identity conv and a batch norm whose output is -inf (scale
        # 1e38 at a cell of -10) or NaN (an infinite conv output times a
        # scale of 0) at one cell of the last image: the cell (1, 1) of its
        # window, which a max-pool would pass over. Each worker checks its
        # block before the pool, as the batch norm's map is checked alone.
        small_blocks(monkeypatch)
        layers_ = (M.conv_spec("c1", filters=16, kernel=1, activation="none"),
                   M.batchnorm_spec("bn1"))
        spec = M.ModelSpec((16, 16, 16), layers_ + (M.pool_spec("p1"),) * pool,
                           top_boundary=2 + pool)
        params = M.init_params(spec, seed=0)
        params["c1.filters"] = np.eye(16, dtype=np.float32).reshape(16, 1, 1, 16)
        params["bn1.gamma"] = np.full(16, 1e38, np.float32)
        cell = np.float32(-10.0)
        if poison == "nan":
            params["c1.filters"] *= np.float32(1e38)
            params["bn1.gamma"][:] = 0
            cell = np.float32(10.0)
        data = np.random.default_rng(71).uniform(-1, 1, (32, 16, 16, 16)).astype(np.float32)
        data[-1, 5, 5, 3] = cell
        x = Tensor4(data.copy())
        with np.errstate(over="ignore", invalid="ignore"):
            for walk in (lambda: per_layer(spec.layers, params, x),
                         lambda: M.forward(spec, params, x)):
                with pytest.raises(NonFiniteError, match="^Tensor4 values must be finite$"):
                    walk()
            if pool:  # the pool alone would have hidden it
                data[-1, 5, 5, 3] = 0
                clean = M.forward(spec, params, Tensor4(data))
                assert np.isfinite(clean.data).all()


class TestBuildPureFoodNet:
    def test_structure_at_full_width(self):
        spec = M.build_purefoodnet(101, width_scale=1.0, input_side=224)
        convs = [l for l in spec.layers if l.kind == "conv"]
        pools = [l for l in spec.layers if l.kind == "pool"]
        denses = [l for l in spec.layers if l.kind == "dense"]
        norms = [l for l in spec.layers if l.kind == "batchnorm"]
        assert len(convs) == 8
        assert len(pools) == 3
        assert len(denses) == 2
        assert len(norms) == 8
        assert [l.filters for l in convs] == [128, 128, 256, 256, 256, 512, 512, 512]
        assert all(l.kernel == 3 and l.stride == 1 and l.padding == 1 for l in convs)
        assert all(l.activation == "relu" for l in convs)
        assert all(l.window == 2 and l.stride == 2 and l.mode == "max" for l in pools)
        assert denses[0].units == 512 and denses[0].activation == "relu"
        assert denses[1].units == 101 and denses[1].activation == "softmax"

    def test_batchnorm_follows_every_conv(self):
        spec = M.build_purefoodnet(10, width_scale=0.125, input_side=32)
        for idx, layer in enumerate(spec.layers):
            if layer.kind == "conv":
                assert spec.layers[idx + 1].kind == "batchnorm"

    def test_top_boundary_at_flatten(self):
        spec = M.build_purefoodnet(8, width_scale=0.125, input_side=32)
        assert spec.layers[spec.top_boundary].kind == "flatten"
        backbone = spec.layers[:spec.top_boundary]
        assert all(l.kind in ("conv", "batchnorm", "pool") for l in backbone)

    def test_width_scaling(self):
        spec = M.build_purefoodnet(8, width_scale=0.125, input_side=32)
        convs = [l.filters for l in spec.layers if l.kind == "conv"]
        assert convs == [16, 16, 32, 32, 32, 64, 64, 64]
        assert layer_named(spec, "fc1").units == 64

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            M.build_purefoodnet(1)
        with pytest.raises(ValueError):
            M.build_purefoodnet(10, width_scale=0.0)
        with pytest.raises(ValueError):
            M.build_purefoodnet(10, input_side=30)
        with pytest.raises(ValueError):
            M.build_purefoodnet(10, width_scale=0.001, input_side=32)

    def test_parameter_count_against_closed_form(self):
        spec = M.build_purefoodnet(8, width_scale=0.125, input_side=32)
        params = M.init_params(spec, seed=0)

        # Independent tally from the published layer dimensions.
        def conv(f, c):
            return f * 3 * 3 * c + f

        def bn(c):
            return 4 * c  # gamma, beta, and the two running statistics

        expected = (
            conv(16, 3) + bn(16) + conv(16, 16) + bn(16)
            + conv(32, 16) + bn(32) + conv(32, 32) + bn(32) + conv(32, 32) + bn(32)
            + conv(64, 32) + bn(64) + conv(64, 64) + bn(64) + conv(64, 64) + bn(64)
            + (4 * 4 * 64) * 64 + 64   # dense 4x4x64 -> 64
            + 64 * 8 + 8               # predictor
        )
        assert sum(arr.size for arr in params.values()) == expected


class TestTransferSurgery:
    def test_strip_counts_and_bits(self):
        spec = tiny_spec()
        params = M.init_params(spec, seed=9)
        backbone, bparams = M.strip_top_layers(spec, params)
        assert len(backbone.layers) == spec.top_boundary
        assert backbone.top_boundary == spec.top_boundary
        for name in bparams:
            np.testing.assert_array_equal(bparams[name], params[name])
        assert "fc.weights" not in bparams

    def test_backbone_forward_matches_boundary_activation(self):
        spec = tiny_spec()
        params = M.init_params(spec, seed=10)
        backbone, bparams = M.strip_top_layers(spec, params)
        x = Tensor4(np.random.default_rng(11).normal(size=(2, 8, 8, 2)).astype(np.float32))
        boundary_name = spec.layers[spec.top_boundary - 1].name
        want = M.capture_activations(spec, params, x, [boundary_name])[boundary_name]
        got = M.forward(backbone, bparams, x)
        np.testing.assert_array_equal(got.data, want.data)

    def test_attach_head(self):
        spec = tiny_spec(num_classes=3)
        params = M.init_params(spec, seed=12)
        new_spec, new_params = M.attach_head(spec, params, new_num_classes=7,
                                             units=5, seed=99)
        assert new_spec.layers[-1].units == 7
        assert new_spec.layers[-1].activation == "softmax"
        np.testing.assert_array_equal(new_params["c1.filters"], params["c1.filters"])
        assert new_params["fc1.weights"].shape == (64, 5)
        x = Tensor4(np.random.default_rng(13).normal(size=(3, 8, 8, 2)).astype(np.float32))
        probs = M.forward(new_spec, new_params, x)
        np.testing.assert_allclose(probs.data.sum(axis=3), 1.0, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", [0, 15, 99, 2024])
    def test_attach_head_draws_only_the_head(self, seed, dtype, monkeypatch):
        spec = M.build_purefoodnet(4, width_scale=0.125, input_side=32)
        params = M.init_params(spec, seed=seed + 1, dtype=dtype)
        backbone = {name: arr for name, arr in params.items()
                    if not name.startswith(("fc1.", "predictor."))}
        scans = count_finite_scans(monkeypatch)
        new_spec, new_params = M.attach_head(spec, params, new_num_classes=6, units=32,
                                             seed=seed)
        head = {name: arr for name, arr in new_params.items() if name not in backbone}
        # The old surgery: a whole fresh model, then the backbone stored over it.
        monkeypatch.undo()
        want = M.init_params(new_spec, seed=seed, dtype=dtype)
        for name, arr in backbone.items():
            want[name] = arr.copy()
        assert list(new_params) == list(want)
        for name in want:
            assert new_params[name].dtype == want[name].dtype
            assert new_params[name].tobytes() == want[name].tobytes()
            assert new_params[name] is not params.get(name)
        # Every value is scanned once: the backbone as it is stored, the head
        # as it is drawn.
        assert sorted(scans) == sorted(arr.size for arr in (*backbone.values(),
                                                             *head.values()))

    def test_attach_head_rejects_small_class_count(self):
        spec = tiny_spec()
        params = M.init_params(spec, seed=0)
        with pytest.raises(ValueError):
            M.attach_head(spec, params, new_num_classes=1)

    def test_strip_then_attach_keeps_boundary_behavior(self):
        spec = M.build_purefoodnet(4, width_scale=0.0625, input_side=16)
        params = M.init_params(spec, seed=14)
        new_spec, new_params = M.attach_head(spec, params, new_num_classes=4,
                                             units=layer_named(spec, "fc1").units, seed=15)
        x = Tensor4(np.random.default_rng(16).normal(size=(2, 16, 16, 3)).astype(np.float32))
        boundary = spec.layers[spec.top_boundary - 1].name
        a = M.capture_activations(spec, params, x, [boundary])[boundary]
        b = M.capture_activations(new_spec, new_params, x, [boundary])[boundary]
        np.testing.assert_array_equal(a.data, b.data)


class TestSetTrainable:
    def test_flags_flip(self):
        spec = tiny_spec()
        frozen = M.set_trainable(spec, ["c1", "bn1"], False)
        assert not layer_named(frozen, "c1").trainable
        assert not layer_named(frozen, "bn1").trainable
        assert layer_named(frozen, "fc").trainable
        thawed = M.set_trainable(frozen, ["c1"], True)
        assert layer_named(thawed, "c1").trainable

    def test_unknown_name(self):
        with pytest.raises(UnknownLayerError):
            M.set_trainable(tiny_spec(), ["ghost"], False)

    def test_trainable_param_names(self):
        spec = tiny_spec()
        names = M.trainable_param_names(spec)
        assert "c1.filters" in names and "bn1.gamma" in names
        assert "bn1.running_mean" not in names
        frozen = M.set_trainable(spec, ["c1", "bn1"], False)
        names = M.trainable_param_names(frozen)
        assert "c1.filters" not in names and "bn1.gamma" not in names
        assert "fc.weights" in names

    def test_penalized_weight_names(self):
        names = M.penalized_weight_names(tiny_spec())
        assert names == ["c1.filters", "fc.weights", "out.weights"]


class TestDeadFilters:
    def test_zeroed_filter_flagged_exactly(self):
        spec = tiny_spec()
        params = M.init_params(spec, seed=17, dtype=np.float64)
        params["c1.filters"][2] = 0.0
        params["c1.bias"][2] = 0.0
        probes = Tensor4(np.random.default_rng(18).normal(size=(16, 8, 8, 2)))
        report = M.dead_filter_report(spec, params, probes)
        by_layer = {entry.layer: entry for entry in report}
        assert by_layer["c1"].dead == (2,)
        assert by_layer["c1"].filter_count == 4

    def test_large_positive_bias_never_dead(self):
        spec = tiny_spec()
        params = M.init_params(spec, seed=19, dtype=np.float64)
        params["c1.bias"][:] = 10.0
        probes = Tensor4(np.random.default_rng(20).normal(size=(8, 8, 8, 2)))
        report = M.dead_filter_report(spec, params, probes)
        assert report[0].dead == ()

    def test_matches_independent_activation_scan(self):
        spec = M.build_purefoodnet(4, width_scale=0.125, input_side=32)
        params = M.init_params(spec, seed=21)
        probes = Tensor4(np.random.default_rng(22).normal(size=(6, 32, 32, 3)).astype(np.float32))
        report = M.dead_filter_report(spec, params, probes, threshold=1e-6)
        conv_names = [l.name for l in spec.layers if l.kind == "conv"]
        maps = M.capture_activations(spec, params, probes, conv_names)
        for entry in report:
            act = maps[entry.layer].data
            want = tuple(f for f in range(act.shape[3])
                         if (act[..., f] <= 1e-6).all())
            assert entry.dead == want


class TestSpecText:
    def test_round_trip(self):
        spec = tiny_spec()
        text = M.model_spec_text(spec)
        assert M.parse_model_spec(text) == spec

    def test_round_trip_with_frozen_layers(self):
        spec = M.set_trainable(tiny_spec(), ["c1", "bn1"], False)
        assert M.parse_model_spec(M.model_spec_text(spec)) == spec

    def test_purefoodnet_round_trip(self):
        spec = M.build_purefoodnet(8, width_scale=0.125, input_side=32)
        assert M.parse_model_spec(M.model_spec_text(spec)) == spec

    def test_digest_ignores_trainable_flags(self):
        spec = tiny_spec()
        frozen = M.set_trainable(spec, ["c1"], False)
        assert M.spec_digest(spec) == M.spec_digest(frozen)

    def test_digest_separates_architectures(self):
        assert M.spec_digest(tiny_spec(3)) != M.spec_digest(tiny_spec(4))

    def test_parse_errors(self):
        with pytest.raises(DataFormatError):
            M.parse_model_spec("nonsense\n")
        with pytest.raises(DataFormatError):
            M.parse_model_spec("input 4 4 1\ntop 0\nc1 conv filters=bad\n")
        with pytest.raises(DataFormatError):
            M.parse_model_spec("input 4 4 1\ntop 0\nc1 warp filters=1\n")

    def test_file_round_trip(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "model.spec"
        M.save_model_spec(path, spec)
        assert M.load_model_spec(path) == spec


class TestWeightsPFW1:
    def test_round_trip_bit_exact(self):
        spec = tiny_spec()
        params = M.init_params(spec, seed=23)
        buf = M.weights_to_bytes(spec, params)
        back = M.weights_from_bytes(buf, spec)
        assert list(back.keys()) == list(params.keys())
        for name in params:
            assert back[name].dtype == params[name].dtype
            assert back[name].shape == params[name].shape
            assert back[name].tobytes() == params[name].tobytes()
        assert M.weights_to_bytes(spec, back) == buf

    def test_file_round_trip(self, tmp_path):
        spec = tiny_spec()
        params = M.init_params(spec, seed=24, dtype=np.float64)
        path = tmp_path / "weights.pfw"
        M.save_weights(path, spec, params)
        back = M.load_weights(path, spec)
        assert back == params

    def test_file_is_written_from_the_arrays(self, tmp_path):
        # 16 MB of fc weights, one of them a transposed view: the file
        # holds the bytes `weights_to_bytes` gives, and writing it copies
        # only the view.
        spec = M.ModelSpec((1, 1, 2048), (M.dense_spec("fc", 2048),
                                          M.dense_spec("out", 64, "softmax")), 1)
        params = M.init_params(spec, seed=27)
        params["out.weights"] = np.ascontiguousarray(params["out.weights"].T).T
        path = tmp_path / "weights.pfw"
        tracemalloc.start()
        try:
            M.save_weights(path, spec, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.read_bytes() == M.weights_to_bytes(spec, params)
        assert peak < params["fc.weights"].nbytes / 8

    def test_digest_mismatch_rejected(self):
        spec_a, spec_b = tiny_spec(3), tiny_spec(4)
        params = M.init_params(spec_a, seed=25)
        buf = M.weights_to_bytes(spec_a, params)
        with pytest.raises(WeightDigestError):
            M.weights_from_bytes(buf, spec_b)

    def test_truncation_rejected(self):
        spec = tiny_spec()
        params = M.init_params(spec, seed=26)
        buf = M.weights_to_bytes(spec, params)
        with pytest.raises(DataFormatError):
            M.weights_from_bytes(buf[:-3], spec)
        with pytest.raises(DataFormatError):
            M.weights_from_bytes(buf + b"\x00", spec)

    def test_overflowing_dims_name_the_parameter(self):
        spec = tiny_spec()
        buf = bytearray(M.weights_to_bytes(spec, M.init_params(spec, seed=28)))
        first = buf.index(b"c1.filters") + len("c1.filters")
        # Dims whose product wraps to 0 in 64 bits.
        buf[first + 5:first + 37] = struct.pack("<4Q", 2**32, 2**32, 2**32, 1)
        with pytest.raises(DataFormatError, match="'c1.filters'"):
            M.weights_from_bytes(bytes(buf), spec)

    def test_loaded_parameters_are_separate_writable_arrays(self):
        spec = tiny_spec()
        buf = M.weights_to_bytes(spec, M.init_params(spec, seed=30))
        arrays = list(M.weights_from_bytes(buf, spec).values())
        file_bytes = np.frombuffer(buf, dtype=np.uint8)
        for j, arr in enumerate(arrays):
            assert arr.flags.writeable and arr.flags.c_contiguous and arr.dtype.isnative
            assert not np.shares_memory(arr, file_bytes)
            assert not any(np.shares_memory(arr, other) for other in arrays[j + 1:])

    @pytest.mark.parametrize("cut", [0, 43, 60, -3, None])
    def test_file_and_bytes_fail_alike(self, tmp_path, cut):
        spec = tiny_spec()
        buf = M.weights_to_bytes(spec, M.init_params(spec, seed=31))
        buf = buf + b"\x00" if cut is None else buf[:cut]
        path = tmp_path / "weights.pfw"
        path.write_bytes(buf)
        with pytest.raises(DataFormatError) as from_bytes:
            M.weights_from_bytes(buf, spec)
        with pytest.raises(DataFormatError) as from_file:
            M.load_weights(path, spec)
        assert str(from_file.value) == str(from_bytes.value)

    def test_nonfinite_value_past_the_first_chunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(TN, "_FINITE_CHUNK", 4)
        spec = tiny_spec()
        params = M.init_params(spec, seed=32)
        M.save_weights(tmp_path / "ok.pfw", spec, params)
        assert M.load_weights(tmp_path / "ok.pfw", spec) == params
        buf = bytearray(M.weights_to_bytes(spec, params))
        end = buf.index(b"fc.weights") + len("fc.weights") + 37 + params["fc.weights"].nbytes
        buf[end - 4:end] = struct.pack("<f", np.inf)  # the last value of fc.weights
        (tmp_path / "bad.pfw").write_bytes(buf)
        with pytest.raises(DataFormatError, match="parameter 'fc.weights' must be finite"):
            M.load_weights(tmp_path / "bad.pfw", spec)

    def test_records_out_of_spec_order_are_refused(self):
        spec = tiny_spec()
        params = M.init_params(spec, seed=35)

        def pfw1(order):
            return M.weights_to_bytes(spec, params)[:44] + b"".join(
                struct.pack("<I", len(name)) + name.encode("utf-8") + TN.pft1_encode(params[name])
                for name in order)

        order = list(params)
        assert pfw1(order) == M.weights_to_bytes(spec, params)
        j = order.index("bn1.gamma")
        order[j:j + 2] = ["bn1.beta", "bn1.gamma"]  # same shape: each record alone is valid
        with pytest.raises(DataFormatError,
                           match="names parameter 'bn1.beta' where 'bn1.gamma' belongs"):
            M.weights_from_bytes(pfw1(order), spec)

    @pytest.mark.parametrize("low", [-1.0, -1e-7])
    def test_negative_running_variance_names_the_parameter(self, low):
        spec = tiny_spec()
        params = M.init_params(spec, seed=33)
        params["bn1.running_var"] = np.array([low, 1.0, 1.0, 1.0], dtype=np.float32)
        buf = M.weights_to_bytes(spec, params)
        with pytest.raises(DataFormatError,
                           match="'bn1.running_var': running_var must be nonnegative"):
            M.weights_from_bytes(buf, spec)

    def test_bad_magic(self):
        spec = tiny_spec()
        params = M.init_params(spec, seed=27)
        buf = bytearray(M.weights_to_bytes(spec, params))
        buf[0] = ord("x")
        with pytest.raises(DataFormatError):
            M.weights_from_bytes(bytes(buf), spec)


class TestDecodersScanOnce:
    """A decoder leaves the finiteness scan to the gate it stores values through."""

    def test_load_weights_scans_each_parameter_once(self, tmp_path, monkeypatch):
        spec = tiny_spec()
        params = M.init_params(spec, seed=36)
        M.save_weights(tmp_path / "w.pfw", spec, params)
        scans = count_finite_scans(monkeypatch)
        back = M.load_weights(tmp_path / "w.pfw", spec)
        assert scans == [arr.size for arr in params.values()]
        assert back == params

    def test_load_tensor_scans_once(self, tmp_path, monkeypatch):
        x = Tensor4(np.arange(24, dtype=np.float32).reshape(1, 2, 3, 4))
        TN.save_tensor(tmp_path / "x.pft", x)
        scans = count_finite_scans(monkeypatch)
        back = TN.load_tensor(tmp_path / "x.pft")
        assert scans == [24]
        assert back.data.tobytes() == x.data.tobytes()
