"""Tensor container, shape arithmetic, and PFT1 serialization tests."""

import struct
import tracemalloc

import numpy as np
import pytest

from purefoodnet import tensor as tensor_module
from purefoodnet.errors import DataFormatError, GeometryError, NonFiniteError, ShapeError
from purefoodnet.tensor import (
    ConvGeometry,
    Tensor4,
    all_finite,
    atomic_write_bytes,
    conv_output_size,
    load_tensor,
    pft1_decode,
    pft1_encode,
    same_padding_amount,
    save_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
)


def placements_oracle(i, k, z, s):
    """Count kernel placements by walking start offsets over the padded axis."""
    padded = i + 2 * z
    count = 0
    start = 0
    while start + k <= padded:
        count += 1
        start += s
    return count


class TestConvOutputSize:
    def test_known_cases(self):
        # 5-wide input, 3-wide kernel, no padding, stride 2 -> 3 placements
        assert conv_output_size(5, ConvGeometry(k=3, s=2, z=1)) == 3
        assert conv_output_size(7, ConvGeometry(k=1, s=1, z=0)) == 7
        assert conv_output_size(28, ConvGeometry(k=5, s=1, z=2)) == 28
        assert conv_output_size(32, ConvGeometry(k=3, s=1, z=1)) == 32
        assert conv_output_size(4, ConvGeometry(k=2, s=2, z=0)) == 2

    def test_matches_placement_count_exhaustively(self):
        for i in range(1, 33):
            for k in range(1, 8):
                for z in range(0, 4):
                    for s in range(1, 4):
                        if i - k + 2 * z < 0:
                            with pytest.raises(GeometryError):
                                conv_output_size(i, ConvGeometry(k=k, s=s, z=z))
                        else:
                            got = conv_output_size(i, ConvGeometry(k=k, s=s, z=z))
                            assert got == placements_oracle(i, k, z, s), (i, k, z, s)

    def test_rejects_impossible_geometry(self):
        with pytest.raises(GeometryError):
            conv_output_size(3, ConvGeometry(k=5, s=1, z=0))

    def test_geometry_validation(self):
        with pytest.raises(GeometryError):
            ConvGeometry(k=0)
        with pytest.raises(GeometryError):
            ConvGeometry(k=3, s=0)
        with pytest.raises(GeometryError):
            ConvGeometry(k=3, s=1, z=-1)


class TestSamePadding:
    def test_known_values(self):
        assert same_padding_amount(1) == 0
        assert same_padding_amount(3) == 1
        assert same_padding_amount(5) == 2
        assert same_padding_amount(7) == 3

    def test_preserves_size_for_odd_kernels(self):
        for k in range(1, 10, 2):
            z = same_padding_amount(k)
            for i in range(k, 40):
                assert conv_output_size(i, ConvGeometry(k=k, s=1, z=z)) == i


class TestTensor4:
    def test_wraps_and_freezes(self):
        arr = np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2)
        t = Tensor4(arr)
        assert t.shape == (2, 3, 2, 2)
        with pytest.raises(ValueError):
            t.data[0, 0, 0, 0] = 99.0

    def test_copies_views(self):
        base = np.zeros((4, 2, 2, 1), dtype=np.float64)
        t = Tensor4(base[:2])
        base[0, 0, 0, 0] = 7.0
        assert t.data[0, 0, 0, 0] == 0.0

    def test_rejects_bad_rank_and_dtype(self):
        with pytest.raises(ShapeError):
            Tensor4(np.zeros((2, 2, 2), dtype=np.float32))
        with pytest.raises(ShapeError):
            Tensor4(np.zeros((2, 2, 2, 2), dtype=np.int64))

    def test_rejects_nonfinite(self):
        arr = np.zeros((1, 1, 1, 1), dtype=np.float32)
        arr[0, 0, 0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            Tensor4(arr)
        arr[0, 0, 0, 0] = np.inf
        with pytest.raises(NonFiniteError):
            Tensor4(arr)

    def test_rejects_nonfinite_past_the_first_chunk(self, monkeypatch):
        monkeypatch.setattr(tensor_module, "_FINITE_CHUNK", 4)
        arr = np.zeros((3, 2, 2, 2), dtype=np.float32)
        arr[2, 1, 1, 1] = np.inf
        with pytest.raises(NonFiniteError, match="Tensor4 values must be finite"):
            Tensor4(arr)
        with pytest.raises(NonFiniteError, match="Tensor4 values must be finite"):
            Tensor4(arr.transpose(3, 1, 2, 0))  # not contiguous


class TestAllFinite:
    @pytest.mark.parametrize("chunk", [1, 3, 1 << 20])
    def test_matches_isfinite_all(self, chunk, monkeypatch):
        monkeypatch.setattr(tensor_module, "_FINITE_CHUNK", chunk)
        views = (lambda a: a, lambda a: a.transpose(2, 0, 1), lambda a: a[:, ::2],
                 lambda a: a[1:3, 1:3, 1:], lambda a: a.reshape(-1), lambda a: a[2, 1, 0],
                 lambda a: a[:0])
        base = np.random.default_rng(3).normal(size=(5, 4, 3)).astype(np.float32)
        for value in (None, np.nan, np.inf, -np.inf):
            for at in ((0, 0, 0), (4, 3, 2), (2, 1, 0)):
                arr = base.copy()
                if value is not None:
                    arr[at] = value
                for view in views:
                    assert all_finite(view(arr)) == bool(np.isfinite(view(arr)).all())

    def test_bounds_the_boolean_temporary(self):
        arr = np.zeros(1 << 24, dtype=np.float32)  # 16 M values, a 16 MB mask at once
        tracemalloc.start()
        try:
            assert all_finite(arr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


class TestPFT1:
    def test_bytes_round_trip_f32(self):
        rng = np.random.default_rng(17)
        x = Tensor4(rng.normal(size=(2, 3, 4, 5)).astype(np.float32))
        buf = tensor_to_bytes(x)
        assert buf[:4] == b"PFT1"
        assert buf[4] == 0
        back = tensor_from_bytes(buf)
        assert back.dtype == np.float32
        assert np.array_equal(back.data, x.data)
        assert tensor_to_bytes(back) == buf

    def test_bytes_round_trip_f64(self):
        rng = np.random.default_rng(19)
        x = Tensor4(rng.normal(size=(1, 2, 2, 3)))
        buf = tensor_to_bytes(x)
        assert buf[4] == 1
        back = tensor_from_bytes(buf)
        assert back.dtype == np.float64
        assert back.data.tobytes() == x.data.tobytes()

    def test_header_layout(self):
        x = Tensor4(np.zeros((1, 2, 3, 4), dtype=np.float32))
        buf = tensor_to_bytes(x)
        assert len(buf) == 4 + 1 + 32 + 24 * 4
        dims = np.frombuffer(buf[5:37], dtype="<u8")
        assert list(dims) == [1, 2, 3, 4]

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        x = Tensor4(rng.normal(size=(3, 5, 4, 2)).astype(np.float32))
        path = tmp_path / "t.pft"
        save_tensor(path, x)
        back = load_tensor(path)
        assert np.array_equal(back.data, x.data)
        assert path.read_bytes() == tensor_to_bytes(x)

    def test_rejects_bad_magic(self):
        x = Tensor4(np.zeros((1, 1, 1, 1), dtype=np.float32))
        buf = bytearray(tensor_to_bytes(x))
        buf[0] = ord("X")
        with pytest.raises(DataFormatError):
            tensor_from_bytes(bytes(buf))

    def test_rejects_truncation_and_padding(self):
        x = Tensor4(np.zeros((1, 1, 2, 2), dtype=np.float64))
        buf = tensor_to_bytes(x)
        with pytest.raises(DataFormatError):
            tensor_from_bytes(buf[:-1])
        with pytest.raises(DataFormatError):
            tensor_from_bytes(buf + b"\x00")

    def test_rejects_unknown_dtype_code(self):
        x = Tensor4(np.zeros((1, 1, 1, 1), dtype=np.float32))
        buf = bytearray(tensor_to_bytes(x))
        buf[4] = 9
        with pytest.raises(DataFormatError):
            tensor_from_bytes(bytes(buf))


    def test_rejects_zero_dim_and_nonfinite_values(self):
        buf = bytearray(tensor_to_bytes(Tensor4(np.ones((1, 1, 2, 2), dtype=np.float32))))
        zero_dim = bytes(buf[:13]) + struct.pack("<3Q", 0, 2, 2)  # dims (1, 0, 2, 2), no payload
        with pytest.raises(DataFormatError, match="dims"):
            tensor_from_bytes(zero_dim)
        buf[37:41] = struct.pack("<f", np.nan)
        with pytest.raises(DataFormatError, match="finite"):
            tensor_from_bytes(bytes(buf))

    def test_codec_pads_lower_ranks_and_decodes_fresh_arrays(self):
        vec = np.arange(3, dtype=np.float64)
        buf = pft1_encode(vec)
        assert struct.unpack_from("<4Q", buf, 5) == (1, 1, 1, 3)
        arr, end = pft1_decode(buf + b"xx")
        assert end == len(buf)
        assert arr.shape == (1, 1, 1, 3) and arr.flags.writeable and arr.dtype.isnative
        np.testing.assert_array_equal(arr.reshape(3), vec)
        with pytest.raises(ShapeError):
            pft1_encode(np.zeros((1,) * 5))
        with pytest.raises(ShapeError):
            pft1_encode(np.zeros(3, dtype=np.int64))


class TestAtomicWrite:
    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "target"
        target.mkdir()
        with pytest.raises(OSError):
            atomic_write_bytes(target, b"payload")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["target"]

    def test_temp_name_unique_per_call(self, tmp_path, monkeypatch):
        sources = []
        real_replace = tensor_module.os.replace

        def recording_replace(src, dst):
            sources.append(src)
            real_replace(src, dst)

        monkeypatch.setattr(tensor_module.os, "replace", recording_replace)
        target = tmp_path / "out.bin"
        atomic_write_bytes(target, b"one")
        atomic_write_bytes(target, b"two")
        assert len(set(sources)) == 2
        assert target.read_bytes() == b"two"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]
