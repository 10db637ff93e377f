"""Tensor container, shape arithmetic, and PFT1 serialization tests."""

import io
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from purefoodnet import tensor as tensor_module
from purefoodnet import workers as W
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
    pft1_read,
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


@pytest.fixture(params=[1, 2, 3])
def split_workers(request, monkeypatch):
    """The worker count, with the split gate at 0 bytes."""
    monkeypatch.setattr(W, "_WORKERS", request.param)
    monkeypatch.setattr(W, "_ONE_BLOCK_BYTES", 0)
    return request.param


def spy_on_jobs(monkeypatch) -> list:
    """The number of jobs of each `workers.run_jobs` call from now on."""
    calls = []
    real = W.run_jobs

    def spy(jobs):
        calls.append(len(jobs))
        return real(jobs)

    monkeypatch.setattr(W, "run_jobs", spy)
    return calls


class TestSplitFinite:
    """A C-contiguous array past the gate is scanned in one share per worker,
    each through its part of one buffer made on the calling thread."""

    @pytest.mark.parametrize("chunk", [5, 1 << 20])
    def test_finds_every_nonfinite_value_wherever_it_is(self, chunk, split_workers,
                                                       monkeypatch):
        # 5-value buffers split among the workers put piece edges all over
        # each share; every position is tried, share edges included.
        monkeypatch.setattr(tensor_module, "_FINITE_CHUNK", chunk)
        base = np.random.default_rng(3).normal(size=(3, 4, 5)).astype(np.float32)
        assert all_finite(base)
        for at in range(base.size):
            for value in (np.nan, np.inf, -np.inf):
                arr = base.copy()
                arr.reshape(-1)[at] = value
                assert not all_finite(arr), (at, value)

    def test_one_share_per_worker_through_one_buffer(self, split_workers, monkeypatch):
        scans = []
        real = tensor_module._scan_finite

        def spy(flat, buf):
            scans.append((flat.size, buf.size, buf.base, threading.get_ident()))
            return real(flat, buf)

        monkeypatch.setattr(tensor_module, "_scan_finite", spy)
        assert all_finite(np.zeros((7, 11)))
        assert [size for size, *_ in scans] == [hi - lo for lo, hi in W.shares(77)]
        assert sum(part for _, part, *_ in scans) == tensor_module._FINITE_CHUNK
        assert len({id(base) for *_, base, _ in scans}) == 1  # parts of one buffer
        threads = [thread for *_, thread in scans]
        assert threads[0] == threading.get_ident()
        assert all(thread != threading.get_ident() for thread in threads[1:])

    def test_a_strided_array_takes_the_chunked_path(self, split_workers, monkeypatch):
        jobs = spy_on_jobs(monkeypatch)
        base = np.random.default_rng(4).normal(size=(6, 8))
        for view in (lambda a: a[:, ::2], lambda a: a.T, lambda a: np.asfortranarray(a)):
            arr = base.copy()
            assert all_finite(view(arr))
            arr[5, 6] = -np.inf
            assert not all_finite(view(arr))
        assert jobs == []


class TestSplitRead:
    """A PFT1 payload past the gate in a file is read in one slice per worker
    with os.preadv: the array, and the stream's position after it, are those
    `readinto` gives."""

    first = np.random.default_rng(6).normal(size=(1, 3, 5, 7)).astype(np.float32)
    second = np.random.default_rng(7).normal(size=(2, 2, 3, 1))

    def file_of_two_records(self, tmp_path):
        blob = b"head" + pft1_encode(self.first) + pft1_encode(self.second)
        path = tmp_path / "two.pft"
        path.write_bytes(blob)
        return path, blob

    @pytest.mark.parametrize("buffering", [0, -1])
    def test_slices_give_the_bytes_of_readinto(self, tmp_path, split_workers, buffering,
                                               monkeypatch):
        path, blob = self.file_of_two_records(tmp_path)
        jobs = spy_on_jobs(monkeypatch)
        want, end = pft1_decode(blob[4:])  # an in-memory stream: readinto
        assert jobs == []
        with open(path, "rb", buffering=buffering) as fh:
            fh.read(4)
            got = pft1_read(fh, len(blob) - 4)
            assert fh.tell() == 4 + end
            after = pft1_read(fh, len(blob) - fh.tell())
            assert fh.tell() == len(blob) and fh.read() == b""
        assert jobs == [min(split_workers, self.first.nbytes),
                        min(split_workers, self.second.nbytes)]
        assert got.dtype == want.dtype == np.float32 and got.tobytes() == want.tobytes()
        assert got.flags.writeable and got.flags.c_contiguous
        assert after.shape == (2, 2, 3, 1) and after.tobytes() == self.second.tobytes()

    def test_a_file_cut_after_it_was_measured_raises(self, tmp_path, split_workers):
        # Cut inside the first payload, at each share edge among others,
        # the first record raises as readinto would; cut inside the second,
        # the first still parses and the second raises.
        path, blob = self.file_of_two_records(tmp_path)
        first_end = 4 + 37 + self.first.nbytes
        edges = [4 + 37 + lo for lo, _ in W.shares(self.first.nbytes)]
        for cut in sorted({*edges, *(e + 1 for e in edges), *(e - 1 for e in edges[1:]),
                           first_end - 1, first_end + 37 + 1, len(blob) - 1}):
            path.write_bytes(blob)
            with open(path, "rb") as fh:
                fh.read(4)
                os.truncate(path, cut)
                if cut < first_end:
                    with pytest.raises(DataFormatError, match=(
                            f"PFT1 payload length {cut - 41}, expected {self.first.nbytes}")):
                        pft1_read(fh, len(blob) - 4)
                    continue
                got = pft1_read(fh, len(blob) - 4)
                assert got.tobytes() == self.first.tobytes() and fh.tell() == first_end
                with pytest.raises(DataFormatError, match=(
                        f"PFT1 payload length {cut - first_end - 37}, "
                        f"expected {self.second.nbytes}")):
                    pft1_read(fh, len(blob) - first_end)

    def test_bytes_io_keeps_readinto(self, split_workers, monkeypatch):
        blob = pft1_encode(self.second)  # scanned past the gate: before the spy
        jobs = spy_on_jobs(monkeypatch)
        fh = io.BytesIO(blob)
        assert pft1_read(fh, len(blob)).tobytes() == self.second.tobytes()
        assert fh.tell() == len(blob) and jobs == []


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
