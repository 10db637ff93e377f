"""Dense 4-D tensors and convolution shape arithmetic.

Everything that flows between layers is a `Tensor4` in row-major
(i, h, w, c) layout: batch, height, width, channels. Vectors and matrices
are carried as degenerate shapes such as (i, 1, 1, n). Values are 32- or
64-bit floats and must be finite; construction validates both.

The module also implements the "PFT1" binary tensor record, used for
debugging dumps and as the payload encoding inside weight files. Each value
is scanned for finiteness once, by `all_finite` at the gate it enters
through, so the PFT1 decoder leaves its values to its caller's gate.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import struct
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import workers
from .errors import DataFormatError, GeometryError, NonFiniteError, ShapeError

DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
PFT1_MAGIC = b"PFT1"


@dataclass(frozen=True)
class ConvGeometry:
    """Square-kernel convolution geometry: kernel side k, stride s, padding z."""

    k: int
    s: int = 1
    z: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise GeometryError(f"kernel side must be >= 1, got {self.k}")
        if self.s < 1:
            raise GeometryError(f"stride must be >= 1, got {self.s}")
        if self.z < 0:
            raise GeometryError(f"padding must be >= 0, got {self.z}")


# Finiteness is checked this many values at a time, so the boolean temporary
# stays small however large the array is.
_FINITE_CHUNK = 1 << 20


def all_finite(arr: np.ndarray) -> bool:
    """`np.isfinite(arr).all()`, taken _FINITE_CHUNK values at a time: one
    share per worker, each through its part of one buffer made here, for a
    C-contiguous array over workers._ONE_BLOCK_BYTES; else copied one chunk
    at a time where the array is not contiguous."""
    if arr.nbytes > workers._ONE_BLOCK_BYTES and arr.flags.c_contiguous:
        flat, bounds = arr.reshape(-1), workers.shares(arr.size)
        parts = np.array_split(np.empty(_FINITE_CHUNK, bool), len(bounds))
        return all(workers.run_jobs([partial(_scan_finite, flat[lo:hi], part)
                                     for (lo, hi), part in zip(bounds, parts)]))
    chunks = np.nditer(arr, flags=["external_loop", "buffered", "zerosize_ok"],
                       buffersize=_FINITE_CHUNK)
    return all(np.isfinite(chunk).all() for chunk in chunks)


def _scan_finite(flat: np.ndarray, buf: np.ndarray) -> bool:
    """Whether every value of the 1-D `flat` is finite, scanned through `buf`."""
    return all(np.isfinite(piece, out=buf[:piece.size]).all()
               for piece in np.array_split(flat, -(-flat.size // buf.size)))


class Tensor4:
    """Immutable dense rank-4 array of finite 32- or 64-bit floats.

    The wrapped ndarray is marked read-only; operations return new tensors.
    """

    __slots__ = ("_data",)

    def __init__(self, data: np.ndarray):
        arr = np.asarray(data)
        if arr.ndim != 4:
            raise ShapeError(f"Tensor4 needs a rank-4 array, got rank {arr.ndim}")
        if arr.dtype not in DTYPE_CODES:
            raise ShapeError(f"Tensor4 dtype must be float32 or float64, got {arr.dtype}")
        if any(d < 1 for d in arr.shape):
            raise ShapeError(f"Tensor4 dims must all be >= 1, got {arr.shape}")
        if not all_finite(arr):
            raise NonFiniteError("Tensor4 values must be finite")
        # Detach from shared buffers so the read-only flag actually protects us.
        if not arr.flags.owndata or not arr.flags.c_contiguous:
            arr = np.array(arr, order="C")
        arr.setflags(write=False)
        object.__setattr__(self, "_data", arr)

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self._data.shape

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def i(self) -> int:
        return self._data.shape[0]

    @property
    def h(self) -> int:
        return self._data.shape[1]

    @property
    def w(self) -> int:
        return self._data.shape[2]

    @property
    def c(self) -> int:
        return self._data.shape[3]

    def __repr__(self):
        i, h, w, c = self._data.shape
        return f"Tensor4(i={i}, h={h}, w={w}, c={c}, dtype={self._data.dtype})"


def conv_output_size(i: int, g: ConvGeometry) -> int:
    """Output side length for input side i under geometry g.

    o = floor((i - k + 2z) / s) + 1, integer arithmetic throughout.
    """
    if i < 1:
        raise GeometryError(f"input side must be >= 1, got {i}")
    span = i - g.k + 2 * g.z
    if span < 0:
        raise GeometryError(
            f"kernel cannot be placed: i={i}, k={g.k}, z={g.z} gives i - k + 2z = {span} < 0"
        )
    return span // g.s + 1


def same_padding_amount(k: int) -> int:
    """Per-side zero padding that preserves size at stride 1: ceil((k-1)/2)."""
    if k < 1:
        raise GeometryError(f"kernel side must be >= 1, got {k}")
    # ceil((k - 1) / 2) == k // 2 for positive integers
    return k // 2


# ---------------------------------------------------------------------------
# PFT1 binary tensor format: b"PFT1", dtype byte (0=f32, 1=f64), four u64 LE
# shape fields (i, h, w, c), then raw little-endian values in row-major order.
# The codec works on plain ndarrays; PFW1 weight files reuse it per parameter.
# ---------------------------------------------------------------------------

def pft1_parts(arr: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The header of the PFT1 record of an array of rank <= 4, and its values
    as a C-contiguous little-endian array (`arr` itself when it is one, so a
    writer can hand the values to a file uncopied). A lower rank is stored
    with leading unit dims, so a (c,) vector is written as (1, 1, 1, c)."""
    code = DTYPE_CODES.get(arr.dtype)
    if code is None:
        raise ShapeError(f"PFT1 dtype must be float32 or float64, got {arr.dtype}")
    if arr.ndim > 4 or 0 in arr.shape:
        raise ShapeError(f"PFT1 needs rank <= 4 and dims >= 1, got shape {arr.shape}")
    if not all_finite(arr):
        raise NonFiniteError("PFT1 values must be finite")
    dims = (1,) * (4 - arr.ndim) + arr.shape
    return (PFT1_MAGIC + bytes([code]) + struct.pack("<4Q", *dims),
            np.ascontiguousarray(arr, dtype=CODE_DTYPES[code]))


def pft1_encode(arr: np.ndarray) -> bytes:
    """One PFT1 record for an array of rank <= 4 (`pft1_parts`, joined)."""
    return b"".join(pft1_parts(arr))


def pft1_read(fh, remaining: int) -> np.ndarray:
    """The 4-D array of the PFT1 record at the binary stream's position, read
    straight into one fresh, writable, native-order array; its caller's gate
    (`Tensor4`, `ParamStore`) checks the values. `remaining` is the number of
    bytes the stream holds from there; the payload size is a Python int
    checked against it before allocating, so dims whose product overflows 64
    bits cannot wrap. A payload over workers._ONE_BLOCK_BYTES in a file is
    read in one slice per worker, each with `os.preadv` straight into its
    part of the array, and the stream is then set to the record's end."""
    if remaining < 37:
        raise DataFormatError(f"PFT1 data truncated: {remaining} bytes")
    head = fh.read(37)
    if len(head) < 37:
        raise DataFormatError(f"PFT1 data truncated: {len(head)} bytes")
    if head[:4] != PFT1_MAGIC:
        raise DataFormatError(f"bad PFT1 magic {head[:4]!r}")
    code = head[4]
    if code not in CODE_DTYPES:
        raise DataFormatError(f"unknown PFT1 dtype code {code}")
    dims = struct.unpack_from("<4Q", head, 5)
    if 0 in dims:
        raise DataFormatError(f"PFT1 dims must all be >= 1, got {dims}")
    dtype = CODE_DTYPES[code]
    nbytes = math.prod(dims) * dtype.itemsize
    if nbytes > remaining - 37:
        raise DataFormatError(f"PFT1 payload length {remaining - 37}, expected {nbytes}")
    arr = np.empty(dims, dtype=dtype)
    if (nbytes > workers._ONE_BLOCK_BYTES and hasattr(os, "preadv")
            and isinstance(fh, (io.BufferedReader, io.FileIO))):
        start, raw = fh.tell(), arr.reshape(-1).view(np.uint8)
        got = sum(workers.run_jobs([partial(_pread_into, fh.fileno(), raw[lo:hi], start + lo)
                                    for lo, hi in workers.shares(nbytes)]))
        fh.seek(start + got)
    else:
        got = fh.readinto(arr)
    if got != nbytes:  # the stream shrank after `remaining` was measured
        raise DataFormatError(f"PFT1 payload length {got}, expected {nbytes}")
    if not dtype.isnative:
        arr = arr.astype(dtype.newbyteorder("="))
    return arr


def _pread_into(fd: int, buf: np.ndarray, offset: int) -> int:
    """Bytes read into `buf` from the file at `offset`: all, or all there are."""
    got = 0
    while got < buf.size and (n := os.preadv(fd, [buf[got:]], offset + got)):
        got += n
    return got


def pft1_decode(buf: bytes) -> tuple[np.ndarray, int]:
    """`pft1_read` of the record at the start of buf, plus the record's end offset."""
    fh = io.BytesIO(buf)
    return pft1_read(fh, len(buf)), fh.tell()


def tensor_to_bytes(x: Tensor4) -> bytes:
    return pft1_encode(x.data)


def tensor_from_bytes(buf: bytes) -> Tensor4:
    arr, end = pft1_decode(buf)
    if end != len(buf):
        raise DataFormatError(f"PFT1 payload length {len(buf) - 37}, expected {end - 37}")
    try:
        return Tensor4(arr)
    except NonFiniteError as e:
        raise DataFormatError(str(e)) from None


def save_tensor(path, x: Tensor4) -> None:
    atomic_write_bytes(path, tensor_to_bytes(x))


def load_tensor(path) -> Tensor4:
    with open(path, "rb") as fh:
        return tensor_from_bytes(fh.read())


def decode_utf8(blob: bytes, what: str) -> str:
    """blob as UTF-8 text; bytes that are not UTF-8 raise DataFormatError."""
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{what} is not valid UTF-8 (byte {exc.start})") from None


def check_round_trip(lines, written: str) -> None:
    """Raise DataFormatError at the first (line number, text) pair of `lines`
    whose text is not its line of `written`, the writer's text for them."""
    for (lineno, line), want in zip(lines, written.splitlines(), strict=True):
        if line != want:
            raise DataFormatError(f"line {lineno}: expected {want!r}, got {line!r}")


_temp_ids = itertools.count()


def atomic_write_bytes(path, *chunks) -> None:
    """Write the bytes-like `chunks`, in order, via a temp file in the same
    directory, then rename into place. The temp name is unique per call; a
    failed write removes it."""
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}.{next(_temp_ids)}"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
