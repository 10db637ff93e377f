"""Dataset ingestion: directory-per-class corpora, seeded split manifests,
binary PPM/PGM codecs, and the batch stream that feeds training.

The native image format is 8-bit binary PPM (P6); anything else is
expected to be pre-converted. Manifests are plain text and round-trip
byte-identically.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .augment import AugmentPolicy, apply_policy, bilinear_resize, policy_rng
from .errors import DataError, DataFormatError, ShapeError
from .evaluation import one_hot_matrix
from .seeding import derive_seed
from .tensor import Tensor4, atomic_write_bytes, check_round_trip, decode_utf8

__all__ = [
    "DatasetManifest",
    "ImageRecord",
    "ManifestRecord",
    "batch_iterator",
    "build_manifest",
    "center_crop_square",
    "load_image",
    "load_manifest",
    "manifest_from_text",
    "manifest_to_text",
    "pack_image",
    "read_pgm",
    "rescale_max_side",
    "save_image",
    "save_manifest",
    "write_pgm",
]

SPLITS = ("train", "val", "test")
IMAGE_SUFFIX = ".ppm"
# Bytes of packed pixels one PackedStore keeps. A packed 224^2 image is 1.2 MB,
# so a paper-scale split outgrows it and its later images decode every pass.
_STORE_BYTES = 256 * 2**20


# ---------------------------------------------------------------------------
# PPM / PGM codecs


# Three decimal fields, each after whitespace or '#' comments that run to the
# end of the line, then exactly one whitespace byte before the payload.
_NETPBM_FIELDS = re.compile(rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def _parse_netpbm_header(blob: bytes, magic: bytes, path) -> tuple:
    """Return (fields..., payload offset) for a P5/P6 header; '#' comments ok."""
    if not blob.startswith(magic):
        raise DataFormatError(f"{path}: not a {magic.decode()} file")
    if not blob[len(magic):len(magic) + 1].isspace():
        raise DataFormatError(f"{path}: no whitespace after {magic.decode()}")
    match = _NETPBM_FIELDS.match(blob, len(magic))
    if match is None:
        raise DataFormatError(f"{path}: malformed {magic.decode()} header")
    try:
        width, height, maxval = (int(field) for field in match.groups())
    except ValueError:  # more digits than int() converts
        raise DataFormatError(f"{path}: header number too long") from None
    if width < 1 or height < 1:
        raise DataFormatError(f"{path}: bad dimensions {width}x{height}")
    if maxval != 255:
        raise DataFormatError(f"{path}: unsupported maxval {maxval} (need 255)")
    return width, height, match.end()


def _read_file(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


@dataclass(frozen=True)
class ImageRecord:
    """A decoded image: (h, w, 3) values in [0, 1] plus where it came from."""

    pixels: np.ndarray
    source: str

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 3 or arr.shape[2] != 3 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError(f"{self.source}: expected (h, w, 3) pixels, got {arr.shape}")


def _read_netpbm(path, magic: bytes, channels: int) -> np.ndarray:
    """(h, w, channels) floats in [0, 1] of a binary netpbm file (maxval 255)."""
    blob = _read_file(path)
    width, height, offset = _parse_netpbm_header(blob, magic, path)
    need = width * height * channels
    payload = blob[offset:]
    if len(payload) != need:
        raise DataFormatError(f"{path}: expected {need} pixel bytes, got {len(payload)}")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return pixels.astype(np.float64) / 255.0


def _write_netpbm(path, arr: np.ndarray, magic: bytes) -> None:
    """Quantize floats in [0, 1] to a binary netpbm file (maxval 255)."""
    data = np.clip(np.rint(arr * 255.0), 0, 255).astype(np.uint8)
    header = b"%s\n%d %d\n255\n" % (magic, arr.shape[1], arr.shape[0])
    atomic_write_bytes(path, header + data.tobytes())


def load_image(path) -> ImageRecord:
    """Decode a binary PPM (P6, maxval 255) into floats in [0, 1]."""
    return ImageRecord(_read_netpbm(path, b"P6", 3), str(path))


def save_image(path, pixels) -> None:
    """Quantize floats in [0, 1] to a binary PPM."""
    arr = np.asarray(pixels)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ShapeError(f"expected (h, w, 3) pixels, got {arr.shape}")
    _write_netpbm(path, arr, b"P6")


def read_pgm(path) -> np.ndarray:
    """Decode a binary PGM (P5, maxval 255) into (h, w) floats in [0, 1]."""
    return _read_netpbm(path, b"P5", 1)[:, :, 0]


def write_pgm(path, values) -> None:
    """Quantize a (h, w) float array in [0, 1] to a binary PGM."""
    arr = np.asarray(values)
    if arr.ndim != 2:
        raise ShapeError(f"expected a (h, w) array, got {arr.shape}")
    _write_netpbm(path, arr, b"P5")


# ---------------------------------------------------------------------------
# Geometry for tensor packing


def rescale_max_side(image, max_side: int) -> np.ndarray:
    """Shrink so the longer side equals max_side; never upscales."""
    arr = np.asarray(image)
    if max_side < 1:
        raise ValueError(f"max side must be >= 1, got {max_side}")
    h, w = arr.shape[:2]
    longest = max(h, w)
    if longest <= max_side:
        return arr.copy()
    scale = max_side / longest
    new_h = max(1, round(h * scale))
    new_w = max(1, round(w * scale))
    return bilinear_resize(arr, new_h, new_w)


def center_crop_square(image) -> np.ndarray:
    """Crop the longer axis symmetrically down to the shorter one."""
    arr = np.asarray(image)
    h, w = arr.shape[:2]
    side = min(h, w)
    top = (h - side) // 2
    left = (w - side) // 2
    return arr[top:top + side, left:left + side].copy()


def pack_image(image, target_side: int) -> np.ndarray:
    """Normalize any image to (target_side, target_side, c).

    Shrinks so the longer side fits, center-crops to square, then zero-pads
    symmetrically when the square is still small. Images already at the
    target pass through bit-exact.
    """
    arr = center_crop_square(rescale_max_side(image, target_side))
    side = arr.shape[0]
    if side == target_side:
        return arr
    out = np.zeros((target_side, target_side) + arr.shape[2:], dtype=arr.dtype)
    offset = (target_side - side) // 2
    out[offset:offset + side, offset:offset + side] = arr
    return out


# ---------------------------------------------------------------------------
# Manifests


def _one_line(text: str) -> bool:
    """Whether `text` is non-empty and holds no character `str.splitlines`
    breaks at, so that a manifest line can carry it."""
    return text.splitlines() == [text]


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    class_index: int
    split: str

    def __post_init__(self):
        if self.split not in SPLITS:
            raise DataFormatError(f"unknown split {self.split!r}")
        if "\t" in self.path or not _one_line(self.path):
            raise DataFormatError(f"bad record path {self.path!r}")


@dataclass(frozen=True)
class DatasetManifest:
    root: str
    seed: int
    classes: tuple
    records: tuple

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "records", tuple(self.records))
        if len(set(self.classes)) != len(self.classes):
            raise DataError("duplicate class names")
        # The root and class lines are read back stripped; a class name is one word.
        if self.root.strip() != self.root or not _one_line(self.root):
            raise DataError(f"bad dataset root {self.root!r}")
        for name in self.classes:
            if name.split() != [name]:
                raise DataError(f"bad class name {name!r}")
        seen = set()
        for rec in self.records:
            if not 0 <= rec.class_index < len(self.classes):
                raise DataError(f"record class index {rec.class_index} out of range")
            if rec.path in seen:
                raise DataError(f"duplicate record path {rec.path!r}")
            seen.add(rec.path)

    def split_records(self, split: str) -> tuple:
        if split not in SPLITS:
            raise ValueError(f"unknown split {split!r}")
        return tuple(r for r in self.records if r.split == split)


def _class_dirs(root) -> list:
    try:
        entries = sorted(e.name for e in os.scandir(root) if e.is_dir())
    except OSError as exc:
        raise DataError(f"cannot scan dataset root {root}: {exc}") from exc
    if not entries:
        raise DataError(f"no class directories under {root}")
    return entries


def _class_files(root, name) -> list:
    class_dir = os.path.join(root, name)
    try:
        files = sorted(e.name for e in os.scandir(class_dir)
                       if e.is_file() and e.name.endswith(IMAGE_SUFFIX))
    except OSError as exc:
        raise DataError(f"cannot scan class directory {class_dir}: {exc}") from exc
    if not files:
        raise DataError(f"class directory {class_dir} has no {IMAGE_SUFFIX} files")
    return files


def _split_counts(n: int, ratios, counts, class_name) -> tuple:
    if ratios is not None:
        n_train = int(round(n * ratios[0]))
        n_val = min(int(round(n * ratios[1])), n - n_train)
        return n_train, n_val, n - n_train - n_val
    n_train, n_val, n_test = counts
    if n_train + n_val + n_test > n:
        raise DataError(f"class {class_name!r} has {n} images, "
                        f"need {n_train + n_val + n_test}")
    return n_train, n_val, n_test


def build_manifest(root, ratios=None, counts=None, seed: int = 0) -> DatasetManifest:
    """Scan a directory-per-class tree and assign splits per class.

    Exactly one of ratios (train, val, test fractions summing to 1) or
    counts (absolute per-class sizes; surplus files are left out, the
    750/250 protocol style) must be given. Assignment shuffles each class
    with its own seed derived from (seed, class name), so adding a class
    never reshuffles the others.
    """
    if (ratios is None) == (counts is None):
        raise ValueError("give exactly one of ratios or counts")
    if ratios is not None:
        ratios = tuple(float(r) for r in ratios)
        if len(ratios) != 3 or any(r < 0 for r in ratios):
            raise ValueError(f"ratios must be three non-negative values, got {ratios}")
        if abs(sum(ratios) - 1.0) > 1e-9:
            raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")
    else:
        counts = tuple(int(c) for c in counts)
        if len(counts) != 3 or any(c < 0 for c in counts) or sum(counts) < 1:
            raise ValueError(f"counts must be three non-negative sizes, got {counts}")

    classes = _class_dirs(root)
    records = []
    for class_index, name in enumerate(classes):
        files = _class_files(root, name)
        rng = np.random.default_rng(derive_seed(seed, "split", name))
        order = rng.permutation(len(files))
        sizes = _split_counts(len(files), ratios, counts, name)
        ends = np.cumsum(sizes)  # counts mode leaves the surplus past ends[-1] out
        for split, start, end in zip(SPLITS, ends - sizes, ends):
            records += [ManifestRecord(f"{name}/{files[i]}", class_index, split)
                        for i in order[start:end]]
    return DatasetManifest(str(root), int(seed), tuple(classes), tuple(records))


def manifest_to_text(manifest: DatasetManifest) -> str:
    lines = [f"root {manifest.root}", f"seed {manifest.seed}"]
    for idx, name in enumerate(manifest.classes):
        lines.append(f"class {idx} {name}")
    for rec in manifest.records:
        lines.append(f"{rec.split}\t{rec.class_index}\t{rec.path}")
    return "\n".join(lines) + "\n"


def manifest_from_text(text: str) -> DatasetManifest:
    """The manifest `manifest_to_text` wrote as `text`: one root line, one
    seed line, the class lines, then the records. Blank lines and whitespace
    around the root, seed and class lines are ignored; any other text than
    the writer's raises DataFormatError naming the line."""
    lines = [(lineno, raw) for lineno, raw in enumerate(text.splitlines(), start=1)
             if raw.strip()]
    head = [raw.strip() for _, raw in lines[:2]]
    if len(head) < 2 or not head[0].startswith("root ") or not head[1].startswith("seed "):
        raise DataFormatError("manifest must start with one root line and one seed line")
    try:
        seed = int(head[1][5:])
    except ValueError:
        raise DataFormatError(f"line {lines[1][0]}: bad seed {head[1][5:]!r}") from None
    classes = []
    records = []
    for lineno, raw in lines[2:]:
        line = raw.strip()
        try:
            if line.startswith("class ") and not records:
                _, _, name = line.split(" ", 2)
                classes.append(name)
            else:
                split, idx, path = raw.split("\t")
                records.append(ManifestRecord(path, int(idx), split))
        except ValueError as exc:
            raise DataFormatError(f"line {lineno}: cannot parse {raw!r}") from exc
    try:
        manifest = DatasetManifest(head[0][5:], seed, tuple(classes), tuple(records))
    except DataError as exc:
        raise DataFormatError(str(exc)) from exc
    header = 2 + len(classes)  # the lines read stripped
    check_round_trip([(lineno, raw.strip() if i < header else raw)
                      for i, (lineno, raw) in enumerate(lines)], manifest_to_text(manifest))
    return manifest


def save_manifest(path, manifest: DatasetManifest) -> None:
    atomic_write_bytes(path, manifest_to_text(manifest).encode("utf-8"))


def load_manifest(path, root=None) -> DatasetManifest:
    manifest = manifest_from_text(decode_utf8(_read_file(path), f"manifest {path}"))
    if root is not None:
        manifest = DatasetManifest(str(root), manifest.seed,
                                   manifest.classes, manifest.records)
    return manifest


# ---------------------------------------------------------------------------
# Batch stream


class PackedStore(dict):
    """(record path, target side) -> read-only packed image, kept by one
    command for its later passes; it stops growing at `_STORE_BYTES`."""

    def __init__(self):
        super().__init__()
        self.nbytes = 0


def batch_iterator(manifest: DatasetManifest, split: str, batch_size: int,
                   target_side: int, seed=None, policy: AugmentPolicy = None,
                   *, store: PackedStore = None):
    """An iterator of float32 (Tensor4, one-hot labels) over one pass of a
    split. The batch size and the split are checked here, before any batch.

    Order is the manifest order, or a seeded shuffle when seed is given.
    The augmentation policy applies to the train split only; each image
    draws from its own stream-position generator, so batch size does not
    change what any image looks like.

    `store` (internal, not a setting) lets the passes of one command share
    their packed images: each image is decoded and packed once, up to the
    store's byte cap, and augmentation runs on the stored array, which it
    never writes. Images past the cap are decoded on every pass.
    """
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    records = manifest.split_records(split)
    if not records:
        raise DataError(f"split {split!r} has no records")
    if seed is not None:
        records = [records[i] for i in np.random.default_rng(seed).permutation(len(records))]
    if policy is not None and (split != "train" or policy.is_identity):
        policy = None
    return _batches(manifest, records, batch_size, target_side, policy, store)


def _batches(manifest, records, batch_size, target_side, policy, store):
    n_classes = len(manifest.classes)
    for start in range(0, len(records), batch_size):
        images = []
        labels = []
        for offset, record in enumerate(records[start:start + batch_size]):
            key = (record.path, target_side)
            image = None if store is None else store.get(key)
            if image is None:
                image = load_image(os.path.join(manifest.root, record.path)).pixels
                image = pack_image(image, target_side)
                if store is not None and store.nbytes + image.nbytes <= _STORE_BYTES:
                    image.flags.writeable = False
                    store[key] = image
                    store.nbytes += image.nbytes
            if policy is not None:
                image = apply_policy(image, policy, policy_rng(policy, start + offset))
            images.append(image)
            labels.append(record.class_index)
        x = np.stack(images).astype(np.float32)
        yield Tensor4(x), one_hot_matrix(labels, n_classes)
