"""Seeded input generation for the benchmark workloads.

Everything here depends only on the seed and the sizes passed in, never on
the engine, so set-up time measures the same work on every commit (except
for the predict_paper model, whose init and save are the engine's own).
"""

from __future__ import annotations

import os

import numpy as np


def train_tensors(seed: int, n: int, side: int, classes: int):
    """(x, one-hot labels) for an in-memory training set.

    Class c has a fixed low-frequency colour prototype; each image is that
    prototype blended with seeded noise, so the set is learnable but the
    noise and the class order change with the seed.
    """
    proto_rng = np.random.default_rng(1234)
    coarse = proto_rng.random((classes, 4, 4, 3))
    protos = np.repeat(np.repeat(coarse, side // 4, axis=1), side // 4, axis=2)
    rng = np.random.default_rng([seed, n, side])
    labels = rng.permutation(np.arange(n) % classes)
    noise = rng.random((n, side, side, 3))
    x = (0.45 * protos[labels] + 0.55 * noise).astype(np.float32)
    return x, np.eye(classes)[labels]


def write_ppm(path, pixels: np.ndarray) -> None:
    """Binary P6 with maxval 255, from an (h, w, 3) uint8 array."""
    h, w, _ = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


def food_image(rng: np.random.Generator, class_index: int, portrait: bool,
               long_side: int = 512) -> np.ndarray:
    """Food-101-sized uint8 image whose dominant colour channel is the class."""
    pixels = _noise(rng, *_size(long_side, portrait))
    pixels[..., class_index % 3] += np.uint8(150)
    return pixels


def _size(long_side: int, portrait: bool) -> tuple:
    short = long_side * 3 // 4
    return (long_side, short) if portrait else (short, long_side)


def _noise(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Uniform uint8 noise in [0, 64), from raw generator bytes (the fast path)."""
    raw = np.frombuffer(rng.bytes(h * w * 3), dtype=np.uint8).reshape(h, w, 3)
    return raw >> 2


def food_tree(root, seed: int, classes: int, per_class: int) -> list:
    """Directory-per-class PPM tree, alternating landscape and portrait.

    Returns the written paths.
    """
    rng = np.random.default_rng([seed, classes, per_class])
    paths = []
    for c in range(classes):
        class_dir = os.path.join(root, f"dish_{c}")
        os.makedirs(class_dir, exist_ok=True)
        for i in range(per_class):
            path = os.path.join(class_dir, f"img_{i:03d}.ppm")
            write_ppm(path, food_image(rng, c, portrait=bool(i % 2)))
            paths.append(path)
    return paths


def photo(seed: int, index: int, portrait: bool, long_side: int = 512) -> np.ndarray:
    """A smooth random 'photo' for single-image prediction requests."""
    rng = np.random.default_rng([seed, index])
    h, w = _size(long_side, portrait)
    coarse = rng.integers(0, 256, size=(h // 64 + 1, w // 64 + 1, 3)).astype(np.uint8)
    smooth = np.repeat(np.repeat(coarse, 64, axis=0), 64, axis=1)[:h, :w]
    return np.maximum(smooth, _noise(rng, h, w))
