"""Stochastic image augmentation for training batches.

Images are rank-3 float arrays (height, width, channels) with values in
[0, 1]. Every op preserves shape and value range, and identity parameter
settings (flip probability 0, crop fraction 1, angle 0, shear 0, zero
shift, sigma 0, contrast factor 1) reproduce the input exactly, bit for
bit, so disabling augmentation never perturbs a pipeline.

Geometric ops resample with bilinear interpolation; samples falling
outside the source image read as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, ShapeError

__all__ = [
    "AugmentPolicy",
    "add_noise",
    "adjust_contrast",
    "apply_policy",
    "bilinear_resize",
    "color_shift",
    "flip_horizontal",
    "policy_rng",
    "random_crop",
    "rotate",
    "tilt",
]


def _check_image(image) -> np.ndarray:
    arr = np.asarray(image)
    if arr.ndim != 3:
        raise ShapeError(f"expected (height, width, channels), got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.floating):
        raise ShapeError(f"expected a float image, got dtype {arr.dtype}")
    return arr


def _restore_dtype(out: np.ndarray, like: np.ndarray) -> np.ndarray:
    return out.astype(like.dtype, copy=False)


def flip_horizontal(image) -> np.ndarray:
    """Mirror left-to-right: output (r, c) is input (r, w-1-c)."""
    arr = _check_image(image)
    return arr[:, ::-1, :].copy()


def bilinear_resize(image, out_h: int, out_w: int) -> np.ndarray:
    """Resize to (out_h, out_w) sampling source pixel centers.

    The source coordinate of output pixel j is (j + 0.5) * in/out - 0.5,
    which degenerates to j exactly when the sizes match, making same-size
    resize a bit-exact identity.
    """
    arr = _check_image(image)
    if out_h < 1 or out_w < 1:
        raise ValueError(f"output size must be positive, got {(out_h, out_w)}")
    img = arr.astype(np.float64, copy=False)
    h, w, _ = img.shape
    src_y = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    src_x = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(src_y).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(src_x).astype(np.int64), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    ty = np.clip(src_y - y0, 0.0, 1.0)[:, None, None]
    tx = np.clip(src_x - x0, 0.0, 1.0)[None, :, None]
    top = img[y0][:, x0] * (1.0 - tx) + img[y0][:, x1] * tx
    bottom = img[y1][:, x0] * (1.0 - tx) + img[y1][:, x1] * tx
    return _restore_dtype(top * (1.0 - ty) + bottom * ty, arr)


def random_crop(image, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Crop a uniformly placed fraction-sized window, resize back up."""
    arr = _check_image(image)
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"crop fraction must be in (0, 1], got {fraction}")
    h, w, _ = arr.shape
    crop_h = max(1, round(h * fraction))
    crop_w = max(1, round(w * fraction))
    top = int(rng.integers(0, h - crop_h + 1))
    left = int(rng.integers(0, w - crop_w + 1))
    window = arr[top:top + crop_h, left:left + crop_w, :]
    if window.shape == arr.shape:
        return arr.copy()
    return bilinear_resize(window, h, w)


def _sample_bilinear_zero(img: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Bilinear lookup at fractional (rows, cols); out-of-bounds reads 0."""
    h, w, c = img.shape
    # Past one pixel out of frame every corner reads 0; clamping there keeps
    # any shear's coordinates within int64.
    rows = np.clip(rows, -1, h)
    cols = np.clip(cols, -1, w)
    r0 = np.floor(rows).astype(np.int64)
    c0 = np.floor(cols).astype(np.int64)
    tr = (rows - r0)[..., None]
    tc = (cols - c0)[..., None]
    out = np.zeros(rows.shape + (c,), dtype=np.float64)
    corners = (
        (r0, c0, (1.0 - tr) * (1.0 - tc)),
        (r0, c0 + 1, (1.0 - tr) * tc),
        (r0 + 1, c0, tr * (1.0 - tc)),
        (r0 + 1, c0 + 1, tr * tc),
    )
    for rr, cc, weight in corners:
        inside = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
        values = np.zeros_like(out)
        values[inside] = img[rr[inside], cc[inside]]
        out += weight * values
    return out


def _affine_sample(arr: np.ndarray, src_rows: np.ndarray, src_cols: np.ndarray) -> np.ndarray:
    img = arr.astype(np.float64, copy=False)
    return _restore_dtype(_sample_bilinear_zero(img, src_rows, src_cols), arr)


def _center_offsets(h: int, w: int):
    cy = (h - 1) / 2.0
    cx = (w - 1) / 2.0
    drow = np.arange(h, dtype=np.float64)[:, None] - cy
    dcol = np.arange(w, dtype=np.float64)[None, :] - cx
    return cy, cx, drow, dcol


def rotate(image, degrees: float) -> np.ndarray:
    """Rotate counterclockwise about the image center; 0 degrees is exact."""
    arr = _check_image(image)
    theta = math.radians(degrees)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cy, cx, drow, dcol = _center_offsets(*arr.shape[:2])
    src_rows = sin_t * dcol + cos_t * drow + cy
    src_cols = cos_t * dcol - sin_t * drow + cx
    return _affine_sample(arr, src_rows, src_cols)


def tilt(image, shear: float) -> np.ndarray:
    """Horizontal shear about the center: rows slide sideways by shear * offset."""
    arr = _check_image(image)
    cy, cx, drow, dcol = _center_offsets(*arr.shape[:2])
    src_rows = drow + cy
    src_cols = dcol - shear * drow + cx
    return _affine_sample(arr, np.broadcast_to(src_rows, arr.shape[:2]),
                          np.broadcast_to(src_cols, arr.shape[:2]))


def color_shift(image, deltas) -> np.ndarray:
    """Add a per-channel offset, then clamp to [0, 1]."""
    arr = _check_image(image)
    offsets = np.asarray(deltas, dtype=np.float64).reshape(-1)
    if offsets.shape[0] != arr.shape[2]:
        raise ShapeError(f"need {arr.shape[2]} channel deltas, got {offsets.shape[0]}")
    if not offsets.any():
        return arr.copy()
    return _restore_dtype(np.clip(arr.astype(np.float64, copy=False) + offsets, 0.0, 1.0), arr)


def add_noise(image, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. Gaussian noise with the given standard deviation, clamped."""
    arr = _check_image(image)
    if sigma < 0:
        raise ValueError(f"noise sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return arr.copy()
    noisy = arr.astype(np.float64, copy=False) + rng.normal(0.0, sigma, size=arr.shape)
    return _restore_dtype(np.clip(noisy, 0.0, 1.0), arr)


def adjust_contrast(image, factor: float) -> np.ndarray:
    """Scale distances from the global mean: v' = mean + factor * (v - mean)."""
    arr = _check_image(image)
    if factor < 0:
        raise ValueError(f"contrast factor must be >= 0, got {factor}")
    if factor == 1.0:
        return arr.copy()
    mean = float(arr.mean())
    out = mean + factor * (arr.astype(np.float64, copy=False) - mean)
    return _restore_dtype(np.clip(out, 0.0, 1.0), arr)


def _check_range(name, pair, low=None, high=None, low_open=False):
    try:
        lo, hi = (float(pair[0]), float(pair[1]))
    except (TypeError, ValueError, IndexError):
        raise ConfigError(f"{name} must be a (low, high) pair, got {pair!r}") from None
    if not math.isfinite(hi - lo):  # NaN or inf, or wider than a uniform draw takes
        raise ConfigError(f"{name} must be finite, got {pair!r}")
    if lo > hi:
        raise ConfigError(f"{name} must be ordered, got {pair!r}")
    if low is not None and (lo < low or (low_open and lo == low)):
        raise ConfigError(f"{name} lower bound out of range: {pair!r}")
    if high is not None and hi > high:
        raise ConfigError(f"{name} upper bound out of range: {pair!r}")
    return lo, hi


@dataclass(frozen=True)
class AugmentPolicy:
    """Per-op augmentation settings; field order is the application order.

    Ranges are (low, high) bounds for a uniform draw. Defaults leave every
    op disabled, making apply_policy the identity.
    """

    flip_probability: float = 0.0
    crop_fraction_range: tuple = (1.0, 1.0)
    tilt_range: tuple = (0.0, 0.0)
    color_shift_magnitude: float = 0.0
    rotation_range: tuple = (0.0, 0.0)
    noise_sigma: float = 0.0
    contrast_range: tuple = (1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ConfigError(f"flip probability must be in [0, 1], got {self.flip_probability}")
        object.__setattr__(self, "crop_fraction_range",
                           _check_range("crop fraction range", self.crop_fraction_range,
                                        low=0.0, high=1.0, low_open=True))
        object.__setattr__(self, "tilt_range", _check_range("tilt range", self.tilt_range))
        object.__setattr__(self, "rotation_range",
                           _check_range("rotation range", self.rotation_range))
        object.__setattr__(self, "contrast_range",
                           _check_range("contrast range", self.contrast_range, low=0.0))
        m = self.color_shift_magnitude
        if not (m >= 0 and math.isfinite(2 * m)):  # false for NaN; the draw spans 2m
            raise ConfigError(f"color shift magnitude must be >= 0 with a finite range "
                              f"2 * m, got {m}")
        if not 0 <= self.noise_sigma < math.inf:
            raise ConfigError(f"noise sigma must be finite and >= 0, got {self.noise_sigma}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def is_identity(self) -> bool:
        """Whether every op is disabled: the defaults, whatever the seed."""
        return replace(self, seed=0) == AugmentPolicy()


def policy_rng(policy: AugmentPolicy, image_index: int) -> np.random.Generator:
    """Per-image generator: images augment identically no matter how a batch
    is threaded or ordered."""
    if image_index < 0:
        raise ValueError(f"image index must be >= 0, got {image_index}")
    return np.random.default_rng(policy.seed ^ int(image_index))


def apply_policy(image, policy: AugmentPolicy, rng: np.random.Generator) -> np.ndarray:
    """Apply the enabled ops in fixed order: flip, crop, tilt, color shift,
    rotation, noise, contrast. Disabled ops draw nothing from rng."""
    arr = _check_image(image)
    out = arr
    if policy.flip_probability > 0.0 and rng.random() < policy.flip_probability:
        out = flip_horizontal(out)
    lo, hi = policy.crop_fraction_range
    if (lo, hi) != (1.0, 1.0):
        out = random_crop(out, float(rng.uniform(lo, hi)), rng)
    lo, hi = policy.tilt_range
    if (lo, hi) != (0.0, 0.0):
        out = tilt(out, float(rng.uniform(lo, hi)))
    if policy.color_shift_magnitude > 0.0:
        m = policy.color_shift_magnitude
        out = color_shift(out, rng.uniform(-m, m, size=arr.shape[2]))
    lo, hi = policy.rotation_range
    if (lo, hi) != (0.0, 0.0):
        out = rotate(out, float(rng.uniform(lo, hi)))
    if policy.noise_sigma > 0.0:
        out = add_noise(out, policy.noise_sigma, rng)
    lo, hi = policy.contrast_range
    if (lo, hi) != (1.0, 1.0):
        out = adjust_contrast(out, float(rng.uniform(lo, hi)))
    if out is arr:
        out = arr.copy()
    return out
