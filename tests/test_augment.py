import hashlib
import math
import warnings

import numpy as np
import pytest

from purefoodnet import augment as A
from purefoodnet.errors import ConfigError, ShapeError


def random_image(seed, h=12, w=10, c=3, dtype=np.float64):
    return np.random.default_rng(seed).random((h, w, c)).astype(dtype)


class TestFlip:
    def test_twice_is_identity(self):
        img = random_image(0)
        np.testing.assert_array_equal(A.flip_horizontal(A.flip_horizontal(img)), img)

    def test_index_mapping(self):
        img = random_image(1, h=5, w=7, c=2)
        out = A.flip_horizontal(img)
        h, w, c = img.shape
        for r in range(h):
            for col in range(w):
                np.testing.assert_array_equal(out[r, col], img[r, w - 1 - col])

    def test_symmetric_image_unchanged(self):
        img = random_image(2, w=6)
        sym = (img + img[:, ::-1, :]) / 2
        np.testing.assert_array_equal(A.flip_horizontal(sym), sym)

    def test_does_not_alias_input(self):
        img = random_image(3)
        out = A.flip_horizontal(img)
        assert out.base is None or out.base is not img


class TestBilinearResize:
    def test_same_size_is_exact_identity(self):
        img = random_image(4)
        out = A.bilinear_resize(img, img.shape[0], img.shape[1])
        np.testing.assert_array_equal(out, img)

    def test_constant_stays_constant(self):
        img = np.full((6, 6, 2), 0.37)
        out = A.bilinear_resize(img, 13, 9)
        np.testing.assert_allclose(out, 0.37, rtol=0, atol=1e-12)

    def test_halving_averages_2x2_blocks(self):
        # Sampling at (j + 0.5) * 2 - 0.5 = 2j + 0.5 lands midway between the
        # four pixels of each disjoint 2x2 block, so the output is block means.
        img = random_image(5, h=8, w=6, c=2)
        out = A.bilinear_resize(img, 4, 3)
        oracle = img.reshape(4, 2, 3, 2, 2).mean(axis=(1, 3))
        np.testing.assert_allclose(out, oracle, rtol=0, atol=1e-12)

    def test_values_stay_in_hull(self):
        img = random_image(6)
        out = A.bilinear_resize(img, 30, 5)
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12

    def test_preserves_dtype(self):
        img = random_image(7, dtype=np.float32)
        assert A.bilinear_resize(img, 5, 5).dtype == np.float32

    def test_rejects_bad_sizes_and_shapes(self):
        with pytest.raises(ValueError):
            A.bilinear_resize(random_image(8), 0, 4)
        with pytest.raises(ShapeError):
            A.bilinear_resize(np.zeros((4, 4)), 2, 2)
        with pytest.raises(ShapeError):
            A.bilinear_resize(np.zeros((4, 4, 1), dtype=np.uint8), 2, 2)


class TestRandomCrop:
    def test_fraction_one_is_exact_identity(self):
        img = random_image(9)
        out = A.random_crop(img, 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, img)

    def test_constant_image_stays_constant(self):
        img = np.full((10, 10, 3), 0.25)
        out = A.random_crop(img, 0.5, np.random.default_rng(1))
        np.testing.assert_allclose(out, 0.25, rtol=0, atol=1e-12)

    def test_shape_preserved(self):
        img = random_image(10, h=11, w=7)
        assert A.random_crop(img, 0.6, np.random.default_rng(2)).shape == img.shape

    def test_seed_reproducible(self):
        img = random_image(11)
        a = A.random_crop(img, 0.7, np.random.default_rng(5))
        b = A.random_crop(img, 0.7, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_values_from_source_hull(self):
        img = random_image(12)
        out = A.random_crop(img, 0.4, np.random.default_rng(3))
        assert out.min() >= img.min() - 1e-12
        assert out.max() <= img.max() + 1e-12

    def test_rejects_bad_fraction(self):
        img = random_image(13)
        for fraction in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                A.random_crop(img, fraction, np.random.default_rng(0))


class TestRotate:
    def test_zero_degrees_is_exact_identity(self):
        img = random_image(14)
        np.testing.assert_array_equal(A.rotate(img, 0.0), img)

    def test_quarter_turn_matches_rot90(self):
        img = random_image(15, h=2, w=2, c=1)
        np.testing.assert_allclose(A.rotate(img, 90.0), np.rot90(img, axes=(0, 1)),
                                   rtol=0, atol=1e-12)

    def test_quarter_turn_larger_image(self):
        img = random_image(16, h=6, w=6, c=3)
        np.testing.assert_allclose(A.rotate(img, 90.0), np.rot90(img, axes=(0, 1)),
                                   rtol=0, atol=1e-12)

    def test_half_turn_twice_is_identity(self):
        img = random_image(17, h=7, w=5)
        out = A.rotate(A.rotate(img, 180.0), 180.0)
        np.testing.assert_allclose(out, img, rtol=0, atol=1e-6)

    def test_corners_fill_with_zero(self):
        img = np.ones((9, 9, 1))
        out = A.rotate(img, 45.0)
        assert out[0, 0, 0] == pytest.approx(0.0, abs=1e-9)
        assert out[4, 4, 0] == pytest.approx(1.0, abs=1e-9)

    def test_shape_preserved(self):
        img = random_image(18, h=5, w=9)
        assert A.rotate(img, 33.0).shape == img.shape


class TestTilt:
    def test_zero_shear_is_exact_identity(self):
        img = random_image(19)
        np.testing.assert_array_equal(A.tilt(img, 0.0), img)

    def test_integer_shear_permutes_columns(self):
        # Row offsets about the center of 3 rows are (-1, 0, 1) and output
        # column c samples source column c - shear * offset, so shear 1
        # slides the top row left by one and the bottom row right by one.
        img = random_image(20, h=3, w=4, c=1)
        out = A.tilt(img, 1.0)
        np.testing.assert_allclose(out[1], img[1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(out[0, :3], img[0, 1:], rtol=0, atol=1e-12)
        assert out[0, 3, 0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(out[2, 1:], img[2, :3], rtol=0, atol=1e-12)
        assert out[2, 0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_shape_preserved(self):
        img = random_image(21, h=8, w=5)
        assert A.tilt(img, 0.3).shape == img.shape

    def test_any_finite_shear_samples_without_overflow(self):
        # A shear of 1e300 moves every row of a 4-row image (offsets +-0.5,
        # +-1.5) far out of frame; its source columns once overflowed int64.
        policy = A.AugmentPolicy(tilt_range=(-1e300, 1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = A.apply_policy(random_image(22, h=4, w=4), policy, np.random.default_rng(0))
        np.testing.assert_array_equal(out, np.zeros((4, 4, 3)))


def sample_bilinear_zero_oracle(img, rows, cols):
    """The four masked gathers `_sample_bilinear_zero` replaced."""
    h, w, c = img.shape
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


class TestSampleBilinearZero:
    def cases(self):
        rng = np.random.default_rng(7)
        for _ in range(150):
            h, w, c = (int(v) for v in rng.integers(1, 9, 3))
            img = rng.normal(size=(h, w, c))
            img[rng.random(img.shape) < 0.2] = -0.0  # signed zeros in the corner sums
            img[rng.random(img.shape) < 0.1] = 0.0
            shape = tuple(int(v) for v in rng.integers(1, 7, 2))
            kind = int(rng.integers(0, 4))
            if kind == 0:  # in and around the frame
                rows = rng.uniform(-2, h + 1, shape)
                cols = rng.uniform(-2, w + 1, shape)
            elif kind == 1:  # whole numbers, every corner weight 0 or 1
                rows = rng.integers(-3, h + 3, shape).astype(np.float64)
                cols = rng.integers(-3, w + 3, shape).astype(np.float64)
            elif kind == 2:  # far out of frame
                rows = rng.uniform(-1e9, 1e9, shape)
                cols = rng.choice([-1e300, 1e300, -5e7, 3e15], shape)
            else:  # +-1e300 columns on in-frame rows, as a huge shear gives
                rows = rng.uniform(0, h - 1, shape)
                cols = rng.choice([-1e300, 1e300, 0.5, w - 1.0], shape)
            yield img, rows, cols

    def test_matches_masked_gather_oracle_byte_for_byte(self):
        for img, rows, cols in self.cases():
            got = A._sample_bilinear_zero(img, rows, cols)
            want = sample_bilinear_zero_oracle(img, rows, cols)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("op, value", [(A.rotate, math.nan), (A.tilt, math.nan),
                                           (A.tilt, math.inf)])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
    def test_nan_coordinates_rejected(self, op, value):
        # An infinite shear puts NaN (inf * 0) on the center row of an odd height.
        with pytest.raises(ValueError, match="finite angle and shear"):
            op(random_image(23, h=5, w=4), value)

    def test_minus_zero_pixel_samples_as_plus_zero(self):
        img = np.full((2, 2, 1), -0.0)
        out = A._sample_bilinear_zero(img, np.zeros((1, 1)), np.zeros((1, 1)))
        assert out.tobytes() == np.zeros((1, 1, 1)).tobytes()


class TestColorShift:
    def test_zero_deltas_is_exact_identity(self):
        img = random_image(22)
        np.testing.assert_array_equal(A.color_shift(img, [0.0, 0.0, 0.0]), img)

    def test_adds_per_channel(self):
        img = np.full((4, 4, 2), 0.4)
        out = A.color_shift(img, [0.1, -0.2])
        np.testing.assert_allclose(out[..., 0], 0.5, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out[..., 1], 0.2, rtol=0, atol=1e-12)

    def test_clamps(self):
        img = np.full((2, 2, 1), 0.9)
        np.testing.assert_array_equal(A.color_shift(img, [0.5]), np.ones((2, 2, 1)))
        np.testing.assert_array_equal(A.color_shift(img, [-1.5]), np.zeros((2, 2, 1)))

    def test_rejects_wrong_channel_count(self):
        with pytest.raises(ShapeError):
            A.color_shift(random_image(23), [0.1, 0.2])


class TestAddNoise:
    def test_sigma_zero_is_exact_identity(self):
        img = random_image(24)
        np.testing.assert_array_equal(A.add_noise(img, 0.0, np.random.default_rng(0)), img)

    def test_noise_standard_deviation(self):
        img = np.full((200, 250, 2), 0.5)  # 10^5 pixels, far from the clamp
        out = A.add_noise(img, 0.1, np.random.default_rng(25))
        measured = (out - img).std()
        assert abs(measured - 0.1) / 0.1 < 0.05

    def test_clamped_to_unit_range(self):
        img = np.full((50, 50, 1), 0.95)
        out = A.add_noise(img, 0.3, np.random.default_rng(26))
        assert out.max() <= 1.0
        assert out.min() >= 0.0

    def test_seed_reproducible(self):
        img = random_image(27)
        a = A.add_noise(img, 0.2, np.random.default_rng(7))
        b = A.add_noise(img, 0.2, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            A.add_noise(random_image(28), -0.1, np.random.default_rng(0))


class TestAdjustContrast:
    def test_factor_one_is_exact_identity(self):
        img = random_image(29)
        np.testing.assert_array_equal(A.adjust_contrast(img, 1.0), img)

    def test_factor_zero_collapses_to_mean(self):
        img = random_image(30)
        out = A.adjust_contrast(img, 0.0)
        np.testing.assert_allclose(out, img.mean(), rtol=0, atol=1e-12)

    def test_matches_formula(self):
        img = random_image(31)
        factor = 0.6
        mean = img.mean()
        want = np.clip(mean + factor * (img - mean), 0.0, 1.0)
        np.testing.assert_allclose(A.adjust_contrast(img, factor), want, rtol=0, atol=1e-12)

    def test_high_factor_clamps(self):
        img = np.array([[[0.0], [1.0]]])
        out = A.adjust_contrast(img, 10.0)
        np.testing.assert_array_equal(out, img)  # already at the rails

    def test_rejects_negative_factor(self):
        with pytest.raises(ValueError):
            A.adjust_contrast(random_image(32), -1.0)


class TestPolicy:
    def test_defaults_are_identity(self):
        policy = A.AugmentPolicy()
        assert policy.is_identity
        assert A.AugmentPolicy(tilt_range=(-0.0, 0.0), seed=9).is_identity
        assert not A.AugmentPolicy(tilt_range=(-0.1, 0.0)).is_identity
        img = random_image(33)
        out = A.apply_policy(img, policy, np.random.default_rng(0))
        np.testing.assert_array_equal(out, img)
        assert out is not img

    def test_flip_only_probability_one_equals_flip(self):
        policy = A.AugmentPolicy(flip_probability=1.0)
        img = random_image(34)
        out = A.apply_policy(img, policy, np.random.default_rng(0))
        np.testing.assert_array_equal(out, A.flip_horizontal(img))

    def test_fixed_seed_is_deterministic(self):
        policy = A.AugmentPolicy(flip_probability=0.5,
                                 crop_fraction_range=(0.7, 1.0),
                                 tilt_range=(-0.2, 0.2),
                                 color_shift_magnitude=0.1,
                                 rotation_range=(-20.0, 20.0),
                                 noise_sigma=0.05,
                                 contrast_range=(0.8, 1.2))
        img = random_image(35)
        digests = set()
        for _ in range(3):
            out = A.apply_policy(img, policy, np.random.default_rng(123))
            digests.add(hashlib.sha256(out.tobytes()).hexdigest())
        assert len(digests) == 1

    def test_full_policy_invariants(self):
        policy = A.AugmentPolicy(flip_probability=0.5,
                                 crop_fraction_range=(0.6, 1.0),
                                 tilt_range=(-0.3, 0.3),
                                 color_shift_magnitude=0.2,
                                 rotation_range=(-30.0, 30.0),
                                 noise_sigma=0.1,
                                 contrast_range=(0.5, 1.5))
        for seed in range(12):
            img = random_image(100 + seed, h=9, w=11)
            out = A.apply_policy(img, policy, np.random.default_rng(seed))
            assert out.shape == img.shape
            assert out.dtype == img.dtype
            assert out.min() >= 0.0
            assert out.max() <= 1.0

    def test_per_image_rng_is_stable(self):
        policy = A.AugmentPolicy(noise_sigma=0.1, seed=77)
        img = random_image(36)
        a = A.apply_policy(img, policy, A.policy_rng(policy, 5))
        b = A.apply_policy(img, policy, A.policy_rng(policy, 5))
        c = A.apply_policy(img, policy, A.policy_rng(policy, 6))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_policy_rng_rejects_negative_index(self):
        with pytest.raises(ValueError):
            A.policy_rng(A.AugmentPolicy(), -1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            A.AugmentPolicy(flip_probability=1.5)
        with pytest.raises(ConfigError):
            A.AugmentPolicy(crop_fraction_range=(0.0, 1.0))
        with pytest.raises(ConfigError):
            A.AugmentPolicy(crop_fraction_range=(0.9, 0.5))
        with pytest.raises(ConfigError):
            A.AugmentPolicy(rotation_range=(10.0, -10.0))
        with pytest.raises(ConfigError):
            A.AugmentPolicy(color_shift_magnitude=-0.1)
        with pytest.raises(ConfigError):
            A.AugmentPolicy(noise_sigma=-0.5)
        with pytest.raises(ConfigError):
            A.AugmentPolicy(contrast_range=(-0.5, 1.0))
        with pytest.raises(ConfigError):
            A.AugmentPolicy(seed=-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_settings(self, bad):
        # NaN passes every range comparison; inf makes the uniform draw raise.
        for settings in ({"flip_probability": bad}, {"crop_fraction_range": (bad, 1.0)},
                         {"tilt_range": (0.0, bad)}, {"color_shift_magnitude": bad},
                         {"rotation_range": (bad, bad)}, {"noise_sigma": bad},
                         {"contrast_range": (1.0, bad)}):
            with pytest.raises(ConfigError):
                A.AugmentPolicy(**settings)

    def test_rejects_a_range_too_wide_to_draw_from(self):
        with pytest.raises(ConfigError, match="finite"):
            A.AugmentPolicy(rotation_range=(-1e308, 1e308))

    def test_rejects_a_color_shift_too_wide_to_draw_from(self):
        # The draw spans [-m, m]: 2 * 1e308 overflows, 2 * 1e307 does not.
        with pytest.raises(ConfigError, match="finite"):
            A.AugmentPolicy(color_shift_magnitude=1e308)
        policy = A.AugmentPolicy(color_shift_magnitude=1e307)
        out = A.apply_policy(random_image(38), policy, np.random.default_rng(0))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_read_only_input_gives_the_same_bytes(self):
        # The batch stream stores packed images read-only and augments them
        # on every pass, so no op may write into its input.
        policy = A.AugmentPolicy(flip_probability=0.5,
                                 crop_fraction_range=(0.6, 0.9),
                                 tilt_range=(-0.3, 0.3),
                                 color_shift_magnitude=0.2,
                                 rotation_range=(-30.0, 30.0),
                                 noise_sigma=0.1,
                                 contrast_range=(0.5, 1.5))
        for policy in (policy, A.AugmentPolicy()):
            for seed in range(6):
                img = random_image(200 + seed, h=9, w=11)
                frozen = img.copy()
                frozen.flags.writeable = False
                out = A.apply_policy(frozen, policy, A.policy_rng(policy, seed))
                expected = A.apply_policy(img.copy(), policy, A.policy_rng(policy, seed))
                assert out.tobytes() == expected.tobytes()
                assert out.flags.writeable
                assert frozen.tobytes() == img.tobytes()
