import hashlib
import os

import numpy as np
import pytest

from purefoodnet import dataio as D
from purefoodnet.augment import AugmentPolicy
from purefoodnet.errors import DataError, DataFormatError, ShapeError
from purefoodnet.seeding import derive_seed


def random_pixels(seed, h=4, w=4):
    return np.random.default_rng(seed).random((h, w, 3))


def make_tree(root, spec, h=4, w=4):
    """Write a directory-per-class corpus of tiny constant-ish PPMs.

    spec maps class name -> image count; each image gets a distinct
    constant color so tests can track individual files through batches.
    """
    serial = 0
    for name, count in spec.items():
        class_dir = os.path.join(root, name)
        os.makedirs(class_dir, exist_ok=True)
        for i in range(count):
            serial += 1
            value = serial / 255.0
            D.save_image(os.path.join(class_dir, f"img_{i:03d}.ppm"),
                         np.full((h, w, 3), value))
    return root


def split_sizes(manifest):
    return {split: len(manifest.split_records(split)) for split in D.SPLITS}


def count_decodes(monkeypatch):
    """Wrap `dataio.load_image`; the returned dict counts the decodes of each
    record path (class/file)."""
    counts = {}
    load = D.load_image

    def counting(path):
        key = "/".join(os.fspath(path).split(os.sep)[-2:])
        counts[key] = counts.get(key, 0) + 1
        return load(path)

    monkeypatch.setattr(D, "load_image", counting)
    return counts


class TestPpmCodec:
    def test_single_red_pixel(self, tmp_path):
        path = tmp_path / "one.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\xff\x00\x00")
        record = D.load_image(path)
        np.testing.assert_array_equal(record.pixels, [[[1.0, 0.0, 0.0]]])
        assert record.source == str(path)

    def test_round_trip_quantization_bound(self, tmp_path):
        img = random_pixels(0, h=7, w=5)
        path = tmp_path / "rt.ppm"
        D.save_image(path, img)
        back = D.load_image(path).pixels
        assert back.shape == img.shape
        assert np.abs(back - img).max() <= 1.0 / 255.0

    def test_lossless_on_quantized_values(self, tmp_path):
        img = np.arange(48).reshape(4, 4, 3) / 255.0
        path = tmp_path / "exact.ppm"
        D.save_image(path, img)
        np.testing.assert_array_equal(D.load_image(path).pixels, img)

    def test_decode_has_the_bytes_of_a_float64_cast_then_divide(self, tmp_path):
        # Every byte value, in a P6 and a P5 file: the one-pass divide
        # rounds each pixel as casting to float64 and dividing by 255 did.
        values = np.arange(256, dtype=np.uint8)
        ppm, pgm = tmp_path / "all.ppm", tmp_path / "all.pgm"
        ppm.write_bytes(b"P6\n16 16\n255\n" + np.repeat(values, 3).tobytes())
        pgm.write_bytes(b"P5\n16 16\n255\n" + values.tobytes())
        want = values.astype(np.float64) / 255.0
        rgb = D.load_image(ppm).pixels
        assert rgb.dtype == np.float64 and rgb.shape == (16, 16, 3)
        assert rgb.tobytes() == np.repeat(want, 3).tobytes()
        gray = D.read_pgm(pgm)
        assert gray.dtype == np.float64 and gray.tobytes() == want.tobytes()

    def test_dims_match_header(self, tmp_path):
        path = tmp_path / "dims.ppm"
        D.save_image(path, random_pixels(1, h=3, w=9))
        blob = path.read_bytes()
        # Independent header parse: magic line, then "w h", then maxval.
        magic, dims, maxval = blob.split(b"\n", 3)[:3]
        assert magic == b"P6"
        w, h = (int(v) for v in dims.split())
        assert maxval == b"255"
        assert D.load_image(path).pixels.shape == (h, w, 3)

    def test_header_comments_accepted(self, tmp_path):
        path = tmp_path / "comment.ppm"
        path.write_bytes(b"P6\n# made by hand\n2 1\n255\n" + bytes(6))
        assert D.load_image(path).pixels.shape == (1, 2, 3)

    def test_rejects_malformed(self, tmp_path):
        cases = {
            "magic.ppm": b"P5\n1 1\n255\n\x00\x00\x00",
            "maxval.ppm": b"P6\n1 1\n65535\n\x00\x00\x00",
            "short.ppm": b"P6\n2 2\n255\n\x00\x00\x00",
            "long.ppm": b"P6\n1 1\n255\n" + bytes(9),
            "header.ppm": b"P6\n1 x\n255\n\x00\x00\x00",
        }
        for name, blob in cases.items():
            path = tmp_path / name
            path.write_bytes(blob)
            with pytest.raises(DataFormatError):
                D.load_image(path)

    def test_magic_needs_whitespace(self, tmp_path):
        # Read past the magic, these are a 12x1 image and a 1x1 PGM.
        ppm = tmp_path / "glued.ppm"
        ppm.write_bytes(b"P612 1 255\n" + bytes(36))
        with pytest.raises(DataFormatError, match="no whitespace after P6"):
            D.load_image(ppm)
        pgm = tmp_path / "glued.pgm"
        pgm.write_bytes(b"P51 1 255\n\x07")
        with pytest.raises(DataFormatError, match="no whitespace after P5"):
            D.read_pgm(pgm)

    def test_header_number_too_long_for_int(self, tmp_path):
        path = tmp_path / "long.ppm"
        path.write_bytes(b"P6\n" + b"1" * 5000 + b" 1\n255\n" + bytes(3))
        with pytest.raises(DataFormatError, match="header number too long"):
            D.load_image(path)

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            D.load_image(tmp_path / "absent.ppm")

    def test_save_rejects_bad_shape(self, tmp_path):
        with pytest.raises(ShapeError):
            D.save_image(tmp_path / "bad.ppm", np.zeros((4, 4)))


class TestPgmCodec:
    def test_round_trip(self, tmp_path):
        values = np.arange(12).reshape(3, 4) / 255.0
        path = tmp_path / "grid.pgm"
        D.write_pgm(path, values)
        np.testing.assert_array_equal(D.read_pgm(path), values)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(DataFormatError):
            D.read_pgm(path)


class TestRescaleAndPack:
    def test_identity_when_already_small(self):
        img = random_pixels(2, h=8, w=6)
        out = D.rescale_max_side(img, 8)
        np.testing.assert_array_equal(out, img)

    def test_halves_both_sides(self):
        img = random_pixels(3, h=32, w=16)
        out = D.rescale_max_side(img, 16)
        assert out.shape == (16, 8, 3)

    def test_never_upscales_and_caps_long_side(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            h, w = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            img = rng.random((h, w, 3))
            out = D.rescale_max_side(img, 12)
            assert out.shape[0] <= h and out.shape[1] <= w
            assert max(out.shape[:2]) <= 12
            if max(h, w) > 12:
                assert max(out.shape[:2]) == 12

    def test_constant_image_stays_constant(self):
        img = np.full((30, 20, 3), 0.6)
        out = D.rescale_max_side(img, 10)
        np.testing.assert_allclose(out, 0.6, rtol=0, atol=1e-12)

    def test_center_crop_square(self):
        img = random_pixels(5, h=6, w=4)
        out = D.center_crop_square(img)
        np.testing.assert_array_equal(out, img[1:5, :, :])
        tall = D.center_crop_square(random_pixels(6, h=3, w=7))
        assert tall.shape == (3, 3, 3)

    def test_pack_exact_size_is_identity(self):
        img = random_pixels(7, h=8, w=8)
        np.testing.assert_array_equal(D.pack_image(img, 8), img)

    def test_pack_pads_small_square_crops(self):
        img = random_pixels(8, h=8, w=4)  # shrinks to nothing, crops to 4x4
        out = D.pack_image(img, 8)
        assert out.shape == (8, 8, 3)
        assert (out[:2] == 0).all() and (out[-2:] == 0).all()
        np.testing.assert_array_equal(out[2:6, 2:6], img[2:6, :, :])

    def test_pack_shrinks_large(self):
        img = random_pixels(9, h=32, w=48)
        out = D.pack_image(img, 16)
        assert out.shape == (16, 16, 3)


class TestBuildManifest:
    def test_ratio_mode_counts(self, tmp_path):
        make_tree(tmp_path, {"apple": 10, "bean": 10})
        manifest = D.build_manifest(tmp_path, ratios=(0.8, 0.0, 0.2), seed=1)
        assert manifest.classes == ("apple", "bean")
        for idx in range(2):
            per_split = {s: sum(1 for r in manifest.records
                                if r.class_index == idx and r.split == s)
                         for s in D.SPLITS}
            assert per_split == {"train": 8, "val": 0, "test": 2}

    def test_ratio_mode_with_validation_carveout(self, tmp_path):
        make_tree(tmp_path, {"caramel": 20})
        manifest = D.build_manifest(tmp_path, ratios=(0.7, 0.1, 0.2), seed=2)
        assert split_sizes(manifest) == {"train": 14, "val": 2, "test": 4}

    def test_counts_mode_excludes_surplus(self, tmp_path):
        make_tree(tmp_path, {"dough": 9, "egg": 7})
        manifest = D.build_manifest(tmp_path, counts=(3, 1, 2), seed=3)
        assert split_sizes(manifest) == {"train": 6, "val": 2, "test": 4}
        # 9 + 7 files, 6 per class kept.
        assert len(manifest.records) == 12

    def test_counts_mode_protocol_style(self, tmp_path):
        make_tree(tmp_path, {"fig": 20, "grape": 20})
        manifest = D.build_manifest(tmp_path, counts=(15, 0, 5), seed=4)
        for idx in range(2):
            splits = [r.split for r in manifest.records if r.class_index == idx]
            assert splits.count("train") == 15
            assert splits.count("test") == 5

    def test_counts_mode_rejects_shortfall(self, tmp_path):
        make_tree(tmp_path, {"ham": 4})
        with pytest.raises(DataError):
            D.build_manifest(tmp_path, counts=(3, 1, 2), seed=0)

    def test_each_record_exactly_once(self, tmp_path):
        make_tree(tmp_path, {"ice": 13, "jam": 9})
        manifest = D.build_manifest(tmp_path, ratios=(0.5, 0.25, 0.25), seed=5)
        paths = [r.path for r in manifest.records]
        assert len(paths) == len(set(paths)) == 22

    def test_same_seed_reproduces_bytes(self, tmp_path):
        make_tree(tmp_path, {"kale": 12, "lime": 12})
        a = D.manifest_to_text(D.build_manifest(tmp_path, ratios=(0.75, 0.0, 0.25), seed=9))
        b = D.manifest_to_text(D.build_manifest(tmp_path, ratios=(0.75, 0.0, 0.25), seed=9))
        assert a == b

    def test_different_seed_changes_assignment(self, tmp_path):
        make_tree(tmp_path, {"mango": 16})
        a = D.build_manifest(tmp_path, ratios=(0.5, 0.0, 0.5), seed=1)
        b = D.build_manifest(tmp_path, ratios=(0.5, 0.0, 0.5), seed=2)
        train_a = {r.path for r in a.records if r.split == "train"}
        train_b = {r.path for r in b.records if r.split == "train"}
        assert train_a != train_b

    def test_adding_a_class_keeps_existing_assignment(self, tmp_path):
        make_tree(tmp_path, {"nori": 10})
        before = D.build_manifest(tmp_path, ratios=(0.6, 0.0, 0.4), seed=7)
        make_tree(tmp_path, {"aioli": 10})  # sorts first, shifting class indices
        after = D.build_manifest(tmp_path, ratios=(0.6, 0.0, 0.4), seed=7)
        nori_before = {(r.path, r.split) for r in before.records}
        nori_after = {(r.path, r.split) for r in after.records if r.path.startswith("nori/")}
        assert nori_before == nori_after

    def test_empty_class_dir_rejected(self, tmp_path):
        make_tree(tmp_path, {"okra": 3})
        os.makedirs(tmp_path / "empty_one")
        with pytest.raises(DataError):
            D.build_manifest(tmp_path, ratios=(1.0, 0.0, 0.0), seed=0)

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(DataError):
            D.build_manifest(tmp_path / "nowhere", ratios=(1.0, 0.0, 0.0))

    def test_argument_validation(self, tmp_path):
        make_tree(tmp_path, {"pea": 4})
        with pytest.raises(ValueError):
            D.build_manifest(tmp_path)
        with pytest.raises(ValueError):
            D.build_manifest(tmp_path, ratios=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            D.build_manifest(tmp_path, ratios=(0.8, 0.0, 0.2), counts=(1, 0, 1))
        with pytest.raises(ValueError):
            D.build_manifest(tmp_path, counts=(0, 0, 0))


def build_manifest_oracle(root, ratios=None, counts=None, seed=0):
    """`build_manifest` as it was, assigning each file's split by an if-chain
    (its argument checks left out)."""
    classes = D._class_dirs(root)
    records = []
    for class_index, name in enumerate(classes):
        files = D._class_files(root, name)
        rng = np.random.default_rng(derive_seed(seed, "split", name))
        order = rng.permutation(len(files))
        n_train, n_val, n_test = D._split_counts(len(files), ratios, counts, name)
        for position, file_index in enumerate(order):
            if position < n_train:
                split = "train"
            elif position < n_train + n_val:
                split = "val"
            elif position < n_train + n_val + n_test:
                split = "test"
            else:
                continue
            records.append(D.ManifestRecord(f"{name}/{files[file_index]}", class_index, split))
    return D.DatasetManifest(str(root), int(seed), tuple(classes), tuple(records))


class TestBuildManifestOracle:
    @pytest.fixture(scope="class")
    def trees(self, tmp_path_factory):
        """Two trees, with classes of 1 to 23 and of 3 to 23 files; build_manifest
        reads only the file names."""
        roots = []
        for sizes in ((1, 2, 3, 5, 8, 13, 23), (3, 5, 8, 13, 23)):
            root = tmp_path_factory.mktemp("oracle")
            for index, size in enumerate(sizes):
                (root / f"class{index}").mkdir()
                for i in range(size):
                    (root / f"class{index}" / f"img_{i:03d}.ppm").write_bytes(b"")
            roots.append(root)
        return roots

    @pytest.mark.parametrize("ratios", [(0.8, 0.1, 0.1), (0.5, 0.0, 0.5), (1.0, 0.0, 0.0),
                                        (0.0, 0.0, 1.0), (0.34, 0.33, 0.33), (0.1, 0.6, 0.3)])
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_ratios_mode_matches_if_chain(self, trees, ratios, seed):
        got = D.manifest_to_text(D.build_manifest(trees[0], ratios=ratios, seed=seed))
        want = D.manifest_to_text(build_manifest_oracle(trees[0], ratios=ratios, seed=seed))
        assert got == want

    @pytest.mark.parametrize("counts", [(1, 0, 0), (0, 0, 1), (1, 1, 1), (2, 0, 1),
                                        (1, 2, 0), (0, 3, 0), (3, 0, 0)])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_counts_mode_matches_if_chain_with_surplus(self, trees, counts, seed):
        got = D.manifest_to_text(D.build_manifest(trees[1], counts=counts, seed=seed))
        want = D.manifest_to_text(build_manifest_oracle(trees[1], counts=counts, seed=seed))
        assert got == want


class TestManifestSerialization:
    def _manifest(self, tmp_path):
        make_tree(tmp_path, {"quince": 6, "radish": 5})
        return D.build_manifest(tmp_path, ratios=(0.5, 0.0, 0.5), seed=11)

    def test_text_round_trip_is_byte_identical(self, tmp_path):
        manifest = self._manifest(tmp_path)
        text = D.manifest_to_text(manifest)
        again = D.manifest_to_text(D.manifest_from_text(text))
        assert text == again

    def test_file_round_trip(self, tmp_path):
        manifest = self._manifest(tmp_path)
        path = tmp_path / "data.manifest"
        D.save_manifest(path, manifest)
        loaded = D.load_manifest(path)
        assert loaded == manifest
        D.save_manifest(tmp_path / "again.manifest", loaded)
        assert (tmp_path / "again.manifest").read_bytes() == path.read_bytes()

    def test_load_with_root_override(self, tmp_path):
        manifest = self._manifest(tmp_path)
        path = tmp_path / "data.manifest"
        D.save_manifest(path, manifest)
        moved = D.load_manifest(path, root="/elsewhere")
        assert moved.root == "/elsewhere"
        assert moved.records == manifest.records

    def test_parse_errors(self):
        with pytest.raises(DataFormatError):
            D.manifest_from_text("train\t0\tx.ppm\n")  # no header
        with pytest.raises(DataFormatError):
            D.manifest_from_text("root r\nseed 0\nclass 1 skipped\n")
        with pytest.raises(DataFormatError):
            D.manifest_from_text("root r\nseed 0\nclass 0 a\nlunch\t0\tx.ppm\n")
        with pytest.raises(DataFormatError):
            D.manifest_from_text("root r\nseed 0\nclass 0 a\ntrain\t5\tx.ppm\n")
        with pytest.raises(DataFormatError):
            D.manifest_from_text("root r\nseed 0\nclass 0 a\ntrain\tzero\tx.ppm\n")

    @pytest.mark.parametrize("root", ["food ", " food", "food\t", "", "fo\nod", "food\u2028"])
    def test_refuses_a_root_the_root_line_cannot_carry(self, root):
        # The root line is read back stripped: 'root food ' would name 'food'.
        with pytest.raises(DataError, match="bad dataset root"):
            D.DatasetManifest(root, 0, ("a",), ())

    @pytest.mark.parametrize("char", ["\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85",
                                      "\u2028", "\u2029"])
    def test_refuses_every_line_break_in_a_path_or_class_name(self, char):
        with pytest.raises(DataFormatError, match="bad record path"):
            D.ManifestRecord(f"a/x{char}y.ppm", 0, "train")
        with pytest.raises(DataError, match="bad class name"):
            D.DatasetManifest("food", 0, (f"a{char}b",), ())


class TestBatchIterator:
    def _setup(self, tmp_path, per_class=6, h=4, w=4):
        make_tree(tmp_path, {"soup": per_class, "taco": per_class}, h=h, w=w)
        return D.build_manifest(tmp_path, ratios=(0.5, 0.0, 0.5), seed=1)

    def test_single_batch_when_size_covers_split(self, tmp_path):
        manifest = self._setup(tmp_path)
        batches = list(D.batch_iterator(manifest, "train", 100, 4))
        assert len(batches) == 1
        x, labels = batches[0]
        assert x.shape == (6, 4, 4, 3)
        assert labels.shape == (6, 2)
        np.testing.assert_array_equal(labels.sum(axis=1), np.ones(6))

    def test_partial_final_batch_and_exact_coverage(self, tmp_path):
        manifest = self._setup(tmp_path, per_class=5)
        batches = list(D.batch_iterator(manifest, "test", 4, 4, seed=3))
        assert [b[0].i for b in batches] == [4, 2]
        # Constant-color images identify records; each must appear once.
        seen = []
        for x, _ in batches:
            for i in range(x.i):
                seen.append(round(float(x.data[i, 0, 0, 0]) * 255))
        assert len(seen) == 6
        assert len(set(seen)) == 6

    def test_same_seed_same_stream(self, tmp_path):
        manifest = self._setup(tmp_path)
        def digest(seed):
            h = hashlib.sha256()
            for x, labels in D.batch_iterator(manifest, "train", 2, 4, seed=seed):
                h.update(x.data.tobytes())
                h.update(labels.tobytes())
            return h.hexdigest()
        assert digest(7) == digest(7)
        assert digest(7) != digest(8)

    def test_val_stream_is_stable_under_policy(self, tmp_path):
        make_tree(tmp_path, {"udon": 8})
        manifest = D.build_manifest(tmp_path, ratios=(0.5, 0.5, 0.0), seed=2)
        policy = AugmentPolicy(flip_probability=1.0, noise_sigma=0.2)
        def epoch_bytes():
            return b"".join(x.data.tobytes() for x, _ in
                            D.batch_iterator(manifest, "val", 3, 4, policy=policy))
        assert epoch_bytes() == epoch_bytes()

    def test_train_policy_actually_augments(self, tmp_path):
        manifest = self._setup(tmp_path)
        plain = list(D.batch_iterator(manifest, "train", 10, 4))[0][0]
        policy = AugmentPolicy(noise_sigma=0.2, seed=3)
        noisy = list(D.batch_iterator(manifest, "train", 10, 4, policy=policy))[0][0]
        assert not np.array_equal(plain.data, noisy.data)

    def test_augmentation_independent_of_batch_size(self, tmp_path):
        manifest = self._setup(tmp_path)
        policy = AugmentPolicy(noise_sigma=0.1, seed=5)
        def stream(batch_size):
            rows = [x.data for x, _ in
                    D.batch_iterator(manifest, "train", batch_size, 4, policy=policy)]
            return np.concatenate(rows)
        np.testing.assert_array_equal(stream(2), stream(5))

    def test_store_packs_each_image_once(self, tmp_path, monkeypatch):
        manifest = self._setup(tmp_path)
        decoded = count_decodes(monkeypatch)
        store = D.PackedStore()
        policy = AugmentPolicy(noise_sigma=0.1, seed=5)
        for epoch in range(3):
            list(D.batch_iterator(manifest, "train", 4, 4, seed=epoch, policy=policy,
                                  store=store))
        train = [r.path for r in manifest.split_records("train")]
        assert sorted(decoded) == sorted(train)
        assert set(decoded.values()) == {1}
        assert sorted(path for path, side in store) == sorted(train)
        assert all(not image.flags.writeable for image in store.values())
        assert store.nbytes == sum(image.nbytes for image in store.values())

    def test_images_past_the_cap_decode_every_pass(self, tmp_path, monkeypatch):
        manifest = self._setup(tmp_path)
        one_image = 4 * 4 * 3 * 8  # one packed float64 image
        monkeypatch.setattr(D, "_STORE_BYTES", one_image)
        policy = AugmentPolicy(flip_probability=0.5, rotation_range=(-20.0, 20.0),
                               noise_sigma=0.1, seed=5)

        def epochs(store):
            return [(x.data, labels) for epoch in range(2) for x, labels in
                    D.batch_iterator(manifest, "train", 4, 4, seed=epoch, policy=policy,
                                     store=store)]

        plain = epochs(None)
        decoded = count_decodes(monkeypatch)
        store = D.PackedStore()
        stored = epochs(store)
        assert len(store) == 1 and store.nbytes == one_image
        (kept, _), = store
        assert decoded.pop(kept) == 1
        assert len(decoded) == len(manifest.split_records("train")) - 1
        assert set(decoded.values()) == {2}
        assert len(stored) == len(plain)
        for (x, labels), (x_plain, labels_plain) in zip(stored, plain):
            np.testing.assert_array_equal(x, x_plain)
            np.testing.assert_array_equal(labels, labels_plain)

    # The settings are checked at the call, before a batch is asked for.
    def test_empty_split_rejected(self, tmp_path):
        make_tree(tmp_path, {"wasabi": 4})
        manifest = D.build_manifest(tmp_path, ratios=(1.0, 0.0, 0.0), seed=0)
        with pytest.raises(DataError, match="split 'val' has no records"):
            D.batch_iterator(manifest, "val", 2, 4)

    def test_bad_batch_size_rejected(self, tmp_path):
        manifest = self._setup(tmp_path)
        with pytest.raises(ValueError, match="batch size must be >= 1"):
            D.batch_iterator(manifest, "train", 0, 4)

    def test_bad_target_side_rejected(self, tmp_path):
        manifest = self._setup(tmp_path)
        with pytest.raises(ValueError, match="target side must be >= 1, got 0"):
            D.batch_iterator(manifest, "train", 2, 0)

    def test_unknown_split_rejected(self, tmp_path):
        manifest = self._setup(tmp_path)
        with pytest.raises(ValueError, match="unknown split"):
            D.batch_iterator(manifest, "holdout", 2, 4)
