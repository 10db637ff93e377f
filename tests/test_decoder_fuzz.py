"""Property-based fuzzing of the PFW1, PFT1, model-spec, history-CSV,
binary PPM/PGM, manifest and config-file decoders.

Each property starts from small valid files and damages them: a truncation,
a replacement of up to 32 bytes (single-byte overwrites among them), or a
splice of the head of one valid file onto the tail of another. Whatever
comes out must either decode or raise `DataFormatError` (`ConfigError` for
a config file); the only other outcome allowed is `WeightDigestError` when
a PFW1 file's spec digest no longer matches. Both binary formats are
canonical, so anything they accept re-encodes to exactly the bytes that
were read; an accepted manifest re-encodes to its own lines.

The `@example`s pin defects that once escaped as other exceptions or were
accepted silently: a NaN payload, a zero dim, a record with fewer values,
permuted dims with the same count, a conv line with a bad geometry,
history rows `train` can never write, a netpbm magic glued to the width,
manifest numbers `manifest_to_text` never spells and repeated manifest
headers, and non-finite config settings.
"""

import argparse
import math
import re
import struct

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from purefoodnet import cli
from purefoodnet import dataio as D
from purefoodnet import models as M
from purefoodnet import training as T
from purefoodnet.errors import ConfigError, DataFormatError, WeightDigestError
from purefoodnet.tensor import Tensor4, decode_utf8, tensor_from_bytes, tensor_to_bytes

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=300,
                suppress_health_check=[HealthCheck.too_slow])


def mutations(valid):
    """Damage recipes for the valid files in `valid`: ("cut", n) keeps the
    first n bytes of valid[0]; ("put", at, width, data) replaces
    valid[0][at:at + width] by data; ("splice", a, i, b, j) joins
    valid[a][:i] and valid[b][j:]."""
    size = max(len(v) for v in valid)
    files = st.integers(0, len(valid) - 1)
    return st.one_of(
        st.tuples(st.just("cut"), st.integers(0, len(valid[0]) - 1)),
        st.tuples(st.just("put"), st.integers(0, len(valid[0]) - 1), st.integers(1, 32),
                  st.binary(min_size=1, max_size=32)),
        st.tuples(st.just("splice"), files, st.integers(0, size), files, st.integers(0, size)),
    )


def damaged(valid, mutation) -> bytes:
    kind, *args = mutation
    if kind == "cut":
        return valid[0][:args[0]]
    if kind == "put":
        at, width, data = args
        return valid[0][:at] + data + valid[0][at + width:]
    a, i, b, j = args
    return valid[a][:i] + valid[b][j:]


# ---------------------------------------------------------------------------
# PFW1 weight files of one tiny spec (every parameter rank the format stores).

PFW1_SPEC = M.ModelSpec(
    input_shape=(4, 4, 1),
    layers=(M.conv_spec("c1", filters=2, kernel=3), M.batchnorm_spec("bn1"),
            M.pool_spec("p1"), M.flatten_spec(), M.dense_spec("out", 3, activation="softmax")),
    top_boundary=3,
)
PFW1_VALID = (M.weights_to_bytes(PFW1_SPEC, M.init_params(PFW1_SPEC, seed=1)),
              M.weights_to_bytes(PFW1_SPEC, M.init_params(PFW1_SPEC, seed=2, dtype=np.float64)))
C1_DIMS = PFW1_VALID[0].index(b"c1.filters") + len(b"c1.filters") + 5  # dims are (2, 3, 3, 1)


@settings(FUZZ)
@given(mutations(PFW1_VALID))
@example(("splice", 0, 0, 0, 0))  # unchanged
@example(("put", C1_DIMS + 32, 4, struct.pack("<f", math.nan)))
@example(("put", C1_DIMS + 8, 8, struct.pack("<Q", 0)))
@example(("put", C1_DIMS, 8, struct.pack("<Q", 1)))  # one filter's worth of values
@example(("put", C1_DIMS, 32, struct.pack("<4Q", 1, 3, 3, 2)))
def test_pfw1_decodes_or_raises_data_format_error(mutation):
    buf = damaged(PFW1_VALID, mutation)
    try:
        params = M.weights_from_bytes(buf, PFW1_SPEC)
    except WeightDigestError:
        assert buf[4:36] != PFW1_VALID[0][4:36]
        return
    except DataFormatError:
        return
    assert M.weights_to_bytes(PFW1_SPEC, params) == buf


# ---------------------------------------------------------------------------
# PFT1 tensor files.

PFT1_VALID = (
    tensor_to_bytes(Tensor4(np.arange(12, dtype=np.float32).reshape(1, 2, 2, 3) - 5.5)),
    tensor_to_bytes(Tensor4(np.linspace(-1.0, 1.0, 6).reshape(2, 1, 3, 1))),
)


@settings(FUZZ)
@given(mutations(PFT1_VALID))
@example(("splice", 0, 0, 0, 0))  # unchanged
@example(("put", 37, 4, struct.pack("<f", math.inf)))
@example(("put", 13, 72, struct.pack("<3Q", 0, 2, 3)))  # dims (1, 0, 2, 3), no payload
def test_pft1_decodes_or_raises_data_format_error(mutation):
    buf = damaged(PFT1_VALID, mutation)
    try:
        x = tensor_from_bytes(buf)
    except DataFormatError:
        return
    assert tensor_to_bytes(x) == buf


# ---------------------------------------------------------------------------
# Model-spec text.

SPEC_VALID = (
    M.model_spec_text(PFW1_SPEC).encode("utf-8"),
    b"input 8 8 3\ntop 4\n"
    b"c1 conv filters=3 kernel=3 stride=2 padding=1 activation=none\n"
    b"bn1 batchnorm trainable=false\np1 pool mode=average window=2 stride=2\n"
    b"d0 dropout rate=0.25\nflatten flatten\nout dense units=2 activation=softmax\n",
)
C1_LINE = SPEC_VALID[0].index(b"c1 conv")


@settings(FUZZ)
@given(mutations(SPEC_VALID))
@example(("splice", 0, 0, 0, 0))  # unchanged
@example(("put", SPEC_VALID[0].index(b"kernel=3") + 7, 1, b"0"))
@example(("put", SPEC_VALID[0].index(b"stride=1", C1_LINE) + 7, 1, b"0"))
@example(("put", SPEC_VALID[0].index(b"padding=1") + 8, 1, b"-1"))
def test_model_spec_parses_or_raises_data_format_error(mutation):
    blob = damaged(SPEC_VALID, mutation)
    try:
        spec = M.parse_model_spec(decode_utf8(blob, "model spec"))
    except DataFormatError:
        return
    assert M.parse_model_spec(M.model_spec_text(spec)) == spec


# ---------------------------------------------------------------------------
# History CSV (read by `diagnose`, which exits 2 on DataFormatError).

HISTORY_VALID = (
    T.history_to_csv([T.EpochStats(1, 1.0986, 0.375, 1.05, 0.5, 0.01),
                      T.EpochStats(2, 0.75, 0.625, 0.9, 0.625, 0.01),
                      T.EpochStats(3, 0.5, 0.8125, 0.85, 0.6875, 0.005)]).encode("utf-8"),
    # No validation set: both validation columns hold nan.
    T.history_to_csv([T.EpochStats(1, 2.25, 0.125, math.nan, math.nan, 0.1)]).encode("utf-8"),
)
ROW2 = HISTORY_VALID[0].index(b"\n2,")  # the newline that ends epoch 1's row
ROW3 = HISTORY_VALID[0].index(b"\n3,")


def written_by_train(history):
    """What `train` can write: epochs 1, 2, ...; a finite train loss >= 0 and
    top-1 in [0, 1]; validation loss and top-1 likewise, or both nan; lr > 0."""
    for epoch, row in enumerate(history, start=1):
        assert row.epoch == epoch
        assert math.isfinite(row.train_loss) and row.train_loss >= 0
        assert 0 <= row.train_top1 <= 1
        if math.isnan(row.val_loss) or math.isnan(row.val_top1):
            assert math.isnan(row.val_loss) and math.isnan(row.val_top1)
        else:
            assert math.isfinite(row.val_loss) and row.val_loss >= 0
            assert 0 <= row.val_top1 <= 1
        assert math.isfinite(row.lr) and row.lr > 0


@settings(FUZZ)
@given(mutations(HISTORY_VALID))
@example(("splice", 0, 0, 0, 0))  # unchanged
@example(("splice", 1, 0, 1, 0))  # unchanged, nan validation columns
@example(("put", ROW2 - 4, 4, b"inf"))  # lr inf
@example(("put", ROW2 + 3, 4, b"inf"))  # train loss inf
@example(("put", ROW2 + 3, 4, b"nan"))  # train loss nan
@example(("put", ROW2 + 8, 5, b"1.25"))  # train top-1 above 1
@example(("put", ROW2 - 4, 4, b"-0.01"))  # lr < 0
@example(("put", ROW2 - 4, 4, b"0.0"))  # lr 0
@example(("put", ROW2 + 1, 1, b"1"))  # epoch 1 twice
@example(("put", ROW2 + 1, 1, b"3"))  # epochs 1, 3, 3
@example(("splice", 0, ROW2, 0, ROW3))  # epoch 2 missing
@example(("put", ROW2 - 4, 4, b"0.0_1"))  # lr 0.01 spelled with a digit separator
@example(("put", ROW2 + 1, 1, b"0_2"))  # epoch 2 spelled with a digit separator
@example(("put", len(T.HISTORY_HEADER) + 1, 10 ** 6, b"1,0.5,1_0,0.75,0.5,-3\n"))  # diagnose
# printed train_error=-9.0 for this row and exited 0
def test_history_csv_parses_or_raises_data_format_error(mutation):
    blob = damaged(HISTORY_VALID, mutation)
    try:
        history = T.history_from_csv(decode_utf8(blob, "history CSV"))
    except DataFormatError:
        return
    written_by_train(history)
    rows = blob.split(T.HISTORY_HEADER.encode("utf-8"), 1)[1]
    assert b"_" not in rows  # 1_0 reads as 10 in int() and float()
    text = T.history_to_csv(history)
    assert T.history_to_csv(T.history_from_csv(text)) == text


# ---------------------------------------------------------------------------
# Binary PPM (P6) and PGM (P5) images, read from a file.

PPM_VALID = (b"P6\n2 1\n255\n" + bytes(range(6)),
             b"P6 12 1 255\n" + bytes(range(200, 236)))
PGM_VALID = (b"P5\n# two rows\n2 2\t255\r\x00\x80\xfe\xff",
             b"P5 1 1 255\n\x07")


def netpbm_decodes_or_raises(path, blob, magic, read):
    """`read` of `blob` raises DataFormatError, or its header (comments
    dropped) is the magic, width, height and 255, and its values are the
    trailing bytes / 255."""
    path.write_bytes(blob)
    try:
        values = read(path)
    except DataFormatError:
        return
    header, payload = blob[:len(blob) - values.size], blob[len(blob) - values.size:]
    fields = re.sub(rb"#[^\n]*", b"", header).split()
    assert fields[0] == magic
    assert [int(f) for f in fields[1:]] == [values.shape[1], values.shape[0], 255]
    assert header[-1:].isspace()
    np.testing.assert_array_equal(np.rint(values * 255.0),
                                  np.frombuffer(payload, np.uint8).reshape(values.shape))


@settings(FUZZ)
@given(mutations(PPM_VALID))
@example(("splice", 0, 0, 0, 0))  # unchanged
@example(("splice", 1, 2, 1, 3))  # "P612 1 255\n" + 36 bytes read as 12x1
def test_ppm_decodes_or_raises_data_format_error(tmp_path_factory, mutation):
    netpbm_decodes_or_raises(tmp_path_factory.getbasetemp() / "fuzz.ppm",
                             damaged(PPM_VALID, mutation), b"P6",
                             lambda path: D.load_image(path).pixels)


@settings(FUZZ)
@given(mutations(PGM_VALID))
@example(("splice", 0, 0, 0, 0))  # unchanged
@example(("splice", 1, 2, 1, 3))  # "P51 1 255\n\x07" read as 1x1
def test_pgm_decodes_or_raises_data_format_error(tmp_path_factory, mutation):
    netpbm_decodes_or_raises(tmp_path_factory.getbasetemp() / "fuzz.pgm",
                             damaged(PGM_VALID, mutation), b"P5", D.read_pgm)


# ---------------------------------------------------------------------------
# Dataset manifests (`eval --manifest` exits 3 on DataFormatError).

MANIFEST_VALID = (
    D.manifest_to_text(D.DatasetManifest("data/food", 10, ("apple", "bean"), (
        D.ManifestRecord("apple/img_000.ppm", 0, "train"),
        D.ManifestRecord("bean/img_000.ppm", 1, "val"),
        D.ManifestRecord("bean/img 001.ppm", 1, "test")))).encode("utf-8"),
    D.manifest_to_text(D.DatasetManifest("/srv/x", -5, ("soup",), (
        D.ManifestRecord("soup/a.ppm", 0, "train"),))).encode("utf-8"),
)
SEED_LINE = MANIFEST_VALID[0].index(b"seed 10")
RECORD_INDEX = MANIFEST_VALID[0].index(b"\t0\t") + 1


@settings(FUZZ)
@given(mutations(MANIFEST_VALID))
@example(("splice", 0, 0, 0, 0))  # unchanged
@example(("splice", 1, 0, 1, 0))  # unchanged, negative seed
@example(("put", SEED_LINE + 5, 2, b"1_0"))  # read as seed 10
@example(("put", MANIFEST_VALID[0].index(b"class 0") + 6, 1, b"+0"))  # read as class 0
@example(("put", RECORD_INDEX, 1, b" 0"))  # read as class index 0
@example(("put", RECORD_INDEX, 1, b"+0"))  # read as class index 0
@example(("splice", 0, SEED_LINE + 8, 1, MANIFEST_VALID[1].index(b"seed")))  # a second
# seed line replaced the first
def test_manifest_parses_or_raises_data_format_error(mutation):
    blob = damaged(MANIFEST_VALID, mutation)
    try:
        manifest = D.manifest_from_text(decode_utf8(blob, "manifest"))
    except DataFormatError:
        return
    lines = [line for line in blob.decode("utf-8").splitlines() if line.strip()]
    header = 2 + len(manifest.classes)  # the root, seed and class lines
    assert ([line.strip() for line in lines[:header]] + lines[header:]
            == D.manifest_to_text(manifest).splitlines())


# ---------------------------------------------------------------------------
# Config files (`--config`; a ConfigError exits 2).

CONFIG_VALID = (
    b"# a training run\nepochs = 3\nbatch_size = 8\nlearning_rate = 0.05  # base rate\n"
    b"momentum = 0.9\nl2_strength = 0.0001\npatience = none\nseed = 7\n"
    b"split_ratios = 0.8,0.1,0.1\naug_rotation = -10,10\naug_crop = 0.8,1.0\n",
    b"model = purefoodnet\nwidth_scale = 0.125\ninput_side = 32\ndropout_rate = 0.25\n"
    b"decay_factor = 0.5\ndecay_interval = 4\nl1_strength = 0\naug_flip = 0.5\n"
    b"aug_tilt = -0.1,0.1\naug_color_shift = 0.05\naug_noise = 0.01\naug_contrast = 0.9,1.1\n",
)


@settings(FUZZ)
@given(mutations(CONFIG_VALID))
@example(("splice", 0, 0, 0, 0))  # unchanged
@example(("splice", 1, 0, 1, 0))  # unchanged
@example(("put", CONFIG_VALID[0].index(b"0.05"), 4, b"nan"))  # trained until a layer
# or the optimizer failed
@example(("put", CONFIG_VALID[0].index(b"-10,10"), 6, b"nan,nan"))  # OverflowError
# from the rotation draw
def test_config_file_resolves_or_raises_config_error(tmp_path_factory, mutation):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(damaged(CONFIG_VALID, mutation))
    try:
        cfg = cli._resolve_config(argparse.Namespace(config=str(path)))
    except ConfigError:
        return
    for value in vars(cfg).values():
        for number in value if isinstance(value, tuple) else (value,):
            assert not isinstance(number, float) or math.isfinite(number), cfg
    try:
        cfg.policy()
        cfg.train_config(cfg.patience)
    except ConfigError:
        return
