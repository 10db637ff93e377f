"""The text decoders accept a file only as its writer spells it.

`parse_model_spec`, `manifest_from_text` and `history_from_csv` re-encode
what they read with `model_spec_text`, `manifest_to_text` and
`history_to_csv` and raise `DataFormatError` at the first line that
differs. Blank lines are ignored, and so is whitespace around the
manifest's root, seed and class lines and around and between model-spec
tokens. Each probe below is a spelling `int()`, `float()` or a later key
would take but the writer never makes; the properties check that whatever
a writer makes decodes back to an equal object.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from purefoodnet import dataio as D
from purefoodnet import models as M
from purefoodnet import training as T
from purefoodnet.cli import main
from purefoodnet.errors import DataError, DataFormatError

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=100,
                    suppress_health_check=[HealthCheck.too_slow])

SPEC_TEXT = (
    "input 8 8 3\n"
    "top 4\n"
    "c1 conv filters=3 kernel=3 stride=2 padding=1 activation=none\n"
    "bn1 batchnorm trainable=false\n"
    "p1 pool mode=average window=2 stride=2\n"
    "d0 dropout rate=0.25\n"
    "flatten flatten\n"
    "out dense units=2 activation=softmax\n"
)
C1_LINE = "c1 conv filters=3 kernel=3 stride=2 padding=1 activation=none"

# probe -> (text that replaces the first occurrence, its replacement, its line)
SPEC_PROBES = {
    "duplicate key": (C1_LINE, C1_LINE + " filters=5", 3),
    "reordered keys": ("filters=3 kernel=3", "kernel=3 filters=3", 3),
    "trailing header token": ("top 4", "top 4 junk", 2),
    "zero-padded header number": ("input 8 8 3", "input 08 8 3", 1),
    "signed int": ("filters=3", "filters=+3", 3),
    "float without a leading digit": ("rate=0.25", "rate=.25", 6),
    "trainable spelled out": ("flatten flatten", "flatten flatten trainable=true", 7),
}

HISTORY_TEXT = T.history_to_csv([T.EpochStats(1, 0.5, 0.25, 0.75, 0.5, 0.01),
                                 T.EpochStats(2, 0.25, 0.5, 0.5, 0.75, 0.01)])
HISTORY_PROBES = {
    "trailing zero": ("2,0.25,0.5,", "2,0.25,0.50,"),
    "exponent": ("0.75,0.01\n", "0.75,1e-2\n"),
    "zero-padded epoch": ("\n2,", "\n02,"),
}

MANIFEST = D.DatasetManifest("data/food", 7, ("apple", "bean"), (
    D.ManifestRecord("apple/img 000.ppm", 0, "train"),
    D.ManifestRecord("bean/img_000.ppm", 1, "val")))
MANIFEST_TEXT = D.manifest_to_text(MANIFEST)


def probe(text, case):
    old, new = case[:2]
    assert old in text
    return text.replace(old, new, 1)


# ---------------------------------------------------------------------------
# Probes: each was accepted before the decoders compared against the writer.


def test_the_unchanged_texts_decode():
    assert M.model_spec_text(M.parse_model_spec(SPEC_TEXT)) == SPEC_TEXT
    assert T.history_to_csv(T.history_from_csv(HISTORY_TEXT)) == HISTORY_TEXT
    assert D.manifest_from_text(MANIFEST_TEXT) == MANIFEST


@pytest.mark.parametrize("case", sorted(SPEC_PROBES))
def test_spec_probe_is_refused_at_its_line(case):
    lineno = SPEC_PROBES[case][2]
    with pytest.raises(DataFormatError, match=f"line {lineno}: expected "):
        M.parse_model_spec(probe(SPEC_TEXT, SPEC_PROBES[case]))


def test_spec_error_shows_the_expected_line():
    text = probe(SPEC_TEXT, SPEC_PROBES["duplicate key"])
    with pytest.raises(DataFormatError) as info:
        M.parse_model_spec(text)
    assert str(info.value) == (
        "line 3: expected 'c1 conv filters=5 kernel=3 stride=2 padding=1 activation=none', "
        f"got '{C1_LINE} filters=5'")


def test_spec_whitespace_and_blank_lines_are_ignored():
    loose = "\n  input  8 8\t3 \n\ntop 4\n" + "\n".join(
        "  " + line.replace(" ", "   ") + "\t" for line in SPEC_TEXT.splitlines()[2:]) + "\n\n"
    assert M.parse_model_spec(loose) == M.parse_model_spec(SPEC_TEXT)


def test_spec_error_names_the_line_in_the_file():
    text = "\n\n" + probe(SPEC_TEXT, SPEC_PROBES["signed int"])  # two blank lines first
    with pytest.raises(DataFormatError, match="line 5: "):
        M.parse_model_spec(text)


@pytest.mark.parametrize("case", sorted(HISTORY_PROBES))
def test_history_probe_is_refused(case):
    with pytest.raises(DataFormatError, match="line 3: expected "):
        T.history_from_csv(probe(HISTORY_TEXT, HISTORY_PROBES[case]))


def test_history_rows_must_match_exactly():
    with pytest.raises(DataFormatError, match="line 2: expected "):
        T.history_from_csv(HISTORY_TEXT.replace("\n1,", "\n1, ", 1))


def test_manifest_class_line_out_of_index_order_is_refused():
    text = MANIFEST_TEXT.replace("class 0 apple\nclass 1 bean", "class 1 apple\nclass 0 bean")
    with pytest.raises(DataFormatError, match="line 3: expected 'class 0 apple'"):
        D.manifest_from_text(text)


def test_manifest_whitespace_is_ignored_only_around_header_and_class_lines():
    lines = MANIFEST_TEXT.splitlines()
    loose = "\n".join([" " + line + "  " for line in lines[:4]] + [""] + lines[4:]) + "\n"
    assert D.manifest_from_text(loose) == MANIFEST
    with pytest.raises(DataFormatError, match="line 5: expected "):
        D.manifest_from_text(MANIFEST_TEXT.replace("train\t0", "train\t0 ", 1))
    with pytest.raises(DataFormatError, match="line 2: expected 'seed 7'"):
        D.manifest_from_text(MANIFEST_TEXT.replace("seed 7", "seed  7"))


# ---------------------------------------------------------------------------
# Properties: whatever a writer makes decodes back to an equal object.


@PROPERTY
@given(classes=st.integers(2, 12), width=st.sampled_from([0.03125, 0.0625, 0.125, 0.3, 1.0]),
       side=st.sampled_from([8, 16, 24, 32, 224]),
       rate=st.one_of(st.just(0), st.floats(0.0, 1.0, exclude_max=True)))
def test_reference_specs_round_trip(classes, width, side, rate):
    spec = M.build_purefoodnet(classes, width_scale=width, input_side=side, dropout_rate=rate)
    frozen = M.set_trainable(spec, [layer.name for layer in spec.layers[::3]], False)
    for each in (spec, frozen):
        text = M.model_spec_text(each)
        assert M.parse_model_spec(text) == each
        assert M.model_spec_text(M.parse_model_spec(text)) == text


NAME = st.text("abcxyz019_-.", min_size=1, max_size=8)
DIRS = st.builds("/".join, st.lists(NAME, min_size=1, max_size=3))
PATH = st.builds(str.__add__, DIRS, st.text("ab 12_.", max_size=6))  # may end in spaces
# Whitespace around the root line is ignored, so a root cannot end in a space.
ROOT = st.one_of(DIRS, st.just("/srv/food data"))


@st.composite
def manifests(draw):
    classes = draw(st.lists(NAME, min_size=1, max_size=5, unique=True))
    paths = draw(st.lists(PATH, max_size=8, unique=True))
    records = [D.ManifestRecord(path, draw(st.integers(0, len(classes) - 1)),
                                draw(st.sampled_from(D.SPLITS))) for path in paths]
    return D.DatasetManifest(draw(ROOT), draw(st.integers(-2**63, 2**64)), classes, records)


@PROPERTY
@given(manifests())
def test_manifests_round_trip(manifest):
    text = D.manifest_to_text(manifest)
    assert D.manifest_from_text(text) == manifest


# Any code point, line breaks and whitespace included.
ANY_TEXT = st.text(st.characters(exclude_categories=["Cs"]), max_size=4)


@PROPERTY
@given(root=ANY_TEXT, name=ANY_TEXT, path=ANY_TEXT)
@example(root="food ", name="a", path="a.ppm")
@example(root="food", name="a\x85", path="a.ppm")
@example(root="food", name="a", path="a/x\ry.ppm")
@example(root="food", name="a", path="a/x\u2028y.ppm")
@example(root="food", name="a", path=" a b ")
def test_every_manifest_that_constructs_round_trips(root, name, path):
    try:
        manifest = D.DatasetManifest(root, 0, (name,), (D.ManifestRecord(path, 0, "train"),))
    except (DataError, DataFormatError):
        return
    assert D.manifest_from_text(D.manifest_to_text(manifest)) == manifest


FRACTION = st.one_of(st.just(-0.0), st.floats(0.0, 1.0))
LOSS = st.one_of(st.just(-0.0), st.floats(0.0, 1e6))


@st.composite
def histories(draw):
    validated = draw(st.booleans())
    rows = []
    for epoch in range(1, draw(st.integers(0, 6)) + 1):
        val_loss, val_top1 = ((draw(LOSS), draw(FRACTION)) if validated
                              else (math.nan, math.nan))
        rows.append(T.EpochStats(epoch, draw(LOSS), draw(FRACTION), val_loss, val_top1,
                                 draw(st.floats(1e-12, 10.0))))
    return rows


@PROPERTY
@given(histories())
def test_histories_round_trip(history):
    text = T.history_to_csv(history)
    read = T.history_from_csv(text)
    # repr tells nan from nan and -0.0 from 0.0, which == does not.
    assert [repr(row) for row in read] == [repr(row) for row in history]
    assert T.history_to_csv(read) == text


# ---------------------------------------------------------------------------
# The CLI: a refused spec exits 3 naming its line; a refused history exits 2.


def test_predict_on_a_duplicate_key_spec_exits_3_naming_line_3(tmp_path, capsys):
    spec = M.parse_model_spec(SPEC_TEXT)
    M.save_weights(tmp_path / "w.pfw", spec, M.init_params(spec, seed=1))
    D.save_image(tmp_path / "img.ppm", np.full((8, 8, 3), 0.5))
    (tmp_path / "dup.spec").write_text(probe(SPEC_TEXT, SPEC_PROBES["duplicate key"]))
    assert main(["predict", "--spec", str(tmp_path / "dup.spec"),
                 "--weights", str(tmp_path / "w.pfw"), "--image", str(tmp_path / "img.ppm")]) == 3
    assert "line 3: expected 'c1 conv filters=5" in capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(HISTORY_PROBES))
def test_diagnose_on_a_history_probe_exits_2(tmp_path, capsys, case):
    path = tmp_path / "history.csv"
    path.write_text(probe(HISTORY_TEXT, HISTORY_PROBES[case]))
    assert main(["diagnose", "--history", str(path)]) == 2
    assert "line 3: expected " in capsys.readouterr().err
