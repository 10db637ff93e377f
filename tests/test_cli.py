"""End-to-end command tests driving cli.main in process."""

import argparse
import dataclasses
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from purefoodnet import dataio as D
from purefoodnet import evaluation as E
from purefoodnet import models as M
from purefoodnet import cli
from purefoodnet import training as T
from purefoodnet.augment import AugmentPolicy
from purefoodnet.cli import main
from purefoodnet.errors import ConfigError, DataFormatError
from purefoodnet.tensor import Tensor4, load_tensor
from test_models import spy_on_kernels


def make_dataset(root, classes=2, per_class=8, side=8, seed=0):
    """Directory-per-class PPM tree with class-dependent color statistics
    so a tiny model can actually learn something."""
    rng = np.random.default_rng(seed)
    for c in range(classes):
        class_dir = os.path.join(root, f"food_{c}")
        os.makedirs(class_dir, exist_ok=True)
        for i in range(per_class):
            base = np.zeros((side, side, 3))
            base[..., c % 3] = 0.8
            noise = rng.random((side, side, 3)) * 0.2
            D.save_image(os.path.join(class_dir, f"img_{i:03d}.ppm"), base + noise)
    return root


def tiny_spec_file(path, side=8, classes=2):
    spec = M.ModelSpec(
        (side, side, 3),
        (M.conv_spec("c1", filters=4, kernel=3),
         M.batchnorm_spec("bn1"),
         M.pool_spec("p1", window=2, stride=2),
         M.flatten_spec(),
         M.dense_spec("fc1", 8, activation="relu"),
         M.dense_spec("predictor", classes, activation="softmax")),
        top_boundary=3,
    )
    M.save_model_spec(path, spec)
    return spec


def train_args(data_dir, out_dir, spec_path, extra=()):
    return ["train",
            "--model", str(spec_path),
            "--dataset-root", str(data_dir),
            "--out-dir", str(out_dir),
            "--split-ratios", "0.5,0.25,0.25",
            "--epochs", "2",
            "--batch-size", "4",
            "--learning-rate", "0.05",
            "--patience", "none",
            "--seed", "3",
            *extra]


@pytest.fixture()
def trained_run(tmp_path):
    """One completed train command; several tests build on its artifacts."""
    data = make_dataset(tmp_path / "data")
    spec_path = tmp_path / "tiny.spec"
    tiny_spec_file(spec_path)
    out = tmp_path / "run"
    assert main(train_args(data, out, spec_path)) == 0
    return {"data": data, "spec": spec_path, "out": out, "tmp": tmp_path}


class TestTrain:
    def test_writes_all_artifacts(self, trained_run):
        out = trained_run["out"]
        for name in ("model.spec", "weights.pfw", "history.csv", "manifest.txt"):
            assert (out / name).exists(), name
        history = T.read_history_csv(out / "history.csv")
        assert len(history) == 2

    def test_deterministic_across_invocations(self, trained_run):
        other = trained_run["tmp"] / "run_b"
        assert main(train_args(trained_run["data"], other,
                               trained_run["spec"])) == 0
        for name in ("history.csv", "weights.pfw", "model.spec", "manifest.txt"):
            assert (other / name).read_bytes() == (trained_run["out"] / name).read_bytes()

    def test_epochs_zero_writes_initial_state(self, tmp_path):
        data = make_dataset(tmp_path / "data")
        spec_path = tmp_path / "tiny.spec"
        spec = tiny_spec_file(spec_path)
        out = tmp_path / "fresh"
        assert main(train_args(data, out, spec_path, extra=["--epochs", "0"])) == 0
        history = (out / "history.csv").read_text()
        assert history == T.HISTORY_HEADER + "\n"
        params = M.load_weights(out / "weights.pfw", spec)
        assert params == M.init_params(spec, seed=3)

    def test_missing_dataset_root_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        code = main(["train", "--dataset-root", str(missing),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert str(missing) in capsys.readouterr().err

    def test_bad_flag_value_exits_2(self, tmp_path):
        assert main(["train", "--dataset-root", str(tmp_path),
                     "--epochs", "many"]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--aug-rotation", "nan,nan"), ("--aug-tilt", "0,inf"), ("--aug-contrast", "1,inf"),
        ("--aug-noise", "nan"), ("--aug-color-shift", "nan"), ("--learning-rate", "nan"),
        ("--learning-rate", "inf"), ("--l2-strength", "nan"), ("--split-ratios", "nan,0,1"),
    ])
    def test_non_finite_setting_exits_2_before_any_artifact(self, tmp_path, capsys, flag,
                                                            value):
        data = make_dataset(tmp_path / "data")
        spec_path = tmp_path / "tiny.spec"
        tiny_spec_file(spec_path)
        out = tmp_path / "run"
        assert main(train_args(data, out, spec_path, extra=[flag, value])) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value, code", [("1e308", 2), ("1e307", 0)])
    def test_color_shift_must_leave_a_finite_draw_range(self, tmp_path, capsys, value, code):
        data = make_dataset(tmp_path / "data")
        spec_path = tmp_path / "tiny.spec"
        tiny_spec_file(spec_path)
        out = tmp_path / "run"
        assert main(train_args(data, out, spec_path,
                               extra=["--epochs", "1", "--aug-color-shift", value])) == code
        if code:
            assert "color shift" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert len(T.read_history_csv(out / "history.csv")) == 1

    def test_config_key_given_twice_exits_2_naming_both_lines(self, tmp_path, capsys):
        data = make_dataset(tmp_path / "data")
        config = tmp_path / "twice.cfg"
        config.write_text("epochs = 1\nseed = 3\nepochs = 2\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--dataset-root", str(data),
                     "--width-scale", "0.0625", "--input-side", "8", "--out-dir", str(out)]) == 2
        assert f"{config}:3: 'epochs' is already set on line 1" in capsys.readouterr().err
        assert not out.exists()

    def test_class_count_comes_from_the_manifest_only(self, tmp_path):
        data = make_dataset(tmp_path / "data", classes=3, per_class=4)
        out = tmp_path / "run"
        small = ["--dataset-root", str(data), "--width-scale", "0.0625", "--input-side", "8",
                 "--epochs", "1", "--out-dir", str(out)]
        assert main(["train", "--num-classes", "5", *small]) == 2
        config = tmp_path / "classes.cfg"
        config.write_text("num_classes = 3\n")
        assert main(["train", "--config", str(config), *small]) == 2
        assert not out.exists()

    def test_config_file_and_flag_precedence(self, tmp_path):
        data = make_dataset(tmp_path / "data")
        spec_path = tmp_path / "tiny.spec"
        tiny_spec_file(spec_path)
        config = tmp_path / "run.cfg"
        config.write_text(
            "model = {}\n"
            "dataset_root = {}\n"
            "split_ratios = 0.5,0.25,0.25\n"
            "epochs = 1  # overridden below\n"
            "batch_size = 4\n"
            "patience = none\n"
            "seed = 3\n".format(spec_path, data))
        out_file_only = tmp_path / "file_only"
        assert main(["train", "--config", str(config),
                     "--out-dir", str(out_file_only)]) == 0
        assert len(T.read_history_csv(out_file_only / "history.csv")) == 1
        out_flag = tmp_path / "flag_wins"
        assert main(["train", "--config", str(config), "--epochs", "2",
                     "--out-dir", str(out_flag)]) == 0
        assert len(T.read_history_csv(out_flag / "history.csv")) == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("learning_rat = 0.1\n")
        assert main(["train", "--config", str(config)]) == 2
        assert "learning_rat" in capsys.readouterr().err

    def test_non_utf8_config_file_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"epochs = 2\xff\n")
        assert main(["train", "--config", str(config)]) == 2
        assert str(config) in capsys.readouterr().err

    def test_each_image_decoded_once_per_command(self, tmp_path, monkeypatch):
        data = make_dataset(tmp_path / "data")
        spec_path = tmp_path / "tiny.spec"
        tiny_spec_file(spec_path)
        decoded = []
        load = D.load_image

        def counting(path):
            decoded.append(os.path.relpath(path, data).replace(os.sep, "/"))
            return load(path)

        monkeypatch.setattr(D, "load_image", counting)
        out = tmp_path / "run"
        assert main(train_args(data, out, spec_path,
                               extra=["--epochs", "3", "--aug-flip", "0.5",
                                      "--aug-rotation=-15,15", "--aug-noise", "0.05"])) == 0
        assert len(T.read_history_csv(out / "history.csv")) == 3
        manifest = D.load_manifest(out / "manifest.txt")
        wanted = [r.path for r in manifest.records if r.split in ("train", "val")]
        assert manifest.split_records("val")
        assert sorted(decoded) == sorted(wanted)  # 3 epochs, 3 validation passes

    def test_help_exits_zero(self, capsys):
        assert main(["train", "--help"]) == 0
        assert main(["--help"]) == 0
        assert main(["finetune", "--help"]) == 0
        shown = " ".join(capsys.readouterr().out.split())
        for name, default in (("width_scale", 1.0), ("input_side", 224), ("dropout_rate", 0.5),
                              ("head_units", 512)):
            assert f"override {name} (default {default!r})" in shown

    def test_own_flags_name_their_defaults(self, capsys):
        # eval and dump-batch define flags that share names with train's
        # settings, with defaults of their own; their help says which.
        args = cli._build_parser().parse_args(["eval", "--spec", "s", "--weights", "w",
                                               "--manifest", "m"])
        assert args.batch_size == T.TrainConfig.batch_size
        assert main(["eval", "--help"]) == 0
        assert main(["dataio", "dump-batch", "--help"]) == 0
        shown = " ".join(capsys.readouterr().out.split())
        for text in (f"images per forward (default {T.TrainConfig.batch_size}, as train's)",
                     "images in the batch (default 8, not train's)",
                     "side the images are packed to (default 32, not train's)",
                     "shuffle seed (default none: the manifest order, not train's 0)"):
            assert text in shown


SETTINGS = [f.name for f in dataclasses.fields(cli.RunConfig)]
# One value of each setting, unlike its default, that resolves without a file.
SAMPLE = {"model": "other.spec", "dataset_root": "d", "manifest": "m.txt", "out_dir": "o",
          "epochs": "3", "batch_size": "2", "learning_rate": "0.5", "momentum": "0.5",
          "decay_factor": "0.25", "decay_interval": "2", "patience": "3", "l2_strength": "0.1",
          "l1_strength": "0.1", "seed": "4", "input_side": "16", "width_scale": "0.5",
          "head_units": "4", "dropout_rate": "0.25", "split_ratios": "0.5,0.25,0.25",
          "split_counts": "4,2,2", "aug_flip": "0.5", "aug_crop": "0.5,1", "aug_tilt": "0,0.1",
          "aug_color_shift": "0.1", "aug_rotation": "-5,5", "aug_noise": "0.1",
          "aug_contrast": "0.9,1.1"}
# Each command with its required options, none of them a setting.
COMMANDS = {"train": ["train"],
            "finetune": ["finetune", "--base-spec", "s", "--base-weights", "w"],
            "augment preview": ["augment", "preview", "--image", "i"]}
UNREAD = {"train": {"head_units"}, "finetune": {"model", "width_scale", "input_side"},
          "augment preview": set(SETTINGS) - {"seed", *cli._AUG_KEYS}}
# Each unread setting as flag and as config key; a spec-file train does not read
# the architecture settings. Preview's --out-dir is its own option, not a setting.
REFUSALS = [(command, name, via) for via in ("flag", "config")
            for command, names in [*UNREAD.items(), ("train --model", {"dropout_rate",
                                                                       "input_side",
                                                                       "width_scale"})]
            for name in sorted(names)
            if (command, name, via) != ("augment preview", "out_dir", "flag")]


@pytest.fixture(scope="module")
def settings_read(tmp_path_factory):
    """The RunConfig settings each command reads in one run (train on the
    built-in model), recorded on the resolved config."""
    tmp = tmp_path_factory.mktemp("reads")
    data = str(make_dataset(tmp / "data"))
    common = ["--dataset-root", data, "--split-ratios", "0.5,0.25,0.25", "--epochs", "1",
              "--batch-size", "4"]
    runs = {"train": ["train", "--width-scale", "0.0625", "--input-side", "8", *common,
                      "--out-dir", str(tmp / "run")],
            "finetune": ["finetune", "--base-spec", str(tmp / "run" / "model.spec"),
                         "--base-weights", str(tmp / "run" / "weights.pfw"),
                         "--head-units", "4", *common, "--out-dir", str(tmp / "tuned")],
            "augment preview": ["augment", "preview", "--image", data + "/food_0/img_000.ppm",
                                "--count", "1", "--out-dir", str(tmp / "preview")]}
    read = set()

    class Recording(cli.RunConfig):
        def __init__(self, **settings):
            super().__init__(**settings)
            object.__setattr__(self, "_resolved", True)

        def __getattribute__(self, name):
            if name in SETTINGS and "_resolved" in object.__getattribute__(self, "__dict__"):
                read.add(name)
            return super().__getattribute__(name)

    reads = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "RunConfig", Recording)
        for command, argv in runs.items():
            read.clear()
            assert main(argv) == 0, command
            reads[command] = set(read)
    return reads


def _resolved(argv):
    """The config `argv` resolves to, or None if its parser or config refuses it."""
    try:
        return cli._resolve_config(cli._build_parser().parse_args(argv))
    except (SystemExit, ConfigError):
        return None


class TestSettingsPerCommand:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_flags_config_keys_and_reads_are_one_set(self, settings_read, tmp_path, command):
        by_flag, by_config = set(), set()
        config = tmp_path / "one.cfg"
        for name, text in SAMPLE.items():
            value = cli._CONVERTERS[name](text)
            assert getattr(cli.RunConfig(), name) != value, name
            cfg = _resolved([*COMMANDS[command], f"--{name.replace('_', '-')}={text}"])
            if cfg is not None and getattr(cfg, name) == value:
                by_flag.add(name)
            config.write_text(f"{name} = {text}\n")
            cfg = _resolved([*COMMANDS[command], "--config", str(config)])
            if cfg is not None and getattr(cfg, name) == value:
                by_config.add(name)
        assert by_flag == by_config == settings_read[command] == set(SETTINGS) - UNREAD[command]

    def test_a_bare_namespace_takes_every_key(self, tmp_path):
        config = tmp_path / "every.cfg"
        config.write_text("".join(f"{name} = {text}\n" for name, text in SAMPLE.items()))
        cfg = cli._resolve_config(argparse.Namespace(config=str(config)))
        assert cfg == cli.RunConfig(**{name: cli._CONVERTERS[name](text)
                                       for name, text in SAMPLE.items()})
        assert cfg.policy() == AugmentPolicy(
            flip_probability=0.5, crop_fraction_range=(0.5, 1.0), tilt_range=(0.0, 0.1),
            color_shift_magnitude=0.1, rotation_range=(-5.0, 5.0), noise_sigma=0.1,
            contrast_range=(0.9, 1.1), seed=cfg.policy().seed)

    @pytest.mark.parametrize("command, name, via", REFUSALS,
                             ids=["-".join(case) for case in REFUSALS])
    def test_unread_setting_exits_2_without_an_output_directory(
            self, base_model, tmp_path, capsys, command, name, via):
        data, spec = str(base_model / "data"), str(base_model / "base.spec")
        argv = {"train": ["train", "--dataset-root", data, "--width-scale", "0.0625",
                          "--input-side", "8", "--epochs", "1"],
                "train --model": ["train", "--model", spec, "--dataset-root", data,
                                  "--epochs", "1"],
                "finetune": ["finetune", "--base-spec", spec, "--base-weights",
                             str(base_model / "base.pfw"), "--dataset-root", data,
                             "--epochs", "1"],
                "augment preview": ["augment", "preview", "--image",
                                    data + "/food_0/img_000.ppm"]}[command]
        if via == "flag":
            argv.append(f"--{name.replace('_', '-')}={SAMPLE[name]}")
        else:
            config = tmp_path / "unread.cfg"
            config.write_text(f"{name} = {SAMPLE[name]}\n")
            argv += ["--config", str(config)]
        out = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert name in err or "--" + name.replace("_", "-") in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, explicit", [
        (["train", "--input-side", "8"], ["--width-scale", "1.0", "--dropout-rate", "0.5"]),
        (["train", "--width-scale", "0.0625"], ["--input-side", "224"]),
        (["finetune", "--base-spec", "{spec}", "--base-weights", "{weights}"],
         ["--head-units", "512", "--dropout-rate", "0.5"]),
    ], ids=["train-width-dropout", "train-side", "finetune-head"])
    def test_unset_architecture_settings_take_the_builders_defaults(self, base_model, tmp_path,
                                                                    argv, explicit):
        paths = {"spec": base_model / "base.spec", "weights": base_model / "base.pfw"}
        common = [*(arg.format(**paths) for arg in argv),
                  "--dataset-root", str(base_model / "data"), "--split-ratios", "0.5,0.25,0.25",
                  "--epochs", "1", "--batch-size", "4", "--seed", "2"]
        assert main([*common, "--out-dir", str(tmp_path / "unset")]) == 0
        assert main([*common, *explicit, "--out-dir", str(tmp_path / "given")]) == 0
        for name in ("model.spec", "weights.pfw", "history.csv", "manifest.txt"):
            given = (tmp_path / "given" / name).read_bytes()
            assert (tmp_path / "unset" / name).read_bytes() == given, name


@pytest.fixture(scope="module")
def diverging_set(tmp_path_factory):
    """2 classes of 6 tinted, noisy 16-px images."""
    root = tmp_path_factory.mktemp("diverging") / "food"
    rng = np.random.default_rng(0)
    for c in range(2):
        os.makedirs(root / f"class{c}")
        for i in range(6):
            img = np.zeros((16, 16, 3))
            img[..., c] = 0.7
            img += rng.random((16, 16, 3)) * 0.3
            D.save_image(root / f"class{c}" / f"img{i}.ppm", img)
    return root


@pytest.mark.parametrize("lr, message", [("1e4", "batch norm batch statistics must be finite"),
                                         ("1e2", "Tensor4 values must be finite")])
def test_diverging_run_reports_only_the_failed_check(diverging_set, tmp_path, capsys, lr,
                                                     message):
    # The weights overflow long before a value reaches a finiteness check;
    # with warnings as errors, a numpy warning would end the run first.
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["train", "--width-scale", "0.0625", "--input-side", "16",
                     "--dataset-root", str(diverging_set), "--split-ratios", "0.5,0.25,0.25",
                     "--epochs", "5", "--batch-size", "2", "--seed", "1",
                     "--learning-rate", lr, "--out-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(out) == []


# Each training setting out of its range, with a piece of the message naming it.
OUT_OF_RANGE = [("batch_size", "0", "batch size"), ("learning_rate", "-1", "learning rate"),
                ("momentum", "1", "momentum"), ("decay_factor", "0", "decay factor"),
                ("decay_interval", "0", "decay interval"), ("patience", "-1", "patience"),
                ("l2_strength", "-1", "penalty strengths")]
SETTING_PROBES = ([({"epochs": epochs, key: value}, message)
                   for epochs in ("0", "1") for key, value, message in OUT_OF_RANGE]
                  + [({"epochs": "-1"}, "epochs must be >= 0")])


@pytest.fixture(scope="module")
def base_model(tmp_path_factory):
    """A dataset and an untrained base model for train and finetune probes."""
    root = tmp_path_factory.mktemp("probes")
    make_dataset(root / "data")
    spec = tiny_spec_file(root / "base.spec")
    M.save_weights(root / "base.pfw", spec, M.init_params(spec, seed=1))
    return root


class TestSettingsCheckedBeforeAnyArtifact:
    @pytest.mark.parametrize("command", ["train", "finetune"])
    @pytest.mark.parametrize("ratios", ["0.5,0.25,0.25", "0.5,0,0.5"], ids=["val", "no-val"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("settings, message", SETTING_PROBES,
                             ids=[",".join(f"{k}={v}" for k, v in probe.items())
                                  for probe, _ in SETTING_PROBES])
    def test_out_of_range_setting_exits_2_without_an_output_directory(
            self, base_model, tmp_path, capsys, command, ratios, via, settings, message):
        out = tmp_path / "run"
        argv = [command, "--dataset-root", str(base_model / "data"), "--split-ratios", ratios,
                "--out-dir", str(out)]
        if command == "train":
            argv += ["--model", str(base_model / "base.spec")]
        else:
            argv += ["--base-spec", str(base_model / "base.spec"),
                     "--base-weights", str(base_model / "base.pfw"), "--head-units", "4"]
        if via == "flag":
            argv += [f"--{key.replace('_', '-')}={value}" for key, value in settings.items()]
        else:
            config = tmp_path / "settings.conf"
            config.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
            argv += ["--config", str(config)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("epochs", ["0", "1"])
    def test_empty_train_split_exits_3_without_an_output_directory(self, base_model, tmp_path,
                                                                   capsys, epochs):
        out = tmp_path / "run"
        assert main(["train", "--model", str(base_model / "base.spec"),
                     "--dataset-root", str(base_model / "data"), "--split-counts", "0,2,2",
                     "--epochs", epochs, "--out-dir", str(out)]) == 3
        assert "split 'train' has no records" in capsys.readouterr().err
        assert not out.exists()

    def test_root_the_manifest_cannot_carry_exits_3_without_an_output_directory(
            self, tmp_path, capsys):
        data = make_dataset(tmp_path / "food ")
        spec_path = tmp_path / "tiny.spec"
        tiny_spec_file(spec_path)
        out = tmp_path / "run"
        assert main(train_args(data, out, spec_path)) == 3
        assert "bad dataset root" in capsys.readouterr().err
        assert not out.exists()


class TestInputsCheckedBeforeOutDir:
    @pytest.fixture()
    def probe(self, base_model, tmp_path):
        """Paths for dump-batch and inspect runs on the untrained base model."""
        manifest = tmp_path / "manifest.txt"
        D.save_manifest(manifest, D.build_manifest(base_model / "data", ratios=(0.5, 0.25, 0.25)))
        truncated = tmp_path / "truncated.ppm"
        truncated.write_bytes(b"P6\n8 8\n255\n" + bytes(100))
        (tmp_path / "empty").mkdir()
        three = tmp_path / "three.txt"  # one class more than the model has
        D.save_manifest(three, D.build_manifest(make_dataset(tmp_path / "three", classes=3),
                                                ratios=(0.5, 0.25, 0.25)))
        image = base_model / "data" / "food_0" / "img_000.ppm"
        return {"dump": ["dataio", "dump-batch", "--manifest", str(manifest),
                         "--input-side", "8"],
                "inspect": ["inspect", "--spec", str(base_model / "base.spec"),
                            "--weights", str(base_model / "base.pfw")],
                "manifest": str(manifest), "three": str(three), "image": str(image),
                "truncated": str(truncated),
                "empty": str(tmp_path / "empty"), "out": tmp_path / "out"}

    @pytest.mark.parametrize("argv, code, message", [
        (["dump", "--batch-size", "0"], 2, "batch size must be >= 1"),
        (["dump", "--dataset-root", "{empty}"], 3, "cannot read"),
        (["dump", "--input-side", "0"], 2, "target side must be >= 1, got 0"),
        (["inspect", "--image", "{truncated}"], 3, "expected 192 pixel bytes"),
        (["inspect", "--image", "{image}", "--layers", "nosuch"], 2, "nosuch"),
    ], ids=["batch-size-0", "missing-images", "input-side-0", "truncated-ppm", "no-such-layer"])
    def test_refused_run_leaves_no_output_directory(self, probe, capsys, argv, code, message):
        args = probe[argv[0]] + [arg.format(**probe) for arg in argv[1:]]
        assert main(args + ["--out-dir", str(probe["out"])]) == code
        assert message in capsys.readouterr().err
        assert not probe["out"].exists()

    @pytest.mark.parametrize("argv", [
        ["inspect", "--spec", "{missing}", "--weights", "{missing}", "--image", "{missing}"],
        ["dataio", "dump-batch", "--manifest", "{missing}"],
        ["augment", "preview", "--image", "{missing}"],
    ], ids=["inspect", "dump-batch", "augment-preview"])
    def test_empty_out_dir_exits_2_before_any_input_is_read(self, tmp_path, capsys,
                                                            monkeypatch, argv):
        # Every input is missing, so reading any of them would exit 3; and
        # nothing appears in the working directory.
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        missing = str(tmp_path / "missing")
        assert main([*(arg.format(missing=missing) for arg in argv), "--out-dir", ""]) == 2
        assert "out_dir must be non-empty" in capsys.readouterr().err
        assert not any(cwd.iterdir())

    @pytest.mark.parametrize("argv", [
        ["eval", "--manifest", "{manifest}", "--batch-size", "x"],
        ["predict", "--image", "{image}", "--k", "x"],
        ["dataio", "dump-batch", "--manifest", "{manifest}", "--batch-size", "x"],
        ["dataio", "dump-batch", "--manifest", "{manifest}", "--input-side", "x"],
        ["dataio", "dump-batch", "--manifest", "{manifest}", "--seed", "x"],
    ], ids=["eval-batch-size", "predict-k", "dump-batch-size", "dump-input-side", "dump-seed"])
    def test_integer_flags_name_the_bad_value(self, probe, capsys, argv):
        extra = ["--out-dir", str(probe["out"])] if argv[0] == "dataio" else probe["inspect"][1:]
        assert main([*(arg.format(**probe) for arg in argv), *extra]) == 2
        err = capsys.readouterr().err
        assert "expected an integer, got 'x'" in err and "invalid literal" not in err

    @pytest.mark.parametrize("argv, message", [
        (["predict", "--image", "{image}", "--k", "0"], "k must be in [1, 2], got 0"),
        (["predict", "--image", "{image}", "--k", "3"], "k must be in [1, 2], got 3"),
        (["eval", "--manifest", "{manifest}", "--ks", "1,0"], "k must be in [1, 2], got 0"),
        (["eval", "--manifest", "{manifest}", "--ks", "x"], "expected comma-separated k values"),
        (["eval", "--manifest", "{manifest}", "--batch-size", "0"], "batch size must be >= 1"),
    ], ids=["predict-k-0", "predict-k-3", "eval-ks-0", "eval-ks-x", "eval-batch-size-0"])
    def test_bad_k_or_batch_size_exits_2_before_the_weights_are_read(
            self, probe, capsys, monkeypatch, argv, message):
        # A paper-scale weight file is 852 MB: a bad argument must not wait
        # for it, nor turn into exit 3 when the file is missing.
        def load_weights(path, spec):
            pytest.fail("weights read before the arguments were checked")

        monkeypatch.setattr(M, "load_weights", load_weights)
        assert main([*(arg.format(**probe) for arg in argv), *probe["inspect"][1:]]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["predict", "--image", "{image}", "--manifest", "{three}"],
         "manifest has 3 classes, model outputs 2"),
        (["eval", "--manifest", "{three}", "--ks", "1"], "manifest has 3 classes, model outputs 2"),
        (["inspect", "--image", "{image}", "--layers", "c1,nosuch", "--out-dir", "{out}"],
         "no layer named 'nosuch'"),
    ], ids=["predict-manifest", "eval-manifest", "inspect-layer"])
    def test_bad_manifest_or_layer_exits_2_before_the_weights_are_read(
            self, probe, capsys, monkeypatch, argv, message):
        def load_weights(path, spec):
            pytest.fail("weights read before the arguments were checked")

        monkeypatch.setattr(M, "load_weights", load_weights)
        assert main([*(arg.format(**probe) for arg in argv), *probe["inspect"][1:]]) == 2
        assert message in capsys.readouterr().err
        assert not probe["out"].exists()


class TestEval:
    def test_matches_library_evaluate(self, trained_run, capsys):
        out = trained_run["out"]
        report_path = trained_run["tmp"] / "report.csv"
        code = main(["eval", "--spec", str(out / "model.spec"),
                     "--weights", str(out / "weights.pfw"),
                     "--manifest", str(out / "manifest.txt"),
                     "--split", "test", "--ks", "1,2",
                     "--out", str(report_path)])
        assert code == 0
        printed = capsys.readouterr().out
        spec = M.load_model_spec(out / "model.spec")
        params = M.load_weights(out / "weights.pfw", spec)
        manifest = D.load_manifest(out / "manifest.txt")
        report = E.evaluate(spec, params,
                            D.batch_iterator(manifest, "test", 32, 8), ks=(1, 2))
        assert f"top1={report.accuracy(1)!r}" in printed
        assert f"top2={report.accuracy(2)!r}" in printed
        assert report_path.read_text() == E.report_to_csv(report, manifest.classes)
        assert report.accuracy(1) <= report.accuracy(2)

    def test_deterministic(self, trained_run, capsys):
        out = trained_run["out"]
        args = ["eval", "--spec", str(out / "model.spec"),
                "--weights", str(out / "weights.pfw"),
                "--manifest", str(out / "manifest.txt"), "--ks", "1,2"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_default_ks_fit_a_two_class_model(self, trained_run, capsys):
        out = trained_run["out"]
        assert main(["eval", "--spec", str(out / "model.spec"),
                     "--weights", str(out / "weights.pfw"),
                     "--manifest", str(out / "manifest.txt")]) == 0
        printed = capsys.readouterr().out.split()
        assert printed[0].startswith("N=") and printed[1].startswith("top1=")
        assert len(printed) == 2  # no top5 of two classes

    def test_default_ks_are_1_and_5_from_five_classes(self, tmp_path, capsys):
        data = make_dataset(tmp_path / "data", classes=5, per_class=4)
        spec_path = tmp_path / "five.spec"
        tiny_spec_file(spec_path, classes=5)
        out = tmp_path / "run"
        assert main(train_args(data, out, spec_path, extra=["--epochs", "0"])) == 0
        capsys.readouterr()
        assert main(["eval", "--spec", str(out / "model.spec"),
                     "--weights", str(out / "weights.pfw"),
                     "--manifest", str(out / "manifest.txt")]) == 0
        printed = capsys.readouterr().out.split()
        assert [token.split("=")[0] for token in printed] == ["N", "top1", "top5"]

    def test_wrong_weights_for_spec_exit_4(self, trained_run, tmp_path):
        # The manifest's 2 classes fit the other spec, so only the weights do not.
        other_spec = tmp_path / "other.spec"
        tiny_spec_file(other_spec, side=16, classes=2)
        out = trained_run["out"]
        code = main(["eval", "--spec", str(other_spec),
                     "--weights", str(out / "weights.pfw"),
                     "--manifest", str(out / "manifest.txt")])
        assert code == 4


    @pytest.mark.parametrize("old, new", [
        ("seed 3\n", "seed 0_3\n"),  # read as seed 3
        ("class 0 ", "class +0 "),  # read as class 0
        ("\t0\t", "\t 0\t"),  # read as class index 0
        ("seed 3\n", "seed 3\nseed 4\n"),  # the second seed line replaced the first
    ])
    def test_manifest_train_could_not_write_exits_3(self, trained_run, capsys, old, new):
        out = trained_run["out"]
        manifest = trained_run["tmp"] / "edited.txt"
        text = (out / "manifest.txt").read_text()
        assert old in text
        manifest.write_text(text.replace(old, new, 1))
        assert main(["eval", "--spec", str(out / "model.spec"),
                     "--weights", str(out / "weights.pfw"),
                     "--manifest", str(manifest), "--ks", "1"]) == 3
        assert "error:" in capsys.readouterr().err


class TestPredict:
    def test_single_line_top1(self, trained_run, capsys):
        out = trained_run["out"]
        image = next(iter((trained_run["data"] / "food_0").iterdir()))
        code = main(["predict", "--spec", str(out / "model.spec"),
                     "--weights", str(out / "weights.pfw"),
                     "--image", str(image), "--k", "1",
                     "--manifest", str(out / "manifest.txt")])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        name, prob = lines[0].split()
        assert name in ("food_0", "food_1")
        assert 0.0 <= float(prob) <= 1.0

    def test_full_distribution_sums_to_one(self, trained_run, capsys):
        out = trained_run["out"]
        image = next(iter((trained_run["data"] / "food_1").iterdir()))
        code = main(["predict", "--spec", str(out / "model.spec"),
                     "--weights", str(out / "weights.pfw"),
                     "--image", str(image), "--k", "2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        probs = [float(line.split()[1]) for line in lines]
        assert len(probs) == 2
        assert probs[0] >= probs[1]
        assert sum(probs) == pytest.approx(1.0, abs=1e-6)

    def test_agrees_with_library_forward(self, trained_run, capsys):
        out = trained_run["out"]
        image = next(iter((trained_run["data"] / "food_0").iterdir()))
        assert main(["predict", "--spec", str(out / "model.spec"),
                     "--weights", str(out / "weights.pfw"),
                     "--image", str(image), "--k", "1"]) == 0
        printed = capsys.readouterr().out.split()
        spec = M.load_model_spec(out / "model.spec")
        params = M.load_weights(out / "weights.pfw", spec)
        pixels = D.pack_image(D.load_image(image).pixels, 8)
        scores = M.forward(spec, params,
                           Tensor4(pixels[np.newaxis].astype(np.float32))).data.reshape(-1)
        assert printed[0] == f"class_{scores.argmax()}"
        assert float(printed[1]) == scores.max()

    def test_undecodable_image_exits_3(self, trained_run, tmp_path):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"JFIF not a ppm")
        out = trained_run["out"]
        assert main(["predict", "--spec", str(out / "model.spec"),
                     "--weights", str(out / "weights.pfw"),
                     "--image", str(bad)]) == 3

    @pytest.mark.parametrize("blob", [b"P612 1 255\n" + bytes(36),
                                      b"P6#c\n1 1 255\n" + bytes(3)], ids=["width", "comment"])
    def test_magic_without_whitespace_exits_3(self, trained_run, tmp_path, capsys, blob):
        bad = tmp_path / "glued.ppm"
        bad.write_bytes(blob)
        out = trained_run["out"]
        assert main(["predict", "--spec", str(out / "model.spec"),
                     "--weights", str(out / "weights.pfw"),
                     "--image", str(bad)]) == 3
        assert "no whitespace after P6" in capsys.readouterr().err


def activation_grid_oracle(act):
    """The per-channel loops `cli._activation_grid` replaced."""
    h, w, c = act.shape
    if h == 1 and w == 1:  # one map of c units, scaled across them
        units = act.reshape(1, c).astype(np.float64)
        span = units.max() - units.min()
        return (units - units.min()) / span if span > 0 else np.zeros((1, c))
    scaled = np.zeros_like(act, dtype=np.float64)
    for j in range(c):
        channel = act[:, :, j].astype(np.float64)
        span = channel.max() - channel.min()
        if span > 0:
            scaled[:, :, j] = (channel - channel.min()) / span
    grid_cols = int(np.ceil(np.sqrt(c)))
    grid_rows = -(-c // grid_cols)
    grid = np.zeros((grid_rows * h, grid_cols * w), dtype=np.float64)
    for j in range(c):
        row, col = divmod(j, grid_cols)
        grid[row * h:(row + 1) * h, col * w:(col + 1) * w] = scaled[:, :, j]
    return grid


class TestActivationGrid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_channel_loop_oracle_byte_for_byte(self, dtype):
        rng = np.random.default_rng(3)
        shapes = [(1, 1, 1), (1, 1, 7), (1, 5, 3), (4, 1, 2), (3, 3, 1), (2, 3, 2),
                  (8, 8, 4), (5, 4, 5), (6, 6, 10), (7, 3, 17), (2, 2, 64)]
        for h, w, c in shapes:
            for trial in range(6):
                act = rng.normal(size=(h, w, c))
                if trial % 2:  # post-ReLU maps: many zeros, some of them -0.0
                    act = np.where(act > 0, act, rng.choice([0.0, -0.0], act.shape))
                if trial >= 4:  # constant channels
                    act[:, :, ::2] = rng.normal(size=(c + 1) // 2)
                act = act.astype(dtype)
                got = cli._activation_grid(act)
                want = activation_grid_oracle(act)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


class TestInspect:
    def test_writes_grids_and_report(self, trained_run):
        out = trained_run["out"]
        image = next(iter((trained_run["data"] / "food_0").iterdir()))
        dest = trained_run["tmp"] / "inspect"
        code = main(["inspect", "--spec", str(out / "model.spec"),
                     "--weights", str(out / "weights.pfw"),
                     "--image", str(image), "--out-dir", str(dest),
                     "--layers", "c1,fc1,predictor"])
        assert code == 0
        # c1 on an 8x8 input with 4 filters tiles as a 2x2 grid of 8x8 maps.
        conv_grid = D.read_pgm(dest / "c1.pgm")
        assert conv_grid.shape == (16, 16)
        # Dense layers are non-spatial: one-pixel-tall strips, each scaled
        # across its units, so two differing class scores show.
        assert D.read_pgm(dest / "fc1.pgm").shape == (1, 8)
        predictor = D.read_pgm(dest / "predictor.pgm")
        assert predictor.shape == (1, 2) and predictor.any()
        assert (dest / "dead_filters.txt").read_text().startswith("layer\t")

    def test_grid_matches_capture_normalization(self, trained_run):
        out = trained_run["out"]
        image = next(iter((trained_run["data"] / "food_1").iterdir()))
        dest = trained_run["tmp"] / "inspect2"
        assert main(["inspect", "--spec", str(out / "model.spec"),
                     "--weights", str(out / "weights.pfw"),
                     "--image", str(image), "--out-dir", str(dest),
                     "--layers", "c1"]) == 0
        spec = M.load_model_spec(out / "model.spec")
        params = M.load_weights(out / "weights.pfw", spec)
        pixels = D.pack_image(D.load_image(image).pixels, 8)
        x = Tensor4(pixels[np.newaxis].astype(np.float32))
        act = M.capture_activations(spec, params, x, ["c1"])["c1"].data[0]
        grid = D.read_pgm(dest / "c1.pgm")
        for j in range(act.shape[2]):
            channel = act[:, :, j].astype(np.float64)
            span = channel.max() - channel.min()
            want = (channel - channel.min()) / span if span > 0 else np.zeros_like(channel)
            row, col = divmod(j, 2)
            tile = grid[row * 8:(row + 1) * 8, col * 8:(col + 1) * 8]
            assert np.abs(tile - want).max() <= 0.5 / 255 + 1e-9

    @pytest.mark.parametrize("layers", [None, "fc1,c1"])
    def test_one_pass_gives_the_library_maps_and_report(self, trained_run, monkeypatch,
                                                        layers):
        out, tmp = trained_run["out"], trained_run["tmp"]
        spec = M.load_model_spec(out / "model.spec")
        params = M.load_weights(out / "weights.pfw", spec)
        params["c1.filters"][1] = 0.0  # a dead filter, so the report names one
        params["c1.bias"][1] = -1.0
        M.save_weights(tmp / "dead.pfw", spec, params)
        image = next(iter((trained_run["data"] / "food_0").iterdir()))
        dest = tmp / "inspect_once"
        kinds = spy_on_kernels(monkeypatch)
        assert main(["inspect", "--spec", str(out / "model.spec"),
                     "--weights", str(tmp / "dead.pfw"), "--image", str(image),
                     "--out-dir", str(dest), *(["--layers", layers] if layers else [])]) == 0
        # Each layer runs once, up to the last one asked for (c1, the only
        # conv, when none is named).
        last = [layer.name for layer in spec.layers].index("fc1" if layers else "c1")
        assert kinds == [layer.kind for layer in spec.layers[:last + 1]]
        monkeypatch.undo()

        x = Tensor4(D.pack_image(D.load_image(image).pixels, 8)[np.newaxis].astype(np.float32))
        names = layers.split(",") if layers else ["c1"]
        maps = M.capture_activations(spec, params, x, names)
        for name in names:
            D.write_pgm(tmp / "want.pgm", cli._activation_grid(maps[name].data[0]))
            assert (dest / f"{name}.pgm").read_bytes() == (tmp / "want.pgm").read_bytes()
        rows = [f"{r.layer}\t{len(r.dead)}/{r.filter_count}\t{','.join(map(str, r.dead)) or '-'}"
                for r in M.dead_filter_report(spec, params, x)]
        assert rows == ["c1\t1/4\t1"]
        assert (dest / "dead_filters.txt").read_text() == (
            "layer\tdead/total\tdead_indices\n" + "".join(row + "\n" for row in rows))

    def test_non_finite_threshold_exits_2_before_any_artifact(self, trained_run):
        out = trained_run["out"]
        image = next(iter((trained_run["data"] / "food_0").iterdir()))
        dest = trained_run["tmp"] / "inspect_nan"
        assert main(["inspect", "--spec", str(out / "model.spec"),
                     "--weights", str(out / "weights.pfw"), "--image", str(image),
                     "--out-dir", str(dest), "--threshold", "nan"]) == 2
        assert not dest.exists()

    def test_unknown_layer_exits_2(self, trained_run):
        out = trained_run["out"]
        image = next(iter((trained_run["data"] / "food_0").iterdir()))
        assert main(["inspect", "--spec", str(out / "model.spec"),
                     "--weights", str(out / "weights.pfw"),
                     "--image", str(image),
                     "--out-dir", str(trained_run["tmp"] / "x"),
                     "--layers", "no_such_layer"]) == 2


class TestDiagnose:
    def _write_history(self, path, train_top1, val_top1):
        history = [T.EpochStats(1, 0.5, train_top1, 0.6, val_top1, 0.01)]
        T.write_history_csv(path, history)

    def test_three_verdicts(self, tmp_path, capsys):
        cases = {
            "under.csv": (0.55, 0.53, "underfitting"),
            "over.csv": (0.98, 0.60, "overfitting"),
            "good.csv": (0.97, 0.92, "good_fit"),
        }
        for name, (train_top1, val_top1, label) in cases.items():
            path = tmp_path / name
            self._write_history(path, train_top1, val_top1)
            assert main(["diagnose", "--history", str(path)]) == 0
            assert capsys.readouterr().out.startswith(label)

    def test_matches_library(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        self._write_history(path, 0.85, 0.80)
        assert main(["diagnose", "--history", str(path),
                     "--low-error", "0.2", "--high-error", "0.4", "--gap", "0.1"]) == 0
        printed = capsys.readouterr().out
        verdict = T.diagnose_fit(T.read_history_csv(path),
                                 T.FitThresholds(0.2, 0.4, 0.1))
        assert printed.startswith(verdict.label)

    @pytest.mark.parametrize("flag", ["--low-error", "--high-error", "--gap"])
    def test_non_finite_threshold_exits_2(self, tmp_path, capsys, flag):
        path = tmp_path / "h.csv"
        self._write_history(path, 0.85, 0.80)
        assert main(["diagnose", "--history", str(path), flag, "nan"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_single_epoch_never_crashes(self, tmp_path):
        path = tmp_path / "one.csv"
        self._write_history(path, 0.80, 0.75)
        assert main(["diagnose", "--history", str(path)]) == 0

    def test_malformed_csv_exits_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("epoch,nope\n1,2\n")
        assert main(["diagnose", "--history", str(path)]) == 2

    @pytest.mark.parametrize("row", [
        "1,0.5,1_0,0.75,0.5,-3",  # once printed train_error=-9.0 and exited 0
        "1,inf,0.5,0.6,0.5,0.01",
        "1,nan,0.5,0.6,0.5,0.01",
        "1,0.5,1.5,0.6,0.5,0.01",
        "1,0.5,0.5,0.6,0.5,0",
        "2,0.5,0.5,0.6,0.5,0.01",
        "1,0.5,0.5,nan,0.5,0.01",
        "1" * 5000 + ",0.5,0.5,0.6,0.5,0.01",  # int() refuses over 4300 digits
    ])
    def test_row_train_cannot_write_exits_2(self, tmp_path, capsys, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"{T.HISTORY_HEADER}\n{row}\n")
        assert main(["diagnose", "--history", str(path)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_history_without_validation_is_read(self, tmp_path, capsys):
        path = tmp_path / "no_val.csv"
        path.write_text(f"{T.HISTORY_HEADER}\n1,0.5,0.95,nan,nan,0.01\n")
        assert main(["diagnose", "--history", str(path)]) == 0
        assert "train_error=0.050000000000000044" in capsys.readouterr().out


def _load_spec(out):
    return M.load_model_spec(out / "model.spec")


# artifact -> (bytes whose first byte becomes 0xff, library loader, CLI exit).
# `diagnose` reports any malformed history as a usage error, hence its 2.
NON_UTF8_CASES = {
    "model.spec": (b"c1 conv", _load_spec, 3),
    "weights.pfw": (b"c1.filters",
                    lambda out: M.load_weights(out / "weights.pfw", _load_spec(out)), 3),
    "manifest.txt": (b"food_0", lambda out: D.load_manifest(out / "manifest.txt"), 3),
    "history.csv": (b"epoch", lambda out: T.read_history_csv(out / "history.csv"), 2),
}


@pytest.mark.parametrize("artifact", sorted(NON_UTF8_CASES))
def test_non_utf8_bytes_are_a_data_format_error(trained_run, artifact):
    out = trained_run["out"]
    needle, load, exit_code = NON_UTF8_CASES[artifact]
    blob = (out / artifact).read_bytes()
    assert needle in blob
    (out / artifact).write_bytes(blob.replace(needle, b"\xff" + needle[1:], 1))
    with pytest.raises(DataFormatError, match="UTF-8"):
        load(out)
    if artifact == "history.csv":
        argv = ["diagnose", "--history", str(out / artifact)]
    else:
        image = next(iter((trained_run["data"] / "food_0").iterdir()))
        argv = ["predict", "--spec", str(out / "model.spec"),
                "--weights", str(out / "weights.pfw"), "--image", str(image),
                "--manifest", str(out / "manifest.txt")]
    assert main(argv) == exit_code


@pytest.mark.parametrize("geometry", ["kernel=0 stride=1 padding=0",
                                      "kernel=1 stride=0 padding=0",
                                      "kernel=1 stride=1 padding=-1"])
def test_bad_conv_geometry_in_spec_exits_3(tmp_path, capsys, geometry):
    spec = tmp_path / "bad.spec"
    spec.write_text(f"input 8 8 3\ntop 1\nc1 conv filters=2 {geometry} activation=relu\n")
    with pytest.raises(DataFormatError, match="line 3"):
        M.load_model_spec(spec)
    assert main(["predict", "--spec", str(spec), "--weights", str(tmp_path / "w.pfw"),
                 "--image", str(tmp_path / "img.ppm")]) == 3
    assert "line 3" in capsys.readouterr().err


# Rewrites of the block1_conv1.filters record, whose dims are (16, 3, 3, 3):
# (offset from the dims, bytes written there).
CORRUPT_FILTERS = {
    "nan payload": (32, struct.pack("<f", np.nan)),
    "zero dim": (16, struct.pack("<Q", 0)),
    "fewer values": (24, struct.pack("<Q", 2)),
    "permuted dims": (0, struct.pack("<4Q", 3, 3, 3, 16)),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_FILTERS))
def test_corrupt_weight_record_exits_3(tmp_path, capsys, case):
    spec = M.build_purefoodnet(3, width_scale=0.125, input_side=8)
    M.save_model_spec(tmp_path / "net.spec", spec)
    buf = bytearray(M.weights_to_bytes(spec, M.init_params(spec, seed=5)))
    dims = buf.index(b"block1_conv1.filters") + len("block1_conv1.filters") + 5
    at, data = CORRUPT_FILTERS[case]
    buf[dims + at:dims + at + len(data)] = data
    with pytest.raises(DataFormatError, match="'block1_conv1.filters'"):
        M.weights_from_bytes(bytes(buf), spec)
    (tmp_path / "w.pfw").write_bytes(bytes(buf))
    D.save_image(tmp_path / "img.ppm", np.full((8, 8, 3), 0.5))
    assert main(["predict", "--spec", str(tmp_path / "net.spec"),
                 "--weights", str(tmp_path / "w.pfw"), "--image", str(tmp_path / "img.ppm")]) == 3
    assert "'block1_conv1.filters'" in capsys.readouterr().err


def test_out_of_memory_exits_5(tmp_path, capsys, monkeypatch):
    spec = M.build_purefoodnet(3, width_scale=0.125, input_side=8)
    M.save_model_spec(tmp_path / "net.spec", spec)
    D.save_image(tmp_path / "img.ppm", np.full((8, 8, 3), 0.5))

    def load_weights(path, spec):
        raise MemoryError("Unable to allocate 812. MiB for an array")

    monkeypatch.setattr(M, "load_weights", load_weights)
    assert main(["predict", "--spec", str(tmp_path / "net.spec"),
                 "--weights", str(tmp_path / "w.pfw"), "--image", str(tmp_path / "img.ppm")]) == 5
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 812. MiB for an array\n"


def test_module_run_exits_as_the_console_script(tmp_path):
    # `python -m purefoodnet.cli` runs the command and exits with its code,
    # as `purefoodnet` does: a missing spec file is exit 3. The module runs
    # once, as __main__, with no runpy warning.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-m", "purefoodnet.cli", "predict", "--spec", "nosuch",
                          "--weights", "nosuch", "--image", "nosuch"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 3
    assert "error: " in run.stderr and "nosuch" in run.stderr
    assert "RuntimeWarning" not in run.stderr  # the package does not import cli first


@pytest.mark.parametrize("low", [-1.0, -1e-7])
def test_negative_running_variance_exits_3(tmp_path, capsys, low):
    spec = M.build_purefoodnet(3, width_scale=0.125, input_side=8)
    M.save_model_spec(tmp_path / "net.spec", spec)
    params = M.init_params(spec, seed=5)
    params["block1_bn1.running_var"][0] = low
    M.save_weights(tmp_path / "w.pfw", spec, params)
    D.save_image(tmp_path / "img.ppm", np.full((8, 8, 3), 0.5))
    assert main(["predict", "--spec", str(tmp_path / "net.spec"),
                 "--weights", str(tmp_path / "w.pfw"), "--image", str(tmp_path / "img.ppm")]) == 3
    assert "'block1_bn1.running_var': running_var must be nonnegative" in capsys.readouterr().err


class TestDumpBatch:
    def test_writes_loadable_tensors(self, trained_run):
        out = trained_run["out"]
        dest = trained_run["tmp"] / "dump"
        code = main(["dataio", "dump-batch", "--manifest", str(out / "manifest.txt"),
                     "--split", "train", "--batch-size", "4",
                     "--input-side", "8", "--out-dir", str(dest)])
        assert code == 0
        batch = load_tensor(dest / "batch.pft")
        assert batch.shape == (4, 8, 8, 3)
        labels = load_tensor(dest / "batch_labels.pft")
        assert labels.shape == (1, 1, 4, 2)
        np.testing.assert_array_equal(labels.data.sum(axis=3), np.ones((1, 1, 4)))


class TestAugmentPreview:
    def test_writes_pairs_deterministically(self, trained_run):
        image = next(iter((trained_run["data"] / "food_0").iterdir()))
        dest_a = trained_run["tmp"] / "prev_a"
        dest_b = trained_run["tmp"] / "prev_b"
        args = ["augment", "preview", "--image", str(image), "--count", "3",
                "--seed", "9", "--aug-flip", "0.5", "--aug-noise", "0.1",
                "--aug-rotation=-20,20"]
        assert main(args + ["--out-dir", str(dest_a)]) == 0
        assert main(args + ["--out-dir", str(dest_b)]) == 0
        names = sorted(p.name for p in dest_a.iterdir())
        assert names == ["after_0.ppm", "after_1.ppm", "after_2.ppm", "before.ppm"]
        for name in names:
            assert (dest_a / name).read_bytes() == (dest_b / name).read_bytes()
        before = D.load_image(dest_a / "before.ppm").pixels
        after = D.load_image(dest_a / "after_0.ppm").pixels
        assert not np.array_equal(before, after)

    @pytest.mark.parametrize("count, message", [("-1", "count must be >= 0"),
                                                ("two", "expected an integer")])
    def test_bad_count_exits_2_before_writing(self, trained_run, capsys, count, message):
        image = next(iter((trained_run["data"] / "food_0").iterdir()))
        dest = trained_run["tmp"] / "prev_bad"
        assert main(["augment", "preview", "--image", str(image), "--count", count,
                     "--out-dir", str(dest)]) == 2
        assert message in capsys.readouterr().err
        assert not dest.exists()


class TestFinetune:
    def _finetune_args(self, trained_run, out_dir, extra=()):
        data = make_dataset(trained_run["tmp"] / "newdata", classes=3, per_class=6)
        out = trained_run["out"]
        return ["finetune",
                "--base-spec", str(out / "model.spec"),
                "--base-weights", str(out / "weights.pfw"),
                "--dataset-root", str(data),
                "--out-dir", str(out_dir),
                "--split-ratios", "0.5,0.5,0.0",
                "--epochs", "2", "--batch-size", "4",
                "--patience", "none", "--seed", "11",
                "--head-units", "8",
                *extra]

    def test_new_head_width_matches_new_classes(self, trained_run):
        dest = trained_run["tmp"] / "tuned"
        assert main(self._finetune_args(trained_run, dest)) == 0
        spec = M.load_model_spec(dest / "model.spec")
        assert spec.layers[-1].units == 3
        params = M.load_weights(dest / "weights.pfw", spec)
        assert params["predictor.weights"].shape == (8, 3)

    def test_frozen_backbone_bytes_survive(self, trained_run):
        dest = trained_run["tmp"] / "frozen"
        assert main(self._finetune_args(trained_run, dest,
                                        extra=["--freeze-backbone"])) == 0
        base_spec = M.load_model_spec(trained_run["out"] / "model.spec")
        base = M.load_weights(trained_run["out"] / "weights.pfw", base_spec)
        tuned_spec = M.load_model_spec(dest / "model.spec")
        tuned = M.load_weights(dest / "weights.pfw", tuned_spec)
        backbone = [l.name for l in base_spec.layers[:base_spec.top_boundary]]
        for name in base.keys():
            if name.split(".")[0] in backbone:
                assert tuned[name].tobytes() == base[name].tobytes(), name

    def test_unfrozen_backbone_moves(self, trained_run):
        dest = trained_run["tmp"] / "thawed"
        assert main(self._finetune_args(trained_run, dest)) == 0
        base_spec = M.load_model_spec(trained_run["out"] / "model.spec")
        base = M.load_weights(trained_run["out"] / "weights.pfw", base_spec)
        tuned_spec = M.load_model_spec(dest / "model.spec")
        tuned = M.load_weights(dest / "weights.pfw", tuned_spec)
        assert tuned["c1.filters"].tobytes() != base["c1.filters"].tobytes()

    def test_digest_mismatch_exits_4(self, trained_run, tmp_path):
        other_spec = tmp_path / "other.spec"
        tiny_spec_file(other_spec, side=8, classes=5)
        dest = trained_run["tmp"] / "bad"
        args = self._finetune_args(trained_run, dest)
        args[args.index("--base-spec") + 1] = str(other_spec)
        assert main(args) == 4
