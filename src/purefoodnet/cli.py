"""Command-line surface for the engine.

Commands: train, finetune, eval, predict, inspect, diagnose,
`dataio dump-batch`, `augment preview`. Exit codes: 0 success, 2 config
error, 3 data or I/O error, 4 weight/spec mismatch, 5 out of memory.

Settings resolve with precedence flag > config file > default. The config
file is flat `key = value` text; keys match the long flag names with
underscores ('#' starts a comment).
"""

from __future__ import annotations

import argparse
import inspect
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import dataio, evaluation, models, training
from .augment import AugmentPolicy, apply_policy, policy_rng
from .errors import (ConfigError, DataError, DataFormatError, EngineError,
                     WeightDigestError)
from .seeding import derive_seed
from .tensor import Tensor4, atomic_write_bytes, pft1_encode, save_tensor

__all__ = ["RunConfig", "main", "main_entry"]


# ---------------------------------------------------------------------------
# Configuration


def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_float(text):
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):  # NaN would pass every range check
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _comma_tuple(parse, form: str):
    """Parser of exactly as many comma-separated values as `form` names,
    each read by `parse`."""
    count = form.count(",") + 1

    def convert(text):
        parts = str(text).split(",")
        if len(parts) != count:
            raise ConfigError(f"expected {form!r}, got {text!r}")
        return tuple(parse(part) for part in parts)
    return convert


def _or_none(parse):
    """`parse`, except that 'none' or 'off' (any case) read as None."""
    def convert(text):
        return None if str(text).lower() in ("none", "off") else parse(text)
    return convert


def _setting(default, parse, shown=None):
    """A RunConfig field; `shown` is the default --help names where it is not `default`."""
    return field(default=default, metadata={"parse": parse, "shown": shown or default})


_PAIR = _comma_tuple(_parse_float, "low,high")
_TRAIN = training.TrainConfig  # the training settings' defaults and checks
_BUILD = inspect.signature(models.build_purefoodnet).parameters  # the architecture's defaults
_HEAD = inspect.signature(models.attach_head).parameters


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for the training-style commands. Each field is one
    setting: its flag (`--out-dir` for out_dir) and config-file key are its
    name, and `_setting` gives its default and parser. The training settings
    take their defaults from `training.TrainConfig` and the `aug_*` ones from
    `AugmentPolicy`, which check them. width_scale, input_side, dropout_rate and
    head_units are None unless given; `models.build_purefoodnet` and
    `attach_head` then use their own defaults: 1.0, 224, 0.5 and 512."""

    model: str = _setting("purefoodnet", str)
    dataset_root: str = _setting(None, str)
    manifest: str = _setting(None, str)
    out_dir: str = _setting("run", str)
    epochs: int = _setting(_TRAIN.epochs, _parse_int)
    batch_size: int = _setting(_TRAIN.batch_size, _parse_int)
    learning_rate: float = _setting(_TRAIN.learning_rate, _parse_float)
    momentum: float = _setting(_TRAIN.momentum, _parse_float)
    decay_factor: float = _setting(_TRAIN.decay_factor, _parse_float)
    decay_interval: int = _setting(_TRAIN.decay_interval, _parse_int)
    patience: int = _setting(_TRAIN.patience, _or_none(_parse_int))
    l2_strength: float = _setting(_TRAIN.l2_strength, _parse_float)
    l1_strength: float = _setting(_TRAIN.l1_strength, _parse_float)
    seed: int = _setting(_TRAIN.seed, _parse_int)
    input_side: int = _setting(None, _parse_int, _BUILD["input_side"].default)
    width_scale: float = _setting(None, _parse_float, _BUILD["width_scale"].default)
    head_units: int = _setting(None, _parse_int, _HEAD["units"].default)
    dropout_rate: float = _setting(None, _parse_float, _BUILD["dropout_rate"].default)
    split_ratios: tuple = _setting((0.8, 0.1, 0.1), _comma_tuple(_parse_float, "train,val,test"))
    split_counts: tuple = _setting(None, _or_none(_comma_tuple(_parse_int, "train,val,test")))
    aug_flip: float = _setting(AugmentPolicy.flip_probability, _parse_float)
    aug_crop: tuple = _setting(AugmentPolicy.crop_fraction_range, _PAIR)
    aug_tilt: tuple = _setting(AugmentPolicy.tilt_range, _PAIR)
    aug_color_shift: float = _setting(AugmentPolicy.color_shift_magnitude, _parse_float)
    aug_rotation: tuple = _setting(AugmentPolicy.rotation_range, _PAIR)
    aug_noise: float = _setting(AugmentPolicy.noise_sigma, _parse_float)
    aug_contrast: tuple = _setting(AugmentPolicy.contrast_range, _PAIR)

    def __post_init__(self):
        if not self.out_dir:
            raise ConfigError("out_dir must be non-empty")

    def policy(self) -> AugmentPolicy:
        """The policy of the `aug_*` settings, which follow `AugmentPolicy`'s field order."""
        return AugmentPolicy(*(getattr(self, key) for key in _AUG_KEYS),
                             seed=derive_seed(self.seed, "augment"))

    def train_config(self, patience) -> training.TrainConfig:
        """The checked settings `training.train` takes, with `patience` (None
        without a validation split) in place of this config's own, which is
        checked all the same."""
        config = _TRAIN(**{f.name: getattr(self, f.name) for f in fields(_TRAIN)})
        return replace(config, patience=patience)


_CONVERTERS = {f.name: f.metadata["parse"] for f in fields(RunConfig)}
_AUG_KEYS = tuple(key for key in _CONVERTERS if key.startswith("aug_"))


def _read_config_file(path, keys) -> dict:
    """The file's settings by key; a key outside `keys`, or given twice, is refused."""
    values, line_of = {}, {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not valid UTF-8") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: {key!r} is not a setting this command reads")
        if key in line_of:
            raise ConfigError(f"{path}:{lineno}: {key!r} is already set on line {line_of[key]}")
        values[key], line_of[key] = value, lineno
    return values


def _resolve_config(args) -> RunConfig:
    """Merge defaults, config file, then flags (flags win). Only the command's
    own keys are taken (`args.config_keys`; every key when it has none)."""
    keys = getattr(args, "config_keys", _CONVERTERS)
    raw = _read_config_file(args.config, keys) if getattr(args, "config", None) else {}
    raw.update((key, getattr(args, key)) for key in keys if getattr(args, key, None) is not None)
    return RunConfig(**{key: _CONVERTERS[key](value) for key, value in raw.items()})


def _add_config_flags(parser, keys):
    """One flag per setting in `keys`, the settings the command reads."""
    parser.add_argument("--config", help="flat key = value settings file")
    parser.set_defaults(config_keys=tuple(keys))
    for key in keys:
        shown = RunConfig.__dataclass_fields__[key].metadata["shown"]
        parser.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                            help=f"override {key} (default {shown!r})")


# ---------------------------------------------------------------------------
# Shared plumbing


def _ensure_out_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def _out_dir_flag(text: str) -> str:
    """An --out-dir of a command without a RunConfig: refused when empty,
    as RunConfig's out_dir is, while the arguments are parsed (exit 2)."""
    if not text:
        raise argparse.ArgumentTypeError("out_dir must be non-empty")
    return text


def _resolve_manifest(cfg: RunConfig) -> dataio.DatasetManifest:
    if cfg.manifest:
        return dataio.load_manifest(cfg.manifest, root=cfg.dataset_root)
    if not cfg.dataset_root:
        raise ConfigError("need either a manifest or a dataset_root")
    if cfg.split_counts is not None:
        return dataio.build_manifest(cfg.dataset_root, counts=cfg.split_counts,
                                     seed=cfg.seed)
    return dataio.build_manifest(cfg.dataset_root, ratios=cfg.split_ratios,
                                 seed=cfg.seed)


def _model_input_side(spec: models.ModelSpec) -> int:
    h, w, _ = spec.input_shape
    if h != w:
        raise ConfigError(f"model input {h}x{w} is not square; cannot pack batches")
    return h


def _given(**settings) -> dict:
    """The settings that are not None; a model builder's default stands for the rest."""
    return {name: value for name, value in settings.items() if value is not None}


def _batch_sources(cfg: RunConfig, manifest, side):
    # train builds each epoch's stream only after --out-dir exists, so check now.
    if not manifest.split_records("train"):
        raise DataError("split 'train' has no records")
    policy = cfg.policy()
    store = dataio.PackedStore()  # every epoch and validation pass reuses it

    def train_source(epoch):
        return dataio.batch_iterator(manifest, "train", cfg.batch_size, side,
                                     seed=derive_seed(cfg.seed, "shuffle", epoch),
                                     policy=policy, store=store)

    if not manifest.split_records("val"):
        return train_source, None

    def val_source():
        return dataio.batch_iterator(manifest, "val", cfg.batch_size, side, store=store)

    return train_source, val_source


def _train_and_write(cfg: RunConfig, spec, params, manifest) -> int:
    side = _model_input_side(spec)
    train_source, val_source = _batch_sources(cfg, manifest, side)
    config = cfg.train_config(None if val_source is None else cfg.patience)
    out_dir = _ensure_out_dir(cfg.out_dir)  # after every setting is checked
    result = training.train(spec, params, train_source, val_source, config)
    print(f"trained {len(result.history)} epochs; best epoch {result.best_epoch}"
          f" (val top1 {result.best_val_top1!r})"
          f"{' [early stop]' if result.stopped_early else ''}")
    models.save_model_spec(os.path.join(out_dir, "model.spec"), spec)
    models.save_weights(os.path.join(out_dir, "weights.pfw"), spec, result.params)
    training.write_history_csv(os.path.join(out_dir, "history.csv"), result.history)
    dataio.save_manifest(os.path.join(out_dir, "manifest.txt"), manifest)
    print(f"artifacts written to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Commands


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    arch = _given(width_scale=cfg.width_scale, input_side=cfg.input_side,
                  dropout_rate=cfg.dropout_rate)
    if arch and cfg.model != "purefoodnet":
        raise ConfigError(f"{cfg.model} fixes its own architecture; only --model"
                          f" purefoodnet reads {', '.join(arch)}")
    manifest = _resolve_manifest(cfg)
    spec = (models.build_purefoodnet(len(manifest.classes), **arch)
            if cfg.model == "purefoodnet" else models.load_model_spec(cfg.model))
    params = models.init_params(spec, seed=cfg.seed)
    return _train_and_write(cfg, spec, params, manifest)


def cmd_finetune(args) -> int:
    cfg = _resolve_config(args)
    base_spec = models.load_model_spec(args.base_spec)
    base_params = models.load_weights(args.base_weights, base_spec)
    manifest = _resolve_manifest(cfg)
    spec, params = models.attach_head(base_spec, base_params, len(manifest.classes),
                                      seed=derive_seed(cfg.seed, "head"),
                                      **_given(units=cfg.head_units,
                                               dropout_rate=cfg.dropout_rate))
    if args.freeze_backbone:
        frozen = [layer.name for layer in spec.layers[:spec.top_boundary]]
        spec = models.set_trainable(spec, frozen, False)
        print(f"froze {len(frozen)} backbone layers")
    return _train_and_write(cfg, spec, params, manifest)


def _parse_ks(text) -> tuple:
    try:
        return tuple(int(k) for k in str(text).split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated k values, got {text!r}") from None


def _check_class_names(n_classes: int, names) -> None:
    """Refuse a manifest whose class count is not the model's; a command
    calls this before it reads any weight."""
    if len(names) != n_classes:
        raise ConfigError(f"manifest has {len(names)} classes, model outputs {n_classes}")


def cmd_eval(args) -> int:
    ks = None if args.ks is None else _parse_ks(args.ks)  # None: plan_scores' default
    batch_size = _parse_int(args.batch_size)
    spec = models.load_model_spec(args.spec)
    plan = evaluation.plan_scores(spec, ks)
    manifest = dataio.load_manifest(args.manifest, root=args.dataset_root)
    _check_class_names(plan.n_classes, manifest.classes)
    batches = dataio.batch_iterator(manifest, args.split, batch_size, _model_input_side(spec))
    report = evaluation.evaluate(spec, models.load_weights(args.weights, spec), batches, ks=ks)
    summary = " ".join(f"top{k}={report.accuracy(k)!r}" for k in report.ks)
    print(f"N={report.n_samples} {summary}")
    if args.out:
        text = evaluation.report_to_csv(report, class_names=manifest.classes)
        atomic_write_bytes(args.out, text.encode("utf-8"))
        print(f"report written to {args.out}")
    return 0


def cmd_predict(args) -> int:
    k = _parse_int(args.k)
    spec = models.load_model_spec(args.spec)
    plan = evaluation.plan_scores(spec, (k,))
    side = _model_input_side(spec)
    if args.manifest:
        names = dataio.load_manifest(args.manifest).classes
        _check_class_names(plan.n_classes, names)
    else:
        names = tuple(f"class_{i}" for i in range(plan.n_classes))
    params = models.load_weights(args.weights, spec)
    image = dataio.load_image(args.image).pixels
    packed = dataio.pack_image(image, side)
    x = Tensor4(packed[np.newaxis].astype(np.float32))
    scores = models.forward(spec, params, x).data.reshape(-1).astype(np.float64)
    for index in evaluation.top_k_candidates(scores, k):
        print(f"{names[index]} {float(scores[index])!r}")
    return 0


def _activation_grid(act: np.ndarray) -> np.ndarray:
    """Tile (h, w, c) maps into one grayscale image, each map min-max scaled.

    A non-spatial (1, 1, c) activation, such as a dense layer's, is one
    (1, c) map: a single-pixel-tall strip scaled across its units.
    """
    if act.shape[:2] == (1, 1):
        act = act.reshape(1, -1, 1)
    h, w, c = act.shape
    grid_cols = math.ceil(math.sqrt(c))
    grid_rows = math.ceil(c / grid_cols)
    # One contiguous row per map, then blank maps up to a full grid.
    maps = np.zeros((grid_rows * grid_cols, h * w))
    maps[:c] = act.transpose(2, 0, 1).reshape(c, h * w)
    low = maps.min(axis=1, keepdims=True)
    span = maps.max(axis=1, keepdims=True) - low
    scaled = np.divide(maps - low, span, out=np.zeros_like(maps), where=span > 0)
    return scaled.reshape(grid_rows, grid_cols, h, w).transpose(0, 2, 1, 3).reshape(
        grid_rows * h, grid_cols * w)


def cmd_inspect(args) -> int:
    threshold = _parse_float(args.threshold)
    spec = models.load_model_spec(args.spec)
    side = _model_input_side(spec)
    convs = [layer.name for layer in spec.layers if layer.kind == "conv"]
    names = [name.strip() for name in args.layers.split(",")] if args.layers else convs
    models._known_names(spec, names)  # before the weights are read
    params = models.load_weights(args.weights, spec)
    image = dataio.load_image(args.image).pixels
    x = Tensor4(dataio.pack_image(image, side)[np.newaxis].astype(np.float32))
    # One pass captures the requested maps and the conv maps the report reads.
    captured = models.capture_activations(spec, params, x, names + convs)
    out_dir = _ensure_out_dir(args.out_dir)
    for name in names:
        grid = _activation_grid(captured[name].data[0])
        path = os.path.join(out_dir, f"{name}.pgm")
        dataio.write_pgm(path, grid)
        print(f"{name}: grid {grid.shape[0]}x{grid.shape[1]} -> {path}")
    report = models._liveness(captured, convs, threshold)
    lines = []
    for liveness in report:
        shown = ",".join(str(i) for i in liveness.dead) or "-"
        lines.append(f"{liveness.layer}\t{len(liveness.dead)}/{liveness.filter_count}"
                     f"\t{shown}")
    text = "layer\tdead/total\tdead_indices\n" + "".join(line + "\n" for line in lines)
    report_path = os.path.join(out_dir, "dead_filters.txt")
    atomic_write_bytes(report_path, text.encode("utf-8"))
    total_dead = sum(len(liveness.dead) for liveness in report)
    print(f"dead filters: {total_dead} (report {report_path})")
    return 0


def cmd_diagnose(args) -> int:
    try:
        history = training.read_history_csv(args.history)
    except DataFormatError as exc:
        # A bad history file is a usage problem for this command.
        raise ConfigError(str(exc)) from exc
    thresholds = training.FitThresholds(**{f.name: _parse_float(getattr(args, f.name))
                                           for f in fields(training.FitThresholds)})
    verdict = training.diagnose_fit(history, thresholds)
    print(f"{verdict.label} train_error={verdict.train_error!r}"
          f" val_error={verdict.val_error!r} gap={verdict.gap!r}")
    return 0


def cmd_dump_batch(args) -> int:
    manifest = dataio.load_manifest(args.manifest, root=args.dataset_root)
    seed = None if args.seed is None else _parse_int(args.seed)
    x, labels = next(dataio.batch_iterator(manifest, args.split, _parse_int(args.batch_size),
                                           _parse_int(args.input_side), seed=seed))
    out_dir = _ensure_out_dir(args.out_dir)
    save_tensor(os.path.join(out_dir, "batch.pft"), x)
    atomic_write_bytes(os.path.join(out_dir, "batch_labels.pft"), pft1_encode(labels))
    print(f"wrote batch {x.shape} and labels {labels.shape} to {out_dir}")
    return 0


def cmd_augment_preview(args) -> int:
    cfg = _resolve_config(args)
    count = _parse_int(args.count)
    if count < 0:
        raise ConfigError(f"count must be >= 0, got {count}")
    policy = cfg.policy()
    image = dataio.load_image(args.image).pixels
    out_dir = _ensure_out_dir(args.out_dir)
    dataio.save_image(os.path.join(out_dir, "before.ppm"), image)
    for i in range(count):
        out = apply_policy(image, policy, policy_rng(policy, i))
        dataio.save_image(os.path.join(out_dir, f"after_{i}.ppm"), out)
    print(f"wrote 1 original + {count} augmented previews to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="purefoodnet",
        description="Train, tune, and inspect small convolutional classifiers.")
    commands = parser.add_subparsers(dest="command", required=True)

    p_train = commands.add_parser("train", help="train a model from scratch")
    _add_config_flags(p_train, [key for key in _CONVERTERS if key != "head_units"])
    p_train.set_defaults(handler=cmd_train)

    p_tune = commands.add_parser("finetune", help="re-head a trained model and train")
    p_tune.add_argument("--base-spec", required=True, help="spec of the trained model")
    p_tune.add_argument("--base-weights", required=True, help="weights of the trained model")
    p_tune.add_argument("--freeze-backbone", action="store_true",
                        help="train only the new head")
    _add_config_flags(p_tune, [key for key in _CONVERTERS
                               if key not in ("model", "width_scale", "input_side")])
    p_tune.set_defaults(handler=cmd_finetune)

    p_eval = commands.add_parser("eval", help="measure top-k accuracy on a split")
    p_eval.add_argument("--spec", required=True)
    p_eval.add_argument("--weights", required=True)
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--dataset-root", default=None, help="override manifest root")
    p_eval.add_argument("--split", default="test", choices=dataio.SPLITS)
    p_eval.add_argument("--ks", default=None,
                        help="comma-separated k values (default 1,5, or 1 below 5 classes)")
    p_eval.add_argument("--batch-size", default=_TRAIN.batch_size,
                        help=f"images per forward (default {_TRAIN.batch_size}, as train's)")
    p_eval.add_argument("--out", default=None, help="write a per-class report CSV here")
    p_eval.set_defaults(handler=cmd_eval)

    p_pred = commands.add_parser("predict", help="classify one image")
    p_pred.add_argument("--spec", required=True)
    p_pred.add_argument("--weights", required=True)
    p_pred.add_argument("--image", required=True)
    p_pred.add_argument("--k", default=1)
    p_pred.add_argument("--manifest", default=None, help="source of class names")
    p_pred.set_defaults(handler=cmd_predict)

    p_ins = commands.add_parser("inspect", help="render activation grids")
    p_ins.add_argument("--spec", required=True)
    p_ins.add_argument("--weights", required=True)
    p_ins.add_argument("--image", required=True)
    p_ins.add_argument("--layers", default=None,
                       help="comma-separated layer names (default: every conv)")
    p_ins.add_argument("--out-dir", default="inspect", type=_out_dir_flag)
    p_ins.add_argument("--threshold", default=1e-6,
                       help="peak activation at or below this counts as dead")
    p_ins.set_defaults(handler=cmd_inspect)

    p_diag = commands.add_parser("diagnose", help="classify a history as under/overfitting")
    p_diag.add_argument("--history", required=True, help="history CSV from train")
    for f in fields(training.FitThresholds):
        p_diag.add_argument("--" + f.name.replace("_", "-"), default=f.default)
    p_diag.set_defaults(handler=cmd_diagnose)

    p_dataio = commands.add_parser("dataio", help="dataset utilities")
    dataio_sub = p_dataio.add_subparsers(dest="subcommand", required=True)
    p_dump = dataio_sub.add_parser("dump-batch", help="write one batch as PFT1 tensors")
    p_dump.add_argument("--manifest", required=True)
    p_dump.add_argument("--dataset-root", default=None)
    p_dump.add_argument("--split", default="train", choices=dataio.SPLITS)
    p_dump.add_argument("--batch-size", default=8,
                        help="images in the batch (default 8, not train's)")
    p_dump.add_argument("--input-side", default=32,
                        help="side the images are packed to (default 32, not train's)")
    p_dump.add_argument("--seed", default=None,
                        help="shuffle seed (default none: the manifest order, not train's 0)")
    p_dump.add_argument("--out-dir", default="dump", type=_out_dir_flag)
    p_dump.set_defaults(handler=cmd_dump_batch)

    p_aug = commands.add_parser("augment", help="augmentation utilities")
    aug_sub = p_aug.add_subparsers(dest="subcommand", required=True)
    p_prev = aug_sub.add_parser("preview", help="write before/after image pairs")
    p_prev.add_argument("--image", required=True)
    p_prev.add_argument("--count", default=4)
    p_prev.add_argument("--out-dir", default="preview", type=_out_dir_flag)
    _add_config_flags(p_prev, ("seed",) + _AUG_KEYS)
    p_prev.set_defaults(handler=cmd_augment_preview)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        return args.handler(args)
    except WeightDigestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DataError, DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (EngineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 5


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
