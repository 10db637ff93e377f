"""Command-line surface for the engine.

Commands: train, finetune, eval, predict, inspect, diagnose,
`dataio dump-batch`, `augment preview`. Exit codes: 0 success, 2 config
error, 3 data or I/O error, 4 weight/spec mismatch.

Settings resolve with precedence flag > config file > default. The config
file is flat `key = value` text; keys match the long flag names with
underscores ('#' starts a comment).
"""

from __future__ import annotations

import argparse
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


def _setting(default, parse):
    return field(default=default, metadata={"parse": parse})


_PAIR = _comma_tuple(_parse_float, "low,high")
_TRAIN = training.TrainConfig  # the training settings' defaults and checks


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for the training-style commands. Each field is one
    setting: its flag (`--out-dir` for out_dir) and config-file key are its
    name, and `_setting` gives its default and parser. The training settings
    take their defaults from `training.TrainConfig`, which also checks them."""

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
    input_side: int = _setting(224, _parse_int)
    width_scale: float = _setting(1.0, _parse_float)
    head_units: int = _setting(512, _parse_int)
    dropout_rate: float = _setting(0.5, _parse_float)
    split_ratios: tuple = _setting((0.8, 0.1, 0.1), _comma_tuple(_parse_float, "train,val,test"))
    split_counts: tuple = _setting(None, _or_none(_comma_tuple(_parse_int, "train,val,test")))
    aug_flip: float = _setting(0.0, _parse_float)
    aug_crop: tuple = _setting((1.0, 1.0), _PAIR)
    aug_tilt: tuple = _setting((0.0, 0.0), _PAIR)
    aug_color_shift: float = _setting(0.0, _parse_float)
    aug_rotation: tuple = _setting((0.0, 0.0), _PAIR)
    aug_noise: float = _setting(0.0, _parse_float)
    aug_contrast: tuple = _setting((1.0, 1.0), _PAIR)

    def __post_init__(self):
        if not self.out_dir:
            raise ConfigError("out_dir must be non-empty")

    def policy(self) -> AugmentPolicy:
        return AugmentPolicy(flip_probability=self.aug_flip,
                             crop_fraction_range=self.aug_crop,
                             tilt_range=self.aug_tilt,
                             color_shift_magnitude=self.aug_color_shift,
                             rotation_range=self.aug_rotation,
                             noise_sigma=self.aug_noise,
                             contrast_range=self.aug_contrast,
                             seed=derive_seed(self.seed, "augment"))

    def train_config(self, patience) -> training.TrainConfig:
        """The checked settings `training.train` takes, with `patience` (None
        without a validation split) in place of this config's own, which is
        checked all the same."""
        config = _TRAIN(**{f.name: getattr(self, f.name) for f in fields(_TRAIN)})
        return replace(config, patience=patience)


_CONVERTERS = {f.name: f.metadata["parse"] for f in fields(RunConfig)}
_AUG_KEYS = tuple(key for key in _CONVERTERS if key.startswith("aug_"))


def _read_config_file(path) -> dict:
    values = {}
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
        if key not in _CONVERTERS:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        values[key] = value
    return values


def _resolve_config(args) -> RunConfig:
    """Merge defaults, config file, then flags (flags win)."""
    raw = {}
    if getattr(args, "config", None):
        raw.update(_read_config_file(args.config))
    for key in _CONVERTERS:
        flag = getattr(args, key, None)
        if flag is not None:
            raw[key] = flag
    typed = {key: _CONVERTERS[key](value) for key, value in raw.items()}
    return RunConfig(**typed)


def _add_config_flags(parser, keys):
    parser.add_argument("--config", help="flat key = value settings file")
    for key in keys:
        parser.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                            help=f"override {key} (default {getattr(RunConfig, key)!r})")


# ---------------------------------------------------------------------------
# Shared plumbing


def _ensure_out_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


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


def _resolve_spec(cfg: RunConfig, n_classes: int) -> models.ModelSpec:
    if cfg.model == "purefoodnet":
        return models.build_purefoodnet(n_classes,
                                        width_scale=cfg.width_scale,
                                        input_side=cfg.input_side,
                                        dropout_rate=cfg.dropout_rate)
    return models.load_model_spec(cfg.model)


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
    manifest = _resolve_manifest(cfg)
    spec = _resolve_spec(cfg, len(manifest.classes))
    params = models.init_params(spec, seed=cfg.seed)
    return _train_and_write(cfg, spec, params, manifest)


def cmd_finetune(args) -> int:
    cfg = _resolve_config(args)
    base_spec = models.load_model_spec(args.base_spec)
    base_params = models.load_weights(args.base_weights, base_spec)
    manifest = _resolve_manifest(cfg)
    spec, params = models.attach_head(base_spec, base_params, len(manifest.classes),
                                      units=cfg.head_units,
                                      dropout_rate=cfg.dropout_rate,
                                      seed=derive_seed(cfg.seed, "head"))
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


def _load_model(args) -> tuple:
    """The spec, weights and input side named by `--spec` and `--weights`."""
    spec = models.load_model_spec(args.spec)
    return spec, models.load_weights(args.weights, spec), _model_input_side(spec)


def cmd_eval(args) -> int:
    spec, params, side = _load_model(args)
    manifest = dataio.load_manifest(args.manifest, root=args.dataset_root)
    ks = None if args.ks is None else _parse_ks(args.ks)  # None: evaluation.default_ks
    batches = dataio.batch_iterator(manifest, args.split, _parse_int(args.batch_size), side)
    report = evaluation.evaluate(spec, params, batches, ks=ks)
    summary = " ".join(f"top{k}={report.accuracy(k)!r}" for k in report.ks)
    print(f"N={report.n_samples} {summary}")
    if args.out:
        text = evaluation.report_to_csv(report, class_names=manifest.classes)
        atomic_write_bytes(args.out, text.encode("utf-8"))
        print(f"report written to {args.out}")
    return 0


def _class_names(manifest_path, n: int):
    if manifest_path:
        return dataio.load_manifest(manifest_path).classes
    return tuple(f"class_{i}" for i in range(n))


def cmd_predict(args) -> int:
    spec, params, side = _load_model(args)
    image = dataio.load_image(args.image).pixels
    packed = dataio.pack_image(image, side)
    x = Tensor4(packed[np.newaxis].astype(np.float32))
    scores = models.forward(spec, params, x).data.reshape(-1).astype(np.float64)
    names = _class_names(args.manifest, scores.shape[0])
    if len(names) != scores.shape[0]:
        raise ConfigError(f"manifest has {len(names)} classes, model outputs {scores.shape[0]}")
    for index in evaluation.top_k_candidates(scores, _parse_int(args.k)):
        print(f"{names[index]} {float(scores[index])!r}")
    return 0


def _activation_grid(act: np.ndarray) -> np.ndarray:
    """Tile (h, w, c) maps into one grayscale image, each map min-max scaled.

    Non-spatial (1x1) activations render as a single-pixel-tall strip.
    """
    h, w, c = act.shape
    grid_cols = math.ceil(math.sqrt(c))
    grid_rows = math.ceil(c / grid_cols)
    # One contiguous row per map, then blank maps up to a full grid.
    maps = np.zeros((grid_rows * grid_cols, h * w))
    maps[:c] = act.transpose(2, 0, 1).reshape(c, h * w)
    low = maps.min(axis=1, keepdims=True)
    span = maps.max(axis=1, keepdims=True) - low
    scaled = np.divide(maps - low, span, out=np.zeros_like(maps), where=span > 0)
    if h == 1 and w == 1:
        return scaled[:c].reshape(1, c)
    return scaled.reshape(grid_rows, grid_cols, h, w).transpose(0, 2, 1, 3).reshape(
        grid_rows * h, grid_cols * w)


def cmd_inspect(args) -> int:
    threshold = _parse_float(args.threshold)
    spec, params, side = _load_model(args)
    image = dataio.load_image(args.image).pixels
    x = Tensor4(dataio.pack_image(image, side)[np.newaxis].astype(np.float32))
    convs = [layer.name for layer in spec.layers if layer.kind == "conv"]
    names = [name.strip() for name in args.layers.split(",")] if args.layers else convs
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
    thresholds = training.FitThresholds(low_error=_parse_float(args.low_error),
                                        high_error=_parse_float(args.high_error),
                                        gap=_parse_float(args.gap))
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
    _add_config_flags(p_train, _CONVERTERS)
    p_train.set_defaults(handler=cmd_train)

    p_tune = commands.add_parser("finetune", help="re-head a trained model and train")
    p_tune.add_argument("--base-spec", required=True, help="spec of the trained model")
    p_tune.add_argument("--base-weights", required=True, help="weights of the trained model")
    p_tune.add_argument("--freeze-backbone", action="store_true",
                        help="train only the new head")
    _add_config_flags(p_tune, _CONVERTERS)
    p_tune.set_defaults(handler=cmd_finetune)

    p_eval = commands.add_parser("eval", help="measure top-k accuracy on a split")
    p_eval.add_argument("--spec", required=True)
    p_eval.add_argument("--weights", required=True)
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--dataset-root", default=None, help="override manifest root")
    p_eval.add_argument("--split", default="test", choices=dataio.SPLITS)
    p_eval.add_argument("--ks", default=None,
                        help="comma-separated k values (default 1,5, or 1 below 5 classes)")
    p_eval.add_argument("--batch-size", default=32)
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
    p_ins.add_argument("--out-dir", default="inspect")
    p_ins.add_argument("--threshold", default=1e-6,
                       help="peak activation at or below this counts as dead")
    p_ins.set_defaults(handler=cmd_inspect)

    p_diag = commands.add_parser("diagnose", help="classify a history as under/overfitting")
    p_diag.add_argument("--history", required=True, help="history CSV from train")
    p_diag.add_argument("--low-error", default=0.10)
    p_diag.add_argument("--high-error", default=0.30)
    p_diag.add_argument("--gap", default=0.15)
    p_diag.set_defaults(handler=cmd_diagnose)

    p_dataio = commands.add_parser("dataio", help="dataset utilities")
    dataio_sub = p_dataio.add_subparsers(dest="subcommand", required=True)
    p_dump = dataio_sub.add_parser("dump-batch", help="write one batch as PFT1 tensors")
    p_dump.add_argument("--manifest", required=True)
    p_dump.add_argument("--dataset-root", default=None)
    p_dump.add_argument("--split", default="train", choices=dataio.SPLITS)
    p_dump.add_argument("--batch-size", default=8)
    p_dump.add_argument("--input-side", default=32)
    p_dump.add_argument("--seed", default=None)
    p_dump.add_argument("--out-dir", default="dump")
    p_dump.set_defaults(handler=cmd_dump_batch)

    p_aug = commands.add_parser("augment", help="augmentation utilities")
    aug_sub = p_aug.add_subparsers(dest="subcommand", required=True)
    p_prev = aug_sub.add_parser("preview", help="write before/after image pairs")
    p_prev.add_argument("--image", required=True)
    p_prev.add_argument("--count", default=4)
    p_prev.add_argument("--out-dir", default="preview")
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


def main_entry() -> None:
    sys.exit(main())
