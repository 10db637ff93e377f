"""A small, dependency-light convolutional image classifier engine.

Everything runs on the CPU through numpy: typed rank-4 tensors, conv /
pool / dense / dropout / batch-norm layers with hand-derived gradients,
Nesterov-momentum training with early stopping, the PureFoodNet
architecture with transfer-learning helpers, seeded data augmentation,
top-k evaluation, PPM dataset ingestion, and a CLI that ties the pieces
together.

`cli` is not imported here, so `python -m purefoodnet.cli` runs it only
once; `from purefoodnet import cli` loads it.
"""

from . import augment, dataio, evaluation, layers, models, seeding, training
from .errors import (ConfigError, DataError, DataFormatError,
                     DegenerateBatchError, EngineError, GeometryError,
                     NonFiniteError, ShapeError, UnknownLayerError,
                     WeightDigestError)
from .models import (ModelSpec, ParamStore, build_purefoodnet, forward,
                     init_params, load_model_spec, load_weights,
                     save_model_spec, save_weights)
from .tensor import ConvGeometry, Tensor4
from .training import TrainConfig, diagnose_fit, train

__all__ = [
    "ConfigError",
    "ConvGeometry",
    "DataError",
    "DataFormatError",
    "DegenerateBatchError",
    "EngineError",
    "GeometryError",
    "ModelSpec",
    "NonFiniteError",
    "ParamStore",
    "ShapeError",
    "Tensor4",
    "TrainConfig",
    "UnknownLayerError",
    "WeightDigestError",
    "augment",
    "build_purefoodnet",
    "cli",
    "dataio",
    "diagnose_fit",
    "evaluation",
    "forward",
    "init_params",
    "layers",
    "load_model_spec",
    "load_weights",
    "models",
    "save_model_spec",
    "save_weights",
    "seeding",
    "train",
    "training",
]
