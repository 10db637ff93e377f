"""Golden bytes: a fixed-seed `train` and a `finetune --freeze-backbone` from
its output must write exactly these artifacts.

The hashes were recorded before the layer-kind table replaced the per-kind
dispatch in `models` and `training`; they pin every byte a refactor must
keep: the spec text and digest, PFW1 tensor order, the penalty sum in the
history, augmentation draws, dropout masks and batch-norm running stats.
They hold for one numpy/BLAS build (recorded with numpy 2.4 on OpenBLAS
0.3); a different BLAS may round differently and change them.
"""

import hashlib

import numpy as np
import pytest

from purefoodnet.cli import main

# Every layer kind and every activation/mode the text form can carry.
SPEC_TEXT = """input 16 16 3
top 7
c1 conv filters=4 kernel=3 stride=1 padding=1 activation=relu
bn1 batchnorm
p1 pool mode=max window=2 stride=2
c2 conv filters=6 kernel=3 stride=2 padding=1 activation=none
bn2 batchnorm trainable=false
p2 pool mode=average window=2 stride=2
d0 dropout rate=0.25
flatten flatten
fc1 dense units=8 activation=relu
fc1_drop dropout rate=0.5
predictor dense units=3 activation=softmax
"""

GOLDEN = {
    "train": {
        "weights.pfw": "b6767695afe3bdad2bd2e4c8ff162cde1347e14ca3762c30953ca16021835129",
        "history.csv": "1b3eaca76c379e90e2649ff05ed1d519cd1f695736195f80fcd55570b7494478",
        "model.spec": "52d3fdeda19d22271e54a85ed27e0b2a1aeb755251690204000ffee685b3bc22",
    },
    "finetune": {
        "weights.pfw": "9634d531360d3883a3c038329870b0b3f528eb12709b422e3c1989b5b2452884",
        "history.csv": "f13589aa0459acaa37fbbcdf7f34494977ffc4ff52bfad3fb9048630983be661",
        "model.spec": "23f0d826e6e5e2d0f5e38c22698ef6578b2d93937ccd2cbfd2c83bc2c30c1edf",
    },
}


def _write_ppm(path, rng, height, width, tint):
    pixels = rng.integers(0, 120, size=(height, width, 3), dtype=np.uint8)
    pixels[..., tint] += 120
    path.write_bytes(b"P6\n%d %d\n255\n" % (width, height) + pixels.tobytes())


def _make_dataset(root):
    rng = np.random.default_rng(2020)
    for c in range(3):
        class_dir = root / f"dish_{c}"
        class_dir.mkdir(parents=True)
        for i in range(8):
            _write_ppm(class_dir / f"img_{i:02d}.ppm", rng, 20, 24, c)
    return root


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


COMMON = ["--split-ratios", "0.5,0.25,0.25", "--batch-size", "4",
          "--patience", "none", "--aug-flip", "0.5", "--aug-rotation=-15,15",
          "--l2-strength", "0.001", "--l1-strength", "0.0005"]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    data = _make_dataset(tmp / "data")
    spec_path = tmp / "net.spec"
    spec_path.write_text(SPEC_TEXT)
    train_dir, tune_dir = tmp / "train", tmp / "finetune"
    assert main(["train", "--model", str(spec_path), "--dataset-root", str(data),
                 "--out-dir", str(train_dir), "--epochs", "3",
                 "--learning-rate", "0.05", "--seed", "11", *COMMON]) == 0
    assert main(["finetune", "--base-spec", str(train_dir / "model.spec"),
                 "--base-weights", str(train_dir / "weights.pfw"),
                 "--freeze-backbone", "--dataset-root", str(data),
                 "--out-dir", str(tune_dir), "--epochs", "2", "--head-units", "6",
                 "--learning-rate", "0.02", "--seed", "12", *COMMON]) == 0
    return {"train": train_dir, "finetune": tune_dir}


@pytest.mark.parametrize("run", sorted(GOLDEN))
@pytest.mark.parametrize("artifact", ["weights.pfw", "history.csv", "model.spec"])
def test_artifact_bytes_match_golden(runs, run, artifact):
    assert _sha256(runs[run] / artifact) == GOLDEN[run][artifact]
