"""Tests of the benchmark itself (not of the engine).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from purefoodnet import models  # noqa: E402
from purefoodnet.tensor import Tensor4  # noqa: E402

TINY = {"classes": 3, "side": 8, "width_scale": 0.125, "batch_size": 8,
        "n_train": 24, "n_val": 8, "epochs": 2, "learning_rate": 0.01, "seed": 5}


def _tiny_train():
    x, labels = child.inputs.train_tensors(TINY["seed"], TINY["n_train"] + TINY["n_val"],
                                           TINY["side"], TINY["classes"])
    spec = models.build_purefoodnet(TINY["classes"], width_scale=TINY["width_scale"],
                                    input_side=TINY["side"])
    n = TINY["n_train"]
    val = [(Tensor4(x[n:]), labels[n:])]
    return spec, (x[:n], labels[:n]), val


def test_tracing_changes_no_output():
    spec, train_set, val = _tiny_train()
    plain = child._train_once(TINY, spec, train_set, val)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = child._train_once(TINY, spec, train_set, val)
    assert traced["history_csv"].encode() == plain["history_csv"].encode()
    assert len(plain["step_s"]) == TINY["epochs"] * TINY["n_train"] // TINY["batch_size"]
    names = {span[spans.NAME] for span in tracer.spans}
    assert {"training.train", "training.step", "layers.conv_fwd",
            "training.conv_bwd", "tensor.construct"} <= names
    # Every span closed, after it opened, under an earlier parent.
    for index, span in enumerate(tracer.spans):
        assert span[spans.END] >= span[spans.START]
        assert -1 <= span[spans.PARENT] < index


def _current_targets():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in spans.engine_targets()]


def test_wrappers_are_restored_even_after_an_error():
    before = _current_targets()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            during = _current_targets()
            assert all(now is not orig for (_, _, now), (_, _, orig) in zip(during, before))
            raise RuntimeError("boom")
    after = _current_targets()
    assert all(a is b for (_, _, a), (_, _, b) in zip(after, before))


def test_dataio_apply_policy_is_wrapped_where_dataio_looks_it_up():
    from purefoodnet import augment, dataio

    original = augment.apply_policy
    with spans.Tracer().installed():
        assert dataio.apply_policy is not original
        assert augment.apply_policy is original


def test_percentile_needs_ten_samples_beyond_it():
    assert run.percentile(list(range(19)), 50) is None
    assert run.percentile(list(range(20)), 50) == 9.5
    assert run.percentile(list(range(99)), 90) is None
    assert run.percentile(list(range(100)), 90) == pytest.approx(89.9)
    assert run.percentile([1.0], 50) is None


def test_failed_train_check_counts_as_failed_op():
    out = run.Outcome()
    good = {"final_train_loss": run.TRAIN_LOSS_REF[0], "history_csv": "h\n1\n"}
    run._check_train_run(out, good, "good")
    run._check_train_run(out, dict(good, final_train_loss=math.nan), "nan loss")
    run._check_train_run(out, dict(good, final_train_loss=math.log(4)), "no learning")
    assert out.attempted == 3
    assert len(out.failures) == 2


def test_injected_failure_reaches_the_result_line(monkeypatch):
    def broken(ctx):
        out = run.Outcome(metrics={name: 1.0 for name in run.E2E_UNITS},
                          samples={name: 1 for name in run.E2E_UNITS})
        out.check(True, "fine")
        out.check(False, "injected")
        return out

    monkeypatch.setitem(run.WORKLOADS, "train_inmem", broken)
    for var in run.BLAS_VARS:
        monkeypatch.setenv(var, "1")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", "train_inmem", "--seed", "0", "--seconds", "0"])
    result = json.loads(stdout.getvalue().splitlines()[-1])
    assert code == 0
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert set(result["metrics"]) == set(run.E2E_UNITS)


def test_layer_metrics_self_time_and_names():
    doc = {"label": "predict", "wall_s": 1.5, "distinct": {"dataio.decode": 1}, "spans": [
        ["cli.main", 0.0, 1.0, -1, 0.0],
        ["models.forward", 0.1, 0.9, 0, 0.0],
        ["models.forward_with_caches", 0.1, 0.9, 1, 0.0],
        ["layers.conv_fwd", 0.2, 0.5, 2, 0.25],
        ["dataio.decode", 0.9, 0.95, 0, 0.5],
        ["dataio.decode", 0.95, 0.97, 0, 0.5],
    ]}
    metrics = spans.layer_metrics([doc], overhead_pct=3.0)
    assert list(metrics) == list(spans.LAYER_METRICS)
    assert metrics["models.forward_self_ms"][0] == pytest.approx(500.0)
    assert metrics["layers.conv_fwd_gflop"][0] == 0.25
    assert metrics["cli.predict_self_ms"][0] == pytest.approx(1000 - 800 - 50 - 20)
    assert metrics["cli.startup_ms"][0] == pytest.approx(500.0)
    assert metrics["dataio.decodes_per_image"][0] == 2.0
    assert metrics["training.calls"][0] == 0


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.LAYER_METRICS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_engine_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train_inmem",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_inputs_depend_only_on_the_seed(tmp_path):
    a, la = child.inputs.train_tensors(3, 16, 8, 4)
    b, lb = child.inputs.train_tensors(3, 16, 8, 4)
    c, _ = child.inputs.train_tensors(4, 16, 8, 4)
    assert np.array_equal(a, b) and np.array_equal(la, lb)
    assert not np.array_equal(a, c)
    first = child.inputs.food_tree(tmp_path / "a", 7, 2, 2)
    second = child.inputs.food_tree(tmp_path / "b", 7, 2, 2)
    for p, q in zip(first, second):
        assert open(p, "rb").read() == open(q, "rb").read()
