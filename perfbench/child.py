"""Child processes of the benchmark.

Usage: python3 perfbench/child.py <role> <job.json>

run.py writes the job file, starts this script with src/ on PYTHONPATH and
the BLAS thread count set, measures the process from outside (wall time,
peak RSS via os.wait4) and reads the result file named in the job. Roles:

  cli    run `purefoodnet <argv>` exactly as the console script does
  train  the train_inmem op: `training.train` on seeded in-memory tensors
  model  write the paper-scale spec and PFW1 weights (predict_paper set-up)
  warm   load paper-scale weights once, then serve single-image predictions

With "trace_out" set in the job, the role also runs its work under a Tracer
and writes the spans out when it ends.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from time import perf_counter

import numpy as np

import inputs
import spans


def _traced(job):
    """(tracer or None, context that installs it)."""
    if not job.get("trace_out"):
        return None, contextlib.nullcontext()
    tracer = spans.Tracer()
    return tracer, tracer.installed()


def role_cli(job) -> int:
    from purefoodnet import cli

    tracer, installed = _traced(job)
    if tracer is None:
        return cli.main(job["argv"])
    with installed:
        code = tracer.wrap("cli.main", cli.main)(job["argv"])
    tracer.dump(job["trace_out"], job["label"])
    return code


# ---------------------------------------------------------------------------
# train_inmem


def _timed_train_batches(x, labels, order, batch_size, step_s):
    """Yield in-memory batches; the gap between handing one out and being
    asked for the next is one training step (lookahead, loss_and_gradients,
    optimizer step), timed from outside the training loop."""
    from purefoodnet.tensor import Tensor4

    for start in range(0, len(order), batch_size):
        take = order[start:start + batch_size]
        xb = Tensor4(x[take])
        yb = labels[take]
        t0 = perf_counter()
        yield xb, yb
        step_s.append(perf_counter() - t0)


def _timed_val_batches(batches, val_s):
    t0 = perf_counter()
    yield from batches
    val_s.append(perf_counter() - t0)


def _train_once(job, spec, train_set, val_batches):
    from purefoodnet import models, training

    seed = job["seed"]
    params = models.init_params(spec, seed=seed)
    x, labels = train_set
    step_s, val_s = [], []

    def train_source(epoch):
        order = np.random.default_rng([seed, epoch]).permutation(len(x))
        return _timed_train_batches(x, labels, order, job["batch_size"], step_s)

    config = training.TrainConfig(epochs=job["epochs"], batch_size=job["batch_size"],
                                  learning_rate=job["learning_rate"], patience=None,
                                  seed=seed)
    t0 = perf_counter()
    result = training.train(spec, params, train_source,
                            lambda: _timed_val_batches(val_batches, val_s), config)
    task_s = perf_counter() - t0
    return {"task_s": task_s, "step_s": step_s, "val_s": val_s,
            "history_csv": training.history_to_csv(result.history),
            "final_train_loss": result.history[-1].train_loss}


def role_train(job) -> int:
    from purefoodnet import models
    from purefoodnet.tensor import Tensor4

    n_train, n_val = job["n_train"], job["n_val"]
    setup_s = []
    for _ in range(job["setup_repeats"]):
        t0 = perf_counter()
        x, labels = inputs.train_tensors(job["seed"], n_train + n_val, job["side"],
                                         job["classes"])
        spec = models.build_purefoodnet(job["classes"], width_scale=job["width_scale"],
                                        input_side=job["side"])
        train_set = (x[:n_train], labels[:n_train])
        b = job["batch_size"]
        val_batches = [(Tensor4(x[i:i + b]), labels[i:i + b])
                       for i in range(n_train, n_train + n_val, b)]
        setup_s.append(perf_counter() - t0)

    out = {"setup_s": setup_s, "runs": []}
    # Warm-up, untimed: one batch, so that first-call costs (BLAS start-up,
    # first-touch allocations) fall outside the timed runs.
    _train_once(job, spec, (x[:b], labels[:b]), val_batches[:1])
    tracer, installed = _traced(job)
    t_start = perf_counter()
    while not out["runs"] or perf_counter() - t_start < job["seconds"]:
        out["runs"].append(_train_once(job, spec, train_set, val_batches))
    if tracer is not None:
        with installed:
            out["traced"] = _train_once(job, spec, train_set, val_batches)
        tracer.dump(job["trace_out"], "train_inmem")
    _write(job, out)
    return 0


# ---------------------------------------------------------------------------
# predict_paper


def role_model(job) -> int:
    from purefoodnet import models

    tracer, installed = _traced(job)
    with installed:
        spec = models.build_purefoodnet(job["classes"], width_scale=1.0,
                                        input_side=job["side"])
        params = models.init_params(spec, seed=job["seed"])
        models.save_weights(job["weights"], spec, params)
        models.save_model_spec(job["spec"], spec)
    if tracer is not None:
        tracer.dump(job["trace_out"], "model")
    _write(job, {})
    return 0


def _predict(spec, params, path, k):
    """One request, as `purefoodnet predict` serves it."""
    from purefoodnet import dataio, evaluation, models
    from purefoodnet.tensor import Tensor4

    side = spec.input_shape[0]
    image = dataio.load_image(path).pixels
    x = Tensor4(dataio.pack_image(image, side)[np.newaxis].astype(np.float32))
    scores = models.forward(spec, params, x).data.reshape(-1).astype(np.float64)
    return scores, evaluation.top_k_candidates(scores, k)


def _ranking_ok(scores, top) -> bool:
    """Softmax sums to 1 and `top` holds the highest scores in order."""
    if not math.isclose(float(scores.sum()), 1.0, abs_tol=1e-4):
        return False
    ranked = scores[top]
    rest = np.delete(scores, top)
    return bool(np.all(np.diff(ranked) <= 0) and (rest.size == 0 or rest.max() <= ranked[-1]))


def _serve(spec, params, job, count, latency_s, failures):
    """`count` timed requests, cycling over the job's images."""
    images, k = job["images"], job["k"]
    results = []
    for _ in range(count):
        n = len(latency_s)
        t0 = perf_counter()
        scores, top = _predict(spec, params, images[n % len(images)], k)
        latency_s.append(perf_counter() - t0)
        if not _ranking_ok(scores, top):
            failures.append(f"request {n}: bad softmax or ranking")
        results.append((scores, top))
    return results


def role_warm(job) -> int:
    from purefoodnet import models

    spec = models.load_model_spec(job["spec"])
    params = models.load_weights(job["weights"], spec)
    failures, latency_s = [], []
    t_start = perf_counter()
    first = _serve(spec, params, job, 1, latency_s, failures)
    while len(latency_s) < job["min_requests"] or perf_counter() - t_start < job["seconds"]:
        _serve(spec, params, job, 1, latency_s, failures)
    # The first request was for the cold predict's image, images[0]: the CLI's top-k
    # must equal the library ranking on the same weights.
    scores, top = first[0]
    expected = [[f"class_{i}", float(scores[i])] for i in top]
    cold_ok = ([name for name, _ in expected] == [n for n, _ in job["cold_top"]]
               and all(math.isclose(a, b, rel_tol=1e-6)
                       for (_, a), (_, b) in zip(expected, job["cold_top"])))
    out = {"cold_ok": cold_ok, "cold_expected": expected, "latency_s": latency_s,
           "failures": failures}
    tracer, installed = _traced(job)
    if tracer is not None:
        out["traced_latency_s"] = []
        with installed:
            _serve(spec, params, job, len(latency_s), out["traced_latency_s"], failures)
        tracer.dump(job["trace_out"], "warm")
    _write(job, out)
    return 0


def _write(job, out) -> None:
    with open(job["out"], "w") as fh:
        json.dump(out, fh)


ROLES = {"cli": role_cli, "train": role_train, "model": role_model, "warm": role_warm}


def main(argv) -> int:
    if len(argv) != 3 or argv[1] not in ROLES:
        print(f"usage: child.py {{{','.join(ROLES)}}} JOB.json", file=sys.stderr)
        return 2
    with open(argv[2]) as fh:
        job = json.load(fh)
    return ROLES[argv[1]](job)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
