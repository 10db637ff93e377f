"""Benchmark of the purefoodnet engine, timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and perfbench/README.md for why each exists):

  train_inmem    training.train on seeded in-memory tensors (compute kernels)
  cli_transfer   `purefoodnet train`, `finetune --freeze-backbone`, `eval` on a
                 generated tree of 512-px PPMs, each command its own process
  predict_paper  paper-scale model (224 px, 101 classes): cold
                 `purefoodnet predict` processes, then warm single-image requests
  all            the three above in turn (a human-readable overview)

Every loop is closed with one client. Each workload measures for at least
--seconds and at least its minimum sample counts. With --trace 0 the last
stdout line holds the end-to-end metrics; with --trace 1 it holds the
per-layer metrics from spans recorded around the engine's public
functions, plus the tracing overhead. Earlier lines give the environment,
the workload-specific figures with their sample counts, and any failed
checks. Run it from the root of a source checkout; it writes only under
.perfbench/ there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter

NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, at or below nproc. A two-thread OpenBLAS team on a
# two-CPU machine stalls whenever any other process takes a CPU: conv
# backward ran 7x slower while a second job was running.
BLAS_THREADS = 1


HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench")
RUN_BUDGET_S = 170.0  # every child is killed past this, so a run ends within 180 s

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "task_s": "s", "images_per_s": "img/s"}


class BenchError(Exception):
    """The benchmark could not produce a result (not a failed check)."""


# ---------------------------------------------------------------------------
# Statistics


def percentile(samples, p: int):
    """The p-th percentile, or None unless at least ten samples lie beyond it."""
    if len(samples) < 2:
        return None
    value = statistics.quantiles(samples, n=100, method="exclusive")[p - 1]
    return value if sum(1 for s in samples if s > value) >= 10 else None


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    result: dict | None


class Context:
    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.deadline = perf_counter() + RUN_BUDGET_S
        self.work = os.path.join(OUT_ROOT, f"work-{workload}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC, HERE] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self._count = 0

    def path(self, name):
        return os.path.join(self.work, name)

    def spawn(self, role, job, name) -> Child:
        """Run child.py <role> to completion; wall time and peak RSS from outside."""
        self._count += 1
        stem = self.path(f"{self._count:02d}-{name}")
        job = dict(job, out=stem + ".out.json")
        with open(stem + ".job.json", "w") as fh:
            json.dump(job, fh)
        argv = [sys.executable, os.path.join(HERE, "child.py"), role, stem + ".job.json"]
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise BenchError(f"run budget of {RUN_BUDGET_S} s spent before {name}")
        with open(stem + ".stdout", "wb") as out, open(stem + ".stderr", "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall_s = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = None
        if proc.returncode == 0 and os.path.exists(job["out"]):
            with open(job["out"]) as fh:
                result = json.load(fh)
        with open(stem + ".stdout") as fh:
            stdout = fh.read()
        with open(stem + ".stderr") as fh:
            stderr = fh.read()
        return Child(proc.returncode, wall_s, usage.ru_maxrss / 1024, stdout, stderr, result)

    def require(self, child: Child, what: str) -> dict:
        """The child's result; a child that could not run at all ends the benchmark."""
        if child.code != 0 or child.result is None:
            raise BenchError(f"{what} exited with {child.code}: {child.stderr.strip()[-800:]}")
        return child.result

    def trace_file(self, name):
        return self.path(f"{name}.spans.json")


def load_spans(path, **extra):
    with open(path) as fh:
        doc = json.load(fh)
    doc.update(extra)
    return doc


@dataclass
class Outcome:
    attempted: int = 0
    failures: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)   # e2e name -> value
    samples: dict = field(default_factory=dict)   # e2e name -> sample count
    report: list = field(default_factory=list)    # (name, value, unit, samples)
    docs: list = field(default_factory=list)      # span documents (trace runs)
    raw: dict = field(default_factory=dict)       # sample lists, kept in the result file
    traced_s: float = 0.0
    untraced_s: float = 0.0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def overhead_pct(self) -> float:
        return 100.0 * (self.traced_s - self.untraced_s) / self.untraced_s


# ---------------------------------------------------------------------------
# train_inmem: compute kernels only.

TRAIN = {
    "classes": 4, "side": 32, "width_scale": 0.125, "batch_size": 40,
    "n_train": 1040, "n_val": 160, "epochs": 1, "learning_rate": 0.01,
    "setup_repeats": 9,
}
# Final train loss after one epoch: (reference, allowed absolute distance).
# The reference is the median over seeds 0-9 (range 0.20-0.35). A net that
# learns nothing ends near ln(4) = 1.39.
TRAIN_LOSS_REF = (0.28, 0.2)


def _check_train_run(out: Outcome, run: dict, what: str) -> None:
    loss = run["final_train_loss"]
    ref, tol = TRAIN_LOSS_REF
    rows = run["history_csv"].strip().count("\n")
    out.check(math.isfinite(loss) and abs(loss - ref) <= tol and rows == TRAIN["epochs"],
              f"{what}: final train loss {loss!r} not within {tol} of {ref} "
              f"after {rows}/{TRAIN['epochs']} epochs")


def train_inmem(ctx: Context) -> Outcome:
    out = Outcome()
    job = dict(TRAIN, seed=ctx.seed, seconds=ctx.seconds)
    if ctx.trace:
        job.update(seconds=0, trace_out=ctx.trace_file("train"))
    child = ctx.spawn("train", job, "train")
    res = ctx.require(child, "train_inmem child")
    for i, run in enumerate(res["runs"]):
        _check_train_run(out, run, f"training run {i}")
    if ctx.trace:
        traced, plain = res["traced"], res["runs"][0]
        _check_train_run(out, traced, "traced training run")
        out.check(traced["history_csv"] == plain["history_csv"],
                  "tracing changed the training history")
        out.traced_s, out.untraced_s = traced["task_s"], plain["task_s"]
        out.docs.append(load_spans(job["trace_out"]))
        return out

    runs = res["runs"]
    step_s = [s for run in runs for s in run["step_s"]]
    val_s = [s for run in runs for s in run["val_s"]]
    val_images = job["n_val"] * len(val_s)
    # Medians over every step and every training call of the run, so that a
    # stall of a few steps on a shared host does not move the figure.
    out.metrics = {
        "setup_s": statistics.median(res["setup_s"]),
        "peak_rss_mb": child.peak_rss_mb,
        "task_s": statistics.median(run["task_s"] for run in runs),
        "images_per_s": job["batch_size"] / statistics.median(step_s),
    }
    out.samples = {"setup_s": len(res["setup_s"]), "peak_rss_mb": 1,
                   "task_s": len(runs), "images_per_s": len(step_s)}
    out.raw = {"step_s": step_s, "val_s": val_s, "task_s": [run["task_s"] for run in runs]}
    out.report = [
        ("train_images_per_s", out.metrics["images_per_s"], "img/s", len(step_s)),
        ("step_ms_p50", _ms(statistics.median(step_s)), "ms", len(step_s)),
        ("step_ms_p90", _ms(percentile(step_s, 90)), "ms", len(step_s)),
        ("val_images_per_s", val_images / sum(val_s), "img/s", len(val_s)),
    ]
    return out


def _ms(seconds):
    return None if seconds is None else 1e3 * seconds


# ---------------------------------------------------------------------------
# cli_transfer: the data path and the user workflow.

CLI = {
    "classes": 3, "per_class": 54, "ratios": "0.6,0.2,0.2", "epochs": 3,
    "batch_size": 8, "width_scale": "0.125", "side": "32", "setup_repeats": 5,
    "eval_top1_floor": 0.6,
}


def _cli_cycle(ctx: Context, out: Outcome, cycle: int, traced: bool) -> dict:
    """train -> finetune --freeze-backbone -> eval, each in its own process."""
    data = ctx.path("food")
    base, tuned = ctx.path(f"base{cycle}"), ctx.path(f"tuned{cycle}")
    common = ["--dataset-root", data, "--split-ratios", CLI["ratios"],
              "--epochs", str(CLI["epochs"]), "--batch-size", str(CLI["batch_size"]),
              "--patience", "off"]
    commands = [
        ("train", ["train", "--model", "purefoodnet", "--width-scale", CLI["width_scale"],
                   "--input-side", CLI["side"], "--seed", str(ctx.seed), "--out-dir", base,
                   "--aug-flip", "0.5", "--aug-rotation=-15,15", "--aug-contrast", "0.8,1.2",
                   "--learning-rate", "0.01", *common]),
        ("finetune", ["finetune", "--base-spec", os.path.join(base, "model.spec"),
                      "--base-weights", os.path.join(base, "weights.pfw"),
                      "--freeze-backbone", "--head-units", "32", "--seed", str(ctx.seed + 1),
                      # The frozen features are large; at 0.01 the new head's
                      # ReLUs die on some seeds and top-1 falls to chance.
                      "--learning-rate", "0.001", "--out-dir", tuned, *common]),
        ("eval", ["eval", "--spec", os.path.join(tuned, "model.spec"),
                  "--weights", os.path.join(tuned, "weights.pfw"),
                  "--manifest", os.path.join(tuned, "manifest.txt"), "--split", "test",
                  "--ks", "1,2", "--out", os.path.join(tuned, "report.csv")]),
    ]
    walls, rss = {}, []
    for label, argv in commands:
        job = {"argv": argv, "label": label}
        if traced:
            job["trace_out"] = ctx.trace_file(f"{label}{cycle}")
        child = ctx.spawn("cli", job, f"{label}{cycle}")
        walls[label] = child.wall_s
        rss.append(child.peak_rss_mb)
        ok = child.code == 0
        if ok and label == "train":
            ok = _artifacts_ok(base)
        elif ok and label == "finetune":
            ok = _artifacts_ok(tuned) and _backbone_same(base, tuned)
        elif ok and label == "eval":
            ok = _eval_top1(child.stdout) >= CLI["eval_top1_floor"]
        out.check(ok, f"cycle {cycle} {label}: exit {child.code}; "
                      f"{(child.stdout + child.stderr).strip()[-300:]}")
        if traced and child.code == 0:
            out.docs.append(load_spans(job["trace_out"], wall_s=child.wall_s))
    return {"walls": walls, "rss": rss}


def _load_run(run_dir):
    """(spec, params) of a command's output directory."""
    from purefoodnet import models

    spec = models.load_model_spec(os.path.join(run_dir, "model.spec"))
    return spec, models.load_weights(os.path.join(run_dir, "weights.pfw"), spec)


def _artifacts_ok(run_dir) -> bool:
    """Every artifact reloads through the engine's own readers."""
    from purefoodnet import dataio, training
    from purefoodnet.errors import EngineError

    try:
        _load_run(run_dir)
        history = training.read_history_csv(os.path.join(run_dir, "history.csv"))
        manifest = dataio.load_manifest(os.path.join(run_dir, "manifest.txt"))
    except (EngineError, OSError, ValueError):
        return False
    return len(history) == CLI["epochs"] and len(manifest.classes) == CLI["classes"]


def _backbone_same(base, tuned) -> bool:
    """Backbone tensors of the frozen finetune are byte-identical to the base."""
    _, before = _load_run(base)
    tuned_spec, after = _load_run(tuned)
    backbone = {layer.name for layer in tuned_spec.layers[:tuned_spec.top_boundary]}
    names = [n for n in before.keys() if n.split(".")[0] in backbone]
    return bool(names) and all(before[n].tobytes() == after[n].tobytes() for n in names)


def _eval_top1(stdout: str) -> float:
    for line in stdout.splitlines():
        for token in line.split():
            if token.startswith("top1="):
                return float(token[5:])
    return -1.0


def cli_transfer(ctx: Context) -> Outcome:
    from inputs import food_tree

    out = Outcome()
    setup_s = []
    for _ in range(CLI["setup_repeats"]):
        shutil.rmtree(ctx.path("food"), ignore_errors=True)
        t0 = perf_counter()
        food_tree(ctx.path("food"), ctx.seed, CLI["classes"], CLI["per_class"])
        setup_s.append(perf_counter() - t0)

    if ctx.trace:
        plain = _cli_cycle(ctx, out, 0, traced=False)
        traced = _cli_cycle(ctx, out, 1, traced=True)
        out.untraced_s = sum(plain["walls"].values())
        out.traced_s = sum(traced["walls"].values())
        return out

    cycles = []
    t_start = perf_counter()
    while not cycles or perf_counter() - t_start < ctx.seconds:
        cycles.append(_cli_cycle(ctx, out, len(cycles), traced=False))
    # The manifest's train split: round(per_class * train ratio) per class.
    n_train = CLI["classes"] * round(CLI["per_class"] * float(CLI["ratios"].split(",")[0]))
    cycle_images = 2 * CLI["epochs"] * n_train
    out.metrics = {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": max(r for c in cycles for r in c["rss"]),
        "task_s": statistics.median(sum(c["walls"].values()) for c in cycles),
        "images_per_s": statistics.median(
            cycle_images / (c["walls"]["train"] + c["walls"]["finetune"]) for c in cycles),
    }
    out.samples = {"setup_s": len(setup_s), "peak_rss_mb": 3 * len(cycles),
                   "task_s": len(cycles), "images_per_s": len(cycles)}
    out.raw = {"walls": [c["walls"] for c in cycles]}
    for label in ("train", "finetune", "eval"):
        value = statistics.median(c["walls"][label] for c in cycles)
        out.report.append((f"{label}_cmd_s", value, "s", len(cycles)))
    return out


# ---------------------------------------------------------------------------
# predict_paper: paper-scale inference and memory.

PREDICT = {"classes": 101, "side": 224, "k": 5, "images": 4, "cold_runs": 2,
           "min_requests": 5, "trace_requests": 3}


def _cold_predict(ctx: Context, out: Outcome, spec, weights, image, traced: bool):
    label = "predict_traced" if traced else "predict"
    job = {"argv": ["predict", "--spec", spec, "--weights", weights, "--image", image,
                    "--k", str(PREDICT["k"])], "label": "predict"}
    if traced:
        job["trace_out"] = ctx.trace_file(label)
    child = ctx.spawn("cli", job, label)
    top = []
    for line in child.stdout.splitlines():
        name, _, score = line.partition(" ")
        try:
            top.append([name, float(score)])
        except ValueError:
            pass  # not a "<class> <score>" line; the length check below fails
    out.check(child.code == 0 and len(top) == PREDICT["k"],
              f"cold {label}: exit {child.code}; {child.stderr.strip()[-300:]}")
    if traced and child.code == 0:
        out.docs.append(load_spans(job["trace_out"], wall_s=child.wall_s))
    return child, top


def predict_paper(ctx: Context) -> Outcome:
    from inputs import photo, write_ppm

    out = Outcome()
    spec, weights = ctx.path("paper.spec"), ctx.path("paper.pfw")
    images = [ctx.path(f"photo{i}.ppm") for i in range(PREDICT["images"])]
    model_job = {"classes": PREDICT["classes"], "side": PREDICT["side"], "seed": ctx.seed,
                 "spec": spec, "weights": weights}
    if ctx.trace:
        model_job["trace_out"] = ctx.trace_file("model")
    t0 = perf_counter()
    for i, path in enumerate(images):
        write_ppm(path, photo(ctx.seed, i, portrait=i % 2 == 0))
    ctx.require(ctx.spawn("model", model_job, "model"), "paper-scale model set-up")
    setup_s = perf_counter() - t0
    if ctx.trace:
        out.docs.append(load_spans(model_job["trace_out"]))

    # Cold: fresh `purefoodnet predict` processes on the first (portrait) photo.
    colds = [_cold_predict(ctx, out, spec, weights, images[0], traced=False)
             for _ in range(1 if ctx.trace else PREDICT["cold_runs"])]
    cold_top = colds[0][1]
    for i, (_, top) in enumerate(colds[1:], 1):
        out.check(top == cold_top, f"cold predict {i} top-{PREDICT['k']} {top} differs "
                                   f"from the first {cold_top}")
    cold_s = [child.wall_s for child, _ in colds]
    if ctx.trace:
        cold_traced, _ = _cold_predict(ctx, out, spec, weights, images[0], traced=True)
    warm_job = {"spec": spec, "weights": weights, "images": images, "k": PREDICT["k"],
                "cold_top": cold_top, "min_requests": PREDICT["min_requests"],
                "seconds": ctx.seconds}
    if ctx.trace:
        warm_job.update(min_requests=PREDICT["trace_requests"], seconds=0,
                        trace_out=ctx.trace_file("warm"))
    warm = ctx.spawn("warm", warm_job, "warm")
    res = ctx.require(warm, "warm prediction client")
    out.check(res["cold_ok"], f"cold predict top-{PREDICT['k']} {cold_top} differs from "
                              f"the library ranking {res['cold_expected']}")
    latency = res["latency_s"]
    out.attempted += len(latency) + len(res.get("traced_latency_s", []))
    out.failures.extend(res["failures"])

    if ctx.trace:
        out.untraced_s = cold_s[0] + sum(latency)
        out.traced_s = cold_traced.wall_s + sum(res["traced_latency_s"])
        out.docs.append(load_spans(warm_job["trace_out"]))
        return out

    out.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": max([warm.peak_rss_mb] + [child.peak_rss_mb for child, _ in colds]),
        "task_s": statistics.median(cold_s),
        "images_per_s": 1 / statistics.median(latency),
    }
    out.samples = {"setup_s": 1, "peak_rss_mb": len(colds) + 1, "task_s": len(cold_s),
                   "images_per_s": len(latency)}
    out.raw = {"cold_s": cold_s, "latency_s": latency}
    out.report = [
        ("predict_cold_s", out.metrics["task_s"], "s", len(cold_s)),
        ("predict_warm_ms_p50", _ms(statistics.median(latency)), "ms", len(latency)),
    ]
    return out


WORKLOADS = {"train_inmem": train_inmem, "cli_transfer": cli_transfer,
             "predict_paper": predict_paper}


# ---------------------------------------------------------------------------
# Environment and output


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    mem_kb = 0
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "mem_total_mb": round(mem_kb / 1024),
        "rss_method": "ru_maxrss of each timed child process, from os.wait4",
        "clients": 1,
        "loop": "closed",
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> tuple[Outcome, dict]:
    """Run one workload; returns the outcome and its metrics ({name: (value, unit)})."""
    import spans

    ctx = Context(name, seed, seconds, trace)
    try:
        out = WORKLOADS[name](ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    if trace:
        metrics = spans.layer_metrics(out.docs, out.overhead_pct())
        with open(os.path.join(OUT_ROOT, f"spans-{name}-seed{seed}.json"), "w") as fh:
            json.dump(out.docs, fh)
    else:
        metrics = {k: (out.metrics[k], unit) for k, unit in E2E_UNITS.items()}
    return out, metrics


def _fmt(value) -> str:
    return "n/a (fewer than 10 samples beyond)" if value is None else f"{value:.6g}"


def print_outcome(name, out: Outcome, metrics: dict, trace: bool) -> None:
    print(f"== {name} ({'traced' if trace else 'untraced'})")
    for metric, (value, unit) in metrics.items():
        n = "" if trace else f"  n={out.samples[metric]}"
        print(f"  {metric:32s} {_fmt(value):>14s} {unit}{n}")
    for metric, value, unit, n in out.report:
        print(f"  {metric:32s} {_fmt(value):>14s} {unit}  n={n}")
    print(f"  ops attempted {out.attempted}, failed {len(out.failures)}")
    for failure in out.failures:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "purefoodnet", "__init__.py")):
        print(f"error: no engine source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # Fixed before numpy loads, here and in every child process.
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [SRC, HERE]
    os.makedirs(OUT_ROOT, exist_ok=True)

    env = environment()
    print("env " + json.dumps(env))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted, failed, combined = 0, 0, {}
    record = {"env": env, "args": vars(args), "workloads": {}}
    for name in names:
        try:
            out, metrics = run_one(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_outcome(name, out, metrics, bool(args.trace))
        attempted += out.attempted
        failed += len(out.failures)
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, (value, unit) in metrics.items():
            combined[prefix + metric] = {"value": value, "unit": unit}
        record["workloads"][name] = {"metrics": metrics, "report": out.report,
                                     "samples": out.samples, "failures": out.failures,
                                     "raw": out.raw}
    with open(os.path.join(OUT_ROOT, f"result-{args.workload}-seed{args.seed}"
                                     f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an error, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
