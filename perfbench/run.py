"""Benchmark of sswim's public library API on three workloads.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``desk`` and ``deep`` time ``train_sswim``; ``infer`` times ``predict_batch``
on a model trained during set-up. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-module metrics of a traced run. The last line
of standard output is one JSON object; see perfbench/README.md.
"""

import os
import time

T_START = time.perf_counter()

# Fixed BLAS thread count, set before numpy loads; never above the core count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("desk", "deep", "infer")
VARIABLES = 4
BATCH = 256          # windows per predict_batch call
SETUP_REPEATS = 3    # set-ups per run; setup_s is their median
SEED_STRIDE = 1000   # the j-th training of a run uses seed + j * SEED_STRIDE


@dataclass(frozen=True)
class Workload:
    steps: int                 # length of the training series
    horizon: int
    hidden: tuple
    subbatch: int
    rse_band: tuple            # accepted [low, high] of rse_test
    obs: int = 64
    min_trains: int = 3        # timed trainings per run, at least
    predict_windows: int = 2 * 256  # after each training; for infer, per run at least
    infer_windows: int = 0     # distinct windows of the infer series


# Sizes keep a run of three trainings near half a minute on one core while
# each workload keeps the layer split it exists for (see README.md).
# ``toy`` is the self-test size.
SIZES = {
    "full": {
        "desk": Workload(steps=2000, horizon=24, hidden=(250,), subbatch=200,
                         rse_band=(0.45, 0.85)),
        "deep": Workload(steps=1000, horizon=8, hidden=(250, 250), subbatch=200,
                         rse_band=(0.65, 1.05)),
        "infer": Workload(steps=600, horizon=24, hidden=(250,), subbatch=60,
                          rse_band=(0.50, 1.30), predict_windows=40 * BATCH,
                          infer_windows=16 * BATCH),
    },
    "toy": {
        "desk": Workload(steps=300, obs=24, horizon=16, hidden=(12,), subbatch=40,
                         rse_band=(0.0, 3.0), min_trains=1, predict_windows=BATCH),
        "deep": Workload(steps=300, obs=24, horizon=16, hidden=(12, 12), subbatch=40,
                         rse_band=(0.0, 3.0), min_trains=1, predict_windows=BATCH),
        "infer": Workload(steps=300, obs=24, horizon=16, hidden=(12,), subbatch=40,
                          rse_band=(0.0, 3.0), min_trains=1, predict_windows=4 * BATCH,
                          infer_windows=2 * BATCH),
    },
}

END_TO_END = (
    ("train_s", "s"),
    ("setup_s", "s"),
    ("infer_wps", "1/s"),
    ("infer_batch_ms_p50", "ms"),
    ("infer_batch_ms_p75", "ms"),
    ("peak_rss_mb", "MB"),
    ("rse_test", "1"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1, help="training seed")
    p.add_argument("--data-seed", type=int, default=2026, help="seed of the synthetic series")
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SIZES), default="full")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# outcome bookkeeping


class Tally:
    """Checked operations: attempted, failed, and what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, what, op):
        """Run ``op() -> (result, problems)``; count it failed if it raised
        or reported a problem. Returns the result, or None if it raised."""
        self.attempted += 1
        try:
            result, problems = op()
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            result, problems = None, ["raised"]
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]
        return result

    def require(self, what, ok: bool, problem: str) -> None:
        """A run-level check counted as one operation."""
        self.run(what, lambda: (None, [] if ok else [problem]))


# ---------------------------------------------------------------------------
# operations


def make_dataset(w: Workload, data_seed: int):
    series = sswim.synth_dataset("multisine", VARIABLES, w.steps, seed=data_seed)
    return sswim.make_windows(series, w.obs, w.horizon)


def train(w: Workload, dataset, seed: int):
    t0 = time.perf_counter()
    model, report = sswim.train_sswim(
        dataset, sswim.ModelArch(hidden=w.hidden), sswim.SswimConfig(subbatch=w.subbatch), seed
    )
    secs = time.perf_counter() - t0
    problems = []
    params = [a for lay in model.layers for a in (lay.weights, lay.bias)]
    if not all(np.all(np.isfinite(a)) for a in params):
        problems.append("non-finite model parameters")
    value = report.rse.get("test")
    if value is None or not w.rse_band[0] <= value <= w.rse_band[1]:
        problems.append(f"rse_test {value!r} outside {w.rse_band}")
    return (model, report, secs), problems


def round_trip(model, path: Path, inputs):
    """save_model/load_model; the loaded model must predict bit for bit alike."""
    sswim.save_model(model, path)
    loaded = sswim.load_model(path)
    mine = sswim.predict_batch(model, inputs[:BATCH], BATCH)
    theirs = sswim.predict_batch(loaded, inputs[:BATCH], BATCH)
    problems = [] if mine.tobytes() == theirs.tobytes() else [
        "loaded model predicts differently from the in-memory model"]
    return loaded, problems


def predict_loop(tally, model, inputs, min_windows: int, seconds: float):
    """Time predict_batch on BATCH-window slices, cycling over ``inputs``
    until ``seconds`` have passed and ``min_windows`` were predicted.
    Returns (per-batch seconds, predictions of the first pass)."""
    n_batches = inputs.shape[0] // BATCH
    first = [None] * n_batches
    times = []
    t_end = time.perf_counter() + seconds
    k = 0
    while k * BATCH < min_windows or time.perf_counter() < t_end:
        b = k % n_batches
        x = inputs[b * BATCH:(b + 1) * BATCH]

        def op():
            t0 = time.perf_counter()
            pred = sswim.predict_batch(model, x, BATCH)
            times.append(time.perf_counter() - t0)
            problems = [] if np.all(np.isfinite(pred)) else ["non-finite prediction"]
            if first[b] is None:
                first[b] = pred
            elif pred.tobytes() != first[b].tobytes():
                problems.append("prediction differs from the first pass")
            return None, problems

        tally.run(f"predict batch {k}", op)
        k += 1
    done = [p for p in first if p is not None]
    return times, np.concatenate(done) if done else np.empty((0, 0, 0))


def all_windows(dataset, count: int):
    """``count`` input windows, cycling over every window of the dataset."""
    starts = np.concatenate([dataset.starts[s] for s in ("train", "valid", "test")])
    return dataset.input_batch(np.resize(starts, count))


def infer_setup(w: Workload, data_seed: int, seed: int, path: Path):
    """Train a desk model on a short series, round-trip it through a file and
    cut the inference windows from a longer series of the same generator,
    normalized like the training series."""
    dataset = make_dataset(w, data_seed)
    (model, report, train_secs), problems = train(w, dataset, seed)
    series = sswim.synth_dataset(
        "multisine", VARIABLES, w.infer_windows + w.obs + w.horizon - 1, seed=data_seed
    )
    span = np.where(dataset.norm_hi > dataset.norm_lo, dataset.norm_hi - dataset.norm_lo, 1.0)
    series = (series - dataset.norm_lo[:, None]) / span[:, None]
    windows = sswim.make_windows(series, w.obs, w.horizon, ratios=(1.0, 0.0, 0.0), normalize=False)
    starts = windows.starts["train"]
    inputs, targets = windows.input_batch(starts), windows.target_batch(starts)
    loaded, rt_problems = round_trip(model, path, inputs)
    return (model, report, train_secs, loaded, inputs, targets), problems + rt_problems


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# runs


def end_to_end(import_s, setup_times, train_times, batch_times, rse_value) -> dict:
    values = {
        "train_s": statistics.median(train_times),
        "setup_s": import_s + statistics.median(setup_times),
        "infer_wps": BATCH * len(batch_times) / sum(batch_times),
        "infer_batch_ms_p50": 1e3 * float(np.percentile(batch_times, 50)),
        "infer_batch_ms_p75": 1e3 * float(np.percentile(batch_times, 75)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rse_test": rse_value,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def run_untraced(name, w, args, tally, import_s, extra):
    model_path = OUT / f"model_{name}_seed{args.seed}.json"
    seeds = []
    if name == "infer":
        setups = []
        for i in range(SETUP_REPEATS):
            r, secs = timed(lambda: tally.run(f"setup {i}", lambda: infer_setup(
                w, args.data_seed, args.seed, model_path)))
            if r is not None:
                setups.append((r, secs))
        seeds = [args.seed]
        if not setups:
            return None
        models = {model_bytes(r[0]) for r, _ in setups}
        tally.require("setup determinism", len(models) <= 1,
                      "repeated set-ups trained different models")
        (_, _, _, loaded, inputs, targets), _ = setups[0]
        batch_times, preds = predict_loop(tally, loaded, inputs, w.predict_windows, args.seconds)
        if not batch_times or len(preds) == 0:
            return None
        rse_value = sswim.rse(preds, targets[:len(preds)])
        tally.require("infer rse", w.rse_band[0] <= rse_value <= w.rse_band[1],
                      f"rse {rse_value!r} outside {w.rse_band}")
        setup_times = [secs for _, secs in setups]
        train_times = [r[2] for r, _ in setups]
        rses = [rse_value]
    else:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            dataset, secs = timed(make_dataset, w, args.data_seed)
            setup_times.append(secs)
        inputs = all_windows(dataset, w.predict_windows)
        results, batch_times = [], []
        t_end = time.perf_counter() + args.seconds
        j = 0
        while j < w.min_trains or time.perf_counter() < t_end:
            seed = args.seed + j * SEED_STRIDE
            seeds.append(seed)
            r = tally.run(f"train seed {seed}", lambda: train(w, dataset, seed))
            if r is not None:
                results.append(r)
                # batches spread over the run, like the trainings, rather than
                # all at its end, where one slow spell of the machine decides them
                batch_times += predict_loop(tally, r[0], inputs, w.predict_windows, 0.0)[0]
            j += 1
        if not results or not batch_times:
            return None
        train_times = [secs for _, _, secs in results]
        rses = [report.rse["test"] for _, report, _ in results]
        model = results[-1][0]
        tally.run("round trip", lambda: round_trip(model, model_path, inputs))
    extra.update(train_seeds=seeds, trainings=len(train_times), batches=len(batch_times),
                 rse_per_training=rses, setup_seconds=setup_times, train_seconds=train_times,
                 batch_seconds=batch_times)
    return end_to_end(import_s, setup_times, train_times, batch_times, statistics.median(rses))


def run_traced(name, w, args, tally, extra):
    """The same operation untraced, traced and untraced again: all three must
    give the same model, and the last one is the reference for the overhead."""
    from tracer import Tracer

    model_path = OUT / f"model_{name}_seed{args.seed}.json"
    if name == "infer":
        def op():
            r, problems = infer_setup(w, args.data_seed, args.seed, model_path)
            _, _, _, loaded, inputs, _ = r
            times, preds = predict_loop(tally, loaded, inputs, 8 * BATCH, 0.0)
            return (r, times, preds), problems
    else:
        def op():
            dataset = make_dataset(w, args.data_seed)
            r, problems = train(w, dataset, args.seed)
            inputs = all_windows(dataset, BATCH)
            tally.run("round trip", lambda: round_trip(r[0], model_path, inputs))
            return (r, [r[2]], np.empty(0)), problems

    tracer = Tracer()
    before = tally.run("untraced", op)
    tracer.install()
    try:
        traced = tally.run("traced", op)
    finally:
        bad = tracer.restore()
    tally.require("restore", not bad, f"attributes not restored: {bad}")
    after = tally.run("untraced", op)
    if before is None or traced is None or after is None:
        return None
    runs = (before, traced, after)
    tally.require("traced model", len({model_bytes(r[0][0]) for r in runs}) == 1,
                  "traced and untraced runs trained different models")
    tally.require("traced rse", len({r[0][1].rse["test"] for r in runs}) == 1,
                  "traced and untraced runs differ in rse_test")
    tally.require("traced predictions", len({r[2].tobytes() for r in runs}) == 1,
                  "traced and untraced runs predict differently")
    overhead = statistics.median(traced[1]) / statistics.median(after[1])
    tracer.dump(OUT / f"spans_{name}_seed{args.seed}.json")
    extra.update(train_seeds=[args.seed], shares=tracer.shares(), by_layer=tracer.by_layer(),
                 traced_seconds=traced[1], untraced_seconds=after[1])
    report = traced[0][1]
    return tracer.metrics(report.timings, report.total_seconds, overhead)


# ---------------------------------------------------------------------------
# record


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def version_of(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def provenance(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version_of("scipy"),
        "git_commit": git_commit(),
        "data_seed": args.data_seed,
        "seed": args.seed,
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--data-seed", str(args.data_seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and record["correct"]
        merged["attempted"] += record["attempted"]
        merged["failed"] += record["failed"]
        for metric, value in record["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "sswim" / "__init__.py").is_file():
        print(f"error: no sswim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # numpy and sswim load only now: after the BLAS settings, and only when
    # the source tree is there
    global np, sswim, model_bytes
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import sswim
    from sswim.train import serialize_model_bytes as model_bytes
    import_s = time.perf_counter() - T_START

    w = SIZES[args.size][args.workload]
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    extra = {}
    if args.trace:
        metrics = run_traced(args.workload, w, args, tally, extra)
    else:
        metrics = run_untraced(args.workload, w, args, tally, import_s, extra)
    if metrics is None:
        print("error: no operation of the run succeeded", file=sys.stderr)
        return 1
    record = {
        "provenance": provenance(args),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "fail_rate": tally.failed / tally.attempted,
        "problems": tally.problems,
        **extra,
    }
    with open(OUT / f"record_{args.workload}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print("provenance " + json.dumps(record["provenance"]))
    for key in ("train_seeds", "trainings", "batches", "shares", "by_layer"):
        if key in extra:
            print(f"{key} " + json.dumps(extra[key]))
    for problem in tally.problems:
        print(f"problem {problem}")
    for metric, (value, unit) in metrics.items():
        print(f"metric {metric} = {value!r} {unit}")
    print(f"fail_rate = {record['fail_rate']!r} ({tally.failed}/{tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
