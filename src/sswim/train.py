"""End-to-end training driver and the ablation sweep runner.

The pipeline draws an initialization batch uniformly from the training
windows, optionally selects distance functions by the entropy criterion,
builds the hidden layers, then identifies output delays, searches kernel
supports, and solves the regularized output weights on the full training
split with the regularization strength validated on the validation split.
Everything is deterministic given the seed.

Each hidden layer is built on the initialization windows, zero-padded to
the full grid, for the first layer, and on the previous layer's boolean
spike mask over them for the others. The weights phase simulates the
hidden stack once per split into one boolean spike mask of the last
layer, reusing the initialization windows' masks, and sums the normal
equations over fixed views of ``FIT_SAMPLES`` samples of it. The eval
phase reads the same masks for the spike counts and the train and
validation read-outs. The forward pass takes the observation windows as
they come and pads them itself.

A failure names its phase and, in the hidden build, its layer
(``PipelineError.layer``).
"""

from __future__ import annotations

import json
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .config import ModelArch, SswimConfig
from .datasets import ForecastDataset, rse
from .errors import PipelineError, SswimError
from .hidden import build_hidden_layer
from .kernels import pspk, rfk
from .network import (
    GridSpec,
    LayerParams,
    SnnModel,
    model_to_dict,
    output_voltages_batch,
    share_cpus,
    simulate_hidden_stack,
)
from .output import (
    accumulate_normal_equations,
    condition_bound_diagnostic,
    estimate_delays,
    lambda_grid,
    select_supports,
    solve_with_lambda_search,
)
from .sampling import (
    EmbeddingSpec,
    Pseudometric,
    VanRossumLift,
    select_metrics,
)


@dataclass
class RunReport:
    """Everything a training run reports besides the model itself."""

    seed: int
    rse: dict = field(default_factory=dict)            # split -> value
    timings: dict = field(default_factory=dict)        # phase -> seconds
    total_seconds: float = 0.0
    chosen_lambda: list = field(default_factory=list)  # per output neuron
    spike_counts: np.ndarray | None = None             # per hidden neuron over X_I
    metric_in: str = ""
    metric_out: str = ""
    condition_bounds: list = field(default_factory=list)
    n_windows: dict = field(default_factory=dict)
    subbatch_capped: bool = False
    test_predictions: np.ndarray | None = None         # (windows, d_out, H) on the test split


def report_lines(report: RunReport) -> list:
    """Deterministic machine-readable lines, one metric per line."""
    lines = [f"seed={report.seed}"]
    for split in ("train", "valid", "test"):
        if split in report.rse:
            lines.append(f"rse_{split}={report.rse[split]!r}")
    lines.append(f"metric_in={report.metric_in}")
    lines.append(f"metric_out={report.metric_out}")
    for i, lam in enumerate(report.chosen_lambda):
        lines.append(f"lambda_{i}={lam!r}")
    if report.spike_counts is not None and report.spike_counts.size:
        counts = report.spike_counts
        lines.append(f"spike_count_min={int(counts.min())}")
        lines.append(f"spike_count_mean={float(counts.mean())!r}")
        lines.append(f"spike_count_max={int(counts.max())}")
    for i, bound in enumerate(report.condition_bounds):
        lines.append(f"condition_bound_{i}={bound!r}")
    for split, count in sorted(report.n_windows.items()):
        lines.append(f"windows_{split}={count}")
    return lines


def timing_lines(report: RunReport) -> list:
    lines = [f"phase_{name}={secs!r}" for name, secs in report.timings.items()]
    lines.append(f"total_seconds={report.total_seconds!r}")
    return lines


@contextmanager
def _phase(name: str, timings: dict):
    start = time.perf_counter()
    try:
        yield
    except PipelineError:
        raise
    except (SswimError, ValueError) as exc:  # np.linalg.LinAlgError is a ValueError
        raise PipelineError(name, exc) from exc
    finally:
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - start


# Samples per term of the output fit's normal equations: each Gram matrix
# sums one design product per view of this many samples, in split order, so
# the cut fixes how the sum rounds. Every pinned model was fitted with 256,
# and a view bounds each thread's design buffer.
FIT_SAMPLES = 256


def _split_spikes(layers, dataset: ForecastDataset, starts, total_steps: int,
                  known=None) -> tuple[np.ndarray, np.ndarray]:
    """The last hidden layer's boolean (samples, neurons, steps) spike mask
    over a split, simulated once, and the split's targets.

    ``known`` is None or (rows, mask): the positions in ``starts`` of
    windows whose masks are known already, and those masks. They are placed
    at their rows and not simulated again; a window's spikes do not depend
    on the batch it is simulated in."""
    targets = dataset.target_batch(starts)
    rest = np.ones(len(starts), dtype=bool)
    if known is not None:
        rest[known[0]] = False
        if not rest.any():
            return known[1], targets
    # the rest is simulated before the whole mask is made, so the forward
    # pass's buffers are freed by then
    simulated = simulate_hidden_stack(layers, dataset.input_batch(starts[rest]), total_steps)
    if known is None:
        return simulated, targets
    mask = np.empty((len(starts),) + simulated.shape[1:], dtype=bool)
    mask[known[0]], mask[rest] = known[1], simulated
    return mask, targets


def _fit_views(mask: np.ndarray, targets: np.ndarray) -> list:
    """(mask, targets) views of ``FIT_SAMPLES`` samples each, in split order."""
    return [(mask[lo: lo + FIT_SAMPLES], targets[lo: lo + FIT_SAMPLES])
            for lo in range(0, len(mask), FIT_SAMPLES)]


def predict_batch(model: SnnModel, inputs: np.ndarray,
                  batch_size: int = 256) -> np.ndarray:
    """The forward pass: predictions (samples, d_out, horizon) on the
    forecast window for raw (samples, d_in, steps) observation windows,
    which the forward pass zero-pads to the model's grid block by block."""
    grid, hidden = model.grid, model.layers[:-1]
    preds = []
    for lo in range(0, inputs.shape[0], batch_size):
        spikes = inputs[lo: lo + batch_size]
        if hidden:
            spikes = simulate_hidden_stack(hidden, spikes, grid.total_steps)
        preds.append(output_voltages_batch(model.layers[-1], spikes, grid.window))
    return np.concatenate(preds, axis=0)


def evaluate_split(model: SnnModel, dataset: ForecastDataset, split: str) -> float:
    starts = dataset.starts[split]
    if len(starts) == 0:
        raise ValueError(f"split {split!r} has no windows")
    preds = predict_batch(model, dataset.input_batch(starts))
    return rse(preds, dataset.target_batch(starts))


def train_sswim(dataset: ForecastDataset, arch: ModelArch, cfg: SswimConfig,
                seed: int) -> tuple[SnnModel, RunReport]:
    """Train a model on a windowed dataset; deterministic given the seed."""
    t_start = time.perf_counter()
    obs_len, horizon = dataset.obs_len, dataset.horizon
    total_steps = obs_len + horizon
    d_in = d_out = dataset.n_variables
    report = RunReport(seed=seed)
    report.n_windows = {name: len(idx) for name, idx in dataset.starts.items()}

    seq = np.random.SeedSequence(seed)
    rng_subbatch, rng_layers = [np.random.default_rng(s) for s in seq.spawn(2)]

    train_starts = dataset.starts["train"]
    if len(train_starts) < 2:
        raise PipelineError("subbatch", SswimError("need at least two training windows"))

    hidden_pspk, hidden_rfk = pspk(arch.pspk), rfk(arch.rfk)
    output_pspk = pspk(arch.output_pspk)
    n_layers = len(arch.hidden)

    hidden_layers = []
    timings = report.timings
    with _phase("hidden_build", timings):
        m_sub = min(cfg.subbatch, len(train_starts))
        if m_sub < cfg.subbatch:
            report.subbatch_capped = True
            warnings.warn(
                f"initialization batch capped at the {m_sub} available training windows",
                stacklevel=2,
            )
        pick = np.sort(rng_subbatch.choice(len(train_starts), size=m_sub, replace=False))
        xi_starts = train_starts[pick]
        # the first layer's metrics centre and embed the whole grid
        latents = np.zeros((m_sub, d_in, total_steps))
        latents[:, :, :obs_len] = dataset.input_batch(xi_starts)
        targets_xi = dataset.target_batch(xi_starts)
        for layer_index, n_neurons in enumerate(arch.hidden, start=1):
            try:
                lift = None
                if layer_index > 1:
                    lift = VanRossumLift(
                        hidden_pspk,
                        cfg.sigma_min if cfg.lift_support is None else cfg.lift_support,
                    )
                if cfg.weight_criterion == "random":
                    # weights ignore the pair distribution; no metric is consulted
                    pairs, names = None, ("none", "none")
                else:
                    entropy = cfg.metric_mode == "entropy"
                    names_in = cfg.metric_candidates if entropy else [cfg.metric_in]
                    names_out = cfg.metric_candidates if entropy else [cfg.metric_out]
                    d_in_metric, d_out_metric, pairs = select_metrics(
                        latents, targets_xi,
                        [Pseudometric(EmbeddingSpec.parse(c), lift) for c in names_in],
                        [Pseudometric(EmbeddingSpec.parse(c)) for c in names_out],
                        eps=cfg.epsilon, min_norm=cfg.min_norm,
                        min_entropy=cfg.min_entropy if entropy else None,
                    )
                    names = (d_in_metric.name, d_out_metric.name)
                layer, _ = build_hidden_layer(
                    layer_index, n_layers, n_neurons, hidden_pspk, hidden_rfk,
                    latents, obs_len, horizon, pairs, cfg, rng_layers,
                )
                # the layer's boolean spike mask over X_I: the next layer's input
                latents = simulate_hidden_stack([layer], latents, total_steps)
            except (SswimError, ValueError) as exc:
                raise PipelineError("hidden_build", exc, layer=layer_index) from exc
            if layer_index == 1:
                report.metric_in, report.metric_out = names
            hidden_layers.append(layer)
        masks_xi = latents
        report.spike_counts = masks_xi.sum(axis=(0, 2)).astype(np.int64)

    with _phase("delays", timings):
        delays = estimate_delays(masks_xi, targets_xi, output_pspk, cfg.delay_aggregation)

    with _phase("supports", timings):
        supports = select_supports(
            masks_xi, targets_xi, delays, cfg.support_grid(horizon), output_pspk
        )

    with _phase("weights", timings):
        splits = {"train": _split_spikes(hidden_layers, dataset, train_starts, total_steps,
                                         known=(pick, masks_xi))}
        if len(dataset.starts["valid"]):
            splits["valid"] = _split_spikes(hidden_layers, dataset, dataset.starts["valid"],
                                            total_steps)
        lambda_source = "valid" if "valid" in splits else "train"
        equations = {
            split: accumulate_normal_equations(
                _fit_views(mask, targets), delays.per_neuron, supports, output_pspk)
            for split, (mask, targets) in splits.items()
        }
        lams = lambda_grid(cfg.lambda_count, cfg.lambda_min, cfg.lambda_max)
        weights, bias, chosen = solve_with_lambda_search(
            equations["train"], equations[lambda_source], lams)
        report.chosen_lambda = [float(lam) for lam in chosen]

        out_layer = LayerParams(
            weights=weights, bias=bias, delay=delays.per_neuron,
            support=supports, pspk=output_pspk,
        )
        model = SnnModel(
            layers=hidden_layers + [out_layer],
            d_in=d_in, d_out=d_out,
            grid=GridSpec(total_steps=total_steps, horizon=horizon),
            metadata={
                "seed": seed,
                "metric_in": report.metric_in,
                "metric_out": report.metric_out,
                "chosen_lambda": report.chosen_lambda,
                "lambda_source": lambda_source,
            },
        )

    with _phase("eval", timings):
        counts_sq = splits["train"][0].sum(axis=2)
        for i in range(d_out):
            taps = out_layer.placed_kernel(i).taps(total_steps)
            report.condition_bounds.append(
                condition_bound_diagnostic(
                    equations["train"][i], report.chosen_lambda[i], counts_sq,
                    horizon, float(np.sum(taps**2)),
                )
            )
        model.metadata["condition_bounds"] = [float(b) for b in report.condition_bounds]
        for split, (mask, targets) in splits.items():
            report.rse[split] = rse(output_voltages_batch(out_layer, mask, model.grid.window),
                                    targets)
        del splits, masks_xi   # dead from here on: the test prediction reuses their memory
        test_starts = dataset.starts["test"]
        if len(test_starts):
            report.test_predictions = predict_batch(model, dataset.input_batch(test_starts))
            report.rse["test"] = rse(report.test_predictions, dataset.target_batch(test_starts))

    report.total_seconds = time.perf_counter() - t_start
    return model, report


# ---------------------------------------------------------------------------
# ablation sweep


def _ablation_cell(args):
    dataset, arch, cfg, criterion, normalizer, neurons, seed = args
    cell_arch = replace(arch, hidden=(neurons,) * len(arch.hidden))
    cell_cfg = replace(cfg, weight_criterion=criterion, normalizer=normalizer)
    row = {
        "criterion": criterion,
        "normalizer": normalizer,
        "neurons": neurons,
        "seed": seed,
    }
    try:
        _, report = train_sswim(dataset, cell_arch, cell_cfg, seed)
        row["rse_test"] = report.rse.get("test")
        row["status"] = "ok"
    except Exception as exc:  # noqa: BLE001 - failed cells are recorded, not fatal
        row["rse_test"] = None
        row["status"] = f"error: {exc}"
    return row


def iter_ablation(dataset: ForecastDataset, arch: ModelArch, cfg: SswimConfig,
                  criteria, normalizers, neuron_counts, seeds,
                  workers: int = 1, skip_cells=None):
    """Cartesian sweep over criteria x normalizers x neuron counts x seeds.

    Yields one row dict per run as soon as its cell finishes (in completion
    order when ``workers > 1``). Failed cells are flagged in their row and
    do not abort the sweep. ``skip_cells`` may hold already-completed
    (criterion, normalizer, neurons, seed) tuples (resume support).
    """
    skip_cells = set(skip_cells or ())
    jobs = []
    for criterion in criteria:
        for normalizer in normalizers:
            for neurons in neuron_counts:
                for seed in seeds:
                    key = (criterion, normalizer, int(neurons), int(seed))
                    if key not in skip_cells:
                        jobs.append((dataset, arch, cfg, criterion, normalizer,
                                     int(neurons), int(seed)))
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=share_cpus,
                                 initargs=(workers,)) as pool:
            futures = [pool.submit(_ablation_cell, job) for job in jobs]
            try:
                for future in as_completed(futures):
                    yield future.result()
            finally:
                # a consumer that stops early leaves no queued cell to run
                for future in futures:
                    future.cancel()
    else:
        for job in jobs:
            yield _ablation_cell(job)


def aggregate_ablation(rows) -> list:
    """Mean row per (criterion, normalizer, neurons) cell over succeeded seeds."""
    cells = {}
    for row in rows:
        if row["seed"] == "mean":
            continue
        key = (row["criterion"], row["normalizer"], row["neurons"])
        cells.setdefault(key, []).append(row)
    out = []
    for key in sorted(cells):
        values = [r["rse_test"] for r in cells[key] if r["status"] == "ok"]
        out.append({
            "criterion": key[0],
            "normalizer": key[1],
            "neurons": key[2],
            "seed": "mean",
            "rse_test": float(np.mean(values)) if values else None,
            "status": "ok" if len(values) == len(cells[key]) else
            f"{len(cells[key]) - len(values)} failed",
        })
    return out


def serialize_model_bytes(model: SnnModel) -> bytes:
    """Canonical JSON bytes of a model (used for determinism checks)."""
    return json.dumps(model_to_dict(model), indent=1).encode()
