"""End-to-end training driver and the ablation sweep runner.

The pipeline draws an initialization batch uniformly from the training
windows, optionally selects distance functions by the entropy criterion,
builds the hidden layers, then identifies output delays, searches kernel
supports, and solves the regularized output weights on the full training
split with the regularization strength validated on the validation split.
Everything is deterministic given the seed.
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
    pair_probabilities,
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


def _pad_inputs(inputs: np.ndarray, total_steps: int) -> np.ndarray:
    """Zero-pad (samples, channels, obs) inputs to the full grid."""
    padded = np.zeros(inputs.shape[:2] + (total_steps,))
    padded[:, :, : inputs.shape[2]] = inputs
    return padded


def _candidate_metrics(cfg: SswimConfig, lift: VanRossumLift | None):
    cands_in = [Pseudometric(EmbeddingSpec.parse(c), lift) for c in cfg.metric_candidates]
    cands_out = [Pseudometric(EmbeddingSpec.parse(c)) for c in cfg.metric_candidates]
    return cands_in, cands_out


def _collect_split_spikes(layers, dataset: ForecastDataset, starts,
                          batch_size: int, total_steps: int) -> list:
    """Simulate the hidden stack over a split once; cache (mask, targets)
    per batch so the normal equations, diagnostics and predictions all
    reuse the same spikes."""
    cached = []
    for lo in range(0, len(starts), batch_size):
        chunk = starts[lo: lo + batch_size]
        dense = _pad_inputs(dataset.input_batch(chunk), total_steps)
        masks = simulate_hidden_stack(layers, dense, batch_size)[-1]
        cached.append((masks, dataset.target_batch(chunk)))
    return cached


def predict_batch(model: SnnModel, inputs: np.ndarray,
                  batch_size: int = 256) -> np.ndarray:
    """The forward pass: predictions (samples, d_out, horizon) on the
    forecast window for raw (samples, d_in, steps) observation windows,
    zero-padded to the model's grid."""
    grid = model.grid
    preds = []
    for lo in range(0, inputs.shape[0], batch_size):
        dense = _pad_inputs(inputs[lo: lo + batch_size], grid.total_steps)
        masks = simulate_hidden_stack(model.layers[:-1], dense, batch_size)
        spikes = masks[-1] if masks else dense
        preds.append(output_voltages_batch(model.layers[-1], spikes, grid.window))
    return np.concatenate(preds, axis=0)


def evaluate_split(model: SnnModel, dataset: ForecastDataset, split: str,
                   batch_size: int = 256) -> float:
    starts = dataset.starts[split]
    if len(starts) == 0:
        raise ValueError(f"split {split!r} has no windows")
    preds = predict_batch(model, dataset.input_batch(starts), batch_size)
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
        latents = _pad_inputs(dataset.input_batch(xi_starts), total_steps)
        targets_xi = dataset.target_batch(xi_starts)
        for layer_index, n_neurons in enumerate(arch.hidden, start=1):
            lift = None
            if layer_index > 1:
                latents = masks_xi.astype(float)
                lift = VanRossumLift(
                    hidden_pspk,
                    cfg.sigma_min if cfg.lift_support is None else cfg.lift_support,
                )
            if cfg.weight_criterion == "random":
                # weights ignore the pair distribution; no metric is consulted
                pairs, names = None, ("none", "none")
            else:
                if cfg.metric_mode == "entropy":
                    cands_in, cands_out = _candidate_metrics(cfg, lift)
                    d_in_metric, d_out_metric, pairs = select_metrics(
                        latents, targets_xi, cands_in, cands_out,
                        eps=cfg.epsilon, min_norm=cfg.min_norm, min_entropy=cfg.min_entropy,
                    )
                else:
                    d_in_metric = Pseudometric(EmbeddingSpec.parse(cfg.metric_in), lift)
                    d_out_metric = Pseudometric(EmbeddingSpec.parse(cfg.metric_out))
                    pairs = pair_probabilities(
                        latents, targets_xi, d_in_metric, d_out_metric,
                        eps=cfg.epsilon, min_norm=cfg.min_norm,
                    )
                names = (d_in_metric.name, d_out_metric.name)
            if layer_index == 1:
                report.metric_in, report.metric_out = names
            layer, _ = build_hidden_layer(
                layer_index, n_layers, n_neurons, hidden_pspk, hidden_rfk,
                latents, obs_len, horizon, pairs, cfg, rng_layers,
                chunk=cfg.batch_size,
            )
            hidden_layers.append(layer)
            masks_xi = simulate_hidden_stack([layer], latents, cfg.batch_size)[0]
        del latents   # the last layer's float input: dead from here on
        report.spike_counts = masks_xi.sum(axis=(0, 2)).astype(np.int64)

    with _phase("delays", timings):
        delays = estimate_delays(masks_xi, targets_xi, output_pspk, cfg.delay_aggregation)

    with _phase("supports", timings):
        supports = select_supports(
            masks_xi, targets_xi, delays, cfg.support_grid(horizon), output_pspk
        )

    with _phase("weights", timings):
        train_cache = _collect_split_spikes(
            hidden_layers, dataset, train_starts, cfg.batch_size, total_steps
        )
        train_ne = accumulate_normal_equations(
            iter(train_cache), delays.per_neuron, supports, output_pspk
        )
        valid_starts = dataset.starts["valid"]
        lambda_source = "valid"
        if len(valid_starts) == 0:
            valid_cache = train_cache
            lambda_source = "train"
        else:
            valid_cache = _collect_split_spikes(
                hidden_layers, dataset, valid_starts, cfg.batch_size, total_steps
            )
        valid_ne = accumulate_normal_equations(
            iter(valid_cache), delays.per_neuron, supports, output_pspk
        )
        lams = lambda_grid(cfg.lambda_count, cfg.lambda_min, cfg.lambda_max)
        weights, bias, chosen = solve_with_lambda_search(train_ne, valid_ne, lams)
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
        counts_sq = np.concatenate([m.sum(axis=2) for m, _ in train_cache], axis=0)
        for i in range(d_out):
            acc, _ = train_ne.accumulator_for(i)
            taps = out_layer.placed_kernel(i).taps(total_steps)
            report.condition_bounds.append(
                condition_bound_diagnostic(
                    acc, report.chosen_lambda[i], counts_sq,
                    horizon, float(np.sum(taps**2)),
                )
            )
        model.metadata["condition_bounds"] = [float(b) for b in report.condition_bounds]
        for split, cache in (("train", train_cache),
                             ("valid", valid_cache if lambda_source == "valid" else [])):
            if cache:
                preds = np.concatenate(
                    [output_voltages_batch(out_layer, m, model.grid.window) for m, _ in cache]
                )
                targets = np.concatenate([t for _, t in cache])
                report.rse[split] = rse(preds, targets)
        if len(dataset.starts["test"]):
            report.rse["test"] = evaluate_split(model, dataset, "test", cfg.batch_size)

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
