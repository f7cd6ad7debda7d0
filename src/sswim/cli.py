"""Command-line front end: train, eval, ablate, inspect.

Exit codes are a stable contract: 0 on success, 1 on runtime failures,
2 on configuration errors. All result files are byte-deterministic given
the config and seeds; wall-clock timings go to a separate file so results
can be diffed across runs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import os
import sys

from .config import RunConfig, load_run_config
from .errors import ConfigError, SswimError
from .network import write_text_atomic

OUT_DIR_ENV = "SSWIM_OUT"


def _build_dataset(cfg: RunConfig):
    from .datasets import load_csv, make_windows, synth_dataset

    ds = cfg.dataset
    if ds.csv is not None:
        series = load_csv(ds.csv)
    else:
        series = synth_dataset(
            ds.synth_kind, ds.variables, ds.steps, ds.synth_seed, ds.noise_sigma
        )
    return make_windows(series, ds.observation, ds.horizon, ds.stride, ds.ratios)


def _resolve_out_dir(cfg_out: str, flag_out: str | None) -> str:
    """The output directory. The commands create it only when they are
    about to write to it, so a run that fails before then leaves none."""
    return flag_out or os.environ.get(OUT_DIR_ENV) or cfg_out


def _write_lines(path: str, lines) -> None:
    write_text_atomic(path, "\n".join(lines) + "\n")


def _write_predictions_csv(path: str, starts, predictions, targets) -> None:
    table = io.StringIO()
    writer = csv.writer(table)
    writer.writerow(["window_start", "channel", "step", "prediction", "target"])
    for w, start in enumerate(starts):
        for c in range(predictions.shape[1]):
            for h in range(predictions.shape[2]):
                writer.writerow(
                    [int(start), c, h, repr(predictions[w, c, h]), repr(targets[w, c, h])]
                )
    write_text_atomic(path, table.getvalue())


def cmd_train(args) -> int:
    from .network import save_model
    from .train import report_lines, timing_lines, train_sswim

    cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg.seeds = (args.seed,)
    out_dir = _resolve_out_dir(cfg.out_dir, args.out)
    dataset = _build_dataset(cfg)
    summary = []
    for seed in cfg.seeds:
        model, report = train_sswim(dataset, cfg.arch, cfg.sswim, seed)
        os.makedirs(out_dir, exist_ok=True)
        save_model(model, os.path.join(out_dir, f"model_seed{seed}.json"))
        _write_lines(os.path.join(out_dir, f"report_seed{seed}.txt"), report_lines(report))
        _write_lines(os.path.join(out_dir, f"timings_seed{seed}.txt"), timing_lines(report))
        test_starts = dataset.starts["test"]
        if len(test_starts):
            _write_predictions_csv(
                os.path.join(out_dir, f"predictions_seed{seed}.csv"),
                test_starts, report.test_predictions, dataset.target_batch(test_starts),
            )
        for line in report_lines(report):
            if line.startswith("rse_"):
                summary.append(f"seed={seed} {line}")
    print("\n".join(summary))
    return 0


def cmd_eval(args) -> int:
    from .network import load_model
    from .train import evaluate_split

    cfg = load_run_config(args.config)
    model = load_model(args.model)
    dataset = _build_dataset(cfg)
    if model.d_in != dataset.n_variables:
        print(
            f"error: model expects {model.d_in} variables, dataset has "
            f"{dataset.n_variables}",
            file=sys.stderr,
        )
        return 1
    if (model.grid.total_steps, model.grid.horizon) != (
        dataset.obs_len + dataset.horizon, dataset.horizon
    ):
        print("error: model grid does not match the dataset windows", file=sys.stderr)
        return 1
    value = evaluate_split(model, dataset, args.split)
    print(f"split={args.split} rse={value!r}")
    return 0


def _ablation_row_key(row) -> tuple:
    return (row["criterion"], row["normalizer"], int(row["neurons"]), int(row["seed"]))


def _read_manifest(path: str, sections: dict) -> list:
    """The finished rows of the manifest at ``path``, none without a file.
    A manifest of other config ``sections``, or in the old list form that
    records none, raises ConfigError naming it and is left in place."""
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        doc = json.load(fh)
    canonical = json.dumps(sections, sort_keys=True)
    if not isinstance(doc, dict) or json.dumps(doc.get("config"), sort_keys=True) != canonical:
        raise ConfigError(
            f"ablation manifest {path} was not written for these dataset, architecture "
            "and sswim sections; move it away or choose another output directory"
        )
    return doc["rows"]


def cmd_ablate(args) -> int:
    """Run the sweep, rewriting the manifest after every finished cell so an
    interrupted sweep resumes from the cells it had finished. The manifest
    keeps every row of its config sections; ``ablation.csv`` only the grid's."""
    from .train import aggregate_ablation, iter_ablation

    cfg = load_run_config(args.config)
    if cfg.ablation is None:
        raise ConfigError("config needs an 'ablation' section for the ablate command")
    out_dir = _resolve_out_dir(cfg.out_dir, args.out)
    manifest_path = os.path.join(out_dir, "ablation_manifest.json")
    sections = {"dataset": dataclasses.asdict(cfg.dataset),
                "architecture": dataclasses.asdict(cfg.arch),
                "sswim": dataclasses.asdict(cfg.sswim)}
    rows = sorted(_read_manifest(manifest_path, sections), key=_ablation_row_key)
    dataset = _build_dataset(cfg)
    done_keys = {_ablation_row_key(r) for r in rows}
    workers = cfg.threads if args.threads is None else args.threads
    grid = cfg.ablation
    os.makedirs(out_dir, exist_ok=True)
    for row in iter_ablation(
        dataset, cfg.arch, cfg.sswim, grid.criteria, grid.normalizers, grid.neuron_counts,
        cfg.seeds, workers=workers, skip_cells=done_keys,
    ):
        rows.append(row)
        rows.sort(key=_ablation_row_key)
        write_text_atomic(manifest_path,
                          json.dumps({"config": sections, "rows": rows}, indent=1))
    cells = set(itertools.product(grid.criteria, grid.normalizers, grid.neuron_counts,
                                  cfg.seeds))
    rows = [row for row in rows if _ablation_row_key(row) in cells]
    table = io.StringIO()
    writer = csv.writer(table)
    writer.writerow(["criterion", "normalizer", "neurons", "seed", "rse_test", "status"])
    for row in rows + aggregate_ablation(rows):
        value = "" if row["rse_test"] is None else repr(row["rse_test"])
        writer.writerow([row["criterion"], row["normalizer"], row["neurons"],
                         row["seed"], value, row["status"]])
    write_text_atomic(os.path.join(out_dir, "ablation.csv"), table.getvalue())
    print(f"ablation rows={len(rows)} written to {out_dir}/ablation.csv")
    return 0


def _histogram_rows(layer_no, name, values, bins=10):
    import numpy as np

    counts, edges = np.histogram(values, bins=bins)
    rows = []
    for b in range(len(counts)):
        rows.append([layer_no, f"{name}_hist", f"[{edges[b]:.4g},{edges[b + 1]:.4g})",
                     int(counts[b])])
    return rows


def cmd_inspect(args) -> int:
    from .network import load_model

    model = load_model(args.model)
    writer = csv.writer(sys.stdout)
    writer.writerow(["layer", "field", "stat", "value"])
    for layer_no, layer in enumerate(model.layers, start=1):
        writer.writerow([layer_no, "neurons", "count", layer.n_neurons])
        writer.writerow([layer_no, "kernel", "family", layer.pspk.family.value])
        for row in _histogram_rows(layer_no, "delay", layer.delay):
            writer.writerow(row)
        for row in _histogram_rows(layer_no, "support", layer.support):
            writer.writerow(row)
        if layer.is_hidden:
            writer.writerow([layer_no, "spike_cost", "min", repr(float(layer.spike_cost.min()))])
            writer.writerow([layer_no, "spike_cost", "mean", repr(float(layer.spike_cost.mean()))])
            writer.writerow([layer_no, "spike_cost", "max", repr(float(layer.spike_cost.max()))])
    for i, lam in enumerate(model.metadata.get("chosen_lambda", [])):
        writer.writerow([len(model.layers), "lambda", i, repr(lam)])
    for i, bound in enumerate(model.metadata.get("condition_bounds", [])):
        writer.writerow([len(model.layers), "condition_bound", i, repr(bound)])
    return 0


def _at_least(low: int):
    """The argparse type of an integer flag of at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer of at least {low}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sswim",
        description="Sampling-based training of spiking forecast networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one model per configured seed")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=_at_least(0), default=None, help="override the seed list")
    p_train.add_argument("--out", default=None, help="output directory override")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved model on a split")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--config", required=True, help="dataset configuration")
    p_eval.add_argument("--split", default="test", choices=("train", "valid", "test"))
    p_eval.set_defaults(func=cmd_eval)

    p_abl = sub.add_parser("ablate", help="run the configured ablation sweep")
    p_abl.add_argument("--config", required=True)
    p_abl.add_argument("--threads", type=_at_least(1), default=None)
    p_abl.add_argument("--out", default=None)
    p_abl.set_defaults(func=cmd_ablate)

    p_ins = sub.add_parser("inspect", help="dump per-layer parameter summaries as CSV")
    p_ins.add_argument("--model", required=True)
    p_ins.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SswimError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
