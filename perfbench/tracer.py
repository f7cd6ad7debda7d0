"""Span tracing of sswim's public functions, installed from the outside.

The tracer replaces each traced function in every ``sswim`` module that
holds a reference to it (``train``, ``hidden``, ``output`` and ``sampling``
import names from ``network`` and ``sampling``), and each traced method on
its class. ``restore`` puts the original objects back and checks by
identity that every attribute holds its original again. Spans stay in
memory; ``metrics`` and ``dump`` read them after the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute path) of every traced callable; the metric prefix is
# "<module>.<attribute path>".
TRACED = (
    ("network", "hidden_drive_batch"),
    ("network", "simulate_hidden_batch"),
    ("network", "causal_conv_matrix"),
    ("network", "output_voltages_batch"),
    ("network", "save_model"),
    ("network", "load_model"),
    ("sampling", "select_metrics"),
    ("sampling", "Pseudometric.pairwise"),
    ("sampling", "pair_probabilities"),
    ("sampling", "sample_pair"),
    ("hidden", "build_hidden_layer"),
    ("hidden", "weight_dot"),
    ("signals", "SpikeTrainSet.from_dense"),
    ("signals", "SpikeTrainSet.to_dense"),
    ("output", "estimate_delays"),
    ("output", "select_supports"),
    ("output", "assemble_design"),
    ("output", "projection_residuals"),
    ("output", "accumulate_normal_equations"),
    ("output", "GramAccumulator.add_block"),
    ("output", "solve_with_lambda_search"),
    ("datasets", "synth_dataset"),
    ("datasets", "make_windows"),
    ("train", "train_sswim"),
    ("train", "predict_batch"),
)

PHASES = ("hidden_build", "delays", "supports", "weights", "eval")

# Spans of these names are the roots that module shares are measured against.
TRAIN_ROOT = "train.train_sswim"
PREDICT_ROOT = "train.predict_batch"


def metric_spec() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for module, attr in TRACED:
        spec.append((f"{module}.{attr}.s", "s", "lower"))
        spec.append((f"{module}.{attr}.calls", "count", "lower"))
    spec += [
        ("network.neuron_steps", "count", "lower"),
        ("network.neuron_steps_per_s", "1/s", "higher"),
        ("hidden.neurons", "count", "lower"),
        ("hidden.draws_per_neuron", "ratio", "lower"),
        ("output.assemble_design.bytes", "B", "lower"),
        ("output.projection_residuals.gflop", "GFLOP", "lower"),
    ]
    spec += [(f"phase.{p}_s", "s", "lower") for p in PHASES]
    spec += [
        ("phase.unaccounted_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return spec


def _sswim_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sswim" or name.startswith("sswim."))]


class Tracer:
    """Records a span (name, start, end, parent, hidden layer) per call."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, layer]
        self.counters = {
            "network.neuron_steps": 0,
            "hidden.neurons": 0,
            "output.assemble_design.bytes": 0,
            "output.projection_residuals.gflop": 0.0,
        }
        self._stack = []
        self._patched = []       # (owner, attribute name, original object)
        self._layer_of = {}      # id(LayerParams) -> 1-based hidden layer index
        self._select_calls = 0   # select_metrics calls in the current training

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = _sswim_modules()
        for module, attr in TRACED:
            key = f"{module}.{attr}"
            owner = sys.modules[f"sswim.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                if isinstance(orig, classmethod):
                    wrapped = classmethod(self._wrap(key, orig.__func__))
                else:
                    wrapped = self._wrap(key, orig)
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, wrapped)
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(key, orig)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, name, orig))
                        setattr(mod, name, wrapped)

    def restore(self) -> list:
        """Put every original back; returns the attributes that failed the
        identity check (empty when all were restored)."""
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        bad = [f"{getattr(owner, '__name__', owner)}.{name}"
               for owner, name, orig in self._patched
               if vars(owner).get(name) is not orig]
        self._patched = []
        return bad

    # -- recording ----------------------------------------------------------

    def _wrap(self, key, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(key, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._count(key, args, result)
            return result

        return traced

    def _open(self, key, args) -> int:
        parent = self._stack[-1] if self._stack else None
        layer = self.spans[parent][4] if parent is not None else None
        if key == TRAIN_ROOT:
            self._select_calls = 0
        elif key == "sampling.select_metrics":
            # entropy mode selects metrics once per hidden layer, in order
            self._select_calls += 1
            layer = self._select_calls
        elif key == "hidden.build_hidden_layer":
            layer = args[0]
        elif key in ("network.simulate_hidden_batch", "network.hidden_drive_batch"):
            layer = self._layer_of.get(id(args[0]), layer)
        elif key == PREDICT_ROOT:
            for i, lay in enumerate(args[0].layers[:-1], start=1):
                self._layer_of[id(lay)] = i
        idx = len(self.spans)
        self.spans.append([key, time.perf_counter(), None, parent, layer])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _count(self, key, args, result) -> None:
        c = self.counters
        if key == "network.simulate_hidden_batch":
            layer, dense_in = args[0], args[1]
            c["network.neuron_steps"] += dense_in.shape[0] * layer.n_neurons * dense_in.shape[-1]
        elif key == "hidden.build_hidden_layer":
            c["hidden.neurons"] += args[2]
            self._layer_of[id(result[0])] = args[0]
        elif key == "output.assemble_design":
            c["output.assemble_design.bytes"] += result.nbytes
        elif key == "output.projection_residuals":
            # flops of a Householder QR of an m x n design, computed from its shape
            m, n = args[0].shape
            c["output.projection_residuals.gflop"] += (2.0 * m * n * n - 2.0 * n ** 3 / 3.0) / 1e9

    # -- reading ------------------------------------------------------------

    def self_times(self) -> list:
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def metrics(self, timings: dict, total_seconds: float, overhead_ratio: float) -> dict:
        """Every per-layer metric as {name: (value, unit)}."""
        own = self.self_times()
        secs = {f"{m}.{a}": 0.0 for m, a in TRACED}
        calls = dict.fromkeys(secs, 0)
        sim_inclusive = 0.0
        for (key, start, end, _, _), t in zip(self.spans, own):
            secs[key] += t
            calls[key] += 1
            if key == "network.simulate_hidden_batch":
                sim_inclusive += end - start
        values = {}
        for key in secs:
            values[f"{key}.s"] = secs[key]
            values[f"{key}.calls"] = calls[key]
        c = self.counters
        values.update(c)
        values["network.neuron_steps_per_s"] = (
            c["network.neuron_steps"] / sim_inclusive if sim_inclusive > 0 else 0.0
        )
        neurons = c["hidden.neurons"]
        values["hidden.draws_per_neuron"] = (
            calls["sampling.sample_pair"] / neurons if neurons else 0.0
        )
        for p in PHASES:
            values[f"phase.{p}_s"] = timings[p]
        values["phase.unaccounted_s"] = total_seconds - sum(timings[p] for p in PHASES)
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: (values[name], unit) for name, unit, _ in metric_spec()}

    def by_layer(self) -> dict:
        """Self seconds per '<function>@L<layer>' for spans inside a hidden layer."""
        out = {}
        for (key, _, _, _, layer), t in zip(self.spans, self.self_times()):
            if layer is not None:
                name = f"{key}@L{layer}"
                out[name] = out.get(name, 0.0) + t
        return dict(sorted(out.items()))

    def shares(self) -> dict:
        """Self-time share of each module under the training and predict roots."""
        own = self.self_times()
        root_of = []
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            root_of.append(i if parent is None else root_of[parent])
        totals, parts = {}, {}
        for i, (key, start, end, _, _) in enumerate(self.spans):
            kind = self.spans[root_of[i]][0]
            if kind not in (TRAIN_ROOT, PREDICT_ROOT):
                continue
            if root_of[i] == i:
                totals[kind] = totals.get(kind, 0.0) + end - start
            per_module = parts.setdefault(kind, {})
            module = key.split(".")[0]
            per_module[module] = per_module.get(module, 0.0) + own[i]
        return {kind.split(".")[1]: {m: v / totals[kind] for m, v in sorted(p.items())}
                for kind, p in parts.items()}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "layer"],
                       "spans": self.spans}, fh)
