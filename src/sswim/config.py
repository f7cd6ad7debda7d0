"""Run configuration: dataclasses plus strict YAML parsing.

The config file is a nested key/value document. Unknown keys are rejected
outright so hyperparameter typos fail loudly instead of silently falling
back to defaults.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np
import yaml

from .datasets import SYNTH_KINDS, check_ratios, check_series_length
from .errors import ConfigError
from .kernels import KernelFamily
from .output import lambda_grid, support_candidates
from .sampling import EmbeddingSpec


@dataclass
class SswimConfig:
    """Every tunable of the training algorithm, with shipped defaults."""

    subbatch: int = 1000            # initialization batch size
    sigma_min: float = 5.0          # hidden support lower bound (timesteps)
    sigma_max: float = 50.0         # hidden support upper bound
    sigma_cycle: int = 10           # hidden support cycle length
    weight_criterion: str = "dot"   # dist | dot | random
    normalizer: str = "ms"          # ms | fl
    mu_target: float = 0.5
    std_target: float = 0.5
    z_target: float = 1.0
    epsilon: float = 1e-6           # sampling-ratio denominator bound
    min_norm: float = 1e-6          # per-channel minimum L2 norm filter
    sc_epsilon: float = 1e-9        # silence-correction headroom
    metric_mode: str = "entropy"    # entropy | fixed
    metric_in: str = "l2"           # used when metric_mode = fixed
    metric_out: str = "l2"
    metric_candidates: tuple = ("l2", "cos", "mag", "phase", "band:1:8")
    min_entropy: float | None = None
    lift_support: float | None = None   # defaults to sigma_min when unset
    delay_aggregation: str = "median"   # median | min
    support_min: float = 1.0
    support_max: float | None = None    # defaults to 2 * horizon when unset
    support_alpha: float = 1.5
    support_count: int = 30
    lambda_count: int = 32
    lambda_min: float = 1e-5
    lambda_max: float = 0.5
    max_retries: int = 8

    def __post_init__(self):
        _check_fields(self)
        if self.weight_criterion not in ("dist", "dot", "random"):
            raise ConfigError(f"unknown weight criterion: {self.weight_criterion!r}")
        if self.normalizer not in ("ms", "fl"):
            raise ConfigError(f"unknown normalizer: {self.normalizer!r}")
        if self.metric_mode not in ("entropy", "fixed"):
            raise ConfigError(f"unknown metric mode: {self.metric_mode!r}")
        if self.delay_aggregation not in ("median", "min"):
            raise ConfigError(f"unknown delay aggregation: {self.delay_aggregation!r}")
        if self.subbatch < 2:
            raise ConfigError("subbatch must be at least 2")
        # the rules normalize_ms, normalize_fl and temporal_assignment apply
        # mid-training, checked here so a bad value fails before any compute
        if not self.mu_target < 1.0:
            raise ConfigError("mu_target: target mean must lie below the threshold 1")
        if not self.std_target > 0.0:
            raise ConfigError("std_target: target std must be positive")
        if not self.z_target > 0.0:
            raise ConfigError("z_target: fluctuation factor z must be positive")
        if not 0.0 < self.sigma_min <= self.sigma_max:
            raise ConfigError("need 0 < sigma_min <= sigma_max")
        if self.sigma_cycle < 2:
            raise ConfigError("sigma_cycle: support cycle length must be at least 2")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be non-negative")
        for name in ("epsilon", "sc_epsilon"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        if self.min_norm < 0.0:
            raise ConfigError("min_norm must be non-negative")
        if self.lift_support is not None and self.lift_support <= 0.0:
            raise ConfigError("lift_support must be positive when set")
        if not self.metric_candidates:
            raise ConfigError("metric_candidates must not be empty")
        metrics = [("metric_candidates", c) for c in self.metric_candidates]
        metrics += [("metric_in", self.metric_in), ("metric_out", self.metric_out)]
        for name, text in metrics:
            try:
                EmbeddingSpec.parse(str(text))
            except ValueError as exc:
                raise ConfigError(f"{name}: bad metric {text!r}: {exc}") from exc
        try:
            lambda_grid(self.lambda_count, self.lambda_min, self.lambda_max)
        except ValueError as exc:
            raise ConfigError(f"bad lambda grid: {exc}") from exc

    def support_grid(self, horizon: int) -> np.ndarray:
        """Output-support candidates; ``support_max`` defaults to 2 * horizon."""
        hi = 2.0 * horizon if self.support_max is None else self.support_max
        return support_candidates(self.support_min, hi, self.support_alpha, self.support_count)


@dataclass
class ModelArch:
    """Network architecture: hidden widths and kernel family names."""

    hidden: tuple[int, ...] = (250,)
    pspk: str = "hat"
    rfk: str = "exp"
    output_pspk: str | None = None   # defaults to the hidden family

    def __post_init__(self):
        _check_fields(self)
        if not self.hidden or any(n < 1 for n in self.hidden):
            raise ConfigError("hidden layer widths must be positive")
        for name in (self.pspk, self.rfk, self.output_pspk):
            if name is not None and name not in KernelFamily._value2member_map_:
                raise ConfigError(f"unknown kernel family: {name!r}")
        if self.output_pspk is None:
            self.output_pspk = self.pspk


@dataclass
class DatasetConfig:
    csv: str | None = None
    synth_kind: str | None = None    # multisine | arnoise
    variables: int = 1
    steps: int = 0
    synth_seed: int = 0
    noise_sigma: float = 0.05
    observation: int = 0
    horizon: int = 0
    stride: int = 1
    ratios: tuple = (0.7, 0.2, 0.1)

    def __post_init__(self):
        _check_fields(self)
        if (self.csv is None) == (self.synth_kind is None):
            raise ConfigError("dataset needs exactly one of 'csv' or 'synth'")
        if self.csv is not None and not os.path.exists(self.csv):
            raise ConfigError(f"dataset csv does not exist: {self.csv}")
        if self.observation < 1 or self.horizon < 1:
            raise ConfigError("dataset needs positive 'observation' and 'horizon'")
        if self.stride < 1:
            raise ConfigError("stride must be at least 1")
        if self.synth_kind is not None:
            if self.synth_kind not in SYNTH_KINDS:
                raise ConfigError(f"unknown dataset.synth kind: {self.synth_kind!r}")
            if self.variables < 1:
                raise ConfigError("dataset.synth variables must be at least 1")
            try:
                check_series_length(self.steps, self.observation + self.horizon)
            except ValueError as exc:
                raise ConfigError(f"dataset.synth steps: {exc}") from exc
            if self.noise_sigma < 0.0:
                raise ConfigError("dataset.synth noise_sigma must be non-negative")
        if not all(_is_finite(r) for r in self.ratios):
            raise ConfigError(f"ratios must be finite numbers, not {list(self.ratios)}")
        self.ratios = tuple(float(r) for r in self.ratios)
        try:
            check_ratios(self.ratios)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass
class AblationConfig:
    criteria: tuple = ("dot",)
    normalizers: tuple = ("ms",)
    neuron_counts: tuple[int, ...] = (250,)

    def __post_init__(self):
        _check_fields(self)
        for name in ("criteria", "normalizers", "neuron_counts"):
            if not getattr(self, name):
                raise ConfigError(f"ablation {name} must not be empty")
        if min(self.neuron_counts) < 1:
            raise ConfigError("ablation neuron_counts must be at least 1")


@dataclass
class RunConfig:
    dataset: DatasetConfig = None
    arch: ModelArch = field(default_factory=ModelArch)
    sswim: SswimConfig = field(default_factory=SswimConfig)
    seeds: tuple[int, ...] = (1,)
    out_dir: str = "results"
    threads: int = 1
    ablation: AblationConfig | None = None

    def __post_init__(self):
        if self.dataset is None:
            raise ConfigError("a run config needs a 'dataset' section")
        _check_fields(self)
        if not self.seeds:
            raise ConfigError("run seeds must not be empty")
        if min(self.seeds) < 0:
            raise ConfigError(f"run seeds must be non-negative, not {list(self.seeds)}")
        if self.threads < 1:
            raise ConfigError("run threads must be at least 1")
        try:
            self.sswim.support_grid(self.dataset.horizon)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad support grid: {exc}") from exc
        if self.ablation is not None:
            # each sweep cell trains with these values; check them as SswimConfig does
            for name, key, values in (
                ("criteria", "weight_criterion", self.ablation.criteria),
                ("normalizers", "normalizer", self.ablation.normalizers),
            ):
                for value in values:
                    try:
                        replace(self.sswim, **{key: value})
                    except ConfigError as exc:
                        raise ConfigError(f"ablation {name}: {exc}") from exc
        criteria = {self.sswim.weight_criterion}
        if self.ablation is not None:
            criteria.update(self.ablation.criteria)
        if criteria != {"random"}:
            # entropy mode embeds the targets with every candidate as well
            horizon = self.dataset.horizon
            if self.sswim.metric_mode == "entropy":
                metrics = [("metric_candidates", c, horizon)
                           for c in self.sswim.metric_candidates]
            else:
                metrics = [("metric_in", self.sswim.metric_in, self.dataset.observation + horizon),
                           ("metric_out", self.sswim.metric_out, horizon)]
            for name, text, steps in metrics:
                try:
                    EmbeddingSpec.parse(str(text)).check_steps(steps)
                except ValueError as exc:
                    raise ConfigError(f"{name}: metric {text!r}: {exc}") from exc


def _check_fields(config) -> None:
    """Check each field of a config dataclass against its annotation, a
    string since annotations are postponed: ``int``, ``float`` (a finite
    number), ``str``, any of them ``| None``, ``tuple``, which takes a list,
    and ``tuple[int, ...]``, a list of integers; a tuple is stored as one.
    The class checks the other fields, and a tuple's items, itself."""
    for f in fields(config):
        value = getattr(config, f.name)
        kind = f.type.removesuffix(" | None")
        if value is None and kind != f.type:
            continue
        if kind == "int" and not _is_int(value):
            raise ConfigError(f"{f.name} must be an integer, not {value!r}")
        if kind == "float" and not _is_finite(value):
            raise ConfigError(f"{f.name} must be a finite number, not {value!r}")
        if kind == "str" and not isinstance(value, str):
            raise ConfigError(f"{f.name} must be a string, not {value!r}")
        if kind.startswith("tuple"):
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{f.name} must be a list, not {value!r}")
            if kind == "tuple[int, ...]" and not all(_is_int(n) for n in value):
                raise ConfigError(f"{f.name} must be a list of integers, not {value!r}")
            setattr(config, f.name, tuple(value))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _mapping(section, where: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping, not {section!r}")
    return section


def _check_keys(section: dict, allowed, where: str) -> None:
    unknown = set(_mapping(section, where)) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _dataclass_section(cls, section: dict, where: str):
    names = [f.name for f in fields(cls)]
    _check_keys(section, names, where)
    try:
        return cls(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where} section: {exc}") from exc


def _parse_dataset(section: dict) -> DatasetConfig:
    section = dict(_mapping(section, "dataset"))
    if "synth" in section:
        synth = section.pop("synth")
        _check_keys(synth, ("kind", "variables", "steps", "seed", "noise_sigma"), "dataset.synth")
        section["synth_kind"] = synth.get("kind")
        section["variables"] = synth.get("variables", 1)
        section["steps"] = synth.get("steps", 0)
        section["synth_seed"] = synth.get("seed", 0)
        if "noise_sigma" in synth:
            section["noise_sigma"] = synth["noise_sigma"]
    return _dataclass_section(DatasetConfig, section, "dataset")


def parse_run_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    _check_keys(doc, ("dataset", "architecture", "sswim", "run", "ablation"), "config")
    if "dataset" not in doc:
        raise ConfigError("config needs a 'dataset' section")
    dataset = _parse_dataset(doc["dataset"])
    arch = _dataclass_section(ModelArch, doc.get("architecture", {}), "architecture")
    sswim_cfg = _dataclass_section(SswimConfig, doc.get("sswim", {}), "sswim")
    run = doc.get("run", {})
    _check_keys(run, ("seeds", "out_dir", "threads"), "run")
    ablation = None
    if "ablation" in doc:
        ablation = _dataclass_section(AblationConfig, doc["ablation"], "ablation")
    return RunConfig(
        dataset=dataset,
        arch=arch,
        sswim=sswim_cfg,
        seeds=run.get("seeds", (1,)),
        out_dir=run.get("out_dir", "results"),
        threads=run.get("threads", 1),
        ablation=ablation,
    )


def load_run_config(path) -> RunConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file does not exist: {path}")
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config is not valid YAML: {exc}") from exc
    return parse_run_config(doc)
