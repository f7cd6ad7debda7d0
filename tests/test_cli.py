import contextlib
import copy
import csv
import io
import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from sswim.cli import main
from sswim.config import AblationConfig, DatasetConfig, ModelArch, RunConfig, SswimConfig
from sswim.errors import DegenerateDistributionError

CONFIG = """\
dataset:
  synth: {{kind: multisine, variables: 2, steps: 420, seed: 7}}
  observation: 24
  horizon: 8
architecture:
  hidden: [20]
  pspk: hat
sswim:
  subbatch: 60
  sigma_min: 3.0
  sigma_max: 12.0
  sigma_cycle: 5
  support_count: 8
  lambda_count: 6
run:
  seeds: {seeds}
  out_dir: {out}
"""


def write_config(tmp_path, seeds="[1]", extra="", name="run.yaml"):
    out = tmp_path / "results"
    text = CONFIG.format(seeds=seeds, out=out) + extra
    path = tmp_path / name
    path.write_text(text)
    return path, out


def with_value(text, section, line):
    """Set one key of a top-level section of a config text."""
    key = line.split(":")[0]
    kept = [ln for ln in text.splitlines() if not ln.startswith(f"  {key}:")]
    at = kept.index(f"{section}:") + 1
    return "\n".join(kept[:at] + [f"  {line}"] + kept[at:]) + "\n"


# (section, line, a fragment the config error must contain)
BAD_VALUES = [
    ("sswim", "mu_target: 1.0", "mu_target"),
    ("sswim", "std_target: 0.0", "std_target"),
    ("sswim", "z_target: -1.0", "z_target"),
    ("sswim", "sigma_min: 0.0", "sigma_min"),
    ("sswim", "sigma_max: 2.0", "sigma_max"),
    ("sswim", "sigma_cycle: 1", "sigma_cycle"),
    ("sswim", "support_count: 1", "support grid"),
    ("sswim", "support_alpha: 0.5", "support grid"),
    ("sswim", "support_min: 16.0", "support grid"),   # the default support_max is 2 * 8
    ("sswim", "support_max: 0.5", "support grid"),
    ("sswim", "lambda_count: 0", "lambda grid"),
    ("sswim", "lambda_min: 0.0", "lambda grid"),
    ("sswim", "lambda_max: 1.0e-6", "lambda grid"),
    ("sswim", "batch_size: 256", "batch_size"),   # a removed key: unknown
    ("sswim", "max_retries: -1", "max_retries"),
    ("sswim", "epsilon: 0.0", "epsilon"),
    ("sswim", "sc_epsilon: -1.0", "sc_epsilon"),
    ("sswim", "min_norm: -1.0e-6", "min_norm"),
    ("sswim", "min_norm: .nan", "min_norm"),
    ("sswim", "metric_candidates: []", "metric_candidates"),
    ("sswim", "metric_candidates: [l2, bogus]", "metric_candidates"),
    ("sswim", "subbatch: 50.5", "subbatch"),
    ("sswim", "sigma_cycle: 3.5", "sigma_cycle"),
    ("sswim", "support_count: 2.5", "support_count"),
    ("sswim", "lambda_count: 6.0", "lambda_count"),
    ("sswim", "max_retries: 1.5", "max_retries"),
    ("sswim", "max_retries: true", "max_retries"),
    ("sswim", "lift_support: -1.0", "lift_support"),
    ("sswim", "lift_support: 0", "lift_support"),
    ("sswim", "lift_support: .inf", "lift_support"),
    ("sswim", "support_max: 0", "support grid"),
    ("dataset", "stride: 0", "stride"),
    ("dataset", "observation: 32.5", "observation"),
    ("dataset", "observation: .nan", "observation"),
    ("dataset", "horizon: 8.0", "horizon"),
    ("dataset", "stride: 1.5", "stride"),
    ("dataset", "synth: {kind: multisine, variables: 2, steps: 400.5, seed: 7}", "steps"),
    ("dataset", "synth: {kind: multisine, variables: 2.5, steps: 420, seed: 7}", "variables"),
    ("dataset", "synth: {kind: multisine, variables: 2, steps: 420, seed: 1.5}", "seed"),
    ("dataset", "ratios: [0.5, 0.5, 0.5]", "ratios"),
    ("dataset", "synth: {kind: bogus, variables: 2, steps: 420, seed: 7}", "kind"),
    ("dataset", "synth: {kind: multisine, variables: 0, steps: 420, seed: 7}", "variables"),
    ("dataset", "synth: {kind: multisine, variables: 2, steps: 31, seed: 7}", "steps"),
    ("dataset", "synth: {kind: multisine, variables: 2, steps: 420, noise_sigma: -1.0}",
     "noise_sigma"),
    ("dataset", "synth: {kind: multisine, variables: 2, steps: 420, noise_sigma: .inf}",
     "noise_sigma"),
    ("run", "seeds: 5", "seeds"),
    ("run", "seeds: [a]", "seeds"),
    ("run", "seeds: [1, true]", "seeds"),
    ("run", "seeds: [1.5]", "seeds"),
    ("run", "seeds: []", "seeds"),
    ("run", "threads: abc", "threads"),
    ("run", "threads: 0", "threads"),
    ("run", "threads: -2", "threads"),
    ("run", "threads: true", "threads"),
    ("run", "seeds: [-3]", "seeds"),
    ("run", "seeds: [2, -1]", "seeds"),
    ("run", "out_dir: 5", "out_dir"),
    ("sswim", "metric_candidates: l2", "metric_candidates must be a list"),
    ("sswim", "weight_criterion: 5", "weight_criterion"),
    ("dataset", "ratios: [a, 0.2, 0.1]", "ratios"),
    ("dataset", "ratios: [true, 0, 0]", "ratios"),
    ("architecture", "hidden: [10.7]", "hidden"),
    ("architecture", "hidden: [20, true]", "hidden"),
    ("architecture", 'hidden: ["3"]', "hidden"),
    ("architecture", "hidden: [0]", "hidden"),
    ("dataset", "synth: 5", "dataset.synth must be a mapping"),
]

# (section, a value that is not a mapping): the config error must name the section
NON_MAPPING_SECTIONS = [
    ("sswim", 5),
    ("sswim", None),
    ("dataset", 5),
    ("architecture", [20]),
    ("run", [1]),
    ("ablation", 5),
]

# one non-finite value per float field of SswimConfig
NON_FINITE = [
    "sigma_min: .nan",
    "sigma_max: .inf",
    "mu_target: -.inf",
    "std_target: .inf",
    "z_target: .inf",
    "epsilon: .inf",
    "min_norm: .inf",
    "sc_epsilon: .nan",
    "min_entropy: .nan",
    "lift_support: .nan",
    "support_min: .nan",
    "support_max: .inf",
    "support_alpha: .inf",
    "lambda_min: .nan",
    "lambda_max: .inf",
]

# (sswim lines, the key the config error must name, the spectrum's length) on
# a 4-step horizon, which leaves no room for the default candidates' band:1:8
BANDS_PAST_THE_SPECTRUM = [
    ([], "metric_candidates", 4),
    (["weight_criterion: dist"], "metric_candidates", 4),
    (["metric_mode: fixed", "metric_out: band:1:8"], "metric_out", 4),
    (["metric_mode: fixed", "metric_in: band:1:30"], "metric_in", 28),   # 24 + 4 steps
]

ABLATION = "ablation:\n  criteria: [dot]\n  normalizers: [ms]\n  neuron_counts: [12]\n"

# (ablation line, a fragment the config error must contain)
BAD_ABLATIONS = [
    ("criteria: [dot, bogus]", "criteria"),
    ("normalizers: [ms, zz]", "normalizers"),
    ("neuron_counts: [12, 0]", "neuron_counts"),
    ("criteria: []", "criteria"),
    ("normalizers: []", "normalizers"),
    ("neuron_counts: []", "neuron_counts"),
    ("neuron_counts: [10.7]", "neuron_counts"),
    ("neuron_counts: [12, true]", "neuron_counts"),
    ('neuron_counts: ["3"]', "neuron_counts"),
]


# the (section, key, annotation) of every config field; the dataset's
# synth_* fields are set through its synth block, without the prefix
SYNTH_KEYS = {"synth_kind": "kind", "variables": "variables", "steps": "steps",
              "synth_seed": "seed", "noise_sigma": "noise_sigma"}
CONFIG_FIELDS = (
    [("dataset.synth" if f.name in SYNTH_KEYS else "dataset", SYNTH_KEYS.get(f.name, f.name),
      f.type) for f in fields(DatasetConfig)]
    + [("architecture", f.name, f.type) for f in fields(ModelArch)]
    + [("sswim", f.name, f.type) for f in fields(SswimConfig)]
    + [("run", f.name, f.type) for f in fields(RunConfig) if f.name in ("seeds", "out_dir", "threads")]
    + [("ablation", f.name, f.type) for f in fields(AblationConfig)]
)

VALID_DOC = yaml.safe_load(CONFIG.format(seeds="[1]", out="results") + ABLATION)


def wrong_values(annotation):
    """Values of every type ``annotation`` rejects: a float for an int, a
    bool, a string, a number for a string or a list, a list, NaN or inf."""
    kind = annotation.removesuffix(" | None")
    wrong = [st.booleans(), st.just(math.nan), st.sampled_from([math.inf, -math.inf])]
    if kind != "str":
        wrong.append(st.text(max_size=6))
    if not kind.startswith("tuple"):
        wrong.append(st.lists(st.integers(0, 9), max_size=3))
    if kind == "int":
        wrong.append(st.floats(allow_nan=False, allow_infinity=False))
    if kind == "str" or kind.startswith("tuple"):
        wrong.append(st.integers() | st.floats(allow_nan=False, allow_infinity=False))
    return st.one_of(wrong)


class TestTrainCommand:
    @pytest.mark.parametrize("section, key, annotation", CONFIG_FIELDS,
                             ids=[f"{section}.{key}" for section, key, _ in CONFIG_FIELDS])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_wrong_typed_value_exits_two_naming_the_key(self, section, key, annotation, data):
        value = data.draw(wrong_values(annotation), label=f"{section}.{key}")
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp) / "run.yaml", Path(tmp) / "results"
            doc = copy.deepcopy(VALID_DOC)
            doc["run"]["out_dir"] = str(out)
            target = doc["dataset"]["synth"] if section == "dataset.synth" else doc[section]
            target[key] = value
            path.write_text(yaml.safe_dump(doc))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(["train", "--config", str(path)]) == 2
            assert key in err.getvalue()
            assert not out.exists()
            assert [p.name for p in Path(tmp).iterdir()] == [path.name]

    def test_minimal_synth_run(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        assert (out / "model_seed1.json").exists()
        assert (out / "report_seed1.txt").exists()
        assert (out / "predictions_seed1.csv").exists()
        assert "rse_test" in capsys.readouterr().out

    def test_multiple_seeds_write_suffixed_models(self, tmp_path):
        cfg, out = write_config(tmp_path, seeds="[1, 2, 3]")
        assert main(["train", "--config", str(cfg)]) == 0
        for seed in (1, 2, 3):
            assert (out / f"model_seed{seed}.json").exists()

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.yaml"
        assert main(["train", "--config", str(missing)]) == 2
        assert "config" in capsys.readouterr().err

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path, extra="  typo_key: 3\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "typo_key" in capsys.readouterr().err

    def test_missing_csv_path_named_in_error(self, tmp_path, capsys):
        path = tmp_path / "run.yaml"
        path.write_text(
            "dataset:\n  csv: /does/not/exist.csv\n  observation: 24\n  horizon: 8\n"
        )
        assert main(["train", "--config", str(path)]) == 2
        assert "exist.csv" in capsys.readouterr().err

    def test_non_string_csv_path_is_config_error(self, tmp_path, capsys, monkeypatch):
        # 1 would name a file descriptor to os.path.exists and open
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "run.yaml"
        path.write_text("dataset:\n  csv: 1\n  observation: 24\n  horizon: 8\n")
        assert main(["train", "--config", str(path)]) == 2
        assert "csv must be a string" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.yaml"]

    @pytest.mark.parametrize("seed", ["-2", "abc", "1.5"])
    def test_bad_seed_flag_exits_two_before_any_output(self, tmp_path, capsys, seed):
        path, out = write_config(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["train", "--config", str(path), "--seed", seed])
        assert info.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, line, named", BAD_VALUES,
                             ids=[line for _, line, _ in BAD_VALUES])
    def test_bad_value_exits_two_before_any_output(self, tmp_path, capsys, section, line,
                                                   named):
        path, out = write_config(tmp_path)
        path.write_text(with_value(path.read_text(), section, line))
        assert main(["train", "--config", str(path)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, value", NON_MAPPING_SECTIONS,
                             ids=[f"{name}: {value}" for name, value in NON_MAPPING_SECTIONS])
    def test_non_mapping_section_exits_two_before_any_output(self, tmp_path, capsys,
                                                             section, value):
        path, out = write_config(tmp_path)
        doc = yaml.safe_load(path.read_text())
        doc[section] = value
        path.write_text(yaml.safe_dump(doc))
        assert main(["train", "--config", str(path)]) == 2
        assert f"{section} must be a mapping" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", NON_FINITE)
    def test_non_finite_value_exits_two_before_any_output(self, tmp_path, capsys, line):
        path, out = write_config(tmp_path)
        path.write_text(with_value(path.read_text(), "sswim", line))
        assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{line.split(':')[0]} must be a finite number" in err
        assert not out.exists()

    def test_every_float_field_has_a_non_finite_case(self):
        floats = {f.name for f in fields(SswimConfig) if f.type.startswith("float")}
        assert floats == {line.split(":")[0] for line in NON_FINITE}

    @pytest.mark.parametrize("lines, named, bins", BANDS_PAST_THE_SPECTRUM,
                             ids=[named for _, named, _ in BANDS_PAST_THE_SPECTRUM])
    def test_band_past_its_spectrum_exits_two_before_any_output(self, tmp_path, capsys,
                                                                lines, named, bins):
        path, out = write_config(tmp_path)
        text = with_value(path.read_text(), "dataset", "horizon: 4")
        for line in lines:
            text = with_value(text, "sswim", line)
        path.write_text(text)
        assert main(["train", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert named in err and f"exceed the {bins}-bin spectrum" in err
        assert not out.exists()

    def test_band_check_covers_the_ablation_criteria(self, tmp_path, capsys):
        path, out = write_config(tmp_path, extra=ABLATION)
        text = with_value(path.read_text(), "dataset", "horizon: 4")
        text = with_value(text, "sswim", "weight_criterion: random")
        path.write_text(with_value(text, "ablation", "criteria: [random, dot]"))
        assert main(["ablate", "--config", str(path)]) == 2
        assert "metric_candidates" in capsys.readouterr().err
        assert not out.exists()

    def test_random_criterion_skips_the_band_check(self, tmp_path):
        path, out = write_config(tmp_path)
        text = with_value(path.read_text(), "dataset", "horizon: 4")
        path.write_text(with_value(text, "sswim", "weight_criterion: random"))
        assert main(["train", "--config", str(path)]) == 0
        assert (out / "model_seed1.json").exists()

    def test_constant_series_names_the_failing_layer(self, tmp_path, capsys):
        series = tmp_path / "constant.csv"
        series.write_text("a,b\n" + "1.0,2.0\n" * 420)
        path, out = write_config(tmp_path)
        text = path.read_text()
        path.write_text(text.replace(text.splitlines()[1], f"  csv: {series}"))
        assert main(["train", "--config", str(path)]) == 1
        assert "phase 'hidden_build' failed: layer 1: " in capsys.readouterr().err
        assert not out.exists()   # a failed run leaves no empty output directory

    def test_metric_selection_failure_names_its_layer(self, tmp_path, monkeypatch, capsys):
        from sswim import train

        real, calls = train.select_metrics, []

        def second_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise DegenerateDistributionError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(train, "select_metrics", second_fails)
        path, _ = write_config(tmp_path)
        path.write_text(with_value(path.read_text(), "architecture", "hidden: [20, 12]"))
        assert main(["train", "--config", str(path)]) == 1
        assert "phase 'hidden_build' failed: layer 2: injected" in capsys.readouterr().err

    def test_phase_failure_exits_one_and_names_the_phase(self, tmp_path, monkeypatch,
                                                          capsys):
        def fail(*args, **kwargs):
            raise ValueError("injected")

        monkeypatch.setattr("sswim.train.select_supports", fail)
        cfg, _ = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 1
        assert "phase 'supports' failed: injected" in capsys.readouterr().err

    def test_threads_flag_is_gone(self, tmp_path):
        cfg, _ = write_config(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["train", "--config", str(cfg), "--threads", "2"])
        assert info.value.code == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg, out = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        first = (out / "model_seed1.json").read_bytes()
        first_preds = (out / "predictions_seed1.csv").read_bytes()
        assert main(["train", "--config", str(cfg)]) == 0
        assert (out / "model_seed1.json").read_bytes() == first
        assert (out / "predictions_seed1.csv").read_bytes() == first_preds
        assert not list(out.glob("*.tmp"))

    def test_result_files_keep_the_plain_writer_bytes(self, tmp_path):
        from sswim.cli import _write_lines, _write_predictions_csv

        rng = np.random.default_rng(3)
        preds, targets = rng.normal(size=(2, 2, 3)), rng.normal(size=(2, 2, 3))
        _write_predictions_csv(tmp_path / "new.csv", [5, 9], preds, targets)
        with open(tmp_path / "old.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["window_start", "channel", "step", "prediction", "target"])
            for w, start in enumerate([5, 9]):
                for c in range(2):
                    for h in range(3):
                        writer.writerow([start, c, h, repr(preds[w, c, h]),
                                         repr(targets[w, c, h])])
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert new.count(b"\r\n") == 1 + 2 * 2 * 3
        _write_lines(tmp_path / "report.txt", ["seed=1", "rse_test=0.5"])
        assert (tmp_path / "report.txt").read_bytes() == b"seed=1\nrse_test=0.5\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_out_env_var_overrides(self, tmp_path, monkeypatch):
        cfg, _ = write_config(tmp_path)
        env_out = tmp_path / "env_results"
        monkeypatch.setenv("SSWIM_OUT", str(env_out))
        assert main(["train", "--config", str(cfg)]) == 0
        assert (env_out / "model_seed1.json").exists()


class TestEvalCommand:
    def test_eval_reproduces_training_rse(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        report = (out / "report_seed1.txt").read_text()
        trained = {
            line.split("=")[0]: line.split("=")[1]
            for line in report.strip().splitlines()
        }
        capsys.readouterr()
        assert main(["eval", "--model", str(out / "model_seed1.json"),
                     "--config", str(cfg), "--split", "test"]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("split=test rse=")
        evaluated = float(line.split("rse=")[1])
        assert evaluated == pytest.approx(float(trained["rse_test"]), abs=1e-12)

    def test_wrong_variable_count_exits_one(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        other = tmp_path / "other.yaml"
        other.write_text(
            "dataset:\n  synth: {kind: multisine, variables: 3, steps: 420, seed: 7}\n"
            "  observation: 24\n  horizon: 8\n"
        )
        assert main(["eval", "--model", str(out / "model_seed1.json"),
                     "--config", str(other)]) == 1


class TestAblateCommand:
    @pytest.mark.parametrize("line, named", BAD_ABLATIONS,
                             ids=[line for line, _ in BAD_ABLATIONS])
    def test_bad_ablation_exits_two_before_any_output(self, tmp_path, capsys, line, named):
        path, out = write_config(tmp_path, extra=ABLATION)
        path.write_text(with_value(path.read_text(), "ablation", line))
        assert main(["ablate", "--config", str(path)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-1", "abc"])
    def test_bad_threads_flag_exits_two_before_any_output(self, tmp_path, capsys, threads):
        path, out = write_config(tmp_path, extra=ABLATION)
        with pytest.raises(SystemExit) as info:
            main(["ablate", "--config", str(path), "--threads", threads])
        assert info.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    def test_single_cell_sweep(self, tmp_path):
        extra = "ablation:\n  criteria: [dot]\n  normalizers: [ms]\n  neuron_counts: [15]\n"
        cfg, out = write_config(tmp_path, extra=extra)
        assert main(["ablate", "--config", str(cfg)]) == 0
        with open(out / "ablation.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["criterion", "normalizer", "neurons", "seed", "rse_test", "status"]
        assert len(rows) == 3  # one run row + one mean row
        assert rows[1][5] == "ok"

    def test_two_criteria_grid(self, tmp_path):
        extra = "ablation:\n  criteria: [dot, random]\n  normalizers: [ms]\n  neuron_counts: [12]\n"
        cfg, out = write_config(tmp_path, seeds="[1, 2]", extra=extra)
        assert main(["ablate", "--config", str(cfg)]) == 0
        with open(out / "ablation.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        run_rows = [r for r in rows if r[3] != "mean"]
        assert len(run_rows) == 4

    def test_resume_skips_completed_cells(self, tmp_path):
        extra = "ablation:\n  criteria: [dot]\n  normalizers: [ms]\n  neuron_counts: [12]\n"
        cfg, out = write_config(tmp_path, seeds="[1, 2]", extra=extra)
        assert main(["ablate", "--config", str(cfg)]) == 0
        manifest = out / "ablation_manifest.json"
        stamp = manifest.read_text()
        # rerun: nothing new to compute, manifest content unchanged
        assert main(["ablate", "--config", str(cfg)]) == 0
        assert manifest.read_text() == stamp

    def test_pool_sweep_matches_serial_sweep(self, tmp_path):
        extra = "ablation:\n  criteria: [dot, random]\n  normalizers: [ms]\n  neuron_counts: [12]\n"
        cfg, _ = write_config(tmp_path, seeds="[1, 2]", extra=extra)
        for name, threads in (("serial", "1"), ("pool", "2")):
            assert main(["ablate", "--config", str(cfg), "--threads", threads,
                         "--out", str(tmp_path / name)]) == 0
        for name in ("ablation.csv", "ablation_manifest.json"):
            assert (tmp_path / "pool" / name).read_bytes() == (
                tmp_path / "serial" / name).read_bytes()

    def test_interrupted_sweep_resumes(self, tmp_path, monkeypatch):
        import sswim.train

        extra = "ablation:\n  criteria: [dot, random]\n  normalizers: [ms]\n  neuron_counts: [12]\n"
        cfg, out = write_config(tmp_path, seeds="[1, 2]", extra=extra)
        assert main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "whole")]) == 0
        whole = (tmp_path / "whole" / "ablation.csv").read_bytes()

        real_train = sswim.train.train_sswim
        calls = []

        def interrupt_third_cell(*args, **kwargs):
            calls.append(args[3])
            if len(calls) == 3:
                raise KeyboardInterrupt
            return real_train(*args, **kwargs)

        monkeypatch.setattr(sswim.train, "train_sswim", interrupt_third_cell)
        with pytest.raises(KeyboardInterrupt):
            main(["ablate", "--config", str(cfg)])
        finished = json.loads((out / "ablation_manifest.json").read_text())["rows"]
        assert [(r["criterion"], r["seed"], r["status"]) for r in finished] == [
            ("dot", 1, "ok"), ("dot", 2, "ok")]
        assert not (out / "ablation.csv").exists()
        assert [p.name for p in out.iterdir()] == ["ablation_manifest.json"]

        calls.clear()
        assert main(["ablate", "--config", str(cfg)]) == 0
        assert calls == [1, 2]   # only the two random cells ran again
        assert (out / "ablation.csv").read_bytes() == whole

    def test_rerun_on_another_grid_keeps_only_its_cells(self, tmp_path):
        grid = "ablation:\n  criteria: [dot]\n  normalizers: [ms]\n  neuron_counts: [{}]\n"
        cfg, out = write_config(tmp_path, extra=grid.format(8))
        assert main(["ablate", "--config", str(cfg)]) == 0
        cfg.write_text(cfg.read_text().replace("neuron_counts: [8]", "neuron_counts: [12]"))
        assert main(["ablate", "--config", str(cfg)]) == 0
        with open(out / "ablation.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r[2] for r in rows] == ["12", "12"]   # the run row and its mean
        manifest = json.loads((out / "ablation_manifest.json").read_text())
        assert [r["neurons"] for r in manifest["rows"]] == [8, 12]

    @pytest.mark.parametrize("line", ["subbatch: 40", "sigma_max: 10.0"])
    def test_manifest_of_other_sections_exits_two_and_is_kept(self, tmp_path, capsys, line):
        cfg, out = write_config(tmp_path, extra=ABLATION)
        assert main(["ablate", "--config", str(cfg)]) == 0
        manifest = out / "ablation_manifest.json"
        stamp = manifest.read_bytes()
        csv_stamp = (out / "ablation.csv").read_bytes()
        cfg.write_text(with_value(cfg.read_text(), "sswim", line))
        capsys.readouterr()
        assert main(["ablate", "--config", str(cfg)]) == 2
        assert str(manifest) in capsys.readouterr().err
        assert manifest.read_bytes() == stamp
        assert (out / "ablation.csv").read_bytes() == csv_stamp

    def test_manifest_in_the_old_list_form_exits_two_and_is_kept(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path, extra=ABLATION)
        out.mkdir()
        manifest = out / "ablation_manifest.json"
        old = [{"criterion": "dot", "normalizer": "ms", "neurons": 12, "seed": 1,
                "rse_test": 0.5, "status": "ok"}]
        manifest.write_text(json.dumps(old, indent=1))
        stamp = manifest.read_bytes()
        assert main(["ablate", "--config", str(cfg)]) == 2
        assert str(manifest) in capsys.readouterr().err
        assert manifest.read_bytes() == stamp
        assert not (out / "ablation.csv").exists()


class TestInspectCommand:
    @pytest.mark.parametrize("doc, named", [
        ({"format": "sswim-model-v1"}, "'grid'"),
        ([], "not a recognized model file"),
    ])
    def test_malformed_model_file_exits_one(self, tmp_path, capsys, doc, named):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["inspect", "--model", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and str(path) in err

    @pytest.mark.parametrize("doc, named", [
        ({"format": "sswim-model-v1", "grid": []}, "'grid'"),
        ({"format": "sswim-model-v1", "grid": {"dt": 1.0, "total_steps": 9, "horizon": 2},
          "layers": {}}, "'layers'"),
    ], ids=["grid-list", "layers-object"])
    def test_wrong_typed_model_field_exits_one(self, tmp_path, capsys, doc, named):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["inspect", "--model", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and str(path) in err

    def test_dump_has_layer_blocks_and_parses(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["inspect", "--model", str(out / "model_seed1.json")]) == 0
        text = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["layer", "field", "stat", "value"]
        layers = {row[0] for row in rows[1:]}
        assert layers == {"1", "2"}  # one hidden + one output block

    def test_delays_within_observation_window(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        from sswim.network import load_model

        model = load_model(out / "model_seed1.json")
        assert np.all(model.layers[-1].delay >= 0)
        assert np.all(model.layers[-1].delay < 24)
        capsys.readouterr()
