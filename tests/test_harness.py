import multiprocessing
import os

import numpy as np
import pytest

from sswim import network
from sswim.config import ModelArch, SswimConfig
from sswim.datasets import (
    ar_noise_series,
    load_csv,
    make_windows,
    multisine_series,
    rse,
    split_window_starts,
    synth_dataset,
)
from sswim.errors import PipelineError
from sswim.train import (
    aggregate_ablation,
    evaluate_split,
    iter_ablation,
    predict_batch,
    train_sswim,
)


class TestLoadCsv:
    def test_small_numeric_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        series = load_csv(path)
        np.testing.assert_array_equal(series, [[1, 3, 5], [2, 4, 6]])

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        series = load_csv(path)
        assert series.shape == (2, 2)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3\n5,6\n")
        with pytest.raises(ValueError, match="line 2"):
            load_csv(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\nnan,4\n")
        with pytest.raises(ValueError, match="NaN at row 2, column 1"):
            load_csv(path)
        for cell in ("inf", "-inf"):
            path.write_text(f"1,2\n3,4\n5,{cell}\n")
            with pytest.raises(ValueError, match=f"non-finite {cell} at row 3, column 2"):
                load_csv(path)

    def test_variable_count_checked(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ValueError, match="expected 3"):
            load_csv(path, variables=3)


class TestWindowing:
    def test_documented_split_counts(self):
        # 100 steps, O=12, H=6 -> 83 windows; cumulative-floor boundaries
        series = np.random.default_rng(0).normal(size=(2, 100))
        ds = make_windows(series, obs_len=12, horizon=6)
        assert sum(len(v) for v in ds.starts.values()) == 83
        assert len(ds.starts["train"]) == 58
        assert len(ds.starts["valid"]) == 16
        assert len(ds.starts["test"]) == 9

    def test_stride_gives_nonoverlapping_windows(self):
        series = np.random.default_rng(1).normal(size=(1, 90))
        ds = make_windows(series, obs_len=12, horizon=6, stride=18)
        all_starts = np.concatenate([ds.starts[s] for s in ("train", "valid", "test")])
        assert np.all(np.diff(np.sort(all_starts)) == 18)

    def test_single_window_goes_to_train(self):
        series = np.random.default_rng(2).normal(size=(1, 18))
        ds = make_windows(series, obs_len=12, horizon=6)
        assert len(ds.starts["train"]) == 1
        assert len(ds.starts["valid"]) == 0
        assert len(ds.starts["test"]) == 0

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError):
            make_windows(np.zeros((1, 10)), obs_len=12, horizon=6)

    def test_chronological_order(self):
        starts = split_window_starts(50)
        assert starts["train"].max() < starts["valid"].min()
        assert starts["valid"].max() < starts["test"].min()

    def test_normalization_uses_train_region_only(self):
        rng = np.random.default_rng(3)
        series = rng.uniform(0.0, 1.0, size=(1, 200))
        series[0, 180:] = 100.0  # wild values only the test split can see
        ds = make_windows(series, obs_len=12, horizon=6)
        train_end = int(ds.starts["train"][-1]) + 18
        assert train_end <= 180
        train_vals = ds.series[0, :train_end]
        assert train_vals.min() == pytest.approx(0.0)
        assert train_vals.max() == pytest.approx(1.0)
        assert ds.series[0, 180:].max() > 1.0  # later values may exceed the range

    def test_batches_have_expected_shapes(self):
        series = np.random.default_rng(4).normal(size=(3, 120))
        ds = make_windows(series, obs_len=16, horizon=8)
        starts = ds.starts["train"][:5]
        assert ds.input_batch(starts).shape == (5, 3, 16)
        assert ds.target_batch(starts).shape == (5, 3, 8)

    def test_empty_start_list_gives_empty_batches(self):
        ds = make_windows(np.random.default_rng(4).normal(size=(3, 120)), obs_len=16, horizon=8)
        for starts in ([], np.array([], dtype=int)):
            assert ds.input_batch(starts).shape == (0, 3, 16)
            assert ds.target_batch(starts).shape == (0, 3, 8)

    @pytest.mark.parametrize("pick", ["first", "one", "repeated", "unordered", "all"])
    def test_batches_equal_stacked_slices(self, pick):
        ds = make_windows(np.random.default_rng(5).normal(size=(3, 120)), obs_len=16, horizon=8)
        every = np.concatenate([ds.starts[s] for s in ("train", "valid", "test")])
        starts = {
            "first": ds.starts["train"][:5], "one": [int(every[-1])],
            "repeated": [7, 7, 0, 7], "unordered": [40, 3, 96, 12], "all": every,
        }[pick]
        inputs = np.stack([ds.series[:, s: s + 16] for s in starts])
        targets = np.stack([ds.series[:, s + 16: s + 24] for s in starts])
        assert ds.input_batch(starts).tobytes() == inputs.tobytes()
        assert ds.target_batch(starts).tobytes() == targets.tobytes()
        assert ds.input_batch(starts).shape == inputs.shape


class TestSynth:
    def test_deterministic_given_seed(self):
        a = synth_dataset("multisine", 3, 200, seed=9)
        b = synth_dataset("multisine", 3, 200, seed=9)
        np.testing.assert_array_equal(a, b)
        c = synth_dataset("arnoise", 2, 150, seed=9)
        d = synth_dataset("arnoise", 2, 150, seed=9)
        np.testing.assert_array_equal(c, d)

    def test_noiseless_multisine_matches_components(self):
        rng = np.random.default_rng(10)
        series, components = multisine_series(2, 300, rng, noise_sigma=0.0)
        t = np.arange(300)
        for v, waves in enumerate(components):
            clean = sum(a * np.sin(2 * np.pi * t / p + ph) for a, p, ph in waves)
            assert np.max(np.abs(series[v] - clean)) < 1e-9

    def test_minimal_dataset_is_usable(self):
        series = synth_dataset("multisine", 1, 18, seed=1)
        ds = make_windows(series, obs_len=12, horizon=6)
        assert ds.n_windows("train") == 1

    def test_ar_noise_is_bounded(self):
        series = ar_noise_series(2, 500, np.random.default_rng(11))
        assert np.all(np.isfinite(series))
        assert np.abs(series).max() < 100.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            synth_dataset("weather", 1, 100, seed=0)


class TestRse:
    def test_perfect_prediction_is_zero(self):
        y = np.random.default_rng(12).normal(size=(5, 2, 6))
        assert rse(y, y) == 0.0

    def test_mean_predictor_is_one(self):
        y = np.random.default_rng(13).normal(size=(7, 3, 4))
        mean_pred = np.tile(y.mean(axis=0, keepdims=True), (7, 1, 1))
        assert rse(mean_pred, y) == pytest.approx(1.0)

    def test_hand_computed_case(self):
        targets = np.array([[[1.0, 2.0]], [[3.0, 4.0]]])
        preds = np.array([[[1.0, 1.0]], [[3.0, 5.0]]])
        # mean target = [[2, 3]]; denom = 1+1+1+1 = 4; num = 0+1+0+1 = 2
        assert rse(preds, targets) == pytest.approx(np.sqrt(0.5))

    def test_constant_targets_rejected(self):
        with pytest.raises(ValueError):
            rse(np.zeros((3, 1, 4)), np.ones((3, 1, 4)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rse(np.zeros((3, 1, 4)), np.zeros((3, 1, 5)))


def small_dataset(seed=7, steps=420, variables=2):
    series = synth_dataset("multisine", variables, steps, seed=seed)
    return make_windows(series, obs_len=24, horizon=8)


def small_cfg(**overrides):
    defaults = dict(
        subbatch=60, sigma_min=3.0, sigma_max=12.0, sigma_cycle=5,
        support_count=10, lambda_count=8,
    )
    defaults.update(overrides)
    return SswimConfig(**defaults)


class TestTrainSswim:
    def test_end_to_end_beats_mean_predictor(self):
        ds = small_dataset()
        model, report = train_sswim(ds, ModelArch(hidden=(40,)), small_cfg(), seed=1)
        assert report.rse["test"] < 1.0
        assert np.all(np.isfinite(model.layers[-1].weights))

    def test_deterministic_given_seed(self):
        ds = small_dataset()
        from sswim.train import serialize_model_bytes

        m1, _ = train_sswim(ds, ModelArch(hidden=(25,)), small_cfg(), seed=3)
        m2, _ = train_sswim(ds, ModelArch(hidden=(25,)), small_cfg(), seed=3)
        assert serialize_model_bytes(m1) == serialize_model_bytes(m2)

    def test_report_fields_populated(self):
        ds = small_dataset()
        model, report = train_sswim(ds, ModelArch(hidden=(25,)), small_cfg(), seed=2)
        assert set(report.rse) == {"train", "valid", "test"}
        assert {"hidden_build", "delays", "supports", "weights", "eval"} <= set(report.timings)
        assert sum(report.timings.values()) <= report.total_seconds + 1e-6
        assert sum(report.timings.values()) >= 0.98 * report.total_seconds
        assert len(report.chosen_lambda) == ds.n_variables
        assert report.spike_counts.shape == (25,)
        assert report.spike_counts.min() >= 1
        assert len(report.condition_bounds) == ds.n_variables
        assert report.metric_in and report.metric_out

    def test_without_validation_windows_lambda_is_chosen_on_train(self):
        ds = make_windows(synth_dataset("multisine", 2, 420, seed=7), obs_len=24, horizon=8,
                          ratios=(0.8, 0.0, 0.2))
        model, report = train_sswim(ds, ModelArch(hidden=(25,)), small_cfg(), seed=3)
        assert model.metadata["lambda_source"] == "train"
        assert set(report.rse) == {"train", "test"}
        assert np.all(np.isfinite(model.layers[-1].weights))

    @pytest.mark.parametrize("target, phase, exc", [
        ("estimate_delays", "delays", ValueError("injected")),
        ("solve_with_lambda_search", "weights", np.linalg.LinAlgError("injected")),
    ])
    def test_plain_errors_name_their_phase(self, monkeypatch, target, phase, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(f"sswim.train.{target}", fail)
        with pytest.raises(PipelineError) as info:
            train_sswim(small_dataset(), ModelArch(hidden=(10,)), small_cfg(), seed=2)
        assert info.value.phase == phase
        assert info.value.cause is exc

    def test_subbatch_capped_with_warning(self):
        ds = small_dataset(steps=120)
        with pytest.warns(UserWarning, match="capped"):
            _, report = train_sswim(
                ds, ModelArch(hidden=(15,)), small_cfg(subbatch=10_000), seed=4
            )
        assert report.subbatch_capped

    def test_predictions_match_training_eval(self):
        ds = small_dataset()
        model, report = train_sswim(ds, ModelArch(hidden=(25,)), small_cfg(), seed=5)
        again = evaluate_split(model, ds, "test")
        assert again == pytest.approx(report.rse["test"], abs=1e-12)

    def test_two_hidden_layers_train(self):
        ds = small_dataset()
        model, report = train_sswim(
            ds, ModelArch(hidden=(20, 15)), small_cfg(), seed=6
        )
        assert model.n_hidden_layers == 2
        assert report.rse["test"] < 1.5
        assert np.all(np.isfinite(model.layers[-1].weights))

    def test_fixed_metric_mode(self):
        ds = small_dataset()
        cfg = small_cfg(metric_mode="fixed", metric_in="cos", metric_out="l2")
        _, report = train_sswim(ds, ModelArch(hidden=(20,)), cfg, seed=7)
        assert report.metric_in == "cos"
        assert report.metric_out == "l2"

    def test_predict_batch_shape(self):
        ds = small_dataset()
        model, _ = train_sswim(ds, ModelArch(hidden=(20,)), small_cfg(), seed=8)
        starts = ds.starts["test"][:4]
        preds = predict_batch(model, ds.input_batch(starts))
        assert preds.shape == (4, ds.n_variables, ds.horizon)


class TestScaling:
    def test_hidden_build_scales_subquadratically(self):
        # trend check with a generous bound: quadrupling the neuron count
        # must cost far less than 16x in the hidden-construction phase
        ds = small_dataset(steps=600)

        def build_time(n):
            _, report = train_sswim(ds, ModelArch(hidden=(n,)), small_cfg(), seed=1)
            return report.timings["hidden_build"]

        build_time(20)  # warm caches
        t_small = min(build_time(20) for _ in range(2))
        t_large = build_time(80)
        assert t_large <= 16.0 * t_small


def cpus_of_worker(job):
    return network.available_cpus()


class TestRunAblation:
    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patches reach the workers through fork")
    def test_workers_share_the_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        monkeypatch.setattr("sswim.train._ablation_cell", cpus_of_worker)
        cells = dict(criteria=("dot",), normalizers=("ms",), neuron_counts=(12,),
                     seeds=(1, 2, 3))
        assert list(iter_ablation(None, None, None, workers=3, **cells)) == [1, 1, 1]
        assert list(iter_ablation(None, None, None, workers=2, **cells)) == [2, 2, 2]
        assert network.available_cpus() == 4   # the caller keeps every CPU

    def test_single_cell(self):
        ds = small_dataset()
        rows = list(iter_ablation(ds, ModelArch(hidden=(15,)), small_cfg(),
                                  criteria=("dot",), normalizers=("ms",),
                                  neuron_counts=(15,), seeds=(1,)))
        assert len(rows) == 1
        assert rows[0]["status"] == "ok"
        assert rows[0]["rse_test"] is not None

    def test_failed_cell_is_flagged_not_fatal(self, monkeypatch):
        # config values are validated when the config is built, so the
        # cell is made to fail at run time by an injected error
        def fail(*args, **kwargs):
            raise ValueError("injected")

        monkeypatch.setattr("sswim.train.build_hidden_layer", fail)
        ds = small_dataset()
        rows = list(iter_ablation(ds, ModelArch(hidden=(10,)), small_cfg(),
                                  criteria=("dot",), normalizers=("ms",),
                                  neuron_counts=(10,), seeds=(1,)))
        assert len(rows) == 1
        assert rows[0]["status"].startswith("error")

    def test_grid_size(self):
        ds = small_dataset()
        rows = list(iter_ablation(ds, ModelArch(hidden=(12,)), small_cfg(),
                                  criteria=("dot", "random"), normalizers=("ms",),
                                  neuron_counts=(12,), seeds=(1, 2)))
        assert len(rows) == 4
        agg = aggregate_ablation(rows)
        assert len(agg) == 2
        assert all(row["seed"] == "mean" for row in agg)

    def test_skip_cells_resume(self):
        ds = small_dataset()
        done = {("dot", "ms", 12, 1)}
        rows = list(iter_ablation(ds, ModelArch(hidden=(12,)), small_cfg(),
                                  criteria=("dot",), normalizers=("ms",),
                                  neuron_counts=(12,), seeds=(1, 2), skip_cells=done))
        assert len(rows) == 1
        assert rows[0]["seed"] == 2
