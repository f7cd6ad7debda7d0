import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from sswim import ModelArch, SswimConfig, make_windows, network, output, synth_dataset, train_sswim
from sswim.errors import LambdaSearchError, PipelineError, SilentNetworkError
from sswim.kernels import KernelFamily, PlacedKernel, pspk
from sswim.network import BLOCK, kernel_conv_matrix
from sswim.output import (
    DelayEstimate,
    GramAccumulator,
    accumulate_normal_equations,
    assemble_design,
    condition_bound_diagnostic,
    estimate_delays,
    lambda_grid,
    projection_residuals,
    select_supports,
    solve_with_lambda_search,
    support_candidates,
)
from sswim.signals import SpikeTrainSet
from sswim.train import serialize_model_bytes

HAT = pspk(KernelFamily.HAT)


def random_spike_sets(rng, n_samples, n_neurons, n_steps, lo=4, hi=10):
    sets = []
    for _ in range(n_samples):
        trains = [
            np.sort(rng.choice(n_steps, size=int(rng.integers(lo, hi + 1)), replace=False))
            for _ in range(n_neurons)
        ]
        sets.append(SpikeTrainSet(trains=trains, n_steps=n_steps))
    return sets


def masks_of(spike_sets):
    """Boolean (samples, neurons, steps) mask of one SpikeTrainSet per sample."""
    return np.stack([s.to_dense() for s in spike_sets]).astype(bool)


def planted_targets(spike_sets, weights, tau, sigma, window, noise=0.0, rng=None):
    """Targets generated from the model's own response ansatz."""
    pk = PlacedKernel(HAT, tau, sigma)
    lo, hi = window
    t = np.arange(lo, hi, dtype=float)
    d_out = weights.shape[0]
    out = np.zeros((len(spike_sets), d_out, hi - lo))
    for n, spikes in enumerate(spike_sets):
        psp = np.zeros((spikes.n_neurons, hi - lo))
        for j, train in enumerate(spikes.trains):
            for s in train:
                psp[j] += pk.sample_at(t - s)
        out[n] = weights @ psp
    if noise > 0.0:
        out += noise * rng.standard_normal(out.shape)
    return out


class TestEstimateDelays:
    def test_single_planted_delay(self):
        # one hidden neuron spiking at step 10; target is a hat bump whose
        # peak trails the spike by exactly 5 steps
        obs_len, horizon = 32, 16
        total = obs_len + horizon
        spikes = masks_of([SpikeTrainSet(trains=[np.array([30])], n_steps=total)])
        t = np.arange(obs_len, total, dtype=float)
        target = PlacedKernel(HAT, 0.0, 4.0).sample_at(t - 30.0 - 5.0)[None, None, :]
        est = estimate_delays(spikes, target, HAT)
        assert abs(est.per_neuron[0] - 5.0) <= 1.0

    def test_zero_targets_argmax_at_zero(self):
        spikes = masks_of([SpikeTrainSet(trains=[np.array([3, 7])], n_steps=24)])
        targets = np.full((1, 2, 8), 0.42)  # constant -> zero after centering
        est = estimate_delays(spikes, targets, HAT)
        np.testing.assert_array_equal(est.per_neuron, [0.0, 0.0])

    def test_two_channels_recovered_independently(self):
        rng = np.random.default_rng(50)
        obs_len, horizon = 32, 24
        total = obs_len + horizon
        spike_sets = random_spike_sets(rng, 30, 5, total, lo=5, hi=9)
        w = rng.normal(size=(2, 5))
        y0 = planted_targets(spike_sets, w[:1], 3.0, 3.0, (obs_len, total))
        y1 = planted_targets(spike_sets, w[1:], 8.0, 3.0, (obs_len, total))
        targets = np.concatenate([y0, y1], axis=1)
        est = estimate_delays(masks_of(spike_sets), targets, HAT)
        assert abs(est.per_neuron[0] - 3.0) <= 1.0
        assert abs(est.per_neuron[1] - 8.0) <= 1.0

    def test_silent_network_rejected(self):
        spikes = masks_of([SpikeTrainSet(trains=[np.array([], int)], n_steps=24)])
        targets = np.zeros((1, 1, 8))
        with pytest.raises(SilentNetworkError):
            estimate_delays(spikes, targets, HAT)

    @staticmethod
    def per_spike_delays(mask, targets):
        """The lag of the peak curve, from a plain loop over spikes and lags."""
        n_samples, d_out, horizon = targets.shape
        n_lags = mask.shape[2] - horizon
        agg = np.zeros((d_out, n_lags))
        for sample_mask, target in zip(mask, targets):
            centered = target - target.mean(axis=1, keepdims=True)
            for train in sample_mask:
                for lag in range(n_lags):
                    carried = np.zeros(d_out)
                    for step in np.flatnonzero(train):
                        h = step + lag - n_lags   # the target step the spike lands on
                        if 0 <= h < horizon:
                            carried += centered[:, h]
                    agg[:, lag] += np.abs(carried)
        return np.argmax(agg, axis=1).astype(float)

    @pytest.mark.parametrize("n_steps, horizon", [(20, 12), (40, 10)])   # O < H, O > H
    def test_matches_per_spike_reference(self, n_steps, horizon):
        rng = np.random.default_rng(66)
        for _ in range(10):
            mask = rng.random((5, 4, n_steps)) < 0.2
            mask[0] = False             # a sample with no spikes
            mask[1, 0, 0] = True        # spikes at the first and the last step
            mask[1, 1, -1] = True
            targets = rng.normal(size=(5, 3, horizon))
            est = estimate_delays(mask, targets, HAT)
            np.testing.assert_array_equal(est.per_neuron, self.per_spike_delays(mask, targets))

    def test_window_must_fit_the_mask(self):
        mask = np.ones((2, 3, 8), dtype=bool)
        with pytest.raises(ValueError, match="before the target window"):
            estimate_delays(mask, np.ones((2, 1, 8)), HAT)   # no step before the window
        with pytest.raises(ValueError, match="one spike mask per sample"):
            estimate_delays(mask, np.ones((3, 1, 4)), HAT)

    def test_aggregation_median_and_min(self):
        est = DelayEstimate(per_neuron=np.array([1.0, 5.0, 9.0]), aggregate=0.0)
        from sswim.output import _aggregate_delays

        assert _aggregate_delays(est.per_neuron, "median") == 5.0
        assert _aggregate_delays(est.per_neuron, "min") == 1.0


class TestSupportCandidates:
    def test_first_value_is_lower_bound(self):
        got = support_candidates(1.0, 48.0, 1.5, 30)
        assert got[0] == 1.0

    def test_linear_spacing_case(self):
        got = support_candidates(0.0, 10.0, 1.0, 10)
        assert got[5] == pytest.approx(5.0)

    def test_defaults_are_increasing(self):
        got = support_candidates(1.0, 2 * 24.0, 1.5, 30)
        assert np.all(np.diff(got) > 0)
        assert got[-1] < 48.0  # the formula never reaches the bound

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            support_candidates(5.0, 5.0, 1.5, 10)
        with pytest.raises(ValueError):
            support_candidates(1.0, 10.0, 0.5, 10)
        with pytest.raises(ValueError):
            support_candidates(1.0, 10.0, 1.5, 1)


class TestProjectionResiduals:
    def test_representable_target_has_zero_residual(self):
        rng = np.random.default_rng(51)
        design = rng.normal(size=(40, 5))
        y = design @ rng.normal(size=(5, 2))
        res = projection_residuals(design, y)
        np.testing.assert_allclose(res, 0.0, atol=1e-8)

    def test_orthogonal_target_keeps_its_norm(self):
        # spike-free design: only the ones column is active; a mean-free
        # target is orthogonal to it
        spikes = masks_of([SpikeTrainSet(trains=[np.array([], int)] * 3, n_steps=24)])
        y = np.array([1.0, -1.0] * 4)[None, None, :]  # mean-free over 8 steps
        design = assemble_design(spikes, PlacedKernel(HAT, 2.0, 4.0), (16, 24))
        res = projection_residuals(design, y.reshape(-1, 1))
        assert res[0] == pytest.approx(float(np.sum(y**2)), rel=1e-12)

    def test_matches_dense_least_squares(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            spike_sets = random_spike_sets(rng, 2, 3, 24, lo=3, hi=6)
            targets = rng.normal(size=(2, 2, 8))
            stacked = targets.transpose(0, 2, 1).reshape(-1, 2)
            res = projection_residuals(
                assemble_design(masks_of(spike_sets), PlacedKernel(HAT, 1.0, 4.0), (16, 24)),
                stacked,
            )
            design = assemble_design(
                np.stack([s.to_dense() for s in spike_sets]),
                PlacedKernel(HAT, 1.0, 4.0), (16, 24),
            )
            for i in range(2):
                sol, *_ = np.linalg.lstsq(design, stacked[:, i], rcond=None)
                dense_res = float(np.sum((design @ sol - stacked[:, i]) ** 2))
                assert res[i] == pytest.approx(dense_res, rel=1e-8, abs=1e-10)


def lstsq_residuals(design, stacked):
    sol, *_ = np.linalg.lstsq(design, stacked, rcond=None)
    return np.sum((stacked - design @ sol) ** 2, axis=0)


class TestGramResiduals:
    """The Gram-matrix residuals against a dense least-squares reference on
    the singular designs spike data produces."""

    def spike_design(self, rng, silent=(), copies=()):
        mask = rng.random((12, 8, 24)) < 0.2
        mask[:, list(silent), :] = False
        for src, dst in copies:
            mask[:, dst, :] = mask[:, src, :]
        return assemble_design(mask.astype(float), PlacedKernel(HAT, 1.0, 5.0), (16, 24))

    @pytest.mark.parametrize("silent, copies", [
        ((2, 5), ()),                    # silent neurons: zero columns
        ((), ((0, 3), (1, 6))),          # two neurons with the same train
        ((4,), ((0, 7),)),               # both at once
        (tuple(range(8)), ()),           # an all-zero hidden block
    ])
    def test_singular_designs_match_lstsq(self, silent, copies):
        rng = np.random.default_rng(63)
        for _ in range(5):
            design = self.spike_design(rng, silent, copies)
            stacked = rng.normal(size=(design.shape[0], 3))
            got = projection_residuals(design, stacked)
            np.testing.assert_allclose(got, lstsq_residuals(design, stacked), rtol=1e-8)

    def test_nearly_representable_target_matches_lstsq(self):
        # the residual is ~1e-10 of ||y||^2, so ||y||^2 - b^T G^+ b would
        # lose it to cancellation; the residual of y - A c keeps it
        rng = np.random.default_rng(65)
        design = self.spike_design(rng, silent=(2,), copies=((0, 3),))
        weights = rng.normal(size=(design.shape[1], 3))
        stacked = design @ weights + 1e-5 * rng.normal(size=(design.shape[0], 3))
        got = projection_residuals(design, stacked)
        np.testing.assert_allclose(got, lstsq_residuals(design, stacked), rtol=1e-8)

    def test_select_supports_matches_lstsq_argmin(self):
        rng = np.random.default_rng(64)
        window = (16, 24)
        eps = np.finfo(float).eps
        for trial in range(20):
            mask = rng.random((6, 4, 24)) < 0.25
            mask[:, int(rng.integers(4)), :] = False
            if trial % 4 == 0:
                targets = np.full((6, 2, 8), 0.7)  # every candidate ties
            else:
                targets = rng.normal(size=(6, 2, 8))
            cands = support_candidates(1.0, 16.0, 1.5, 8)
            delays = DelayEstimate(per_neuron=np.zeros(2), aggregate=float(rng.uniform(0, 4)))
            got = select_supports(mask, targets, delays, cands, HAT)
            stacked = targets.transpose(0, 2, 1).reshape(-1, 2)
            ref = np.stack([
                lstsq_residuals(
                    assemble_design(mask.astype(float),
                                    PlacedKernel(HAT, delays.aggregate, sigma), window),
                    stacked,
                )
                for sigma in cands
            ])
            tol = max(stacked.shape[0], mask.shape[1] + 1) * eps * np.sum(stacked**2, axis=0)
            first_tied = np.argmax(ref <= ref.min(axis=0) + tol, axis=0)
            np.testing.assert_array_equal(got, cands[first_tied])


def test_import_leaves_scipy_unloaded():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", "import sswim, sys; assert 'scipy' not in sys.modules"],
        env=env, check=True,
    )


class TestSelectSupports:
    def test_planted_support_recovered(self):
        rng = np.random.default_rng(53)
        obs_len, horizon = 32, 24
        total = obs_len + horizon
        cands = support_candidates(1.0, 2.0 * horizon, 1.5, 30)
        sigma_star = float(cands[12])
        spike_sets = random_spike_sets(rng, 25, 4, total)
        w = rng.normal(size=(1, 4))
        targets = planted_targets(spike_sets, w, 4.0, sigma_star, (obs_len, total))
        delays = DelayEstimate(per_neuron=np.array([4.0]), aggregate=4.0)
        got = select_supports(masks_of(spike_sets), targets, delays, cands, HAT)
        cell = np.searchsorted(cands, got[0])
        assert abs(cell - 12) <= 1

    def test_constant_targets_tie_to_smallest(self):
        rng = np.random.default_rng(54)
        spike_sets = random_spike_sets(rng, 5, 3, 24)
        targets = np.full((5, 2, 8), 0.7)  # in the span of the ones column
        cands = support_candidates(1.0, 16.0, 1.5, 8)
        delays = DelayEstimate(per_neuron=np.zeros(2), aggregate=0.0)
        got = select_supports(masks_of(spike_sets), targets, delays, cands, HAT)
        np.testing.assert_array_equal(got, [cands[0], cands[0]])

    def test_single_candidate_returned(self):
        rng = np.random.default_rng(55)
        spike_sets = random_spike_sets(rng, 4, 3, 24)
        targets = rng.normal(size=(4, 1, 8))
        cands = support_candidates(2.0, 16.0, 1.5, 2)[:1]
        delays = DelayEstimate(per_neuron=np.zeros(1), aggregate=0.0)
        got = select_supports(masks_of(spike_sets), targets, delays, cands, HAT)
        assert got[0] == cands[0]


class TestGramAccumulator:
    def test_identity_design_block(self):
        acc = GramAccumulator(n_features=3, n_targets=2)
        y = np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
        acc.add_block(np.eye(3), y, n_samples=1)
        np.testing.assert_array_equal(acc.gram, np.eye(3))
        np.testing.assert_array_equal(acc.rhs, y)
        np.testing.assert_allclose(acc.target_sq, [14.0, 77.0])
        assert acc.count == 1

    def test_batch_invariance(self):
        rng = np.random.default_rng(56)
        mask = masks_of(random_spike_sets(rng, 10, 4, 24))
        targets = rng.normal(size=(10, 2, 8))
        delays = np.array([1.0, 3.0])
        supports = np.array([4.0, 4.0])

        def batches(sizes):
            lo = 0
            for size in sizes:
                yield mask[lo: lo + size], targets[lo: lo + size]
                lo += size

        one = accumulate_normal_equations(batches([10]), delays, supports, HAT)
        two = accumulate_normal_equations(batches([6, 4]), delays, supports, HAT)
        for g1, g2 in zip(one, two):
            np.testing.assert_allclose(g1.gram, g2.gram, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(g1.rhs, g2.rhs, rtol=1e-12, atol=1e-12)
            assert g1.count == g2.count

    def test_sample_count_tracked(self):
        rng = np.random.default_rng(57)
        mask = masks_of(random_spike_sets(rng, 7, 3, 24))
        targets = rng.normal(size=(7, 1, 8))
        ne = accumulate_normal_equations(
            iter([(mask, targets)]), np.zeros(1), np.ones(1), HAT
        )
        assert ne[0].count == 7

    def test_one_accumulator_per_neuron(self):
        rng = np.random.default_rng(58)
        mask = masks_of(random_spike_sets(rng, 4, 3, 24))
        targets = rng.normal(size=(4, 3, 8))
        delays = np.array([2.0, 2.0, 5.0])
        supports = np.array([4.0, 4.0, 4.0])
        ne = accumulate_normal_equations(
            iter([(mask, targets)]), delays, supports, HAT
        )
        assert len(ne) == 3
        assert ne[0].gram.tobytes() == ne[1].gram.tobytes()
        for i, acc in enumerate(ne):
            alone = accumulate_normal_equations(
                iter([(mask, targets[:, i:i + 1])]), delays[i:i + 1], supports[i:i + 1], HAT
            )
            np.testing.assert_array_equal(acc.rhs, alone[0].rhs)


def dense_ridge_solution(design, y, m, lam):
    k = design.shape[1]
    return np.linalg.solve(design.T @ design + m * lam * np.eye(k), design.T @ y)


class TestLambdaSearch:
    def make_instance(self, rng, n_samples=12, n_hidden=6, horizon=8):
        total = 2 * horizon + 8
        window = (total - horizon, total)
        spike_sets = random_spike_sets(rng, n_samples, n_hidden, total)
        targets = rng.normal(size=(n_samples, 2, horizon))
        delays = np.array([1.0, 2.0])
        supports = np.array([3.0, 5.0])
        ne = accumulate_normal_equations(
            iter([(masks_of(spike_sets), targets)]), delays, supports, HAT
        )
        designs = [
            assemble_design(np.stack([s.to_dense() for s in spike_sets]),
                            PlacedKernel(HAT, delays[i], supports[i]), window)
            for i in range(2)
        ]
        stacked = targets.transpose(0, 2, 1).reshape(-1, 2)
        return ne, designs, stacked, n_samples

    def test_spectral_solve_matches_dense_for_every_lambda(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            ne, designs, stacked, m = self.make_instance(rng)
            lams = lambda_grid(5, 1e-4, 0.5)
            for lam in lams:
                w, b, chosen = solve_with_lambda_search(ne, ne, np.array([lam]))
                for i in range(2):
                    dense = dense_ridge_solution(designs[i], stacked[:, i], m, lam)
                    got = np.concatenate([[b[i]], w[i]])
                    np.testing.assert_allclose(got, dense, rtol=1e-8, atol=1e-10)

    def test_identity_gram_with_zero_lambda(self):
        acc = GramAccumulator(3, 1)
        acc.add_block(np.eye(3), np.array([[2.0], [3.0], [4.0]]), 1)
        w, b, chosen = solve_with_lambda_search([acc], [acc], np.array([0.0]))
        assert b[0] == pytest.approx(2.0)
        np.testing.assert_allclose(w[0], [3.0, 4.0])

    def test_single_lambda_grid_is_plain_ridge(self):
        rng = np.random.default_rng(60)
        ne, designs, stacked, m = self.make_instance(rng)
        lam = 0.01
        w, b, chosen = solve_with_lambda_search(ne, ne, np.array([lam]))
        assert np.all(chosen == lam)

    def test_ties_prefer_larger_lambda(self):
        # validation loss is identical when the validation set is empty-ish:
        # use a zero validation accumulator so every candidate ties
        acc = GramAccumulator(2, 1)
        acc.add_block(np.eye(2), np.array([[1.0], [1.0]]), 1)
        vacc = GramAccumulator(2, 1)
        lams = np.array([0.01, 0.1, 1.0])
        _, _, chosen = solve_with_lambda_search([acc], [vacc], lams)
        assert chosen[0] == 1.0

    def test_nan_validation_gram_names_the_neuron(self):
        # two output neurons; only the second neuron's validation Gram is
        # NaN, so every one of its candidate losses is NaN
        def accumulator():
            acc = GramAccumulator(2, 1)
            acc.add_block(np.eye(2), np.array([[1.0], [1.0]]), 1)
            return acc

        bad = accumulator()
        bad.gram[:] = np.nan
        ne = [accumulator(), accumulator()]
        vne = [accumulator(), bad]
        with pytest.raises(LambdaSearchError, match="output neuron 1") as info:
            solve_with_lambda_search(ne, vne, lambda_grid(4))
        assert info.value.neuron == 1

    def test_validation_picks_generalizing_lambda(self):
        rng = np.random.default_rng(61)
        # train on noisy targets, validate on clean ones: some ridge helps
        ne, designs, stacked, m = self.make_instance(rng)
        lams = lambda_grid(8, 1e-5, 0.5)
        w, b, chosen = solve_with_lambda_search(ne, ne, lams)
        assert np.all(np.isfinite(w)) and np.all(np.isfinite(b))
        assert np.all((chosen >= 1e-5 * (1 - 1e-9)) & (chosen <= 0.5 * (1 + 1e-9)))


class TestConditionBound:
    def test_zero_spikes_formula(self):
        acc = GramAccumulator(3, 1)
        acc.count = 1
        bound = condition_bound_diagnostic(acc, 1.0, np.zeros((1, 2)), 10, 2.5)
        assert bound == pytest.approx(11.0)

    def test_bound_dominates_dense_condition(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            n_samples, n_hidden, horizon = 6, 4, 8
            total = 24
            spike_sets = random_spike_sets(rng, n_samples, n_hidden, total, lo=2, hi=6)
            targets = rng.normal(size=(n_samples, 1, horizon))
            tau, sigma = 2.0, 5.0
            ne = accumulate_normal_equations(
                iter([(masks_of(spike_sets), targets)]),
                np.array([tau]), np.array([sigma]), HAT,
            )
            acc = ne[0]
            lam = rng.uniform(0.01, 1.0)
            f = acc.gram + acc.count * lam * np.eye(acc.n_features)
            evals = np.linalg.eigvalsh(f)
            kappa = evals[-1] / evals[0]
            taps = PlacedKernel(HAT, tau, sigma).taps(total)
            counts = np.stack([s.counts() for s in spike_sets])
            bound = condition_bound_diagnostic(
                acc, lam, counts, horizon, float(np.sum(taps**2))
            )
            assert bound >= kappa

    def test_monotone_decreasing_in_lambda(self):
        acc = GramAccumulator(3, 1)
        acc.count = 5
        counts = np.full((5, 3), 4)
        bounds = [
            condition_bound_diagnostic(acc, lam, counts, 12, 1.7)
            for lam in (0.01, 0.1, 1.0)
        ]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_nonpositive_lambda_rejected(self):
        acc = GramAccumulator(2, 1)
        acc.count = 1
        with pytest.raises(ValueError):
            condition_bound_diagnostic(acc, 0.0, np.zeros((1, 1)), 4, 1.0)


class TestAssembleDesignBuffer:
    def test_buffer_holds_the_same_design(self):
        rng = np.random.default_rng(60)
        combs = (rng.random((5, 4, 24)) < 0.2).astype(float)
        pk = PlacedKernel(HAT, 2.0, 5.0)
        fresh = assemble_design(combs, pk, (16, 24))
        buffer = np.full(fresh.size + 7, np.nan)
        design = assemble_design(combs, pk, (16, 24), out=buffer)
        assert np.shares_memory(design, buffer)
        assert design.tobytes() == fresh.tobytes()
        assert np.isnan(buffer[fresh.size:]).all()

    @pytest.mark.parametrize("buffer", [np.empty(5 * 8 * 5 - 1), np.empty((5 * 8 * 5, 2))[:, 0],
                                        np.empty(5 * 8 * 5, dtype=np.float32)])
    def test_unfit_buffer_rejected(self, buffer):
        combs = np.zeros((5, 4, 24))
        with pytest.raises(ValueError, match="out must be"):
            assemble_design(combs, PlacedKernel(HAT, 2.0, 5.0), (16, 24), out=buffer)


    def test_blocks_of_a_boolean_mask_give_the_whole_cast_design(self):
        rng = np.random.default_rng(62)
        mask = rng.random((2 * BLOCK + 3, 4, 24)) < 0.2
        pk = PlacedKernel(HAT, 2.0, 5.0)
        k = np.asfortranarray(kernel_conv_matrix(pk, 24)[16:24])
        expected = np.empty((mask.shape[0], 8, 5))
        expected[..., 0] = 1.0
        np.matmul(k, mask.astype(float).transpose(0, 2, 1), out=expected[..., 1:])
        scratch = np.empty(BLOCK * 4 * 24)
        design = assemble_design(mask, pk, (16, 24), scratch=scratch)
        assert design.tobytes() == expected.reshape(-1, 5).tobytes()

    @pytest.mark.parametrize("scratch", [np.empty(BLOCK * 4 * 24 - 1),
                                         np.empty(BLOCK * 4 * 24, dtype=np.float32)])
    def test_unfit_scratch_rejected(self, scratch):
        mask = np.zeros((BLOCK, 4, 24), dtype=bool)
        with pytest.raises(ValueError, match="scratch must be"):
            assemble_design(mask, PlacedKernel(HAT, 2.0, 5.0), (16, 24), scratch=scratch)


def split_fit_case():
    """Spike masks, targets and parameters for the output fit of 4 outputs,
    two of which share a (delay, support), on 23 samples."""
    rng = np.random.default_rng(61)
    mask = rng.random((23, 9, 40)) < 0.15
    targets = rng.normal(size=(23, 4, 8))
    delays = np.array([1.0, 3.0, 1.0, 2.5])
    supports = np.array([4.0, 6.0, 4.0, 7.5])
    return mask, targets, delays, supports


def supports_and_residuals(monkeypatch, mask, targets):
    """The choice of ``select_supports`` and the (design, residuals) bytes of
    every candidate it scored, sorted."""
    scored = []

    def recording(design, stacked):
        result = projection_residuals(design, stacked)
        scored.append((design.tobytes(), result.tobytes()))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(output, "projection_residuals", recording)
        grid = support_candidates(1.0, 16.0, 1.5, 7)
        choice = select_supports(mask, targets, DelayEstimate(np.zeros(4), 2.0), grid, HAT)
    return choice.tobytes(), sorted(scored)


def normal_equation_bytes(mask, targets, delays, supports):
    def batches():
        for lo, hi in ((0, 10), (10, 20), (20, 23)):
            yield mask[lo:hi], targets[lo:hi]

    ne = accumulate_normal_equations(batches(), delays, supports, HAT)
    return [(acc.gram.tobytes(), acc.rhs.tobytes(), acc.target_sq.tobytes(), acc.count)
            for acc in ne]


def criterion_13_bytes():
    dataset = make_windows(synth_dataset("multisine", 2, 420, seed=7), obs_len=24, horizon=8)
    cfg = SswimConfig(subbatch=60, sigma_min=3.0, sigma_max=12.0,
                      sigma_cycle=5, support_count=8, lambda_count=6)
    model, _ = train_sswim(dataset, ModelArch(hidden=(25,)), cfg, seed=11)
    return serialize_model_bytes(model)


class TestSplitOutputFit:
    """The support search and the normal equations give the same bits on any
    number of threads."""

    WORKERS = [2, 3, 7]

    @pytest.fixture
    def cpus(self, monkeypatch):
        monkeypatch.setattr(network, "_MIN_SLICE", 1)   # split even this small case

        def use(count):
            monkeypatch.setattr(network, "available_cpus", lambda: count)

        # threads switch often, so that workers that shared a buffer would clash
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            yield use
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_support_search_is_the_same_on_any_thread_count(self, monkeypatch, cpus, workers):
        mask, targets, _, _ = split_fit_case()
        cpus(1)
        serial = supports_and_residuals(monkeypatch, mask, targets)
        assert len(serial[1]) == 7
        cpus(workers)
        assert supports_and_residuals(monkeypatch, mask, targets) == serial

    @pytest.mark.parametrize("workers", WORKERS)
    def test_normal_equations_are_the_same_on_any_thread_count(self, cpus, workers):
        case = split_fit_case()
        cpus(1)
        serial = normal_equation_bytes(*case)
        assert len(serial) == 4
        cpus(workers)
        assert normal_equation_bytes(*case) == serial

    def test_model_bytes_are_the_same_on_any_thread_count(self, cpus):
        cpus(1)
        serial = criterion_13_bytes()
        for workers in self.WORKERS:
            cpus(workers)
            assert criterion_13_bytes() == serial, f"{workers} threads"

    @pytest.mark.parametrize("phase, target", [
        ("supports", "projection_residuals"),
        ("weights", "GramAccumulator.add_block"),
    ])
    def test_worker_error_names_the_phase(self, monkeypatch, cpus, phase, target):
        threads = []

        def fail(*args, **kwargs):
            threads.append(threading.current_thread())
            raise ValueError("injected")

        owner, _, name = target.rpartition(".")
        monkeypatch.setattr(getattr(output, owner) if owner else output, name, fail)
        cpus(2)
        with pytest.raises(PipelineError, match="injected") as info:
            criterion_13_bytes()
        assert info.value.phase == phase
        assert threads and threading.main_thread() not in threads
