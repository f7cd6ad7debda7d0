import json
import math
import multiprocessing
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sswim import network
from sswim.kernels import KernelFamily, PlacedKernel, pspk, rfk, tap_span
from sswim.network import (
    BLOCK,
    THRESHOLD,
    GridSpec,
    LayerParams,
    SnnModel,
    causal_conv_matrix,
    hidden_drive_batch,
    kernel_conv_matrix,
    kernel_conv_stack,
    load_model,
    model_from_dict,
    model_to_dict,
    output_voltages_batch,
    refractory_taps,
    save_model,
    simulate_hidden_batch,
    simulate_hidden_stack,
)
from sswim.output import assemble_design
from sswim.signals import SpikeTrainSet
from sswim.train import predict_batch


def hidden_layer(weights, bias, delay, support, cost, rf_support,
                 family=KernelFamily.HAT):
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    n = weights.shape[0]
    return LayerParams(
        weights=weights,
        bias=np.full(n, float(bias)) if np.isscalar(bias) else np.asarray(bias, float),
        delay=np.full(n, float(delay)),
        support=np.full(n, float(support)),
        pspk=pspk(family),
        spike_cost=np.full(n, float(cost)),
        rf_support=np.full(n, float(rf_support)),
        rfk=rfk(KernelFamily.EXP),
    )


def output_layer(weights, bias, delay, support, family=KernelFamily.HAT):
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    n = weights.shape[0]
    return LayerParams(
        weights=weights,
        bias=np.full(n, float(bias)) if np.isscalar(bias) else np.asarray(bias, float),
        delay=np.full(n, float(delay)) if np.isscalar(delay) else np.asarray(delay, float),
        support=np.full(n, float(support)) if np.isscalar(support) else np.asarray(support, float),
        pspk=pspk(family),
    )


def window_matrix(pk, n_steps, window):
    """The (steps, window) read-out kernel: the window rows of the conv matrix."""
    return kernel_conv_matrix(pk, n_steps)[window[0]: window[1]].T


class TestPspContributions:
    def test_single_spike_rectified_copy(self):
        layer = hidden_layer([[1.0]], 0.0, delay=0.0, support=2.0, cost=0.0, rf_support=1.0)
        spikes = SpikeTrainSet(trains=[np.array([10])], n_steps=16)
        psp = spikes.to_dense() @ window_matrix(layer.placed_kernel(0), 16, (0, 16))
        expected = np.zeros(16)
        expected[10] = 1.0
        expected[11] = 0.5
        np.testing.assert_allclose(psp[0], expected)

    def test_empty_train_is_silent(self):
        layer = hidden_layer([[1.0]], 0.0, delay=0.0, support=2.0, cost=0.0, rf_support=1.0)
        spikes = SpikeTrainSet(trains=[np.array([], dtype=int)], n_steps=8)
        psp = spikes.to_dense() @ window_matrix(layer.placed_kernel(0), 8, (0, 8))
        assert np.all(psp == 0.0)

    def test_constant_input_reaches_tap_sum(self):
        # hat with support 2 on the unit grid has taps [1, 0.5]
        layer = hidden_layer([[1.0]], 0.0, delay=0.0, support=2.0, cost=0.0, rf_support=1.0)
        psp = np.ones((1, 12)) @ kernel_conv_matrix(layer.placed_kernel(0), 12).T
        np.testing.assert_allclose(psp[0, 1:], 1.5)
        assert psp[0, 0] == 1.0  # transient: only the t=0 tap seen

    def test_channel_mismatch_rejected(self):
        layer = hidden_layer([[1.0, 2.0]], 0.0, delay=0.0, support=2.0, cost=0.0, rf_support=1.0)
        with pytest.raises(ValueError):
            hidden_drive_batch(layer, np.ones((1, 3, 8)))

    def test_sparse_placement_equals_dense_convolution(self):
        rng = np.random.default_rng(3)
        layer = hidden_layer([[1.0]], 0.0, delay=1.0, support=3.0, cost=0.0, rf_support=1.0)
        steps = 40
        train = np.sort(rng.choice(steps, size=9, replace=False))
        spikes = SpikeTrainSet(trains=[train], n_steps=steps)
        window = window_matrix(layer.placed_kernel(0), steps, (0, steps))
        sparse = (spikes.to_dense() @ window)[0]
        comb = np.zeros(steps)
        comb[train] = 1.0
        taps = PlacedKernel(pspk(KernelFamily.HAT), 1.0, 3.0).taps(steps)
        dense = comb @ causal_conv_matrix(taps, steps).T
        np.testing.assert_allclose(sparse, dense, atol=1e-12)


class TestSimulateHidden:
    def test_constant_suprathreshold_drive_spikes_everywhere(self):
        layer = hidden_layer([[0.0]], 1.0, delay=0.0, support=2.0, cost=0.0, rf_support=5.0)
        spikes, volt = simulate_hidden_batch(layer, np.zeros((1, 1, 10)))
        np.testing.assert_array_equal(np.flatnonzero(spikes[0, 0]), np.arange(10))
        np.testing.assert_allclose(volt[0, 0], 1.0)

    def test_subthreshold_drive_never_spikes(self):
        layer = hidden_layer([[0.0]], 0.5, delay=0.0, support=2.0, cost=-2.0, rf_support=5.0)
        spikes, _ = simulate_hidden_batch(layer, np.zeros((1, 1, 10)))
        assert not spikes.any()

    def test_refractory_suppression_hand_simulation(self):
        # drive: bias 0.95 plus a PSP bump of 0.1 at step 5 (0.05 at step 6)
        layer = hidden_layer([[0.1]], 0.95, delay=0.0, support=2.0,
                             cost=-3.0, rf_support=5.0)
        spikes_in = SpikeTrainSet(trains=[np.array([5])], n_steps=10)
        spikes, volt = simulate_hidden_batch(layer, spikes_in.to_dense()[None])
        np.testing.assert_array_equal(np.flatnonzero(spikes[0, 0]), [5])
        expected = np.full(10, 0.95)
        expected[5] += 0.1
        expected[6] += 0.05
        for t in range(6, 10):
            expected[t] += -3.0 * math.exp(-(t - 5) / 5.0)
        np.testing.assert_allclose(volt[0, 0], expected, atol=1e-12)

    def test_refractory_never_acts_at_spike_step(self):
        # two neurons, drive above threshold at every step: the first spike
        # must not change the voltage at its own step
        layer = hidden_layer([[0.0]], 1.2, delay=0.0, support=2.0,
                             cost=-5.0, rf_support=3.0)
        _, volt = simulate_hidden_batch(layer, np.zeros((1, 1, 6)))
        assert volt[0, 0, 0] == pytest.approx(1.2)

    def test_causality_under_truncation(self):
        rng = np.random.default_rng(11)
        layer = hidden_layer(rng.normal(size=(3, 2)), 0.4, delay=1.0, support=4.0,
                             cost=-1.0, rf_support=4.0)
        x = rng.normal(size=(2, 30))
        t0 = 17
        x_trunc = x.copy()
        x_trunc[:, t0 + 1:] = 0.0
        s_full, v_full = simulate_hidden_batch(layer, x[None])
        s_trunc, v_trunc = simulate_hidden_batch(layer, x_trunc[None])
        np.testing.assert_allclose(
            v_full[0, :, : t0 + 1], v_trunc[0, :, : t0 + 1], atol=1e-12
        )
        np.testing.assert_array_equal(s_full[0, :, : t0 + 1], s_trunc[0, :, : t0 + 1])


# ---------------------------------------------------------------------------
# reference simulator: the per-neuron drive loop and the sample-major step
# loop the simulator is required to reproduce bit for bit


def reference_causal_conv_matrix(taps, n_steps):
    c = np.zeros((n_steps, n_steps))
    for d in range(min(taps.size, n_steps)):
        if taps[d] != 0.0:
            np.fill_diagonal(c[d:, : n_steps - d], taps[d])
    return c


def reference_kernel_conv_matrix(pk, n_steps):
    span = min(int(tap_span(pk.delay, pk.support)), n_steps)
    return reference_causal_conv_matrix(pk.taps(span), n_steps)


def reference_refractory_taps(layer):
    """The refractory kernel at lag / rf_support for the lags 1..D, D the
    longest refractory support, zeroed where that ratio is above 1."""
    lags = np.arange(1, int(np.floor(np.max(layer.rf_support))) + 1)
    x = lags[None, :] / layer.rf_support[:, None]
    return np.where(x <= 1.0, layer.rfk.evaluate(x), 0.0)


def reference_drive(layer, dense_in):
    n_steps = dense_in.shape[-1]
    projected = np.matmul(layer.weights, dense_in)
    drive = np.empty_like(projected)
    for i in range(layer.n_neurons):
        c = reference_kernel_conv_matrix(layer.placed_kernel(i), n_steps)
        drive[:, i, :] = projected[:, i, :] @ c.T
    drive += layer.bias[None, :, None]
    return drive


def reference_simulate(layer, dense_in):
    drive = reference_drive(layer, dense_in)
    n_samples, n_neurons, n_steps = drive.shape
    q_taps = reference_refractory_taps(layer)
    max_lag = q_taps.shape[1]
    cost_taps = layer.spike_cost[:, None] * q_taps
    spiked = np.zeros((n_samples, n_neurons, n_steps), dtype=bool)
    volt = np.empty_like(drive)
    for t in range(n_steps):
        v = drive[:, :, t].copy()
        for d in range(1, min(max_lag, t) + 1):
            active = cost_taps[:, d - 1]
            if np.any(active):
                v += active[None, :] * spiked[:, :, t - d]
        volt[:, :, t] = v
        spiked[:, :, t] = v >= THRESHOLD
    return spiked, volt


def reference_stack(layers, dense):
    """Each layer simulated by the reference on blocks of BLOCK samples, the
    last one zero-padded."""
    n_samples = dense.shape[0]
    masks = []
    for layer in layers:
        padded = np.zeros((-(-n_samples // BLOCK) * BLOCK,) + dense.shape[1:])
        padded[:n_samples] = dense
        mask = np.concatenate([reference_simulate(layer, padded[lo: lo + BLOCK])[0]
                               for lo in range(0, len(padded), BLOCK)])[:n_samples]
        masks.append(mask)
        dense = mask.astype(float)
    return masks


def random_hidden_layer(rng, n_neurons, n_inputs, family, input_scale=1.0, step=1.0):
    """Mixed delays and supports, 1-4 refractory lags, a spread of costs with
    neuron 0 at zero cost, and biases that make neurons fire. The delays and
    supports are drawn in units of ``step`` and given on the unit grid, so a
    ``step`` of 0.5 places every kernel as a grid twice as fine would."""
    return LayerParams(
        weights=rng.normal(size=(n_neurons, n_inputs)) * input_scale,
        bias=rng.uniform(0.3, 1.1, n_neurons),
        delay=rng.uniform(0.0, 9.0, n_neurons) / step,
        support=rng.uniform(0.6, 14.0, n_neurons) / step,
        pspk=pspk(family),
        spike_cost=np.concatenate([[0.0], -rng.uniform(0.2, 2.5, n_neurons - 1)]),
        rf_support=rng.choice([1.0, 2.5, 3.0, 4.5], n_neurons) / step,
        rfk=rfk(KernelFamily.EXP),
    )


class TestSimulatorMatchesReference:
    N_SAMPLES, N_NEURONS, N_STEPS = 5, 9, 37   # all distinct, to pin the axis order

    def setup(self, family, step, seed=0, n_samples=N_SAMPLES):
        rng = np.random.default_rng(seed)
        layers = [random_hidden_layer(rng, self.N_NEURONS, 3, family, step=step),
                  random_hidden_layer(rng, 6, self.N_NEURONS, family, input_scale=0.6,
                                      step=step)]
        dense = rng.normal(size=(n_samples, 3, self.N_STEPS))
        return layers, dense

    @pytest.mark.parametrize("family", list(KernelFamily))
    @pytest.mark.parametrize("step", [1.0, 0.5])
    def test_drive_masks_and_voltages_are_bit_identical(self, family, step):
        layers, dense = self.setup(family, step)
        layer = layers[0]
        drive = hidden_drive_batch(layer, dense)
        assert drive.shape == (self.N_SAMPLES, self.N_NEURONS, self.N_STEPS)
        assert drive.tobytes() == reference_drive(layer, dense).tobytes()
        spiked, volt = simulate_hidden_batch(layer, dense)
        ref_spiked, ref_volt = reference_simulate(layer, dense)
        assert spiked.shape == volt.shape == (self.N_SAMPLES, self.N_NEURONS, self.N_STEPS)
        assert spiked.tobytes() == ref_spiked.tobytes()
        assert volt.tobytes() == ref_volt.tobytes()
        taps = refractory_taps(layer)
        assert taps.tobytes() == reference_refractory_taps(layer).tobytes()
        # the case mix is live: spikes, silences and refractory lags all occur
        assert 0 < spiked.mean() < 1
        assert 1 <= taps.shape[1]

    @pytest.mark.parametrize("family", list(KernelFamily))
    @pytest.mark.parametrize("n_samples", [2, 5, 1, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_stack_masks_are_bit_identical(self, family, n_samples):
        layers, dense = self.setup(family, 1.0, seed=1, n_samples=n_samples)
        # each layer's mask is the last one of the stack cut after it
        for k, ref in enumerate(reference_stack(layers, dense), start=1):
            mask = simulate_hidden_stack(layers[:k], dense, self.N_STEPS)
            assert mask.shape == ref.shape
            assert mask.tobytes() == ref.tobytes()
        assert mask.any()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n_samples", [1, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_short_and_boolean_inputs_give_the_bytes_of_padded_floats(
            self, monkeypatch, workers, n_samples):
        monkeypatch.setattr(network, "_MIN_SLICE", 1)   # split even this small case
        monkeypatch.setattr(network, "available_cpus", lambda: workers)
        layers, dense = self.setup(KernelFamily.HAT, 1.0, seed=2, n_samples=n_samples)
        width = self.N_STEPS - 9

        def padded(inputs):
            full = np.zeros(inputs.shape[:2] + (self.N_STEPS,))
            full[:, :, :width] = inputs[:, :, :width]
            return full

        mask = simulate_hidden_stack(layers, padded(dense), self.N_STEPS)
        assert mask.any()
        short = simulate_hidden_stack(layers, dense[:, :, :width], self.N_STEPS)
        assert short.tobytes() == mask.tobytes()
        first = simulate_hidden_stack(layers[:1], dense, self.N_STEPS)
        for spikes, as_float in ((first, first.astype(float)),
                                 (first[:, :, :width], padded(first))):
            assert (simulate_hidden_stack(layers[1:], spikes, self.N_STEPS).tobytes()
                    == simulate_hidden_stack(layers[1:], as_float, self.N_STEPS).tobytes())

    @pytest.mark.parametrize("family", list(KernelFamily))
    @pytest.mark.parametrize("step", [1.0, 0.5])
    def test_conv_stack_equals_per_neuron_matrices(self, family, step):
        layer = self.setup(family, step)[0][0]
        stack = kernel_conv_stack(layer.pspk, layer.delay, layer.support, self.N_STEPS)
        assert stack.shape == (self.N_NEURONS, self.N_STEPS, self.N_STEPS)
        for i in range(self.N_NEURONS):
            pk = layer.placed_kernel(i)
            assert stack[i].tobytes() == kernel_conv_matrix(pk, self.N_STEPS).tobytes()
            assert stack[i].tobytes() == reference_kernel_conv_matrix(
                pk, self.N_STEPS).tobytes()

    def test_one_dimensional_builder_keeps_its_result(self):
        rng = np.random.default_rng(4)
        for n_taps, n_steps in ((5, 12), (12, 5), (30, 6), (3, 1), (1, 1), (7, 7)):
            taps = rng.normal(size=n_taps)
            taps[rng.random(n_taps) < 0.3] = 0.0
            got = causal_conv_matrix(taps, n_steps)
            assert got.shape == (n_steps, n_steps)
            assert got.tobytes() == reference_causal_conv_matrix(taps, n_steps).tobytes()
            stacked = causal_conv_matrix(np.stack([taps, 2.0 * taps]), n_steps)
            assert stacked[0].tobytes() == got.tobytes()
            assert stacked[1].tobytes() == causal_conv_matrix(2.0 * taps, n_steps).tobytes()


class TestPendingSpikeCosts:
    """The step loop adds only the costs of pending spikes; its masks and
    voltages must still be the reference loop's bytes."""

    def assert_matches_reference(self, layer, dense):
        spiked, volt = simulate_hidden_batch(layer, dense)
        ref_spiked, ref_volt = reference_simulate(layer, dense)
        assert spiked.tobytes() == ref_spiked.tobytes()
        assert volt.tobytes() == ref_volt.tobytes()
        return spiked

    def test_consecutive_spikes_pend_at_one_position_over_several_lags(self):
        rng = np.random.default_rng(21)
        layer = hidden_layer(rng.normal(size=(3, 2)) * 0.05, 2.0, delay=0.0, support=3.0,
                             cost=-0.3, rf_support=4.0)
        spiked = self.assert_matches_reference(layer, rng.normal(size=(4, 2, 15)))
        assert spiked[:, :, :6].all()   # so step 5 adds four lags' costs at every position

    def test_refractory_support_longer_than_the_grid(self):
        rng = np.random.default_rng(22)
        layer = hidden_layer(rng.normal(size=(5, 2)), 1.1, delay=1.0, support=3.0,
                             cost=-0.1, rf_support=20.0)
        assert refractory_taps(layer).shape[1] == 20
        spiked = self.assert_matches_reference(layer, rng.normal(size=(3, 2, 8)))
        assert spiked.sum(axis=2).max() > 1

    def test_a_neuron_without_spike_cost(self):
        rng = np.random.default_rng(23)
        layer = hidden_layer(rng.normal(size=(3, 2)) * 0.3, 1.05, delay=0.0, support=2.0,
                             cost=-2.0, rf_support=3.0)
        layer.spike_cost[1] = 0.0
        spiked = self.assert_matches_reference(layer, rng.normal(size=(2, 2, 12)))
        assert spiked[:, 1].sum() > spiked[:, 0].sum()

    def test_a_batch_of_no_whole_block_without_scratch(self):
        rng = np.random.default_rng(24)
        layer = random_hidden_layer(rng, 7, 3, KernelFamily.HAT)
        spiked = self.assert_matches_reference(layer, rng.normal(size=(BLOCK + 3, 3, 20)))
        assert 0 < spiked.mean() < 1

    def test_the_step_loop_allocates_no_array(self):
        # every index and cost buffer comes from the scratch, allocated
        # beforehand; one per-step array of the spike positions alone would
        # be one (samples, neurons) row of intp here, where every neuron
        # fires at every step
        n_neurons, n_steps = 200, 10
        layer = hidden_layer(np.zeros((n_neurons, 1)), 6.0, delay=0.0, support=2.0,
                             cost=-0.5, rf_support=3.0)
        dense = np.zeros((BLOCK, 1, n_steps))
        stack = kernel_conv_stack(layer.pspk, layer.delay, layer.support, n_steps)
        scratch = network._BlockScratch.allocate(1, n_neurons, n_steps, 3)
        simulate_hidden_batch(layer, dense, stack, scratch)
        tracemalloc.start()
        try:
            spiked, _ = simulate_hidden_batch(layer, dense, stack, scratch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert spiked.all()
        assert peak < BLOCK * n_neurons * np.dtype(float).itemsize


class TestCausalConvMatrix:
    """``causal_conv_matrix`` against the diagonal-by-diagonal reference."""

    def test_negative_zero_tap_is_written_as_zero(self):
        taps = np.array([0.5, -0.0, 0.25, -0.0])
        got = causal_conv_matrix(taps, 6)
        assert got.tobytes() == reference_causal_conv_matrix(taps, 6).tobytes()
        assert not np.signbit(got).any()

    def test_three_dimensional_taps_give_one_matrix_per_row(self):
        taps = np.random.default_rng(5).normal(size=(2, 3, 4))
        taps[0, 1, 2] = -0.0
        got = causal_conv_matrix(taps, 7)
        assert got.shape == (2, 3, 7, 7)
        for i in range(2):
            for j in range(3):
                assert got[i, j].tobytes() == reference_causal_conv_matrix(
                    taps[i, j], 7).tobytes()


@st.composite
def simulator_cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n_samples = draw(st.integers(1, 4))
    n_steps = draw(st.integers(2, 40))
    rng = np.random.default_rng(seed)
    layer = random_hidden_layer(rng, draw(st.integers(1, 6)), draw(st.integers(1, 3)),
                                draw(st.sampled_from(list(KernelFamily))),
                                step=draw(st.sampled_from([1.0, 0.5])))
    dense = rng.normal(size=(n_samples, layer.n_inputs, n_steps))
    return layer, dense


class TestSimulatorProperties:
    @settings(max_examples=30, deadline=None)
    @given(case=simulator_cases(), frac=st.floats(0.0, 1.0))
    def test_zeroing_the_future_leaves_the_past_bit_identical(self, case, frac):
        layer, dense = case
        t0 = int(frac * (dense.shape[-1] - 1))
        truncated = dense.copy()
        truncated[:, :, t0 + 1:] = 0.0
        spiked, volt = simulate_hidden_batch(layer, dense)
        spiked_t, volt_t = simulate_hidden_batch(layer, truncated)
        assert spiked[..., : t0 + 1].tobytes() == spiked_t[..., : t0 + 1].tobytes()
        assert volt[..., : t0 + 1].tobytes() == volt_t[..., : t0 + 1].tobytes()

    @settings(max_examples=30, deadline=None)
    @given(case=simulator_cases())
    def test_a_batch_simulates_like_each_sample_alone(self, case):
        # OpenBLAS picks its dgemm kernel by matrix size, so a sample's drive
        # in a batch can differ from its drive alone in the last bit, at the
        # parent's per-neuron loop as well; the voltages agree to that
        # rounding and the masks exactly
        layer, dense = case
        spiked, volt = simulate_hidden_batch(layer, dense)
        for m in range(dense.shape[0]):
            spiked_1, volt_1 = simulate_hidden_batch(layer, dense[m: m + 1])
            np.testing.assert_array_equal(spiked_1[0], spiked[m])
            np.testing.assert_allclose(volt_1[0], volt[m], rtol=0, atol=1e-12)


@st.composite
def two_layer_cases(draw):
    """A two-layer model with delays and supports drawn in unit or half
    steps, and 1, BLOCK - 1, BLOCK or BLOCK + 1 input windows."""
    seed = draw(st.integers(0, 2**32 - 1))
    step = draw(st.sampled_from([1.0, 0.5]))
    family = draw(st.sampled_from(list(KernelFamily)))
    obs, horizon = draw(st.integers(2, 30)), draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    first = random_hidden_layer(rng, draw(st.integers(1, 7)), 2, family, step=step)
    second = random_hidden_layer(rng, draw(st.integers(1, 7)), first.n_neurons, family,
                                 input_scale=0.6, step=step)
    out = output_layer(rng.normal(size=(2, second.n_neurons)), rng.normal(size=2),
                       delay=rng.uniform(0.0, 4.0, 2) / step,
                       support=rng.uniform(1.0, 9.0, 2) / step, family=family)
    model = SnnModel(layers=[first, second, out], d_in=2, d_out=2,
                     grid=GridSpec(total_steps=obs + horizon, horizon=horizon))
    n_windows = draw(st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1]))
    return model, rng.normal(size=(n_windows, 2, obs))


class TestBatchIndependence:
    """Every conv product of the forward pass has BLOCK rows, so a window's
    spikes and prediction do not depend on the batch it comes in."""

    @settings(max_examples=25, deadline=None)
    @given(case=two_layer_cases())
    def test_any_batch_size_gives_the_same_bytes(self, case):
        model, inputs = case
        n_windows, n_steps = inputs.shape[0], model.grid.total_steps
        dense = np.zeros(inputs.shape[:2] + (n_steps,))
        dense[:, :, : inputs.shape[2]] = inputs
        whole = predict_batch(model, inputs, batch_size=n_windows).tobytes()
        for k in (1, 2):   # each layer's mask
            layers = model.layers[:k]
            mask = simulate_hidden_stack(layers, dense, n_steps).tobytes()
            for batch_size in (1, 2, 3, 17, n_windows):
                parts = [simulate_hidden_stack(layers, inputs[lo: lo + batch_size], n_steps)
                         for lo in range(0, n_windows, batch_size)]
                assert np.concatenate(parts).tobytes() == mask
        for batch_size in (1, 2, 3, 17, n_windows):
            assert predict_batch(model, inputs, batch_size=batch_size).tobytes() == whole

    def test_predict_batch_peak_stays_below_one_float_batch(self, monkeypatch):
        # the float buffers of the forward pass hold one block per thread
        monkeypatch.setattr(network, "available_cpus", lambda: 2)
        monkeypatch.setattr(network, "_MIN_SLICE", 1)
        rng = np.random.default_rng(12)
        hidden = random_hidden_layer(rng, 40, 3, KernelFamily.HAT)
        out = output_layer(rng.normal(size=(3, 40)), rng.normal(size=3), delay=1.0, support=6.0)
        model = SnnModel(layers=[hidden, out], d_in=3, d_out=3,
                         grid=GridSpec(total_steps=50, horizon=10))
        inputs = rng.normal(size=(512, 3, 40))
        tracemalloc.start()
        try:
            pred = predict_batch(model, inputs, batch_size=512)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pred.shape == (512, 3, 10)
        assert peak < 512 * 40 * 50 * np.dtype(float).itemsize


class TestOutputVoltages:
    def test_zero_weights_give_bias(self):
        layer = output_layer(np.zeros((2, 3)), 0.7, delay=0.0, support=2.0)
        spikes = SpikeTrainSet(trains=[np.array([1]), np.array([2]), np.array([], int)],
                               n_steps=12)
        out = output_voltages_batch(layer, spikes.to_dense()[None], window=(6, 12))
        np.testing.assert_allclose(out[0], 0.7)

    def test_single_spike_reproduces_placed_kernel(self):
        layer = output_layer([[1.0]], 0.0, delay=2.0, support=3.0)
        spikes = SpikeTrainSet(trains=[np.array([4])], n_steps=16)
        out = output_voltages_batch(layer, spikes.to_dense()[None], window=(0, 16))
        pk = PlacedKernel(pspk(KernelFamily.HAT), 2.0, 3.0)
        expected = pk.sample_at(np.arange(16) - 4.0)
        np.testing.assert_allclose(out[0, 0], expected)

    def test_two_spikes_superpose(self):
        layer = output_layer([[1.0]], 0.0, delay=1.0, support=2.0)
        spikes = SpikeTrainSet(trains=[np.array([3, 8])], n_steps=16)
        out = output_voltages_batch(layer, spikes.to_dense()[None], window=(0, 16))
        pk = PlacedKernel(pspk(KernelFamily.HAT), 1.0, 2.0)
        t = np.arange(16)
        expected = pk.sample_at(t - 3.0) + pk.sample_at(t - 8.0)
        np.testing.assert_allclose(out[0, 0], expected)

    def test_affine_superposition_in_weights(self):
        rng = np.random.default_rng(5)
        w1 = rng.normal(size=(2, 4))
        w2 = rng.normal(size=(2, 4))
        bias = rng.normal(size=2)
        trains = [np.sort(rng.choice(20, size=4, replace=False)) for _ in range(4)]
        combs = SpikeTrainSet(trains=trains, n_steps=20).to_dense()[None]
        mk = lambda w: output_layer(w, bias, delay=1.5, support=3.0)
        v1 = output_voltages_batch(mk(w1), combs, (10, 20))[0]
        v2 = output_voltages_batch(mk(w2), combs, (10, 20))[0]
        v12 = output_voltages_batch(mk(w1 + w2), combs, (10, 20))[0]
        np.testing.assert_allclose(v12, v1 + v2 - bias[:, None], atol=1e-12)

    @pytest.mark.parametrize("family", list(KernelFamily))
    @pytest.mark.parametrize("step", [1.0, 0.5])
    def test_read_out_is_the_fit_design_times_the_weights(self, family, step):
        # delays and supports drawn in units of ``step``, as in random_hidden_layer
        rng = np.random.default_rng(21)
        mask = rng.random((5, 7, 30)) < 0.2
        layer = output_layer(rng.normal(size=(3, 7)), rng.normal(size=3),
                             delay=rng.uniform(0.0, 4.0, 3) / step,
                             support=rng.uniform(2.0, 12.0, 3) / step, family=family)
        window = (20, 30)
        out = output_voltages_batch(layer, mask, window)
        # a mask that ends before the window is read as if zero-padded to its end
        ended = mask.copy()
        ended[:, :, 24:] = False
        assert output_voltages_batch(layer, mask[:, :, :24], window).tobytes() == \
            output_voltages_batch(layer, ended, window).tobytes()
        for i in range(3):
            design = assemble_design(mask.astype(float), layer.placed_kernel(i), window)
            expected = design @ np.concatenate([[layer.bias[i]], layer.weights[i]])
            np.testing.assert_allclose(out[:, i].ravel(), expected, rtol=0, atol=1e-12)
        as_float = output_voltages_batch(layer, mask.astype(float), window)
        assert out.tobytes() == as_float.tobytes()


def tiny_model(rng=None, n_hidden=4):
    rng = rng or np.random.default_rng(0)
    hid = hidden_layer(rng.normal(size=(n_hidden, 2)) * 0.3, 0.8, delay=1.0,
                       support=3.0, cost=-1.5, rf_support=3.0)
    out = output_layer(rng.normal(size=(2, n_hidden)) * 0.5, 0.1, delay=1.0, support=4.0)
    return SnnModel(layers=[hid, out], d_in=2, d_out=2,
                    grid=GridSpec(total_steps=24, horizon=8))


class TestForward:
    def test_zero_weight_model_predicts_bias(self):
        hid = hidden_layer(np.zeros((3, 2)), 1.0, delay=0.0, support=2.0,
                           cost=0.0, rf_support=2.0)
        out = output_layer(np.zeros((2, 3)), 0.25, delay=0.0, support=2.0)
        model = SnnModel(layers=[hid, out], d_in=2, d_out=2,
                         grid=GridSpec(total_steps=20, horizon=5))
        pred = predict_batch(model, np.zeros((1, 2, 15)))
        np.testing.assert_allclose(pred, 0.25)
        hidden = simulate_hidden_stack(model.layers[:-1], np.zeros((1, 2, 15)), 20)
        assert hidden.shape == (1, 3, 20)
        assert hidden.all()

    def test_forward_is_deterministic(self):
        model = tiny_model()
        x = np.random.default_rng(9).normal(size=(1, 2, 16))
        np.testing.assert_array_equal(predict_batch(model, x), predict_batch(model, x))

    def test_forward_pads_observation_window(self):
        model = tiny_model()
        x = np.random.default_rng(2).normal(size=(1, 2, 16))
        x_padded = np.zeros((1, 2, 24))
        x_padded[:, :, :16] = x
        np.testing.assert_array_equal(predict_batch(model, x), predict_batch(model, x_padded))

    @pytest.mark.parametrize("batch_size", [1, 2, 3, 5])
    def test_predict_batch_without_hidden_layers_matches_forward(self, batch_size):
        # a batch predicts like each of its windows alone
        rng = np.random.default_rng(11)
        out = output_layer(rng.normal(size=(2, 2)), 0.3, delay=1.0, support=4.0)
        model = SnnModel(layers=[out], d_in=2, d_out=2,
                         grid=GridSpec(total_steps=24, horizon=8))
        inputs = rng.normal(size=(5, 2, 16))
        preds = predict_batch(model, inputs, batch_size=batch_size)
        for x, pred in zip(inputs, preds):
            np.testing.assert_array_equal(pred, predict_batch(model, x[None])[0])
        # raw windows predict as if zero-padded to the grid
        padded = np.zeros((5, 2, 24))
        padded[:, :, :16] = inputs
        assert predict_batch(model, padded, batch_size=batch_size).tobytes() == preds.tobytes()

    def test_prediction_is_finite(self):
        model = tiny_model()
        x = np.random.default_rng(4).normal(size=(1, 2, 16))
        pred = predict_batch(model, x)
        assert pred.shape == (1, 2, 8)
        assert np.all(np.isfinite(pred))


def split_case(seed=7):
    """A two-layer model with a horizon of 5 (not a multiple of 4), and 11
    input windows, so the ranges come out uneven."""
    rng = np.random.default_rng(seed)
    hidden = [random_hidden_layer(rng, 9, 3, KernelFamily.HAT),
              random_hidden_layer(rng, 6, 9, KernelFamily.HAT, input_scale=0.6)]
    out = output_layer(rng.normal(size=(3, 6)), rng.normal(size=3),
                       delay=rng.uniform(0.0, 3.0, 3), support=rng.uniform(2.0, 9.0, 3))
    model = SnnModel(layers=hidden + [out], d_in=3, d_out=3,
                     grid=GridSpec(total_steps=31, horizon=5))
    return model, rng.normal(size=(11, 3, 26))


def split_outputs(model, inputs):
    dense = np.zeros(inputs.shape[:2] + (model.grid.total_steps,))
    dense[:, :, :inputs.shape[2]] = inputs
    spiked, volt = simulate_hidden_batch(model.layers[0], dense)
    masks = [simulate_hidden_stack(model.layers[:k], inputs, model.grid.total_steps)
             for k in (1, 2)]
    readout = output_voltages_batch(model.layers[-1], masks[-1].astype(float),
                                    model.grid.window)
    return [spiked.tobytes(), volt.tobytes(), *(m.tobytes() for m in masks),
            readout.tobytes(), predict_batch(model, inputs, batch_size=8).tobytes()]


def predict_in_child(seed):
    model, inputs = split_case(seed)
    return predict_batch(model, inputs).tobytes()


class TestSplitForwardPass:
    @pytest.mark.parametrize("workers", [2, 3, 7])
    def test_any_worker_count_gives_the_same_bits(self, monkeypatch, workers):
        monkeypatch.setattr(network, "_MIN_SLICE", 1)   # split even this small case
        model, inputs = split_case()
        monkeypatch.setattr(network, "available_cpus", lambda: 1)
        serial = split_outputs(model, inputs)
        monkeypatch.setattr(network, "available_cpus", lambda: workers)
        assert split_outputs(model, inputs) == serial
        spiked = np.frombuffer(serial[0], dtype=bool)
        assert 0 < spiked.mean() < 1

    @pytest.mark.parametrize("workers", [2, 3, 7])
    def test_blocks_split_over_any_worker_count_give_the_same_bits(self, monkeypatch,
                                                                  workers):
        monkeypatch.setattr(network, "_MIN_SLICE", 1)
        model, _ = split_case()
        inputs = np.random.default_rng(8).normal(size=(3 * BLOCK + 5, 3, 26))
        monkeypatch.setattr(network, "available_cpus", lambda: 1)
        serial = split_outputs(model, inputs)
        monkeypatch.setattr(network, "available_cpus", lambda: workers)
        # threads switch often, so that workers that shared a buffer would clash
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert split_outputs(model, inputs) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_ranges_cover_the_axis(self, monkeypatch):
        monkeypatch.setattr(network, "available_cpus", lambda: 3)
        least = network._MIN_SLICE
        assert network._split_ranges(11, 11 * least) == [(0, 3), (3, 7), (7, 11)]
        assert network._split_ranges(2, 11 * least) == [(0, 1), (1, 2)]
        assert network._split_ranges(0, 0) == [(0, 0)]
        # too little work for a second thread
        assert network._split_ranges(11, 2 * least - 1) == [(0, 11)]
        assert network._split_ranges(11, 2 * least) == [(0, 5), (5, 11)]

    def test_each_range_gets_buffers_allocated_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(network, "available_cpus", lambda: 3)
        caller = threading.current_thread()
        allocated, received = [], {}

        def allocate():
            buffers = [threading.current_thread()]
            allocated.append(buffers)
            return buffers

        def fn(lo, hi, buffers):
            received[lo, hi] = (buffers, threading.current_thread())

        network._split_run(fn, 11, 11 * network._MIN_SLICE, allocate)
        assert sorted(received) == [(0, 3), (3, 7), (7, 11)]
        assert len(allocated) == 3
        assert all(buffers[0] is caller for buffers in allocated)
        given = [buffers for buffers, _ in received.values()]
        assert sorted(map(id, given)) == sorted(map(id, allocated))
        assert caller not in [thread for _, thread in received.values()]

    def test_shared_cpus_are_divided(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        monkeypatch.setattr(network, "_sharing", 1)
        assert network.available_cpus() == 4
        network.share_cpus(2)
        assert network.available_cpus() == 2
        network.share_cpus(3)
        assert network.available_cpus() == 1
        network.share_cpus(8)
        assert network.available_cpus() == 1

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(network, "available_cpus", lambda: 2)
        monkeypatch.setattr(network, "_MIN_SLICE", 1)
        layer = hidden_layer([[1.0, 2.0]], 0.0, delay=0.0, support=2.0, cost=0.0,
                             rf_support=1.0)
        with pytest.raises(ValueError):
            hidden_drive_batch(layer, np.ones((4, 3, 8)))

    def test_worker_error_in_the_stack_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(network, "available_cpus", lambda: 2)
        monkeypatch.setattr(network, "_MIN_SLICE", 1)
        layer = hidden_layer([[1.0, 2.0]], 0.0, delay=0.0, support=2.0, cost=0.0,
                             rf_support=1.0)
        with pytest.raises(ValueError):
            simulate_hidden_stack([layer], np.ones((2 * BLOCK, 3, 8)), 8)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_runs_a_forward_pass(self, monkeypatch):
        # a thread left over from the parent's pass would not exist in the child
        monkeypatch.setattr(network, "available_cpus", lambda: 2)
        monkeypatch.setattr(network, "_MIN_SLICE", 1)
        model, inputs = split_case(3)
        expected = predict_batch(model, inputs).tobytes()
        pool = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"))
        try:
            future = pool.submit(predict_in_child, 3)
            try:
                assert future.result(timeout=60) == expected
            except TimeoutError:
                for proc in pool._processes.values():   # else shutdown waits on it
                    proc.kill()
                raise
        finally:
            pool.shutdown()


class TestModelValidation:
    def test_width_chain_enforced(self):
        hid = hidden_layer(np.zeros((3, 2)), 1.0, 0.0, 2.0, 0.0, 2.0)
        out = output_layer(np.zeros((2, 4)), 0.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            SnnModel(layers=[hid, out], d_in=2, d_out=2,
                     grid=GridSpec(20, 5))

    def test_output_layer_must_be_last(self):
        hid = hidden_layer(np.zeros((3, 2)), 1.0, 0.0, 2.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            SnnModel(layers=[hid], d_in=2, d_out=3, grid=GridSpec(20, 5))


class TestSerialization:
    def test_round_trip_is_exact(self, tmp_path):
        model = tiny_model(np.random.default_rng(31))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        for orig, back in zip(model.layers, loaded.layers):
            np.testing.assert_array_equal(orig.weights, back.weights)
            np.testing.assert_array_equal(orig.bias, back.bias)
            np.testing.assert_array_equal(orig.delay, back.delay)
            np.testing.assert_array_equal(orig.support, back.support)
            assert orig.pspk == back.pspk
        assert loaded.grid == model.grid
        x = np.random.default_rng(1).normal(size=(1, 2, 16))
        np.testing.assert_array_equal(predict_batch(model, x), predict_batch(loaded, x))

    def test_file_holds_the_canonical_bytes(self, tmp_path):
        from sswim.train import serialize_model_bytes

        model = tiny_model(np.random.default_rng(32))
        path = tmp_path / "model.json"
        save_model(model, path)
        assert path.read_bytes() == serialize_model_bytes(model) + b"\n"

    def test_non_finite_weight_rejected_and_file_kept(self, tmp_path):
        model = tiny_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        before = path.read_bytes()
        model.layers[-1].weights[0, 1] = np.nan
        with pytest.raises(ValueError, match="layer 2"):
            save_model(model, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_non_finite_metadata_rejected_and_file_kept(self, tmp_path):
        model = tiny_model()
        model.metadata["chosen_lambda"] = [0.5, 1e-3]
        path = tmp_path / "model.json"
        save_model(model, path)
        before = path.read_bytes()
        model.metadata["chosen_lambda"] = [0.5, math.inf]
        with pytest.raises(ValueError, match="'chosen_lambda'"):
            save_model(model, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_non_finite_constant_in_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(tiny_model(), path)
        doc = json.loads(path.read_text())
        doc["layers"][0]["weights"][0][0] = float("nan")
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"NaN") as info:
            load_model(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("field", ["grid", "grid.dt", "layers", "d_in", "d_out",
                                       "layers.0.weights", "layers.0.rfk", "layers.1.pspk"])
    def test_missing_field_is_named(self, tmp_path, field):
        path = tmp_path / "model.json"
        save_model(tiny_model(), path)
        doc = json.loads(path.read_text())
        *parents, key = field.split(".")
        node = doc
        for part in parents:
            node = node[int(part)] if part.isdigit() else node[part]
        del node[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"no '{key}' field") as info:
            load_model(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("field, value", [
        ("grid", []), ("layers", {}), ("layers.0", []), ("d_in", "2"), ("grid.dt", None),
        ("layers.0.weights", {}), ("layers.1.bias", [[1.0], 2.0]), ("layers.0.rfk", "exp"),
        ("layers.0.bias", [None, 0.5]), ("layers.1.delay", ["1.0"]), ("layers.0.support", [True]),
        ("grid.dt", 0.5),   # models live on the unit-step grid
    ])
    def test_wrong_typed_field_is_named(self, tmp_path, field, value):
        path = tmp_path / "model.json"
        save_model(tiny_model(), path)
        doc = json.loads(path.read_text())
        *parents, key = field.split(".")
        node = doc
        for part in parents:
            node = node[int(part)] if part.isdigit() else node[part]
        node[int(key) if key.isdigit() else key] = value
        path.write_text(json.dumps(doc))
        named = "'layers'" if key.isdigit() else f"'{key}'"
        with pytest.raises(ValueError, match=f"model field {named} must") as info:
            load_model(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("field", ["d_in", "d_out", "grid.total_steps", "grid.horizon",
                                       "grid.dt"])
    def test_boolean_number_field_is_named(self, tmp_path, field):
        # bool is a subclass of int, and True == 1 == 1.0: refused all the same
        path = tmp_path / "model.json"
        save_model(tiny_model(), path)
        doc = json.loads(path.read_text())
        *parents, key = field.split(".")
        node = doc
        for part in parents:
            node = node[part]
        node[key] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"model field '{key}' must be .*, not bool"):
            load_model(path)

    def test_dict_round_trip(self):
        model = tiny_model()
        again = model_from_dict(model_to_dict(model))
        assert model_to_dict(again) == model_to_dict(model)


class TestWindowMatrix:
    def test_window_matrix_matches_direct_placement(self):
        pk = PlacedKernel(pspk(KernelFamily.MORLET), 2.5, 4.0)
        k = window_matrix(pk, 20, (12, 20))
        spikes = np.array([3, 9, 15])
        comb = np.zeros(20)
        comb[spikes] = 1.0
        via_matrix = comb @ k
        t = np.arange(12, 20, dtype=float)
        direct = sum(pk.sample_at(t - s) for s in spikes)
        np.testing.assert_allclose(via_matrix, direct, atol=1e-14)
