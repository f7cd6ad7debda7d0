import sys
import threading

import numpy as np
import pytest

from sswim import hidden, network, train
from sswim.config import ModelArch, SswimConfig
from sswim.datasets import make_windows, synth_dataset
from sswim.errors import DegenerateNeuronError, PipelineError, TrivialPairError
from sswim.hidden import (
    build_hidden_layer,
    normalize_fl,
    normalize_ms,
    overlap_matrix,
    separation_matrix,
    temporal_assignment,
    voltage_stats,
    weight_dist,
    weight_dot,
    weight_random,
)
from sswim.kernels import KernelFamily, pspk, rfk
from sswim.network import simulate_hidden_batch
from sswim.sampling import (
    EmbeddingSpec,
    PairProbabilities,
    Pseudometric,
    pair_probabilities,
    pair_probabilities_from_matrices,
    sample_pair,
)
from sswim.train import train_sswim


class TestTemporalAssignment:
    def test_delays_linear_over_layer_range(self):
        got = temporal_assignment(1, 2, 4, obs_len=100, horizon=20,
                                  sigma_min=5, sigma_max=50, n_sigma=2)
        np.testing.assert_allclose(got.delay, [0.0, 6.25, 12.5, 18.75])

    def test_support_cycle(self):
        got = temporal_assignment(1, 1, 4, obs_len=100, horizon=20,
                                  sigma_min=5, sigma_max=50, n_sigma=2)
        np.testing.assert_allclose(got.support, [5.0, 50.0, 5.0, 50.0])

    def test_short_observation_uses_horizon(self):
        got = temporal_assignment(1, 1, 3, obs_len=12, horizon=24,
                                  sigma_min=2, sigma_max=4, n_sigma=2)
        # tau_max = 24, so the last of 3 delays is (2/3) * 24
        np.testing.assert_allclose(got.delay, [0.0, 8.0, 16.0])

    def test_refractory_support_is_sigma_min(self):
        got = temporal_assignment(1, 1, 5, obs_len=64, horizon=24,
                                  sigma_min=5, sigma_max=50, n_sigma=3)
        np.testing.assert_array_equal(got.rf_support, np.full(5, 5.0))

    def test_delays_stay_in_range(self):
        for layer in (1, 2, 3):
            got = temporal_assignment(layer, 3, 100, obs_len=64, horizon=24,
                                      sigma_min=5, sigma_max=50, n_sigma=10)
            assert np.all(got.delay >= 0)
            assert np.all(got.delay < layer / 3 * 32.0)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            temporal_assignment(1, 1, 4, 64, 24, sigma_min=0.0, sigma_max=5, n_sigma=2)
        with pytest.raises(ValueError):
            temporal_assignment(1, 1, 4, 64, 24, sigma_min=5, sigma_max=50, n_sigma=1)


def mc_best(objective, dim, n_draws, rng, maximize):
    w = rng.normal(size=(n_draws, dim))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    vals = objective(w)
    return (vals.max() if maximize else vals.min())


def dist_objective(psi1, psi2):
    diff = psi1 - psi2

    def obj(w):
        return np.sum((w @ diff) ** 2, axis=-1)

    return obj


def dot_objective(psi1, psi2):
    def obj(w):
        return np.sum((w @ psi1) * (w @ psi2), axis=-1)

    return obj


class TestWeightDist:
    def test_single_active_channel(self):
        psi1 = np.zeros((3, 10))
        psi2 = np.zeros((3, 10))
        psi1[0] = np.sin(np.arange(10))
        w = weight_dist(psi1, psi2)
        np.testing.assert_allclose(np.abs(w), [1.0, 0.0, 0.0], atol=1e-12)
        assert w[0] > 0  # sign convention

    def test_diagonal_criterion_matrix(self):
        # construct psi1 - psi2 with orthogonal rows of norms sqrt(3), 1
        psi1 = np.zeros((2, 4))
        psi1[0, 0] = np.sqrt(3.0)
        psi1[1, 1] = 1.0
        psi2 = np.zeros((2, 4))
        a = separation_matrix(psi1, psi2)
        np.testing.assert_allclose(a, np.diag([3.0, 1.0]), atol=1e-12)
        w = weight_dist(psi1, psi2)
        np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-12)

    def test_beats_monte_carlo(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            psi1 = rng.normal(size=(3, 24))
            psi2 = rng.normal(size=(3, 24))
            w = weight_dist(psi1, psi2)
            achieved = dist_objective(psi1, psi2)(w)
            best_rand = mc_best(dist_objective(psi1, psi2), 3, 100_000, rng, True)
            assert achieved >= best_rand * (1 - 1e-3)

    def test_identical_pair_rejected(self):
        psi = np.random.default_rng(1).normal(size=(3, 8))
        with pytest.raises(TrivialPairError):
            weight_dist(psi, psi.copy())

    def test_spectrum_nonnegative(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            psi1 = rng.normal(size=(4, 16))
            psi2 = rng.normal(size=(4, 16))
            evals = np.linalg.eigvalsh(separation_matrix(psi1, psi2))
            assert evals.min() >= -1e-10


class TestWeightDot:
    def test_two_channel_hand_solution(self):
        # psi1 on channel 1, psi2 on channel 2, overlap integral rho = 2
        psi1 = np.zeros((2, 8))
        psi2 = np.zeros((2, 8))
        psi1[0] = 1.0
        psi2[1, :4] = 1.0
        rho = float(np.sum(psi1[0] * psi2[1]))
        a = overlap_matrix(psi1, psi2)
        np.testing.assert_allclose(a, [[0.0, rho / 2], [rho / 2, 0.0]])
        w = weight_dot(psi1, psi2)
        np.testing.assert_allclose(np.abs(w), np.full(2, 1 / np.sqrt(2)), atol=1e-12)
        assert w[0] * w[1] < 0  # eigenvector of -rho/2 mixes signs

    def test_zero_input_returns_first_basis_vector(self):
        psi1 = np.random.default_rng(2).normal(size=(3, 8))
        psi2 = np.zeros((3, 8))
        np.testing.assert_array_equal(weight_dot(psi1, psi2), [1.0, 0.0, 0.0])

    def test_beats_monte_carlo(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            psi1 = rng.normal(size=(3, 24))
            psi2 = rng.normal(size=(3, 24))
            w = weight_dot(psi1, psi2)
            achieved = dot_objective(psi1, psi2)(w)
            best_rand = mc_best(dot_objective(psi1, psi2), 3, 100_000, rng, False)
            assert achieved <= best_rand + 1e-3 * abs(best_rand)


def full_dot(psi1, psi2):
    """weight_dot's answer from the whole (inputs, inputs) overlap matrix."""
    a = overlap_matrix(psi1, psi2)
    if not np.any(a):
        return np.eye(len(a))[0]
    return hidden._fix_sign(np.linalg.eigh(a)[1][:, 0])


def full_dist(psi1, psi2):
    return hidden._fix_sign(np.linalg.eigh(separation_matrix(psi1, psi2))[1][:, -1])


def wide_pair(rng, inputs=40, steps=12, rank=9):
    """Responses of rank ``rank`` each, so [psi1 psi2] is rank-deficient."""
    return [rng.normal(size=(inputs, rank)) @ rng.normal(size=(rank, steps))
            for _ in range(2)]


class TestSpanSolve:
    """A layer with more inputs than the pair's responses span solves its
    eigenproblem on that span, with the answer of the full matrix."""

    def test_dot_matches_the_full_solve(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            psi1, psi2 = wide_pair(rng)
            assert hidden._dot_on_span(psi1, psi2) is not None
            np.testing.assert_allclose(weight_dot(psi1, psi2), full_dot(psi1, psi2),
                                       rtol=1e-10, atol=1e-10)

    def test_dist_matches_the_full_solve(self):
        rng = np.random.default_rng(25)
        for rank in (5, 9, 12):
            psi1, psi2 = wide_pair(rng, steps=16, rank=rank)
            np.testing.assert_allclose(weight_dist(psi1, psi2), full_dist(psi1, psi2),
                                       rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("case", ["semidefinite", "zero overlap", "zero psi2"])
    def test_dot_without_a_negative_eigenvalue_takes_the_full_path(self, case):
        rng = np.random.default_rng(27)
        psi1, psi2 = wide_pair(rng)
        if case == "semidefinite":
            psi2 = 2.5 * psi1
        elif case == "zero overlap":
            psi1[:, 6:] = 0.0
            psi2[:, :6] = 0.0
        else:
            psi2[:] = 0.0
        assert hidden._dot_on_span(psi1, psi2) is None
        assert weight_dot(psi1, psi2).tobytes() == full_dot(psi1, psi2).tobytes()

    def test_wide_pairs_never_form_the_full_matrix(self, monkeypatch):
        def full_matrix(*args, **kwargs):
            raise AssertionError("a wide pair formed the (inputs, inputs) matrix")

        monkeypatch.setattr(hidden, "overlap_matrix", full_matrix)
        monkeypatch.setattr(hidden, "separation_matrix", full_matrix)
        psi1, psi2 = wide_pair(np.random.default_rng(29))
        assert weight_dot(psi1, psi2).shape == weight_dist(psi1, psi2).shape == (40,)

    def test_narrow_pairs_keep_the_full_solve(self):
        rng = np.random.default_rng(28)
        psi1, psi2 = rng.normal(size=(2, 24, 12))   # 24 inputs: not above 2 x 12
        assert weight_dot(psi1, psi2).tobytes() == full_dot(psi1, psi2).tobytes()
        psi1, psi2 = rng.normal(size=(2, 12, 12))   # 12 inputs: not above 12
        assert weight_dist(psi1, psi2).tobytes() == full_dist(psi1, psi2).tobytes()


class TestWeightRandom:
    def test_unit_norm(self):
        rng = np.random.default_rng(24)
        for _ in range(1000):
            w = weight_random(5, rng)
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-12

    def test_one_dimensional_is_sign(self):
        rng = np.random.default_rng(25)
        values = {float(weight_random(1, rng)[0]) for _ in range(20)}
        assert values <= {1.0, -1.0}

    def test_seeded_reproducibility(self):
        a = weight_random(7, np.random.default_rng(5))
        b = weight_random(7, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


class TestVoltageStats:
    def test_constant_trace(self):
        stats = voltage_stats(np.array([1.0]) @ np.full((1, 10), 0.3))
        assert stats.mean == pytest.approx(0.3)
        assert stats.std == pytest.approx(0.0, abs=1e-12)
        assert stats.peak == pytest.approx(0.3)

    def test_two_trace_hand_statistics(self):
        # trace 1: zero mean, unit std; trace 2: zero mean, std 3
        base = np.array([1.0, -1.0, 1.0, -1.0])
        stats = voltage_stats(np.stack([np.array([1.0]) @ trace
                                        for trace in (base[None, :], 3.0 * base[None, :])]))
        assert stats.mean == pytest.approx(0.0)
        assert stats.std == pytest.approx(2.0)
        assert stats.peak == pytest.approx(3.0)

    def test_shift_stability(self):
        rng = np.random.default_rng(26)
        traces = rng.normal(size=(50, 64))
        base = voltage_stats(traces)
        shifted = voltage_stats(traces + 1e6)
        assert shifted.mean == pytest.approx(base.mean + 1e6, rel=1e-12)
        assert shifted.std == pytest.approx(base.std, rel=1e-6)

    def test_scratch_gives_the_same_statistics(self):
        rng = np.random.default_rng(28)
        traces = rng.normal(size=(20, 32)) + 3.0
        kept = traces.copy()
        plain = voltage_stats(traces)
        scratch = np.empty_like(traces)
        buffered = voltage_stats(traces, scratch=scratch)
        assert buffered == plain
        assert traces.tobytes() == kept.tobytes()

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            voltage_stats(np.empty((0, 10)))

    def test_projection_applied(self):
        psp = np.stack([np.ones(8), 2 * np.ones(8)])  # 2 channels
        stats = voltage_stats(np.array([1.0, 0.5]) @ psp)
        assert stats.mean == pytest.approx(2.0)


def make_stats(mean, std, peak):
    from sswim.hidden import VoltageStats

    return VoltageStats(mean=mean, std=std, peak=peak)


class TestNormalizeMs:
    def test_hand_values(self):
        norm = normalize_ms(make_stats(2.0, 4.0, 100.0), 0.5, 0.5)
        assert norm.scale == pytest.approx(0.125)
        assert norm.bias == pytest.approx(0.25)
        assert norm.cost_value == pytest.approx(-1.5)

    def test_centered_case(self):
        norm = normalize_ms(make_stats(0.0, 1.0, 50.0), 0.5, 0.5)
        assert norm.scale == pytest.approx(0.5)
        assert norm.bias == pytest.approx(0.5)

    def test_silence_correction_hits_threshold_exactly(self):
        # choose stats so the post-scaling peak lands at 0.9
        stats = make_stats(0.0, 1.0, 0.8)  # alpha=0.5, base bias 0.5 -> peak 0.9
        norm = normalize_ms(stats, 0.5, 0.5, sc_eps=0.0)
        assert norm.scale * stats.peak + norm.bias == pytest.approx(1.0)

    def test_degenerate_std_rejected(self):
        with pytest.raises(DegenerateNeuronError):
            normalize_ms(make_stats(1.0, 0.0, 1.0), 0.5, 0.5)

    def test_bad_targets_rejected(self):
        with pytest.raises(ValueError):
            normalize_ms(make_stats(0.0, 1.0, 1.0), 1.5, 0.5)
        with pytest.raises(ValueError):
            normalize_ms(make_stats(0.0, 1.0, 1.0), 0.5, 0.0)


class TestNormalizeFl:
    def test_hand_values(self):
        norm = normalize_fl(make_stats(0.0, 0.5, 10.0), z=2.0)
        assert norm.scale == 1.0
        assert norm.bias == pytest.approx(0.0)
        assert norm.cost_value == pytest.approx(-1.5)

    def test_zero_std_puts_mean_at_threshold(self):
        norm = normalize_fl(make_stats(0.3, 0.0, 5.0), z=1.0)
        assert norm.bias == pytest.approx(0.7)

    def test_no_correction_when_peak_clears_threshold(self):
        norm = normalize_fl(make_stats(0.0, 0.5, 10.0), z=2.0)
        assert norm.bias == pytest.approx(1.0 - 2.0 * 0.5 - 0.0)


class TestNormalizationPostcondition:
    def test_ms_prescribes_stats_exactly(self):
        rng = np.random.default_rng(28)
        traces = rng.normal(size=(40, 64)) * rng.uniform(0.5, 2.0) + 5.0
        traces[3, 10] = 40.0  # keep the silence correction inactive
        stats = voltage_stats(traces)
        norm = normalize_ms(stats, 0.5, 0.5)
        after = voltage_stats(norm.scale * traces + norm.bias)
        assert after.mean == pytest.approx(0.5, abs=1e-9)
        assert after.std == pytest.approx(0.5, abs=1e-9)

    def test_fl_relation_holds(self):
        rng = np.random.default_rng(29)
        traces = rng.normal(size=(40, 64)) * 2.0 + 3.0
        traces[0, 0] = 60.0
        stats = voltage_stats(traces)
        z = 1.5
        norm = normalize_fl(stats, z=z)
        after = voltage_stats(norm.scale * traces + norm.bias)
        assert after.mean == pytest.approx(1.0 - z * after.std, abs=1e-9)


def desk_cfg(**overrides):
    defaults = dict(subbatch=40, sigma_min=3.0, sigma_max=10.0, sigma_cycle=4,
                    weight_criterion="dot", normalizer="ms")
    defaults.update(overrides)
    return SswimConfig(**defaults)


def small_latents(rng, m=40, channels=3, steps=48):
    t = np.arange(steps)
    base = np.stack([
        np.sin(2 * np.pi * t / p) for p in rng.uniform(8, 24, size=channels)
    ])
    batch = base[None] * rng.uniform(0.5, 1.5, size=(m, channels, 1))
    batch += 0.1 * rng.normal(size=batch.shape)
    batch[:, :, 36:] = 0.0  # forecast part of the grid carries no input
    return batch


class TestBuildHiddenLayer:
    def build(self, criterion="dot", normalizer="ms", seed=30, n_neurons=12):
        rng = np.random.default_rng(seed)
        latents = small_latents(rng)
        targets = rng.normal(size=(40, 2, 12))
        cfg = desk_cfg(weight_criterion=criterion, normalizer=normalizer)
        l2 = Pseudometric(EmbeddingSpec("l2"))
        layer, info = build_hidden_layer(
            1, 1, n_neurons, pspk(KernelFamily.HAT), rfk(KernelFamily.EXP),
            latents, obs_len=36, horizon=12,
            pairs=None if criterion == "random" else pair_probabilities(latents, targets, l2, l2),
            cfg=cfg, rng=np.random.default_rng(seed + 1),
        )
        return layer, info, latents

    def test_layer_shapes_and_ranges(self):
        layer, _, _ = self.build()
        assert layer.weights.shape == (12, 3)
        assert np.all(layer.support >= 3.0) and np.all(layer.support <= 10.0)
        assert np.all(layer.delay >= 0) and np.all(layer.delay < 18.0)
        assert np.all(layer.spike_cost <= 0)
        np.testing.assert_array_equal(layer.rf_support, np.full(12, 3.0))

    def test_every_neuron_reaches_threshold(self):
        from sswim.network import hidden_drive_batch

        layer, _, latents = self.build()
        full = hidden_drive_batch(layer, latents)
        assert full.max(axis=(0, 2)).min() >= 1.0

    def test_every_neuron_spikes(self):
        layer, _, latents = self.build()
        spiked, _ = simulate_hidden_batch(layer, latents)
        per_neuron = spiked.sum(axis=(0, 2))
        assert per_neuron.min() >= 1

    def test_deterministic_given_seed(self):
        l1, _, _ = self.build(seed=33)
        l2, _, _ = self.build(seed=33)
        np.testing.assert_array_equal(l1.weights, l2.weights)
        np.testing.assert_array_equal(l1.bias, l2.bias)
        np.testing.assert_array_equal(l1.spike_cost, l2.spike_cost)

    @pytest.mark.parametrize("criterion", ["dist", "dot", "random"])
    @pytest.mark.parametrize("normalizer", ["ms", "fl"])
    def test_all_criteria_and_normalizers_build(self, criterion, normalizer):
        layer, _, _ = self.build(criterion=criterion, normalizer=normalizer)
        assert np.all(np.isfinite(layer.weights))
        assert np.all(np.isfinite(layer.bias))

    @pytest.mark.parametrize("criterion", ["dist", "dot", "random"])
    def test_a_spike_mask_builds_the_layer_of_its_float_copy(self, criterion):
        rng = np.random.default_rng(34)
        mask = small_latents(rng, channels=6) > 0.4   # as a layer above the first reads
        l2 = Pseudometric(EmbeddingSpec("l2"))
        pairs = None if criterion == "random" else pair_probabilities(
            mask.astype(float), rng.normal(size=(40, 2, 12)), l2, l2)
        built = []
        for latents in (mask, mask.astype(float)):
            layer, info = build_hidden_layer(
                2, 2, 12, pspk(KernelFamily.HAT), rfk(KernelFamily.EXP), latents,
                obs_len=36, horizon=12, pairs=pairs,
                cfg=desk_cfg(weight_criterion=criterion), rng=np.random.default_rng(35),
            )
            built.append([a.tobytes() for a in (layer.weights, layer.bias, layer.spike_cost)]
                         + [info["pairs"]])
        assert built[0] == built[1]

    def test_ms_spike_cost_scales_with_target(self):
        layer, _, _ = self.build(normalizer="ms")
        # q(0) = 1 for the decaying exponential, so cost = -3 * std target
        np.testing.assert_allclose(layer.spike_cost, -1.5)


def duplicate_pair_distribution(n_samples: int, weight: float) -> PairProbabilities:
    """Every pair equally likely, except (1, 0), ``weight`` times as likely."""
    dist_out = np.ones((n_samples, n_samples))
    dist_out[1, 0] = weight
    return pair_probabilities_from_matrices(np.ones_like(dist_out), dist_out, 0.0)


def split_layer(criterion, duplicates=False, max_retries=8, n_neurons=24, layer_seed=49,
                layer_index=1, normalizer="ms"):
    """A layer's bytes, its chosen pairs and the stream's state after it."""
    rng = np.random.default_rng(40)
    latents = small_latents(rng, m=30)
    targets = rng.normal(size=(30, 2, 12))
    if duplicates:
        # samples 0 and 1 have equal inputs: the dist criterion of the pair
        # (1, 0) is zero, so a neuron that draws it is retried
        latents[1] = latents[0]
        pairs = duplicate_pair_distribution(30, 40.0)
    elif criterion == "random":
        pairs = None
    else:
        l2 = Pseudometric(EmbeddingSpec("l2"))
        pairs = pair_probabilities(latents, targets, l2, l2)
    layer_rng = np.random.default_rng(layer_seed)
    layer, info = build_hidden_layer(
        layer_index, layer_index, n_neurons, pspk(KernelFamily.HAT), rfk(KernelFamily.EXP),
        latents, obs_len=36, horizon=12, pairs=pairs,
        cfg=desk_cfg(weight_criterion=criterion, normalizer=normalizer, max_retries=max_retries),
        rng=layer_rng,
    )
    params = (layer.weights, layer.bias, layer.spike_cost)
    return [a.tobytes() for a in params], info["pairs"], layer_rng.bit_generator.state


def serial_duplicate_draws(n_neurons=24, seed=49, layer_index=1):
    """The per-neuron reference of a layer whose (1, 0) pairs are retried:
    each neuron's first draw comes from the layer's stream in neuron order,
    and a (1, 0) pair is drawn again from the neuron's own generator, seeded
    by the stream's seed, the layer and the neuron. Returns the chosen
    pairs, the stream's state after the layer and the retried neurons."""
    pairs = duplicate_pair_distribution(30, 40.0)
    rng = np.random.default_rng(seed)
    first = [sample_pair(pairs, rng) for _ in range(n_neurons)]
    chosen, retried = [], []
    for i, pair in enumerate(first):
        if pair == (1, 0):
            retried.append(i)
            own = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(layer_index, i)))
            while pair == (1, 0):
                pair = sample_pair(pairs, own)
        chosen.append(pair)
    return chosen, rng.bit_generator.state, retried


def settled_alone(monkeypatch, **kwargs):
    """``split_layer("dist", ...)`` with every neuron settled alone, in
    order, and the size of each split the build asked for."""
    passes = []

    def one_neuron_per_range(fn, n, size, allocate):
        passes.append(n)
        for i in range(n):
            fn(i, i + 1, allocate())

    with monkeypatch.context() as patch:
        patch.setattr(hidden, "_split_run", one_neuron_per_range)
        return split_layer("dist", **kwargs), passes


class TestSplitHiddenBuild:
    """A hidden layer's neurons give the same bits on any number of threads."""

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

    @pytest.mark.parametrize("criterion", ["dot", "dist", "random"])
    def test_layer_is_the_same_on_any_thread_count(self, cpus, criterion):
        # 40 neurons: two full blocks and one of 8, cut anywhere by the ranges
        for n_neurons in (24, 40):
            cpus(1)
            serial = split_layer(criterion, n_neurons=n_neurons)
            for workers in self.WORKERS:
                cpus(workers)
                got = split_layer(criterion, n_neurons=n_neurons)
                assert got == serial, f"{n_neurons} neurons, {workers} threads"

    def test_retried_neuron_mid_range_gives_the_serial_layer(self, monkeypatch, cpus):
        chosen, state, retried = serial_duplicate_draws()
        first = retried[0]
        assert len(retried) > 1
        alone, _ = settled_alone(monkeypatch, duplicates=True)
        assert alone[1:] == (chosen, state)
        for workers in [1] + self.WORKERS:
            cpus(workers)
            # with _MIN_SLICE = 1 the work size does not limit the split
            starts = [lo for lo, _ in network._split_ranges(24, 24)]
            assert first not in starts, "the retried neuron must sit inside a range"
            assert split_layer("dist", duplicates=True) == alone, f"{workers} threads"

    # fl accepts any voltage, so only the failed pair itself stops a neuron
    @pytest.mark.parametrize("normalizer", ["ms", "fl"])
    def test_retried_neuron_inside_the_second_block_gives_the_serial_layer(
            self, monkeypatch, cpus, normalizer):
        chosen, state, retried = serial_duplicate_draws(40, seed=45)
        first = retried[0]
        assert hidden.NEURON_BLOCK < first < 2 * hidden.NEURON_BLOCK
        assert first % hidden.NEURON_BLOCK, "the retried neuron must not start a block"
        retried_layer = dict(duplicates=True, n_neurons=40, layer_seed=45, normalizer=normalizer)
        alone, _ = settled_alone(monkeypatch, **retried_layer)
        assert alone[1:] == (chosen, state)
        for workers in [1] + self.WORKERS:
            cpus(workers)
            starts = [lo for lo, _ in network._split_ranges(40, 40)]
            assert first not in starts, "the retried neuron must sit inside a range"
            assert split_layer("dist", **retried_layer) == alone, f"{workers} threads"

    @pytest.mark.parametrize("workers", [1, 3])
    def test_neurons_after_a_retry_share_products_with_the_bytes_of_one_each(
            self, monkeypatch, cpus, workers):
        """The neurons after a retried one are settled in the same block
        products, with the bytes a loop gives that settles each neuron alone,
        and the layer is split once however many neurons retry."""
        retried_layer = dict(duplicates=True, n_neurons=40, layer_seed=45)
        alone, passes = settled_alone(monkeypatch, **retried_layer)
        assert len(serial_duplicate_draws(40, seed=45)[2]) > 1
        assert passes == [40], "one split per layer"
        cpus(workers)
        assert split_layer("dist", **retried_layer) == alone

    def test_retried_neurons_in_two_threads_ranges_give_the_serial_layer(self, monkeypatch,
                                                                         cpus):
        # a second layer: the retries' generators are seeded by the layer too
        chosen, state, retried = serial_duplicate_draws(layer_index=2)
        alone, _ = settled_alone(monkeypatch, duplicates=True, layer_index=2)
        assert alone[1:] == (chosen, state)
        for workers in self.WORKERS:
            cpus(workers)
            ranges = network._split_ranges(24, 24)
            holding = {k for k, (lo, hi) in enumerate(ranges) for i in retried if lo <= i < hi}
            assert len(holding) > 1, f"{workers} threads: retries in one range only"
            assert split_layer("dist", duplicates=True, layer_index=2) == alone, f"{workers} threads"

    def test_retries_do_not_advance_the_layer_stream(self, cpus):
        """The stream moves one draw per neuron however many neurons retry,
        so a later layer's draws do not depend on this layer's retries."""
        assert serial_duplicate_draws()[2], "some neuron must retry"
        rng = np.random.default_rng(49)
        pairs = duplicate_pair_distribution(30, 40.0)
        for _ in range(24):
            sample_pair(pairs, rng)
        for workers in [1] + self.WORKERS:
            cpus(workers)
            assert split_layer("dist", duplicates=True)[2] == rng.bit_generator.state

    @pytest.mark.parametrize("workers", [1] + WORKERS)
    def test_exhausted_retries_name_the_neuron(self, monkeypatch, cpus, workers):
        first = serial_duplicate_draws()[2][0]
        cpus(workers)
        for layer_index in (1, 2):
            with pytest.raises(DegenerateNeuronError,
                               match=f"^neuron {first} stayed degenerate"):
                split_layer("dist", duplicates=True, max_retries=0, layer_index=layer_index)
        # the pipeline names the layer, once: every pair of the second layer
        # is a sample with itself, whose dist criterion is zero
        build = train.build_hidden_layer

        def second_draws_duplicates(layer_index, *args):
            if layer_index == 2:
                monkeypatch.setattr(hidden, "sample_pair", lambda pairs, rng: (0, 0))
            return build(layer_index, *args)

        monkeypatch.setattr(train, "build_hidden_layer", second_draws_duplicates)
        dataset = make_windows(synth_dataset("multisine", 2, 420, seed=7), obs_len=24, horizon=8)
        cfg = SswimConfig(subbatch=60, sigma_min=3.0, sigma_max=12.0, sigma_cycle=5,
                          weight_criterion="dist", max_retries=0)
        with pytest.raises(PipelineError) as info:
            train_sswim(dataset, ModelArch(hidden=(12, 10)), cfg, seed=11)
        assert info.value.layer == 2
        assert str(info.value) == ("phase 'hidden_build' failed: layer 2: "
                                   "neuron 0 stayed degenerate after 0 retries")

    def test_worker_error_names_the_phase(self, monkeypatch, cpus):
        threads = []

        def fail(*args, **kwargs):
            threads.append(threading.current_thread())
            raise ValueError("injected")

        monkeypatch.setattr(hidden, "weight_dot", fail)
        cpus(2)
        dataset = make_windows(synth_dataset("multisine", 2, 420, seed=7), obs_len=24, horizon=8)
        cfg = SswimConfig(subbatch=60, sigma_min=3.0, sigma_max=12.0, sigma_cycle=5)
        with pytest.raises(PipelineError, match="injected") as info:
            train_sswim(dataset, ModelArch(hidden=(25,)), cfg, seed=11)
        assert info.value.phase == "hidden_build"
        assert info.value.layer == 1
        assert threads and threading.main_thread() not in threads


@pytest.mark.parametrize("binary", [False, True], ids=["real", "zero-one"])
def test_block_drives_match_the_per_neuron_reference(monkeypatch, binary):
    """Each neuron's drive, taken from its block's product, is the weighted
    input sum of its direction alone; the bits depend on the BLAS build."""
    rng = np.random.default_rng(61)
    if binary:   # spike masks, as a second layer sees them
        latents = (rng.random((30, 40, 48)) < 0.2).astype(float)
    else:
        latents = small_latents(rng, m=30)
    seen = []
    normalize = hidden._normalize

    def record(drive, conv, cfg, scratch):
        seen.append(drive.copy())
        return normalize(drive, conv, cfg, scratch)

    monkeypatch.setattr(hidden, "_normalize", record)
    monkeypatch.setattr(network, "available_cpus", lambda: 1)   # neurons in order
    n_neurons = 2 * hidden.NEURON_BLOCK + 3
    build_hidden_layer(
        1, 1, n_neurons, pspk(KernelFamily.HAT), rfk(KernelFamily.EXP), latents,
        obs_len=36, horizon=12, pairs=None, cfg=desk_cfg(weight_criterion="random"),
        rng=np.random.default_rng(62),
    )
    draws = np.random.default_rng(62)
    directions = [weight_random(latents.shape[1], draws) for _ in range(n_neurons)]
    assert len(seen) == n_neurons
    for w, drive in zip(directions, seen):
        np.testing.assert_allclose(drive, np.einsum("p,mpg->mg", w, latents), rtol=1e-12)
