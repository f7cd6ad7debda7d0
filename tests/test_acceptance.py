"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Oracle values are computed independently inside each test
(dense solvers, Monte-Carlo search, hand constructions); the desk-scale
reference error was measured once with this implementation and is pinned.

Run with ``pytest tests/test_acceptance.py -s`` to see the line per
criterion as it completes.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from sswim.config import ModelArch, SswimConfig
from sswim.datasets import make_windows, synth_dataset
from sswim.hidden import (
    VoltageStatsAccumulator,
    build_hidden_layer,
    normalize_fl,
    normalize_ms,
    separation_matrix,
    weight_dist,
    weight_dot,
)
from sswim.kernels import KernelFamily, PlacedKernel, pspk, rfk
from sswim.network import hidden_drive_batch, simulate_hidden_batch
from sswim.output import (
    DelayEstimate,
    accumulate_normal_equations,
    assemble_design,
    estimate_delays,
    lambda_grid,
    residual_for_candidate,
    select_supports,
    solve_with_lambda_search,
    support_candidates,
)
from sswim.sampling import (
    EmbeddingSpec,
    PairProbabilities,
    Pseudometric,
    VanRossumLift,
    pair_probabilities,
    shannon_entropy,
)
from sswim.signals import SpikeTrainSet
from sswim.train import serialize_model_bytes, train_sswim

# Desk-scale reference: mean test error of this implementation on the
# 4-variable multisine task below (3 seeds), measured once and pinned.
DESK_REFERENCE_RSE = 0.5691
DESK_SEEDS = (1, 2, 3)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


# ---------------------------------------------------------------------------
# shared fixtures (desk-scale runs are expensive; compute once per session)


@pytest.fixture(scope="session")
def desk_dataset():
    series = synth_dataset("multisine", 4, 2944, seed=2026)
    return make_windows(series, obs_len=64, horizon=24)


def _desk_runs(dataset, criterion_name, neurons):
    cfg = SswimConfig(weight_criterion=criterion_name)
    arch = ModelArch(hidden=(neurons,), pspk="hat")
    return [train_sswim(dataset, arch, cfg, seed) for seed in DESK_SEEDS]


@pytest.fixture(scope="session")
def desk_runs_dot250(desk_dataset):
    return _desk_runs(desk_dataset, "dot", 250)


@pytest.fixture(scope="session")
def desk_runs_random250(desk_dataset):
    return _desk_runs(desk_dataset, "random", 250)


@pytest.fixture(scope="session")
def desk_runs_dot50(desk_dataset):
    return _desk_runs(desk_dataset, "dot", 50)


def random_spike_sets(rng, n_samples, n_neurons, n_steps, lo, hi):
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


def planted_targets(spike_sets, weights, tau, sigma, window):
    pk = PlacedKernel(pspk(KernelFamily.HAT), tau, sigma)
    lo, hi = window
    t = np.arange(lo, hi, dtype=float)
    out = np.zeros((len(spike_sets), weights.shape[0], hi - lo))
    for n, spikes in enumerate(spike_sets):
        psp = np.zeros((spikes.n_neurons, hi - lo))
        for j, train in enumerate(spikes.trains):
            for s in train:
                psp[j] += pk.sample_at(t - s)
        out[n] = weights @ psp
    return out


# ---------------------------------------------------------------------------


def test_criterion_01_eigencriterion_oracle():
    with criterion(1, "eigencriterion-oracle"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(20):
            psi1 = rng.normal(size=(3, 32))
            psi2 = rng.normal(size=(3, 32))
            draws = rng.normal(size=(100_000, 3))
            draws /= np.linalg.norm(draws, axis=1, keepdims=True)

            w = weight_dist(psi1, psi2)
            diff = psi1 - psi2
            achieved = float(np.sum((w @ diff) ** 2))
            mc = np.sum((draws @ diff) ** 2, axis=1)
            assert achieved >= mc.max() * (1.0 - 1e-12)
            evals, evecs = np.linalg.eigh(diff @ diff.T)
            ref = evecs[:, -1]
            assert min(np.linalg.norm(w - ref), np.linalg.norm(w + ref)) <= 1e-8

            w = weight_dot(psi1, psi2)
            achieved = float(np.sum((w @ psi1) * (w @ psi2)))
            mc = np.sum((draws @ psi1) * (draws @ psi2), axis=1)
            assert achieved <= mc.min() + 1e-12 * abs(mc.min())
            cross = psi1 @ psi2.T
            evals, evecs = np.linalg.eigh(0.5 * (cross + cross.T))
            ref = evecs[:, 0]
            assert min(np.linalg.norm(w - ref), np.linalg.norm(w + ref)) <= 1e-8
        assert time.perf_counter() - start < 10.0


def test_criterion_02_separation_spectrum_nonnegative():
    with criterion(2, "separation-spectrum-nonnegative"):
        rng = np.random.default_rng(102)
        for _ in range(100):
            channels = int(rng.integers(2, 6))
            psi1 = rng.normal(size=(channels, 24)) * rng.uniform(0.1, 10.0)
            psi2 = rng.normal(size=(channels, 24)) * rng.uniform(0.1, 10.0)
            evals = np.linalg.eigvalsh(separation_matrix(psi1, psi2))
            assert evals.min() >= -1e-10


def test_criterion_03_normalization_exactness():
    with criterion(3, "normalization-exactness"):
        rng = np.random.default_rng(103)
        for _ in range(10):
            traces = rng.normal(size=(30, 48)) * rng.uniform(0.2, 5.0) + rng.normal()
            traces[0, 0] += 1000.0  # keeps the silence correction inactive

            acc = VoltageStatsAccumulator()
            acc.add_trace(traces)
            norm = normalize_ms(acc.result(), 0.5, 0.5)
            after = VoltageStatsAccumulator()
            after.add_trace(norm.scale * traces + norm.bias)
            stats = after.result()
            assert abs(stats.mean - 0.5) <= 1e-9
            assert abs(stats.std - 0.5) <= 1e-9

            z = float(rng.uniform(0.5, 3.0))
            norm = normalize_fl(acc.result(), z)
            after = VoltageStatsAccumulator()
            after.add_trace(norm.scale * traces + norm.bias)
            stats = after.result()
            assert abs(stats.mean - (1.0 - z * stats.std)) <= 1e-9


def test_criterion_04_silence_correction():
    with criterion(4, "silence-correction"):
        rng = np.random.default_rng(104)
        t = np.arange(48)
        latents = np.stack([
            np.sin(2 * np.pi * t[None, :] / p) * a
            for p, a in zip(rng.uniform(8, 24, 30), rng.uniform(0.02, 0.3, 30))
        ]).reshape(30, 1, 48) * np.ones((30, 3, 48))
        latents += 0.01 * rng.normal(size=latents.shape)
        latents[:, :, 36:] = 0.0
        targets = rng.normal(size=(30, 2, 12))
        cfg = SswimConfig(subbatch=30, sigma_min=3.0, sigma_max=10.0, sigma_cycle=4)
        l2 = Pseudometric(EmbeddingSpec("l2"))
        layer, _ = build_hidden_layer(
            1, 1, 16, pspk(KernelFamily.HAT), rfk(KernelFamily.EXP),
            latents, obs_len=36, horizon=12,
            pairs=pair_probabilities(latents, targets, l2, l2),
            cfg=cfg, rng=np.random.default_rng(1),
        )
        drive = hidden_drive_batch(layer, latents)  # no refractory term
        assert drive.max(axis=(0, 2)).min() >= 1.0
        spiked, _ = simulate_hidden_batch(layer, latents)
        assert spiked.sum(axis=(0, 2)).min() >= 1


def test_criterion_05_qr_residual_identity():
    with criterion(5, "qr-residual-identity"):
        rng = np.random.default_rng(105)
        for _ in range(20):
            n_samples = int(rng.integers(2, 6))
            n_hidden = int(rng.integers(2, 6))
            spike_sets = random_spike_sets(rng, n_samples, n_hidden, 24, 2, 8)
            targets = rng.normal(size=(n_samples, 2, 8))
            tau = float(rng.uniform(0, 6))
            sigma = float(rng.uniform(2, 8))
            got = residual_for_candidate(masks_of(spike_sets), targets, tau, sigma,
                                         pspk(KernelFamily.HAT))
            design = assemble_design(
                np.stack([s.to_dense() for s in spike_sets]),
                PlacedKernel(pspk(KernelFamily.HAT), tau, sigma), (16, 24),
            )
            stacked = targets.transpose(0, 2, 1).reshape(-1, 2)
            for i in range(2):
                sol, *_ = np.linalg.lstsq(design, stacked[:, i], rcond=None)
                ref = float(np.sum((design @ sol - stacked[:, i]) ** 2))
                assert got[i] == pytest.approx(ref, rel=1e-8, abs=1e-9)


def test_criterion_06_batched_normal_equations_and_spectral_search():
    with criterion(6, "batched-normal-equations"):
        rng = np.random.default_rng(106)
        for _ in range(10):
            m = int(rng.integers(4, 21))
            horizon = int(rng.integers(4, 17))
            n_hidden = int(rng.integers(2, 9))
            total = 2 * horizon + 6
            window = (total - horizon, total)
            spike_sets = random_spike_sets(rng, m, n_hidden, total, 2, 8)
            targets = rng.normal(size=(m, 1, horizon))
            tau = float(rng.uniform(0, 4))
            sigma = float(rng.uniform(2, 8))
            mask = masks_of(spike_sets)
            batches = [
                (mask[: m // 2], targets[: m // 2]),
                (mask[m // 2:], targets[m // 2:]),
            ]
            ne = accumulate_normal_equations(
                iter(batches), np.array([tau]), np.array([sigma]),
                pspk(KernelFamily.HAT),
            )
            design = assemble_design(
                np.stack([s.to_dense() for s in spike_sets]),
                PlacedKernel(pspk(KernelFamily.HAT), tau, sigma), window,
            )
            stacked = targets.transpose(0, 2, 1).reshape(-1, 1)
            lams = lambda_grid(6, 1e-4, 0.5)
            for lam in lams:
                k = design.shape[1]
                dense = np.linalg.solve(
                    design.T @ design + m * lam * np.eye(k), design.T @ stacked[:, 0]
                )
                w, b, _ = solve_with_lambda_search(ne, ne, np.array([lam]))
                got = np.concatenate([[b[0]], w[0]])
                assert np.linalg.norm(got - dense) <= 1e-6 * max(np.linalg.norm(dense), 1.0)
                assert np.allclose(got, dense, rtol=1e-8, atol=1e-8)


def test_criterion_07_planted_delay_recovery():
    with criterion(7, "planted-delay-recovery"):
        rng = np.random.default_rng(107)
        obs_len, horizon = 32, 16
        total = obs_len + horizon
        hits = 0
        for _ in range(50):
            tau_star = float(rng.integers(0, obs_len - horizon))
            spike_sets = random_spike_sets(rng, 20, 4, total, 5, 9)
            weights = rng.normal(size=(1, 4))
            targets = planted_targets(spike_sets, weights, tau_star, 3.0,
                                      (obs_len, total))
            est = estimate_delays(masks_of(spike_sets), targets, pspk(KernelFamily.HAT))
            if abs(est.per_neuron[0] - tau_star) <= 1.0:
                hits += 1
        assert hits >= 45, f"only {hits}/50 planted delays recovered"


def test_criterion_08_planted_support_recovery():
    with criterion(8, "planted-support-recovery"):
        rng = np.random.default_rng(108)
        obs_len, horizon = 32, 24
        total = obs_len + horizon
        cands = support_candidates(1.0, 2.0 * horizon, 1.5, 30)
        hits = 0
        for k in range(10):
            cell = int(rng.integers(5, 25))
            sigma_star = float(cands.values[cell])
            spike_sets = random_spike_sets(rng, 20, 4, total, 4, 9)
            weights = rng.normal(size=(1, 4))
            tau = float(rng.integers(0, 6))
            targets = planted_targets(spike_sets, weights, tau, sigma_star,
                                      (obs_len, total))
            delays = DelayEstimate(per_neuron=np.array([tau]), aggregate=tau)
            got = select_supports(masks_of(spike_sets), targets, delays, cands,
                                  pspk(KernelFamily.HAT))
            picked = int(np.argmin(np.abs(cands.values - got[0])))
            if abs(picked - cell) <= 1:
                hits += 1
        assert hits >= 8, f"only {hits}/10 planted supports recovered"


def test_criterion_09_pseudometric_axioms():
    with criterion(9, "pseudometric-axioms"):
        rng = np.random.default_rng(109)
        embeddings = [
            EmbeddingSpec("l2"), EmbeddingSpec("cos"), EmbeddingSpec("mag"),
            EmbeddingSpec("phase"), EmbeddingSpec("band", (1, 8)),
        ]
        n_triples = 1000
        for spec in embeddings:
            metric = Pseudometric(spec)
            batch = rng.normal(size=(3 * n_triples, 2, 24))
            vecs = metric.prepare_batch(batch)
            vx, vy, vz = vecs[0::3], vecs[1::3], vecs[2::3]
            dxy = np.linalg.norm(vx - vy, axis=1)
            dyx = np.linalg.norm(vy - vx, axis=1)
            dxz = np.linalg.norm(vx - vz, axis=1)
            dyz = np.linalg.norm(vy - vz, axis=1)
            np.testing.assert_array_equal(dxy, dyx)
            assert np.all(np.linalg.norm(vx - vx, axis=1) == 0.0)
            assert np.all(dxz <= dxy + dyz + 1e-9)
            x0 = batch[0]
            assert metric.distance(x0, x0) == 0.0

        lift = VanRossumLift(pspk(KernelFamily.HAT), support=5.0)
        metric = Pseudometric(EmbeddingSpec("l2"), lift)
        combs = (rng.uniform(size=(3 * n_triples, 2, 30)) < 0.15).astype(float)
        vecs = metric.prepare_batch(combs)
        vx, vy, vz = vecs[0::3], vecs[1::3], vecs[2::3]
        dxy = np.linalg.norm(vx - vy, axis=1)
        dxz = np.linalg.norm(vx - vz, axis=1)
        dyz = np.linalg.norm(vy - vz, axis=1)
        np.testing.assert_array_equal(dxy, np.linalg.norm(vy - vx, axis=1))
        assert np.all(dxz <= dxy + dyz + 1e-9)
        trains = SpikeTrainSet(trains=[np.array([3, 9]), np.array([12])], n_steps=30).to_dense()
        assert metric.distance(trains, trains) == 0.0


def test_criterion_10_entropy_bounds():
    with criterion(10, "entropy-bounds"):
        assert shannon_entropy(np.full(4, 0.25)) == math.log(4)
        assert shannon_entropy(np.array([1.0, 0.0, 0.0, 0.0])) == 0.0
        n_idx, m_idx = np.tril_indices(4, k=-1)
        pairs = PairProbabilities(probs=np.full(6, 1 / 6), pair_n=n_idx,
                                  pair_m=m_idx, n_samples=4)
        assert shannon_entropy(pairs) == pytest.approx(math.log(6), abs=1e-12)
        rng = np.random.default_rng(110)
        for k in (2, 6, 33):
            p = rng.uniform(size=k)
            p /= p.sum()
            h = shannon_entropy(p)
            assert 0.0 <= h <= math.log(k) + 1e-12


def test_criterion_11_desk_scale_end_to_end(desk_runs_dot250):
    with criterion(11, "desk-scale-end-to-end"):
        errors = [report.rse["test"] for _, report in desk_runs_dot250]
        mean_rse = float(np.mean(errors))
        total_wall = sum(report.total_seconds for _, report in desk_runs_dot250)
        assert mean_rse < 1.0, "must beat the mean predictor"
        assert mean_rse <= 0.6, f"mean test RSE {mean_rse:.4f} above the 0.6 bar"
        assert abs(mean_rse - DESK_REFERENCE_RSE) <= 0.05, (
            f"mean test RSE {mean_rse:.4f} drifted from the pinned "
            f"reference {DESK_REFERENCE_RSE}"
        )
        assert total_wall < 300.0, f"three desk runs took {total_wall:.0f}s"


def test_criterion_12_ablation_echo(desk_runs_dot250, desk_runs_random250,
                                    desk_runs_dot50):
    with criterion(12, "ablation-echo"):
        mean = lambda runs: float(np.mean([rep.rse["test"] for _, rep in runs]))
        dot250 = mean(desk_runs_dot250)
        rand250 = mean(desk_runs_random250)
        dot50 = mean(desk_runs_dot50)
        assert dot250 <= rand250, (
            f"dot criterion ({dot250:.4f}) must not lose to random ({rand250:.4f})"
        )
        assert dot50 >= dot250, (
            f"error must not increase from 50 ({dot50:.4f}) to 250 ({dot250:.4f}) neurons"
        )


def test_criterion_13_determinism():
    with criterion(13, "determinism"):
        series = synth_dataset("multisine", 2, 420, seed=7)
        dataset = make_windows(series, obs_len=24, horizon=8)
        cfg = SswimConfig(subbatch=60, sigma_min=3.0, sigma_max=12.0,
                          sigma_cycle=5, support_count=8, lambda_count=6)
        arch = ModelArch(hidden=(25,))
        m1, _ = train_sswim(dataset, arch, cfg, seed=11)
        m2, _ = train_sswim(dataset, arch, cfg, seed=11)
        assert serialize_model_bytes(m1) == serialize_model_bytes(m2)
