"""Construction of hidden layers: temporal parameters, weights, normalization.

Each hidden layer is built without gradients in four moves:

1. delays are spread linearly over a layer-dependent range and supports
   cycle through a small-to-large ladder, so multiple time scales coexist;
2. for every neuron a pair of samples is drawn from the pair distribution
   and a unit weight vector is taken from a small symmetric eigenproblem
   that either maximizes the separation of the pair's voltage traces or
   minimizes their overlap;
3. the expected temporal mean/std of the resulting voltage over the
   initialization batch is measured in one streaming pass;
4. scale and bias are solved so the voltage statistics hit their targets,
   with a bias bump ("silence correction") guaranteeing that the peak
   voltage reaches the firing threshold at least once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNeuronError, TrivialPairError
from .kernels import KernelSpec
from .network import LayerParams, kernel_conv_stack
from .sampling import PairProbabilities, Pseudometric, pair_probabilities, sample_pair

STD_FLOOR = 1e-12


@dataclass
class TemporalAssignment:
    delay: np.ndarray       # (neurons,)
    support: np.ndarray     # (neurons,)
    rf_support: np.ndarray  # (neurons,)


def temporal_assignment(layer_index: int, n_layers: int, n_neurons: int,
                        obs_len: int, horizon: int,
                        sigma_min: float, sigma_max: float,
                        n_sigma: int) -> TemporalAssignment:
    """Delays linearly spaced over a layer-scaled range, supports cycled.

    The maximal delay is half the observation length when observations are
    at least as long as the horizon, and the horizon otherwise, so an
    interval of recent activity always reaches the forecast window.
    """
    if sigma_min <= 0 or sigma_max < sigma_min:
        raise ValueError("need 0 < sigma_min <= sigma_max")
    if n_sigma < 2:
        raise ValueError("support cycle length must be at least 2")
    if n_neurons < 1:
        raise ValueError("layer needs at least one neuron")
    if obs_len <= 0 or horizon <= 0:
        raise ValueError("observation length and horizon must be positive")
    tau_max = obs_len / 2.0 if obs_len >= horizon else float(horizon)
    idx = np.arange(n_neurons)
    delay = idx / n_neurons * (layer_index * tau_max / n_layers)
    support = (idx % n_sigma) / (n_sigma - 1) * (sigma_max - sigma_min) + sigma_min
    rf_support = np.full(n_neurons, float(sigma_min))
    return TemporalAssignment(delay=delay, support=support, rf_support=rf_support)


# ---------------------------------------------------------------------------
# weight criteria


def _fix_sign(w: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component positive for reproducibility."""
    k = int(np.argmax(np.abs(w)))
    return -w if w[k] < 0 else w


def separation_matrix(psi1: np.ndarray, psi2: np.ndarray) -> np.ndarray:
    diff = psi1 - psi2
    return diff @ diff.T


def overlap_matrix(psi1: np.ndarray, psi2: np.ndarray) -> np.ndarray:
    cross = psi1 @ psi2.T
    return 0.5 * (cross + cross.T)


def weight_dist(psi1: np.ndarray, psi2: np.ndarray) -> np.ndarray:
    """Unit vector maximizing the squared voltage separation of a pair."""
    psi1 = np.atleast_2d(np.asarray(psi1, dtype=float))
    psi2 = np.atleast_2d(np.asarray(psi2, dtype=float))
    if psi1.shape != psi2.shape:
        raise ValueError("pair contributions must have equal shapes")
    if np.array_equal(psi1, psi2):
        raise TrivialPairError("identical contributions give a zero criterion matrix")
    a = separation_matrix(psi1, psi2)
    _, vecs = np.linalg.eigh(a)
    return _fix_sign(vecs[:, -1])


def weight_dot(psi1: np.ndarray, psi2: np.ndarray) -> np.ndarray:
    """Unit vector minimizing the voltage overlap of a pair."""
    psi1 = np.atleast_2d(np.asarray(psi1, dtype=float))
    psi2 = np.atleast_2d(np.asarray(psi2, dtype=float))
    if psi1.shape != psi2.shape:
        raise ValueError("pair contributions must have equal shapes")
    a = overlap_matrix(psi1, psi2)
    if not np.any(a):
        w = np.zeros(psi1.shape[0])
        w[0] = 1.0
        return w
    _, vecs = np.linalg.eigh(a)
    return _fix_sign(vecs[:, 0])


def weight_random(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Standard-normal direction, normalized to unit length."""
    while True:
        w = rng.standard_normal(dim)
        norm = np.linalg.norm(w)
        if norm > 0.0:
            return w / norm


# ---------------------------------------------------------------------------
# voltage statistics (single pass)


@dataclass
class VoltageStats:
    """Expected temporal mean/std over samples, and the global raw peak."""

    mean: float
    std: float
    peak: float
    n_samples: int = 0


class VoltageStatsAccumulator:
    """Streams per-sample voltage traces; memory independent of sample count.

    Per-sample temporal variance is computed on the (in-memory) trace after
    subtracting its own mean, so large common offsets do not cancel
    catastrophically; across samples only O(1)-magnitude aggregates are
    summed.
    """

    def __init__(self):
        self._n = 0
        self._mean_of_means = 0.0
        self._mean_of_stds = 0.0
        self._peak = -np.inf

    def add_trace(self, trace: np.ndarray) -> None:
        trace = np.asarray(trace, dtype=float)
        if trace.ndim == 1:
            trace = trace[None, :]
        means = trace.mean(axis=1)
        stds = np.sqrt(np.mean((trace - means[:, None]) ** 2, axis=1))
        for m, s in zip(means, stds):
            self._n += 1
            self._mean_of_means += (m - self._mean_of_means) / self._n
            self._mean_of_stds += (s - self._mean_of_stds) / self._n
        self._peak = max(self._peak, float(trace.max()))

    def result(self) -> VoltageStats:
        if self._n == 0:
            raise ValueError("no traces were accumulated")
        return VoltageStats(
            mean=self._mean_of_means,
            std=self._mean_of_stds,
            peak=self._peak,
            n_samples=self._n,
        )


# ---------------------------------------------------------------------------
# normalizers


@dataclass
class NormalizerResult:
    scale: float       # alpha > 0, multiplies the unit weight vector
    bias: float        # beta, includes any silence correction
    cost_value: float  # gamma <= 0, numerator of the spike cost


def _silence_correction(post_peak: float, sc_eps: float) -> float:
    if post_peak < 1.0:
        return (1.0 + sc_eps) - post_peak
    return 0.0


def normalize_ms(stats: VoltageStats, mu_target: float, std_target: float,
                 sc_eps: float = 1e-9) -> NormalizerResult:
    """Prescribe the voltage's expected temporal mean and std outright."""
    if not mu_target < 1.0:
        raise ValueError("target mean must lie below the threshold 1")
    if std_target <= 0.0:
        raise ValueError("target std must be positive")
    if stats.std < STD_FLOOR:
        raise DegenerateNeuronError(
            f"voltage trace is constant (std {stats.std:.3e}); cannot rescale"
        )
    scale = std_target / stats.std
    base_bias = mu_target - std_target * stats.mean / stats.std
    post_peak = scale * stats.peak + base_bias
    delta_sc = _silence_correction(post_peak, sc_eps)
    return NormalizerResult(
        scale=scale, bias=base_bias + delta_sc, cost_value=-3.0 * std_target
    )


def normalize_fl(stats: VoltageStats, z: float, sc_eps: float = 1e-9) -> NormalizerResult:
    """Keep the std as is; put the mean ``z`` standard deviations below 1."""
    if z <= 0.0:
        raise ValueError("fluctuation factor z must be positive")
    base_bias = 1.0 - z * stats.std - stats.mean
    post_peak = stats.peak + base_bias
    delta_sc = _silence_correction(post_peak, sc_eps)
    return NormalizerResult(
        scale=1.0, bias=base_bias + delta_sc, cost_value=-3.0 * stats.std
    )


# ---------------------------------------------------------------------------
# layer assembly


def build_hidden_layer(layer_index: int, n_layers: int, n_neurons: int,
                       pspk_spec: KernelSpec, rfk_spec: KernelSpec,
                       latents: np.ndarray, targets: np.ndarray,
                       obs_len: int, horizon: int,
                       d_in: Pseudometric, d_out: Pseudometric,
                       cfg, rng: np.random.Generator,
                       chunk: int = 256) -> tuple[LayerParams, dict]:
    """Assemble one hidden layer over the initialization batch.

    ``latents`` is the dense (samples, channels, steps) output of the
    previous layer (the padded input for the first layer), ``targets`` the
    dense forecast targets. ``cfg`` supplies the temporal bounds, weight
    criterion, normalizer and sampling constants.

    Neurons whose sampled pair yields a degenerate criterion or a constant
    voltage are retried with fresh pairs up to ``cfg.max_retries`` times.
    """
    assign = temporal_assignment(
        layer_index, n_layers, n_neurons, obs_len, horizon,
        cfg.sigma_min, cfg.sigma_max, cfg.sigma_cycle,
    )
    n_samples, n_prev, n_steps = latents.shape

    pairs: PairProbabilities | None = None
    if cfg.weight_criterion != "random":
        pairs = pair_probabilities(
            latents, targets, d_in, d_out,
            eps=cfg.epsilon, min_norm=cfg.min_norm,
        )

    q0 = rfk_spec.evaluate(0.0)
    if q0 == 0.0:
        raise ValueError("refractory kernel must be nonzero at the origin")

    weights = np.empty((n_neurons, n_prev))
    bias = np.empty(n_neurons)
    cost = np.empty(n_neurons)
    chosen_pairs = []

    convs = kernel_conv_stack(pspk_spec, assign.delay, assign.support, n_steps)
    for i in range(n_neurons):
        conv = convs[i]
        for attempt in range(cfg.max_retries + 1):
            try:
                if cfg.weight_criterion == "random":
                    w_dir = weight_random(n_prev, rng)
                    pair = None
                else:
                    pair = sample_pair(pairs, rng)
                    psi1 = latents[pair[0]] @ conv.T
                    psi2 = latents[pair[1]] @ conv.T
                    if cfg.weight_criterion == "dist":
                        w_dir = weight_dist(psi1, psi2)
                    elif cfg.weight_criterion == "dot":
                        w_dir = weight_dot(psi1, psi2)
                    else:
                        raise ValueError(
                            f"unknown weight criterion: {cfg.weight_criterion!r}"
                        )
                acc = VoltageStatsAccumulator()
                for lo in range(0, n_samples, chunk):
                    block = latents[lo: lo + chunk]
                    traces = np.einsum("p,mpg->mg", w_dir, block) @ conv.T
                    acc.add_trace(traces)
                stats = acc.result()
                if cfg.normalizer == "ms":
                    norm = normalize_ms(stats, cfg.mu_target, cfg.std_target, cfg.sc_epsilon)
                elif cfg.normalizer == "fl":
                    norm = normalize_fl(stats, cfg.z_target, cfg.sc_epsilon)
                else:
                    raise ValueError(f"unknown normalizer: {cfg.normalizer!r}")
                break
            except (TrivialPairError, DegenerateNeuronError):
                if attempt == cfg.max_retries:
                    raise DegenerateNeuronError(
                        f"neuron {i} stayed degenerate after {cfg.max_retries} retries"
                    )
        weights[i] = norm.scale * w_dir
        bias[i] = norm.bias
        cost[i] = norm.cost_value / q0
        chosen_pairs.append(pair)

    layer = LayerParams(
        weights=weights,
        bias=bias,
        delay=assign.delay,
        support=assign.support,
        pspk=pspk_spec,
        spike_cost=cost,
        rf_support=assign.rf_support,
        rfk=rfk_spec,
    )
    return layer, {"pairs": chosen_pairs}
