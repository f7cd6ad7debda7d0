"""Construction of hidden layers: temporal parameters, weights, normalization.

Each hidden layer is built without gradients in four moves:

1. delays are spread linearly over a layer-dependent range and supports
   cycle through a small-to-large ladder, so multiple time scales coexist;
2. for every neuron a pair of samples is drawn from the pair distribution
   and a unit weight vector is taken from a small symmetric eigenproblem
   that either maximizes the separation of the pair's voltage traces or
   minimizes their overlap;
3. the expected temporal mean/std of the resulting voltage over the
   initialization batch is measured in one pass;
4. scale and bias are solved so the voltage statistics hit their targets,
   with a bias bump ("silence correction") guaranteeing that the peak
   voltage reaches the firing threshold at least once.

Given its draw, a neuron depends on no other, so moves 2-4 run on every
available CPU through ``network._split_run``, one contiguous range of
neurons per thread, each with its own ``_NeuronScratch``. A range walks
its neurons in blocks of ``NEURON_BLOCK``: move 2 gives each neuron of a
block its direction, one product per sample then makes the input sums of
the whole block, and moves 3-4 normalize its neurons one by one. So the
initialization batch is read once per block, not once per neuron. The
random stream stays serial: the calling thread makes every neuron's first
draw in neuron order before any thread starts. A neuron that must be
retried is settled alone on the calling thread, with the stream rewound
to its draw, and the neurons after it are drawn and split over threads
again. Every product has the shape the serial loop gives it, so layers,
and model files, are bit for bit the same on any CPU count.

The eigenproblem of move 2 is (inputs, inputs), but the pair's responses
psi1, psi2 are (inputs, steps), so its answer lies in the span of their
2 x steps columns wherever it is unique. A layer with more inputs than that
span, such as a second layer of 250 neurons over 72 steps, solves it
there: ``weight_dot`` takes a thin QR of [psi1 psi2] and a (2 steps,
2 steps) problem, ``weight_dist`` a (steps, steps) one. ``weight_dot``
falls back to the full matrix when its criterion has no negative
eigenvalue, since the span then holds no unique answer. Directions agree
with the full solve to rounding, not in every bit, so a wide layer's
weights depend on which path it takes; a first layer, with its few
inputs, always takes the full one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNeuronError, TrivialPairError
from .kernels import KernelSpec
from .network import LayerParams, _leading, _split_run, kernel_conv_stack
from .sampling import PairProbabilities, sample_pair

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


# ``out`` (inputs, inputs) receives the criterion matrix and ``work`` its
# intermediate: psi1's shape for the separation, (inputs, inputs) for the
# overlap, which also holds the span [psi1 psi2] of ``weight_dot``'s wide
# path. Both are optional; the layer builder passes buffers it owns.


def separation_matrix(psi1: np.ndarray, psi2: np.ndarray, out=None, work=None) -> np.ndarray:
    diff = np.subtract(psi1, psi2, out=work)
    return np.matmul(diff, diff.T, out=out)


def overlap_matrix(psi1: np.ndarray, psi2: np.ndarray, out=None, work=None) -> np.ndarray:
    cross = np.matmul(psi1, psi2.T, out=work)
    out = np.add(cross, cross.T, out=out)
    out *= 0.5
    return out


def weight_dist(psi1: np.ndarray, psi2: np.ndarray, out=None, work=None) -> np.ndarray:
    """Unit vector maximizing the squared voltage separation of a pair: the
    top eigenvector of D Dᵀ, D = psi1 - psi2.

    With more inputs than steps it is solved on the span of D's columns:
    D v / |D v| for the top eigenvector v of the (steps, steps) DᵀD, and
    ``out`` goes unused. A narrower layer solves the full matrix.
    """
    psi1 = np.atleast_2d(np.asarray(psi1, dtype=float))
    psi2 = np.atleast_2d(np.asarray(psi2, dtype=float))
    if psi1.shape != psi2.shape:
        raise ValueError("pair contributions must have equal shapes")
    if np.array_equal(psi1, psi2):
        raise TrivialPairError("identical contributions give a zero criterion matrix")
    n_prev, n_steps = psi1.shape
    if n_prev > n_steps:
        diff = np.subtract(psi1, psi2, out=work)
        _, vecs = np.linalg.eigh(diff.T @ diff)
        w = diff @ vecs[:, -1]
        return _fix_sign(w / np.linalg.norm(w))
    a = separation_matrix(psi1, psi2, out, work)
    _, vecs = np.linalg.eigh(a)
    return _fix_sign(vecs[:, -1])


def _dot_on_span(psi1: np.ndarray, psi2: np.ndarray, work) -> np.ndarray | None:
    """``weight_dot``'s direction from the span of P = [psi1 psi2], which is
    built in ``work``. With P = QR and R = [R1 R2] the overlap matrix is
    A = Q S Qᵀ, S = ½(R1 R2ᵀ + R2 R1ᵀ), so for S's smallest eigenpair
    (λ, u) the direction is w = Q u. None unless λ is clearly negative:
    A's smallest eigenvalue is 0 otherwise, and the span holds no unique
    answer."""
    n_prev, n_steps = psi1.shape
    span = None if work is None else _leading(work, (n_prev, 2 * n_steps))
    r = np.linalg.qr(np.concatenate((psi1, psi2), axis=1, out=span), mode="r")
    r1, r2 = r[:, :n_steps], r[:, n_steps:]
    s = r1 @ r2.T
    s = s + s.T
    s *= 0.5
    vals, vecs = np.linalg.eigh(s)
    # S is rounded by at most about n eps |R1| |R2|: an eigenvalue above
    # minus that may be a zero
    tol = len(s) * np.finfo(float).eps * np.linalg.norm(r1) * np.linalg.norm(r2)
    if not vals[0] < -tol:
        return None
    # Q is never formed: w = A w / λ, and psi_kᵀ w = R_kᵀ u, so w is
    # (psi1 R2ᵀu + psi2 R1ᵀu) / 2λ. On 40 draws of deep's second layer (one
    # SkylakeX vCPU, OpenBLAS on 1 thread) this took 2.8 ms against 3.8 ms
    # for Q u, and met the full solve within 8.3e-15 against 2.6e-14 per
    # component.
    u = vecs[:, 0]
    w = psi1 @ (r2.T @ u)
    w += psi2 @ (r1.T @ u)
    return _fix_sign(w / np.linalg.norm(w))


def weight_dot(psi1: np.ndarray, psi2: np.ndarray, out=None, work=None) -> np.ndarray:
    """Unit vector minimizing the voltage overlap of a pair: the eigenvector
    of the smallest eigenvalue of A = ½(psi1 psi2ᵀ + psi2 psi1ᵀ).

    With more inputs than twice the steps it is solved on the span of the
    pair's responses (``_dot_on_span``). Where A has no negative eigenvalue
    (A semidefinite, A zero from disjoint supports, or psi2 zero) that span
    holds no unique answer, and the full matrix is solved as for a narrower
    layer: a zero A gives the first basis vector, any other A its first
    eigenvector.
    """
    psi1 = np.atleast_2d(np.asarray(psi1, dtype=float))
    psi2 = np.atleast_2d(np.asarray(psi2, dtype=float))
    if psi1.shape != psi2.shape:
        raise ValueError("pair contributions must have equal shapes")
    n_prev, n_steps = psi1.shape
    if n_prev > 2 * n_steps:
        w = _dot_on_span(psi1, psi2, work)
        if w is not None:
            return w
    a = overlap_matrix(psi1, psi2, out, work)
    if not np.any(a):
        w = np.zeros(n_prev)
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
# voltage statistics


@dataclass
class VoltageStats:
    """Expected temporal mean/std over samples, and the global raw peak."""

    mean: float
    std: float
    peak: float


def voltage_stats(traces: np.ndarray, scratch: np.ndarray | None = None) -> VoltageStats:
    """Statistics of one trace (steps,) or a batch (samples, steps).

    Each sample's temporal variance is computed after subtracting its own
    mean, so large common offsets do not cancel catastrophically; across
    samples only running means of O(1)-magnitude aggregates are kept.
    ``scratch``, an optional array of the batch's shape, receives the
    squared deviations in place of a temporary.
    """
    traces = np.atleast_2d(np.asarray(traces, dtype=float))
    if traces.shape[0] == 0:
        raise ValueError("no traces were given")
    means = traces.mean(axis=1)
    dev = np.subtract(traces, means[:, None], out=scratch)
    np.square(dev, out=dev)
    stds = np.sqrt(dev.mean(axis=1))
    mean_of_means = mean_of_stds = 0.0
    for n, (m, s) in enumerate(zip(means.tolist(), stds.tolist()), start=1):
        mean_of_means += (m - mean_of_means) / n
        mean_of_stds += (s - mean_of_stds) / n
    return VoltageStats(mean=mean_of_means, std=mean_of_stds, peak=float(traces.max()))


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


# Neurons per drive product. Every product has this many rows, the rows of
# a short block zero, and neuron i takes row ``i % NEURON_BLOCK`` whichever
# thread's range it falls in, because OpenBLAS picks its gemm kernel by
# matrix size: a product of another row count could round a neuron's drive
# differently in the last bit, and its weights would then depend on the
# thread split or on the neurons that share its block.
NEURON_BLOCK = 16


@dataclass
class _NeuronScratch:
    """Buffers one thread reuses for every block of neurons it builds."""

    psi: np.ndarray     # (2, inputs, steps): a pair's responses
    work: np.ndarray    # the criterion's intermediate, flat
    crit: np.ndarray    # (inputs, inputs): the criterion matrix
    rows: np.ndarray    # (NEURON_BLOCK, inputs): the block's unit directions
    drives: np.ndarray  # (NEURON_BLOCK, samples, steps): their input sums
    trace: np.ndarray   # (samples, steps): one neuron's voltage traces

    @classmethod
    def allocate(cls, n_samples: int, n_prev: int, n_steps: int) -> "_NeuronScratch":
        return cls(
            psi=np.empty((2, n_prev, n_steps)),
            work=np.empty(n_prev * max(n_prev, n_steps)),
            crit=np.empty((n_prev, n_prev)),
            rows=np.empty((NEURON_BLOCK, n_prev)),
            drives=np.empty((NEURON_BLOCK, n_samples, n_steps)),
            trace=np.empty((n_samples, n_steps)),
        )


def _direction(drawn, latents: np.ndarray, conv: np.ndarray, cfg,
               scratch: _NeuronScratch) -> np.ndarray:
    """Unit weight direction of one neuron from its draw: a sample pair, or
    for the random criterion the direction itself. Raises TrivialPairError
    when the pair gives no criterion."""
    if cfg.weight_criterion == "random":
        return drawn
    n_prev, n_steps = latents.shape[1:]
    psi1, psi2 = scratch.psi
    np.matmul(latents[drawn[0]], conv.T, out=psi1)
    np.matmul(latents[drawn[1]], conv.T, out=psi2)
    if cfg.weight_criterion == "dist":
        work = scratch.work[: n_prev * n_steps].reshape(n_prev, n_steps)
        return weight_dist(psi1, psi2, scratch.crit, work)
    work = scratch.work[: n_prev * n_prev].reshape(n_prev, n_prev)
    return weight_dot(psi1, psi2, scratch.crit, work)


def _normalize(drive: np.ndarray, conv: np.ndarray, cfg,
               scratch: _NeuronScratch) -> NormalizerResult:
    """Scale and bias of one neuron from its (samples, steps) drive, which
    serves as scratch afterwards. Raises DegenerateNeuronError when the
    voltage is constant and the normalizer must rescale it."""
    traces = np.matmul(drive, conv.T, out=scratch.trace)
    stats = voltage_stats(traces, scratch=drive)
    if cfg.normalizer == "ms":
        return normalize_ms(stats, cfg.mu_target, cfg.std_target, cfg.sc_epsilon)
    return normalize_fl(stats, cfg.z_target, cfg.sc_epsilon)


def build_hidden_layer(layer_index: int, n_layers: int, n_neurons: int,
                       pspk_spec: KernelSpec, rfk_spec: KernelSpec,
                       latents: np.ndarray, obs_len: int, horizon: int,
                       pairs: PairProbabilities | None,
                       cfg, rng: np.random.Generator) -> tuple[LayerParams, dict]:
    """Assemble one hidden layer over the initialization batch.

    ``latents`` is the dense (samples, channels, steps) output of the
    previous layer (the padded input for the first layer), and ``pairs``
    the pair distribution over its samples (None for the random
    criterion, which draws no pairs). ``cfg`` supplies the temporal bounds,
    weight criterion, normalizer and retry count.

    Every neuron's first draw is made here, in neuron order; the neurons
    are then solved on threads. A neuron whose draw yields a degenerate
    criterion or a constant voltage stops its thread's range. The stream
    is then rewound to the first such neuron's draw, that neuron is
    retried on the calling thread with fresh draws up to
    ``cfg.max_retries`` times, and the neurons after it are drawn and
    solved on threads again. So the draws, the stream and the layer are
    those of a serial loop on any number of threads.
    """
    if cfg.weight_criterion not in ("dot", "dist", "random"):
        raise ValueError(f"unknown weight criterion: {cfg.weight_criterion!r}")
    if cfg.normalizer not in ("ms", "fl"):
        raise ValueError(f"unknown normalizer: {cfg.normalizer!r}")
    if (pairs is None) != (cfg.weight_criterion == "random"):
        raise ValueError("the random criterion takes no pairs, the others need them")
    assign = temporal_assignment(
        layer_index, n_layers, n_neurons, obs_len, horizon,
        cfg.sigma_min, cfg.sigma_max, cfg.sigma_cycle,
    )
    n_samples, n_prev, n_steps = latents.shape

    q0 = rfk_spec.evaluate(0.0)
    if q0 == 0.0:
        raise ValueError("refractory kernel must be nonzero at the origin")

    weights = np.empty((n_neurons, n_prev))
    bias = np.empty(n_neurons)
    cost = np.empty(n_neurons)
    chosen_pairs = [None] * n_neurons
    convs = kernel_conv_stack(pspk_spec, assign.delay, assign.support, n_steps)

    def draw():
        if cfg.weight_criterion == "random":
            return weight_random(n_prev, rng)
        return sample_pair(pairs, rng)

    def settle(lo, hi, drawn, scratch):
        """Solve the neurons lo..hi-1 of one block from their draws, in
        order, with one drive product. Returns the first neuron that gives
        none, the ones before it settled, or None."""
        rows, drives = scratch.rows, scratch.drives
        rows.fill(0.0)
        stop = hi
        for i in range(lo, hi):
            try:
                rows[i % NEURON_BLOCK] = _direction(drawn[i - lo], latents, convs[i], cfg, scratch)
            except (TrivialPairError, DegenerateNeuronError):
                stop = i
                break
        # neuron-major, so that each neuron's drive is one contiguous
        # (samples, steps) array: a 4-input, 250-neuron layer over 1000
        # samples built in 0.23-0.29 s, against 0.30-0.36 s from strided views
        np.matmul(rows, latents, out=drives.transpose(1, 0, 2))
        for i in range(lo, stop):
            j = i % NEURON_BLOCK
            try:
                norm = _normalize(drives[j], convs[i], cfg, scratch)
            except (TrivialPairError, DegenerateNeuronError):
                return i
            weights[i] = norm.scale * rows[j]
            bias[i] = norm.bias
            cost[i] = norm.cost_value / q0
            if pairs is not None:
                chosen_pairs[i] = drawn[i - lo]
        return stop if stop < hi else None

    def allocate():
        return _NeuronScratch.allocate(n_samples, n_prev, n_steps)

    states, draws = [None] * n_neurons, [None] * n_neurons

    def solve_from(start):
        """Draw for the neurons start.. in order, then settle them on
        threads. Returns the first neuron that gives none, or None."""
        for i in range(start, n_neurons):
            states[i] = rng.bit_generator.state
            draws[i] = draw()
        failed = []

        def solve(lo, hi, scratch):
            lo, hi = start + lo, start + hi
            ends = range(lo - lo % NEURON_BLOCK + NEURON_BLOCK, hi, NEURON_BLOCK)
            bounds = [lo, *ends, hi]
            for b, e in zip(bounds, bounds[1:]):
                bad = settle(b, e, draws[b:e], scratch)
                if bad is not None:
                    failed.append(bad)
                    return

        # Counted: the criterion's (inputs, steps) x (steps, inputs)
        # products. The rest of a neuron's work (many small numpy calls, the
        # statistics' per-sample loop) mostly holds the GIL: on 2 vCPUs a
        # 4-input, 250-neuron layer over 60 or 200 samples built 1.1-1.4x
        # slower on two threads than on one.
        n = n_neurons - start
        _split_run(solve, n, n * n_prev * n_prev * n_steps, allocate)
        return min(failed, default=None)

    start = 0
    while start < n_neurons:
        first = solve_from(start)
        if first is None:
            break
        rng.bit_generator.state = states[first]
        scratch = allocate()
        for _ in range(cfg.max_retries + 1):
            if settle(first, first + 1, [draw()], scratch) is None:
                break
        else:
            raise DegenerateNeuronError(
                f"layer {layer_index}: neuron {first} stayed degenerate "
                f"after {cfg.max_retries} retries"
            )
        start = first + 1

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
