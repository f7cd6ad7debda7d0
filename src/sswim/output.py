"""Output-layer fitting: delays, kernel supports, and ridge weights.

Spikes are boolean (samples, neurons, steps) masks, and targets are
(samples, d_out, H) arrays on the forecast window, which is the mask's last
H steps; every function that gets both reads the window from their shapes.

Delays come from a correlation analysis: the centered target is summed at
every spike time shifted by a candidate lag, the magnitudes aggregated
over samples and hidden neurons, and the lag of the peak taken. Every lag
curve of a sample comes from one product: the mask's sliding windows of
H steps, one per lag, times the centered target. Kernel
supports come from a one-dimensional search over a power-law candidate
grid, scored by the exact least-squares residual of a design matrix shared
by all output neurons, solved from one eigendecomposition of its Gram
matrix per candidate. The final weights and biases solve ridge-regularized
normal equations accumulated in batches, with the regularization strength
selected on a validation split via a single symmetric eigendecomposition
per neuron.

Every design is built from the boolean mask, cast to float
``network.BLOCK`` samples at a time into a scratch buffer, so no float
copy of a whole mask is made; each sample's product is the one a whole
float copy would give.

The support search and the normal equations run through one design loop,
``_over_designs``, which splits the (delay, support) keys, support
candidates or output neurons, over threads with ``network._split_run``.
Each key's BLAS calls, and the order in which a neuron sums its batches,
are those of a serial loop, so residuals, Gram matrices and model files
are bit for bit the same on any CPU count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EigensolverError, LambdaSearchError, SilentNetworkError
from .kernels import KernelSpec, PlacedKernel, kernel_peak_offset
from .network import BLOCK, _leading, _split_run, kernel_conv_matrix


# ---------------------------------------------------------------------------
# delays


@dataclass
class DelayEstimate:
    per_neuron: np.ndarray   # (d_out,) delay per output neuron, in steps
    aggregate: float         # shared delay used for the support search


def _aggregate_delays(delays: np.ndarray, how: str) -> float:
    if how == "median":
        return float(np.median(delays))
    if how == "min":
        return float(np.min(delays))
    raise ValueError(f"unknown delay aggregation: {how!r}")


def _target_window(mask: np.ndarray, targets: np.ndarray) -> tuple[int, int]:
    """The forecast window [T, T+H): the mask's last ``targets.shape[2]`` steps."""
    n_steps = mask.shape[2]
    if mask.shape[0] != targets.shape[0]:
        raise ValueError("one spike mask per sample is required")
    if n_steps <= targets.shape[2]:
        raise ValueError("the spike mask needs at least one step before the target window")
    return n_steps - targets.shape[2], n_steps


def estimate_delays(mask: np.ndarray, targets: np.ndarray, pspk_spec: KernelSpec,
                    aggregation: str = "median") -> DelayEstimate:
    """Correlation-based delay per output neuron.

    ``mask`` is the hidden-layer output on the initialization batch, a
    boolean (samples, neurons, steps) array, and ``targets`` is
    (samples, d_out, H) on the mask's last H steps. For each candidate lag
    in [0, O), O = steps - H, the centered target is evaluated at every
    spike time plus the lag (zero outside its window), magnitudes are
    aggregated over samples and neurons, and the peak lag wins. Ties fall
    to the smallest lag.
    """
    n_lags = _target_window(mask, targets)[0]
    if not mask.any():
        raise SilentNetworkError("no hidden spikes; delays cannot be estimated")
    horizon = targets.shape[2]
    centered = targets - targets.mean(axis=2, keepdims=True)
    agg = np.zeros((n_lags, targets.shape[1]))
    for sample_mask, target in zip(mask, centered):
        # windows[j, lag, h] = mask[j, O - lag + h]: the spikes that the lag
        # carries onto target step h
        windows = sliding_window_view(sample_mask.astype(float), horizon, axis=-1)[:, n_lags:0:-1]
        agg += np.abs(windows @ target.T).sum(axis=0)
    delta_k = kernel_peak_offset(pspk_spec)
    per_neuron = np.clip(np.argmax(agg, axis=0) - delta_k, 0.0, n_lags - 1)
    return DelayEstimate(per_neuron=per_neuron,
                         aggregate=_aggregate_delays(per_neuron, aggregation))


# ---------------------------------------------------------------------------
# support candidates and the residual search


def support_candidates(lo: float, hi: float, alpha: float, count: int) -> np.ndarray:
    """Power-law spaced candidates between ``lo`` and almost ``hi``.

    The grid is linear in x**(1/alpha): the first point equals ``lo``
    exactly while the last stops short of ``hi`` by one grid fraction.
    """
    if lo < 0 or hi <= lo:
        raise ValueError("need 0 <= lo < hi")
    if alpha < 1.0:
        raise ValueError("spacing exponent must be at least 1")
    if count < 2:
        raise ValueError("need at least two candidates")
    m = np.arange(1, count + 1)
    frac = (m - 1) / count
    return ((1.0 - frac) * lo ** (1.0 / alpha) + frac * hi ** (1.0 / alpha)) ** alpha


def _check_buffer(buf: np.ndarray, size: int, name: str) -> None:
    if buf.dtype != float or not buf.flags.c_contiguous or buf.size < size:
        raise ValueError(f"{name} must be a C-contiguous float buffer of at least {size} elements")


def _cast_scratch(mask: np.ndarray) -> np.ndarray:
    """A buffer for one ``BLOCK`` of ``mask``'s samples as floats."""
    return np.empty(min(BLOCK, mask.shape[0]) * mask.shape[1] * mask.shape[2])


def assemble_design(mask: np.ndarray, pk: PlacedKernel, window: tuple[int, int],
                    out: np.ndarray | None = None,
                    scratch: np.ndarray | None = None) -> np.ndarray:
    """Stacked design matrix: a ones column plus one kernel-response column
    per hidden neuron, rows running over samples x window steps.

    The kernel is the window rows of ``kernel_conv_matrix``. The mask is
    cast to float ``BLOCK`` samples at a time into ``scratch``, and each
    sample's (W, G) @ (G, N_L) product is written straight into its rows of
    the design. With ``out``, a C-contiguous float buffer of at least that
    many elements, the design is written into its leading elements and
    returned as a view of them, so a caller that scores many designs
    allocates one; ``scratch`` is such a buffer for one block of samples."""
    n_samples, n_hidden, n_steps = mask.shape
    shape = (n_samples, window[1] - window[0], n_hidden + 1)
    size = math.prod(shape)
    if out is None:
        out = np.empty(size)
    _check_buffer(out, size, "out")
    if scratch is None:
        scratch = _cast_scratch(mask)
    _check_buffer(scratch, min(BLOCK, n_samples) * n_hidden * n_steps, "scratch")
    k = np.asfortranarray(kernel_conv_matrix(pk, n_steps)[window[0]: window[1]])
    design = _leading(out, shape)
    design[..., 0] = 1.0
    for lo in range(0, n_samples, BLOCK):
        hi = min(lo + BLOCK, n_samples)
        block = _leading(scratch, (hi - lo, n_hidden, n_steps))
        np.copyto(block, mask[lo: hi])
        np.matmul(k, block.transpose(0, 2, 1), out=design[lo: hi, :, 1:])
    return design.reshape(-1, n_hidden + 1)


def _stack_targets(targets: np.ndarray) -> np.ndarray:
    """(samples, d_out, H) -> (samples * H, d_out) matching design row order."""
    return targets.transpose(0, 2, 1).reshape(-1, targets.shape[1])


def _over_designs(batches: list, keys: list, pspk_spec: KernelSpec, fn) -> None:
    """Call ``fn(k, design, stacked_targets, n_samples)`` for every
    (delay, support) pair ``keys[k]`` and every (mask, targets) batch of
    ``batches``, in batch order for each key.

    The keys are split over threads; each thread assembles its designs
    into one design buffer and one cast scratch, both sized for the largest
    batch.
    """
    windows = [_target_window(mask, targets) for mask, targets in batches]
    stacked = [_stack_targets(targets) for _, targets in batches]
    largest = max((mask for mask, _ in batches), key=len)
    n_features = largest.shape[1] + 1
    n_rows = max(len(y) for y in stacked)

    def run(lo, hi, buffers):
        design_buf, scratch = buffers
        for k in range(lo, hi):
            pk = PlacedKernel(pspk_spec, *keys[k])
            for (mask, _), window, y in zip(batches, windows, stacked):
                design = assemble_design(mask, pk, window, out=design_buf, scratch=scratch)
                fn(k, design, y, mask.shape[0])

    _split_run(run, len(keys), len(keys) * sum(len(y) for y in stacked) * n_features,
               lambda: (np.empty(n_rows * n_features), _cast_scratch(largest)))


def projection_residuals(design: np.ndarray, stacked_targets: np.ndarray) -> np.ndarray:
    """Least-squares residual ||y - A c||^2 per target column.

    The minimum-norm coefficients come from the eigendecomposition of the
    Gram matrix, G = A^T A = V diag(e) V^T: c = V diag(1/e) V^T A^T y over
    the eigenpairs with e > max(A.shape) * eps * e_max. Silent neurons give
    zero columns, so G is often singular. The residual is formed directly
    from y - A c, because ||y||^2 - b^T G^+ b cancels catastrophically when
    y lies almost in the span of A.
    """
    evals, evecs = np.linalg.eigh(design.T @ design)
    keep = evals > max(design.shape) * np.finfo(float).eps * evals[-1]
    v = evecs[:, keep]
    coef = v @ ((v.T @ (design.T @ stacked_targets)) / evals[keep, None])
    return np.sum((stacked_targets - design @ coef) ** 2, axis=0)


def select_supports(mask: np.ndarray, targets: np.ndarray, delays: DelayEstimate,
                    candidates: np.ndarray, pspk_spec: KernelSpec) -> np.ndarray:
    """Residual-minimizing support per output neuron over the candidate grid.

    ``mask`` is a boolean (samples, neurons, steps) array and ``targets``
    (samples, d_out, H) on its last H steps. Each candidate's design is
    scored for all output neurons at once by ``projection_residuals``. Ties
    resolve to the smallest candidate: a candidate is tied with the best
    when its residual exceeds the best by at most max(rows, cols) * eps *
    ||y||^2, the rounding error of a residual computed from a design of
    that shape.
    """
    residuals = np.empty((len(candidates), targets.shape[1]))
    keys = [(delays.aggregate, float(value)) for value in candidates]

    def score(c, design, stacked, n_samples):
        residuals[c] = projection_residuals(design, stacked)

    _over_designs([(mask, targets)], keys, pspk_spec, score)
    stacked = _stack_targets(targets)
    n_rows, n_features = stacked.shape[0], mask.shape[1] + 1
    tol = max(n_rows, n_features) * np.finfo(float).eps * np.sum(stacked**2, axis=0)
    tied = residuals <= residuals.min(axis=0) + tol
    return candidates[np.argmax(tied, axis=0)]


# ---------------------------------------------------------------------------
# batched normal equations


@dataclass
class GramAccumulator:
    """Streaming sums for ridge normal equations over one design geometry.

    Holds the Gram matrix of the stacked design, the right-hand sides for
    any number of target columns, the targets' squared norms, and the
    number of samples seen. Peak memory is independent of how many samples
    stream through.
    """

    n_features: int
    n_targets: int
    gram: np.ndarray = field(init=False)
    rhs: np.ndarray = field(init=False)
    target_sq: np.ndarray = field(init=False)
    count: int = 0

    def __post_init__(self):
        self.gram = np.zeros((self.n_features, self.n_features))
        self.rhs = np.zeros((self.n_features, self.n_targets))
        self.target_sq = np.zeros(self.n_targets)

    def add_block(self, design: np.ndarray, targets: np.ndarray, n_samples: int) -> None:
        if design.shape[1] != self.n_features:
            raise ValueError("design block has the wrong number of columns")
        if targets.shape != (design.shape[0], self.n_targets):
            raise ValueError("target block shape does not match the design block")
        self.gram += design.T @ design
        self.rhs += design.T @ targets
        self.target_sq += np.sum(targets**2, axis=0)
        self.count += n_samples


def accumulate_normal_equations(batches, delays: np.ndarray, supports: np.ndarray,
                                pspk_spec: KernelSpec) -> list:
    """Sum (mask, targets) batches into one accumulator per output neuron.

    ``batches`` yields tuples of a boolean (samples, neurons, steps) spike
    mask and the matching (samples, d_out, H) targets on its last H steps.
    Neuron i's one-column accumulator sums the Gram matrix of its design,
    at its own (delay, support), one batch at a time, with its target
    column as the right-hand side; the full stacked design is never
    materialized. Returns the accumulators in neuron order.
    """
    batches = list(batches)
    if not batches:
        raise ValueError("no batches were given")
    keys = list(zip(np.asarray(delays, dtype=float).tolist(),
                    np.asarray(supports, dtype=float).tolist()))
    accs = [GramAccumulator(batches[0][0].shape[1] + 1, 1) for _ in keys]

    def add(i, design, stacked, n_samples):
        accs[i].add_block(design, stacked[:, i:i + 1], n_samples)

    _over_designs(batches, keys, pspk_spec, add)
    return accs


def lambda_grid(count: int = 32, lo: float = 1e-5, hi: float = 0.5) -> np.ndarray:
    """Logarithmically spaced ridge candidates."""
    if count < 1:
        raise ValueError("need at least one candidate")
    if not 0.0 < lo <= hi:
        raise ValueError("need 0 < lo <= hi")
    if count == 1:
        return np.array([lo])
    return np.logspace(np.log10(lo), np.log10(hi), count)


def solve_with_lambda_search(train: list, valid: list, lambdas: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ridge solve per output neuron with validation-selected regularization.

    ``train`` and ``valid`` are the per-neuron accumulators of
    ``accumulate_normal_equations`` on the training and the validation
    split. One symmetric eigendecomposition of neuron i's training Gram
    covers every candidate: with gram = V diag(e) V^T the ridge solution
    for candidate lam is V diag(1/(e + M*lam)) V^T rhs. Candidates are
    scored by the validation quadratic loss; ties keep the larger lambda.
    A failed eigendecomposition raises EigensolverError, and losses that
    are all NaN raise LambdaSearchError, each naming the neuron.

    Returns (weights (d_out, n_hidden), bias (d_out,), chosen lambda (d_out,)).
    """
    lambdas = np.asarray(lambdas, dtype=float)
    n_neurons = len(train)
    weights = np.empty((n_neurons, train[0].n_features - 1))
    bias = np.empty(n_neurons)
    chosen = np.empty(n_neurons)
    for i, (acc, vacc) in enumerate(zip(train, valid)):
        try:
            evals, evecs = np.linalg.eigh(0.5 * (acc.gram + acc.gram.T))
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(
                f"eigendecomposition failed for output neuron {i}: {exc}", neuron=i
            ) from exc
        rot_rhs = evecs.T @ acc.rhs[:, 0]
        best_loss = np.inf
        best_p = None
        best_lam = None
        for lam in lambdas:
            p = evecs @ (rot_rhs / (evals + acc.count * lam))
            loss = p @ (vacc.gram @ p) - 2.0 * (p @ vacc.rhs[:, 0]) + vacc.target_sq[0]
            if loss <= best_loss:
                best_loss = loss
                best_p = p
                best_lam = lam
        if best_p is None:
            raise LambdaSearchError(
                f"every validation loss of output neuron {i} is non-finite", neuron=i
            )
        bias[i] = best_p[0]
        weights[i] = best_p[1:]
        chosen[i] = best_lam
    return weights, bias, chosen


def condition_bound_diagnostic(acc: GramAccumulator, lam: float,
                               spike_counts: np.ndarray, window_len: int,
                               kernel_sq_norm: float) -> float:
    """Closed-form upper bound on the ridge system's condition number.

    The ones column contributes ``window_len`` per sample and each spike at
    most one full copy of the discretized kernel, so the bound is
    1 + window_len / lam + kernel_sq_norm * sum(|T|^2) / (count * lam).
    Purely diagnostic.
    """
    if lam <= 0.0:
        raise ValueError("the bound requires a positive regularization")
    counts_sq = float(np.sum(np.asarray(spike_counts, dtype=float) ** 2))
    return 1.0 + window_len / lam + kernel_sq_norm * counts_sq / (acc.count * lam)
