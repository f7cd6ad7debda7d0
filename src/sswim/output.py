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

The support search and the normal equations run on every available CPU
through ``network._split_run``: each thread scores one contiguous range of
support candidates, or accumulates one range of (delay, support) groups,
into a design buffer the caller allocated for it. Each candidate's and
each group's BLAS calls, and the order in which a group sums its batches,
are those of the serial loop, so residuals, Gram matrices and model files
are bit for bit the same on any CPU count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EigensolverError, LambdaSearchError, SilentNetworkError
from .kernels import KernelSpec, PlacedKernel, kernel_peak_offset
from .network import _split_ranges, _split_run, kernel_conv_matrix


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


@dataclass
class SupportCandidates:
    values: np.ndarray
    alpha: float
    bounds: tuple
    count: int


def support_candidates(lo: float, hi: float, alpha: float, count: int) -> SupportCandidates:
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
    values = ((1.0 - frac) * lo ** (1.0 / alpha) + frac * hi ** (1.0 / alpha)) ** alpha
    return SupportCandidates(values=values, alpha=alpha, bounds=(lo, hi), count=count)


def assemble_design(dense_combs: np.ndarray, pk: PlacedKernel,
                    window: tuple[int, int], out: np.ndarray | None = None) -> np.ndarray:
    """Stacked design matrix: a ones column plus one kernel-response column
    per hidden neuron, rows running over samples x window steps.

    The kernel is the window rows of ``kernel_conv_matrix``. Each sample's
    (W, G) @ (G, N_L) product is written straight into its rows of the
    design. With ``out``, a C-contiguous float buffer of at least that many
    elements, the design is written into its leading elements and returned
    as a view of them, so a caller that scores many designs allocates one."""
    n_samples, n_hidden, n_steps = dense_combs.shape
    shape = (n_samples, window[1] - window[0], n_hidden + 1)
    size = shape[0] * shape[1] * shape[2]
    if out is None:
        out = np.empty(size)
    elif out.dtype != float or not out.flags.c_contiguous or out.size < size:
        raise ValueError(f"out must be a C-contiguous float buffer of at least {size} elements")
    k = np.asfortranarray(kernel_conv_matrix(pk, n_steps)[window[0]: window[1]])
    design = out.reshape(-1)[:size].reshape(shape)
    design[..., 0] = 1.0
    np.matmul(k, dense_combs.transpose(0, 2, 1), out=design[..., 1:])
    return design.reshape(-1, n_hidden + 1)


def _stack_targets(targets: np.ndarray) -> np.ndarray:
    """(samples, d_out, H) -> (samples * H, d_out) matching design row order."""
    return targets.transpose(0, 2, 1).reshape(-1, targets.shape[1])


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


def residual_for_candidate(mask: np.ndarray, targets: np.ndarray,
                           tau_bar: float, sigma_c: float,
                           pspk_spec: KernelSpec) -> np.ndarray:
    """Optimal least-squares residual norms per output neuron for one support.

    ``mask`` is a boolean (samples, neurons, steps) array and ``targets``
    (samples, d_out, H) on its last H steps.
    """
    design = assemble_design(mask.astype(float), PlacedKernel(pspk_spec, tau_bar, sigma_c),
                             _target_window(mask, targets))
    return projection_residuals(design, _stack_targets(targets))


def select_supports(mask: np.ndarray, targets: np.ndarray, delays: DelayEstimate,
                    candidates: SupportCandidates, pspk_spec: KernelSpec) -> np.ndarray:
    """Residual-minimizing support per output neuron over the candidate grid.

    ``mask`` is a boolean (samples, neurons, steps) array and ``targets``
    (samples, d_out, H) on its last H steps. Each candidate's design is
    scored for all output neurons at once by ``projection_residuals``. Ties
    resolve to the smallest candidate: a candidate is tied with the best
    when its residual exceeds the best by at most max(rows, cols) * eps *
    ||y||^2, the rounding error of a residual computed from a design of
    that shape.
    """
    window = _target_window(mask, targets)
    combs = mask.astype(float)
    stacked = _stack_targets(targets)
    n_rows, n_features = stacked.shape[0], combs.shape[1] + 1
    residuals = np.empty((candidates.count, targets.shape[1]))
    ranges = _split_ranges(candidates.count, candidates.count * n_rows * n_features)
    designs = {lo: np.empty(n_rows * n_features) for lo, _ in ranges}

    def score(lo, hi):
        for c in range(lo, hi):
            pk = PlacedKernel(pspk_spec, delays.aggregate, float(candidates.values[c]))
            design = assemble_design(combs, pk, window, out=designs[lo])
            residuals[c] = projection_residuals(design, stacked)

    _split_run(score, ranges)
    tol = max(n_rows, n_features) * np.finfo(float).eps * np.sum(stacked**2, axis=0)
    tied = residuals <= residuals.min(axis=0) + tol
    return candidates.values[np.argmax(tied, axis=0)]


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


@dataclass
class NormalEquations:
    """Per-output-neuron accumulators, deduplicated over equal (delay, support)."""

    groups: list            # list of GramAccumulator
    group_of_neuron: list   # neuron index -> (group index, target column)

    def accumulator_for(self, neuron: int) -> tuple[GramAccumulator, int]:
        g, col = self.group_of_neuron[neuron]
        return self.groups[g], col


def _dedupe_params(delays: np.ndarray, supports: np.ndarray):
    groups = {}
    group_of_neuron = []
    members = []
    for i, key in enumerate(zip(delays.tolist(), supports.tolist())):
        if key not in groups:
            groups[key] = len(members)
            members.append([])
        g = groups[key]
        group_of_neuron.append((g, len(members[g])))
        members[g].append(i)
    keys = list(groups)
    return keys, members, group_of_neuron


def accumulate_normal_equations(batches, delays: np.ndarray, supports: np.ndarray,
                                pspk_spec: KernelSpec) -> NormalEquations:
    """Stream (mask, targets) batches into per-neuron normal equations.

    ``batches`` yields tuples of a boolean (samples, neurons, steps) spike
    mask and the matching (samples, d_out, H) targets on its last H steps.
    Neurons sharing the same (delay, support) share one Gram matrix; the
    full stacked design is never materialized.
    """
    delays = np.asarray(delays, dtype=float)
    supports = np.asarray(supports, dtype=float)
    keys, members, group_of_neuron = _dedupe_params(delays, supports)
    accs = combs = None
    for mask, targets in batches:
        window = _target_window(mask, targets)
        stacked = _stack_targets(targets)
        n_features = mask.shape[1] + 1
        if accs is None:
            accs = [GramAccumulator(n_features, len(m)) for m in members]
        if combs is None or combs.shape[0] < mask.shape[0]:
            # sized by the largest batch so far; smaller ones use its leading samples
            combs = np.empty(mask.shape)
            ranges = _split_ranges(len(members), len(members) * stacked.shape[0] * n_features)
            designs = {lo: np.empty(stacked.shape[0] * n_features) for lo, _ in ranges}
        batch = combs[: mask.shape[0]]
        np.copyto(batch, mask)

        def add(lo, hi):
            for g in range(lo, hi):
                pk = PlacedKernel(pspk_spec, keys[g][0], keys[g][1])
                design = assemble_design(batch, pk, window, out=designs[lo])
                accs[g].add_block(design, stacked[:, members[g]], batch.shape[0])

        _split_run(add, ranges)
    if accs is None:
        raise ValueError("no batches were streamed")
    return NormalEquations(groups=accs, group_of_neuron=group_of_neuron)


def lambda_grid(count: int = 32, lo: float = 1e-5, hi: float = 0.5) -> np.ndarray:
    """Logarithmically spaced ridge candidates."""
    if count < 1:
        raise ValueError("need at least one candidate")
    if not 0.0 < lo <= hi:
        raise ValueError("need 0 < lo <= hi")
    if count == 1:
        return np.array([lo])
    return np.logspace(np.log10(lo), np.log10(hi), count)


def solve_with_lambda_search(train_ne: NormalEquations, valid_ne: NormalEquations,
                             lambdas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ridge solve per output neuron with validation-selected regularization.

    One symmetric eigendecomposition of the training Gram per neuron covers
    every candidate: with gram = V diag(e) V^T the ridge solution for
    candidate lam is V diag(1/(e + M*lam)) V^T rhs. Candidates are scored
    by the validation quadratic loss; ties keep the larger lambda. A neuron
    whose losses are all NaN raises LambdaSearchError naming it.

    Returns (weights (d_out, n_hidden), bias (d_out,), chosen lambda (d_out,)).
    """
    lambdas = np.asarray(lambdas, dtype=float)
    n_neurons = len(train_ne.group_of_neuron)
    n_features = train_ne.groups[0].n_features
    weights = np.empty((n_neurons, n_features - 1))
    bias = np.empty(n_neurons)
    chosen = np.empty(n_neurons)
    eig_cache = {}
    for i in range(n_neurons):
        g, col = train_ne.group_of_neuron[i]
        acc = train_ne.groups[g]
        vacc, vcol = valid_ne.accumulator_for(i)
        if g not in eig_cache:
            sym = 0.5 * (acc.gram + acc.gram.T)
            try:
                eig_cache[g] = np.linalg.eigh(sym)
            except np.linalg.LinAlgError as exc:
                raise EigensolverError(
                    f"eigendecomposition failed for output neuron {i}: {exc}", neuron=i
                ) from exc
        evals, evecs = eig_cache[g]
        rhs = acc.rhs[:, col]
        rot_rhs = evecs.T @ rhs
        best_loss = np.inf
        best_p = None
        best_lam = None
        for lam in lambdas:
            p = evecs @ (rot_rhs / (evals + acc.count * lam))
            loss = p @ (vacc.gram @ p) - 2.0 * (p @ vacc.rhs[:, vcol]) + vacc.target_sq[vcol]
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
