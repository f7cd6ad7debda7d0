"""Feed-forward spike response model networks and their simulator.

A network is a stack of hidden spiking layers followed by a non-spiking
output layer. Hidden neurons accumulate kernel responses to their inputs,
pay a refractory cost for their own past spikes, and fire whenever the
voltage reaches the fixed threshold of 1. The output layer is an affine
read-out of kernel responses to the last hidden layer's spikes.

Simulation is strictly causal and discrete: one threshold test per neuron
per step, at most one spike per step, and the refractory term only ever
sees strictly past spikes. Models live on the unit-step grid: kernels are
sampled at the lags 0, 1, 2, ... through ``KernelSpec.place``, by
``kernel_conv_stack`` and ``refractory_taps``. A finer grid is the unit
grid with every delay and support divided by its step.

A hidden layer's drive is built in two products: the weights project the
inputs to one trace per neuron, then one batched ``matmul`` applies the
layer's conv stack, every neuron's (steps, steps) causal matrix copied in
one pass out of a window view of its taps by ``kernel_conv_stack``. The
refractory step loop then runs on a time-major (steps, samples, neurons)
copy of the drive, so each step reads and writes contiguous (samples,
neurons) rows; the voltage array is that copy updated in place, and the
spike mask is written step by step beside it. Both are returned as
(samples, neurons, steps) views.

The step loop applies only the costs of spikes still pending: each step
adds, with one ``np.add.at``, the cost of every spike of the last D steps
(D the longest refractory support) to its own position, newest spike step
first. A loop over the lags d = 1, 2, ... that adds the cost times the
spike indicator at every position adds the same nonzero terms to each
position in the same order and, besides, only exact zeros, which change no
sum (bar the sign of a zero voltage). So each neuron's products and each
step's sums are those of a per-neuron, per-step loop, and masks and
voltages are bit for bit that loop's. The work per step grows with the
spike count: a 32-sample block of a 250-neuron, 88-step layer took
5.7-5.9 ms against 7.0-7.9 ms for the loop over lags at the 4% of
positions that fire in a trained layer, about as long at 13%, and
13.1-13.6 ms at 94%.

``simulate_hidden_stack`` takes observation windows as they come, float
or boolean and up to the grid's length, and returns the last layer's spike
mask. It runs the samples in blocks of ``BLOCK``, each block through every
layer in turn: it copies each block into a buffer zero-padded to ``BLOCK``
rows and to the grid's steps, so every conv product has ``BLOCK`` rows and
a window's spikes do not depend on the batch it comes in. Each layer's
conv stack is built once per call.

The output layer is linear too, so its read-out applies the weights
first: one (outputs, neurons) product per sample contracts the spikes to
one trace per output, and each output's (steps, window) kernel matrix, the
window rows of its conv stack, is then applied to its own trace. That is
the design row of the output fit (``output.assemble_design``) times the
weights, up to rounding.

The hidden layers, the embedding of the metric selection's samples
(``sampling.Pseudometric.prepare_batch``), the hidden-layer build
(``hidden.build_hidden_layer``) and the output fit
(``output.select_supports`` and ``output.accumulate_normal_equations``)
run on every available CPU through ``_split_run``, which alone starts
threads and allocates their buffers.
The forward pass splits once per ``simulate_hidden_stack`` call, by block:
each thread runs its range of blocks one at a time through every layer, so
one thread's BLAS products overlap another's step loop. A block's BLAS
calls, one gemm per sample or per neuron, are the same on any thread, so
predictions do not depend on the CPU count.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .kernels import KernelFamily, KernelSpec, PlacedKernel, Rectification, tap_span

THRESHOLD = 1.0


@dataclass
class LayerParams:
    """Parameters of one layer; hidden layers carry the refractory fields."""

    weights: np.ndarray          # (neurons, inputs)
    bias: np.ndarray             # (neurons,)
    delay: np.ndarray            # (neurons,) >= 0
    support: np.ndarray          # (neurons,) > 0
    pspk: KernelSpec
    spike_cost: np.ndarray | None = None   # (neurons,), hidden only
    rf_support: np.ndarray | None = None   # (neurons,) > 0, hidden only
    rfk: KernelSpec | None = None          # hidden only

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.bias = np.asarray(self.bias, dtype=float)
        self.delay = np.asarray(self.delay, dtype=float)
        self.support = np.asarray(self.support, dtype=float)
        n = self.weights.shape[0]
        for name, vec in (("bias", self.bias), ("delay", self.delay), ("support", self.support)):
            if vec.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {vec.shape}")
        if np.any(self.delay < 0):
            raise ValueError("delays must be non-negative")
        if np.any(self.support <= 0):
            raise ValueError("supports must be positive")
        hidden_fields = (self.spike_cost, self.rf_support, self.rfk)
        if any(f is not None for f in hidden_fields) and not all(
            f is not None for f in hidden_fields
        ):
            raise ValueError("spike_cost, rf_support and rfk must be set together")
        if self.spike_cost is not None:
            self.spike_cost = np.asarray(self.spike_cost, dtype=float)
            self.rf_support = np.asarray(self.rf_support, dtype=float)
            if np.any(self.rf_support <= 0):
                raise ValueError("refractory supports must be positive")

    @property
    def n_neurons(self) -> int:
        return self.weights.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.weights.shape[1]

    @property
    def is_hidden(self) -> bool:
        return self.spike_cost is not None

    def placed_kernel(self, neuron: int) -> PlacedKernel:
        return PlacedKernel(self.pspk, float(self.delay[neuron]), float(self.support[neuron]))


@dataclass
class GridSpec:
    """Unit-step time grid of a model: total steps and the forecast horizon."""

    total_steps: int = 0
    horizon: int = 0

    @property
    def window(self) -> tuple[int, int]:
        """The forecast window [T, T+H) in step indices."""
        return (self.total_steps - self.horizon, self.total_steps)


@dataclass
class SnnModel:
    layers: list                 # L hidden LayerParams + 1 output LayerParams
    d_in: int = 0
    d_out: int = 0
    grid: GridSpec = field(default_factory=GridSpec)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("a model needs at least one layer")
        widths = [self.d_in] + [lay.n_neurons for lay in self.layers]
        for i, lay in enumerate(self.layers):
            if lay.n_inputs != widths[i]:
                raise ValueError(
                    f"layer {i} expects {lay.n_inputs} inputs but upstream width is {widths[i]}"
                )
        if self.layers[-1].n_neurons != self.d_out:
            raise ValueError("output layer width must equal d_out")
        if self.layers[-1].is_hidden:
            raise ValueError("the last layer must be a non-spiking output layer")
        for lay in self.layers[:-1]:
            if not lay.is_hidden:
                raise ValueError("all layers before the last must be hidden layers")

    @property
    def n_hidden_layers(self) -> int:
        return len(self.layers) - 1


# ---------------------------------------------------------------------------
# threads of the forward pass


_sharing = 1   # processes that run on this process's CPUs, itself included


def share_cpus(processes: int) -> None:
    """Give the forward pass of this process its part of the CPUs when it is
    one of ``processes`` workers that run at once. Threads beyond the free
    cores only pass the GIL back and forth: a 250-neuron ablation with two
    workers on two CPUs took a median 51 s with two threads per worker and
    40 s with one (four runs each)."""
    global _sharing
    _sharing = processes


def available_cpus() -> int:
    """This process's part of the CPUs it may run on: the forward pass uses
    one thread each."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, cpus // _sharing)


# Elements a thread must get before a split pays: below it, starting the
# threads and passing the GIL back and forth between many small numpy calls
# cost more than the second core saves (a 250-neuron, 88-step layer ran no
# faster split at 32 samples, 0.7 M elements, and 1.5x slower at 8).
_MIN_SLICE = 1 << 19


def _split_ranges(n: int, size: int) -> list:
    """Contiguous (lo, hi) ranges covering ``range(n)``: one per available
    CPU, but no more than give each at least ``_MIN_SLICE`` of the ``size``
    elements the work walks, at most ``n`` and at least one."""
    width = max(1, min(available_cpus(), n, size // _MIN_SLICE))
    bounds = [n * k // width for k in range(width + 1)]
    return list(zip(bounds, bounds[1:]))


def _split_run(fn, n: int, size: int, allocate) -> None:
    """Cut ``range(n)`` by ``_split_ranges(n, size)`` and call
    ``fn(lo, hi, buffers)`` for every range: inline for one range, else on
    one thread per range, returning when all are done and raising the first
    error. ``buffers = allocate()`` is made for each range on the calling
    thread before any thread starts.

    Every large array a worker writes, scratch included, comes from
    ``allocate``: a worker that allocated its own would get a malloc arena
    of its own and keep that memory. ``fn`` starts no threads, and the
    threads end with the call, so a forked child inherits none.
    """
    jobs = [(lo, hi, allocate()) for lo, hi in _split_ranges(n, size)]
    if len(jobs) == 1:
        fn(*jobs[0])
        return
    with ThreadPoolExecutor(len(jobs)) as pool:
        futures = [pool.submit(fn, *job) for job in jobs]
    for fut in futures:
        fut.result()


# Samples per block of the forward pass. Every conv product of a hidden
# layer has this many rows, the tail block zero-padded, because OpenBLAS
# picks its gemm kernel by matrix size: products of another row count can
# round differently in the last bit, and a spike whose voltage sits at the
# threshold would then flip with the batch size.
BLOCK = 32


def _leading(buf: np.ndarray, shape) -> np.ndarray:
    """A view of ``buf``'s leading elements in ``shape``."""
    return buf.reshape(-1)[: math.prod(shape)].reshape(shape)


def _position_keys(n_positions: int) -> np.ndarray:
    """(3, n_positions) keys of the step loop's spike search: row 0 holds
    0, 1, ..., a position's key when it spikes, row 1 the same plus
    ``n_positions``, its key when it does not, and row 2 takes one step's
    keys."""
    keys = np.empty((3, n_positions), dtype=np.min_scalar_type(2 * n_positions))
    keys[0] = np.arange(n_positions)
    keys[1] = keys[0] + n_positions
    return keys


def _pending_views(buf: np.ndarray, n_positions: int, n_lags: int):
    """The step loop's pending spikes in the leading 5 * n_lags *
    n_positions elements of the float buffer ``buf``: their positions and
    the indices of their costs, two generations of each, and the costs."""
    size = n_lags * n_positions
    flat = buf.reshape(-1)[: 5 * size]
    ints = flat[: 4 * size].view(np.int64).reshape(2, 2, size)
    return ints[0], ints[1], flat[4 * size:]


@dataclass
class _BlockScratch:
    """One thread's buffers for running blocks of ``BLOCK`` samples through
    a hidden stack, sized for its widest layer; each layer uses views of
    their leading elements. ``hidden_drive_batch`` and
    ``simulate_hidden_batch``, called alone, allocate one for their whole
    batch (``n_samples``).

    The projection is dead once the drive is built, so ``projected`` then
    holds the bias over the steps and, in the step loop, the pending
    spikes: 40 * lags bytes per (sample, neuron) position, which outgrows
    the projection only when a layer's refractory lags exceed a fifth of
    the steps. Nothing in the step loop allocates, so a thread keeps no
    memory of its own (see ``_split_run``)."""

    inputs: np.ndarray      # a padded block, or the previous layer's spikes as floats
    projected: np.ndarray   # the weights applied to the inputs
    drive: np.ndarray       # the drive, (samples, neurons, steps)
    volt: np.ndarray        # the voltages, time-major
    spiked: np.ndarray      # the spikes, time-major
    keys: np.ndarray        # the step loop's position keys

    @classmethod
    def allocate(cls, n_inputs: int, n_neurons: int, n_steps: int, n_lags: int,
                 n_samples: int = BLOCK) -> "_BlockScratch":
        size = n_samples * n_neurons * n_steps
        return cls(inputs=np.empty(n_samples * n_inputs * n_steps),
                   projected=np.empty(max(size, 5 * n_lags * n_samples * n_neurons)),
                   drive=np.empty(size), volt=np.empty(size),
                   spiked=np.empty(size, dtype=bool), keys=_position_keys(n_samples * n_neurons))


# ---------------------------------------------------------------------------
# convolution machinery


def causal_conv_matrix(taps: np.ndarray, n_steps: int) -> np.ndarray:
    """Banded matrix C with C[t, s] = taps[t - s]; then conv(x) = x @ C.T.

    ``taps`` of shape (neurons, lags) gives one matrix per row, stacked as
    (neurons, n_steps, n_steps). Row t of C is the window [t, t + n_steps)
    of the taps after n_steps - 1 zeros, reversed, so C is one copy of a
    window view. A -0.0 tap is written as 0.0.
    """
    taps = np.asarray(taps, dtype=float)
    lags = min(taps.shape[-1], n_steps)
    padded = np.zeros(taps.shape[:-1] + (2 * n_steps - 1,))
    np.add(taps[..., :lags], 0.0, out=padded[..., n_steps - 1: n_steps - 1 + lags])
    return np.ascontiguousarray(sliding_window_view(padded, n_steps, axis=-1)[..., ::-1])


def kernel_conv_stack(spec: KernelSpec, delay, support, n_steps: int) -> np.ndarray:
    """Causal convolution matrices (neurons, n_steps, n_steps) of ``spec``
    placed at each neuron's ``delay`` and ``support``; ``x @ C[i].T`` is
    neuron i's kernel response to ``x``, and rows [lo, hi) of ``C[i]`` give
    that response on the window [lo, hi).

    Each neuron's taps end at its own tap span, as ``PlacedKernel.taps``
    would give them, so slice i equals ``kernel_conv_matrix`` of neuron i.
    """
    delay = np.asarray(delay, dtype=float)[:, None]
    support = np.asarray(support, dtype=float)[:, None]
    spans = np.minimum(tap_span(delay, support), n_steps)
    lags = np.arange(spans.max())
    taps = np.where(lags < spans, spec.place(lags, delay, support), 0.0)
    return causal_conv_matrix(taps, n_steps)


def kernel_conv_matrix(pk: PlacedKernel, n_steps: int) -> np.ndarray:
    """Causal convolution matrix of a placed kernel on an ``n_steps`` grid;
    ``x @ C.T`` is the kernel response to ``x``."""
    return kernel_conv_stack(pk.spec, [pk.delay], [pk.support], n_steps)[0]


def hidden_drive_batch(layer: LayerParams, dense_in: np.ndarray, stack: np.ndarray | None = None,
                       scratch: _BlockScratch | None = None) -> np.ndarray:
    """Input contribution plus bias for a batch: (samples, neurons, steps).

    Exploits linearity: the weighted sum of per-channel kernel responses
    equals the kernel response of the weighted input sum. ``stack`` is the
    layer's conv stack, built here when not given. The projection and the
    drive are written into ``scratch``'s buffers, allocated here for the
    batch when not given, and the drive is returned as a view of them.
    """
    n_samples, n_steps = dense_in.shape[0], dense_in.shape[-1]
    if stack is None:
        stack = kernel_conv_stack(layer.pspk, layer.delay, layer.support, n_steps)
    if scratch is None:
        scratch = _BlockScratch.allocate(layer.n_inputs, layer.n_neurons, n_steps, 0, n_samples)
    shape = (n_samples, layer.n_neurons, n_steps)
    projected, drive = _leading(scratch.projected, shape), _leading(scratch.drive, shape)
    np.matmul(layer.weights, dense_in, out=projected)   # one gemm per sample
    # one (samples, steps) @ (steps, steps) product per neuron
    np.matmul(projected.transpose(1, 0, 2), stack.transpose(0, 2, 1),
              out=drive.transpose(1, 0, 2))
    # the bias over the steps, in the dead projection, added sample by
    # sample: numpy buffers a broadcast operand, which allocates and takes
    # longer
    bias = _leading(projected, shape[1:])
    np.copyto(bias, layer.bias[:, None])
    for row in drive.reshape(n_samples, -1):
        np.add(row, bias.reshape(-1), out=row)
    return drive


def refractory_taps(layer: LayerParams) -> np.ndarray:
    """Per-neuron refractory kernel taps at lags 1..D (lag 0 excluded), D the
    longest refractory support; a neuron's taps are zero beyond its own."""
    lags = np.arange(1, int(np.max(layer.rf_support)) + 1)
    return layer.rfk.place(lags, 0.0, layer.rf_support[:, None])


def simulate_hidden_batch(layer: LayerParams, dense_in: np.ndarray,
                          stack: np.ndarray | None = None,
                          scratch: _BlockScratch | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Run a hidden layer over a batch; returns (spike mask, voltages),
    both (samples, neurons, steps).

    The time loop is sequential: each step's voltage includes the spike
    cost of strictly earlier spikes only. It runs on time-major
    (steps, samples, neurons) arrays, so every per-step row is contiguous;
    the results are transposed views of them in ``scratch``'s buffers,
    allocated here for the batch when not given. ``stack`` is passed on to
    ``hidden_drive_batch``.

    A step adds only the costs of the spikes of its last D steps: their
    positions and the indices of their costs in the flat (lags, neurons)
    cost rows, newest step first, go to the step's voltage row in one
    ``np.add.at``, which adds repeated positions in order. A position that
    spiked at several of those steps so gets its costs lag by lag, as in a
    loop that adds ``cost[d - 1] * spiked[t - d]`` for d = 1, 2, ...; that
    loop adds exact zeros besides. The step's spikes are then found by a
    partition of position keys and join the pending ones.
    """
    if not layer.is_hidden:
        raise ValueError("simulate_hidden_batch needs a hidden layer")
    n_samples, n_neurons, n_steps = dense_in.shape[0], layer.n_neurons, dense_in.shape[-1]
    # entry (d - 1) * neurons + i is neuron i's spike cost d steps after its spike
    cost_rows = (layer.spike_cost[:, None] * refractory_taps(layer)).T.ravel()
    n_lags = min(len(cost_rows) // n_neurons, n_steps)
    if scratch is None:
        scratch = _BlockScratch.allocate(layer.n_inputs, n_neurons, n_steps, n_lags, n_samples)
    drive = hidden_drive_batch(layer, dense_in, stack, scratch)
    shape = (n_steps, n_samples, n_neurons)
    row = n_samples * n_neurons
    volt, spiked = _leading(scratch.volt, shape), _leading(scratch.spiked, shape)
    keys, pending = scratch.keys[:, :row], scratch.projected   # the projection is dead
    for m in range(n_samples):
        volt[:, m] = drive[m].T   # sample by sample: each block stays in cache
    order, later, key = keys
    positions, cost_index, costs = _pending_views(pending, row, n_lags)
    counts = deque()   # spikes per pending step, newest first
    total = g = 0      # pending spikes, and the generation that holds them
    for t, (v, s) in enumerate(zip(volt.reshape(n_steps, row), spiked.reshape(n_steps, row))):
        if total:
            # mode "raise" would copy ``out`` first
            np.take(cost_rows, cost_index[g, :total], out=costs[:total], mode="clip")
            np.add.at(v, positions[g, :total], costs[:total])
        np.greater_equal(v, THRESHOLD, out=s)
        if t + 1 == n_steps or n_lags == 0:
            continue
        if len(counts) == n_lags:
            total -= counts.pop()
        new, h = np.count_nonzero(s), 1 - g
        if new:
            np.copyto(key, later)
            np.copyto(key, order, where=s)
            if new < row:
                key.partition(new - 1)
            positions[h, :new] = key[:new]
            np.remainder(positions[h, :new], n_neurons, out=cost_index[h, :new])
        positions[h, new: new + total] = positions[g, :total]
        np.add(cost_index[g, :total], n_neurons, out=cost_index[h, new: new + total])
        counts.appendleft(new)
        total, g = total + new, h
    return spiked.transpose(1, 2, 0), volt.transpose(1, 2, 0)


def simulate_hidden_stack(layers, inputs: np.ndarray, n_steps: int) -> np.ndarray:
    """The last hidden layer's spike mask (samples, neurons, n_steps) for a
    (samples, channels, steps) batch of float windows or a boolean mask,
    ``steps`` at most ``n_steps``.

    The samples run in blocks of ``BLOCK``, each block through every layer
    before the next starts. Each block is copied into its thread's float
    buffer, zero-padded to ``BLOCK`` rows and to ``n_steps`` steps, so a
    window's spikes do not depend on the batch it comes in. Each layer's
    conv stack is built once per call. The blocks are split over threads
    by ``_split_run``, and each thread runs its blocks one at a time in its
    own ``_BlockScratch``.
    """
    n_samples, n_channels, width = inputs.shape
    mask = np.empty((n_samples, layers[-1].n_neurons, n_steps), dtype=bool)
    stacks = [kernel_conv_stack(layer.pspk, layer.delay, layer.support, n_steps)
              for layer in layers]
    widths = [n_channels] + [layer.n_neurons for layer in layers]
    n_blocks = -(-n_samples // BLOCK)

    def run(lo, hi, scratch):
        for b in range(lo, hi):
            first, last = b * BLOCK, min(n_samples, (b + 1) * BLOCK)
            n = last - first
            block = _leading(scratch.inputs, (BLOCK, n_channels, n_steps))
            block[:n, :, :width] = inputs[first: last]
            block[:n, :, width:] = 0.0
            block[n:] = 0.0
            for k, (layer, stack) in enumerate(zip(layers, stacks)):
                spiked, _ = simulate_hidden_batch(layer, block, stack, scratch)
                if k + 1 < len(layers):   # the next layer's float input
                    block = _leading(scratch.inputs, spiked.shape)
                    np.copyto(block, spiked)
            mask[first: last] = spiked[:n]

    n_lags = max(min(refractory_taps(layer).shape[1], n_steps) for layer in layers)
    _split_run(run, n_blocks, n_blocks * BLOCK * sum(widths[1:]) * n_steps,
               lambda: _BlockScratch.allocate(max(widths[:-1]), max(widths[1:]), n_steps,
                                              n_lags))
    return mask


def output_voltages_batch(layer: LayerParams, spikes: np.ndarray,
                          window: tuple[int, int]) -> np.ndarray:
    """Affine read-out on a window for a (samples, neurons, steps) batch of
    spike masks or indicators: (samples, outputs, window steps). Inputs
    that end before the window does are zero-padded to its end.

    The spikes are cast to float ``BLOCK`` samples at a time into one
    zero-padded buffer. The weights are applied first, one gemm per sample,
    then each output's window kernel, the window rows of its conv stack,
    one (1, steps) @ (steps, window) product per sample and output, so a
    window's read-out does not depend on its batch.
    """
    n_samples, n_inputs, width = spikes.shape
    n_steps = max(width, window[1])
    projected = np.empty((n_samples, layer.n_neurons, n_steps))
    # the padding zeroed by hand: a calloc'd block (np.zeros) raised the
    # peak RSS of later trainings in one process by 2-3 MB (deep workload)
    block = np.empty((min(BLOCK, n_samples), n_inputs, n_steps))
    block[:, :, width:] = 0.0
    for lo in range(0, n_samples, BLOCK):
        hi = min(lo + BLOCK, n_samples)
        block[: hi - lo, :, :width] = spikes[lo: hi]
        np.matmul(layer.weights, block[: hi - lo], out=projected[lo: hi])
    stack = kernel_conv_stack(layer.pspk, layer.delay, layer.support, n_steps)
    kernels = np.ascontiguousarray(
        stack[:, window[0]: window[1]].transpose(0, 2, 1))   # (d_out, G, W)
    out = np.matmul(projected[:, :, None, :], kernels)[:, :, 0, :]
    out += layer.bias[:, None]
    return out


# ---------------------------------------------------------------------------
# serialization


def _kernel_to_dict(spec: KernelSpec) -> dict:
    return {"family": spec.family.value, "rectification": spec.rectification.value}


def _kernel_from_dict(d: dict) -> KernelSpec:
    return KernelSpec(KernelFamily(_field(d, "family")),
                      Rectification(_field(d, "rectification")))


def _field(d: dict, key: str, kind=None, what: str = ""):
    """``d[key]``; ValueError names the field when it is missing or, with a
    ``kind``, when it is not a ``kind`` (``what`` says which). A JSON
    boolean is no number here, although ``bool`` is a subclass of ``int``."""
    if key not in d:
        raise ValueError(f"model has no {key!r} field")
    value = d[key]
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ValueError(f"model field {key!r} must be {what}, not {type(value).__name__}")
    return value


def _floats(d: dict, key: str) -> np.ndarray:
    value = _field(d, key)
    try:
        arr = np.array(value)
    except ValueError:   # ragged nesting
        arr = None
    # dtype=float would read a null as NaN and a string or boolean as a number
    if arr is None or arr.dtype.kind not in "iuf":
        raise ValueError(f"model field {key!r} must hold numbers")
    return arr.astype(float)


def _layer_to_dict(layer: LayerParams) -> dict:
    d = {
        "weights": layer.weights.tolist(),
        "bias": layer.bias.tolist(),
        "delay": layer.delay.tolist(),
        "support": layer.support.tolist(),
        "pspk": _kernel_to_dict(layer.pspk),
    }
    if layer.is_hidden:
        d["spike_cost"] = layer.spike_cost.tolist()
        d["rf_support"] = layer.rf_support.tolist()
        d["rfk"] = _kernel_to_dict(layer.rfk)
    return d


def _layer_from_dict(d: dict) -> LayerParams:
    kwargs = {}
    if "spike_cost" in d:
        kwargs = {
            "spike_cost": _floats(d, "spike_cost"),
            "rf_support": _floats(d, "rf_support"),
            "rfk": _kernel_from_dict(_field(d, "rfk", dict, "an object")),
        }
    return LayerParams(
        weights=_floats(d, "weights"),
        bias=_floats(d, "bias"),
        delay=_floats(d, "delay"),
        support=_floats(d, "support"),
        pspk=_kernel_from_dict(_field(d, "pspk", dict, "an object")),
        **kwargs,
    )


def model_to_dict(model: SnnModel) -> dict:
    return {
        "format": "sswim-model-v1",
        "d_in": model.d_in,
        "d_out": model.d_out,
        "grid": {
            "dt": 1.0,
            "total_steps": model.grid.total_steps,
            "horizon": model.grid.horizon,
        },
        "layers": [_layer_to_dict(lay) for lay in model.layers],
        "metadata": model.metadata,
    }


def model_from_dict(d: dict) -> SnnModel:
    """Inverse of ``model_to_dict``; a missing or wrong-typed field raises
    ValueError naming it, as does a grid step ``dt`` other than 1."""
    if not isinstance(d, dict) or d.get("format") != "sswim-model-v1":
        raise ValueError("not a recognized model file")
    grid = _field(d, "grid", dict, "an object")
    dt = _field(grid, "dt", (int, float), "a number")
    if dt != 1.0:
        raise ValueError(f"model field 'dt' must be 1 (the unit-step grid), not {dt!r}")
    layers = _field(d, "layers", list, "an array")
    if not all(isinstance(ld, dict) for ld in layers):
        raise ValueError("model field 'layers' must hold objects")
    return SnnModel(
        layers=[_layer_from_dict(ld) for ld in layers],
        d_in=_field(d, "d_in", int, "an integer"),
        d_out=_field(d, "d_out", int, "an integer"),
        grid=GridSpec(
            total_steps=_field(grid, "total_steps", int, "an integer"),
            horizon=_field(grid, "horizon", int, "an integer"),
        ),
        metadata=d.get("metadata", {}),
    )


def save_model(model: SnnModel, path) -> None:
    """Write the model as JSON; floats round-trip exactly via shortest repr.

    A non-finite value raises ValueError naming its layer (1-based) or its
    ``metadata`` field, and nothing is written. The file is written with
    ``write_text_atomic``.
    """
    for layer_no, layer in enumerate(model.layers, start=1):
        arrays = (layer.weights, layer.bias, layer.delay, layer.support)
        if layer.is_hidden:
            arrays += (layer.spike_cost, layer.rf_support)
        if not all(np.isfinite(a).all() for a in arrays):
            raise ValueError(f"layer {layer_no} holds a non-finite value; model not saved")
    for key, value in model.metadata.items():
        if not _finite(value):
            raise ValueError(
                f"metadata field {key!r} holds a non-finite value; model not saved")
    write_text_atomic(path, json.dumps(model_to_dict(model), indent=1, allow_nan=False) + "\n")


def _finite(value) -> bool:
    """False when a float in ``value``, a JSON-like tree, is NaN or infinite."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    return True


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` to a temporary name in the same directory, then rename
    it over ``path``, so an existing file is replaced whole or not at all."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_model(path) -> SnnModel:
    """Read a model written by ``save_model``.

    ``NaN``, ``Infinity`` and ``-Infinity`` are rejected with a ValueError
    naming the constant and the file, since ``save_model`` never writes them.
    A file that ``model_from_dict`` refuses raises its ValueError, prefixed
    with the path.
    """
    def reject(constant):
        raise ValueError(
            f"model file {os.fspath(path)} holds the non-finite value {constant}"
        )

    with open(path) as fh:
        doc = json.load(fh, parse_constant=reject)
    try:
        return model_from_dict(doc)
    except ValueError as exc:
        raise ValueError(f"model file {os.fspath(path)}: {exc}") from None
