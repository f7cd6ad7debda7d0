"""Pseudometrics on signal and spike-train spaces, and pair sampling.

Distances are built by embedding centered signals into a complex function
space and taking the norm of the embedding difference, which makes every
shipped distance a pseudometric by construction. Spike trains are first
mapped to real-valued functions by convolving each train with a kernel,
so the same embeddings apply.

Pairs of samples are drawn with probability proportional to the ratio of
output distance to input distance, so pairs whose targets differ a lot
while their inputs barely do ("steep" pairs) are picked most often. The
Shannon entropy of that distribution doubles as a selection criterion
between candidate distance functions: lower entropy means the distance
pair separates the dataset more decisively.

A distance matrix embeds its samples over threads by
``network._split_run``; workers write only their rows of the embedded
batch and the buffers ``allocate`` made for them on the calling thread.
The matrix then comes from one real Gram product on the calling thread,
a complex embedding viewed as floats, so distance matrices, pair
distributions and the chosen metrics are bit for bit the same on any
number of CPUs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DegenerateDistributionError
from .kernels import KernelSpec, PlacedKernel
from .network import _split_run, kernel_conv_matrix


@dataclass(frozen=True)
class EmbeddingSpec:
    """One of the shipped embeddings; ``band`` only applies to kind="band"."""

    kind: str                       # "l2" | "cos" | "mag" | "phase" | "band"
    band: tuple | None = None       # (lo, hi) DFT bin range, half-open

    def __post_init__(self):
        if self.kind not in ("l2", "cos", "mag", "phase", "band"):
            raise ValueError(f"unknown embedding kind: {self.kind!r}")
        if self.kind == "band":
            if self.band is None or len(self.band) != 2 or self.band[0] >= self.band[1]:
                raise ValueError("band embedding needs bins (lo, hi) with lo < hi")
        elif self.band is not None:
            raise ValueError("band bins are only valid for the band embedding")

    @property
    def dtype(self) -> type:
        """The type of the embedded values."""
        return complex if self.kind in ("phase", "band") else float

    def check_steps(self, steps: int) -> None:
        """Raise ValueError if the embedding cannot take ``steps``-step
        signals: a band whose bins reach past their spectrum."""
        if self.kind == "band" and self.band[1] > steps:
            raise ValueError(
                f"band bins [{self.band[0]}, {self.band[1]}) exceed the "
                f"{steps}-bin spectrum"
            )

    @property
    def name(self) -> str:
        if self.kind == "band":
            return f"band:{self.band[0]}:{self.band[1]}"
        return self.kind

    @classmethod
    def parse(cls, text: str) -> "EmbeddingSpec":
        if text.startswith("band:"):
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError(f"band spec must look like 'band:lo:hi', got {text!r}")
            return cls("band", (int(parts[1]), int(parts[2])))
        return cls(text)


def embed(spec: EmbeddingSpec, values, out=None, spectrum=None, magnitude=None) -> np.ndarray:
    """Apply an embedding to a (channels, steps) array; may return complex.

    The result is written to ``out`` (of ``spec.dtype``), the transform to
    ``spectrum`` and the transform's complex input, then the magnitudes, to
    ``magnitude``; each is shaped like ``values`` and made here when not
    given. With all three given, nothing as large as a sample is
    allocated."""
    values = np.asarray(values, dtype=float)
    if out is None:
        out = np.empty(values.shape, dtype=spec.dtype)
    if spec.kind == "l2":
        np.copyto(out, values)
        return out
    if spec.kind == "cos":
        norm = np.sqrt(np.sum(np.multiply(values, values, out=out)))
        if norm == 0.0:
            np.copyto(out, values)
        else:
            np.divide(values, norm, out=out)
        return out
    spec.check_steps(values.shape[-1])
    if spectrum is None:
        spectrum = np.empty(values.shape, dtype=complex)
    if magnitude is None:
        magnitude = np.empty(values.shape, dtype=complex)
    # the transform only takes complex input: given a real array, it would
    # make the complex copy itself
    np.copyto(magnitude, values)
    np.fft.fft(magnitude, axis=-1, norm="ortho", out=spectrum)
    if spec.kind == "mag":
        return np.abs(spectrum, out=out)
    out.fill(0.0)
    if spec.kind == "phase":
        # magnitudes as complex numbers with zero imaginary part, as the
        # division casts them; empty bins stay zero
        np.abs(spectrum, out=magnitude.real)
        np.divide(spectrum, magnitude, out=out, where=magnitude.real > 0.0)
        return out
    lo, hi = spec.band
    out[..., lo:hi] = spectrum[..., lo:hi]
    return out


@dataclass(frozen=True)
class VanRossumLift:
    """Maps spike trains to functions by placing one kernel copy per spike."""

    kernel: KernelSpec
    support: float = 1.0

    def apply_batch(self, dense_combs: np.ndarray) -> np.ndarray:
        """The (samples, channels, steps) float batch of lifted trains. One
        product per sample, so a boolean batch is never copied to float as
        a whole (28.8 MB on deep's second layer); the products are those of
        one stacked product, bit for bit."""
        pk = PlacedKernel(self.kernel, 0.0, self.support)
        conv_t = kernel_conv_matrix(pk, dense_combs.shape[-1]).T
        lifted = np.empty(dense_combs.shape)
        for sample, out in zip(dense_combs, lifted):
            np.matmul(sample, conv_t, out=out)
        return lifted


@dataclass(frozen=True)
class Pseudometric:
    """Embedding-based distance, optionally lifting spike trains first."""

    embedding: EmbeddingSpec
    lift: VanRossumLift | None = None

    @property
    def name(self) -> str:
        if self.lift is None:
            return self.embedding.name
        return f"vr[{self.lift.kernel.family.value}]+{self.embedding.name}"

    def prepare_batch(self, dense: np.ndarray) -> np.ndarray:
        """Centered, embedded flat vector per sample of a (samples, channels,
        steps) array, lifted first when the metric has a lift. Each sample is
        centered and embedded alone, straight into its row of one (samples,
        features) array: one ``embed`` of the whole batch multiplies the
        temporaries of deep's second layer (+90 MB peak RSS on that
        workload). The samples are split over threads by ``_split_run``;
        each thread centers and transforms in its own buffers."""
        if self.lift is not None:
            dense = self.lift.apply_batch(dense)
        shape = dense.shape[1:]
        vecs = np.empty((dense.shape[0], math.prod(shape)), dtype=self.embedding.dtype)

        def run(lo, hi, buffers):
            centered, spectrum, magnitude = buffers
            for i in range(lo, hi):
                sample = dense[i]
                np.subtract(sample, sample.mean(axis=-1, keepdims=True), out=centered)
                embed(self.embedding, centered, vecs[i].reshape(shape), spectrum, magnitude)

        _split_run(run, dense.shape[0], dense.size,
                   lambda: (np.empty(shape), np.empty(shape, dtype=complex),
                            np.empty(shape, dtype=complex)))
        return vecs

    def distance(self, a, b) -> float:
        """Distance between two (channels, steps) samples."""
        va, vb = self.prepare_batch(np.array([a, b], dtype=float))
        return float(np.linalg.norm(va - vb))

    def pairwise(self, dense: np.ndarray) -> np.ndarray:
        """Full symmetric distance matrix over a batch of samples.

        A complex embedding is viewed as floats, each value its real and
        imaginary parts, since Re(u·v̄) = Re u·Re v + Im u·Im v: every
        embedding's Gram matrix is then one real product, which numpy runs
        as a symmetric rank-k update, so the matrix is exactly symmetric.
        The squared norms are taken one row at a time in one row buffer,
        with the bits of the whole batch's sum, so no elementwise product of
        the whole batch is made."""
        vecs = self.prepare_batch(dense)
        if np.iscomplexobj(vecs):
            vecs = vecs.view(float)
        sq = np.empty(vecs.shape[0])
        row = np.empty(vecs.shape[1])
        for i, vec in enumerate(vecs):
            sq[i] = np.sum(np.multiply(vec, vec, out=row))
        d2 = sq[:, None] + sq[None, :] - 2.0 * (vecs @ vecs.T)
        np.maximum(d2, 0.0, out=d2)
        dist = np.sqrt(d2, out=d2)
        np.fill_diagonal(dist, 0.0)
        return dist


# ---------------------------------------------------------------------------
# pair distribution


@dataclass
class PairProbabilities:
    """Normalized sampling distribution over distinct sample pairs (n > m).

    ``probs`` gets the checks ``Generator.choice`` makes on ``p``, so a
    distribution that is negative, NaN or not summing to 1 raises ValueError.
    """

    probs: np.ndarray        # (K,) normalized, K = M(M-1)/2
    pair_n: np.ndarray       # (K,) first index of each pair
    pair_m: np.ndarray       # (K,) second index, pair_m < pair_n

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        total = float(self.probs.sum())
        if np.isnan(total):
            raise ValueError("pair probabilities contain NaN")
        if np.any(self.probs < 0.0):
            raise ValueError("pair probabilities are not non-negative")
        if abs(total - 1.0) > np.sqrt(np.finfo(float).eps):
            raise ValueError("pair probabilities do not sum to 1")

    @property
    def n_pairs(self) -> int:
        return self.probs.size

    @cached_property
    def cdf(self) -> np.ndarray:
        """The cumulative distribution ``Generator.choice`` builds from ``p``
        on every call, built once."""
        cdf = self.probs.cumsum()
        cdf /= cdf[-1]
        return cdf


def _lift_and_filter(lift: VanRossumLift | None, dense: np.ndarray,
                     min_norm: float) -> tuple[np.ndarray, np.ndarray]:
    """A (samples, channels, steps) batch lifted through ``lift`` (as is for
    None), and the samples to keep: those with at least one channel whose
    L2 norm after centering is ``min_norm`` or more."""
    if lift is not None:
        dense = lift.apply_batch(dense)
    means = dense.mean(axis=-1, keepdims=True)
    # one sample at a time in one buffer, not a centered copy of the batch:
    # the sums run over the last axis either way, so the norms keep their bits
    centered = np.empty(dense.shape[1:])
    norms = np.empty(dense.shape[:2])
    for sample, mean, norm in zip(dense, means, norms):
        np.subtract(sample, mean, out=centered)
        np.sum(np.square(centered, out=centered), axis=-1, out=norm)
    return dense, np.any(np.sqrt(norms) >= min_norm, axis=1)


def _unlifted(metric: Pseudometric) -> Pseudometric:
    """The metric without its lift, to apply to a batch lifted already; a
    subclass keeps its own ``pairwise``."""
    return metric if metric.lift is None else replace(metric, lift=None)


def _pair_index_arrays(n_samples: int) -> tuple[np.ndarray, np.ndarray]:
    n_idx, m_idx = np.tril_indices(n_samples, k=-1)
    return n_idx.astype(np.int64), m_idx.astype(np.int64)


def pair_probabilities_from_matrices(dist_in: np.ndarray, dist_out: np.ndarray,
                                     eps: float, valid: np.ndarray | None = None
                                     ) -> PairProbabilities:
    """Build the pair distribution from precomputed distance matrices."""
    n = dist_in.shape[0]
    n_idx, m_idx = _pair_index_arrays(n)
    raw = dist_out[n_idx, m_idx] / (dist_in[n_idx, m_idx] + eps)
    if valid is not None:
        keep = valid[n_idx] & valid[m_idx]
        raw = np.where(keep, raw, 0.0)
    total = raw.sum()
    if total <= 0.0:
        raise DegenerateDistributionError("every pair has zero probability")
    return PairProbabilities(probs=raw / total, pair_n=n_idx, pair_m=m_idx)


def _check_pair_batch(inputs_dense: np.ndarray, targets_dense: np.ndarray) -> None:
    if inputs_dense.shape[0] != targets_dense.shape[0]:
        raise ValueError("inputs and targets must have the same sample count")
    if inputs_dense.shape[0] < 2:
        raise ValueError("need at least two samples to form pairs")


def pair_probabilities(inputs_dense: np.ndarray, targets_dense: np.ndarray,
                       d_in: Pseudometric, d_out: Pseudometric,
                       eps: float = 1e-6, min_norm: float = 1e-6) -> PairProbabilities:
    """Pair distribution over an initialization batch.

    A sample is filtered out (all its pairs get probability zero) when every
    one of its input channels has an L2 norm below ``min_norm`` after
    centering.
    """
    _check_pair_batch(inputs_dense, targets_dense)
    lifted, valid = _lift_and_filter(d_in.lift, inputs_dense, min_norm)
    dist_in = _unlifted(d_in).pairwise(lifted)
    dist_out = d_out.pairwise(targets_dense)
    return pair_probabilities_from_matrices(dist_in, dist_out, eps, valid)


def sample_pair(pairs: PairProbabilities, rng: np.random.Generator) -> tuple[int, int]:
    """Draw one pair of distinct sample indices: the draw and the stream
    position of ``rng.choice(pairs.n_pairs, p=pairs.probs)``."""
    k = pairs.cdf.searchsorted(rng.random(), side="right")
    return int(pairs.pair_n[k]), int(pairs.pair_m[k])


def shannon_entropy(probs) -> float:
    """Natural-log entropy with the 0*log(0) = 0 convention."""
    if isinstance(probs, PairProbabilities):
        probs = probs.probs
    probs = np.asarray(probs, dtype=float)
    nz = probs[probs > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def select_metrics(inputs_dense: np.ndarray, targets_dense: np.ndarray,
                   candidates_in, candidates_out,
                   eps: float = 1e-6, min_norm: float = 1e-6,
                   min_entropy: float | None = None
                   ) -> tuple[Pseudometric, Pseudometric, PairProbabilities]:
    """Pick the candidate pair whose sampling distribution has least entropy;
    returns it with that distribution.

    The inputs are lifted and filtered once per distinct lift among the
    input candidates, and each candidate's ``pairwise`` gets the lifted
    batch, so each distance matrix is computed once and reused across
    combinations. Ties keep the earliest pair in candidate-list order;
    combinations whose distribution is degenerate (or whose entropy falls
    below ``min_entropy``, when given) are skipped.
    """
    if not candidates_in or not candidates_out:
        raise ValueError("candidate sets must be nonempty")
    _check_pair_batch(inputs_dense, targets_dense)
    lifted, valid = {}, {}
    for cand in candidates_in:
        if cand.lift not in lifted:
            lifted[cand.lift], valid[cand.lift] = _lift_and_filter(
                cand.lift, inputs_dense, min_norm
            )
    mats_in = [_unlifted(cand).pairwise(lifted[cand.lift]) for cand in candidates_in]
    mats_out = [cand.pairwise(targets_dense) for cand in candidates_out]
    best = None
    best_entropy = np.inf
    for i, cand_in in enumerate(candidates_in):
        for j, cand_out in enumerate(candidates_out):
            try:
                pairs = pair_probabilities_from_matrices(
                    mats_in[i], mats_out[j], eps, valid[cand_in.lift]
                )
            except DegenerateDistributionError:
                continue
            h = shannon_entropy(pairs)
            if min_entropy is not None and h < min_entropy:
                continue
            if h < best_entropy:
                best_entropy = h
                best = (cand_in, cand_out, pairs)
    if best is None:
        raise DegenerateDistributionError(
            "no candidate combination yields a usable sampling distribution"
        )
    return best
