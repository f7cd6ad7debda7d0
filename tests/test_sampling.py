import math
import sys
import tracemalloc

import numpy as np
import pytest

from sswim import network, sampling
from sswim.errors import DegenerateDistributionError
from sswim.kernels import KernelFamily, PlacedKernel, pspk
from sswim.sampling import (
    EmbeddingSpec,
    PairProbabilities,
    Pseudometric,
    VanRossumLift,
    embed,
    pair_probabilities,
    pair_probabilities_from_matrices,
    sample_pair,
    select_metrics,
    shannon_entropy,
)
from sswim.signals import SpikeTrainSet

ALL_EMBEDDINGS = [
    EmbeddingSpec("l2"),
    EmbeddingSpec("cos"),
    EmbeddingSpec("mag"),
    EmbeddingSpec("phase"),
    EmbeddingSpec("band", (1, 8)),
]


def random_batch(rng, m, channels=3, steps=32):
    return rng.normal(size=(m, channels, steps))


class TestEmbed:
    def test_identity_returns_input(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(2, 16))
        np.testing.assert_array_equal(embed(EmbeddingSpec("l2"), f), f)

    def test_cosine_identifies_scalings(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=(2, 16))
        np.testing.assert_allclose(
            embed(EmbeddingSpec("cos"), f), embed(EmbeddingSpec("cos"), 2.0 * f),
            atol=1e-15,
        )

    def test_cosine_maps_zero_to_zero(self):
        z = np.zeros((2, 8))
        np.testing.assert_array_equal(embed(EmbeddingSpec("cos"), z), z)

    def test_magnitude_is_shift_invariant(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(1, 64))
        shifted = np.roll(f, 17, axis=1)
        np.testing.assert_allclose(
            embed(EmbeddingSpec("mag"), f), embed(EmbeddingSpec("mag"), shifted),
            atol=1e-12,
        )

    def test_phase_zeroes_empty_bins(self):
        f = np.zeros((1, 8))
        out = embed(EmbeddingSpec("phase"), f)
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_band_masks_bins(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(1, 16))
        out = embed(EmbeddingSpec("band", (2, 5)), f)
        full = np.fft.fft(f, axis=-1, norm="ortho")
        assert np.all(out[:, :2] == 0.0) and np.all(out[:, 5:] == 0.0)
        np.testing.assert_array_equal(out[:, 2:5], full[:, 2:5])

    @pytest.mark.parametrize("spec", ALL_EMBEDDINGS, ids=lambda s: s.name)
    def test_bytes_match_the_plain_formulas(self, spec):
        f = np.random.default_rng(23).normal(size=(3, 16))
        f[1] = 0.0   # a channel whose bins are all empty
        f -= f.mean(axis=-1, keepdims=True)
        spectrum = np.fft.fft(f, axis=-1, norm="ortho")
        mag = np.abs(spectrum)
        expected = np.zeros_like(spectrum)
        if spec.kind == "l2":
            expected = f
        elif spec.kind == "cos":
            expected = f / np.sqrt(np.sum(f * f))
        elif spec.kind == "mag":
            expected = mag
        elif spec.kind == "phase":
            nz = mag > 0.0
            expected[nz] = spectrum[nz] / mag[nz]
        else:
            expected[:, 1:8] = spectrum[:, 1:8]
        got = embed(spec, f)
        assert got.dtype == spec.dtype
        assert got.tobytes() == expected.tobytes()

    def test_parse_band_spec(self):
        spec = EmbeddingSpec.parse("band:3:9")
        assert spec.kind == "band" and spec.band == (3, 9)
        assert spec.name == "band:3:9"


class TestPseudometricValues:
    def test_self_distance_is_zero(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=(3, 20))
        for spec in ALL_EMBEDDINGS:
            assert Pseudometric(spec).distance(f, f) == 0.0

    def test_cosine_ignores_positive_scaling(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(2, 24))
        assert Pseudometric(EmbeddingSpec("cos")).distance(f, 3.0 * f) < 1e-12

    def test_centering_removes_constants(self):
        f = np.ones((1, 10))
        g = np.zeros((1, 10))
        assert Pseudometric(EmbeddingSpec("l2")).distance(f, g) == 0.0

    def test_identical_spike_trains_lift_to_zero(self):
        lift = VanRossumLift(pspk(KernelFamily.HAT), support=4.0)
        metric = Pseudometric(EmbeddingSpec("l2"), lift)
        trains = SpikeTrainSet(trains=[np.array([2, 7]), np.array([5])], n_steps=16).to_dense()
        same = SpikeTrainSet(trains=[np.array([2, 7]), np.array([5])], n_steps=16).to_dense()
        assert metric.distance(trains, same) == 0.0

    def test_lift_separates_different_trains(self):
        lift = VanRossumLift(pspk(KernelFamily.HAT), support=4.0)
        metric = Pseudometric(EmbeddingSpec("l2"), lift)
        a = SpikeTrainSet(trains=[np.array([2])], n_steps=16).to_dense()
        b = SpikeTrainSet(trains=[np.array([10])], n_steps=16).to_dense()
        assert metric.distance(a, b) > 0.1

    def test_pairwise_matches_single_distances(self):
        rng = np.random.default_rng(6)
        batch = random_batch(rng, 5)
        lifted = Pseudometric(EmbeddingSpec("l2"), VanRossumLift(pspk(KernelFamily.HAT), 4.0))
        for metric in [Pseudometric(spec) for spec in ALL_EMBEDDINGS] + [lifted]:
            mat = metric.pairwise(batch)
            assert np.all(np.diag(mat) == 0.0)
            np.testing.assert_array_equal(mat, mat.T)
            for i in range(5):
                for j in range(i):
                    assert mat[i, j] == pytest.approx(
                        metric.distance(batch[i], batch[j]), abs=1e-9
                    )


def reference_pairwise(vecs):
    """The distance matrix formed from the whole batch's conjugate."""
    sq = np.sum((vecs * vecs.conj()).real, axis=1)
    gram = (vecs @ vecs.conj().T).real
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.maximum(d2, 0.0, out=d2)
    dist = np.tril(np.sqrt(d2), -1)
    return dist + dist.T


def real_view_pairwise(vecs):
    """The distance matrix formed from whole-batch products of the batch
    viewed as floats, mirrored from its lower triangle."""
    if np.iscomplexobj(vecs):
        vecs = vecs.view(float)
    sq = np.sum(vecs * vecs, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (vecs @ vecs.T)
    np.maximum(d2, 0.0, out=d2)
    dist = np.tril(np.sqrt(d2), -1)
    return dist + dist.T


LIFT = VanRossumLift(pspk(KernelFamily.HAT), 4.0)
# every embedding, and one lifted metric with a complex embedding
SPLIT_METRICS = [Pseudometric(spec) for spec in ALL_EMBEDDINGS] + [
    Pseudometric(EmbeddingSpec("phase"), LIFT)
]


def metric_batch(metric, rng, n_samples, steps=40):
    """Spike trains (as floats) for a lifted metric, else a random batch."""
    if metric.lift is not None:
        return (rng.random((n_samples, 3, steps)) < 0.2).astype(float)
    return random_batch(rng, n_samples, steps=steps)


@pytest.fixture
def cpus(monkeypatch):
    """A setter of the CPU count the split sees, with even the smallest
    batch split; it returns the range counts of the ``_split_run`` calls
    of ``sampling`` from then on."""
    monkeypatch.setattr(network, "_MIN_SLICE", 1)
    widths = []
    real = sampling._split_run

    def counted(fn, n, size, allocate):
        widths.append(len(network._split_ranges(n, size)))
        real(fn, n, size, allocate)

    def use(count):
        monkeypatch.setattr(network, "available_cpus", lambda: count)
        widths.clear()
        return widths

    monkeypatch.setattr(sampling, "_split_run", counted)
    # threads switch often, so that workers that shared a buffer would clash
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield use
    finally:
        sys.setswitchinterval(interval)


class TestPairwiseBlocks:
    @pytest.mark.parametrize("n_samples", [1, 31, 33, 200])
    @pytest.mark.parametrize("metric", SPLIT_METRICS, ids=lambda m: m.name)
    def test_matrix_equals_the_whole_batch_formula(self, metric, n_samples, cpus):
        batch = metric_batch(metric, np.random.default_rng(n_samples), n_samples)
        for count in (1, 2):
            widths = cpus(count)
            vecs = metric.prepare_batch(batch)
            assert vecs.dtype == metric.embedding.dtype
            assert metric.pairwise(batch).tobytes() == real_view_pairwise(vecs).tobytes()
            assert max(widths) == min(count, n_samples)

    @pytest.mark.parametrize("n_samples", [2, 31, 200])
    @pytest.mark.parametrize("metric", [m for m in SPLIT_METRICS if m.embedding.dtype is complex],
                             ids=lambda m: m.name)
    def test_complex_matrix_matches_the_conjugate_formula(self, metric, n_samples):
        batch = metric_batch(metric, np.random.default_rng(n_samples), n_samples)
        expected = reference_pairwise(metric.prepare_batch(batch))
        np.testing.assert_allclose(metric.pairwise(batch), expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("spec", ALL_EMBEDDINGS, ids=lambda s: s.name)
    def test_peak_memory_stays_near_the_embedded_batch(self, spec):
        # a product or copy of the whole embedded batch would double the peak
        metric = Pseudometric(spec)
        batch = random_batch(np.random.default_rng(5), 64, steps=400)
        embedded = metric.prepare_batch(batch).nbytes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            metric.pairwise(batch)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * embedded

    def test_each_sample_is_centered_alone(self, cpus):
        for metric in SPLIT_METRICS:
            batch = metric_batch(metric, np.random.default_rng(7), 6)
            lifted = batch if metric.lift is None else metric.lift.apply_batch(batch)
            centered = lifted - lifted.mean(axis=-1, keepdims=True)
            expected = np.stack([embed(metric.embedding, c).ravel() for c in centered])
            for count in (1, 2):
                widths = cpus(count)
                assert metric.prepare_batch(batch).tobytes() == expected.tobytes(), metric.name
                assert widths == [count]


class TestPseudometricAxioms:
    @pytest.mark.parametrize("spec", ALL_EMBEDDINGS, ids=lambda s: s.name)
    def test_axioms_on_random_triples(self, spec):
        rng = np.random.default_rng(40)
        metric = Pseudometric(spec)
        for _ in range(200):
            x, y, z = random_batch(rng, 3, channels=2, steps=24)
            dxy = metric.distance(x, y)
            dyx = metric.distance(y, x)
            assert dxy == dyx
            assert metric.distance(x, x) == 0.0
            assert metric.distance(x, z) <= dxy + metric.distance(y, z) + 1e-9

    def test_axioms_for_lifted_trains(self):
        rng = np.random.default_rng(41)
        lift = VanRossumLift(pspk(KernelFamily.HAT), support=5.0)
        metric = Pseudometric(EmbeddingSpec("l2"), lift)
        for _ in range(100):
            sets = []
            for _ in range(3):
                trains = [
                    np.sort(rng.choice(30, size=rng.integers(0, 8), replace=False))
                    for _ in range(2)
                ]
                sets.append(SpikeTrainSet(trains=trains, n_steps=30).to_dense())
            x, y, z = sets
            assert metric.distance(x, y) == metric.distance(y, x)
            assert metric.distance(x, x) == 0.0
            assert metric.distance(x, z) <= (
                metric.distance(x, y) + metric.distance(y, z) + 1e-9
            )


class TestPairProbabilities:
    def test_direct_ratio(self):
        # 3 samples -> pairs (1,0), (2,0), (2,1); distances chosen so that
        # two pairs carry weight 2 and 4 with equal input distances
        d_in = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0.0]])
        d_out = np.array([[0, 2, 4], [2, 0, 0], [4, 0, 0.0]])
        pairs = pair_probabilities_from_matrices(d_in, d_out, eps=0.0)
        np.testing.assert_allclose(pairs.probs, [2 / 6, 4 / 6, 0.0])

    def test_equidistant_samples_give_uniform(self):
        # one-hot samples are pairwise equidistant for the plain L2 metric,
        # so every ratio is equal and the distribution is uniform
        batch = np.zeros((4, 1, 16))
        targets = np.zeros((4, 1, 8))
        for i in range(4):
            batch[i, 0, i] = 1.0
            targets[i, 0, i] = 1.0
        pairs = pair_probabilities(
            batch, targets,
            Pseudometric(EmbeddingSpec("l2")),
            Pseudometric(EmbeddingSpec("l2")),
            eps=1e-6,
        )
        np.testing.assert_allclose(pairs.probs, 1 / 6)

    def test_zero_norm_sample_is_filtered(self):
        rng = np.random.default_rng(8)
        batch = rng.normal(size=(4, 2, 16))
        batch[2] = 0.0
        targets = rng.normal(size=(4, 2, 8))
        pairs = pair_probabilities(
            batch, targets,
            Pseudometric(EmbeddingSpec("l2")), Pseudometric(EmbeddingSpec("l2")),
            min_norm=1e-6,
        )
        for k in range(pairs.n_pairs):
            if pairs.pair_n[k] == 2 or pairs.pair_m[k] == 2:
                assert pairs.probs[k] == 0.0
        assert pairs.probs.sum() == pytest.approx(1.0)

    def test_all_filtered_raises(self):
        batch = np.zeros((3, 2, 16))
        targets = np.random.default_rng(9).normal(size=(3, 2, 8))
        with pytest.raises(DegenerateDistributionError):
            pair_probabilities(
                batch, targets,
                Pseudometric(EmbeddingSpec("l2")), Pseudometric(EmbeddingSpec("l2")),
            )

    def test_output_scaling_invariance_at_zero_eps(self):
        rng = np.random.default_rng(19)
        d_in = np.abs(rng.normal(size=(6, 6)))
        d_out = np.abs(rng.normal(size=(6, 6)))
        for m in (d_in, d_out):
            np.fill_diagonal(m, 0.0)
            m += m.T
        base = pair_probabilities_from_matrices(d_in, d_out, eps=0.0)
        scaled = pair_probabilities_from_matrices(d_in, 37.0 * d_out, eps=0.0)
        np.testing.assert_allclose(scaled.probs, base.probs, rtol=1e-12)


@pytest.mark.parametrize("kind", ["mask", "lifted mask", "real"])
def test_lift_and_filter_keeps_the_bits_of_the_batch_reduction(kind):
    """The lift and the per-sample norms equal, bit for bit, one stacked
    product and one centered copy of the batch: a threshold at a sample's
    own norm keeps it, and the next float above drops it."""
    rng = np.random.default_rng(20)
    if kind == "real":
        dense, lift = random_batch(rng, 12, channels=9, steps=40), None
    else:
        dense = rng.random((12, 9, 40)) < 0.1
        lift = VanRossumLift(pspk(KernelFamily.HAT), 3.0) if kind == "lifted mask" else None
    lifted = dense
    if lift is not None:
        placed = PlacedKernel(lift.kernel, 0.0, lift.support)
        lifted = dense @ network.kernel_conv_matrix(placed, 40).T
    centered = lifted - lifted.mean(axis=-1, keepdims=True)
    norms = np.sqrt(np.sum(np.square(centered), axis=-1)).max(axis=1)
    for k in range(len(dense)):
        got, valid = sampling._lift_and_filter(lift, dense, norms[k])
        assert got.tobytes() == lifted.tobytes()
        np.testing.assert_array_equal(valid, norms >= norms[k])
        _, valid = sampling._lift_and_filter(lift, dense, np.nextafter(norms[k], np.inf))
        assert not valid[k]


class TestSamplePair:
    def test_dirac_always_returns_its_pair(self):
        probs = np.zeros(6)
        probs[3] = 1.0
        n_idx, m_idx = np.tril_indices(4, k=-1)
        pairs = PairProbabilities(probs=probs, pair_n=n_idx, pair_m=m_idx)
        rng = np.random.default_rng(10)
        expected = (int(n_idx[3]), int(m_idx[3]))
        assert all(sample_pair(pairs, rng) == expected for _ in range(20))

    def test_uniform_frequencies(self):
        n_idx, m_idx = np.tril_indices(4, k=-1)
        pairs = PairProbabilities(probs=np.full(6, 1 / 6), pair_n=n_idx, pair_m=m_idx)
        rng = np.random.default_rng(11)
        draws = rng.choice(pairs.n_pairs, p=pairs.probs, size=60000)
        freqs = np.bincount(draws, minlength=6) / 60000
        np.testing.assert_allclose(freqs, 1 / 6, atol=0.01)

    def test_fixed_seed_reproduces_draws(self):
        n_idx, m_idx = np.tril_indices(5, k=-1)
        probs = np.arange(1.0, 11.0)
        probs /= probs.sum()
        pairs = PairProbabilities(probs=probs, pair_n=n_idx, pair_m=m_idx)
        rng1, rng2 = np.random.default_rng(3), np.random.default_rng(3)
        assert [sample_pair(pairs, rng1) for _ in range(10)] == [
            sample_pair(pairs, rng2) for _ in range(10)
        ]

    def test_indices_are_distinct(self):
        n_idx, m_idx = np.tril_indices(6, k=-1)
        probs = np.full(len(n_idx), 1.0 / len(n_idx))
        pairs = PairProbabilities(probs=probs, pair_n=n_idx, pair_m=m_idx)
        rng = np.random.default_rng(12)
        for _ in range(50):
            n, m = sample_pair(pairs, rng)
            assert n != m

    def test_draws_match_generator_choice(self):
        # the same index on every draw and the same stream position after
        source = np.random.default_rng(13)
        for case in range(20):
            k = int(source.integers(2, 5000))
            probs = source.random(k) * (source.random(k) < 0.8)
            probs[source.integers(k)] += 1.0
            probs /= probs.sum()
            pairs = PairProbabilities(probs=probs, pair_n=np.arange(k),
                                      pair_m=np.zeros(k, dtype=int))
            mine, numpys = np.random.default_rng(case), np.random.default_rng(case)
            for _ in range(200):
                assert sample_pair(pairs, mine)[0] == numpys.choice(k, p=probs)
            assert mine.random() == numpys.random()

    @pytest.mark.parametrize("probs", [[0.5, 0.6, -0.1], [0.5, np.nan, 0.5], [0.5, 0.4, 0.05]],
                             ids=["negative", "nan", "short-of-one"])
    def test_bad_distribution_rejected(self, probs):
        n_idx, m_idx = np.tril_indices(3, k=-1)
        with pytest.raises(ValueError, match="pair probabilities"):
            PairProbabilities(probs=np.array(probs), pair_n=n_idx, pair_m=m_idx)


class TestEntropy:
    def test_uniform_over_four_is_ln4_exact(self):
        assert shannon_entropy(np.full(4, 0.25)) == math.log(4)

    def test_dirac_is_zero(self):
        assert shannon_entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_hand_value(self):
        assert shannon_entropy(np.array([0.5, 0.25, 0.25])) == pytest.approx(
            1.5 * math.log(2), abs=1e-15
        )

    def test_bounds(self):
        rng = np.random.default_rng(13)
        for k in (2, 5, 17):
            p = rng.uniform(size=k)
            p /= p.sum()
            h = shannon_entropy(p)
            assert 0.0 <= h <= math.log(k) + 1e-12


class TestSelectMetrics:
    def test_single_candidates_returned(self):
        rng = np.random.default_rng(14)
        batch = random_batch(rng, 6)
        targets = random_batch(rng, 6, steps=16)
        d_in = Pseudometric(EmbeddingSpec("l2"))
        d_out = Pseudometric(EmbeddingSpec("cos"))
        got = select_metrics(batch, targets, [d_in], [d_out])
        assert got[:2] == (d_in, d_out)

    def test_low_entropy_metric_wins(self):
        # candidate A collapses every pair to the same ratio (max entropy);
        # candidate B concentrates almost all mass on one pair
        class FlatMetric(Pseudometric):
            def pairwise(self, dense):
                n = dense.shape[0]
                out = np.ones((n, n))
                np.fill_diagonal(out, 0.0)
                return out

        class SpikyMetric(Pseudometric):
            def pairwise(self, dense):
                n = dense.shape[0]
                out = np.full((n, n), 1e-4)
                out[1, 0] = out[0, 1] = 50.0
                np.fill_diagonal(out, 0.0)
                return out

        rng = np.random.default_rng(15)
        batch = random_batch(rng, 5)
        targets = random_batch(rng, 5, steps=16)
        flat = FlatMetric(EmbeddingSpec("l2"))
        spiky = SpikyMetric(EmbeddingSpec("cos"))
        got_in, got_out, _ = select_metrics(batch, targets, [flat], [flat, spiky])
        assert got_out is spiky

    def test_tie_breaks_by_candidate_order(self):
        rng = np.random.default_rng(16)
        batch = random_batch(rng, 5)
        targets = random_batch(rng, 5, steps=16)
        a = Pseudometric(EmbeddingSpec("l2"))
        b = Pseudometric(EmbeddingSpec("l2"))
        got_in, got_out, _ = select_metrics(batch, targets, [a, b], [a, b])
        assert got_in is a and got_out is a

    def test_sample_filter_runs_once_per_lift(self, monkeypatch):
        lifted = []
        real = sampling._lift_and_filter

        def counted(lift, dense, min_norm):
            lifted.append(lift)
            return real(lift, dense, min_norm)

        monkeypatch.setattr(sampling, "_lift_and_filter", counted)
        rng = np.random.default_rng(18)
        batch = (rng.random((6, 3, 32)) < 0.2).astype(float)
        targets = random_batch(rng, 6, steps=16)
        lift = VanRossumLift(pspk(KernelFamily.HAT), 3.0)
        cands = [Pseudometric(spec, lift) for spec in ALL_EMBEDDINGS]
        cands.append(Pseudometric(EmbeddingSpec("l2")))
        got = select_metrics(batch, targets, cands, cands[-1:])
        assert lifted == [lift, None]
        # each candidate alone keeps its own filter: the choice is the same
        entropies = []
        for cand in cands:
            pairs = pair_probabilities(batch, targets, cand, cands[-1])
            entropies.append(shannon_entropy(pairs))
        assert got[0] is cands[int(np.argmin(entropies))]

    def test_returns_the_chosen_distribution(self):
        rng = np.random.default_rng(19)
        batch = (rng.random((7, 3, 32)) < 0.2).astype(float)
        targets = random_batch(rng, 7, steps=16)
        lift = VanRossumLift(pspk(KernelFamily.HAT), 3.0)
        cands_in = [Pseudometric(spec, lift) for spec in ALL_EMBEDDINGS]
        cands_out = [Pseudometric(spec) for spec in ALL_EMBEDDINGS]
        got_in, got_out, pairs = select_metrics(batch, targets, cands_in, cands_out)
        alone = pair_probabilities(batch, targets, got_in, got_out)
        assert pairs.probs.tobytes() == alone.probs.tobytes()
        np.testing.assert_array_equal(pairs.pair_n, alone.pair_n)
        np.testing.assert_array_equal(pairs.pair_m, alone.pair_m)

    def test_lifted_pairwise_is_the_pairwise_of_the_lifted_batch(self):
        rng = np.random.default_rng(20)
        batch = (rng.random((6, 3, 32)) < 0.2).astype(float)
        lift = VanRossumLift(pspk(KernelFamily.HAT), 3.0)
        for spec in ALL_EMBEDDINGS:
            lifted = Pseudometric(spec, lift).pairwise(batch)
            bare = Pseudometric(spec).pairwise(lift.apply_batch(batch))
            assert lifted.tobytes() == bare.tobytes()

    @pytest.mark.parametrize("n_inputs, n_targets, match", [
        (5, 7, "same sample count"),
        (1, 1, "at least two samples"),
    ])
    def test_sample_counts_checked_as_for_one_pair(self, n_inputs, n_targets, match):
        rng = np.random.default_rng(21)
        batch = random_batch(rng, n_inputs)
        targets = random_batch(rng, n_targets, steps=16)
        l2 = Pseudometric(EmbeddingSpec("l2"))
        with pytest.raises(ValueError, match=match):
            pair_probabilities(batch, targets, l2, l2)
        with pytest.raises(ValueError, match=match):
            select_metrics(batch, targets, [l2], [l2])

    def test_choice_does_not_depend_on_the_cpu_count(self, cpus):
        rng = np.random.default_rng(22)
        batch = rng.random((70, 6, 40)) < 0.2
        targets = random_batch(rng, 70, steps=16)
        cands_in = [Pseudometric(spec, LIFT) for spec in ALL_EMBEDDINGS]
        cands_out = [Pseudometric(spec) for spec in ALL_EMBEDDINGS]
        chosen = []
        for count in (1, 2):
            widths = cpus(count)
            got_in, got_out, pairs = select_metrics(batch, targets, cands_in, cands_out)
            chosen.append((got_in.name, got_out.name, pairs.probs.tobytes()))
            assert max(widths) == count
        assert chosen[0] == chosen[1]

    def test_empty_candidates_rejected(self):
        rng = np.random.default_rng(17)
        batch = random_batch(rng, 4)
        with pytest.raises(ValueError):
            select_metrics(batch, batch, [], [Pseudometric(EmbeddingSpec("l2"))])
