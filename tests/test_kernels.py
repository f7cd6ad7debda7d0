import math

import numpy as np
import pytest

from sswim.errors import EmptyGridError
from sswim.kernels import (
    KernelFamily,
    KernelSpec,
    PlacedKernel,
    Rectification,
    kernel_peak_offset,
    pspk,
    rfk,
)

ALL_FAMILIES = list(KernelFamily)


class TestEvaluate:
    def test_hat_at_zero(self):
        assert KernelSpec(KernelFamily.HAT).evaluate(0.0) == 1.0

    def test_hat_outside_support(self):
        assert KernelSpec(KernelFamily.HAT).evaluate(1.5) == 0.0

    def test_morlet_at_zero(self):
        assert KernelSpec(KernelFamily.MORLET).evaluate(0.0) == 1.0

    def test_exp_at_zero(self):
        assert KernelSpec(KernelFamily.EXP).evaluate(0.0) == 1.0

    def test_morlet_formula(self):
        x = 0.3
        expected = math.exp(-3 * x * x) * math.cos(2 * math.pi * x)
        assert KernelSpec(KernelFamily.MORLET).evaluate(x) == pytest.approx(expected)

    def test_exp_formula(self):
        assert KernelSpec(KernelFamily.EXP).evaluate(0.5) == pytest.approx(
            math.exp(-0.5)
        )

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_compact_support(self, family):
        rng = np.random.default_rng(7)
        x = rng.uniform(-50.0, 50.0, size=1000)
        outside = np.abs(x) > 1.0
        vals = KernelSpec(family).evaluate(x)
        assert np.all(vals[outside] == 0.0)

    def test_extreme_arguments_do_not_overflow(self):
        vals = KernelSpec(KernelFamily.EXP).evaluate(np.array([-1e300, 1e300]))
        assert np.all(vals == 0.0)


class TestDiscretize:
    def test_hat_unshifted(self):
        pk = PlacedKernel(pspk(KernelFamily.HAT), delay=0.0, support=2.0)
        np.testing.assert_allclose(pk.taps(4), [1.0, 0.5, 0.0, 0.0])

    def test_hat_shifted(self):
        pk = PlacedKernel(pspk(KernelFamily.HAT), delay=2.0, support=2.0)
        np.testing.assert_allclose(pk.taps(4), [0.0, 0.5, 1.0, 0.5])

    def test_exclusive_exp(self):
        pk = PlacedKernel(rfk(KernelFamily.EXP), delay=0.0, support=1.0)
        np.testing.assert_allclose(pk.taps(3), [0.0, math.exp(-1.0), 0.0])

    def test_empty_grid_rejected(self):
        pk = PlacedKernel(pspk(KernelFamily.HAT))
        with pytest.raises(EmptyGridError):
            pk.taps(0)

    def test_nonpositive_support_rejected(self):
        with pytest.raises(ValueError):
            PlacedKernel(pspk(KernelFamily.HAT), support=0.0)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_grid_refinement_is_consistent(self, family):
        # a grid twice as fine is the unit grid with delay and support
        # doubled: it keeps the coarse samples as every other fine sample
        coarse = PlacedKernel(pspk(family), delay=1.0, support=4.0).taps(8)
        fine = PlacedKernel(pspk(family), delay=2.0, support=8.0).taps(16)
        np.testing.assert_array_equal(coarse, fine[::2])


class TestPeakOffset:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_shipped_families_peak_at_origin(self, family):
        assert kernel_peak_offset(pspk(family)) == 0.0

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_matches_bruteforce_argmax(self, family):
        # causal rectification applied, as it is whenever the kernel acts
        spec = pspk(family)
        pk = PlacedKernel(spec, delay=0.0, support=1.0)
        grid = np.linspace(-1.0, 1.0, 10001)
        vals = pk.sample_at(grid)
        best = grid[int(np.argmax(vals))]
        step = grid[1] - grid[0]
        assert abs(best - kernel_peak_offset(spec)) <= step + 1e-12


class TestRectification:
    def test_inclusive_keeps_origin(self):
        pk = PlacedKernel(pspk(KernelFamily.HAT), delay=0.0, support=2.0)
        assert pk.sample_at(0.0) == 1.0
        assert pk.sample_at(-0.5) == 0.0

    def test_exclusive_drops_origin(self):
        pk = PlacedKernel(rfk(KernelFamily.EXP), delay=0.0, support=2.0)
        assert pk.sample_at(0.0) == 0.0
        assert pk.sample_at(0.5) == pytest.approx(math.exp(-0.25))

    def test_unrectified_spec_sees_negative_times(self):
        pk = PlacedKernel(KernelSpec(KernelFamily.HAT, Rectification.NONE),
                          delay=0.0, support=2.0)
        assert pk.sample_at(-1.0) == 0.5
