"""Analytic 1-D kernel families with placement and discretization.

Three compactly supported families are shipped: a hat function, a rectified
Morlet wavelet, and a rectified decaying exponential. All of them vanish
for |x| > 1, which keeps every convolution in the simulator finite.

A kernel becomes a synaptic (or refractory) response by *placing* it: the
argument is shifted by a delay, stretched by a support, and half-wave
rectified in time so the response never precedes the event that caused it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EmptyGridError


class KernelFamily(str, Enum):
    HAT = "hat"
    MORLET = "morlet"
    EXP = "exp"


class Rectification(str, Enum):
    INCLUSIVE = "inclusive"  # zero for t < 0
    EXCLUSIVE = "exclusive"  # zero for t <= 0
    NONE = "none"


def kernel_value(family: KernelFamily, x):
    """Evaluate a kernel family at scaled coordinate(s) ``x``.

    Total function: returns exactly 0 outside [-1, 1] for every family.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    inside = np.abs(x) <= 1.0
    xc = np.clip(x, -1.0, 1.0)
    if family is KernelFamily.HAT:
        out = np.maximum(1.0 - np.abs(x), 0.0)
    elif family is KernelFamily.MORLET:
        out = np.where(inside, np.exp(-3.0 * xc * xc) * np.cos(2.0 * np.pi * xc), 0.0)
    elif family is KernelFamily.EXP:
        out = np.where(inside, np.exp(-xc), 0.0)
    else:
        raise ValueError(f"unknown kernel family: {family!r}")
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family plus the rectification applied at placement time."""

    family: KernelFamily
    rectification: Rectification = Rectification.NONE

    def evaluate(self, x):
        """Analytic family value; rectification only acts on placed kernels."""
        return kernel_value(self.family, x)

    def place(self, t: np.ndarray, delay, support) -> np.ndarray:
        """Values at times ``t`` (an array) since the placing event of this
        kernel shifted by ``delay``, stretched by ``support`` and rectified
        in t. The three arguments broadcast, so one call can place the
        kernel for many neurons at once."""
        out = kernel_value(self.family, (t - delay) / support)
        if self.rectification is Rectification.INCLUSIVE:
            out = np.where(t >= 0.0, out, 0.0)
        elif self.rectification is Rectification.EXCLUSIVE:
            out = np.where(t > 0.0, out, 0.0)
        return out


def pspk(family: KernelFamily | str) -> KernelSpec:
    """Synaptic kernel: inclusive rectification (active from t = 0 on)."""
    return KernelSpec(KernelFamily(family), Rectification.INCLUSIVE)


def rfk(family: KernelFamily | str) -> KernelSpec:
    """Refractory kernel: exclusive rectification (active strictly after t = 0)."""
    return KernelSpec(KernelFamily(family), Rectification.EXCLUSIVE)


def kernel_peak_offset(spec: KernelSpec) -> float:
    """Location of the causal peak in unscaled coordinates.

    All shipped families attain their maximum at the origin once the causal
    rectification is in force (the hat and Morlet peak there outright; the
    decaying exponential is monotone on its causal side).
    """
    if spec.family in (KernelFamily.HAT, KernelFamily.MORLET, KernelFamily.EXP):
        return 0.0
    raise ValueError(f"unknown kernel family: {spec.family!r}")


@dataclass(frozen=True)
class PlacedKernel:
    """A kernel shifted by ``delay``, stretched by ``support``, rectified in t."""

    spec: KernelSpec
    delay: float = 0.0
    support: float = 1.0

    def __post_init__(self):
        if self.support <= 0:
            raise ValueError(f"support must be positive, got {self.support}")

    def sample_at(self, t):
        """Value of the placed kernel at time(s) ``t`` since the placing event."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        out = self.spec.place(np.atleast_1d(t), self.delay, self.support)
        return float(out[0]) if scalar else out

    def taps(self, grid_len: int) -> np.ndarray:
        """Samples at the steps t = 0, 1, ..., grid_len - 1."""
        if grid_len <= 0:
            raise EmptyGridError("cannot discretize on an empty grid")
        return self.sample_at(np.arange(grid_len))


def tap_span(delay, support):
    """Number of steps after which a kernel placed at ``delay`` with
    ``support`` is surely zero; elementwise over arrays of placements."""
    return np.floor(np.asarray(delay) + support).astype(int) + 1
