"""Spike-index lists, kept for the benchmark's tracer.

Everything in the package lives on the unit-step time grid (one step per
sample of a series) and works on batches: real-valued signals are dense
(samples, channels, steps) arrays and spikes are boolean masks of shape
(samples, neurons, steps). ``SpikeTrainSet`` (sorted step indices per
neuron, one sample) converts index lists to and from such masks, and no
function in the package takes it. It stays only because the benchmark's
tracer wraps ``from_dense`` and ``to_dense``, and goes with the next change
to the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SpikeTrainSet:
    """Per-neuron sorted spike step indices on a shared grid.

    Each train is strictly increasing, so a neuron fires at most once per
    timestep by construction.
    """

    trains: list = field(default_factory=list)
    n_steps: int = 0

    def __post_init__(self):
        clean = []
        for i, train in enumerate(self.trains):
            arr = np.asarray(train, dtype=np.int64)
            if arr.ndim != 1:
                raise ValueError(f"train {i} must be 1-D")
            if arr.size:
                if np.any(np.diff(arr) <= 0):
                    raise ValueError(f"train {i} is not strictly increasing")
                if arr[0] < 0 or arr[-1] >= self.n_steps:
                    raise ValueError(
                        f"train {i} has spikes outside [0, {self.n_steps})"
                    )
            clean.append(arr)
        self.trains = clean

    @property
    def n_neurons(self) -> int:
        return len(self.trains)

    def counts(self) -> np.ndarray:
        return np.array([t.size for t in self.trains], dtype=np.int64)

    def to_dense(self) -> np.ndarray:
        """0/1 spike indicator matrix of shape (neurons, steps)."""
        dense = np.zeros((self.n_neurons, self.n_steps))
        for i, train in enumerate(self.trains):
            dense[i, train] = 1.0
        return dense

    @classmethod
    def from_dense(cls, mask: np.ndarray) -> "SpikeTrainSet":
        mask = np.asarray(mask)
        trains = [np.flatnonzero(mask[i]).astype(np.int64) for i in range(mask.shape[0])]
        return cls(trains=trains, n_steps=mask.shape[1])
