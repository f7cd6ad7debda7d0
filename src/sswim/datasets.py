"""Dataset ingestion, windowing, normalization, synthetic data, and the
forecasting error metric.

A forecasting dataset is a multivariate series cut into overlapping
windows: the first ``obs_len`` steps of a window are the model input, the
remaining ``horizon`` steps the target. Windows are split chronologically
into train/valid/test, and min-max normalization is fitted on the raw
values covered by the training windows only, so no statistic ever leaks
from the future.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def load_csv(path, variables: int | None = None) -> np.ndarray:
    """Read a rectangular numeric CSV: one row per timestep, one column per
    variable. A non-numeric first row is treated as a header and skipped.

    Returns a (variables, steps) matrix. Ragged rows, non-numeric cells and
    non-finite cells (NaN, inf, -inf) are rejected with the offending location.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for line_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if line_no == 1:
                try:
                    rows.append([float(cell) for cell in row])
                    continue
                except ValueError:
                    continue  # header row
            parsed = []
            for col_no, cell in enumerate(row, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: non-numeric cell at line {line_no}, column {col_no}"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0])
    for i, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValueError(f"{path}: ragged row at line {i}: {len(row)} != {width} cells")
    series = np.asarray(rows, dtype=float).T
    bad = ~np.isfinite(series.T)
    if np.any(bad):
        step, var = np.argwhere(bad)[0]
        value = series[var, step]
        shown = "NaN" if np.isnan(value) else repr(float(value))
        raise ValueError(f"{path}: non-finite {shown} at row {step + 1}, column {var + 1}")
    if variables is not None and series.shape[0] != variables:
        raise ValueError(f"{path}: expected {variables} variables, found {series.shape[0]}")
    return series


@dataclass
class ForecastDataset:
    """Normalized series plus chronological window splits."""

    series: np.ndarray           # (variables, steps), normalized
    obs_len: int
    horizon: int
    stride: int = 1
    starts: dict = field(default_factory=dict)   # split -> window start indices
    norm_lo: np.ndarray | None = None
    norm_hi: np.ndarray | None = None

    @property
    def n_variables(self) -> int:
        return self.series.shape[0]

    @property
    def window_len(self) -> int:
        return self.obs_len + self.horizon

    def n_windows(self, split: str) -> int:
        return len(self.starts[split])

    def _windows(self, starts, offset: int, length: int) -> np.ndarray:
        """(samples, variables, length) copies of the series from each start
        plus ``offset``, gathered at once; no starts give no samples."""
        view = sliding_window_view(self.series, length, axis=1).swapaxes(0, 1)
        return view[np.asarray(starts, dtype=np.intp) + offset]

    def input_batch(self, starts) -> np.ndarray:
        """(samples, variables, obs_len) input windows."""
        return self._windows(starts, 0, self.obs_len)

    def target_batch(self, starts) -> np.ndarray:
        """(samples, variables, horizon) target windows."""
        return self._windows(starts, self.obs_len, self.horizon)


def check_ratios(ratios) -> None:
    """Raise ValueError unless ``ratios`` are three non-negative values summing to 1."""
    if len(ratios) != 3 or any(not r >= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError("ratios must be three non-negative values summing to 1")


def check_series_length(steps: int, window_len: int) -> None:
    """Raise ValueError unless a series of ``steps`` holds one window."""
    if steps < window_len:
        raise ValueError(f"series has {steps} steps; need at least {window_len}")


def split_window_starts(n_windows: int, ratios=(0.7, 0.2, 0.1)) -> dict:
    """Chronological split by cumulative ratio boundaries (floored).

    If flooring would leave the training split empty, every window goes to
    train instead.
    """
    check_ratios(ratios)
    train_end = int(np.floor(ratios[0] * n_windows))
    valid_end = int(np.floor((ratios[0] + ratios[1]) * n_windows))
    if train_end == 0:
        train_end = valid_end = n_windows
    idx = np.arange(n_windows)
    return {
        "train": idx[:train_end],
        "valid": idx[train_end:valid_end],
        "test": idx[valid_end:],
    }


def make_windows(series: np.ndarray, obs_len: int, horizon: int,
                 stride: int = 1, ratios=(0.7, 0.2, 0.1),
                 normalize: bool = True) -> ForecastDataset:
    """Cut a raw series into windows, split chronologically, and min-max
    normalize each variable to [0, 1] using only train-covered raw values."""
    series = np.asarray(series, dtype=float)
    if series.ndim != 2:
        raise ValueError("series must be (variables, steps)")
    window_len = obs_len + horizon
    check_series_length(series.shape[1], window_len)
    if stride < 1:
        raise ValueError("stride must be at least 1")
    all_starts = np.arange(0, series.shape[1] - window_len + 1, stride)
    split_idx = split_window_starts(len(all_starts), ratios)
    starts = {name: all_starts[idx] for name, idx in split_idx.items()}
    norm_lo = norm_hi = None
    if normalize:
        train_end_step = int(starts["train"][-1]) + window_len
        train_region = series[:, :train_end_step]
        norm_lo = train_region.min(axis=1)
        norm_hi = train_region.max(axis=1)
        span = np.where(norm_hi > norm_lo, norm_hi - norm_lo, 1.0)
        series = (series - norm_lo[:, None]) / span[:, None]
    return ForecastDataset(
        series=series, obs_len=obs_len, horizon=horizon, stride=stride,
        starts=starts, norm_lo=norm_lo, norm_hi=norm_hi,
    )


# ---------------------------------------------------------------------------
# synthetic data


def multisine_series(variables: int, steps: int, rng: np.random.Generator,
                     noise_sigma: float = 0.05):
    """Per-variable random sums of 2-4 sinusoids plus Gaussian noise.

    Returns the series and the drawn components as a list (per variable) of
    (amplitude, period, phase) triples, so tests can reconstruct the clean
    signal exactly.
    """
    t = np.arange(steps)
    series = np.zeros((variables, steps))
    components = []
    for v in range(variables):
        n_waves = int(rng.integers(2, 5))
        waves = []
        for _ in range(n_waves):
            amp = float(rng.uniform(0.4, 1.2))
            period = float(rng.uniform(8.0, 64.0))
            phase = float(rng.uniform(0.0, 2.0 * np.pi))
            series[v] += amp * np.sin(2.0 * np.pi * t / period + phase)
            waves.append((amp, period, phase))
        components.append(waves)
    if noise_sigma > 0.0:
        series += noise_sigma * rng.standard_normal(series.shape)
    return series, components


def ar_noise_series(variables: int, steps: int, rng: np.random.Generator) -> np.ndarray:
    """Order-2 autoregressive noise with poles inside the unit circle."""
    burn = 200
    total = steps + burn
    series = np.zeros((variables, total))
    for v in range(variables):
        r = rng.uniform(0.7, 0.95)
        theta = rng.uniform(0.05 * np.pi, 0.5 * np.pi)
        a1 = 2.0 * r * np.cos(theta)
        a2 = -r * r
        eps = rng.standard_normal(total)
        for t in range(2, total):
            series[v, t] = a1 * series[v, t - 1] + a2 * series[v, t - 2] + eps[t]
    return series[:, burn:]


SYNTH_KINDS = ("multisine", "arnoise")


def synth_dataset(kind: str, variables: int, steps: int, seed: int,
                  noise_sigma: float = 0.05) -> np.ndarray:
    """Deterministic synthetic raw series of a given kind."""
    rng = np.random.default_rng(seed)
    if kind == "multisine":
        series, _ = multisine_series(variables, steps, rng, noise_sigma)
        return series
    if kind == "arnoise":
        return ar_noise_series(variables, steps, rng)
    raise ValueError(f"unknown synthetic dataset kind: {kind!r}")


# ---------------------------------------------------------------------------
# metric


def rse(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Root relative squared error against the all-sample mean target.

    Both arrays are (samples, variables, horizon); the reference predictor
    is the elementwise mean target over the evaluation set.
    """
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise ValueError(
            f"shape mismatch: predictions {predictions.shape} vs targets {targets.shape}"
        )
    mean_target = targets.mean(axis=0, keepdims=True)
    denom = np.sum((targets - mean_target) ** 2)
    if denom <= 0.0:
        raise ValueError("targets are constant; the relative error is undefined")
    num = np.sum((targets - predictions) ** 2)
    return float(np.sqrt(num / denom))
