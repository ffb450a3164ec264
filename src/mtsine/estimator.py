"""Multitaper spectral estimators and the local error model.

The generic estimator averages tapered periodograms for any orthonormal
family. For sinusoidal tapers the whole K-taper estimate collapses to
shifted differences of a single zero-padded transform,

    S_hat(f) = sum_j mu_j / (2*(n+1)) * |y(f + j/(2n+2)) - y(f - j/(2n+2))|^2,

which costs one FFT instead of K. Both paths agree to round-off on
grids whose size is a multiple of 2*(n+1).
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .grid import FrequencyGrid, default_grid
from .tapers import TaperFamily

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class WeightScheme:
    """Nonnegative taper weights summing to one."""

    weights: np.ndarray
    kind: str = "custom"

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty 1-d vector")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to one, got {w.sum()}")
        if self.kind not in ("uniform", "parabolic", "custom"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def k_count(self):
        return self.weights.shape[0]


@dataclass(frozen=True)
class SpectralEstimate:
    """Spectral values on a frequency grid plus estimator metadata.

    ``values`` are power per unit frequency on the linear scale and
    log-power when ``scale == "log"``; ``k_used`` is the taper count,
    either a single integer or one integer per grid bin. Linear-scale
    values must be finite (``FloatingPointError`` otherwise: the input
    overflowed the estimate) and nonnegative.
    """

    grid: FrequencyGrid
    values: np.ndarray
    k_used: object
    weights: WeightScheme | None
    scale: str = "linear"
    w_used: np.ndarray | None = None

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.shape != (self.grid.m,):
            raise ValueError("values must have one entry per grid bin")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"unknown scale {self.scale!r}")
        if self.scale == "linear" and not np.all(np.isfinite(vals)):
            raise FloatingPointError(
                "spectral estimate overflowed: linear-scale values must be finite"
            )
        if self.scale == "linear" and np.any(vals < 0):
            raise ValueError("linear-scale spectral values must be nonnegative")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def metadata(self):
        k = self.k_used
        if isinstance(k, np.ndarray):
            k = [int(v) for v in k]
        return {
            "grid_m": self.grid.m,
            "k_used": k,
            "weights": None if self.weights is None else self.weights.kind,
            "scale": self.scale,
        }


def as_series(x):
    """Validate a time series: 1-d, at least two finite samples."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] < 2:
        raise ValueError("time series must be 1-d with at least 2 samples")
    if not np.all(np.isfinite(x)):
        raise ValueError("time series must be finite")
    return x


def make_weights(kind, k_count):
    """Uniform or parabolic weights for ``k_count`` tapers.

    Parabolic weights fall off as 1 - j^2/K^2 (the last weight is zero
    by construction); a single-taper parabolic request degenerates to
    uniform.
    """
    if k_count < 1:
        raise ValueError(f"need at least one taper, got K={k_count}")
    if kind == "uniform":
        return WeightScheme(np.full(k_count, 1.0 / k_count), "uniform")
    if kind == "parabolic":
        if k_count == 1:
            return WeightScheme(np.ones(1), "parabolic")
        j = np.arange(1, k_count + 1, dtype=np.float64)
        raw = 1.0 - j**2 / k_count**2
        return WeightScheme(raw / raw.sum(), "parabolic")
    raise ValueError(f"unknown weight kind {kind!r}")


def dft(series, grid):
    """Transform y(f_j) = sum_t x_t e^(-i*2*pi*t*f_j) with t starting at 1.

    Zero-padded FFT with the phase factor e^(-i*2*pi*f) on the first
    sample, matching the windows in :mod:`mtsine.tapers`.
    """
    x = as_series(series)
    if grid.m < x.shape[0]:
        raise ValueError(f"grid size {grid.m} must be at least the series length")
    y = np.fft.fft(x, grid.m)
    y *= np.exp(-2j * np.pi * np.arange(grid.m) / grid.m)
    return y


def multitaper_estimate(series, family, weights, grid=None):
    """Weighted average of tapered periodograms for any orthonormal family."""
    x = as_series(series)
    if not isinstance(family, TaperFamily):
        raise TypeError("family must be a TaperFamily")
    if family.n != x.shape[0]:
        raise ValueError(
            f"family length {family.n} does not match series length {x.shape[0]}"
        )
    if weights.k_count != family.k_count:
        raise ValueError(
            f"{weights.k_count} weights for {family.k_count} tapers"
        )
    if grid is None:
        grid = default_grid(x.shape[0])
    if grid.m < 2 * x.shape[0]:
        raise ValueError(f"estimation grid must have m >= 2n, got m={grid.m}")
    z = np.fft.fft(family.taper_matrix * x[None, :], grid.m, axis=1)
    values = weights.weights @ (z.real**2 + z.imag**2)
    return SpectralEstimate(grid, values, family.k_count, weights)


def sinusoidal_estimate_fast(series, k_count, weights=None, grid=None):
    """Sinusoidal multitaper estimate from one zero-padded transform.

    Equals the generic estimator with the sinusoidal family to
    round-off; requires a grid size that is a multiple of 2*(n+1) so
    the half-resolution shifts land on grid bins.
    """
    x = as_series(series)
    n = x.shape[0]
    if not 1 <= k_count <= n:
        raise ValueError(f"need 1 <= K <= n, got K={k_count}, n={n}")
    if weights is None:
        weights = make_weights("uniform", k_count)
    if weights.k_count != k_count:
        raise ValueError(f"{weights.k_count} weights for K={k_count} tapers")
    if grid is None:
        grid = default_grid(n)
    step = grid.shift_step(n)
    y = dft(x, grid)
    scaled = weights.weights / (2.0 * (n + 1))
    values = _kernels.combine_shifts(y, scaled, step)
    return SpectralEstimate(grid, np.maximum(values, 0.0), k_count, weights)


def expected_square_error(s, s2, weights, local_biases):
    """Leading-order expected square error of a multitaper estimate.

    ``s`` and ``s2`` are the spectrum and its second frequency
    derivative at the target frequency; the bias term pairs the taper
    local biases with the weights and the variance term is s^2 times
    the summed squared weights.
    """
    lam = np.asarray(local_biases, dtype=np.float64)
    if lam.shape != weights.weights.shape:
        raise ValueError("one local bias per weight is required")
    bias = 0.5 * s2 * float(weights.weights @ lam)
    return bias * bias + s * s * float(weights.weights @ weights.weights)


def asymptotic_sinusoidal_loss(s, s2, n, k_count):
    """Large-n error of the uniform sinusoidal estimate with K tapers.

    (s2 * K^2 / (24 n^2))^2 + s^2 / K; the quantity whose minimizer over
    K is :func:`k_opt`.
    """
    if k_count < 1:
        raise ValueError(f"need at least one taper, got K={k_count}")
    bias = s2 * k_count * k_count / (24.0 * n * n)
    return bias * bias + s * s / k_count


def k_opt(s, s2, n, k_min=1, k_max=None):
    """Taper count minimizing the asymptotic error of the uniform estimate.

    Rounds (12*s*n^2/|s2|)^(2/5) to the nearest integer (ties toward
    more tapers) and clamps to [k_min, k_max]. A vanishing curvature
    relative to the level clamps to k_max. Accepts scalar or array
    ``s`` and ``s2``: an int for scalars, an int64 array otherwise.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if k_max is None:
        k_max = n
    if not 1 <= k_min <= k_max <= n:
        raise ValueError(f"need 1 <= k_min <= k_max <= n, got [{k_min}, {k_max}]")
    s = np.asarray(s, dtype=np.float64)
    s2 = np.abs(np.asarray(s2, dtype=np.float64))
    if not np.all(s > 0):
        raise ValueError(f"spectral level must be positive, got {s.min()}")
    if np.any(np.isnan(s2)):
        raise ValueError("curvature must not be nan")
    with np.errstate(over="ignore", divide="ignore"):
        raw = np.floor((12.0 * s * n * n / s2) ** 0.4 + 0.5)
    k = np.where(s2 < 1e-300 * s, k_max, np.clip(raw, k_min, k_max)).astype(np.int64)
    return int(k) if k.ndim == 0 else k
