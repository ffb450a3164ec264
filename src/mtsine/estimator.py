"""Multitaper spectral estimators and the local error model.

The generic estimator averages tapered periodograms for any orthonormal
family. For sinusoidal tapers the whole K-taper estimate collapses to
shifted differences of a single zero-padded transform,

    S_hat(f) = sum_j mu_j / (2*(n+1)) * |y(f + j/(2n+2)) - y(f - j/(2n+2))|^2,

which costs one transform instead of K. Both paths agree to round-off on
grids whose size is a multiple of 2*(n+1). Every transform is the
chirp-z transform behind :func:`dft`, whose cost does not depend on the
factors of the grid size. The fast estimator takes uniform or
parabolic weights mu_j by kind and is one formula for a single K and for
a per-bin K(f): the paper's local bandwidth is K read at f.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .grid import FrequencyGrid, _count, _own_array, _weight_kind, default_grid
from .tapers import TaperFamily

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class WeightScheme:
    """Nonnegative taper weights summing to one; the rule that made them is not kept."""

    weights: np.ndarray

    def __post_init__(self):
        w = _own_array(self, "weights", 1)
        if not np.all(w >= 0):
            raise ValueError(f"weights must be nonnegative, got {w.min()}")
        if not abs(w.sum() - 1.0) <= _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to one, got {w.sum()}")

    @property
    def k_count(self):
        return self.weights.shape[0]


@dataclass(frozen=True)
class SpectralEstimate:
    """Spectral values on a frequency grid plus the bandwidth they used.

    ``values`` are power per unit frequency on the linear scale and
    log-power when ``scale == "log"``; ``k_used`` is the taper count,
    either a single integer or one integer per grid bin (the caller's
    taper weights are not kept), and ``w_used`` a variable-w estimate's
    per-bin smoother halfwidth. Linear-scale values must be finite
    (``FloatingPointError`` otherwise: the input overflowed the estimate)
    and nonnegative.
    """

    grid: FrequencyGrid
    values: np.ndarray
    k_used: object
    scale: str = "linear"
    w_used: np.ndarray | None = None

    def __post_init__(self):
        vals = _own_array(self, "values", 1, finite=False)
        if vals.shape != (self.grid.m,):
            raise ValueError("values must have one entry per grid bin")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"unknown scale {self.scale!r}")
        if self.scale == "linear" and not np.all(np.isfinite(vals)):
            raise FloatingPointError(
                "spectral estimate overflowed: linear-scale values must be finite")
        if self.scale == "linear" and np.any(vals < 0):
            raise ValueError("linear-scale spectral values must be nonnegative")
        if np.ndim(self.k_used) > 0:
            _own_array(self, "k_used", 1, np.int64)
        if self.w_used is not None:
            _own_array(self, "w_used", 1)


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

    One rule, 1 - j^2/s^2 normalized to sum to one. Parabolic weights take
    s = K (the last weight is zero by construction). Uniform weights are
    the same rule at s = inf, and so is a single-taper parabolic request:
    every raw weight is exactly 1, so each weight is exactly 1/K.
    """
    k_count = _count(k_count, "k_count")
    s = k_count if _weight_kind(kind) == "parabolic" and k_count > 1 else np.inf
    raw = 1.0 - np.arange(1, k_count + 1, dtype=np.float64) ** 2 / s**2
    return WeightScheme(raw / raw.sum())


def dft(series, grid):
    """Transform y(f_j) = sum_t x_t e^(-i*2*pi*t*f_j) with t starting at 1.

    The sample numbering matches the windows in :mod:`mtsine.tapers`.
    Bins 0..m//2 come from a chirp-z transform whose FFTs have a 5-smooth
    length L near n + m/2, so the factors of m (4*(2^p + 1) on the default
    grid at n = 2^p) do not set the cost; the other bins are their
    conjugates, y(-f) = conj y(f), and y(0) and y(1/2) are real. The
    whole transform runs in one complex buffer of max(L, m) entries, and
    y is its first m (a copy when L > m). The chirp plan for the last (n, m) is cached.
    """
    x = as_series(series)
    m = grid.m
    if m < x.shape[0]:
        raise ValueError(f"grid size {m} must be at least the series length")
    return _kernels._half_transform(x, m)


def multitaper_estimate(series, family, weights, grid=None):
    """Weighted average of tapered periodograms for any orthonormal family.

    Each tapered series goes through the chirp-z transform behind
    :func:`dft`, which returns the full Hermitian grid of m bins, so K
    tapers cost K transforms at a 5-smooth length L rather than K FFTs of
    length m; the K periodograms are read on all m bins, from K buffers
    of max(L, m) complex entries.
    """
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
    z = _kernels._half_transform(family.taper_matrix * x[None, :], grid.m)
    values = weights.weights @ (z.real**2 + z.imag**2)
    return SpectralEstimate(grid, values, family.k_count)


def sinusoidal_estimate_fast(series, k, weights="uniform", grid=None):
    """Sinusoidal multitaper estimate from one zero-padded transform.

    ``k`` is one taper count or one count per grid bin (an array of shape
    ``(grid.m,)``), each a whole number in [1, n]; a fractional K or a
    string raises ``ValueError``. ``weights`` is a kind, ``"uniform"`` or
    ``"parabolic"`` (other weights go through :func:`multitaper_estimate`),
    applied to each bin's own K shifted differences: a per-bin K gives each
    bin the single-K estimate at its K, bit for bit. Equals the generic
    estimator with the sinusoidal family to round-off; requires a grid size
    that is a multiple of 2*(n+1) so the half-resolution shifts land on bins.
    """
    x = as_series(series)
    n = x.shape[0]
    parabolic = _weight_kind(weights) == "parabolic"
    if grid is None:
        grid = default_grid(n)
    per_bin = np.ndim(k) > 0
    k_array = np.asarray(k)
    if per_bin and k_array.shape != (grid.m,):
        raise ValueError("a per-bin K must have one entry per grid bin")
    if k_array.dtype.kind not in "biuf" or not np.all(k_array == np.floor(k_array)):
        raise ValueError("a taper count K must be a whole number")
    lo, hi = k_array.min(), k_array.max()
    if not 1 <= lo <= hi <= n:
        raise ValueError(f"need 1 <= K <= n, got K in [{lo:g}, {hi:g}], n={n}")
    k = k_array.astype(np.int64) if per_bin else int(k_array)
    step = grid.shift_step(n)
    # kept until the estimate is built: freed sooner, fixed_k ran about 10% slower (cause unverified)
    y = dft(x, grid)
    combine = _kernels.variable_k_combine if per_bin else _kernels.combine_shifts
    values = combine(y, k, step, n + 1.0, parabolic)
    return SpectralEstimate(grid, np.maximum(values, 0.0, out=values), k)


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
    n, k_count = _count(n, "n"), _count(k_count, "k_count")
    bias = s2 * k_count * k_count / (24.0 * n * n)
    return bias * bias + s * s / k_count


def k_opt(s, s2, n, k_min=1, k_max=None):
    """Taper count minimizing the asymptotic error of the uniform estimate.

    Rounds (12*s*n^2/|s2|)^(2/5) to the nearest integer (ties toward
    more tapers) and clamps to [k_min, k_max]. The level ``s`` must be
    finite and positive; a curvature that vanishes relative to it makes
    the power inf or above 1e120, so the clamp gives k_max, and an
    infinite curvature gives k_min. Accepts
    scalar or array ``s`` and ``s2``: an int for scalars, an int64 array
    otherwise.
    """
    n = _count(n, "n", lo=2)
    k_max = n if k_max is None else _count(k_max, "k_max", hi=n)
    k_min = _count(k_min, "k_min", hi=k_max)
    s = np.asarray(s, dtype=np.float64)
    s2 = np.abs(np.asarray(s2, dtype=np.float64))
    if not np.all(s > 0):
        raise ValueError(f"spectral level must be positive, got {s.min()}")
    if not np.all(np.isfinite(s)):
        raise ValueError(f"spectral level must be finite, got {s.max()}")
    if np.any(np.isnan(s2)):
        raise ValueError("curvature must not be nan")
    # 12*s*n^2 may overflow, and inf/inf is nan: fmax takes k_min over it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        raw = np.floor((12.0 * s * n * n / s2) ** 0.4 + 0.5)
    k = np.minimum(np.fmax(raw, k_min), k_max).astype(np.int64)
    return int(k) if k.ndim == 0 else k
