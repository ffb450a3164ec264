"""Log-spectrum estimation, kernel smoothing, and two-stage bandwidth plug-in.

The log of a K-taper estimate of white noise is biased by
``B_K = psi(K) - ln(K)`` (the mean of ``ln(chi^2_{2K}/(2K))``), so the
log estimate here subtracts that constant by default. Smoothing the
corrected log estimate with a halfwidth matched to the local curvature
of the log spectrum gives the two-stage estimators: either the kernel
halfwidth or the taper count itself varies with frequency.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from . import _kernels
from .estimator import (SpectralEstimate, as_series, dft, k_opt, make_weights,
                        sinusoidal_estimate_fast)
from .grid import FrequencyGrid, default_grid


@dataclass(frozen=True)
class KernelSpec:
    """Symmetric unit-mass smoothing kernel on [-1, 1].

    ``bias_const`` is half the kernel's second moment (the leading bias
    of a smoother of halfwidth w is bias_const * w^2 times the local
    second derivative) and ``var_const`` is the integral of the squared
    profile. Both were computed from those definitions by numeric
    integration and are frozen here.
    """

    name: str
    kernel_id: int
    bias_const: float
    var_const: float

    def profile(self, u):
        u = np.asarray(u, dtype=np.float64)
        if self.kernel_id == _kernels.KERNEL_BOX:
            return np.where(np.abs(u) <= 1.0, 0.5, 0.0)
        return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


BOX = KernelSpec("box", _kernels.KERNEL_BOX, bias_const=1.0 / 6.0, var_const=0.5)
EPANECHNIKOV = KernelSpec(
    "parabolic", _kernels.KERNEL_PARABOLIC, bias_const=0.1, var_const=0.6
)

_KERNELS = {"box": BOX, "parabolic": EPANECHNIKOV, "epanechnikov": EPANECHNIKOV}


def kernel_by_name(name):
    try:
        return _KERNELS[name]
    except KeyError:
        raise ValueError(f"unknown kernel {name!r}; use box or parabolic") from None


def digamma(x):
    """Digamma function for x > 0.

    Upward recurrence to x >= 10 followed by the asymptotic series in
    1/x^2; absolute accuracy is better than 1e-12 over the positive
    axis.
    """
    x = float(x)
    if x <= 0:
        raise ValueError(f"digamma needs a positive argument, got {x}")
    value = 0.0
    while x < 10.0:
        value -= 1.0 / x
        x += 1.0
    r = 1.0 / (x * x)
    series = r * (
        1.0 / 12.0
        - r * (1.0 / 120.0 - r * (1.0 / 252.0 - r * (1.0 / 240.0
        - r * (1.0 / 132.0 - r * 691.0 / 32760.0))))
    )
    return value + math.log(x) - 0.5 / x - series


def log_bias_b(k_count):
    """Log-scale bias constant psi(K) - ln(K); negative, vanishing in K."""
    if k_count < 1:
        raise ValueError(f"need at least one taper, got K={k_count}")
    return digamma(k_count) - math.log(k_count)


def log_multitaper(series, k_count, grid=None, correction="full"):
    """Bias-corrected log of the uniform sinusoidal multitaper estimate.

    ``correction`` selects how much of the log-scale bias constant is
    removed: ``"full"`` subtracts B_K (centers the estimate for white
    noise, the default) while ``"per_taper"`` subtracts B_K / K. Bins
    with zero estimated power come out as -inf.
    """
    if correction not in ("full", "per_taper"):
        raise ValueError(f"unknown correction {correction!r}")
    est = sinusoidal_estimate_fast(series, k_count, grid=grid)
    b = log_bias_b(k_count)
    shift = b if correction == "full" else b / k_count
    with np.errstate(divide="ignore"):
        values = np.log(est.values) - shift
    return SpectralEstimate(est.grid, values, k_count, est.weights, scale="log")


def kernel_smooth(values, kernel, w, grid):
    """Circularly smooth grid values with a kernel of halfwidth ``w``.

    Discrete weights are the kernel profile sampled at the grid offsets
    within ``w`` and renormalized to unit mass, so constants are preserved
    exactly. The halfwidth must cover at least one grid step.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.shape != (grid.m,):
        raise ValueError("values must have one entry per grid bin")
    if not 0.0 < w <= 0.5:
        raise ValueError(f"halfwidth must be in (0, 1/2], got {w}")
    return _kernels.smooth_circular(values, w * grid.m, kernel.kernel_id)


def w_opt(theta2, n, k_count, kernel=EPANECHNIKOV, grid_m=None):
    """Error-minimizing smoother halfwidth for given log-spectrum curvature.

    Minimizes the asymptotic squared error
    ``theta2^2 * (b*w^2 + K^2/(24n^2))^2 + C*(1 + 1/(2K))^2/(n*w)``
    exactly over w. With ``a = 4*theta2^2*b``, the stationarity condition
    ``g(w) = a*w^3*(b*w^2 + c) - d = 0`` is increasing and convex
    for w > 0, so Newton steps taken from the right of the root decrease
    monotonically onto it. They start at its c = 0 root, the closed form
    ``(d/(a*b))^(1/5)`` ~ |theta2|^(-2/5) * n^(-1/5), or at 1/4
    if that is smaller, and stop when a step changes no value. The result
    is clamped to [2/grid_m, 1/4]. Accepts scalar or array ``theta2``.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if grid_m is None:
        grid_m = default_grid(n).m
    theta2 = np.asarray(theta2, dtype=np.float64)
    scalar = theta2.ndim == 0
    b = kernel.bias_const
    a = 4.0 * np.atleast_1d(theta2) ** 2 * b
    c = k_count**2 / (24.0 * n * n)
    d = kernel.var_const * (1.0 + 0.5 / k_count) ** 2 / n
    # a flat curvature (theta2 = 0, or so small that d/(a*b) overflows) gives
    # an infinite start and a 0/0 step that np.where drops: those bins start
    # at 1/4, where g is about -d < 0, and stay there
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = np.fmin((d / (a * b)) ** 0.2, 0.25)
        while True:
            g = a * w**3 * (b * w * w + c) - d
            w_next = w - np.where(g > 0, g / (a * w * w * (5.0 * b * w * w + 3.0 * c)), 0.0)
            if np.array_equal(w_next, w, equal_nan=True):
                break
            w = w_next
    out = np.clip(w, min(2.0 / grid_m, 0.25), 0.25)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class AdaptiveConfig:
    """Staging parameters for the two-stage estimators.

    ``pilot_k`` tapers build the pilot log estimate; curvature is read
    off the pilot after smoothing with ``curvature_halfwidth``. The
    final stage either varies the taper count within
    [``k_min``, ``k_max``] (mode ``"variable_k"``) or the smoother
    halfwidth (mode ``"variable_w"``).
    """

    pilot_k: int
    k_min: int = 4
    k_max: int = 64
    curvature_halfwidth: float = 0.05
    mode: str = "variable_k"
    kernel: KernelSpec = field(default=EPANECHNIKOV)
    log_correction: str = "full"

    def __post_init__(self):
        if not 1 <= self.k_min <= self.pilot_k <= self.k_max:
            raise ValueError(
                f"need 1 <= k_min <= pilot_k <= k_max, got "
                f"({self.k_min}, {self.pilot_k}, {self.k_max})"
            )
        if self.mode not in ("variable_k", "variable_w"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.curvature_halfwidth <= 0.5:
            raise ValueError("curvature_halfwidth must be in (0, 1/2]")

    @classmethod
    def default_for(cls, n, mode="variable_k"):
        """Length-based defaults: pilot ~ n^(8/15), k_max ~ n/4."""
        if n < 8:
            raise ValueError(f"adaptive estimation needs n >= 8, got {n}")
        k_max = max(4, math.ceil(n / 4))
        pilot = min(math.ceil(n ** (8.0 / 15.0)), k_max)
        return cls(pilot_k=pilot, k_min=min(4, pilot), k_max=k_max, mode=mode)


@dataclass(frozen=True)
class CurvatureProfile:
    """Estimated second derivative of the log spectrum on a grid."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.shape != (self.grid.m,):
            raise ValueError("values must have one entry per grid bin")
        if not np.all(np.isfinite(vals)):
            raise ValueError("curvature values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


_DIFF_STEP_BINS = 3  # finite-difference step for pilot derivatives


def _pilot_derivatives(series, config, grid):
    """Pilot log estimate, its smoothed version, and two grid derivatives."""
    theta = log_multitaper(
        series, config.pilot_k, grid=grid, correction=config.log_correction
    ).values
    if not np.all(np.isfinite(theta)):
        # zero-power bins (possible for degenerate inputs) would poison
        # the smoother; floor them at the smallest finite log value
        finite = theta[np.isfinite(theta)]
        if finite.size == 0:
            raise ValueError("pilot estimate has no finite bins")
        theta = np.where(np.isfinite(theta), theta, finite.min())
    smooth = _kernels.smooth_circular(
        theta, config.curvature_halfwidth * grid.m, config.kernel.kernel_id
    )
    h = _DIFF_STEP_BINS / grid.m
    up = np.roll(smooth, -_DIFF_STEP_BINS)
    dn = np.roll(smooth, _DIFF_STEP_BINS)
    th1 = (up - dn) / (2.0 * h)
    th2 = (up - 2.0 * smooth + dn) / (h * h)
    return theta, smooth, th1, th2


def curvature_pilot(series, config, grid=None):
    """Pilot estimate of the log-spectrum curvature.

    A ``pilot_k``-taper log estimate is smoothed with a wide kernel and
    differentiated twice by central differences on the grid.
    """
    x = as_series(series)
    if x.shape[0] < 2 * config.pilot_k:
        raise ValueError(
            f"series of length {x.shape[0]} is too short for pilot_k={config.pilot_k}"
        )
    if grid is None:
        grid = default_grid(x.shape[0])
    _, _, _, th2 = _pilot_derivatives(x, config, grid)
    return CurvatureProfile(grid, th2)


def variable_k_estimate(series, k_profile, weights_kind="uniform", grid=None):
    """Sinusoidal multitaper estimate with a per-bin taper count.

    Each grid bin is assembled from that bin's ``k_profile`` shifted
    transform differences with weights renormalized to sum to one, so a
    constant profile reproduces the fixed-K fast path exactly.
    """
    x = as_series(series)
    n = x.shape[0]
    if grid is None:
        grid = default_grid(n)
    k_profile = np.ascontiguousarray(k_profile, dtype=np.int64)
    if k_profile.shape != (grid.m,):
        raise ValueError("k_profile must have one entry per grid bin")
    if k_profile.min() < 1 or k_profile.max() > n:
        raise ValueError(f"taper counts must lie in [1, {n}]")
    if weights_kind not in ("uniform", "parabolic"):
        raise ValueError(f"unknown weight kind {weights_kind!r}")
    step = grid.shift_step(n)
    y = dft(x, grid)
    values = _kernels.variable_k_combine(
        y, k_profile, step, n + 1.0, weights_kind == "parabolic"
    )
    return SpectralEstimate(
        grid, np.maximum(values, 0.0), k_profile, None
    )


# elements copied per block of the moving median: bounds its working memory
_MEDIAN_BLOCK = 1 << 20


def _circular_median(values, width):
    """Median over the circular window of odd ``width`` centred at each bin.

    ``np.median`` copies the windows it reads, so they are taken a block
    of about ``_MEDIAN_BLOCK`` elements at a time rather than all m * width.
    """
    half = width // 2
    ext = np.concatenate([values[-half:], values, values[:half]])
    windows = np.lib.stride_tricks.sliding_window_view(ext, width)
    rows = max(1, _MEDIAN_BLOCK // width)
    return np.concatenate(
        [np.median(windows[i : i + rows], axis=1) for i in range(0, len(windows), rows)]
    )


def _smooth_k_profile(k_raw, config, grid, n):
    """Moving median over twice the pilot halfwidth, then re-clamp."""
    width = int(round(config.pilot_k * grid.m / n))
    width = max(3, width + (width + 1) % 2)
    prof = _circular_median(k_raw, width).astype(np.int64)
    return np.clip(prof, config.k_min, config.k_max)


def two_stage_log_estimate(series, config=None, grid=None):
    """Plug-in log-spectrum estimate with curvature-matched bandwidth.

    Stage one estimates the log spectrum and its curvature with
    ``pilot_k`` tapers. Stage two either recomputes the estimate with a
    per-bin taper count chosen by the optimal-count rule and smoothed by
    a moving median (mode ``"variable_k"``), or smooths the pilot log
    estimate with the per-bin error-minimizing halfwidth realized to
    whole grid bins (mode ``"variable_w"``).
    """
    x = as_series(series)
    n = x.shape[0]
    if config is None:
        config = AdaptiveConfig.default_for(n)
    if config.k_max > n:
        raise ValueError(f"k_max={config.k_max} exceeds series length {n}")
    if grid is None:
        grid = default_grid(n)
    theta, theta_s, th1, th2 = _pilot_derivatives(x, config, grid)

    if config.mode == "variable_w":
        halfwidths = w_opt(th2, n, config.pilot_k, config.kernel, grid_m=grid.m)
        bins = np.clip(np.rint(halfwidths * grid.m), 1, grid.m // 4).astype(np.int64)
        smoothed = _kernels.smooth_variable(theta, bins, config.kernel.kernel_id)
        return SpectralEstimate(
            grid,
            smoothed,
            config.pilot_k,
            make_weights("uniform", config.pilot_k),
            scale="log",
            w_used=bins / grid.m,
        )

    # variable_k: optimal count from the pilot level and curvature
    level = np.exp(theta_s)
    curv = (th2 + th1 * th1) * level
    k_raw = k_opt(level, curv, n, config.k_min, config.k_max)
    k_prof = _smooth_k_profile(k_raw, config, grid, n)
    est = variable_k_estimate(x, k_prof, grid=grid)
    b = np.array([log_bias_b(k) for k in range(1, config.k_max + 1)])
    shift = b[k_prof - 1]
    if config.log_correction == "per_taper":
        shift = shift / k_prof
    with np.errstate(divide="ignore"):
        values = np.log(est.values) - shift
    return SpectralEstimate(grid, values, k_prof, None, scale="log")
