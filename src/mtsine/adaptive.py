"""Log-spectrum estimation, kernel smoothing, and two-stage bandwidth plug-in.

The log of a K-taper estimate of white noise is biased by
``B_K = psi(K) - ln(K)`` (the mean of ``ln(chi^2_{2K}/(2K))``), so the
log estimate here subtracts that constant, and only that constant, at
each bin's K. Smoothing the corrected log estimate with a halfwidth
matched to the local curvature of the log spectrum gives the two-stage
estimators: the kernel halfwidth or the taper count varies with frequency
as the pilot's log derivatives theta' and theta'' say. The bias law, the
log estimate and its correction are written once for one K or a per-bin
K(f) alike, and the variable-K stage is that estimate at its K profile.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from . import _kernels
from .estimator import (SpectralEstimate, as_series, k_opt, make_weights,
                        sinusoidal_estimate_fast)
from .grid import FrequencyGrid, _count, _halfwidth, _own_array, default_grid


@dataclass(frozen=True)
class KernelSpec:
    """Symmetric unit-mass smoothing kernel on [-1, 1].

    ``parabolic`` picks the profile: 3/4 (1 - u^2) (Epanechnikov), or
    when false the box 1/2, which the smoothers realize as the parabolic
    weight at infinite scale. ``bias_const`` is half the kernel's second
    moment (the leading bias of a smoother of halfwidth w is
    bias_const * w^2 times the local second derivative) and ``var_const``
    is the integral of the squared profile. Both were computed from those
    definitions by numeric integration and are frozen here.
    """

    name: str
    parabolic: bool
    bias_const: float
    var_const: float

    def profile(self, u):
        u = np.asarray(u, dtype=np.float64)
        if not self.parabolic:
            return np.where(np.abs(u) <= 1.0, 0.5, 0.0)
        return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


BOX = KernelSpec("box", False, bias_const=1.0 / 6.0, var_const=0.5)
EPANECHNIKOV = KernelSpec("parabolic", True, bias_const=0.1, var_const=0.6)

_KERNELS = {"box": BOX, "parabolic": EPANECHNIKOV, "epanechnikov": EPANECHNIKOV}


def kernel_by_name(name):
    try:
        return _KERNELS[name]
    except KeyError:
        raise ValueError(f"unknown kernel {name!r}; use box or parabolic") from None


def digamma(x):
    """Digamma function for x > 0, of a scalar or elementwise of an array.

    Upward recurrence to x >= 10 (taken only where x is still below 10)
    followed by the asymptotic series in 1/x^2; absolute accuracy is
    better than 1e-12 over the positive axis. A scalar gives a float.
    """
    x = np.array(x, dtype=np.float64)  # a copy: the recurrence steps it
    if not np.all(x > 0):
        raise ValueError(f"digamma needs a positive argument, got {np.min(x)}")
    value = np.zeros_like(x)
    while np.any(small := x < 10.0):
        np.subtract(value, 1.0 / x, out=value, where=small)
        np.add(x, 1.0, out=x, where=small)
    r = 1.0 / (x * x)
    series = r * (
        1.0 / 12.0
        - r * (1.0 / 120.0 - r * (1.0 / 252.0 - r * (1.0 / 240.0
        - r * (1.0 / 132.0 - r * 691.0 / 32760.0))))
    )
    out = value + np.log(x) - 0.5 / x - series
    return float(out) if out.ndim == 0 else out


def log_bias_b(k_count):
    """Log-scale bias constant psi(K) - ln(K) of one K or of each K in an
    array; negative, vanishing in K."""
    if np.any(np.asarray(k_count) < 1):
        raise ValueError(f"need at least one taper, got K={np.min(k_count)}")
    return digamma(k_count) - np.log(k_count)


def log_multitaper(series, k, grid=None):
    """Bias-corrected log of the uniform sinusoidal multitaper estimate.

    ``k`` is one taper count or one per grid bin, as in
    :func:`sinusoidal_estimate_fast`. At each bin the log-scale bias
    constant B_K of that bin's K is subtracted, which centers the
    estimate for white noise. Bins with zero estimated power come out
    as -inf.
    """
    est = sinusoidal_estimate_fast(series, k, grid=grid)
    with np.errstate(divide="ignore"):
        values = np.log(est.values) - log_bias_b(est.k_used)
    return SpectralEstimate(est.grid, values, est.k_used, est.weights, scale="log")


def kernel_smooth(values, kernel, w, grid):
    """Circularly smooth grid values with a kernel of halfwidth ``w``.

    Discrete weights are the kernel profile sampled at the grid offsets
    within ``w`` and renormalized to unit mass, so constants are preserved
    exactly. The halfwidth must cover at least one grid step.
    """
    if np.shape(values) != (grid.m,):
        raise ValueError("values must have one entry per grid bin")
    values = np.asarray(values, dtype=np.float64)
    return _kernels.smooth_circular(values, _halfwidth(w) * grid.m, kernel.parabolic)


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
    n, k_count = _count(n, "n", lo=2), _count(k_count, "k_count")
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

    def __post_init__(self):
        for name in ("k_min", "pilot_k", "k_max"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        if not self.k_min <= self.pilot_k <= self.k_max:
            raise ValueError(
                f"need 1 <= k_min <= pilot_k <= k_max, got "
                f"({self.k_min}, {self.pilot_k}, {self.k_max})"
            )
        if self.mode not in ("variable_k", "variable_w"):
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "curvature_halfwidth",
                           _halfwidth(self.curvature_halfwidth, "curvature_halfwidth"))

    @classmethod
    def default_for(cls, n, mode="variable_k"):
        """Length-based defaults: pilot ~ n^(8/15), k_max ~ n/4."""
        n = _count(n, "n", lo=8)
        k_max = max(4, math.ceil(n / 4))
        pilot = min(math.ceil(n ** (8.0 / 15.0)), k_max)
        return cls(pilot_k=pilot, k_min=min(4, pilot), k_max=k_max, mode=mode)


@dataclass(frozen=True)
class CurvatureProfile:
    """Estimated second derivative of the log spectrum on a grid."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self):
        if _own_array(self, "values", 1).shape != (self.grid.m,):
            raise ValueError("values must have one entry per grid bin")


_DIFF_STEP_BINS = 3  # finite-difference step for pilot derivatives


def _pilot_derivatives(series, config, grid):
    """Pilot log estimate on the whole grid, and the first and second grid
    derivatives of its smooth at bins 0..m/2.

    The smooth is even, so the differences read it mirrored past 0 and
    m/2. The pilot needs at least ``2 * pilot_k`` samples.
    """
    n = series.shape[0]
    if n < 2 * config.pilot_k:
        raise ValueError(
            f"series of length {n} is too short for pilot_k={config.pilot_k}"
        )
    theta = log_multitaper(series, config.pilot_k, grid=grid).values
    if not np.all(np.isfinite(theta)):
        # zero-power bins (possible for degenerate inputs) would poison
        # the smoother; floor them at the smallest finite log value
        finite = theta[np.isfinite(theta)]
        if finite.size == 0:
            raise ValueError("pilot estimate has no finite bins")
        theta = np.where(np.isfinite(theta), theta, finite.min())
    half, d = grid.m // 2 + 1, _DIFF_STEP_BINS
    smooth = _kernels.smooth_circular(
        theta, config.curvature_halfwidth * grid.m, config.kernel.parabolic, half
    )
    ext = _kernels._mirror(smooth, grid.m).take(np.arange(-d, half + d), mode="wrap")
    up, dn, h = ext[2 * d :], ext[:half], d / grid.m
    th1 = (up - dn) / (2.0 * h)
    th2 = (up - 2.0 * smooth + dn) / (h * h)
    return theta, th1, th2


def curvature_pilot(series, config, grid=None):
    """Pilot estimate of the log-spectrum curvature.

    A ``pilot_k``-taper log estimate is smoothed with a wide kernel and
    differentiated twice by central differences at bins 0..m/2, which are
    mirrored to the rest of the grid.
    """
    x = as_series(series)
    if grid is None:
        grid = default_grid(x.shape[0])
    _, _, th2 = _pilot_derivatives(x, config, grid)
    return CurvatureProfile(grid, _kernels._mirror(th2, grid.m))


# elements copied per block of the moving median: bounds its working memory
_MEDIAN_BLOCK = 1 << 20


def _circular_median(values, width, count=None):
    """Median over the circular window of odd ``width`` centred at each of
    bins 0..count-1 (every bin by default): the middle rank of NaN-free
    ``values``, in their dtype.

    ``np.partition`` copies the windows it reads, so they are taken a
    block of about ``_MEDIAN_BLOCK`` elements at a time, not count * width.
    """
    half = width // 2
    count = values.shape[0] if count is None else count
    ext = values.take(np.arange(-half, count + half), mode="wrap")
    windows = np.lib.stride_tricks.sliding_window_view(ext, width)
    rows = max(1, _MEDIAN_BLOCK // width)
    # filled block by block: a list of the [:, half] views would keep every block alive
    out = np.empty(count, dtype=values.dtype)
    for i in range(0, count, rows):
        out[i : i + rows] = np.partition(windows[i : i + rows], half, axis=1)[:, half]
    return out


def _smooth_k_profile(k_raw, config, grid, n):
    """Moving median over twice the pilot halfwidth at bins 0..m/2 of the
    circular ``k_raw``; an odd window's median is one of its counts."""
    width = int(round(config.pilot_k * grid.m / n))
    width = max(3, width + (width + 1) % 2)
    return _circular_median(k_raw, width, grid.m // 2 + 1)


def two_stage_log_estimate(series, config=None, grid=None):
    """Plug-in log-spectrum estimate with curvature-matched bandwidth.

    Stage one estimates the log spectrum theta and its derivatives with
    ``pilot_k`` tapers. Stage two either recomputes the estimate with the
    per-bin taper count K = (12 n^2/|theta'' + theta'^2|)^(2/5), smoothed
    by an integer moving median (mode ``"variable_k"``), or smooths the
    pilot log estimate with the per-bin error-minimizing halfwidth
    realized to whole grid bins (mode ``"variable_w"``). Either profile,
    and the smoothed values, are decided on bins 0..m/2 and mirrored to
    the rest, so the estimate is exactly even in f.
    """
    x = as_series(series)
    n = x.shape[0]
    if config is None:
        config = AdaptiveConfig.default_for(n)
    if config.k_max > n:
        raise ValueError(f"k_max={config.k_max} exceeds series length {n}")
    if grid is None:
        grid = default_grid(n)
    theta, th1, th2 = _pilot_derivatives(x, config, grid)

    if config.mode == "variable_w":
        halfwidths = w_opt(th2, n, config.pilot_k, config.kernel, grid_m=grid.m)
        bins = np.clip(np.rint(halfwidths * grid.m), 1, grid.m // 4).astype(np.int64)
        smoothed = _kernels.smooth_variable(theta, bins, config.kernel.parabolic)
        return SpectralEstimate(
            grid,
            _kernels._mirror(smoothed, grid.m),
            config.pilot_k,
            make_weights("uniform", config.pilot_k),
            scale="log",
            w_used=_kernels._mirror(bins, grid.m) / grid.m,
        )

    # variable_k: the rule needs only S''/S = theta'' + theta'^2, so the level is 1
    k_raw = k_opt(1.0, th2 + th1 * th1, n, config.k_min, config.k_max)
    k_prof = _smooth_k_profile(_kernels._mirror(k_raw, grid.m), config, grid, n)
    return log_multitaper(x, _kernels._mirror(k_prof, grid.m), grid)
