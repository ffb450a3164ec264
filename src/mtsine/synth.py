"""Seedable synthetic processes with analytically known spectra.

Gaussian white noise and stable autoregressions drive the Monte-Carlo
tests and the adaptive benchmark. Draws come from the PCG64 bit
generator (named constants, portable streams) through a Box-Muller
transform of its uniforms, so a spec plus seed reproduces the same
series everywhere without rejection steps.
"""

from dataclasses import dataclass
import math

import numpy as np

from . import _kernels
from .adaptive import CurvatureProfile
from .estimator import SpectralEstimate
from .grid import default_grid


@dataclass(frozen=True)
class ProcessSpec:
    """Stationary process description: white noise or an AR recursion.

    ``coeffs`` are the autoregression weights on past samples (empty
    for white noise); stationarity requires the roots of
    1 - sum_j a_j z^j to lie outside the unit circle.
    """

    kind: str
    coeffs: tuple
    sigma2: float
    seed: int
    burn_in: int = 1000

    def __post_init__(self):
        if self.kind not in ("white", "ar"):
            raise ValueError(f"unknown process kind {self.kind!r}")
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError(
                f"innovation variance must be finite and positive, got {self.sigma2}")
        if self.burn_in < 0:
            raise ValueError("burn-in cannot be negative")
        coeffs = tuple(float(a) for a in self.coeffs)
        if not all(math.isfinite(a) for a in coeffs):
            raise ValueError(f"AR coefficients must be finite, got {coeffs}")
        object.__setattr__(self, "coeffs", coeffs)
        if self.kind == "white" and coeffs:
            raise ValueError("white noise takes no AR coefficients")
        if coeffs and any(abs(r) <= 1.0 + 1e-12 for r in self._poly_roots()):
            raise ValueError(
                "unstable autoregression: roots of 1 - sum a_j z^j must lie "
                "outside the unit circle"
            )

    def _poly_roots(self):
        # polynomial 1 - a_1 z - ... - a_p z^p, highest degree first
        neg = [-a for a in self.coeffs]
        return np.roots(np.array(neg[::-1] + [1.0]))

    @classmethod
    def white(cls, sigma2=1.0, seed=0):
        return cls("white", (), sigma2, seed, burn_in=0)

    @classmethod
    def ar(cls, coeffs, sigma2=1.0, seed=0, burn_in=1000):
        coeffs = tuple(coeffs)
        if not coeffs or all(a == 0.0 for a in coeffs):
            return cls("white", (), sigma2, seed, burn_in=0)
        return cls("ar", coeffs, sigma2, seed, burn_in=burn_in)

    @classmethod
    def ar2_resonance(cls, pole_radius, pole_freq, sigma2=1.0, seed=0):
        """Order-2 process with conjugate poles at the given radius and
        frequency (cycles/sample)."""
        a1 = 2.0 * pole_radius * math.cos(2.0 * math.pi * pole_freq)
        a2 = -pole_radius * pole_radius
        return cls.ar((a1, a2), sigma2, seed)


def _gaussian_stream(seed, count):
    """Standard normals via Box-Muller on PCG64 uniforms (no rejection)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pairs = (count + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:count]


def generate(spec, n):
    """Draw ``n`` samples of the process, deterministic in the seed."""
    if n < 1:
        raise ValueError(f"need at least one sample, got n={n}")
    total = n + spec.burn_in
    innov = math.sqrt(spec.sigma2) * _gaussian_stream(spec.seed, total)
    if spec.kind == "white":
        return innov[spec.burn_in:]
    x = _kernels.ar_recurse(innov, np.asarray(spec.coeffs))
    return x[spec.burn_in:]


def true_spectrum(spec, grid=None, n_hint=None):
    """Exact spectral density of the process on a grid."""
    if grid is None:
        grid = default_grid(n_hint if n_hint else 256)
    values = spectrum_at(spec, grid.frequencies)
    return SpectralEstimate(grid, values, 0, None)


def spectrum_at(spec, freqs):
    """Spectral density sigma^2 / |1 - sum_j a_j e^(-i*2*pi*j*f)|^2."""
    f = np.asarray(freqs, dtype=np.float64)
    if spec.kind == "white":
        return np.full(f.shape, spec.sigma2)
    resp = np.ones(f.shape, dtype=np.complex128)
    for j, a in enumerate(spec.coeffs, start=1):
        resp -= a * np.exp(-2j * np.pi * j * f)
    return spec.sigma2 / np.abs(resp) ** 2


_CURV_STEP = 1e-4


def true_log_curvature(spec, grid=None, n_hint=None):
    """Second frequency derivative of the log spectral density.

    Dense central differences (step 1e-4) of the closed-form log
    spectrum; exactly zero for white noise.
    """
    if grid is None:
        grid = default_grid(n_hint if n_hint else 256)
    f = grid.frequencies
    if spec.kind == "white":
        return CurvatureProfile(grid, np.zeros(grid.m))
    h = _CURV_STEP
    up = np.log(spectrum_at(spec, f + h))
    mid = np.log(spectrum_at(spec, f))
    dn = np.log(spectrum_at(spec, f - h))
    return CurvatureProfile(grid, (up - 2.0 * mid + dn) / (h * h))
