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
from .grid import _count


@dataclass(frozen=True)
class ProcessSpec:
    """Stationary process description: an AR recursion.

    ``coeffs`` are the autoregression weights on past samples; white
    noise is the process with none. Stationarity requires the roots of
    1 - sum_j a_j z^j to lie outside the unit circle, that is the roots of
    z^p - a_1 z^(p-1) - ... - a_p to lie inside it.
    """

    coeffs: tuple
    sigma2: float
    seed: int
    burn_in: int = 1000

    def __post_init__(self):
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError(
                f"innovation variance must be finite and positive, got {self.sigma2}")
        for name in ("seed", "burn_in"):
            object.__setattr__(self, name, _count(getattr(self, name), name, lo=0))
        coeffs = tuple(float(a) for a in self.coeffs)
        if not all(math.isfinite(a) for a in coeffs):
            raise ValueError(f"AR coefficients must be finite, got {coeffs}")
        object.__setattr__(self, "coeffs", coeffs)
        # the roots of z^p - a_1 z^(p-1) - ... - a_p are the reciprocals of
        # those of 1 - sum a_j z^j, found without dividing by a tiny a_p
        lam = np.roots([1.0, *(-a for a in coeffs)])
        if np.any(np.abs(lam) >= 1.0 / (1.0 + 1e-12)):
            raise ValueError(
                "unstable autoregression: roots of 1 - sum a_j z^j must lie "
                "outside the unit circle"
            )

    @classmethod
    def white(cls, sigma2=1.0, seed=0):
        return cls((), sigma2, seed, burn_in=0)

    @classmethod
    def ar(cls, coeffs, sigma2=1.0, seed=0, burn_in=1000):
        coeffs = tuple(coeffs)
        if not coeffs or all(a == 0.0 for a in coeffs):
            return cls.white(sigma2, seed)
        return cls(coeffs, sigma2, seed, burn_in=burn_in)

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
    total = _count(n, "n") + spec.burn_in
    innov = math.sqrt(spec.sigma2) * _gaussian_stream(spec.seed, total)
    if not spec.coeffs:  # white noise, without the recursion's Python loop
        return innov[spec.burn_in:]
    x = _kernels.ar_recurse(innov, np.asarray(spec.coeffs))
    return x[spec.burn_in:]


def true_spectrum(spec, grid):
    """Exact spectral density at each bin of a grid, as a float64 array;
    ``FloatingPointError`` if it overflows."""
    with np.errstate(over="ignore"):  # inf, reported below
        values = spectrum_at(spec, grid.frequencies)
    if not np.all(np.isfinite(values)):
        raise FloatingPointError(
            f"exact spectrum overflowed float64 (sigma2={spec.sigma2:g})")
    return values


def spectrum_at(spec, freqs):
    """Spectral density sigma^2 / |1 - sum_j a_j e^(-i*2*pi*j*f)|^2; white
    noise has no a_j, so its response is 1 and its density exactly sigma^2."""
    f = np.asarray(freqs, dtype=np.float64)
    resp = np.ones(f.shape, dtype=np.complex128)
    for j, a in enumerate(spec.coeffs, start=1):
        resp -= a * np.exp(-2j * np.pi * j * f)
    return spec.sigma2 / np.abs(resp) ** 2


_CURV_STEP = 1e-4


def true_log_curvature(spec, grid):
    """Second frequency derivative of the log spectral density at each bin
    of a grid, as a float64 array; ``FloatingPointError`` if it is not finite.

    Dense central differences (step 1e-4) of the closed-form log
    spectrum. For white noise the three log spectra are the same value L,
    and (L - 2L) + L is exactly +0.
    """
    f = grid.frequencies
    h = _CURV_STEP
    with np.errstate(all="ignore"):  # an overflowed or underflowed spectrum, reported below
        up = np.log(spectrum_at(spec, f + h))
        mid = np.log(spectrum_at(spec, f))
        dn = np.log(spectrum_at(spec, f - h))
        curv = (up - 2.0 * mid + dn) / (h * h)
    if not np.all(np.isfinite(curv)):
        raise FloatingPointError(
            f"log-spectrum curvature is not finite in float64 (sigma2={spec.sigma2:g})")
    return curv
