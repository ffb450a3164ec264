"""Quadratic spectral estimators and their multitaper decompositions.

Every modulation-invariant quadratic estimator is a symmetric matrix Q
evaluated as x^H Q x after modulating the data to the target frequency.
Kernel smoothing multiplies Q entrywise by the kernel transfer sequence
in the lag variable, and the eigendecomposition of the result is again
a weighted multitaper estimate. For the parabolic kernel at full
halfwidth the smoothed periodogram's eigenvectors coincide with the
minimum-bias tapers exactly (its matrix is an affine function of the
local-bias matrix), which the tests check entrywise.
"""

from dataclasses import dataclass

import numpy as np

from .adaptive import BOX, EPANECHNIKOV
from .grid import _count, _halfwidth, _own_array
from .metrics import ComparisonTable, bias_normalization
from .tapers import (
    Taper,
    TaperFamily,
    _eigh,
    _fix_signs,
    _taper_values,
    minimum_bias_family,
    sinusoidal_taper,
)

_SYMMETRY_TOL = 1e-14


@dataclass(frozen=True)
class QuadraticEstimator:
    """Symmetric matrix representing a quadratic spectral estimator."""

    matrix: np.ndarray

    def __post_init__(self):
        q = _own_array(self, "matrix", 2)
        if q.shape[0] != q.shape[1]:
            raise ValueError("quadratic estimator must be a square matrix")
        scale = max(np.max(np.abs(q)), 1.0)
        if np.max(np.abs(q - q.T)) > _SYMMETRY_TOL * scale:
            raise ValueError("matrix must be symmetric")

    @property
    def n(self):
        return self.matrix.shape[0]


def periodogram_quadratic(n):
    """Rank-one estimator of the plain periodogram: all entries 1/n."""
    n = _count(n, "n")
    return QuadraticEstimator(np.full((n, n), 1.0 / n))


def tapered_quadratic(taper):
    """Rank-one estimator of a single tapered periodogram."""
    v = _taper_values(taper)
    return QuadraticEstimator(np.outer(v, v))


def evaluate_quadratic(q, series, freqs):
    """Evaluate the estimator at the given frequencies.

    Returns x^H Q x with x modulated by e^(i*2*pi*t*f), t = 1..n; real
    for symmetric Q.
    """
    x = np.ascontiguousarray(series, dtype=np.float64)
    if x.shape != (q.n,):
        raise ValueError(f"series length {x.shape} does not match order {q.n}")
    f = np.atleast_1d(np.asarray(freqs, dtype=np.float64))
    t = np.arange(1, q.n + 1)
    z = x[:, None] * np.exp(2j * np.pi * np.outer(t, f))
    vals = np.einsum("if,ij,jf->f", z.conj(), q.matrix, z).real
    return vals if np.ndim(freqs) else float(vals[0])


def kernel_transfer(kernel, w, lag):
    """Fourier coefficient of the mass-preserving kernel at integer lag.

    Integral of (1/w) * kernel(g/w) * e^(i*2*pi*lag*g) over [-w, w];
    real by symmetry. Closed forms: sinc(2*lag*w) for the box kernel
    and 3*(sin a - a cos a)/a^3 with a = 2*pi*lag*w for the parabolic
    kernel (series expansion near a = 0).
    """
    w = _halfwidth(w)
    lag = np.asarray(lag, dtype=np.float64)
    scalar = lag.ndim == 0
    m = np.atleast_1d(lag)
    if kernel.kernel_id == BOX.kernel_id:
        out = np.sinc(2.0 * w * m)
    else:
        a = 2.0 * np.pi * w * m
        small = np.abs(a) < 1e-2
        a_safe = np.where(small, 1.0, a)
        closed = 3.0 * (np.sin(a_safe) - a_safe * np.cos(a_safe)) / a_safe**3
        series = 1.0 - a * a / 10.0 + a**4 / 280.0
        out = np.where(small, series, closed)
    return float(out[0]) if scalar else out


def smooth_quadratic(q, kernel, w):
    """Kernel-smoothed estimator: entrywise product with the transfer at lag.

    The transfer is evaluated once per distinct lag 1-n..n-1 and gathered
    into the Toeplitz n x n pattern.
    """
    n = q.n
    transfer = kernel_transfer(kernel, w, np.arange(1 - n, n))
    lags = np.subtract.outer(np.arange(n), np.arange(n))
    return QuadraticEstimator(q.matrix * transfer[lags + (n - 1)])


def quadratic_to_multitaper(q, rank_tolerance=1e-10):
    """Eigen-decompose a quadratic estimator into weighted tapers.

    Returns ``(weights, family)`` with weights sorted by decreasing
    magnitude, truncated at the smallest rank whose dropped tail keeps
    the Frobenius reconstruction error within ``rank_tolerance`` times
    the matrix norm. Weights may be negative for indefinite estimators
    and need not sum to one.
    """
    mu, vec = _eigh(q.matrix, f"order-{q.n} estimator")
    order = np.argsort(-np.abs(mu))
    mu = mu[order]
    vec = vec[:, order]
    sq = mu * mu
    budget = rank_tolerance**2 * float(sq.sum())
    # suffix[k] = squared Frobenius norm dropped when keeping the first k pairs
    suffix = np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]])
    k = max(1, int(np.argmax(suffix <= budget)))
    return mu[:k].copy(), TaperFamily(_fix_signs(vec[:, :k]))


def split_cosine_taper(n, taper_fraction):
    """Unit-norm split-cosine (Tukey) taper.

    Raised-cosine ramps cover ``taper_fraction * n / 2`` samples at each
    end with a flat middle; the full fraction gives the Hann shape and
    the fraction-to-zero limit is the uniform taper. Samples sit at the
    half-offset positions (i + 1/2)/n, so no sample is pinned to zero.
    """
    n = _count(n, "n")
    if not 0.0 < taper_fraction <= 1.0:
        raise ValueError(f"taper fraction must be in (0, 1], got {taper_fraction}")
    x = (np.arange(n) + 0.5) / n
    v = np.ones(n)
    half = taper_fraction / 2.0
    lo = x < half
    hi = x > 1.0 - half
    v[lo] = 0.5 * (1.0 + np.cos(np.pi * (x[lo] / half - 1.0)))
    v[hi] = 0.5 * (1.0 + np.cos(np.pi * ((1.0 - x[hi]) / half - 1.0)))
    return Taper(v / np.linalg.norm(v))


def table4_decomposition(n=200, taper_fraction=0.2, kernel=EPANECHNIKOV, w=0.01):
    """Decompose the smoothed split-cosine tapered periodogram of Table 4.

    Returns ``(weights, family)``: the eigenvalues relative to the trace
    and the eigenvector tapers, in decreasing weight. The default is the
    parabolic kernel, whose smoothed periodograms decompose into
    near-minimum-bias, near-sinusoidal tapers. The box kernel is the
    Slepian-type contrast: the box-smoothed periodogram is exactly
    ``concentration_matrix(n, w) / (2*w*n)``, so its eigenvectors are the
    Slepian tapers of halfwidth ``w``.
    """
    taper = split_cosine_taper(n, taper_fraction)
    smoothed = smooth_quadratic(tapered_quadratic(taper), kernel, w)
    mu, family = quadratic_to_multitaper(smoothed)
    return mu / np.trace(smoothed.matrix), family


def tabulate_table4(weights, family, k_rows=7):
    """Tabulate a ``table4_decomposition`` result.

    Each row k reports the eigenvalue weight (relative to the trace),
    the normalized local bias of the k-th eigenvector, and its ratio to
    the minimum-bias taper's value at the same index.
    """
    n = family.n
    k_rows = min(_count(k_rows, "k_rows"), family.k_count)
    norm = bias_normalization(n)
    bias = norm * family.local_biases[:k_rows]
    mb = norm * minimum_bias_family(n, k_rows).local_biases
    vals = np.column_stack([weights[:k_rows], bias, bias / mb])
    return ComparisonTable(
        tuple(range(1, k_rows + 1)),
        ("weight", "normalized_local_bias", "mb_bias_ratio"),
        vals,
    )


def table4_experiment(n=200, taper_fraction=0.2, kernel=EPANECHNIKOV, w=0.01,
                      k_rows=7):
    """Decompose and tabulate Table 4 (see ``tabulate_table4``)."""
    weights, family = table4_decomposition(n, taper_fraction, kernel, w)
    return tabulate_table4(weights, family, k_rows)


def first_eigenvector_alignment(n=200, taper_fraction=0.2, kernel=EPANECHNIKOV,
                                w=0.01):
    """Overlap of the leading Table 4 eigenvector with the first
    sinusoidal taper."""
    _, family = table4_decomposition(n, taper_fraction, kernel, w)
    return float(abs(family.taper_matrix[0] @ sinusoidal_taper(n, 1).values))
