"""Taper families and their spectral windows.

Three orthonormal families are constructed on n samples:

* sinusoidal tapers ``sqrt(2/(n+1)) * sin(pi*k*t/(n+1))`` (closed form,
  no eigensolve),
* minimum-bias tapers, the eigenvectors of the local-bias matrix sorted
  by increasing eigenvalue,
* Slepian tapers (DPSS), which maximize in-band spectral concentration
  for a chosen halfwidth ``w``.

Every taper is unit norm. A family is its rows and nothing else: each
member's local bias, the frequency-squared energy integral of its
window, is derived from the rows as v^T A v with A the local-bias
matrix, by one definition for every family.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .grid import _count, _halfwidth, _own_array, window_grid

SIGN_EPS = 1e-8  # leading-component threshold for the eigenvector sign rule
_UNIT_NORM_TOL = 1e-12
_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class Taper:
    """Unit-norm real weight sequence over samples t = 1..n."""

    values: np.ndarray

    def __post_init__(self):
        v = _own_array(self, "values", 1)
        norm = np.dot(v, v)
        if abs(norm - 1.0) > _UNIT_NORM_TOL:
            raise ValueError(f"taper must have unit norm, got sum of squares {norm}")

    @property
    def n(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class TaperFamily:
    """Ordered orthonormal taper family, one taper per row of ``taper_matrix``.

    The rows are the only state. ``local_biases`` derives each taper's
    local bias v^T A v, A = ``local_bias_matrix(n)``, in squared cycles
    per sample; it is computed on first use and read-only.
    """

    taper_matrix: np.ndarray

    def __post_init__(self):
        mat = _own_array(self, "taper_matrix", 2, finite=False)  # nan fails the Gram check
        k, n = mat.shape
        if k > n:
            raise ValueError(f"cannot have more tapers than samples: K={k}, n={n}")
        gram = mat @ mat.T
        dev = np.max(np.abs(gram - np.eye(k)))
        if not dev <= _ORTHO_TOL:
            raise ValueError(f"family is not orthonormal (Gram deviation {dev:.2e})")

    @cached_property
    def local_biases(self):
        lam = local_bias_matrix(self.n).quadratic_forms(self.taper_matrix)
        lam.flags.writeable = False
        return lam

    @property
    def n(self):
        return self.taper_matrix.shape[1]

    @property
    def k_count(self):
        return self.taper_matrix.shape[0]


@dataclass(frozen=True)
class SymmetricToeplitz:
    """Symmetric Toeplitz matrix defined by its first row."""

    first_row: np.ndarray

    def __post_init__(self):
        _own_array(self, "first_row", 1)

    @property
    def n(self):
        return self.first_row.shape[0]

    def to_dense(self):
        idx = np.abs(np.subtract.outer(np.arange(self.n), np.arange(self.n)))
        return self.first_row[idx]

    def quadratic_forms(self, rows):
        """``r^T A r`` for each row r of ``rows`` (k x n). A r is the valid part
        of the convolution of r with the first row read at lags 1 - n..n - 1,
        so no n x n matrix is made."""
        rows = np.asarray(rows, dtype=np.float64)
        lags = np.concatenate([self.first_row[:0:-1], self.first_row])
        return np.array([r @ np.convolve(lags, r, "valid") for r in rows])


def _taper_values(taper):
    """The values of a :class:`Taper`, or of a vector validated as one."""
    return taper.values if isinstance(taper, Taper) else Taper(taper).values


def _eigh(matrix, what):
    """Eigendecomposition of the symmetric ``matrix``; a failure names ``what``."""
    try:
        return np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigendecomposition of the {what} failed: {exc}"
        ) from exc


def _fix_signs(cols):
    """The columns of ``cols`` as rows, each negated where its first
    component larger than SIGN_EPS in magnitude is negative."""
    lead = cols[np.argmax(np.abs(cols) > SIGN_EPS, axis=0), np.arange(cols.shape[1])]
    return np.where(lead < -SIGN_EPS, -cols, cols).T.copy()


def _sine_rows(n, ks):
    """Sinusoidal tapers sqrt(2/(n+1)) * sin(pi*k*t/(n+1)), t = 1..n, a row per k."""
    t = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(ks, t) / (n + 1))


def sinusoidal_taper(n, k):
    """The k-th sinusoidal taper on n samples (closed form, 1 <= k <= n)."""
    n, k = _count(n, "n"), _count(k, "k", lo=-np.inf)
    if not 1 <= k <= n:
        raise IndexError(f"taper index k={k} outside 1..{n}")
    return Taper(_sine_rows(n, [k])[0])


def local_bias_matrix(n):
    """Matrix of the quadratic form giving a window's local bias.

    Entry (i, j) is the integral of f^2 * e^(i*2*pi*(i-j)*f) over the
    Nyquist band: 1/12 on the diagonal, (-1)^d / (2*pi^2*d^2) at lag d.
    """
    n = _count(n, "n")
    d = np.arange(n, dtype=np.float64)
    row = np.empty(n)
    row[0] = 1.0 / 12.0
    row[1:] = ((-1.0) ** d[1:]) / (2.0 * np.pi**2 * d[1:] ** 2)
    return SymmetricToeplitz(row)


def concentration_matrix(n, w):
    """Matrix of the quadratic form giving in-band energy over [-w, w]."""
    n, w = _count(n, "n"), _halfwidth(w)
    d = np.arange(n, dtype=np.float64)
    row = np.empty(n)
    row[0] = 2.0 * w
    row[1:] = np.sin(2.0 * np.pi * w * d[1:]) / (np.pi * d[1:])
    return SymmetricToeplitz(row)


def sinusoidal_family(n, k_count):
    """First ``k_count`` sinusoidal tapers (closed form, no eigensolve)."""
    n = _count(n, "n")
    k_count = _count(k_count, "k_count", hi=n)
    return TaperFamily(_sine_rows(n, np.arange(1, k_count + 1)))


def minimum_bias_family(n, k_count):
    """Tapers minimizing local bias: lowest eigenvectors of the bias matrix."""
    n = _count(n, "n")
    k_count = _count(k_count, "k_count", hi=n)
    _, vec = _eigh(local_bias_matrix(n).to_dense(), f"{n}x{n} local-bias matrix")
    return TaperFamily(_fix_signs(vec[:, :k_count]))


def slepian_family(n, w, k_count):
    """Slepian (DPSS) tapers for halfwidth ``w``, highest concentration first.

    Computed from Slepian's commuting tridiagonal operator, whose
    eigenvalues are well separated even when the concentrations cluster
    exponentially close to one; diagonalizing the concentration matrix
    directly returns an arbitrary basis inside those near-degenerate
    clusters. The family keeps only its rows, so its ``local_biases`` are
    each taper's local bias, as for every family, not its concentration.
    The boundary w = 1/2 is accepted as the degenerate full-band case,
    where every orthonormal family is equally concentrated.
    """
    n, w = _count(n, "n"), _halfwidth(w)
    k_count = _count(k_count, "k_count", hi=n)
    i = np.arange(n, dtype=np.float64)
    diag = ((n - 1 - 2.0 * i) / 2.0) ** 2 * np.cos(2.0 * np.pi * w)
    off = i[1:] * (n - i[1:]) / 2.0
    tri = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    _, vec = _eigh(tri, f"order-{n} Slepian tridiagonal operator")
    return TaperFamily(_fix_signs(vec[:, ::-1][:, :k_count]))


def spectral_window(taper, grid=None):
    """Zero-padded transform V(f) of a taper on a frequency grid, one
    complex value per bin; its power is ``|V|^2``.

    Uses the 1-based sample convention V(f) = sum_t v_t e^(-i*2*pi*t*f),
    t = 1..n, so the first sample carries the phase factor e^(-i*2*pi*f).
    Bins 0..m//2 come from the chirp-z transform behind :func:`mtsine.estimator.dft`
    and the rest are their conjugates, V(-f) = conj V(f).
    """
    v = _taper_values(taper)
    if grid is None:
        grid = window_grid(v.shape[0])
    if grid.m < v.shape[0]:
        raise ValueError(f"grid size {grid.m} must be at least the taper length")
    return _kernels._half_transform(v, grid.m)


def _dirichlet_ratio(g, n):
    """sin(n*pi*g) / sin(pi*g) with its removable singularities filled.

    At integer g = p the limit is n * (-1)^((n-1)*p).
    """
    g = np.asarray(g, dtype=np.float64)
    p = np.rint(g)
    near = np.abs(g - p) < 1e-9
    safe = np.where(near, 0.25, g)
    out = np.sin(n * np.pi * safe) / np.sin(np.pi * safe)
    sign = np.where(((n - 1) * p.astype(np.int64)) % 2 == 0, 1.0, -1.0)
    return np.where(near, n * sign, out)


def sinusoidal_window_closed(n, k, f):
    """Closed-form window of the k-th sinusoidal taper at frequency f.

    The difference of two shifted Dirichlet ratios; the shifted ratios
    handle the removable singularities at f = +-k/(2*(n+1)), where the
    magnitude equals sqrt((n+1)/2). Accepts scalar or array f.
    """
    n, k = _count(n, "n"), _count(k, "k", lo=-np.inf)
    if not 1 <= k <= n:
        raise IndexError(f"taper index k={k} outside 1..{n}")
    f = np.asarray(f, dtype=np.float64)
    scalar = f.ndim == 0
    f = np.atleast_1d(f)
    pref = np.exp(-1j * np.pi * ((n + 1) * f - k / 2.0)) / (
        1j * np.sqrt(2.0 * (n + 1))
    )
    half = k / (2.0 * (n + 1))
    out = pref * (
        _dirichlet_ratio(f - half, n) - (-1.0) ** k * _dirichlet_ratio(f + half, n)
    )
    return out[0] if scalar else out


def continuous_mb_window(k, f):
    """Window of the k-th continuous-time minimum-bias taper sqrt(2)*sin(pi*k*t).

    Evaluated through sinc differences, so the removable singularities
    at f = +-k/2 need no special casing. The frequency-squared energy
    integral of this window over the whole real line is k^2/4.
    """
    k = _count(k, "k")
    f = np.asarray(f, dtype=np.float64)
    scalar = f.ndim == 0
    f = np.atleast_1d(f)
    pref = np.exp(-1j * np.pi * (f - k / 2.0)) / (1j * np.sqrt(2.0))
    out = pref * (np.sinc(f - k / 2.0) - (-1.0) ** k * np.sinc(f + k / 2.0))
    return out[0] if scalar else out
