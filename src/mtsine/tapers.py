"""Taper families and their spectral windows.

Three orthonormal families are constructed on n samples:

* sinusoidal tapers ``sqrt(2/(n+1)) * sin(pi*k*t/(n+1))`` (closed form,
  no eigensolve),
* minimum-bias tapers, the eigenvectors of the local-bias matrix sorted
  by increasing eigenvalue,
* Slepian tapers (DPSS), which maximize in-band spectral concentration
  for a chosen halfwidth ``w``.

Every taper is unit norm; a family's ``local_biases`` hold the
frequency-squared energy integral of each member's window.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import FrequencyGrid, window_grid

SIGN_EPS = 1e-8  # leading-component threshold for the eigenvector sign rule
_UNIT_NORM_TOL = 1e-12
_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class Taper:
    """Unit-norm real weight sequence over samples t = 1..n."""

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("taper must be a nonempty 1-d vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("taper values must be finite")
        norm = np.dot(v, v)
        if abs(norm - 1.0) > _UNIT_NORM_TOL:
            raise ValueError(f"taper must have unit norm, got sum of squares {norm}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self):
        return self.values.shape[0]


@dataclass(frozen=True)
class TaperFamily:
    """Ordered orthonormal taper family with per-taper local biases.

    ``taper_matrix`` holds one taper per row; ``local_biases`` are in
    squared cycles per sample and are nondecreasing for the sinusoidal
    and minimum-bias kinds.
    """

    taper_matrix: np.ndarray
    local_biases: np.ndarray
    kind: str
    bandwidth: float | None = None

    def __post_init__(self):
        mat = np.ascontiguousarray(self.taper_matrix, dtype=np.float64)
        lam = np.ascontiguousarray(self.local_biases, dtype=np.float64)
        if mat.ndim != 2:
            raise ValueError("taper_matrix must be 2-d (k_count x n)")
        k, n = mat.shape
        if k > n:
            raise ValueError(f"cannot have more tapers than samples: K={k}, n={n}")
        if lam.shape != (k,):
            raise ValueError("local_biases must have one entry per taper")
        if self.kind not in ("sinusoidal", "minimum_bias", "slepian", "custom"):
            raise ValueError(f"unknown taper family kind {self.kind!r}")
        gram = mat @ mat.T
        dev = np.max(np.abs(gram - np.eye(k)))
        if dev > _ORTHO_TOL:
            raise ValueError(f"family is not orthonormal (Gram deviation {dev:.2e})")
        if self.kind in ("sinusoidal", "minimum_bias") and np.any(
            np.diff(lam) < -1e-12
        ):
            raise ValueError("local biases must be nondecreasing for this kind")
        mat.flags.writeable = False
        lam.flags.writeable = False
        object.__setattr__(self, "taper_matrix", mat)
        object.__setattr__(self, "local_biases", lam)

    @property
    def n(self):
        return self.taper_matrix.shape[1]

    @property
    def k_count(self):
        return self.taper_matrix.shape[0]

    @property
    def tapers(self):
        return [Taper(row) for row in self.taper_matrix]


@dataclass(frozen=True)
class SymmetricToeplitz:
    """Symmetric Toeplitz matrix defined by its first row."""

    first_row: np.ndarray

    def __post_init__(self):
        r = np.ascontiguousarray(self.first_row, dtype=np.float64)
        if r.ndim != 1 or r.size < 1:
            raise ValueError("first_row must be a nonempty 1-d vector")
        if not np.all(np.isfinite(r)):
            raise ValueError("matrix entries must be finite")
        r.flags.writeable = False
        object.__setattr__(self, "first_row", r)

    @property
    def n(self):
        return self.first_row.shape[0]

    def to_dense(self):
        idx = np.abs(np.subtract.outer(np.arange(self.n), np.arange(self.n)))
        return self.first_row[idx]

    def quadratic_forms(self, rows):
        """``r^T A r`` for each row r of ``rows`` (k x n)."""
        rows = np.asarray(rows, dtype=np.float64)
        return np.einsum("ij,jk,ik->i", rows, self.to_dense(), rows)


@dataclass(frozen=True)
class SpectralWindow:
    """Complex window V(f) of a taper evaluated on a frequency grid."""

    grid: FrequencyGrid
    values: np.ndarray = field(repr=False)

    @property
    def power(self):
        return self.values.real**2 + self.values.imag**2


def _fix_sign(vec):
    """Make the first component larger than SIGN_EPS in magnitude positive."""
    for c in vec:
        if abs(c) > SIGN_EPS:
            return vec if c > 0 else -vec
    return vec


def sinusoidal_taper(n, k):
    """The k-th sinusoidal taper on n samples (closed form, 1 <= k <= n)."""
    if n < 1:
        raise ValueError(f"taper length must be positive, got {n}")
    if not 1 <= k <= n:
        raise IndexError(f"taper index k={k} outside 1..{n}")
    t = np.arange(1, n + 1)
    return Taper(np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * k * t / (n + 1)))


def local_bias_matrix(n):
    """Matrix of the quadratic form giving a window's local bias.

    Entry (i, j) is the integral of f^2 * e^(i*2*pi*(i-j)*f) over the
    Nyquist band: 1/12 on the diagonal, (-1)^d / (2*pi^2*d^2) at lag d.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    d = np.arange(n, dtype=np.float64)
    row = np.empty(n)
    row[0] = 1.0 / 12.0
    if n > 1:
        row[1:] = ((-1.0) ** d[1:]) / (2.0 * np.pi**2 * d[1:] ** 2)
    return SymmetricToeplitz(row)


def concentration_matrix(n, w):
    """Matrix of the quadratic form giving in-band energy over [-w, w]."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if not 0.0 < w <= 0.5:
        raise ValueError(f"halfwidth must be in (0, 1/2], got {w}")
    d = np.arange(n, dtype=np.float64)
    row = np.empty(n)
    row[0] = 2.0 * w
    if n > 1:
        row[1:] = np.sin(2.0 * np.pi * w * d[1:]) / (np.pi * d[1:])
    return SymmetricToeplitz(row)


def sinusoidal_family(n, k_count):
    """First ``k_count`` sinusoidal tapers with exact local biases."""
    if not 1 <= k_count <= n:
        raise ValueError(f"need 1 <= K <= n, got K={k_count}, n={n}")
    t = np.arange(1, n + 1)
    k = np.arange(1, k_count + 1)
    mat = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, t) / (n + 1))
    return TaperFamily(mat, local_bias_matrix(n).quadratic_forms(mat), "sinusoidal")


def minimum_bias_family(n, k_count):
    """Tapers minimizing local bias: lowest eigenvectors of the bias matrix."""
    if not 1 <= k_count <= n:
        raise ValueError(f"need 1 <= K <= n, got K={k_count}, n={n}")
    a = local_bias_matrix(n).to_dense()
    try:
        lam, vec = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise np.linalg.LinAlgError(
            f"eigendecomposition of the {n}x{n} local-bias matrix failed: {exc}"
        ) from exc
    mat = np.array([_fix_sign(vec[:, i]) for i in range(k_count)])
    return TaperFamily(mat, lam[:k_count], "minimum_bias")


def slepian_family(n, w, k_count):
    """Slepian (DPSS) tapers for halfwidth ``w``, highest concentration first.

    Computed from Slepian's commuting tridiagonal operator, whose
    eigenvalues are well separated even when the concentrations cluster
    exponentially close to one; diagonalizing the concentration matrix
    directly returns an arbitrary basis inside those near-degenerate
    clusters. ``local_biases`` hold each taper's local bias (not its
    concentration). The boundary w = 1/2 is accepted as the degenerate
    full-band case, where every orthonormal family is equally
    concentrated.
    """
    if not 0.0 < w <= 0.5:
        raise ValueError(f"halfwidth must be in (0, 1/2], got {w}")
    if not 1 <= k_count <= n:
        raise ValueError(f"need 1 <= K <= n, got K={k_count}, n={n}")
    i = np.arange(n, dtype=np.float64)
    diag = ((n - 1 - 2.0 * i) / 2.0) ** 2 * np.cos(2.0 * np.pi * w)
    off = i[1:] * (n - i[1:]) / 2.0
    tri = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    try:
        _, vec = np.linalg.eigh(tri)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise np.linalg.LinAlgError(
            f"Slepian tridiagonal eigendecomposition failed for n={n}: {exc}"
        ) from exc
    mat = np.array([_fix_sign(vec[:, n - 1 - i]) for i in range(k_count)])
    lam = local_bias_matrix(n).quadratic_forms(mat)
    return TaperFamily(mat, lam, "slepian", bandwidth=float(w))


def spectral_window(taper, grid=None):
    """Zero-padded transform of a taper on a frequency grid.

    Uses the 1-based sample convention V(f) = sum_t v_t e^(-i*2*pi*t*f),
    t = 1..n, so the first sample carries the phase factor e^(-i*2*pi*f).
    """
    v = taper.values if isinstance(taper, Taper) else Taper(taper).values
    if grid is None:
        grid = window_grid(v.shape[0])
    if grid.m < v.shape[0]:
        raise ValueError(f"grid size {grid.m} must be at least the taper length")
    vals = np.fft.fft(v, grid.m)
    vals *= np.exp(-2j * np.pi * np.arange(grid.m) / grid.m)
    return SpectralWindow(grid, vals)


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
    if n < 1:
        raise ValueError(f"taper length must be positive, got {n}")
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
    if k < 1:
        raise ValueError(f"taper index must be positive, got {k}")
    f = np.asarray(f, dtype=np.float64)
    scalar = f.ndim == 0
    f = np.atleast_1d(f)
    pref = np.exp(-1j * np.pi * (f - k / 2.0)) / (1j * np.sqrt(2.0))
    out = pref * (np.sinc(f - k / 2.0) - (-1.0) ** k * np.sinc(f + k / 2.0))
    return out[0] if scalar else out
