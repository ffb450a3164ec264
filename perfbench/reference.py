"""Computations the benchmark checks mtsine against, made without mtsine.

Everything here follows the closed forms in the package README and the
paper's definitions directly: the sine tapers, tapered sums by direct
summation, the AR spectrum, the log bias psi(K) - ln K, the parabolic
smoother and the local-bias quadratic form. Nothing imports mtsine.
"""

import math

import numpy as np

EULER_GAMMA = 0.5772156649015329


def ar_response(coeffs, f):
    """A(f) = 1 - sum_j a_j e^(-i 2 pi j f)."""
    f = np.asarray(f, dtype=np.float64)
    resp = np.ones(f.shape, dtype=np.complex128)
    for j, a in enumerate(coeffs, start=1):
        resp -= a * np.exp(-2j * np.pi * j * f)
    return resp


def ar_spectrum(coeffs, sigma2, f):
    """Exact AR spectrum sigma^2 / |A(f)|^2."""
    return sigma2 / np.abs(ar_response(coeffs, f)) ** 2


def ar_series(rng, coeffs, n):
    """Stationary AR series of unit innovation variance.

    White noise filtered circularly by 1/A(f): the covariance is the AR
    autocovariance aliased with period n, which differs from it by
    O(r^n) for pole radius r, far below double precision here.
    """
    e = rng.standard_normal(n)
    return np.fft.irfft(np.fft.rfft(e) / ar_response(coeffs, np.fft.rfftfreq(n)), n)


def sine_tapers(n, ks):
    """Rows sqrt(2/(n+1)) sin(pi k t/(n+1)), t = 1..n, for each k in ``ks``.

    k t is reduced modulo 2(n+1) exactly in integers and the sine read
    from a table of one period, which is faster than and as accurate as
    evaluating the sine of the unreduced argument.
    """
    period = 2 * (n + 1)
    table = math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.arange(period) / (n + 1))
    k = np.asarray(ks, dtype=np.int64)
    return table[np.outer(k, np.arange(1, n + 1)) % period]


def taper_sums(x, freqs, k_count):
    """Direct sums sum_t v_t^(k) x_t e^(-i 2 pi f t) for k = 1..k_count.

    Returns an array of shape (len(freqs), k_count). Tapers are built in
    blocks of about 2^20 values, so the check's working set stays below
    that of the call it checks.
    """
    n = x.shape[0]
    block = max(1, 2**20 // n)
    phase = 2.0 * np.pi * np.outer(np.asarray(freqs, dtype=np.float64), np.arange(1, n + 1))
    # real and imaginary parts stacked, so each block is one real matrix product
    z = np.concatenate([x * np.cos(phase), -x * np.sin(phase)])
    sums = np.empty((z.shape[0], k_count))
    for lo in range(0, k_count, block):
        ks = np.arange(lo + 1, min(lo + block, k_count) + 1)
        sums[:, lo:lo + ks.size] = z @ sine_tapers(n, ks).T
    half = z.shape[0] // 2
    return sums[:half] + 1j * sums[half:]


def uniform_estimate_at(x, freqs, k_counts):
    """Uniform-weight sine multitaper estimate, bin b with ``k_counts[b]`` tapers."""
    k_counts = np.asarray(k_counts, dtype=np.int64)
    power = np.abs(taper_sums(x, freqs, int(k_counts.max()))) ** 2
    return np.array([power[b, :k].mean() for b, k in enumerate(k_counts)])


def uniform_estimate_grid(x, m, k_count):
    """The same estimate on the whole grid j/m, one zero-padded FFT per taper."""
    z = np.fft.fft(sine_tapers(x.shape[0], range(1, k_count + 1)) * x, m, axis=1)
    return np.mean(z.real**2 + z.imag**2, axis=0)


def log_bias(k):
    """psi(K) - ln K for integer K >= 1 (array or scalar)."""
    k = np.asarray(k, dtype=np.int64)
    harmonic = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, int(k.max()) + 1))])
    return -EULER_GAMMA + harmonic[k - 1] - np.log(k)


def parabolic_average(values, i, half):
    """Circular average of ``values`` around bin i, weights 1 - (j/half)^2."""
    j = np.arange(-half, half + 1)
    w = 1.0 - (j / half) ** 2
    return float(w @ values[(i + j) % values.shape[0]] / w.sum())


def local_bias_matrix(n):
    """Integral of f^2 e^(i 2 pi (s-t) f) over [-1/2, 1/2], as a dense matrix."""
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (-1.0) ** d / (2.0 * np.pi**2 * d**2)
    a[d == 0] = 1.0 / 12.0
    return a


def convergence_stats(n):
    """Table 1 row: max over k of (n+2)/k times the sine-to-minimum-bias distance.

    Returns (2-norm statistic, sup-norm statistic after sup-normalising);
    minimum-bias signs are chosen to minimise the 2-norm distance.
    """
    sine = sine_tapers(n, np.arange(1, n + 1))
    _, vec = np.linalg.eigh(local_bias_matrix(n))
    mb = vec.T
    flip = np.sum((sine - mb) ** 2, axis=1) > np.sum((sine + mb) ** 2, axis=1)
    mb = np.where(flip[:, None], -mb, mb)
    scale = (n + 2.0) / np.arange(1, n + 1)
    l2 = scale * np.sqrt(np.sum((sine - mb) ** 2, axis=1))
    sup = (sine / np.max(np.abs(sine), axis=1, keepdims=True)
           - mb / np.max(np.abs(mb), axis=1, keepdims=True))
    return float(l2.max()), float((scale * np.max(np.abs(sup), axis=1)).max())


def window_power(taper, freqs):
    """|sum_t v_t e^(-i 2 pi f t)|^2 by direct summation."""
    t = np.arange(1, taper.shape[0] + 1, dtype=np.float64)
    z = np.exp(-2j * np.pi * np.outer(np.asarray(freqs, dtype=np.float64), t)) @ taper
    return np.abs(z) ** 2


def read_cells(path):
    """Header and rows of a CSV the CLI wrote, as strings."""
    with open(path) as fh:
        lines = [line.strip().split(",") for line in fh if line.strip()]
    return lines[0], lines[1:]


def read_csv(path):
    """Header and rows of an all-numeric CSV the CLI wrote."""
    header, rows = read_cells(path)
    return header, np.array(rows, dtype=np.float64)
