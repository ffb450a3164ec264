"""Hot numeric kernels, with optional numba acceleration.

The shift-combine kernels and the AR recursion each exist as a numba
``@njit`` build (default when numba imports) and a vectorized numpy
fallback. Setting ``MTSINE_DISABLE_NUMBA`` to ``1``/``true``/``yes``
before import forces the numpy path; a missing numba installation falls
back silently. Both paths compute the same sums in the same order per
output bin, so they agree to round-off (see tests/test_kernels.py).

Smoothing has one numpy path, :func:`window_average`, behind
:func:`smooth_circular` (one halfwidth) and :func:`smooth_variable` (one
per bin). Kernel ids: 0 = box, 1 = parabolic (Epanechnikov); weights are
renormalized to sum to one, so constants pass through unchanged.
"""

import os

import numpy as np

__all__ = [
    "NUMBA_ENABLED",
    "combine_shifts",
    "combine_shifts_np",
    "variable_k_combine",
    "variable_k_combine_np",
    "window_average",
    "smooth_circular",
    "smooth_variable",
    "ar_recurse",
    "ar_recurse_np",
]

KERNEL_BOX = 0
KERNEL_PARABOLIC = 1

_disabled = os.environ.get("MTSINE_DISABLE_NUMBA", "").strip().lower() in (
    "1",
    "true",
    "yes",
)
if not _disabled:
    try:
        from numba import njit, prange

        NUMBA_ENABLED = True
    except ImportError:  # pragma: no cover
        NUMBA_ENABLED = False
else:
    NUMBA_ENABLED = False


# ---------------------------------------------------------------------------
# pure-numpy implementations (always defined; the benchmark imports these)
# ---------------------------------------------------------------------------

def combine_shifts_np(y, weights, step):
    """Weighted sum over shift pairs: sum_j w_j |y[i+j*step] - y[i-j*step]|^2.

    y is the complex transform on the full circular grid; j runs from 1
    to len(weights).
    """
    est = np.zeros(y.shape[0])
    for j in range(1, weights.shape[0] + 1):
        d = np.roll(y, -j * step) - np.roll(y, j * step)
        est += weights[j - 1] * (d.real * d.real + d.imag * d.imag)
    return est


def _parabolic_norm(k):
    # sum_{j=1..k} (1 - j^2/k^2); zero for k = 1 (degenerate, handled upstream)
    return k - (k + 1.0) * (2.0 * k + 1.0) / (6.0 * k)


def variable_k_combine_np(y, k_profile, step, n1, parabolic):
    """Per-bin taper-count combine of shifted-transform differences.

    ``k_profile[i]`` tapers are averaged at bin i with uniform or
    parabolic weights summing to one; the result carries the
    1/(2*(N+1)) scaling with ``n1 = N + 1``.
    """
    m = y.shape[0]
    kmax = int(k_profile.max())
    c1 = np.zeros(m)
    c2 = np.zeros(m)
    out = np.zeros(m)
    for j in range(1, kmax + 1):
        d = np.roll(y, -j * step) - np.roll(y, j * step)
        p = d.real * d.real + d.imag * d.imag
        c1 += p
        if parabolic:
            c2 += (j * j) * p
        sel = k_profile == j
        if not sel.any():
            continue
        if parabolic and j > 1:
            c = 1.0 / _parabolic_norm(j)
            out[sel] = c * (c1[sel] - c2[sel] / (j * j)) / (2.0 * n1)
        else:
            out[sel] = c1[sel] / (2.0 * n1 * j)
    return out


def ar_recurse_np(innovations, coeffs):
    """Autoregressive recursion x[i] = e[i] + sum_p a_p x[i-1-p]."""
    n = innovations.shape[0]
    p = coeffs.shape[0]
    x = np.empty(n)
    for i in range(n):
        acc = innovations[i]
        for q in range(min(p, i)):
            acc += coeffs[q] * x[i - 1 - q]
        x[i] = acc
    return x


# ---------------------------------------------------------------------------
# numba builds
# ---------------------------------------------------------------------------

if NUMBA_ENABLED:

    @njit(cache=True, parallel=True)
    def _combine_shifts_nb(y, weights, step):
        m = y.shape[0]
        k = weights.shape[0]
        est = np.empty(m)
        for i in prange(m):
            acc = 0.0
            for j in range(1, k + 1):
                up = y[(i + j * step) % m]
                dn = y[(i - j * step) % m]
                dr = up.real - dn.real
                di = up.imag - dn.imag
                acc += weights[j - 1] * (dr * dr + di * di)
            est[i] = acc
        return est

    @njit(cache=True, parallel=True)
    def _variable_k_combine_nb(y, k_profile, step, n1, parabolic):
        m = y.shape[0]
        out = np.empty(m)
        for i in prange(m):
            k = k_profile[i]
            c1 = 0.0
            c2 = 0.0
            for j in range(1, k + 1):
                up = y[(i + j * step) % m]
                dn = y[(i - j * step) % m]
                dr = up.real - dn.real
                di = up.imag - dn.imag
                p = dr * dr + di * di
                c1 += p
                if parabolic:
                    c2 += (j * j) * p
            if parabolic and k > 1:
                norm = k - (k + 1.0) * (2.0 * k + 1.0) / (6.0 * k)
                out[i] = (c1 - c2 / (k * k)) / norm / (2.0 * n1)
            else:
                out[i] = c1 / (2.0 * n1 * k)
        return out

    @njit(cache=True)
    def _ar_recurse_nb(innovations, coeffs):
        n = innovations.shape[0]
        p = coeffs.shape[0]
        x = np.empty(n)
        for i in range(n):
            acc = innovations[i]
            top = p if p < i else i
            for q in range(top):
                acc += coeffs[q] * x[i - 1 - q]
            x[i] = acc
        return x


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _c128(a):
    return np.ascontiguousarray(a, dtype=np.complex128)


def _f64(a):
    return np.ascontiguousarray(a, dtype=np.float64)


def combine_shifts(y, weights, step):
    y = _c128(y)
    weights = _f64(weights)
    if NUMBA_ENABLED:
        return _combine_shifts_nb(y, weights, int(step))
    return combine_shifts_np(y, weights, int(step))


def variable_k_combine(y, k_profile, step, n1, parabolic):
    y = _c128(y)
    k_profile = np.ascontiguousarray(k_profile, dtype=np.int64)
    if NUMBA_ENABLED:
        return _variable_k_combine_nb(
            y, k_profile, int(step), float(n1), bool(parabolic)
        )
    return variable_k_combine_np(y, k_profile, int(step), float(n1), bool(parabolic))


def ar_recurse(innovations, coeffs):
    innovations = _f64(innovations)
    coeffs = _f64(coeffs)
    if NUMBA_ENABLED:
        return _ar_recurse_nb(innovations, coeffs)
    return ar_recurse_np(innovations, coeffs)


# ---------------------------------------------------------------------------
# smoothing: one numpy path for fixed and per-bin halfwidths
# ---------------------------------------------------------------------------

def window_average(values, half_bins, scale, kernel_id):
    """Circular weighted average over a window of its own width at each bin.

    ``out[i] = sum_j w_ij v[(i + j) % m] / sum_j w_ij`` for
    ``|j| <= h_i = half_bins[i]``, with ``w_ij = 1`` (box) or
    ``1 - (j / s_i)^2`` (parabolic), ``s_i`` from ``scale`` (scalar or per bin).

    Window sums of v, c*v and c^2*v come from cumulative sums along short
    rows about each row's centre, never about a global origin, whose
    cancellation would lose digits. Bins with h in [2^k, 2^(k+1)) use rows
    of 4 * 2^k bins: a window lies in at most two rows, and moments shift
    by less than about 3h. Only rows that some window reaches are summed:
    O(m) work for a smooth halfwidth profile, O(m log m) at worst.
    """
    m = values.shape[0]
    if half_bins.min() < 1:
        raise ValueError("smoothing halfwidth must cover at least one grid bin")
    scale = np.broadcast_to(np.asarray(scale, dtype=np.float64), (m,))
    octave = np.frexp(half_bins)[1] - 1
    out = np.empty(m)
    for k in np.flatnonzero(np.bincount(octave)):
        size = 4 << int(k)
        bins = np.flatnonzero(octave == k)
        h = half_bins[bins]
        width = 2 * h + 1
        # rows are counted from bin -size, so window i-h..i+h starts at
        # column lo of row `row` and ends in that row or the next
        row, lo = np.divmod(bins - h + size, size)
        used = np.zeros(row.max() + 2, dtype=bool)
        used[row] = used[row + 1] = True
        rows = np.flatnonzero(used)
        first = (np.cumsum(used)[row] - 1) * (size + 1)
        hi = np.minimum(lo + width, size)
        # prefix positions in `acc` (rows of size + 1, column 0 zero) and the
        # offset of each row's centre from the window's bin
        start = np.stack([first + lo, first + size + 1])
        stop = np.stack([first + hi, start[1] + lo + width - hi])
        shift = size // 2 - h - lo + np.array([[0], [size]])
        seg = values.take(rows[:, None] * size + np.arange(size) - size, mode="wrap")
        col = np.arange(size) - size / 2.0
        acc = np.zeros((rows.size, size + 1))
        flat, sums = acc.ravel(), []
        for p in range(1 if kernel_id == KERNEL_BOX else 3):
            np.multiply(seg, col**p, out=acc[:, 1:])
            np.cumsum(acc[:, 1:], axis=1, out=acc[:, 1:])
            sums.append(flat[stop] - flat[start])
        s0 = sums[0].sum(axis=0)
        if kernel_id == KERNEL_BOX:
            out[bins] = s0 / width
            continue
        s2 = (sums[2] + shift * (2.0 * sums[1] + shift * sums[0])).sum(axis=0)
        s = scale[bins]
        norm = width - h * (h + 1.0) * width / (3.0 * s * s)
        out[bins] = (s0 - s2 / (s * s)) / norm
    return out


def smooth_circular(values, scale, kernel_id):
    """Smooth with one halfwidth: the kernel stretched over ``scale`` bins.

    ``scale`` need not be whole; the window covers ``floor(scale)`` bins
    on each side.
    """
    values = _f64(values)
    half = np.full(values.shape, np.floor(scale), dtype=np.int64)
    return window_average(values, half, float(scale), int(kernel_id))


def smooth_variable(values, half_bins, kernel_id):
    """Smooth with ``half_bins[i]`` whole bins on each side of bin i."""
    half_bins = np.ascontiguousarray(half_bins, dtype=np.int64)
    return window_average(_f64(values), half_bins, half_bins, int(kernel_id))
