"""Hot numeric kernels, all plain numpy.

The shift combines (:func:`combine_shifts`, :func:`variable_k_combine`)
loop over the K shifts with one vectorized pass over the grid each, and
:func:`ar_recurse` runs the AR recursion sample by sample. Smoothing has
one primitive, :func:`window_average`, behind :func:`smooth_circular`
(one halfwidth) and :func:`smooth_variable` (one per bin). Kernel ids:
0 = box, 1 = parabolic (Epanechnikov); weights are renormalized to sum
to one, so constants pass through unchanged.
"""

import numpy as np

__all__ = [
    "combine_shifts",
    "variable_k_combine",
    "window_average",
    "smooth_circular",
    "smooth_variable",
    "ar_recurse",
]

KERNEL_BOX = 0
KERNEL_PARABOLIC = 1


def _c128(a):
    return np.ascontiguousarray(a, dtype=np.complex128)


def _f64(a):
    return np.ascontiguousarray(a, dtype=np.float64)


# ---------------------------------------------------------------------------
# shift combines and the AR recursion
# ---------------------------------------------------------------------------

def combine_shifts(y, weights, step):
    """Weighted sum over shift pairs: sum_j w_j |y[i+j*step] - y[i-j*step]|^2.

    y is the complex transform on the full circular grid; j runs from 1
    to len(weights). A transform too large to square gives inf (or nan)
    without a warning; the caller's estimate reports it.
    """
    y = _c128(y)
    weights = _f64(weights)
    step = int(step)
    est = np.zeros(y.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, weights.shape[0] + 1):
            d = np.roll(y, -j * step) - np.roll(y, j * step)
            est += weights[j - 1] * (d.real * d.real + d.imag * d.imag)
    return est


def _parabolic_norm(k):
    # sum_{j=1..k} (1 - j^2/k^2); zero for k = 1 (degenerate, handled upstream)
    return k - (k + 1.0) * (2.0 * k + 1.0) / (6.0 * k)


def variable_k_combine(y, k_profile, step, n1, parabolic):
    """Per-bin taper-count combine of shifted-transform differences.

    ``k_profile[i]`` tapers are averaged at bin i with uniform or
    parabolic weights summing to one; the result carries the
    1/(2*(N+1)) scaling with ``n1 = N + 1``. Overflow gives inf (or nan)
    without a warning, as in :func:`combine_shifts`.
    """
    y = _c128(y)
    k_profile = np.ascontiguousarray(k_profile, dtype=np.int64)
    step, n1 = int(step), float(n1)
    m = y.shape[0]
    kmax = int(k_profile.max())
    c1 = np.zeros(m)
    c2 = np.zeros(m)
    out = np.zeros(m)
    with np.errstate(over="ignore", invalid="ignore"):
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


def ar_recurse(innovations, coeffs):
    """Autoregressive recursion x[i] = e[i] + sum_p a_p x[i-1-p]."""
    innovations = _f64(innovations)
    coeffs = _f64(coeffs)
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
