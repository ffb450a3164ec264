"""Hot numeric kernels, all plain numpy.

The shift combines have one primitive, :func:`_shift_sums`, behind
:func:`combine_shifts` (one taper count, any weights) and
:func:`variable_k_combine` (one taper count per bin): a single loop over
the shifts, each taking only the bins whose count reaches it.
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

def _shift_sums(y, step, k, g):
    """Shift-pair sums ``sums[q, i] = sum_{j <= K_i} g[q, j-1] |d_j(i)|^2``.

    ``d_j(i) = y[i + j*step] - y[i - j*step]`` on the circular grid, read
    from one copy of y padded by k_max * step on each side. A scalar K
    takes every bin at every shift, as slices. A per-bin K sorts the bins
    by decreasing K once and keeps the accumulators in that order, so
    shift j gathers only the prefix of bins with K >= j: the work is
    sum_i K_i rather than m * k_max. Overflow gives inf (or nan) without
    a warning; the caller's estimate reports it.
    """
    m = y.shape[0]
    per_bin = np.ndim(k) > 0
    k_max = int(np.max(k))
    pad = k_max * step
    ypad = np.pad(y, pad, mode="wrap")
    if per_bin:
        order = np.argsort(-k, kind="stable")
        # active[j] = number of bins with K >= j
        active = np.cumsum(np.bincount(k, minlength=k_max + 1)[::-1])[::-1]
    sums = np.zeros((g.shape[0], m))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, k_max + 1):
            s = j * step
            if per_bin:
                a = active[j]
                d = ypad.take(order[:a] + (pad + s)) - ypad.take(order[:a] + (pad - s))
            else:
                a = m
                d = ypad[pad + s : pad + s + m] - ypad[pad - s : pad - s + m]
            p = d.real * d.real
            p += d.imag * d.imag
            sums[:, :a] += g[:, j - 1 : j] * p
    if per_bin:
        sums[:, order] = sums.copy()
    return sums


def combine_shifts(y, weights, step):
    """Weighted sum over shift pairs: sum_j w_j |y[i+j*step] - y[i-j*step]|^2.

    y is the complex transform on the full circular grid; j runs from 1
    to len(weights).
    """
    weights = _f64(weights)
    return _shift_sums(_c128(y), int(step), weights.shape[0], weights[None, :])[0]


def _parabolic_norm(k):
    # sum_{j=1..k} (1 - j^2/k^2); zero for k = 1, which is averaged uniformly
    return k - (k + 1.0) * (2.0 * k + 1.0) / (6.0 * k)


def variable_k_combine(y, k_profile, step, n1, parabolic):
    """Per-bin taper-count combine of shifted-transform differences.

    ``k_profile[i]`` tapers are averaged at bin i with uniform or
    parabolic weights summing to one; the result carries the
    1/(2*(N+1)) scaling with ``n1 = N + 1``.
    """
    k = np.ascontiguousarray(k_profile, dtype=np.int64)
    j = np.arange(1.0, k.max() + 1.0)
    g = np.stack([np.ones_like(j), j * j]) if parabolic else np.ones((1, j.size))
    sums = _shift_sums(_c128(y), int(step), k, g)
    out = sums[0] / (2.0 * n1 * k)
    if parabolic:
        sel = k > 1
        ks = k[sel]
        c = 1.0 / _parabolic_norm(ks)
        with np.errstate(invalid="ignore"):  # inf - inf from an overflowed sum
            out[sel] = c * (sums[0, sel] - sums[1, sel] / (ks * ks)) / (2.0 * n1)
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
