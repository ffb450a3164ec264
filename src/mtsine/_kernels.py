"""Hot numeric kernels, all plain numpy.

Every primitive computes the bins its caller names (one output per
entry of its count or halfwidth array). The estimate of a real series
is even in f, so callers take bins 0..m/2 of an even result and mirror
them once with :func:`_mirror`. The shift combines have one primitive,
:func:`_shift_sums` (a loop over blocks of bins with the shift loop
inside), behind :func:`combine_shifts` (one taper count) and
:func:`variable_k_combine` (one per bin), which share one weighting.
:func:`ar_recurse` runs the AR recursion sample by sample. Smoothing has
one primitive, :func:`window_average`, behind :func:`smooth_circular`
(one halfwidth) and :func:`smooth_variable` (one per bin). Its one weight
rule is the parabolic (Epanechnikov) profile, and the box kernel is that
profile at infinite scale; weights are renormalized to sum to one, so
constants pass through unchanged. Every transform in the package is the
chirp-z :func:`_half_transform`, which works in one buffer per row and
writes the conjugate half of a full grid into it.
"""

import functools

import numpy as np


# ---------------------------------------------------------------------------
# shift combines and the AR recursion
# ---------------------------------------------------------------------------

# most bins per block: each shift runs only over the hull of the block's bins
# whose K reaches it, so a wide block wastes work only where K dips inside
# that hull; blocks of 4,096 or 8,192 bins paid numpy's per-call overhead
# more often and were slower on the adaptive profiles (README "Kernels")
_SHIFT_BLOCK = 1 << 14


def _shift_sums(y, step, k, parabolic):
    """Weighted shift-pair sums ``sums[i] = sum_{j <= k[i]} w_j |d_j(i)|^2``,
    i < len(k), with uniform weights w_j = 1 or, for ``parabolic``, the
    whole numbers w_j = K^2 - j^2 at K = k[i] (w_1 = 1 at K = 1).

    ``d_j(i) = y[i + j*step] - y[i - j*step]`` on the circular grid of
    ``m = len(y)`` bins; k holds one count per output bin, so its length
    sets which bins 0..len(k)-1 are summed. They are cut into equal
    blocks of at most ``_SHIFT_BLOCK`` bins (no short last one pays a
    block's calls); each runs shifts 1 to its largest K on slices of the
    real and imaginary planes of y. A shift j past the block's smallest K
    runs only over the hull [first, last) of the bins whose K reaches j,
    both ends found by ``searchsorted`` on the running maximum of K from
    each end, and adds only where K reaches j inside it. Every bin gets
    the same additions in the same order as over the whole block, and a
    block of one K takes its weights as scalars of the same value, so a
    bin's sum has the same bits at the same K in any profile. The work is
    about sum_i K_i for a K with one hump per block; a constant K takes
    neither hull nor mask. Overflow gives inf (or nan) without a warning;
    the caller's estimate reports it.
    """
    m, bins = y.shape[0], k.shape[0]
    count = -(-bins // _SHIFT_BLOCK)
    cuts = [bins * c // count for c in range(count + 1)]
    sums = np.empty(bins)
    p, t = np.empty((2, min(bins, _SHIFT_BLOCK)))
    with np.errstate(over="ignore", invalid="ignore"):
        for b0, b1 in zip(cuts[:-1], cuts[1:]):
            kb = k[b0:b1]
            k_lo, k_hi = int(kb.min()), int(kb.max())
            pad, w = k_hi * step, b1 - b0
            near = np.arange(b0 - pad, b1 + pad) % m
            re, im = y.real[near], y.imag[near]
            acc, pw, tw, where, c0, c1 = sums[b0:b1], p[:w], t[:w], True, 0, w
            acc.fill(0.0)
            if parabolic:
                # w_j = kk - j^2, with kk = 2 at K = 1 so that its one weight is 1
                kk = _squares(k_hi) if k_lo == k_hi else _squares(kb).astype(np.float64)
            if k_lo < k_hi:
                # the hull [first, last) of the bins whose K reaches shift j > k_lo
                js = np.arange(k_lo + 1, k_hi + 1)
                first = np.searchsorted(np.maximum.accumulate(kb), js).tolist()
                last = (w - np.searchsorted(np.maximum.accumulate(kb[::-1]), js)).tolist()
            for j in range(1, k_hi + 1):
                lo, hi = pad - j * step, pad + j * step
                if j > k_lo:
                    c0, c1 = first[j - k_lo - 1], last[j - k_lo - 1]
                    lo, hi, w = lo + c0, hi + c0, c1 - c0
                    acc, pw, tw = sums[b0 + c0 : b0 + c1], p[:w], t[:w]
                    where = kb[c0:c1] >= j
                np.subtract(re[hi : hi + w], re[lo : lo + w], out=pw)
                np.subtract(im[hi : hi + w], im[lo : lo + w], out=tw)
                np.multiply(pw, pw, out=pw)
                np.multiply(tw, tw, out=tw)
                np.add(pw, tw, out=pw)
                if parabolic:
                    wj = float(kk - j * j) if k_lo == k_hi else np.subtract(kk[c0:c1], j * j, out=tw)
                    np.multiply(pw, wj, out=pw)
                np.add(acc, pw, out=acc, where=where)
    return sums


def _squares(k):
    # K^2 for the parabolic weights K^2 - j^2, and 2 at K = 1, averaged uniformly
    return np.where(k > 1, k * k, 2) if np.ndim(k) else (k * k if k > 1 else 2)


def _average(sums, k, n1, parabolic):
    """The estimate from :func:`_shift_sums`: each bin's weighted sum over
    its weights' sum, K for uniform weights and K(K-1)(4K+1)/6 for parabolic
    ones (1 at K = 1), times 1/(2*(N+1)), ``n1 = N + 1``. ``k`` is one count
    for every bin or one per bin; a bin's value has the same bits at the
    same K either way. Every weight and weight sum is a whole number, so
    the parabolic sum loses no digits to cancellation."""
    norm = k
    if parabolic:
        norm = np.maximum(k * (k - 1) * (4 * k + 1) // 6, 1)
    return np.divide(sums, 2.0 * n1 * norm, out=sums)


def combine_shifts(y, k_count, step, n1, parabolic):
    """:func:`variable_k_combine` at one taper count, the int ``k_count``, for every bin."""
    k = np.broadcast_to(k_count, (y.shape[0] // 2 + 1,))
    est = _average(_shift_sums(y, step, k, parabolic), k_count, n1, parabolic)
    return _mirror(est, y.shape[0])


def variable_k_combine(y, k_profile, step, n1, parabolic):
    """Per-bin taper-count combine of shifted-transform differences.

    ``k_profile[i]`` tapers are averaged at bin i with uniform or
    parabolic weights summing to one; the result carries the
    1/(2*(N+1)) scaling with ``n1 = N + 1``. y is Hermitian, so
    |d_j(m-i)| = |d_j(i)| bitwise: an even profile (every one the
    adaptive estimator makes) is summed on bins 0..m/2 and mirrored once,
    any other on all m bins.
    """
    k = np.ascontiguousarray(k_profile, dtype=np.int64)
    m = k.shape[0]
    even = np.array_equal(k[1:], k[:0:-1])  # bins 0 and m/2 are their own mirrors
    k = k[: m // 2 + 1] if even else k
    est = _average(_shift_sums(y, step, k, parabolic), k, n1, parabolic)
    return _mirror(est, m) if even else est


def ar_recurse(innovations, coeffs):
    """Autoregressive recursion x[i] = e[i] + sum_p a_p x[i-1-p]."""
    # on Python floats: the same IEEE operations in the same order as on
    # numpy scalars, at half the cost per sample
    e = innovations.tolist()
    a = coeffs.tolist()
    x = []
    for i, acc in enumerate(e):
        for q in range(min(len(a), i)):
            acc += a[q] * x[i - 1 - q]
        x.append(acc)
    return np.array(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# smoothing: one numpy path for fixed and per-bin halfwidths
# ---------------------------------------------------------------------------

def window_average(values, half_bins, scale):
    """Circular weighted average over a window of its own width at each bin.

    ``out[i] = sum_j w_ij v[(i + j) % m] / sum_j w_ij`` for
    ``|j| <= h_i = half_bins[i]``, with the one weight rule
    ``w_ij = 1 - (j / s_i)^2``, ``s_i`` from ``scale`` (scalar or per bin),
    at bins i < len(half_bins) of the m float64 ``values`` (0..m/2 of an
    even estimate, which the caller mirrors). The box kernel is
    ``s_i = inf``: its second-moment term and its norm's correction are
    then exactly 0, so it is the plain window mean.

    Window sums of v, c*v and c^2*v come from cumulative sums along short
    rows about each row's centre, never about a global origin, whose
    cancellation would lose digits. Bins with h in [2^k, 2^(k+1)) use rows
    of 4 * 2^k bins: a window lies in at most two rows, and moments shift
    by less than about 3h. The offsets c and the shift, and the scale they
    are divided by, are counted in units of the row's size: a power of two,
    so every bit is the same as in bins (for normal values), and with
    offsets below 3/2 the moments stay within a few times v's own window
    sums, so they overflow only near where those do. Only rows that some
    window reaches are summed: O(m) work for a smooth halfwidth profile,
    O(m log m) at worst.
    """
    count = half_bins.shape[0]
    if half_bins.min() < 1:
        raise ValueError("smoothing halfwidth must cover at least one grid bin")
    scale = np.broadcast_to(np.asarray(scale, dtype=np.float64), (count,))
    octave = np.frexp(half_bins)[1] - 1
    out = np.empty(count)
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
        # offset of each row's centre from the window's bin, in row sizes
        start = np.stack([first + lo, first + size + 1])
        stop = np.stack([first + hi, start[1] + lo + width - hi])
        shift = (size // 2 - h - lo + np.array([[0], [size]])) / size
        seg = values.take(rows[:, None] * size + np.arange(size) - size, mode="wrap")
        col = np.arange(size) / size - 0.5
        acc = np.zeros((rows.size, size + 1))
        flat, sums = acc.ravel(), []
        for p in range(3):
            np.multiply(seg, col**p, out=acc[:, 1:])
            np.cumsum(acc[:, 1:], axis=1, out=acc[:, 1:])
            sums.append(flat[stop] - flat[start])
        s0 = sums[0].sum(axis=0)
        s2 = (sums[2] + shift * (2.0 * sums[1] + shift * sums[0])).sum(axis=0)
        s = scale[bins]
        u = s / size
        norm = width - h * (h + 1.0) * width / (3.0 * s * s)
        out[bins] = (s0 - s2 / (u * u)) / norm
    return out


def smooth_circular(values, scale, parabolic, count=None):
    """Smooth bins 0..count-1 (every bin by default) with one halfwidth:
    the parabolic kernel stretched over ``scale`` bins, or with a false
    ``parabolic`` the box kernel.

    ``scale`` need not be whole; the window covers ``floor(scale)`` bins
    on each side.
    """
    count = values.shape[0] if count is None else count
    half = np.full(count, np.floor(scale), dtype=np.int64)
    return window_average(values, half, scale if parabolic else np.inf)


def smooth_variable(values, half_bins, parabolic):
    """Smooth bins i < len(half_bins) with ``half_bins[i]`` whole bins on
    each side, with the parabolic kernel or, with a false ``parabolic``,
    the box kernel."""
    half_bins = np.ascontiguousarray(half_bins, dtype=np.int64)
    return window_average(values, half_bins, half_bins if parabolic else np.inf)


# ---------------------------------------------------------------------------
# the chirp-z transform of a real sequence
# ---------------------------------------------------------------------------

def _smooth_length(size):
    """Smallest 5-smooth integer (2^a 3^b 5^c) that is >= ``size``."""
    best = 1 << (size - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < size:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


@functools.lru_cache(maxsize=1)
def _chirp_plan(n, m):
    """Chirp w and transformed conjugate chirp for :func:`_half_transform`.

    w_s = exp(-i*pi*s^2/m), with s^2 reduced mod 2m exactly in int64. The
    kernel conj(w_d), d = -n..m//2, lies circularly in one buffer of
    the smallest 5-smooth length >= n + m//2 + 1, at index d + 1 so that
    sample t = 1 can sit at index 0, and is transformed in place. Both
    arrays are read-only; together they hold
    16 * (max(n + 1, m//2 + 1) + length) bytes.
    """
    half = m // 2 + 1
    length = _smooth_length(n + half)
    s = np.arange(max(n + 1, half), dtype=np.int64)
    w = np.exp((-1j * np.pi / m) * ((s * s) % (2 * m)))
    lag = np.arange(-n, half)
    kernel = np.zeros(length, dtype=np.complex128)
    kernel[lag + 1] = w[np.abs(lag)].conj()  # negative indices wrap round
    np.fft.fft(kernel, out=kernel)
    w.flags.writeable = False
    kernel.flags.writeable = False
    return w, kernel


def _half_transform(a, m):
    """y[..., k] = sum_t a[..., t] e^(-i*2*pi*t*k/m), t = 1..n, on the full grid of m bins.

    A chirp-z (Bluestein) transform of a real a over the last axis: with
    t*k = (t^2 + k^2 - (k - t)^2)/2 the sum is w_k times the linear
    convolution of a_t w_t with conj(w), done by one forward and one
    inverse FFT at a 5-smooth length L, whatever the factors of m, for
    the bins k = 0..m//2 alone. Each row works in one zeroed buffer of
    max(L, m) entries: a_t w_t is written into it, both FFTs and both
    chirp products run in place, y(0) and y(1/2) are made real and bins
    m//2 + 1..m - 1 are written as the conjugates y(-f) = conj y(f) in
    the same buffer, which is returned, or a copy of its first m if L > m.
    """
    n = a.shape[-1]
    w, kernel_hat = _chirp_plan(n, m)
    length, half = kernel_hat.shape[0], m // 2 + 1
    buf = np.zeros(a.shape[:-1] + (max(length, m),), dtype=np.complex128)
    z = buf[..., :length]
    np.multiply(a, w[1 : n + 1], out=buf[..., :n])
    np.fft.fft(z, out=z)
    z *= kernel_hat
    np.fft.ifft(z, out=z)
    buf[..., :half] *= w[:half]
    buf.imag[..., 0] = 0.0
    if m % 2 == 0:
        buf.imag[..., m // 2] = 0.0
    # source bins m - half..1 lie below destination bins half..m - 1, so
    # numpy writes the conjugates without a temporary copy
    np.conjugate(buf[..., m - half : 0 : -1], out=buf[..., half:m])
    return buf[..., :m].copy() if length > m else buf


def _mirror(half, m):
    """Full circular grid from bins 0..m//2 of an even real sequence."""
    return np.concatenate([half, half[..., m - half.shape[-1] : 0 : -1]], axis=-1)
