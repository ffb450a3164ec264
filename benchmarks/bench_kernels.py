"""Time the hot kernels against their references.

Run as ``python benchmarks/bench_kernels.py``. The shift combines and the
AR recursion are timed on the numba build against their pure-numpy
fallbacks (numba rows show only the numpy time when numba does not
import; ``MTSINE_DISABLE_NUMBA=1`` forces that). The smoother has one
numpy path and is timed against a direct sum of the same windows, one
offset at a time, which costs O(m * max halfwidth).
"""

import time

import numpy as np

from mtsine import _kernels

N = 2048
M = 2 * (N + 1) * 2  # the default estimation grid for N samples
REPEAT = 20


def best_of(fn, *args, repeat=REPEAT):
    out = fn(*args)  # warm-up (JIT compile on the numba path)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


def direct_smooth(values, half_bins, scale, kernel_id):
    """Window sums term by term: the reference the smoother must match."""
    acc = np.zeros_like(values)
    norm = np.zeros_like(values)
    top = int(half_bins.max())
    for j in range(-top, top + 1):
        w = (abs(j) <= half_bins) * (1.0 if kernel_id == 0 else 1.0 - (j / scale) ** 2)
        acc += w * np.roll(values, -j)
        norm += w
    return acc / norm


def main():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(N)
    y = np.fft.fft(x, M) * np.exp(-2j * np.pi * np.arange(M) / M)
    step = M // (2 * (N + 1))

    weights = np.full(64, 1.0 / (64 * 2.0 * (N + 1)))
    k_profile = rng.integers(8, 256, size=M)
    values = rng.standard_normal(M)
    half_bins = rng.integers(16, 400, size=M)
    pilot = np.full(M, int(0.05 * M))  # the pilot smoother's halfwidth
    innovations = rng.standard_normal(200_000)
    coeffs = np.array([0.605673, -0.9604])

    numba_cases = [
        ("combine_shifts (K=64)",
         (_kernels.combine_shifts, y, weights, step),
         (_kernels.combine_shifts_np, y, weights, step)),
        ("variable_k_combine (uniform)",
         (_kernels.variable_k_combine, y, k_profile, step, N + 1.0, False),
         (_kernels.variable_k_combine_np, y, k_profile.astype(np.int64), step,
          N + 1.0, False)),
        ("variable_k_combine (parabolic)",
         (_kernels.variable_k_combine, y, k_profile, step, N + 1.0, True),
         (_kernels.variable_k_combine_np, y, k_profile.astype(np.int64), step,
          N + 1.0, True)),
        ("ar_recurse (200k samples)",
         (_kernels.ar_recurse, innovations, coeffs),
         (_kernels.ar_recurse_np, innovations, coeffs)),
    ]
    smooth_cases = [
        ("smooth_variable (box, h 16-399)",
         (_kernels.smooth_variable, values, half_bins, 0),
         (direct_smooth, values, half_bins, half_bins, 0)),
        ("smooth_variable (parabolic)",
         (_kernels.smooth_variable, values, half_bins, 1),
         (direct_smooth, values, half_bins, half_bins, 1)),
        ("smooth_circular (parabolic, w=0.05)",
         (_kernels.smooth_circular, values, 0.05 * M, 1),
         (direct_smooth, values, pilot, 0.05 * M, 1)),
    ]

    print(f"numba enabled: {_kernels.NUMBA_ENABLED}   "
          f"(grid m={M}, n={N}, best of {REPEAT})")
    print(f"{'kernel':36s} {'numpy':>10s} {'numba':>10s} {'speedup':>8s} {'agree':>10s}")
    for name, fast_call, np_call in numba_cases:
        t_np, out_np = best_of(np_call[0], *np_call[1:])
        if _kernels.NUMBA_ENABLED:
            t_nb, out_nb = best_of(fast_call[0], *fast_call[1:])
            dev = float(np.max(np.abs(out_nb - out_np)))
            scale = float(np.max(np.abs(out_np))) or 1.0
            print(f"{name:36s} {t_np*1e3:9.2f}ms {t_nb*1e3:9.2f}ms "
                  f"{t_np/t_nb:7.1f}x {dev/scale:9.1e}")
        else:
            print(f"{name:36s} {t_np*1e3:9.2f}ms {'-':>10s} {'-':>8s} {'-':>10s}")
    print(f"\n{'smoother':36s} {'direct':>10s} {'smoother':>10s} {'speedup':>8s} "
          f"{'agree':>10s}")
    for name, call, ref_call in smooth_cases:
        t_ref, out_ref = best_of(ref_call[0], *ref_call[1:], repeat=3)
        t, out = best_of(call[0], *call[1:])
        dev = float(np.max(np.abs(out - out_ref))) / float(np.max(np.abs(values)))
        print(f"{name:36s} {t_ref*1e3:9.2f}ms {t*1e3:9.2f}ms {t_ref/t:7.1f}x {dev:9.1e}")


if __name__ == "__main__":
    main()
