"""Acceptance suite: one test per criterion, each printing a status line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from mtsine import (
    AdaptiveConfig,
    EPANECHNIKOV,
    ProcessSpec,
    bias_table,
    concentration_table,
    continuous_mb_window,
    default_grid,
    generate,
    local_bias_matrix,
    log_bias_b,
    log_multitaper,
    make_weights,
    minimum_bias_family,
    multitaper_estimate,
    periodogram_quadratic,
    quadratic_to_multitaper,
    sinusoidal_estimate_fast,
    sinusoidal_family,
    sinusoidal_taper,
    sinusoidal_window_closed,
    smooth_quadratic,
    spectrum_at,
    table4_experiment,
    true_log_curvature,
    two_stage_log_estimate,
)
from mtsine.cli import main as cli_main
from mtsine.quadratic import first_eigenvector_alignment

# reference values for n = 50 (tables reproduced by criteria 1-3)
TABLE1 = {20: (0.24750, 0.4602), 50: (0.24844, 0.4760), 200: (0.24852, 0.4829)}
TABLE2 = {
    "minimum_bias": [1.0095, 5.0475, 14.1328, 30.2846, 55.5217, 91.8634,
                     141.3284, 205.9362, 287.7056, 388.6562],
    "sinusoidal": [1.0116, 5.0580, 14.1622, 30.3475, 55.6366, 92.0528,
                   141.6185, 206.3570, 288.2899, 389.4409],
    "slepian_w=0.04": [1.3439, 5.7724, 18.0651, 58.9520, 154.4818, 305.4382,
                       496.7959, 721.1743, 976.5088, 1262.4251],
    "slepian_w=0.08": [2.6316, 10.5484, 23.8086, 42.5181, 66.9996, 99.1800,
                       150.0103, 251.8833, 437.5993, 702.1523],
    "slepian_w=0.16": [5.1039, 20.4670, 46.1953, 82.4018, 129.2087, 186.7507,
                       255.1797, 334.6717, 425.4379, 527.7433],
}
TABLE3 = {
    "minimum_bias": [0.9997, 0.9988, 0.9972, 0.9940, 0.9888, 0.9760,
                     0.9381, 0.6084, 0.1688, 0.0637],
    "sinusoidal": [0.9997, 0.9988, 0.9972, 0.9937, 0.9887, 0.9753,
                   0.9417, 0.6247, 0.1780, 0.0624],
    "slepian": [1.0, 0.9999999, 0.9999989, 0.99997, 0.9995, 0.9928,
                0.9380, 0.7002, 0.2981, 0.0628],
}


def report(num, ok, elapsed, limit, detail):
    status = "PASS" if ok else "FAIL"
    budget = f"{elapsed:.1f}s" + (f" < {limit}s" if limit else "")
    print(f"\ncriterion {num:2d}: {status} [{budget}] {detail}")


def test_criterion_01_table1_reproduction(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "t1.csv"
    code = cli_main(["tables", "--which", "1", "--sizes", "20,50,200",
                     "--out", str(out)])
    rows = out.read_text().strip().splitlines()[1:]
    worst_l2 = worst_linf = 0.0
    for row in rows:
        n_str, l2, linf = row.split(",")
        ref_l2, ref_linf = TABLE1[int(n_str)]
        worst_l2 = max(worst_l2, abs(float(l2) - ref_l2))
        worst_linf = max(worst_linf, abs(float(linf) - ref_linf))
    elapsed = time.perf_counter() - t0
    ok = code == 0 and worst_l2 <= 0.002 and worst_linf <= 0.005 and elapsed < 10
    report(1, ok, elapsed, 10,
           f"table 1 dev l2={worst_l2:.2e} (<=2e-3), linf={worst_linf:.2e} (<=5e-3)")
    assert ok


def test_criterion_02_table2_reproduction():
    t0 = time.perf_counter()
    table = bias_table(50, 10, slepian_ws=(0.04, 0.08, 0.16))
    devs = {}
    for label, ref in TABLE2.items():
        got = table.column(label)
        devs[label] = float(np.max(np.abs(got - ref) / np.abs(np.array(ref))))
    elapsed = time.perf_counter() - t0
    ok = (
        devs["minimum_bias"] <= 1e-3
        and devs["sinusoidal"] <= 1e-3
        and all(devs[f"slepian_w={w}"] <= 1e-2 for w in ("0.04", "0.08", "0.16"))
        and elapsed < 10
    )
    report(2, ok, elapsed, 10,
           "table 2 rel dev " + ", ".join(f"{k}={v:.2e}" for k, v in devs.items()))
    assert ok


def test_criterion_03_table3_reproduction():
    t0 = time.perf_counter()
    table = concentration_table(50, 0.08, 10)
    devs = {
        label: float(np.max(np.abs(table.column(label) - ref)))
        for label, ref in TABLE3.items()
    }
    elapsed = time.perf_counter() - t0
    ok = (
        devs["minimum_bias"] <= 1e-3
        and devs["sinusoidal"] <= 1e-3
        and devs["slepian"] <= 2e-3
        and elapsed < 5
    )
    report(3, ok, elapsed, 5,
           "table 3 abs dev " + ", ".join(f"{k}={v:.2e}" for k, v in devs.items()))
    assert ok


def test_criterion_04_smoothed_periodogram_exactness():
    t0 = time.perf_counter()
    worst_entry = 0.0
    worst_align = 1.0
    for n in (8, 50, 200):
        smoothed = smooth_quadratic(periodogram_quadratic(n), EPANECHNIKOV, 0.5)
        a = local_bias_matrix(n).to_dense()
        closed = (1.5 * np.eye(n) - 6.0 * a) / n
        worst_entry = max(worst_entry, float(np.max(np.abs(smoothed.matrix - closed))))
        _, fam = quadratic_to_multitaper(smoothed, rank_tolerance=1e-13)
        k = fam.k_count
        mb = minimum_bias_family(n, k).taper_matrix
        overlaps = np.abs(np.sum(fam.taper_matrix * mb, axis=1))
        worst_align = min(worst_align, float(np.min(overlaps)))
    elapsed = time.perf_counter() - t0
    ok = worst_entry <= 1e-12 and worst_align > 1.0 - 1e-8 and elapsed < 20
    report(4, ok, elapsed, 20,
           f"matrix dev {worst_entry:.2e} (<=1e-12), min overlap {worst_align:.12f}")
    assert ok


def test_criterion_05_fast_path_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in (16, 64, 128):
        grid = default_grid(n)
        for k in (1, 4, n // 2):
            fam = sinusoidal_family(n, k)
            w = make_weights("uniform", k)
            for _ in range(20):
                x = rng.standard_normal(n)
                fast = sinusoidal_estimate_fast(x, k, w, grid).values
                slow = multitaper_estimate(x, fam, w, grid).values
                rel = np.abs(fast - slow) / np.maximum(slow, 1e-300)
                worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10
    report(5, ok, elapsed, 10, f"max relative deviation {worst:.2e} (<1e-10)")
    assert ok


def test_criterion_06_closed_form_windows():
    t0 = time.perf_counter()
    n = 100
    t = np.arange(1, n + 1)
    freqs = np.linspace(-0.5, 0.5, 1024, endpoint=False)
    worst = 0.0
    for k in (1, 5, 50):
        v = sinusoidal_taper(n, k).values
        direct = np.array(
            [np.sum(v * np.exp(-2j * np.pi * t * f)) for f in freqs]
        )
        closed = sinusoidal_window_closed(n, k, freqs)
        worst = max(worst, float(np.max(np.abs(direct - closed))))
    quad_dev = 0.0
    for k in (1, 2, 3):
        total = 0.0
        for lo, hi, npts in ((0.0, 50.0, 2_000_001), (50.0, 1e4, 4_000_001)):
            f = np.linspace(lo, hi, npts)
            y = f * f * np.abs(continuous_mb_window(k, f)) ** 2
            h = (hi - lo) / (npts - 1)
            total += h / 3.0 * (
                y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()
            )
        quad_dev = max(quad_dev, abs(2.0 * total - k * k / 4.0))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and quad_dev <= 1e-4
    report(6, ok, elapsed, None,
           f"window dev {worst:.2e} (<1e-10), bias-integral dev {quad_dev:.2e} (<=1e-4)")
    assert ok


def trigamma(x, terms=1_000_000):
    j = np.arange(terms)
    tail = 1.0 / (x + terms) + 0.5 / (x + terms) ** 2
    return float(np.sum(1.0 / (x + j) ** 2) + tail)


def test_criterion_07_white_noise_statistics():
    t0 = time.perf_counter()
    n, k, reps, sigma2 = 256, 16, 2000, 1.0
    grid = default_grid(n)
    interior = (np.abs(grid.frequencies) > 0.05) & (np.abs(grid.frequencies) < 0.45)
    acc = np.zeros(grid.m)
    acc2 = np.zeros(grid.m)
    lacc = np.zeros(grid.m)
    lacc2 = np.zeros(grid.m)
    b16 = log_bias_b(k)
    for seed in range(reps):
        x = generate(ProcessSpec.white(sigma2, seed=seed), n)
        s = sinusoidal_estimate_fast(x, k, grid=grid).values
        acc += s
        acc2 += s * s
        th = np.log(s) - b16  # the empirically selected full correction
        lacc += th
        lacc2 += th * th
    mean_s = float(acc[interior].mean() / reps)
    var_s = float((acc2 / reps - (acc / reps) ** 2)[interior].mean())
    mean_t = float(lacc[interior].mean() / reps)
    var_t = float((lacc2 / reps - (lacc / reps) ** 2)[interior].mean())
    psi1 = trigamma(k)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(mean_s - sigma2) <= 0.02 * sigma2
        and abs(var_s - sigma2**2 / k) <= 0.1 * sigma2**2 / k
        and abs(mean_t) <= 0.02
        and abs(var_t - psi1) <= 0.15 * psi1
        and elapsed < 120
    )
    report(7, ok, elapsed, 120,
           f"mean={mean_s:.4f} (1 +- 2%), var={var_s:.5f} ({1/k:.5f} +- 10%), "
           f"log mean={mean_t:.4f} (0 +- 0.02), log var={var_t:.5f} ({psi1:.5f} +- 15%)")
    assert ok


def test_criterion_08_minimum_bias_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    n, k = 50, 5
    a = local_bias_matrix(n).to_dense()
    lam = minimum_bias_family(n, k).local_biases
    mu = make_weights("parabolic", k).weights
    bound = float(mu @ lam)
    margins = []
    for _ in range(100):
        q, _ = np.linalg.qr(rng.standard_normal((n, k)))
        u = q.T
        margins.append(float(mu @ np.einsum("ij,jk,ik->i", u, a, u)) - bound)
    worst = min(margins)
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-12 and elapsed < 5
    report(8, ok, elapsed, 5, f"worst margin over 100 trials {worst:.3e} (>=0)")
    assert ok


def test_criterion_09_adaptive_benchmark():
    t0 = time.perf_counter()
    n, reps = 2048, 200
    base = ProcessSpec.ar2_resonance(0.98, 0.2)
    grid = default_grid(n)
    theta_true = np.log(spectrum_at(base, grid.frequencies))
    curv = np.abs(true_log_curvature(base, grid))
    flattest = np.argsort(curv)[: grid.m // 10]
    peak = int(np.argmin(np.abs(grid.frequencies - 0.2)))
    config = AdaptiveConfig.default_for(n)
    k_peak = []
    k_flat = []
    ise = {"adaptive": [], "k_min": [], "k_max": []}
    for seed in range(reps):
        spec = ProcessSpec.ar2_resonance(0.98, 0.2, seed=seed)
        x = generate(spec, n)
        est = two_stage_log_estimate(x, config, grid)
        k_peak.append(est.k_used[peak])
        k_flat.append(float(np.mean(est.k_used[flattest])))
        ise["adaptive"].append(float(np.mean((est.values - theta_true) ** 2)))
        for name, k in (("k_min", config.k_min), ("k_max", config.k_max)):
            fixed = log_multitaper(x, k, grid=grid).values
            ise[name].append(float(np.mean((fixed - theta_true) ** 2)))
    mean_peak = float(np.mean(k_peak))
    mean_flat = float(np.mean(k_flat))
    means = {name: float(np.mean(vals)) for name, vals in ise.items()}
    elapsed = time.perf_counter() - t0
    ok = (
        mean_peak < mean_flat
        and means["adaptive"] <= means["k_min"]
        and means["adaptive"] <= means["k_max"]
        and elapsed < 300
    )
    report(9, ok, elapsed, 300,
           f"K(peak)={mean_peak:.1f} < K(flat)={mean_flat:.1f}; "
           f"ISE adaptive={means['adaptive']:.4f} <= k_min={means['k_min']:.4f}, "
           f"k_max={means['k_max']:.4f}")
    assert ok


def test_criterion_10_table4_qualitative():
    t0 = time.perf_counter()
    table = table4_experiment(n=200, taper_fraction=0.2, w=0.01)
    weights = table.column("weight")
    ratios = table.column("mb_bias_ratio")
    align = first_eigenvector_alignment(n=200, taper_fraction=0.2, w=0.01)
    top4 = float(weights[:4].sum())
    w6 = float(weights[5])
    clauses = {
        "top4>=0.95": top4 >= 0.95,
        "w6<=0.02": w6 <= 0.02,
        "align>=0.98": align >= 0.98,
        "ratios>=1": bool(np.all(ratios >= 1.0)),
    }
    elapsed = time.perf_counter() - t0
    ok = all(clauses.values()) and elapsed < 30
    report(10, ok, elapsed, 30,
           f"top4={top4:.4f}, w6={w6:.4f}, align={align:.4f}, "
           f"min ratio={ratios.min():.3f}; clauses: " +
           ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in clauses.items()))
    # Table 4 smooths with the parabolic kernel (the table4_experiment
    # default). The box kernel would give Slepian eigenvectors instead:
    # the box-smoothed periodogram is the concentration matrix over
    # 2*w*n, whose leading eigenvector overlaps the first sinusoidal
    # taper only ~0.968 here, so no setting could meet the alignment clause.
    assert ok
