import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mtsine import (
    BOX,
    EPANECHNIKOV,
    AdaptiveConfig,
    FrequencyGrid,
    ProcessSpec,
    curvature_pilot,
    default_grid,
    digamma,
    generate,
    kernel_smooth,
    log_bias_b,
    log_multitaper,
    make_weights,
    sinusoidal_estimate_fast,
    spectrum_at,
    two_stage_log_estimate,
    w_opt,
)
from mtsine import adaptive

EULER_GAMMA = 0.5772156649015329
rng = np.random.default_rng(37)


class TestDigamma:
    def test_at_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-12)

    def test_at_two(self):
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-12)

    def test_at_ten(self):
        # psi(10) = H_9 - gamma, harmonic sum as the independent oracle
        h9 = sum(1.0 / j for j in range(1, 10))
        assert digamma(10.0) == pytest.approx(h9 - EULER_GAMMA, abs=1e-12)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 7.3])
    def test_recurrence(self, x):
        assert digamma(x + 1.0) - digamma(x) == pytest.approx(1.0 / x, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(-3.0)
        with pytest.raises(ValueError):
            digamma(np.array([2.0, 0.0, 5.0]))

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 40),
                      elements=st.floats(1e-6, 1e6) | st.integers(1, 5000)))
    def test_array_equals_scalar_calls(self, xs):
        out = digamma(xs)
        assert out.shape == xs.shape
        assert np.array_equal(out, [digamma(v) for v in xs.tolist()])

    def test_scalar_gives_float(self):
        assert type(digamma(3)) is float and type(digamma(np.float64(3.5))) is float


class TestLogBias:
    def test_single_taper(self):
        assert log_bias_b(1) == pytest.approx(-EULER_GAMMA, abs=1e-12)

    def test_two_tapers(self):
        assert log_bias_b(2) == pytest.approx(1.0 - EULER_GAMMA - math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("k", [10, 20, 50, 200])
    def test_asymptote(self, k):
        assert abs(log_bias_b(k) + 1.0 / (2.0 * k)) < 1.0 / k**2

    def test_negative_and_increasing(self):
        vals = [log_bias_b(k) for k in range(1, 40)]
        assert all(v < 0 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestLogMultitaper:
    def test_deterministic_series_finite(self):
        est = log_multitaper(np.ones(256), 8)
        bad = ~np.isfinite(est.values)
        assert bad.sum() <= 1  # only the degenerate zero-frequency bin may drop out

    def test_white_noise_centering_selects_full_correction(self):
        # empirical resolution of the correction-variant question: only
        # subtracting the whole bias constant centers the estimate
        n, k, reps = 256, 16, 400
        grid = default_grid(n)
        interior = (np.abs(grid.frequencies) > 0.05) & (np.abs(grid.frequencies) < 0.45)
        total = np.zeros(grid.m)
        for seed in range(reps):
            x = generate(ProcessSpec.white(1.0, seed=seed), n)
            total += np.log(sinusoidal_estimate_fast(x, k, grid=grid).values)
        raw_mean = total[interior].mean() / reps
        b = log_bias_b(k)
        assert abs(raw_mean - b) < 0.02  # raw log bias is B_K itself
        assert abs(raw_mean - b / k) > 0.02  # the scaled variant cannot center


class TestKernelSmooth:
    def test_mass_preservation(self):
        grid = FrequencyGrid(256)
        for kernel in (BOX, EPANECHNIKOV):
            for w in (0.01, 0.1, 0.3):
                out = kernel_smooth(np.full(grid.m, 2.5), kernel, w, grid)
                assert np.max(np.abs(out - 2.5)) < 1e-12

    def test_box_is_moving_average(self):
        grid = FrequencyGrid(64)
        v = rng.standard_normal(grid.m)
        out = kernel_smooth(v, BOX, 3.4 / grid.m, grid)  # covers 7 bins
        ref = np.array([np.roll(v, s) for s in range(-3, 4)]).mean(axis=0)
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_parabolic_attenuates_cosine(self):
        m, cycles, w = 32768, 2, 0.25
        grid = FrequencyGrid(m)
        v = np.cos(2.0 * np.pi * cycles * np.arange(m) / m)
        out = kernel_smooth(v, EPANECHNIKOV, w, grid)
        a = 2.0 * np.pi * w * cycles
        gain = 3.0 * (np.sin(a) - a * np.cos(a)) / a**3
        assert np.max(np.abs(out - gain * v)) < 1e-6

    def test_rejects_subgrid_width(self):
        grid = FrequencyGrid(64)
        with pytest.raises(ValueError):
            kernel_smooth(np.zeros(64), BOX, 0.5 / 64, grid)


class TestKernelConstants:
    @pytest.mark.parametrize("kernel", [BOX, EPANECHNIKOV])
    def test_frozen_constants_match_quadrature(self, kernel):
        u = np.linspace(-1.0, 1.0, 200001)
        prof = kernel.profile(u)
        mass = np.trapezoid(prof, u)
        half_second_moment = 0.5 * np.trapezoid(u * u * prof, u)
        squared = np.trapezoid(prof * prof, u)
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert kernel.bias_const == pytest.approx(half_second_moment, abs=1e-8)
        assert kernel.var_const == pytest.approx(squared, abs=1e-8)


class TestWOpt:
    def test_flat_curvature_clamps_high(self):
        assert w_opt(0.0, 1024, 16) == pytest.approx(0.25)

    def test_scaling_law(self):
        # negligible taper term: doubling curvature scales by 2^(-2/5)
        lo = w_opt(10.0, 100_000, 4, EPANECHNIKOV, grid_m=1 << 20)
        hi = w_opt(20.0, 100_000, 4, EPANECHNIKOV, grid_m=1 << 20)
        assert hi / lo == pytest.approx(2.0 ** (-0.4), rel=1e-3)

    def test_exact_minimizer(self):
        # dense scan oracle over the asymptotic error expression
        n, k, t2 = 2048, 32, 300.0
        kern = EPANECHNIKOV
        got = w_opt(t2, n, k, kern, grid_m=8196)
        w = np.linspace(2.0 / 8196, 0.25, 200001)
        err = (
            t2**2 * (kern.bias_const * w**2 + k**2 / (24.0 * n * n)) ** 2
            + kern.var_const * (1.0 + 0.5 / k) ** 2 / (n * w)
        )
        assert abs(got - w[np.argmin(err)]) < 2e-5

    def test_monotone_in_curvature(self):
        t2 = np.linspace(0.0, 5000.0, 200)
        out = w_opt(t2, 4096, 16, grid_m=1 << 18)
        assert np.all(np.diff(out) <= 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.0, 1e12),
        st.integers(2, 1 << 16),
        st.integers(1, 64),
        st.sampled_from([BOX, EPANECHNIKOV]),
    )
    @example(7.8e-157, 2, 1, BOX)  # d / (4*t2^2*b^2) overflows
    def test_root_of_stationarity_or_clamped(self, t2, n, k, kern):
        # g is the error's derivative up to the positive factor 1/w^2
        b, c = kern.bias_const, k**2 / (24.0 * n * n)
        d = kern.var_const * (1.0 + 0.5 / k) ** 2 / n

        def g(w):
            return 4.0 * t2 * t2 * b * w**3 * (b * w * w + c) - d

        lo = 2.0 / default_grid(n).m
        w = w_opt(t2, n, k, kern)
        assert lo <= w <= 0.25
        if w == 0.25:
            assert g(w) <= 0
        elif w == lo:
            assert g(w) >= 0
        else:
            assert abs(g(w)) <= 1e-12 * d


class TestCurvaturePilot:
    def test_white_noise_centered(self):
        n, reps = 512, 60
        grid = default_grid(n)
        cfg = AdaptiveConfig(pilot_k=28, k_min=4, k_max=64)
        acc = np.zeros(grid.m)
        acc2 = np.zeros(grid.m)
        for seed in range(reps):
            x = generate(ProcessSpec.white(1.0, seed=1000 + seed), n)
            prof = curvature_pilot(x, cfg, grid).values
            acc += prof
            acc2 += prof * prof
        mean = acc / reps
        se = np.sqrt((acc2 / reps - mean**2) / reps)
        interior = np.abs(grid.frequencies) > 0.05
        assert np.mean(np.abs(mean[interior]) <= 3.0 * se[interior]) > 0.95

    def test_recovers_cosine_log_spectrum_shape(self):
        # spectral synthesis of S(f) = exp(cos 2 pi f); curvature is
        # -(2 pi)^2 cos(2 pi f), negative at f = 0. One draw has sd about
        # 60 around a mean near -33, so the sign is claimed for the mean
        # over many draws, with their own generator
        n, reps = 2048, 100
        gen = np.random.default_rng(2048)
        f = np.fft.rfftfreq(n)
        amp = np.sqrt(np.exp(np.cos(2.0 * np.pi * f)) / 2.0)
        cfg = AdaptiveConfig(pilot_k=59, k_min=4, k_max=512, curvature_halfwidth=0.08)
        grid = default_grid(n)
        at_zero = []
        for _ in range(reps):
            g = gen.standard_normal(f.size) + 1j * gen.standard_normal(f.size)
            x = np.fft.irfft(amp * g * n**0.5, n)
            at_zero.append(curvature_pilot(x, cfg, grid).values[0])
        mean, se = np.mean(at_zero), np.std(at_zero, ddof=1) / math.sqrt(reps)
        assert mean + 3.0 * se < 0

    def test_degenerate_input_guarded(self):
        x = np.ones(256) + 1e-9 * rng.standard_normal(256)
        cfg = AdaptiveConfig(pilot_k=16, k_min=4, k_max=32)
        prof = curvature_pilot(x, cfg)
        assert np.all(np.isfinite(prof.values))

    @staticmethod
    def underflowing(scale):
        """The resonance at n = 256 scaled down until pilot bins underflow to
        zero power, -inf in the log: 165 of 1,028 at 1e-161, 830 at 1e-162."""
        return scale * generate(ProcessSpec.ar2_resonance(0.98, 0.2, seed=3), 256)

    def test_underflowed_pilot_bins_are_floored(self):
        x, cfg = self.underflowing(1e-161), AdaptiveConfig.default_for(256)
        floored = np.isneginf(log_multitaper(x, cfg.pilot_k).values).sum()
        assert 0 < floored < 1028 // 2
        assert np.all(np.isfinite(curvature_pilot(x, cfg).values))
        k = two_stage_log_estimate(x, cfg).k_used
        assert cfg.k_min <= k.min() and k.max() <= cfg.k_max

    def test_mostly_floored_pilot_smooths_to_finite_values(self):
        x, cfg = self.underflowing(1e-162), AdaptiveConfig.default_for(256, "variable_w")
        assert np.isneginf(log_multitaper(x, cfg.pilot_k).values).sum() > 1028 // 2
        assert np.all(np.isfinite(two_stage_log_estimate(x, cfg).values))

    def test_pilot_without_a_finite_bin_is_refused(self):
        with pytest.raises(ValueError, match="pilot estimate has no finite bins"):
            curvature_pilot(np.zeros(256), AdaptiveConfig.default_for(256))


class TestVariableK:
    def test_constant_profile_reduces_to_fast_path(self):
        n, k = 96, 7
        x = rng.standard_normal(n)
        grid = default_grid(n)
        est = sinusoidal_estimate_fast(x, np.full(grid.m, k), grid=grid)
        ref = sinusoidal_estimate_fast(x, k, grid=grid)
        assert np.max(np.abs(est.values - ref.values)) < 1e-12 * (1 + ref.values.max())

    @pytest.mark.parametrize("weights_kind", ["uniform", "parabolic"])
    def test_alternating_profile_matches_fixed_runs(self, weights_kind):
        from mtsine import make_weights

        n = 64
        x = rng.standard_normal(n)
        grid = default_grid(n)
        prof = np.where(np.arange(grid.m) % 2 == 0, 5, 7)
        est = sinusoidal_estimate_fast(x, prof, weights_kind, grid)
        for k in (5, 7):
            ref = sinusoidal_estimate_fast(x, k, make_weights(weights_kind, k), grid)
            sel = prof == k
            assert np.max(np.abs(est.values[sel] - ref.values[sel])) < 1e-12 * (
                1 + ref.values.max()
            )

    def test_single_taper_variance(self):
        # K = 1 everywhere: relative variance of the estimate is ~ 1
        n, reps = 128, 300
        grid = default_grid(n)
        prof = np.ones(grid.m, dtype=np.int64)
        interior = (np.abs(grid.frequencies) > 0.1) & (np.abs(grid.frequencies) < 0.4)
        acc = np.zeros(grid.m)
        acc2 = np.zeros(grid.m)
        for seed in range(reps):
            x = generate(ProcessSpec.white(1.0, seed=7000 + seed), n)
            v = sinusoidal_estimate_fast(x, prof, grid=grid).values
            acc += v
            acc2 += v * v
        mean = acc[interior].mean() / reps
        var = (acc2 / reps - (acc / reps) ** 2)[interior].mean()
        assert var / mean**2 == pytest.approx(1.0, rel=0.2)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            sinusoidal_estimate_fast(np.ones(16), np.ones(5, dtype=int))
        m = default_grid(16).m
        for bad in (0, 17):
            prof = np.full(m, 4)
            prof[3] = bad
            with pytest.raises(ValueError):
                sinusoidal_estimate_fast(np.ones(16), prof)
        with pytest.raises(ValueError):  # a per-bin K takes a weight kind only
            sinusoidal_estimate_fast(np.ones(16), np.full(m, 4), make_weights("uniform", 4))

    @pytest.mark.parametrize("weights_kind", ["uniform", "parabolic"])
    def test_overflow_raises_without_warning(self, weights_kind):
        # the suite turns warnings into errors, so a numpy overflow or
        # invalid-value warning would fail here before the estimate raises
        x = rng.standard_normal(64)
        x[5] = 1e300
        prof = np.full(default_grid(64).m, 4)
        with pytest.raises(FloatingPointError):
            sinusoidal_estimate_fast(x, prof, weights_kind)


series = hnp.arrays(
    np.float64, st.integers(2, 64), elements=st.floats(-1e6, 1e6, allow_subnormal=False)
)


@st.composite
def series_and_k(draw):
    x = draw(series)
    return x, draw(st.integers(1, x.shape[0]))


@st.composite
def series_and_profile(draw):
    """A series and a per-bin taper count over [1, n] holding both ends."""
    x = draw(series)
    n = x.shape[0]
    m = default_grid(n).m
    prof = draw(hnp.arrays(np.int64, m, elements=st.integers(1, n)))
    ends = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
    prof[ends] = [1, n]
    return x, prof


class TestVariableKProperties:
    @settings(max_examples=40, deadline=None)
    @given(series_and_k(), st.sampled_from(["uniform", "parabolic"]))
    def test_constant_profile_equals_fast_path(self, data, kind):
        x, k = data
        grid = default_grid(x.shape[0])
        est = sinusoidal_estimate_fast(x, np.full(grid.m, k), kind, grid)
        ref = sinusoidal_estimate_fast(x, k, make_weights(kind, k), grid)
        assert np.max(np.abs(est.values - ref.values)) < 1e-12 * (1 + ref.values.max())

    @settings(max_examples=40, deadline=None)
    @given(series_and_profile(), st.sampled_from(["uniform", "parabolic"]))
    def test_each_bin_equals_fast_path_at_its_k(self, data, kind):
        x, prof = data
        grid = default_grid(x.shape[0])
        est = sinusoidal_estimate_fast(x, prof, kind, grid)
        for k in np.unique(prof):
            ref = sinusoidal_estimate_fast(x, int(k), make_weights(kind, int(k)), grid)
            sel = prof == k
            assert np.max(np.abs(est.values[sel] - ref.values[sel])) < 1e-12 * (
                1 + ref.values.max()
            )


class TestPerBinLogProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 5000), min_size=1, max_size=50))
    def test_bias_array_equals_scalar_calls(self, ks):
        assert np.array_equal(log_bias_b(np.array(ks)), [log_bias_b(k) for k in ks])

    def test_bias_array_rejects_zero(self):
        with pytest.raises(ValueError):
            log_bias_b(np.array([3, 0, 2]))

    @settings(max_examples=40, deadline=None)
    @given(series_and_profile())
    def test_each_bin_equals_scalar_log_at_its_k(self, data):
        x, prof = data
        grid = default_grid(x.shape[0])
        est = log_multitaper(x, prof, grid)
        assert np.array_equal(est.k_used, prof) and est.scale == "log"
        for k in np.unique(prof):
            ref = log_multitaper(x, int(k), grid)
            sel = prof == k
            # compared as powers, with the tolerance of the linear-scale
            # test above: a power that underflows has no stable log
            got, want = np.exp(est.values[sel]), np.exp(ref.values)
            assert np.max(np.abs(got - want[sel])) < 1e-12 * (1 + want.max())


class TestKProfileMedian:
    @pytest.mark.parametrize("profile", ["random", "random_walk"])
    def test_blocked_median_matches_one_shot(self, profile):
        from mtsine.adaptive import _MEDIAN_BLOCK, _circular_median

        m, width = 4100, 513
        assert m * width > 2 * _MEDIAN_BLOCK  # at least three blocks, one partial
        if profile == "random":
            k = rng.integers(4, 200, size=m)
        else:
            k = 100 + np.cumsum(rng.integers(-3, 4, size=m))
        half = width // 2
        ext = np.concatenate([k[-half:], k, k[:half]])
        ref = np.median(np.lib.stride_tricks.sliding_window_view(ext, width), axis=1)
        assert np.array_equal(_circular_median(k, width), ref)


def sliding_median(values, width, count):
    """np.median over the circular windows of odd width centred at bins 0..count-1."""
    half = width // 2
    ext = values.take(np.arange(-half, count + half), mode="wrap")
    return np.median(np.lib.stride_tricks.sliding_window_view(ext, width), axis=1)


class TestCircularMedianProperties:
    """The K-profile median equals np.median over every circular window,
    whatever m, width, count, ties and element budget."""

    @settings(max_examples=200, deadline=None)
    @given(
        values=hnp.arrays(np.int64, st.integers(1, 40), elements=st.integers(0, 400)),
        ties=st.booleans(),
        floats=st.booleans(),
        half=st.integers(0, 60),  # widths 1 to 121, many wider than m
        share=st.floats(0.0, 1.0),  # count from 1 to m
        budget=st.sampled_from([None, 1, 50]),  # 1: one window per block
    )
    @example(values=np.arange(12), ties=True, floats=False, half=1, share=1.0, budget=None)
    @example(values=np.arange(12), ties=False, floats=False, half=30, share=1.0, budget=None)
    # count = 10 < m = 25, one window of 17 bins per block: the block loop runs 10 times
    @example(values=np.arange(25), ties=True, floats=True, half=8, share=0.4, budget=1)
    # a long core of distinct values: numpy sorts short rows whole, so only a
    # core this long catches a blocked median that partitions at one rank
    # instead of two
    @example(values=np.random.default_rng(600).permutation(600), ties=False, floats=False,
             half=250, share=1.0, budget=None)
    def test_equals_numpy_median(self, values, ties, floats, half, share, budget):
        v = values % 3 if ties else values
        v = v / 8.0 if floats else v
        m, width = v.shape[0], 2 * half + 1
        count = max(1, math.ceil(share * m))
        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(adaptive, "_MEDIAN_BLOCK", budget)
            got = adaptive._circular_median(v, width, count)
        assert np.array_equal(got, sliding_median(v, width, count))
        assert got.dtype == v.dtype


class TestKProfileMemory:
    @pytest.mark.parametrize("n", [2**13, 2**15])
    def test_peak_is_bounded_by_the_median_budget(self, n):
        """The K-profile median copies at most ``_MEDIAN_BLOCK`` window
        elements at a time, beside two arrays of m/2 + 1 (the circular
        extension and the integer profile).

        At the default config's widths, 493 at 2^13 and 1,025 at 2^15, all
        windows taken at once would copy 65 MB and 537 MB, against bounds
        of 8.9 and 10.5 MB, so the bound holds only while the blocks do.
        At 2^11 (width 237) every window fits in one block, and the bound
        could not tell blocks from none.
        """
        cfg = AdaptiveConfig.default_for(n)
        grid = default_grid(n)
        k_raw = np.random.default_rng(5).integers(cfg.k_min, cfg.k_max + 1, size=grid.m)
        tracemalloc.start()
        try:
            adaptive._smooth_k_profile(k_raw, cfg, grid, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 8 * (adaptive._MEDIAN_BLOCK + 4 * (grid.m // 2 + 1))
        assert peak <= bound, (peak, bound)


class TestEstimateMemory:
    @pytest.mark.parametrize("mode,n", [("variable_w", 2**13), ("variable_w", 2**15),
                                        ("variable_k", 2**15)])
    def test_warm_peak_per_grid_bin(self, mode, n):
        """A warm estimate's ``tracemalloc`` peak is at most 20 float64 per
        grid bin; it reads about 16.4 with the pilot smoothed on bins
        0..m/2, and 31.1 with it smoothed on all m bins.

        Warm means run once first, so the cached chirp plan is not counted.
        ``variable_k`` at 2^13 and 2^14 is left out: there the K-profile
        median's fixed block of ``_MEDIAN_BLOCK`` elements sets the peak,
        at 38 and 22 float64 per bin, whatever the pilot does.
        """
        x = generate(ProcessSpec.ar((1.3, -0.8), 1.0, 7), n)
        cfg, grid = AdaptiveConfig.default_for(n, mode), default_grid(n)
        two_stage_log_estimate(x, cfg, grid)
        tracemalloc.start()
        try:
            two_stage_log_estimate(x, cfg, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 8 * grid.m, peak / (8 * grid.m)


class TestTwoStage:
    def test_white_noise_hits_k_max(self):
        x = generate(ProcessSpec.white(1.0, seed=3), 1024)
        cfg = AdaptiveConfig(pilot_k=41, k_min=4, k_max=64)
        est = two_stage_log_estimate(x, cfg)
        assert np.all(est.k_used == 64)

    def test_peak_uses_fewer_tapers(self):
        spec = ProcessSpec.ar2_resonance(0.98, 0.2, seed=11)
        x = generate(spec, 2048)
        cfg = AdaptiveConfig(pilot_k=59, k_min=4, k_max=512)
        est = two_stage_log_estimate(x, cfg)
        grid = est.grid
        peak = np.argmin(np.abs(grid.frequencies - 0.2))
        flat = np.abs(np.abs(grid.frequencies) - 0.45) < 0.03
        assert est.k_used[peak] < np.mean(est.k_used[flat])

    def test_variable_w_tracks_curvature(self):
        spec = ProcessSpec.ar2_resonance(0.98, 0.2, seed=12)
        x = generate(spec, 2048)
        cfg = AdaptiveConfig(pilot_k=59, k_min=4, k_max=512, mode="variable_w")
        est = two_stage_log_estimate(x, cfg)
        grid = est.grid
        peak = np.argmin(np.abs(grid.frequencies - 0.2))
        flat = np.abs(np.abs(grid.frequencies) - 0.45) < 0.03
        assert est.w_used[peak] < np.mean(est.w_used[flat])
        assert np.all(np.isfinite(est.values))

    def test_beats_bad_fixed_choice(self):
        # single-realization sanity: adaptive log error below the worse
        # of the two fixed extremes (the full benchmark is in acceptance)
        spec = ProcessSpec.ar2_resonance(0.98, 0.2, seed=21)
        x = generate(spec, 2048)
        grid = default_grid(2048)
        truth = np.log(spectrum_at(spec, grid.frequencies))
        cfg = AdaptiveConfig(pilot_k=59, k_min=4, k_max=512)
        adaptive = two_stage_log_estimate(x, cfg, grid)
        err_ad = np.mean((adaptive.values - truth) ** 2)
        worst = max(
            np.mean((log_multitaper(x, k, grid=grid).values - truth) ** 2)
            for k in (4, 512)
        )
        assert err_ad < worst

    @pytest.mark.parametrize("estimate", [curvature_pilot, two_stage_log_estimate])
    def test_pilot_needs_twice_pilot_k_samples(self, estimate):
        cfg = AdaptiveConfig(pilot_k=12, k_min=4, k_max=16)
        with pytest.raises(ValueError, match="too short for pilot_k=12"):
            estimate(np.random.default_rng(16).standard_normal(16), cfg)

    def test_default_configs_meet_the_pilot_length(self):
        for n in range(8, 4096):
            assert 2 * AdaptiveConfig.default_for(n).pilot_k <= n

    @staticmethod
    def assert_exactly_even(a):
        a = np.asarray(a)
        assert np.array_equal(a[1:], a[:0:-1]), int(np.sum(a[1:] != a[:0:-1]))

    def test_variable_w_is_exactly_even(self):
        # window_average's round-off is not mirror-symmetric: on the full grid
        # most bins would differ from their mirror
        x = generate(ProcessSpec.white(1.0, seed=0), 4096)
        est = two_stage_log_estimate(x, AdaptiveConfig.default_for(4096, "variable_w"))
        self.assert_exactly_even(est.values)
        self.assert_exactly_even(est.w_used)

    def test_curvature_pilot_is_exactly_even(self):
        # a smooth of the whole grid would differ from its mirror at most bins
        x = generate(ProcessSpec.ar((1.3, -0.8), 1.0, 7), 4096)
        self.assert_exactly_even(curvature_pilot(x, AdaptiveConfig.default_for(4096)).values)

    def test_variable_k_is_exactly_even(self):
        x = generate(ProcessSpec.ar((1.3, -0.8), 1.0, 14), 2**14)
        est = two_stage_log_estimate(x)
        self.assert_exactly_even(est.values)
        self.assert_exactly_even(est.k_used)

    def test_box_variable_w_is_the_window_mean_of_the_pilot(self):
        x = generate(ProcessSpec.ar2_resonance(0.98, 0.2, seed=26), 2048)
        cfg = AdaptiveConfig(pilot_k=59, k_min=4, k_max=512, mode="variable_w", kernel=BOX)
        est = two_stage_log_estimate(x, cfg)
        m = est.grid.m
        theta = log_multitaper(x, cfg.pilot_k, grid=est.grid).values
        half = np.rint(est.w_used * m).astype(np.int64)
        assert np.unique(half).size > 1
        for i in np.random.default_rng(26).choice(m, 64, replace=False):
            window = theta[np.arange(i - half[i], i + half[i] + 1) % m]
            assert abs(est.values[i] - window.mean()) <= 1e-12 * np.max(np.abs(theta))
        self.assert_exactly_even(est.values)

    def test_box_variable_k_profile(self):
        x = generate(ProcessSpec.ar2_resonance(0.98, 0.2, seed=27), 2048)
        cfg = AdaptiveConfig(pilot_k=59, k_min=4, k_max=512, kernel=BOX)
        est = two_stage_log_estimate(x, cfg)
        assert cfg.k_min <= est.k_used.min() < est.k_used.max() <= cfg.k_max
        self.assert_exactly_even(est.k_used)
        assert np.array_equal(est.values, log_multitaper(x, est.k_used, est.grid).values)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(pilot_k=4, k_min=8, k_max=64)
        with pytest.raises(ValueError):
            AdaptiveConfig(pilot_k=16, k_min=4, k_max=8)
        with pytest.raises(ValueError):
            AdaptiveConfig(pilot_k=16, k_min=4, k_max=64, mode="nope")
