import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mtsine import (
    FrequencyGrid,
    ProcessSpec,
    TaperFamily,
    WeightScheme,
    default_grid,
    dft,
    expected_square_error,
    generate,
    k_opt,
    make_weights,
    multitaper_estimate,
    sinusoidal_estimate_fast,
    sinusoidal_family,
)
from mtsine._kernels import _chirp_plan, _mirror, _smooth_length
from mtsine.estimator import asymptotic_sinusoidal_loss

rng = np.random.default_rng(23)


def direct_dft(x, freqs):
    t = np.arange(1, len(x) + 1)
    return np.array([np.sum(x * np.exp(-2j * np.pi * t * f)) for f in freqs])


class TestDft:
    def test_impulse_phase(self):
        x = np.zeros(16)
        x[0] = 1.0
        grid = FrequencyGrid(64)
        y = dft(x, grid)
        assert np.max(np.abs(y - np.exp(-2j * np.pi * grid.frequencies))) < 1e-12

    def test_constant_at_zero(self):
        y = dft(np.ones(20), FrequencyGrid(80))
        assert y[0] == pytest.approx(20.0)

    def test_matches_direct_sum(self):
        x = rng.standard_normal(50)
        grid = FrequencyGrid(128)
        y = dft(x, grid)
        ref = direct_dft(x, grid.frequencies)
        assert np.max(np.abs(y - ref)) < 1e-10 * np.max(np.abs(ref))

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            dft(np.ones(16), FrequencyGrid(8))


def dft_at_bins(x, m, bins):
    """Direct sums at bins k of an m-point grid, t*k reduced mod m exactly."""
    t = np.arange(1, len(x) + 1, dtype=np.int64)
    return np.array([np.sum(x * np.exp(-2j * np.pi * ((t * k) % m) / m)) for k in bins])


def assert_matches_direct(x, m, bins):
    y = dft(x, FrequencyGrid(m))
    ref = dft_at_bins(x, m, bins)
    assert np.max(np.abs(y[bins] - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestChirpTransform:
    # (n, m): odd m, prime m, m = n, and the default grid 4(n+1) at n = 2^p
    GRIDS = [(50, 151), (64, 131), (97, 97), (100, 100), (33, 2 * 33)] + [
        (2**p, default_grid(2**p).m) for p in range(4, 11)
    ]

    @pytest.mark.parametrize("n,m", GRIDS)
    def test_matches_direct_sum_at_every_bin(self, n, m):
        assert_matches_direct(rng.standard_normal(n), m, np.arange(m))

    @pytest.mark.parametrize("n", [2**17, 131_070])  # 131_071 = n + 1 is prime
    def test_large_default_grid_at_random_bins(self, n):
        m = default_grid(n).m
        assert_matches_direct(rng.standard_normal(n), m, rng.integers(0, m, 16))

    @pytest.mark.parametrize("n,m", GRIDS)
    def test_conjugate_symmetric_bitwise(self, n, m):
        y = dft(rng.standard_normal(n), FrequencyGrid(m))
        assert np.array_equal(y[:0:-1], y[1:].conj())
        assert y[0].imag == 0.0
        if m % 2 == 0:
            assert y[m // 2].imag == 0.0

    def test_mutating_the_result_leaves_the_next_call(self):
        x = rng.standard_normal(40)
        grid = default_grid(40)
        first = dft(x, grid)
        ref = first.copy()
        first *= 3.0
        assert np.array_equal(dft(x, grid), ref)

    def test_smooth_length_is_the_next_5_smooth_integer(self):
        def smooth(v):
            for p in (2, 3, 5):
                while v % p == 0:
                    v //= p
            return v == 1

        smooth_upto = [v for v in range(1, 2100) if smooth(v)]
        for size in range(1, 2000):
            assert _smooth_length(size) == next(v for v in smooth_upto if v >= size)
        assert _smooth_length(2**17 + 262146 + 1) == 393_660

    def test_caches_one_read_only_plan(self):
        dft(np.ones(30), FrequencyGrid(200))
        dft(np.ones(31), FrequencyGrid(200))
        assert _chirp_plan.cache_info().currsize == 1
        for a in _chirp_plan(31, 200):
            assert not a.flags.writeable

    @pytest.mark.parametrize("m", [1000, 2002])  # L = 1,536 and 2,025 > m
    def test_transform_holds_exactly_m_entries(self, m):
        """Past the default grids, where L > m, the m bins are copied out of
        the working buffer rather than kept as a view of it."""
        y = dft(rng.standard_normal(1000), FrequencyGrid(m))
        assert y.shape == (m,)
        assert (y if y.base is None else y.base).nbytes == 16 * m

    @pytest.mark.parametrize("n", [2**13, 2**15])
    def test_transform_holds_one_buffer(self, n):
        """A warm ``dft``'s ``tracemalloc`` peak is at most 1.3 times its
        m-bin complex result: it reads about 1.25 at 2^13 and 1.06 at 2^15,
        the excess being numpy's casting buffer for the real input, and
        2.0 with a fresh array per FFT and a concatenated mirror.
        """
        x = rng.standard_normal(n)
        grid = default_grid(n)
        dft(x, grid)
        tracemalloc.start()
        try:
            dft(x, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 16 * grid.m, peak / (16 * grid.m)


def uniform_taper_family(n):
    v = np.full((1, n), n**-0.5)
    return TaperFamily(v)


class TestMultitaperEstimate:
    def test_single_uniform_taper_is_periodogram(self):
        n = 32
        x = rng.standard_normal(n)
        grid = default_grid(n)
        est = multitaper_estimate(x, uniform_taper_family(n), make_weights("uniform", 1), grid)
        ref = np.abs(dft(x, grid)) ** 2 / n
        assert np.max(np.abs(est.values - ref)) < 1e-12 * ref.max()

    def test_nonnegative(self):
        x = rng.standard_normal(64)
        est = multitaper_estimate(
            x, sinusoidal_family(64, 8), make_weights("parabolic", 8)
        )
        assert np.all(est.values >= 0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            multitaper_estimate(
                np.ones(16), sinusoidal_family(16, 4), make_weights("uniform", 3)
            )

    def test_white_noise_moments(self):
        # reduced Monte-Carlo check; the acceptance suite runs the full one
        n, k, reps = 64, 8, 500
        grid = default_grid(n)
        interior = np.abs(grid.frequencies) > 0.06
        interior &= np.abs(grid.frequencies) < 0.44
        acc = np.zeros(grid.m)
        acc2 = np.zeros(grid.m)
        fam = sinusoidal_family(n, k)
        w = make_weights("uniform", k)
        for _ in range(reps):
            est = multitaper_estimate(rng.standard_normal(n), fam, w, grid)
            acc += est.values
            acc2 += est.values**2
        mean = acc[interior].mean() / reps
        var = (acc2 / reps - (acc / reps) ** 2)[interior].mean()
        assert mean == pytest.approx(1.0, abs=0.05)
        assert var == pytest.approx(1.0 / k, rel=0.25)


class TestFastPath:
    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_matches_generic(self, n):
        grid = default_grid(n)
        for k in (1, 4, n // 2):
            fam = sinusoidal_family(n, k)
            w = make_weights("uniform", k)
            for _ in range(3):
                x = rng.standard_normal(n)
                fast = sinusoidal_estimate_fast(x, k, "uniform", grid)
                slow = multitaper_estimate(x, fam, w, grid)
                rel = np.abs(fast.values - slow.values) / np.maximum(
                    slow.values, 1e-300
                )
                assert rel.max() < 1e-10

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_parabolic_is_accurate_at_every_bin(self, k):
        """Within 1e-15 of a long-double weighted sum at every bin of a
        resonance whose spectrum spans nine decades: the parabolic sum
        subtracts no nearly equal terms where |d_K| dwarfs |d_1|."""
        n = 1024
        x = generate(ProcessSpec.ar2_resonance(0.999, 0.2, seed=3), n)
        grid = default_grid(n)
        y, step = dft(x, grid).astype(np.clongdouble), grid.shift_step(n)
        w = make_weights("parabolic", k).weights.astype(np.longdouble)
        ref = np.zeros(grid.m, dtype=np.longdouble)
        for j in range(1, k + 1):
            d = np.roll(y, -j * step) - np.roll(y, j * step)
            ref += w[j - 1] * (d.real * d.real + d.imag * d.imag)
        ref /= 2 * (n + 1)
        got = sinusoidal_estimate_fast(x, k, "parabolic", grid).values
        assert np.max(np.abs(got - ref) / ref) < 1e-15

    def test_constant_series(self):
        n, k = 60, 6
        x = np.ones(n)
        fast = sinusoidal_estimate_fast(x, k)
        slow = multitaper_estimate(x, sinusoidal_family(n, k), make_weights("uniform", k))
        far = np.abs(fast.grid.frequencies) > 0.1
        assert np.max(np.abs(fast.values[far] - slow.values[far])) < 1e-10 * (
            1.0 + slow.values[far].max()
        )

    def test_single_taper_form(self):
        n, k = 40, 1
        x = rng.standard_normal(n)
        grid = default_grid(n)
        y = dft(x, grid)
        step = grid.shift_step(n)
        ref = np.abs(np.roll(y, -step) - np.roll(y, step)) ** 2 / (2.0 * (n + 1))
        est = sinusoidal_estimate_fast(x, k, grid=grid)
        assert np.max(np.abs(est.values - ref)) < 1e-12 * (1.0 + ref.max())

    def test_misaligned_grid_message(self):
        with pytest.raises(ValueError, match=r"2\*\(n\+1\)"):
            sinusoidal_estimate_fast(np.ones(16), 2, grid=FrequencyGrid(100))

    @pytest.mark.parametrize("per_bin", [False, True], ids=["scalar", "per_bin"])
    def test_taper_count_must_be_whole(self, per_bin):
        # one rule for both forms: a whole-valued float is that count, a
        # fractional one is refused rather than truncated
        x = rng.standard_normal(64)
        grid = default_grid(64)

        def k_of(v):
            return np.full(grid.m, v) if per_bin else v

        ref = sinusoidal_estimate_fast(x, k_of(4), grid=grid)
        est = sinusoidal_estimate_fast(x, k_of(4.0), grid=grid)
        assert np.array_equal(est.values, ref.values)
        assert np.array_equal(est.k_used, ref.k_used)
        for bad in (4.9, 0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                sinusoidal_estimate_fast(x, k_of(bad), grid=grid)


class TestWeights:
    def test_uniform(self):
        assert make_weights("uniform", 4).weights == pytest.approx([0.25] * 4)

    def test_parabolic_three(self):
        assert make_weights("parabolic", 3).weights == pytest.approx(
            [8.0 / 13.0, 5.0 / 13.0, 0.0]
        )

    def test_parabolic_degenerate(self):
        assert make_weights("parabolic", 1).weights == pytest.approx([1.0])

    @pytest.mark.parametrize("k", [1, 2, 3, 64, 4097])
    def test_one_rule_gives_both_kinds_bit_for_bit(self, k):
        # uniform weights are the parabolic rule 1 - j^2/s^2 at s = inf
        assert make_weights("uniform", k).weights.tobytes() == np.full(k, 1.0 / k).tobytes()
        j = np.arange(1, k + 1, dtype=np.float64)
        raw = 1.0 - j**2 / k**2 if k > 1 else np.ones(1)
        assert make_weights("parabolic", k).weights.tobytes() == (raw / raw.sum()).tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            make_weights("uniform", 0)
        with pytest.raises(ValueError):
            WeightScheme(np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            WeightScheme(np.array([-0.5, 1.5]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            WeightScheme(np.array([np.nan]))


class TestExpectedSquareError:
    def test_flat_spectrum_reduces_to_variance(self):
        w = make_weights("parabolic", 6)
        lam = np.linspace(1e-5, 1e-3, 6)
        assert expected_square_error(2.0, 0.0, w, lam) == pytest.approx(
            4.0 * float(w.weights @ w.weights)
        )

    def test_arithmetic_example(self):
        # uniform sinusoidal asymptotic loss at s=1, s2=12, n=10, K=6
        expect = (6**2 * 12.0 / (24.0 * 100.0)) ** 2 + 1.0 / 6.0
        assert asymptotic_sinusoidal_loss(1.0, 12.0, 10, 6) == pytest.approx(expect)

    def test_asymptotic_agreement_large_k(self):
        n, k = 10_000, 100
        lam = np.arange(1, k + 1) ** 2 / (4.0 * n * n)
        w = make_weights("uniform", k)
        s, s2 = 1.0, 12_000.0
        exact = expected_square_error(s, s2, w, lam)
        assert exact == pytest.approx(asymptotic_sinusoidal_loss(s, s2, n, k), rel=0.01)


class TestKOpt:
    def test_reference_values(self):
        assert k_opt(1.0, 12.0, 10) == 6
        assert k_opt(1.0, 12.0, 100) == 40
        assert k_opt(1.0, -12.0, 100) == 40

    def test_zero_curvature_clamps_high(self):
        assert k_opt(1.0, 0.0, 50, 2, 20) == 20

    @pytest.mark.parametrize("s2", [1e-310, 1e-301])
    def test_vanishing_curvature_clamps_high(self, s2):
        assert k_opt(1.0, s2, 100, 2, 20) == 20

    def test_infinite_curvature_clamps_low(self):
        # 12*s*n^2 overflows, so the ratio is inf/inf = nan
        assert k_opt(1e308, np.inf, 64, 2, 20) == 2
        k = k_opt([1e308, 1.0, 1.0], [np.inf, np.inf, 1.0], 64, 2, 20)
        assert k.tolist() == [2, 2, 20]

    def test_positive_homogeneity(self):
        for c in (1e-6, 0.5, 3.0, 1e8):
            assert k_opt(c * 1.0, c * 379.5, 100) == k_opt(1.0, 379.5, 100)

    def test_clamping(self):
        assert k_opt(1.0, 1e9, 100, k_min=5, k_max=50) == 5
        assert k_opt(1.0, 1e-9, 100, k_min=5, k_max=50) == 50

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ValueError):
            k_opt(0.0, 1.0, 10)

    @pytest.mark.parametrize("s2", [379.5, 80.0])
    def test_consistent_with_loss_argmin(self, s2):
        # discrete argmin of the exact loss sits within one taper of the rule
        n = 100
        lam = sinusoidal_family(n, n // 2).local_biases
        losses = [
            expected_square_error(1.0, s2, make_weights("uniform", k), lam[:k])
            for k in range(1, n // 2 + 1)
        ]
        argmin = int(np.argmin(losses)) + 1
        raw = (12.0 * n * n / s2) ** 0.4
        assert abs(argmin - round(raw)) <= 1


finite = st.floats(-1e6, 1e6, allow_subnormal=False)
series = hnp.arrays(np.float64, st.integers(2, 64), elements=finite)


def assert_close(got, ref):
    # round-off relative to the largest value; the floor keeps underflowing
    # series comparable
    assert np.max(np.abs(got - ref)) <= 1e-10 * max(ref.max(), 1e-300)


@st.composite
def series_and_k(draw):
    x = draw(series)
    return x, draw(st.integers(1, x.shape[0]))


def assert_even(values):
    # values[i] is the estimate at f_i = i/m, values[(m - i) % m] the one at -f_i
    assert np.array_equal(values, np.roll(values[::-1], 1))


class TestFastPathProperties:
    @settings(max_examples=40, deadline=None)
    @given(series_and_k(), st.sampled_from(["uniform", "parabolic"]))
    def test_equals_generic_estimate(self, data, kind):
        x, k = data
        fast = sinusoidal_estimate_fast(x, k, kind)
        slow = multitaper_estimate(x, sinusoidal_family(x.shape[0], k), make_weights(kind, k))
        assert_close(fast.values, slow.values)

    @settings(max_examples=40, deadline=None)
    @given(series_and_k(), st.floats(-1e3, 1e3).filter(lambda c: abs(c) >= 1e-3))
    def test_scales_with_square_of_amplitude(self, data, c):
        x, k = data
        base = sinusoidal_estimate_fast(x, k).values
        assert_close(sinusoidal_estimate_fast(c * x, k).values, c * c * base)

    @settings(max_examples=40, deadline=None)
    @given(series_and_k(), st.sampled_from(["uniform", "parabolic"]))
    def test_estimate_is_exactly_even(self, data, kind):
        x, k = data
        assert_even(sinusoidal_estimate_fast(x, k, kind).values)

    @pytest.mark.parametrize("kind", ["uniform", "parabolic"])
    def test_estimate_is_exactly_even_at_n_4096(self, kind):
        x = np.random.default_rng(11).standard_normal(4096)
        assert_even(sinusoidal_estimate_fast(x, 32, kind).values)

    @settings(max_examples=40, deadline=None)
    @given(series, st.data(), st.sampled_from(["uniform", "parabolic"]))
    def test_even_per_bin_k_gives_an_even_estimate(self, x, data, kind):
        n = x.shape[0]
        m = default_grid(n).m
        k = data.draw(hnp.arrays(np.int64, m, elements=st.integers(1, n)))
        k = np.minimum(k, np.roll(k[::-1], 1))  # K(f) = K(-f)
        assert_even(sinusoidal_estimate_fast(x, k, kind).values)

    @settings(max_examples=40, deadline=None)
    @given(series_and_k())
    def test_invariant_under_time_reversal(self, data):
        # each sine taper is symmetric or antisymmetric about the centre, so
        # reversing the series conjugates each eigenspectrum's transform up to
        # a phase and a sign
        x, k = data
        assert_close(
            sinusoidal_estimate_fast(x[::-1], k).values,
            sinusoidal_estimate_fast(x, k).values,
        )


class TestMemory:
    """The working memory of one estimate is bounded by the grid, whatever K."""

    @pytest.mark.parametrize("n", [2**13, 2**15])
    @pytest.mark.parametrize("weights", ["uniform", "parabolic"])
    def test_peak_is_at_most_eight_floats_per_bin(self, n, weights):
        x = np.random.default_rng(4).standard_normal(n)
        m = default_grid(n).m
        peaks = {}
        for k in (16, 64):
            sinusoidal_estimate_fast(x, k, weights)  # the chirp plan is cached
            tracemalloc.start()
            try:
                sinusoidal_estimate_fast(x, k, weights)
                peaks[k] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peaks[k] <= 8 * 8 * m, (k, peaks[k] / (8 * m))
        assert abs(peaks[64] - peaks[16]) < 0.01 * peaks[16]

    @staticmethod
    def per_bin_peak(n, weights):
        x = np.random.default_rng(4).standard_normal(n)
        m = default_grid(n).m
        # an even profile in runs of equal K, as the adaptive median makes
        f = np.arange(m // 2 + 1) / m
        k = _mirror(np.rint(8 + 56 * np.sin(6 * np.pi * f) ** 2).astype(np.int64), m)
        sinusoidal_estimate_fast(x, k, weights)
        tracemalloc.start()
        try:
            sinusoidal_estimate_fast(x, k, weights)
            return tracemalloc.get_traced_memory()[1], m
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("n", [2**13, 2**15])
    @pytest.mark.parametrize("weights", ["uniform", "parabolic"])
    def test_per_bin_peak_is_at_most_fourteen_floats_per_bin(self, n, weights):
        peak, m = self.per_bin_peak(n, weights)
        assert peak <= 14 * 8 * m, peak / (8 * m)

    @pytest.mark.parametrize("n", [2**13, 2**15])
    def test_parabolic_per_bin_peak_is_at_most_ten_floats_per_bin(self, n):
        # the parabolic normalization runs on bins 0..m/2 only
        peak, m = self.per_bin_peak(n, "parabolic")
        assert peak <= 10 * 8 * m, peak / (8 * m)
