import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mtsine import (
    FrequencyGrid,
    TaperFamily,
    WeightScheme,
    default_grid,
    dft,
    expected_square_error,
    k_opt,
    local_bias,
    make_weights,
    multitaper_estimate,
    sinusoidal_estimate_fast,
    sinusoidal_family,
)
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


def uniform_taper_family(n):
    v = np.full((1, n), n**-0.5)
    return TaperFamily(v, np.array([local_bias(v[0])]), "custom")


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
                fast = sinusoidal_estimate_fast(x, k, w, grid)
                slow = multitaper_estimate(x, fam, w, grid)
                rel = np.abs(fast.values - slow.values) / np.maximum(
                    slow.values, 1e-300
                )
                assert rel.max() < 1e-10

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


class TestWeights:
    def test_uniform(self):
        assert make_weights("uniform", 4).weights == pytest.approx([0.25] * 4)

    def test_parabolic_three(self):
        assert make_weights("parabolic", 3).weights == pytest.approx(
            [8.0 / 13.0, 5.0 / 13.0, 0.0]
        )

    def test_parabolic_degenerate(self):
        assert make_weights("parabolic", 1).weights == pytest.approx([1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            make_weights("uniform", 0)
        with pytest.raises(ValueError):
            WeightScheme(np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            WeightScheme(np.array([-0.5, 1.5]))


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


class TestFastPathProperties:
    @settings(max_examples=40, deadline=None)
    @given(series_and_k(), st.sampled_from(["uniform", "parabolic"]))
    def test_equals_generic_estimate(self, data, kind):
        x, k = data
        w = make_weights(kind, k)
        fast = sinusoidal_estimate_fast(x, k, w)
        slow = multitaper_estimate(x, sinusoidal_family(x.shape[0], k), w)
        assert_close(fast.values, slow.values)

    @settings(max_examples=40, deadline=None)
    @given(series_and_k(), st.floats(-1e3, 1e3).filter(lambda c: abs(c) >= 1e-3))
    def test_scales_with_square_of_amplitude(self, data, c):
        x, k = data
        base = sinusoidal_estimate_fast(x, k).values
        assert_close(sinusoidal_estimate_fast(c * x, k).values, c * c * base)

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
