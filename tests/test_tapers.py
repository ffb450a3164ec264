import dataclasses
import tracemalloc

import numpy as np
import pytest

from mtsine import (
    FrequencyGrid,
    Taper,
    TaperFamily,
    concentration_matrix,
    continuous_mb_window,
    local_bias_matrix,
    minimum_bias_family,
    sinusoidal_family,
    sinusoidal_taper,
    sinusoidal_window_closed,
    slepian_family,
    spectral_window,
    window_grid,
)

rng = np.random.default_rng(5)


def direct_window(values, freqs):
    """O(n) summation oracle for the taper transform."""
    t = np.arange(1, len(values) + 1)
    return np.array([np.sum(values * np.exp(-2j * np.pi * t * f)) for f in freqs])


class TestSinusoidalTaper:
    def test_single_point(self):
        assert sinusoidal_taper(1, 1).values[0] == pytest.approx(1.0)

    def test_three_point_closed_form(self):
        taper = sinusoidal_taper(3, 2)
        assert taper.n == 3
        assert taper.values == pytest.approx([0.7071067811865476, 0.0, -0.7071067811865476])

    def test_full_family_orthonormal(self):
        fam = sinusoidal_family(50, 50)
        gram = fam.taper_matrix @ fam.taper_matrix.T
        assert np.max(np.abs(gram - np.eye(50))) < 1e-10

    def test_index_validation(self):
        with pytest.raises(IndexError):
            sinusoidal_taper(10, 11)
        with pytest.raises(IndexError):
            sinusoidal_taper(10, 0)
        with pytest.raises(ValueError):
            sinusoidal_taper(0, 1)


class TestToeplitzMatrices:
    def test_local_bias_entries(self):
        a = local_bias_matrix(6).to_dense()
        assert a[2, 2] == pytest.approx(1.0 / 12.0)
        assert a[2, 3] == pytest.approx(-1.0 / (2.0 * np.pi**2))
        assert a[2, 4] == pytest.approx(1.0 / (8.0 * np.pi**2))
        assert np.max(np.abs(a - a.T)) == 0.0

    def test_concentration_entries(self):
        b = concentration_matrix(6, 0.08).to_dense()
        assert b[1, 1] == pytest.approx(0.16)
        assert b[1, 2] == pytest.approx(np.sin(0.16 * np.pi) / np.pi)

    def test_full_band_is_identity(self):
        b = concentration_matrix(5, 0.5).to_dense()
        assert np.max(np.abs(b - np.eye(5))) < 1e-15

    def test_single_sample(self):
        assert local_bias_matrix(1).first_row.tolist() == [1.0 / 12.0]
        assert concentration_matrix(1, 0.1).first_row.tolist() == [0.2]

    def test_quadratic_forms_make_no_dense_matrix(self):
        fam = sinusoidal_family(2048, 8)
        tracemalloc.start()
        try:
            fam.local_biases
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20  # a dense 2048 x 2048 copy is 32 MiB

    def test_halfwidth_validation(self):
        with pytest.raises(ValueError):
            concentration_matrix(5, 0.0)
        with pytest.raises(ValueError):
            concentration_matrix(5, 0.6)


class TestMinimumBiasFamily:
    def test_first_eigenvalue_normalized(self):
        fam = minimum_bias_family(50, 1)
        assert 4 * 51**2 * fam.local_biases[0] == pytest.approx(1.0095, abs=5e-4)

    def test_cumulative_ten_tapers(self):
        fam = minimum_bias_family(50, 10)
        assert 4 * 51**2 * fam.local_biases.sum() == pytest.approx(388.6562, abs=0.05)

    def test_eigen_residual(self):
        fam = minimum_bias_family(40, 40)
        a = local_bias_matrix(40).to_dense()
        res = a @ fam.taper_matrix.T - fam.taper_matrix.T * fam.local_biases[None, :]
        assert np.max(np.linalg.norm(res, axis=0)) < 1e-10

    def test_close_to_sinusoidal(self):
        # per-taper distance bound k/(4*(n+2)) at n=20
        n = 20
        mb = minimum_bias_family(n, 5).taper_matrix
        sine = sinusoidal_family(n, 5).taper_matrix
        for k in range(5):
            d = min(
                np.linalg.norm(sine[k] - mb[k]), np.linalg.norm(sine[k] + mb[k])
            )
            assert d < (k + 1) / (4.0 * (n + 2))

    @pytest.mark.parametrize("n", [20, 50, 200])
    def test_scaled_convergence_bound(self, n):
        mb = minimum_bias_family(n, n).taper_matrix
        sine = sinusoidal_family(n, n).taper_matrix
        for k in range(n):
            d = min(
                np.linalg.norm(sine[k] - mb[k]), np.linalg.norm(sine[k] + mb[k])
            )
            assert (n + 2) / (k + 1) * d < 0.25

    @pytest.mark.parametrize("n, k", [(20, 20), (50, 10), (200, 16), (800, 800)])
    def test_local_biases_are_lowest_eigenvalues(self, n, k):
        lam = np.linalg.eigvalsh(local_bias_matrix(n).to_dense())[:k]
        lam_mb = minimum_bias_family(n, k).local_biases
        np.testing.assert_allclose(lam_mb, lam, rtol=1e-10)

    def test_sign_convention(self):
        fam = minimum_bias_family(30, 30)
        for row in fam.taper_matrix:
            lead = row[np.abs(row) > 1e-8][0]
            assert lead > 0


class TestLocalBiases:
    @pytest.mark.parametrize("make", [sinusoidal_family, minimum_bias_family])
    @pytest.mark.parametrize("n, k", [(1, 1), (2, 2), (7, 3), (50, 50), (200, 40)])
    def test_nondecreasing(self, make, n, k):
        assert np.all(np.diff(make(n, k).local_biases) >= -1e-12)

    def test_read_only(self):
        fam = sinusoidal_family(16, 4)
        lam = fam.local_biases
        assert lam is fam.local_biases
        assert not lam.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            fam.local_biases = np.zeros(4)


class TestSlepianFamily:
    def test_top_concentration_near_one(self):
        fam = slepian_family(50, 0.08, 1)
        b = concentration_matrix(50, 0.08).to_dense()
        eps = 1.0 - fam.taper_matrix[0] @ b @ fam.taper_matrix[0]
        assert 0 <= eps < 1e-6

    def test_transition_band_concentration(self):
        fam = slepian_family(50, 0.08, 8)
        b = concentration_matrix(50, 0.08).to_dense()
        c8 = fam.taper_matrix[7] @ b @ fam.taper_matrix[7]
        assert c8 == pytest.approx(0.7002, abs=1e-3)

    def test_cumulative_normalized_bias(self):
        fam = slepian_family(50, 0.08, 10)
        total = 4 * 51**2 * fam.local_biases.sum()
        assert total == pytest.approx(702.1523, abs=1.0)

    def test_orthonormal(self):
        fam = slepian_family(64, 0.1, 16)
        gram = fam.taper_matrix @ fam.taper_matrix.T
        assert np.max(np.abs(gram - np.eye(16))) < 1e-10


class TestSpectralWindow:
    def test_uniform_taper_at_zero(self):
        n = 36
        win = spectral_window(Taper(np.full(n, n**-0.5)), FrequencyGrid(8 * n))
        assert abs(win[0]) == pytest.approx(np.sqrt(n))

    def test_matches_closed_form(self):
        n, k = 100, 5
        grid = FrequencyGrid(1024)
        win = spectral_window(sinusoidal_taper(n, k), grid)
        closed = sinusoidal_window_closed(n, k, grid.frequencies)
        assert np.max(np.abs(win - closed)) < 1e-10

    def test_peak_value_on_grid(self):
        n, k = 100, 5
        grid = FrequencyGrid(8 * 2 * (n + 1))  # contains f = k/(2(n+1)) exactly
        win = spectral_window(sinusoidal_taper(n, k), grid)
        j = 8 * k  # f_j = k / (2(n+1))
        assert abs(win[j]) == pytest.approx(np.sqrt((n + 1) / 2.0), rel=1e-12)

    def test_discrete_parseval(self):
        v = rng.standard_normal(40)
        v /= np.linalg.norm(v)
        win = spectral_window(Taper(v), FrequencyGrid(512))
        assert (win.real**2 + win.imag**2).mean() == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_in_frequency(self):
        v = rng.standard_normal(33)
        v /= np.linalg.norm(v)
        grid = FrequencyGrid(264)
        win = spectral_window(Taper(v), grid)
        mags = np.abs(win)
        # bins j and m - j hold f and -f
        assert np.max(np.abs(mags[1:] - mags[1:][::-1])) < 1e-12

    @pytest.mark.parametrize("k", [1, 7])
    def test_awkward_length_matches_closed_form_and_is_hermitian(self, k):
        # the window grid 16n has the prime factor n = 1031
        n = 1031
        win = spectral_window(sinusoidal_taper(n, k))
        closed = sinusoidal_window_closed(n, k, window_grid(n).frequencies)
        assert np.max(np.abs(win - closed)) < 1e-10
        # bins j and m - j hold f and -f
        assert np.array_equal(win[1:], win[:0:-1].conj())
        assert win[0].imag == 0.0

    def test_quadratic_form_matches_quadrature(self):
        # fine-grid quadrature of f^2 |V|^2 equals the local-bias form
        n = 32
        a = local_bias_matrix(n).to_dense()
        grid = FrequencyGrid(1 << 14)
        f = grid.frequencies
        for _ in range(5):
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            win = spectral_window(Taper(v), grid)
            quad = np.mean(f * f * (win.real**2 + win.imag**2))
            assert quad == pytest.approx(v @ a @ v, abs=1e-6)


class TestClosedFormWindow:
    def test_magnitude_at_shift_frequency(self):
        val = sinusoidal_window_closed(100, 5, 5.0 / 202.0)
        assert abs(val) == pytest.approx(np.sqrt(101.0 / 2.0), rel=1e-12)

    def test_far_frequency_matches_direct_sum(self):
        n, k = 100, 5
        v = sinusoidal_taper(n, k).values
        direct = direct_window(v, [0.4])[0]
        assert abs(sinusoidal_window_closed(n, k, 0.4) - direct) < 1e-12

    def test_two_sample_value(self):
        assert sinusoidal_window_closed(2, 1, 0.0) == pytest.approx(np.sqrt(2.0))

    @pytest.mark.parametrize("k", [1, 5, 50])
    def test_dense_grid_agreement(self, k):
        n = 100
        freqs = np.linspace(-0.5, 0.5, 1024, endpoint=False)
        v = sinusoidal_taper(n, k).values
        assert np.max(np.abs(sinusoidal_window_closed(n, k, freqs) - direct_window(v, freqs))) < 1e-10


class TestContinuousWindow:
    def test_first_taper_at_zero(self):
        assert abs(continuous_mb_window(1, 0.0)) == pytest.approx(
            2.0 * np.sqrt(2.0) / np.pi
        )

    def test_removable_singularity(self):
        assert abs(continuous_mb_window(2, 1.0)) == pytest.approx(np.sqrt(2.0) / 2.0)

    def test_matches_defining_integral(self):
        # quadrature of the time-domain transform at the singular point
        t = np.linspace(0.0, 1.0, 20001)
        k, f = 2, 1.0
        integrand = np.sqrt(2.0) * np.sin(np.pi * k * t) * np.exp(-2j * np.pi * f * t)
        quad = np.trapezoid(integrand, t)
        assert abs(continuous_mb_window(k, f) - quad) < 1e-8

    def test_local_bias_integral(self):
        val = _band_energy(1, 1e4)
        assert val == pytest.approx(0.25, abs=1e-4)


def _band_energy(k, top):
    """Simpson quadrature of 2 * integral_0^top f^2 |V_k(f)|^2 df."""
    total = 0.0
    for lo, hi, npts in ((0.0, 50.0, 2_000_001), (50.0, top, 4_000_001)):
        f = np.linspace(lo, hi, npts)
        y = f * f * np.abs(continuous_mb_window(k, f)) ** 2
        h = (hi - lo) / (npts - 1)
        total += h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())
    return 2.0 * total


class TestValidation:
    def test_taper_norm_enforced(self):
        with pytest.raises(ValueError):
            Taper(np.ones(4))

    def test_taper_finite_enforced(self):
        with pytest.raises(ValueError):
            Taper(np.array([np.nan, 1.0]))

    def test_family_rejects_nan(self):
        with pytest.raises(ValueError, match="orthonormal"):
            TaperFamily(np.full((1, 4), np.nan))

    def test_family_bounds(self):
        with pytest.raises(ValueError):
            minimum_bias_family(10, 11)
        with pytest.raises(ValueError):
            slepian_family(10, 0.6, 2)
