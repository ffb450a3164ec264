import numpy as np
import pytest

from mtsine import (
    BOX,
    EPANECHNIKOV,
    QuadraticEstimator,
    concentration_matrix,
    evaluate_quadratic,
    kernel_transfer,
    local_bias_matrix,
    minimum_bias_family,
    periodogram_quadratic,
    quadratic_to_multitaper,
    sinusoidal_taper,
    slepian_family,
    smooth_quadratic,
    split_cosine_taper,
    table4_experiment,
    tapered_quadratic,
)

rng = np.random.default_rng(41)


def appendix_matrix(n):
    """(1/n) * (3/2 I - 6 A), the smoothed-periodogram matrix in closed form."""
    a = local_bias_matrix(n).to_dense()
    return (1.5 * np.eye(n) - 6.0 * a) / n


class TestBasicEstimators:
    def test_periodogram_two_by_two(self):
        q = periodogram_quadratic(2)
        assert np.array_equal(q.matrix, [[0.5, 0.5], [0.5, 0.5]])

    def test_periodogram_rank_one_uniform(self):
        q = periodogram_quadratic(8)
        mu, fam = quadratic_to_multitaper(q)
        assert mu.shape == (1,)
        assert mu[0] == pytest.approx(1.0)
        assert np.abs(fam.taper_matrix[0]) == pytest.approx(np.full(8, 8**-0.5))

    def test_periodogram_evaluates_to_scaled_transform(self):
        n = 16
        x = rng.standard_normal(n)
        freqs = rng.uniform(-0.5, 0.5, 9)
        vals = evaluate_quadratic(periodogram_quadratic(n), x, freqs)
        t = np.arange(1, n + 1)
        ref = np.array(
            [np.abs(np.sum(x * np.exp(-2j * np.pi * t * f))) ** 2 / n for f in freqs]
        )
        assert vals == pytest.approx(ref)

    def test_tapered_uniform_equals_periodogram(self):
        n = 10
        from mtsine import Taper

        q = tapered_quadratic(Taper(np.full(n, n**-0.5)))
        assert np.max(np.abs(q.matrix - periodogram_quadratic(n).matrix)) < 1e-15

    def test_tapered_unit_trace(self):
        q = tapered_quadratic(sinusoidal_taper(32, 1))
        assert np.trace(q.matrix) == pytest.approx(1.0)

    def test_split_cosine_rank_one(self):
        q = tapered_quadratic(split_cosine_taper(200, 0.2))
        mu, fam = quadratic_to_multitaper(q)
        assert fam.k_count == 1

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            QuadraticEstimator(np.array([[1.0, 0.5], [0.2, 1.0]]))


class TestKernelTransfer:
    @pytest.mark.parametrize("kernel,w", [(BOX, 0.1), (BOX, 0.5), (EPANECHNIKOV, 0.25)])
    def test_unit_mass_at_zero_lag(self, kernel, w):
        assert kernel_transfer(kernel, w, 0) == pytest.approx(1.0)

    def test_box_zero_crossing(self):
        assert kernel_transfer(BOX, 0.25, 2) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_parabolic_full_width_closed_form(self, m):
        expect = -6.0 * (-1.0) ** m / (2.0 * np.pi**2 * m**2)
        assert kernel_transfer(EPANECHNIKOV, 0.5, m) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("kernel,w,m", [
        (BOX, 0.17, 3),
        (EPANECHNIKOV, 0.17, 3),
        (EPANECHNIKOV, 0.01, 1),   # exercises the small-argument series
        (EPANECHNIKOV, 0.33, 11),
    ])
    def test_matches_quadrature(self, kernel, w, m):
        g = np.linspace(-w, w, 200001)
        ref = np.trapezoid(kernel.profile(g / w) / w * np.cos(2 * np.pi * m * g), g)
        assert kernel_transfer(kernel, w, m) == pytest.approx(ref, abs=1e-9)


class TestSmoothQuadratic:
    def test_diagonal_preserved(self):
        q = tapered_quadratic(split_cosine_taper(30, 0.4))
        sm = smooth_quadratic(q, BOX, 0.07)
        assert np.max(np.abs(np.diag(sm.matrix) - np.diag(q.matrix))) < 1e-15

    @pytest.mark.parametrize("n", [8, 50, 200])
    def test_parabolic_full_width_closed_matrix(self, n):
        sm = smooth_quadratic(periodogram_quadratic(n), EPANECHNIKOV, 0.5)
        assert np.max(np.abs(sm.matrix - appendix_matrix(n))) < 1e-12

    @pytest.mark.parametrize("n, w, k", [(50, 0.04, 3), (101, 0.03, 4), (200, 0.01, 3)])
    def test_box_smoothed_periodogram_is_slepian_concentration(self, n, w, k):
        # why Table 4 smooths with the parabolic kernel: box smoothing
        # turns the periodogram into the Slepian concentration matrix
        sm = smooth_quadratic(periodogram_quadratic(n), BOX, w)
        closed = concentration_matrix(n, w).to_dense() / (2.0 * w * n)
        assert np.max(np.abs(sm.matrix - closed)) < 1e-15
        _, fam = quadratic_to_multitaper(sm)
        slep = slepian_family(n, w, k).taper_matrix
        overlaps = np.abs(np.sum(fam.taper_matrix[:k] * slep, axis=1))
        assert np.min(overlaps) > 1.0 - 1e-8

    @pytest.mark.parametrize("n", [20, 50, 199, 200, 257, 1000])
    @pytest.mark.parametrize("kernel", [BOX, EPANECHNIKOV])
    def test_transfer_on_distinct_lags_matches_dense(self, n, kernel):
        # the transfer is evaluated once per lag 1-n..n-1, bit for bit the
        # product with the transfer over the whole n x n lag matrix
        q = tapered_quadratic(split_cosine_taper(n, 0.4))
        lags = np.subtract.outer(np.arange(n), np.arange(n))
        for w in (0.001, 0.01, 0.07, 0.3):
            dense = q.matrix * kernel_transfer(kernel, w, lags)
            assert np.array_equal(smooth_quadratic(q, kernel, w).matrix, dense)

    def test_closed_matrix_diagonal(self):
        n = 20
        sm = smooth_quadratic(periodogram_quadratic(n), EPANECHNIKOV, 0.5)
        assert np.diag(sm.matrix) == pytest.approx(np.full(n, 1.0 / n))


class TestDecomposition:
    def test_rank_one_recovery(self):
        t = split_cosine_taper(64, 0.3)
        mu, fam = quadratic_to_multitaper(tapered_quadratic(t))
        assert mu == pytest.approx([1.0])
        assert abs(fam.taper_matrix[0] @ t.values) == pytest.approx(1.0)

    def test_trace_identity(self):
        s = rng.standard_normal((24, 24))
        q = QuadraticEstimator((s + s.T) / 2.0)
        mu, _ = quadratic_to_multitaper(q, rank_tolerance=1e-14)
        assert mu.sum() == pytest.approx(np.trace(q.matrix), abs=1e-10)

    def test_reconstruction_error_bound(self):
        s = rng.standard_normal((20, 20))
        q = QuadraticEstimator((s + s.T) / 2.0)
        tol = 1e-3
        mu, fam = quadratic_to_multitaper(q, rank_tolerance=tol)
        rebuilt = (fam.taper_matrix.T * mu) @ fam.taper_matrix
        err = np.linalg.norm(q.matrix - rebuilt) / np.linalg.norm(q.matrix)
        assert err <= tol

    @pytest.mark.parametrize("n", [8, 50, 200])
    def test_smoothed_periodogram_yields_minimum_bias_tapers(self, n):
        sm = smooth_quadratic(periodogram_quadratic(n), EPANECHNIKOV, 0.5)
        _, fam = quadratic_to_multitaper(sm, rank_tolerance=1e-13)
        mb = minimum_bias_family(n, min(fam.k_count, n)).taper_matrix
        k = min(fam.k_count, n)
        overlaps = np.abs(np.sum(fam.taper_matrix[:k] * mb[:k], axis=1))
        assert np.min(overlaps) > 1.0 - 1e-8

    def test_round_trip_evaluation(self):
        # direct quadratic evaluation equals the weighted taper expansion
        n = 40
        x = rng.standard_normal(n)
        sm = smooth_quadratic(
            tapered_quadratic(split_cosine_taper(n, 0.25)), BOX, 0.05
        )
        mu, fam = quadratic_to_multitaper(sm, rank_tolerance=1e-13)
        freqs = rng.uniform(-0.5, 0.5, 64)
        direct = evaluate_quadratic(sm, x, freqs)
        t = np.arange(1, n + 1)
        phases = np.exp(-2j * np.pi * np.outer(freqs, t))
        tapered = np.abs(phases @ (fam.taper_matrix * x[None, :]).T) ** 2
        expanded = tapered @ mu
        assert np.max(np.abs(direct - expanded)) <= 1e-10 * np.max(np.abs(direct))

    def test_hybrid_cannot_beat_minimum_bias(self):
        # weighted local bias of any smoothed decomposition dominates the
        # matched weighted sum of the optimal eigenvalues
        n = 50
        a = local_bias_matrix(n).to_dense()
        lam = np.linalg.eigvalsh(a)
        for kernel, w in ((BOX, 0.05), (EPANECHNIKOV, 0.12), (EPANECHNIKOV, 0.5)):
            sm = smooth_quadratic(periodogram_quadratic(n), kernel, w)
            mu, fam = quadratic_to_multitaper(sm, rank_tolerance=1e-12)
            keep = mu > 0
            mu_k = mu[keep]
            u = fam.taper_matrix[keep]
            ours = float(mu_k @ np.einsum("ij,jk,ik->i", u, a, u))
            bound = float(mu_k @ lam[: mu_k.size])
            assert ours >= bound - 1e-12


class TestSplitCosine:
    def test_full_fraction_is_hann(self):
        n = 64
        t = split_cosine_taper(n, 1.0).values
        x = (np.arange(n) + 0.5) / n
        hann = np.sin(np.pi * x) ** 2
        hann /= np.linalg.norm(hann)
        assert np.max(np.abs(t - hann)) < 1e-12

    def test_tiny_fraction_is_uniform(self):
        n = 50
        t = split_cosine_taper(n, 1e-9).values
        assert np.max(np.abs(t - n**-0.5)) < 1e-12

    def test_shape(self):
        n = 200
        t = split_cosine_taper(n, 0.2).values
        ramp = int(0.1 * n)
        assert np.all(np.diff(t[: ramp - 1]) > 0)
        assert np.all(np.diff(t[n - ramp + 1:]) < 0)
        mid = t[ramp + 2: n - ramp - 2]
        assert np.max(mid) - np.min(mid) < 1e-12
        assert np.sum(t * t) == pytest.approx(1.0)

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            split_cosine_taper(10, 0.0)
        with pytest.raises(ValueError):
            split_cosine_taper(10, 1.5)


class TestTable4:
    def test_structure_and_weights(self):
        table = table4_experiment()
        assert table.column_labels == ("weight", "normalized_local_bias", "mb_bias_ratio")
        w = table.column("weight")
        assert np.all(np.diff(w) < 0)
        assert w.sum() <= 1.0 + 1e-12

    def test_first_ratio_at_least_one(self):
        table = table4_experiment()
        assert np.all(table.column("mb_bias_ratio") >= 1.0)
