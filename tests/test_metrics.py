import numpy as np
import pytest

from mtsine import (
    Taper,
    bias_table,
    concentration,
    concentration_table,
    convergence_distances,
    local_bias,
    local_bias_matrix,
    make_weights,
    minimum_bias_family,
    sinusoidal_taper,
)

rng = np.random.default_rng(17)


class TestLocalBias:
    def test_sinusoidal_first(self):
        val = local_bias(sinusoidal_taper(50, 1))
        assert 4 * 51**2 * val == pytest.approx(1.0116, abs=5e-4)

    def test_minimum_bias_first(self):
        fam = minimum_bias_family(50, 1)
        val = local_bias(fam.taper_matrix[0])
        assert 4 * 51**2 * val == pytest.approx(1.0095, abs=5e-4)

    def test_uniform_two_sample(self):
        val = local_bias(Taper(np.full(2, 2**-0.5)))
        assert val == pytest.approx(1.0 / 12.0 - 1.0 / (2.0 * np.pi**2))


class TestConcentration:
    def test_full_band(self):
        v = rng.standard_normal(24)
        v /= np.linalg.norm(v)
        assert concentration(Taper(v), 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_sinusoidal_transition(self):
        assert concentration(sinusoidal_taper(50, 8), 0.08) == pytest.approx(
            0.6247, abs=5e-4
        )

    def test_minimum_bias_in_band(self):
        fam = minimum_bias_family(50, 5)
        assert concentration(fam.taper_matrix[4], 0.08) == pytest.approx(0.9888, abs=5e-4)

    def test_range_check(self):
        with pytest.raises(ValueError):
            concentration(sinusoidal_taper(10, 1), 0.7)


class TestConvergenceDistances:
    @pytest.mark.parametrize(
        "n,l2,linf",
        [(20, 0.24750, 0.4602), (50, 0.24844, 0.4760), (200, 0.24852, 0.4829)],
    )
    def test_reference_rows(self, n, l2, linf):
        got_l2, got_linf = convergence_distances(n)
        assert got_l2 == pytest.approx(l2, abs=1e-3)
        assert got_linf == pytest.approx(linf, abs=2e-3)


class TestBiasTable:
    def test_reference_cells(self):
        table = bias_table(50, 10)
        assert table.column("sinusoidal")[2] == pytest.approx(14.1622, abs=0.01)
        assert table.column("slepian_w=0.04")[4] == pytest.approx(154.4818, abs=0.5)
        assert table.column("minimum_bias")[0] == pytest.approx(1.0095, abs=1e-3)

    def test_cumulative_monotone(self):
        table = bias_table(30, 8, slepian_ws=(0.1,))
        for label in table.column_labels:
            assert np.all(np.diff(table.column(label)) > 0)


class TestConcentrationTable:
    def test_reference_cells(self):
        table = concentration_table(50, 0.08, 10)
        assert table.column("minimum_bias")[8] == pytest.approx(0.1688, abs=1e-3)
        assert table.column("slepian")[9] == pytest.approx(0.0628, abs=1e-3)

    def test_full_band_all_ones(self):
        table = concentration_table(20, 0.5, 6)
        assert np.max(np.abs(table.values - 1.0)) < 1e-9

    def test_slepian_dominates_minimum_bias_in_band(self):
        # within k <= 2nw the slepian concentration tops the minimum-bias
        # one up to table precision (the k = 7 entries cross by under 1e-4)
        table = concentration_table(50, 0.08, 8)
        slep = table.column("slepian")
        assert np.all(slep + 1e-3 >= table.column("minimum_bias"))


class TestOptimalityBound:
    def test_random_families_cannot_beat_minimum_bias(self):
        # Fan-type lower bound with nonincreasing weights
        n, k = 50, 5
        a = local_bias_matrix(n).to_dense()
        lam = minimum_bias_family(n, k).local_biases
        mu = make_weights("parabolic", k).weights
        best = float(mu @ lam)
        for _ in range(100):
            q, _ = np.linalg.qr(rng.standard_normal((n, k)))
            u = q.T
            loss = float(mu @ np.einsum("ij,jk,ik->i", u, a, u))
            assert loss >= best - 1e-12

    def test_eigenvalues_strictly_increase(self):
        lam = minimum_bias_family(60, 60).local_biases
        assert np.all(np.diff(lam) > 0)
