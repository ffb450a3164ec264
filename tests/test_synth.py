import numpy as np
import pytest

from mtsine import (
    FrequencyGrid,
    ProcessSpec,
    generate,
    spectrum_at,
    true_log_curvature,
    true_spectrum,
)

# captured from the implementation once and frozen; guards the RNG contract
GOLDEN_WHITE_8 = [
    0.6968831636412252,
    0.2669482093357646,
    -0.019237152603424356,
    -1.6229946338420507,
    -1.397459938960097,
    -0.12346370049301546,
    -1.5288067077512835,
    -0.3307538721383016,
]


class TestGenerate:
    def test_golden_vector(self):
        x = generate(ProcessSpec.white(1.0, seed=20260808), 8)
        assert x == pytest.approx(GOLDEN_WHITE_8, abs=1e-13)

    def test_deterministic(self):
        spec = ProcessSpec.ar((0.5, -0.2), 2.0, seed=99)
        assert np.array_equal(generate(spec, 500), generate(spec, 500))

    def test_zero_coefficient_ar_is_white(self):
        # ar() maps no or all-zero coefficients to the white spec itself, not only its draws
        white = ProcessSpec.white(1.0, seed=5)
        assert ProcessSpec.ar((0.0,), 1.0, seed=5) == white
        assert ProcessSpec.ar((), 1.0, seed=5, burn_in=7) == white
        a = generate(ProcessSpec.ar((0.0,), 1.0, seed=5), 64)
        b = generate(white, 64)
        assert np.array_equal(a, b)

    def test_white_variance(self):
        x = generate(ProcessSpec.white(4.0, seed=2), 100_000)
        assert x.var() == pytest.approx(4.0, abs=0.1)

    def test_unstable_rejected(self):
        # a root within 1e-12 of the unit circle counts as on it
        for coeffs in [(1.01,), (1.0,), (0.999999999999,), (-0.9999999999999,)]:
            with pytest.raises(ValueError, match="unstable autoregression"):
                ProcessSpec.ar(coeffs, 1.0)
        with pytest.raises(ValueError):
            ProcessSpec.ar2_resonance(1.0, 0.2)

    @pytest.mark.parametrize("coeffs", [(0.5, 1e-320), (1e-320,)])
    def test_tiny_last_coefficient_is_stable(self, coeffs):
        # the stability check must not divide by a subnormal a_p
        spec = ProcessSpec.ar(coeffs)
        assert spec.coeffs == coeffs
        assert np.all(np.isfinite(generate(spec, 64)))

    def test_resonance_poles(self):
        spec = ProcessSpec.ar2_resonance(0.98, 0.2)
        assert spec.coeffs[0] == pytest.approx(2 * 0.98 * np.cos(2 * np.pi * 0.2))
        assert spec.coeffs[1] == pytest.approx(-(0.98**2))


def yule_walker_variance(coeffs, sigma2):
    """Solve the autocovariance equations directly (independent oracle)."""
    p = len(coeffs)
    a = np.asarray(coeffs, dtype=np.float64)
    # unknowns gamma_0 .. gamma_p
    mat = np.zeros((p + 1, p + 1))
    rhs = np.zeros(p + 1)
    rhs[0] = sigma2
    for row in range(p + 1):
        mat[row, row] += 1.0
        for j, aj in enumerate(a, start=1):
            lag = abs(row - j)
            mat[row, lag] -= aj
    return float(np.linalg.solve(mat, rhs)[0])


class TestTrueSpectrum:
    def test_white_constant(self):
        est = true_spectrum(ProcessSpec.white(3.0, seed=0), FrequencyGrid(64))
        assert np.max(np.abs(est - 3.0)) == 0.0

    def test_ar1_peak(self):
        spec = ProcessSpec.ar((0.9,), 1.0)
        assert spectrum_at(spec, 0.0) == pytest.approx(100.0)

    @pytest.mark.parametrize("coeffs", [(0.9,), (0.5, -0.3), (0.6057, -0.8)])
    def test_integral_matches_yule_walker(self, coeffs):
        spec = ProcessSpec.ar(coeffs, 1.3)
        grid = FrequencyGrid(1 << 14)
        quad = true_spectrum(spec, grid).mean()
        assert quad == pytest.approx(yule_walker_variance(coeffs, 1.3), abs=1e-6)

    def test_sample_variance_tracks_spectrum_integral(self):
        spec = ProcessSpec.ar((0.6, -0.25), 1.0, seed=31)
        x = generate(spec, 200_000)
        expect = yule_walker_variance((0.6, -0.25), 1.0)
        assert x.var() == pytest.approx(expect, rel=0.03)


class TestTrueLogCurvature:
    def test_white_zero(self):
        prof = true_log_curvature(ProcessSpec.white(1.0, seed=0), FrequencyGrid(32))
        assert np.array_equal(prof, np.zeros(32))

    def test_ar1_negative_at_peak(self):
        prof = true_log_curvature(ProcessSpec.ar((0.9,), 1.0), FrequencyGrid(64))
        assert prof[0] < 0

    def test_overflow_raises_without_warning(self):
        # S(0) = 1e307 / 0.01^2 overflows; the suite turns warnings into errors
        with pytest.raises(FloatingPointError, match="curvature is not finite"):
            true_log_curvature(ProcessSpec.ar((0.99,), 1e307), FrequencyGrid(16))

    def test_matches_fine_differences(self):
        # 1e-6-step differences evaluated in extended precision so the
        # oracle's own round-off stays below the comparison tolerance
        spec = ProcessSpec.ar((0.5, -0.3), 1.0)
        grid = FrequencyGrid(128)
        prof = true_log_curvature(spec, grid)
        h = np.longdouble(1e-6)
        f = grid.frequencies.astype(np.longdouble)

        def log_s(ff):
            resp = np.ones(ff.shape, dtype=np.clongdouble)
            for j, a in enumerate(spec.coeffs, start=1):
                resp -= a * np.exp(-2j * np.pi * j * ff)
            return np.log(np.longdouble(spec.sigma2) / np.abs(resp) ** 2)

        ref = (log_s(f + h) - 2.0 * log_s(f) + log_s(f - h)) / h**2
        ref = ref.astype(np.float64)
        rel = np.abs(prof - ref) / np.maximum(np.abs(ref), 1.0)
        assert rel.max() < 1e-4
