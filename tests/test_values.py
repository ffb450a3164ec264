"""Value types own their arrays, and a grid size is an integer.

Every value type keeps a private read-only copy of each array it is
given: the caller's array stays writable, and a later write to it, or to
the buffer it views, does not reach the value.
"""

import numpy as np
import pytest

from mtsine import (
    ComparisonTable,
    FrequencyGrid,
    QuadraticEstimator,
    SpectralEstimate,
    SpectralWindow,
    SymmetricToeplitz,
    Taper,
    TaperFamily,
    WeightScheme,
    sinusoidal_estimate_fast,
    sinusoidal_family,
    sinusoidal_taper,
)

GRID = FrequencyGrid(8)
rng = np.random.default_rng(41)

# (make the value from the array, the field, a valid array for the field)
CASES = {
    "Taper.values": (Taper, "values", sinusoidal_taper(5, 2).values),
    "TaperFamily.taper_matrix": (
        TaperFamily, "taper_matrix", sinusoidal_family(6, 3).taper_matrix),
    "SymmetricToeplitz.first_row": (
        SymmetricToeplitz, "first_row", np.array([1.0, 0.5, 0.25])),
    "SpectralWindow.values": (
        lambda a: SpectralWindow(GRID, a), "values",
        rng.standard_normal(8) + 1j * rng.standard_normal(8)),
    "WeightScheme.weights": (WeightScheme, "weights", np.array([0.5, 0.5])),
    "SpectralEstimate.values": (
        lambda a: SpectralEstimate(GRID, a, 1), "values", rng.random(8)),
    "SpectralEstimate.k_used": (
        lambda a: SpectralEstimate(GRID, np.ones(8), a), "k_used",
        np.arange(1, 9, dtype=np.int64)),
    "SpectralEstimate.w_used": (
        lambda a: SpectralEstimate(GRID, np.zeros(8), 2, "log", a), "w_used",
        np.full(8, 0.125)),
    "ComparisonTable.values": (
        lambda a: ComparisonTable((1, 2), ("x", "y"), a), "values",
        np.array([[1.0, 2.0], [3.0, 4.0]])),
    "QuadraticEstimator.matrix": (
        QuadraticEstimator, "matrix", np.array([[2.0, 1.0], [1.0, 3.0]])),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
class TestValuesOwnTheirArrays:
    def test_callers_array_stays_writable_and_apart(self, case):
        make, name, good = case
        given = good.copy()
        field = getattr(make(given), name)
        assert given.flags.writeable
        given[...] = 7
        assert np.array_equal(field, good)

    def test_write_to_the_base_buffer_does_not_reach_the_value(self, case):
        make, name, good = case
        buffer = np.stack([good, good])
        field = getattr(make(buffer[0]), name)
        buffer[...] = 7
        assert np.array_equal(field, good)

    def test_field_is_read_only(self, case):
        make, name, good = case
        field = getattr(make(good.copy()), name)
        assert not field.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            field[...] = 7


class TestFrequencyGridSize:
    @pytest.mark.parametrize("m", [8196.0, 64.5, "64"])
    def test_rejects_a_size_that_is_not_an_integer(self, m):
        with pytest.raises(ValueError, match="grid size m must be an integer"):
            FrequencyGrid(m)

    def test_stores_a_numpy_integer_as_int(self):
        grid = FrequencyGrid(np.int64(64))
        assert grid.m == 64 and type(grid.m) is int

    def test_fast_estimate_on_a_numpy_integer_grid(self):
        x = rng.standard_normal(31)
        est = sinusoidal_estimate_fast(x, 4, grid=FrequencyGrid(np.int64(128)))
        assert np.array_equal(est.values, sinusoidal_estimate_fast(x, 4).values)
