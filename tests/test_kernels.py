"""Kernel checks: the smoother against a direct sum.

The shift combines and the AR recursion are pinned through their
callers (tests/test_adaptive.py, tests/test_estimator.py and
tests/test_synth.py).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mtsine import _kernels

rng = np.random.default_rng(91)


def direct_average(values, half_bins, scale, kernel_id):
    """O(m*h) reference: each bin's weighted window sum written out."""
    m = values.shape[0]
    scale = np.broadcast_to(np.asarray(scale, dtype=np.float64), (m,))
    out = np.empty(m)
    for i in range(m):
        j = np.arange(-half_bins[i], half_bins[i] + 1)
        w = np.ones(j.size) if kernel_id == 0 else 1.0 - (j / scale[i]) ** 2
        out[i] = w @ values[(i + j) % m] / w.sum()
    return out


def assert_close_to_direct(got, values, half_bins, scale, kernel_id):
    ref = direct_average(values, half_bins, scale, kernel_id)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(values))


class TestSmoother:
    @pytest.mark.parametrize("kernel_id", [0, 1])
    @pytest.mark.parametrize("m", [4100, 4101])
    def test_random_halfwidths(self, m, kernel_id):
        # the offset makes the cancellation of sums about a global origin show
        v = rng.standard_normal(m) - 5.0
        half = rng.integers(1, m // 4 + 1, size=m)
        got = _kernels.smooth_variable(v, half, kernel_id)
        assert_close_to_direct(got, v, half, half, kernel_id)

    @pytest.mark.parametrize("kernel_id", [0, 1])
    @pytest.mark.parametrize("m,scale", [(2050, 102.7), (2051, 1.5), (517, 258.5)])
    def test_fixed_halfwidth_with_fractional_scale(self, m, scale, kernel_id):
        v = rng.standard_normal(m) + 2.0
        got = _kernels.smooth_circular(v, scale, kernel_id)
        half = np.full(m, int(np.floor(scale)))
        assert_close_to_direct(got, v, half, scale, kernel_id)

    @pytest.mark.parametrize("kernel_id", [0, 1])
    @pytest.mark.parametrize("m", [96, 97])
    def test_windows_wrap_past_both_ends(self, m, kernel_id):
        # wide windows at the first and last bins, narrow ones between
        v = rng.standard_normal(m)
        half = np.full(m, 2)
        half[:3] = half[-3:] = [m // 2, m // 3, 7]
        got = _kernels.smooth_variable(v, half, kernel_id)
        assert_close_to_direct(got, v, half, half, kernel_id)

    def test_spike_spreads_around_the_circle(self):
        v = np.zeros(50)
        v[0] = 1.0
        got = _kernels.smooth_variable(v, np.full(50, 3), 0)
        expect = np.zeros(50)
        expect[[47, 48, 49, 0, 1, 2, 3]] = 1.0 / 7.0
        assert np.max(np.abs(got - expect)) < 1e-15

    def test_rejects_subgrid_halfwidth(self):
        with pytest.raises(ValueError, match="at least one grid bin"):
            _kernels.smooth_variable(np.zeros(8), np.array([1, 1, 0, 1, 1, 1, 1, 1]), 1)
        with pytest.raises(ValueError, match="at least one grid bin"):
            _kernels.smooth_circular(np.zeros(8), 0.9, 0)


finite = st.floats(-1e6, 1e6, allow_subnormal=False)


@st.composite
def signals_and_halfwidths(draw):
    m = draw(st.integers(2, 80))
    values = draw(hnp.arrays(np.float64, m, elements=finite))
    half = draw(hnp.arrays(np.int64, m, elements=st.integers(1, m)))
    return values, half


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 80),
    finite,
    st.integers(1, 80),
    st.sampled_from([0, 1]),
)
def test_constants_pass_through(m, level, half, kernel_id):
    out = _kernels.smooth_variable(np.full(m, level), np.full(m, half), kernel_id)
    assert np.max(np.abs(out - level)) <= 1e-12 * abs(level)


@settings(max_examples=60, deadline=None)
@given(signals_and_halfwidths(), st.sampled_from([0, 1]))
def test_variable_halfwidths_match_direct_sum(data, kernel_id):
    values, half = data
    got = _kernels.smooth_variable(values, half, kernel_id)
    assert_close_to_direct(got, values, half, half, kernel_id)


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(np.float64, st.integers(2, 80), elements=finite),
    st.floats(1.0, 40.0),
    st.sampled_from([0, 1]),
)
def test_fixed_scale_matches_direct_sum(values, scale, kernel_id):
    got = _kernels.smooth_circular(values, scale, kernel_id)
    half = np.full(values.shape[0], int(np.floor(scale)))
    assert_close_to_direct(got, values, half, scale, kernel_id)

