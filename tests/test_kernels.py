"""Kernel checks: the smoother and the shift combines against direct sums,
and one home for the FFT.

The AR recursion and the chirp-z transform are pinned through their
callers (tests/test_estimator.py, tests/test_synth.py and
tests/test_tapers.py), and so are the combines' estimates
(tests/test_adaptive.py, tests/test_estimator.py).
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mtsine import FrequencyGrid, _kernels, dft

rng = np.random.default_rng(91)


def direct_average(values, half_bins, scale, parabolic):
    """O(m*h) reference: each bin's weighted window sum written out."""
    m = values.shape[0]
    scale = np.broadcast_to(np.asarray(scale, dtype=np.float64), (m,))
    out = np.empty(m)
    for i in range(m):
        j = np.arange(-half_bins[i], half_bins[i] + 1)
        w = 1.0 - (j / scale[i]) ** 2 if parabolic else np.ones(j.size)
        out[i] = w @ values[(i + j) % m] / w.sum()
    return out


def assert_close_to_direct(got, values, half_bins, scale, parabolic):
    ref = direct_average(values, half_bins, scale, parabolic)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(values))


class TestSmoother:
    @pytest.mark.parametrize("parabolic", [0, 1])
    @pytest.mark.parametrize("m", [4100, 4101])
    def test_random_halfwidths(self, m, parabolic):
        # the offset makes the cancellation of sums about a global origin show
        v = rng.standard_normal(m) - 5.0
        half = rng.integers(1, m // 4 + 1, size=m)
        got = _kernels.smooth_variable(v, half, parabolic)
        assert_close_to_direct(got, v, half, half, parabolic)

    @pytest.mark.parametrize("parabolic", [0, 1])
    @pytest.mark.parametrize("m,scale", [(2050, 102.7), (2051, 1.5), (517, 258.5)])
    def test_fixed_halfwidth_with_fractional_scale(self, m, scale, parabolic):
        v = rng.standard_normal(m) + 2.0
        got = _kernels.smooth_circular(v, scale, parabolic)
        half = np.full(m, int(np.floor(scale)))
        assert_close_to_direct(got, v, half, scale, parabolic)
        # the first bins alone, as the pilot smooths bins 0..m/2, bit for bit
        for count in (m // 2 + 1, 1):
            assert np.array_equal(_kernels.smooth_circular(v, scale, parabolic, count),
                                  got[:count])

    @pytest.mark.parametrize("parabolic", [0, 1])
    @pytest.mark.parametrize("m", [96, 97])
    def test_windows_wrap_past_both_ends(self, m, parabolic):
        # wide windows at the first and last bins, narrow ones between
        v = rng.standard_normal(m)
        half = np.full(m, 2)
        half[:3] = half[-3:] = [m // 2, m // 3, 7]
        got = _kernels.smooth_variable(v, half, parabolic)
        assert_close_to_direct(got, v, half, half, parabolic)

    @pytest.mark.parametrize("parabolic", [0, 1])
    @pytest.mark.parametrize("m", [4100, 4101])
    def test_first_bins_only(self, m, parabolic):
        # bins 0..m/2, as the variable-w estimate smooths them, and three
        # bins whose windows, wider than m/3, wrap past both ends
        v = rng.standard_normal(m) - 5.0
        half = rng.integers(1, m // 4 + 1, size=m)
        half[:3] = [m // 2, m // 3 + 1, m // 3 + 2]
        full = _kernels.smooth_variable(v, half, parabolic)
        ref = direct_average(v, half, half, parabolic)
        for count in (m // 2 + 1, 3):
            got = _kernels.smooth_variable(v, half[:count], parabolic)
            assert got.shape == (count,)
            assert np.array_equal(got, full[:count])
            assert np.max(np.abs(got - ref[:count])) <= 1e-12 * np.max(np.abs(v))

    def test_spike_spreads_around_the_circle(self):
        v = np.zeros(50)
        v[0] = 1.0
        got = _kernels.smooth_variable(v, np.full(50, 3), 0)
        expect = np.zeros(50)
        expect[[47, 48, 49, 0, 1, 2, 3]] = 1.0 / 7.0
        assert np.max(np.abs(got - expect)) < 1e-15

    @pytest.mark.parametrize("parabolic", [0, 1])
    @pytest.mark.parametrize("m", [97, 4100, 32772])
    def test_commutes_with_a_huge_scale(self, m, parabolic):
        # moments in units of the row size: a power of two moves no bit, and
        # c^2 * v stays as far from overflow as v (filterwarnings is "error")
        big = 2.0**1000
        v = rng.standard_normal(m)
        for scale in (0.1 * m, 0.5 * m):
            got = _kernels.smooth_circular(v * big, scale, parabolic)
            assert np.array_equal(got, _kernels.smooth_circular(v, scale, parabolic) * big)
        half = rng.integers(1, m // 4 + 1, size=m)
        got = _kernels.smooth_variable(v * big, half, parabolic)
        assert np.array_equal(got, _kernels.smooth_variable(v, half, parabolic) * big)

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
def test_constants_pass_through(m, level, half, parabolic):
    out = _kernels.smooth_variable(np.full(m, level), np.full(m, half), parabolic)
    assert np.max(np.abs(out - level)) <= 1e-12 * abs(level)


@settings(max_examples=60, deadline=None)
@given(signals_and_halfwidths(), st.sampled_from([0, 1]))
def test_variable_halfwidths_match_direct_sum(data, parabolic):
    values, half = data
    got = _kernels.smooth_variable(values, half, parabolic)
    assert_close_to_direct(got, values, half, half, parabolic)


@settings(max_examples=60, deadline=None)
@given(
    hnp.arrays(np.float64, st.integers(2, 80), elements=finite),
    st.floats(1.0, 40.0),
    st.sampled_from([0, 1]),
)
def test_fixed_scale_matches_direct_sum(values, scale, parabolic):
    got = _kernels.smooth_circular(values, scale, parabolic)
    half = np.full(values.shape[0], int(np.floor(scale)))
    assert_close_to_direct(got, values, half, scale, parabolic)


def direct_variable_k(y, k, step, n1, parabolic):
    """O(m*K) reference: every bin's weighted shift-pair sum on the full
    circular grid, in the combines' order of operations, over the sum of
    its weights: 1, or K^2 - j^2 for parabolic weights (1 at K = 1)."""
    m = y.shape[0]
    out = np.empty(m)
    for i in range(m):
        acc, total = 0.0, 0
        for j in range(1, k[i] + 1):
            d = y[(i + j * step) % m] - y[(i - j * step) % m]
            p = d.real * d.real
            p += d.imag * d.imag
            g = 1 if not parabolic or k[i] == 1 else k[i] * k[i] - j * j
            acc += p * g if parabolic else p
            total += g
        out[i] = acc / (2.0 * n1 * total)
    return out


class TestShiftCombines:
    """A single K or an even per-bin K is summed on bins 0..m/2 and mirrored,
    any other per-bin K on all m bins: bit for bit the direct sums over
    all m bins, a single K as the constant profile."""

    def transform(self, n, mult):
        grid = FrequencyGrid(2 * (n + 1) * mult)
        return dft(rng.standard_normal(n), grid), grid.shift_step(n)

    @staticmethod
    def hull_profiles(n, m):
        """Even profiles whose hulls (the bins of a block whose K reaches a
        shift) end on a block's first or last bin or hold bins that K
        does not reach, in one block of bins 0..m/2 or in blocks of 5."""
        i = np.arange(m // 2 + 1)
        halves = (
            np.where(i % 3 == 1, 1, n),  # dips to K = 1 inside a block
            # two humps of unequal height in one block of bins 0..m/2
            np.maximum(n - 3 * np.abs(i - i.size // 4), n // 2 - 3 * np.abs(i - 3 * i.size // 4)),
            np.where(i % 2 == 1, n, 1),  # two humps in every block of 4 or 5 bins
            np.linspace(n, 1, i.size),  # each block's largest K on its first bin
            np.linspace(1, n, i.size),  # ... and on its last bin
            np.where(i == i.size // 2, n, 1),  # K = 1 everywhere except one bin
        )
        return tuple(_kernels._mirror(np.maximum(np.rint(h), 1).astype(np.int64), m) for h in halves)

    @pytest.mark.parametrize("n", [7, 16, 64])
    @pytest.mark.parametrize("mult", [1, 2])  # 2: the default grid
    def test_fixed_k_matches_full_grid(self, n, mult):
        y, step = self.transform(n, mult)
        for k in sorted({1, 2, n // 3, n}):  # K = n: the shifts wrap past m/2
            for parabolic in (False, True):
                got = _kernels.combine_shifts(y, k, step, n + 1.0, parabolic)
                ref = direct_variable_k(y, np.full(y.shape[0], k), step, n + 1.0, parabolic)
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("n", [7, 16, 64])
    @pytest.mark.parametrize("parabolic", [False, True])
    def test_per_bin_k_matches_full_grid(self, n, parabolic):
        y, step = self.transform(n, 2)
        m = y.shape[0]
        k = rng.integers(1, n + 1, size=m)
        even = _kernels._mirror(k[: m // 2 + 1], m)
        pair = even.copy()
        pair[3] = pair[m - 3] % n + 1  # even but for bins 3 and m - 3
        edge = even.copy()
        edge[m // 2 + 1] = edge[m // 2 - 1] % n + 1  # even but for bins m/2 - 1 and m/2 + 1
        for prof in (even, k, pair, edge) + self.hull_profiles(n, m):
            got = _kernels.variable_k_combine(y, prof, step, n + 1.0, parabolic)
            ref = direct_variable_k(y, prof, step, n + 1.0, parabolic)
            assert np.array_equal(got, ref)


class TestShiftCombinesInSmallBlocks(TestShiftCombines):
    """The same oracle with blocks of at most 5 bins, so that the sums of
    bins 0..m/2, and of all m bins for a profile that is not even, cross
    block edges."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_SHIFT_BLOCK", 5)


def test_per_bin_combine_is_one_pass(monkeypatch):
    """An even profile sums bins 0..m/2 and mirrors them, any other sums all
    m bins: one call of the shift-sum primitive either way."""
    n, draw = 16, np.random.default_rng(16)
    grid = FrequencyGrid(4 * (n + 1))
    y, step, m = dft(draw.standard_normal(n), grid), grid.shift_step(n), grid.m
    bins, shift_sums = [], _kernels._shift_sums

    def counted(y, step, k, parabolic):
        bins.append(k.shape[0])
        return shift_sums(y, step, k, parabolic)

    monkeypatch.setattr(_kernels, "_shift_sums", counted)
    even = _kernels._mirror(draw.integers(1, n + 1, size=m // 2 + 1), m)
    uneven = even.copy()
    uneven[1] = uneven[m - 1] % n + 1  # even but for bins 1 and m - 1
    for prof in (even, uneven):
        _kernels.variable_k_combine(y, prof, step, n + 1.0, False)
    assert bins == [m // 2 + 1, m]


def direct_ar(e, a):
    """The AR recursion on numpy float64 scalars, one sample at a time."""
    x = np.empty(e.shape[0])
    for i in range(e.shape[0]):
        acc = e[i]
        for q in range(min(a.shape[0], i)):
            acc += a[q] * x[i - 1 - q]
        x[i] = acc
    return x


@pytest.mark.parametrize("n", [0, 3, 500])  # 3: shorter than p = 5
@pytest.mark.parametrize("coeffs", [[], [0.9], [0.6057, -0.9604], [0.5, -0.3, 0.2, 0.1, -0.05]])
def test_ar_recurse_matches_direct_recursion(n, coeffs):
    e = rng.standard_normal(n)
    a = np.array(coeffs, dtype=np.float64)
    x = _kernels.ar_recurse(e, a)
    assert x.dtype == np.float64 and x.shape == (n,)
    assert np.array_equal(x, direct_ar(e, a))


def _fft_calls(path):
    """Line numbers of the ``<...>.fft.fft(...)`` and ``<...>.fft.ifft(...)`` calls."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("fft", "ifft")
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "fft"
    ]


def test_fft_is_called_only_in_the_kernels():
    """Every transform goes through the one chirp-z transform in _kernels.py."""
    calls = {p.name: _fft_calls(p) for p in Path(_kernels.__file__).parent.glob("*.py")}
    assert calls.pop("_kernels.py")
    assert {name: lines for name, lines in calls.items() if lines} == {}
