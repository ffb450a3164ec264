"""One way a function takes a count or a halfwidth.

A count (a length, a taper count or index, a grid size, a seed) is an
integer: any integer type is accepted and gives the same result as the
``int``, and a float, even a whole one, or a string is refused with a
``ValueError`` that names the argument. A halfwidth lies in (0, 1/2].
Both rules live in ``grid.py`` and nowhere else. Every other argument
guard refuses its bad value with the error and message it documents.
"""

import ast
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

import mtsine
from mtsine import (
    BOX,
    EPANECHNIKOV,
    AdaptiveConfig,
    ComparisonTable,
    FrequencyGrid,
    ProcessSpec,
    QuadraticEstimator,
    SpectralEstimate,
    SpectralWindow,
    TaperFamily,
    WeightScheme,
    asymptotic_sinusoidal_loss,
    bias_table,
    concentration_table,
    continuous_mb_window,
    convergence_distances,
    default_grid,
    evaluate_quadratic,
    expected_square_error,
    generate,
    k_opt,
    kernel_by_name,
    kernel_smooth,
    kernel_transfer,
    local_bias_matrix,
    make_weights,
    minimum_bias_family,
    multitaper_estimate,
    periodogram_quadratic,
    sinusoidal_estimate_fast,
    sinusoidal_family,
    sinusoidal_taper,
    sinusoidal_window_closed,
    slepian_family,
    spectral_window,
    split_cosine_taper,
    w_opt,
    window_grid,
)
from mtsine.quadratic import table4_decomposition, tabulate_table4
from mtsine.tapers import concentration_matrix

TABLE4 = table4_decomposition(40)

# "function.argument": (call with the argument set to v, a valid value)
COUNTS = {
    "FrequencyGrid.m": (FrequencyGrid, 64),
    "FrequencyGrid.shift_step.n": (lambda v: FrequencyGrid(92).shift_step(v), 22),
    "default_grid.n": (default_grid, 10),
    "window_grid.n": (window_grid, 10),
    "window_grid.oversample": (lambda v: window_grid(10, v), 4),
    "local_bias_matrix.n": (local_bias_matrix, 6),
    "concentration_matrix.n": (lambda v: concentration_matrix(v, 0.1), 8),
    "sinusoidal_taper.n": (lambda v: sinusoidal_taper(v, 2), 8),
    "sinusoidal_taper.k": (lambda v: sinusoidal_taper(8, v), 2),
    "sinusoidal_window_closed.n": (lambda v: sinusoidal_window_closed(v, 2, 0.1), 8),
    "sinusoidal_window_closed.k": (lambda v: sinusoidal_window_closed(8, v, 0.1), 2),
    "continuous_mb_window.k": (lambda v: continuous_mb_window(v, 0.3), 2),
    "sinusoidal_family.n": (lambda v: sinusoidal_family(v, 2), 8),
    "sinusoidal_family.k_count": (lambda v: sinusoidal_family(8, v), 2),
    "minimum_bias_family.n": (lambda v: minimum_bias_family(v, 2), 8),
    "minimum_bias_family.k_count": (lambda v: minimum_bias_family(8, v), 2),
    "slepian_family.n": (lambda v: slepian_family(v, 0.1, 2), 8),
    "slepian_family.k_count": (lambda v: slepian_family(8, 0.1, v), 2),
    "make_weights.k_count": (lambda v: make_weights("uniform", v), 4),
    "make_weights.k_count-parabolic": (lambda v: make_weights("parabolic", v), 4),
    "asymptotic_sinusoidal_loss.n": (lambda v: asymptotic_sinusoidal_loss(1.0, 12.0, v, 6), 10),
    "asymptotic_sinusoidal_loss.k_count": (
        lambda v: asymptotic_sinusoidal_loss(1.0, 12.0, 10, v), 6),
    "k_opt.n": (lambda v: k_opt(1.0, 1.0, v), 100),
    "k_opt.k_min": (lambda v: k_opt(1.0, 1e9, 100, k_min=v), 5),
    "k_opt.k_max": (lambda v: k_opt(1.0, 1e-9, 100, k_max=v), 50),
    "w_opt.n": (lambda v: w_opt(300.0, v, 16), 2048),
    "w_opt.k_count": (lambda v: w_opt(300.0, 2048, v), 16),
    "AdaptiveConfig.default_for.n": (AdaptiveConfig.default_for, 64),
    "AdaptiveConfig.pilot_k": (lambda v: AdaptiveConfig(pilot_k=v, k_min=4, k_max=8), 6),
    "AdaptiveConfig.k_min": (lambda v: AdaptiveConfig(pilot_k=6, k_min=v, k_max=8), 4),
    "AdaptiveConfig.k_max": (lambda v: AdaptiveConfig(pilot_k=6, k_min=4, k_max=v), 8),
    "convergence_distances.n": (convergence_distances, 10),
    "bias_table.n": (lambda v: bias_table(v, 3), 8),
    "bias_table.k_max": (lambda v: bias_table(8, v), 3),
    "concentration_table.n": (lambda v: concentration_table(v, 0.1, 3), 8),
    "concentration_table.k_max": (lambda v: concentration_table(8, 0.1, v), 3),
    "periodogram_quadratic.n": (periodogram_quadratic, 5),
    "split_cosine_taper.n": (lambda v: split_cosine_taper(v, 0.2), 10),
    "tabulate_table4.k_rows": (lambda v: tabulate_table4(*TABLE4, v), 3),
    "ProcessSpec.seed": (lambda v: ProcessSpec.ar((0.5,), 1.0, v), 3),
    "ProcessSpec.burn_in": (lambda v: ProcessSpec.ar((0.5,), 1.0, 3, burn_in=v), 10),
    "generate.n": (lambda v: generate(ProcessSpec.ar((0.5,), 1.0, 3), v), 16),
}

HALFWIDTHS = {
    "concentration_matrix.w": lambda w: concentration_matrix(8, w),
    "slepian_family.w": lambda w: slepian_family(8, w, 2),
    "concentration_table.w": lambda w: concentration_table(8, w, 3),
    "kernel_smooth.w": lambda w: kernel_smooth(np.ones(64), EPANECHNIKOV, w, FrequencyGrid(64)),
    "kernel_transfer.w": lambda w: kernel_transfer(BOX, w, 3),
    "AdaptiveConfig.curvature_halfwidth": lambda w: AdaptiveConfig(
        pilot_k=6, curvature_halfwidth=w),
}

GRID8 = FrequencyGrid(8)
SINE4 = sinusoidal_family(4, 2)
UNIFORM2 = make_weights("uniform", 2)

# "function: what is wrong": (a call that is refused, its error, its message)
REFUSALS = {
    "kernel_by_name: unknown name": (
        lambda: kernel_by_name("gauss"), ValueError, "unknown kernel 'gauss'"),
    "kernel_smooth: values of the wrong length": (
        lambda: kernel_smooth(np.ones(7), EPANECHNIKOV, 0.25, GRID8),
        ValueError, "values must have one entry per grid bin"),
    "WeightScheme: negative weights": (
        lambda: WeightScheme(np.array([1.5, -0.5])),
        ValueError, "weights must be nonnegative, got -0.5"),
    "WeightScheme: weights that do not sum to one": (
        lambda: WeightScheme(np.full(2, 0.25)), ValueError, "weights must sum to one, got 0.5"),
    "make_weights: unknown kind": (
        lambda: make_weights("cosine", 2), ValueError, "unknown weight kind 'cosine'"),
    "SpectralEstimate: values of the wrong length": (
        lambda: SpectralEstimate(GRID8, np.ones(7), 1),
        ValueError, "values must have one entry per grid bin"),
    "SpectralEstimate: unknown scale": (
        lambda: SpectralEstimate(GRID8, np.ones(8), 1, scale="db"),
        ValueError, "unknown scale 'db'"),
    "SpectralEstimate: negative linear values": (
        lambda: SpectralEstimate(GRID8, -np.ones(8), 1),
        ValueError, "linear-scale spectral values must be nonnegative"),
    "multitaper_estimate: family that is not a TaperFamily": (
        lambda: multitaper_estimate(np.ones(4), SINE4.taper_matrix, UNIFORM2),
        TypeError, "family must be a TaperFamily"),
    "multitaper_estimate: family of the wrong length": (
        lambda: multitaper_estimate(np.ones(5), SINE4, UNIFORM2),
        ValueError, "family length 4 does not match series length 5"),
    "multitaper_estimate: grid with m < 2n": (
        lambda: multitaper_estimate(np.ones(4), SINE4, UNIFORM2, FrequencyGrid(7)),
        ValueError, "estimation grid must have m >= 2n, got m=7"),
    "sinusoidal_estimate_fast: K that is a string": (
        lambda: sinusoidal_estimate_fast(np.ones(4), "4"),
        ValueError, "a taper count K must be a whole number"),
    "sinusoidal_estimate_fast: per-bin K of strings": (
        lambda: sinusoidal_estimate_fast(np.ones(4), np.full(default_grid(4).m, "4")),
        ValueError, "a taper count K must be a whole number"),
    "sinusoidal_estimate_fast: weight count other than K": (
        lambda: sinusoidal_estimate_fast(np.ones(4), 3, UNIFORM2),
        ValueError, "2 weights for K=3 tapers"),
    "expected_square_error: wrong bias count": (
        lambda: expected_square_error(1.0, 1.0, UNIFORM2, [0.1]),
        ValueError, "one local bias per weight is required"),
    "k_opt: infinite level": (
        lambda: k_opt([1.0, math.inf], [1.0, math.inf], 64, 4, 16), ValueError,
        "spectral level must be finite, got inf"),
    "k_opt: nan curvature": (
        lambda: k_opt(1.0, math.nan, 100), ValueError, "curvature must not be nan"),
    "TaperFamily: more tapers than samples": (
        lambda: TaperFamily(np.eye(3)[:, :2]),
        ValueError, "cannot have more tapers than samples: K=3, n=2"),
    "SpectralWindow: values of the wrong length": (
        lambda: SpectralWindow(GRID8, np.ones(7)),
        ValueError, "values must have one entry per grid bin"),
    "spectral_window: grid shorter than the taper": (
        lambda: spectral_window(sinusoidal_taper(8, 1), FrequencyGrid(7)),
        ValueError, "grid size 7 must be at least the taper length"),
    "_own_array: wrong number of dimensions": (
        lambda: WeightScheme(np.full((2, 2), 0.25)),
        ValueError, "weights must be a nonempty 1-d array"),
    "ComparisonTable: values that do not match the labels": (
        lambda: ComparisonTable((1, 2), ("a",), np.ones((2, 2))),
        ValueError, "table dimensions do not match the labels"),
    "QuadraticEstimator: matrix that is not square": (
        lambda: QuadraticEstimator(np.ones((2, 3))),
        ValueError, "quadratic estimator must be a square matrix"),
    "evaluate_quadratic: series of the wrong length": (
        lambda: evaluate_quadratic(periodogram_quadratic(4), np.ones(5), 0.1),
        ValueError, "series length (5,) does not match order 4"),
    "ProcessSpec: nonpositive innovation variance": (
        lambda: ProcessSpec((), 0.0, 0),
        ValueError, "innovation variance must be finite and positive, got 0.0"),
    "ProcessSpec: non-finite AR coefficient": (
        lambda: ProcessSpec((0.5, math.nan), 1.0, 0),
        ValueError, "AR coefficients must be finite, got (0.5, nan)"),
}


def _argument(case_id):
    """The argument a case id names: the part after the last dot, no suffix."""
    return case_id.rpartition(".")[2].partition("-")[0]


def _same(a, b):
    """Equal values of equal types, field by field and entry by entry."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b, equal_nan=True)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("case_id", COUNTS)
class TestCounts:
    @pytest.mark.parametrize("bad", [4.5, 4.0, "4"])
    def test_refuses_a_count_that_is_not_an_integer(self, case_id, bad):
        call, _ = COUNTS[case_id]
        with pytest.raises(ValueError, match=rf"\b{_argument(case_id)}\b.*integer"):
            call(bad)

    def test_numpy_integer_gives_the_int_result(self, case_id):
        call, good = COUNTS[case_id]
        assert _same(call(np.int64(good)), call(good))


@pytest.mark.parametrize("case_id", HALFWIDTHS)
@pytest.mark.parametrize("bad", [0.0, 0.6, math.nan, -0.1])
def test_refuses_a_halfwidth_outside_the_half_band(case_id, bad):
    with pytest.raises(ValueError, match=rf"\b{_argument(case_id)}\b.*\(0, 1/2\]"):
        HALFWIDTHS[case_id](bad)


@pytest.mark.parametrize("case_id", REFUSALS)
def test_refuses_a_bad_argument(case_id):
    call, error, message = REFUSALS[case_id]
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_config_stores_ints_and_a_float():
    config = AdaptiveConfig(pilot_k=np.int64(6), k_min=np.int32(4), k_max=np.int64(8),
                            curvature_halfwidth=np.float32(0.25))
    assert [type(getattr(config, f)) for f in ("k_min", "pilot_k", "k_max")] == [int] * 3
    assert type(config.curvature_halfwidth) is float


def test_sine_taper_index_outside_one_to_n_stays_an_index_error():
    for call in (lambda k: sinusoidal_taper(4, k),
                 lambda k: sinusoidal_window_closed(4, k, 0.1)):
        for k in (0, 5, np.int64(-1)):
            with pytest.raises(IndexError):
                call(k)


def _calls_and_strings(path):
    """``operator.index`` call lines and the string constants of a module."""
    calls, strings = [], []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "index" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "operator"):
            calls.append(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.append(node.value)
    return calls, strings


def test_argument_rules_live_only_in_the_grid_module():
    """Counts go through ``grid._count`` and halfwidths through ``grid._halfwidth``."""
    found = {p.name: _calls_and_strings(p) for p in Path(mtsine.__file__).parent.glob("*.py")}
    calls, strings = found.pop("grid.py")
    assert calls and any("(0, 1/2]" in s for s in strings)
    assert {name: c for name, (c, _) in found.items() if c} == {}
    assert {name: [s for s in ss if "(0, 1/2]" in s]
            for name, (_, ss) in found.items() if any("(0, 1/2]" in s for s in ss)} == {}
