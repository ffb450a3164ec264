"""Multitaper spectral estimation with minimum-bias and sinusoidal tapers.

The sinusoidal family has a closed form and collapses the K-taper
estimate into shifted differences of a single FFT; the minimum-bias
family minimizes the leading bias of smooth-spectrum estimation; both
are compared against Slepian tapers. On top sit kernel-smoothed
log-spectrum estimates and two-stage plug-in estimators that match the
local bandwidth (taper count or smoother halfwidth) to the estimated
curvature of the log spectrum.
"""

from .adaptive import (
    AdaptiveConfig,
    digamma,
    kernel_smooth,
    log_bias_b,
    log_multitaper,
    two_stage_log_estimate,
    w_opt,
)
from .estimator import (
    SpectralEstimate,
    WeightScheme,
    asymptotic_sinusoidal_loss,
    dft,
    expected_square_error,
    k_opt,
    make_weights,
    multitaper_estimate,
    sinusoidal_estimate_fast,
)
from .grid import FrequencyGrid, default_grid, window_grid
from .metrics import (
    ComparisonTable,
    bias_table,
    concentration,
    concentration_table,
    convergence_distances,
    convergence_table,
    local_bias,
)
from .quadratic import (
    QuadraticEstimator,
    evaluate_quadratic,
    kernel_transfer,
    periodogram_quadratic,
    quadratic_to_multitaper,
    smooth_quadratic,
    split_cosine_taper,
    table4_experiment,
    tapered_quadratic,
)
from .synth import ProcessSpec, generate, spectrum_at, true_log_curvature, true_spectrum
from .tapers import (
    SymmetricToeplitz,
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
)

# kept only for perfbench/run.py, which reports it as the backend
NUMBA_ENABLED = False

__all__ = [
    "NUMBA_ENABLED",
    "AdaptiveConfig",
    "ComparisonTable",
    "FrequencyGrid",
    "ProcessSpec",
    "QuadraticEstimator",
    "SpectralEstimate",
    "SymmetricToeplitz",
    "Taper",
    "TaperFamily",
    "WeightScheme",
    "asymptotic_sinusoidal_loss",
    "bias_table",
    "concentration",
    "concentration_matrix",
    "concentration_table",
    "continuous_mb_window",
    "convergence_distances",
    "convergence_table",
    "default_grid",
    "dft",
    "digamma",
    "evaluate_quadratic",
    "expected_square_error",
    "generate",
    "k_opt",
    "kernel_smooth",
    "kernel_transfer",
    "local_bias",
    "local_bias_matrix",
    "log_bias_b",
    "log_multitaper",
    "make_weights",
    "minimum_bias_family",
    "multitaper_estimate",
    "periodogram_quadratic",
    "quadratic_to_multitaper",
    "sinusoidal_estimate_fast",
    "sinusoidal_family",
    "sinusoidal_taper",
    "sinusoidal_window_closed",
    "slepian_family",
    "smooth_quadratic",
    "spectral_window",
    "spectrum_at",
    "split_cosine_taper",
    "table4_experiment",
    "tapered_quadratic",
    "true_log_curvature",
    "true_spectrum",
    "two_stage_log_estimate",
    "w_opt",
    "window_grid",
]
