import numpy as np
import pytest

from mtsine import _kernels


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Trigger JIT compilation once so timed tests measure the algorithms.

    Smoothing has no numba build, so only the shift combines and the AR
    recursion are warmed.
    """
    y = np.exp(2j * np.pi * np.arange(16) / 16)
    _kernels.combine_shifts(y, np.array([0.5, 0.5]), 1)
    _kernels.variable_k_combine(y, np.full(16, 2, dtype=np.int64), 1, 4.0, True)
    _kernels.variable_k_combine(y, np.full(16, 2, dtype=np.int64), 1, 4.0, False)
    _kernels.ar_recurse(np.arange(16.0), np.array([0.5]))
