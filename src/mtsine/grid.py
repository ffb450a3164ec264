"""Frequency grids for estimates and window evaluation.

Frequencies are in cycles per sample and live on the circular grid
f_j = j/m, j = 0..m-1, wrapped to [-1/2, 1/2) in FFT order.
"""

from dataclasses import dataclass
from functools import cached_property
import math
import numbers
import operator

import numpy as np


def _own_array(value, name, ndim, dtype=np.float64, finite=True):
    """How a value type takes an array: set field ``name`` of the frozen ``value``
    to a private read-only C-contiguous ``dtype`` copy and return it, after
    checking ``ndim``, at least one entry and, if ``finite``, finite entries."""
    a = np.array(getattr(value, name), dtype=dtype, order="C")
    if a.ndim != ndim or a.size < 1:
        raise ValueError(f"{name} must be a nonempty {ndim}-d array")
    if finite and not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    a.flags.writeable = False
    object.__setattr__(value, name, a)
    return a


def _count(value, name, lo=1, hi=math.inf):
    """How a function takes a count: ``value`` as an ``int`` in [lo, hi]. Any
    integer type is accepted and no float is, not even 4.0; each refusal is a
    ``ValueError`` that names ``name``."""
    try:
        k = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not lo <= k <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {k}")
    return k


def _halfwidth(w, name="halfwidth w"):
    """How a function takes a halfwidth: ``w`` as a ``float`` in (0, 1/2]."""
    if not (isinstance(w, numbers.Real) and 0.0 < w <= 0.5):
        raise ValueError(f"{name} must be in (0, 1/2], got {w!r}")
    return float(w)


def _kernel(kind):
    """How a function takes a smoothing kernel: its kind, ``"box"`` or
    ``"parabolic"``, named like a weight kind; any other is refused."""
    if not (isinstance(kind, str) and kind in ("box", "parabolic")):
        raise ValueError(f"unknown kernel {kind!r}; use box or parabolic")
    return kind


def _weight_kind(kind):
    """How a function takes a taper weighting: its kind, ``"uniform"`` or
    ``"parabolic"``; any other, a :class:`~mtsine.WeightScheme` too, is refused."""
    if not (isinstance(kind, str) and kind in ("uniform", "parabolic")):
        raise ValueError(f"unknown weight kind {kind!r}; use uniform or parabolic")
    return kind


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform circular frequency grid with ``m`` points, ``m`` an integer."""

    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", _count(self.m, "grid size m", lo=2))

    @cached_property
    def frequencies(self):
        """Grid frequencies j/m wrapped to [-1/2, 1/2), FFT order."""
        f = np.fft.fftfreq(self.m)
        f.flags.writeable = False
        return f

    def shift_step(self, n):
        """Whole-bin step of the half-resolution offset 1/(2*(n+1)).

        The single-FFT sinusoidal path reads the transform at
        f +- j/(2*(n+1)); those offsets land on grid bins only when m is
        a multiple of 2*(n+1).
        """
        block = 2 * (_count(n, "n") + 1)
        if self.m % block != 0:
            raise ValueError(
                f"grid size m={self.m} must be a multiple of 2*(n+1)={block} "
                "for the fast sinusoidal path"
            )
        return self.m // block


def default_grid(n):
    """Estimation grid: the smallest multiple of 2*(n+1) that is >= 2n.

    Works out to roughly 4n points, so the fast path needs no
    interpolation and the grid resolves the estimate.
    """
    n = _count(n, "n")
    block = 2 * (n + 1)
    return FrequencyGrid(block * math.ceil(2 * n / (n + 1)))


def window_grid(n, oversample=16):
    """Dense grid for spectral-window evaluation (default 16n points)."""
    return FrequencyGrid(_count(oversample, "oversample") * _count(n, "n"))
