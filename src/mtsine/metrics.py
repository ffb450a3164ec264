"""Frequency-localization metrics and the family comparison tables.

Local bias and concentration are evaluated as exact quadratic forms
with the corresponding Toeplitz matrices, never by grid quadrature
(quadrature appears only as a cross-check in the tests).
"""

from dataclasses import dataclass

import numpy as np

from .tapers import (
    Taper,
    concentration_matrix,
    local_bias_matrix,
    minimum_bias_family,
    sinusoidal_family,
    slepian_family,
)


@dataclass(frozen=True)
class ComparisonTable:
    """Labeled numeric table, one row per taper count or taper index."""

    row_labels: tuple
    column_labels: tuple
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.shape != (len(self.row_labels), len(self.column_labels)):
            raise ValueError("table dimensions do not match the labels")
        if not np.all(np.isfinite(vals)):
            raise ValueError("table values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "row_labels", tuple(self.row_labels))
        object.__setattr__(self, "column_labels", tuple(self.column_labels))

    def column(self, label):
        return self.values[:, self.column_labels.index(label)]


def _values(taper):
    return taper.values if isinstance(taper, Taper) else Taper(taper).values


def local_bias(taper):
    """Frequency-squared energy of the taper's window over the Nyquist band."""
    v = _values(taper)
    return float(local_bias_matrix(v.shape[0]).quadratic_forms(v[None])[0])


def concentration(taper, w):
    """Fraction of window energy inside [-w, w]."""
    v = _values(taper)
    return float(concentration_matrix(v.shape[0], w).quadratic_forms(v[None])[0])


def bias_normalization(n):
    """Scale 4*(n+1)^2 that makes the k-th sinusoidal local bias ~ k^2."""
    return 4.0 * (n + 1) ** 2


def convergence_distances(n):
    """Worst-case scaled distances between sinusoidal and minimum-bias tapers.

    Returns ``(l2_stat, linf_stat)`` where each statistic is
    max over k of (n+2)/k times the distance between the k-th tapers,
    in the 2-norm for unit-norm tapers and in the sup norm after
    sup-normalizing each taper. Minimum-bias signs are aligned to
    minimize the 2-norm distance before measuring.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    sine = sinusoidal_family(n, n).taper_matrix
    mb = minimum_bias_family(n, n).taper_matrix
    flip = np.sum((sine - mb) ** 2, axis=1) > np.sum((sine + mb) ** 2, axis=1)
    mb = np.where(flip[:, None], -mb, mb)
    k = np.arange(1, n + 1)
    scale = (n + 2.0) / k
    l2 = scale * np.sqrt(np.sum((sine - mb) ** 2, axis=1))
    sine_sup = sine / np.max(np.abs(sine), axis=1, keepdims=True)
    mb_sup = mb / np.max(np.abs(mb), axis=1, keepdims=True)
    linf = scale * np.max(np.abs(sine_sup - mb_sup), axis=1)
    return float(l2.max()), float(linf.max())


def convergence_table(sizes=(20, 50, 200, 800)):
    """Scaled sinusoidal-to-minimum-bias distances for several lengths."""
    vals = np.array([convergence_distances(n) for n in sizes])
    return ComparisonTable(tuple(sizes), ("l2", "linf"), vals)


def bias_table(n, k_max, slepian_ws=(0.04, 0.08, 0.16)):
    """Cumulative normalized local bias per family and taper count.

    Row K holds 4*(n+1)^2 times the summed local biases of the first K
    tapers, for the minimum-bias, sinusoidal, and Slepian families.
    """
    if not 1 <= k_max <= n:
        raise ValueError(f"need 1 <= k_max <= n, got k_max={k_max}, n={n}")
    norm = bias_normalization(n)
    cols = {
        "minimum_bias": np.cumsum(minimum_bias_family(n, k_max).local_biases),
        "sinusoidal": np.cumsum(sinusoidal_family(n, k_max).local_biases),
    }
    for w in slepian_ws:
        cols[f"slepian_w={w:g}"] = np.cumsum(slepian_family(n, w, k_max).local_biases)
    labels = tuple(cols)
    vals = norm * np.column_stack([cols[c] for c in labels])
    return ComparisonTable(tuple(range(1, k_max + 1)), labels, vals)


def concentration_table(n, w, k_max):
    """Per-taper concentration in [-w, w] for the three families."""
    if not 1 <= k_max <= n:
        raise ValueError(f"need 1 <= k_max <= n, got k_max={k_max}, n={n}")
    b = concentration_matrix(n, w)
    rows = {
        label: b.quadratic_forms(fam.taper_matrix)
        for label, fam in (
            ("minimum_bias", minimum_bias_family(n, k_max)),
            ("sinusoidal", sinusoidal_family(n, k_max)),
            ("slepian", slepian_family(n, w, k_max)),
        )
    }
    labels = tuple(rows)
    vals = np.column_stack([rows[c] for c in labels])
    return ComparisonTable(tuple(range(1, k_max + 1)), labels, vals)
