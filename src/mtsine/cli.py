"""Command-line interface: estimation runs, table reproduction, synthesis.

All inputs are headerless CSV with one real per line; all outputs are
CSV (JSON for estimates with ``--json``). A float cell is the shortest
decimal that reads back to the same float64; counts and indices are
integers. Exit codes:
0 on success, 2 for usage or input problems (``synth`` rejects a
non-finite ``--sigma2`` or ``--coeffs``), 3 for numerical failures,
including an output value that would be ``inf`` or ``nan``: then that
file is not written. :func:`main` may run many times in one process: it
builds its parser once and keeps the last grid's frequency text.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys
import warnings

import numpy as np

from .adaptive import AdaptiveConfig, kernel_by_name, log_multitaper, two_stage_log_estimate
from .estimator import as_series, sinusoidal_estimate_fast
from .grid import FrequencyGrid, default_grid, window_grid
from .metrics import (
    bias_normalization,
    bias_table,
    concentration_table,
    convergence_table,
)
from .quadratic import table4_decomposition, tabulate_table4
from .synth import ProcessSpec, generate, true_spectrum
from .tapers import minimum_bias_family, sinusoidal_family, slepian_family, spectral_window

USAGE_ERROR = 2
NUMERIC_ERROR = 3


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_csv(path, header, columns):
    """Write equal-length 1-d columns as CSV, under ``header`` unless it is None.

    This is the one place numbers become text. A float column is written as
    ``repr`` of each float64, the shortest decimal that reads back to the
    same value; any other column (counts, indices, labels) as ``str``; a
    tuple of str is ready text, written as it is. A float column holding
    ``inf`` or ``nan`` raises ``FloatingPointError`` before the file is
    opened.
    """
    cells = []
    for i, col in enumerate(columns):
        if isinstance(col, tuple) and isinstance(col[0], str):
            cells.append(col)
            continue
        col = np.asarray(col)
        if col.dtype.kind == "f":
            if not np.all(np.isfinite(col)):
                name = header[i] if header else "series"
                raise FloatingPointError(
                    f"column {name} of {path or 'stdout'} would hold inf or nan")
            cells.append(map(repr, col.tolist()))
        else:
            cells.append(map(str, col.tolist()))
    lines = [] if header is None else [",".join(header)]
    lines += map(",".join, zip(*cells, strict=True))
    _write_text(path, "\n".join(lines) + "\n")


def _load_csv(path, what, layout, **kwargs):
    """``np.loadtxt`` with errors that name the file; a file without rows is
    reported as such rather than through numpy's "no data" warning."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, dtype=np.float64, **kwargs)
    except OSError as exc:
        raise OSError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{what} {path} is not {layout}: {exc}") from exc
    if data.shape[0] == 0:
        raise ValueError(f"{what} {path} holds no data rows")
    return data


def _read_series(path):
    return as_series(_load_csv(path, "input", "one finite decimal per line", ndmin=1))


def _sidecar(path, suffix):
    stem, ext = os.path.splitext(path)
    return f"{stem}_{suffix}{ext or '.csv'}"


def _half_grid(grid):
    """Indices of the bins in [0, 1/2] and their frequencies."""
    idx = np.arange(grid.m // 2 + 1)
    f = np.abs(grid.frequencies[idx])
    if grid.m % 2 == 0:
        f[-1] = 0.5  # the wrapped -1/2 bin reports as the Nyquist edge
    return idx, f


@functools.lru_cache(maxsize=1)
def _frequency_text(m):
    """``repr`` of each frequency :func:`_half_grid` gives on the m-point grid.

    Kept for the last m only, as a tuple of str: about 38 bytes per grid
    bin (0.31 MB at m = 8,196, 9.9 MB at m = 262,148), never the grid's
    own m floats. Every half-grid file on that grid reuses it.
    """
    return tuple(map(repr, _half_grid(FrequencyGrid(m))[1].tolist()))


def _write_half_grid(path, grid, names, columns):
    """The spectral layout: ``f`` over [0, 1/2], then each column at those bins."""
    half = grid.m // 2 + 1
    _write_csv(path, ["f", *names], [_frequency_text(grid.m), *(c[:half] for c in columns)])


def _k_labels(k_count):
    return [f"k={k}" for k in range(1, k_count + 1)]


def _write_tapers(path, taper_matrix):
    """The taper layout: sample index ``n``, then one taper per column."""
    k_count, n = taper_matrix.shape
    _write_csv(path, ["n", *_k_labels(k_count)], [np.arange(1, n + 1), *taper_matrix])


def cmd_tapers(args):
    if args.family == "slepian" and args.w is None:
        raise ValueError("slepian tapers need --w")
    if args.family == "sine":
        family = sinusoidal_family(args.n, args.k)
    elif args.family == "mb":
        family = minimum_bias_family(args.n, args.k)
    else:
        family = slepian_family(args.n, args.w, args.k)
    grid = window_grid(args.n, args.window_oversample)
    _write_tapers(args.out, family.taper_matrix)
    if args.out is None:
        return 0
    windows = [spectral_window(t, grid).power for t in family.tapers]
    _write_half_grid(_sidecar(args.out, "window"), grid, _k_labels(family.k_count), windows)
    _write_csv(
        _sidecar(args.out, "bias"),
        ["k", "local_bias", "normalized_bias"],
        [np.arange(1, family.k_count + 1), family.local_biases,
         bias_normalization(args.n) * family.local_biases],
    )
    return 0


def _grid_for(args, n):
    return default_grid(n) if args.grid_size is None else FrequencyGrid(args.grid_size)


def cmd_estimate(args):
    x = _read_series(args.input)
    grid = _grid_for(args, x.shape[0])
    est = sinusoidal_estimate_fast(x, args.k, args.weights, grid)
    if args.json:
        idx, f = _half_grid(grid)
        payload = est.metadata()
        payload["f"] = f.tolist()
        payload["value"] = est.values[idx].tolist()
        _write_text(args.out, json.dumps(payload, sort_keys=True) + "\n")
        return 0
    _write_half_grid(args.out, grid, ["value"], [est.values])
    return 0


def cmd_adaptive(args):
    x = _read_series(args.input)
    n = x.shape[0]
    grid = _grid_for(args, n)
    flags = ("pilot_k", "k_min", "k_max", "curvature_halfwidth")
    config = dataclasses.replace(
        AdaptiveConfig.default_for(n, mode=args.mode),
        kernel=kernel_by_name(args.kernel),
        **{f: getattr(args, f) for f in flags if getattr(args, f) is not None},
    )
    est = two_stage_log_estimate(x, config, grid)
    if est.w_used is None:  # variable_k: one taper count per bin
        _write_half_grid(args.out, grid, ["value", "k_used"], [est.values, est.k_used])
        name, profile = "k", est.k_used
    else:
        _write_half_grid(args.out, grid, ["value"], [est.values])
        name, profile = "w", est.w_used
    _write_half_grid(_sidecar(args.out, "profile"), grid, [name], [profile])
    return 0


# series length per table when --n is not given
TABLE_N = {2: 50, 3: 50, 4: 200}


def cmd_tables(args):
    n = TABLE_N.get(args.which) if args.n is None else args.n
    if args.which == 1:
        sizes = [int(s) for s in args.sizes.split(",")]
        table, row_header = convergence_table(sizes), "n"
    elif args.which == 2:
        ws = [float(w) for w in args.slepian_ws.split(",")]
        table, row_header = bias_table(n, args.k_max, ws), "K"
    elif args.which == 3:
        table, row_header = concentration_table(n, args.w, args.k_max), "k"
    else:
        weights, fam = table4_decomposition(n, args.taper_fraction, w=args.kernel_w)
        table, row_header = tabulate_table4(weights, fam), "k"
        if args.vectors_out:
            _write_tapers(args.vectors_out, fam.taper_matrix[:len(table.row_labels)])
    _write_csv(args.out, [row_header, *map(str, table.column_labels)],
               [table.row_labels, *table.values.T])
    return 0


def cmd_synth(args):
    coeffs = [float(a) for a in args.coeffs.split(",")] if args.coeffs else []
    if args.model == "white":
        if coeffs:
            raise ValueError("white noise takes no --coeffs")
        spec = ProcessSpec.white(args.sigma2, args.seed)
    else:
        spec = ProcessSpec.ar(coeffs, args.sigma2, args.seed, burn_in=args.burn_in)
    x = generate(spec, args.n)
    truth = true_spectrum(spec, _grid_for(args, args.n)) if args.truth_out else None
    _write_csv(args.out, None, [x])  # both made first: a failure leaves no file
    if truth is not None:
        _write_half_grid(args.truth_out, truth.grid, ["value"], [truth.values])
    return 0


def _read_truth(path, grid):
    data = _load_csv(path, "truth", "f,value rows of decimals",
                     delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 2:
        raise ValueError(f"truth {path} has {data.shape[1]} columns, not f,value")
    f, v = data[:, 0], data[:, 1]
    if not (np.all(np.isfinite(data)) and np.all(v > 0)):
        raise ValueError(f"truth {path} must hold finite frequencies and positive finite values")
    order = np.argsort(f)
    return np.interp(np.abs(grid.frequencies), f[order], v[order])


def cmd_compare(args):
    x = _read_series(args.input)
    grid = _grid_for(args, x.shape[0])
    log_truth = None
    if args.truth:
        log_truth = np.log(_read_truth(args.truth, grid))
    methods, params, scores = [], [], []

    def score(method, param, est):
        methods.append(method)
        params.append(param)
        scores.append("" if log_truth is None else np.mean((est.values - log_truth) ** 2))

    for k in [int(s) for s in args.ks.split(",") if s]:
        score("fixed_k", str(k), log_multitaper(x, k, grid=grid))
    for mode in [m for m in args.adaptive.split(",") if m]:
        config = AdaptiveConfig.default_for(x.shape[0], mode=mode)
        score("adaptive", mode, two_stage_log_estimate(x, config, grid))
    _write_csv(args.out, ["method", "param", "integrated_sq_log_error"],
               [methods, params, scores])
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mtsine",
        description="Multitaper spectral estimation with sinusoidal and "
        "minimum-bias tapers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tapers", help="write a taper family as CSV columns")
    p.add_argument("--family", required=True, choices=["sine", "mb", "slepian"])
    p.add_argument("--n", type=int, required=True, help="taper length in samples")
    p.add_argument("--k", type=int, required=True, help="number of tapers")
    p.add_argument("--w", type=float, help="slepian concentration halfwidth")
    p.add_argument("--window-oversample", type=int, default=16,
                   help="window grid density, points per sample (default 16)")
    p.add_argument("--out", help="output CSV; companions *_window.csv and "
                   "*_bias.csv are written next to it")

    p = sub.add_parser("estimate", help="fixed-K sinusoidal multitaper estimate")
    p.add_argument("--input", required=True, help="series CSV, one sample per line")
    p.add_argument("--k", type=int, required=True, help="number of tapers")
    p.add_argument("--weights", default="uniform", choices=["uniform", "parabolic"])
    p.add_argument("--grid-size", type=int, help="grid points (multiple of 2(n+1); "
                   "default ~4n)")
    p.add_argument("--json", action="store_true", help="emit JSON with metadata")
    p.add_argument("--out")

    p = sub.add_parser("adaptive", help="two-stage adaptive log-spectrum estimate")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", default="variable_k",
                   choices=["variable_k", "variable_w"])
    p.add_argument("--pilot-k", type=int)
    p.add_argument("--k-min", type=int)
    p.add_argument("--k-max", type=int)
    p.add_argument("--curvature-halfwidth", type=float)
    p.add_argument("--kernel", default="parabolic", choices=["box", "parabolic"])
    p.add_argument("--grid-size", type=int)
    p.add_argument("--out", required=True,
                   help="estimate CSV; the K or w profile lands in *_profile.csv")

    p = sub.add_parser("tables", help="reproduce the comparison tables")
    p.add_argument("--which", type=int, required=True, choices=[1, 2, 3, 4])
    p.add_argument("--n", type=int,
                   help="series length (default 50 for tables 2 and 3, 200 for table 4)")
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--w", type=float, default=0.08, help="table 3 halfwidth")
    p.add_argument("--slepian-ws", default="0.04,0.08,0.16",
                   help="table 2 slepian halfwidths")
    p.add_argument("--sizes", default="20,50,200,800", help="table 1 lengths")
    p.add_argument("--taper-fraction", type=float, default=0.2,
                   help="table 4 split-cosine fraction")
    p.add_argument("--kernel-w", type=float, default=0.01,
                   help="table 4 parabolic-kernel halfwidth")
    p.add_argument("--vectors-out",
                   help="table 4 only: also dump the leading eigenvectors")
    p.add_argument("--out")

    p = sub.add_parser("synth", help="generate a synthetic series")
    p.add_argument("--model", required=True, choices=["white", "ar"])
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--coeffs", default="", help="AR coefficients a1,a2,...")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burn-in", type=int, default=1000)
    p.add_argument("--grid-size", type=int)
    p.add_argument("--truth-out", help="also write the exact spectrum CSV")
    p.add_argument("--out")

    p = sub.add_parser("compare", help="score estimators against a known spectrum")
    p.add_argument("--input", required=True)
    p.add_argument("--truth", help="spectrum CSV (f,value) for the error column")
    p.add_argument("--ks", default="4,16", help="fixed taper counts to score")
    p.add_argument("--adaptive", default="variable_k",
                   help="adaptive modes to score (comma list, may be empty)")
    p.add_argument("--grid-size", type=int)
    p.add_argument("--out")
    return parser


@functools.cache
def _parser():
    """The one parser :func:`main` uses, built on its first call."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        # looked up at call time, so a wrapper set on cli.cmd_* later still runs
        return globals()[f"cmd_{args.command}"](args)
    # LinAlgError subclasses ValueError, so the numerical clause comes first
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except (ValueError, OSError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
