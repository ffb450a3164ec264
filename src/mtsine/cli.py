"""Command-line interface: estimation runs, table reproduction, synthesis.

All inputs are headerless CSV with one real per line; all outputs are
CSV (JSON for estimates with ``--json``). Exit codes: 0 on success, 2
for usage or input problems, 3 for numerical failures.
"""

import argparse
import json
import sys

import numpy as np

from .adaptive import AdaptiveConfig, kernel_by_name, log_multitaper, two_stage_log_estimate
from .estimator import as_series, make_weights, sinusoidal_estimate_fast
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


def _fmt(x):
    return repr(float(x))


def _write_rows(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(str(c) if isinstance(c, (int, str)) else _fmt(c) for c in row)
              for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _read_series(path):
    try:
        data = np.loadtxt(path, dtype=np.float64, ndmin=1)
    except OSError as exc:
        raise OSError(f"cannot read input {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"input {path} is not one finite decimal per line: {exc}") from exc
    return as_series(data)


def _sidecar(path, suffix):
    stem, dot, ext = path.rpartition(".")
    if not dot:
        return f"{path}_{suffix}.csv"
    return f"{stem}_{suffix}.{ext}"


def _half_grid_rows(grid, values, extra=None):
    idx = grid.nonnegative_indices()
    f = np.abs(grid.frequencies[idx])
    f[-1] = 0.5  # the wrapped -1/2 bin reports as the Nyquist edge
    for pos, i in enumerate(idx):
        row = [_fmt(f[pos]), _fmt(values[i])]
        if extra is not None:
            row.append(str(int(extra[i])) if float(extra[i]).is_integer() else _fmt(extra[i]))
        yield row


def _table_rows(table, row_header):
    yield [row_header] + [str(c) for c in table.column_labels]
    for label, row in zip(table.row_labels, table.values):
        yield [str(label)] + [_fmt(v) for v in row]


def cmd_tapers(args):
    if args.family == "slepian" and args.w is None:
        raise ValueError("slepian tapers need --w")
    if args.family == "sine":
        family = sinusoidal_family(args.n, args.k)
    elif args.family == "mb":
        family = minimum_bias_family(args.n, args.k)
    else:
        family = slepian_family(args.n, args.w, args.k)
    header = ["n"] + [f"k={k}" for k in range(1, family.k_count + 1)]
    rows = (
        [str(t + 1)] + [_fmt(v) for v in family.taper_matrix[:, t]]
        for t in range(family.n)
    )
    _write_rows(args.out, header, rows)
    if args.out is None:
        return 0
    grid = window_grid(args.n, args.window_oversample)
    windows = [spectral_window(t, grid).power for t in family.tapers]
    idx = grid.nonnegative_indices()
    f = np.abs(grid.frequencies[idx])
    f[-1] = 0.5
    _write_rows(
        _sidecar(args.out, "window"),
        ["f"] + [f"k={k}" for k in range(1, family.k_count + 1)],
        ([_fmt(f[pos])] + [_fmt(wv[i]) for wv in windows] for pos, i in enumerate(idx)),
    )
    norm = bias_normalization(args.n)
    _write_rows(
        _sidecar(args.out, "bias"),
        ["k", "local_bias", "normalized_bias"],
        ([str(k + 1), _fmt(lam), _fmt(norm * lam)]
         for k, lam in enumerate(family.local_biases)),
    )
    return 0


def _grid_for(args, n):
    return default_grid(n) if args.grid_size is None else FrequencyGrid(args.grid_size)


def cmd_estimate(args):
    x = _read_series(args.input)
    grid = _grid_for(args, x.shape[0])
    weights = make_weights(args.weights, args.k)
    est = sinusoidal_estimate_fast(x, args.k, weights, grid)
    if args.json:
        idx = grid.nonnegative_indices()
        f = np.abs(grid.frequencies[idx])
        f[-1] = 0.5
        payload = est.metadata()
        payload["f"] = [float(v) for v in f]
        payload["value"] = [float(est.values[i]) for i in idx]
        text = json.dumps(payload, sort_keys=True) + "\n"
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w") as fh:
                fh.write(text)
        return 0
    _write_rows(args.out, ["f", "value"], _half_grid_rows(grid, est.values))
    return 0


def cmd_adaptive(args):
    x = _read_series(args.input)
    n = x.shape[0]
    grid = _grid_for(args, n)
    base = AdaptiveConfig.default_for(n, mode=args.mode)

    def pick(flag, default):
        return default if flag is None else flag

    config = AdaptiveConfig(
        pilot_k=pick(args.pilot_k, base.pilot_k),
        k_min=pick(args.k_min, base.k_min),
        k_max=pick(args.k_max, base.k_max),
        curvature_halfwidth=pick(args.curvature_halfwidth, base.curvature_halfwidth),
        mode=args.mode,
        kernel=kernel_by_name(args.kernel),
        log_correction=args.correction,
    )
    est = two_stage_log_estimate(x, config, grid)
    k_col = est.k_used if isinstance(est.k_used, np.ndarray) else None
    _write_rows(args.out, ["f", "value"] + (["k_used"] if k_col is not None else []),
                _half_grid_rows(grid, est.values, k_col))
    profile = est.w_used if est.w_used is not None else est.k_used
    name = "w" if est.w_used is not None else "k"
    _write_rows(
        _sidecar(args.out, "profile"),
        ["f", name],
        _half_grid_rows(grid, np.asarray(profile, dtype=np.float64)),
    )
    return 0


# series length per table when --n is not given
TABLE_N = {2: 50, 3: 50, 4: 200}


def cmd_tables(args):
    n = TABLE_N.get(args.which) if args.n is None else args.n
    if args.which == 1:
        sizes = [int(s) for s in args.sizes.split(",")]
        table = convergence_table(sizes)
        rows = _table_rows(table, "n")
    elif args.which == 2:
        ws = [float(w) for w in args.slepian_ws.split(",")]
        table = bias_table(n, args.k_max, ws)
        rows = _table_rows(table, "K")
    elif args.which == 3:
        table = concentration_table(n, args.w, args.k_max)
        rows = _table_rows(table, "k")
    else:
        weights, fam = table4_decomposition(n, args.taper_fraction, w=args.kernel_w)
        table = tabulate_table4(weights, fam)
        rows = _table_rows(table, "k")
        if args.vectors_out:
            k_cols = min(fam.k_count, len(table.row_labels))
            _write_rows(
                args.vectors_out,
                ["n"] + [f"k={k}" for k in range(1, k_cols + 1)],
                ([str(t + 1)] + [_fmt(v) for v in fam.taper_matrix[:k_cols, t]]
                 for t in range(fam.n)),
            )
    header = next(rows)
    _write_rows(args.out, header, rows)
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
    text = "\n".join(_fmt(v) for v in x) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.truth_out:
        grid = _grid_for(args, args.n)
        truth = true_spectrum(spec, grid)
        _write_rows(args.truth_out, ["f", "value"], _half_grid_rows(grid, truth.values))
    return 0


def _read_truth(path, grid):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    f, v = data[:, 0], data[:, 1]
    order = np.argsort(f)
    return np.interp(np.abs(grid.frequencies), f[order], v[order])


def cmd_compare(args):
    x = _read_series(args.input)
    grid = _grid_for(args, x.shape[0])
    log_truth = None
    if args.truth:
        log_truth = np.log(_read_truth(args.truth, grid))

    def ise(values):
        if log_truth is None:
            return ""
        return _fmt(float(np.mean((values - log_truth) ** 2)))

    rows = []
    for k in [int(s) for s in args.ks.split(",") if s]:
        est = log_multitaper(x, k, grid=grid)
        rows.append(["fixed_k", str(k), ise(est.values)])
    for mode in [m for m in args.adaptive.split(",") if m]:
        config = AdaptiveConfig.default_for(x.shape[0], mode=mode)
        est = two_stage_log_estimate(x, config, grid)
        rows.append(["adaptive", mode, ise(est.values)])
    _write_rows(args.out, ["method", "param", "integrated_sq_log_error"], rows)
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
    p.set_defaults(func=cmd_tapers)

    p = sub.add_parser("estimate", help="fixed-K sinusoidal multitaper estimate")
    p.add_argument("--input", required=True, help="series CSV, one sample per line")
    p.add_argument("--k", type=int, required=True, help="number of tapers")
    p.add_argument("--weights", default="uniform", choices=["uniform", "parabolic"])
    p.add_argument("--grid-size", type=int, help="grid points (multiple of 2(n+1); "
                   "default ~4n)")
    p.add_argument("--json", action="store_true", help="emit JSON with metadata")
    p.add_argument("--out")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("adaptive", help="two-stage adaptive log-spectrum estimate")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", default="variable_k",
                   choices=["variable_k", "variable_w"])
    p.add_argument("--pilot-k", type=int)
    p.add_argument("--k-min", type=int)
    p.add_argument("--k-max", type=int)
    p.add_argument("--curvature-halfwidth", type=float)
    p.add_argument("--kernel", default="parabolic", choices=["box", "parabolic"])
    p.add_argument("--correction", default="full", choices=["full", "per_taper"])
    p.add_argument("--grid-size", type=int)
    p.add_argument("--out", required=True,
                   help="estimate CSV; the K or w profile lands in *_profile.csv")
    p.set_defaults(func=cmd_adaptive)

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
    p.set_defaults(func=cmd_tables)

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
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("compare", help="score estimators against a known spectrum")
    p.add_argument("--input", required=True)
    p.add_argument("--truth", help="spectrum CSV (f,value) for the error column")
    p.add_argument("--ks", default="4,16", help="fixed taper counts to score")
    p.add_argument("--adaptive", default="variable_k",
                   help="adaptive modes to score (comma list, may be empty)")
    p.add_argument("--grid-size", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except MemoryError as exc:
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
