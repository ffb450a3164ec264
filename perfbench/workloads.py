"""The benchmark's workloads: inputs, the call into mtsine, output checks.

Each workload issues operations of one kind in rounds. ``kinds`` lists
the operations of one round; every operation gets a fresh input drawn
from the run's seeded generator before it is timed. ``sizes`` ends with
the measured series length; the smaller ones feed the traced run's
scaling exponents. A check raises ``CheckError`` when an output differs
from what ``reference`` computes apart from mtsine, or breaks a property
the method must have. No check compares against stored output.
"""

from dataclasses import dataclass, field
import math
import os
import shutil
import tempfile

import numpy as np

import reference as ref

# AR(2) resonance: poles of radius 0.98 at f = 0.2 cycles per sample
AR2 = (2.0 * 0.98 * math.cos(2.0 * math.pi * 0.2), -0.98 * 0.98)


class CheckError(Exception):
    """An output that is not what the method must return."""


def require(ok, message):
    if not ok:
        raise CheckError(message)


def close(actual, expected, rtol, atol, what):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    require(actual.shape == expected.shape, f"{what}: shape {actual.shape} != {expected.shape}")
    err = np.abs(actual - expected)
    bad = err > rtol * np.abs(expected) + atol
    require(not bad.any(), f"{what}: worst deviation {err.max():.3e} "
            f"at {int(np.argmax(err))} (rtol {rtol}, atol {atol})")


@dataclass
class Op:
    kind: object
    n: int
    x: np.ndarray | None = None
    seed: int = 0
    workdir: str = ""
    extra: dict = field(default_factory=dict)


def half_grid(m):
    """Bins j = 0..m/2 of the grid j/m and their frequencies."""
    j = np.arange(m // 2 + 1)
    return j, j / m


def log_truth(kind, f):
    return np.log(ref.ar_spectrum(AR2, 1.0, f)) if kind == "ar" else np.zeros_like(f)


def mean_sq(a, b):
    return float(np.mean((a - b) ** 2))


def check_ar_residuals(x, coeffs, sigma2=1.0, z=6.0):
    """The residuals x_t - sum_j a_j x_(t-j) must look like the innovations.

    Their mean, their variance and their lag-1 correlation must lie
    within ``z`` standard errors of 0, ``sigma2`` and 0. A recursion
    with a coefficient of the wrong sign or in the wrong place leaves
    residuals with a much larger variance or a strong correlation.
    """
    p = len(coeffs)
    e = x[p:] - sum(a * x[p - j:x.size - j] for j, a in enumerate(coeffs, start=1))
    se = 1.0 / math.sqrt(e.size)
    mean, var = float(e.mean()), float(e.var())
    lag1 = float(np.dot(e[1:] - mean, e[:-1] - mean) / (e.size * var))
    require(abs(mean) <= z * se * math.sqrt(sigma2), f"AR residual mean {mean:.4f}")
    require(abs(var - sigma2) <= z * se * math.sqrt(2.0) * sigma2, f"AR residual variance {var:.4f}")
    require(abs(lag1) <= z * se, f"AR residual lag-1 correlation {lag1:.4f}")


def check_grid(est, n):
    m = est.grid.m
    require(m % (2 * (n + 1)) == 0 and m >= 2 * n, f"grid m={m} for n={n}")
    require(est.values.shape == (m,), "one value per grid bin")
    require(np.all(np.isfinite(est.values)), "non-finite estimate values")
    return m


class FixedK:
    """``sinusoidal_estimate_fast`` on AR(2) series with K = 16, 32, 64."""

    name = "fixed_k"
    sizes = (2**15, 2**16, 2**17)
    kinds = (16, 32, 64)
    min_rounds = 14
    ise_ceiling = 0.1
    bins_checked = 4

    def make_op(self, rng, kind, n, workdir=None):
        return Op(kind, n, ref.ar_series(rng, AR2, n))

    def call(self, mt, op):
        return mt.sinusoidal_estimate_fast(op.x, op.kind)

    def check(self, op, est, rng):
        m = check_grid(est, op.n)
        require(est.scale == "linear" and np.all(est.values >= 0), "linear, nonnegative")
        j = rng.integers(0, m, self.bins_checked)
        expect = ref.uniform_estimate_at(op.x, j / m, np.full(j.size, op.kind))
        close(est.values[j], expect, 1e-8, 1e-10 * est.values.mean(), "estimate bins")

    def log_ise(self, op, est):
        j, f = half_grid(est.grid.m)
        logs = np.log(est.values[j]) - ref.log_bias(op.kind)
        return mean_sq(logs, log_truth("ar", f))

    def finish(self, op):
        pass


class AdaptiveK(FixedK):
    """``two_stage_log_estimate`` in mode ``variable_k``, default config.

    One round is an AR(2) series and two white-noise series: the two
    processes differ in cost, and with this weighting the median and
    the tail both fall inside the white-noise group.
    """

    name = "adaptive_k"
    sizes = (2**11, 2**12, 2**13)
    kinds = ("ar", "white", "white")
    min_rounds = 14
    ise_ceiling = 0.1
    bins_checked = 8
    mode = "variable_k"

    def make_op(self, rng, kind, n, workdir=None):
        x = ref.ar_series(rng, AR2, n) if kind == "ar" else rng.standard_normal(n)
        return Op(kind, n, x)

    def call(self, mt, op):
        config = mt.AdaptiveConfig.default_for(op.n, mode=self.mode)
        op.extra["config"] = config
        return mt.two_stage_log_estimate(op.x, config)

    def check(self, op, est, rng):
        m = check_grid(est, op.n)
        cfg = op.extra["config"]
        require(est.scale == "log", "log scale")
        k = np.asarray(est.k_used)
        require(k.shape == (m,), "one taper count per bin")
        require(k.min() >= cfg.k_min and k.max() <= cfg.k_max,
                f"K profile [{k.min()}, {k.max()}] outside [{cfg.k_min}, {cfg.k_max}]")
        j = rng.integers(0, m, self.bins_checked)
        expect = np.log(ref.uniform_estimate_at(op.x, j / m, k[j])) - ref.log_bias(k[j])
        close(est.values[j], expect, 0.0, 1e-8, "variable-K log bins")

    def log_ise(self, op, est):
        j, f = half_grid(est.grid.m)
        return mean_sq(est.values[j], log_truth(op.kind, f))


class AdaptiveW(AdaptiveK):
    """``two_stage_log_estimate`` in mode ``variable_w`` on AR(2) series.

    White noise is left out: its halfwidths clamp to 1/4, which makes
    its operations several times cheaper and the cost mix bimodal.
    """

    name = "adaptive_w"
    sizes = (2**8, 2**9, 2**10)
    kinds = ("ar",)
    min_rounds = 100
    ise_ceiling = 0.5
    bins_checked = 8
    mode = "variable_w"

    def check(self, op, est, rng):
        m = check_grid(est, op.n)
        cfg = op.extra["config"]
        require(est.scale == "log" and est.w_used is not None, "log scale with halfwidths")
        half = np.rint(np.asarray(est.w_used) * m).astype(np.int64)
        require(half.min() >= 1 and half.max() <= m // 4, "halfwidth outside [1, m/4] bins")
        pilot = np.log(ref.uniform_estimate_grid(op.x, m, cfg.pilot_k)) - ref.log_bias(cfg.pilot_k)
        j = rng.integers(0, m, self.bins_checked)
        expect = [ref.parabolic_average(pilot, i, h) for i, h in zip(j, half[j])]
        close(est.values[j], expect, 0.0, 1e-8, "variable-w log bins")


class Cli:
    """One session of CLI commands through ``mtsine.cli.main`` on CSV files.

    Table 1 runs at lengths 20, 50 and 200: its default adds n = 800,
    which takes 0.9 s, three quarters of the session, and would leave
    fewer than 40 sessions in a run.
    """

    name = "cli"
    sizes = (2048,)
    kinds = ("session",)
    min_rounds = 40
    ise_ceiling = 0.3
    taper_n, taper_k, slepian_w, estimate_k = 200, 8, 0.02, 16
    table1_sizes = (20, 50, 200)

    def make_op(self, rng, kind, n, workdir=None):
        return Op(kind, n, seed=int(rng.integers(2**31)),
                  workdir=tempfile.mkdtemp(prefix="session-", dir=workdir))

    def path(self, op, name):
        return os.path.join(op.workdir, name)

    def argvs(self, op):
        p = lambda name: self.path(op, name)  # noqa: E731
        tn, tk = str(self.taper_n), str(self.taper_k)
        coeffs = ",".join(repr(a) for a in AR2)
        return [
            ["synth", "--model", "ar", "--coeffs", coeffs, "--n", str(op.n),
             "--seed", str(op.seed), "--out", p("x.csv"), "--truth-out", p("truth.csv")],
            ["estimate", "--input", p("x.csv"), "--k", str(self.estimate_k), "--out", p("est.csv")],
            ["adaptive", "--input", p("x.csv"), "--out", p("ad.csv")],
            ["compare", "--input", p("x.csv"), "--truth", p("truth.csv"), "--out", p("cmp.csv")],
            ["tapers", "--family", "sine", "--n", tn, "--k", tk, "--out", p("sine.csv")],
            ["tapers", "--family", "mb", "--n", tn, "--k", tk, "--out", p("mb.csv")],
            ["tapers", "--family", "slepian", "--n", tn, "--k", tk,
             "--w", repr(self.slepian_w), "--out", p("slepian.csv")],
            ["tables", "--which", "1", "--sizes", ",".join(map(str, self.table1_sizes)),
             "--out", p("t1.csv")],
            ["tables", "--which", "2", "--out", p("t2.csv")],
            ["tables", "--which", "3", "--out", p("t3.csv")],
            ["tables", "--which", "4", "--out", p("t4.csv")],
        ]

    def call(self, mt, op):
        op.extra["config"] = mt.AdaptiveConfig.default_for(op.n)
        return [mt.cli.main(argv) for argv in self.argvs(op)]

    def written_bytes(self, op):
        return sum(e.stat().st_size for e in os.scandir(op.workdir) if e.is_file())

    def check(self, op, codes, rng):
        require(codes == [0] * len(codes), f"exit codes {codes}")
        csv = lambda name: ref.read_csv(self.path(op, name))  # noqa: E731
        with open(self.path(op, "x.csv")) as fh:
            x = np.array([float(line) for line in fh])
        require(x.shape == (op.n,) and np.all(np.isfinite(x)), "synth series")
        check_ar_residuals(x, AR2)
        _, truth = csv("truth.csv")
        m = 2 * (truth.shape[0] - 1)  # rows cover the bins f = j/m in [0, 1/2]
        require(m % (2 * (op.n + 1)) == 0 and m >= 2 * op.n, f"grid m={m} for n={op.n}")
        require(np.allclose(truth[:, 0], np.arange(m // 2 + 1) / m, rtol=0, atol=1e-15),
                "truth frequencies")
        close(truth[:, 1], ref.ar_spectrum(AR2, 1.0, truth[:, 0]), 1e-10, 0.0, "truth CSV")

        _, est = csv("est.csv")
        require(est.shape == (m // 2 + 1, 2), "estimate rows")
        rows = rng.integers(0, est.shape[0], 4)
        expect = ref.uniform_estimate_at(x, est[rows, 0], np.full(4, self.estimate_k))
        close(est[rows, 1], expect, 1e-8, 1e-10 * est[:, 1].mean(), "estimate CSV")

        header, ad = csv("ad.csv")
        require(header == ["f", "value", "k_used"] and ad.shape[0] == m // 2 + 1, "adaptive CSV")
        k = ad[:, 2].astype(np.int64)
        cfg = op.extra["config"]
        require(k.min() >= cfg.k_min and k.max() <= cfg.k_max,
                f"K profile outside [{cfg.k_min}, {cfg.k_max}]")
        _, profile = csv("ad_profile.csv")
        close(profile[:, 1], k, 0.0, 0.0, "K profile sidecar")
        rows = rng.integers(0, ad.shape[0], 8)
        expect = np.log(ref.uniform_estimate_at(x, ad[rows, 0], k[rows])) - ref.log_bias(k[rows])
        close(ad[rows, 1], expect, 0.0, 1e-8, "adaptive CSV")

        # compare scores the whole grid; the estimates are even in f
        _, cmp = ref.read_cells(self.path(op, "cmp.csv"))
        require([c[:2] for c in cmp] == [["fixed_k", "4"], ["fixed_k", "16"],
                                          ["adaptive", "variable_k"]], "compare rows")
        f_full = np.fft.fftfreq(m)
        log_true = np.log(ref.ar_spectrum(AR2, 1.0, f_full))
        for kk, row in zip((4, 16), cmp):
            logs = np.log(ref.uniform_estimate_grid(x, m, kk)) - ref.log_bias(kk)
            close(float(row[2]), mean_sq(logs, log_true), 1e-8, 0.0, f"compare K={kk}")
        mirrored = np.concatenate([ad[:, 1], ad[-2:0:-1, 1]])
        close(float(cmp[2][2]), mean_sq(mirrored, np.log(ref.ar_spectrum(AR2, 1.0, np.abs(f_full)))),
              1e-8, 0.0, "compare adaptive")

        self.check_tapers(csv, rng)
        self.check_tables(csv)

    def check_tapers(self, csv, rng):
        n, kk = self.taper_n, self.taper_k
        a = ref.local_bias_matrix(n)
        cumulative = {}
        for family in ("sine", "mb", "slepian"):
            header, tab = csv(f"{family}.csv")
            require(header == ["n"] + [f"k={k}" for k in range(1, kk + 1)]
                    and tab.shape == (n, kk + 1), f"{family} taper CSV shape")
            v = tab[:, 1:]
            close(v.T @ v, np.eye(kk), 0.0, 1e-10, f"{family} orthonormality")
            if family == "sine":
                close(v.T, ref.sine_tapers(n, range(1, kk + 1)), 0.0, 1e-12, "sine closed form")
            _, win = csv(f"{family}_window.csv")
            rows = rng.integers(0, win.shape[0], 4)
            for k in range(kk):
                close(win[rows, k + 1], ref.window_power(v[:, k], win[rows, 0]),
                      1e-8, 1e-12, f"{family} window k={k + 1}")
            _, bias = csv(f"{family}_bias.csv")
            lam = np.einsum("tk,ts,sk->k", v, a, v)
            close(bias[:, 1], lam, 1e-8, 0.0, f"{family} local bias")
            close(bias[:, 2], 4.0 * (n + 1) ** 2 * lam, 1e-8, 0.0, f"{family} normalized bias")
            cumulative[family] = np.cumsum(lam)
        require(np.all(np.diff(cumulative["mb"]) > 0), "minimum-bias biases increase")
        for family in ("sine", "slepian"):
            require(np.all(cumulative["mb"] <= cumulative[family] * (1 + 1e-9)),
                    f"minimum-bias cumulative bias above {family}")

    def check_tables(self, csv):
        _, t1 = csv("t1.csv")
        require(list(t1[:, 0]) == list(self.table1_sizes), "table 1 sizes")
        close(t1[:, 1:], [ref.convergence_stats(n) for n in self.table1_sizes],
              1e-6, 0.0, "table 1")
        _, t2 = csv("t2.csv")
        require(np.all(t2[:, 1] <= t2[:, 2:].min(axis=1) * (1 + 1e-9)),
                "table 2: minimum-bias cumulative bias not the smallest")
        _, t3 = csv("t3.csv")
        c3 = np.cumsum(t3[:, 1:], axis=0)
        require(np.all(c3[:, 2] >= c3[:, :2].max(axis=1) - 1e-12),
                "table 3: Slepian cumulative concentration not the largest")
        _, t4 = csv("t4.csv")
        weight, bias, ratio = t4[:, 1], t4[:, 2], t4[:, 3]
        require(np.all(weight >= 0) and np.all(np.diff(weight) <= 0)
                and weight.sum() <= 1 + 1e-9, "table 4 weights")
        require(np.all(np.cumsum(bias) >= np.cumsum(bias / ratio) * (1 - 1e-9)),
                "table 4: cumulative bias below the minimum-bias bound")

    def log_ise(self, op, codes):
        _, ad = ref.read_csv(self.path(op, "ad.csv"))
        return mean_sq(ad[:, 1], log_truth("ar", ad[:, 0]))

    def finish(self, op):
        shutil.rmtree(op.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (FixedK(), AdaptiveK(), AdaptiveW(), Cli())}
