import contextlib
import dataclasses
import io
import json
import math
import os
from pathlib import Path
import re
import subprocess
import sys
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
import numpy as np
import pytest

from mtsine import (
    BOX,
    AdaptiveConfig,
    ProcessSpec,
    cli,
    default_grid,
    generate,
    make_weights,
    sinusoidal_estimate_fast,
    sinusoidal_family,
    sinusoidal_taper,
    sinusoidal_window_closed,
    spectral_window,
    table4_experiment,
    true_spectrum,
    two_stage_log_estimate,
    window_grid,
)
from mtsine.cli import main
from mtsine.metrics import bias_normalization


def run(argv):
    return main([str(a) for a in argv])


def series_text(x):
    return "".join(f"{v!r}\n" for v in x.tolist())


# a resonance at n = 256; scaled by 1e-162, its pilot estimate underflows
# to zero power at most bins
RESONANCE = generate(ProcessSpec.ar2_resonance(0.98, 0.2, seed=3), 256)
UNDERFLOWING_TEXT = series_text(1e-162 * RESONANCE)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestSynthEstimateRoundTrip:
    def test_round_trip_row_count(self, tmp_path):
        series = tmp_path / "x.csv"
        out = tmp_path / "est.csv"
        assert run(["synth", "--model", "white", "--n", "256", "--seed", "4",
                    "--out", series]) == 0
        assert run(["estimate", "--input", series, "--k", "8", "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["f", "value"]
        m = 2 * 257 * 2
        assert len(rows) == m // 2 + 1
        f = np.array([float(r[0]) for r in rows])
        assert f[0] == 0.0 and f[-1] == 0.5
        assert np.all(np.diff(f) > 0)
        vals = np.array([float(r[1]) for r in rows])
        assert np.all(vals >= 0)

    def test_impulse_single_taper_is_flat(self, tmp_path):
        series = tmp_path / "imp.csv"
        series.write_text("1.0\n" + "0.0\n" * 31)
        out = tmp_path / "est.csv"
        assert run(["estimate", "--input", series, "--k", "1", "--out", out]) == 0
        _, rows = read_csv(out)
        vals = np.array([float(r[1]) for r in rows])
        assert np.max(np.abs(vals - vals[0])) < 1e-12 * vals[0]

    def test_json_output(self, tmp_path):
        series = tmp_path / "x.csv"
        run(["synth", "--model", "white", "--n", "64", "--seed", "1", "--out", series])
        out = tmp_path / "est.json"
        assert run(["estimate", "--input", series, "--k", "4", "--json",
                    "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["k_used"] == 4
        assert payload["weights"] == "uniform"
        assert payload["scale"] == "linear"
        assert len(payload["f"]) == len(payload["value"])


class TestExitCodes:
    def test_missing_input(self, tmp_path, capsys):
        assert run(["estimate", "--input", tmp_path / "nope.csv", "--k", "4"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_flag_value(self, tmp_path):
        series = tmp_path / "x.csv"
        run(["synth", "--model", "white", "--n", "32", "--out", series])
        assert run(["estimate", "--input", series, "--k", "0"]) == 2

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["estimate", "--nonsense"])
        assert exc.value.code == 2

    def test_malformed_input(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0\nnot-a-number\n")
        assert run(["estimate", "--input", bad, "--k", "2"]) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["", "\n\n"], ids=["empty", "blank_lines"])
    def test_empty_input_exits_two_without_warning(self, tmp_path, capsys, text):
        empty = tmp_path / "empty.csv"
        empty.write_text(text)
        assert run(["estimate", "--input", empty, "--k", "2"]) == 2
        err = capsys.readouterr().err
        assert "empty.csv holds no data rows" in err
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_estimate_exits_three(self, tmp_path, capsys):
        # any numpy warning on the way would raise here instead of exiting 3
        series = tmp_path / "x.csv"
        series.write_text("0.5\n" * 100 + "1e300\n" + "-0.25\n" * 155)
        out = tmp_path / "est.csv"
        code = run(["estimate", "--input", series, "--k", "4", "--out", out])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "RuntimeWarning" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [0.0, 1e-200], ids=["zeros", "underflow"])
    def test_non_finite_score_exits_three(self, tmp_path, capsys, scale):
        # the estimate of this series is 0, so its log error against the truth is inf
        series, truth = tmp_path / "x.csv", tmp_path / "truth.csv"
        assert run(["synth", "--model", "white", "--n", "64", "--seed", "2",
                    "--out", series, "--truth-out", truth]) == 0
        series.write_text("".join(f"{v!r}\n" for v in (np.loadtxt(series) * scale).tolist()))
        out = tmp_path / "cmp.csv"
        assert run(["compare", "--input", series, "--truth", truth, "--adaptive", "",
                    "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_white_noise_with_coefficients_exits_two(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run(["synth", "--model", "white", "--coeffs", "0.5", "--n", "16",
                    "--out", out]) == 2
        assert "white noise takes no --coeffs" in capsys.readouterr().err
        assert not out.exists()

    def test_k_max_above_series_length_exits_two(self, tmp_path, capsys):
        series, out = tmp_path / "x.csv", tmp_path / "ad.csv"
        assert run(["synth", "--model", "white", "--n", "64", "--out", series]) == 0
        assert run(["adaptive", "--input", series, "--k-max", "65", "--out", out]) == 2
        assert "k_max=65 exceeds series length 64" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,what", [
        (["tapers", "--family", "mb", "--n", "40", "--k", "4"], "40x40 local-bias matrix"),
        (["tapers", "--family", "slepian", "--n", "40", "--k", "4", "--w", "0.05"],
         "order-40 Slepian tridiagonal operator"),
        (["tables", "--which", "4", "--n", "40"], "order-40 estimator"),
    ], ids=["mb", "slepian", "table4"])
    def test_failed_eigensolve_exits_three(self, tmp_path, capsys, monkeypatch, argv, what):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        assert run(argv + ["--out", tmp_path / "out.csv"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: eigendecomposition of the {what} failed")
        assert os.listdir(tmp_path) == []

    def test_memory_error_exits_three(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 24.3 GiB")

        monkeypatch.setattr(cli, "two_stage_log_estimate", no_memory)
        series = tmp_path / "x.csv"
        run(["synth", "--model", "white", "--n", "64", "--out", series])
        assert run(["adaptive", "--input", series, "--out", tmp_path / "ad.csv"]) == 3
        assert "out of memory" in capsys.readouterr().err


class TestStandardOutput:
    """Without --out a command writes to standard output the bytes it writes
    to the --out file; tapers then writes no companion files."""

    @pytest.mark.parametrize("argv", [
        ["synth", "--model", "ar", "--coeffs", "0.5", "--n", "64", "--seed", "3"],
        ["estimate", "--input", "x.csv", "--k", "4"],
        ["estimate", "--input", "x.csv", "--k", "4", "--json"],
        ["tapers", "--family", "sine", "--n", "16", "--k", "3"],
        ["tables", "--which", "1", "--sizes", "20"],
    ], ids=["synth", "estimate", "estimate_json", "tapers", "tables"])
    def test_stdout_equals_out_file(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert run(["synth", "--model", "white", "--n", "64", "--out", "x.csv"]) == 0
        assert run(argv) == 0
        printed = capsys.readouterr().out
        assert sorted(os.listdir(tmp_path)) == ["x.csv"]
        assert run(argv + ["--out", "out.csv"]) == 0
        assert printed.encode() == (tmp_path / "out.csv").read_bytes()


class TestSidecarNames:
    """An --out path without an extension gets companions named
    ``<path>_<suffix>.csv``; a dot in a directory name is not an extension."""

    def test_adaptive(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["synth", "--model", "white", "--n", "64", "--out", "x.csv"]) == 0
        assert run(["adaptive", "--input", "x.csv", "--out", "ad"]) == 0
        assert sorted(os.listdir(tmp_path)) == ["ad", "ad_profile.csv", "x.csv"]
        assert read_csv(tmp_path / "ad_profile.csv")[0] == ["f", "k"]

    def test_tapers(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["tapers", "--family", "sine", "--n", "16", "--k", "3", "--out", "t"]) == 0
        assert sorted(os.listdir(tmp_path)) == ["t", "t_bias.csv", "t_window.csv"]

    def test_adaptive_in_dotted_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        os.mkdir("run.v2")
        assert run(["synth", "--model", "white", "--n", "64", "--out", "x.csv"]) == 0
        assert run(["adaptive", "--input", "x.csv", "--out", "run.v2/est"]) == 0
        assert sorted(os.listdir("run.v2")) == ["est", "est_profile.csv"]

    def test_tapers_in_dotted_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        os.mkdir("run.v2")
        argv = ["tapers", "--family", "sine", "--n", "16", "--k", "3", "--out", "run.v2/t"]
        assert run(argv) == 0
        assert sorted(os.listdir("run.v2")) == ["t", "t_bias.csv", "t_window.csv"]


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--model", "ar", "--coeffs", "0.6,-0.2", "--n", "512",
                "--seed", "77"]
        run(args + ["--out", a])
        run(args + ["--out", b])
        assert a.read_bytes() == b.read_bytes()
        ea, eb = tmp_path / "ea.csv", tmp_path / "eb.csv"
        run(["estimate", "--input", a, "--k", "6", "--out", ea])
        run(["estimate", "--input", b, "--k", "6", "--out", eb])
        assert ea.read_bytes() == eb.read_bytes()


class TestSynthCommand:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "flags",
        [
            ["--model", "white", "--sigma2", "nan"],
            ["--model", "white", "--sigma2", "inf"],
            ["--model", "white", "--sigma2", "-1"],
            ["--model", "ar", "--coeffs", "nan,0.1"],
        ],
        ids=["sigma2_nan", "sigma2_inf", "sigma2_negative", "coeff_nan"],
    )
    def test_rejects_non_finite_parameters(self, tmp_path, capsys, flags):
        out, truth = tmp_path / "x.csv", tmp_path / "truth.csv"
        assert run(["synth", *flags, "--n", "3", "--out", out, "--truth-out", truth]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err and err.count("\n") == 1
        assert not out.exists() and not truth.exists()

    def test_odd_grid_ends_below_nyquist(self, tmp_path):
        # on m = 9 points the last half-grid bin is f = 4/9, not 1/2
        truth = tmp_path / "t.csv"
        assert run(["synth", "--model", "ar", "--coeffs", "0.5", "--n", "8",
                    "--grid-size", "9", "--out", tmp_path / "x.csv",
                    "--truth-out", truth]) == 0
        _, rows = read_csv(truth)
        f, value = map(float, rows[-1])
        assert len(rows) == 5 and f == pytest.approx(4 / 9, rel=1e-15)
        assert value == pytest.approx(1 / abs(1 - 0.5 * np.exp(-8j * np.pi / 9)) ** 2, rel=1e-12)


def assert_float_cells(cells, expected):
    """Each cell is the shortest decimal of exactly the expected float64."""
    expected = np.asarray(expected, dtype=np.float64)
    assert len(cells) == expected.size
    assert np.array_equal(np.array([float(c) for c in cells]), expected)
    assert all(c == repr(float(c)) for c in cells)


def assert_int_cells(cells, expected):
    assert list(cells) == [str(int(v)) for v in expected]


class TestCsvFormat:
    """Every float cell reads back to the library's float64 exactly; counts
    and indices are integer literals."""

    coeffs, n, seed = (0.605673, -0.9604), 300, 8

    @pytest.fixture
    def series(self, tmp_path):
        path, truth = tmp_path / "x.csv", tmp_path / "truth.csv"
        assert run(["synth", "--model", "ar", "--coeffs", ",".join(map(repr, self.coeffs)),
                    "--n", self.n, "--seed", self.seed, "--out", path,
                    "--truth-out", truth]) == 0
        return path, truth

    def half_grid(self):
        return cli._half_grid(default_grid(self.n))

    def test_synth(self, series):
        path, truth = series
        spec = ProcessSpec.ar(self.coeffs, 1.0, self.seed)
        assert_float_cells(path.read_text().split(), generate(spec, self.n))
        header, rows = read_csv(truth)
        assert header == ["f", "value"]
        idx, f = self.half_grid()
        f_cells, v_cells = zip(*rows)
        assert_float_cells(f_cells, f)
        assert_float_cells(v_cells, true_spectrum(spec, default_grid(self.n)).values[idx])

    def test_estimate(self, series, tmp_path):
        path, _ = series
        out = tmp_path / "est.csv"
        assert run(["estimate", "--input", path, "--k", "6", "--weights", "parabolic",
                    "--out", out]) == 0
        x = np.loadtxt(path)
        est = sinusoidal_estimate_fast(x, 6, make_weights("parabolic", 6), default_grid(self.n))
        idx, f = self.half_grid()
        f_cells, v_cells = zip(*read_csv(out)[1])
        assert_float_cells(f_cells, f)
        assert_float_cells(v_cells, est.values[idx])

    @pytest.mark.parametrize("mode", ["variable_k", "variable_w"])
    def test_adaptive(self, series, tmp_path, mode):
        path, _ = series
        out = tmp_path / "ad.csv"
        assert run(["adaptive", "--input", path, "--mode", mode, "--out", out]) == 0
        config = AdaptiveConfig.default_for(self.n, mode=mode)
        est = two_stage_log_estimate(np.loadtxt(path), config, default_grid(self.n))
        idx, f = self.half_grid()
        header, rows = read_csv(out)
        columns = list(zip(*rows))
        assert_float_cells(columns[0], f)
        assert_float_cells(columns[1], est.values[idx])
        _, prows = read_csv(tmp_path / "ad_profile.csv")
        if mode == "variable_k":
            assert header == ["f", "value", "k_used"]
            assert_int_cells(columns[2], est.k_used[idx])
            assert_int_cells([r[1] for r in prows], est.k_used[idx])
        else:
            assert_float_cells([r[1] for r in prows], est.w_used[idx])

    @pytest.mark.parametrize("mode", ["variable_k", "variable_w"])
    def test_adaptive_box_kernel(self, series, tmp_path, mode):
        path, _ = series
        out = tmp_path / "ad.csv"
        assert run(["adaptive", "--input", path, "--mode", mode, "--kernel", "box",
                    "--out", out]) == 0
        config = dataclasses.replace(AdaptiveConfig.default_for(self.n, mode=mode), kernel=BOX)
        est = two_stage_log_estimate(np.loadtxt(path), config, default_grid(self.n))
        idx, _ = self.half_grid()
        assert_float_cells(list(zip(*read_csv(out)[1]))[1], est.values[idx])
        assert len(read_csv(tmp_path / "ad_profile.csv")[1]) == idx.size

    def test_tapers_and_sidecars(self, tmp_path):
        n, k = 40, 3
        out = tmp_path / "tp.csv"
        assert run(["tapers", "--family", "sine", "--n", n, "--k", k, "--out", out]) == 0
        family = sinusoidal_family(n, k)
        columns = list(zip(*read_csv(out)[1]))
        assert_int_cells(columns[0], range(1, n + 1))
        for col, taper in zip(columns[1:], family.taper_matrix, strict=True):
            assert_float_cells(col, taper)
        grid = window_grid(n, 16)
        idx, f = cli._half_grid(grid)
        columns = list(zip(*read_csv(tmp_path / "tp_window.csv")[1]))
        assert_float_cells(columns[0], f)
        for col, taper in zip(columns[1:], family.tapers, strict=True):
            assert_float_cells(col, spectral_window(taper, grid).power[idx])
        header, rows = read_csv(tmp_path / "tp_bias.csv")
        k_cells, lam_cells, norm_cells = zip(*rows)
        assert_int_cells(k_cells, range(1, k + 1))
        assert_float_cells(lam_cells, family.local_biases)
        assert_float_cells(norm_cells, bias_normalization(n) * family.local_biases)


class TestTapersCommand:
    def test_columns_orthonormal(self, tmp_path):
        out = tmp_path / "tp.csv"
        assert run(["tapers", "--family", "sine", "--n", "200", "--k", "4",
                    "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["n", "k=1", "k=2", "k=3", "k=4"]
        mat = np.array([[float(c) for c in row[1:]] for row in rows])
        assert mat.shape == (200, 4)
        assert np.max(np.abs(mat.T @ mat - np.eye(4))) < 1e-10

    def test_odd_window_grid_ends_below_nyquist(self, tmp_path):
        # --window-oversample 3 on n = 3 gives m = 9: the last bin is f = 4/9
        out = tmp_path / "tp.csv"
        assert run(["tapers", "--family", "sine", "--n", "3", "--k", "1",
                    "--window-oversample", "3", "--out", out]) == 0
        _, rows = read_csv(tmp_path / "tp_window.csv")
        f, power = map(float, rows[-1])
        assert len(rows) == 5 and f == pytest.approx(4 / 9, rel=1e-15)
        assert power == pytest.approx(abs(sinusoidal_window_closed(3, 1, 4 / 9)) ** 2, rel=1e-12)

    def test_slepian_needs_w(self, tmp_path):
        assert run(["tapers", "--family", "slepian", "--n", "50", "--k", "4"]) == 2

    def test_slepian_with_sidecars(self, tmp_path):
        out = tmp_path / "sl.csv"
        assert run(["tapers", "--family", "slepian", "--n", "200", "--k", "4",
                    "--w", "0.01", "--out", out]) == 0
        wh, wrows = read_csv(tmp_path / "sl_window.csv")
        assert wh == ["f", "k=1", "k=2", "k=3", "k=4"]
        assert len(wrows) == (16 * 200) // 2 + 1

    def test_mb_bias_sidecar_normalization(self, tmp_path):
        out = tmp_path / "mb.csv"
        assert run(["tapers", "--family", "mb", "--n", "50", "--k", "10",
                    "--out", out]) == 0
        _, rows = read_csv(tmp_path / "mb_bias.csv")
        normalized = np.array([float(r[2]) for r in rows])
        assert np.cumsum(normalized)[-1] == pytest.approx(388.6562, abs=0.05)
        assert normalized[0] == pytest.approx(1.0095, abs=1e-3)


class TestTablesCommand:
    def test_table1(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert run(["tables", "--which", "1", "--sizes", "20,50", "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["n", "l2", "linf"]
        assert float(rows[0][1]) == pytest.approx(0.24750, abs=1e-3)

    def test_table4(self, tmp_path):
        out = tmp_path / "t4.csv"
        assert run(["tables", "--which", "4", "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["k", "weight", "normalized_local_bias", "mb_bias_ratio"]
        assert len(rows) == 7

    def test_table4_honours_n(self, tmp_path):
        # both lengths decompose into fewer tapers than the 7 rows asked for
        for n, k_count in ((50, 6), (3, 3)):
            out = tmp_path / f"t4_{n}.csv"
            assert run(["tables", "--which", "4", "--n", n, "--out", out]) == 0
            _, rows = read_csv(out)
            got = np.array([[float(c) for c in row[1:]] for row in rows])
            assert got.shape == (k_count, 3)
            assert np.array_equal(got, table4_experiment(n=n).values)
            assert got[0, 0] != pytest.approx(table4_experiment(n=200).values[0, 0])

    def test_table4_eigenvector_dump(self, tmp_path):
        out = tmp_path / "t4.csv"
        vecs = tmp_path / "vecs.csv"
        assert run(["tables", "--which", "4", "--out", out,
                    "--vectors-out", vecs]) == 0
        plain = tmp_path / "t4_plain.csv"
        assert run(["tables", "--which", "4", "--out", plain]) == 0
        assert out.read_bytes() == plain.read_bytes()
        header, rows = read_csv(vecs)
        assert header[0] == "n" and len(header) == 8
        mat = np.array([[float(c) for c in row[1:]] for row in rows])
        assert mat.shape == (200, 7)
        assert np.max(np.abs(mat.T @ mat - np.eye(7))) < 1e-10
        # the dump decomposes with the table's kernel (criterion 10 bound)
        assert abs(mat[:, 0] @ sinusoidal_taper(200, 1).values) >= 0.98


class TestAdaptiveCommand:
    def test_writes_profile_sidecar(self, tmp_path):
        series = tmp_path / "x.csv"
        run(["synth", "--model", "ar", "--coeffs", "0.605673,-0.9604", "--n", "512",
             "--seed", "3", "--out", series])
        out = tmp_path / "ad.csv"
        assert run(["adaptive", "--input", series, "--k-max", "64",
                    "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["f", "value", "k_used"]
        ph, prows = read_csv(tmp_path / "ad_profile.csv")
        assert ph == ["f", "k"]
        assert len(prows) == len(rows)

    def test_short_series_for_pilot_exits_two(self, tmp_path, capsys):
        series = tmp_path / "x.csv"
        assert run(["synth", "--model", "white", "--n", "16", "--out", series]) == 0
        out = tmp_path / "ad.csv"
        assert run(["adaptive", "--input", series, "--pilot-k", "12", "--k-max", "16",
                    "--out", out]) == 2
        assert "too short for pilot_k=12" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "ad_profile.csv").exists()

    def test_underflowed_pilot_exits_three_without_files(self, tmp_path, capsys):
        # 830 of 1,028 pilot bins underflow and are floored; the final
        # variable-K estimate still holds -inf, so nothing is written
        series = tmp_path / "x.csv"
        series.write_text(UNDERFLOWING_TEXT)
        out = tmp_path / "ad.csv"
        assert run(["adaptive", "--mode", "variable_k", "--input", series, "--out", out]) == 3
        assert "would hold inf or nan" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["x.csv"]

    def test_has_no_correction_flag(self, tmp_path, capsys):
        # the log estimate subtracts psi(K) - ln K only; the flag is gone
        with pytest.raises(SystemExit) as exc:
            run(["adaptive", "--input", tmp_path / "x.csv", "--correction", "full",
                 "--out", tmp_path / "ad.csv"])
        assert exc.value.code == 2
        assert "--correction" in capsys.readouterr().err
        assert not (tmp_path / "ad.csv").exists()


class TestCompareCommand:
    def test_report_with_truth(self, tmp_path):
        series = tmp_path / "x.csv"
        truth = tmp_path / "truth.csv"
        run(["synth", "--model", "ar", "--coeffs", "0.605673,-0.9604", "--n", "1024",
             "--seed", "9", "--out", series, "--truth-out", truth])
        out = tmp_path / "cmp.csv"
        assert run(["compare", "--input", series, "--truth", truth,
                    "--ks", "4,16", "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["method", "param", "integrated_sq_log_error"]
        assert [r[0] for r in rows] == ["fixed_k", "fixed_k", "adaptive"]
        errs = [float(r[2]) for r in rows]
        assert all(e > 0 for e in errs)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("f\n0.0\n0.25\n0.5\n", id="one_column"),
            pytest.param("f,value\n", id="header_only"),
            pytest.param("f,value\n0.0,1.0\n0.25,0.0\n0.5,2.0\n", id="zero_value"),
        ],
    )
    def test_rejects_bad_truth(self, tmp_path, capsys, text):
        series = tmp_path / "x.csv"
        run(["synth", "--model", "white", "--n", "64", "--out", series])
        truth = tmp_path / "truth.csv"
        truth.write_text(text)
        out = tmp_path / "cmp.csv"
        assert run(["compare", "--input", series, "--truth", truth, "--out", out]) == 2
        assert "truth.csv" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture
def fresh_caches():
    """Start and end without the parser or the frequency text of earlier calls."""
    def clear():
        cli._parser.cache_clear()
        cli._frequency_text.cache_clear()
    clear()
    yield clear
    clear()


class TestOneProcess:
    """``main`` may run many times in one process: it builds its parser once,
    dispatches by command name at call time and keeps the last grid's
    frequency text, and every file is the one a fresh process writes."""

    def test_parser_built_once_without_leaking_flags(self, tmp_path, monkeypatch, fresh_caches):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        series = tmp_path / "x.csv"
        assert run(["synth", "--model", "white", "--n", "32", "--seed", "5", "--out", series]) == 0
        parabolic, default = tmp_path / "parabolic.csv", tmp_path / "default.csv"
        assert run(["estimate", "--input", series, "--k", "4", "--weights", "parabolic",
                    "--out", parabolic]) == 0
        assert run(["estimate", "--input", series, "--k", "4", "--out", default]) == 0
        assert built == [1]
        # the third call ran with the default weights, not the second's flag
        _, rows = read_csv(default)
        est = sinusoidal_estimate_fast(np.loadtxt(series), 4, "uniform", default_grid(32))
        assert_float_cells([r[1] for r in rows], est.values[: len(rows)])
        assert default.read_bytes() != parabolic.read_bytes()

    def test_wrapper_set_after_first_call_runs(self, tmp_path, monkeypatch, fresh_caches):
        # how a tracer times cli.cmd_*: it replaces them between calls
        series = tmp_path / "x.csv"
        assert run(["synth", "--model", "white", "--n", "32", "--out", series]) == 0
        argv = ["estimate", "--input", series, "--k", "4", "--out", tmp_path / "e.csv"]
        assert run(argv) == 0
        seen = []
        estimate = cli.cmd_estimate
        monkeypatch.setattr(cli, "cmd_estimate", lambda args: seen.append(args.k) or estimate(args))
        assert run(argv) == 0
        assert seen == [4]

    def test_files_match_a_fresh_process(self, tmp_path, fresh_caches):
        series = tmp_path / "x.csv"
        assert run(["synth", "--model", "ar", "--coeffs", "0.5,-0.3", "--n", "64",
                    "--seed", "9", "--out", series]) == 0

        def argvs(d):
            # the default grid (m = 260), two others, an odd grid (m = 9), the
            # tapers' window grid (m = 256), then the default grid again
            return [
                ["estimate", "--input", series, "--k", "4", "--out", d / "e0.csv"],
                ["estimate", "--input", series, "--k", "4", "--grid-size", "130",
                 "--out", d / "e1.csv"],
                ["estimate", "--input", series, "--k", "6", "--grid-size", "390",
                 "--out", d / "e2.csv"],
                ["synth", "--model", "ar", "--coeffs", "0.5", "--n", "8", "--grid-size", "9",
                 "--out", d / "s.csv", "--truth-out", d / "t.csv"],
                ["tapers", "--family", "sine", "--n", "16", "--k", "2", "--out", d / "w.csv"],
                ["estimate", "--input", series, "--k", "8", "--out", d / "e3.csv"],
            ]

        kept, fresh = tmp_path / "kept", tmp_path / "fresh"
        for d in (kept, fresh):
            d.mkdir()
            for argv in argvs(d):
                if d == fresh:
                    fresh_caches()
                assert run(argv) == 0
        names = sorted(p.name for p in kept.iterdir())
        assert names == sorted(p.name for p in fresh.iterdir()) and len(names) == 9
        for name in names:
            assert (kept / name).read_bytes() == (fresh / name).read_bytes(), name
        assert len(read_csv(kept / "t.csv")[1]) == 5  # bins 0..4 of m = 9


SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(argv, cwd):
    """``python -m mtsine argv`` in a fresh process that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "mtsine", *map(str, argv)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


class TestEntryPoint:
    """``python -m mtsine`` exits with the code ``main`` returns."""

    def test_synth_exits_zero_and_writes(self, tmp_path):
        done = run_module(["synth", "--model", "white", "--n", "16", "--seed", "1",
                           "--out", "x.csv"], tmp_path)
        assert done.returncode == 0, done.stderr
        assert np.loadtxt(tmp_path / "x.csv").shape == (16,)

    @pytest.mark.parametrize("argv", [["--k", "4"], ["--input", "nope.csv", "--k", "4"]],
                             ids=["omitted", "nonexistent"])
    def test_missing_input_exits_two(self, tmp_path, argv):
        done = run_module(["estimate", *argv], tmp_path)
        assert done.returncode == 2
        assert "error:" in done.stderr and "Traceback" not in done.stderr

    def test_overflowing_estimate_exits_three(self, tmp_path):
        (tmp_path / "x.csv").write_text("1e200\n" * 64)
        done = run_module(["estimate", "--input", "x.csv", "--k", "4", "--out", "e.csv"],
                          tmp_path)
        assert done.returncode == 3
        assert done.stderr.startswith("numerical failure:") and "Traceback" not in done.stderr
        assert not (tmp_path / "e.csv").exists()


@st.composite
def input_text(draw):
    """An input file: empty, one sample, a nan row, all zeros, a 1e300 spike,
    fewer than 8 samples, or a plain series; at most 64 samples."""
    kind = draw(st.sampled_from(["empty", "single", "nan_row", "zeros", "spike",
                                 "short", "plain"]))
    if kind == "empty":
        return ""
    if kind == "single":
        n = 1
    else:
        n = draw(st.integers(2, 7) if kind == "short" else st.integers(8, 64))
    x = draw(hnp.arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
    if kind == "zeros":
        x[:] = 0.0
    elif kind == "spike":
        x[draw(st.integers(0, n - 1))] = 1e300
    rows = [repr(v) for v in x.tolist()]
    if kind == "nan_row":
        rows[draw(st.integers(0, n - 1))] = "nan"
    return "".join(r + "\n" for r in rows)


def run_under_contract(tmp, argv, inputs):
    """Run ``argv`` in-process and check the failure contract: exit 0, 2 or 3;
    on 0 no stderr, otherwise one error line, no traceback and no file
    beyond ``inputs`` in ``tmp``; never an inf or nan cell. Returns the code."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv)
    err = err.getvalue()
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    written = sorted(set(os.listdir(tmp)) - set(inputs))
    if code == 0:
        assert err == ""
    else:
        assert err.startswith(("error:", "numerical failure:")) and err.count("\n") == 1
        assert written == [], written
    for name in written:
        with open(os.path.join(tmp, name)) as fh:
            cells = set(re.split(r"[,\n]", fh.read().lower()))
        assert not cells & {"inf", "-inf", "nan"}, name
    return code


class TestFailureContract:
    """Every run exits 0, 2 or 3 with one error line and no traceback, writes
    no file when it fails, and never writes an inf or nan cell."""

    @settings(max_examples=60, deadline=None)
    @given(
        input_text(),
        st.sampled_from(["estimate", "variable_k", "variable_w", "compare", "compare_fixed"]),
        st.integers(1, 80),
        st.none() | st.integers(2, 600),
    )
    @example("", "estimate", 2, None)
    @example("1.5\n", "variable_k", 1, None)
    @example("0.5\nnan\n" + "0.25\n" * 14, "variable_w", 4, None)
    @example("0.0\n" * 16, "compare_fixed", 4, None)
    @example("0.5\n" * 10 + "1e300\n" + "0.25\n" * 5, "estimate", 4, None)
    @example("0.5\n-0.25\n" * 3, "variable_k", 2, None)
    @example("0.5\n-0.25\n1.5\n" * 8, "estimate", 40, None)
    @example("0.5\n-0.25\n1.5\n" * 8, "compare", 4, 100)
    @example("0.5\n-0.25\n1.5\n" * 8, "variable_k", 4, None)
    # the resonance at n = 256 times 1e-161 or 1e-162: the pilot floors 165 or
    # 830 of its 1,028 bins; the first estimate is finite, the second not
    @example(series_text(1e-161 * RESONANCE), "variable_k", 4, None)
    @example(UNDERFLOWING_TEXT, "variable_k", 4, None)
    @example(UNDERFLOWING_TEXT, "variable_w", 4, None)
    def test_exit_code_and_outputs(self, text, command, k, grid_size):
        with tempfile.TemporaryDirectory() as tmp:
            series, truth = os.path.join(tmp, "x.csv"), os.path.join(tmp, "truth.csv")
            out = os.path.join(tmp, "out.csv")
            with open(series, "w") as fh:
                fh.write(text)
            with open(truth, "w") as fh:
                fh.write("f,value\n0.0,1.0\n0.5,2.0\n")
            if command == "estimate":
                argv = ["estimate", "--k", k, "--weights", "parabolic"]
            elif command.startswith("compare"):
                modes = "" if command == "compare_fixed" else "variable_k,variable_w"
                argv = ["compare", "--ks", k, "--adaptive", modes, "--truth", truth]
            else:
                argv = ["adaptive", "--mode", command]
            argv += ["--input", series, "--out", out]
            if grid_size is not None:
                argv += ["--grid-size", grid_size]
            code = run_under_contract(tmp, argv, ["x.csv", "truth.csv"])
            if code == 0:
                assert os.path.exists(out)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(["sine", "mb", "slepian"]),
        st.integers(-1, 48),
        st.integers(-1, 52),
        st.none() | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.1, 0.6,
                                     1e-300, 5e-324]) | st.floats(1e-3, 0.5),
        st.none() | st.integers(-1, 32),
    )
    @example("sine", 16, 4, None, 0)
    @example("mb", 1, 1, None, 1)
    @example("slepian", 16, 4, math.nan, None)
    @example("slepian", 16, 4, 1e-300, 4)
    @example("slepian", 16, 20, 0.1, None)
    def test_tapers(self, family, n, k, w, oversample):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "t.csv")
            argv = ["tapers", "--family", family, "--n", n, "--k", k, "--out", out]
            if w is not None:
                argv.append(f"--w={w!r}")
            if oversample is not None:
                argv += ["--window-oversample", oversample]
            if run_under_contract(tmp, argv, []) == 0:
                assert sorted(os.listdir(tmp)) == ["t.csv", "t_bias.csv", "t_window.csv"]

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["white", "ar"]), st.integers(-1, 64),
           st.none() | st.integers(-2, 600))
    @example("ar", 32, 1)
    @example("white", 8, 0)
    def test_synth_grid_size(self, model, n, grid_size):
        with tempfile.TemporaryDirectory() as tmp:
            out, truth = os.path.join(tmp, "x.csv"), os.path.join(tmp, "truth.csv")
            argv = ["synth", "--model", model, "--n", n, "--out", out, "--truth-out", truth]
            if model == "ar":
                argv += ["--coeffs", "0.5,-0.3"]
            if grid_size is not None:
                argv += ["--grid-size", grid_size]
            if run_under_contract(tmp, argv, []) == 0:
                assert sorted(os.listdir(tmp)) == ["truth.csv", "x.csv"]

    def test_synth_truth_overflow_writes_nothing(self):
        # S(0) = 1e308 / 0.1^2 overflows: exit 3 before either file is opened,
        # with the one FloatingPointError line and no numpy warning
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["synth", "--model", "ar", "--coeffs", "0.9", "--sigma2", "1e308",
                    "--n", "16", "--out", os.path.join(tmp, "x.csv"),
                    "--truth-out", os.path.join(tmp, "t.csv")]
            assert run_under_contract(tmp, argv, []) == 3
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                run(argv)
        # the exact spectrum failed, not an estimate
        assert "exact spectrum" in err.getvalue()
        assert "estimate" not in err.getvalue()
