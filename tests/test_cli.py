import json

import numpy as np
import pytest

from mtsine import cli, sinusoidal_taper, table4_experiment
from mtsine.cli import main


def run(argv):
    return main([str(a) for a in argv])


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

    def test_overflowing_estimate_exits_three(self, tmp_path, capsys):
        series = tmp_path / "x.csv"
        series.write_text("0.5\n" * 100 + "1e300\n" + "-0.25\n" * 155)
        out = tmp_path / "est.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(["estimate", "--input", series, "--k", "4", "--out", out])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    def test_memory_error_exits_three(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 24.3 GiB")

        monkeypatch.setattr(cli, "two_stage_log_estimate", no_memory)
        series = tmp_path / "x.csv"
        run(["synth", "--model", "white", "--n", "64", "--out", series])
        assert run(["adaptive", "--input", series, "--out", tmp_path / "ad.csv"]) == 3
        assert "out of memory" in capsys.readouterr().err


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
        out = tmp_path / "t4.csv"
        assert run(["tables", "--which", "4", "--n", "50", "--out", out]) == 0
        _, rows = read_csv(out)
        got = np.array([[float(c) for c in row[1:]] for row in rows])
        assert np.array_equal(got, table4_experiment(n=50).values)
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
