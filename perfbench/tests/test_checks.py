"""The benchmark's checks accept mtsine's outputs and reject corrupted ones.

Run with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import mtsine
import mtsine.cli  # noqa: F401
import run
import tracer
import workloads
from workloads import CheckError

ROOT = os.path.dirname(run.HERE)


def rngs():
    return np.random.default_rng(0), np.random.default_rng(1)


def small_op(wl, kind, n, tmp_path=None):
    rng, _ = rngs()
    return wl.make_op(rng, kind, n, str(tmp_path) if tmp_path else None)


@pytest.mark.parametrize("name, kind, n", [
    ("fixed_k", 16, 1024),
    ("adaptive_k", "ar", 1024),
    ("adaptive_k", "white", 1024),
    ("adaptive_w", "ar", 512),
])
def test_scaled_estimate_is_rejected(name, kind, n):
    wl = workloads.WORKLOADS[name]
    op = small_op(wl, kind, n)
    est = wl.call(mtsine, op)
    wl.check(op, est, rngs()[1])
    factor = 1.001 if est.scale == "linear" else None
    values = est.values * factor if factor else est.values + np.log(1.001)
    with pytest.raises(CheckError):
        wl.check(op, dataclasses.replace(est, values=values), rngs()[1])


def test_shifted_k_profile_is_rejected():
    wl = workloads.WORKLOADS["adaptive_k"]
    op = small_op(wl, "ar", 1024)
    est = wl.call(mtsine, op)
    shifted = dataclasses.replace(est, k_used=np.asarray(est.k_used) + 1)
    with pytest.raises(CheckError):
        wl.check(op, shifted, rngs()[1])


def test_k_profile_outside_the_config_is_rejected():
    wl = workloads.WORKLOADS["adaptive_k"]
    op = small_op(wl, "white", 1024)
    est = wl.call(mtsine, op)
    k = np.asarray(est.k_used).copy()
    k[0] = op.extra["config"].k_max + 1
    with pytest.raises(CheckError, match="outside"):
        wl.check(op, dataclasses.replace(est, k_used=k), rngs()[1])


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    wl = workloads.WORKLOADS["cli"]
    op = small_op(wl, "session", wl.sizes[-1], tmp_path_factory.mktemp("cli"))
    codes = wl.call(mtsine, op)
    wl.check(op, codes, rngs()[1])
    return wl, op, codes


def perturb_csv(path, column, delta, row=None):
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = range(1, len(lines)) if row is None else [row]
    for i in rows:
        cells = lines[i].split(",")
        cells[column] = repr(float(cells[column]) + delta)
        lines[i] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("name, column, delta, row, match", [
    ("sine.csv", 3, 1e-6, None, None),
    ("mb.csv", 2, 1e-6, 50, None),
    ("slepian.csv", 8, -1e-6, 100, None),
    ("sine_window.csv", 1, 1e-3, None, None),
    ("est.csv", 1, 1e-3, None, None),
    ("truth.csv", 1, 1e-6, None, None),
    ("t1.csv", 2, 1e-3, 2, None),
    ("t2.csv", 1, 100.0, 3, None),
    ("t3.csv", 3, -0.5, 1, None),
    ("cmp.csv", 2, 1e-3, 2, None),
    ("x.csv", 0, 0.5, None, "AR residual"),
])
def test_perturbed_csv_is_rejected(session, name, column, delta, row, match):
    wl, op, codes = session
    path = wl.path(op, name)
    saved = path + ".saved"
    shutil.copy(path, saved)
    try:
        perturb_csv(path, column, delta, row)
        with pytest.raises(CheckError, match=match):
            wl.check(op, codes, rngs()[1])
    finally:
        shutil.move(saved, path)


@pytest.mark.parametrize("coeffs, sigma, ok", [
    (workloads.AR2, 1.0, True),
    ((-workloads.AR2[0], workloads.AR2[1]), 1.0, False),  # a1 with the wrong sign
    ((workloads.AR2[1], 0.0), 1.0, False),  # a2 applied at lag 1
    (workloads.AR2, 1.2, False),  # innovations of the wrong scale
])
def test_ar_residual_check(coeffs, sigma, ok):
    e = sigma * np.random.default_rng(2).standard_normal(2048 + 1000)
    x = np.zeros_like(e)
    for t in range(e.size):
        x[t] = e[t] + sum(a * x[t - j] for j, a in enumerate(coeffs, start=1) if t >= j)
    x = x[1000:]
    assert np.all(np.isfinite(x))
    if ok:
        workloads.check_ar_residuals(x, workloads.AR2)
    else:
        with pytest.raises(CheckError, match="AR residual"):
            workloads.check_ar_residuals(x, workloads.AR2)


def test_failed_command_is_rejected(session):
    wl, op, codes = session
    with pytest.raises(CheckError, match="exit codes"):
        wl.check(op, codes[:-1] + [2], rngs()[1])


def test_tracer_self_time_and_absent_function(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [("estimator", "no_such_function", None)])
    t = tracer.Tracer()
    assert t.absent == ["estimator.no_such_function"]
    x = np.random.default_rng(0).standard_normal(512)
    t.begin(0)
    try:
        mtsine.two_stage_log_estimate(x)
    finally:
        t.end()
    assert mtsine.estimator.dft.__module__ == "mtsine.estimator"  # unwrapped again
    row = t.per_op([0])[0]
    assert row["estimator.dft"]["calls"] == 2
    # log_multitaper's one traced child is sinusoidal_estimate_fast
    outer, inner = row["adaptive.log_multitaper"], row["estimator.sinusoidal_estimate_fast"]
    assert outer["self_s"] == pytest.approx(outer["s"] - inner["s"], abs=1e-9)
    top = row["adaptive.two_stage_log_estimate"]
    assert 0 < top["self_s"] < top["s"]
    assert 0 < row["_kernels.variable_k_combine"]["useful_ratio"] <= 1


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fixed_k", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
