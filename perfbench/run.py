"""Run one workload of the mtsine benchmark and print its metrics.

    python3 perfbench/run.py --workload fixed_k --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; mtsine is imported from
./src. One closed-loop caller issues each operation after the last one
returned. ``--trace 0`` measures the end-to-end metrics with tracing
off; ``--trace 1`` is the separate traced run that gives the per-layer
metrics. The last line of standard output is the result as one JSON
object; the run's record and trace go to perfbench/out/.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# numpy, mtsine and the benchmark's own modules are imported inside the
# functions that need them, so that a set-up probe starts its clock
# before numpy loads.

# One BLAS thread in every process, fixed before numpy loads: threaded
# eigh varied by 12% from call to call on a 2-core machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 5  # fresh processes per run; setup_s is their median
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
TRACE_MIN_OPS = 10  # traced operations per run, at least
SCALING_ROUNDS = 2  # traced rounds at each smaller size
RATIO_N, RATIO_K, RATIO_REPEATS = 2048, 16, 21

# random streams drawn from the seed; each phase has its own
WARM_STREAM, OPS_STREAM, CHECK_STREAM, PROBE_STREAM, SCALING_STREAM = range(5)

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "log_ise": "sq_ln",
    "setup_s": "s",
}

# <module>.<function>.<quantity>: s, self_s and calls come from the spans,
# useful_ratio, taps and distinct_halfwidths are computed by the tracer
# from call inputs; the rest are set in per_layer
PER_LAYER = {
    "estimator.dft.s": "s",
    "estimator.dft.calls": "count",
    "estimator.dft.exponent": "exponent",
    "estimator.sinusoidal_estimate_fast.self_s": "s",
    "estimator.generic_to_fast_ratio": "ratio",
    "_kernels.combine_shifts.s": "s",
    "_kernels.combine_shifts.exponent": "exponent",
    "_kernels.variable_k_combine.s": "s",
    "_kernels.variable_k_combine.useful_ratio": "ratio",
    "_kernels.variable_k_combine.exponent": "exponent",
    "_kernels.smooth_circular.s": "s",
    "_kernels.smooth_circular.taps": "count",
    "_kernels.smooth_circular.exponent": "exponent",
    "_kernels.smooth_variable.s": "s",
    "_kernels.smooth_variable.distinct_halfwidths": "count",
    "_kernels.smooth_variable.exponent": "exponent",
    "_kernels.ar_recurse.s": "s",
    "adaptive.log_multitaper.s": "s",
    "adaptive.w_opt.s": "s",
    "adaptive.two_stage_log_estimate.self_s": "s",
    "adaptive.two_stage_log_estimate.peak_alloc_mb": "MB",
    "adaptive.two_stage_log_estimate.exponent": "exponent",
    "synth.generate.s": "s",
    "synth.true_spectrum.s": "s",
    "tapers.sinusoidal_family.s": "s",
    "tapers.minimum_bias_family.s": "s",
    "tapers.slepian_family.s": "s",
    "tapers.spectral_window.s": "s",
    "metrics.convergence_table.s": "s",
    "metrics.bias_table.s": "s",
    "metrics.concentration_table.s": "s",
    "quadratic.table4_experiment.s": "s",
    "cli.cmd_synth.self_s": "s",
    "cli.cmd_estimate.self_s": "s",
    "cli.cmd_adaptive.self_s": "s",
    "cli.cmd_compare.self_s": "s",
    "cli.cmd_tapers.self_s": "s",
    "cli.cmd_tables.self_s": "s",
    "cli.bytes_written": "count",
    "trace.overhead_pct": "%",
}

# the time each exponent is fitted to; two_stage_log_estimate's own share
EXPONENT_TIME = {"adaptive.two_stage_log_estimate": "self_s"}


def import_mtsine():
    """Import mtsine from this checkout's src/, or exit without a result."""
    init = os.path.join(SRC, "mtsine", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: no mtsine sources at {init}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import mtsine
    import mtsine.cli  # noqa: F401  (the cli workload calls mtsine.cli.main)

    if os.path.dirname(os.path.abspath(mtsine.__file__)) != os.path.dirname(init):
        sys.exit(f"error: imported mtsine from {mtsine.__file__}, not {SRC}")
    return mtsine


def rng_for(seed, stream):
    import numpy as np

    return np.random.default_rng([seed, stream])


class Runner:
    """Issues a workload's operations, times and checks them."""

    def __init__(self, workload, mt, seed, workdir):
        self.wl = workload
        self.mt = mt
        self.seed = seed
        self.workdir = workdir
        self.check_rng = rng_for(seed, CHECK_STREAM)
        self.attempted = 0
        self.failed = 0
        self.errors = []  # operations that raised
        self.problems = []  # outputs that failed a check

    def timed(self, op, tracer=None, op_id=None):
        """One call: (seconds, output), or (None, None) when it raised."""
        from workloads import CheckError

        self.attempted += 1
        if tracer is not None:
            tracer.begin(op_id)
        start = time.perf_counter()
        try:
            out = self.wl.call(self.mt, op)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None, None
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end()
        try:
            self.wl.check(op, out, self.check_rng)
        except CheckError as exc:
            self.problems.append(str(exc))
        return elapsed, out

    def warm_up(self, n):
        """One checked operation, neither timed nor counted, so lazy set-up is not timed."""
        from workloads import CheckError

        op = self.wl.make_op(rng_for(self.seed, WARM_STREAM), self.wl.kinds[0], n, self.workdir)
        try:
            self.wl.check(op, self.wl.call(self.mt, op), self.check_rng)
        except CheckError as exc:
            self.problems.append(str(exc))
        finally:
            self.wl.finish(op)


def setup_probe(name, seed):
    """In a fresh process: import mtsine and run the first, cold operation."""
    start = time.perf_counter()
    mt = import_mtsine()
    imported = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        op = wl.make_op(rng_for(seed, PROBE_STREAM), wl.kinds[0], wl.sizes[-1], workdir)
        begin = time.perf_counter()
        out = wl.call(mt, op)
        end = time.perf_counter()
        wl.check(op, out, rng_for(seed, CHECK_STREAM))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": (imported - start) + (end - begin)}))


def probe_setup(name, seed):
    """setup_s of one fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: set-up probe exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def tail(latencies):
    """The highest order statistic with TAIL_BEYOND samples beyond it, and its rank."""
    ordered = sorted(latencies)
    index = len(ordered) - 1 - TAIL_BEYOND
    return ordered[index], (index + 1) / len(ordered)


def end_to_end(runner, args):
    wl = runner.wl
    n = wl.sizes[-1]
    runner.warm_up(n)
    rng = rng_for(args.seed, OPS_STREAM)
    latencies, ises, probes = [], [], []
    # set-up probes are spread over the run, so that their median sees the
    # machine's slow and fast spells in the same mix as the operations
    probe_at = [i * args.seconds / SETUP_PROBES for i in range(SETUP_PROBES)]
    probing = 0.0
    rounds = 0
    start = time.perf_counter()
    while rounds < wl.min_rounds or time.perf_counter() - start - probing < args.seconds:
        while len(probes) < SETUP_PROBES and time.perf_counter() - start - probing >= probe_at[len(probes)]:
            began = time.perf_counter()
            probes.append(probe_setup(wl.name, args.seed))
            probing += time.perf_counter() - began
        for kind in wl.kinds:
            op = wl.make_op(rng, kind, n, runner.workdir)
            gc.collect()
            elapsed, out = runner.timed(op)
            if elapsed is not None:
                latencies.append(elapsed)
                # log_ise covers the operations every run makes, so a seed repeats it
                if rounds < wl.min_rounds:
                    ises.append(wl.log_ise(op, out))
            wl.finish(op)
        rounds += 1
    probes += [probe_setup(wl.name, args.seed) for _ in range(SETUP_PROBES - len(probes))]
    if len(latencies) <= TAIL_BEYOND:
        sys.exit(f"error: {runner.failed} of {runner.attempted} operations failed: {runner.errors[:3]}")
    log_ise = statistics.fmean(ises) if ises else float("nan")
    if not log_ise <= wl.ise_ceiling:
        runner.problems.append(f"log_ise {log_ise} above the ceiling {wl.ise_ceiling}")
    p_tail, rank = tail(latencies)
    values = {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": p_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "log_ise": log_ise,
        "setup_s": statistics.median(probes),
    }
    record = {"tail_rank": rank, "latencies_s": latencies, "setup_probes_s": probes}
    return values, record


def fit_exponent(sizes, times):
    import numpy as np

    if len(times) < 2 or min(times) <= 0:
        return 0.0
    return float(np.polyfit(np.log(sizes), np.log(times), 1)[0])


def generic_to_fast_ratio(runner):
    """Time of multitaper_estimate over sinusoidal_estimate_fast, same series and K."""
    import numpy as np
    import reference

    mt = runner.mt
    x = reference.ar_series(rng_for(runner.seed, SCALING_STREAM), (0.5,), RATIO_N)
    family = mt.sinusoidal_family(RATIO_N, RATIO_K)
    weights = mt.make_weights("uniform", RATIO_K)
    generic, fast = [], []
    for _ in range(RATIO_REPEATS):
        start = time.perf_counter()
        slow = mt.multitaper_estimate(x, family, weights)
        mid = time.perf_counter()
        quick = mt.sinusoidal_estimate_fast(x, RATIO_K)
        generic.append(mid - start)
        fast.append(time.perf_counter() - mid)
    if not np.allclose(slow.values, quick.values, rtol=1e-9, atol=1e-12 * slow.values.mean()):
        runner.problems.append("generic and fast estimates differ")
    return statistics.median(generic) / statistics.median(fast)


def peak_alloc_mb(runner, n):
    """tracemalloc peak during one call, median over one round."""
    import tracemalloc

    rng = rng_for(runner.seed, SCALING_STREAM)
    peaks = []
    for kind in runner.wl.kinds:
        op = runner.wl.make_op(rng, kind, n, runner.workdir)
        tracemalloc.start()
        try:
            runner.wl.call(runner.mt, op)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
            runner.wl.finish(op)
    return statistics.median(peaks)


def per_layer(runner, args):
    from tracer import Tracer

    wl = runner.wl
    tracer = Tracer()
    n = wl.sizes[-1]
    runner.warm_up(n)
    rng = rng_for(args.seed, OPS_STREAM)
    plain, traced, main_ops, bytes_written = [], [], [], []
    op_id = 0
    start = time.perf_counter()
    # each input runs untraced and traced, in alternating order
    while op_id < TRACE_MIN_OPS or time.perf_counter() - start < args.seconds:
        for kind in wl.kinds:
            op = wl.make_op(rng, kind, n, runner.workdir)
            gc.collect()
            times = {}
            for use_trace in ((False, True) if op_id % 2 == 0 else (True, False)):
                times[use_trace], _ = runner.timed(op, tracer if use_trace else None, op_id)
            if None not in times.values():
                plain.append(times[False])
                traced.append(times[True])
                main_ops.append(op_id)
            if hasattr(wl, "written_bytes"):
                bytes_written.append(wl.written_bytes(op))
            wl.finish(op)
            op_id += 1

    if not main_ops:
        sys.exit(f"error: every traced operation failed: {runner.errors[:3]}")
    sized = {n: main_ops}
    for size in wl.sizes[:-1]:
        runner.warm_up(size)
        srng = rng_for(args.seed, SCALING_STREAM)
        sized[size] = []
        for _ in range(SCALING_ROUNDS):
            for kind in wl.kinds:
                op_id = (size, len(sized[size]))
                op = wl.make_op(srng, kind, size, runner.workdir)
                if runner.timed(op, tracer, op_id)[0] is not None:
                    sized[size].append(op_id)
                wl.finish(op)

    tables = {size: tracer.per_op(ops) for size, ops in sized.items()}

    def median(size, name, quantity):
        """Median over one size's operations; 0 where the function never ran."""
        values = [tables[size][op].get(name, {}).get(quantity, 0.0) for op in sized[size]]
        return statistics.median(values) if values else 0.0

    values = {}
    for metric in PER_LAYER:
        name, _, quantity = metric.rpartition(".")
        if quantity == "exponent":
            kind = EXPONENT_TIME.get(name, "s")
            sizes = sorted(sized)
            values[metric] = fit_exponent(sizes, [median(s, name, kind) for s in sizes])
        else:
            values[metric] = float(median(n, name, quantity))
    values["estimator.generic_to_fast_ratio"] = (
        generic_to_fast_ratio(runner) if wl.name == "fixed_k" else 0.0)
    values["adaptive.two_stage_log_estimate.peak_alloc_mb"] = (
        peak_alloc_mb(runner, n) if wl.name.startswith("adaptive") else 0.0)
    values["cli.bytes_written"] = float(statistics.median(bytes_written)) if bytes_written else 0.0
    values["trace.overhead_pct"] = 100.0 * (1.0 - sum(plain) / sum(traced))
    record = {"trace": tracer.dump(), "untraced_s": plain, "traced_s": traced,
              "layer_share": layer_share(tables[n], main_ops, sum(traced))}
    if tracer.absent:
        print(f"absent from mtsine: {', '.join(tracer.absent)}", file=sys.stderr)
    return values, record


def layer_share(table, ops, total):
    """Each module's self time as a share of the traced operations' time."""
    share = {}
    for op in ops:
        for name, row in table[op].items():
            module = name.split(".")[0]
            share[module] = share.get(module, 0.0) + row["self_s"] / total
    share["outside traced calls"] = 1.0 - sum(share.values())
    return share


def context(mt, args):
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": "numba" if mt.NUMBA_ENABLED else "numpy",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "processor": platform.processor(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; use one of {sorted(workloads.WORKLOADS)}")
    mt = import_mtsine()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        runner = Runner(workloads.WORKLOADS[args.workload], mt, args.seed, workdir)
        measure = per_layer if args.trace else end_to_end
        values, record = measure(runner, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    info = context(mt, args)
    info.update({key: record[key] for key in ("tail_rank", "layer_share") if key in record})
    info["problems"] = runner.problems
    info["errors"] = runner.errors
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"context": info, "result": result, **record}, fh)
    for problem in runner.errors + runner.problems:
        print(problem, file=sys.stderr)
    print("context: " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
