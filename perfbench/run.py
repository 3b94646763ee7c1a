"""Benchmark of the mehler package: three workloads and a traced run.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs each op untraced and then again with span wrappers
installed (see ``tracing.py``), and reports the per-layer metrics and the
tracing overhead.  Every op is checked against an independent oracle
(``oracle.py``); the last stdout line is one strict JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs the three workloads one after another and prints
every end-to-end metric by name and unit.

The package is imported from ``src/`` of the working directory; without
it the benchmark exits with a non-zero status and prints no result.
"""

import argparse
import functools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("suite", "heat-points", "heat-grid")
MIN_OPS = 100  # leaves at least 10 samples beyond the p90
SETUP_PROBES = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = ".perfbench"
# Mean SpeedProbe time on the reference machine (2-vCPU Intel Xeon VM,
# Python 3.11, numpy 2.4, OpenBLAS 0.3.31)
PROBE_REF_S = 6.0e-4

# (name, unit, better) of the end-to-end metrics, in report order
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("tol_margin_digits", "digits", "higher"),
)


def cap_blas_threads() -> tuple[int, int]:
    """Limit BLAS threads to the CPUs this process may use; must run before
    numpy is imported.  Returns (nproc, thread cap)."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cap = nproc
    for var in BLAS_THREAD_VARS:
        try:
            cap = min(cap, max(1, int(os.environ[var])))
        except (KeyError, ValueError):
            pass
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return nproc, cap


def environment(nproc: int, threads: int) -> dict:
    """Machine and library details; reported, never compared."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": threads,
    }


def load_package(root: Path):
    """Import mehler from ``root/src``, refusing any other copy."""
    src = root / "src"
    if not (src / "mehler" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src / 'mehler'}; run from the repository root")
    sys.path.insert(0, str(src))
    import mehler
    import mehler.suite  # not imported by the package itself

    if Path(mehler.__file__).resolve().parent != (src / "mehler").resolve():
        raise SystemExit(f"perfbench: imported mehler from {mehler.__file__}, not from {src}")
    return mehler


def measure_setup(root: Path, workload: str) -> list[tuple[float, float]]:
    """Import plus first-call lazy set-up, each in a fresh interpreter.
    Returns (seconds, that interpreter's slowdown) per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload],
            cwd=root, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        seconds, probe_s = proc.stdout.split()[-2:]
        samples.append((float(seconds), float(probe_s) / PROBE_REF_S))
    return samples


# ---------------------------------------------------------------------------
# Measurement loops
# ---------------------------------------------------------------------------


class SpeedProbe:
    """A fixed piece of benchmark-owned work, timed between ops.

    The CPU speed of a shared machine drifts by tens of percent within a
    minute.  The probe mixes scalar Python arithmetic, small numpy kernels
    and a small BLAS product like the package does, so its mean time over a
    run tracks the speed the ops saw.  It stays cache-resident: a probe
    over large arrays would also time the cache state an op leaves behind,
    which depends on the program.  Timing metrics are reported at the
    reference speed: the raw value scaled by the ratio of the run's mean
    probe time to ``PROBE_REF_S`` (for set-up, of the probe interpreter's
    own mean); the raw values are printed and saved as well.
    """

    def __init__(self):
        import numpy

        self._buf = numpy.linspace(0.0, 1.0, 4096) * (1 + 1j)
        self._mat = numpy.linspace(0.0, 1.0, 96 * 96).reshape(96, 96) * (1 + 1j) / 96
        self.samples: list[float] = []

    def __call__(self) -> None:
        start = time.perf_counter()
        z, acc = 0.3 + 0.1j, 0j
        for k in range(1, 1500):
            acc = z * acc * 0.5 - (k % 7) * 1e-3 + math.sqrt(k)
        for _ in range(8):
            float(abs(self._buf * acc).sum())
        float(abs(self._mat @ self._mat).sum())
        self.samples.append(time.perf_counter() - start)

    def slowdown(self) -> float:
        """Mean probe time relative to the reference machine's."""
        return statistics.fmean(self.samples) / PROBE_REF_S


def _timed_checks(suite, timer: dict, probe):
    """Wrap each registered check so its seconds land in ``timer``; the
    speed probe runs after each check, outside its timing."""

    def timed(i, fn):
        @functools.wraps(fn)
        def wrapper(config):
            start = time.perf_counter()
            try:
                return fn(config)
            finally:
                timer[i] = time.perf_counter() - start
                if probe is not None:
                    probe()

        return wrapper

    original = list(suite.CHECKS)
    suite.CHECKS[:] = [timed(i, fn) for i, fn in enumerate(original)]
    return original


def batches(M, workload: str, seed: int, probe=None):
    """Endless stream of batches.  A batch is a callable ``run(timed)``
    returning (records, busy seconds); it can be run more than once.

    For ``suite`` a batch is one ``run_suite`` pass and ``timed`` installs
    the per-check timer (a traced pass is timed by its spans instead); for
    the other workloads a batch is one op.  Inputs and oracle values are
    made when the batch is drawn, and ``probe`` runs after each op; both
    are off the clock.
    """
    import workloads as W

    if workload == "suite":

        def one_pass(timed: bool):
            timer: dict = {}
            original = _timed_checks(M.suite, timer, probe) if timed else None
            try:
                start = time.perf_counter()
                recs = W.suite_pass(M, seed, timer)
                wall = time.perf_counter() - start
            finally:
                if original is not None:
                    M.suite.CHECKS[:] = original
            return recs, sum(timer.values()) if timed else wall

        while True:
            yield one_pass

    stream = W.heat_points(M, seed) if workload == "heat-points" else W.heat_grid(M, seed)
    for op in stream:

        def one_op(timed: bool, op=op):
            rec = W.execute(op)
            if timed and probe is not None:
                probe()
            return [rec], rec.seconds

        yield one_op


def run_ops(M, workload: str, seed: int, seconds: float, probe=None):
    """Closed loop until ``seconds`` of op time and at least MIN_OPS ops.
    Returns (records grouped by batch, busy seconds)."""
    groups, busy, n_ops = [], 0.0, 0
    source = batches(M, workload, seed, probe)
    while busy < seconds or n_ops < MIN_OPS:
        recs, b = next(source)(True)
        groups.append(recs)
        busy += b
        n_ops += len(recs)
    return groups, busy


def _quantiles(values) -> tuple[float, float]:
    import numpy as np

    p50, p90 = np.percentile(values, [50, 90])
    return float(p50), float(p90)


def end_to_end(workload: str, groups, busy: float, setup, slowdown: float):
    """(metrics at the reference speed, the same timings unscaled)."""
    records = [r for g in groups for r in g]
    if workload == "suite":
        # Each pass holds the same 19 checks, so quantiles are taken per
        # pass and the median over passes is reported: pooling would make
        # the p90 depend on how many passes fit in the run.
        per_pass = [_quantiles([1e3 * r.seconds for r in g]) for g in groups]
        p50 = statistics.median(q[0] for q in per_pass)
        p90 = statistics.median(q[1] for q in per_pass)
    else:
        p50, p90 = _quantiles([1e3 * r.seconds for r in records])
    margins = [r.margin for r in records if r.margin is not None]
    raw = {
        "setup_s": statistics.median(t for t, _ in setup),
        "ops_per_s": len(records) / busy,
        "op_p50_ms": p50,
        "op_p90_ms": p90,
    }
    metrics = {
        "setup_s": statistics.median(t / slow for t, slow in setup),
        "ops_per_s": raw["ops_per_s"] * slowdown,
        "op_p50_ms": p50 / slowdown,
        "op_p90_ms": p90 / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tol_margin_digits": min(margins) if margins else 0.0,
    }
    return metrics, raw


def per_layer(M, workload: str, seed: int, seconds: float, root: Path):
    """Each batch runs untraced, then again traced, until the untraced runs
    reach half of ``seconds``; the paired runs give the tracing overhead.
    Returns (records of both runs, per-layer metrics)."""
    from tracing import Tracer

    check_names = list(M.suite.DEFAULT_TOLERANCES)
    tracer = Tracer(M, check_names)
    groups, plain_busy, traced_busy, n_ops = [], 0.0, 0.0, 0
    source = batches(M, workload, seed)
    while plain_busy < seconds / 2 or n_ops < MIN_OPS:
        batch = next(source)
        recs, b = batch(True)
        groups.append(recs)
        plain_busy += b
        n_ops += len(recs)
        tracer.op_id += 1
        tracer.install()
        try:
            recs, b = batch(False)
        finally:
            tracer.uninstall()
        groups.append(recs)
        traced_busy += b
    metrics = tracer.layer_metrics(traced_busy, traced_busy / plain_busy - 1.0)
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    tracer.save(out / f"trace-{workload}.npz")
    return groups, metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _units(M) -> dict:
    from tracing import layer_metric_spec

    spec = END_TO_END + tuple(layer_metric_spec(M.suite.DEFAULT_TOLERANCES))
    return {name: unit for name, unit, _ in spec}


def run_one(args, root: Path) -> int:
    nproc, threads = cap_blas_threads()
    M = load_package(root)
    sys.path.insert(0, str(HERE))
    import workloads as W

    env = environment(nproc, threads)
    W.setup(M, args.workload)
    W.warm_up(M, args.workload)
    speed = {}
    if args.trace:
        groups, metrics = per_layer(M, args.workload, args.seed, args.seconds, root)
    else:
        setup = measure_setup(root, args.workload)
        probe = SpeedProbe()
        groups, busy = run_ops(M, args.workload, args.seed, args.seconds, probe)
        metrics, unscaled = end_to_end(args.workload, groups, busy, setup, probe.slowdown())
        speed = {"slowdown": probe.slowdown(), "unscaled": unscaled, "setup_probes": setup}

    records = [r for g in groups for r in g]
    failures = [r for r in records if not r.ok]
    units = _units(M)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True, allow_nan=False))
    if speed:
        print(f"  machine slowdown vs reference = {speed['slowdown']:.4f}; unscaled: "
              + ", ".join(f"{k} = {v:.6g}" for k, v in speed["unscaled"].items()))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units.get(name, '')}")
    print(f"  fail_ratio = {len(failures) / len(records):.6g} ({len(failures)}/{len(records)} ops)")
    for r in failures[:10]:
        print(f"  FAILED {r.label}: {r.error}")

    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "speed": speed,
        "metrics": metrics,
        "attempted": len(records),
        "failed": len(failures),
        "failures": [{"op": r.label, "error": r.error} for r in failures[:100]],
    }
    path = out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, sort_keys=True, allow_nan=False))

    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


def run_all(args, root: Path) -> int:
    """Each workload in its own process; prints every end-to-end metric."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=600, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        status |= 0 if result["correct"] else 1
        ratio = result["failed"] / result["attempted"]
        for name, m in result["metrics"].items():
            rows.append((workload, name, m["value"], m["unit"]))
        rows.append((workload, "fail_ratio", ratio, "ratio"))
    print()
    print(f"{'workload':12s} {'metric':18s} {'value':>14s} unit")
    for workload, name, value, unit in rows:
        print(f"{workload:12s} {name:18s} {value:14.6g} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = Path.cwd()
    if args.workload == "all":
        return run_all(args, root)
    return run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())
