"""tsvar benchmark: one workload, one closed-loop client, one fresh process.

    python3 bench/run.py --workload tables --seed 1 --seconds 20 --trace 0

runs the workload in this process against the source tree in ``src/`` next
to this directory, checks every operation's output, and prints one JSON
object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
(``# info ...``) records the run's sizes, the tail percentile used, and the
commit, Python, numpy, BLAS, CPU count and thread settings.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the same operations, reports the per-layer
metrics of the traced passes plus the tracing overhead, and writes the spans
to ``.bench_out/``.  ``--smoke`` runs one operation per workload, checks the
metric names and units against ``BENCHMARK.json`` and shows that the output
checks reject a perturbed row.  See ``README.md``.
"""

from __future__ import annotations

import os

# Single-threaded BLAS, set before numpy is first imported (also inherited by
# the set-up probes).  On a 2-CPU container OpenBLAS would otherwise allow 64.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter, process_time, thread_time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Each run does a fixed amount of work: round(seconds / nominal pass time)
# passes, measured on a 2-CPU x86-64 container at the commit that introduced
# the benchmark (multistart at the reference speed of the calibration unit
# below; a pass there takes 6-10 s of wall time, depending on the CPU's
# phase).  Fixed work keeps the sample count, and so the tail
# percentile, the same from run to run; a program that became more than
# twice as fast keeps running whole passes until half of --seconds is used.
NOMINAL_PASS_S = {"tables": 0.0133, "multistart": 6.6, "horizon": 1.82, "engine": 0.045}
SETUP_REPEATS = 11
TAIL_SAMPLES = 10

# On that container the CPU's speed swings by up to 2x in phases of tens of ms
# (CPU time swings with wall time), and the mix of phases drifts over
# minutes.  A fixed calibration unit, timed between operations, tracks the
# swings: every reported time is CPU time scaled to the speed at which one
# unit takes CALIBRATION_REFERENCE_S (see Run).  CPU time rather than wall
# time, because when other tenants load the host the process also loses
# whole time slices, which lengthen a few short operations by several ms
# and so move the tail percentile; the program is single-threaded and does
# no I/O in a timed operation, so its CPU time is its service time.
CALIBRATION_INTERVAL_S = 0.01
CALIBRATION_UNITS = 3
CALIBRATION_REFERENCE_S = 1.2e-4
SETUP_CALIBRATION_S = 0.1
CALIBRATION_WINDOW_SPANS = 8.0

END_TO_END_UNITS = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops_per_s": "1/s",
    "ok_share": "ratio",
    "converged_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("tables", "multistart", "horizon", "engine"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program():
    """Import tsvar from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "tsvar", "__init__.py")):
        raise SystemExit(f"bench: no tsvar sources under {SRC}")
    sys.path.insert(0, SRC)
    import tsvar

    if os.path.dirname(os.path.dirname(os.path.abspath(tsvar.__file__))) != SRC:
        raise SystemExit(f"bench: imported tsvar from {tsvar.__file__}, not {SRC}")


def _commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_text,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# set-up


def _prepare(workload: str, seed: int):
    """Inputs for the workload plus one untimed warm-up of its code paths."""
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    ops = workloads.build_ops(workload, seed, OUT_DIR)
    for op in workloads.warmup_ops(workload, ops):
        op.run()
    return ops


def _probe_setup(workload: str, seed: int) -> tuple:
    """CPU and wall seconds from starting a fresh interpreter to a warmed-up
    workload.  The CPU time is the interpreter's own, which it reports when
    it is ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.communicate(timeout=120)
    word, _, cpu = line.strip().partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return float(cpu), elapsed


def _calibration_window() -> float:
    """Mean calibration unit CPU time over SETUP_CALIBRATION_S of repeated units."""
    units = 0
    start, cpu_start = perf_counter(), thread_time()
    while perf_counter() - start < SETUP_CALIBRATION_S:
        _calibration_unit()
        units += 1
    return (thread_time() - cpu_start) / units


def _measure_setup(workload: str, seed: int, repeats: int) -> tuple:
    """Set-up times of ``repeats`` fresh interpreters: scaled CPU time, and wall.

    Calibration windows sit between the probes; each probe is scaled by the
    mean of the windows on either side, like the operations of a run.
    """
    windows = [_calibration_window()]
    cpu, wall = [], []
    for _ in range(repeats):
        probe_cpu, probe_wall = _probe_setup(workload, seed)
        cpu.append(probe_cpu)
        wall.append(probe_wall)
        windows.append(_calibration_window())
    scaled = [t * CALIBRATION_REFERENCE_S / ((windows[i] + windows[i + 1]) / 2)
              for i, t in enumerate(cpu)]
    return scaled, wall


# ---------------------------------------------------------------------------
# measurement


def _calibration_unit() -> float:
    """A fixed piece of work shaped like the program's own (~0.1 ms):
    interpreted calls of small closures on floats, plus small-array numpy."""
    rate = 0.05

    def integrand(t, y, v):
        return (1.0 + rate) ** (t - 3.0) * (3.0 + 0.5 * y + 3.0 * v * v - y - 2.0 * y / (y - 0.5))

    values = [2.0 + 0.01 * i for i in range(41)]
    total = 0.0
    for i in range(40):
        total += integrand(float(i), values[i + 1], values[i + 1] - values[i])
    a = np.array(values)
    for _ in range(8):
        b = np.full(len(a), 0.0)
        b[:-1] = (a[1:] - a[:-1]) / 0.5
        total += float(np.max(np.abs(b)))
    return total


def _calibration_sample() -> float:
    times = []
    for _ in range(CALIBRATION_UNITS):
        start = thread_time()
        _calibration_unit()
        times.append(thread_time() - start)
    return statistics.median(times)


class Run:
    """Timed operations of one run and their verified outputs.

    Between operations (never inside one) the run times a calibration sample
    at least every CALIBRATION_INTERVAL_S.  End-to-end times are CPU times
    scaled by each op's speed factor (see ``_scaled_latencies``); the wall
    times themselves go to the info line.
    """

    def __init__(self, ops):
        self.ops = ops
        self.latencies = {op.name: [] for op in ops}   # CPU seconds
        self.wall = {op.name: [] for op in ops}        # wall seconds
        self.starts = {op.name: [] for op in ops}      # perf_counter at each op's start
        self.calibration = []                           # CPU seconds per unit, in time order
        self.calibration_times = []
        self._calibrated_at = -math.inf
        self.attempted = 0
        self.failed = 0
        self.cells = 0
        self.converged = 0
        self.errors = []

    def oracle(self, reference: dict) -> None:
        """Build and verify each op type's expectation, outside any timing."""
        for op in self.ops:
            try:
                op.oracle(reference)
            except Exception as exc:  # every op of the type then counts as failed
                op.broken = True
                self._error(f"oracle {op.name}: {exc!r}")

    def _error(self, message: str) -> None:
        if len(self.errors) < 5:
            self.errors.append(message)

    def calibrate(self, force: bool = False) -> None:
        if force or perf_counter() - self._calibrated_at >= CALIBRATION_INTERVAL_S:
            self.calibration_times.append(perf_counter())
            self.calibration.append(_calibration_sample())
            self._calibrated_at = perf_counter()

    def record(self, op, call) -> float:
        """Run ``call`` (one op) with timing, then check its output."""
        self.calibrate()
        self.attempted += 1
        self.cells += op.cells
        output = None
        start = perf_counter()
        cpu_start = thread_time()
        try:
            output = call()
        except Exception as exc:
            self.failed += 1
            self._error(f"{op.name} raised {exc!r}")
        cpu = thread_time() - cpu_start
        elapsed = perf_counter() - start
        self.latencies[op.name].append(cpu)
        self.wall[op.name].append(elapsed)
        self.starts[op.name].append(start)
        if output is None:
            return elapsed
        if op.broken:
            self.failed += 1
            return elapsed
        try:
            self.converged += op.check(output)
        except AssertionError as exc:
            self.failed += 1
            self._error(str(exc))
        return elapsed

    def _scaled_latencies(self) -> dict:
        """Each op's CPU time times its speed factor: the reference unit time
        over the mean calibration unit time in a window around the op.

        The window reaches CALIBRATION_WINDOW_SPANS op (wall) durations (at least
        CALIBRATION_INTERVAL_S) either side of the op's midpoint and always
        holds the calibrations just before and just after it, so a long op,
        which spans many speed phases, is scaled by a long-run average.
        """
        self.calibrate(force=True)
        times = np.array(self.calibration_times)
        cumsum = np.concatenate([[0.0], np.cumsum(self.calibration)])

        def speed(start, elapsed):
            mid = start + elapsed / 2
            reach = max(CALIBRATION_INTERVAL_S, CALIBRATION_WINDOW_SPANS * elapsed)
            before = int(np.searchsorted(times, start, "right")) - 1
            lo = min(before, int(np.searchsorted(times, mid - reach, "left")))
            hi = max(before + 2, int(np.searchsorted(times, mid + reach, "right")))
            return CALIBRATION_REFERENCE_S * (hi - lo) / (cumsum[hi] - cumsum[lo])

        return {name: [x * speed(start, wall)
                       for x, start, wall in zip(xs, self.starts[name], self.wall[name])]
                for name, xs in self.latencies.items() if xs}

    def end_to_end(self, setup_times: list) -> tuple:
        scaled = self._scaled_latencies()
        cal = self.calibration
        pooled = sorted(x for xs in scaled.values() for x in xs)
        n = len(pooled)
        percentile = min(99, math.floor(100 * (n - TAIL_SAMPLES) / n)) if n > TAIL_SAMPLES else 50
        rank = max(1, math.ceil(percentile / 100 * n))
        completed = self.attempted - self.failed
        metrics = {
            "latency_p50_ms": 1e3 * statistics.median(statistics.median(xs) for xs in scaled.values()),
            "latency_tail_ms": 1e3 * pooled[rank - 1],
            "throughput_ops_per_s": completed / sum(pooled),
            "ok_share": completed / self.attempted,
            "converged_share": self.converged / self.cells,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wall = {name: xs for name, xs in self.wall.items() if xs}
        cpu_s = sum(sum(xs) for xs in self.latencies.values())
        details = {
            "tail": {"percentile": percentile, "samples": n, "samples_beyond": n - rank},
            "calibration": {"samples": len(cal), "median_unit_s": statistics.median(cal),
                            "reference_unit_s": CALIBRATION_REFERENCE_S},
            "wall_clock": {
                "latency_p50_ms": 1e3 * statistics.median(statistics.median(xs) for xs in wall.values()),
                "throughput_ops_per_s": completed / sum(sum(xs) for xs in wall.values()),
                "type_p50_ms": {name: 1e3 * statistics.median(xs) for name, xs in wall.items()},
                "cpu_over_wall": cpu_s / sum(sum(xs) for xs in wall.values()),
            },
        }
        return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, details


def _run_passes(run, workload, seed, seconds, tracer=None):
    """Closed loop over whole passes.

    With a tracer every pass order runs twice, untraced then traced, so the
    overhead compares the same operations at nearly the same time.
    """
    import workloads

    modes = (False, True) if tracer is not None else (False,)
    rounds = max(1, round(seconds / NOMINAL_PASS_S[workload] / len(modes)))
    timed = {False: 0.0, True: 0.0}
    k = 0
    while k < rounds or sum(timed.values()) < seconds / 2:
        order = workloads.pass_order(run.ops, seed, k)
        for traced in modes:
            if traced:
                tracer.install()
            try:
                for op in order:
                    call = (lambda op=op: tracer.op(op.run)) if traced else op.run
                    timed[traced] += run.record(op, call)
            finally:
                if traced:
                    tracer.uninstall()
        k += 1
    return k * len(modes), timed


def _emit(info: dict, correct: bool, run, metrics: dict) -> None:
    print("# info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def measure(args) -> int:
    import workloads

    if not args.trace:
        setup_times, setup_wall = _measure_setup(args.workload, args.seed, SETUP_REPEATS)
    ops = _prepare(args.workload, args.seed)
    run = Run(ops)
    run.oracle(workloads.load_reference())

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    passes, timed = _run_passes(run, args.workload, args.seed, args.seconds, tracer)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "op_types": len(ops),
        "timed_s": sum(timed.values()),
        "errors": run.errors,
        "environment": _environment(),
    }
    if tracer is None:
        metrics, details = run.end_to_end(setup_times)
        info.update(details, setup_wall_s=setup_wall)
    else:
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_share"] = (timed[True] / timed[False] - 1.0, "ratio")
        path = os.path.join(OUT_DIR, f"trace_{args.workload}_{args.seed}.npz")
        tracer.write(path)
        info["spans"] = {"count": len(tracer.span_name), "file": os.path.relpath(path, ROOT)}
    correct = run.failed == 0 and not run.errors
    _emit(info, correct, run, metrics)
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# smoke mode


SMOKE_OPS = {
    "tables": "table1",
    "multistart": "multistart/0.02/dd/direct",
    "horizon": "horizon/10/nd/direct",
    "engine": "engine/16/dn/int",
}


def _expect_rejected(op, output, what: str, problems: list) -> None:
    try:
        op.check(output)
    except AssertionError:
        return
    problems.append(f"{op.name}: the check accepted {what}")


def smoke() -> int:
    """One op per workload: metric names, units, and rejection of bad rows."""
    import workloads
    from spans import Tracer

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reference = workloads.load_reference()
    failures = []
    for workload, op_name in SMOKE_OPS.items():
        problems = []
        ops = [op for op in _prepare(workload, 0) if op.name == op_name]
        run = Run(ops)
        run.oracle(reference)
        run.record(ops[0], ops[0].run)
        metrics, _ = run.end_to_end(_measure_setup(workload, 0, 1)[0])
        tracer = Tracer()
        tracer.install()
        try:
            run.record(ops[0], lambda: tracer.op(ops[0].run))
        finally:
            tracer.uninstall()
        layer = tracer.layer_metrics()
        layer["trace.overhead_share"] = (0.0, "ratio")
        for got, want, kind in ((metrics, want_e2e, "end-to-end"), (layer, want_layer, "per-layer")):
            units = {k: u for k, (_, u) in got.items()}
            if units != want:
                problems.append(f"{workload}: {kind} metrics {units} != BENCHMARK.json {want}")
        if run.failed or run.errors:
            problems.append(f"{workload}: {run.errors}")

        op = ops[0]
        output = op.run()
        if workload == "engine":
            functional, first, second = output
            bumped = first.copy()
            bumped[1] *= 1 + 1e-6
            _expect_rejected(op, (functional, bumped, second), "a perturbed residual", problems)
            _expect_rejected(op, (functional * (1 + 1e-6), first, second),
                             "a perturbed functional", problems)
        else:
            code, text = output
            lines = text.splitlines()
            fields = lines[1].split(",")
            fields[3] = f"{float(fields[3]) * (1 + 1e-6):.10g}"
            bad = "\n".join([lines[0], ",".join(fields), *lines[2:]]) + "\n"
            _expect_rejected(op, (code, bad), "a perturbed functional", problems)
            wrong = json.loads(json.dumps(reference))
            wrong[op.name][0]["functional"] *= 1 + 1e-9
            try:
                op.oracle(wrong)
                problems.append(f"{op.name}: the oracle accepted a perturbed reference row")
            except AssertionError:
                pass
        print(f"smoke {workload}: {op_name} " + ("ok" if not problems else "FAILED"))
        failures.extend(problems)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    print("smoke: all workloads ok")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    if args.setup_probe:
        _prepare(args.workload, args.seed)
        print(f"ready {process_time()!r}", flush=True)
        return 0
    if args.smoke:
        return smoke()
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
