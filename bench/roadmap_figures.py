"""Time the six single-call figures that ROADMAP.md quotes as its baseline.

    python3 bench/roadmap_figures.py

Each figure is the median wall time of REPEATS calls (more for the fast
figures, fewer for multistart) after one untimed call.  The result is one
JSON object on standard output; it also gives the mean time of run.py's
calibration unit over 100 ms before and after, so that figures taken at
different CPU speeds can be compared.  The benchmark itself (``run.py``)
measures whole workloads; this script exists to compare the benchmark's
baseline with the ROADMAP's own figures.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import io
import json
import statistics
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from run import _calibration_window  # noqa: E402

import numpy as np  # noqa: E402

from tsvar import (  # noqa: E402
    CLAMPED, EquationKind, FirmParams, GridFunction, ProblemKind,
    firm_problem, main, newton_solve, residual_system, theorem_main_residual,
)


REPEATS = 25


def _median_s(call, repeats: int) -> float:
    call()
    times = []
    for _ in range(repeats):
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    return statistics.median(times)


def figures() -> dict:
    params = FirmParams()
    dn_el1 = residual_system(params, ProblemKind.DELTA_NABLA, EquationKind.TIMESCALE_EL1)
    problem = firm_problem(params, ProblemKind.DELTA_NABLA)
    state = GridFunction(problem.scale, [2.0, 2.9, 3.0, 3.0])
    long_dd = residual_system(FirmParams(horizon=10), ProblemKind.DELTA_DELTA)
    linear = [2.0 + j / 10 for j in range(1, 10)]
    x = np.array([2.9, 3.0])
    before = _calibration_window()
    return {
        "table1_ms": 1e3 * _median_s(lambda: main(["table1"], stdout=io.StringIO()), REPEATS),
        "table1_multistart_s": _median_s(
            lambda: main(["table1", "--multistart"], stdout=io.StringIO()), max(1, REPEATS // 10)),
        "econ_residual_T3_us": 1e6 * _median_s(lambda: dn_el1.residual(x), REPEATS * 40),
        "theorem_residual_T3_us": 1e6 * _median_s(
            lambda: theorem_main_residual(problem, state, "delta", CLAMPED), REPEATS * 40),
        "newton_dn_el1_ms": 1e3 * _median_s(lambda: newton_solve(dn_el1, (2.9, 3.0)), REPEATS * 4),
        "newton_dd_T10_ms": 1e3 * _median_s(lambda: newton_solve(long_dd, linear), REPEATS),
        "calibration_unit_us": 1e6 * (before + _calibration_window()) / 2,
    }


if __name__ == "__main__":
    print(json.dumps(figures(), indent=1))
