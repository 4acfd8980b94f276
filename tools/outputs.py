"""Record every output of the program in full precision, and compare two records.

    python tools/outputs.py write PATH
    python tools/outputs.py compare A B

``write`` runs the program of this checkout (its ``src`` and ``bench``) and
stores each surface's rows in the JSON file PATH, with one SHA-256 per
surface.  A row is a key and a list of values: a float is written as
``float.hex``, so equal rows are equal bits, and anything else as its
``repr``.  The surfaces are

* ``cli/...``: the text, stderr and exit code of ``table1`` and ``table2`` as
  CSV, JSON and markdown, each with and without ``--multistart``;
* ``workload/tables``, ``workload/multistart``, ``workload/horizon``: every
  op of ``bench/workloads.py``'s op lists, its exit code and text and the
  full-precision rows ``run_table`` gives for its config;
  ``workload/engine``: the three outputs of each ``engine`` op, seeds 1 and 2;
* ``lockstep/<rate>``: every field of the ``lockstep_solve`` reports of the
  12 firm systems from the default start grid;
* ``newton/<horizon>``: every field of the ``newton_solve`` reports of the
  12 firm systems from the linear seed, with and without their Jacobian;
* ``jacobian/<horizon>``: the one-state Jacobian of the 12 firm systems at
  both rates, read through ``econ.residual_system(...).jacobian``, its
  entries row by row or the text of its ``DomainError``, at seeded states:
  the linear seed, perturbations of it, and states with sales next to the
  floor at a large B, where a Jacobian overflows;
* ``stacked/<horizon>``: the ``stacked_residual`` rows of the 12 firm
  systems at both rates, read through
  ``econ.residual_system(...).stacked_residual``, for seeded stacks of 1, 8
  and 31 states (a one-row call, a few-start tail, a deep damping call):
  the linear seed and perturbations of it, and, at a large B, states with
  sales next to the floor, whose rows overflow to NaN, among perturbed ones.

``compare`` prints ``same`` per surface whose digests agree, or the rows that
differ, are missing or are new, with the largest absolute and relative gap
over the floats of each differing row; it exits 1 on any difference.  The
bits depend on the platform (numpy, BLAS), so compare two records made on
one machine, for instance of two checkouts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import struct
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

RATES = (0.05, 0.02)
NEWTON_HORIZONS = (10, 20)
JACOBIAN_HORIZONS = (2, 3, 10, 20)
PERTURBATIONS = 4
FLOOR_B = (1e100, 1e250, 1e305)
STACK_SIZES = (1, 8, 31)
ENGINE_SEEDS = (1, 2)


def value(x) -> str:
    """One value of a row: a float (a numpy one too) as ``float.hex``, a NaN
    with its sign and payload, which ``float.hex`` drops."""
    if isinstance(x, float):
        return float.hex(x) if x == x else "nan:" + struct.pack(">d", x).hex()
    return repr(x)


def surface(rows: list) -> dict:
    """A surface's record: its rows as [key, [values]] and their SHA-256."""
    rows = [[key, [value(x) for x in values]] for key, values in rows]
    text = json.dumps(rows, separators=(",", ":"))
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "rows": rows}


def report_rows(key: str, report) -> list:
    """One row per field of a solve report; arrays give one value per entry."""
    rows = []
    for f in fields(report):
        got = getattr(report, f.name)
        if f.name == "iterates":
            rows += [(f"{key} iterates[{i}]", np.asarray(x).tolist()) for i, x in enumerate(got)]
            continue
        if isinstance(got, np.ndarray):
            got = got.tolist()
        rows.append((f"{key} {f.name}", list(got) if isinstance(got, (list, tuple)) else [got]))
    return rows


def _cli_surfaces() -> dict:
    from tsvar import cli

    out = {}
    for command in ("table1", "table2"):
        for fmt in ("csv", "json", "markdown"):
            for multistart in (False, True):
                argv = [command, "--format", fmt] + (["--multistart"] if multistart else [])
                text, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = cli.main(argv, stdout=text)
                rows = [("exit", [code])]
                rows += [(f"out {i}", [line]) for i, line in enumerate(text.getvalue().split("\n"))]
                rows += [(f"err {i}", [line]) for i, line in enumerate(err.getvalue().split("\n"))]
                out["cli/" + "/".join(argv[:1] + argv[2:])] = surface(rows)
    return out


def _cli_op_rows(op) -> list:
    from tsvar import cli

    code, text = op.run()
    rows = [(f"{op.name} exit", [code])]
    rows += [(f"{op.name} out {i}", [line]) for i, line in enumerate(text.split("\n"))]
    for i, row in enumerate(cli.run_table(cli.parse_config(op.config_text))):
        rows.append((f"{op.name} row {i}", [row.kind.value, row.equation_label, *row.root,
                                            row.functional, row.converged, row.iterations]))
    return rows


def _workload_surfaces() -> dict:
    import workloads

    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in ("tables", "multistart", "horizon"):
            rows = []
            for op in workloads.build_ops(name, 0, workdir):
                rows += _cli_op_rows(op)
            out[f"workload/{name}"] = surface(rows)
        rows = []
        for seed in ENGINE_SEEDS:
            for op in workloads.build_ops("engine", seed, workdir):
                functional, first, second = op.run()
                key = f"seed {seed} {op.name}"
                rows += [(f"{key} functional", [functional]),
                         (f"{key} delta", first.tolist()), (f"{key} nabla", second.tolist())]
        out["workload/engine"] = surface(rows)
    return out


def _systems(params):
    from tsvar import econ

    for kind in econ.ProblemKind:
        for eq in econ.EquationKind:
            yield f"{kind.value}/{eq.value}", econ.residual_system(params, kind, eq)


def _solver_surfaces() -> dict:
    from tsvar import cli, econ, solver

    out = {}
    for rate in RATES:
        params = econ.FirmParams(discount_rate=rate)
        rows = []
        for label, system in _systems(params):
            grid = solver.default_start_grid(system.dimension)
            for i, report in enumerate(solver.lockstep_solve(system, grid)):
                rows += report_rows(f"{label} start {i}", report)
        out[f"lockstep/{rate}"] = surface(rows)
    for horizon in NEWTON_HORIZONS:
        params = econ.FirmParams(horizon=horizon)
        rows = []
        for label, system in _systems(params):
            kind, eq = label.split("/")
            seed = cli._default_seed(params, econ.ProblemKind(kind), econ.EquationKind(eq))
            for which, used in (("jacobian", system),
                                ("differences", replace(system, jacobian=None))):
                rows += report_rows(f"{label} {which}", solver.newton_solve(used, seed))
        out[f"newton/{horizon}"] = surface(rows)
    return out


def _linear_seed(params) -> np.ndarray:
    a, b, m = params.y_initial, params.y_terminal, params.horizon - 1
    return np.array([a + (b - a) * j / (m + 1) for j in range(1, m + 1)])


def _near_floor(params, rng) -> np.ndarray:
    """The linear seed with about half its values, one at least, a power of
    two between 2**-50 and 2**-1 above the sales floor."""
    near = _linear_seed(params)
    m = len(near)
    at = rng.random(m) < 0.5
    at[rng.integers(m)] = True
    near[at] = params.y_floor + 2.0 ** -rng.uniform(1.0, 50.0, int(at.sum()))
    return near


def jacobian_rows(horizon: int) -> list:
    """The ``jacobian/<horizon>`` surface's rows: per rate, system and state,
    the Jacobian's entries in row order, or ``DomainError: <text>``."""
    from tsvar import econ
    from tsvar.timescale import DomainError

    rng = np.random.default_rng(horizon)
    rows = []
    for rate in RATES:
        params = econ.FirmParams(horizon=horizon, discount_rate=rate)
        seed = _linear_seed(params)
        states = [("seed", params, seed)]
        states += [(f"perturbed {i}", params, seed + rng.normal(0.0, 0.3, len(seed)))
                   for i in range(PERTURBATIONS)]
        for B in FLOOR_B:
            states.append((f"floor B={B:g}", econ.FirmParams(horizon=horizon, discount_rate=rate,
                                                             B=B), _near_floor(params, rng)))
        for name, state_params, x in states:
            for label, system in _systems(state_params):
                try:
                    got = system.jacobian(x).ravel().tolist()
                except DomainError as exc:
                    got = [f"DomainError: {exc}"]
                rows.append((f"{rate} {label} {name}", got))
    return rows


def stacked_rows(horizon: int) -> list:
    """The ``stacked/<horizon>`` surface's rows: per rate, stack size and
    system, the ``stacked_residual`` row of each state of two stacks.  The
    first stack holds the linear seed and perturbations of it; the second,
    at the largest of ``FLOOR_B``, alternates states next to the floor,
    which give NaN rows, with perturbed ones."""
    from tsvar import econ

    rng = np.random.default_rng(horizon)
    rows = []
    for rate in RATES:
        params = econ.FirmParams(horizon=horizon, discount_rate=rate)
        large = econ.FirmParams(horizon=horizon, discount_rate=rate, B=FLOOR_B[-1])
        seed = _linear_seed(params)
        for size in STACK_SIZES:
            perturbed = seed + rng.normal(0.0, 0.3, (size, len(seed)))
            perturbed[0] = seed
            mixed = perturbed.copy()
            mixed[::2] = [_near_floor(params, rng) for _ in range(0, size, 2)]
            for name, stack_params, stack in (("seed", params, perturbed),
                                              (f"floor B={large.B:g}", large, mixed)):
                for label, system in _systems(stack_params):
                    got = system.stacked_residual(stack)
                    rows += [(f"{rate} S={size} {label} {name} {i}", row)
                             for i, row in enumerate(got.tolist())]
    return rows


def write(path: str) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    surfaces = {**_cli_surfaces(), **_workload_surfaces(), **_solver_surfaces(),
                **{f"jacobian/{horizon}": surface(jacobian_rows(horizon))
                   for horizon in JACOBIAN_HORIZONS},
                **{f"stacked/{horizon}": surface(stacked_rows(horizon))
                   for horizon in JACOBIAN_HORIZONS}}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"surfaces": surfaces}, handle, indent=0)
    for name, record in surfaces.items():
        print(f"{name} {len(record['rows'])} rows {record['sha256'][:16]}")
    return 0


def _float(text: str):
    """The float a value holds, or None for any other value and a NaN."""
    return float.fromhex(text) if "0x" in text or text in ("inf", "-inf") else None


def _difference(a: list, b: list) -> str:
    """How two rows differ: the largest absolute and relative gap over their
    paired floats that differ, or, where no such pair does, both rows."""
    gaps = []
    for x, y in zip(map(_float, a), map(_float, b)):
        if x is not None and y is not None and x != y:
            gap = abs(x - y)
            gaps.append((gap, gap / max(abs(x), abs(y))))
    if len(a) != len(b) or not gaps:
        return f"{' '.join(a)[:120]} | {' '.join(b)[:120]}"
    return f"abs {max(g[0] for g in gaps):.3g} rel {max(g[1] for g in gaps):.3g}"


def compare(path_a: str, path_b: str) -> int:
    surfaces = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as handle:
            surfaces.append(json.load(handle)["surfaces"])
    a, b = surfaces
    differs = False
    for name in list(a) + [name for name in b if name not in a]:
        if name not in a or name not in b:
            print(f"{name}: only in {path_a if name in a else path_b}")
            differs = True
            continue
        if a[name]["sha256"] == b[name]["sha256"]:
            print(f"{name}: same")
            continue
        differs = True
        print(f"{name}: differs")
        rows_a, rows_b = dict(a[name]["rows"]), dict(b[name]["rows"])
        for key in list(rows_a) + [key for key in rows_b if key not in rows_a]:
            if key not in rows_b:
                print(f"  {key}: only in {path_a}")
            elif key not in rows_a:
                print(f"  {key}: only in {path_b}")
            elif rows_a[key] != rows_b[key]:
                print(f"  {key}: {_difference(rows_a[key], rows_b[key])}")
    return 1 if differs else 0


def main(argv: list) -> int:
    if len(argv) == 2 and argv[0] == "write":
        return write(argv[1])
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print("usage: python tools/outputs.py write PATH | compare A B", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
