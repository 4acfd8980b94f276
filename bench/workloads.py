"""The four benchmark workloads: their operations, inputs and output checks.

Every workload is a list of operation types ("a pass").  The seed fixes the
order of the types within each pass; only ``engine`` also draws its inputs
from it.  An operation type knows how to run itself once (the timed call)
and how to check one output against the verified expectation for that type.

The expectation for each type is built once per run by an oracle pass that
runs outside the timed interval:

* CLI workloads (``tables``, ``multistart``, ``horizon``) recompute the rows
  at full precision through ``tsvar.cli.run_table`` and compare them with
  ``reference.json`` (generated at the commit that introduced the benchmark)
  to 1e-10.  Every timed ``tsvar.cli.main`` output is then parsed and must
  carry the same cells, flags and exit code, and each printed number must be
  the 10-significant-digit rendering of the verified full-precision value.
* ``engine`` compares ``theorem_main_residual`` with ``corollary_z_residual``
  on its integer-grid draws and ``eval_functional`` with component integrals
  rebuilt from ``GridFunction`` operators on every draw.  Each timed output
  must agree with the verified oracle output to 1e-10 relative.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

from tsvar import cli as tcli
from tsvar import econ as tecon
from tsvar import variational as tvar
from tsvar.timescale import GridFunction, TimeScale

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

CELLS = (
    ("dd", "direct"), ("nn", "direct"),
    ("dn", "direct"), ("dn", "el1"), ("dn", "el2"),
    ("nd", "direct"), ("nd", "el1"), ("nd", "el2"),
)
MULTISTART_RATES = (0.05, 0.02)
HORIZONS = (10, 20)
# Scale sizes of the engine draws.  Each size gets four draws (op types):
# dn and nd, each on the integer grid 0..n-1 and on a random non-uniform
# scale spanning the same interval.
ENGINE_SIZES = (4, 16, 64, 256)
ENGINE_DRAWS_PER_SIZE = 4

REL_TOL = 1e-10


class CheckError(AssertionError):
    """An output disagrees with its verified expectation."""


def close(got: float, want: float, tol: float = REL_TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def printed_matches(text: str, value: float) -> bool:
    """True when ``text`` is the 10-significant-digit rendering of ``value``,
    allowing 1e-10 of drift plus the rounding of the last printed digit."""
    printed = float(text)
    if value == 0.0:
        return abs(printed) <= 1e-300
    ulp = 10.0 ** (math.floor(math.log10(abs(value))) - 9)
    return abs(printed - value) <= 0.51 * ulp + REL_TOL * max(1.0, abs(value))


# ---------------------------------------------------------------------------
# CLI workloads


def row_record(row) -> dict:
    """Full-precision, JSON-ready view of one ``ResultRow``."""
    return {
        "kind": row.kind.value,
        "equation": row.equation_label,
        "y_values": [float(v) for v in row.root],
        "functional": row.functional,
        "converged": bool(row.converged),
    }


def _parse_csv(text: str) -> list:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "kind,equation,y_values,functional,converged,iterations":
        raise CheckError(f"unexpected csv header: {lines[:1]}")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 6:
            raise CheckError(f"malformed csv row: {line!r}")
        kind, equation, y_values, functional, converged, _iterations = parts
        rows.append((kind, equation, y_values.split(";"), functional, converged))
    return rows


@dataclass
class CliOp:
    """One ``tsvar.cli.main`` invocation and the config that reproduces it."""

    name: str
    argv: list
    config_text: str             # INI text run_table needs for the same rows
    ref_unconverged_ok: bool = False   # horizon: known stall may start converging
    expected_rows: list = field(default=None, repr=False)
    expected_code: int = 0
    cells: int = 0
    broken: bool = False               # the oracle rejected this op type

    def run(self):
        buf = io.StringIO()
        code = tcli.main(self.argv, stdout=buf)
        return code, buf.getvalue()

    def oracle(self, reference: dict) -> None:
        """Full-precision rows, compared with the committed reference."""
        rows = tcli.run_table(tcli.parse_config(self.config_text))
        got = [row_record(r) for r in rows]
        want = reference[self.name]
        if len(got) != len(want):
            raise CheckError(f"{self.name}: {len(got)} rows, reference has {len(want)}")
        for g, w in zip(got, want):
            where = f"{self.name} {w['kind']}/{w['equation']}"
            if (g["kind"], g["equation"]) != (w["kind"], w["equation"]):
                raise CheckError(f"{where}: row is {g['kind']}/{g['equation']}")
            if not w["converged"]:
                if g["converged"]:
                    self._check_new_root(g, where)
                continue
            if not g["converged"]:
                raise CheckError(f"{where}: did not converge")
            for a, b in zip(g["y_values"], w["y_values"]):
                if not close(a, b):
                    raise CheckError(f"{where}: root {g['y_values']} != {w['y_values']}")
            if not close(g["functional"], w["functional"]):
                raise CheckError(f"{where}: functional {g['functional']!r} != {w['functional']!r}")
        self.expected_rows = got
        self.expected_code = 0 if all(g["converged"] for g in got) else 1
        self.cells = len(got)

    def _check_new_root(self, row: dict, where: str) -> None:
        """A reference-unconverged cell that converges must be a real root."""
        if not self.ref_unconverged_ok:
            raise CheckError(f"{where}: reference did not converge")
        cfg = tcli.parse_config(self.config_text)
        kind = tecon.ProblemKind(row["kind"])
        eq = tecon.EquationKind("direct" if row["equation"] == "all" else row["equation"])
        system = tecon.residual_system(cfg.params, kind, eq)
        norm = float(np.max(np.abs(system.residual(np.array(row["y_values"])))))
        if not norm <= cfg.solver.tol_residual:
            raise CheckError(f"{where}: new root has residual {norm:.3e}")

    def check(self, output) -> int:
        """Raise CheckError on a wrong output; return its converged cells."""
        code, text = output
        if code != self.expected_code:
            raise CheckError(f"{self.name}: exit code {code}, expected {self.expected_code}")
        rows = _parse_csv(text)
        if len(rows) != len(self.expected_rows):
            raise CheckError(f"{self.name}: {len(rows)} rows printed")
        for (kind, equation, ys, functional, converged), want in zip(rows, self.expected_rows):
            where = f"{self.name} {kind}/{equation}"
            if (kind, equation) != (want["kind"], want["equation"]):
                raise CheckError(f"{where}: expected {want['kind']}/{want['equation']}")
            if converged != ("true" if want["converged"] else "false"):
                raise CheckError(f"{where}: converged flag {converged}")
            if len(ys) != len(want["y_values"]) or not all(
                printed_matches(a, b) for a, b in zip(ys, want["y_values"])
            ):
                raise CheckError(f"{where}: printed root {ys} != {want['y_values']}")
            if want["converged"] and not printed_matches(functional, want["functional"]):
                raise CheckError(f"{where}: printed functional {functional} != {want['functional']!r}")
        return sum(1 for row in rows if row[4] == "true")


def tables_ops(_rng, _workdir) -> list:
    return [
        CliOp("table1", ["table1"], ""),
        CliOp("table2", ["table2"], "[params]\nrho = 0.02\n"),
    ]


def multistart_ops(_rng, _workdir) -> list:
    ops = []
    for rho in MULTISTART_RATES:
        for kind, eq in CELLS:
            name = f"multistart/{rho}/{kind}/{eq}"
            ops.append(CliOp(
                name,
                ["run", "--rho", str(rho), "--problem", kind, "--equation", eq, "--multistart"],
                f"[params]\nrho = {rho}\n[run]\nproblems = {kind}\nequations = {eq}\n"
                "multistart = true\n",
            ))
    return ops


def horizon_ops(_rng, workdir) -> list:
    ops = []
    for horizon in HORIZONS:
        params_text = f"[params]\nhorizon = {horizon}\n"
        path = os.path.join(workdir, f"horizon_{horizon}.ini")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(params_text)
        for kind, eq in CELLS:
            name = f"horizon/{horizon}/{kind}/{eq}"
            ops.append(CliOp(
                name,
                ["run", "--config", path, "--problem", kind, "--equation", eq],
                params_text + f"[run]\nproblems = {kind}\nequations = {eq}\n",
                ref_unconverged_ok=True,
            ))
    return ops


# ---------------------------------------------------------------------------
# engine workload


def _firm_composite(params, kind: str, scale: TimeScale) -> tvar.CompositeProblem:
    """The firm problem of a mixed kind, on any scale spanning 0..horizon."""
    capital = tecon.firm_integrand(params, "capital_" + ("delta" if kind == "dn" else "nabla"))
    technology = tecon.firm_integrand(params, "technology_" + ("nabla" if kind == "dn" else "delta"))
    delta, nabla = ((capital,), (technology,)) if kind == "dn" else ((technology,), (capital,))
    return tvar.CompositeProblem(
        scale=scale,
        delta_integrands=delta,
        nabla_integrands=nabla,
        outer=tvar.product_outer(),
        boundary=(params.y_initial, params.y_terminal),
    )


def _independent_functional(problem, y) -> float:
    """Product of the component integrals, rebuilt from GridFunction operators."""
    scale = problem.scale
    pts = scale.points
    a, b = pts[0], pts[-1]
    ys, yd = y.compose_sigma().values, y.delta_derivative().values
    yr, yn = y.compose_rho().values, y.nabla_derivative().values
    comps = []
    for f in problem.delta_integrands:
        vals = [f.value(pts[i], ys[i], yd[i]) for i in scale.delta_domain] + [math.nan]
        comps.append(GridFunction(scale, vals, scale.delta_domain).delta_integral(a, b))
    for g in problem.nabla_integrands:
        vals = [math.nan] + [g.value(pts[i], yr[i], yn[i]) for i in scale.nabla_domain]
        comps.append(GridFunction(scale, vals, scale.nabla_domain).nabla_integral(a, b))
    return comps[0] * comps[1]


@dataclass
class EngineOp:
    """``eval_functional`` plus both forms of ``theorem_main_residual``."""

    name: str
    problem: object
    state: object
    integer_grid: bool
    expected: tuple = field(default=None, repr=False)
    cells: int = 3                     # the functional and two residuals
    broken: bool = False

    def run(self):
        functional = tvar.eval_functional(self.problem, self.state)
        first = tvar.theorem_main_residual(self.problem, self.state, "delta", tvar.CLAMPED)
        second = tvar.theorem_main_residual(self.problem, self.state, "nabla", tvar.CLAMPED)
        return functional, first.values, second.values

    def oracle(self, _reference: dict) -> None:
        functional, first, second = self.run()
        independent = _independent_functional(self.problem, self.state)
        if not close(functional, independent):
            raise CheckError(f"{self.name}: functional {functional!r} != {independent!r}")
        interior = self.problem.scale.interior_domain
        inner = slice(interior.start, interior.stop)
        for res in (first, second):
            if not np.all(np.isfinite(res[inner])):
                raise CheckError(f"{self.name}: non-finite residual on the interior")
        if self.integer_grid:
            for which, res in (("first", first), ("second", second)):
                special = tvar.corollary_z_residual(
                    self.problem, self.state, which, tvar.CLAMPED).values[inner]
                gap = np.abs(special - res[inner]) / np.maximum(1.0, np.abs(res[inner]))
                if not np.max(gap) <= REL_TOL:
                    raise CheckError(f"{self.name}: {which} form off the corollary by {np.max(gap):.3e}")
        self.expected = (functional, first, second)

    def check(self, output) -> int:
        """Raise CheckError on a wrong output; return its finite results."""
        functional, first, second = output
        want_f, want_first, want_second = self.expected
        if not close(functional, want_f):
            raise CheckError(f"{self.name}: functional {functional!r} != {want_f!r}")
        for got, want in ((first, want_first), (second, want_second)):
            if not np.allclose(got, want, rtol=REL_TOL, atol=REL_TOL, equal_nan=True):
                raise CheckError(f"{self.name}: residual differs from the verified one")
        inner = slice(1, len(first) - 1)
        return (int(math.isfinite(functional)) + int(np.all(np.isfinite(first[inner])))
                + int(np.all(np.isfinite(second[inner]))))


def engine_ops(rng: random.Random, _workdir) -> list:
    ops = []
    for n in ENGINE_SIZES:
        params = tecon.FirmParams(horizon=n - 1)
        for draw in range(ENGINE_DRAWS_PER_SIZE):
            kind = ("dn", "nd")[draw % 2]
            integer_grid = draw < 2
            if integer_grid:
                scale = TimeScale.integer_range(0, n - 1)
            else:
                gaps = [rng.uniform(0.5, 1.5) for _ in range(n - 1)]
                total = sum(gaps)
                pts = [0.0]
                for gap in gaps[:-1]:
                    pts.append(pts[-1] + gap * (n - 1) / total)
                pts.append(float(n - 1))
                scale = TimeScale(pts)
            pts = scale.points
            span = pts[-1] - pts[0]
            vals = [params.y_initial + (params.y_terminal - params.y_initial) * (t - pts[0]) / span
                    + (rng.gauss(0.0, 0.02) if 0 < i < n - 1 else 0.0)
                    for i, t in enumerate(pts)]
            problem = _firm_composite(params, kind, scale)
            grid = "int" if integer_grid else "nonuniform"
            ops.append(EngineOp(f"engine/{n}/{kind}/{grid}", problem,
                                GridFunction(scale, vals), integer_grid))
    return ops


# ---------------------------------------------------------------------------


def _warmup_tables(ops):
    return ops


def _warmup_multistart(_ops):
    # a multistart op costs up to a second; table1 runs the same
    # cli/econ/solver code in a few milliseconds
    return [CliOp("table1", ["table1"], "")]


def _warmup_horizon(ops):
    return [op for op in ops if op.name == "horizon/10/nd/direct"]


def _warmup_engine(ops):
    return [op for op in ops if op.name.startswith("engine/4/")]


# name -> (build the op types of a pass, pick the untimed warm-up op types)
WORKLOADS = {
    "tables": (tables_ops, _warmup_tables),
    "multistart": (multistart_ops, _warmup_multistart),
    "horizon": (horizon_ops, _warmup_horizon),
    "engine": (engine_ops, _warmup_engine),
}


def build_ops(workload: str, seed: int, workdir: str) -> list:
    """All operation types of a workload's pass, inputs drawn from the seed."""
    return WORKLOADS[workload][0](random.Random(f"inputs/{seed}"), workdir)


def warmup_ops(workload: str, ops: list) -> list:
    """Op types run once, untimed, to load every lazily imported code path."""
    return WORKLOADS[workload][1](ops)


def pass_order(ops: list, seed: int, pass_index: int) -> list:
    """The seed-fixed order of the op types within one pass."""
    order = list(ops)
    random.Random(f"order/{seed}/{pass_index}").shuffle(order)
    return order


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)["rows"]

