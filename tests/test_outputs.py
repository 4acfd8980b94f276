"""Tests for tools/outputs.py, the record and comparison of every output."""

import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import numpy as np

from tsvar import (
    CLAMPED,
    STRICT,
    EquationKind,
    FirmParams,
    GridFunction,
    ProblemKind,
    corollary_z_residual,
    firm_problem,
    newton_solve,
    residual_system,
    theorem_main_residual,
)

TOOL = Path(__file__).resolve().parents[1] / "tools" / "outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(path, surfaces):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"surfaces": surfaces}, handle)
    return str(path)


def test_compare_names_a_root_one_ulp_off_and_exits_1(tmp_path, capsys):
    outputs = load_tool()
    system = residual_system(FirmParams(), ProblemKind.DELTA_NABLA, EquationKind.TIMESCALE_EL1)
    report = newton_solve(system, np.array([2.9, 2.95]))
    rows = outputs.report_rows("dn/el1", report)
    planted = [(key, [math.nextafter(values[0], math.inf), *values[1:]])
               if key == "dn/el1 root" else (key, values) for key, values in rows]
    assert planted != rows
    a = record(tmp_path / "a.json", {"newton": outputs.surface(rows)})
    b = record(tmp_path / "b.json", {"newton": outputs.surface(planted)})

    assert outputs.main(["compare", a, a]) == 0
    assert capsys.readouterr().out == "newton: same\n"
    assert outputs.main(["compare", a, b]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "newton: differs"
    assert [line.split(":")[0].strip() for line in lines[1:]] == ["dn/el1 root"]
    assert "abs 4.44e-16" in lines[1]


def test_a_value_is_written_as_its_bits():
    outputs = load_tool()
    values = [0.1, -0.0, np.float64(2.5), math.nan, 3, True, "text"]
    got = outputs.surface([("row", values)])["rows"]
    assert got == [["row", ["0x1.999999999999ap-4", "-0x0.0p+0", "0x1.4000000000000p+1",
                            "nan:7ff8000000000000",
                            "3", "True", "'text'"]]]


def test_the_jacobian_surface_holds_each_systems_matrix_or_its_refusal():
    outputs = load_tool()
    rows = outputs.jacobian_rows(3)
    states = 1 + outputs.PERTURBATIONS + len(outputs.FLOOR_B)
    assert len(rows) == len(outputs.RATES) * 12 * states
    key, values = rows[0]
    assert key == "0.05 dd/direct seed"
    seed = np.array([2.0 + 1.0 * j / 3 for j in (1, 2)])
    system = residual_system(FirmParams(), ProblemKind.DELTA_DELTA)
    assert values == system.jacobian(seed).ravel().tolist()
    # near the floor at B = 1e305 the Jacobian overflows and is refused
    refused = {key for key, values in rows
               if values == ["DomainError: jacobian is not finite at this state"]}
    assert refused and all(key.endswith("floor B=1e+305") for key in refused)
    assert all(len(values) == 4 for key, values in rows if key not in refused)


def test_the_stacked_surface_holds_each_systems_rows_at_each_stack_size():
    outputs = load_tool()
    rows = outputs.stacked_rows(3)
    assert len(rows) == len(outputs.RATES) * 2 * sum(outputs.STACK_SIZES) * 12
    key, values = rows[0]
    assert key == "0.05 S=1 dd/direct seed 0"
    seed = np.array([2.0 + 1.0 * j / 3 for j in (1, 2)])
    system = residual_system(FirmParams(), ProblemKind.DELTA_DELTA)
    assert values == system.stacked_residual(seed[None])[0].tolist()
    # near the floor at the large B the rows overflow to NaN; the perturbed
    # rows between them and the rows at the model's own B do not
    nan = {key for key, values in rows if all(math.isnan(x) for x in values)}
    assert nan and all(" floor B=1e+305 " in key for key in nan)
    assert any(" floor B=1e+305 " in key for key, _ in rows if key not in nan)
    assert {len(values) for _, values in rows} == {2}


def test_the_scalar_surface_holds_both_solvers_reports_over_the_scalar_residual(monkeypatch):
    outputs = load_tool()
    monkeypatch.setattr(outputs, "SCALAR_EVERY", 37)   # starts 0, 37, ..., 222 of 256
    rows = outputs.surface(outputs.scalar_rows(0.05))["rows"]
    system = residual_system(FirmParams(), ProblemKind.DELTA_DELTA)
    first = outputs.report_rows("dd/direct newton jacobian start 0",
                                newton_solve(dataclasses.replace(system, stacked_residual=None),
                                             (0.5, 0.5)))
    assert rows[:len(first)] == outputs.surface(first)["rows"]
    # without a Jacobian both solvers give each start the same report
    by_key = dict(rows)
    lockstep = [(key, values) for key, values in rows if " lockstep " in key]
    assert len(lockstep) > 12 * 7
    for key, values in lockstep:
        assert by_key[key.replace(" lockstep ", " newton differences ")] == values
    messages = {values[0] for key, values in rows if key.endswith(" message")}
    # an infeasible start names the guard it fails
    assert any(m.startswith("'infeasible start: ") and " guard: " in m for m in messages)
    assert "'residual tolerance reached'" in messages


def test_the_residuals_surface_holds_both_readers_under_both_policies():
    outputs = load_tool()
    rows = outputs.residual_rows(3)
    states = len(outputs.RATES) * (1 + outputs.PERTURBATIONS + len(outputs.FLOOR_B))
    # per state: dn and nd on the integers (two readers) and on a non-uniform
    # scale, and two smooth problems (the theorem), in two forms and policies
    assert len(rows) == states * (2 * 2 + 2 + 2) * 2 * 2
    problem = firm_problem(FirmParams(), ProblemKind.DELTA_NABLA)
    seed = GridFunction(problem.scale, [2.0, 2.0 + 1.0 / 3, 2.0 + 2.0 / 3, 3.0])
    by_key = dict(rows)
    for policy in (STRICT, CLAMPED):
        for reader, form in ((theorem_main_residual, "delta"), (corollary_z_residual, "second")):
            key = f"0.05 seed dn integers {reader.__name__} {form} {policy}"
            want = reader(problem, seed, form, policy).values[1:-1].tolist()
            assert outputs.surface([("", by_key[key])]) == outputs.surface([("", want)])
    # a strict firm row leaves out the point past an end, a smooth problem's
    # form of the other kind leaves out none
    strict = [(key.split(), values) for key, values in rows
              if key.endswith(" strict") and not isinstance(values[0], str)]
    assert len(strict) > states * 8
    for (*_, kind, place, reader, form, policy), values in strict:
        nan = [i for i, x in enumerate(values) if math.isnan(x)]
        if place == "smooth" and kind != form:
            assert nan == [], (kind, form)
        else:
            assert nan == ([0] if form in ("nabla", "second") else [1]), (kind, place, form)
    # near the floor at a large B a residual overflows and is refused
    refused = {key for key, values in rows
               if values == ["DomainError: residual is not finite at this state"]}
    assert refused and all(" floor B=" in key for key in refused)
