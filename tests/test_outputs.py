"""Tests for tools/outputs.py, the record and comparison of every output."""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np

from tsvar import EquationKind, FirmParams, ProblemKind, newton_solve, residual_system

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
