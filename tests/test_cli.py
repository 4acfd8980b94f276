"""Tests for config parsing, experiment orchestration, and table emission."""

import argparse
import dataclasses
import gc
import io
import json

import pytest
from numpy.testing import assert_allclose

from tsvar import cli as tcli
from tsvar import solver as tsolver
from tsvar import econ
from tsvar import (
    ConfigError,
    EquationKind,
    ExperimentConfig,
    FirmParams,
    ProblemKind,
    ResultRow,
    SolverConfig,
    emit_table,
    lockstep_solve,
    main,
    multistart_solve,
    parse_config,
    run_table,
)

ALL_KINDS = (
    ProblemKind.DELTA_DELTA,
    ProblemKind.NABLA_NABLA,
    ProblemKind.DELTA_NABLA,
    ProblemKind.NABLA_DELTA,
)


def run_cli(argv):
    buffer = io.StringIO()
    code = main(argv, stdout=buffer)
    return code, buffer.getvalue()


# ---------------------------------------------------------------------------
# config parsing


def test_empty_config_resolves_to_defaults():
    cfg = parse_config("")
    assert cfg.params.discount_rate == 0.05
    assert cfg.params.horizon == 3
    assert (cfg.params.y_initial, cfg.params.y_terminal) == (2.0, 3.0)
    assert cfg.problems == ALL_KINDS
    assert cfg.equations == tuple(EquationKind)
    assert cfg.output_format == "csv"
    assert not cfg.multistart and cfg.guesses == ()


def test_config_overrides_and_comments():
    cfg = parse_config(
        "# sweep scenario\n"
        "[params]\n"
        "rho = 0.02   # discount\n"
        "[solver]\n"
        "tol = 1e-10\n"
        "max_iter = 25\n"
        "[run]\n"
        "problems = dn, nd\n"
        "equations = el1\n"
        "guess = 2.3,2.7; 1.5,2.2\n"
        "multistart = true\n"
        "grid = 1.0, 3.0, 1.0\n"
        "format = json\n"
        "output = table.json\n"
    )
    assert cfg.params.discount_rate == 0.02
    assert cfg.solver.tol_residual == 1e-10
    assert cfg.solver.max_iterations == 25
    assert cfg.problems == (ProblemKind.DELTA_NABLA, ProblemKind.NABLA_DELTA)
    assert cfg.equations == (EquationKind.TIMESCALE_EL1,)
    assert cfg.guesses == ((2.3, 2.7), (1.5, 2.2))
    assert cfg.multistart and cfg.grid == (1.0, 3.0, 1.0)
    assert cfg.output_format == "json" and cfg.output_path == "table.json"


def test_case_sensitive_keys_keep_both_constants():
    cfg = parse_config("[params]\nb = 9\nB = 7\n")
    assert cfg.params.b == 9.0
    assert cfg.params.B == 7.0


def test_invalid_rho_is_named():
    with pytest.raises(ConfigError, match="rho") as refused:
        parse_config("[params]\nrho = -1\n")
    assert str(refused.value) == "[params] rho must lie in (0, 1), got -1.0"


def test_unknown_key_and_section_are_named():
    with pytest.raises(ConfigError, match="whoops"):
        parse_config("[params]\nwhoops = 1\n")
    with pytest.raises(ConfigError, match="extras"):
        parse_config("[extras]\nx = 1\n")
    with pytest.raises(ConfigError, match="tolerance"):
        parse_config("[solver]\ntolerance = 1e-9\n")


def test_every_firm_param_is_a_params_key():
    # a key per FirmParams field, named as the field but rho for
    # discount_rate: each default's own text gives the defaults back
    fields = dataclasses.fields(FirmParams)
    assert sorted(name for name, _ in tcli._KEYS["params"].values()) == \
        sorted(f.name for f in fields)
    text = "".join(f"{'rho' if f.name == 'discount_rate' else f.name} = {f.default}\n"
                   for f in fields)
    assert parse_config("[params]\n" + text).params == FirmParams()
    with pytest.raises(ConfigError, match=r"^unknown key 'discount_rate' in \[params\]$"):
        parse_config("[params]\ndiscount_rate = 0.05\n")


def test_malformed_line_reports_line_number():
    with pytest.raises(ConfigError, match="line *2"):
        parse_config("[params]\nrho 0.05\n")


def test_non_numeric_value_is_rejected():
    with pytest.raises(ConfigError, match="horizon"):
        parse_config("[params]\nhorizon = soon\n")
    with pytest.raises(ConfigError, match="multistart"):
        parse_config("[run]\nmultistart = perhaps\n")
    with pytest.raises(ConfigError, match="grid"):
        parse_config("[run]\ngrid = 1.0, 2.0\n")


LONG = "x" * 5000


# one case per refusal that quotes the value: a malformed number (int and
# float), a name list, a flag, a point, a grid and the output format
LONG_VALUES = {
    ("params", "horizon"): "1" * 5001,
    ("params", "rho"): LONG,
    ("run", "problems"): LONG,
    ("run", "multistart"): LONG,
    ("run", "guess"): LONG,
    ("run", "grid"): "1," * 2500,
    ("run", "format"): LONG,
}


@pytest.mark.parametrize("section, key", list(LONG_VALUES),
                         ids=[key for _, key in LONG_VALUES])
def test_refusal_quotes_a_long_value_cut_short(section, key):
    value = LONG_VALUES[section, key]
    with pytest.raises(ConfigError) as refused:
        parse_config(f"[{section}]\n{key} = {value}\n")
    message = str(refused.value)
    assert message.startswith(f"[{section}] {key}")
    assert f"... ({len(value)} characters)" in message
    assert len(message) < 200


def test_unknown_long_key_is_quoted_cut_short():
    with pytest.raises(ConfigError) as refused:
        parse_config(f"[solver]\n{LONG} = 1\n")
    message = str(refused.value)
    assert message.startswith("unknown key 'xxx") and message.endswith(" in [solver]")
    assert len(message) < 200


def test_unknown_long_section_is_quoted_cut_short():
    with pytest.raises(ConfigError) as refused:
        parse_config(f"[{LONG}]\nx = 1\n")
    message = str(refused.value)
    assert message.startswith("unknown section 'xxx")
    assert f"... ({len(LONG)} characters)" in message
    assert len(message) < 200


def test_long_mismatched_guess_is_quoted_cut_short():
    cfg = parse_config("[run]\nguess = " + ",".join(["1"] * 2500) + "\n")
    with pytest.raises(ConfigError, match="coordinates") as refused:
        run_table(cfg)
    message = str(refused.value)
    assert message.startswith("guess '1.0,1.0,") and "has 2500 coordinates" in message
    assert len(message) < 200


def test_key_table_covers_exactly_the_config_fields():
    def names(cls, *left_out):
        return {f.name for f in dataclasses.fields(cls)} - set(left_out)

    def fields_set(section):
        return {name for name, _ in tcli._KEYS[section].values()}

    assert fields_set("params") == names(FirmParams)
    assert fields_set("solver") == names(SolverConfig)
    assert fields_set("run") == names(ExperimentConfig, "params", "solver")


@pytest.mark.parametrize("line, message", [
    ("format = bogus", "[run] format must be one of csv, json, markdown, got 'bogus'"),
    ("equations = ,", "[run] equations must not be empty"),
])
def test_refused_run_setting_names_its_section(line, message):
    with pytest.raises(ConfigError) as refused:
        parse_config(f"[run]\n{line}\n")
    assert str(refused.value) == message


def test_config_invariants():
    with pytest.raises(ConfigError, match="problems"):
        ExperimentConfig(problems=())
    with pytest.raises(ConfigError, match="equations"):
        ExperimentConfig(equations=())
    with pytest.raises(ConfigError, match="format"):
        ExperimentConfig(output_format="yaml")


# ---------------------------------------------------------------------------
# orchestration


def test_single_kind_run_matches_worked_value():
    cfg = parse_config("[run]\nproblems = dd\n")
    rows = run_table(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert row.kind is ProblemKind.DELTA_DELTA
    assert row.equation is None and row.equation_label == "all"
    assert row.converged
    assert_allclose(row.functional, -16.97843026, atol=1e-6)


def test_full_run_emits_eight_rows_in_fixed_order():
    rows = run_table(parse_config(""))
    labels = [(r.kind.value, r.equation_label) for r in rows]
    assert labels == [
        ("dd", "all"),
        ("nn", "all"),
        ("dn", "direct"),
        ("dn", "el1"),
        ("dn", "el2"),
        ("nd", "direct"),
        ("nd", "el1"),
        ("nd", "el2"),
    ]
    assert all(r.converged for r in rows)


def test_run_table_is_deterministic():
    cfg = parse_config("[run]\nproblems = dn\n")
    first = run_table(cfg)
    second = run_table(cfg)
    assert [(r.root, r.functional) for r in first] == [
        (r.root, r.functional) for r in second
    ]


def test_equation_subset_never_moves_pure_kind_rows():
    full = run_table(parse_config("[run]\nproblems = nn\n"))
    only_el2 = run_table(parse_config("[run]\nproblems = nn\nequations = el2\n"))
    assert_allclose(only_el2[0].functional, full[0].functional, rtol=0)
    assert_allclose(only_el2[0].root, full[0].root, rtol=0)


def test_failed_cells_are_reported_and_the_run_continues():
    # one Newton step from this start leaves the feasible set, and three
    # iterations do not bring the cell back
    cfg = parse_config(
        "[solver]\nmax_iter = 3\n"
        "[run]\nproblems = dd, nn\nguess = 7.0,7.9\n"
    )
    rows = run_table(cfg)
    assert len(rows) == 2
    assert not all(r.converged for r in rows)
    failed = [r for r in rows if not r.converged]
    assert all(r.functional is None for r in failed)


def test_a_sweep_that_converges_nowhere_reports_its_first_start(monkeypatch):
    # damping stops both starts; the row is the first start's lock-step
    # report, and no one-start solve runs
    monkeypatch.setattr(tcli, "newton_solve", None)
    cfg = parse_config("[run]\nproblems = dn\nequations = el2\nguess = 4,1.5; 4,2\n")
    [row] = run_table(cfg)
    system = econ.residual_system(cfg.params, ProblemKind.DELTA_NABLA,
                                  EquationKind.TIMESCALE_EL2)
    [report] = multistart_solve(system, cfg.guesses)
    first, second = lockstep_solve(system, cfg.guesses)
    assert report.message == first.message and report.iterations == first.iterations
    assert tuple(report.root) == tuple(first.root)
    assert first.message == second.message == "damping found no residual decrease"
    assert not row.converged and row.functional is None
    assert row.root == tuple(first.root) and row.iterations == first.iterations == 20
    assert_allclose(row.root, (1.928152265, -0.3734648252), rtol=1e-9)

    code, text = run_cli(["run", "--problem", "dn", "--equation", "el2",
                          "--guess", "4,1.5", "--guess", "4,2"])
    assert code == 1
    assert text.splitlines()[1] == "dn,el2,1.928152265;-0.3734648252,,false,20"


def test_a_sweep_that_converges_nowhere_is_solved_once(monkeypatch):
    calls = []

    def counted(*args, inner=tsolver._lockstep):
        calls.append(len(args[1]))
        return inner(*args)

    monkeypatch.setattr(tsolver, "_lockstep", counted)
    cfg = parse_config("[run]\nproblems = dn\nequations = el2\nguess = 4,1.5; 4,2\n")
    [row] = run_table(cfg)
    assert not row.converged and row.iterations == 20
    assert calls == [2]   # one stack of both starts, and no second pass


def test_a_cell_without_guesses_starts_from_the_linear_seed_off_horizon_three(monkeypatch):
    started = []

    def recording(system, guess, cfg, solve=tcli.newton_solve):
        started.append(guess)
        return solve(system, guess, cfg)

    monkeypatch.setattr(tcli, "newton_solve", recording)
    # between y(0) = 2 and y(4) = 3, every cell starts on the straight line
    run_table(parse_config("[params]\nhorizon = 4\n"))
    assert started == [(2.25, 2.5, 2.75)] * 8
    started.clear()
    run_table(parse_config(""))   # CELL_SEEDS lists the cells in run order
    assert started == list(tcli.CELL_SEEDS.values())


def test_guess_dimension_mismatch_is_rejected():
    cfg = parse_config("[run]\nguess = 2.0,2.5,3.0\n")
    with pytest.raises(ConfigError, match="coordinates"):
        run_table(cfg)


def test_result_row_guards_functional_presence():
    with pytest.raises(ValueError):
        ResultRow(
            kind=ProblemKind.DELTA_DELTA,
            equation=None,
            root=(2.0, 2.5),
            functional=-1.0,
            converged=False,
            iterations=3,
        )


# ---------------------------------------------------------------------------
# emission


def sample_rows():
    return [
        ResultRow(ProblemKind.DELTA_DELTA, None, (2.322251305, 2.679109439),
                  -16.97843024, True, 3),
        ResultRow(ProblemKind.DELTA_NABLA, EquationKind.DIRECT,
                  (2.910488554, 2.97001718), -10.11399052, True, 3),
        ResultRow(ProblemKind.DELTA_NABLA, EquationKind.TIMESCALE_EL1,
                  (7.0, 7.9), None, False, 3),
    ]


def test_csv_layout_and_line_endings():
    text = emit_table(sample_rows(), "csv")
    lines = text.split("\n")
    assert lines[0] == "kind,equation,y_values,functional,converged,iterations"
    assert lines[1] == "dd,all,2.322251305;2.679109439,-16.97843024,true,3"
    assert lines[2] == "dn,direct,2.910488554;2.97001718,-10.11399052,true,3"
    assert lines[3] == "dn,el1,7;7.9,,false,3"
    assert text.endswith("\n") and "\r" not in text


def test_single_row_csv_is_header_plus_one_line():
    text = emit_table(sample_rows()[:1], "csv")
    assert len(text.strip().split("\n")) == 2


def test_csv_round_trips_ten_significant_digits():
    rows = run_table(parse_config("[run]\nproblems = dn\nequations = direct\n"))
    text = emit_table(rows, "csv")
    record = text.strip().split("\n")[1].split(",")
    assert float(record[3]) == float(f"{rows[0].functional:.10g}")
    back = [float(v) for v in record[2].split(";")]
    for printed, original in zip(back, rows[0].root):
        assert printed == float(f"{original:.10g}")


def test_json_round_trips_without_loss():
    text = emit_table(sample_rows(), "json")
    parsed = json.loads(text)
    assert [row["kind"] for row in parsed] == ["dd", "dn", "dn"]
    assert parsed[0]["functional"] == float(f"{-16.97843024:.10g}")
    assert parsed[2]["functional"] is None
    assert parsed[0]["y_values"] == [2.322251305, 2.679109439]
    assert json.loads(emit_table(sample_rows(), "json")) == parsed


def test_markdown_matrix_layout():
    text = emit_table(sample_rows(), "markdown")
    lines = text.strip().split("\n")
    assert lines[0] == "| problem | direct | EL1 | EL2 |"
    assert lines[2].startswith("| ΔΔ |")
    # the shared pure-kind value fills all three equation columns
    assert lines[2].count("-16.97843024") == 3
    dn_line = lines[3]
    assert "-10.11399052" in dn_line and "did not converge" in dn_line


def test_emit_rejects_empty_rows_and_bad_format():
    with pytest.raises(ValueError):
        emit_table([], "csv")
    with pytest.raises(ValueError):
        emit_table(sample_rows(), "yaml")


def test_emission_sorts_rows_deterministically():
    rows = list(reversed(sample_rows()))
    text = emit_table(rows, "csv")
    lines = text.strip().split("\n")
    assert lines[1].startswith("dd,") and lines[2].startswith("dn,direct")


# ---------------------------------------------------------------------------
# entry point


def test_table1_command_exits_zero_with_csv():
    code, text = run_cli(["table1"])
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "kind,equation,y_values,functional,converged,iterations"
    assert len(lines) == 9


def test_table1_builds_each_firm_integrand_once(monkeypatch):
    # eight systems of two integrands each, from four distinct integrands
    calls = []
    terms = econ._terms
    monkeypatch.setattr(econ, "_terms", lambda *args: calls.append(args) or terms(*args))
    econ.firm_problem.cache_clear()
    econ.firm_integrand.cache_clear()
    assert run_cli(["table1"])[0] == 0
    assert len(calls) == 4


def test_table2_command_applies_the_low_rate_preset():
    code, text = run_cli(["table2"])
    assert code == 0
    dd_line = text.strip().split("\n")[1]
    assert_allclose(float(dd_line.split(",")[3]), -19.03571446, atol=1e-6)


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text("[params]\nrho = 0.03\n[run]\nproblems = dd\n")
    code, text = run_cli(["run", "--config", str(path), "--rho", "0.05"])
    assert code == 0
    assert_allclose(float(text.strip().split("\n")[1].split(",")[3]),
                    -16.97843026, atol=1e-6)


def test_output_flag_writes_the_file(tmp_path):
    path = tmp_path / "out.csv"
    code, text = run_cli(["table1", "--format", "json", "--output", str(path)])
    assert code == 0
    assert text == ""
    parsed = json.loads(path.read_text())
    assert len(parsed) == 8


def test_config_errors_exit_with_two(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[params]\nrho = -1\n")
    code, _ = run_cli(["run", "--config", str(path)])
    assert code == 2
    code, _ = run_cli(["run", "--config", str(tmp_path / "missing.ini")])
    assert code == 2


def test_unconverged_rows_exit_with_one():
    code, text = run_cli(["run", "--problem", "dd", "--guess", "7.0,1.0",
                          "--max-iter", "2"])
    assert code == 1
    assert ",false," in text


def test_overflowing_start_is_reported_not_raised(tmp_path):
    # the Newton residual overflows at this start; the cell is not converged
    path = tmp_path / "huge.ini"
    path.write_text("[params]\ny_terminal = 3e200\n[run]\nproblems = dd\nguess = 1e200,2e200\n")
    code, text = run_cli(["run", "--config", str(path)])
    assert code == 1
    lines = text.strip().split("\n")
    assert len(lines) == 2 and lines[1].endswith(",false,0")


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_non_finite_tolerance_exits_with_two(tol, capsys):
    code, text = run_cli(["table1", "--tol", tol])
    assert code == 2
    assert text == ""
    assert "positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("flags, line, key", [
    (["--tol", "inf"], "", "tol"),
    ([], "max_iter = 0", "max_iter"),
])
def test_refused_solver_setting_exits_with_two_and_names_its_key(flags, line, key, tmp_path,
                                                                  capsys):
    path = tmp_path / "solver.ini"
    path.write_text(f"[solver]\n{line}\n")
    code, text = run_cli(["run", "--config", str(path), *flags])
    assert code == 2
    assert text == ""
    assert f"tsvar: error: [solver] {key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["max_halvings = 30", "step_tol = 1e-14", "fd_step = 1e-7"])
def test_fixed_solver_constants_are_unknown_keys(line, tmp_path, capsys):
    # the damping budget, stagnation step and difference step are constants
    path = tmp_path / "solver.ini"
    path.write_text(f"[solver]\n{line}\n")
    code, text = run_cli(["run", "--config", str(path)])
    assert code == 2
    assert text == ""
    key = line.split(" = ")[0]
    assert f"tsvar: error: unknown key {key!r} in [solver]" in capsys.readouterr().err


def test_unwritable_output_exits_with_two(tmp_path, capsys):
    path = tmp_path / "missing" / "x.csv"
    code, text = run_cli(["table1", "--output", str(path)])
    assert code == 2
    assert text == ""
    assert "tsvar: error: cannot write output:" in capsys.readouterr().err
    assert not path.exists()


def test_oversized_multistart_grid_exits_with_two(tmp_path, capsys):
    path = tmp_path / "long.ini"
    path.write_text("[params]\nhorizon = 6\n")
    code, text = run_cli(["run", "--config", str(path), "--problem", "dd", "--multistart"])
    assert code == 2
    assert text == ""
    assert "1048576 points, more than MAX_STARTS" in capsys.readouterr().err


def test_long_horizon_multistart_grid_exits_with_two(tmp_path, capsys):
    # 16^999 has 1,203 digits, past the 64 digits the message spells out
    path = tmp_path / "long.ini"
    path.write_text("[params]\nhorizon = 1000\n[run]\nmultistart = true\n")
    code, text = run_cli(["run", "--config", str(path)])
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert "16^999 points, more than MAX_STARTS = 65536" in err
    assert len(err) < 200


@pytest.mark.parametrize("horizon", [5000, 10 ** 5])
def test_horizon_past_the_bound_exits_with_two(horizon, tmp_path, capsys):
    path = tmp_path / "long.ini"
    path.write_text(f"[params]\nhorizon = {horizon}\n")
    code, text = run_cli(["run", "--config", str(path)])
    assert code == 2
    assert text == ""
    assert f"horizon must be at most MAX_HORIZON = 1000, got {horizon}" in capsys.readouterr().err


@pytest.mark.parametrize("line, key", [
    ("c2 = nan", "c2"), ("c0 = inf", "c0"), ("y_terminal = nan", "y_terminal"),
    ("rho = -inf", "rho"),
])
def test_non_finite_param_exits_with_two(line, key, tmp_path, capsys):
    path = tmp_path / "params.ini"
    path.write_text(f"[params]\n{line}\n")
    code, text = run_cli(["run", "--config", str(path)])
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert f"{key} must be finite" in err
    assert f"tsvar: error: [params] {key} must be finite" in err


@pytest.mark.parametrize("grid, reason", [
    ("0.5, 8, 0", "bad start grid (0.5, 8.0, 0.0)"),
    ("0.5, nan, 0.5", "start grid (0.5, nan, 0.5) is not finite"),
])
def test_bad_grid_is_refused_without_multistart(grid, reason, tmp_path, capsys):
    path = tmp_path / "grid.ini"
    path.write_text(f"[run]\ngrid = {grid}\n")
    code, text = run_cli(["run", "--config", str(path), "--problem", "dd"])
    assert code == 2
    assert text == ""
    assert f"tsvar: error: [run] grid: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0.5, inf, 0.5", "0.5, 8, inf", "0.5, nan, 0.5"])
def test_non_finite_multistart_grid_exits_with_two(grid, tmp_path, capsys):
    path = tmp_path / "grid.ini"
    path.write_text(f"[run]\nmultistart = true\ngrid = {grid}\n")
    code, text = run_cli(["run", "--config", str(path), "--problem", "dd"])
    assert code == 2
    assert text == ""
    spec = tuple(float(v) for v in grid.split(","))
    assert f"start grid {spec} is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("guess", ["nan,1", "2.3,inf", "-inf,2.7"])
def test_non_finite_guess_exits_with_two(guess, capsys):
    code, text = run_cli(["run", "--problem", "dd", f"--guess={guess}", "--format", "json"])
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == (
        f"tsvar: error: [run] guess: expected finite numbers, got '{guess}'\n")


def test_too_fine_multistart_grid_names_the_count_per_coordinate(tmp_path, capsys):
    path = tmp_path / "fine.ini"
    path.write_text("[run]\nmultistart = true\ngrid = 0.5, 8, 1e-300\n")
    code, text = run_cli(["run", "--config", str(path), "--problem", "dd"])
    assert code == 2
    assert text == ""
    err = capsys.readouterr().err
    assert "more than MAX_STARTS = 65536 points per coordinate" in err
    assert len(err) < 200   # not the 600-digit point count


# each flag writes its INI key: (the key's value in a file, the flag's value)
FLAG_SAMPLES = {
    "--rho": ("0.05", "0.03"),
    "--tol": ("1e-12", "1e-10"),
    "--max-iter": ("100", "2"),
    "--problem": ("dd", "nn"),
    "--equation": ("el1", "el2"),
    "--guess": ("2.2,2.5", "2.3,2.7"),
    "--multistart": ("false", None),
    "--format": ("json", "markdown"),
    "--output": ("other.csv", "table.csv"),
}


@pytest.mark.parametrize("flag", list(tcli.FLAG_KEYS))
def test_a_flag_acts_as_its_ini_key_over_the_file(flag, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    section, key = tcli.FLAG_KEYS[flag]
    in_file, by_flag = FLAG_SAMPLES[flag]
    (tmp_path / "file.ini").write_text(f"[{section}]\n{key} = {in_file}\n")
    (tmp_path / "flag.ini").write_text(f"[{section}]\n{key} = {by_flag or 'true'}\n")

    def outcome(argv):
        code, text = run_cli(argv)
        written = sorted(tmp_path.glob("*.csv"))
        files = [(path.name, path.read_text()) for path in written]
        for path in written:
            path.unlink()
        return code, text, files

    given = [flag] if by_flag is None else [flag, by_flag]
    by_flag_run = outcome(["run", "--config", "file.ini", *given])
    assert by_flag_run == outcome(["run", "--config", "flag.ini"])
    assert by_flag_run != outcome(["run", "--config", "file.ini"])


def test_each_command_takes_the_flags_the_table_gives_it():
    [commands] = [action.choices for action in tcli._build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    assert list(commands) == list(tcli.COMMANDS)
    for command, command_parser in commands.items():
        options = {option for action in command_parser._actions
                   for option in action.option_strings}
        taken = {flag for flag, (_, _, takers, _) in tcli.FLAGS.items() if command in takers}
        assert options == taken | {"-h", "--help"}
        assert ("--config" in options) == (command == "run")
    # every other flag writes a key the config file can hold
    assert set(tcli.FLAGS) - set(tcli.FLAG_KEYS) == {"--config"}
    assert all(key in tcli._KEYS[section] for section, key in tcli.FLAG_KEYS.values())


@pytest.mark.parametrize("flag, value, key", [
    ("--rho", "abc", "[params] rho"),
    ("--tol", "x", "[solver] tol"),
    ("--max-iter", "2.5", "[solver] max_iter"),
])
def test_malformed_flag_value_exits_with_two_and_names_its_key(flag, value, key, capsys):
    code, text = run_cli(["run", flag, value])
    assert code == 2
    assert text == ""
    assert f"tsvar: error: {key}: expected" in capsys.readouterr().err


def test_bad_format_flag_is_refused_as_its_key(capsys):
    code, text = run_cli(["table1", "--format", "bogus"])
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err == (
        "tsvar: error: [run] format must be one of csv, json, markdown, got 'bogus'\n")


# the INI text each preset was written as before presets wrote their keys;
# table1's comment line makes the INI parser read it, as it read the blank text
PRESET_TEXTS = {"table1": "# no keys\n", "table2": "[params]\nrho = 0.02\n"}


@pytest.mark.parametrize("command", list(PRESET_TEXTS))
@pytest.mark.parametrize("flags", [
    [], ["--tol", "1e-10", "--max-iter", "7", "--format", "json"]])
def test_a_preset_resolves_as_its_ini_text(command, flags):
    args = tcli._build_parser().parse_args([command, *flags])
    overrides = {tcli.FLAG_KEYS[flag]: value for flag, value in zip(flags[::2], flags[1::2])}
    assert tcli._load_config(args) == parse_config(PRESET_TEXTS[command], overrides)


# each key a flag writes: (a valid text, a refused one)
KEY_TEXTS = {
    ("params", "rho"): ("0.03", "abc"),
    ("solver", "tol"): ("1e-10", "x"),
    ("solver", "max_iter"): ("7", "2.5"),
    ("run", "problems"): ("dd nn", "xx"),
    ("run", "equations"): ("el1", "el9"),
    ("run", "guess"): ("2.3,2.7", "2.3,inf"),
    ("run", "multistart"): ("true", "perhaps"),
    ("run", "format"): ("markdown", "5%"),
    ("run", "output"): ("%(x)s.csv", "50%.csv"),   # no text is refused here
}


def resolved(source, overrides):
    try:
        return parse_config(source, overrides)
    except ConfigError as exc:
        return str(exc)


@pytest.mark.parametrize("key", list(tcli.FLAG_KEYS.values()))
def test_blank_text_resolves_a_key_as_the_ini_parser_does(key):
    for text in KEY_TEXTS[key]:
        assert resolved("", {key: text}) == resolved("# no keys\n", {key: text})


def test_blank_text_refuses_the_key_the_ini_parser_refuses_first():
    # every key given in flag order, two of them refused: the parser reads
    # them section by section, so the first refused key it names can be the
    # later of the two in flag order
    keys = list(tcli.FLAG_KEYS.values())
    for first in keys:
        for second in keys:
            overrides = {key: KEY_TEXTS[key][key in (first, second)] for key in keys}
            assert resolved("", overrides) == resolved("# no keys\n", overrides)


@pytest.mark.parametrize("flags", [[], ["--problem", "dd"], ["--tol", "1e-10"]],
                         ids=["no-flag", "problem-flag", "tol-flag"])
def test_a_default_key_refuses_the_file(tmp_path, capsys, flags):
    # the INI parser lists no [DEFAULT] section and adds its keys to every
    # other: the file is refused as a flag's ("DEFAULT", key) is
    path = tmp_path / "default.ini"
    path.write_text("[DEFAULT]\nrho = 0.03\n")
    code, text = run_cli(["run", "--config", str(path), *flags])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == "tsvar: error: unknown section 'DEFAULT'\n"
    for source in ("", "[params]\nrho = 0.03\n"):
        assert resolved(source, {("DEFAULT", "rho"): "0.03"}) == "unknown section 'DEFAULT'"


def test_a_default_header_without_keys_changes_nothing():
    text = "[params]\nrho = 0.03\n"
    assert parse_config("[DEFAULT]\n" + text) == parse_config(text)


def test_a_percent_in_a_refused_file_value_is_named(tmp_path, capsys):
    path = tmp_path / "percent.ini"
    path.write_text("[run]\nformat = 5%\n")
    code, text = run_cli(["run", "--config", str(path)])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == (
        "tsvar: error: [run] format must be one of csv, json, markdown, got '5%'\n")


def test_a_percent_in_a_file_value_is_literal(tmp_path):
    target = tmp_path / "50%%(x)s%.csv"
    path = tmp_path / "percent.ini"
    path.write_text(f"[run]\noutput = {target}\n")
    code, text = run_cli(["run", "--config", str(path)])
    assert (code, text) == (0, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["50%%(x)s%.csv", "percent.ini"]
    assert target.read_text() == run_cli(["table1"])[1]


def test_a_table_run_leaves_no_cyclic_garbage():
    run_cli(["table1"])   # the caches a first call fills are not garbage
    gc.collect()
    debug = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_cli(["table1"])
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()


# ---------------------------------------------------------------------------
# one argument parser per process


def test_consecutive_calls_print_the_rows_each_prints_alone():
    # the repeatable flags must not carry values from one call into the next
    first = ["run", "--problem", "dn", "--problem", "nd", "--equation", "el1",
             "--guess", "2.9,3.0"]
    second = ["run", "--problem", "nd", "--equation", "el2",
              "--guess", "2.2,2.5", "--guess", "2.3,2.6"]
    alone = []
    for argv in (first, second):
        tcli._build_parser.cache_clear()
        alone.append(run_cli(argv))
    assert [len(text.splitlines()) for _, text in alone] == [3, 2]
    tcli._build_parser.cache_clear()
    assert [run_cli(first), run_cli(second)] == alone
    assert [run_cli(second), run_cli(first)] == alone[::-1]


def test_bad_flag_exits_with_two_on_every_call(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_info:
            main(["table1", "--no-such-flag"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert run_cli(["run", "--problem", "dd"])[0] == 0


def test_argument_parser_is_built_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    tcli._build_parser.cache_clear()
    try:
        for argv in (["table1"], ["table2", "--format", "json"], ["run", "--problem", "dd"]):
            assert run_cli(argv)[0] == 0
    finally:
        tcli._build_parser.cache_clear()
    assert built.count("tsvar") == 1
