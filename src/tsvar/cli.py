"""Command line front end: config parsing, experiment orchestration, table output.

The CLI runs the firm production/investment experiments over the four
discretization kinds and emits one table row per residual system solved.
``tsvar table1`` and ``tsvar table2`` are preset shortcuts for the two
published scenarios (discount rates 0.05 and 0.02); ``tsvar run`` accepts a
config file plus overriding flags for parameter sweeps.

Root selection: each preset cell seeds Newton's method at the published
operating region for that system (the iteration then refines it to machine
precision).  With ``--multistart`` the solver instead sweeps the documented
start grid, deduplicates the converged roots, and the row carries the root
with the lowest functional value.  The two policies are kept separate on
purpose: several systems have additional stationary points with lower
functional values than the published operating point, so a pure
lowest-functional rule would silently report a different branch.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import io
import json
import sys
from dataclasses import dataclass, field
from typing import Sequence, TextIO

from .econ import EquationKind, FirmParams, ProblemKind, residual_system
from .solver import (
    DEFAULT_GRID,
    SolveReport,
    SolverConfig,
    default_start_grid,
    multistart_solve,
    newton_solve,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ResultRow",
    "parse_config",
    "run_table",
    "emit_table",
    "main",
    "console_main",
]

OUTPUT_FORMATS = ("csv", "json", "markdown")

KIND_ORDER = (
    ProblemKind.DELTA_DELTA,
    ProblemKind.NABLA_NABLA,
    ProblemKind.DELTA_NABLA,
    ProblemKind.NABLA_DELTA,
)
EQUATION_ORDER = (
    EquationKind.DIRECT,
    EquationKind.TIMESCALE_EL1,
    EquationKind.TIMESCALE_EL2,
)

KIND_SYMBOLS = {
    ProblemKind.DELTA_DELTA: "ΔΔ",
    ProblemKind.NABLA_NABLA: "∇∇",
    ProblemKind.DELTA_NABLA: "Δ∇",
    ProblemKind.NABLA_DELTA: "∇Δ",
}

# Published operating regions for the horizon-3 experiments, one seed per
# residual system.  Newton started here converges to the branch the published
# tables report; other genuine roots of the same systems exist and are
# reachable through --multistart.
CELL_SEEDS = {
    (ProblemKind.DELTA_DELTA, EquationKind.DIRECT): (2.3, 2.7),
    (ProblemKind.NABLA_NABLA, EquationKind.DIRECT): (1.5, 2.2),
    (ProblemKind.DELTA_NABLA, EquationKind.DIRECT): (2.9, 3.0),
    (ProblemKind.DELTA_NABLA, EquationKind.TIMESCALE_EL1): (2.9, 3.0),
    (ProblemKind.DELTA_NABLA, EquationKind.TIMESCALE_EL2): (0.6, 1.1),
    (ProblemKind.NABLA_DELTA, EquationKind.DIRECT): (2.2, 2.4),
    (ProblemKind.NABLA_DELTA, EquationKind.TIMESCALE_EL1): (7.9, 4.8),
    (ProblemKind.NABLA_DELTA, EquationKind.TIMESCALE_EL2): (2.2, 2.5),
}


class ConfigError(ValueError):
    """Raised for malformed config text, unknown keys, or invalid values."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one experiment run."""

    params: FirmParams = FirmParams()
    problems: tuple = KIND_ORDER
    equations: tuple = EQUATION_ORDER
    guesses: tuple = ()          # explicit start points, one tuple per start
    multistart: bool = False
    grid: tuple = DEFAULT_GRID   # (low, high, step) swept per coordinate
    solver: SolverConfig = field(default_factory=SolverConfig)
    output_format: str = "csv"
    output_path: str | None = None

    def __post_init__(self):
        if not self.problems:
            raise ConfigError("problems must not be empty")
        if not self.equations:
            raise ConfigError("equations must not be empty")
        if self.output_format not in OUTPUT_FORMATS:
            raise ConfigError(
                f"format must be one of {', '.join(OUTPUT_FORMATS)}, "
                f"got {self.output_format!r}"
            )


@dataclass(frozen=True)
class ResultRow:
    """One solved residual system; a single cell of the output table.

    ``equation`` is None for the pure kinds, whose three system variants
    coincide and therefore emit one shared row labelled "all".
    """

    kind: ProblemKind
    equation: EquationKind | None
    root: tuple
    functional: float | None
    converged: bool
    iterations: int

    def __post_init__(self):
        if not self.converged and self.functional is not None:
            raise ValueError("functional is only reported for converged rows")

    @property
    def equation_label(self) -> str:
        return "all" if self.equation is None else self.equation.value


# ---------------------------------------------------------------------------
# configuration parsing


_PARAM_KEYS = {
    "rho": "discount_rate",
    "c0": "c0",
    "c1": "c1",
    "c2": "c2",
    "lam": "lam",
    "beta": "beta",
    "b": "b",
    "B": "B",
    "p0": "p0",
    "y_floor": "y_floor",
    "horizon": "horizon",
    "y_initial": "y_initial",
    "y_terminal": "y_terminal",
}
_FIELD_TO_KEY = {v: k for k, v in _PARAM_KEYS.items()}

_SOLVER_KEYS = {
    "tol": "tol_residual",
    "step_tol": "tol_step",
    "max_iter": "max_iterations",
    "fd_step": "fd_step",
    "max_halvings": "max_halvings",
}

_RUN_KEYS = ("problems", "equations", "guess", "multistart", "grid", "format", "output")

_KIND_NAMES = {k.value: k for k in KIND_ORDER}
_EQUATION_NAMES = {e.value: e for e in EQUATION_ORDER}


def _parse_float(section: str, key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected a number, got {text!r}"
        ) from None


def _parse_int(section: str, key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected an integer, got {text!r}"
        ) from None


def _parse_bool(section: str, key: str, text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"[{section}] {key}: expected true or false, got {text!r}")


def _parse_point(text: str, what: str) -> tuple:
    parts = [p for p in text.replace(",", " ").split() if p]
    if not parts:
        raise ConfigError(f"{what}: expected comma separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise ConfigError(
            f"{what}: expected comma separated numbers, got {text!r}"
        ) from None


def _parse_kinds(text: str) -> tuple:
    out = []
    for token in text.replace(",", " ").split():
        if token not in _KIND_NAMES:
            raise ConfigError(
                f"unknown problem kind {token!r}; choose from "
                f"{', '.join(_KIND_NAMES)}"
            )
        kind = _KIND_NAMES[token]
        if kind not in out:
            out.append(kind)
    if not out:
        raise ConfigError("problems must not be empty")
    return tuple(out)


def _parse_equations(text: str) -> tuple:
    out = []
    for token in text.replace(",", " ").split():
        if token not in _EQUATION_NAMES:
            raise ConfigError(
                f"unknown equation {token!r}; choose from "
                f"{', '.join(_EQUATION_NAMES)}"
            )
        eq = _EQUATION_NAMES[token]
        if eq not in out:
            out.append(eq)
    if not out:
        raise ConfigError("equations must not be empty")
    return tuple(out)


def _build_params(overrides: dict) -> FirmParams:
    try:
        return FirmParams(**overrides)
    except ValueError as exc:
        message = str(exc)
        for fname, key in _FIELD_TO_KEY.items():
            if fname in message:
                message = message.replace(fname, key, 1)
                break
        raise ConfigError(message) from exc


def parse_config(source: str) -> ExperimentConfig:
    """Parse INI-style config text into a fully resolved ExperimentConfig.

    Sections [params], [solver], and [run] are recognised; every key is
    optional and missing keys fall back to the horizon-3 defaults.  Unknown
    sections or keys are rejected by name; malformed lines are reported with
    their line number.
    """
    parser = configparser.ConfigParser(
        comment_prefixes=("#",), inline_comment_prefixes=("#",)
    )
    parser.optionxform = str  # keep key case: b and B are different constants
    try:
        parser.read_string(source)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    for section in parser.sections():
        if section not in ("params", "solver", "run"):
            raise ConfigError(f"unknown section [{section}]")

    param_overrides: dict = {}
    if parser.has_section("params"):
        for key, value in parser.items("params"):
            if key not in _PARAM_KEYS:
                raise ConfigError(f"unknown key {key!r} in [params]")
            fname = _PARAM_KEYS[key]
            if fname == "horizon":
                param_overrides[fname] = _parse_int("params", key, value)
            else:
                param_overrides[fname] = _parse_float("params", key, value)
    params = _build_params(param_overrides)

    solver_overrides: dict = {}
    if parser.has_section("solver"):
        for key, value in parser.items("solver"):
            if key not in _SOLVER_KEYS:
                raise ConfigError(f"unknown key {key!r} in [solver]")
            fname = _SOLVER_KEYS[key]
            if fname in ("max_iterations", "max_halvings"):
                solver_overrides[fname] = _parse_int("solver", key, value)
            else:
                solver_overrides[fname] = _parse_float("solver", key, value)
    try:
        solver = SolverConfig(**solver_overrides)
    except ValueError as exc:
        raise ConfigError(f"[solver] {exc}") from exc

    problems = KIND_ORDER
    equations = EQUATION_ORDER
    guesses: tuple = ()
    multistart = False
    grid = DEFAULT_GRID
    output_format = "csv"
    output_path = None
    if parser.has_section("run"):
        for key, value in parser.items("run"):
            if key not in _RUN_KEYS:
                raise ConfigError(f"unknown key {key!r} in [run]")
            if key == "problems":
                problems = _parse_kinds(value)
            elif key == "equations":
                equations = _parse_equations(value)
            elif key == "guess":
                guesses = tuple(
                    _parse_point(chunk, "[run] guess")
                    for chunk in value.split(";")
                    if chunk.strip()
                )
            elif key == "multistart":
                multistart = _parse_bool("run", key, value)
            elif key == "grid":
                grid = _parse_point(value, "[run] grid")
                if len(grid) != 3:
                    raise ConfigError(
                        f"[run] grid: expected low,high,step, got {value!r}"
                    )
            elif key == "format":
                output_format = value.strip()
            elif key == "output":
                output_path = value.strip()

    return ExperimentConfig(
        params=params,
        problems=problems,
        equations=equations,
        guesses=guesses,
        multistart=multistart,
        grid=grid,
        solver=solver,
        output_format=output_format,
        output_path=output_path,
    )


# ---------------------------------------------------------------------------
# orchestration


def _default_seed(params: FirmParams, kind: ProblemKind, eq: EquationKind) -> tuple:
    """Start point for one cell when no explicit guesses are configured."""
    if params.horizon == 3:
        seed = CELL_SEEDS.get((kind, eq))
        if seed is not None:
            return seed
    # other horizons: interpolate linearly between the boundary values
    a, b, m = params.y_initial, params.y_terminal, params.horizon - 1
    return tuple(a + (b - a) * j / (m + 1) for j in range(1, m + 1))


def _cell_guesses(cfg: ExperimentConfig, kind: ProblemKind, eq: EquationKind) -> list:
    dimension = cfg.params.horizon - 1
    guesses = [g for g in cfg.guesses if len(g) == dimension]
    for g in cfg.guesses:
        if len(g) != dimension:
            raise ConfigError(
                f"guess {g} has {len(g)} coordinates; the horizon-"
                f"{cfg.params.horizon} problems need {dimension}"
            )
    if cfg.multistart:
        guesses.extend(default_start_grid(dimension, cfg.grid))
    if not guesses:
        guesses = [_default_seed(cfg.params, kind, eq)]
    return guesses


def _row_from_report(
    kind: ProblemKind, eq: EquationKind | None, report: SolveReport
) -> ResultRow:
    return ResultRow(
        kind=kind,
        equation=eq,
        root=tuple(float(v) for v in report.root),
        functional=report.functional_value if report.converged else None,
        converged=report.converged,
        iterations=report.iterations,
    )


def run_table(cfg: ExperimentConfig) -> list:
    """Solve every requested (kind, equation) cell and return the rows.

    The pure kinds contribute one shared row each because their system
    variants coincide.  When a cell has several starts the row carries the
    converged root with the lowest functional value; failed cells are
    reported as non-converged rows and the run continues.
    """
    rows = []
    for kind in KIND_ORDER:
        if kind not in cfg.problems:
            continue
        if kind.is_mixed:
            cell_equations = [e for e in EQUATION_ORDER if e in cfg.equations]
        else:
            cell_equations = [EquationKind.DIRECT]
        for eq in cell_equations:
            system = residual_system(cfg.params, kind, eq)
            guesses = _cell_guesses(cfg, kind, eq)
            label = None if not kind.is_mixed else eq
            if len(guesses) == 1:
                report = newton_solve(system, guesses[0], cfg.solver)
                rows.append(_row_from_report(kind, label, report))
                continue
            reports = multistart_solve(system, guesses, cfg.solver)
            if reports:
                # multistart_solve orders by (functional, root); first is best
                rows.append(_row_from_report(kind, label, reports[0]))
            else:
                fallback = newton_solve(system, guesses[0], cfg.solver)
                rows.append(_row_from_report(kind, label, fallback))
    return rows


# ---------------------------------------------------------------------------
# emission


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _emit_csv(rows: Sequence[ResultRow]) -> str:
    out = io.StringIO()
    out.write("kind,equation,y_values,functional,converged,iterations\n")
    for row in rows:
        y_values = ";".join(_fmt(v) for v in row.root)
        functional = _fmt(row.functional) if row.functional is not None else ""
        out.write(
            f"{row.kind.value},{row.equation_label},{y_values},"
            f"{functional},{'true' if row.converged else 'false'},{row.iterations}\n"
        )
    return out.getvalue()


def _emit_json(rows: Sequence[ResultRow]) -> str:
    payload = []
    for row in rows:
        payload.append(
            {
                "kind": row.kind.value,
                "equation": row.equation_label,
                "y_values": [float(_fmt(v)) for v in row.root],
                "functional": (
                    float(_fmt(row.functional)) if row.functional is not None else None
                ),
                "converged": row.converged,
                "iterations": row.iterations,
            }
        )
    return json.dumps(payload, indent=2) + "\n"


def _emit_markdown(rows: Sequence[ResultRow]) -> str:
    cells: dict = {}
    kinds_seen = []
    for row in rows:
        if row.kind not in kinds_seen:
            kinds_seen.append(row.kind)
        text = _fmt(row.functional) if row.functional is not None else "did not converge"
        if row.equation is None:
            for eq in EQUATION_ORDER:
                cells[(row.kind, eq)] = text
        else:
            cells[(row.kind, row.equation)] = text
    header = "| problem | direct | EL1 | EL2 |"
    ruler = "| --- | --- | --- | --- |"
    lines = [header, ruler]
    for kind in KIND_ORDER:
        if kind not in kinds_seen:
            continue
        entries = [cells.get((kind, eq), "") for eq in EQUATION_ORDER]
        lines.append(f"| {KIND_SYMBOLS[kind]} | " + " | ".join(entries) + " |")
    return "\n".join(lines) + "\n"


def emit_table(rows: Sequence[ResultRow], output_format: str) -> str:
    """Render rows as csv, json, or markdown text (deterministic order)."""
    if not rows:
        raise ValueError("no rows to emit")
    ordered = sorted(
        rows,
        key=lambda r: (
            KIND_ORDER.index(r.kind),
            -1 if r.equation is None else EQUATION_ORDER.index(r.equation),
        ),
    )
    if output_format == "csv":
        return _emit_csv(ordered)
    if output_format == "json":
        return _emit_json(ordered)
    if output_format == "markdown":
        return _emit_markdown(ordered)
    raise ValueError(f"format must be one of {', '.join(OUTPUT_FORMATS)}")


# ---------------------------------------------------------------------------
# argument handling


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsvar",
        description=(
            "Solve the discrete-time firm production/investment systems and "
            "print the resulting table."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, presets: bool) -> None:
        p.add_argument("--format", choices=OUTPUT_FORMATS, help="output format")
        p.add_argument("--output", metavar="PATH", help="write the table to a file")
        p.add_argument("--tol", type=float, help="residual tolerance")
        p.add_argument("--max-iter", type=int, help="Newton iteration cap")
        p.add_argument(
            "--multistart",
            action="store_true",
            help="sweep the start grid and keep the lowest-functional root",
        )
        if presets:
            return
        p.add_argument("--config", metavar="PATH", help="INI config file")
        p.add_argument("--rho", type=float, help="discount rate override")
        p.add_argument(
            "--problem",
            action="append",
            metavar="KIND",
            help="restrict to a problem kind (dd, nn, dn, nd); repeatable",
        )
        p.add_argument(
            "--equation",
            action="append",
            metavar="EQ",
            help="restrict to an equation source (direct, el1, el2); repeatable",
        )
        p.add_argument(
            "--guess",
            action="append",
            metavar="A,B",
            help='explicit start point such as "2.3,2.7"; repeatable',
        )

    run_p = sub.add_parser("run", help="run with a config file and/or flags")
    add_common(run_p, presets=False)
    t1 = sub.add_parser("table1", help="preset: discount rate 0.05, all systems")
    add_common(t1, presets=True)
    t2 = sub.add_parser("table2", help="preset: discount rate 0.02, all systems")
    add_common(t2, presets=True)
    return parser


def _apply_flags(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    updates: dict = {}
    if getattr(args, "rho", None) is not None:
        params = dataclasses.asdict(cfg.params)
        params["discount_rate"] = args.rho
        updates["params"] = _build_params(params)
    if getattr(args, "problem", None):
        updates["problems"] = _parse_kinds(" ".join(args.problem))
    if getattr(args, "equation", None):
        updates["equations"] = _parse_equations(" ".join(args.equation))
    if getattr(args, "guess", None):
        updates["guesses"] = tuple(
            _parse_point(g, "--guess") for g in args.guess
        )
    if args.multistart:
        updates["multistart"] = True
    if args.format is not None:
        updates["output_format"] = args.format
    if args.output is not None:
        updates["output_path"] = args.output
    solver_updates: dict = {}
    if args.tol is not None:
        solver_updates["tol_residual"] = args.tol
    if args.max_iter is not None:
        solver_updates["max_iterations"] = args.max_iter
    if solver_updates:
        try:
            updates["solver"] = dataclasses.replace(cfg.solver, **solver_updates)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.command == "run":
        if args.config is not None:
            try:
                with open(args.config, encoding="utf-8") as handle:
                    source = handle.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}") from exc
            cfg = parse_config(source)
        else:
            cfg = parse_config("")
    elif args.command == "table1":
        cfg = parse_config("")
    else:  # table2
        cfg = parse_config("[params]\nrho = 0.02\n")
    return _apply_flags(cfg, args)


def main(argv: Sequence[str] | None = None, stdout: TextIO | None = None) -> int:
    """Entry point; returns 0 only when every requested row converged."""
    out = stdout if stdout is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        rows = run_table(cfg)
        text = emit_table(rows, cfg.output_format)
    except (ConfigError, ValueError) as exc:
        print(f"tsvar: error: {exc}", file=sys.stderr)
        return 2
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"tsvar: error: cannot write output: {exc}", file=sys.stderr)
            return 2
    else:
        out.write(text)
    return 0 if all(row.converged for row in rows) else 1


def console_main() -> None:
    sys.exit(main())
