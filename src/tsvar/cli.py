"""Command line front end: config parsing, experiment orchestration, table output.

The CLI runs the firm production/investment experiments over the four
discretization kinds and emits one table row per residual system solved.
``tsvar table1`` and ``tsvar table2`` are preset shortcuts for the two
published scenarios (discount rates 0.05 and 0.02); ``tsvar run`` accepts a
config file plus overriding flags for parameter sweeps.

Every command resolves its settings in one pass: the file's INI text, or
none, with the preset's keys and then each given flag written over the key
it stands for, goes through one :func:`parse_config` call.  ``FLAGS``
declares each flag once: the key it writes, how its repeated values join,
the commands that take it and its argparse keywords; the parser and the
overrides both read it.  A malformed flag value is reported as its key's
value would be, with exit code 2.

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
import functools
import io
import json
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence, TextIO

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

KIND_ORDER = tuple(ProblemKind)
EQUATION_ORDER = tuple(EquationKind)

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
                f"got {_quoted(self.output_format)}"
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

#: most characters of a value that a refusal quotes; a longer value is cut
#: there and its length named
QUOTED_CHARS = 40


def _quoted(text: str) -> str:
    """``text`` as a refusal quotes it: its repr, cut to :data:`QUOTED_CHARS`
    characters, and its length when it is longer."""
    cut = text[:QUOTED_CHARS]
    return repr(text) if cut == text else f"{cut!r}... ({len(text)} characters)"


def _names(enum, what: str):
    """Parser for a list of enum values, in order and without repeats."""
    def parse(text: str) -> tuple:
        out = []
        for token in text.replace(",", " ").split():
            try:
                member = enum(token)
            except ValueError:
                raise ValueError(
                    f"unknown {what} {_quoted(token)}; choose from "
                    f"{', '.join(m.value for m in enum)}"
                ) from None
            if member not in out:
                out.append(member)
        return tuple(out)
    return parse


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected true or false, got {_quoted(text)}")


def _parse_point(text: str) -> tuple:
    try:
        point = tuple(float(p) for p in text.replace(",", " ").split())
    except ValueError:
        point = ()
    if not point:
        raise ValueError(f"expected comma separated numbers, got {_quoted(text)}")
    return point


def _parse_guesses(text: str) -> tuple:
    guesses = tuple(_parse_point(chunk) for chunk in text.split(";") if chunk.strip())
    if not all(math.isfinite(v) for guess in guesses for v in guess):
        raise ValueError(f"expected finite numbers, got {_quoted(text)}")
    return guesses


def _parse_grid(text: str) -> tuple:
    grid = _parse_point(text)
    if len(grid) != 3:
        raise ValueError(f"expected low,high,step, got {_quoted(text)}")
    default_start_grid(0, grid)   # refused as a sweep would refuse it; dimension 0 builds no starts
    return grid


# section -> key -> (the field it sets, the parser of its text); a refused
# field is named by its key (rho for discount_rate, tol for tol_residual).
# [params] has a key per FirmParams field, parsed as the type of its default
_KEYS = {
    "params": {"rho" if f.name == "discount_rate" else f.name: (f.name, type(f.default))
               for f in fields(FirmParams)},
    "solver": {
        "tol": ("tol_residual", float),
        "max_iter": ("max_iterations", int),
    },
    "run": {
        "problems": ("problems", _names(ProblemKind, "problem kind")),
        "equations": ("equations", _names(EquationKind, "equation")),
        "guess": ("guesses", _parse_guesses),
        "multistart": ("multistart", _parse_bool),
        "grid": ("grid", _parse_grid),
        "format": ("output_format", str.strip),
        "output": ("output_path", str.strip),
    },
}
_EXPECTED = {float: "a number", int: "an integer"}


def parse_config(source: str, overrides: Mapping[tuple, str] | None = None) -> ExperimentConfig:
    """Parse INI-style config text into a fully resolved ExperimentConfig.

    Sections [params], [solver], and [run] are recognised; every key is
    optional and missing keys fall back to the horizon-3 defaults.  Unknown
    sections, a ``[DEFAULT]`` section that holds keys among them, or keys
    are rejected by name; malformed lines are reported with their line
    number.  A value is read as written: ``%`` is a literal character.
    ``overrides`` maps ``(section, key)`` to text that replaces the file's
    value of that key, as a command line flag does: a key the file holds
    keeps its place, and other keys, and sections the file lacks, follow in
    order of first appearance, as the INI parser orders them.

    Only text with something besides whitespace is parsed; blank text holds
    no section, and its keys are the overrides alone.
    """
    sections: dict = {}
    if source.strip():
        # no interpolation: a value is read as written, % included, as a flag's is
        parser = configparser.ConfigParser(
            comment_prefixes=("#",), inline_comment_prefixes=("#",), interpolation=None
        )
        parser.optionxform = str  # keep key case: b and B are different constants
        try:
            parser.read_string(source)
        except configparser.Error as exc:
            raise ConfigError(f"config parse error: {exc}") from exc
        # the parser lists no [DEFAULT] section, and would add its keys to every other
        if parser.defaults():
            raise ConfigError(f"unknown section {_quoted(parser.default_section)}")
        sections = {section: dict(parser.items(section)) for section in parser.sections()}
    for (section, key), text in (overrides or {}).items():
        sections.setdefault(section, {})[key] = text

    values: dict = {section: {} for section in _KEYS}
    for section, keys in sections.items():
        if section not in _KEYS:
            raise ConfigError(f"unknown section {_quoted(section)}")
        for key, text in keys.items():
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {_quoted(key)} in [{section}]")
            name, parse = _KEYS[section][key]
            try:
                values[section][name] = parse(text)
            except ValueError as exc:
                reason = (f"expected {_EXPECTED[parse]}, got {_quoted(text)}"
                          if parse in _EXPECTED else exc)
                raise ConfigError(f"[{section}] {key}: {reason}") from None
    section = "params"   # the section whose values are being checked
    try:
        params = FirmParams(**values["params"])
        section = "solver"
        solver = SolverConfig(**values["solver"])
        section = "run"
        return ExperimentConfig(params=params, solver=solver, **values["run"])
    except ValueError as exc:
        raise ConfigError(_keyed(section, exc)) from exc


def _keyed(section: str, exc: ValueError) -> str:
    """The message of ``exc``, which starts with a field's name, with that
    name rewritten to the field's key in ``section`` and the section as its
    prefix."""
    name, space, rest = str(exc).partition(" ")
    keys = {field: key for key, (field, _) in _KEYS[section].items()}
    return f"[{section}] " + keys.get(name, name) + space + rest


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
    for g in cfg.guesses:
        if len(g) != dimension:
            raise ConfigError(
                f"guess {_quoted(','.join(map(str, g)))} has {len(g)} coordinates; the horizon-"
                f"{cfg.params.horizon} problems need {dimension}"
            )
    guesses = list(cfg.guesses)
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
    variants coincide.  A cell with one start is solved by
    :func:`newton_solve`.  A cell with several starts is swept by
    :func:`multistart_solve` and its row carries the converged root with the
    lowest functional value; when no start converges, the row is the first
    start's report from that same sweep, which is not solved again.  Failed
    cells are reported as non-converged rows and the run continues.
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
            else:
                # the best converged root by (functional, root) first, or the
                # first start's report where no start converged
                report = multistart_solve(system, guesses, cfg.solver)[0]
            rows.append(_row_from_report(kind, label, report))
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


_EMITTERS = {"csv": _emit_csv, "json": _emit_json, "markdown": _emit_markdown}
OUTPUT_FORMATS = tuple(_EMITTERS)


def emit_table(rows: Sequence[ResultRow], output_format: str) -> str:
    """Render rows as csv, json, or markdown text (deterministic order)."""
    if not rows:
        raise ValueError("no rows to emit")
    if output_format not in _EMITTERS:
        raise ValueError(f"format must be one of {', '.join(OUTPUT_FORMATS)}")
    ordered = sorted(
        rows,
        key=lambda r: (
            KIND_ORDER.index(r.kind),
            -1 if r.equation is None else EQUATION_ORDER.index(r.equation),
        ),
    )
    return _EMITTERS[output_format](ordered)


# ---------------------------------------------------------------------------
# argument handling


# each preset and the INI keys it writes, as a flag writes its key
PRESETS = {"table1": {}, "table2": {("params", "rho"): "0.02"}}
# each command and its help line
COMMANDS = {
    "run": "run with a config file and/or flags",
    "table1": "preset: discount rate 0.05, all systems",
    "table2": "preset: discount rate 0.02, all systems",
}
_EVERY = tuple(COMMANDS)

# flag -> (the INI key it writes over the file's or the preset's value, the
# separator its repeated values join with as that key reads them, the
# commands that take it, its argparse keywords); --config names the file
# and writes no key
FLAGS = {
    "--format": (("run", "format"), None, _EVERY,
                 {"help": f"output format: {', '.join(OUTPUT_FORMATS)}"}),
    "--output": (("run", "output"), None, _EVERY,
                 {"metavar": "PATH", "help": "write the table to a file"}),
    "--tol": (("solver", "tol"), None, _EVERY, {"help": "residual tolerance"}),
    "--max-iter": (("solver", "max_iter"), None, _EVERY, {"help": "Newton iteration cap"}),
    "--multistart": (("run", "multistart"), None, _EVERY, {
        "action": "store_const", "const": "true",
        "help": "sweep the start grid and keep the lowest-functional root"}),
    "--config": (None, None, ("run",), {"metavar": "PATH", "help": "INI config file"}),
    "--rho": (("params", "rho"), None, ("run",), {"help": "discount rate override"}),
    "--problem": (("run", "problems"), " ", ("run",), {
        "action": "append", "metavar": "KIND",
        "help": "restrict to a problem kind (dd, nn, dn, nd); repeatable"}),
    "--equation": (("run", "equations"), " ", ("run",), {
        "action": "append", "metavar": "EQ",
        "help": "restrict to an equation source (direct, el1, el2); repeatable"}),
    "--guess": (("run", "guess"), ";", ("run",), {
        "action": "append", "metavar": "A,B",
        "help": 'explicit start point such as "2.3,2.7"; repeatable'}),
}
#: each flag that writes an INI key, and that key
FLAG_KEYS = {flag: key for flag, (key, *_) in FLAGS.items() if key}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process from :data:`FLAGS`.

    ``parse_args`` leaves a parser as it found it (each call fills a fresh
    namespace, and the repeatable flags start from a None default), so every
    call of :func:`main` can share one.  Flag values stay text: the config
    parser reads them as it reads the keys they write.
    """
    parser = argparse.ArgumentParser(
        prog="tsvar",
        description=(
            "Solve the discrete-time firm production/investment systems and "
            "print the resulting table."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_line in COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_line)
        for flag, (_, _, commands, keywords) in FLAGS.items():
            if command in commands:
                command_parser.add_argument(flag, **keywords)
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The preset's keys or the config file's text, each given flag written
    over its key, resolved by one :func:`parse_config` call."""
    overrides = dict(PRESETS.get(args.command, {}))
    if args.command in PRESETS or args.config is None:
        source = ""
    else:
        try:
            with open(args.config, encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    for flag, (key, separator, _, _) in FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if key and value is not None:
            overrides[key] = value if separator is None else separator.join(value)
    return parse_config(source, overrides)


def main(argv: Sequence[str] | None = None, stdout: TextIO | None = None) -> int:
    """Entry point; returns 0 only when every requested row converged."""
    out = stdout if stdout is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        rows = run_table(cfg)
        text = emit_table(rows, cfg.output_format)
    except ValueError as exc:   # a ConfigError is one
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


if __name__ == "__main__":
    console_main()
