"""Span tracing of tsvar's public functions, installed from outside.

``Tracer.install`` replaces module attributes with timing wrappers and
``Tracer.uninstall`` puts the originals back, so the untraced passes of a
run execute the program unchanged.  Each call records a span (name, start,
end, parent span, op id) in flat in-memory arrays; self and inclusive times
and call counts are accumulated as spans close.  The arrays are written to
one ``.npz`` file at the end of the run.

Span names carry their layer as a prefix: ``cli``, ``econ``, ``solver``,
``variational``, ``timescale`` (and ``numpy`` for the linear solve, which the
solver layer owns).
"""

from __future__ import annotations

import dataclasses
import functools
from array import array
from collections import Counter
from time import perf_counter

import numpy as np
import numpy.linalg

from tsvar import cli as tcli
from tsvar import solver as tsolver
from tsvar import variational as tvar
from tsvar.timescale import DomainError, GridFunction, TimeScale

OP = "op"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack = []            # [span index, name id, start, child time]
        self.op_id = -1
        self.calls = Counter()      # name -> calls
        self.inclusive = Counter()  # name -> seconds, outermost call of that name only
        self.self_time = Counter()  # name -> seconds not covered by child spans
        self.calls_under = Counter()  # (name, parent name) -> calls
        self.layer_inclusive = Counter()  # layer -> seconds, outermost spans of the layer
        self.domain_errors = Counter()  # name -> DomainError raised
        self.newton_iterations = 0
        self.newton_converged = 0
        self._saved = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> list:
        index = len(self.span_name)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        start = perf_counter()
        self.span_start.append(start)
        frame = [index, nid, start, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        index, nid, start, child = frame
        self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        name = self.names[nid]
        self.calls[name] += 1
        self.self_time[name] += duration - child
        parent_name = self.names[self._stack[-1][1]] if self._stack else None
        if parent_name != name:
            self.inclusive[name] += duration
        self.calls_under[(name, parent_name)] += 1
        layer = name.split(".")[0]
        if parent_name is None or parent_name.split(".")[0] != layer:
            self.layer_inclusive[layer] += duration
        if self._stack:
            self._stack[-1][3] += duration

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records one span named ``name``."""
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(nid)
            try:
                return fn(*args, **kwargs)
            except DomainError:
                self.domain_errors[name] += 1
                raise
            finally:
                self._close(frame)

        return wrapper

    def op(self, fn):
        """Run one benchmark operation under a root span."""
        self.op_id += 1
        return self.span(OP, fn)()

    # -- installing wrappers -------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for attr in ("main", "run_table", "emit_table", "parse_config"):
            self._patch(tcli, attr, self.span(f"cli.{attr}", getattr(tcli, attr)))
        self._patch(tcli, "residual_system", self._traced_residual_system(tcli.residual_system))
        for owner in (tcli, tsolver):
            self._patch(owner, "newton_solve", self._traced_newton(owner.newton_solve))
        self._patch(tcli, "multistart_solve",
                    self.span("solver.multistart_solve", tcli.multistart_solve))
        self._patch(tsolver, "fd_jacobian", self.span("solver.fd_jacobian", tsolver.fd_jacobian))
        self._patch(numpy.linalg, "solve", self.span("numpy.linalg.solve", numpy.linalg.solve))
        for attr in ("theorem_main_residual", "eval_functional", "eval_component_integrals"):
            self._patch(tvar, attr, self.span(f"variational.{attr}", getattr(tvar, attr)))
        self._patch(TimeScale, "__init__", self.span("timescale.TimeScale", TimeScale.__init__))
        self._patch(GridFunction, "__init__",
                    self.span("timescale.GridFunction", GridFunction.__init__))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _traced_residual_system(self, build):
        traced_build = self.span("econ.residual_system", build)

        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            system = traced_build(*args, **kwargs)
            return dataclasses.replace(
                system,
                residual=self.span("econ.residual", system.residual),
                functional=self.span("econ.functional", system.functional),
            )

        return wrapper

    def _traced_newton(self, solve):
        traced_solve = self.span("solver.newton_solve", solve)

        @functools.wraps(solve)
        def wrapper(*args, **kwargs):
            report = traced_solve(*args, **kwargs)
            self.newton_iterations += report.iterations
            self.newton_converged += int(report.converged)
            return report

        return wrapper

    # -- results -------------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Every per-layer metric, as ``name -> (value, unit)``."""
        ops = max(1, self.calls[OP])
        op_time = self.inclusive[OP] or 1.0
        solves = self.calls["solver.newton_solve"]

        def per_op(name):
            return self.calls[name] / ops

        def us_per_call(name):
            return 1e6 * self.inclusive[name] / self.calls[name] if self.calls[name] else 0.0

        def share(seconds):
            return seconds / op_time

        cli_self = sum(t for name, t in self.self_time.items() if name.startswith("cli."))
        trial_calls = self.calls_under[("econ.residual", "solver.newton_solve")] - solves
        return {
            "cli.self_ms_per_op": (1e3 * cli_self / ops, "ms"),
            "cli.parse_config_calls_per_op": (per_op("cli.parse_config"), "calls/op"),
            "econ.residual_calls_per_op": (per_op("econ.residual"), "calls/op"),
            "econ.residual_us_per_call": (us_per_call("econ.residual"), "us"),
            "econ.residual_share": (share(self.inclusive["econ.residual"]), "ratio"),
            "econ.domain_errors_per_op": (self.domain_errors["econ.residual"] / ops, "errors/op"),
            "solver.newton_solves_per_op": (solves / ops, "calls/op"),
            "solver.iterations_per_solve": (self.newton_iterations / solves if solves else 0.0, "iter"),
            "solver.converged_share": (self.newton_converged / solves if solves else 0.0, "ratio"),
            "solver.trial_residual_calls_per_iteration": (
                trial_calls / self.newton_iterations if self.newton_iterations else 0.0, "calls/iter"),
            "solver.fd_jacobian_calls_per_op": (per_op("solver.fd_jacobian"), "calls/op"),
            "solver.fd_jacobian_share": (share(self.inclusive["solver.fd_jacobian"]), "ratio"),
            "solver.newton_self_share": (share(self.self_time["solver.newton_solve"]), "ratio"),
            "solver.linsolve_us_per_call": (us_per_call("numpy.linalg.solve"), "us"),
            "solver.multistart_self_ms": (1e3 * self.self_time["solver.multistart_solve"] / ops, "ms"),
            "variational.theorem_us_per_call": (us_per_call("variational.theorem_main_residual"), "us"),
            "variational.functional_us_per_call": (us_per_call("variational.eval_functional"), "us"),
            "variational.component_integrals_us_per_call": (
                us_per_call("variational.eval_component_integrals"), "us"),
            "variational.share": (share(self.layer_inclusive["variational"]), "ratio"),
            "timescale.gridfunction_inits_per_op": (per_op("timescale.GridFunction"), "calls/op"),
            "timescale.gridfunction_init_share": (
                share(self.inclusive["timescale.GridFunction"]), "ratio"),
            "timescale.scale_inits_per_op": (per_op("timescale.TimeScale"), "calls/op"),
        }

    def write(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )
