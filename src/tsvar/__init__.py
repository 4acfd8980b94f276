"""Variational calculus on finite time scales.

Delta/nabla difference calculus on finite isolated scales, composite
variational functionals with two residual formulations, a damped Newton
solver, and a firm production/investment model whose discretization
variants the ``tsvar`` command line compares.

The package exports what its modules export: each module declares its
public names once, in its ``__all__``, and ``tsvar.__all__`` is their union,
in module order, with ``__version__``.
"""

from . import cli, econ, solver, timescale, variational
from .timescale import *
from .variational import *
from .solver import *
from .econ import *
from .cli import *

__version__ = "0.1.0"

__all__ = [name for module in (timescale, variational, solver, econ, cli)
           for name in module.__all__] + ["__version__"]
