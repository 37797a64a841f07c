"""Steady axisymmetric vortex rings by constrained energy maximization.

The package computes ring-like equilibria of the axisymmetric Euler
equations, with or without swirl, as maximizers of a kernel energy over a
capped, mass-constrained vorticity class, and measures how the computed
cores concentrate as the core-size parameter shrinks.
"""

from .grid import GridSpec, ScalarField, build_grid, integrate_nu
from .profiles import GeneratorPair, make_generator
from .solver import ProblemConfig, SolveResult, run

__all__ = [
    "GridSpec",
    "ScalarField",
    "build_grid",
    "integrate_nu",
    "GeneratorPair",
    "make_generator",
    "ProblemConfig",
    "SolveResult",
    "run",
]

__version__ = "0.1.0"
