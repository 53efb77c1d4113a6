"""Embedded mathematical-programming core: LP model, simplex and one-hot
branch-and-bound."""

from .branch_bound import solve_milp
from .model import INF, LinearProgram, MixedProgram, Solution
from .simplex import solve_lp

__all__ = ["INF", "LinearProgram", "MixedProgram", "Solution",
           "solve_lp", "solve_milp"]
