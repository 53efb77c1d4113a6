"""Embedded mathematical-programming core: LP model, simplex and one-hot
branch-and-bound."""

from .branch_bound import solve_milp
from .model import INF, LinearProgram, MixedProgram, Solution, SparseRows
from .simplex import Start, phase_one, solve_lp, solve_lp_batch

__all__ = ["INF", "LinearProgram", "MixedProgram", "Solution", "SparseRows", "Start",
           "phase_one", "solve_lp", "solve_lp_batch", "solve_milp"]
