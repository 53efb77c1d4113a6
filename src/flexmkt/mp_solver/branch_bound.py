"""Best-first branch-and-bound over one-hot binary groups.

Branching on a group enumerates its members: each child pins one member
to 1 and the rest to 0, so the tree depth equals the number of groups.
Node order is (relaxation bound, insertion counter), which makes the
search deterministic. A node is pruned only when its bound cannot improve
the incumbent by more than 1e-9, comfortably inside the documented 1e-6
optimality gap.
"""

from __future__ import annotations

import copy
import heapq

import numpy as np

from .model import LinearProgram, MixedProgram, Solution
from .simplex import solve_lp

__all__ = ["solve_milp"]

_INT_TOL = 1e-7
_PRUNE_TOL = 1e-9


def _clone_with_fixes(lp: LinearProgram, fixes: dict[int, float]) -> LinearProgram:
    """Share the row structure, copy only the bound arrays."""
    clone = copy.copy(lp)
    clone.var_lb = list(lp.var_lb)
    clone.var_ub = list(lp.var_ub)
    for idx, val in fixes.items():
        clone.var_lb[idx] = val
        clone.var_ub[idx] = val
    return clone


def _fractional_group(mp: MixedProgram, x: np.ndarray) -> int | None:
    for gi, group in enumerate(mp.groups):
        for idx in group:
            if min(abs(x[idx]), abs(x[idx] - 1.0)) > _INT_TOL:
                return gi
    return None


def solve_milp(mp: MixedProgram) -> Solution:
    """Solve a one-hot mixed program to within absolute gap 1e-6."""
    root = solve_lp(mp.lp)
    if root.status != "optimal":
        return Solution.non_optimal(root.status, root.iterations)

    incumbent: Solution | None = None
    nodes = 0
    iterations = root.iterations
    gi = _fractional_group(mp, root.x)
    if gi is None:
        return Solution(status="optimal", objective=root.objective, x=root.x,
                        duals=root.duals, reduced_costs=root.reduced_costs,
                        iterations=iterations, nodes=0)

    counter = 0
    heap: list[tuple[float, int, dict[int, float], int]] = [
        (root.objective, counter, {}, gi)
    ]
    while heap:
        bound, _, fixes, group_index = heapq.heappop(heap)
        if incumbent is not None and bound >= incumbent.objective - _PRUNE_TOL:
            continue
        for chosen in mp.groups[group_index]:
            child_fixes = dict(fixes)
            for idx in mp.groups[group_index]:
                child_fixes[idx] = 1.0 if idx == chosen else 0.0
            sol = solve_lp(_clone_with_fixes(mp.lp, child_fixes))
            nodes += 1
            iterations += sol.iterations
            if sol.status != "optimal":
                continue
            if incumbent is not None and sol.objective >= incumbent.objective - _PRUNE_TOL:
                continue
            frac = _fractional_group(mp, sol.x)
            if frac is None:
                if incumbent is None or sol.objective < incumbent.objective:
                    incumbent = sol
            else:
                counter += 1
                heapq.heappush(heap, (sol.objective, counter, child_fixes, frac))

    if incumbent is None:
        return Solution.non_optimal("infeasible", iterations, nodes)
    return Solution(status="optimal", objective=incumbent.objective, x=incumbent.x,
                    duals=incumbent.duals, reduced_costs=incumbent.reduced_costs,
                    iterations=iterations, nodes=nodes)
