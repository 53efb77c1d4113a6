"""Program containers for the embedded LP/MILP solver.

A :class:`LinearProgram` is a builder: declare variables with bounds and
objective coefficients, then attach equality or range constraints that
reference them by index. A :class:`MixedProgram` wraps a linear program
with one-hot groups of binary variables; constructing it appends the
sum-to-one equality row for every group so the group structure is part
of the program (and of any export).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ContractError

__all__ = ["LinearProgram", "MixedProgram", "Solution"]

INF = math.inf


class LinearProgram:
    """min c'x subject to per-row bounds on linear expressions and box
    bounds on variables. Objective sense is always minimize."""

    def __init__(self):
        self.var_names: list[str] = []
        self.var_lb: list[float] = []
        self.var_ub: list[float] = []
        self.var_cost: list[float] = []
        self.rows: list[list[tuple[int, float]]] = []
        self.row_lo: list[float] = []
        self.row_hi: list[float] = []
        self.row_names: list[str] = []

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def add_variable(self, name: str, lb: float = 0.0, ub: float = INF,
                     cost: float = 0.0) -> int:
        if math.isnan(lb) or math.isnan(ub) or not math.isfinite(cost):
            raise ContractError(f"variable {name}: bad bounds or cost")
        if lb > ub:
            raise ContractError(f"variable {name}: lower bound {lb} exceeds upper {ub}")
        self.var_names.append(name)
        self.var_lb.append(float(lb))
        self.var_ub.append(float(ub))
        self.var_cost.append(float(cost))
        return len(self.var_names) - 1

    def add_equality(self, coeffs: dict[int, float], rhs: float,
                     name: str | None = None) -> int:
        return self.add_range(coeffs, rhs, rhs, name)

    def add_range(self, coeffs: dict[int, float], lo: float, hi: float,
                  name: str | None = None) -> int:
        if lo > hi:
            raise ContractError(f"row {name or len(self.rows)}: lo {lo} exceeds hi {hi}")
        terms = []
        for idx, val in coeffs.items():
            self._check_index(idx)
            if not math.isfinite(val):
                raise ContractError(f"row {name or len(self.rows)}: non-finite coefficient")
            if val != 0.0:
                terms.append((idx, float(val)))
        self.rows.append(terms)
        self.row_lo.append(float(lo))
        self.row_hi.append(float(hi))
        self.row_names.append(name if name is not None else f"r{len(self.rows) - 1}")
        return len(self.rows) - 1

    def _check_index(self, idx: int) -> None:
        if not 0 <= idx < len(self.var_names):
            raise ContractError(f"constraint references undeclared variable {idx}")

    def dense_matrix(self) -> np.ndarray:
        a = np.zeros((self.n_rows, self.n_vars))
        for i, terms in enumerate(self.rows):
            for j, v in terms:
                a[i, j] = v
        return a


class MixedProgram:
    """LinearProgram plus disjoint one-hot groups of binary variables.

    Each group gets an explicit sum-to-one equality row on construction,
    so relaxations and exports both carry the selection structure.
    """

    def __init__(self, lp: LinearProgram, one_hot_groups: list[list[int]]):
        seen: set[int] = set()
        for gi, group in enumerate(one_hot_groups):
            if not group:
                raise ContractError(f"one-hot group {gi} is empty")
            for idx in group:
                lp._check_index(idx)
                if idx in seen:
                    raise ContractError(f"variable {idx} appears in two one-hot groups")
                seen.add(idx)
                if lp.var_lb[idx] < 0.0 or lp.var_ub[idx] > 1.0:
                    raise ContractError(
                        f"one-hot member {lp.var_names[idx]} has bounds outside [0, 1]"
                    )
            lp.add_equality({idx: 1.0 for idx in group}, 1.0, name=f"onehot{gi}")
        self.lp = lp
        self.groups = [list(g) for g in one_hot_groups]


@dataclass(frozen=True)
class Solution:
    """Result of one LP or MILP solve.

    ``duals`` holds one shadow price per constraint row: the sensitivity of
    the optimal objective to that row's right-hand side. ``reduced_costs``
    carries the analogous sensitivities for active variable bounds. For
    non-optimal statuses the arrays are empty and ``objective`` is NaN.
    """

    status: str
    objective: float
    x: np.ndarray
    duals: np.ndarray
    reduced_costs: np.ndarray
    iterations: int = 0
    nodes: int = 0

    def __post_init__(self):
        for arr in (self.x, self.duals, self.reduced_costs):
            arr.flags.writeable = False

    @classmethod
    def non_optimal(cls, status: str, iterations: int = 0, nodes: int = 0) -> Solution:
        """A solve that ended without an optimum: empty arrays, NaN objective."""
        return cls(status=status, objective=float("nan"), x=np.zeros(0),
                   duals=np.zeros(0), reduced_costs=np.zeros(0),
                   iterations=iterations, nodes=nodes)
