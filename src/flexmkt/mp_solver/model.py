"""Program containers for the embedded LP/MILP solver.

A :class:`LinearProgram` is a builder: declare variables with bounds and
objective coefficients, then attach equality or range constraints that
reference them by index, one at a time or, for rows that several programs
repeat, as :class:`SparseRows` mapped onto the program's columns. A
:class:`MixedProgram` wraps a linear program with one-hot groups of binary
variables; constructing it appends the sum-to-one equality row for every
group so the group structure is part of the program.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ContractError

__all__ = ["LinearProgram", "MixedProgram", "Solution", "SparseRows"]

INF = math.inf


class LinearProgram:
    """min c'x subject to per-row bounds on linear expressions and box
    bounds on variables. Objective sense is always minimize.

    ``start`` is None, or a ``Start`` that ``phase_one`` made of a program
    that differs from this one at most in its costs: ``solve_lp`` then
    resumes from it and runs phase 2 alone.

    Programs that differ only in their bounds and costs share one ``rows``
    object: :meth:`rebounded` copies a program for :meth:`set_variable`
    and :meth:`set_row` to give it new inputs, and :meth:`keep_matrix`
    densifies the shared rows once for all of them.
    """

    def __init__(self):
        self.start = None
        self._kept_matrix = None
        self.var_names: list[str] = []
        self.var_lb: list[float] = []
        self.var_ub: list[float] = []
        self.var_cost: list[float] = []
        self.rows: list[list[tuple[int, float]]] = []
        self.row_lo: list[float] = []
        self.row_hi: list[float] = []

    @property
    def n_vars(self) -> int:
        return len(self.var_names)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def add_variable(self, name: str, lb: float = 0.0, ub: float = INF,
                     cost: float = 0.0) -> int:
        _check_variable(name, lb, ub, cost)
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
        _check_row(name or len(self.rows), lo, hi)
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
        return len(self.rows) - 1

    def add_sparse_rows(self, block: SparseRows, cols: list[int],
                        rows: list[tuple[int, float, float, tuple[int, float] | None]]) -> None:
        """Append, for each ``(i, lo, hi, extra)`` of ``rows``, the row
        ``lo <= sum(coeff * x[cols[k]] for k, coeff in block.rows[i]) <= hi``,
        with the term ``extra = (variable, coefficient)`` last unless it is
        None. The rows hold what :meth:`add_range` would make of the same
        terms in that order. ``block`` was checked when it was made, so only
        ``cols`` (one distinct declared variable per block column), each
        ``extra`` (a declared variable outside ``cols``, a finite nonzero
        coefficient), each ``i`` and each row's bounds are checked here."""
        distinct = set(cols)
        if len(cols) != block.width or len(distinct) != len(cols):
            raise ContractError(f"{len(cols)} columns for a block of width {block.width}, "
                                "or a column repeated")
        for idx in cols:
            self._check_index(idx)
        for i, lo, hi, extra in rows:
            name = len(self.rows)
            _check_row(name, lo, hi)
            if not 0 <= i < len(block.rows):
                raise ContractError(f"row {name}: no block row {i}")
            terms = [(cols[k], coeff) for k, coeff in block.rows[i]]
            if extra is not None:
                idx, coeff = extra
                self._check_index(idx)
                if idx in distinct or not math.isfinite(coeff) or coeff == 0.0:
                    raise ContractError(f"row {name}: bad extra term {extra}")
                terms.append((idx, float(coeff)))
            self.rows.append(terms)
            self.row_lo.append(float(lo))
            self.row_hi.append(float(hi))

    def _check_index(self, idx: int) -> None:
        if not 0 <= idx < len(self.var_names):
            raise ContractError(f"constraint references undeclared variable {idx}")

    def rebounded(self) -> LinearProgram:
        """A copy without a ``start`` that shares this program's ``rows`` and
        kept matrix and owns its bound and cost lists, for
        :meth:`set_variable` and :meth:`set_row`. It adds no variable or
        row: those lists are shared."""
        clone = copy.copy(self)
        clone.start = None
        clone.var_lb, clone.var_ub, clone.var_cost = (list(self.var_lb), list(self.var_ub),
                                                      list(self.var_cost))
        clone.row_lo, clone.row_hi = list(self.row_lo), list(self.row_hi)
        return clone

    def set_variable(self, idx: int, lb: float, ub: float, cost: float) -> None:
        """Replace variable ``idx``'s bounds and cost, checked as
        :meth:`add_variable` checks them."""
        self._check_index(idx)
        _check_variable(self.var_names[idx], lb, ub, cost)
        self.var_lb[idx], self.var_ub[idx], self.var_cost[idx] = float(lb), float(ub), float(cost)

    def set_row(self, idx: int, lo: float, hi: float) -> None:
        """Replace row ``idx``'s bounds, checked as :meth:`add_range` checks
        them."""
        if not 0 <= idx < len(self.rows):
            raise ContractError(f"no row {idx}")
        _check_row(idx, lo, hi)
        self.row_lo[idx], self.row_hi[idx] = float(lo), float(hi)

    def keep_matrix(self) -> None:
        """Densify the rows now and keep the read-only matrix: this program
        and every copy that shares its ``rows`` object read it in
        :meth:`dense_matrix` instead of walking the rows again, while its
        shape matches theirs. A coefficient changed in place within those
        rows goes unseen."""
        self._kept_matrix = None
        a = self.dense_matrix()
        a.flags.writeable = False
        self._kept_matrix = (self.rows, a)

    def dense_matrix(self) -> np.ndarray:
        kept = self._kept_matrix
        if (kept is not None and kept[0] is self.rows
                and kept[1].shape == (self.n_rows, self.n_vars)):
            return kept[1]
        a = np.zeros((self.n_rows, self.n_vars))
        terms = [t for row in self.rows for t in row]
        if terms:
            # add_range keeps one term per column and row, so no entry repeats.
            cols, vals = zip(*terms)
            a[np.repeat(np.arange(self.n_rows), [len(row) for row in self.rows]), cols] = vals
        return a


class SparseRows:
    """The nonzero entries of a finite dense matrix, row by row, as
    ``(column position, coefficient)`` pairs in column order, the
    coefficients Python floats. They are checked once, when made, so that
    :meth:`LinearProgram.add_sparse_rows` maps them onto any program's
    columns without checking a term again."""

    def __init__(self, matrix: np.ndarray):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or not np.isfinite(a).all():
            raise ContractError("sparse rows need a finite two-dimensional matrix")
        self.width = a.shape[1]
        self.rows = tuple(tuple((k, v) for k, v in enumerate(row) if v != 0.0)
                          for row in a.tolist())


def _check_variable(name: str, lb: float, ub: float, cost: float) -> None:
    if math.isnan(lb) or math.isnan(ub) or not math.isfinite(cost):
        raise ContractError(f"variable {name}: bad bounds or cost")
    if lb > ub:
        raise ContractError(f"variable {name}: lower bound {lb} exceeds upper {ub}")
    if lb == ub and math.isinf(lb):
        raise ContractError(f"variable {name}: fixed at an infinite bound {lb}")


def _check_row(name: str | int, lo: float, hi: float) -> None:
    if math.isnan(lo) or math.isnan(hi):
        raise ContractError(f"row {name}: NaN bound")
    if lo > hi:
        raise ContractError(f"row {name}: lo {lo} exceeds hi {hi}")


class MixedProgram:
    """LinearProgram plus disjoint one-hot groups of binary variables.

    Each group gets an explicit sum-to-one equality row on construction,
    so every relaxation carries the selection structure.
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

    ``iterations`` counts simplex pivots, summed over the nodes of a MILP.
    ``solve_lp`` also reports how many of them phase 1 took
    (``phase1_iterations``), how often the basis inverse was recomputed
    from scratch (``refactorizations``) and how often pricing switched to
    Bland's rule (``bland_switches``); ``solve_milp`` leaves them at 0. A
    solve resumed from a program's ``start`` ran no phase 1 of its own: it
    reports the phase-1 counters of that Start, as the solve that made the
    Start would have, and counts as one solve like any other. An
    optimal ``solve_lp`` carries its certificate: the largest bound
    violation (``cert_residual``) and the relative duality gap
    (``cert_gap``); they are 0.0 on every other solution.
    """

    status: str
    objective: float
    x: np.ndarray
    duals: np.ndarray
    reduced_costs: np.ndarray
    iterations: int = 0
    nodes: int = 0
    phase1_iterations: int = 0
    refactorizations: int = 0
    bland_switches: int = 0
    cert_residual: float = 0.0
    cert_gap: float = 0.0

    def __post_init__(self):
        for arr in (self.x, self.duals, self.reduced_costs):
            arr.flags.writeable = False

    @classmethod
    def non_optimal(cls, status: str, iterations: int = 0, nodes: int = 0,
                    phase1_iterations: int = 0, refactorizations: int = 0,
                    bland_switches: int = 0) -> Solution:
        """A solve that ended without an optimum: empty arrays, NaN objective."""
        return cls(status=status, objective=float("nan"), x=np.zeros(0),
                   duals=np.zeros(0), reduced_costs=np.zeros(0),
                   iterations=iterations, nodes=nodes,
                   phase1_iterations=phase1_iterations,
                   refactorizations=refactorizations, bland_switches=bland_switches)
