"""Two-phase revised simplex for bounded variables, with dual extraction.

Every program is normalized to ``F x = 0`` with ``F = [A | -I]``: one slack
per constraint row carrying that row's bounds. Phase 1 installs artificial
columns only for rows whose initial slack value falls outside its bounds
and minimizes their sum; infeasibility is declared when that optimum
exceeds 1e-7. Pricing is Dantzig by default and switches to Bland's rule
after a run of degenerate steps, which keeps the method anti-cycling while
staying fast on non-degenerate instances. Pivot order is fully
deterministic, so identical programs produce bit-identical solutions.

Duals are read from the optimal basis: ``y = c_B B^{-1}`` gives one shadow
price per row (objective sensitivity to the row's right-hand side), and
the reduced-cost vector gives the matching sensitivities for variable
bounds.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericalError
from .model import INF, LinearProgram, Solution

__all__ = ["solve_lp"]

_RC_TOL = 1e-9
_PIVOT_TOL = 1e-10
_PHASE1_TOL = 1e-7
_CERT_TOL = 1e-7
_DEGEN_TOL = 1e-12
_REFACTOR_EVERY = 100

_AT_LOWER, _AT_UPPER, _FREE, _BASIC = 0, 1, 2, 3


class _Core:
    """Working state shared by the two phases."""

    def __init__(self, program: LinearProgram):
        n, m = program.n_vars, program.n_rows
        self.n_struct = n
        self.m = m
        a = program.dense_matrix()
        self.F = np.hstack([a, -np.eye(m)]) if m else np.zeros((0, n))
        self.lb = np.array(program.var_lb + program.row_lo, dtype=float)
        self.ub = np.array(program.var_ub + program.row_hi, dtype=float)
        self.cost = np.array(program.var_cost + [0.0] * m, dtype=float)

        self.status = np.empty(n + m, dtype=np.int8)
        self.xval = np.zeros(n + m)
        for j in range(n):
            if np.isfinite(self.lb[j]):
                self.status[j], self.xval[j] = _AT_LOWER, self.lb[j]
            elif np.isfinite(self.ub[j]):
                self.status[j], self.xval[j] = _AT_UPPER, self.ub[j]
            else:
                self.status[j], self.xval[j] = _FREE, 0.0
        self.status[n:] = _BASIC
        self.basis = np.arange(n, n + m)
        self.binv = -np.eye(m)
        self.xval[n:] = a @ self.xval[:n] if m else np.zeros(0)
        self.iterations = 0

    # -- phase 1 ------------------------------------------------------

    def install_artificials(self) -> np.ndarray:
        """Swap out-of-bounds initial slacks for artificial columns.

        Returns the phase-1 cost vector (1 on artificials, 0 elsewhere).
        """
        n, m = self.n_struct, self.m
        art_cols, art_rows = [], []
        for i in range(m):
            s = self.xval[n + i]
            if s > self.ub[n + i] + _PHASE1_TOL:
                self.status[n + i], self.xval[n + i] = _AT_UPPER, self.ub[n + i]
                art_cols.append(-1.0)
                art_rows.append(i)
            elif s < self.lb[n + i] - _PHASE1_TOL:
                self.status[n + i], self.xval[n + i] = _AT_LOWER, self.lb[n + i]
                art_cols.append(+1.0)
                art_rows.append(i)
        if not art_rows:
            return np.zeros(0)

        k = len(art_rows)
        extra = np.zeros((m, k))
        for j, (i, g) in enumerate(zip(art_rows, art_cols)):
            extra[i, j] = g
            self.basis[i] = n + m + j
        self.F = np.hstack([self.F, extra])
        self.lb = np.concatenate([self.lb, np.zeros(k)])
        self.ub = np.concatenate([self.ub, np.full(k, INF)])
        self.cost = np.concatenate([self.cost, np.zeros(k)])
        self.status = np.concatenate([self.status, np.full(k, _BASIC, dtype=np.int8)])
        # The refactorization sets every basic value, the artificials' too.
        self.xval = np.concatenate([self.xval, np.zeros(k)])
        self._refactor()
        c1 = np.zeros(self.F.shape[1])
        c1[self.n_struct + self.m:] = 1.0
        return c1

    def retire_artificials(self) -> None:
        self.ub[self.n_struct + self.m:] = 0.0
        self.lb[self.n_struct + self.m:] = 0.0

    # -- simplex iterations -------------------------------------------

    def optimize(self, cost: np.ndarray, iteration_cap: int) -> str:
        """Run pivots to optimality for the given cost vector.

        Returns "optimal" or "unbounded".
        """
        m = self.m
        bland = False
        degen_run = 0
        while True:
            if self.iterations > iteration_cap:
                raise NumericalError("simplex iteration cap exceeded")
            y = cost[self.basis] @ self.binv if m else np.zeros(0)
            rc = cost - (y @ self.F if m else 0.0)

            improving = np.zeros(len(rc))
            at_lo = self.status == _AT_LOWER
            at_up = self.status == _AT_UPPER
            free = self.status == _FREE
            improving[at_lo] = np.maximum(0.0, -rc[at_lo])
            improving[at_up] = np.maximum(0.0, rc[at_up])
            improving[free] = np.abs(rc[free])
            improving[improving <= _RC_TOL] = 0.0
            if not improving.any():
                return "optimal"

            if bland:
                enter = int(np.nonzero(improving)[0][0])
            else:
                enter = int(np.argmax(improving))
            sigma = 1.0 if (self.status[enter] == _AT_LOWER or
                            (self.status[enter] == _FREE and rc[enter] < 0)) else -1.0

            w = self.binv @ self.F[:, enter] if m else np.zeros(0)
            step, leave_row, leave_to_upper = self._ratio_test(enter, sigma, w)
            if step is None:
                return "unbounded"

            self.iterations += 1
            if step <= _DEGEN_TOL:
                degen_run += 1
                if degen_run > max(64, 2 * m):
                    bland = True
            else:
                degen_run = 0
                bland = False

            if m:
                self.xval[self.basis] -= sigma * step * w
            if leave_row is None:
                # Bound flip: the entering variable crosses to its other bound.
                self.status[enter] = _AT_UPPER if sigma > 0 else _AT_LOWER
                self.xval[enter] = self.ub[enter] if sigma > 0 else self.lb[enter]
            else:
                leaving = self.basis[leave_row]
                self.status[leaving] = _AT_UPPER if leave_to_upper else _AT_LOWER
                self.xval[leaving] = self.ub[leaving] if leave_to_upper else self.lb[leaving]
                self.xval[enter] += sigma * step
                self.status[enter] = _BASIC
                self.basis[leave_row] = enter
                self._update_binv(leave_row, w, enter)

            if self.iterations % _REFACTOR_EVERY == 0:
                self._refactor()

    def _ratio_test(self, enter: int, sigma: float, w: np.ndarray):
        """Smallest blocking step; ties break on lowest variable index.

        Returns (step, blocking_row_or_None, leaving_hits_upper). A None
        step signals an unbounded ray; a None row with a finite step is a
        bound flip of the entering variable.
        """
        best = INF
        best_row = None
        best_upper = False
        rate = -sigma * w
        for i in range(self.m):
            r = rate[i]
            if abs(r) <= _PIVOT_TOL:
                continue
            b = self.basis[i]
            if r > 0.0:
                bound = self.ub[b]
                if not np.isfinite(bound):
                    continue
                t = (bound - self.xval[b]) / r
                hits_upper = True
            else:
                bound = self.lb[b]
                if not np.isfinite(bound):
                    continue
                t = (self.xval[b] - bound) / (-r)
                hits_upper = False
            t = max(t, 0.0)
            if t < best - 1e-12 or (t < best + 1e-12 and
                                    (best_row is None or b < self.basis[best_row])):
                best, best_row, best_upper = t, i, hits_upper

        flip = self.ub[enter] - self.lb[enter]
        if np.isfinite(flip) and flip < best - 1e-12:
            return flip, None, False
        if best is INF or not np.isfinite(best):
            return None, None, False
        return best, best_row, best_upper

    def _update_binv(self, row: int, w: np.ndarray, enter: int) -> None:
        piv = w[row]
        if abs(piv) < _PIVOT_TOL:
            raise NumericalError(
                f"numerically singular basis: pivot {piv:.3e} in row {row} "
                f"for entering column {enter}"
            )
        old = self.binv[row].copy()
        self.binv -= np.outer(w, old) / piv
        self.binv[row] = old / piv

    def _refactor(self) -> None:
        if self.m == 0:
            return
        b = self.F[:, self.basis]
        try:
            self.binv = np.linalg.inv(b)
        except np.linalg.LinAlgError:
            raise NumericalError("singular basis encountered on refactorization") from None
        nonbasic = self.status != _BASIC
        rhs = self.F[:, nonbasic] @ self.xval[nonbasic]
        self.xval[self.basis] = -self.binv @ rhs


def solve_lp(program: LinearProgram) -> Solution:
    """Solve a linear program; duals come from the optimal basis."""
    core = _Core(program)
    cap = 200 * (core.m + core.F.shape[1]) + 20000

    c1 = core.install_artificials()
    if c1.size:
        if core.optimize(c1, cap) != "optimal":
            raise NumericalError("phase-1 subproblem reported unbounded")
        if float(c1 @ core.xval) > _PHASE1_TOL:
            return Solution.non_optimal("infeasible", core.iterations)
        core.retire_artificials()

    cost = np.zeros(core.F.shape[1])
    cost[: core.n_struct + core.m] = core.cost[: core.n_struct + core.m]
    outcome = core.optimize(cost, cap)
    if outcome == "unbounded":
        return Solution.non_optimal("unbounded", core.iterations)

    return _extract(program, core, cost)


def _extract(program: LinearProgram, core: _Core, cost: np.ndarray) -> Solution:
    n, m = core.n_struct, core.m
    x = core.xval[:n].copy()
    objective = float(np.dot(core.cost[:n], x))
    y = cost[core.basis] @ core.binv if m else np.zeros(0)
    rc = cost - (y @ core.F if m else 0.0)

    _certify(program, core, x, objective, rc)
    return Solution(status="optimal", objective=objective, x=x,
                    duals=np.asarray(y, dtype=float).copy(),
                    reduced_costs=rc[:n].copy(),
                    iterations=core.iterations)


def _certify(program: LinearProgram, core: _Core, x: np.ndarray,
             objective: float, rc: np.ndarray) -> None:
    """Refuse to report optimal unless feasibility and strong duality hold."""
    scale = max(1.0, float(np.max(np.abs(x))) if x.size else 1.0)
    resid = 0.0
    if core.m:
        s = core.F[:, : core.n_struct] @ x
        resid = float(np.max(np.maximum.reduce([
            np.zeros(core.m),
            core.lb[core.n_struct:core.n_struct + core.m] - s,
            s - core.ub[core.n_struct:core.n_struct + core.m],
        ])))
    lbv = program.var_lb
    ubv = program.var_ub
    for j in range(core.n_struct):
        resid = max(resid, lbv[j] - x[j], x[j] - ubv[j])
    if resid > _CERT_TOL * scale:
        raise NumericalError(f"optimal basis fails primal feasibility (residual {resid:.2e})")

    dual_obj = 0.0
    for j in range(core.F.shape[1]):
        r = rc[j]
        if core.status[j] == _BASIC or abs(r) <= 1e-11:
            continue
        bound = core.lb[j] if r > 0.0 else core.ub[j]
        if not np.isfinite(bound):
            raise NumericalError("reduced cost of unbounded nonbasic variable is nonzero")
        dual_obj += r * bound
    gap = abs(objective - dual_obj) / (1.0 + abs(objective))
    if gap > _CERT_TOL:
        raise NumericalError(f"duality gap {gap:.2e} exceeds certification tolerance")
