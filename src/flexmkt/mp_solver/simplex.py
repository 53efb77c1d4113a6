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

The pivot loop keeps the state of the basic variables per row (cost,
bounds, value and column), so a pivot rewrites one row with scalar writes
instead of gathering by the basis. Set-up and certification run on whole
arrays but keep the arithmetic order of a per-column loop. The tests keep
that scalar formulation as the reference and hold every result to it bit
for bit.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericalError
from .model import INF, LinearProgram, Solution

__all__ = ["solve_lp"]

_RC_TOL = 1e-9
_PIVOT_TOL = 1e-10
_PHASE1_TOL = 1e-7
_CERT_TOL = 1e-7
_DEGEN_TOL = 1e-12
_TIE_TOL = 1e-12          # ratio-test steps this close count as tied
_CERT_RC_TOL = 1e-11      # reduced costs at most this are zero in _certify
_REFACTOR_EVERY = 100

_AT_LOWER, _AT_UPPER, _FREE, _BASIC = 0, 1, 2, 3
# Pricing signs by status: max(rc * s[0], rc * s[1]) is -rc at a lower
# bound, rc at an upper bound, |rc| when free and 0 when basic.
_SIGNS = np.array([[-1.0, 1.0, -1.0, 0.0],
                   [-1.0, 1.0, 1.0, 0.0]])


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

        # A structural starts at its finite lower bound, else at its finite
        # upper bound, else free at 0; every slack starts basic.
        has_lo, has_hi = np.isfinite(self.lb[:n]), np.isfinite(self.ub[:n])
        self.status = np.full(n + m, _BASIC, dtype=np.int8)
        self.status[:n] = np.where(has_lo, _AT_LOWER, np.where(has_hi, _AT_UPPER, _FREE))
        self.xval = np.zeros(n + m)
        self.xval[:n] = np.where(has_lo, self.lb[:n], np.where(has_hi, self.ub[:n], 0.0))
        self.basis = np.arange(n, n + m)
        self.binv = -np.eye(m)
        self.xval[n:] = a @ self.xval[:n] if m else np.zeros(0)
        self.iterations = 0
        self.phase1_iterations = 0
        self.refactorizations = 0
        self.bland_switches = 0

    # -- phase 1 ------------------------------------------------------

    def install_artificials(self) -> np.ndarray:
        """Swap out-of-bounds initial slacks for artificial columns.

        Returns the phase-1 cost vector (1 on artificials, 0 elsewhere).
        """
        n, m = self.n_struct, self.m
        slack = self.xval[n:]
        above = slack > self.ub[n:] + _PHASE1_TOL
        below = ~above & (slack < self.lb[n:] - _PHASE1_TOL)
        art_rows = (above | below).nonzero()[0]
        if not art_rows.size:
            return np.zeros(0)

        k = art_rows.size
        up = above[art_rows]
        cols = n + art_rows
        self.status[cols] = np.where(up, _AT_UPPER, _AT_LOWER)
        self.xval[cols] = np.where(up, self.ub[cols], self.lb[cols])
        extra = np.zeros((m, k))
        extra[art_rows, np.arange(k)] = np.where(up, -1.0, 1.0)
        self.basis[art_rows] = n + m + np.arange(k)
        self.F = np.hstack([self.F, extra])
        self.lb = np.concatenate([self.lb, np.zeros(k)])
        self.ub = np.concatenate([self.ub, np.full(k, INF)])
        self.cost = np.concatenate([self.cost, np.zeros(k)])
        self.status = np.concatenate([self.status, np.full(k, _BASIC, dtype=np.int8)])
        # The basis of slacks (-1) and artificials (+-1) is diagonal, so its
        # inverse needs no factorization. This sets every basic value, the
        # artificials' too.
        self.xval = np.concatenate([self.xval, np.zeros(k)])
        self.binv = np.diag(1.0 / self.F[np.arange(m), self.basis])
        self._set_basic_values()
        c1 = np.zeros(self.F.shape[1])
        c1[self.n_struct + self.m:] = 1.0
        return c1

    def counters(self) -> dict[str, int]:
        """The pivot counters a ``Solution`` carries."""
        return {"iterations": self.iterations,
                "phase1_iterations": self.phase1_iterations,
                "refactorizations": self.refactorizations,
                "bland_switches": self.bland_switches}

    def retire_artificials(self) -> None:
        self.ub[self.n_struct + self.m:] = 0.0
        self.lb[self.n_struct + self.m:] = 0.0

    # -- simplex iterations -------------------------------------------

    def optimize(self, cost: np.ndarray, iteration_cap: int) -> str:
        """Run pivots to optimality for the given cost vector.

        Returns "optimal" or "unbounded". While it runs, the basic values
        live in ``row_state``; every exit writes them back to ``xval``.
        """
        m = self.m
        if not cost.size:
            return "optimal"
        basis, status, xval, lb, ub = self.basis, self.status, self.xval, self.lb, self.ub
        # The basic variable of each row: its cost, and in row_state its
        # value, bounds and column. A pivot rewrites the leaving row.
        c_b = cost[basis]
        self.row_state = np.array([xval[basis], lb[basis], ub[basis], basis], dtype=float)
        x_b, lb_b, ub_b, col_b = self.row_state
        s_lo, s_hi = _SIGNS[0, status], _SIGNS[1, status]
        bland = False
        degen_run = 0
        try:
            while True:
                if self.iterations > iteration_cap:
                    raise NumericalError("simplex iteration cap exceeded")
                y = c_b @ self.binv if m else np.zeros(0)
                rc = cost - (y @ self.F if m else 0.0)

                # Dantzig enters the largest improvement, Bland the first one.
                improving = np.maximum(rc * s_lo, rc * s_hi)
                enter = int((improving > _RC_TOL if bland else improving).argmax())
                if not improving[enter] > _RC_TOL:
                    return "optimal"
                # An improving column rises when rc < 0 and falls when rc > 0.
                sigma = 1.0 if rc[enter] < 0 else -1.0

                w = self.binv @ self.F[:, enter] if m else np.zeros(0)
                step, leave_row, leave_to_upper = self._ratio_test(enter, sigma, w)
                if step is None:
                    return "unbounded"

                self.iterations += 1
                if step <= _DEGEN_TOL:
                    degen_run += 1
                    if not bland and degen_run > max(64, 2 * m):
                        bland = True
                        self.bland_switches += 1
                else:
                    degen_run = 0
                    bland = False

                if m:
                    x_b -= sigma * step * w
                # A column at a bound prices with signs (1, 1) at its upper
                # bound and (-1, -1) at its lower one; a basic column with 0.
                if leave_row is None:
                    # Bound flip: the entering variable crosses to its other bound.
                    to_upper = sigma > 0
                    status[enter] = _AT_UPPER if to_upper else _AT_LOWER
                    xval[enter] = ub[enter] if to_upper else lb[enter]
                    s_lo[enter] = s_hi[enter] = 1.0 if to_upper else -1.0
                else:
                    leaving = int(basis[leave_row])
                    status[leaving] = _AT_UPPER if leave_to_upper else _AT_LOWER
                    xval[leaving] = ub_b[leave_row] if leave_to_upper else lb_b[leave_row]
                    s_lo[leaving] = s_hi[leaving] = 1.0 if leave_to_upper else -1.0
                    x_b[leave_row] = xval[enter] + sigma * step
                    lb_b[leave_row], ub_b[leave_row] = lb[enter], ub[enter]
                    c_b[leave_row] = cost[enter]
                    col_b[leave_row] = basis[leave_row] = enter
                    status[enter] = _BASIC
                    s_lo[enter] = s_hi[enter] = 0.0
                    self._update_binv(leave_row, w, enter)

                if self.iterations % _REFACTOR_EVERY == 0:
                    self._refactor()
                    x_b[:] = xval[basis]  # recomputed from the new inverse
        finally:
            xval[basis] = x_b

    def _ratio_test(self, enter: int, sigma: float, w: np.ndarray):
        """Smallest blocking step; ties break on lowest variable index.

        Returns (step, blocking_row_or_None, leaving_hits_upper). A None
        step signals an unbounded ray; a None row with a finite step is a
        bound flip of the entering variable.
        """
        best = INF
        best_row = best_basic = None
        best_upper = False
        # The rate of row i is -sigma * w[i], and |sigma| is 1.
        rows = (np.abs(w) > _PIVOT_TOL).nonzero()[0]
        x_b, lb_b, ub_b, col_b = self.row_state[:, rows].tolist()
        # Python floats: the same IEEE operations as numpy scalars, and
        # max() keeps a -0.0 step where np.maximum would return +0.0.
        for i, wi, b, x, lo, hi in zip(rows.tolist(), w[rows].tolist(), col_b, x_b, lb_b, ub_b):
            r = -sigma * wi
            if r > 0.0:
                if not math.isfinite(hi):
                    continue
                t = (hi - x) / r
                hits_upper = True
            else:
                if not math.isfinite(lo):
                    continue
                t = (x - lo) / (-r)
                hits_upper = False
            t = max(t, 0.0)
            if t < best - _TIE_TOL or (t < best + _TIE_TOL and
                                       (best_row is None or b < best_basic)):
                best, best_row, best_basic, best_upper = t, i, b, hits_upper

        flip = float(self.ub[enter] - self.lb[enter])
        if math.isfinite(flip) and flip < best - _TIE_TOL:
            return flip, None, False
        if not math.isfinite(best):
            return None, None, False
        return best, best_row, best_upper

    def _update_binv(self, row: int, w: np.ndarray, enter: int) -> None:
        piv = w[row]
        if abs(piv) < _PIVOT_TOL:
            raise NumericalError(
                f"numerically singular basis: pivot {piv:.3e} in row {row} "
                f"for entering column {enter}"
            )
        # Rows where w is zero would only subtract zeros: skip them.
        nz = w.nonzero()[0]
        old = self.binv[row].copy()
        self.binv[nz] -= np.multiply.outer(w[nz], old) / piv
        self.binv[row] = old / piv

    def _refactor(self) -> None:
        if self.m == 0:
            return
        b = self.F[:, self.basis]
        try:
            self.binv = np.linalg.inv(b)
        except np.linalg.LinAlgError:
            raise NumericalError("singular basis encountered on refactorization") from None
        self.refactorizations += 1
        self._set_basic_values()

    def _set_basic_values(self) -> None:
        """Solve ``F x = 0`` for the basic values, given the nonbasic ones."""
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
        core.phase1_iterations = core.iterations
        if float(c1 @ core.xval) > _PHASE1_TOL:
            return Solution.non_optimal("infeasible", **core.counters())
        core.retire_artificials()

    cost = np.zeros(core.F.shape[1])
    cost[: core.n_struct + core.m] = core.cost[: core.n_struct + core.m]
    outcome = core.optimize(cost, cap)
    if outcome == "unbounded":
        return Solution.non_optimal("unbounded", **core.counters())

    return _extract(core, cost)


def _extract(core: _Core, cost: np.ndarray) -> Solution:
    n, m = core.n_struct, core.m
    x = core.xval[:n].copy()
    objective = float(np.dot(core.cost[:n], x))
    y = cost[core.basis] @ core.binv if m else np.zeros(0)
    rc = cost - (y @ core.F if m else 0.0)

    resid, gap = _certify(core, x, objective, rc)
    return Solution(status="optimal", objective=objective, x=x,
                    duals=np.asarray(y, dtype=float).copy(),
                    reduced_costs=rc[:n].copy(), cert_residual=resid, cert_gap=gap,
                    **core.counters())


def _certify(core: _Core, x: np.ndarray, objective: float,
             rc: np.ndarray) -> tuple[float, float]:
    """Refuse to report optimal unless feasibility and strong duality hold.
    Returns the largest bound violation and the relative duality gap.

    The terms come from arrays, and Python folds them: its max skips a NaN
    term, and its sum adds the dual terms one by one in column order.
    """
    scale = max(1.0, float(np.max(np.abs(x))) if x.size else 1.0)
    resid = 0.0
    if core.m:
        s = core.F[:, : core.n_struct] @ x
        resid = float(np.max(np.maximum.reduce([
            np.zeros(core.m),
            core.lb[core.n_struct:core.n_struct + core.m] - s,
            s - core.ub[core.n_struct:core.n_struct + core.m],
        ])))
    n = core.n_struct
    resid = max([resid, *np.concatenate([core.lb[:n] - x, x - core.ub[:n]]).tolist()])
    if resid > _CERT_TOL * scale:
        raise NumericalError(f"optimal basis fails primal feasibility (residual {resid:.2e})")

    # Each nonbasic column whose reduced cost is outside the zero band, a NaN
    # one included, contributes rc * bound.
    cols = ((core.status != _BASIC) & ~(np.abs(rc) <= _CERT_RC_TOL)).nonzero()[0]
    r = rc[cols]
    bound = np.where(r > 0.0, core.lb[cols], core.ub[cols])
    if not np.isfinite(bound).all():
        raise NumericalError("reduced cost of unbounded nonbasic variable is nonzero")
    dual_obj = 0.0
    for term in (r * bound).tolist():
        dual_obj += term
    gap = abs(objective - dual_obj) / (1.0 + abs(objective))
    if gap > _CERT_TOL:
        raise NumericalError(f"duality gap {gap:.2e} exceeds certification tolerance")
    return float(resid), float(gap)
