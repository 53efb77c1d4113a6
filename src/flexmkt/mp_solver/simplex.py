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

``solve_lp_batch`` solves one program under many row-bound vectors. It
builds ``F`` once, and items of one shape pivot in lockstep on stacked
arrays (``_Lockstep``), each to the Solution ``solve_lp`` gives it.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericalError
from .model import INF, LinearProgram, Solution

__all__ = ["solve_lp", "solve_lp_batch"]

_RC_TOL = 1e-9
_PIVOT_TOL = 1e-10
_PHASE1_TOL = 1e-7
_CERT_TOL = 1e-7
_DEGEN_TOL = 1e-12
_TIE_TOL = 1e-12          # ratio-test steps this close count as tied
_CERT_RC_TOL = 1e-11      # reduced costs at most this are zero in _certify
_REFACTOR_EVERY = 100
# The smallest group of same-shape items that pivots in lockstep: below it,
# a stacked step costs more than the scalar pivots it replaces (measured on
# the benchmark's RSF pin batches, see CHANGES.md).
_LOCKSTEP_MIN = 16

_AT_LOWER, _AT_UPPER, _FREE, _BASIC = 0, 1, 2, 3
# Pricing signs by status: max(rc * s[0], rc * s[1]) is -rc at a lower
# bound, rc at an upper bound, |rc| when free and 0 when basic.
_SIGNS = np.array([[-1.0, 1.0, -1.0, 0.0],
                   [-1.0, 1.0, 1.0, 0.0]])


class _Form:
    """What every solve of one program starts from, whatever its row
    bounds: ``F = [A | -I]``, the variables' bounds and costs, and the
    starting statuses and values. Re-bounded copies of a program share it.
    """

    def __init__(self, program: LinearProgram):
        n, m = program.n_vars, program.n_rows
        self.n, self.m = n, m
        a = program.dense_matrix()
        self.F = np.hstack([a, -np.eye(m)]) if m else np.zeros((0, n))
        self.var_lb = np.array(program.var_lb, dtype=float)
        self.var_ub = np.array(program.var_ub, dtype=float)
        self.cost = np.array(program.var_cost + [0.0] * m, dtype=float)
        # A structural starts at its finite lower bound, else at its finite
        # upper bound, else free at 0; every slack starts basic.
        has_lo, has_hi = np.isfinite(self.var_lb), np.isfinite(self.var_ub)
        self.status = np.full(n + m, _BASIC, dtype=np.int8)
        self.status[:n] = np.where(has_lo, _AT_LOWER, np.where(has_hi, _AT_UPPER, _FREE))
        self.xval = np.zeros(n + m)
        self.xval[:n] = np.where(has_lo, self.var_lb, np.where(has_hi, self.var_ub, 0.0))
        self.xval[n:] = a @ self.xval[:n] if m else np.zeros(0)


class _Core:
    """Working state shared by the two phases."""

    def __init__(self, program: LinearProgram):
        self._start(_Form(program), program.row_lo, program.row_hi)

    @classmethod
    def bounded(cls, form: _Form, row_lo, row_hi) -> _Core:
        """The start of ``form``'s program with the given row bounds."""
        core = cls.__new__(cls)
        core._start(form, row_lo, row_hi)
        return core

    def _start(self, form: _Form, row_lo, row_hi) -> None:
        n, m = form.n, form.m
        self.n_struct = n
        self.m = m
        # F is shared with every core of the form: nothing writes into it.
        self.F = form.F
        self.lb = np.concatenate([form.var_lb, np.asarray(row_lo, dtype=float)])
        self.ub = np.concatenate([form.var_ub, np.asarray(row_hi, dtype=float)])
        self.cost = form.cost
        self.status = form.status.copy()
        self.xval = form.xval.copy()
        self.basis = np.arange(n, n + m)
        self.binv = -np.eye(m)
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
    phases = _phases(core)
    return _run(core, phases, next(phases))


def _phases(core: _Core):
    """The two phases of a solve on ``core``. Yields the cost vector and
    iteration cap of each pivot loop, receives the loop's outcome, and
    returns the Solution."""
    cap = _iteration_cap(core)
    c1 = core.install_artificials()
    if c1.size:
        if (yield c1, cap) != "optimal":
            raise NumericalError("phase-1 subproblem reported unbounded")
        core.phase1_iterations = core.iterations
        if float(c1 @ core.xval) > _PHASE1_TOL:
            return Solution.non_optimal("infeasible", **core.counters())
        core.retire_artificials()

    cost = np.zeros(core.F.shape[1])
    cost[: core.n_struct + core.m] = core.cost[: core.n_struct + core.m]
    if (yield cost, cap) == "unbounded":
        return Solution.non_optimal("unbounded", **core.counters())

    return _extract(core, cost)


def _iteration_cap(core: _Core) -> int:
    return 200 * (core.m + core.F.shape[1]) + 20000


def _run(core: _Core, phases, request) -> Solution:
    """Run the rest of ``core``'s phases alone, from the loop ``request``."""
    try:
        while True:
            request = phases.send(core.optimize(*request))
    except StopIteration as done:
        return done.value


def solve_lp_batch(program: LinearProgram, row_lo, row_hi,
                   needed=None) -> list[Solution | NumericalError | None]:
    """``solve_lp`` of ``program`` under each pair of row-bound vectors in
    ``row_lo`` and ``row_hi``, bit for bit, with ``[A | -I]`` built once.

    Items whose phase-1 programs have the same number of columns (the same
    number of artificials) pivot in lockstep when there are at least
    ``_LOCKSTEP_MIN`` of them, and one at a time otherwise. A solve that
    raises ``NumericalError`` gives that error in its place.

    ``needed(results)``, if given, returns how many leading items still
    matter, from the results so far (None for an item not finished); it
    may only shrink as results come in. The items past that count are
    dropped unsolved and come back None, unless they finished first.
    """
    form = _Form(program)
    results: list = [None] * len(row_lo)
    groups: dict[int, list] = {}
    for k, (lo, hi) in enumerate(zip(row_lo, row_hi)):
        core = _Core.bounded(form, lo, hi)
        phases = _phases(core)
        request = next(phases)  # installs the artificials
        groups.setdefault(core.F.shape[1], []).append((k, core, phases, request))
    for items in groups.values():
        # The lockstep ratio test needs two rows to compare steps.
        if form.m > 1 and len(items) >= _LOCKSTEP_MIN:
            _Lockstep(items, results, needed).run()
            continue
        for k, core, phases, request in items:
            if needed is not None and k >= needed(results):
                break
            results[k] = _alone(core, phases, request)
    return results


def _alone(core: _Core, phases, request) -> Solution | NumericalError:
    try:
        return _run(core, phases, request)
    except NumericalError as exc:
        return exc


class _Lockstep:
    """Items of one shape that pivot together on stacked arrays.

    Row r of each array holds the state of one item's pivot loop, the
    locals of ``_Core.optimize`` included. A step does for every item what
    one pass of that loop does, with the same floating-point operations:
    elementwise work on the stacked arrays, and as reductions only stacked
    ``np.matmul`` calls, which run the BLAS routine of the 2-D call once
    per item (a 2-D product over all items, ``Y @ F`` or ``einsum``, would
    sum in another order). The ratio test's tie fold and the inverse
    update keep their per-item order and rows. What happens once per loop
    or once per ``_REFACTOR_EVERY`` pivots (the phases, refactorizations,
    certification) runs on the item's own core through the scalar code.
    """

    _ROWS = ("F", "binv", "basis", "status", "xval", "x_b", "lb", "ub", "span", "cost",
             "iterations", "bland_switches", "bland", "degen")

    def __init__(self, items, results, needed):
        self.results, self.needed = results, needed
        self.index = [k for k, *_ in items]
        self.cores = [core for _, core, _, _ in items]
        self.phases = [phases for _, _, phases, _ in items]
        for name in ("F", "binv", "basis", "status", "xval", "lb", "ub"):
            setattr(self, name, np.stack([getattr(core, name) for core in self.cores]))
        self.cost = np.stack([cost for *_, (cost, _) in items])
        self.cap = items[0][3][1]  # the same for every item of one shape
        self.iterations, self.bland_switches, self.degen = np.zeros((3, len(items)), dtype=np.int64)
        self.bland = np.zeros(len(items), dtype=bool)
        self.x_b = np.take_along_axis(self.xval, self.basis, 1)
        self.span = _span(self.lb, self.ub)
        self._number_rows()

    def _number_rows(self) -> None:
        """Flat offsets of each row in the (rows, m) and (rows, n) arrays."""
        size, m, n = self.F.shape
        self.ar = np.arange(size)
        self.row0, self.col0 = self.ar * m, self.ar * n

    def run(self) -> None:
        # No row has pivoted more often than the lockstep has stepped, so
        # the iteration cap and the refactorization interval are checked
        # only once the steps reach them.
        self.steps = 0
        while self.index:
            self._step()
            self.steps += 1

    def _step(self) -> None:
        if self.steps > self.cap:
            over = self.iterations > self.cap
            if over.any():
                self._settle({r: NumericalError("simplex iteration cap exceeded")
                              for r in over.nonzero()[0].tolist()})
                return
        row0, col0 = self.row0, self.col0
        at_basis = self.basis + col0[:, None]
        y = np.matmul(self.cost.take(at_basis)[:, None, :], self.binv)
        rc = self.cost - np.matmul(y, self.F)[:, 0]

        signs = _SIGNS.take(self.status, axis=1)
        improving = np.maximum(rc * signs[0], rc * signs[1])
        enter = improving.argmax(1)
        if self.bland.any():
            enter = np.where(self.bland, (improving > _RC_TOL).argmax(1), enter)
        at_enter = col0 + enter
        done = ~(improving.take(at_enter) > _RC_TOL)
        sigma = np.where(rc.take(at_enter) < 0, 1.0, -1.0)
        w = np.matmul(self.binv, self.F[self.ar, :, enter][:, :, None])[:, :, 0]

        # The ratio test of every row. The scalar one works on Python floats,
        # which never warn. Its rate is -sigma * w; an infinite bound gives
        # an infinite step, which is never taken, as the scalar test skips it.
        with np.errstate(all="ignore"):
            rising = sigma[:, None] * w < 0.0
            rate = np.abs(w)
            x_b = self.x_b
            t = np.where(rising, self.ub.take(at_basis) - x_b, x_b - self.lb.take(at_basis)) / rate
            t = np.where(0.0 > t, 0.0, t)  # max(t, 0.0), which keeps -0.0
            t = np.where(rate > _PIVOT_TOL, t, INF)
            row = t.argmin(1)
            best = t.take(row0 + row)
            # The fold takes the lone smallest step when the next smallest
            # clears it by the tie tolerance both ways. Else, and for a NaN
            # step, it runs here.
            second = np.partition(t, 1, axis=1)[:, 1]
            ties = (best >= second - _TIE_TOL) | (second < best + _TIE_TOL) | (best != best)
            for i in ties.nonzero()[0].tolist():
                best[i], row[i] = _fold(t[i], self.basis[i])
            flip = self.span.take(at_enter)
            flips = flip < best - _TIE_TOL
        step = np.where(flips, flip, best)
        unbounded = ~done & (step == INF)
        stopping = done | unbounded
        exits = {}
        if stopping.any():
            exits = dict.fromkeys(done.nonzero()[0].tolist(), "optimal")
            exits.update(dict.fromkeys(unbounded.nonzero()[0].tolist(), "unbounded"))
        if len(exits) < len(self.index):
            at_row = row0 + row
            self._pivot(~stopping, not exits, enter, at_enter, sigma, step, flips, at_row,
                        at_basis.take(at_row), rising.take(at_row), w, exits)
        if exits:
            self._settle(exits)

    def _pivot(self, moving, every, enter, at_enter, sigma, step, flips, at_row, at_leaving,
               to_upper, w, exits) -> None:
        """One pivot or bound flip on each ``moving`` row (``every`` row
        when that is true), as ``optimize`` does it."""
        m = w.shape[1]
        self.iterations += moving
        degenerate = moving & (step <= _DEGEN_TOL)
        if degenerate.any():
            self.degen = np.where(degenerate, self.degen + 1, np.where(moving, 0, self.degen))
            self.bland &= degenerate | ~moving
            switch = degenerate & ~self.bland & (self.degen > max(64, 2 * m))
            self.bland |= switch
            self.bland_switches += switch
        else:
            self.degen[moving] = 0
            self.bland[moving] = False
        p = slice(None) if every else moving
        self.x_b[p] -= (sigma[p] * step[p])[:, None] * w[p]

        # The column that goes to a bound: the entering one on a flip, else
        # the leaving one.
        out = np.where(flips, at_enter, at_leaving)[p]
        up = np.where(flips, sigma > 0, to_upper)[p]
        np.put(self.status, out, np.where(up, _AT_UPPER, _AT_LOWER))
        np.put(self.xval, out, np.where(up, self.ub.take(out), self.lb.take(out)))

        q = (moving & ~flips).nonzero()[0]
        if q.size:
            at_q, at_in = at_row[q], at_enter[q]
            np.put(self.x_b, at_q, self.xval.take(at_in) + sigma[q] * step[q])
            np.put(self.basis, at_q, enter[q])
            np.put(self.status, at_in, _BASIC)
            self._update_binv(q, at_q, w, exits)

        if self.steps + 1 >= _REFACTOR_EVERY:
            due = moving & (self.iterations % _REFACTOR_EVERY == 0)
            for r in due.nonzero()[0].tolist():
                if r not in exits:
                    self._refactor(r, exits)

    def _update_binv(self, q, at_q, w, exits) -> None:
        """``_Core._update_binv`` of each row in ``q``, on the rows of its
        inverse where its w is nonzero."""
        m = w.shape[1]
        piv = w.take(at_q)
        if np.abs(piv).min() < _PIVOT_TOL:
            for i in (np.abs(piv) < _PIVOT_TOL).nonzero()[0].tolist():
                exits[int(q[i])] = NumericalError(
                    f"numerically singular basis: pivot {piv[i]:.3e} in row {at_q[i] % m} "
                    f"for entering column {self.basis.take(at_q[i])}")
        wq = w[q]
        rows = self.binv.reshape(-1, m)
        old = rows[at_q]
        nz = np.flatnonzero(wq)
        item = nz // m
        rows[(q * m)[item] + nz % m] -= wq.take(nz)[:, None] * old[item] / piv[item][:, None]
        rows[at_q] = old / piv[:, None]

    def _refactor(self, r: int, exits) -> None:
        core = self.cores[r]
        core.basis, core.status, core.xval = self.basis[r], self.status[r], self.xval[r]
        try:
            core._refactor()
        except NumericalError as exc:
            exits[r] = exc
            return
        self.binv[r] = core.binv
        self.x_b[r] = self.xval[r, self.basis[r]]  # recomputed from the new inverse

    def _settle(self, exits: dict) -> None:
        """End the pivot loop of each row in ``exits`` with its outcome: hand
        it to the item's phases, then start their next loop or keep their
        result. Finished rows, and rows past what ``needed`` asks for, go."""
        gone = []
        for r, outcome in exits.items():
            if not isinstance(outcome, str):
                self.results[self.index[r]] = outcome
                gone.append(r)
                continue
            self.xval[r, self.basis[r]] = self.x_b[r]
            core = self.cores[r]
            for name in ("xval", "status", "basis", "binv", "lb", "ub"):
                setattr(core, name, getattr(self, name)[r].copy())
            core.iterations = int(self.iterations[r])
            core.bland_switches = int(self.bland_switches[r])
            try:
                cost, _ = self.phases[r].send(outcome)
            except StopIteration as stop:
                self.results[self.index[r]] = stop.value
                gone.append(r)
            except NumericalError as exc:
                self.results[self.index[r]] = exc
                gone.append(r)
            else:
                # The next loop starts from the core, as optimize does.
                self.cost[r] = cost
                self.lb[r], self.ub[r] = core.lb, core.ub
                self.span[r] = _span(core.lb, core.ub)
                self.x_b[r] = self.xval[r, self.basis[r]]
                self.bland[r], self.degen[r] = False, 0
        if self.needed is not None and gone:
            limit = self.needed(self.results)
            gone += [r for r, k in enumerate(self.index) if k >= limit]
        if gone:
            keep = np.ones(len(self.index), dtype=bool)
            keep[gone] = False
            for name in self._ROWS:
                setattr(self, name, getattr(self, name)[keep])
            kept = keep.nonzero()[0].tolist()
            self.index = [self.index[r] for r in kept]
            self.cores = [self.cores[r] for r in kept]
            self.phases = [self.phases[r] for r in kept]
            self._number_rows()


def _span(lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Each column's bound-flip distance ``ub - lb``, without the warning
    for the NaN of two equal infinite bounds."""
    with np.errstate(invalid="ignore"):
        return ub - lb


def _fold(t: np.ndarray, basic: np.ndarray) -> tuple[float, int]:
    """The ratio test's fold over one item's finite steps in row order: the
    smallest step, ties within ``_TIE_TOL`` to the lowest basic column;
    (INF, 0) when no step is finite."""
    best, best_row, best_basic = INF, 0, None
    rows = (t < INF).nonzero()[0]
    for i, ti, b in zip(rows.tolist(), t[rows].tolist(), basic[rows].tolist()):
        if ti < best - _TIE_TOL or (ti < best + _TIE_TOL and
                                    (best_basic is None or b < best_basic)):
            best, best_row, best_basic = ti, i, b
    return best, best_row


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
