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

Pricing a program of at least ``_SPLIT_ROWS`` rows does not read F's
slack and artificial columns (``_Split``). Each has one nonzero, -1 or
+1, so its product with ``y`` is exact in any summation order: a slack's
reduced cost is ``cost + y[i]``, an artificial's ``cost - sign * y[row]``,
and an entering one's column in the basis is ``0.0 -+ binv[:, row]``, not
``binv @ F[:, j]``. The BLAS product ``y @ F`` runs over the structural
columns only, padded to ``4 * ceil(n / 4)`` columns, as a view. OpenBLAS's
gemv computes its outputs four at a time and the last ``N % 4`` apart, so
over such a prefix each structural column sums as it does in the product
over all of F; over the first n columns alone, the last ``n % 4`` would
sum in another order. Below ``_SPLIT_ROWS`` rows the split's extra numpy
calls cost more than it saves, and pricing stays one product over F.
``test_split_pricing_matches_the_product_over_F_bit_for_bit`` and the
pivot-loop guard in ``tests/test_solver.py`` hold this bit for bit, and
CI runs them on OpenBLAS's Haswell kernel as well.

The pivot loop keeps the state of the basic variables per row (cost,
bounds, value and column), so a pivot rewrites one row with scalar writes
instead of gathering by the basis. Set-up and certification run on whole
arrays but keep the arithmetic order of a per-column loop. The tests keep
that scalar formulation as the reference and hold every result to it bit
for bit.

One driver, ``_solve``, runs both phases on cores of one shape.
``solve_lp`` runs it on its one core. ``solve_lp_batch`` builds each
program's matrix once, and ``F`` once per starting pattern, and runs it
on the cores of each shape, whatever their program. Phase 1 runs on the
cores that have artificials, phase 2 on those phase 1 did not end. A
phase of at least ``_LOCKSTEP_MIN`` cores pivots in lockstep on stacked
arrays (``_Lockstep``), each core to the Solution it reaches alone.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..errors import ContractError, NumericalError
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
# The fewest cores of one shape whose pivot loops of one phase run in
# lockstep: below it, a stacked step costs more than the scalar pivots it
# replaces (measured on the benchmark's RSF pin batches, see CHANGES.md).
_LOCKSTEP_MIN = 16
# The fewest rows at which pricing splits F (_Split): below it, the split's
# extra numpy calls cost more than the product over the identity block
# they save (measured on the benchmark's programs, see the README).
_SPLIT_ROWS = 128

_AT_LOWER, _AT_UPPER, _FREE, _BASIC = 0, 1, 2, 3
# Pricing signs by status: max(rc * s[0], rc * s[1]) is -rc at a lower
# bound, rc at an upper bound, |rc| when free and 0 when basic.
_SIGNS = np.array([[-1.0, 1.0, -1.0, 0.0],
                   [-1.0, 1.0, 1.0, 0.0]])


class _Form:
    """What every solve of one program starts from, whatever its row
    bounds: the dense matrix ``A``, the variables' bounds and costs, and
    the starting statuses and values of the columns of ``[A | -I]``.
    Re-bounded copies of a program share it.
    """

    def __init__(self, program: LinearProgram):
        n, m = program.n_vars, program.n_rows
        self.n, self.m = n, m
        self.A = program.dense_matrix()
        self.var_lb = np.array(program.var_lb, dtype=float)
        self.var_ub = np.array(program.var_ub, dtype=float)
        self.cost = np.array(program.var_cost, dtype=float)
        # A structural starts at its finite lower bound, else at its finite
        # upper bound, else free at 0; every slack starts basic.
        has_lo, has_hi = np.isfinite(self.var_lb), np.isfinite(self.var_ub)
        self.status = np.full(n + m, _BASIC, dtype=np.int8)
        self.status[:n] = np.where(has_lo, _AT_LOWER, np.where(has_hi, _AT_UPPER, _FREE))
        self.xval = np.zeros(n + m)
        self.xval[:n] = np.where(has_lo, self.var_lb, np.where(has_hi, self.var_ub, 0.0))
        self.xval[n:] = self.A @ self.xval[:n] if m else np.zeros(0)


class _Split(NamedTuple):
    """How a large program prices (``_Core.price``): the BLAS product runs
    over ``prefix``, F's first ``4 * ceil(n / 4)`` columns as a view; each
    slack and artificial column ``n + i`` has its one nonzero, ``signs[i]``,
    in row ``rows[i]``."""

    prefix: np.ndarray
    rows: np.ndarray
    signs: np.ndarray

    def column(self, binv: np.ndarray, i: int) -> np.ndarray:
        """``binv @ F[:, n + i]``, bit for bit: one column of ``binv``, its
        sign applied. The BLAS sum starts from +0.0, and so does
        ``0.0 +- b``, so a zero comes out +0.0 either way."""
        b = binv[:, self.rows[i]]
        return 0.0 - b if self.signs[i] < 0.0 else 0.0 + b


class _Core:
    """Working state shared by the two phases: the arrays ``_start`` builds
    for one solve, artificial columns included."""

    def __init__(self, n, F, cost, lb, ub, xval, status, basis, binv, split=None):
        self.n_struct, self.m = n, F.shape[0]
        # F, cost and split are shared by the pattern's cores: nothing writes
        # into them. Without a split, pricing is one product over F.
        self.F, self.cost, self.split = F, cost, split
        self.lb, self.ub, self.xval, self.status = lb, ub, xval, status
        self.basis, self.binv = basis, binv
        self.iterations = self.phase1_iterations = self.refactorizations = self.bland_switches = 0

    def counters(self) -> dict[str, int]:
        """The pivot counters a ``Solution`` carries."""
        return {"iterations": self.iterations,
                "phase1_iterations": self.phase1_iterations,
                "refactorizations": self.refactorizations,
                "bland_switches": self.bland_switches}

    def retire_artificials(self) -> None:
        self.ub[self.n_struct + self.m:] = 0.0
        self.lb[self.n_struct + self.m:] = 0.0

    def price(self, cost: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The reduced costs ``cost - y @ F``, bit for bit.

        With a split, the structural columns take the BLAS product over
        the prefix, whose columns sum as they do in the product over all
        of F (the module docstring says why). Column ``n + i`` has one
        nonzero, so its product is the exact ``signs[i] * y[rows[i]]``: the
        other terms are zeros. A logical column's cost is +0.0 or 1.0, so
        the signs of zero products do not reach its reduced cost.
        """
        split = self.split
        if split is None:
            return cost - (y @ self.F if self.m else 0.0)
        y_F = np.empty(cost.size)
        np.matmul(y, split.prefix, out=y_F[:split.prefix.shape[1]])
        np.multiply(y.take(split.rows), split.signs, out=y_F[self.n_struct:])
        return cost - y_F

    # -- simplex iterations -------------------------------------------

    def optimize(self, cost: np.ndarray) -> str:
        """Run pivots to optimality for the given cost vector, up to
        ``_iteration_cap``.

        Returns "optimal" or "unbounded". While it runs, the basic values
        live in ``row_state``; every exit writes them back to ``xval``.
        """
        m, n, split, price = self.m, self.n_struct, self.split, self.price
        if not cost.size:
            return "optimal"
        iteration_cap = _iteration_cap(self)
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
                rc = price(cost, y)

                # Dantzig enters the largest improvement, Bland the first one.
                improving = np.maximum(rc * s_lo, rc * s_hi)
                enter = int((improving > _RC_TOL if bland else improving).argmax())
                if not improving[enter] > _RC_TOL:
                    return "optimal"
                # An improving column rises when rc < 0 and falls when rc > 0.
                sigma = 1.0 if rc[enter] < 0 else -1.0

                if split is not None and enter >= n:
                    w = split.column(self.binv, enter - n)
                else:
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
    """Solve a linear program; duals come from the optimal basis. This is
    ``solve_lp_batch``'s driver, ``_solve``, run on one core."""
    [core] = _start(_Form(program), np.array(program.row_lo, dtype=float)[None],
                    np.array(program.row_hi, dtype=float)[None])
    [result] = _solve([core])
    if isinstance(result, NumericalError):
        raise result
    return result


def _start(form: _Form, row_lo, row_hi) -> list[_Core]:
    """One core per row of the ``(k, m)`` arrays ``row_lo`` and ``row_hi``:
    ``form``'s program under those row bounds, its artificials installed.

    Every core starts from the form's slack values. The rows whose slacks
    leave their bounds by more than the phase-1 tolerance, and on which
    side, set its pattern; those rows get artificial columns, and their
    slacks start at the bound they leave. Each pattern's ``F``, costs,
    statuses, basis and inverse are built once; per core remain its bounds
    and values.
    """
    n, m = form.n, form.m
    row_lo, row_hi = (np.asarray(b, dtype=float) for b in (row_lo, row_hi))
    # Row bounds given as arrays bypass LinearProgram.add_range's checks. A
    # NaN bound fails lo <= hi, as crossed bounds do.
    if row_lo.ndim != 2 or row_lo.shape[1:] != (m,) or row_hi.shape != row_lo.shape:
        raise ContractError(f"row bounds must be two (k, {m}) arrays, "
                            f"not {row_lo.shape} and {row_hi.shape}")
    if not (row_lo <= row_hi).all():
        if np.isnan(row_lo).any() or np.isnan(row_hi).any():
            raise ContractError("row bounds must not be NaN")
        k, i = np.argwhere(row_lo > row_hi)[0]
        raise ContractError(f"row {i}: lo {row_lo[k, i]} exceeds hi {row_hi[k, i]}")
    slack = form.xval[n:]
    above = slack > row_hi + _PHASE1_TOL
    below = ~above & (slack < row_lo - _PHASE1_TOL)
    patterns: dict[bytes, list[int]] = {}
    for k, code in enumerate((above + 2 * below).astype(np.int8)):
        patterns.setdefault(code.tobytes(), []).append(k)
    cores: list[_Core] = [None] * len(row_lo)
    for items in patterns.values():
        art_rows = (above[items[0]] | below[items[0]]).nonzero()[0]
        n_art = art_rows.size
        # [A | -I | artificials] in one array, with no m x m temporary to add
        # to a large program's peak memory; -I's zeros are -0.0, as -np.eye's.
        F = np.zeros((m, n + m + n_art))
        F[:, :n], F[:, n:n + m] = form.A, -0.0
        F[np.arange(m), n + np.arange(m)] = -1.0
        cost = np.concatenate([form.cost, np.zeros(m + n_art)])
        status = np.concatenate([form.status, np.full(n_art, _BASIC, dtype=np.int8)])
        basis = np.arange(n, n + m)
        if n_art:
            up, cols = above[items[0], art_rows], n + art_rows
            basis[art_rows] = n + m + np.arange(n_art)
            F[art_rows, basis[art_rows]] = np.where(up, -1.0, 1.0)
            status[cols] = np.where(up, _AT_UPPER, _AT_LOWER)
        # The basis of slacks (-1) and artificials (+-1) is diagonal, so its
        # inverse needs no factorization. Without artificials it is -I,
        # whose zeros are -0.0.
        binv = np.diag(1.0 / F[np.arange(m), basis]) if n_art else -np.eye(m)
        split = None
        if m >= _SPLIT_ROWS:
            split = _Split(F[:, :4 * -(-n // 4)], np.concatenate([np.arange(m), art_rows]),
                           np.concatenate([np.full(m, -1.0), F[art_rows, basis[art_rows]]]))
        zeros, infs = np.zeros(n_art), np.full(n_art, INF)
        for j, k in enumerate(items):
            lb = np.concatenate([form.var_lb, row_lo[k], zeros])
            ub = np.concatenate([form.var_ub, row_hi[k], infs])
            xval = np.concatenate([form.xval, zeros])
            if n_art:  # the artificial rows' slacks start at the bound they leave
                xval[cols] = np.where(up, ub[cols], lb[cols])
            # The first core takes the pattern's arrays, each other one a copy.
            cores[k] = _Core(n, F, cost, lb, ub, xval,
                             *((status, basis, binv) if not j else
                               (status.copy(), basis.copy(), binv.copy())), split)
        if n_art:
            # Each core's _set_basic_values, with the nonbasic columns and
            # -B^-1 built once and not held at once: for a large program each
            # is as large as B^-1.
            nonbasic = status != _BASIC
            F_nonbasic = F[:, nonbasic]
            rhs = [F_nonbasic @ cores[k].xval[nonbasic] for k in items]
            del F_nonbasic
            minus_binv = -binv
            for k, r in zip(items, rhs):
                cores[k].xval[basis] = minus_binv @ r
    return cores


def _iteration_cap(core: _Core) -> int:
    """The most pivots a loop on ``core`` takes before it gives up."""
    return 200 * (core.m + core.F.shape[1]) + 20000


def _cost(core: _Core, phase: int) -> np.ndarray:
    """The cost vector of ``core``'s pivot loop in ``phase``: phase 1
    minimizes the sum of the artificials, phase 2 the program's cost."""
    n_basic = core.n_struct + core.m
    cost = np.zeros(core.F.shape[1])
    if phase == 1:
        cost[n_basic:] = 1.0
    else:
        cost[:n_basic] = core.cost[:n_basic]
    return cost


def _solve(cores: list[_Core]) -> list[Solution | NumericalError]:
    """Both phases on each of ``cores``, which share one shape: each
    core's Solution, or the NumericalError its solve raised. Phase 1 runs
    on the cores that have artificials, phase 2 on those it did not end."""
    results: list = [None] * len(cores)
    for phase in (1, 2):
        todo = [k for k, core in enumerate(cores) if results[k] is None
                and (phase == 2 or core.F.shape[1] > core.n_struct + core.m)]
        costs = [_cost(cores[k], phase) for k in todo]
        for k, cost, outcome in zip(todo, costs, _optimize([cores[k] for k in todo], costs)):
            if isinstance(outcome, NumericalError):
                results[k] = outcome
                continue
            try:
                results[k] = _finish(cores[k], phase, cost, outcome)
            except NumericalError as exc:
                results[k] = exc
    return results


def _finish(core: _Core, phase: int, cost: np.ndarray, outcome: str) -> Solution | None:
    """End ``core``'s pivot loop of ``phase`` under ``cost``, which
    returned ``outcome``: None when phase 2 follows, else the Solution."""
    if phase == 1:
        if outcome != "optimal":
            raise NumericalError("phase-1 subproblem reported unbounded")
        core.phase1_iterations = core.iterations
        if float(cost @ core.xval) > _PHASE1_TOL:
            return Solution.non_optimal("infeasible", **core.counters())
        core.retire_artificials()
        return None
    if outcome == "unbounded":
        return Solution.non_optimal("unbounded", **core.counters())
    return _extract(core, cost)


def _optimize(cores: list[_Core], costs: list[np.ndarray]) -> list[str | NumericalError]:
    """``core.optimize(cost)`` of each core under its cost: "optimal",
    "unbounded" or the NumericalError it raised. At least
    ``_LOCKSTEP_MIN`` cores pivot in lockstep, if they have more than one
    row: the lockstep ratio test needs two rows to compare steps."""
    if len(cores) >= _LOCKSTEP_MIN and cores[0].m > 1:
        return _Lockstep(cores, costs).run()
    outcomes: list = []
    for core, cost in zip(cores, costs):
        try:
            outcomes.append(core.optimize(cost))
        except NumericalError as exc:
            outcomes.append(exc)
    return outcomes


def solve_lp_batch(batches) -> list[list[Solution | NumericalError]]:
    """``solve_lp`` of each of several programs under each pair of
    row-bound vectors given for it, bit for bit, with each program's
    matrix built once. ``batches`` holds one ``(program, row_lo,
    row_hi)`` tuple per program; the result is one list per program, one
    entry per pair of vectors: its Solution, or the NumericalError its
    solve raised.

    The cores of one shape (rows and columns, artificials included),
    whatever their program, go through ``_solve`` together.
    """
    started = [_start(_Form(program), row_lo, row_hi) for program, row_lo, row_hi in batches]
    # The cores of each shape, those that share an F next to each other:
    # a lockstep multiplies by each F once per run of adjacent rows.
    groups: dict[tuple[int, int], dict[int, list[_Core]]] = {}
    for cores in started:
        for core in cores:
            groups.setdefault(core.F.shape, {}).setdefault(id(core.F), []).append(core)
    solved = {}
    for shape in groups.values():
        cores = [core for same_F in shape.values() for core in same_F]
        solved.update(zip(map(id, cores), _solve(cores)))
    return [[solved[id(core)] for core in cores] for cores in started]


class _Lockstep:
    """The stacked form of ``_Core.optimize``: cores of one shape, from one
    program or several, that pivot together, each under its own cost.

    Row r of each array holds the state of one core's pivot loop, the
    locals of ``optimize`` included. A step does for every live row what
    one pass of that loop does, with the same floating-point operations:
    elementwise work on the stacked arrays, and as reductions only stacked
    ``np.matmul`` calls, which run the BLAS routine of the 2-D call once
    per row (a 2-D product over all rows, ``Y @ F`` or ``einsum``, would
    sum in another order). ``y @ F`` runs once per run of adjacent rows
    that share an ``F`` (one artificial pattern of one program), ``F``
    broadcast over them: one copy of each ``F``, not one per core. The
    ratio test's tie fold and the inverse update keep their per-row order
    and rows. Refactorizations run on the row's own core through the
    scalar code. Every loop has the cap ``_iteration_cap`` gives the first
    core, as all cores of one shape have.

    A row that stops keeps its place; the tie fold, the pivots and the
    exits mask it out. Each row's state goes back to its core once, when
    every row has stopped.
    """

    def __init__(self, cores: list[_Core], costs: list[np.ndarray]):
        self.cores = cores
        index: dict[int, int] = {}  # id of each distinct F -> its index in Fs
        self.pattern = np.array([index.setdefault(id(core.F), len(index)) for core in cores])
        self.Fs = np.stack(list({id(core.F): core.F for core in cores}.values()))
        for name in ("binv", "basis", "status", "xval", "lb", "ub"):
            setattr(self, name, np.stack([getattr(core, name) for core in cores]))
        self.cost = np.stack(costs)
        self.iterations = np.array([core.iterations for core in cores], dtype=np.int64)
        self.bland_switches = np.array([core.bland_switches for core in cores], dtype=np.int64)
        self.cap = _iteration_cap(cores[0])
        size, m, n = *self.binv.shape[:2], self.cost.shape[1]
        self.degen = np.zeros(size, dtype=np.int64)
        self.bland = np.zeros(size, dtype=bool)
        self.live = np.ones(size, dtype=bool)
        self.x_b = np.take_along_axis(self.xval, self.basis, 1)
        # Flat offsets of each row in the (rows, m) and (rows, n) arrays, and
        # the runs of rows (F index, first row, end row) that share an F.
        self.row0, self.col0 = np.arange(size) * m, np.arange(size) * n
        bounds = [0, *(np.flatnonzero(np.diff(self.pattern)) + 1).tolist(), size]
        self.runs = [(int(self.pattern[a]), a, b) for a, b in zip(bounds, bounds[1:])]

    def run(self) -> list[str | NumericalError]:
        """Step until every row stops; returns each core's outcome."""
        outcomes: dict[int, str | NumericalError] = {}
        while self.live.any():
            exits = self._step()
            if exits:
                self.live[list(exits)] = False
                outcomes.update(exits)
        # Each row's state goes back to its core, as optimize leaves it.
        np.put_along_axis(self.xval, self.basis, self.x_b, 1)
        for r, core in enumerate(self.cores):
            core.xval, core.status, core.basis, core.binv = (
                self.xval[r], self.status[r], self.basis[r], self.binv[r])
            core.iterations = int(self.iterations[r])
            core.bland_switches = int(self.bland_switches[r])
        return [outcomes[r] for r in range(len(self.cores))]

    def _step(self) -> dict:
        """One pass of ``optimize``'s loop on each live row; returns the
        rows that stop, each with its outcome."""
        live, exits = self.live, {}
        # Few rows reach the cap, or the refactorization interval in
        # _pivot: one reduction over all rows finds whether any did.
        if self.iterations.max() > self.cap:
            over = live & (self.iterations > self.cap)
            exits = {r: NumericalError("simplex iteration cap exceeded")
                     for r in over.nonzero()[0].tolist()}
            live = live & ~over
        row0, col0 = self.row0, self.col0
        at_basis = self.basis + col0[:, None]
        y = np.matmul(self.cost.take(at_basis)[:, None, :], self.binv)
        y_F = np.empty_like(self.cost)
        for q, a, b in self.runs:
            y_F[a:b] = np.matmul(y[a:b], self.Fs[q])[:, 0]
        rc = self.cost - y_F

        signs = _SIGNS.take(self.status, axis=1)
        improving = np.maximum(rc * signs[0], rc * signs[1])
        enter = improving.argmax(1)
        if self.bland.any():
            enter = np.where(self.bland, (improving > _RC_TOL).argmax(1), enter)
        at_enter = col0 + enter
        done = ~(improving.take(at_enter) > _RC_TOL)
        sigma = np.where(rc.take(at_enter) < 0, 1.0, -1.0)
        w = np.matmul(self.binv, self.Fs[self.pattern, :, enter][:, :, None])[:, :, 0]

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
            # step, it runs here, on live rows only.
            second = np.partition(t, 1, axis=1)[:, 1]
            ties = (best >= second - _TIE_TOL) | (second < best + _TIE_TOL) | (best != best)
            ties &= live
            for i in ties.nonzero()[0].tolist():
                best[i], row[i] = _fold(t[i], self.basis[i])
            flip = self.ub.take(at_enter) - self.lb.take(at_enter)
            flips = flip < best - _TIE_TOL
        step = np.where(flips, flip, best)
        stopping = live & (done | (step == INF))
        for r in stopping.nonzero()[0].tolist():
            exits[r] = "optimal" if done[r] else "unbounded"
        moving = live & ~stopping
        if moving.any():
            at_row = row0 + row
            self._pivot(moving, enter, at_enter, sigma, step, flips, at_row,
                        at_basis.take(at_row), rising.take(at_row), w, exits)
        return exits

    def _pivot(self, moving, enter, at_enter, sigma, step, flips, at_row, at_leaving,
               to_upper, w, exits) -> None:
        """One pivot or bound flip on each ``moving`` row, as ``optimize``
        does it."""
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
        p = slice(None) if moving.all() else moving
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

        if self.iterations.max() >= _REFACTOR_EVERY:
            due = moving & (self.iterations % _REFACTOR_EVERY == 0)
            for r in due.nonzero()[0].tolist():
                if r not in exits:
                    self._refactor(r, exits)

    def _update_binv(self, q, at_q, w, exits) -> None:
        """``_Core._update_binv`` of each row in ``q``, on the rows of its
        inverse where its w is nonzero. A row whose pivot is too small
        stops, its inverse left as it was."""
        m = w.shape[1]
        piv = w.take(at_q)
        small = np.abs(piv) < _PIVOT_TOL
        if small.any():
            for i in small.nonzero()[0].tolist():
                exits[int(q[i])] = NumericalError(
                    f"numerically singular basis: pivot {piv[i]:.3e} in row {at_q[i] % m} "
                    f"for entering column {self.basis.take(at_q[i])}")
            q, at_q, piv = q[~small], at_q[~small], piv[~small]
        wq = w[q]
        rows = self.binv.reshape(-1, m)
        old = rows[at_q]
        nz = np.flatnonzero(wq)
        item = nz // m
        # (w * old) / piv, as the scalar update, in one gathered buffer.
        change = old[item]
        change *= wq.take(nz)[:, None]
        change /= piv[item][:, None]
        rows[(q * m)[item] + nz % m] -= change
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
    rc = core.price(cost, y)

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
