"""Embedded LP/MILP solver: duality, determinism, external cross-checks."""

import copy
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from flexmkt.errors import ContractError, NumericalError
from flexmkt.mp_solver import (INF, LinearProgram, MixedProgram, Solution, phase_one, simplex,
                               solve_lp, solve_lp_batch, solve_milp)
from flexmkt.mp_solver.simplex import (_AT_LOWER, _AT_UPPER, _BASIC, _CERT_RC_TOL, _CERT_TOL,
                                       _DEGEN_TOL, _FREE, _PHASE1_TOL, _PIVOT_TOL, _RC_TOL,
                                       _SIGNS, _Core, _Form)


def _core_of(program: LinearProgram) -> _Core:
    """The _Core solve_lp starts ``program`` from, its artificials installed."""
    [core] = simplex._start(_Form(program), [program.row_lo], [program.row_hi])
    return core


def _slack_core(program: LinearProgram) -> _Core:
    """``program``'s starting state on ``[A | -I]``, before any artificial
    column, built from its _Form."""
    form = _Form(program)
    n, m = form.n, form.m
    return _Core(n, np.hstack([form.A, -np.eye(m)]), np.concatenate([form.cost, np.zeros(m)]),
                 np.concatenate([form.var_lb, program.row_lo]),
                 np.concatenate([form.var_ub, program.row_hi]), form.xval, form.status,
                 np.arange(n, n + m), -np.eye(m))


def random_lp(rng, n_max=12, with_equality=True):
    """Random LP with a known interior feasible point (so never infeasible)."""
    n = int(rng.integers(2, n_max))
    m = int(rng.integers(1, 8))
    a = rng.normal(size=(m, n))
    c = rng.normal(size=n)
    x0 = rng.uniform(0.2, 2.5, size=n)
    b = a @ x0 + rng.uniform(0.1, 2.0, size=m)
    lp = LinearProgram()
    for j in range(n):
        lp.add_variable(f"x{j}", 0.0, 3.0, cost=float(c[j]))
    eq = None
    if with_equality and rng.random() < 0.4:
        row = rng.normal(size=n)
        lp.add_equality({j: float(row[j]) for j in range(n)}, float(row @ x0))
        eq = (row.reshape(1, -1), [float(row @ x0)])
    for i in range(m):
        lp.add_range({j: float(a[i, j]) for j in range(n)}, -INF, float(b[i]))
    return lp, (c, a, b, eq)


def scipy_solve(data):
    c, a, b, eq = data
    kw = dict(A_ub=a, b_ub=b, bounds=[(0.0, 3.0)] * len(c), method="highs")
    if eq:
        kw["A_eq"], kw["b_eq"] = eq
    return linprog(c, **kw)


def dual_objective(lp: LinearProgram, sol: Solution) -> float:
    """Lower bound from the returned duals: complementary value of the rows
    plus the bound terms from reduced costs. Equals the primal objective at
    a true optimum."""
    a = lp.dense_matrix()
    y = sol.duals
    rc = np.array(lp.var_cost) - (y @ a if lp.n_rows else 0.0)
    total = 0.0
    for i in range(lp.n_rows):
        if abs(y[i]) <= 1e-11:
            continue
        total += y[i] * (lp.row_lo[i] if y[i] > 0 else lp.row_hi[i])
    for j in range(lp.n_vars):
        if abs(rc[j]) <= 1e-11:
            continue
        total += rc[j] * (lp.var_lb[j] if rc[j] > 0 else lp.var_ub[j])
    return total


def test_bound_only_toy():
    lp = LinearProgram()
    lp.add_variable("x", 2.0, 5.0, cost=1.0)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0)
    # Dual of the active lower bound is the reduced cost.
    assert sol.reduced_costs[0] == pytest.approx(1.0)


def test_simplex_face_toy():
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, INF, cost=-1.0)
    y = lp.add_variable("y", 0.0, INF, cost=-1.0)
    lp.add_range({x: 1.0, y: 1.0}, -INF, 1.0, "cap")
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(-1.0)
    assert sol.duals[0] == pytest.approx(-1.0)


def test_statuses():
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, 10.0)
    lp.add_range({x: 1.0}, 3.0, INF)
    lp.add_range({x: 1.0}, -INF, 1.0)
    assert solve_lp(lp).status == "infeasible"

    lp = LinearProgram()
    lp.add_variable("x", -INF, INF, cost=1.0)
    assert solve_lp(lp).status == "unbounded"


def test_contract_checks():
    lp = LinearProgram()
    with pytest.raises(ContractError):
        lp.add_variable("x", 2.0, 1.0)
    lp.add_variable("x", 0.0, 1.0)
    with pytest.raises(ContractError):
        lp.add_equality({5: 1.0}, 0.0)
    with pytest.raises(ContractError):
        lp.add_range({0: 1.0}, 2.0, 1.0)


@pytest.mark.parametrize("bound", [INF, -INF])
def test_a_variable_fixed_at_an_infinite_bound_is_rejected(bound):
    # It would start free at 0, and the ratio test's ub - lb would be
    # inf - inf: a NaN step on a program no solve calls infeasible.
    lp = LinearProgram()
    with pytest.raises(ContractError, match="fixed at an infinite bound"):
        lp.add_variable("x", bound, bound)
    assert lp.n_vars == 0


def test_a_rebounded_copy_shares_the_rows_and_kept_matrix_and_solves_as_a_fresh_build():
    def built(x_hi, row_lo):
        lp = LinearProgram()
        x = lp.add_variable("x", 0.0, x_hi, -1.0)
        y = lp.add_variable("y", -1.0, 1.0, 0.5)
        lp.add_range({x: 1.0, y: 2.0}, row_lo, 3.0)
        lp.add_equality({x: 1.0, y: -1.0}, 0.25)
        return lp

    lp = built(2.0, -1.0)
    lp.keep_matrix()
    matrix = lp.dense_matrix()
    assert not matrix.flags.writeable and lp.dense_matrix() is matrix
    other = lp.rebounded()
    other.set_variable(0, 0.0, 1.5, -1.0)
    other.set_row(0, 0.5, 3.0)
    assert other.rows is lp.rows and other.dense_matrix() is matrix
    assert (lp.var_ub[0], lp.row_lo[0], other.start) == (2.0, -1.0, None)
    fresh = built(1.5, 0.5)
    assert np.array_equal(fresh.dense_matrix(), matrix)
    assert repr(solve_lp(other)) == repr(solve_lp(fresh))
    # The setters check as add_variable and add_range do.
    for args in ((0, math.nan, 1.0, 0.0), (0, 2.0, 1.0, 0.0), (0, INF, INF, 0.0),
                 (0, 0.0, 1.0, INF), (2, 0.0, 1.0, 0.0)):
        with pytest.raises(ContractError):
            other.set_variable(*args)
    for args in ((0, math.nan, 1.0), (0, 2.0, 1.0), (2, 0.0, 0.0)):
        with pytest.raises(ContractError):
            other.set_row(*args)
    # Rows appended after keep_matrix: the kept matrix no longer matches.
    lp.add_range({0: 1.0}, 0.0, 1.0)
    assert lp.dense_matrix().shape == (3, 2)


@pytest.mark.parametrize("lo,hi", [(math.nan, math.nan), (math.nan, 1.0), (0.0, math.nan),
                                   (1.0, 0.0)])
def test_nan_row_bounds_are_rejected(lo, hi):
    # A NaN bound compares false both ways, so without a check it would
    # pass every feasibility test and certify as optimal. Crossed bounds
    # (lo > hi) would end as a failed certificate.
    match = "NaN" if math.isnan(lo) or math.isnan(hi) else "lo 1.0 exceeds hi 0.0"
    lp = LinearProgram()
    lp.add_variable("x", 0.0, 10.0, cost=1.0)
    with pytest.raises(ContractError, match=match):
        lp.add_range({0: 1.0}, lo, hi)
    lp.add_range({0: 1.0}, 0.0, 1.0)
    # Row bounds given to a batch as arrays, or written into the program's
    # lists, bypass add_range.
    with pytest.raises(ContractError, match=match):
        solve_lp_batch([(lp, np.array([[0.0], [lo]]), np.array([[1.0], [hi]]))])
    # One program's bad bounds fail a call that holds a sound one too.
    with pytest.raises(ContractError, match=match):
        solve_lp_batch([(lp, np.array([[0.0]]), np.array([[1.0]])),
                        (lp, np.array([[lo]]), np.array([[hi]]))])
    lp.row_lo[0], lp.row_hi[0] = lo, hi
    with pytest.raises(ContractError, match=match):
        solve_lp(lp)


def test_row_bounds_of_the_wrong_shape_are_rejected():
    lp = _two_row_program()
    for lo, hi in [(np.zeros((2, 3)), np.ones((2, 3))),  # three bounds for two rows
                   (np.zeros(2), np.ones(2)),  # one vector, not one row per item
                   (np.zeros((2, 2)), np.ones((3, 2)))]:  # two items' lower bounds, three upper
        with pytest.raises(ContractError, match="row bounds must be two"):
            solve_lp_batch([(lp, lo, hi)])
    lp.row_lo.append(0.0)  # written into the list past add_range
    with pytest.raises(ContractError, match="row bounds must be two"):
        solve_lp(lp)


def test_strong_duality_on_random_lps():
    rng = np.random.default_rng(42)
    for _ in range(300):
        lp, data = random_lp(rng)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        gap = abs(sol.objective - dual_objective(lp, sol))
        assert gap <= 1e-7 * (1.0 + abs(sol.objective))
        ref = scipy_solve(data)
        assert ref.success
        assert sol.objective == pytest.approx(ref.fun, abs=1e-7, rel=1e-7)


def test_duals_match_rhs_perturbation():
    lp = LinearProgram()
    x = lp.add_variable("x", 0.0, 10.0, cost=3.0)
    y = lp.add_variable("y", 0.0, 10.0, cost=5.0)
    lp.add_equality({x: 1.0, y: 1.0}, 4.0, "bal")
    base = solve_lp(lp)

    lp2 = LinearProgram()
    x = lp2.add_variable("x", 0.0, 10.0, cost=3.0)
    y = lp2.add_variable("y", 0.0, 10.0, cost=5.0)
    lp2.add_equality({x: 1.0, y: 1.0}, 4.01, "bal")
    up = solve_lp(lp2)
    assert (up.objective - base.objective) / 0.01 == pytest.approx(base.duals[0],
                                                                   abs=1e-6)


def test_determinism_bit_identical():
    rng = np.random.default_rng(3)
    lp, _ = random_lp(rng)
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.objective == b.objective
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.duals, b.duals)
    assert a.iterations == b.iterations


def test_degenerate_lp_terminates():
    # Many redundant rows through the same vertex: anti-cycling must cope.
    lp = LinearProgram()
    xs = [lp.add_variable(f"x{j}", 0.0, 1.0, cost=-1.0) for j in range(6)]
    for i in range(12):
        lp.add_range({x: 1.0 for x in xs}, -INF, 3.0, f"c{i}")
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-3.0)


def test_pivot_counters():
    rng = np.random.default_rng(7)
    n, m = 60, 50
    a = rng.normal(size=(m, n))
    x0 = rng.uniform(0.5, 4.5, size=n)
    lp = LinearProgram()
    for j in range(n):
        lp.add_variable(f"x{j}", 0.0, 5.0, cost=float(rng.normal()))
    # Every row is violated at x = 0, so phase 1 has to run.
    for i in range(m):
        lp.add_range({j: float(a[i, j]) for j in range(n)}, float(a[i] @ x0 - 1.0), INF)
    sol = solve_lp(lp)
    assert sol.status == "optimal" and sol.iterations >= 200
    assert 0 < sol.phase1_iterations <= sol.iterations
    # Only the periodic refactorizations count; the diagonal starting
    # inverse needs none.
    assert sol.refactorizations == sol.iterations // 100
    assert sol.bland_switches == 0
    assert_certified(sol)

    lp.add_range({0: 1.0}, 6.0, INF)  # x0 >= 6 against its upper bound 5
    sol = solve_lp(lp)
    assert sol.status == "infeasible"
    assert 0 < sol.phase1_iterations == sol.iterations
    assert sol.refactorizations == sol.iterations // 100
    assert sol.cert_residual == sol.cert_gap == 0.0

    toy = LinearProgram()
    toy.add_variable("x", 2.0, 5.0, cost=1.0)
    assert solve_lp(toy).phase1_iterations == 0


def assert_certified(sol: Solution) -> None:
    """The certificate an optimal solve carries is within _certify's bounds."""
    scale = max(1.0, float(np.max(np.abs(sol.x))) if sol.x.size else 1.0)
    assert 0.0 <= sol.cert_residual <= 1e-7 * scale
    assert 0.0 <= sol.cert_gap <= 1e-7


def test_bland_switches_on_a_degenerate_program():
    # Every row passes through the origin, which is where phase 2 starts:
    # the first run of degenerate pivots is long enough to switch to Bland.
    rng = np.random.default_rng(1)
    n = m = 30
    lp = LinearProgram()
    for j in range(n):
        lp.add_variable(f"x{j}", 0.0, 1.0, cost=float(-rng.uniform(0.5, 1.5)))
    a = rng.normal(size=(m, n))
    for i in range(m):
        lp.add_range({j: float(a[i, j]) for j in range(n)}, -INF, 0.0)
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.bland_switches >= 1
    assert sol.iterations > max(64, 2 * m)
    assert_certified(sol)


# The solver's former scalar ratio test, kept verbatim as the reference
# that its row-selecting version must match bit for bit.
def _reference_ratio_test(self, enter: int, sigma: float, w: np.ndarray):
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


_ABOVE_TOL = float(np.nextafter(_PIVOT_TOL, 1.0))
# Values on chains of near-ties 0.6e-12 apart, so that steps tie exactly,
# tie within the 1e-12 rule, or tie only through a neighbour.
_CHAIN = st.builds(lambda base, k: base + k * 0.6e-12,
                   st.sampled_from([0.0, 1.0, 3.0]), st.integers(0, 4))
_VALUE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]), _CHAIN,
                   st.floats(-1e3, 1e3, allow_nan=False))
_RATE = st.one_of(st.sampled_from([0.0, -0.0, _PIVOT_TOL, -_PIVOT_TOL, _ABOVE_TOL,
                                   -_ABOVE_TOL, 1.0, -1.0, 0.5, -2.0]),
                  st.floats(-10.0, 10.0, allow_nan=False))


def _ratio_case(basis, lb, ub, xval, enter, sigma, w):
    state = SimpleNamespace(m=len(basis), basis=np.array(basis), lb=np.array(lb),
                            ub=np.array(ub), xval=np.array(xval))
    # The per-row state of the basic variables that the solver's ratio test reads.
    b = state.basis
    state.row_state = np.array([state.xval[b], state.lb[b], state.ub[b], b], dtype=float)
    return state, enter, sigma, np.array(w)


@st.composite
def _ratio_states(draw):
    m = draw(st.integers(1, 8))
    n_cols = m + draw(st.integers(1, 4))
    lb = [draw(st.one_of(st.just(-INF), _VALUE)) for _ in range(n_cols)]
    ub = [draw(st.one_of(st.just(INF), _VALUE)) for _ in range(n_cols)]
    # The entering column's bounds give the flip; keep them ordered.
    enter = n_cols - 1
    lb[enter], ub[enter] = min(lb[enter], ub[enter]), max(lb[enter], ub[enter])
    basis = draw(st.permutations(range(n_cols - 1)))[:m]
    xval = [draw(st.one_of(st.just(0.0), _VALUE)) for _ in range(n_cols)]
    w = [draw(_RATE) for _ in range(m)]
    return _ratio_case(basis, lb, ub, xval, enter, draw(st.sampled_from([1.0, -1.0])), w)


@settings(max_examples=400, deadline=None)
@given(_ratio_states())
# An exact tie that the lower basis index breaks in the later row.
@example(_ratio_case([2, 0], [0.0, 0.0, 0.0], [1.0, 5.0, 1.0], [0.0, 0.0, 0.0],
                     1, -1.0, [1.0, 1.0]))
# A chain: row 0 ties row 1 and row 1 ties row 2, row 0 and row 2 do not;
# the tie-breaks walk up to the largest of the three steps.
@example(_ratio_case([3, 1, 0], [0.0] * 5, [1.0 + 1.2e-12, 1.0 + 0.6e-12, 0.0, 1.0, INF],
                     [0.0] * 5, 4, -1.0, [1.0, 1.0, 1.0]))
# A bound flip within 1e-12 of the blocking step loses to it.
@example(_ratio_case([0], [0.0, 0.0], [1.0 + 0.6e-12, 1.0], [0.0, 0.0], 1, -1.0, [1.0]))
# A -0.0 step, which max(t, 0.0) keeps and np.maximum would not.
@example(_ratio_case([0], [-INF, 0.0], [-0.0, 1.0], [0.0, 0.0], 1, -1.0, [1.0]))
# Rates at the pivot tolerance are skipped; the flip wins.
@example(_ratio_case([0, 1], [0.0, 0.0, 0.0], [1.0, 1.0, 0.5], [0.0, 0.0, 0.0],
                     2, 1.0, [_PIVOT_TOL, -_PIVOT_TOL]))
def test_ratio_test_matches_the_scalar_reference_bit_for_bit(case):
    state, enter, sigma, w = case
    ref = _reference_ratio_test(state, enter, sigma, w)
    got = _Core._ratio_test(state, enter, sigma, w)
    assert got[1:] == ref[1:]
    assert (got[0] is None) == (ref[0] is None)
    if ref[0] is not None:
        assert float(got[0]).hex() == float(ref[0]).hex()


def test_row_sparse_inverse_update_equals_the_dense_formula():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = int(rng.integers(1, 12))
        binv = rng.normal(size=(m, m))
        w = rng.normal(size=m) * (rng.random(m) < 0.4)
        row = int(rng.integers(m))
        w[row] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)
        state = SimpleNamespace(binv=binv.copy())
        _Core._update_binv(state, row, w, 0)
        dense = binv - np.outer(w, binv[row]) / w[row]
        dense[row] = binv[row] / w[row]
        assert np.array_equal(state.binv, dense)


# ---------------------------------------------------------------------------
# Bit-for-bit guards: the solver's array code against its scalar formulation
# ---------------------------------------------------------------------------

def _bits(a) -> bytes:
    """Bytes that tell -0.0 from 0.0, with the dtype and shape they encode."""
    a = np.asarray(a)
    return str(a.dtype).encode() + str(a.shape).encode() + a.tobytes()


# The former pivot loop, which gathered the basic variables' state by the
# basis on every pivot, kept verbatim as the reference for _Core.optimize
# but for three names: it calls the reference ratio test, and it reads the
# refactorization interval and the iteration cap through the module so that
# a test can patch them.
def _reference_optimize(self, cost: np.ndarray) -> str:
    """Run pivots to optimality for the given cost vector, up to
    ``_iteration_cap``.

    Returns "optimal" or "unbounded".
    """
    m = self.m
    if not cost.size:
        return "optimal"
    iteration_cap = simplex._iteration_cap(self)
    signs = _SIGNS[:, self.status]
    bland = False
    degen_run = 0
    while True:
        if self.iterations > iteration_cap:
            raise NumericalError("simplex iteration cap exceeded")
        y = cost[self.basis] @ self.binv if m else np.zeros(0)
        rc = cost - (y @ self.F if m else 0.0)

        # Dantzig enters the largest improvement, Bland the first one.
        improving = np.maximum(rc * signs[0], rc * signs[1])
        enter = int((improving > _RC_TOL if bland else improving).argmax())
        if not improving[enter] > _RC_TOL:
            return "optimal"
        # An improving column rises when rc < 0 and falls when rc > 0.
        sigma = 1.0 if rc[enter] < 0 else -1.0

        w = self.binv @ self.F[:, enter] if m else np.zeros(0)
        step, leave_row, leave_to_upper = _reference_ratio_test(self, enter, sigma, w)
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
            self.xval[self.basis] -= sigma * step * w
        if leave_row is None:
            # Bound flip: the entering variable crosses to its other bound.
            self.status[enter] = _AT_UPPER if sigma > 0 else _AT_LOWER
            self.xval[enter] = self.ub[enter] if sigma > 0 else self.lb[enter]
            changed = [enter]
        else:
            leaving = self.basis[leave_row]
            self.status[leaving] = _AT_UPPER if leave_to_upper else _AT_LOWER
            self.xval[leaving] = self.ub[leaving] if leave_to_upper else self.lb[leaving]
            self.xval[enter] += sigma * step
            self.status[enter] = _BASIC
            self.basis[leave_row] = enter
            self._update_binv(leave_row, w, enter)
            changed = [enter, leaving]
        signs[:, changed] = _SIGNS[:, self.status[changed]]

        if self.iterations % simplex._REFACTOR_EVERY == 0:
            self._refactor()


def _guard_lp(rng) -> LinearProgram:
    """Free, boxed, fixed and one-sided variables; equality, range and <=
    rows, or no rows at all; now and then every row through the origin."""
    n = int(rng.integers(1, 16))
    m = int(rng.integers(0, 14))
    through_origin = rng.random() < 0.15
    lp = LinearProgram()
    for j in range(n):
        lo, hi = sorted(rng.normal(size=2) * 3)
        lo, hi = [(lo, hi), (-INF, INF), (lo, lo), (lo, INF), (-INF, hi), (0.0, 1.0)][
            int(rng.integers(6))]
        lp.add_variable(f"x{j}", lo, hi, cost=float(rng.normal()))
    for i in range(m):
        coeffs = {j: float(rng.normal()) for j in range(n) if rng.random() < 0.7}
        lo, hi = (0.0, 0.0) if through_origin else sorted(rng.normal(size=2) * 4)
        lo, hi = [(lo, lo), (lo, hi), (-INF, hi)][int(rng.integers(3))]
        lp.add_range(coeffs, lo, hi)
    return lp


def _run_phases(program: LinearProgram, optimize) -> list:
    """solve_lp's two phases on a fresh _Core with the given pivot loop,
    recording the whole state after each phase."""
    core = _core_of(program)
    record = []

    def snapshot(outcome):
        record.append((outcome, _bits(core.xval), _bits(core.basis), _bits(core.status),
                       _bits(core.binv), core.counters()))

    try:
        n_basic = core.n_struct + core.m
        if core.F.shape[1] > n_basic:
            c1 = np.zeros(core.F.shape[1])
            c1[n_basic:] = 1.0
            snapshot(optimize(core, c1))
            if float(c1 @ core.xval) > _PHASE1_TOL:
                return record
            core.retire_artificials()
        cost = np.zeros(core.F.shape[1])
        cost[: core.n_struct + core.m] = core.cost[: core.n_struct + core.m]
        snapshot(optimize(core, cost))
    except NumericalError as exc:
        record.append(str(exc))
        snapshot("raised")
    return record


def _split_guard_lp(rng, n: int) -> LinearProgram:
    """A program above the split's row count: boxed, fixed, one-sided and
    free variables; equality, range and one-sided rows around a feasible
    point, so that phase 1 has artificials and phase 2 runs on."""
    m = simplex._SPLIT_ROWS + int(rng.integers(0, 12))
    lp = LinearProgram()
    x0 = rng.uniform(0.5, 3.0, size=n)
    for j in range(n):
        lo, hi = [(0.0, 4.0), (x0[j], x0[j]), (0.0, INF), (-INF, 4.0), (-INF, INF)][
            int(rng.choice(5, p=[0.7, 0.1, 0.1, 0.05, 0.05]))]
        lp.add_variable(f"x{j}", lo, hi, cost=float(rng.normal()))
    for _ in range(m):
        cols = rng.choice(n, size=int(rng.integers(2, 9)), replace=False)
        coeffs = {int(j): float(rng.normal()) for j in cols}
        at = sum(c * x0[j] for j, c in coeffs.items())
        lo, hi = [(at, at), (at - 1.0, at + 2.0), (at - 0.5, INF), (-INF, at + 0.5)][
            int(rng.integers(4))]
        lp.add_range(coeffs, lo, hi)
    return lp


@pytest.mark.parametrize("refactor_every", [None, 1, 3])
def test_pivot_loop_matches_the_scalar_reference_bit_for_bit(monkeypatch, refactor_every):
    if refactor_every is not None:
        monkeypatch.setattr(simplex, "_REFACTOR_EVERY", refactor_every)
    # The split's pivots: which kinds of column entered.
    entered = dict.fromkeys(("structural", "slack", "artificial"), 0)
    ratio_test = _Core._ratio_test

    def counting_ratio_test(self, enter, sigma, w):
        if self.split is not None:
            kind = (enter >= self.n_struct) + (enter >= self.n_struct + self.m)
            entered[("structural", "slack", "artificial")[kind]] += 1
        return ratio_test(self, enter, sigma, w)

    monkeypatch.setattr(_Core, "_ratio_test", counting_ratio_test)
    rng = np.random.default_rng(2024)
    programs = [_guard_lp(rng) for _ in range(300)]
    # Programs that price with the split, whose product runs over a padded
    # prefix of n + 3, n + 2 and n + 1 structural columns.
    for n in (101, 102, 103):
        lp = _split_guard_lp(rng, n)
        core = _core_of(lp)
        assert core.split is not None and core.split.prefix.shape[1] == 4 * -(-n // 4)
        assert core.F.shape[1] > n + core.m  # phase 1 has artificials
        programs.append(lp)
    # Two 30 x 30 programs: one needs phase 1 and more than 100 pivots, so
    # the default interval refactorizes too; the other starts at a
    # degenerate vertex and switches to Bland.
    for degenerate in (False, True):
        big = np.random.default_rng(1)
        lp = LinearProgram()
        for j in range(30):
            lp.add_variable(f"x{j}", 0.0, 1.0 if degenerate else 5.0,
                            cost=float(-big.uniform(0.5, 1.5)))
        a = big.normal(size=(30, 30))
        x0 = big.uniform(0.5, 4.5, size=30)
        for i in range(30):
            row = {j: float(a[i, j]) for j in range(30)}
            if degenerate:
                lp.add_range(row, -INF, 0.0)
            else:
                lp.add_range(row, float(a[i] @ x0 - 1.0), INF)
        programs.append(lp)
    totals = dict.fromkeys(("iterations", "refactorizations", "bland_switches"), 0)
    for program in programs:
        got = _run_phases(program, _Core.optimize)
        assert got == _run_phases(program, _reference_optimize)
        for name in totals:
            totals[name] += got[-1][-1][name]
    assert totals["iterations"] > 2000
    assert totals["refactorizations"] > 0 and totals["bland_switches"] > 0
    assert min(entered.values()) > 0, entered


def test_split_pricing_matches_the_product_over_F_bit_for_bit():
    """The OpenBLAS identities the split rests on, and the solver's use of
    them: over a prefix padded to a multiple of 4 columns, the first n sums
    are those of the product over all of F; a slack or artificial column in
    the basis is ``0.0 -+`` a column of binv, its zeros +0.0; _Core.price
    is ``cost - y @ F`` under both phases' costs."""
    rng = np.random.default_rng(18)

    def signed_zeros(a):
        a[rng.random(a.shape) < 0.15] = 0.0
        a[rng.random(a.shape) < 0.15] = -0.0
        return a

    def check_price(core):
        # The logical columns cost 1.0 or +0.0, as _cost sets them; a
        # structural column's cost may be any number, -0.0 included.
        n = core.n_struct
        for phase1 in (True, False):
            cost = np.zeros(core.F.shape[1])
            if phase1:
                cost[n + core.m:] = 1.0
            else:
                cost[:n] = signed_zeros(rng.normal(size=n))
            y = signed_zeros(rng.normal(size=core.m))
            assert _bits(_Core.price(core, cost, y)) == _bits(cost - y @ core.F)

    for trial in range(132):
        n, m = 1 + trial % 33, int(rng.integers(1, 601))
        art_rows = np.flatnonzero(rng.random(m) < 0.2)
        art_signs = rng.choice([-1.0, 1.0], size=art_rows.size)
        F = np.zeros((m, n + m + art_rows.size))
        F[:, :n], F[:, n:n + m] = signed_zeros(rng.normal(size=(m, n))), -0.0
        F[np.arange(m), n + np.arange(m)] = -1.0
        F[art_rows, n + m + np.arange(art_rows.size)] = art_signs
        y = signed_zeros(rng.normal(size=m))
        k = 4 * -(-n // 4)
        assert _bits((y @ F[:, :k])[:n]) == _bits((y @ F)[:n]), (n, m)
        binv = signed_zeros(rng.normal(size=(m, m)))
        for j in rng.choice(m, size=min(m, 4), replace=False).tolist():
            assert _bits(0.0 - binv[:, j]) == _bits(binv @ F[:, n + j]), (n, m, j)

        split = simplex._Split(F[:, :k], np.concatenate([np.arange(m), art_rows]),
                               np.concatenate([np.full(m, -1.0), art_signs]))
        logical = rng.choice(m + art_rows.size, size=min(m, 8), replace=False)
        for i in [*logical.tolist(), *range(m, m + art_rows.size)][:12]:
            assert _bits(split.column(binv, i)) == _bits(binv @ F[:, n + i]), (n, m, i)
        check_price(SimpleNamespace(F=F, m=m, n_struct=n, split=split))

    # As _start builds it, above the split's row count.
    for n in (29, 30, 31, 32):
        core = _core_of(_split_guard_lp(rng, n))
        assert core.split is not None
        logical = core.F[:, n:]
        assert (logical[core.split.rows, np.arange(logical.shape[1])] == core.split.signs).all()
        assert (np.count_nonzero(logical, axis=0) == 1).all()
        for _ in range(10):
            check_price(core)


def _reference_init(self, program: LinearProgram):
    # The former scalar set-up of _Core.__init__, kept verbatim.
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
    self.phase1_iterations = 0
    self.refactorizations = 0
    self.bland_switches = 0


def _reference_install_artificials(self) -> np.ndarray:
    # The former scalar _Core.install_artificials, kept verbatim but for
    # its basic-value solve, written out as simplex._set_basic_values does it.
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
    self.xval = np.concatenate([self.xval, np.zeros(k)])
    self.binv = np.diag(1.0 / self.F[np.arange(m), self.basis])
    nonbasic = self.status != _BASIC
    rhs = self.F[:, nonbasic] @ self.xval[nonbasic]
    self.xval[self.basis] = -self.binv @ rhs
    c1 = np.zeros(self.F.shape[1])
    c1[self.n_struct + self.m:] = 1.0
    return c1


def _reference_certify(program: LinearProgram, core: _Core, x: np.ndarray,
                       objective: float, rc: np.ndarray) -> tuple[float, float]:
    # The former scalar _certify, which read the variable bounds from the
    # program, kept verbatim.
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
        if core.status[j] == _BASIC or abs(r) <= _CERT_RC_TOL:
            continue
        bound = core.lb[j] if r > 0.0 else core.ub[j]
        if not np.isfinite(bound):
            raise NumericalError("reduced cost of unbounded nonbasic variable is nonzero")
        dual_obj += r * bound
    gap = abs(objective - dual_obj) / (1.0 + abs(objective))
    if gap > _CERT_TOL:
        raise NumericalError(f"duality gap {gap:.2e} exceeds certification tolerance")
    return float(resid), float(gap)


def _core_bits(core) -> dict:
    return {name: _bits(getattr(core, name))
            for name in ("F", "lb", "ub", "cost", "status", "xval", "basis", "binv")}


_BOUND = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
                   st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def _bounded_programs(draw, max_vars=6, max_rows=5):
    """A program whose variable and row bounds are drawn, infinite and
    -0.0 included, with its row terms."""
    lp = LinearProgram()
    n = draw(st.integers(1, max_vars))
    for j in range(n):
        lo = draw(st.one_of(st.just(-INF), st.just(INF), _BOUND))
        hi = draw(st.one_of(st.just(INF), st.just(-INF), _BOUND))
        if lo > hi:
            lo, hi = hi, lo
        if lo == hi and math.isinf(lo):
            lo, hi = -INF, INF  # add_variable refuses a variable fixed at infinity
        lp.add_variable(f"x{j}", lo, hi, cost=draw(_BOUND))
    for i in range(draw(st.integers(0, max_rows))):
        coeffs = {j: draw(st.sampled_from([1.0, -1.0, 0.5, 3.0]))
                  for j in range(n) if draw(st.booleans())}
        lo = draw(st.one_of(st.just(-INF), _BOUND))
        hi = draw(st.one_of(st.just(INF), _BOUND))
        lp.add_range(coeffs, min(lo, hi), max(lo, hi))
    return lp


@settings(max_examples=300, deadline=None)
@given(_bounded_programs())
def test_start_state_matches_the_scalar_reference_bit_for_bit(program):
    ref = object.__new__(_Core)
    _reference_init(ref, program)
    _reference_install_artificials(ref)
    assert _core_bits(_core_of(program)) == _core_bits(ref)


@st.composite
def _slack_states(draw):
    """A program and initial slack values on both sides of each row's
    bounds, exactly at the 1e-7 phase-1 tolerance and one ulp past it."""
    program = draw(_bounded_programs())
    slacks = []
    for lo, hi in zip(program.row_lo, program.row_hi):
        edge = draw(st.sampled_from([hi + _PHASE1_TOL, lo - _PHASE1_TOL, hi, lo]))
        slacks.append(draw(st.one_of(
            st.just(edge), st.just(float(np.nextafter(edge, INF))),
            st.just(float(np.nextafter(edge, -INF))), st.just(-0.0), _BOUND)))
    return program, slacks


def _two_row_program() -> LinearProgram:
    lp = LinearProgram()
    lp.add_variable("x", 0.0, 1.0)
    lp.add_range({0: 1.0}, 0.0, 1.0)
    lp.add_range({0: 2.0}, 0.0, 1.0)
    return lp


@settings(max_examples=300, deadline=None)
@given(_slack_states())
# Slacks exactly at the tolerance stay; one ulp past it they get artificials.
@example((_two_row_program(), [1.0 + _PHASE1_TOL, 0.0 - _PHASE1_TOL]))
@example((_two_row_program(), [float(np.nextafter(1.0 + _PHASE1_TOL, INF)),
                               float(np.nextafter(0.0 - _PHASE1_TOL, -INF))]))
def test_artificials_match_the_scalar_reference_bit_for_bit(state):
    program, slacks = state
    form = _Form(program)
    form.xval[form.n:] = slacks
    [got] = simplex._start(form, [program.row_lo], [program.row_hi])
    ref = object.__new__(_Core)
    _reference_init(ref, program)
    ref.xval[ref.n_struct:] = slacks
    c1_ref = _reference_install_artificials(ref)
    # The phase-1 cost vector, which runs only when some row needs an
    # artificial.
    cost = simplex._cost(got, 1)
    assert _bits(cost if c1_ref.size else np.zeros(0)) == _bits(c1_ref)
    assert _core_bits(got) == _core_bits(ref)


@st.composite
def _batch_states(draw):
    """A program with at least one row, and 2-8 row-bound vectors that put
    each row's initial slack inside its bounds, above or below them, at the
    1e-7 phase-1 tolerance or one ulp past it: cores of several artificial
    patterns, several cores to a pattern."""
    program = draw(_bounded_programs(max_rows=4).filter(lambda lp: lp.n_rows))
    slack = _Form(program).xval[program.n_vars:]
    vectors = []
    for _ in range(draw(st.integers(2, 8))):
        lo, hi = [], []
        for s in slack.tolist():
            edge = float(np.nextafter(s + _PHASE1_TOL, INF))
            lo_i, hi_i = draw(st.sampled_from([
                (-INF, INF), (s - 1.0, s + 1.0), (s + 0.5, s + 0.5), (s - 2.0, s - 0.5),
                (s - _PHASE1_TOL, s - _PHASE1_TOL), (edge, INF), (-INF, -edge)]))
            lo.append(lo_i)
            hi.append(max(lo_i, hi_i))
        vectors.append((lo, hi))
    return program, vectors


@settings(max_examples=200, deadline=None)
@given(_batch_states())
def test_artificials_of_a_batch_match_the_scalar_reference_bit_for_bit(state):
    # One call starts every core, installing the artificials once per
    # pattern; each core ends as the scalar install leaves it alone.
    program, vectors = state
    cores = simplex._start(_Form(program), [lo for lo, _ in vectors], [hi for _, hi in vectors])
    for got, (lo, hi) in zip(cores, vectors):
        item = copy.copy(program)
        item.row_lo, item.row_hi = lo, hi
        ref = object.__new__(_Core)
        _reference_init(ref, item)
        _reference_install_artificials(ref)
        assert _core_bits(got) == _core_bits(ref)


_RC = st.one_of(st.sampled_from([0.0, -0.0, _CERT_RC_TOL, -_CERT_RC_TOL,
                                 float(np.nextafter(_CERT_RC_TOL, 1.0)),
                                 -float(np.nextafter(_CERT_RC_TOL, 1.0)), 1.0, -2.0]),
                st.floats(-10.0, 10.0, allow_nan=False))


@st.composite
def _certify_states(draw):
    """A final state to certify: x at its bounds (inside the rows' bounds)
    or up to 0.5 past them, reduced costs around the 1e-11 zero band
    (nonbasic columns at an infinite bound included), and an objective at
    or near the dual one. Enough columns that a pairwise sum would round
    differently."""
    program = draw(_bounded_programs(max_vars=12, max_rows=8))
    core = _slack_core(program)
    n, m = core.n_struct, core.m
    cols = n + m
    inside = draw(st.booleans())
    offsets = [0.0, -0.0] if inside else [0.0, -0.0, 1e-9, -1e-9, 2e-7, -2e-7, 0.5]
    x = []
    for lo, hi in zip(core.lb[:n], core.ub[:n]):
        base = draw(st.sampled_from([b for b in (lo, hi) if math.isfinite(b)] or [0.0]))
        x.append(base + draw(st.sampled_from(offsets)))
    x = np.array(x)
    if inside and m:
        s = core.F[:, :n] @ x
        core.lb[n:] = np.minimum(core.lb[n:], s)
        core.ub[n:] = np.maximum(core.ub[n:], s)
    core.status = np.array([draw(st.sampled_from([_AT_LOWER, _AT_UPPER, _FREE, _BASIC]))
                            for _ in range(cols)], dtype=np.int8)
    rc = np.array([draw(_RC) for _ in range(cols)])
    dual = 0.0
    for j in range(cols):
        if core.status[j] != _BASIC and abs(rc[j]) > _CERT_RC_TOL:
            bound = core.lb[j] if rc[j] > 0.0 else core.ub[j]
            dual += rc[j] * bound if math.isfinite(bound) else 0.0
    objective = float(dual) + draw(st.sampled_from([0.0, 1e-9, -1e-6, 1.0]))
    return program, core, x, objective, rc


def _sum_order_state():
    """Eight dual terms, 1.0 and seven of 1e-16: added one by one they stay
    1.0, while a pairwise sum rounds up to 1.0 + 2**-52."""
    lp = LinearProgram()
    lp.add_variable("x0", 1.0, 2.0)
    for j in range(1, 8):
        lp.add_variable(f"x{j}", 1e-6, 1.0)
    core = _slack_core(lp)
    rc = np.array([1.0] + [1e-10] * 7)
    return lp, core, core.xval.copy(), 1.0, rc


@settings(max_examples=400, deadline=None)
@given(_certify_states())
@example(_sum_order_state())
def test_certify_matches_the_scalar_reference_bit_for_bit(state):
    program, core, x, objective, rc = state

    def outcome(certify, *args):
        try:
            resid, gap = certify(*args)
        except NumericalError as exc:
            return str(exc)
        return resid.hex(), gap.hex()

    assert (outcome(simplex._certify, core, x, objective, rc)
            == outcome(_reference_certify, program, core, x, objective, rc))

# ---------------------------------------------------------------------------
# Resuming from phase 1: a re-costed program against its solve from scratch
# ---------------------------------------------------------------------------

def _recosted(program: LinearProgram, costs, start=None) -> LinearProgram:
    """``program`` under other costs, resuming from ``start``: a copy that
    shares its rows and bounds."""
    out = copy.copy(program)
    out.var_cost = [float(c) for c in costs]
    out.start = start
    return out


def _resumed(program: LinearProgram, start) -> LinearProgram:
    return _recosted(program, program.var_cost, start)


def _solution_bits(sol: Solution) -> tuple:
    """Every field of a Solution, floats by their exact bits."""
    return (sol.status, sol.objective.hex(), _bits(sol.x), _bits(sol.duals),
            _bits(sol.reduced_costs), sol.iterations, sol.nodes, sol.phase1_iterations,
            sol.refactorizations, sol.bland_switches, sol.cert_residual.hex(),
            sol.cert_gap.hex())


def _solve_outcome(program: LinearProgram) -> tuple:
    try:
        return _solution_bits(solve_lp(program))
    except NumericalError as exc:
        return ("raised", str(exc))


def _start_bits(start) -> tuple:
    ended = start.ended
    if isinstance(ended, Solution):
        ended = _solution_bits(ended)
    elif ended is not None:
        ended = str(ended)
    return _core_bits(start._core), start._core.counters(), ended


def _infeasible_program() -> LinearProgram:
    lp = LinearProgram()
    lp.add_variable("x", 0.0, 1.0, cost=1.0)
    lp.add_range({0: 1.0}, 2.0, INF)
    return lp


def _program_without_artificials() -> LinearProgram:
    lp = LinearProgram()
    lp.add_variable("x", 0.0, 2.0, cost=-1.0)
    lp.add_variable("y", -1.0, 1.0, cost=0.5)
    lp.add_range({0: 1.0, 1: 1.0}, -1.0, 2.5)
    return lp


def _bland_in_phase_one_program() -> LinearProgram:
    """80 rows ``a x <= 0`` through the origin around a feasible point and
    ``sum x >= 1``, which needs an artificial: phase 1 runs 188 pivots from
    a degenerate vertex, switches to Bland and refactorizes once."""
    rng = np.random.default_rng(1)
    n, k = 40, 80
    x0 = rng.uniform(0.2, 1.0, size=n)
    lp = LinearProgram()
    for j in range(n):
        lp.add_variable(f"x{j}", 0.0, 1.0, cost=float(rng.normal()))
    a = np.round(rng.normal(size=(k, n)), 1)
    for i in range(k):
        over = a[i] @ x0
        if over > 0:
            a[i, int(np.argmax(x0))] -= np.ceil(10 * (over + 0.1) / x0.max()) / 10
        lp.add_range({j: float(a[i, j]) for j in range(n)}, -INF, 0.0)
    lp.add_range({j: 1.0 for j in range(n)}, 1.0, INF)
    return lp


def test_resume_examples_reach_what_they_are_named_for():
    assert phase_one(_infeasible_program()).ended.status == "infeasible"
    start = phase_one(_program_without_artificials())
    core = start._core
    assert start.ended is None and core.F.shape[1] == core.n_struct + core.m
    start = phase_one(_bland_in_phase_one_program())
    assert start.ended is None
    assert start._core.bland_switches > 0 and start._core.refactorizations > 0


@st.composite
def _resume_states(draw):
    """A program, a second cost vector for it, and the refactorization
    interval (None keeps the default)."""
    program = draw(_bounded_programs())
    costs = [draw(_BOUND) for _ in range(program.n_vars)]
    return program, costs, draw(st.sampled_from([None, 1, 3]))


@settings(max_examples=300, deadline=None)
@given(_resume_states())
@example((_infeasible_program(), [-2.0], None))
@example((_program_without_artificials(), [1.0, -0.0], None))
@example((_bland_in_phase_one_program(), [0.5 - 0.025 * j for j in range(40)], None))
@example((_bland_in_phase_one_program(), [(-1.0) ** j for j in range(40)], 3))
def test_resume_from_phase_one_matches_a_solve_from_scratch_bit_for_bit(state):
    program, costs, refactor_every = state
    with pytest.MonkeyPatch.context() as patch:
        if refactor_every is not None:
            patch.setattr(simplex, "_REFACTOR_EVERY", refactor_every)
        start = phase_one(program)
        before = _start_bits(start)
        other = _recosted(program, costs)
        for recosted in (other, _recosted(program, program.var_cost)):
            assert _solve_outcome(_resumed(recosted, start)) == _solve_outcome(recosted)
        assert _start_bits(start) == before


def test_a_start_that_ended_in_phase_one_ends_the_resumed_solve(monkeypatch):
    program = _bland_in_phase_one_program()
    monkeypatch.setattr(simplex, "_iteration_cap", lambda core: 50)
    start = phase_one(program)
    assert isinstance(start.ended, NumericalError)
    other = _recosted(program, [1.0] * program.n_vars)
    for _ in range(2):
        with pytest.raises(NumericalError, match="iteration cap") as raised:
            solve_lp(_resumed(other, start))
        assert raised.value is start.ended
    assert _solve_outcome(_resumed(other, start)) == _solve_outcome(other)


def test_a_start_resumes_only_the_program_it_was_made_from():
    def program(coeff=2.0):
        lp = LinearProgram()
        lp.add_variable("x", 0.0, 1.0, cost=1.0)
        lp.add_variable("y", -INF, 0.0, cost=-1.0)
        lp.add_range({0: 1.0, 1: coeff}, 0.5, INF)
        lp.add_range({0: -1.0}, -INF, 0.0)
        return lp

    lp = program()
    start = phase_one(lp)
    assert start.ended is None
    assert _solve_outcome(_resumed(lp, start)) == _solve_outcome(lp)
    refused = []
    for field, index in (("var_lb", 0), ("var_ub", 1), ("row_hi", 1)):
        flipped = copy.copy(lp)
        bounds = list(getattr(lp, field))
        assert bounds[index] == 0.0 and math.copysign(1.0, bounds[index]) == 1.0
        bounds[index] = -0.0  # the sign of zero alone
        setattr(flipped, field, bounds)
        refused.append((flipped, start))
    refused.append((program(coeff=2.5), start))  # one coefficient
    refused.append((program(), start))  # the same numbers, other rows
    longer = program()
    longer_start = phase_one(longer)
    longer.add_range({0: 1.0}, -INF, 1.0)  # one more row, in the same rows object
    refused.append((longer, longer_start))
    wider = program()
    wider_start = phase_one(wider)
    wider.add_variable("z", 0.0, 1.0)  # one more variable
    refused.append((wider, wider_start))
    for other, other_start in refused:
        with pytest.raises(ContractError, match="resumes only"):
            solve_lp(_resumed(other, other_start))
    with pytest.raises(ContractError, match="is a Start"):
        solve_lp(_resumed(lp, "phase 1"))


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------

def test_one_hot_picks_cheapest_step():
    lp = LinearProgram()
    ys = [lp.add_variable(f"y{k}", 0.0, 1.0, cost=c) for k, c in
          enumerate([5.0, 2.0, 7.0])]
    sol = solve_milp(MixedProgram(lp, [ys]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0)
    np.testing.assert_allclose(sol.x[ys], [0.0, 1.0, 0.0], atol=1e-9)
    assert sol.nodes == 0  # relaxation is already integral
    assert (sol.bland_switches, sol.cert_residual, sol.cert_gap) == (0, 0.0, 0.0)


def test_milp_matches_exhaustive_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n_groups = int(rng.integers(1, 4))
        sizes = [int(rng.integers(2, 7)) for _ in range(n_groups)]
        n_cont = 2
        lp = LinearProgram()
        conts = [lp.add_variable(f"w{j}", 0.0, 4.0, cost=float(rng.normal()))
                 for j in range(n_cont)]
        groups = []
        for g, size in enumerate(sizes):
            groups.append([lp.add_variable(f"y{g}_{k}", 0.0, 1.0,
                                           cost=float(rng.normal()))
                           for k in range(size)])
        # couple the selection to the continuous part
        for g, group in enumerate(groups):
            coeffs = {v: float(rng.uniform(0.5, 2.0)) for v in group}
            coeffs[conts[g % n_cont]] = 1.0
            lp.add_range(coeffs, -INF, float(rng.uniform(2.0, 5.0)), f"link{g}")
        mp = MixedProgram(lp, groups)
        sol = solve_milp(mp)

        best = math.inf
        for choice in itertools.product(*[range(s) for s in sizes]):
            fixed = LinearProgram()
            fixed.var_names = lp.var_names
            fixed.var_cost = lp.var_cost
            fixed.rows, fixed.row_lo, fixed.row_hi = lp.rows, lp.row_lo, lp.row_hi
            fixed.var_lb, fixed.var_ub = list(lp.var_lb), list(lp.var_ub)
            for g, k in enumerate(choice):
                for j, v in enumerate(groups[g]):
                    fixed.var_lb[v] = fixed.var_ub[v] = 1.0 if j == k else 0.0
            ref = solve_lp(fixed)
            if ref.status == "optimal":
                best = min(best, ref.objective)
        if best is math.inf:
            assert sol.status == "infeasible"
        else:
            assert sol.objective == pytest.approx(best, abs=1e-8)
