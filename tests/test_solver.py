"""Embedded LP/MILP solver: duality, determinism, external cross-checks."""

import itertools
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from flexmkt.errors import ContractError
from flexmkt.mp_solver import (INF, LinearProgram, MixedProgram, Solution,
                               export_lp, solve_lp, solve_milp)
from flexmkt.mp_solver.simplex import _PIVOT_TOL, _Core


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
            fixed.row_names = lp.row_names
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


# ---------------------------------------------------------------------------
# LP-file export
# ---------------------------------------------------------------------------

def test_export_bound_toy():
    lp = LinearProgram()
    lp.add_variable("x", 2.0, 5.0, cost=1.0)
    text = export_lp(lp)
    assert "Minimize" in text
    assert "Bounds" in text
    assert "2 <= x <= 5" in text


def test_export_one_hot_sections():
    lp = LinearProgram()
    ys = [lp.add_variable(f"y{k}", 0.0, 1.0, cost=1.0) for k in range(3)]
    mp = MixedProgram(lp, [ys])
    text = export_lp(mp)
    assert "Binaries" in text
    assert "y0 y1 y2" in text
    assert re.search(r"onehot0:.*y0.*y1.*y2.*= 1", text)


def parse_lp_text(text: str):
    """Minimal reader for the exported subset, used to hand the file to an
    external solver."""
    sections = {}
    current = None
    for raw in text.splitlines():
        line = raw.strip()
        if line in ("Minimize", "Subject To", "Bounds", "Binaries", "End"):
            current = line
            sections[current] = []
        elif line and current:
            sections[current].append(line)

    number = r"(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"

    def parse_terms(expr):
        terms = {}
        for sign, mag, name in re.findall(r"([+-]?)\s*" + number +
                                          r"\s+([A-Za-z0-9_.]+)", expr):
            terms[name] = terms.get(name, 0.0) + float(sign + mag)
        return terms

    obj = parse_terms(sections["Minimize"][0].split(":", 1)[1])
    rows = []
    for line in sections.get("Subject To", []):
        body = line.split(":", 1)[1]
        op = "=" if "=" in body and "<=" not in body and ">=" not in body else \
            ("<=" if "<=" in body else ">=")
        lhs, rhs = body.split(op)
        rows.append((parse_terms(lhs), op, float(rhs)))
    bounds = {}
    for line in sections.get("Bounds", []):
        if line.endswith("free"):
            bounds[line.split()[0]] = (-math.inf, math.inf)
        elif "<=" in line:
            parts = [p.strip() for p in line.split("<=")]
            if len(parts) == 3:
                bounds[parts[1]] = (float(parts[0]), float(parts[2]))
            else:
                bounds[parts[0]] = (0.0, float(parts[1]))
        elif ">=" in line:
            name, lo = [p.strip() for p in line.split(">=")]
            bounds[name] = (float(lo), math.inf)
        elif "=" in line:
            name, val = [p.strip() for p in line.split("=")]
            bounds[name] = (float(val), float(val))
    return obj, rows, bounds


def test_export_round_trip_through_external_solver(m1_up_only):
    # Export the micro-case local clearing, re-read the text, and solve it
    # with an external LP solver; objectives must agree.
    from flexmkt.clearing import _CaseProgram

    case = m1_up_only
    dso = case.dsos[0]
    prog = _CaseProgram(case)
    prog.add_z(1, dso.z_min, dso.z_max, 0.0)
    prog.add_system(1)
    mine = solve_lp(prog.lp)

    obj, rows, bounds = parse_lp_text(export_lp(prog.lp))
    names = sorted(set(obj) | set(bounds) | {n for r in rows for n in r[0]})
    pos = {n: i for i, n in enumerate(names)}
    c = np.zeros(len(names))
    for n, v in obj.items():
        c[pos[n]] = v
    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    for terms, op, rhs in rows:
        row = np.zeros(len(names))
        for n, v in terms.items():
            row[pos[n]] = v
        if op == "=":
            a_eq.append(row), b_eq.append(rhs)
        elif op == "<=":
            a_ub.append(row), b_ub.append(rhs)
        else:
            a_ub.append(-row), b_ub.append(-rhs)
    lims = [bounds.get(n, (0.0, math.inf)) for n in names]
    ref = linprog(c, A_ub=np.array(a_ub) if a_ub else None,
                  b_ub=b_ub or None, A_eq=np.array(a_eq) if a_eq else None,
                  b_eq=b_eq or None, bounds=lims, method="highs")
    assert ref.success
    assert mine.objective == pytest.approx(ref.fun, abs=1e-6)
    assert mine.objective == pytest.approx(80.0)
