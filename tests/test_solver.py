"""Embedded LP/MILP solver: duality, determinism, external cross-checks."""

import itertools
import math
import re

import numpy as np
import pytest
from scipy.optimize import linprog

from flexmkt.errors import ContractError
from flexmkt.mp_solver import (INF, LinearProgram, MixedProgram, Solution,
                               export_lp, solve_lp, solve_milp)


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
