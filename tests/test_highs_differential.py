"""Differential test of the embedded simplex against HiGHS at ladder scale.

Every program ``solve_lp`` receives while the methods run on one Recipe B
2x7 and one 4x15 case, and while the common market of one 8x30 case is
cleared, is snapshot at call time and solved again by
``scipy.optimize.linprog``; so is every item ``solve_lp_batch`` solves,
of every program in a call, under its own row bounds. Statuses
must match and objectives agree within 1e-7 relative. Duals are not
unique under degeneracy, so they are checked by what an optimal dual must
satisfy, not entry by entry: reduced costs equal ``c - A'y``, and every
multiplier leans on a finite bound it meets (complementary slackness with
the right sign).
"""

import sys
import time

import numpy as np
import pytest
from scipy.optimize import linprog

import flexmkt.mp_solver.simplex as simplex
from flexmkt.casegen import CaseRecipe, generate_case
from flexmkt.cli import METHODS, ExperimentConfig, run_experiment
from flexmkt.clearing import clear_common

HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def _recipe_b(n_dsos, dso_buses):
    return CaseRecipe(style="B", n_dsos=n_dsos, dso_buses=dso_buses, tn_buses=n_dsos + 2)


def _snapshot(lp, sol):
    return {"a": lp.dense_matrix(), "row_lo": np.array(lp.row_lo),
            "row_hi": np.array(lp.row_hi), "lb": np.array(lp.var_lb),
            "ub": np.array(lp.var_ub), "c": np.array(lp.var_cost), "sol": sol}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """(label, snapshot) of every program solved on the ladder corpus."""
    original, original_batch = simplex.solve_lp, simplex.solve_lp_batch
    programs = []
    label = ""

    def recorded(lp):
        sol = original(lp)
        programs.append((label, _snapshot(lp, sol)))
        return sol

    def recorded_batch(batches):
        solved = original_batch(batches)
        for (lp, row_lo, row_hi, *_), results in zip(batches, solved):
            for lo, hi, sol in zip(row_lo, row_hi, results):
                if sol is not None:
                    programs.append((label, {**_snapshot(lp, sol), "row_lo": np.array(lo),
                                             "row_hi": np.array(hi)}))
        return solved

    mp = pytest.MonkeyPatch()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "flexmkt" and module is not None:
            for attr, value in list(vars(module).items()):
                if value is original:
                    mp.setattr(module, attr, recorded)
                elif value is original_batch:
                    mp.setattr(module, attr, recorded_batch)
    try:
        t0 = time.perf_counter()
        for n_dsos, dso_buses, seed in ((2, 7, 1000), (4, 15, 1004)):
            case = generate_case(_recipe_b(n_dsos, dso_buses), seed)
            label = f"{n_dsos}x{dso_buses}"
            run_experiment(ExperimentConfig(
                cases=((case.name, seed, case),), methods=METHODS, pricings=("none",),
                deltas=(4.0,), out_dir=str(tmp_path_factory.mktemp(label))))
        label = "8x30 common"
        clear_common(generate_case(_recipe_b(8, 30), 1007))
        ours = time.perf_counter() - t0
    finally:
        mp.undo()
    return programs, ours


def _highs(p):
    eq = p["row_lo"] == p["row_hi"]
    lo_rows = ~eq & np.isfinite(p["row_lo"])
    hi_rows = ~eq & np.isfinite(p["row_hi"])
    a_ub = np.vstack([p["a"][hi_rows], -p["a"][lo_rows]])
    b_ub = np.concatenate([p["row_hi"][hi_rows], -p["row_lo"][lo_rows]])
    return linprog(p["c"], A_ub=a_ub if len(b_ub) else None, b_ub=b_ub if len(b_ub) else None,
                   A_eq=p["a"][eq] if eq.any() else None,
                   b_eq=p["row_lo"][eq] if eq.any() else None,
                   bounds=list(zip(p["lb"], p["ub"])), method="highs")


def _lean(mult, value, lo, hi):
    """Complementarity of multipliers with their bounds: a positive
    multiplier leans on the lower bound, a negative one on the upper.
    Returns the summed products |multiplier| x distance to that bound over
    finite bounds, and the largest multiplier on an infinite bound."""
    pos, neg = mult > 0.0, mult < 0.0
    on_lo = pos & np.isfinite(lo)
    on_hi = neg & np.isfinite(hi)
    gap = float(np.sum(mult[on_lo] * (value[on_lo] - lo[on_lo]))
                + np.sum(-mult[on_hi] * (hi[on_hi] - value[on_hi])))
    stray = np.abs(mult[(pos & ~on_lo) | (neg & ~on_hi)])
    return gap, float(stray.max(initial=0.0))


def test_simplex_agrees_with_highs_at_ladder_scale(corpus):
    programs, ours = corpus
    labels = {label for label, _ in programs}
    assert labels == {"2x7", "4x15", "8x30 common"}
    assert max(p["a"].shape[0] for _, p in programs) > 400  # the 8x30 rung is in
    t0 = time.perf_counter()
    statuses = set()
    for k, (label, p) in enumerate(programs):
        sol = p["sol"]
        ref = _highs(p)
        where = (k, label, p["a"].shape)
        assert HIGHS_STATUS.get(ref.status) == sol.status, (*where, ref.message)
        statuses.add(sol.status)
        if sol.status != "optimal":
            continue
        obj = abs(ref.fun)
        assert abs(sol.objective - ref.fun) <= 1e-7 * max(1.0, obj), where

        y, rc, x = sol.duals, sol.reduced_costs, sol.x
        scale = 1.0 + np.max(np.abs(p["c"]), initial=0.0)
        assert np.max(np.abs(rc - (p["c"] - y @ p["a"])), initial=0.0) <= 1e-8 * scale, where
        row_gap, row_stray = _lean(y, p["a"] @ x, p["row_lo"], p["row_hi"])
        var_gap, var_stray = _lean(rc, x, p["lb"], p["ub"])
        assert max(row_stray, var_stray) <= 1e-9 * scale, where
        assert row_gap + var_gap <= 1e-7 * (1.0 + obj), where
    highs = time.perf_counter() - t0
    assert "optimal" in statuses and "infeasible" in statuses
    print(f"\n{len(programs)} programs: embedded simplex {ours:.2f} s, HiGHS {highs:.2f} s")
