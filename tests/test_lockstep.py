"""Lockstep solves: ``solve_lp_batch`` gives every item the Solution
``solve_lp`` gives the same program, bit for bit, counters included, and
``clear_dso_fixed_interface`` gives what re-pinning one program and
solving it one flow at a time gives."""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import flexmkt.clearing as clearing
from flexmkt.cli import run_experiment
from flexmkt.errors import NumericalError
from flexmkt.mp_solver import INF, LinearProgram, simplex, solve_lp, solve_lp_batch

# ---------------------------------------------------------------------------
# The assumption: a stacked matmul runs the 2-D call's BLAS routine per item
# ---------------------------------------------------------------------------


def _same(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_stacked_matmul_equals_the_per_item_calls_byte_for_byte(seed):
    # The lockstep's only reductions: y = c_B @ B^-1 (vector-matrix), y @ F
    # with each item's own F (vector-matrix), and B^-1 @ F[:, j], where the
    # scalar loop reads a strided column and the lockstep a gathered one
    # (matrix-vector). Items leave the stack as they finish, so compacted
    # sub-stacks must hold it too. A numpy or BLAS build that sums a
    # stacked product in another order fails here first.
    rng = np.random.default_rng(seed)
    for _ in range(60):
        size, m = int(rng.integers(1, 30)), int(rng.integers(2, 60))
        n = m + int(rng.integers(1, 80))
        F = rng.normal(size=(size, m, n))
        F[rng.random(F.shape) < 0.6] = 0.0
        binv = rng.normal(size=(size, m, m))
        c_b = rng.normal(size=(size, m))
        enter = rng.integers(0, n, size=size)
        for rows in (np.arange(size), rng.random(size) < 0.5):
            Fs, bs, cs, es = F[rows], binv[rows], c_b[rows], enter[rows]
            y = np.matmul(cs[:, None, :], bs)
            yF = np.matmul(y, Fs)[:, 0]
            w = np.matmul(bs, Fs[np.arange(len(es)), :, es][:, :, None])[:, :, 0]
            for k in range(len(es)):
                assert _same(y[k, 0], cs[k] @ bs[k])
                assert _same(yF[k], y[k, 0] @ Fs[k])
                assert _same(w[k], bs[k] @ Fs[k][:, es[k]])


# ---------------------------------------------------------------------------
# Lockstep against solve_lp on random batches
# ---------------------------------------------------------------------------


def _bits(result):
    """Everything a Solution carries, floats by their bytes; an error by its
    type and message."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    return (result.status, np.float64(result.objective).tobytes(), result.x.tobytes(),
            result.duals.tobytes(), result.reduced_costs.tobytes(), result.iterations,
            result.phase1_iterations, result.refactorizations, result.bland_switches,
            np.float64(result.cert_residual).tobytes(), np.float64(result.cert_gap).tobytes())


def _alone(program, lo, hi):
    """solve_lp of ``program`` with the given row bounds, or its error."""
    saved = program.row_lo, program.row_hi
    program.row_lo, program.row_hi = [float(v) for v in lo], [float(v) for v in hi]
    try:
        return solve_lp(program)
    except NumericalError as exc:
        return exc
    finally:
        program.row_lo, program.row_hi = saved


def _random_program(rng) -> LinearProgram:
    """Free, boxed, fixed and one-sided variables; equality, range and <=
    rows; now and then every row through the origin."""
    n, m = int(rng.integers(1, 16)), int(rng.integers(2, 14))
    through_origin = rng.random() < 0.15
    lp = LinearProgram()
    for j in range(n):
        lo, hi = sorted(rng.normal(size=2) * 3)
        lo, hi = [(lo, hi), (-INF, INF), (lo, lo), (lo, INF), (-INF, hi), (0.0, 1.0)][
            int(rng.integers(6))]
        lp.add_variable(f"x{j}", lo, hi, cost=float(rng.normal()))
    for _ in range(m):
        coeffs = {j: float(rng.normal()) for j in range(n) if rng.random() < 0.7}
        lo, hi = (0.0, 0.0) if through_origin else sorted(rng.normal(size=2) * 4)
        lo, hi = [(lo, lo), (lo, hi), (-INF, hi)][int(rng.integers(3))]
        lp.add_range(coeffs, lo, hi)
    return lp


def _zero_program(rng) -> LinearProgram:
    """Bounds of 0.0 and -0.0 and small exact coefficients, so that steps of
    -0.0 and ties come up."""
    lows, highs = [0.0, -0.0, -1.0, -INF], [0.0, -0.0, 1.0, 2.5, INF]
    lp = LinearProgram()
    n = int(rng.integers(2, 8))
    for j in range(n):
        lp.add_variable(f"x{j}", float(rng.choice(lows)), float(rng.choice(highs)),
                        cost=float(rng.choice([0.0, -0.0, 1.0, -1.0, 2.5])))
    for _ in range(int(rng.integers(2, 7))):
        coeffs = {j: float(rng.choice([1.0, -1.0, 0.5, 3.0])) for j in range(n)
                  if rng.random() < 0.6}
        lp.add_range(coeffs, float(rng.choice(lows)), float(rng.choice(highs)))
    return lp


def _random_bounds(rng, program, size):
    """Row bounds per item: each row kept, pinned, freed or opened below."""
    lo, hi = np.tile(program.row_lo, (size, 1)), np.tile(program.row_hi, (size, 1))
    draw = rng.random(lo.shape)
    pin = rng.normal(size=lo.shape) * 4
    lo[draw < 0.3], hi[draw < 0.3] = pin[draw < 0.3], pin[draw < 0.3]
    lo[(draw >= 0.3) & (draw < 0.4)] = -INF
    hi[(draw >= 0.3) & (draw < 0.4)] = INF
    lo[(draw >= 0.4) & (draw < 0.5)] = -INF
    return lo, hi


def _degenerate_program(bounded: bool) -> LinearProgram:
    """30 x 30. Bounded: every row through the origin, where phase 2
    starts, so a run of degenerate pivots switches to Bland's rule. Else
    a program whose phase 1 takes more than 100 pivots."""
    rng = np.random.default_rng(1)
    lp = LinearProgram()
    for j in range(30):
        lp.add_variable(f"x{j}", 0.0, 1.0 if bounded else 5.0, cost=float(-rng.uniform(0.5, 1.5)))
    a = rng.normal(size=(30, 30))
    x0 = rng.uniform(0.5, 4.5, size=30)
    for i in range(30):
        row = {j: float(a[i, j]) for j in range(30)}
        if bounded:
            lp.add_range(row, -INF, 0.0)
        else:
            lp.add_range(row, float(a[i] @ x0 - 1.0), INF)
    return lp


def _check_batches(batches) -> list:
    """Solve each (program, lo, hi) batch in lockstep and alone; returns the
    lockstep results after asserting they equal the lone solves."""
    out = []
    for program, lo, hi in batches:
        got = solve_lp_batch(program, lo, hi)
        assert len(got) == len(lo)
        for k, result in enumerate(got):
            assert _bits(result) == _bits(_alone(program, lo[k], hi[k])), k
        out += got
    return out


@pytest.fixture
def every_batch_in_lockstep(monkeypatch):
    monkeypatch.setattr(simplex, "_LOCKSTEP_MIN", 1)


@pytest.mark.parametrize("seed", range(3))
def test_lockstep_equals_solve_lp_on_random_batches(every_batch_in_lockstep, seed):
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(100):
        for program in (_random_program(rng), _zero_program(rng)):
            batches.append((program, *_random_bounds(rng, program, int(rng.integers(2, 12)))))
    got = _check_batches(batches)
    statuses = {getattr(r, "status", "error") for r in got}
    assert {"optimal", "infeasible", "unbounded"} <= statuses


def _pinned_batch(program, rng, size, spread):
    """The program re-pinned: its first row fixed at ``size`` values."""
    lo, hi = np.tile(program.row_lo, (size, 1)), np.tile(program.row_hi, (size, 1))
    lo[:, 0] = hi[:, 0] = np.sort(rng.normal(size=size)) * spread
    return program, lo, hi


@pytest.mark.parametrize("refactor_every", [None, 1, 3])
def test_lockstep_equals_solve_lp_through_refactorizations_and_bland(
        every_batch_in_lockstep, monkeypatch, refactor_every):
    if refactor_every is not None:
        monkeypatch.setattr(simplex, "_REFACTOR_EVERY", refactor_every)
    rng = np.random.default_rng(5)
    batches = [_pinned_batch(_degenerate_program(bounded), rng, 6, 0.5)
               for bounded in (True, False)]
    for _ in range(40):
        program = _random_program(rng)
        batches.append((program, *_random_bounds(rng, program, 8)))
    got = _check_batches(batches)
    # Items of one batch leave phase 1 at different steps.
    assert len({r.phase1_iterations for r in got[6:12] if r.status == "optimal"}) > 1
    got = [r for r in got if not isinstance(r, Exception)]
    assert sum(r.bland_switches for r in got) > 0
    assert sum(r.refactorizations for r in got) > 0


def test_lockstep_reports_the_iteration_cap_of_each_item(every_batch_in_lockstep, monkeypatch):
    monkeypatch.setattr(simplex, "_iteration_cap", lambda core: 6)
    rng = np.random.default_rng(11)
    batches = [_pinned_batch(_degenerate_program(False), rng, 8, 2.0)]
    for _ in range(40):
        program = _random_program(rng)
        batches.append((program, *_random_bounds(rng, program, 8)))
    got = _check_batches(batches)
    errors = [r for r in got if isinstance(r, NumericalError)]
    assert errors and all(str(e) == "simplex iteration cap exceeded" for e in errors)
    assert any(not isinstance(r, Exception) for r in got)


def test_batches_below_the_cut_off_solve_one_at_a_time(monkeypatch):
    # The default cut-off sends a small batch through the scalar loop; its
    # results are the same, and no lockstep is built.
    monkeypatch.setattr(simplex, "_Lockstep", None)
    rng = np.random.default_rng(3)
    program = _random_program(rng)
    _check_batches([(program, *_random_bounds(rng, program, simplex._LOCKSTEP_MIN - 1))])


def test_needed_drops_the_items_past_it(every_batch_in_lockstep):
    # Stop after the first optimal item. The items up to it come back
    # solved; the items after it come back None, or solved when they
    # finished first.
    def first_optimal(results):
        for k, r in enumerate(results):
            if getattr(r, "status", None) == "optimal":
                return k + 1
        return len(results)

    rng = np.random.default_rng(2)
    program = _degenerate_program(False)
    _, lo, hi = _pinned_batch(program, rng, 12, 3.0)
    got = solve_lp_batch(program, lo, hi, first_optimal)
    stop = first_optimal(got)
    assert 0 < stop < len(got)
    assert any(r is None for r in got[stop:])
    for k, result in enumerate(got):
        if k < stop or result is not None:
            assert _bits(result) == _bits(_alone(program, lo[k], hi[k]))


# ---------------------------------------------------------------------------
# Pinned RSF batches of the benchmark workloads
# ---------------------------------------------------------------------------


def _workloads(monkeypatch):
    """perfbench/workloads.py, loaded as the benchmark loads it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _one_at_a_time(case, m, flows, sorted_grid):
    """clear_dso_fixed_interface as a loop of solve_lp calls on one
    re-pinned program, stopping at the edge of the feasible flows."""
    prog = clearing._CaseProgram(case)
    prog.add_z(m, -INF, INF, 0.0)
    prog.add_system(m)
    out, reached = [], False
    for z in flows:
        row = prog.pin_z(m, z)
        sol = solve_lp(prog.lp)
        out.append((prog.extract(sol),
                    float(sol.duals[row]) if sol.status == "optimal" else math.nan))
        if sorted_grid and reached and sol.status == "infeasible":
            break
        reached = reached or sol.status == "optimal"
    out += [(clearing.ClearingResult(status="infeasible", objective=math.nan), math.nan)
            for _ in flows[len(out):]]
    return out


def test_every_pin_batch_of_the_workloads_equals_one_at_a_time(monkeypatch, tmp_path):
    workloads = _workloads(monkeypatch)
    batches, items = [], []
    original, original_batch = clearing.clear_dso_fixed_interface, clearing.solve_lp_batch

    def pinned(case, m, flows, **kwargs):
        out = original(case, m, flows, **kwargs)
        batches.append((case, m, list(flows), kwargs.get("sorted_grid", False), out))
        return out

    def batch(program, lo, hi, needed=None):
        got = original_batch(program, lo, hi, needed)
        items.extend((program, lo[k], hi[k], r) for k, r in enumerate(got) if r is not None)
        return got

    monkeypatch.setattr(clearing, "clear_dso_fixed_interface", pinned)
    monkeypatch.setattr(clearing, "solve_lp_batch", batch)
    for name in ("ladder", "rsf-fine", "sweep-mixed"):
        for seed in (1, 2):
            for config in workloads.build_configs(workloads.WORKLOADS[name](seed),
                                                  tmp_path / f"{name}-{seed}"):
                run_experiment(config)
    monkeypatch.undo()

    assert max(len(flows) for *_, flows, _, _ in batches) >= simplex._LOCKSTEP_MIN
    for case, m, flows, sorted_grid, out in batches:
        alone = _one_at_a_time(case, m, flows, sorted_grid)
        assert repr(out) == repr(alone), (case.name, m)
    for program, lo, hi, result in items:
        assert _bits(result) == _bits(_alone(program, lo, hi))
