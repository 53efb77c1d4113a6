"""Lockstep solves: ``solve_lp_batch`` gives every item the Solution
``solve_lp`` gives the same program, bit for bit, counters included,
whatever other programs share its batch, and ``clear_dso_fixed_interface``
gives each DSO what solving a fresh program per flow, one DSO and one flow
at a time, gives."""

import csv
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import flexmkt.clearing as clearing
import flexmkt.forwarding as forwarding
from flexmkt.casegen import CaseRecipe, generate_case
from flexmkt.cli import ExperimentConfig, run_experiment
from flexmkt.errors import NumericalError
from flexmkt.mp_solver import INF, LinearProgram, Solution, simplex, solve_lp, solve_lp_batch

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
    # (matrix-vector). Sub-stacks must hold it too, as a phase-2 lockstep
    # stacks only the items phase 1 left running; items of several
    # programs share one stack. A numpy or BLAS build that sums a stacked
    # product in another order fails here first.
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
        # Items that share one F (one artificial pattern): y @ F on a run
        # of rows, with F broadcast over them.
        y = np.matmul(c_b[:, None, :], binv)
        a, b = sorted(rng.integers(0, size + 1, size=2))
        yF = np.matmul(y[a:b], F[0])[:, 0]
        for k in range(a, b):
            assert _same(yF[k - a], y[k, 0] @ F[0])


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


def _scalar_solve_lp(program: LinearProgram) -> Solution:
    """solve_lp with each pivot loop in _Core.optimize, whatever
    _LOCKSTEP_MIN a test set: the reference a lockstep is held to."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_LOCKSTEP_MIN", math.inf)
        return solve_lp(program)


def _alone(program, lo, hi):
    """solve_lp of ``program`` with the given row bounds, or its error."""
    saved = program.row_lo, program.row_hi
    program.row_lo, program.row_hi = [float(v) for v in lo], [float(v) for v in hi]
    try:
        return _scalar_solve_lp(program)
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
    """Solve the (program, lo, hi) batches in one call, in lockstep, and
    each item alone; returns the lockstep results in batch order after
    asserting they equal the lone solves."""
    solved = solve_lp_batch(batches)
    assert len(solved) == len(batches)
    out = []
    for (program, lo, hi), got in zip(batches, solved):
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


def _shaped_program(rng, n, m) -> LinearProgram:
    """``n`` variables in [0, 5] and ``m`` rows ``a x >= b`` with positive
    ``a`` and ``b``, each violated at the start: a phase-1 shape of m rows
    and n + 2m columns, whatever the drawn matrix."""
    lp = LinearProgram()
    for j in range(n):
        lp.add_variable(f"x{j}", 0.0, 5.0, cost=float(rng.normal()))
    x0 = rng.uniform(0.5, 4.5, size=n)
    for _ in range(m):
        a = rng.uniform(0.1, 2.0, size=n)
        lp.add_range({j: float(a[j]) for j in range(n)}, 0.8 * float(a @ x0), INF)
    return lp


def _shaped_batch(rng, n, m, size):
    """A shaped program with its first row pinned at ``size`` values from
    1 to 60, past its reach at the top."""
    program = _shaped_program(rng, n, m)
    lo, hi = np.tile(program.row_lo, (size, 1)), np.tile(program.row_hi, (size, 1))
    lo[:, 0] = hi[:, 0] = np.linspace(1.0, 60.0, size)
    return program, lo, hi


@pytest.fixture
def locksteps(monkeypatch):
    """The cores of each lockstep built, in the order built; each phase of
    the cores of one shape pivots in lockstep."""
    built = []

    class Recording(simplex._Lockstep):
        def __init__(self, cores, costs):
            built.append(list(cores))
            super().__init__(cores, costs)

    monkeypatch.setattr(simplex, "_LOCKSTEP_MIN", 1)
    monkeypatch.setattr(simplex, "_Lockstep", Recording)
    return built


def _item_of(batches):
    """The (program, item) pair of a core of shaped batches, told by its
    program's costs and its pin."""
    items = {(np.array(program.var_cost).tobytes(), float(lo[k, 0])): (p, k)
             for p, (program, lo, _) in enumerate(batches) for k in range(len(lo))}
    return lambda core: items[core.cost[:core.n_struct].tobytes(), float(core.lb[core.n_struct])]


def test_programs_of_one_shape_pivot_in_one_lockstep(locksteps):
    # Five programs with different matrices and one shape, each re-pinned:
    # one lockstep runs phase 1 of all their items, a second one phase 2
    # of exactly the items phase 1 left running, and each item is
    # solve_lp's Solution byte for byte.
    rng = np.random.default_rng(8)
    batches = [_shaped_batch(rng, 9, 6, 7) for _ in range(5)]
    got = _check_batches(batches)
    pairs = [(p, k) for p in range(5) for k in range(7)]
    assert {r.status for r in got} >= {"optimal", "infeasible"}
    item = _item_of(batches)
    phase1, phase2 = locksteps
    assert sorted(map(item, phase1)) == pairs
    assert sorted(map(item, phase2)) == [pk for pk, r in zip(pairs, got)
                                         if r.status != "infeasible"]
    assert {core.F.shape for core in phase1 + phase2} == {(6, 9 + 12)}


def test_programs_with_other_row_counts_are_never_stacked(locksteps):
    # 10 + 2 x 6 and 8 + 2 x 7 columns: equal column counts, 6 and 7 rows.
    rng = np.random.default_rng(9)
    batches = [_shaped_batch(rng, n, m, 5) for n, m in ((10, 6), (8, 7), (10, 6))]
    _check_batches(batches)
    item = _item_of(batches)
    shapes = []
    for cores in locksteps:
        [shape] = {core.F.shape for core in cores}
        shapes.append(shape)
        assert {item(core)[0] for core in cores} in ({0, 2}, {1})
    # Phase 1, then phase 2, of each shape.
    assert sorted(shapes) == [(6, 22), (6, 22), (7, 22), (7, 22)]


def _phase_program(rng, n, violated) -> LinearProgram:
    """``n`` variables in [0, 5], which start at 0, and 6 rows ``a x``
    with positive ``a``: the first ``violated`` rows at least a positive
    bound, so out of bounds at the start, the others at most one."""
    lp = LinearProgram()
    for j in range(n):
        lp.add_variable(f"x{j}", 0.0, 5.0, cost=float(rng.normal()))
    for i in range(6):
        a = rng.uniform(0.1, 2.0, size=n)
        bound = float(rng.uniform(2.0, 6.0))
        lp.add_range({j: float(a[j]) for j in range(n)},
                     *((bound, INF) if i < violated else (-INF, bound)))
    return lp


def _first_row_at(program, lo_0, hi_0):
    """One item per pair of bounds of the program's first row."""
    lo, hi = np.tile(program.row_lo, (len(lo_0), 1)), np.tile(program.row_hi, (len(lo_0), 1))
    lo[:, 0], hi[:, 0] = lo_0, hi_0
    return program, lo, hi


@pytest.mark.parametrize("lockstep_min", [1, None], ids=["lockstep", "default"])
def test_a_shape_group_mixes_items_with_and_without_phase_1(monkeypatch, lockstep_min):
    # 10 variables and 2 artificials beside 12 variables and none: the items of
    # both programs have 6 rows and 18 columns, one shape group, whose phase
    # 1 runs on the first program's items alone and whose phase 2 runs on
    # both. A 0-row and a 1-row program, which never pivot in lockstep, ride
    # along in the same call.
    if lockstep_min is not None:
        monkeypatch.setattr(simplex, "_LOCKSTEP_MIN", lockstep_min)
    built = []

    class Recording(simplex._Lockstep):
        def __init__(self, cores, costs):
            built.append([(core.n_struct, core.m) for core in cores])
            super().__init__(cores, costs)

    monkeypatch.setattr(simplex, "_Lockstep", Recording)
    rng = np.random.default_rng(12)
    two, none = _phase_program(rng, 10, 2), _phase_program(rng, 12, 0)
    no_rows = LinearProgram()
    one_row = LinearProgram()
    for lp in (no_rows, one_row):
        for j in range(3):
            lp.add_variable(f"x{j}", 0.0, 5.0, cost=float(rng.normal()))
    one_row.add_range({0: 1.0, 1: 2.0, 2: 1.0}, 2.0, INF)
    pins = np.linspace(0.5, 8.0, 10)
    batches = [_first_row_at(two, pins, pins),
               _first_row_at(none, np.full(12, -INF), np.linspace(0.5, 6.0, 12)),
               (no_rows, np.zeros((3, 0)), np.zeros((3, 0))),
               _first_row_at(one_row, [1.0, 3.0, 30.0], [1.0, 3.0, 30.0])]
    for (program, lo, hi), n_art in zip(batches[:2], (2, 0)):
        for core in simplex._start(simplex._Form(program), lo, hi):
            assert core.F.shape == (6, 18) and core.F.shape[1] - core.n_struct - core.m == n_art
    got = _check_batches(batches)
    statuses = [r.status for r in got]
    assert {"optimal", "infeasible"} <= set(statuses[:10]) and set(statuses[10:22]) == {"optimal"}
    # Phase 2 stacks the first program's feasible items and all of the
    # second's; at the default cut-off phase 1 has too few items to stack.
    phase2 = [(10, 6)] * (10 - statuses[:10].count("infeasible")) + [(12, 6)] * 12
    assert len(phase2) >= simplex._LOCKSTEP_MIN
    assert [sorted(cores) for cores in built] == (
        [[(10, 6)] * 10, phase2] if lockstep_min == 1 else [phase2])


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


def _one_at_a_time(case, m, flows):
    """clear_dso_fixed_interface as a loop of solve_lp calls on a fresh
    single-flow program per flow: each pin's (clearing, pin dual) pair, or
    the error its solve raises."""
    out = []
    for z in flows:
        prog = clearing._CaseProgram(case)
        prog.add_z(m, -INF, INF, 0.0)
        prog.add_system(m)
        row = prog.pin_z(m, z)
        try:
            sol = _scalar_solve_lp(prog.lp)
        except NumericalError as exc:
            out.append(exc)
            continue
        out.append((prog.extract(sol),
                    float(sol.duals[row]) if sol.status == "optimal" else math.nan))
    return out


def test_every_pin_batch_of_the_workloads_equals_one_at_a_time(monkeypatch, tmp_path):
    workloads = _workloads(monkeypatch)
    calls, items = [], []
    original, original_batch = clearing.clear_dso_fixed_interface, clearing.solve_lp_batch

    def pinned(case, flows):
        out = original(case, flows)
        calls.append((case, {m: list(zs) for m, zs in flows.items()}, out))
        return out

    def batch(batches):
        solved = original_batch(batches)
        for (program, lo, hi), got in zip(batches, solved):
            items.extend((program, lo[k], hi[k], r) for k, r in enumerate(got))
        return solved

    monkeypatch.setattr(clearing, "clear_dso_fixed_interface", pinned)
    monkeypatch.setattr(clearing, "solve_lp_batch", batch)
    for name in ("ladder", "rsf-fine", "sweep-mixed"):
        for seed in (1, 2):
            for config in workloads.build_configs(workloads.WORKLOADS[name](seed),
                                                  tmp_path / f"{name}-{seed}"):
                run_experiment(config)
    monkeypatch.undo()

    # Rounds of several DSOs, enough pins in one call for a lockstep.
    assert max(len(flows) for _, flows, _ in calls) > 1
    assert max(sum(map(len, flows.values())) for _, flows, _ in calls) >= simplex._LOCKSTEP_MIN
    for case, flows, out in calls:
        assert list(out) == list(flows)
        for m, zs in flows.items():
            assert repr(out[m]) == repr(_one_at_a_time(case, m, zs)), (case.name, m)
    for program, lo, hi, result in items:
        assert _bits(result) == _bits(_alone(program, lo, hi))


def _pinned_grid():
    """A Recipe C DSO, 20 ascending flows from 2 MW below its interface
    bounds to 2 MW above them, their clearings one at a time, and the
    index of the edge of its feasible flows: the first infeasible pin
    after an optimal one."""
    case = generate_case(CaseRecipe(style="C", n_dsos=1, dso_buses=15), 0)
    dso = case.dso(1)
    flows = list(np.linspace(dso.z_min - 2.0, dso.z_max + 2.0, 20))
    plain = _one_at_a_time(case, 1, flows)
    statuses = [r.status for r, _ in plain]
    edge = next(k for k in range(1, len(flows))
                if statuses[k] == "infeasible" and "optimal" in statuses[:k])
    assert edge < len(flows) - 1
    return case, flows, plain, edge


def _pin(core) -> float:
    """The pinned flow of a pinned program's core: its last row's bound."""
    return core.lb[core.n_struct + core.m - 1]


_MODES = pytest.mark.parametrize("lockstep_min", [1, 10**9], ids=["lockstep", "alone"])


@_MODES
def test_pinned_flows_raise_the_first_error_a_run_one_at_a_time_meets(monkeypatch,
                                                                      lockstep_min):
    monkeypatch.setattr(simplex, "_LOCKSTEP_MIN", lockstep_min)
    case, flows, plain, edge = _pinned_grid()
    # Certification fails, naming the pin, from the pin before the one
    # with the fewest pivots on: a lockstep finishes that later pin first,
    # and the entries, solved or read through pin, still hold the earlier
    # pin's error first.
    quickest = min(range(edge), key=lambda k: plain[k][0].iterations)
    assert quickest > 0
    certify = simplex._certify

    def failing(core, *args):
        if _pin(core) >= flows[quickest - 1]:
            raise NumericalError(f"pin {flows.index(_pin(core))}")
        return certify(core, *args)

    # Every pin takes more than 6 pivots.
    for name, replacement, first in (("_iteration_cap", lambda core: 6, 0),
                                     ("_certify", failing, quickest - 1)):
        shared = clearing.CaseClearings(case)
        with monkeypatch.context() as mp:
            mp.setattr(simplex, name, replacement)
            want = _one_at_a_time(case, 1, flows)
            got = clearing.clear_dso_fixed_interface(case, {1: flows})[1]
            pinned = shared.pin({1: flows})[1]
        assert repr(got) == repr(want) == repr(pinned)
        errors = [k for k, entry in enumerate(got) if isinstance(entry, NumericalError)]
        assert errors[0] == first
        assert pinned[first] is shared._solved[("pin", 1, clearing._exact(flows[first]))]


@_MODES
def test_an_error_past_the_edge_of_the_feasible_flows_is_raised(monkeypatch, lockstep_min):
    # Every pin past the edge ends in an error: each is that pin's entry,
    # as its solve alone gives it, and so is each entry read through pin.
    monkeypatch.setattr(simplex, "_LOCKSTEP_MIN", lockstep_min)
    case, flows, plain, edge = _pinned_grid()
    finish = simplex._finish

    def failing(core, *args):
        solution = finish(core, *args)  # None: phase 2 follows
        if solution is not None and _pin(core) > flows[edge]:
            raise NumericalError(f"pin {flows.index(_pin(core))}")
        return solution

    monkeypatch.setattr(simplex, "_finish", failing)
    got = clearing.clear_dso_fixed_interface(case, {1: flows})[1]
    assert repr(got) == repr(_one_at_a_time(case, 1, flows))
    assert repr(got[:edge + 1]) == repr(plain[:edge + 1])
    assert [str(e) for e in got[edge + 1:]] == [f"pin {k}" for k in range(edge + 1, len(flows))]
    assert repr(clearing.CaseClearings(case).pin({1: flows})[1]) == repr(got)


@_MODES
@pytest.mark.parametrize("build", ["build_rsf", "build_rsf_dual"])
def test_an_rsf_raises_the_first_error_among_its_pins_in_flow_order(monkeypatch, lockstep_min,
                                                                   build):
    # A grid inside the interface bounds. Certification fails at two
    # optimal pins, the later of which takes fewer pivots, so a lockstep
    # finishes it first: the RSF raises the earlier pin's error. Under an
    # iteration cap of 6 every pin fails, and the first flow's is raised.
    monkeypatch.setattr(simplex, "_LOCKSTEP_MIN", lockstep_min)
    case = generate_case(CaseRecipe(style="C", n_dsos=1, dso_buses=15), 0)
    dso = case.dso(1)
    grid = list(np.linspace(dso.z_min, dso.z_max, 20))
    plain = _one_at_a_time(case, 1, grid)
    iterations = {k: r.iterations for k, (r, _) in enumerate(plain) if r.status == "optimal"}
    later = min(list(iterations)[1:], key=iterations.get)
    earlier = max((k for k in iterations if k < later), key=iterations.get)
    assert iterations[earlier] > iterations[later] and min(iterations.values()) > 6
    certify = simplex._certify

    def failing(core, *args):
        if _pin(core) in (grid[earlier], grid[later]):
            raise NumericalError(f"pin {grid.index(_pin(core))}")
        return certify(core, *args)

    for name, replacement, first in (("_iteration_cap", lambda core: 6, 0),
                                     ("_certify", failing, earlier)):
        shared = clearing.CaseClearings(case)
        with monkeypatch.context() as mp:
            mp.setattr(simplex, name, replacement)
            with pytest.raises(NumericalError) as raised:
                getattr(forwarding, build)(case, 1, grid, clearings=shared)
        assert raised.value is shared._solved[("pin", 1, clearing._exact(grid[first]))]
        if name == "_certify":
            assert str(raised.value) == f"pin {earlier}"


def test_run_experiment_turns_a_pinned_flow_error_into_an_error_row(monkeypatch, tmp_path):
    original = clearing.solve_lp_batch

    def capped(*args, **kwargs):
        with monkeypatch.context() as mp:
            mp.setattr(simplex, "_iteration_cap", lambda core: 6)
            return original(*args, **kwargs)

    monkeypatch.setattr(clearing, "solve_lp_batch", capped)
    case = generate_case(CaseRecipe(style="C", n_dsos=1, dso_buses=15), 0)
    path = run_experiment(ExperimentConfig(
        cases=((case.name, 0, case),), methods=("aggregation_primal", "three_layer"),
        pricings=("none",), deltas=(4.0,), out_dir=str(tmp_path)))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [(r["method"], r["status"]) for r in csv.DictReader(fh)]
    assert rows == [("aggregation_primal", "error: simplex iteration cap exceeded"),
                    ("three_layer", "ok")]


def _rows(path):
    """The (method, status, ...) fields of each results.csv row, wall_ms
    left out."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: v for k, v in row.items() if k != "wall_ms"} for row in csv.DictReader(fh)]


@_MODES
def test_a_merged_round_keeps_the_dso_by_dso_order(monkeypatch, tmp_path, lockstep_min):
    # Two DSOs of one shape, whose pins a round solves in one call. A DSO
    # set to fail makes every pin of it raise or come back infeasible; the
    # outcome is what pinning one DSO after the other gives.
    monkeypatch.setattr(simplex, "_LOCKSTEP_MIN", lockstep_min)
    case = generate_case(CaseRecipe(style="C", n_dsos=2, dso_buses=15), 0)
    owner = {}
    for m in case.dso_indices:
        prog = clearing._CaseProgram(case)
        prog.add_z(m, -INF, INF, 0.0)
        prog.add_system(m)
        owner[np.array(prog.lp.var_cost).tobytes()] = m
    assert len(owner) == 2
    fails: dict[int, str] = {}
    finish = simplex._finish

    def failing(core, *args):
        solution = finish(core, *args)
        if solution is None:  # phase 2 follows
            return None
        m = owner.get(core.cost[:core.n_struct].tobytes())  # None: not a pinned program
        if fails.get(m) == "error":
            raise NumericalError(f"DSO {m}")
        if fails.get(m) == "infeasible":
            return Solution.non_optimal("infeasible", **core.counters())
        return solution

    monkeypatch.setattr(simplex, "_finish", failing)
    calls = []
    pinned = clearing.clear_dso_fixed_interface

    def recording(case, flows):
        calls.append(sorted(flows))
        return pinned(case, flows)

    monkeypatch.setattr(clearing, "clear_dso_fixed_interface", recording)

    def run(merged: bool):
        with monkeypatch.context() as mp:
            if not merged:
                pin = clearing.CaseClearings.pin
                mp.setattr(clearing.CaseClearings, "pin", lambda self, flows: {
                    m: pin(self, {m: zs})[m] for m, zs in flows.items()})
            path = run_experiment(ExperimentConfig(
                cases=((case.name, 0, case),), methods=("aggregation_primal",),
                pricings=("none",), deltas=(4.0,), out_dir=str(tmp_path / str(merged))))
        return _rows(path)

    fails.update({1: "error", 2: "error"})
    with pytest.raises(NumericalError, match="^DSO 1$"):
        forwarding.run_bid_aggregation(case, 4.0)
    assert calls == [[1, 2]]
    merged = run(True)
    assert [row["status"] for row in merged] == ["error: DSO 1"]
    assert merged == run(False)

    fails.update({1: "infeasible"})
    assert forwarding.run_bid_aggregation(case, 4.0).status == "rsf_infeasible"
    merged = run(True)
    assert [row["status"] for row in merged] == ["rsf_infeasible"]
    assert merged == run(False)
