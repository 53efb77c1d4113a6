"""Clearings shared within one case: every method run through one
CaseClearings object gives the outcome of a run alone, while each shared
program is solved once."""

import copy
import hashlib
import math
import sys
from collections import Counter
from dataclasses import replace

import pytest

import flexmkt.clearing as clearing
import flexmkt.forwarding as forwarding
from flexmkt.casegen import CaseRecipe, generate_case
from flexmkt.cli import METHODS, PRICINGS, ExperimentConfig, _run_method, main, run_experiment
from flexmkt.clearing import CaseClearings, clear_common, interface_price
from flexmkt.errors import ContractError
from flexmkt.forwarding import run_three_layer
from flexmkt.market_model import DIR_UP

DELTA = 4.0


def counted(monkeypatch, original):
    """Rebind ``original`` in every flexmkt module to a wrapper; returns the
    list of argument tuples it is called with."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "flexmkt":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, wrapper)
    return calls


def plain(outcome):
    """Every field of an outcome but the measured wall time, exactly."""
    return repr(replace(outcome, wall_ms=0.0))


def all_runs(case, shared=None):
    """(method, pricing) -> outcome for every method under every pricing
    rule, one refinement round, in run_experiment's order: all through
    ``shared``, or each alone when it is None."""
    common = clear_common(case)
    return {(method, pricing): _run_method(case, method, pricing, DELTA, 1,
                                           shared or CaseClearings(case, common))
            for method in METHODS for pricing in PRICINGS}


@pytest.mark.parametrize("style,dsos", [(s, 1 + i % 3) for i, s in enumerate("ABCDABCDABCD")])
def test_shared_outcomes_equal_runs_alone(style, dsos):
    case = generate_case(CaseRecipe(style=style, n_dsos=dsos, tn_buses=max(4, dsos + 1)),
                         100 + dsos)
    together = all_runs(case, CaseClearings(case, clear_common(case)))
    alone = all_runs(case)
    assert together.keys() == alone.keys()
    for key, outcome in alone.items():
        assert plain(together[key]) == plain(outcome), key


def test_run_experiment_solves_each_shared_program_once(monkeypatch, tmp_path):
    case = generate_case(CaseRecipe(style="B", n_dsos=2), 3)
    common = clear_common(case)
    prices = {tuple(interface_price(case, kind, common).prices.values()) for kind in PRICINGS}
    assert len(prices) == len(PRICINGS)
    layer1 = counted(monkeypatch, clearing.clear_dso_layer1)
    layer2 = counted(monkeypatch, clearing.clear_tso_layer2)
    pinned = counted(monkeypatch, clearing.clear_dso_fixed_interface)
    tso = counted(monkeypatch, forwarding.clear_tso_rsf)
    run_experiment(ExperimentConfig(cases=((case.name, 3, case),), methods=METHODS,
                                    pricings=PRICINGS, deltas=(2.0,), refine_rounds=1,
                                    out_dir=str(tmp_path)))
    assert len(layer1) == 2 * len(PRICINGS)
    # One practical Layer 2 per pricing rule serves three_layer and
    # sequential_raw; filtering clears its own capped one.
    assert len(layer2) == 2 * len(PRICINGS)
    pins = Counter((m, z) for _, flows in pinned for m, zs in flows.items() for z in zs)
    assert pins and set(pins.values()) == {1}
    # One TSO MILP per variant, step size and round, whatever the pricing
    # rule: 2 variants x 1 step size x 2 rounds, not 3 rows x 2 rounds each.
    assert len(tso) == 2 * 1 * 2


def test_layer3_correction_is_keyed_by_exact_prior_volumes(monkeypatch):
    case = generate_case(CaseRecipe(style="B", n_dsos=2), 3)
    shared = CaseClearings(case)
    pricing = interface_price(case, "none")
    layer1, layer2 = shared.layer1(pricing), shared.layer2(pricing)
    m = case.dso_indices[0]
    z2 = layer2.interface_flows[m]
    solves = counted(monkeypatch, clearing.solve_lp)

    first = shared.correction(m, (layer1[m], layer2), z2)
    per_correction = len(solves)
    assert per_correction >= 1
    assert shared.correction(m, (layer1[m], layer2), z2) is first
    assert len(solves) == per_correction

    bid = max(case.bids_of(m), key=layer1[m].volume)
    assert layer1[m].volume(bid) > 0.0
    table = "upward" if bid.direction == DIR_UP else "downward"
    volumes = dict(getattr(layer1[m], table))
    volumes[bid.id] = math.nextafter(volumes[bid.id], math.inf)
    nudged = replace(layer1[m], **{table: volumes})
    shared.correction(m, (nudged, layer2), z2)
    assert len(solves) > per_correction

    # The overload diagnostic has a key of its own kind: asking for it
    # solves one more program, once, and leaves the correction's alone.
    before = len(solves)
    worst = shared.overload(m, (layer1[m], layer2), z2)
    assert len(solves) == before + 1
    assert shared.overload(m, (layer1[m], layer2), z2) == worst
    assert shared.correction(m, (layer1[m], layer2), z2) is first
    assert len(solves) == before + 1


@pytest.mark.parametrize("style,seed", [("B", 0), ("B", 1), ("C", 2), ("A", 3)])
@pytest.mark.parametrize("method", ["three_layer", "sequential_raw", "idealized", "fragmented"])
def test_a_run_alone_solves_exactly_the_programs_it_counts(monkeypatch, style, seed, method):
    # lp_solves is the count of programs a run alone solves; three_layer
    # solves no uncounted overload diagnostic (layer3_overload does).
    case = generate_case(CaseRecipe(style=style), seed)
    common = clear_common(case)
    solves = counted(monkeypatch, clearing.solve_lp)
    for pricing in PRICINGS:
        before = len(solves)
        out = _run_method(case, method, pricing, None, 0, CaseClearings(case, common))
        assert len(solves) - before == out.lp_solves, pricing
        assert out.details == {}


def test_layer3_overload_is_the_diagnostic_program_solved_once(monkeypatch):
    case = generate_case(CaseRecipe(style="B"), 0)
    shared = CaseClearings(case, clear_common(case))
    out = run_three_layer(case, interface_price(case, "none"), clearings=shared)
    assert out.status == "ok" and not out.safe
    solves = counted(monkeypatch, clearing.solve_lp)
    overload = forwarding.layer3_overload(case, out, clearings=shared)
    infeasible = [m for m, r in out.layer3.items() if r.status != "optimal"]
    assert list(overload) == infeasible and len(solves) == len(infeasible)
    for m, worst in overload.items():
        prior, z = (out.layer1[m], out.layer2), out.layer2.interface_flows[m]
        prog, slack = clearing._layer3_program(case, m, prior, z, diagnostic=True)
        sol = clearing.solve_lp(prog.lp)
        assert sol.status == "optimal"
        assert worst == float(sol.x[slack])
        # No correction at all is a point of the relaxed program, so the
        # least overload is at most the overload the verdict saw.
        assert 0.0 < worst <= out.safety.max_flow_violation + 1e-9
    before = len(solves)
    assert forwarding.layer3_overload(case, out, clearings=shared) == overload
    assert len(solves) == before


def fingerprint(lp, groups=()) -> str:
    """Hash of everything a solve reads of a program: bounds, costs, rows,
    row bounds and one-hot groups, every float by its exact bits."""
    content = (lp.var_lb, lp.var_ub, lp.var_cost, lp.rows, lp.row_lo, lp.row_hi, groups)
    return hashlib.sha256(repr(content).encode()).hexdigest()


def recording_batch(monkeypatch, module, seen: Counter) -> None:
    """Rebind ``module.solve_lp_batch`` to count in ``seen`` the fingerprint
    of each item it solves, of every program in the call: the program under
    that item's row bounds."""
    original = module.solve_lp_batch

    def batch(batches):
        solved = original(batches)
        for program, row_lo, row_hi in batches:
            for lo, hi in zip(row_lo, row_hi):
                item = copy.copy(program)
                item.row_lo, item.row_hi = lo.tolist(), hi.tolist()
                seen[fingerprint(item)] += 1
        return solved

    monkeypatch.setattr(module, "solve_lp_batch", batch)


@pytest.mark.parametrize("style,dsos", [("A", 1), ("B", 2), ("C", 3), ("D", 2)])
def test_no_program_is_solved_twice_within_a_case(monkeypatch, tmp_path, style, dsos):
    case = generate_case(CaseRecipe(style=style, n_dsos=dsos, tn_buses=max(4, dsos + 1)), 20 + dsos)
    seen = Counter()

    def recording(module, name, read):
        original = getattr(module, name)

        def wrapper(program):
            seen[read(program)] += 1
            return original(program)

        monkeypatch.setattr(module, name, wrapper)

    recording(clearing, "solve_lp", fingerprint)
    recording(clearing, "solve_milp", lambda mp: fingerprint(mp.lp, mp.groups))
    recording_batch(monkeypatch, clearing, seen)
    run_experiment(ExperimentConfig(cases=((case.name, 0, case),), methods=METHODS,
                                    pricings=PRICINGS, deltas=(2.0, 4.0), refine_rounds=1,
                                    out_dir=str(tmp_path)))
    assert seen
    assert max(seen.values()) == 1, sum(n - 1 for n in seen.values())


@pytest.mark.parametrize("style,dsos", [("A", 1), ("B", 2), ("C", 1), ("D", 3)])
def test_suboptimality_constant_solves_each_sample_once(monkeypatch, style, dsos):
    case = generate_case(CaseRecipe(style=style, n_dsos=dsos, tn_buses=max(4, dsos + 1)), 7)
    shared = CaseClearings(case)
    assert shared.common.status == "optimal"
    alone, batched = Counter(), Counter()
    original = clearing.solve_lp

    def recording(program):
        alone[fingerprint(program)] += 1
        return original(program)

    monkeypatch.setattr(clearing, "solve_lp", recording)
    recording_batch(monkeypatch, clearing, batched)
    forwarding.suboptimality_constant(case, clearings=shared)
    assert alone and batched
    seen = alone + batched
    assert max(seen.values()) == 1, sum(n - 1 for n in seen.values())


def test_forwarding_builds_and_solves_no_program():
    # Every program is built and solved in flexmkt.clearing, so a recorder
    # on clearing alone sees every solve of a run; forwarding only composes.
    import flexmkt.mp_solver as mp_solver

    assert "INF" not in vars(forwarding)
    bound = list(vars(forwarding).values())
    for entry in (mp_solver.solve_lp, mp_solver.solve_lp_batch, mp_solver.solve_milp,
                  mp_solver.LinearProgram, mp_solver.MixedProgram, mp_solver.Solution,
                  clearing._CaseProgram):
        assert not any(value is entry for value in bound), entry.__name__
    private = [value for name, value in vars(clearing).items()
               if name.startswith("_") and not name.startswith("__") and callable(value)]
    assert private
    for value in private:
        assert not any(v is value for v in bound), value.__name__


def test_check_clears_the_common_market_once_per_case(monkeypatch):
    calls = counted(monkeypatch, clearing.clear_common)
    assert main(["check", "--recipe", "B", "--seed", "0-1"]) == 0
    assert len(calls) == 2


def test_shared_clearings_belong_to_one_case():
    case = generate_case(CaseRecipe(style="A"), 1)
    other = generate_case(CaseRecipe(style="A"), 2)
    with pytest.raises(ContractError, match="another case"):
        run_three_layer(case, interface_price(case, "none"), clearings=CaseClearings(other))


def test_fresh_clearings_clear_the_common_market_on_first_use(monkeypatch):
    case = generate_case(CaseRecipe(style="C"), 5)
    calls = counted(monkeypatch, clearing.clear_common)
    shared = CaseClearings(case)
    assert not calls
    assert shared.common is shared.common
    assert len(calls) == 1
