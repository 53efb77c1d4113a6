"""Clearings shared within one case: every method run through one
CaseClearings object gives the outcome of a run alone, while each shared
program is solved once."""

import copy
import hashlib
import itertools
import math
import sys
from collections import Counter
from dataclasses import replace

import pytest

import flexmkt.clearing as clearing
import flexmkt.forwarding as forwarding
from flexmkt.casegen import CaseRecipe, generate_case
from flexmkt.cli import METHODS, PRICINGS, ExperimentConfig, _run_method, main, run_experiment
from flexmkt.clearing import (CaseClearings, clear_common, clear_dso_fixed_interface,
                              interface_price)
from flexmkt.errors import ContractError
from flexmkt.forwarding import _correction, run_bid_aggregation, run_three_layer
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
    pins = Counter((m, z) for _, m, flows in pinned for z in flows)
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
    solves = counted(monkeypatch, forwarding.solve_lp)

    first = _correction(shared, m, (layer1[m], layer2), z2)
    per_correction = len(solves)
    assert per_correction >= 1
    assert _correction(shared, m, (layer1[m], layer2), z2) is first
    assert len(solves) == per_correction

    bid = max(case.bids_of(m), key=layer1[m].volume)
    assert layer1[m].volume(bid) > 0.0
    table = "upward" if bid.direction == DIR_UP else "downward"
    volumes = dict(getattr(layer1[m], table))
    volumes[bid.id] = math.nextafter(volumes[bid.id], math.inf)
    nudged = replace(layer1[m], **{table: volumes})
    _correction(shared, m, (nudged, layer2), z2)
    assert len(solves) > per_correction


def fingerprint(lp, groups=()) -> str:
    """Hash of everything a solve reads of a program: bounds, costs, rows,
    row bounds and one-hot groups, every float by its exact bits."""
    content = (lp.var_lb, lp.var_ub, lp.var_cost, lp.rows, lp.row_lo, lp.row_hi, groups)
    return hashlib.sha256(repr(content).encode()).hexdigest()


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
    recording(forwarding, "solve_lp", fingerprint)
    recording(forwarding, "solve_milp", lambda mp: fingerprint(mp.lp, mp.groups))
    original_batch = clearing.solve_lp_batch

    def batch(program, row_lo, row_hi, needed=None):
        # Each item solved is the program under its own row bounds.
        solved = original_batch(program, row_lo, row_hi, needed)
        for lo, hi, sol in zip(row_lo, row_hi, solved):
            if sol is not None:
                item = copy.copy(program)
                item.row_lo, item.row_hi = lo.tolist(), hi.tolist()
                seen[fingerprint(item)] += 1
        return solved

    monkeypatch.setattr(clearing, "solve_lp_batch", batch)
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
    seen = Counter()
    original = forwarding.solve_lp

    def recording(program):
        seen[fingerprint(program)] += 1
        return original(program)

    monkeypatch.setattr(forwarding, "solve_lp", recording)
    forwarding.suboptimality_constant(case, clearings=shared)
    assert seen
    assert max(seen.values()) == 1, sum(n - 1 for n in seen.values())


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


def test_every_pin_skipped_past_the_feasible_interval_is_infeasible():
    skipped = 0
    for style, dsos, seed, congestion in itertools.product("ABCD", (1, 2, 3), (0, 1), (0.8, 1.1)):
        case = generate_case(CaseRecipe(style=style, n_dsos=dsos, congestion=congestion), seed)
        shared = CaseClearings(case)
        for variant, step in itertools.product(("primal", "dual"), (2.0, 4.0)):
            run_bid_aggregation(case, step, 1, variant, clearings=shared)
        for key, (res, _) in shared._solved.items():
            if key[0] != "pin" or res.status == "optimal" or res.iterations:
                continue
            _, m, z = key
            [(alone, _)] = clear_dso_fixed_interface(case, m, [float.fromhex(z)])
            assert alone.status == "infeasible", (case.name, m, z)
            skipped += 1
    assert skipped > 0
