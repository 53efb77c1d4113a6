"""Clearings shared within one case: every method run through one
CaseClearings object gives the outcome of a run alone, while each shared
program is solved once."""

import sys
from collections import Counter
from dataclasses import replace

import pytest

import flexmkt.clearing as clearing
from flexmkt.casegen import CaseRecipe, generate_case
from flexmkt.cli import METHODS, PRICINGS, ExperimentConfig, _run_method, main, run_experiment
from flexmkt.clearing import CaseClearings, clear_common, interface_price
from flexmkt.errors import ContractError
from flexmkt.forwarding import run_three_layer

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
    run_experiment(ExperimentConfig(cases=((case.name, 3, case),), methods=METHODS,
                                    pricings=PRICINGS, deltas=(2.0,), refine_rounds=1,
                                    out_dir=str(tmp_path)))
    assert len(layer1) == 2 * len(PRICINGS)
    # One practical Layer 2 per pricing rule serves three_layer and
    # sequential_raw; filtering clears its own capped one.
    assert len(layer2) == 2 * len(PRICINGS)
    pins = Counter((m, z) for _, m, flows in pinned for z in flows)
    assert pins and set(pins.values()) == {1}


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
