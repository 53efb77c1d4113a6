"""Clearing problems against independent grid-enumeration oracles.

Expected values were computed with the enumeration oracles in conftest
(and frozen), so every nontrivial number here has an LP-free derivation.
"""

import math

import numpy as np
import pytest

from flexmkt.casegen import CaseRecipe, generate_case
from flexmkt.clearing import (ClearingResult, clear_common,
                              clear_dso_fixed_interface, clear_dso_layer1,
                              clear_fragmented_layer2, clear_idealized_layer2,
                              clear_tso_layer2, interface_price)
from flexmkt.errors import ContractError
from flexmkt.market_model import Bid, MarketCase
from flexmkt.mp_solver import simplex

from conftest import dso_grid_oracle, layer2_grid_oracle, micro_case

NONE = {"kind": "none"}


def pricing(case, kind="none", common=None):
    return interface_price(case, kind, common)


def explicit_layer1(upward, downward, z):
    return {1: ClearingResult(status="optimal", objective=0.0, upward=upward,
                              downward=downward, interface_flows={1: z})}


# ---------------------------------------------------------------------------
# Layer 1
# ---------------------------------------------------------------------------

def test_layer1_no_need_clears_nothing():
    # No base imbalance and no revenue opportunity: nothing clears. (With a
    # downward bid and unpriced import headroom the model would monetize the
    # interface instead, so the zero-need examples use the upward-only case.)
    case = micro_case(leaf_e=0.0, tso_need=0.0, root_down=False)
    res = clear_dso_layer1(case, 1, pricing(case))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.0, abs=1e-9)
    assert all(v == pytest.approx(0.0, abs=1e-9) for v in res.upward.values())


def test_layer1_congested_feeder_forces_local_procurement(m1_up_only):
    # Frozen expected value 80 = 2 MW @ 40: the 4 MW line limit keeps the
    # import at 4, the leaf balance forces the remaining 2 MW locally.
    best, point = dso_grid_oracle(m1_up_only, 1, 0.0, 0.1)
    assert best == pytest.approx(80.0, abs=1e-9)
    res = clear_dso_layer1(m1_up_only, 1, pricing(m1_up_only))
    assert res.objective == pytest.approx(80.0, abs=1e-7)
    assert res.upward["d-u"] == pytest.approx(2.0, abs=1e-7)
    assert res.interface_flows[1] == pytest.approx(4.0, abs=1e-7)


def test_layer1_uncongested_import_is_free(m1_wide):
    best, _ = dso_grid_oracle(m1_wide, 1, 0.0, 0.1)
    assert best == pytest.approx(0.0, abs=1e-9)
    res = clear_dso_layer1(m1_wide, 1, pricing(m1_wide))
    assert res.objective == pytest.approx(0.0, abs=1e-9)
    assert res.upward["d-u"] == pytest.approx(0.0, abs=1e-9)
    assert res.interface_flows[1] == pytest.approx(6.0, abs=1e-7)


def test_layer1_full_micro_case_monetizes_the_interface(m1):
    # With the downward bid present and no interface price, imports are
    # worth selling: oracle-frozen optimum 20 at full interface usage.
    best, _ = dso_grid_oracle(m1, 1, 0.0, 0.1)
    assert best == pytest.approx(20.0, abs=1e-9)
    res = clear_dso_layer1(m1, 1, pricing(m1))
    assert res.objective == pytest.approx(20.0, abs=1e-7)
    assert res.interface_flows[1] == pytest.approx(8.0, abs=1e-7)


def test_layer1_balance_duals_reported(m1_up_only):
    res = clear_dso_layer1(m1_up_only, 1, pricing(m1_up_only))
    assert set(res.balance_duals[1]) == {1, 2}
    # The leaf's marginal MW comes from the 40 EUR local bid.
    assert res.balance_duals[1][2] == pytest.approx(40.0, abs=1e-7)


# ---------------------------------------------------------------------------
# Layer 2 (practical, idealized, fragmented)
# ---------------------------------------------------------------------------

def test_layer2_with_no_distribution_caps(m1_up_only):
    # Residual distribution capacity zero: the TSO meets its 8 MW need with
    # its own bid minus what the interface already supplies.
    layer1 = explicit_layer1({"d-u": 2.0}, {}, 4.0)
    res = clear_tso_layer2(m1_up_only, layer1, pricing(m1_up_only),
                           dist_bid_caps={"d-u": 0.0})
    oracle = layer2_grid_oracle(m1_up_only, {1: 2.0}, {1: 0.0}, {"d-u": 0.0},
                                {1: 0.0}, 0.25)
    assert res.objective == pytest.approx(oracle, abs=1e-7)
    assert res.objective == pytest.approx(140.0, abs=1e-7)
    assert res.upward["t-u"] == pytest.approx(4.0, abs=1e-7)
    assert res.interface_flows[1] == pytest.approx(4.0, abs=1e-7)


def test_layer2_full_micro_case(m1):
    # The worked TSO-layer example: remaining distribution volumes 3 up /
    # 5 down on top of (2, 0) from the first layer clear 4 MW downward at
    # the full 8 MW interface. Oracle-frozen objective -60.
    layer1 = explicit_layer1({"d-u": 2.0}, {"d-d": 0.0}, 4.0)
    caps = {"d-u": 3.0, "d-d": 5.0}
    oracle = layer2_grid_oracle(m1, {1: 2.0}, {1: 0.0}, caps, {1: 0.0}, 0.25)
    assert oracle == pytest.approx(-60.0, abs=1e-9)
    res = clear_tso_layer2(m1, layer1, pricing(m1), dist_bid_caps=caps)
    assert res.objective == pytest.approx(-60.0, abs=1e-7)
    assert res.downward["d-d"] == pytest.approx(4.0, abs=1e-7)
    assert res.interface_flows[1] == pytest.approx(8.0, abs=1e-7)


def test_layer2_partial_caps_keep_residual_for_unnamed_bids(m1):
    # dist_bid_caps names d-u only; d-d keeps its residual 5 - 0 = 5 MW.
    layer1 = explicit_layer1({"d-u": 2.0}, {"d-d": 0.0}, 4.0)
    oracle = layer2_grid_oracle(m1, {1: 2.0}, {1: 0.0}, {"d-u": 0.0, "d-d": 5.0},
                                {1: 0.0}, 0.25)
    res = clear_tso_layer2(m1, layer1, pricing(m1), dist_bid_caps={"d-u": 0.0})
    assert res.objective == pytest.approx(oracle, abs=1e-7)
    assert res.upward["d-u"] == 0.0


def test_layer2_infeasibility_is_surfaced():
    case = micro_case(z_max=0.5, z_min=0.0, tso_need=8.0)
    # Freeze an inconsistent first layer: the aggregate balance demands an
    # interface flow far outside the bounds.
    layer1 = explicit_layer1({"d-u": 0.0}, {"d-d": 0.0}, 0.0)
    res = clear_tso_layer2(case, layer1, pricing(case))
    assert res.status == "infeasible"


def test_idealized_equals_practical_when_uncongested(m1_wide):
    layer1 = {1: clear_dso_layer1(m1_wide, 1, pricing(m1_wide))}
    practical = clear_tso_layer2(m1_wide, layer1, pricing(m1_wide))
    idealized = clear_idealized_layer2(m1_wide, layer1, pricing(m1_wide))
    assert idealized.objective == pytest.approx(practical.objective, abs=1e-7)


def leafdown_case():
    """Downward liquidity behind the congested line: the aggregated TSO view
    clears it, the full network view cannot."""
    case = micro_case(root_down=False)
    bids = case.bids + (Bid("d-d", 1, 2, "down", 15.0, 5.0),)
    return MarketCase(transmission=case.transmission,
                      base_injections=case.base_injections,
                      dsos=case.dsos, bids=bids, name="leafdown")


def test_idealized_caps_downward_at_the_feeder_limit():
    case = leafdown_case()
    layer1 = explicit_layer1({"d-u": 2.0}, {"d-d": 0.0}, 4.0)
    caps = {"d-u": 3.0, "d-d": 5.0}
    practical = clear_tso_layer2(case, layer1, pricing(case), dist_bid_caps=caps)
    idealized = clear_idealized_layer2(case, layer1, pricing(case),
                                       dist_bid_caps=caps)
    # The aggregated view still sells 4 MW downward; the full network view
    # must hold the feeder at its 4 MW limit: every extra downward MW at the
    # leaf needs an upward MW there too, which costs more than it earns.
    assert practical.downward["d-d"] == pytest.approx(4.0, abs=1e-7)
    assert idealized.downward["d-d"] <= 1e-7
    assert idealized.objective > practical.objective


def test_fragmented_pins_volumes_and_flows(m1):
    layer1 = {1: clear_dso_layer1(m1, 1, pricing(m1))}
    res = clear_fragmented_layer2(m1, layer1, pricing(m1))
    assert res.status == "optimal"
    assert all(v <= 1e-9 for k, v in res.upward.items() if k.startswith("d-"))
    assert all(v <= 1e-9 for k, v in res.downward.items() if k.startswith("d-"))
    assert res.interface_flows[1] == pytest.approx(layer1[1].interface_flows[1],
                                                   abs=1e-7)


# ---------------------------------------------------------------------------
# Common market
# ---------------------------------------------------------------------------

def test_common_zero_case():
    case = micro_case(leaf_e=0.0, tso_need=0.0, root_down=False)
    res = clear_common(case)
    assert res.objective == pytest.approx(0.0, abs=1e-9)


def test_common_micro_case_against_oracle(m1):
    res = clear_common(m1)
    assert res.status == "optimal"
    # Frozen from the shipped brute-force oracle (see test_safety for the
    # band check): the benchmark buys the stranded 2 MW locally and uses
    # the whole interface.
    assert res.objective == pytest.approx(20.0, abs=1e-7)
    assert res.upward["d-u"] == pytest.approx(2.0, abs=1e-7)


def test_aggregate_balance_consistency(m1_wide):
    # Summing the nodal balances of an uncongested feeder reproduces the
    # aggregated TSO-layer constraint: total up - total down + interface
    # flow = total base imbalance.
    res = clear_common(m1_wide)
    up = sum(res.upward[b.id] for b in m1_wide.bids_of(1, "up"))
    down = sum(res.downward[b.id] for b in m1_wide.bids_of(1, "down"))
    z = res.interface_flows[1]
    assert up - down + z == pytest.approx(sum(m1_wide.dsos[0].base_injections),
                                          abs=1e-7)


# ---------------------------------------------------------------------------
# Interface pricing
# ---------------------------------------------------------------------------

def test_pricing_none_is_zero(m1):
    rule = pricing(m1, "none")
    assert rule.prices == {1: 0.0}


def test_pricing_midpoint_arithmetic():
    case = generate_case(CaseRecipe(style="A", n_dsos=1), 0)
    rule = pricing(case, "midpoint")
    downs = [b.price for b in case.bids_of(1, "down")]
    ups = [b.price for b in case.bids_of(1, "up")]
    assert rule.prices[1] == pytest.approx((max(downs) + min(ups)) / 2.0)
    # the worked arithmetic example: ranges [10, 25] and [30, 55]
    assert (25.0 + 30.0) / 2.0 == 27.5


def test_pricing_optimal_is_coupling_shadow_price(m1):
    common = clear_common(m1)
    rule = pricing(m1, "optimal", common)
    coupling = m1.dsos[0].coupling_bus
    assert rule.prices[1] == pytest.approx(common.balance_duals[0][coupling])

    # Finite-difference confirmation: perturb the coupling-bus imbalance.
    eps = 0.01
    deltas = []
    for sign in (+1.0, -1.0):
        e0 = list(m1.base_injections)
        e0[m1.transmission.bus_index[coupling]] += sign * eps
        pert = MarketCase(transmission=m1.transmission,
                          base_injections=tuple(e0), dsos=m1.dsos, bids=m1.bids)
        deltas.append(sign * (clear_common(pert).objective - common.objective) / eps)
    # One-sided slopes bracket the returned dual.
    assert min(deltas) - 1e-4 <= rule.prices[1] <= max(deltas) + 1e-4


def test_pricing_unknown_kind_rejected(m1):
    with pytest.raises(ContractError):
        interface_price(m1, "banana")


def test_optimal_pricing_reproduces_benchmark_on_benign_case():
    # Necessary-condition example: when the sequential outcome attains the
    # benchmark under optimal pricing, the TSO layer clears zero
    # distribution volume.
    case = generate_case(CaseRecipe(style="A"), 2)
    common = clear_common(case)
    rule = pricing(case, "optimal", common)
    layer1 = {m: clear_dso_layer1(case, m, rule) for m in case.dso_indices}
    layer2 = clear_tso_layer2(case, layer1, rule)
    dist_volume = sum(v for k, v in layer2.upward.items() if not k.startswith("t-")) \
        + sum(v for k, v in layer2.downward.items() if not k.startswith("t-"))
    assert dist_volume <= 1e-6


# ---------------------------------------------------------------------------
# Pinned-interface clearing (the aggregation building block)
# ---------------------------------------------------------------------------

def _pins(case, m, flows):
    """DSO ``m``'s pinned clearings at ``flows``, solved on their own."""
    return clear_dso_fixed_interface(case, {m: flows})[m]


def test_fixed_interface_steps_match_oracle(m1_wide):
    expected = {2.0: 160.0, 4.0: 80.0, 6.0: 0.0}
    for zhat, want in expected.items():
        best, _ = dso_grid_oracle(m1_wide, 1, 0.0, 0.1, z_fixed=zhat)
        assert best == pytest.approx(want, abs=1e-6)
        [(res, dual)] = _pins(m1_wide, 1, [zhat])
        assert res.objective == pytest.approx(want, abs=1e-7)
    # Steps outside the reachable import range are infeasible.
    [(res, _)] = _pins(m1_wide, 1, [8.0])
    assert res.status == "infeasible"
    [(res, _)] = _pins(m1_wide, 1, [0.0])
    assert res.status == "infeasible"


def test_repinned_solves_equal_single_flow_solves(monkeypatch):
    # One program pinned at each flow gives exactly what a fresh program
    # per flow gives, the pins past the edge of the feasible flows
    # included, in lockstep and one at a time.
    case = generate_case(CaseRecipe(style="C", n_dsos=1, dso_buses=15), 0)
    dso = case.dso(1)
    flows = list(np.linspace(dso.z_min - 2.0, dso.z_max + 2.0, 13))
    single = [_pins(case, 1, [z])[0] for z in flows]
    statuses = [r.status for r, _ in single]
    edge = next(k for k in range(1, len(flows))
                if statuses[k] == "infeasible" and "optimal" in statuses[:k])
    assert edge < len(flows) - 1
    for lockstep_min in (1, 10**9):
        monkeypatch.setattr(simplex, "_LOCKSTEP_MIN", lockstep_min)
        assert repr(_pins(case, 1, flows)) == repr(single)


def test_a_nan_flow_is_rejected():
    case = generate_case(CaseRecipe(style="B"), 1)
    for flows in ([math.nan], [0.0, math.nan]):
        with pytest.raises(ContractError):
            _pins(case, 1, flows)
