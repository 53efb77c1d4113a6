"""The three forwarding methods: oracle-frozen examples, solve-count
accounting, and the structural guarantees they are supposed to carry."""

import csv
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flexmkt.casegen import CaseRecipe, generate_case
from flexmkt.cli import ExperimentConfig, run_experiment
from flexmkt.clearing import (CaseClearings, _common_program, clear_common,
                              clear_dso_layer1, dso_flow_interval, interface_price)
from flexmkt.errors import ContractError, ModelError
from flexmkt.forwarding import (build_rsf, build_rsf_dual, clear_tso_rsf, filter_bids,
                                run_bid_aggregation, run_bid_filtering, run_sequential,
                                run_three_layer, suboptimality_constant)
from flexmkt.market_model import UNLIMITED, Bid, DistributionSystem, MarketCase
from flexmkt.mp_solver import solve_lp
from flexmkt.netmodel import Line, Network

from conftest import (corrective_showcase, dso_grid_oracle,
                      forwarding_benefit_showcase, micro_case)


def none_pricing(case):
    return interface_price(case, "none")


# ---------------------------------------------------------------------------
# Plain sequential runs
# ---------------------------------------------------------------------------

def layer1_infeasible_case() -> MarketCase:
    """One DSO with a 5 MW deficit, interface bounds of +/-1 MW and no
    local bids: its Layer-1 market cannot balance."""
    tn = Network(buses=(1, 2), lines=(Line(1, 2, 0.1, -100.0, 100.0),), root=1)
    dn = Network(buses=(1, 2), lines=(Line(1, 2, 0.1, -10.0, 10.0),), root=1)
    dso = DistributionSystem(index=1, network=dn, coupling_bus=2, z_min=-1.0,
                             z_max=1.0, base_injections=(0.0, 5.0))
    bids = (Bid("t-u", 0, 1, "up", 35.0, 10.0), Bid("t-d", 0, 1, "down", 12.0, 10.0))
    return MarketCase(transmission=tn, base_injections=(0.0, 0.0), dsos=(dso,),
                      bids=bids, name="layer1-infeasible")


@pytest.mark.parametrize("variant,method", [("practical", "sequential_raw"),
                                            ("idealized", "idealized"),
                                            ("fragmented", "fragmented")])
def test_sequential_layer1_abort_keeps_method_name(variant, method):
    ok = run_sequential(micro_case(), none_pricing(micro_case()), variant)
    assert (ok.status, ok.method) == ("ok", method)
    case = layer1_infeasible_case()
    out = run_sequential(case, none_pricing(case), variant)
    assert out.method == method
    assert out.status == "layer1_infeasible"
    assert out.safe is None
    assert out.lp_solves == 1


# ---------------------------------------------------------------------------
# Three-layer corrective scheme
# ---------------------------------------------------------------------------

def test_three_layer_noop_when_layer2_clears_nothing_local():
    case = generate_case(CaseRecipe(style="A"), 4)
    common = clear_common(case)
    shared = CaseClearings(case, common)
    out = run_three_layer(case, none_pricing(case), clearings=shared)
    seq = run_sequential(case, none_pricing(case), "practical", clearings=shared)
    assert out.safe
    for res in out.layer3.values():
        assert all(v <= 1e-7 for v in res.upward.values())
        assert all(v <= 1e-7 for v in res.downward.values())
    assert out.total_cost == pytest.approx(seq.total_cost, abs=1e-6)


def test_three_layer_solve_count_is_2n_plus_1():
    for n_dsos in (1, 2, 3):
        case = generate_case(CaseRecipe(style="A", n_dsos=n_dsos, tn_buses=4), 1)
        out = run_three_layer(case, none_pricing(case))
        assert out.lp_solves == 2 * n_dsos + 1


def test_three_layer_unresolvable_congestion_reported():
    # Expensive-transmission style: the TSO layer monetizes deep downward
    # bids the aggregated view cannot place, and no local correction exists.
    case = generate_case(CaseRecipe(style="B"), 0)
    out = run_three_layer(case, none_pricing(case))
    assert out.status == "ok"
    assert out.safe is False
    assert any(not ok for m, ok in out.safety.system_feasible.items() if m != 0)
    assert out.safety.max_flow_violation > 1e-3
    assert out.details["layer3_overload_mw"]


def test_three_layer_resolves_when_reserves_exist():
    # The corrective showcase: the TSO layer overloads the deep feeder line,
    # but enough upward capacity sits behind it (paired with the cheap head
    # reserve) for the third layer to buy the grid back to feasibility.
    case = corrective_showcase()
    common = clear_common(case)
    shared = CaseClearings(case, common)
    rule = interface_price(case, "midpoint", common)
    raw = run_sequential(case, rule, "practical", clearings=shared)
    out = run_three_layer(case, rule, clearings=shared)
    assert raw.safe is False
    assert out.safe is True
    assert out.eta_pct is not None and out.eta_pct > 1.0
    correction = out.layer3[1]
    assert correction.upward["d-u"] == pytest.approx(3.0, abs=1e-6)
    assert correction.downward["d-dr"] == pytest.approx(3.0, abs=1e-6)
    # The repaired volumes really are grid safe.
    from flexmkt.safety import is_grid_safe
    assert is_grid_safe(case, out.final_upward, out.final_downward).safe


# ---------------------------------------------------------------------------
# Bid filtering
# ---------------------------------------------------------------------------

def test_filter_uncongested_forwards_everything_in_two_solves(m1_wide):
    layer1 = clear_dso_layer1(m1_wide, 1, none_pricing(m1_wide))
    filt = filter_bids(m1_wide, 1, layer1)
    assert set(filt.forward_up) == {"d-u"}
    assert filt.forward_down == ()
    assert filt.feasibility_solves == 1  # no downward bids to check

    case = micro_case(limit=10.0, z_max=15.0)
    layer1 = clear_dso_layer1(case, 1, none_pricing(case))
    filt = filter_bids(case, 1, layer1)
    assert set(filt.forward_up) == {"d-u"}
    assert set(filt.forward_down) == {"d-d"}
    assert filt.feasibility_solves == 2


def test_filter_corner_feasible_residual_forwarded(m1_up_only):
    # Residual 3 MW at the leaf: full activation gives a 1 MW reverse flow,
    # well inside the 4 MW limit, so the bid is forwarded.
    layer1 = clear_dso_layer1(m1_up_only, 1, none_pricing(m1_up_only))
    assert layer1.upward["d-u"] == pytest.approx(2.0, abs=1e-7)
    filt = filter_bids(m1_up_only, 1, layer1)
    assert filt.forward_up == ("d-u",)


def discard_case():
    """Two leaf bids; the expensive one's residual breaks the corner."""
    tn = Network(buses=(1, 2), lines=(Line(1, 2, 0.1, -100, 100),), root=1)
    dn = Network(buses=(1, 2), lines=(Line(1, 2, 0.08, -4.0, 4.0),), root=1)
    bids = (
        Bid("t-u", 0, 1, "up", 35.0, 20.0),
        Bid("t-d", 0, 1, "down", 12.0, 20.0),
        Bid("exp", 1, 2, "up", 45.0, 6.0),
        Bid("chp", 1, 2, "up", 40.0, 5.0),
    )
    dso = DistributionSystem(index=1, network=dn, coupling_bus=2,
                             z_min=-8.0, z_max=8.0, base_injections=(0.0, 6.0))
    return MarketCase(transmission=tn, base_injections=(8.0, 0.0),
                      dsos=(dso,), bids=bids, name="discard")


def test_filter_discards_most_expensive_first():
    case = discard_case()
    layer1 = clear_dso_layer1(case, 1, none_pricing(case))
    # Layer 1 buys the stranded 2 MW from the cheaper bid.
    assert layer1.upward["chp"] == pytest.approx(2.0, abs=1e-7)
    # Corner check by hand: full residuals 6 + 3 give the leaf a net
    # injection of 11 - 6 = 5 MW, breaking the 4 MW limit, so the most
    # expensive bid goes first; the remaining corner 3 + 2 - 6 = -1 passes.
    filt = filter_bids(case, 1, layer1)
    assert filt.forward_up == ("chp",)
    assert filt.feasibility_solves == 2


def test_filter_solve_count_bounds():
    for style, seed in (("A", 0), ("B", 3), ("C", 5), ("D", 7)):
        case = generate_case(CaseRecipe(style=style), seed)
        rule = none_pricing(case)
        for m in case.dso_indices:
            layer1 = clear_dso_layer1(case, m, rule)
            filt = filter_bids(case, m, layer1)
            n_up = len(case.bids_of(m, "up"))
            n_down = len(case.bids_of(m, "down"))
            assert 2 <= filt.feasibility_solves <= n_up + n_down


def test_filtering_all_forwarded_matches_idealized():
    # Boundary case of the suboptimality bounds: everything forwarded means
    # the filtered TSO layer sees exactly the idealized feasible set.
    case = micro_case(limit=10.0, z_max=15.0)
    common = clear_common(case)
    shared = CaseClearings(case, common)
    rule = none_pricing(case)
    out = run_bid_filtering(case, rule, clearings=shared)
    ideal = run_sequential(case, rule, "idealized", clearings=shared)
    filters = out.details["filters"][1]
    assert set(filters.forward_up) == {"d-u"}
    assert set(filters.forward_down) == {"d-d"}
    assert out.total_cost == pytest.approx(ideal.total_cost, rel=1e-6, abs=1e-6)


def empty_filter_case():
    """Both directions corner-infeasible: residual volumes overload the
    4 MW feeder line at full activation."""
    tn = Network(buses=(1, 2), lines=(Line(1, 2, 0.1, -100, 100),), root=1)
    dn = Network(buses=(1, 2), lines=(Line(1, 2, 0.08, -4.0, 4.0),), root=1)
    bids = (
        Bid("t-u", 0, 1, "up", 35.0, 30.0),
        Bid("t-d", 0, 1, "down", 12.0, 30.0),
        Bid("up", 1, 2, "up", 40.0, 11.0),
        Bid("dn", 1, 2, "down", 15.0, 9.0),
    )
    dso = DistributionSystem(index=1, network=dn, coupling_bus=2,
                             z_min=-20.0, z_max=20.0, base_injections=(0.0, 6.0))
    return MarketCase(transmission=tn, base_injections=(8.0, 0.0),
                      dsos=(dso,), bids=bids, name="empty-filter")


def test_filtering_nothing_forwarded_matches_fragmented():
    case = empty_filter_case()
    common = clear_common(case)
    shared = CaseClearings(case, common)
    rule = none_pricing(case)
    out = run_bid_filtering(case, rule, clearings=shared)
    frag = run_sequential(case, rule, "fragmented", clearings=shared)
    filters = out.details["filters"][1]
    assert filters.forward_up == ()
    assert filters.forward_down == ()
    assert out.total_cost == pytest.approx(frag.total_cost, rel=1e-6, abs=1e-6)


def test_filtering_beats_fragmented_when_safe_bids_exist():
    # The benefit-of-forwarding showcase: a cheap head-of-feeder downward
    # bid survives filtering and saves the TSO expensive upward volume.
    case = forwarding_benefit_showcase()
    common = clear_common(case)
    shared = CaseClearings(case, common)
    rule = interface_price(case, "midpoint", common)
    filt = run_bid_filtering(case, rule, clearings=shared)
    frag = run_sequential(case, rule, "fragmented", clearings=shared)
    assert filt.safe
    assert filt.total_cost == pytest.approx(common.objective, abs=1e-6)
    assert frag.total_cost > filt.total_cost + 100.0


def test_filtering_grid_safe_on_recipes():
    for style, seed in (("A", 1), ("B", 2), ("C", 3), ("D", 4)):
        case = generate_case(CaseRecipe(style=style), seed)
        out = run_bid_filtering(case, none_pricing(case))
        assert out.status == "ok"
        assert out.safe


# ---------------------------------------------------------------------------
# Residual supply functions
# ---------------------------------------------------------------------------

def test_build_rsf_micro_steps(m1_wide):
    # Frozen from the per-step enumeration oracle: J(2)=160, J(4)=80,
    # J(6)=0; the 0 and 8 MW steps are infeasible and get discarded.
    rsf = build_rsf(m1_wide, 1, [0.0, 2.0, 4.0, 6.0, 8.0])
    assert [s.z for s in rsf.steps] == [2.0, 4.0, 6.0]
    assert [s.cost for s in rsf.steps] == pytest.approx([160.0, 80.0, 0.0], abs=1e-7)
    assert rsf.delta == pytest.approx(2.0)
    assert rsf.attempts == 5
    for step in rsf.steps:
        oracle, _ = dso_grid_oracle(m1_wide, 1, 0.0, 0.1, z_fixed=step.z)
        assert step.cost == pytest.approx(oracle, abs=1e-6)


def test_build_rsf_zero_need_free_at_zero():
    case = micro_case(leaf_e=0.0, tso_need=0.0, root_down=False, limit=10.0)
    rsf = build_rsf(case, 1, [-2.0, 0.0, 2.0])
    costs = {s.z: s.cost for s in rsf.steps}
    assert costs[0.0] == pytest.approx(0.0, abs=1e-9)
    # Exporting 2 MW needs 2 MW of the 40 EUR bid.
    assert costs[-2.0] == pytest.approx(80.0, abs=1e-7)


def test_rsf_monotone_on_single_need_feeder(m1_up_only):
    rsf = build_rsf(m1_up_only, 1, np.linspace(-1.0, 4.0, 11))
    costs = [s.cost for s in rsf.steps]
    assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))


def test_rsf_rejects_bad_grids(m1_wide):
    with pytest.raises(ContractError):
        build_rsf(m1_wide, 1, [0.0, 99.0])
    with pytest.raises(ModelError, match="no feasible"):
        build_rsf(micro_case(root_down=False), 1, [-6.0, -5.0])


def _highs_pinned_cost(case: MarketCase, m: int, z: float) -> float | None:
    """Optimal local cost of DSO ``m`` with its interface flow pinned at
    ``z``, formulated over bid volumes alone and solved by HiGHS; None
    when infeasible. Net injections are bids minus base load plus the
    flow at the root; they sum to zero and their flows respect every
    line limit."""
    from scipy.optimize import linprog

    from flexmkt.netmodel import build_sensitivity

    dso = case.dso(m)
    net = dso.network
    bids = case.bids_of(m)
    at_bus = np.zeros((net.n_buses, len(bids)))
    for j, b in enumerate(bids):
        at_bus[net.bus_index[b.bus], j] = 1.0 if b.direction == "up" else -1.0
    cost = [b.price if b.direction == "up" else -b.price for b in bids]
    e = np.array(dso.base_injections, dtype=float)
    sens = build_sensitivity(net)
    lo, hi = net.flow_bounds()
    # Root column of sens is zero, so the pinned flow leaves the flows alone.
    flow_a, flow_b = sens @ at_bus, sens @ e
    res = linprog(cost, A_ub=np.vstack([flow_a, -flow_a]),
                  b_ub=np.concatenate([hi + flow_b, -(lo + flow_b)]),
                  A_eq=at_bus.sum(axis=0, keepdims=True), b_eq=[e.sum() - z],
                  bounds=[(0.0, b.quantity_max) for b in bids], method="highs")
    assert res.status in (0, 2), res.message
    return res.fun if res.status == 0 else None


@pytest.mark.parametrize("style", ["B", "C"])
def test_rsf_steps_match_highs(style):
    # A step exists exactly where HiGHS finds the pinned program feasible,
    # at the same cost; the dual variant keeps the same steps and clearings.
    case = generate_case(CaseRecipe(style=style, n_dsos=2, dso_buses=15), 1)
    for dso in case.dsos:
        grid = np.linspace(dso.z_min, dso.z_max, 25)
        rsf = build_rsf(case, dso.index, grid)
        steps = {s.z: s.cost for s in rsf.steps}
        highs = {float(z): _highs_pinned_cost(case, dso.index, float(z)) for z in grid}
        assert set(steps) == {z for z, cost in highs.items() if cost is not None}
        assert None in highs.values()
        for z, cost in steps.items():
            assert cost == pytest.approx(highs[z], rel=1e-7, abs=1e-7)
        dual = build_rsf_dual(case, dso.index, grid)
        assert [(s.z, s.clearing) for s in dual.steps] == \
            [(s.z, s.clearing) for s in rsf.steps]


def test_dual_rsf_exact_on_linear_segment_underestimates_past_kink():
    # With the head-of-feeder downward bid, the true residual cost is
    # 40*(6 - z) up to the 6 MW kink and -15*(z - 6) beyond it. Left-point
    # dual accumulation is exact while the grid stays on one linear piece
    # and undershoots once a step crosses the kink.
    case = micro_case(limit=10.0)
    grid = [2.0, 5.5, 7.0]
    exact = build_rsf(case, 1, grid)
    dual = build_rsf_dual(case, 1, grid)
    assert [s.z for s in dual.steps] == grid
    assert exact.steps[1].cost == pytest.approx(20.0, abs=1e-7)
    assert dual.steps[0].cost == pytest.approx(exact.steps[0].cost, abs=1e-9)
    assert dual.steps[1].cost == pytest.approx(20.0, abs=1e-7)    # linear piece
    assert exact.steps[2].cost == pytest.approx(-15.0, abs=1e-7)
    assert dual.steps[2].cost == pytest.approx(-40.0, abs=1e-7)   # undershoot
    # Stored clearings still carry the exact costs.
    assert dual.steps[2].clearing.objective == pytest.approx(-15.0, abs=1e-7)


def test_clear_tso_rsf_indifferent_tso_picks_cheapest_step():
    case = micro_case(leaf_e=0.0, tso_need=0.0, root_down=False, limit=10.0,
                      z_min=-5.0, z_max=5.0)
    rsf = build_rsf(case, 1, [-2.0, 0.0, 2.0])
    # Steps cost (80, 0, 0-ish); the TSO's own need is zero either way.
    result, selected = clear_tso_rsf(case, {1: rsf})
    chosen = rsf.steps[selected[1]]
    assert chosen.cost == pytest.approx(min(s.cost for s in rsf.steps), abs=1e-7)


def test_clear_tso_rsf_matches_exhaustive_enumeration(m1):
    rsf = build_rsf(m1, 1, np.arange(-8.0, 8.01, 0.5))
    result, selected = clear_tso_rsf(m1, {1: rsf})

    # Enumerate every step: pin the interface flow, solve the TSO side as
    # an LP, add the stored step cost.
    from flexmkt.clearing import _CaseProgram
    from flexmkt.mp_solver import solve_lp

    best = math.inf
    for step in rsf.steps:
        prog = _CaseProgram(m1)
        prog.add_z(1, step.z, step.z)
        prog.add_system(0)
        sol = solve_lp(prog.lp)
        if sol.status == "optimal":
            best = min(best, sol.objective + step.cost)
    assert result.objective == pytest.approx(best, abs=1e-9)


@pytest.mark.parametrize("n_dsos,n_steps", [(1, 8), (2, 5), (3, 4)])
def test_rsf_selection_equals_step_enumeration(n_dsos, n_steps):
    # The one-hot program solves the restricted benchmark exactly: its
    # optimum equals brute-force enumeration over all step combinations.
    case = generate_case(CaseRecipe(style="B", n_dsos=n_dsos, tn_buses=5), 2)
    rsfs = {}
    for dso in case.dsos:
        grid = np.linspace(dso.z_min, dso.z_max, n_steps)
        rsfs[dso.index] = build_rsf(case, dso.index, grid)
    result, selected = clear_tso_rsf(case, rsfs)

    from flexmkt.clearing import _CaseProgram
    from flexmkt.mp_solver import solve_lp

    best = math.inf
    for combo in itertools.product(*[rsfs[m].steps for m in case.dso_indices]):
        prog = _CaseProgram(case)
        for dso, step in zip(case.dsos, combo):
            prog.add_z(dso.index, step.z, step.z)
        prog.add_system(0)
        sol = solve_lp(prog.lp)
        if sol.status == "optimal":
            best = min(best, sol.objective + sum(s.cost for s in combo))
    assert result.objective == pytest.approx(best, abs=1e-9)


# ---------------------------------------------------------------------------
# End-to-end aggregation
# ---------------------------------------------------------------------------

def test_aggregation_single_step_degenerate_but_safe():
    case = micro_case(root_down=False, z_min=4.0, z_max=4.0)
    out = run_bid_aggregation(case, 1000.0, 0, "primal")
    assert out.status == "ok"
    assert out.safe
    assert out.layer2.interface_flows[1] == pytest.approx(4.0)


def test_aggregation_contract_checks(m1):
    with pytest.raises(ContractError):
        run_bid_aggregation(m1, 0.0)
    with pytest.raises(ContractError, match="delta_bar"):
        run_bid_aggregation(m1, float("nan"))
    with pytest.raises(ContractError):
        run_bid_aggregation(m1, 1.0, -1)
    with pytest.raises(ContractError):
        run_bid_aggregation(m1, 1.0, 0, "tertiary")


def test_aggregation_refuses_a_grid_too_large_to_build(m1, tmp_path):
    # Interface bounds at the "unlimited" sentinel, sampled every MW, would
    # take 2e9 grid points: the grid is refused before any point is made,
    # and run_experiment writes an error row and goes on.
    case = replace(m1, dsos=tuple(replace(d, z_min=-UNLIMITED, z_max=UNLIMITED)
                                  for d in m1.dsos))
    message = "span of 2000000000.0 MW at a step of 1.0 MW would have more than 10000 points"
    with pytest.raises(ContractError, match=message):
        run_bid_aggregation(case, 1.0)
    path = run_experiment(ExperimentConfig(
        cases=((case.name, 0, case),), methods=("aggregation_dual", "three_layer"),
        pricings=("none",), deltas=(1.0,), out_dir=str(tmp_path)))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [(r["method"], r["status"]) for r in csv.DictReader(fh)]
    assert rows == [("aggregation_dual", f"error: an RSF grid over a {message}"),
                    ("three_layer", "ok")]


def test_total_cost_decomposes_into_layer_objectives():
    # The outcome total recomputed from volumes equals the sum of the layer
    # objectives once interface-price transfers are stripped: the local
    # layer pays c_z per imported MW, the TSO layer books the same amount
    # as revenue.
    case = generate_case(CaseRecipe(style="C"), 12)
    common = clear_common(case)
    shared = CaseClearings(case, common)
    rule = interface_price(case, "midpoint", common)
    out = run_sequential(case, rule, "practical", clearings=shared)
    assert out.status == "ok"
    layer_sum = 0.0
    for m, res in out.layer1.items():
        layer_sum += res.objective - rule.price(m) * res.interface_flows[m]
    layer_sum += out.layer2.objective + sum(
        rule.price(m) * out.layer2.interface_flows[m] for m in case.dso_indices)
    assert out.total_cost == pytest.approx(layer_sum, abs=1e-6)


def test_aggregation_totals_match_bid_cost_identity(m1):
    out = run_bid_aggregation(m1, 0.5, 0, "primal")
    from flexmkt.clearing import bid_cost
    assert out.total_cost == pytest.approx(
        bid_cost(m1, out.final_upward, out.final_downward), abs=1e-6)
    # For the exact-cost variant the TSO objective already is the total.
    assert out.layer2.objective == pytest.approx(out.total_cost, abs=1e-6)


def test_final_volumes_hold_only_cleared_bids():
    case = generate_case(CaseRecipe(style="C", n_dsos=3), 2)
    rule = none_pricing(case)
    for out in (run_three_layer(case, rule), run_bid_filtering(case, rule),
                run_bid_aggregation(case, 2.0)):
        volumes = [*out.final_upward.values(), *out.final_downward.values()]
        assert volumes and 0.0 not in volumes, out.method


def test_aggregation_tightness_when_benchmark_flows_on_grid():
    for style, seed in (("B", 1), ("C", 2)):
        case = generate_case(CaseRecipe(style=style), seed)
        common = clear_common(case)
        shared = CaseClearings(case, common)
        out = run_bid_aggregation(case, 1.0, 0, "primal", clearings=shared,
                                  extra_grid={m: (common.interface_flows[m],)
                                              for m in case.dso_indices})
        assert out.total_cost == pytest.approx(common.objective,
                                               rel=1e-6, abs=1e-6)


def test_aggregation_refinement_never_worse():
    case = generate_case(CaseRecipe(style="B"), 4)
    common = clear_common(case)
    shared = CaseClearings(case, common)
    prev = None
    for rounds in (0, 1, 2):
        out = run_bid_aggregation(case, 2.0, rounds, "primal", clearings=shared)
        assert out.safe
        if prev is not None:
            assert out.total_cost <= prev + 1e-6
        prev = out.total_cost


def test_aggregation_dual_variant_never_beats_primal():
    for style, seed in (("B", 5), ("C", 6), ("D", 7)):
        case = generate_case(CaseRecipe(style=style), seed)
        common = clear_common(case)
        shared = CaseClearings(case, common)
        p = run_bid_aggregation(case, 0.8, 0, "primal", clearings=shared)
        d = run_bid_aggregation(case, 0.8, 0, "dual", clearings=shared)
        assert p.total_cost <= d.total_cost + 1e-6


def tso_unbalanceable_case() -> MarketCase:
    """A DSO that can serve every pin in +/-1 MW with its own bids, behind
    a transmission grid with a 50 MW deficit and no bids: no combination
    of forwarded steps balances the TSO."""
    tn = Network(buses=(1, 2), lines=(Line(1, 2, 0.1, -100.0, 100.0),), root=1)
    dn = Network(buses=(1, 2), lines=(Line(1, 2, 0.1, -10.0, 10.0),), root=1)
    dso = DistributionSystem(index=1, network=dn, coupling_bus=2, z_min=-1.0,
                             z_max=1.0, base_injections=(0.0, 0.0))
    bids = (Bid("d-u", 1, 2, "up", 40.0, 5.0), Bid("d-d", 1, 2, "down", 10.0, 5.0))
    return MarketCase(transmission=tn, base_injections=(0.0, 50.0), dsos=(dso,),
                      bids=bids, name="tso-unbalanceable")


@pytest.mark.parametrize("variant", ["primal", "dual"])
@pytest.mark.parametrize("make,status", [(layer1_infeasible_case, "rsf_infeasible"),
                                         (tso_unbalanceable_case, "layer2_infeasible")])
def test_aggregation_reports_an_uncleared_case_as_a_status(make, status, variant):
    case = make()
    out = run_bid_aggregation(case, 0.5, 1, variant)
    assert (out.method, out.status) == (f"aggregation_{variant}", status)
    assert out.safe is None and out.eta_pct is None and math.isnan(out.total_cost)
    assert out.layer2 is None and not out.final_upward and not out.final_downward
    # Five grid points over +/-1 MW, all pinned before the run stopped.
    assert out.lp_solves == 5


def tso_fractional_case() -> MarketCase:
    """A DSO that can serve every pin in +/-2 MW with its own bids, behind
    a transmission grid with a 1 MW deficit and no bids. At step 2.0 the
    forwarded flows are -2, 0 and 2 MW: the MILP's relaxation balances
    the TSO with a fractional mix, and every branch fails."""
    tn = Network(buses=(1, 2), lines=(Line(1, 2, 0.1, -100.0, 100.0),), root=1)
    dn = Network(buses=(1, 2), lines=(Line(1, 2, 0.1, -10.0, 10.0),), root=1)
    dso = DistributionSystem(index=1, network=dn, coupling_bus=2, z_min=-2.0,
                             z_max=2.0, base_injections=(0.0, 0.0))
    bids = (Bid("d-u", 1, 2, "up", 40.0, 5.0), Bid("d-d", 1, 2, "down", 10.0, 5.0))
    return MarketCase(transmission=tn, base_injections=(0.0, 1.0), dsos=(dso,),
                      bids=bids, name="tso-fractional")


def test_clear_tso_rsf_returns_a_failed_milp_with_its_nodes():
    case = tso_fractional_case()
    rsf = build_rsf(case, 1, [-2.0, 0.0, 2.0])
    assert [s.z for s in rsf.steps] == [-2.0, 0.0, 2.0]
    result, selected = clear_tso_rsf(case, {1: rsf})
    assert (result.status, result.nodes, selected) == ("infeasible", 3, {})


@pytest.mark.parametrize("variant", ["primal", "dual"])
def test_failed_tso_milp_nodes_reach_the_outcome(variant):
    # One branch per step, each infeasible; the refinement round never runs.
    out = run_bid_aggregation(tso_fractional_case(), 2.0, 1, variant)
    assert (out.status, out.milp_nodes, out.lp_solves) == ("layer2_infeasible", 3, 3)
    assert out.layer1 == {} and out.layer2 is None and out.details == {}


def test_aggregation_layer1_is_the_settled_step_clearings(m1):
    shared = CaseClearings(m1)
    out = run_bid_aggregation(m1, 1.0, 1, "dual", clearings=shared)
    assert out.status == "ok" and set(out.layer1) == set(m1.dso_indices)
    for m, z in out.layer2.interface_flows.items():
        [(pinned, _)] = shared.pin({m: [z]})[m]
        assert out.layer1[m] is pinned
    assert list(out.details) == ["realized_deltas"]


def test_aggregation_solve_accounting(m1):
    # One local solve per grid point: span/gap intervals plus both
    # endpoints, plus the zero point when it is not already on the grid.
    out = run_bid_aggregation(m1, 1.0, 0, "primal")
    dso = m1.dsos[0]
    n = math.ceil((dso.z_max - dso.z_min) / 1.0)
    points = {float(v) for v in np.linspace(dso.z_min, dso.z_max, n + 1)}
    if dso.z_min < 0.0 < dso.z_max:
        points.add(0.0)
    assert out.lp_solves == len(points)
    assert out.milp_nodes >= 0


def test_aggregation_works_out_each_round_of_flows_once(monkeypatch):
    # Each DSO's flows of a round are sorted, checked and keyed once, and
    # its RSF reads them as they were handed on; the dual variant after the
    # primal one, sharing its clearings, solves no pin again.
    from flexmkt import clearing, forwarding
    case = generate_case(CaseRecipe(style="B", n_dsos=2, dso_buses=7), 3)
    calls = {"flows": [], "keys": 0, "pinned": [], "in_pin": False}
    rsf_flows, exact, pin = forwarding._rsf_flows, clearing._exact, clearing.clear_dso_fixed_interface
    pin_method = CaseClearings.pin

    def counted_flows(case, m, grid):
        calls["flows"].append(m)
        return rsf_flows(case, m, grid)

    def keying_pins(self, flows):
        calls["in_pin"] = True
        try:
            return pin_method(self, flows)
        finally:
            calls["in_pin"] = False

    def counted_exact(z):
        # Only the pin keys: the shared MILP is keyed through _exact too.
        calls["keys"] += calls["in_pin"]
        return exact(z)

    def counted_pin(case, flows):
        calls["pinned"].append(sum(map(len, flows.values())))
        return pin(case, flows)

    monkeypatch.setattr(forwarding, "_rsf_flows", counted_flows)
    monkeypatch.setattr(CaseClearings, "pin", keying_pins)
    monkeypatch.setattr(clearing, "_exact", counted_exact)
    monkeypatch.setattr(clearing, "clear_dso_fixed_interface", counted_pin)
    shared = CaseClearings(case)
    outs = {}
    for variant in ("primal", "dual"):
        calls["flows"], calls["keys"] = [], 0
        outs[variant] = out = run_bid_aggregation(case, 2.0, 1, variant, clearings=shared)
        assert out.status == "ok"
        assert calls["flows"] == list(case.dso_indices) * 2  # two rounds
        assert calls["keys"] == out.lp_solves  # no grid point is a near-duplicate
    assert len(calls["pinned"]) == 2 and sum(calls["pinned"]) <= outs["primal"].lp_solves
    assert outs["dual"].lp_solves == outs["primal"].lp_solves


# ---------------------------------------------------------------------------
# Suboptimality constant
# ---------------------------------------------------------------------------

def zero_price_case():
    case = micro_case()
    bids = tuple(Bid(b.id, b.system, b.bus, b.direction, 0.0, b.quantity_max)
                 for b in case.bids)
    return MarketCase(transmission=case.transmission,
                      base_injections=case.base_injections,
                      dsos=case.dsos, bids=bids)


def scaled_price_case(factor):
    case = micro_case()
    bids = tuple(Bid(b.id, b.system, b.bus, b.direction, factor * b.price,
                     b.quantity_max) for b in case.bids)
    return MarketCase(transmission=case.transmission,
                      base_injections=case.base_injections,
                      dsos=case.dsos, bids=bids)


def test_suboptimality_constant_zero_prices():
    assert suboptimality_constant(zero_price_case()) == pytest.approx(0.0, abs=1e-9)


def test_suboptimality_constant_price_homogeneity():
    base = suboptimality_constant(scaled_price_case(1.0))
    doubled = suboptimality_constant(scaled_price_case(2.0))
    assert doubled == pytest.approx(2.0 * base, rel=1e-9)


def test_suboptimality_constant_dominates_benchmark_sensitivity(m1):
    # Finite-difference the benchmark cost against a forced interface step.
    L = suboptimality_constant(m1)
    common = clear_common(m1)
    z_opt = common.interface_flows[1]
    eps = 0.01
    for direction in (+1.0, -1.0):
        shifted = z_opt + direction * eps
        if not m1.dsos[0].z_min <= shifted <= m1.dsos[0].z_max:
            continue
        probe = run_bid_aggregation(m1, 1000.0, 0, "primal",
                                    extra_grid={1: (shifted,)})
        slope = abs(probe.total_cost - common.objective) / eps
        assert slope <= L + 1e-6


def test_step_size_bound_on_generated_cases():
    for style, seed in (("B", 8), ("C", 9)):
        case = generate_case(CaseRecipe(style=style), seed)
        common = clear_common(case)
        shared = CaseClearings(case, common)
        L = suboptimality_constant(case, clearings=shared)
        for delta in (2.0, 1.0, 0.5):
            out = run_bid_aggregation(case, delta, 0, "primal", clearings=shared)
            gap = out.total_cost - common.objective
            assert gap >= -1e-6 * (1.0 + abs(common.objective))
            assert gap <= L * delta + 1e-6 * (1.0 + abs(common.objective))


def test_selected_flow_near_benchmark_optimum(m1_wide):
    # Uniquely-sloped residual cost: the selected step sits within one
    # realized gap of the benchmark-optimal interface flow.
    common = clear_common(m1_wide)
    shared = CaseClearings(m1_wide, common)
    out = run_bid_aggregation(m1_wide, 0.75, 0, "primal", clearings=shared)
    z_sel = out.layer2.interface_flows[1]
    delta = out.details["realized_deltas"][1]
    assert abs(z_sel - common.interface_flows[1]) <= delta + 1e-9


def _pinned_common_duals(case, zvec):
    """Status and pin duals of the common program with every interface
    flow pinned at ``zvec``."""
    prog = _common_program(case, bound_interfaces=False)
    rows = {m: prog.pin_z(m, zvec[m]) for m in case.dso_indices}
    sol = solve_lp(prog.lp)
    if sol.status != "optimal":
        return sol.status, {}
    return sol.status, {m: float(sol.duals[row]) for m, row in rows.items()}


@pytest.fixture(scope="module")
def interior_probe_cases():
    """Per case: the case, its suboptimality constant, and the feasible
    pins among the benchmark optimum and the corners of the flow
    intervals. The feasible flows form a convex set, so every convex
    combination of these anchors is a feasible pin."""
    out = {}
    for style, seed in (("A", 21), ("B", 22), ("C", 23), ("D", 24)):
        case = generate_case(CaseRecipe(style=style), seed)
        shared = CaseClearings(case)
        constant = suboptimality_constant(case, clearings=shared)
        intervals = [dso_flow_interval(case, m) for m in case.dso_indices]
        candidates = [dict(shared.common.interface_flows)]
        candidates += [dict(zip(case.dso_indices, corner))
                       for corner in itertools.product(*intervals)]
        anchors = [z for z in candidates if _pinned_common_duals(case, z)[0] == "optimal"]
        out[case.name] = (case, constant, anchors)
    return out


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_suboptimality_constant_bounds_interior_pin_duals(interior_probe_cases, data):
    # The constant comes from corner and optimum pins only; at random
    # interior pins the summed pin duals (the local Lipschitz constant
    # against a max-norm flow error) must not exceed it either.
    name = data.draw(st.sampled_from(sorted(interior_probe_cases)))
    case, constant, anchors = interior_probe_cases[name]
    weights = data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(anchors),
                                 max_size=len(anchors)))
    total = sum(weights)
    assume(total > 1e-6)
    zvec = {m: sum(w * z[m] for w, z in zip(weights, anchors)) / total
            for m in case.dso_indices}
    status, duals = _pinned_common_duals(case, zvec)
    assert status == "optimal", (name, zvec)
    assert sum(abs(d) for d in duals.values()) <= constant * (1.0 + 1e-9) + 1e-9, \
        (name, zvec, duals, constant)
