"""Grid-safety verdicts, the inefficiency metric, and the shipped oracle."""

from dataclasses import replace

import numpy as np
import pytest

from flexmkt.casegen import CaseRecipe, generate_case
from flexmkt.clearing import (CaseClearings, bid_cost, clear_common, clear_dso_layer1,
                              interface_price)
from flexmkt.errors import ContractError, OracleError
from flexmkt.forwarding import layer3_overload, run_bid_filtering, run_three_layer
from flexmkt.market_model import Bid, DistributionSystem, MarketCase
from flexmkt.netmodel import Line, Network
from flexmkt.safety import brute_force_oracle, inefficiency, is_grid_safe

from conftest import micro_case


def test_zero_volumes_zero_imbalance_safe():
    case = micro_case(leaf_e=0.0, tso_need=0.0)
    verdict = is_grid_safe(case, {}, {})
    assert verdict.safe
    assert verdict.max_flow_violation <= 1e-9


def test_forced_leaf_volume_within_limit_is_safe():
    # 5 MW upward at a leaf that needs 6 leaves 1 MW on the line.
    case = micro_case(root_down=False)
    verdict = is_grid_safe(case, {"d-u": 5.0, "t-u": 3.0}, {})
    assert verdict.safe


def test_forced_leaf_volume_beyond_limit_is_unsafe():
    # Variant with a 10 MW need: 5 MW of upward still leaves a 5 MW draw,
    # one MW above the 4 MW line limit, and no interface flow can help.
    case = micro_case(root_down=False, leaf_e=10.0, z_max=8.0)
    verdict = is_grid_safe(case, {"d-u": 5.0, "t-u": 5.0}, {})
    assert not verdict.safe
    assert verdict.system_feasible[0] is True
    assert verdict.system_feasible[1] is False
    assert verdict.max_flow_violation == pytest.approx(1.0, abs=1e-6)


def test_safety_monotone_in_line_capacity():
    rng = np.random.default_rng(5)
    for seed in range(10):
        case = generate_case(CaseRecipe(style="B"), seed)
        up = {b.id: float(rng.uniform(0.0, b.quantity_max))
              for b in case.bids if b.direction == "up"}
        down = {b.id: float(rng.uniform(0.0, b.quantity_max))
                for b in case.bids if b.direction == "down"}
        before = is_grid_safe(case, up, down)
        bigger = MarketCase(
            transmission=case.transmission,
            base_injections=case.base_injections,
            dsos=tuple(
                DistributionSystem(
                    index=d.index,
                    network=Network(buses=d.network.buses, root=d.network.root,
                                    lines=tuple(Line(l.from_bus, l.to_bus, l.reactance,
                                                     2.0 * l.f_min, 2.0 * l.f_max)
                                                for l in d.network.lines)),
                    coupling_bus=d.coupling_bus, z_min=d.z_min, z_max=d.z_max,
                    base_injections=d.base_injections)
                for d in case.dsos),
            bids=case.bids, name=case.name)
        after = is_grid_safe(bigger, up, down)
        if before.safe:
            assert after.safe


def test_layer1_only_clearing_is_safe():
    for style in "ABCD":
        case = generate_case(CaseRecipe(style=style), 11)
        rule = interface_price(case, "none")
        up: dict[str, float] = {}
        down: dict[str, float] = {}
        for m in case.dso_indices:
            res = clear_dso_layer1(case, m, rule)
            up.update(res.upward)
            down.update(res.downward)
        assert is_grid_safe(case, up, down).safe


# ---------------------------------------------------------------------------
# Inefficiency metric
# ---------------------------------------------------------------------------

def test_eta_zero_when_equal():
    rep = inefficiency(100.0, 100.0)
    assert rep.eta_pct == pytest.approx(0.0)
    assert rep.gap == pytest.approx(0.0)


def test_eta_worked_arithmetic():
    # 100 * (20 - (-19)) / 19 = 205.263...%
    rep = inefficiency(20.0, -19.0)
    assert rep.eta_pct == pytest.approx(100.0 * 39.0 / 19.0, abs=1e-9)
    assert rep.eta_pct == pytest.approx(205.2631578947, abs=1e-6)


def test_eta_division_guard():
    rep = inefficiency(3.0, 0.0)
    assert rep.eta_pct is None
    assert rep.gap == pytest.approx(3.0)


def test_eta_requires_finite_inputs():
    with pytest.raises(ContractError):
        inefficiency(float("nan"), 1.0)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def test_oracle_zero_case():
    case = micro_case(leaf_e=0.0, tso_need=0.0, root_down=False)
    res = brute_force_oracle(case, 0.5)
    assert res.objective == pytest.approx(0.0, abs=1e-9)


def test_oracle_refuses_large_instances():
    case = generate_case(CaseRecipe(style="A"), 0)
    with pytest.raises(OracleError, match="refuses"):
        brute_force_oracle(case, 0.5)
    with pytest.raises(OracleError):
        brute_force_oracle(micro_case(), -0.1)


def test_oracle_sandwich_on_micro_case(m1):
    # Oracle values can only sit above the continuous optimum, and within
    # the grid-resolution band: cost Lipschitz (max price 40) times step
    # times the enumerated dimension count keeps 2.0 conservative at 0.1.
    lp_value = clear_common(m1).objective
    oracle = brute_force_oracle(m1, 0.1)
    assert oracle.objective >= lp_value - 1e-7
    assert oracle.objective <= lp_value + 2.0
    assert oracle.objective == pytest.approx(20.0, abs=1e-9)


def test_oracle_cross_validates_solver_on_micro_cases():
    # 50 random micro instances: the benchmark clearing must land inside
    # the oracle band (criterion 10, oracle half).
    rng = np.random.default_rng(123)
    checked = 0
    for trial in range(50):
        limit = float(rng.uniform(2.0, 8.0))
        leaf_e = float(rng.uniform(0.0, 7.0))
        z_max = float(rng.uniform(2.0, 8.0))
        need = float(rng.uniform(-6.0, 8.0))
        case = micro_case(limit=limit, leaf_e=leaf_e, z_max=z_max,
                          z_min=-2.0, tso_need=need,
                          root_down=bool(rng.integers(0, 2)))
        common = clear_common(case)
        if common.status != "optimal":
            continue
        step = 0.25
        oracle = brute_force_oracle(case, step)
        band = 40.0 * step * (len(case.bids) + 1)
        assert oracle.objective >= common.objective - 1e-7
        assert oracle.objective <= common.objective + band
        checked += 1
    assert checked >= 45


# ---------------------------------------------------------------------------
# Point evaluation against the violation-minimizing program
# ---------------------------------------------------------------------------

def reference_safe(case, upward, downward) -> bool:
    """Grid safety as a violation-minimizing LP, solved by HiGHS.

    Volumes are constants; injections and interface flows are free. Line
    limits and interface bounds carry non-negative violation slacks, each
    distribution system's consistency row a free residual split into two
    non-negative parts; the transmission grid checks line flows only. The
    volumes are safe when the largest slack at the optimum is at most 1e-6.
    """
    from scipy.optimize import linprog

    from flexmkt.netmodel import build_sensitivity

    systems = [(0, case.transmission, case.base_injections)] + [
        (d.index, d.network, d.base_injections) for d in case.dsos]
    n_dso = len(case.dsos)
    z_col = {d.index: k for k, d in enumerate(case.dsos)}
    col = n_dso
    p_col = {}
    for sid, net, _ in systems:
        p_col[sid] = col
        col += net.n_buses
    first_slack = col
    vz_col = {d.index: col + k for k, d in enumerate(case.dsos)}
    col += n_dso
    resid_col = {d.index: col + 2 * k for k, d in enumerate(case.dsos)}
    col += 2 * n_dso
    v_col = {}
    for sid, net, _ in systems:
        v_col[sid] = col
        col += net.n_lines
    n = col

    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    for sid, net, e in systems:
        vol = np.zeros(net.n_buses)
        for b in case.bids_of(sid):
            v = upward.get(b.id, 0.0) if b.direction == "up" else -downward.get(b.id, 0.0)
            vol[net.bus_index[b.bus]] += v
        for k, bus in enumerate(net.buses):
            row = np.zeros(n)
            row[p_col[sid] + k] = -1.0
            if sid == 0:
                for d in case.dsos:
                    if d.coupling_bus == bus:
                        row[z_col[d.index]] += 1.0
            elif bus == net.root:
                row[z_col[sid]] += 1.0
            a_eq.append(row)
            b_eq.append(e[k] - vol[k])
        if sid != 0:
            row = np.zeros(n)
            row[p_col[sid]:p_col[sid] + net.n_buses] = 1.0
            row[resid_col[sid]], row[resid_col[sid] + 1] = -1.0, 1.0
            a_eq.append(row)
            b_eq.append(0.0)
        sens = build_sensitivity(net)
        for li, ln in enumerate(net.lines):
            for sign, limit in ((1.0, ln.f_max), (-1.0, -ln.f_min)):
                row = np.zeros(n)
                row[p_col[sid]:p_col[sid] + net.n_buses] = sign * sens[li]
                row[v_col[sid] + li] = -1.0
                a_ub.append(row)
                b_ub.append(limit)
    for d in case.dsos:
        for sign, limit in ((1.0, d.z_max), (-1.0, -d.z_min)):
            row = np.zeros(n)
            row[z_col[d.index]] = sign
            row[vz_col[d.index]] = -1.0
            a_ub.append(row)
            b_ub.append(limit)
    c = np.zeros(n)
    c[first_slack:] = 1.0
    bounds = [(None, None)] * first_slack + [(0.0, None)] * (n - first_slack)
    res = linprog(c, A_ub=np.array(a_ub), b_ub=b_ub, A_eq=np.array(a_eq), b_eq=b_eq,
                  bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return bool(np.max(res.x[first_slack:], initial=0.0) <= 1e-6)


def _cut_transmission(case, limit):
    tn = case.transmission
    return replace(case, transmission=Network(
        buses=tn.buses, root=tn.root,
        lines=tuple(Line(ln.from_bus, ln.to_bus, ln.reactance, -limit, limit)
                    for ln in tn.lines)))


@pytest.mark.parametrize("style", "ABCD")
def test_safe_agrees_with_violation_minimizing_program(style):
    rng = np.random.default_rng(ord(style))
    verdicts = []
    for n_dsos in (1, 2, 3):
        recipe = CaseRecipe(style=style, n_dsos=n_dsos, dso_buses=6, tn_buses=n_dsos + 2)
        for seed in range(2):
            base = generate_case(recipe, seed)
            for limit in (None, 2.0, 5.0, 10.0):
                case = base if limit is None else _cut_transmission(base, limit)
                for _ in range(3):
                    # Volume scales from far below to past full activation,
                    # so the probes mix safe and unsafe points.
                    scale = float(rng.choice([0.05, 0.3, 1.0]))
                    up = {b.id: scale * float(rng.uniform(0.0, b.quantity_max))
                          for b in case.bids if b.direction == "up"}
                    down = {b.id: scale * float(rng.uniform(0.0, b.quantity_max))
                            for b in case.bids if b.direction == "down"}
                    verdict = is_grid_safe(case, up, down)
                    assert verdict.safe == reference_safe(case, up, down)
                    verdicts.append(verdict.safe)
    assert any(verdicts) and not all(verdicts)


def test_interface_flow_overloading_transmission_is_charged_to_both_systems():
    # The DSO's consistency row forces z = 6 - 1 = 5 MW: one MW past its
    # 4 MW interface bound, and 2 MW past the 3 MW transmission line that
    # carries it from the root to the coupling bus. The feeder line itself
    # carries 6 - 1 = 5 MW of its 10.
    tn = Network(buses=(1, 2), lines=(Line(1, 2, 0.1, -3.0, 3.0),), root=1)
    dn = Network(buses=(1, 2), lines=(Line(1, 2, 0.08, -10.0, 10.0),), root=1)
    dso = DistributionSystem(index=1, network=dn, coupling_bus=2, z_min=-8.0,
                             z_max=4.0, base_injections=(0.0, 6.0))
    case = MarketCase(transmission=tn, base_injections=(0.0, 0.0), dsos=(dso,),
                      bids=(Bid("t-u", 0, 1, "up", 35.0, 10.0),
                            Bid("d-u", 1, 2, "up", 40.0, 5.0)),
                      name="ring-overload")
    verdict = is_grid_safe(case, {"d-u": 1.0}, {})
    assert not verdict.safe
    assert verdict.system_feasible == {0: False, 1: False}
    assert verdict.max_flow_violation == pytest.approx(2.0, abs=1e-12)
    assert verdict.max_interface_violation == pytest.approx(1.0, abs=1e-12)
    assert not reference_safe(case, {"d-u": 1.0}, {})
    # Two more MW of local upward volume bring z back to 3 MW: safe.
    assert is_grid_safe(case, {"d-u": 3.0}, {}).safe


def test_three_layer_verdict_matches_is_grid_safe():
    verdicts = []
    for style in "ABCD":
        for seed in range(4):
            case = generate_case(CaseRecipe(style=style, congestion=0.7), seed)
            common = clear_common(case)
            shared = CaseClearings(case, common)
            for kind in ("none", "midpoint", "optimal"):
                out = run_three_layer(case, interface_price(case, kind, common),
                                      clearings=shared)
                assert out.status == "ok"
                final = is_grid_safe(case, out.final_upward, out.final_downward)
                assert out.safe == final.safe
                # The paper's statement: safe exactly when every correction
                # problem is feasible; the infeasible ones carry an overload.
                assert out.safe == all(r.status == "optimal" for r in out.layer3.values())
                assert set(layer3_overload(case, out, clearings=shared)) == \
                    {m for m, r in out.layer3.items() if r.status != "optimal"}
                verdicts.append(out.safe)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("table,bad", [("up", "d1-d0"), ("up", "d1-u0x"), ("down", "t-u0")])
def test_volumes_under_ids_that_are_not_bids_of_that_direction_are_refused(table, bad):
    # A downward bid's id among the upward volumes, a typo, or an upward
    # bid's id among the downward volumes would otherwise read as zero
    # volume: the verdict stays safe and the cost does not move.
    case = generate_case(CaseRecipe(style="B"), 1)
    out = run_bid_filtering(case, interface_price(case, "none"))
    assert out.status == "ok" and out.safe
    up, down = dict(out.final_upward), dict(out.final_downward)
    (up if table == "up" else down)[bad] = 1e6
    for check in (is_grid_safe, bid_cost):
        with pytest.raises(ContractError, match=bad):
            check(case, up, down)
