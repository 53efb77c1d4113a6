"""The three grid-safe bid-forwarding methods and their shared outcome type.

* Corrective three-layer scheme: clear both market layers, then let every
  DSO buy corrective volumes against its own grid model with the
  interface flow frozen at the TSO outcome. Safe exactly when each
  correction problem is feasible.
* Bid prequalification/filtering: before the TSO layer, each DSO discards
  bids whose full remaining activation (one direction at a time, the
  corner the radial sensitivities make extremal) cannot be absorbed by
  its grid, then forwards the survivors.
* Residual-supply aggregation: each DSO clears its market for a grid of
  pinned interface flows and forwards the resulting exact step costs (or
  a dual-price surrogate); the TSO picks one step per DSO through a
  one-hot MILP. Cleared steps are grid-safe by construction.

Total cost of an outcome is always the bid procurement cost of the final
volumes; interface-price transfers cancel between layers and are not part
of it.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .clearing import (
    ClearingResult,
    PricingRule,
    _CaseProgram,
    _common_program,
    bid_cost,
    clear_common,
    clear_dso_fixed_interface,
    clear_dso_layer1,
    clear_fragmented_layer2,
    clear_idealized_layer2,
    clear_tso_layer2,
)
from .errors import ContractError, ModelError
from .market_model import DIR_DOWN, DIR_UP, MarketCase
from .mp_solver import INF, MixedProgram, solve_lp, solve_milp
from .safety import _SAFE_TOL, SafetyVerdict, _dso_point, inefficiency, is_grid_safe

__all__ = [
    "Outcome", "Rsf", "RsfStep", "FilterResult",
    "run_sequential", "run_three_layer", "filter_bids", "run_bid_filtering",
    "build_rsf", "build_rsf_dual", "clear_tso_rsf", "run_bid_aggregation",
    "suboptimality_constant",
]


@dataclass(frozen=True)
class Outcome:
    """End-to-end result of one method on one case."""

    method: str
    status: str
    layer1: dict[int, ClearingResult]
    layer2: ClearingResult | None
    layer3: dict[int, ClearingResult]
    final_upward: dict[str, float]
    final_downward: dict[str, float]
    total_cost: float
    safety: SafetyVerdict | None
    j_common: float | None
    eta_pct: float | None
    lp_solves: int
    milp_nodes: int
    wall_ms: float
    details: dict = field(default_factory=dict)

    @property
    def safe(self) -> bool | None:
        return None if self.safety is None else self.safety.safe


def _final_volumes(*parts: ClearingResult | None):
    up: dict[str, float] = {}
    down: dict[str, float] = {}
    for part in parts:
        if part is None:
            continue
        for bid_id, v in part.upward.items():
            up[bid_id] = up.get(bid_id, 0.0) + v
        for bid_id, v in part.downward.items():
            down[bid_id] = down.get(bid_id, 0.0) + v
    return up, down


def _outcome(case: MarketCase, method: str, t0: float,
             common: ClearingResult | None, *,
             layer1: dict[int, ClearingResult], layer2: ClearingResult | None = None,
             layer3: dict[int, ClearingResult] | None = None,
             settled: tuple[ClearingResult, ...] = (), lp_solves: int,
             milp_nodes: int = 0, details: dict | None = None) -> Outcome:
    """The one way cleared parts become an Outcome.

    The status comes from the clearings: "layer1_infeasible" when a
    Layer-1 clearing is not optimal, "layer2_infeasible" when ``layer2``
    is not, "ok" otherwise. An aborted run keeps only its Layer 1 and
    solve count: no Layer 2, details, cost or verdict.

    The final volumes sum Layer 1, Layer 2, every feasible Layer-3
    correction and the ``settled`` clearings. An "ok" run is priced and
    judged by ``is_grid_safe`` on them. J_com comes from ``common``,
    cleared here when None.
    """
    if not _optimal(layer1.values()):
        status = "layer1_infeasible"
    elif layer2 is not None and layer2.status != "optimal":
        status = "layer2_infeasible"
    else:
        status = "ok"
    if status != "ok":
        layer2, details = None, None
    layer3 = layer3 or {}
    up, down = _final_volumes(*layer1.values(), layer2, *settled,
                              *(r for r in layer3.values() if r.status == "optimal"))
    total, verdict = float("nan"), None
    if status == "ok":
        total = bid_cost(case, up, down)
        verdict = is_grid_safe(case, up, down)
    if common is None:
        common = clear_common(case)
    j_com = common.objective if common.status == "optimal" else None
    eta = (inefficiency(total, j_com).eta_pct
           if j_com is not None and math.isfinite(total) else None)
    return Outcome(method=method, status=status, layer1=layer1, layer2=layer2,
                   layer3=layer3, final_upward=up, final_downward=down,
                   total_cost=total, safety=verdict, j_common=j_com, eta_pct=eta,
                   lp_solves=lp_solves, milp_nodes=milp_nodes,
                   wall_ms=1e3 * (time.perf_counter() - t0), details=details or {})


def _optimal(clearings) -> bool:
    return all(r.status == "optimal" for r in clearings)


# ---------------------------------------------------------------------------
# Plain sequential runs (practical, idealized, fragmented)
# ---------------------------------------------------------------------------

def run_sequential(case: MarketCase, pricing: PricingRule,
                   variant: str = "practical", *,
                   common: ClearingResult | None = None) -> Outcome:
    """Two-layer run without any forwarding protection.

    ``variant`` selects the TSO layer: practical (aggregated balances),
    idealized (full distribution constraints), or fragmented (no
    forwarding, interface flows frozen).
    """
    t0 = time.perf_counter()
    layers = {"practical": ("sequential_raw", clear_tso_layer2),
              "idealized": ("idealized", clear_idealized_layer2),
              "fragmented": ("fragmented", clear_fragmented_layer2)}
    if variant not in layers:
        raise ContractError(f"unknown sequential variant {variant!r}")
    method, clear = layers[variant]
    layer1 = {m: clear_dso_layer1(case, m, pricing) for m in case.dso_indices}
    if not _optimal(layer1.values()):
        return _outcome(case, method, t0, common, layer1=layer1, lp_solves=len(layer1))
    return _outcome(case, method, t0, common, layer1=layer1,
                    layer2=clear(case, layer1, pricing), lp_solves=len(layer1) + 1)


# ---------------------------------------------------------------------------
# Three-layer corrective scheme
# ---------------------------------------------------------------------------

def _layer3_program(case: MarketCase, m: int, prior: tuple[ClearingResult, ...],
                    z_value: float,
                    diagnostic: bool = False) -> tuple[_CaseProgram, int | None]:
    """Corrective DSO problem: the volumes of the ``prior`` clearings are
    constants, corrective volumes fill the residual boxes, the interface
    flow is frozen.

    The ``diagnostic`` variant drops the bid costs and relaxes every line
    limit by one slack, whose optimum is the smallest possible max line
    overload when the correction problem itself is infeasible. Returns
    the program and that slack variable (None without ``diagnostic``).
    """
    prog = _CaseProgram(case)
    prog.add_z(m, z_value, z_value)
    worst = prog.lp.add_variable("worst", 0.0, INF, 1.0) if diagnostic else None
    prog.add_system(m, prior=prior, cost_scale=0.0 if diagnostic else 1.0,
                    flow_slack=worst)
    return prog, worst


def run_three_layer(case: MarketCase, pricing: PricingRule, *,
                    common: ClearingResult | None = None) -> Outcome:
    """Corrective scheme: Layers 1 and 2, then one correction LP per DSO.

    The final volumes add every feasible correction to the first two
    layers, and the verdict is ``is_grid_safe`` on them, as for every other
    method: safe exactly when every correction problem is feasible. For a
    DSO whose correction is infeasible, the least achievable line overload
    (MW) is in ``details["layer3_overload_mw"]``. Infeasibility here is a
    verdict, not an exception.
    """
    t0 = time.perf_counter()
    layer1 = {m: clear_dso_layer1(case, m, pricing) for m in case.dso_indices}
    if not _optimal(layer1.values()):
        return _outcome(case, "three_layer", t0, common, layer1=layer1,
                        lp_solves=len(layer1))
    layer2 = clear_tso_layer2(case, layer1, pricing)
    solves = len(layer1) + 1
    if layer2.status != "optimal":
        return _outcome(case, "three_layer", t0, common, layer1=layer1, layer2=layer2,
                        lp_solves=solves)

    layer3: dict[int, ClearingResult] = {}
    overload: dict[int, float] = {}
    for m in case.dso_indices:
        prior = (layer1[m], layer2)
        z2 = layer2.interface_flows[m]
        prog, _ = _layer3_program(case, m, prior, z2)
        sol = solve_lp(prog.lp)
        solves += 1
        layer3[m] = prog.extract(sol)
        if sol.status != "optimal":
            prog, worst = _layer3_program(case, m, prior, z2, diagnostic=True)
            sol = solve_lp(prog.lp)
            overload[m] = float(sol.x[worst]) if sol.status == "optimal" else float("inf")

    return _outcome(case, "three_layer", t0, common, layer1=layer1,
                    layer2=layer2, layer3=layer3, lp_solves=solves,
                    details={"layer3_overload_mw": overload})


# ---------------------------------------------------------------------------
# Bid prequalification / filtering
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterResult:
    """Bids one DSO forwards, per direction, and the number of corner
    feasibility probes it took. Each probe counts as one solve (and so
    in ``Outcome.lp_solves``) although it evaluates a single point and
    solves no LP."""

    forward_up: tuple[str, ...]
    forward_down: tuple[str, ...]
    feasibility_solves: int


def _corner_feasible(case: MarketCase, m: int, layer1: ClearingResult,
                     candidates: set[str], direction: str) -> bool:
    """Feasibility of one direction's candidate set at full activation.

    Volumes of the candidate set are pinned at their full remaining
    capacity on top of the first-layer clearing, and the opposite direction
    stays at its first-layer volumes. Like the grid-safety check, the probe
    evaluates the one injection and interface-flow point these volumes fix.
    Because the survivors are later cleared only partially and only in one
    direction, feasibility of this corner certifies every clearing the TSO
    layer can produce.
    """
    fixed_up, fixed_down = {}, {}
    for b in case.bids_of(m):
        vol = layer1.volume(b)
        if b.direction == direction and b.id in candidates:
            vol += max(0.0, b.quantity_max - vol)
        if b.direction == DIR_UP:
            fixed_up[b.id] = vol
        else:
            fixed_down[b.id] = vol
    _, overload, z_excess = _dso_point(case, m, fixed_up, fixed_down)
    return max(overload, z_excess) <= _SAFE_TOL


def filter_bids(case: MarketCase, m: int, layer1: ClearingResult) -> FilterResult:
    """Iterative prequalification of one DSO's remaining bids.

    Upward candidates are dropped most-expensive-first, downward
    candidates cheapest-first (ties: lowest bid id), until the full
    activation of the surviving set is feasible for the local grid.
    """
    solves = 0

    def run(direction: str) -> tuple[str, ...]:
        nonlocal solves
        bids = {b.id: b for b in case.bids_of(m, direction)}
        live = set(bids)
        while live:
            solves += 1
            if _corner_feasible(case, m, layer1, live, direction):
                break
            if direction == DIR_UP:
                worst_price = max(bids[i].price for i in live)
            else:
                worst_price = min(bids[i].price for i in live)
            victim = min(i for i in live if bids[i].price == worst_price)
            live.remove(victim)
        return tuple(sorted(live))

    return FilterResult(forward_up=run(DIR_UP), forward_down=run(DIR_DOWN),
                        feasibility_solves=solves)


def run_bid_filtering(case: MarketCase, pricing: PricingRule, *,
                      common: ClearingResult | None = None) -> Outcome:
    """Layer 1, per-DSO filtering, then the TSO layer restricted to the
    forwarded bids. Safe under price-ordering and radiality assumptions."""
    t0 = time.perf_counter()
    layer1 = {m: clear_dso_layer1(case, m, pricing) for m in case.dso_indices}
    if not _optimal(layer1.values()):
        return _outcome(case, "filtering", t0, common, layer1=layer1,
                        lp_solves=len(layer1))
    filters = {m: filter_bids(case, m, layer1[m]) for m in case.dso_indices}
    dropped = {b.id: 0.0 for m, f in filters.items() for b in case.bids_of(m)
               if b.id not in f.forward_up + f.forward_down}
    layer2 = clear_tso_layer2(case, layer1, pricing, dist_bid_caps=dropped)
    probes = sum(f.feasibility_solves for f in filters.values())
    return _outcome(case, "filtering", t0, common, layer1=layer1, layer2=layer2,
                    lp_solves=len(layer1) + probes + 1, details={"filters": filters})


# ---------------------------------------------------------------------------
# Residual-supply-function bid aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RsfStep:
    z: float
    cost: float          # value the TSO optimizes over
    clearing: ClearingResult  # its objective is the true local optimum at z
    price_dual: float    # shadow price of the interface pin


@dataclass(frozen=True)
class Rsf:
    """Discretized residual supply function of one DSO: strictly increasing
    interface-flow steps with their stored local clearings. ``delta`` is
    the realized largest gap between consecutive feasible steps;
    ``attempts`` counts the grid points, near-duplicates included."""

    dso_index: int
    steps: tuple[RsfStep, ...]
    delta: float
    attempts: int

    def __post_init__(self):
        zs = [s.z for s in self.steps]
        if any(b <= a for a, b in zip(zs, zs[1:])):
            raise ContractError("RSF steps must be strictly increasing")


def _rsf(case: MarketCase, m: int, grid) -> Rsf:
    """Exact steps over the sorted grid: one pinned clearing per grid point
    (near-duplicates skipped), infeasible pins dropped."""
    dso = case.dso(m)
    grid = sorted(float(z) for z in grid)
    flows: list[float] = []
    for zhat in grid:
        if not dso.z_min - 1e-9 <= zhat <= dso.z_max + 1e-9:
            raise ContractError(f"grid value {zhat} outside interface bounds of DSO {m}")
        if not flows or zhat > flows[-1] + 1e-12:
            flows.append(zhat)
    solved = clear_dso_fixed_interface(case, m, flows)
    steps = tuple(RsfStep(z=z, cost=c.objective, clearing=c, price_dual=dual)
                  for z, (c, dual) in zip(flows, solved) if c.status == "optimal")
    if not steps:
        raise ModelError(f"no feasible interface flow step for DSO {m}")
    delta = max((b.z - a.z for a, b in zip(steps, steps[1:])), default=0.0)
    return Rsf(dso_index=m, steps=steps, delta=delta, attempts=len(grid))


def build_rsf(case: MarketCase, m: int, grid) -> Rsf:
    """Exact residual supply function: each feasible step carries the true
    optimal local cost for that pinned interface flow."""
    return _rsf(case, m, grid)


def build_rsf_dual(case: MarketCase, m: int, grid) -> Rsf:
    """Dual-price surrogate: anchored at the lowest feasible step's exact
    cost, then accumulated as pin shadow price times step width. Stored
    clearings still come from the exact solves."""
    rsf = _rsf(case, m, grid)
    surrogate = [rsf.steps[0].cost]
    for prev, cur in zip(rsf.steps, rsf.steps[1:]):
        surrogate.append(surrogate[-1] + prev.price_dual * (cur.z - prev.z))
    return replace(rsf, steps=tuple(replace(s, cost=c) for s, c in zip(rsf.steps, surrogate)))


def clear_tso_rsf(case: MarketCase,
                  rsfs: dict[int, Rsf]) -> tuple[ClearingResult, dict[int, int]]:
    """TSO clearing over the forwarded steps: one binary per step, one
    one-hot group per DSO, interface flows substituted by the selected
    step values. The aggregated balance is deliberately absent; it lives
    inside the stored step clearings."""
    for m in case.dso_indices:
        if m not in rsfs:
            raise ContractError(f"missing RSF for DSO {m}")
    prog = _CaseProgram(case)
    y_vars: dict[int, list[int]] = {}
    step_terms = []
    for dso in case.dsos:
        m = dso.index
        ys = []
        for k, step in enumerate(rsfs[m].steps):
            y = prog.lp.add_variable(f"y[{m},{k}]", 0.0, 1.0, cost=step.cost)
            ys.append(y)
            if step.z != 0.0:
                step_terms.append((dso.coupling_bus, y, step.z))
        y_vars[m] = ys
    prog.add_system(0, step_terms=step_terms)
    mp = MixedProgram(prog.lp, [y_vars[m] for m in case.dso_indices])
    sol = solve_milp(mp)
    if sol.status != "optimal":
        raise ModelError(f"aggregation TSO program is {sol.status}; the TSO "
                         "cannot balance any forwarded step combination")
    selected = {}
    for m in case.dso_indices:
        chosen = max(range(len(y_vars[m])), key=lambda k: sol.x[y_vars[m][k]])
        selected[m] = chosen
    result = prog.extract(sol)
    result = replace(
        result,
        interface_flows={m: rsfs[m].steps[k].z for m, k in selected.items()},
        nodes=sol.nodes,
    )
    return result, selected


def _uniform_grid(lo: float, hi: float, max_gap: float,
                  must_include: tuple[float, ...] = ()) -> list[float]:
    if hi <= lo:
        return [lo]
    n = max(1, math.ceil((hi - lo) / max_gap))
    points = set(float(v) for v in np.linspace(lo, hi, n + 1))
    if lo < 0.0 < hi:
        points.add(0.0)
    for v in must_include:
        if lo <= v <= hi:
            points.add(float(v))
    return sorted(points)


def run_bid_aggregation(case: MarketCase, delta_bar: float,
                        refine_rounds: int = 0, variant: str = "primal", *,
                        common: ClearingResult | None = None,
                        extra_grid: dict[int, tuple[float, ...]] | None = None) -> Outcome:
    """End-to-end aggregation method.

    Uniform interface-flow grids with gap at most ``delta_bar`` (endpoints
    always included, zero included when interior) feed the residual supply
    functions; the TSO MILP picks one step per DSO; each DSO then settles
    on its stored clearing for the chosen step. Every refinement round
    re-grids a band of one realized gap around the previous selection at a
    tenth of the spacing and repeats; the previous selection stays on the
    grid, so refinement never worsens the outcome. ``extra_grid`` lets
    tests inject specific flow values (for example common-market optima).
    """
    if not delta_bar > 0.0:
        raise ContractError("delta_bar must be positive")
    if variant not in ("primal", "dual"):
        raise ContractError(f"unknown RSF variant {variant!r}")
    if refine_rounds < 0:
        raise ContractError("refine_rounds must be non-negative")
    build = build_rsf if variant == "primal" else build_rsf_dual

    t0 = time.perf_counter()
    extra = extra_grid or {}
    grids = {
        dso.index: _uniform_grid(dso.z_min, dso.z_max, delta_bar,
                                 must_include=tuple(extra.get(dso.index, ())))
        for dso in case.dsos
    }
    solves = 0
    milp_nodes = 0
    rsfs: dict[int, Rsf] = {}
    result: ClearingResult | None = None
    selected: dict[int, int] = {}
    for round_no in range(refine_rounds + 1):
        rsfs = {m: build(case, m, grids[m]) for m in case.dso_indices}
        solves += sum(r.attempts for r in rsfs.values())
        result, selected = clear_tso_rsf(case, rsfs)
        milp_nodes += result.nodes
        if round_no == refine_rounds:
            break
        for dso in case.dsos:
            m = dso.index
            rsf = rsfs[m]
            zhat = rsf.steps[selected[m]].z
            if rsf.delta <= 0.0:
                grids[m] = [zhat]
                continue
            lo = max(dso.z_min, zhat - rsf.delta)
            hi = min(dso.z_max, zhat + rsf.delta)
            grids[m] = _uniform_grid(lo, hi, rsf.delta / 10.0, must_include=(zhat,))

    chosen = {m: rsfs[m].steps[k] for m, k in selected.items()}
    return _outcome(case, f"aggregation_{variant}", t0, common, layer1={},
                    layer2=result, settled=tuple(s.clearing for s in chosen.values()),
                    lp_solves=solves, milp_nodes=milp_nodes,
                    details={
                        "selected_flows": {m: s.z for m, s in chosen.items()},
                        "realized_deltas": {m: rsfs[m].delta for m in rsfs},
                        "variant": variant,
                    })


# ---------------------------------------------------------------------------
# Suboptimality constant for the aggregation bound
# ---------------------------------------------------------------------------

def _selection_structure(case: MarketCase, system: int) -> tuple[np.ndarray, np.ndarray]:
    """Balance-structure matrix [S_up | -S_down | -I] and cost vector of one
    system, ordered (upward bids, downward bids, injections)."""
    net = case.system_network(system)
    ups = case.bids_of(system, DIR_UP)
    downs = case.bids_of(system, DIR_DOWN)
    n = net.n_buses
    a = np.zeros((n, len(ups) + len(downs) + n))
    c = np.zeros(len(ups) + len(downs) + n)
    for j, b in enumerate(ups):
        a[net.bus_index[b.bus], j] = 1.0
        c[j] = b.price
    off = len(ups)
    for j, b in enumerate(downs):
        a[net.bus_index[b.bus], off + j] = -1.0
        c[off + j] = -b.price
    a[:, off + len(downs):] = -np.eye(n)
    if np.linalg.matrix_rank(a) < n:
        raise ModelError(f"balance structure of system {system} is rank deficient")
    return a, c


def _pinv_norm(case: MarketCase) -> float:
    a0, c0 = _selection_structure(case, 0)
    tn = case.transmission
    b0 = np.zeros((tn.n_buses, len(case.dsos)))
    for col, dso in enumerate(case.dsos):
        b0[tn.bus_index[dso.coupling_bus], col] = 1.0
    entries = c0 @ np.linalg.pinv(a0) @ b0
    for col, dso in enumerate(case.dsos):
        am, cm = _selection_structure(case, dso.index)
        bm = np.zeros(dso.network.n_buses)
        bm[dso.network.bus_index[dso.network.root]] = 1.0
        entries[col] += float(cm @ np.linalg.pinv(am) @ bm)
    return float(np.max(np.abs(entries))) if entries.size else 0.0


def _dso_flow_interval(case: MarketCase, m: int) -> tuple[float, float]:
    """Smallest and largest feasible interface flow of DSO ``m``: one
    program, solved with the flow's cost +1 and then -1."""
    dso = case.dso(m)
    prog = _CaseProgram(case)
    zv = prog.add_z(m, dso.z_min, dso.z_max)
    prog.add_system(m, cost_scale=0.0)
    out = []
    for sense in (+1.0, -1.0):
        prog.lp.var_cost[zv] = sense
        sol = solve_lp(prog.lp)
        if sol.status != "optimal":
            raise ModelError(f"DSO {m} has no feasible interface flow")
        out.append(float(sol.x[zv]))
    return out[0], out[1]


def suboptimality_constant(case: MarketCase) -> float:
    """Price sensitivity (EUR/MW) of the benchmark cost to interface flows.

    Combines the balance-structure pseudo-inverse norm with sampled shadow
    prices of pinned interface flows: per DSO, the pins are sampled at the
    corners of the feasible flow intervals and at the benchmark optimum,
    and the largest magnitudes are summed. Scales linearly with prices and
    vanishes when all bids are free. Used as the Lipschitz constant that
    converts an interface-flow grid gap into a cost gap.
    """
    if len(case.dsos) > 10:
        raise ContractError("corner sampling is limited to 10 DSOs")
    paper_norm = _pinv_norm(case)

    common = clear_common(case)
    if common.status != "optimal":
        raise ModelError("suboptimality constant requires a feasible benchmark")
    intervals = {m: _dso_flow_interval(case, m) for m in case.dso_indices}
    z_opt = dict(common.interface_flows)
    samples: list[dict[int, float]] = [z_opt]
    # Single-coordinate deviations from the benchmark optimum, then the
    # full interval corners (corners may be infeasible and get skipped).
    for m in case.dso_indices:
        for v in intervals[m]:
            samples.append({**z_opt, m: v})
    for corner in itertools.product(*([iv for iv in intervals[m]] for m in case.dso_indices)):
        samples.append(dict(zip(case.dso_indices, corner)))
    # One common program with free interface flows, re-pinned per sample.
    prog = _common_program(case, bound_interfaces=False)
    worst = {m: 0.0 for m in case.dso_indices}
    for zvec in samples:
        pins = {m: prog.pin_z(m, zvec[m]) for m in case.dso_indices}
        sol = solve_lp(prog.lp)
        if sol.status != "optimal":
            continue
        for m, row in pins.items():
            worst[m] = max(worst[m], abs(float(sol.duals[row])))
    return max(paper_norm, sum(worst.values()))
