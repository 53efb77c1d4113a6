"""Market-clearing problems: DSO layer, TSO layer and its idealized and
fragmented variants, Layer-3 corrections, the aggregation TSO MILP, the
common benchmark, and interface-pricing rules. Every program is built and
solved here, and :class:`CaseClearings` keys every shared solve.

Every system contributes the same constraint block to a program, and
:func:`add_network_block` is the only code that writes a block: one balance
row per bus (upward volumes minus downward volumes minus the net
injection, plus the interface flow at the root or coupling bus, equals
the base injection), a row forcing the net injections to sum to zero so
the interface flow genuinely couples the systems, and one range row per
line limit through the injection-to-flow sensitivities, the network's
line terms, made once per network object, mapped onto the block's
columns. Summing a distribution system's balance rows therefore
reproduces the aggregated balance used by the practical TSO layer. A
:meth:`_CaseProgram.rebuilt` copy writes no block of its own: it shares
the rows of the program it copies under its own bounds and costs.

Every program enters its inputs the same way. Interface flows are
declared first and attach themselves: a DSO's flow to its feeder root and
to its coupling bus in the transmission system. Each later market is the
residual of earlier ones: a clearing passed as ``prior`` turns its
volumes into right-hand-side constants and leaves each bid only its
residual volume ``max(0, quantity_max - used)``. The TSO layer and its
idealized variant take Layer 1 as prior, and the Layer-3 correction
takes Layers 1 and 2.

Sign conventions: positive base injection = deficit the market must
cover; positive interface flow = power delivered toward the distribution
network; balance-row duals are EUR/MW shadow prices of the right-hand
side.
"""

from __future__ import annotations

import copy
from array import array
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractError, ModelError, NumericalError
from .market_model import DIR_DOWN, DIR_UP, Bid, MarketCase
from .mp_solver import (INF, LinearProgram, MixedProgram, Solution, phase_one, solve_lp,
                        solve_lp_batch, solve_milp)
from .netmodel import Network

if TYPE_CHECKING:
    from .forwarding import Rsf

__all__ = [
    "CaseClearings", "ClearingResult", "PricingRule",
    "clear_dso_layer1", "clear_dso_fixed_interface", "clear_tso_layer2",
    "clear_idealized_layer2", "clear_fragmented_layer2", "clear_tso_rsf",
    "clear_common", "dso_flow_interval", "common_pin_duals",
    "interface_price", "bid_cost", "add_network_block",
]


def sensitivity(network: Network) -> np.ndarray:
    """The network's read-only injection-to-flow sensitivities, built once
    per network object and released with it."""
    return network.sensitivity


@dataclass(frozen=True)
class PricingRule:
    """Interface-flow prices c_z, one per DSO, tagged by rule kind."""

    kind: str
    prices: dict[int, float]

    def price(self, m: int) -> float:
        return self.prices.get(m, 0.0)


@dataclass(frozen=True)
class ClearingResult:
    """Primal volumes, interface flows, duals and status of one clearing
    problem. Volumes are keyed by bid id; balance duals by system
    (0 = transmission) and then bus."""

    status: str
    objective: float
    upward: dict[str, float] = field(default_factory=dict)
    downward: dict[str, float] = field(default_factory=dict)
    interface_flows: dict[int, float] = field(default_factory=dict)
    balance_duals: dict[int, dict[int, float]] = field(default_factory=dict)
    iterations: int = 0
    nodes: int = 0

    def volume(self, bid: Bid) -> float:
        table = self.upward if bid.direction == DIR_UP else self.downward
        return table.get(bid.id, 0.0)

    def total_up(self, case: MarketCase, system: int) -> float:
        return sum(self.volume(b) for b in case.bids_of(system, DIR_UP))

    def total_down(self, case: MarketCase, system: int) -> float:
        return sum(self.volume(b) for b in case.bids_of(system, DIR_DOWN))


def bid_cost(case: MarketCase, upward: dict[str, float],
             downward: dict[str, float]) -> float:
    """Procurement cost of a volume assignment: upward volumes are paid,
    downward volumes pay back. Interface-price transfers are excluded. A
    volume under an id that is not a bid of its direction raises
    ``ContractError``."""
    check_volume_ids(case, upward, downward)
    total = 0.0
    for b in case.bids:
        if b.direction == DIR_UP:
            total += b.price * upward.get(b.id, 0.0)
        else:
            total -= b.price * downward.get(b.id, 0.0)
    return total


def check_volume_ids(case: MarketCase, upward: dict[str, float],
                     downward: dict[str, float]) -> None:
    """Raise ``ContractError`` naming the first id of ``upward`` or
    ``downward`` that is not a bid of that direction in ``case``."""
    for direction, volumes in ((DIR_UP, upward), (DIR_DOWN, downward)):
        ids = {b.id for b in case.bids if b.direction == direction}
        for bid_id in volumes:
            if bid_id not in ids:
                raise ContractError(f"{bid_id!r} is not a {direction}ward bid of {case.name}")


# ---------------------------------------------------------------------------
# Program assembly
# ---------------------------------------------------------------------------

def add_network_block(lp: LinearProgram, net: Network, rhs: list[float],
                      terms, tag: int | str,
                      flow_slack: int | None = None) -> dict[int, int]:
    """Write one system's DC block into ``lp`` and return its balance rows
    keyed by bus.

    Adds a free net-injection variable per bus, then per bus the balance
    row ``sum(terms at the bus) - p = rhs``, the consistency row
    ``sum(p) = 0``, and one row per line bounding the sensitivity-weighted
    injections by the line's limits: the network's ``line_terms``, made
    once per network object, mapped onto the ``p`` columns. ``terms``
    holds (bus, variable, coefficient) triples, summed per bus in their
    order. With ``flow_slack`` each limit becomes a pair of one-sided rows
    that the (non-negative) slack variable relaxes. ``tag`` names the
    variables and the balance and consistency rows.
    """
    p_vars = [lp.add_variable(f"p[{tag},{bus}]", -INF, INF) for bus in net.buses]
    balance: list[dict[int, float]] = [{pv: -1.0} for pv in p_vars]
    for bus, var, coeff in terms:
        coeffs = balance[net.bus_index[bus]]
        coeffs[var] = coeffs.get(var, 0.0) + coeff
    rows = {bus: lp.add_equality(coeffs, rhs[k], name=f"bal[{tag},{bus}]")
            for k, (bus, coeffs) in enumerate(zip(net.buses, balance))}
    lp.add_equality({pv: 1.0 for pv in p_vars}, 0.0, name=f"netsum[{tag}]")

    if flow_slack is None:
        limits = [(li, ln.f_min, ln.f_max, None) for li, ln in enumerate(net.lines)]
    else:
        limits = [limit for li, ln in enumerate(net.lines)
                  for limit in ((li, -INF, ln.f_max, (flow_slack, -1.0)),
                                (li, ln.f_min, INF, (flow_slack, +1.0)))]
    lp.add_sparse_rows(net.line_terms, p_vars, limits)
    return rows


class _CaseProgram:
    """Incrementally built program over one or more system blocks.

    Declare the interface flows first with :meth:`add_z`, then add each
    system with :meth:`add_system`, the only way bids, earlier clearings
    and interface flows enter the program. A declared flow attaches
    itself: a DSO's flow to its feeder root, and every declared flow to
    its coupling bus in the transmission system (0). :meth:`rebuilt`
    gives the program other inputs on the same rows.
    """

    def __init__(self, case: MarketCase):
        self.case = case
        self.lp = LinearProgram()
        self.up_vars: dict[str, int] = {}
        self.down_vars: dict[str, int] = {}
        self.z_vars: dict[int, int] = {}
        self.mixed: MixedProgram | None = None  # lp with one-hot groups, for a MILP
        self.balance_rows: dict[int, dict[int, int]] = {}
        # Per system: its bid variables and balance rows, in the order of
        # _system_inputs' caps and right-hand sides.
        self.slots: dict[int, tuple[list[int], list[int]]] = {}

    def add_z(self, m: int, lo: float, hi: float, cost: float = 0.0) -> int:
        zv = self.lp.add_variable(f"z[{m}]", lo, hi, cost)
        self.z_vars[m] = zv
        return zv

    def pin_z(self, m: int, value: float) -> int:
        """Append the row pinning flow ``m`` at ``value``, so its dual is
        exposed; a batch's row bounds pin it at other values."""
        return self.lp.add_equality({self.z_vars[m]: 1.0}, value, name=f"zpin[{m}]")

    def add_system(self, system: int, *,
                   prior: tuple[ClearingResult, ...] = (),
                   bid_caps: dict[str, float] | None = None,
                   aggregate: bool = False,
                   step_terms: list[tuple[int, int, float]] = (),
                   cost_scale: float = 1.0,
                   flow_slack: int | None = None,
                   inputs: tuple[list, list[float]] | None = None) -> None:
        """Add one variable per bid of ``system``, then its network block.

        The ``prior`` clearings and ``bid_caps`` set the bid caps and the
        balance right-hand sides: ``inputs``, what :func:`_system_inputs`
        gives for them, if the caller has it. With ``aggregate`` a DSO's
        network block is replaced by one balance row over all its buses;
        ``step_terms`` are extra (bus, variable, coefficient) balance
        terms; ``flow_slack`` relaxes every line limit by one variable.
        """
        case = self.case
        bids, rhs = inputs or _system_inputs(case, system, prior, bid_caps, aggregate, cost_scale)
        terms: list[tuple[int, int, float]] = []
        bid_vars = []
        for b, cap, cost in bids:
            up = b.direction == DIR_UP
            var = self.lp.add_variable(f"{b.direction}[{b.id}]", 0.0, cap, cost)
            (self.up_vars if up else self.down_vars)[b.id] = var
            terms.append((b.bus, var, 1.0 if up else -1.0))
            bid_vars.append(var)

        if aggregate:
            coeffs = {self.z_vars[system]: 1.0}
            coeffs.update((var, coeff) for _, var, coeff in terms)
            rows = [self.lp.add_equality(coeffs, rhs[0], name=f"agg[{system}]")]
        else:
            if system == 0:
                terms += [(dso.coupling_bus, self.z_vars[dso.index], 1.0)
                          for dso in case.dsos if dso.index in self.z_vars]
            elif system in self.z_vars:
                terms.append((case.dso(system).network.root, self.z_vars[system], 1.0))
            self.balance_rows[system] = add_network_block(
                self.lp, case.system_network(system), rhs, (*terms, *step_terms), system,
                flow_slack)
            rows = list(self.balance_rows[system].values())
        self.slots[system] = (bid_vars, rows)

    def rebuilt(self, z_bounds: dict[int, tuple[float, float]],
                inputs: dict[int, tuple[list, list[float]]]) -> _CaseProgram:
        """This program with other inputs on the same rows: a copy whose LP
        shares the ``rows`` object and kept matrix, with the bounds of each
        flow in ``z_bounds`` replaced, and of each system in ``inputs`` its
        bid caps and costs and its balance right-hand sides, as
        :func:`_system_inputs` gives them."""
        prog = copy.copy(self)
        prog.lp = lp = self.lp.rebounded()
        for m, (lo, hi) in z_bounds.items():
            zv = self.z_vars[m]
            lp.set_variable(zv, lo, hi, lp.var_cost[zv])
        for system, (bids, rhs) in inputs.items():
            bid_vars, rows = self.slots[system]
            for var, (_, cap, cost) in zip(bid_vars, bids):
                lp.set_variable(var, 0.0, cap, cost)
            for row, value in zip(rows, rhs):
                lp.set_row(row, value, value)
        return prog

    def extract(self, sol: Solution) -> ClearingResult:
        if sol.status != "optimal":
            return ClearingResult(status=sol.status, objective=float("nan"),
                                  iterations=sol.iterations, nodes=sol.nodes)
        up = {}
        for bid_id, var in self.up_vars.items():
            up[bid_id] = _clamp(sol.x[var], self.lp.var_lb[var], self.lp.var_ub[var])
        down = {}
        for bid_id, var in self.down_vars.items():
            down[bid_id] = _clamp(sol.x[var], self.lp.var_lb[var], self.lp.var_ub[var])
        zvals = {m: float(sol.x[v]) for m, v in self.z_vars.items()}
        duals = {
            system: {bus: float(sol.duals[row]) for bus, row in rows.items()}
            for system, rows in self.balance_rows.items()
        }
        return ClearingResult(status="optimal", objective=sol.objective,
                              upward=up, downward=down, interface_flows=zvals,
                              balance_duals=duals, iterations=sol.iterations,
                              nodes=sol.nodes)


def _system_inputs(case: MarketCase, system: int, prior: tuple[ClearingResult, ...],
                   bid_caps: dict[str, float] | None, aggregate: bool,
                   cost_scale: float = 1.0) -> tuple[list[tuple[Bid, float, float]], list[float]]:
    """What :meth:`_CaseProgram.add_system` enters of ``system`` besides
    its rows: each bid with its cap and cost, in bid order, and the
    right-hand side of each balance row, the aggregated one or one per bus
    in bus order. The volumes the ``prior`` clearings cleared are
    constants: each bid may clear at most its residual ``max(0,
    quantity_max - used)``, unless ``bid_caps`` names its cap, and the
    right-hand sides are the base injections net of the cleared volumes."""
    bid_caps = bid_caps or {}
    bids = []
    const_net: dict[int, float] = {}
    used_up, used_down = [], []
    for b in case.bids_of(system):
        used = _used_volume(b, prior)
        cap = bid_caps.get(b.id, max(0.0, b.quantity_max - used))
        up = b.direction == DIR_UP
        bids.append((b, cap, cost_scale * (b.price if up else -b.price)))
        const_net[b.bus] = const_net.get(b.bus, 0.0) + (used if up else -used)
        (used_up if up else used_down).append(used)
    if aggregate:
        # Residual volumes plus the interface flow cover the total base
        # imbalance net of what the prior clearings already cleared.
        return bids, [sum(case.dso(system).base_injections) - sum(used_up) + sum(used_down)]
    e = case.system_injections(system)
    return bids, [e[k] - const_net.get(bus, 0.0)
                  for k, bus in enumerate(case.system_network(system).buses)]


def _recost(lp: LinearProgram, costs: dict[int, float]) -> LinearProgram:
    """``lp`` with the cost of each variable in ``costs`` replaced: a copy
    that shares every other input, its rows and its Start included. The
    first re-cost of ``lp`` gives it that Start, the phase 1 which every
    re-costed copy resumes from."""
    if lp.start is None:
        lp.start = phase_one(lp)
    recosted = copy.copy(lp)
    recosted.var_cost = list(lp.var_cost)
    for var, cost in costs.items():
        recosted.var_cost[var] = float(cost)
    return recosted


def _kept(clearings: CaseClearings, rows: tuple, bits: bytes, build,
          z_bounds: dict[int, tuple[float, float]],
          inputs: dict[int, tuple[list, list[float]]]) -> _CaseProgram:
    """The program of the row set ``rows`` under the bounds whose exact
    bits are ``bits``, kept in ``clearings``. The first bound set of a row
    set is ``build()`` itself, its matrix densified; each later one is a
    :meth:`_CaseProgram.rebuilt` copy of it with the flow bounds
    ``z_bounds`` and the system ``inputs``, kept under its ``bits``."""
    def first():
        prog = build()
        prog.lp.keep_matrix()
        return prog, bits

    prog, first_bits = clearings._once(("program", *rows), first)
    if bits == first_bits:
        return prog
    return clearings._once(("program", *rows, bits), lambda: prog.rebuilt(z_bounds, inputs))


def _used_volume(bid: Bid, prior: tuple[ClearingResult, ...]) -> float:
    """The volume of ``bid`` the ``prior`` clearings cleared, summed in
    prior order: all a program reads of them."""
    used = 0.0
    for r in prior:
        used += r.volume(bid)
    return used


def _clamp(v: float, lo: float, hi: float) -> float:
    return float(min(max(v, lo), hi))


# ---------------------------------------------------------------------------
# Layer 1
# ---------------------------------------------------------------------------

def _layer1_program(case: MarketCase, m: int, clearings: CaseClearings) -> _CaseProgram:
    """DSO ``m``'s Layer-1 program with its interface flow's price at zero:
    each pricing rule re-costs it. It is the DSO's row set: each Layer-3
    correction and the flow interval's program is a
    :meth:`_CaseProgram.rebuilt` copy of it."""
    def build() -> _CaseProgram:
        dso = case.dso(m)
        prog = _CaseProgram(case)
        prog.add_z(m, dso.z_min, dso.z_max)
        prog.add_system(m)
        return prog

    return _kept(clearings, ("layer1", m), b"", build, {}, {})


def clear_dso_layer1(case: MarketCase, m: int, pricing: PricingRule, *,
                     clearings: CaseClearings | None = None) -> ClearingResult:
    """Local flexibility procurement of one DSO.

    Minimizes bid cost plus the interface-flow price times the import,
    subject to nodal balances, line limits, bid boxes, and interface
    bounds. The program is kept in the ``clearings`` of ``case``, and
    every pricing rule resumes from its phase-1 Start.
    """
    prog = _layer1_program(case, m, CaseClearings.of(case, clearings))
    return prog.extract(solve_lp(_recost(prog.lp, {prog.z_vars[m]: pricing.price(m)})))


def clear_dso_fixed_interface(case: MarketCase, flows: dict[int, list[float]]
                              ) -> dict[int, list[tuple[ClearingResult, float] | NumericalError]]:
    """Layer-1 problem of each DSO ``m`` in ``flows`` with a zero interface
    price and the interface bound replaced by a pinned flow, solved for
    each of ``flows[m]``.

    Each DSO's program is built once, and one ``solve_lp_batch`` call
    solves the pins of every DSO. Returns per DSO one entry per flow: what
    solving its program pinned at that flow alone gives, the (clearing,
    pin dual) pair or the ``NumericalError`` the solve raised. The dual is
    the local marginal value of one more MW of import (the subgradient the
    dual-price residual supply function accumulates), NaN when the pin is
    not optimal.
    """
    programs, batches = [], []
    for m, zs in flows.items():
        prog = _CaseProgram(case)
        prog.add_z(m, -INF, INF, 0.0)
        prog.add_system(m)
        # The batch's row bounds pin the flow at each of zs.
        pin_row = prog.pin_z(m, 0.0)
        row_lo, row_hi = (np.tile(bounds, (len(zs), 1)) for bounds in (prog.lp.row_lo, prog.lp.row_hi))
        row_lo[:, pin_row] = row_hi[:, pin_row] = zs
        programs.append((m, prog, pin_row))
        batches.append((prog.lp, row_lo, row_hi))
    entries: dict[int, list] = {}
    for (m, prog, pin_row), solved in zip(programs, solve_lp_batch(batches)):
        entries[m] = []
        for sol in solved:
            if not isinstance(sol, Solution):
                entries[m].append(sol)  # the error its solve raised
                continue
            dual = float(sol.duals[pin_row]) if sol.status == "optimal" else float("nan")
            entries[m].append((prog.extract(sol), dual))
    return entries


# ---------------------------------------------------------------------------
# Layer 2 and its variants, Layer 3, and the aggregation TSO layer
# ---------------------------------------------------------------------------

def _layer2_program(case: MarketCase, layer1: dict[int, ClearingResult],
                    dist_bid_caps: dict[str, float] | None, mode: str,
                    clearings: CaseClearings) -> _CaseProgram:
    """The TSO layer's program in ``mode`` with the interface flows' prices
    at zero: each pricing rule re-costs it.

    Its row set is the aggregated DSO balances (practical and fragmented)
    or the full DSO networks (idealized). Each bound set is kept under the
    exact bits of its flow bounds, bid caps and balance right-hand sides,
    all it reads of the mode, the frozen flows, the prior volumes and the
    caps.
    """
    if mode not in ("practical", "idealized", "fragmented"):
        raise ContractError(f"unknown layer-2 mode {mode}")
    for m in case.dso_indices:
        if m not in layer1 or layer1[m].status != "optimal":
            raise ContractError(f"missing Layer-1 result for DSO {m}")
    aggregate = mode != "idealized"
    z_bounds = {}
    for dso in case.dsos:
        m = dso.index
        lo, hi = dso.z_min, dso.z_max
        if mode == "fragmented":
            lo = hi = layer1[m].interface_flows[m]
        z_bounds[m] = (lo, hi)
    inputs = {m: _system_inputs(case, m, (layer1[m],), dist_bid_caps, aggregate)
              for m in case.dso_indices}

    def build() -> _CaseProgram:
        prog = _CaseProgram(case)
        for m, (lo, hi) in z_bounds.items():
            prog.add_z(m, lo, hi)
        prog.add_system(0)
        for m in case.dso_indices:
            prog.add_system(m, aggregate=aggregate, inputs=inputs[m])
        return prog

    # The exact bits of every bound, in an order the row set fixes; the bid
    # costs are the case's prices, the same in every bound set.
    bits = array("d", [v for bounds in z_bounds.values() for v in bounds]
                 + [cap for bids, _ in inputs.values() for _, cap, _ in bids]
                 + [value for _, rhs in inputs.values() for value in rhs]).tobytes()
    return _kept(clearings, ("layer2", aggregate), bits, build, z_bounds, inputs)


def _clear_layer2(case: MarketCase, layer1: dict[int, ClearingResult],
                  pricing: PricingRule, dist_bid_caps: dict[str, float] | None, mode: str,
                  clearings: CaseClearings | None) -> ClearingResult:
    prog = _layer2_program(case, layer1, dist_bid_caps, mode, CaseClearings.of(case, clearings))
    # Interface-flow revenue enters the TSO objective with a minus sign.
    return prog.extract(solve_lp(_recost(prog.lp, {
        prog.z_vars[m]: -pricing.price(m) for m in case.dso_indices})))


def clear_tso_layer2(case: MarketCase, layer1: dict[int, ClearingResult],
                     pricing: PricingRule,
                     dist_bid_caps: dict[str, float] | None = None, *,
                     clearings: CaseClearings | None = None) -> ClearingResult:
    """Practical TSO clearing: full transmission model, aggregated
    distribution balances, residual distribution bids. ``dist_bid_caps``
    replaces the residual cap of every bid it names. Each bound set's
    program is kept in the ``clearings`` of ``case``, and every pricing
    rule resumes from its phase-1 Start."""
    return _clear_layer2(case, layer1, pricing, dist_bid_caps, "practical", clearings)


def clear_idealized_layer2(case: MarketCase, layer1: dict[int, ClearingResult],
                           pricing: PricingRule,
                           dist_bid_caps: dict[str, float] | None = None, *,
                           clearings: CaseClearings | None = None) -> ClearingResult:
    """TSO clearing with full per-DSO network constraints in place of the
    aggregated balances; ``clearings`` as for :func:`clear_tso_layer2`."""
    return _clear_layer2(case, layer1, pricing, dist_bid_caps, "idealized", clearings)


def clear_fragmented_layer2(case: MarketCase, layer1: dict[int, ClearingResult],
                            pricing: PricingRule, *,
                            clearings: CaseClearings | None = None) -> ClearingResult:
    """TSO clearing with distribution volumes pinned to zero and interface
    flows frozen at their Layer-1 values; ``clearings`` as for
    :func:`clear_tso_layer2`."""
    no_dist = {b.id: 0.0 for b in case.bids if b.system != 0}
    return _clear_layer2(case, layer1, pricing, no_dist, "fragmented", clearings)


def _layer3_program(case: MarketCase, m: int, prior: tuple[ClearingResult, ...],
                    z_value: float, clearings: CaseClearings) -> _CaseProgram:
    """Corrective DSO problem: the volumes of the ``prior`` clearings are
    constants, corrective volumes fill the residual boxes, the interface
    flow is frozen. A copy of the DSO's Layer-1 program."""
    return _layer1_program(case, m, clearings).rebuilt(
        {m: (z_value, z_value)}, {m: _system_inputs(case, m, prior, None, False)})


def _overload_program(case: MarketCase, m: int, prior: tuple[ClearingResult, ...],
                      z_value: float) -> tuple[_CaseProgram, int]:
    """The Layer-3 correction's diagnostic program: the bid costs dropped
    and every line limit relaxed by one slack, whose optimum is the
    smallest possible max line overload when the correction problem itself
    is infeasible. Its rows differ from the correction's, so it is built
    afresh. Returns the program and that slack variable."""
    prog = _CaseProgram(case)
    prog.add_z(m, z_value, z_value)
    worst = prog.lp.add_variable("worst", 0.0, INF, 1.0)
    prog.add_system(m, prior=prior, cost_scale=0.0, flow_slack=worst)
    return prog, worst


def _tso_rsf_program(case: MarketCase, rsfs: dict[int, Rsf]) -> _CaseProgram:
    """The TSO MILP over the forwarded steps' flows, in ``mixed``, each
    step's cost at zero: each set of step costs re-costs it."""
    prog = _CaseProgram(case)
    y_vars: dict[int, list[int]] = {}
    step_terms = []
    for dso in case.dsos:
        steps = rsfs[dso.index].steps
        ys = [prog.lp.add_variable(f"y[{dso.index},{k}]", 0.0, 1.0) for k in range(len(steps))]
        step_terms += [(dso.coupling_bus, y, step.z) for y, step in zip(ys, steps) if step.z != 0.0]
        y_vars[dso.index] = ys
    prog.add_system(0, step_terms=step_terms)
    prog.mixed = MixedProgram(prog.lp, [y_vars[m] for m in case.dso_indices])
    return prog


def clear_tso_rsf(case: MarketCase, rsfs: dict[int, Rsf], *,
                  clearings: CaseClearings | None = None
                  ) -> tuple[ClearingResult, dict[int, int]]:
    """TSO clearing over the forwarded steps: one binary per step, one
    one-hot group per DSO, interface flows substituted by the selected
    step values. The aggregated balance is deliberately absent; it lives
    inside the stored step clearings. Returns the MILP clearing, with the
    nodes it explored, and the selected step per DSO, which is empty when
    the MILP has no optimum.

    The program is kept in the ``clearings`` of ``case`` per set of
    forwarded flows, keyed by their exact bits, and the root relaxation of
    every set of step costs, such as the other RSF variant's, resumes from
    its phase-1 Start."""
    for m in case.dso_indices:
        if m not in rsfs:
            raise ContractError(f"missing RSF for DSO {m}")
    key = ("tso_rsf", tuple(tuple(_exact(s.z) for s in rsfs[m].steps) for m in case.dso_indices))
    prog = _kept(CaseClearings.of(case, clearings), key, b"",
                 lambda: _tso_rsf_program(case, rsfs), {}, {})
    mp = copy.copy(prog.mixed)
    y_vars = dict(zip(case.dso_indices, mp.groups))
    mp.lp = _recost(mp.lp, {y: step.cost for m in case.dso_indices
                            for y, step in zip(y_vars[m], rsfs[m].steps)})
    sol = solve_milp(mp)
    result = prog.extract(sol)
    if sol.status != "optimal":
        return result, {}
    selected = {m: max(range(len(y_vars[m])), key=lambda k: sol.x[y_vars[m][k]])
                for m in case.dso_indices}
    flows = {m: rsfs[m].steps[k].z for m, k in selected.items()}
    return replace(result, interface_flows=flows), selected


# ---------------------------------------------------------------------------
# Common market
# ---------------------------------------------------------------------------

def _common_program(case: MarketCase, bound_interfaces: bool = True) -> _CaseProgram:
    """Every grid in one program, coupled through the interface flows,
    which keep their bounds unless ``bound_interfaces`` is false."""
    prog = _CaseProgram(case)
    for dso in case.dsos:
        lo, hi = (dso.z_min, dso.z_max) if bound_interfaces else (-INF, INF)
        prog.add_z(dso.index, lo, hi)
    prog.add_system(0)
    for m in case.dso_indices:
        prog.add_system(m)
    return prog


def clear_common(case: MarketCase) -> ClearingResult:
    """Single co-optimized clearing over every grid; the benchmark.

    Duals of the transmission coupling-bus balances are retained for the
    optimal interface-pricing rule.
    """
    prog = _common_program(case)
    sol = solve_lp(prog.lp)
    return prog.extract(sol)


def dso_flow_interval(case: MarketCase, m: int, *,
                      clearings: CaseClearings | None = None) -> tuple[float, float]:
    """Smallest and largest feasible interface flow of DSO ``m``: one
    program, solved with the flow's cost +1 and then -1, both from one
    phase-1 Start. The program is a copy of the DSO's Layer-1 program in
    the ``clearings`` of ``case``, with every bid cost at zero."""
    prog = _layer1_program(case, m, CaseClearings.of(case, clearings)).rebuilt(
        {}, {m: _system_inputs(case, m, (), None, False, 0.0)})
    zv = prog.z_vars[m]
    out = []
    for sense in (+1.0, -1.0):
        sol = solve_lp(_recost(prog.lp, {zv: sense}))
        if sol.status != "optimal":
            raise ModelError(f"DSO {m} has no feasible interface flow")
        out.append(float(sol.x[zv]))
    return out[0], out[1]


def common_pin_duals(case: MarketCase, samples: list[dict[int, float]]) -> list[list[float]]:
    """The pin duals, one per DSO in case order, of the common program
    with free interface flows pinned at each sample that has an optimum.
    The first of each repeated sample, told apart by the exact bits of its
    flows, is solved, all in one batch through the row bounds."""
    unique: dict[tuple[str, ...], list[float]] = {}
    for zvec in samples:
        pin = [zvec[m] for m in case.dso_indices]
        unique.setdefault(tuple(_exact(z) for z in pin), pin)
    pins = list(unique.values())
    prog = _common_program(case, bound_interfaces=False)
    rows = [prog.pin_z(m, z) for m, z in zip(case.dso_indices, pins[0])]
    row_lo, row_hi = (np.tile(b, (len(pins), 1)) for b in (prog.lp.row_lo, prog.lp.row_hi))
    row_lo[:, rows] = row_hi[:, rows] = pins
    [solved] = solve_lp_batch([(prog.lp, row_lo, row_hi)])
    duals = []
    for sol in solved:
        if not isinstance(sol, Solution):
            raise sol
        if sol.status == "optimal":
            duals.append([float(sol.duals[row]) for row in rows])
    return duals


# ---------------------------------------------------------------------------
# Clearings shared by the methods of one case
# ---------------------------------------------------------------------------

def _exact(value: float) -> str:
    """Key of a float that tells apart every bit pattern, -0.0 from 0.0."""
    return float(value).hex()


class CaseClearings:
    """The clearings that the methods of one case share, each solved once,
    on first use.

    The solver is deterministic, so a shared clearing is the one a method
    running alone would compute. Pass one object to every method run on
    ``case``; a fresh object gives exactly the solves of a run alone. It
    stores whole aggregation Outcomes too (:meth:`aggregation`), which
    every pricing rule shares.

    It also keeps the programs that solves under other costs share, each
    with the phase-1 Start its first re-cost makes: every DSO's Layer-1
    program, which each pricing rule re-costs; every Layer-2 program,
    keyed by its row set and the exact bits of its flow bounds, bid caps
    and balance right-hand sides, which each pricing rule re-costs; and
    aggregation's MILP per set of forwarded flows, which each RSF variant
    re-costs. The first program on each row set is densified once, and
    the later ones are copies that share its ``rows`` object and kept
    matrix: every later Layer-2 bound set, and each DSO's Layer-3
    corrections and :func:`dso_flow_interval` program, copies of its
    Layer-1 program.
    Programs live as long as this object does, or until
    :meth:`release_programs`. A resumed solve reports its Start's phase-1
    counters and counts as one solve.
    """

    def __init__(self, case: MarketCase, common: ClearingResult | None = None):
        self.case = case
        self._common = common
        self._solved: dict[tuple, object] = {}

    @classmethod
    def of(cls, case: MarketCase, clearings: CaseClearings | None) -> CaseClearings:
        """The clearings a call on ``case`` shares: ``clearings``, or a
        fresh object when None. Another case's raise ``ContractError``."""
        if clearings is None:
            return cls(case)
        if clearings.case is not case:
            raise ContractError("the shared clearings belong to another case")
        return clearings

    @property
    def common(self) -> ClearingResult:
        """The common benchmark clearing, given or cleared on first use."""
        if self._common is None:
            self._common = clear_common(self.case)
        return self._common

    def _once(self, key: tuple, solve):
        """``solve()`` on the first use of ``key``, its stored value after.
        The key holds the exact bits of every input the solved program is
        built from, and names the kind of clearing first; a kept program's
        key starts with "program" and its kind, and leaves out its costs."""
        if key not in self._solved:
            self._solved[key] = solve()
        return self._solved[key]

    def _prices(self, pricing: PricingRule) -> tuple[str, ...]:
        return tuple(_exact(pricing.price(m)) for m in self.case.dso_indices)

    def layer1(self, pricing: PricingRule) -> dict[int, ClearingResult]:
        """Every DSO's Layer-1 clearing under ``pricing``, keyed by DSO."""
        return dict(self._once(("layer1", self._prices(pricing)), lambda: {
            m: clear_dso_layer1(self.case, m, pricing, clearings=self)
            for m in self.case.dso_indices}))

    def layer2(self, pricing: PricingRule) -> ClearingResult:
        """The practical TSO layer without bid caps, on top of
        :meth:`layer1`, which must be optimal for every DSO."""
        return self._once(("layer2", self._prices(pricing)), lambda: clear_tso_layer2(
            self.case, self.layer1(pricing), pricing, clearings=self))

    def correction(self, m: int, prior: tuple[ClearingResult, ...],
                   z: float) -> ClearingResult:
        """DSO ``m``'s Layer-3 correction on top of ``prior`` with its flow
        frozen at ``z``, keyed by the exact flow and the exact prior volume
        of each of the DSO's bids. Only the correction is solved; its least
        line overload, when it is infeasible, is :meth:`overload`."""
        def solve():
            prog = _layer3_program(self.case, m, prior, z, self)
            return prog.extract(solve_lp(prog.lp))

        return self._once(("layer3", *self._layer3_key(m, prior, z)), solve)

    def overload(self, m: int, prior: tuple[ClearingResult, ...], z: float) -> float:
        """The least max line overload (MW) of DSO ``m``'s Layer-3
        correction on top of ``prior`` with its flow frozen at ``z``: the
        diagnostic program, solved on first use under the correction's
        key, and ``inf`` when that program has no optimum."""
        def solve():
            prog, worst = _overload_program(self.case, m, prior, z)
            sol = solve_lp(prog.lp)
            return float(sol.x[worst]) if sol.status == "optimal" else float("inf")

        return self._once(("overload", *self._layer3_key(m, prior, z)), solve)

    def _layer3_key(self, m: int, prior: tuple[ClearingResult, ...], z: float) -> tuple:
        """All a Layer-3 program is built from: the DSO, the exact flow and
        the exact prior volume of each of the DSO's bids."""
        return (m, _exact(z), tuple(_exact(_used_volume(b, prior)) for b in self.case.bids_of(m)))

    def tso_rsf(self, rsfs: dict[int, Rsf]) -> tuple[ClearingResult, dict[int, int]]:
        """:func:`clear_tso_rsf` over ``rsfs``, keyed by the exact flow and
        cost of every forwarded step, all the MILP reads of them: the steps
        do not depend on pricing, so every pricing rule shares it."""
        key = ("tso_rsf", tuple(tuple((_exact(s.z), _exact(s.cost)) for s in rsfs[m].steps)
                                for m in self.case.dso_indices if m in rsfs))
        return self._once(key, lambda: clear_tso_rsf(self.case, rsfs, clearings=self))

    def aggregation(self, variant: str, delta_bar: float, refine_rounds: int, run):
        """``run()``, the aggregation method's Outcome for ``variant``,
        ``delta_bar`` and ``refine_rounds``, made on the first use of the
        three and stored after. No interface price enters the method, so
        every pricing row of a case shares it. The key holds the exact bits
        and the type of ``delta_bar``, from which the grids are built."""
        key = ("aggregation", variant, type(delta_bar).__name__, _exact(delta_bar),
               int(refine_rounds))
        return self._once(key, run)

    def release_programs(self) -> None:
        """Drop the kept programs and their Starts; every clearing stays.
        A caller may hold on to the clearings after the last method ran on
        the case (perfbench's recorder keeps each call's arguments to the
        end of a pass), when nothing re-costs the programs any more. A
        later solve builds its program again."""
        self._solved = {key: value for key, value in self._solved.items()
                        if key[0] != "program"}

    def pin(self, flows: dict[int, list[float]]) -> dict[int, list]:
        """The entry of each DSO ``m``'s pinned clearing for each of its
        ``flows``, in flow order: the clearing with its pin dual, or the
        error its solve raised. The flows not pinned before are solved in
        one :func:`clear_dso_fixed_interface` call, each pin keeping its
        own entry."""
        keys = {m: [("pin", m, _exact(z)) for z in zs] for m, zs in flows.items()}
        new = {}
        for m, ks in keys.items():
            fresh = {k: float(z) for k, z in zip(ks, flows[m]) if k not in self._solved}
            if fresh:
                new[m] = fresh
        if new:
            solved = clear_dso_fixed_interface(self.case,
                                               {m: list(f.values()) for m, f in new.items()})
            for m, fresh in new.items():
                self._solved.update(zip(fresh, solved[m]))
        return {m: [self._solved[k] for k in ks] for m, ks in keys.items()}


# ---------------------------------------------------------------------------
# Interface pricing
# ---------------------------------------------------------------------------

def interface_price(case: MarketCase, kind: str,
                    common: ClearingResult | None = None) -> PricingRule:
    """Resolve one of the three interface-flow pricing rules.

    none: all zeros. optimal: duals of the coupling-bus balances of the
    common clearing. midpoint: per DSO, the average of its most expensive
    downward and least expensive upward bid prices.
    """
    if kind == "none":
        return PricingRule("none", {m: 0.0 for m in case.dso_indices})
    if kind == "midpoint":
        prices = {}
        for m in case.dso_indices:
            ups = [b.price for b in case.bids_of(m, DIR_UP)]
            downs = [b.price for b in case.bids_of(m, DIR_DOWN)]
            hi_down = max(downs) if downs else 0.0
            lo_up = min(ups) if ups else 0.0
            prices[m] = 0.5 * (hi_down + lo_up)
        return PricingRule("midpoint", prices)
    if kind == "optimal":
        if common is None:
            common = clear_common(case)
        if common.status != "optimal":
            raise ModelError("optimal pricing requested but the common market "
                             f"clearing is {common.status}")
        prices = {dso.index: common.balance_duals[0][dso.coupling_bus]
                  for dso in case.dsos}
        return PricingRule("optimal", prices)
    raise ContractError(f"unknown pricing kind {kind!r}")
