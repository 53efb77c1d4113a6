"""Seeded random market cases shaped like the four benchmark scenarios.

Each recipe builds a small meshed transmission ring with one radial feeder
per DSO, places the system imbalance on the transmission root, loads
roughly half of each feeder's buses, and scales feeder line limits
against the flows a pure import would cause, so congestion appears by
construction when the scale factor is below one. Every loaded bus also
gets an upward bid at least covering its deficit, which keeps the local
market feasible regardless of how tight the limits get.

Styles:
  A: upward system need; distribution bids priced above transmission.
  B: like A but transmission upward bids are the expensive ones, downward
     liquidity is scattered deep into the feeders, and the interface gets
     import headroom above the local need.
  C: like B plus extra distribution bids at congested-feeder buses, the
     upward ones priced above even the transmission range.
  D: downward system need, prices as in A.

All styles consume one shared random stream in the same order, so cases
with equal seeds share topology, loads, and volumes; the style only
transforms prices, downward-bid placement, and interface headroom (style
C's extra bids draw from a second stream). Price ranges keep every
downward bid strictly cheaper than every upward bid, so the bid-ordering
assumption holds for every generated case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clearing import add_network_block
from .errors import GenerationError
from .market_model import Bid, DistributionSystem, MarketCase
from .mp_solver import INF, LinearProgram, solve_lp
from .netmodel import Line, Network, build_sensitivity

__all__ = ["CaseRecipe", "generate_case", "emit_case"]

_STYLES = ("A", "B", "C", "D")
_EXTRA_UP_BIDS = 1  # upward bids per feeder beyond one per loaded bus
_DOWN_BIDS = 2      # downward bids per feeder


def _max_absorbable_import(net: Network, e, bids: list[Bid]) -> float:
    """Largest interface flow the feeder can physically take, with its own
    bids free to help. Caps the benign styles' interface bounds so an
    import at the bound is always grid-feasible."""
    lp = LinearProgram()
    z = lp.add_variable("z", -INF, INF, cost=-1.0)
    terms = [(b.bus, lp.add_variable(b.id, 0.0, b.quantity_max),
              1.0 if b.direction == "up" else -1.0) for b in bids]
    add_network_block(lp, net, [float(v) for v in e], [*terms, (net.root, z, 1.0)], "feeder")
    sol = solve_lp(lp)
    if sol.status != "optimal":
        return 0.0
    return float(sol.x[z])


@dataclass(frozen=True)
class CaseRecipe:
    style: str
    n_dsos: int = 2
    dso_buses: int = 7
    tn_buses: int = 4
    congestion: float = 0.9


def _span(draw: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * draw


def _feeder(rng, n_buses: int, congestion: float):
    buses = tuple(range(1, n_buses + 1))
    parents = [int(rng.integers(max(1, k - 3), k)) for k in range(2, n_buses + 1)]
    reactances = [float(rng.uniform(0.05, 0.15)) for _ in parents]

    n_load = max(1, n_buses // 2)
    load_buses = sorted(int(b) for b in rng.choice(np.arange(2, n_buses + 1),
                                                   size=min(n_load, n_buses - 1),
                                                   replace=False))
    e = np.zeros(n_buses)
    for b in load_buses:
        e[b - 1] = float(rng.uniform(1.0, 4.0))

    probe = Network(buses=buses, root=1, lines=tuple(
        Line(p, k, x, -1e9, 1e9)
        for p, k, x in zip(parents, range(2, n_buses + 1), reactances)))
    base_flow = build_sensitivity(probe) @ np.where(
        np.arange(1, n_buses + 1) == 1, 0.0, -e)

    lines = []
    congested: list[int] = []
    for li, (p, k, x) in enumerate(zip(parents, range(2, n_buses + 1), reactances)):
        scale = float(rng.uniform(0.85, 1.55)) * congestion
        limit = max(abs(float(base_flow[li])) * scale, 0.75)
        if limit < abs(float(base_flow[li])):
            congested.append(k)
        lines.append(Line(p, k, x, -limit, limit))
    net = Network(buses=buses, lines=tuple(lines), root=1)
    return net, tuple(float(v) for v in e), load_buses, congested


def generate_case(recipe: CaseRecipe, seed: int) -> MarketCase:
    """Deterministic case for (recipe, seed)."""
    style = recipe.style.upper()
    if style not in _STYLES:
        raise GenerationError(f"unknown recipe style {recipe.style!r}")
    if recipe.n_dsos < 1 or recipe.dso_buses < 2 or recipe.tn_buses < 2:
        raise GenerationError("recipe needs at least 1 DSO, 2 feeder buses, 2 "
                              "transmission buses")
    if recipe.tn_buses < recipe.n_dsos + 1:
        raise GenerationError("not enough transmission buses for the requested "
                              "number of coupling points")
    if seed < 0:
        raise GenerationError(f"seed must be a non-negative integer, got {seed}")
    if not math.isfinite(recipe.congestion):
        raise GenerationError(f"congestion must be finite, got {recipe.congestion}")

    benign = style in ("A", "D")
    rng = np.random.default_rng(int(seed))
    extra_rng = np.random.default_rng([int(seed), 99])

    bids: list[Bid] = []
    dsos: list[DistributionSystem] = []
    absorb_need = 0.0
    total_z_cap = 0.0
    for m in range(1, recipe.n_dsos + 1):
        net, e, load_buses, congested = _feeder(rng, recipe.dso_buses, recipe.congestion)
        k = 0
        for b in load_buses:
            qmax = float(e[b - 1] * rng.uniform(1.05, 1.6))
            price = _span(rng.random(), *((46.0, 55.0) if benign else (30.0, 55.0)))
            bids.append(Bid(f"d{m}-u{k}", m, b, "up", price, qmax))
            k += 1
        for _ in range(_EXTRA_UP_BIDS):
            b = int(rng.integers(2, recipe.dso_buses + 1))
            qmax = float(rng.uniform(1.0, 3.0))
            price = _span(rng.random(), *((46.0, 55.0) if benign else (30.0, 55.0)))
            bids.append(Bid(f"d{m}-u{k}", m, b, "up", price, qmax))
            k += 1
        down_cap = 0.0
        for j in range(_DOWN_BIDS):
            # Benign styles keep downward liquidity at the feeder head where
            # it cannot load any line. The expensive-transmission styles
            # split it: one cheap block at the head and the rest scattered
            # deep, where clearing it through the aggregated TSO model can
            # overload lines.
            bus_draw = int(rng.integers(2, recipe.dso_buses + 1))
            price_draw = rng.random()
            qmax_draw = rng.random()
            if benign:
                b, price = 1, _span(price_draw, 10.0, 25.0)
                qmax = _span(qmax_draw, 1.0, 3.0)
            elif j == 0:
                b, price = 1, _span(price_draw, 10.0, 14.0)
                qmax = _span(qmax_draw, 2.0, 5.0)
            else:
                b, price = bus_draw, _span(price_draw, 15.0, 25.0)
                qmax = _span(qmax_draw, 1.0, 3.0)
            down_cap += qmax
            bids.append(Bid(f"d{m}-d{j}", m, b, "down", price, qmax))
        if style == "C":
            for j, b in enumerate(congested[:2]):
                qmax = float(extra_rng.uniform(2.0, 5.0))
                bids.append(Bid(f"d{m}-cu{j}", m, b, "up",
                                float(extra_rng.uniform(166.0, 200.0)), qmax))
                bids.append(Bid(f"d{m}-cd{j}", m, b, "down",
                                float(extra_rng.uniform(15.0, 25.0)), qmax))
                down_cap += qmax
        # Interface bounds. The benign styles stay below the local need, so
        # the TSO layer never has import headroom to monetize downward bids
        # whose grid effects it cannot see; the other styles get headroom
        # above it, which is where forwarding drama (and interior benchmark
        # interface flows) comes from.
        z_draw = rng.random()
        if benign:
            # Deliverable to loads without downward absorption: an import at
            # the bound then always displaces a local upward purchase, so no
            # residual headroom survives the first layer under any pricing.
            local_up = [b for b in bids if b.system == m and b.direction == "up"]
            absorbable = _max_absorbable_import(net, e, local_up)
            z_max = min(float(sum(e)) * _span(z_draw, 0.45, 0.8),
                        0.95 * absorbable)
        else:
            z_max = float(sum(e) + down_cap) * _span(z_draw, 1.1, 1.4)
        z_min = -float(sum(e) * rng.uniform(0.15, 0.3))
        absorb_need += sum(e) + down_cap
        total_z_cap += max(abs(z_min), z_max)
        dsos.append(DistributionSystem(index=m, network=net, coupling_bus=m + 1,
                                       z_min=z_min, z_max=z_max, base_injections=e))

    need = float(rng.uniform(6.0, 14.0)) * recipe.n_dsos
    if style == "D":
        need = -need
    tn_buses = tuple(range(1, recipe.tn_buses + 1))
    tn_limit = abs(need) + 2.0 * total_z_cap + 50.0
    tn_lines = [Line(i, i + 1, float(rng.uniform(0.05, 0.15)), -tn_limit, tn_limit)
                for i in range(1, recipe.tn_buses)]
    if recipe.tn_buses >= 3:
        tn_lines.append(Line(recipe.tn_buses, 1, float(rng.uniform(0.05, 0.15)),
                             -tn_limit, tn_limit))
    tn = Network(buses=tn_buses, lines=tuple(tn_lines), root=1)
    e0 = np.zeros(recipe.tn_buses)
    e0[0] = need

    # Upward capacity always covers the need plus any export the DSOs can
    # push; downward capacity covers every interface flow the sequential
    # layers can produce, but in the B/C styles not the whole interface
    # box, which leaves the benchmark's optimal flows strictly inside it.
    up_cap = max(0.0, need) + sum(abs(d.z_min) for d in dsos) + 10.0
    if benign:
        down_cap0 = max(0.0, -need) + sum(d.z_max for d in dsos) + 10.0
    else:
        down_cap0 = max(4.0, absorb_need + 2.0 - need)
    for j, bus in enumerate((1, recipe.tn_buses)):
        up_price = _span(rng.random(), *((30.0, 42.0) if benign else (90.0, 165.0)))
        down_price = _span(rng.random(), 10.0, 25.0)
        bids.append(Bid(f"t-u{j}", 0, bus, "up", up_price, up_cap / 2.0))
        bids.append(Bid(f"t-d{j}", 0, bus, "down", down_price, down_cap0 / 2.0))

    return MarketCase(
        transmission=tn,
        base_injections=tuple(float(v) for v in e0),
        dsos=tuple(dsos),
        bids=tuple(bids),
        name=f"recipe{style}-s{seed}",
    )


def emit_case(recipe: CaseRecipe, seed: int, path) -> None:
    """Generate and write a case file in the documented JSON schema."""
    from .market_model import serialize_case

    case = generate_case(recipe, seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_case(case))
