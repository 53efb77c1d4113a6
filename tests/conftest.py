"""Shared fixtures: the 2-bus micro-case family, showcase cases, and
independent grid-enumeration oracles used to freeze expected values."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from flexmkt.market_model import Bid, DistributionSystem, MarketCase
from flexmkt.netmodel import Line, Network


def micro_case(*, limit: float = 4.0, root_down: bool = True, z_max: float = 8.0,
               z_min: float = -8.0, leaf_e: float = 6.0,
               tso_need: float = 8.0) -> MarketCase:
    """Two-bus feeder behind a two-bus transmission grid.

    The leaf needs ``leaf_e`` MW, the feeder line carries at most ``limit``
    MW, and one local upward bid (5 MW @ 40 at the leaf) competes with the
    interface. ``root_down`` adds the 5 MW @ 15 downward bid at the feeder
    head used by the TSO-layer examples. The TSO needs ``tso_need`` MW of
    upward flexibility and owns a 10 MW bid in each direction.
    """
    tn = Network(buses=(1, 2), lines=(Line(1, 2, 0.1, -100.0, 100.0),), root=1)
    dn = Network(buses=(1, 2), lines=(Line(1, 2, 0.08, -limit, limit),), root=1)
    bids = [
        Bid("t-u", 0, 1, "up", 35.0, 10.0),
        Bid("t-d", 0, 1, "down", 12.0, 10.0),
        Bid("d-u", 1, 2, "up", 40.0, 5.0),
    ]
    if root_down:
        bids.append(Bid("d-d", 1, 1, "down", 15.0, 5.0))
    dso = DistributionSystem(index=1, network=dn, coupling_bus=2,
                             z_min=z_min, z_max=z_max,
                             base_injections=(0.0, leaf_e))
    return MarketCase(transmission=tn, base_injections=(tso_need, 0.0),
                      dsos=(dso,), bids=tuple(bids), name="micro")


@pytest.fixture
def m1():
    """Full micro-case: congested feeder, both local bids."""
    return micro_case()


@pytest.fixture
def m1_up_only():
    """Congested feeder, single upward bid (the Layer-1 worked example)."""
    return micro_case(root_down=False)


@pytest.fixture
def m1_wide():
    """Uncongested feeder (10 MW line), single upward bid."""
    return micro_case(limit=10.0, root_down=False)


def corrective_showcase() -> MarketCase:
    """Three-bus feeder where the TSO layer overloads the deep line and the
    corrective layer can still buy its way back to feasibility."""
    tn = Network(buses=(1, 2), lines=(Line(1, 2, 0.1, -200.0, 200.0),), root=1)
    dn = Network(buses=(1, 2, 3),
                 lines=(Line(1, 2, 0.1, -12.0, 12.0), Line(2, 3, 0.1, -7.0, 7.0)),
                 root=1)
    bids = (
        Bid("t-u", 0, 1, "up", 35.0, 30.0),
        Bid("t-d", 0, 1, "down", 15.0, 30.0),
        Bid("d-u", 1, 3, "up", 40.0, 8.0),
        Bid("d-dr", 1, 1, "down", 12.0, 8.0),
        Bid("d-dd", 1, 3, "down", 22.0, 4.0),
    )
    dso = DistributionSystem(index=1, network=dn, coupling_bus=2,
                             z_min=-2.0, z_max=14.0,
                             base_injections=(0.0, 0.0, 6.0))
    return MarketCase(transmission=tn, base_injections=(8.0, 0.0),
                      dsos=(dso,), bids=bids, name="corrective-showcase")


def forwarding_benefit_showcase() -> MarketCase:
    """Cheap distribution downward bid at the feeder head against expensive
    transmission upward bids: forwarding it is pure upside."""
    tn = Network(buses=(1, 2), lines=(Line(1, 2, 0.1, -200.0, 200.0),), root=1)
    dn = Network(buses=(1, 2), lines=(Line(1, 2, 0.1, -10.0, 10.0),), root=1)
    bids = (
        Bid("t-u", 0, 1, "up", 120.0, 30.0),
        Bid("t-d", 0, 1, "down", 15.0, 30.0),
        Bid("d-u", 1, 2, "up", 40.0, 8.0),
        Bid("d-dr", 1, 1, "down", 12.0, 5.0),
    )
    dso = DistributionSystem(index=1, network=dn, coupling_bus=2,
                             z_min=-2.0, z_max=15.0,
                             base_injections=(0.0, 6.0))
    return MarketCase(transmission=tn, base_injections=(8.0, 0.0),
                      dsos=(dso,), bids=bids, name="forwarding-benefit")


# ---------------------------------------------------------------------------
# Independent enumeration oracles (no LP solver involved)
# ---------------------------------------------------------------------------

def dso_grid_oracle(case: MarketCase, m: int, c_z: float, step: float,
                    z_fixed: float | None = None):
    """Brute-force the local clearing of one DSO.

    Enumerates bid volumes on a grid, closes the interface flow from the
    aggregate balance, and checks flows by direct matrix arithmetic.
    Returns (best_cost, best_point) or (None, None) when nothing feasible.
    """
    from flexmkt.netmodel import build_sensitivity

    dso = case.dso(m)
    net = dso.network
    sens = build_sensitivity(net)
    e = np.array(dso.base_injections)
    lo, hi = net.flow_bounds()
    bids = case.bids_of(m)
    grids = [np.arange(0.0, b.quantity_max + step / 2.0, step) for b in bids]
    best, best_point = None, None
    for combo in itertools.product(*grids):
        z = float(e.sum())
        per_bus = np.zeros(net.n_buses)
        cost = 0.0
        for b, v in zip(bids, combo):
            sign = 1.0 if b.direction == "up" else -1.0
            z -= sign * v
            per_bus[net.bus_index[b.bus]] += sign * v
            cost += b.price * v * sign
        if z_fixed is not None:
            # Only grid points whose forced interface flow lands exactly on
            # the pin; callers choose steps that divide the relevant volumes.
            if abs(z - z_fixed) > 1e-9:
                continue
        elif not dso.z_min - 1e-9 <= z <= dso.z_max + 1e-9:
            continue
        p = per_bus - e
        ri = net.bus_index[net.root]
        p[ri] = 0.0
        p[ri] = -float(p.sum())
        flows = sens @ p
        if np.any(flows < lo - 1e-9) or np.any(flows > hi + 1e-9):
            continue
        cost += c_z * z
        if best is None or cost < best:
            best, best_point = cost, (dict(zip((b.id for b in bids), combo)), z)
    return best, best_point


def layer2_grid_oracle(case: MarketCase, cleared_up: dict[int, float],
                       cleared_down: dict[int, float], caps: dict[str, float],
                       c_z: dict[int, float], step: float):
    """Brute-force the practical TSO layer.

    Distribution residual volumes run on grids, each DSO's interface flow
    closes its aggregated balance, and one transmission bid at a time
    closes the transmission balance, so every candidate satisfies every
    equality exactly.
    """
    from flexmkt.netmodel import build_sensitivity

    tn = case.transmission
    sens0 = build_sensitivity(tn)
    lo0, hi0 = tn.flow_bounds()
    e0 = np.array(case.base_injections)

    dso_bids = [b for b in case.bids if b.system != 0]
    grids = [np.arange(0.0, caps.get(b.id, 0.0) + step / 2.0, step)
             for b in dso_bids]
    tn_bids = case.bids_of(0)
    best = None
    for combo in itertools.product(*grids):
        z = {}
        ok = True
        cost = 0.0
        for dso in case.dsos:
            m = dso.index
            zm = sum(dso.base_injections) - cleared_up[m] + cleared_down[m]
            for b, v in zip(dso_bids, combo):
                if b.system != m:
                    continue
                sign = 1.0 if b.direction == "up" else -1.0
                zm -= sign * v
                cost += b.price * v * sign
            if not dso.z_min - 1e-9 <= zm <= dso.z_max + 1e-9:
                ok = False
                break
            z[m] = zm
            cost -= c_z.get(m, 0.0) * zm
        if not ok:
            continue
        need = float(e0.sum()) - sum(z.values())
        for closer_idx in range(len(tn_bids)):
            closer = tn_bids[closer_idx]
            others = [b for i, b in enumerate(tn_bids) if i != closer_idx]
            ogrids = [np.arange(0.0, b.quantity_max + step / 2.0, step)
                      for b in others]
            for ocombo in itertools.product(*ogrids):
                net_vol = sum(v if b.direction == "up" else -v
                              for b, v in zip(others, ocombo))
                resid = need - net_vol
                vol = resid if closer.direction == "up" else -resid
                if not -1e-9 <= vol <= closer.quantity_max + 1e-9:
                    continue
                vol = min(max(vol, 0.0), closer.quantity_max)
                per_bus = np.zeros(tn.n_buses)
                c0 = 0.0
                for b, v in list(zip(others, ocombo)) + [(closer, vol)]:
                    sign = 1.0 if b.direction == "up" else -1.0
                    per_bus[tn.bus_index[b.bus]] += sign * v
                    c0 += b.price * v * sign
                for dso in case.dsos:
                    per_bus[tn.bus_index[dso.coupling_bus]] += z[dso.index]
                p0 = per_bus - e0
                ri = tn.bus_index[tn.root]
                p0[ri] = 0.0
                p0[ri] = -float(p0.sum())
                flows = sens0 @ p0
                if np.any(flows < lo0 - 1e-9) or np.any(flows > hi0 + 1e-9):
                    continue
                total = cost + c0
                if best is None or total < best:
                    best = total
    return best
