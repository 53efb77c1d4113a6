"""Grid-safety verification, the inefficiency metric, and the brute-force
oracle the test suite uses as an independent reference.

Grid safety is an existence statement: cleared volumes are safe when some
nodal injections and interface flows satisfy every balance, line limit,
and interface bound at once. With the volumes held constant there is only
one candidate point, so the check evaluates it instead of searching:

* every balance row fixes its bus's net injection to the volumes there,
  plus any interface flow entering the bus, minus the base injection;
* each distribution system's consistency row (injections summing to
  zero) then fixes its interface flow to its base injections minus its
  volumes;
* the root column of every sensitivity matrix is zero, so the injections
  left free at a root (the transmission root is the slack toward the
  wider grid) move no line flow.

The verdict reports, per system, whether that point keeps every line
within its limits and every interface flow within its bounds, and by how
much it misses otherwise. Filtering's corner probes share the same
evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .clearing import check_volume_ids, sensitivity
from .errors import ContractError, ModelError, OracleError
from .market_model import DIR_DOWN, DIR_UP, MarketCase

__all__ = ["SafetyVerdict", "EfficiencyReport", "OracleResult",
           "is_grid_safe", "inefficiency", "brute_force_oracle"]

_SAFE_TOL = 1e-6
_ETA_ZERO = 1e-9     # |J_com| at most this leaves eta_pct undefined
_ORACLE_TOL = 1e-9   # oracle grid points this far outside a bound still count
_ORACLE_TIE = 1e-12  # an oracle candidate must beat the best by more than this


@dataclass(frozen=True)
class SafetyVerdict:
    safe: bool
    system_feasible: dict[int, bool]
    max_flow_violation: float
    max_interface_violation: float

    def __bool__(self) -> bool:
        return self.safe


@dataclass(frozen=True)
class EfficiencyReport:
    """Percentage excess of a method's total cost over the common optimum.

    When the benchmark cost is numerically zero the percentage is
    undefined and only the absolute gap is meaningful.
    """

    j_total: float
    j_common: float
    eta_pct: float | None
    gap: float


def inefficiency(j_total: float, j_common: float) -> EfficiencyReport:
    if not (math.isfinite(j_total) and math.isfinite(j_common)):
        raise ContractError("inefficiency requires finite cost values")
    gap = j_total - j_common
    eta = 100.0 * gap / abs(j_common) if abs(j_common) > _ETA_ZERO else None
    return EfficiencyReport(j_total=j_total, j_common=j_common, eta_pct=eta, gap=gap)


def _volume_injections(case: MarketCase, system: int, upward: dict[str, float],
                       downward: dict[str, float]) -> np.ndarray:
    """Per-bus volumes of one system minus its base injections: the net
    injections before any interface flow enters."""
    net = case.system_network(system)
    p = -np.asarray(case.system_injections(system), dtype=float)
    for b in case.bids_of(system):
        vol = upward.get(b.id, 0.0) if b.direction == DIR_UP else -downward.get(b.id, 0.0)
        p[net.bus_index[b.bus]] += vol
    return p


def _line_overload(case: MarketCase, system: int, injections: np.ndarray) -> float:
    """Largest excess of any line flow over its limits, or 0."""
    net = case.system_network(system)
    flows = sensitivity(net) @ injections
    lo, hi = net.flow_bounds()
    return float(max(0.0, np.max(flows - hi, initial=0.0), np.max(lo - flows, initial=0.0)))


def _dso_point(case: MarketCase, m: int, upward: dict[str, float],
              downward: dict[str, float]) -> tuple[float, float, float]:
    """Distribution system ``m`` at the one point its volumes fix: the
    interface flow its consistency row forces, the largest line overload,
    and the excess of that flow over the interface bounds."""
    dso = case.dso(m)
    p = _volume_injections(case, m, upward, downward)
    z = -float(np.sum(p))
    return z, _line_overload(case, m, p), max(0.0, z - dso.z_max, dso.z_min - z)


def is_grid_safe(case: MarketCase, upward: dict[str, float],
                 downward: dict[str, float]) -> SafetyVerdict:
    """Existence check for final cleared volumes.

    Feasible injections and interface flows exist exactly when the single
    point the volumes fix (see the module docstring) is feasible, so the
    check evaluates that point with the cached sensitivities. A system is
    feasible when its largest line overload, and for a distribution
    system also its interface-bound excess, is at most 1e-6 MW. The
    transmission grid is judged at the interface flows the distribution
    systems force. A volume under an id that is not a bid of its
    direction raises ``ContractError``.
    """
    check_volume_ids(case, upward, downward)
    p0 = _volume_injections(case, 0, upward, downward)
    overload: dict[int, float] = {}
    z_excess: dict[int, float] = {0: 0.0}
    for dso in case.dsos:
        m = dso.index
        z, overload[m], z_excess[m] = _dso_point(case, m, upward, downward)
        p0[case.transmission.bus_index[dso.coupling_bus]] += z
    overload[0] = _line_overload(case, 0, p0)
    feasible = {s: max(overload[s], z_excess[s]) <= _SAFE_TOL for s in z_excess}
    return SafetyVerdict(
        safe=all(feasible.values()),
        system_feasible=feasible,
        max_flow_violation=max(overload.values()),
        max_interface_violation=max(z_excess.values()),
    )


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleResult:
    objective: float
    upward: dict[str, float]
    downward: dict[str, float]
    interface_flows: dict[int, float]


def brute_force_oracle(case: MarketCase, step: float) -> OracleResult:
    """Grid enumeration of the co-optimized clearing, for tests only.

    Bid volumes run over uniform grids; each distribution system's
    interface flow is then forced by its aggregate balance, and one
    transmission bid at a time plays the continuous balancer so every
    candidate point satisfies all balances exactly. Feasibility of
    injections and flows is checked by direct linear algebra, never by the
    LP solver under test. The minimum over candidates is within a
    cost-Lipschitz times step times dimension band of the true optimum.
    Deliberately unscalable; refuses instances beyond a few bids or buses.
    """
    if step <= 0.0:
        raise OracleError("step must be positive")
    n_buses = case.transmission.n_buses + sum(d.network.n_buses for d in case.dsos)
    if len(case.bids) > 6 or n_buses > 6:
        raise OracleError(
            f"oracle refuses instance with {len(case.bids)} bids / {n_buses} buses"
        )

    def volume_grid(qmax: float) -> np.ndarray:
        return np.arange(0.0, qmax + step / 2.0, step)

    # Per-DSO feasible candidates: volumes, forced interface flow, local cost.
    dso_feasible: list[list[tuple[dict[str, float], dict[str, float], float, float]]] = []
    for dso in case.dsos:
        m = dso.index
        net, e = dso.network, np.array(dso.base_injections)
        sens = sensitivity(net)
        ups = case.bids_of(m, DIR_UP)
        downs = case.bids_of(m, DIR_DOWN)
        bids = ups + downs
        grids = [volume_grid(b.quantity_max) for b in bids]
        found = []
        for combo in itertools.product(*grids):
            z = float(np.sum(e))
            per_bus = np.zeros(net.n_buses)
            for b, vol in zip(bids, combo):
                sign = 1.0 if b.direction == DIR_UP else -1.0
                z -= sign * vol
                per_bus[net.bus_index[b.bus]] += sign * vol
            if not dso.z_min - _ORACLE_TOL <= z <= dso.z_max + _ORACLE_TOL:
                continue
            p = per_bus - e
            ri = net.bus_index[net.root]
            p[ri] = 0.0
            p[ri] = -float(np.sum(p))
            flows = sens @ p
            lo, hi = net.flow_bounds()
            if np.any(flows < lo - _ORACLE_TOL) or np.any(flows > hi + _ORACLE_TOL):
                continue
            up_v = {b.id: float(v) for b, v in zip(bids, combo) if b.direction == DIR_UP}
            dn_v = {b.id: float(v) for b, v in zip(bids, combo) if b.direction == DIR_DOWN}
            cost = sum(b.price * v for b, v in zip(bids, combo)
                       if b.direction == DIR_UP) - \
                sum(b.price * v for b, v in zip(bids, combo) if b.direction == DIR_DOWN)
            found.append((up_v, dn_v, z, cost))
        if not found:
            raise ModelError(f"oracle found no feasible grid point for DSO {m}")
        dso_feasible.append(found)

    tn = case.transmission
    e0 = np.array(case.base_injections)
    sens0 = sensitivity(tn)
    lo0, hi0 = tn.flow_bounds()
    tn_bids = case.bids_of(0)
    coupling_of = {dso.index: dso.coupling_bus for dso in case.dsos}

    best: OracleResult | None = None
    for dso_combo in itertools.product(*dso_feasible) if dso_feasible else [()]:
        z_by_dso = {dso.index: entry[2] for dso, entry in zip(case.dsos, dso_combo)}
        dn_cost = sum(entry[3] for entry in dso_combo)
        need = float(np.sum(e0)) - sum(z_by_dso.values())

        for closer_idx in range(len(tn_bids)) if tn_bids else [-1]:
            others = [b for i, b in enumerate(tn_bids) if i != closer_idx]
            closer = tn_bids[closer_idx] if closer_idx >= 0 else None
            grids = [volume_grid(b.quantity_max) for b in others]
            for combo in itertools.product(*grids):
                net_vol = sum(v if b.direction == DIR_UP else -v
                              for b, v in zip(others, combo))
                residual = need - net_vol
                if closer is None:
                    if abs(residual) > _ORACLE_TOL:
                        continue
                    closer_vol = 0.0
                else:
                    closer_vol = residual if closer.direction == DIR_UP else -residual
                    if not -_ORACLE_TOL <= closer_vol <= closer.quantity_max + _ORACLE_TOL:
                        continue
                    closer_vol = min(max(closer_vol, 0.0), closer.quantity_max)

                per_bus = np.zeros(tn.n_buses)
                cost0 = 0.0
                for b, v in list(zip(others, combo)) + ([(closer, closer_vol)] if closer else []):
                    sign = 1.0 if b.direction == DIR_UP else -1.0
                    per_bus[tn.bus_index[b.bus]] += sign * v
                    cost0 += b.price * v * sign
                for m, z in z_by_dso.items():
                    per_bus[tn.bus_index[coupling_of[m]]] += z
                p0 = per_bus - e0
                p0[tn.bus_index[tn.root]] = 0.0
                p0[tn.bus_index[tn.root]] = -float(np.sum(p0))
                flows = sens0 @ p0
                if np.any(flows < lo0 - _ORACLE_TOL) or np.any(flows > hi0 + _ORACLE_TOL):
                    continue

                total = dn_cost + cost0
                if best is None or total < best.objective - _ORACLE_TIE:
                    up_all: dict[str, float] = {}
                    dn_all: dict[str, float] = {}
                    for entry in dso_combo:
                        up_all.update(entry[0])
                        dn_all.update(entry[1])
                    for b, v in list(zip(others, combo)) + ([(closer, closer_vol)] if closer else []):
                        if b.direction == DIR_UP:
                            up_all[b.id] = float(v)
                        else:
                            dn_all[b.id] = float(v)
                    best = OracleResult(objective=float(total), upward=up_all,
                                        downward=dn_all, interface_flows=dict(z_by_dso))
    if best is None:
        raise ModelError("oracle found no feasible grid point")
    return best
