"""Linearized network models and injection-to-flow sensitivities.

Transmission and distribution grids are both represented as a bus/line
topology with series reactances and MW flow limits. Flows follow the DC
approximation: a dense sensitivity matrix maps nodal net injections to
line flows, with the root bus acting as slack (its column is identically
zero). For radial networks the matrix is computed combinatorially from
root-to-bus paths, which keeps every entry in {-1, 0} when lines are
oriented root-to-leaf; meshed networks use the standard PTDF built from
the reduced susceptance Laplacian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContractError, NumericalError, TopologyError
from .mp_solver import SparseRows

__all__ = ["Line", "Network", "build_sensitivity", "line_flows", "is_radial"]


@dataclass(frozen=True)
class Line:
    """One branch: explicit orientation from_bus -> to_bus, reactance in p.u.,
    flow bounds in MW measured along the stored orientation."""

    from_bus: int
    to_bus: int
    reactance: float
    f_min: float
    f_max: float


@dataclass(frozen=True)
class Network:
    """Connected bus/line topology with a designated root (slack) bus.

    Invariants enforced at construction: no self-loops, strictly positive
    reactances, flow bounds that bracket zero, root membership, and
    connectivity. Instances are immutable and safe to share.

    Each network object builds on first use, and keeps for its lifetime,
    its injection-to-flow ``sensitivity`` and, from that, its
    ``line_terms``: every line's nonzero (bus position, coefficient) pairs,
    which each program's line rows map onto its own columns.
    """

    buses: tuple[int, ...]
    lines: tuple[Line, ...]
    root: int

    def __post_init__(self):
        if len(set(self.buses)) != len(self.buses):
            raise TopologyError("duplicate bus ids")
        if self.root not in self.buses:
            raise TopologyError(f"root bus {self.root} is not a member of the network")
        seen = set(self.buses)
        for ln in self.lines:
            if ln.from_bus == ln.to_bus:
                raise TopologyError(f"self-loop at bus {ln.from_bus}")
            if ln.from_bus not in seen or ln.to_bus not in seen:
                raise TopologyError(f"line {ln.from_bus}-{ln.to_bus} references unknown bus")
            if not ln.reactance > 0.0:
                raise TopologyError(f"line {ln.from_bus}-{ln.to_bus} has non-positive reactance")
            if not (ln.f_min <= 0.0 <= ln.f_max):
                raise TopologyError(
                    f"line {ln.from_bus}-{ln.to_bus} flow bounds [{ln.f_min}, {ln.f_max}] "
                    "do not bracket zero"
                )
        if not self._connected():
            raise TopologyError("network graph is disconnected")

    def _connected(self) -> bool:
        if not self.buses:
            return False
        adj: dict[int, list[int]] = {b: [] for b in self.buses}
        for ln in self.lines:
            adj[ln.from_bus].append(ln.to_bus)
            adj[ln.to_bus].append(ln.from_bus)
        stack, reached = [self.root], {self.root}
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in reached:
                    reached.add(nxt)
                    stack.append(nxt)
        return len(reached) == len(self.buses)

    @cached_property
    def bus_index(self) -> dict[int, int]:
        return {b: i for i, b in enumerate(self.buses)}

    @cached_property
    def sensitivity(self) -> np.ndarray:
        """Injection-to-flow sensitivities, built on first use and kept for
        the lifetime of this network object."""
        return build_sensitivity(self)

    @cached_property
    def line_terms(self) -> SparseRows:
        """Each line's nonzero sensitivities as (bus position, coefficient)
        pairs in bus order, checked finite once, when first used, and kept
        for the lifetime of this network object."""
        return SparseRows(self.sensitivity)

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    def flow_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([ln.f_min for ln in self.lines], dtype=float)
        hi = np.array([ln.f_max for ln in self.lines], dtype=float)
        return lo, hi


def is_radial(network: Network) -> bool:
    """True iff the (connected) network is a tree: |lines| = |buses| - 1."""
    return network.n_lines == network.n_buses - 1


def _radial_sensitivity(network: Network) -> np.ndarray:
    """Path-based sensitivity for trees.

    A line picks up -1 for every bus whose root path crosses it in the
    stored orientation (parent -> child), +1 if the line is stored
    child -> parent. Networks built by this package always store lines
    root-to-leaf, so entries are non-positive.
    """
    idx = network.bus_index
    adj: dict[int, list[tuple[int, int, float]]] = {b: [] for b in network.buses}
    for li, ln in enumerate(network.lines):
        adj[ln.from_bus].append((ln.to_bus, li, -1.0))
        adj[ln.to_bus].append((ln.from_bus, li, +1.0))

    entries = np.zeros((network.n_lines, network.n_buses))
    # DFS from the root; the column of a bus is the column of its parent
    # plus the signed entry of the connecting line.
    stack = [network.root]
    visited = {network.root}
    while stack:
        bus = stack.pop()
        for child, li, sign in adj[bus]:
            if child in visited:
                continue
            visited.add(child)
            entries[:, idx[child]] = entries[:, idx[bus]]
            entries[li, idx[child]] += sign
            stack.append(child)
    return entries


def _meshed_sensitivity(network: Network) -> np.ndarray:
    """Standard DC PTDF with the root bus as slack.

    Solves the reduced susceptance Laplacian, which a connected graph with
    positive reactances keeps nonsingular in exact arithmetic.
    """
    idx = network.bus_index
    n, m = network.n_buses, network.n_lines
    incidence = np.zeros((m, n))
    b_series = np.zeros(m)
    for li, ln in enumerate(network.lines):
        incidence[li, idx[ln.from_bus]] = 1.0
        incidence[li, idx[ln.to_bus]] = -1.0
        b_series[li] = 1.0 / ln.reactance

    keep = [i for i in range(n) if i != idx[network.root]]
    a_red = incidence[:, keep]
    lap_red = a_red.T @ (b_series[:, None] * a_red)
    try:
        ptdf_red = np.linalg.solve(lap_red, (b_series[:, None] * a_red).T).T
    except np.linalg.LinAlgError:
        raise NumericalError("singular reduced susceptance Laplacian") from None

    entries = np.zeros((m, n))
    entries[:, keep] = ptdf_red
    return entries


def build_sensitivity(network: Network) -> np.ndarray:
    """Read-only line-by-bus map from nodal injections (MW) to line flows (MW).

    Radial networks use the exact path construction; meshed networks the
    DC PTDF with the root as slack. The root column is zero either way,
    stored explicitly so bus indexing stays uniform.
    """
    if is_radial(network):
        entries = _radial_sensitivity(network)
    else:
        entries = _meshed_sensitivity(network)
    entries.flags.writeable = False
    return entries


def line_flows(sens: np.ndarray, injections: np.ndarray) -> np.ndarray:
    """Line flows (MW) for a nodal injection vector. Pure, no limit checks."""
    inj = np.asarray(injections, dtype=float)
    if inj.shape != (sens.shape[1],):
        raise ContractError(
            f"injection vector has shape {inj.shape}, expected ({sens.shape[1]},)"
        )
    return sens @ inj
