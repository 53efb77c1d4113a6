"""Independent reference for the benchmark's checks.

Both programs are built here from the case data alone (networks, base
injections, interface bounds and bids) with ``scipy.sparse`` and solved
by HiGHS through ``scipy.optimize.linprog``. No flexmkt code is used;
only the fields of the case objects are read.

Flows use the angle (B-theta) form of the DC model: every bus but the
root of each system carries a voltage angle, a line's flow is the angle
difference over its reactance, and a bus's net injection is the flow it
sends out. The package uses injection-to-flow sensitivities instead; the
two agree when the injections of a system sum to zero, which the balance
rows enforce. Sign conventions follow the package's model: positive base
injection is a deficit, upward volumes add to a bus's injection and
downward volumes take from it, and the interface flow of DSO ``m`` adds
to the injection at its transmission coupling bus and at its feeder root.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

SAFE_TOL = 1e-6       # the violation below which a system counts as feasible
COST_RTOL = 1e-6      # relative tolerance on costs: 1e-6 * (1 + |J|)


def cost_scale(j: float) -> float:
    return COST_RTOL * (1.0 + abs(j))


class _Rows:
    """Sparse row builder: one ``add`` per constraint row."""

    def __init__(self):
        self.data: list[float] = []
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.rhs: list[float] = []

    def add(self, terms: dict[int, float], rhs: float) -> None:
        r = len(self.rhs)
        for col, val in terms.items():
            if val != 0.0:
                self.rows.append(r)
                self.cols.append(col)
                self.data.append(val)
        self.rhs.append(rhs)

    def matrix(self, n_cols: int):
        if not self.rhs:
            return None, None
        return (sparse.csr_array((self.data, (self.rows, self.cols)),
                                 shape=(len(self.rhs), n_cols)),
                np.array(self.rhs))


def _systems(case):
    """(system id, network, base injections, buses where interface flows
    enter as (bus, dso index)) for the transmission grid and each DSO."""
    tso_z = [(d.coupling_bus, d.index) for d in case.dsos]
    out = [(0, case.transmission, case.base_injections, tso_z)]
    for d in case.dsos:
        out.append((d.index, d.network, d.base_injections, [(d.network.root, d.index)]))
    return out


def _angle_columns(systems, first_col: int) -> tuple[dict, int]:
    """Column of each non-root bus angle, keyed by (system, bus)."""
    cols = {}
    col = first_col
    for sid, net, _, _ in systems:
        for bus in net.buses:
            if bus != net.root:
                cols[(sid, bus)] = col
                col += 1
    return cols, col


def _flow_terms(sid, net, line, theta) -> dict[int, float]:
    """Flow of one line (along its stored orientation) as angle terms."""
    terms: dict[int, float] = {}
    b = 1.0 / line.reactance
    if line.from_bus != net.root:
        terms[theta[(sid, line.from_bus)]] = b
    if line.to_bus != net.root:
        terms[theta[(sid, line.to_bus)]] = terms.get(theta[(sid, line.to_bus)], 0.0) - b
    return terms


def _injection_terms(sid, net, bus, theta) -> dict[int, float]:
    """Net injection of ``bus`` (flow sent out over its lines) as angle terms."""
    terms: dict[int, float] = {}
    for line in net.lines:
        if bus in (line.from_bus, line.to_bus):
            sign = 1.0 if bus == line.from_bus else -1.0
            for col, val in _flow_terms(sid, net, line, theta).items():
                terms[col] = terms.get(col, 0.0) + sign * val
    return terms


def _solve(c, ub: _Rows, eq: _Rows, bounds):
    a_ub, b_ub = ub.matrix(len(c))
    a_eq, b_eq = eq.matrix(len(c))
    res = linprog(np.array(c), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference program not solved: {res.message}")
    return res


def common_objective(case) -> float:
    """Optimal cost of the co-optimized clearing over every grid."""
    systems = _systems(case)
    bids = list(case.bids)
    dso_col = {d.index: len(bids) + k for k, d in enumerate(case.dsos)}
    theta, n_cols = _angle_columns(systems, len(bids) + len(case.dsos))
    c = [0.0] * n_cols
    bounds: list[tuple[float | None, float | None]] = [(None, None)] * n_cols
    for j, b in enumerate(bids):
        c[j] = b.price if b.direction == "up" else -b.price
        bounds[j] = (0.0, b.quantity_max)
    for d in case.dsos:
        bounds[dso_col[d.index]] = (d.z_min, d.z_max)

    ub, eq = _Rows(), _Rows()
    for sid, net, e, z_at in systems:
        for k, bus in enumerate(net.buses):
            # volumes + interface flows - injection = base injection
            terms = {col: -v for col, v in _injection_terms(sid, net, bus, theta).items()}
            for j, b in enumerate(bids):
                if b.system == sid and b.bus == bus:
                    terms[j] = terms.get(j, 0.0) + (1.0 if b.direction == "up" else -1.0)
            for z_bus, m in z_at:
                if z_bus == bus:
                    terms[dso_col[m]] = terms.get(dso_col[m], 0.0) + 1.0
            eq.add(terms, float(e[k]))
        for line in net.lines:
            flow = _flow_terms(sid, net, line, theta)
            ub.add(flow, line.f_max)
            ub.add({col: -v for col, v in flow.items()}, -line.f_min)
    return float(_solve(c, ub, eq, bounds).fun)


def grid_safe(case, upward: dict[str, float], downward: dict[str, float]) -> bool:
    """Existence check for cleared volumes, as ``is_grid_safe`` documents it.

    Volumes are constants; interface flows and angles are free. Line
    flows and interface bounds carry non-negative violation slacks and
    each DSO's consistency (its injections summing to zero) a free
    residual; the transmission root is the slack toward the wider grid,
    so the transmission grid checks line flows only. The program
    minimizes the total violation, and the volumes are safe when no
    system's largest violation exceeds 1e-6.
    """
    systems = _systems(case)
    z_col = {d.index: k for k, d in enumerate(case.dsos)}
    col = len(case.dsos)
    vz_col = {d.index: col + k for k, d in enumerate(case.dsos)}
    col += len(case.dsos)
    resid_col = {d.index: (col + 2 * k, col + 2 * k + 1) for k, d in enumerate(case.dsos)}
    col += 2 * len(case.dsos)
    vflow_col: dict[tuple[int, int], int] = {}
    for sid, net, _, _ in systems:
        for li in range(len(net.lines)):
            vflow_col[(sid, li)] = col
            col += 1
    slacks = range(len(case.dsos), col)
    theta, n_cols = _angle_columns(systems, col)
    c = [0.0] * n_cols
    bounds: list[tuple[float | None, float | None]] = [(None, None)] * n_cols
    for idx in slacks:
        c[idx], bounds[idx] = 1.0, (0.0, None)

    ub, eq = _Rows(), _Rows()
    for d in case.dsos:
        ub.add({z_col[d.index]: 1.0, vz_col[d.index]: -1.0}, d.z_max)
        ub.add({z_col[d.index]: -1.0, vz_col[d.index]: -1.0}, -d.z_min)
    for sid, net, e, z_at in systems:
        const = {bus: 0.0 for bus in net.buses}
        for b in case.bids:
            if b.system == sid:
                if b.direction == "up":
                    const[b.bus] += upward.get(b.id, 0.0)
                else:
                    const[b.bus] -= downward.get(b.id, 0.0)
        for k, bus in enumerate(net.buses):
            if bus == net.root:
                continue
            # injection - interface flows = volumes - base injection
            terms = dict(_injection_terms(sid, net, bus, theta))
            for z_bus, m in z_at:
                if z_bus == bus:
                    terms[z_col[m]] = terms.get(z_col[m], 0.0) - 1.0
            eq.add(terms, const[bus] - float(e[k]))
        if sid != 0:
            # sum of injections = volumes + z - sum(e) must vanish: resid+ - resid-
            pos, neg = resid_col[sid]
            eq.add({z_col[sid]: 1.0, pos: -1.0, neg: 1.0},
                   float(sum(e)) - sum(const.values()))
        for li, line in enumerate(net.lines):
            flow = _flow_terms(sid, net, line, theta)
            v = vflow_col[(sid, li)]
            ub.add({**flow, v: -1.0}, line.f_max)
            ub.add({**{k: -val for k, val in flow.items()}, v: -1.0}, -line.f_min)
    x = _solve(c, ub, eq, bounds).x
    return bool(max((x[i] for i in slacks), default=0.0) <= SAFE_TOL)
