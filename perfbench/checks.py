"""Operations of a pass and the checks each must pass.

An operation is one common clearing or one method outcome (one
``results.csv`` row). Each pass reduces the calls the recorder saw to
compact ``Op`` records, so no outcome object outlives its pass; the
checks run after the timed passes, against the independent programs in
``checker``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MUST_BE_SAFE = ("filtering", "aggregation_primal", "aggregation_dual")


@dataclass
class Op:
    family: str                      # end-to-end metric family of the call
    case_id: str
    method: str                      # "common" or the outcome's method
    status: str
    cost: float                      # common objective or outcome total cost
    pricing: str | None = None
    delta: float | None = None
    refine: int | None = None
    j_common: float | None = None
    safe: bool | None = None
    volumes: tuple = ()              # (sorted upward items, sorted downward items)
    failures: list[str] = field(default_factory=list)


def op_from_call(call) -> Op:
    case = call.args[0]
    if call.entry == "clear_common":
        res = call.result
        return Op(call.family, case.name, "common", res.status, res.objective)
    out = call.result
    op = Op(call.family, case.name, out.method, out.status, out.total_cost,
            j_common=out.j_common, safe=out.safe,
            volumes=(tuple(sorted(out.final_upward.items())),
                     tuple(sorted(out.final_downward.items()))))
    if call.entry == "run_bid_aggregation":
        op.delta, op.refine = call.args[1], call.args[2]
    else:
        op.pricing = call.args[1].kind
    return op


class Reference:
    """Independent results, computed once per case or per volume set."""

    def __init__(self, cases: dict):
        from checker import common_objective, grid_safe

        self._common_objective = common_objective
        self._grid_safe = grid_safe
        self.cases = cases
        self._j: dict[str, float] = {}
        self._safe: dict[tuple, bool] = {}

    def j_common(self, case_id: str) -> float:
        if case_id not in self._j:
            self._j[case_id] = self._common_objective(self.cases[case_id])
        return self._j[case_id]

    def safe(self, case_id: str, volumes: tuple) -> bool:
        key = (case_id, volumes)
        if key not in self._safe:
            self._safe[key] = self._grid_safe(self.cases[case_id], dict(volumes[0]),
                                              dict(volumes[1]))
        return self._safe[key]


def check_op(op: Op, ref: Reference) -> list[str]:
    """Checks on one operation alone; returns the failed ones."""
    fails = []
    j = ref.j_common(op.case_id)
    tol = 1e-6 * (1.0 + abs(j))
    if op.method == "common":
        if op.status != "optimal":
            fails.append(f"common clearing {op.status}")
        elif not abs(op.cost - j) <= tol:
            fails.append(f"J_com {op.cost!r} differs from the independent {j!r}")
        return fails
    if op.status != "ok":
        return [f"status {op.status}"]
    if op.j_common is None or not abs(op.j_common - j) <= tol:
        fails.append(f"J_com {op.j_common!r} differs from the independent {j!r}")
    if op.safe is None:
        fails.append("no safety verdict")
    elif op.safe != ref.safe(op.case_id, op.volumes):
        fails.append(f"verdict safe={op.safe} differs from the independent check")
    if op.safe and not op.cost >= j - tol:
        fails.append(f"safe outcome costs {op.cost!r}, below J_com {j!r}")
    if op.method in MUST_BE_SAFE and op.safe is False:
        fails.append("outcome not grid-safe")
    return fails


def check_pairs(ops: list[Op], ref: Reference) -> None:
    """Orderings between outcomes of one pass; a failure is charged to the
    first operation of the pair.

    idealized <= fragmented under the same pricing rule (criterion 1);
    primal <= dual at the same step size and round count (criterion 9);
    primal with more refinement rounds <= primal with fewer.
    """
    def tol(op):
        return 1e-6 * (1.0 + abs(ref.j_common(op.case_id)))

    by_key: dict[tuple, list[Op]] = {}
    for op in ops:
        if op.status == "ok":
            by_key.setdefault((op.case_id, op.method, op.pricing, op.delta, op.refine),
                              []).append(op)
    for (case_id, method, pricing, delta, refine), group in by_key.items():
        if method == "idealized":
            other = by_key.get((case_id, "fragmented", pricing, delta, refine), [])
            for a in group:
                if any(not a.cost <= b.cost + tol(a) for b in other):
                    a.failures.append("idealized cost above fragmented")
        elif method == "aggregation_primal":
            other = by_key.get((case_id, "aggregation_dual", pricing, delta, refine), [])
            for a in group:
                if any(not a.cost <= b.cost + tol(a) for b in other):
                    a.failures.append("primal cost above dual")
            for (c2, m2, p2, d2, r2), coarse in by_key.items():
                if (c2, m2, p2, d2) == (case_id, method, pricing, delta) and r2 < refine:
                    for a in group:
                        if any(not a.cost <= b.cost + tol(a) for b in coarse):
                            a.failures.append(f"refinement round {refine} raised the cost")


def self_test(ops: list[Op], ref: Reference) -> list[str]:
    """Perturbed outcomes the checks must reject; returns what slipped by."""
    import copy

    missed = []
    common = next((op for op in ops if op.method == "common"), None)
    if common is not None:
        bad = copy.copy(common)
        bad.cost = common.cost * 1.01 + (1.0 if abs(common.cost) < 1.0 else 0.0)
        if not check_op(bad, ref):
            missed.append("J_com off by 1 % passed the checks")
    safe_op = next((op for op in ops if op.method in MUST_BE_SAFE and op.safe), None)
    if safe_op is not None:
        bad = copy.copy(safe_op)
        bad.volumes = _overload_feeder(ref.cases[safe_op.case_id], safe_op.volumes)
        if not check_op(bad, ref):
            missed.append("volumes past a feeder line limit passed the checks")
    if common is None or safe_op is None:
        missed.append("no outcome to perturb")
    return missed


def _overload_feeder(case, volumes: tuple) -> tuple:
    """Push one upward bid deep in a feeder past its incoming line's range."""
    up = dict(volumes[0])
    for bid in case.bids:
        if bid.system == 0 or bid.direction != "up":
            continue
        net = next(d.network for d in case.dsos if d.index == bid.system)
        line = next((ln for ln in net.lines if ln.to_bus == bid.bus), None)
        if line is not None:
            up[bid.id] = up.get(bid.id, 0.0) + (line.f_max - line.f_min) + 1.0
            return tuple(sorted(up.items())), volumes[1]
    raise RuntimeError("no feeder bid to perturb")
