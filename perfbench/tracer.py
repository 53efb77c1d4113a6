"""Name rebinding for the benchmark: a cheap per-call recorder on the
entry points ``flexmkt.cli`` calls, and a span tracer over the package's
public functions.

Both work from outside the program. They replace a function object by a
wrapper in every ``flexmkt`` module namespace that holds it, and put the
original back afterwards, so a pass with nothing installed runs the
unmodified code.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass, field

_clock = time.perf_counter


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def rebind(self, original, replacement) -> None:
        """Point every ``flexmkt`` module attribute bound to ``original``
        at ``replacement``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "flexmkt":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


# ---------------------------------------------------------------------------
# Recorder: times the calls flexmkt.cli makes into the library
# ---------------------------------------------------------------------------

# Entry points run_experiment reaches through its own module namespace.
ENTRY_POINTS = ("clear_common", "run_three_layer", "run_bid_filtering",
                "run_sequential", "run_bid_aggregation")


@dataclass
class Call:
    entry: str
    args: tuple
    kwargs: dict
    result: object
    seconds: float

    @property
    def family(self) -> str:
        """End-to-end metric family: common, three_layer, filtering,
        sequential, aggregation_primal or aggregation_dual."""
        if self.entry == "clear_common":
            return "common"
        if self.entry == "run_bid_aggregation":
            variant = self.args[3] if len(self.args) > 3 else self.kwargs.get("variant", "primal")
            return f"aggregation_{variant}"
        return {"run_three_layer": "three_layer", "run_bid_filtering": "filtering",
                "run_sequential": "sequential"}[self.entry]


class Recorder:
    """Wraps the entry points in ``flexmkt.cli`` and keeps each call's
    arguments, result and wall time."""

    def __init__(self):
        self.calls: list[Call] = []

    def install(self, patches: Patches) -> None:
        import flexmkt.cli as cli

        for name in ENTRY_POINTS:
            patches.set(cli, name, self._wrap(name, getattr(cli, name)))

    def _wrap(self, entry: str, fn):
        calls = self.calls

        def recorded(*args, **kwargs):
            t0 = _clock()
            result = fn(*args, **kwargs)
            calls.append(Call(entry, args, kwargs, result, _clock() - t0))
            return result

        return recorded


# ---------------------------------------------------------------------------
# Tracer: spans at the package's layer boundaries
# ---------------------------------------------------------------------------

# (module, function, stage tag). A solve_lp call belongs to the stage of
# the innermost tagged span around it; untagged spans are glue whose own
# time goes to the stage of their nearest tagged ancestor, or "other".
TRACED = (
    ("flexmkt.casegen", "generate_case", "casegen"),
    ("flexmkt.clearing", "clear_common", "common"),
    ("flexmkt.clearing", "clear_dso_layer1", "layer1"),
    ("flexmkt.clearing", "clear_tso_layer2", "layer2"),
    ("flexmkt.clearing", "clear_idealized_layer2", "layer2"),
    ("flexmkt.clearing", "clear_fragmented_layer2", "layer2"),
    ("flexmkt.forwarding", "run_three_layer", "layer3"),
    ("flexmkt.forwarding", "filter_bids", "filter_probe"),
    ("flexmkt.clearing", "clear_dso_fixed_interface", "rsf_step"),
    ("flexmkt.forwarding", "clear_tso_rsf", "tso_milp"),
    ("flexmkt.mp_solver.branch_bound", "solve_milp", "tso_milp"),
    ("flexmkt.safety", "is_grid_safe", "safety"),
    ("flexmkt.forwarding", "run_sequential", None),
    ("flexmkt.forwarding", "run_bid_filtering", None),
    ("flexmkt.forwarding", "run_bid_aggregation", None),
    ("flexmkt.forwarding", "build_rsf", None),
    ("flexmkt.forwarding", "build_rsf_dual", None),
    ("flexmkt.clearing", "interface_price", None),
    ("flexmkt.cli", "run_experiment", None),
)
STAGES = ("common", "layer1", "layer2", "layer3", "filter_probe", "rsf_step",
          "tso_milp", "safety", "casegen")


@dataclass
class Span:
    id: int
    name: str
    tag: str | None
    start: float
    parent: int | None
    case_id: str | None
    pass_id: int
    end: float = 0.0
    lp: dict | None = None     # solve_lp spans: rows, cols, nnz, iterations, status
    children_s: float = 0.0    # time covered by child function spans


@dataclass
class Tracer:
    """Keeps spans in memory; ``install`` rebinds the traced names."""

    workload: str
    spans: list[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    pass_id: int = -1
    _stack: list[Span] = field(default_factory=list)

    def install(self, patches: Patches) -> None:
        import importlib

        from flexmkt.mp_solver.model import LinearProgram

        for mod_name, fn_name, tag in TRACED:
            original = getattr(importlib.import_module(mod_name), fn_name)
            patches.rebind(original, self._wrap_function(fn_name, tag, original))
        simplex = importlib.import_module("flexmkt.mp_solver.simplex")
        patches.rebind(simplex.solve_lp, self._wrap_solve_lp(simplex.solve_lp))
        netmodel = importlib.import_module("flexmkt.netmodel")
        clearing = importlib.import_module("flexmkt.clearing")
        patches.rebind(netmodel.build_sensitivity,
                       self._counted("netmodel.build_sensitivity.calls",
                                     netmodel.build_sensitivity))
        patches.rebind(clearing.sensitivity,
                       self._counted("clearing.sensitivity.calls", clearing.sensitivity))
        patches.set(LinearProgram, "add_range",
                    self._counted("model.add_range.calls", LinearProgram.add_range))

    def _open(self, name: str, tag: str | None, case_id: str | None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if case_id is None and parent is not None:
            case_id = parent.case_id
        span = Span(id=len(self.spans), name=name, tag=tag, start=_clock(),
                    parent=None if parent is None else parent.id, case_id=case_id,
                    pass_id=self.pass_id)
        if name == "solve_lp":
            span.lp = {}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = _clock()
        self._stack.pop()
        if self._stack and span.lp is None:
            self._stack[-1].children_s += span.end - span.start

    def _wrap_function(self, name: str, tag: str | None, fn):
        def traced(*args, **kwargs):
            first = args[0] if args else None
            span = self._open(name, tag, getattr(first, "name", None)
                              if hasattr(first, "dsos") else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if name == "generate_case":
                span.case_id = result.name
            elif name == "filter_bids":
                self.counters["forwarding.filter_bids.probes"] += result.feasibility_solves
            elif name in ("build_rsf", "build_rsf_dual"):
                self.counters["forwarding.rsf.steps"] += len(result.steps)
                self.counters["forwarding.rsf.attempts"] += result.attempts
            elif name == "solve_milp":
                self.counters["branch_bound.solve_milp.calls"] += 1
                self.counters["branch_bound.solve_milp.nodes"] += result.nodes
            return result

        return traced

    def _wrap_solve_lp(self, fn):
        def traced(program):
            span = self._open("solve_lp", None, None)
            try:
                sol = fn(program)
            finally:
                self._close(span)
            span.lp = {"rows": program.n_rows, "cols": program.n_vars,
                       "nnz": sum(map(len, program.rows)),
                       "iterations": sol.iterations, "status": sol.status}
            return sol

        return traced

    def _counted(self, key: str, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- reading the spans --------------------------------------------

    def stage_totals(self, pass_id: int, wall_s: float) -> dict[str, float]:
        """Per-stage figures of one traced pass. Every instant of the pass
        is charged to one stage: the effective tag of the innermost
        function span open at that instant, or "other"."""
        spans = [s for s in self.spans if s.pass_id == pass_id]
        by_id = {s.id: s for s in spans}
        effective: dict[int, str] = {}

        def tag_of(span: Span) -> str:
            if span.id not in effective:
                if span.tag is not None:
                    effective[span.id] = span.tag
                elif span.parent is not None and span.parent in by_id:
                    effective[span.id] = tag_of(by_id[span.parent])
                else:
                    effective[span.id] = "other"
            return effective[span.id]

        out: dict[str, float] = {}
        for tag in STAGES + ("other",):
            for field_name in ("calls", "s", "solve_s", "iterations"):
                out[f"stage.{tag}.{field_name}"] = 0.0
        covered = 0.0
        lp_s = 0.0
        lp = Counter()
        rows_max = 0
        for span in spans:
            duration = span.end - span.start
            if span.lp is None:
                out[f"stage.{tag_of(span)}.s"] += duration - span.children_s
                if span.parent is None or span.parent not in by_id:
                    covered += duration
                continue
            tag = tag_of(by_id[span.parent]) if span.parent in by_id else "other"
            out[f"stage.{tag}.calls"] += 1
            out[f"stage.{tag}.solve_s"] += duration
            out[f"stage.{tag}.iterations"] += span.lp["iterations"]
            lp_s += duration
            lp["calls"] += 1
            lp["iterations"] += span.lp["iterations"]
            lp["nnz"] += span.lp["nnz"]
            lp["not_optimal"] += span.lp["status"] != "optimal"
            rows_max = max(rows_max, span.lp["rows"])
        out["stage.other.s"] += max(0.0, wall_s - covered)
        for tag in STAGES + ("other",):
            out[f"stage.{tag}.assembly_s"] = out[f"stage.{tag}.s"] - out[f"stage.{tag}.solve_s"]
        out["simplex.solve_lp.calls"] = lp["calls"]
        out["simplex.solve_lp.s"] = lp_s
        out["simplex.solve_lp.iterations"] = lp["iterations"]
        out["simplex.solve_lp.rows_max"] = rows_max
        out["simplex.solve_lp.nnz"] = lp["nnz"]
        out["simplex.solve_lp.not_optimal"] = lp["not_optimal"]
        out["simplex.solve_lp.us_per_iter"] = (1e6 * lp_s / lp["iterations"]
                                               if lp["iterations"] else 0.0)
        return out

    def write(self, path, extra_header: dict) -> None:
        import json

        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": self.workload, **extra_header}) + "\n")
            for s in self.spans:
                rec = {"id": s.id, "name": s.name, "tag": s.tag, "start": s.start,
                       "end": s.end, "parent": s.parent, "workload": self.workload,
                       "case_id": s.case_id, "pass": s.pass_id}
                if s.lp:
                    rec.update(s.lp)
                fh.write(json.dumps(rec) + "\n")
