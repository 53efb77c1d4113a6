"""Command-line harness: case generation, method runs, step-size sweeps,
and the executable property suite.

Subcommands: gen-case, validate, run, sweep-delta, check. Results land in
CSV files with a fixed column order so repeated runs with the same seeds
are comparable byte-for-byte (timing columns excepted, they measure the
actual run).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .casegen import CaseRecipe, emit_case, generate_case
from .clearing import CaseClearings, clear_common, interface_price
from .errors import ContractError, FlexmktError, ParseError
from .forwarding import (Outcome, run_bid_aggregation, run_bid_filtering,
                         run_sequential, run_three_layer, suboptimality_constant)
from .market_model import MarketCase, parse_case, validate_case

RESULT_COLUMNS = ["case_id", "seed", "method", "pricing", "delta_bar", "J_tot",
                  "J_com", "eta_pct", "safe", "lp_solves", "milp_nodes",
                  "wall_ms", "status"]

METHODS = ("three_layer", "filtering", "aggregation_primal", "aggregation_dual",
           "fragmented", "idealized", "sequential_raw")
PRICINGS = ("none", "optimal", "midpoint")
_CHECK_TOL = 1e-6  # check's slack on cost comparisons, relative to 1 + |J_com|


@dataclass(frozen=True)
class ExperimentConfig:
    """One batch run: cases x methods x pricing rules (x step sizes)."""

    cases: tuple[tuple[str, int, MarketCase], ...]  # (case id, seed, case)
    methods: tuple[str, ...]
    pricings: tuple[str, ...] = ("none",)
    deltas: tuple[float, ...] = ()
    refine_rounds: int = 0
    out_dir: str = "."
    workers: int = 1  # runs are serial; 1 is the only accepted value

    def __post_init__(self):
        if self.workers != 1:
            raise ContractError(f"workers must be 1, got {self.workers!r}")
        if not self.cases or not self.methods:
            raise ContractError("experiment needs at least one case and one method")
        for m in self.methods:
            if m not in METHODS:
                raise ContractError(f"unknown method {m!r}")
        for p in self.pricings:
            if p not in PRICINGS:
                raise ContractError(f"unknown pricing rule {p!r}")
        if any(m.startswith("aggregation") for m in self.methods) and not self.deltas:
            raise ContractError("aggregation methods need at least one step size")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def _case_files(paths) -> list[MarketCase]:
    """The parsed case files, each named after its file."""
    return [parse_case(Path(path).read_text(encoding="utf-8"), name=Path(path).stem)
            for path in paths]


def _load_cases(args) -> list[tuple[str, int, MarketCase]]:
    cases = [(case.name, -1, case) for case in _case_files(args.case)]
    if getattr(args, "recipe", None):
        recipe = _recipe(args, args.recipe)
        for seed in _parse_seeds(args.seed):
            case = generate_case(recipe, seed)
            cases.append((case.name, seed, case))
    if not cases:
        raise ContractError("no cases: pass --case files and/or --recipe with --seed")
    return cases


def _recipe(args, style: str) -> CaseRecipe:
    """The recipe the case options describe, with one transmission bus per
    coupling point plus the root (at least the default ring of four)."""
    return CaseRecipe(style=style, n_dsos=args.dsos, tn_buses=max(4, args.dsos + 1),
                      congestion=args.congestion)


def _parse_seeds(spec: str) -> list[int]:
    """Seeds from a comma list of non-negative integers and inclusive
    ranges, e.g. ``1,2,5-8``."""
    seeds: list[int] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        lo, sep, hi = (part.strip() for part in chunk.partition("-"))
        if (not lo.isdecimal() or (sep and not hi.isdecimal())
                or int(hi or lo) < int(lo)):
            raise ParseError(f"bad seed entry {chunk!r}: expected N or N-M with "
                             "non-negative integers N <= M")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _run_method(case: MarketCase, method: str, pricing_kind: str,
                delta: float | None, refine: int,
                clearings: CaseClearings) -> Outcome:
    """The one map from a method name to its run. Aggregation ignores the
    pricing rule, so it runs before the rule is resolved."""
    if method in ("aggregation_primal", "aggregation_dual"):
        variant = method.removeprefix("aggregation_")
        return run_bid_aggregation(case, delta, refine, variant, clearings=clearings)
    pricing = interface_price(case, pricing_kind, clearings.common)
    if method == "three_layer":
        return run_three_layer(case, pricing, clearings=clearings)
    if method == "filtering":
        return run_bid_filtering(case, pricing, clearings=clearings)
    if method == "fragmented":
        return run_sequential(case, pricing, "fragmented", clearings=clearings)
    if method == "idealized":
        return run_sequential(case, pricing, "idealized", clearings=clearings)
    if method == "sequential_raw":
        return run_sequential(case, pricing, "practical", clearings=clearings)
    raise ContractError(f"unknown method {method!r}")


def _result_row(case_id: str, seed: int, method: str, pricing: str,
                delta: float | None, outcome: Outcome | None,
                error: str | None = None) -> dict:
    if outcome is None:
        return {**{c: "" for c in RESULT_COLUMNS}, "case_id": case_id,
                "seed": seed, "method": method, "pricing": pricing,
                "delta_bar": _fmt(delta), "status": error or "error"}
    return {
        "case_id": case_id, "seed": seed, "method": method, "pricing": pricing,
        "delta_bar": _fmt(delta), "J_tot": _fmt(outcome.total_cost),
        "J_com": _fmt(outcome.j_common), "eta_pct": _fmt(outcome.eta_pct),
        "safe": _fmt(outcome.safe), "lp_solves": outcome.lp_solves,
        "milp_nodes": outcome.milp_nodes, "wall_ms": _fmt(outcome.wall_ms),
        "status": outcome.status,
    }


def cmd_gen_case(args) -> int:
    emit_case(_recipe(args, args.recipe), args.seed, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_validate(args) -> int:
    all_ok = True
    for case_id, _, case in _load_cases(args):
        report = validate_case(case)
        for m in sorted(report.radial):
            print(f"{case_id}: DSO {m}: radial={report.radial[m]} "
                  f"assumption1={report.assumption1[m]} "
                  f"layer1_feasible={report.layer1_feasible[m]}")
        for note in report.warnings:
            print(f"{case_id}: warning: {note}")
        print(f"{case_id}: {'OK' if report.ok else 'NOT OK'}")
        all_ok = all_ok and report.ok
    return 0 if all_ok else 1


def run_experiment(config: ExperimentConfig) -> Path:
    """Run every (case, method, pricing / step size) combination and append
    the outcome rows to ``results.csv`` in a deterministic order. Component
    errors become rows with a status message; the run continues. The
    methods of one case share its clearings (:class:`CaseClearings`)."""
    rows = []
    for case_id, seed, case in config.cases:
        clearings = CaseClearings(case, clear_common(case))
        for method in config.methods:
            for pricing in config.pricings:
                dlist = config.deltas if method.startswith("aggregation") else (None,)
                for delta in dlist:
                    try:
                        out = _run_method(case, method, pricing, delta,
                                          config.refine_rounds, clearings)
                        rows.append(_result_row(case_id, seed, method, pricing, delta, out))
                    except FlexmktError as exc:
                        rows.append(_result_row(case_id, seed, method, pricing, delta,
                                                None, error=f"error: {exc}"))

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "results.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return path


def cmd_run(args) -> int:
    config = ExperimentConfig(
        cases=tuple(_load_cases(args)),
        methods=tuple(args.method or METHODS),
        pricings=tuple(args.pricing or ["none"]),
        deltas=tuple(args.delta or ()),
        refine_rounds=args.refine,
        out_dir=args.out,
    )
    path = run_experiment(config)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    print(f"wrote {path} ({len(rows)} rows)")
    bad = [r for r in rows if str(r["status"]).startswith("error")]
    return 1 if bad else 0


def cmd_sweep_delta(args) -> int:
    cases = _load_cases(args)
    if not args.delta:
        raise ContractError("sweep-delta needs --delta values")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sweep.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case_id", "seed", "delta_bar", "eta_pct", "wall_ms"])
        for case_id, seed, case in cases:
            clearings = CaseClearings(case, clear_common(case))
            for delta in sorted(args.delta, reverse=True):
                out = _run_method(case, args.method, "none", delta, args.refine, clearings)
                writer.writerow([case_id, seed, _fmt(delta), _fmt(out.eta_pct),
                                 _fmt(out.wall_ms)])
    print(f"wrote {path}")
    return 0


def cmd_check(args) -> int:
    """Executable property suite over the case files and seeded recipe
    cases. A case whose common market has no optimum has no benchmark to
    check against: it is one failure, and its properties are skipped. So
    is a method's outcome that is not "ok": its status is the failure, and
    the properties that read its cost or verdict are skipped. The
    step-size bound is skipped, not failed, on a case of more than 10
    DSOs, where its constant is not sampled."""
    failures: list[str] = []
    skips: list[str] = []
    t0 = time.perf_counter()
    styles = [args.recipe] if args.recipe else list("ABCD")
    delta = args.delta[0] if args.delta else 1.0
    cases = _case_files(args.case)
    for seed in _parse_seeds(args.seed):
        cases.append(generate_case(_recipe(args, styles[seed % len(styles)]), seed))
    if not cases:
        raise ContractError("no cases: pass --case files and/or --recipe with --seed")
    for case in cases:
        clearings = CaseClearings(case, clear_common(case))
        if clearings.common.status != "optimal":
            failures.append(f"{case.name}: common market {clearings.common.status}")
            continue
        jc = clearings.common.objective
        scale = _CHECK_TOL * (1.0 + abs(jc))

        def run(method: str) -> Outcome | None:
            out = _run_method(case, method, "none", delta, args.refine, clearings)
            if out.status == "ok":
                return out
            failures.append(f"{case.name}: {method} {out.status}")
            return None

        ideal, frag = run("idealized"), run("fragmented")
        if ideal and frag and not ideal.total_cost <= frag.total_cost + scale:
            failures.append(f"{case.name}: idealized cost above fragmented")

        filt = run("filtering")
        if filt and not filt.safe:
            failures.append(f"{case.name}: filtering outcome not grid-safe")

        for variant in ("primal", "dual"):
            agg = run(f"aggregation_{variant}")
            if agg is None:
                continue
            if not agg.safe:
                failures.append(f"{case.name}: aggregation[{variant}] unsafe")
            if not agg.total_cost >= jc - scale:
                failures.append(f"{case.name}: aggregation[{variant}] beat the benchmark")
            if variant == "primal":
                try:
                    bound = suboptimality_constant(case, clearings=clearings) * delta
                except ContractError:
                    if len(case.dsos) <= 10:
                        raise
                    skips.append(f"{case.name}: step-size suboptimality bound "
                                 "needs at most 10 DSOs")
                    continue
                if not agg.total_cost - jc <= bound + scale:
                    failures.append(f"{case.name}: step-size suboptimality bound violated")

    for line in skips:
        print(f"SKIP {line}")
    for line in failures:
        print(f"FAIL {line}")
    print(f"checked {len(cases)} cases in {time.perf_counter() - t0:.1f} s; "
          f"{len(failures)} failures, {len(skips)} skipped")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flexmkt",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common_case_args(p, need_out=False):
        p.add_argument("--case", action="append", default=[],
                       help="case file (repeatable)")
        p.add_argument("--recipe", choices=list("ABCD"), help="recipe style")
        p.add_argument("--seed", default="0", help="seed list, e.g. 1,2,5-8")
        p.add_argument("--dsos", type=int, default=2)
        p.add_argument("--congestion", type=float, default=0.9)
        p.add_argument("--refine", type=int, default=0)
        p.add_argument("--delta", type=float, action="append",
                       help="aggregation step size (repeatable)")
        if need_out:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen-case", help="write one generated case file")
    p.add_argument("--recipe", choices=list("ABCD"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dsos", type=int, default=2)
    p.add_argument("--congestion", type=float, default=0.9)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_case)

    p = sub.add_parser("validate", help="validate case files")
    p.add_argument("--case", action="append", required=True,
                   help="case file (repeatable)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run methods over cases, write results.csv")
    common_case_args(p, need_out=True)
    p.add_argument("--method", action="append", choices=list(METHODS))
    p.add_argument("--pricing", action="append", choices=list(PRICINGS))
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep-delta", help="aggregation step-size sweep")
    common_case_args(p, need_out=True)
    p.add_argument("--method", default="aggregation_primal",
                   choices=["aggregation_primal", "aggregation_dual"])
    p.set_defaults(func=cmd_sweep_delta)

    p = sub.add_parser("check", help="run the executable property suite")
    common_case_args(p)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    """Run one subcommand. A package error (bad case file, violated
    precondition) or a file that cannot be read or decoded prints
    ``error: <message>`` to stderr and returns 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FlexmktError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
