"""Benchmark of flexmkt's market methods, end to end and by layer.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 35 --trace 0

Runs the named workload's batches through ``flexmkt.cli.run_experiment``
in whole passes for ``--seconds`` seconds, checks every operation against
an independent HiGHS formulation and the stored reference rows, and
prints one JSON object as its last line: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes, reports the
per-layer metrics and writes the spans to ``perfbench/out/``. See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 11         # set-ups per run: this process plus ten fresh ones
FAMILIES = ("common", "three_layer", "filtering", "sequential",
            "aggregation_primal", "aggregation_dual")

_clock = time.perf_counter


def setup(workload: str, seed: int, out_dir: Path):
    """Import the package, generate the workload's cases and run the warm-up
    batch once. Returns (seconds, configs)."""
    t0 = _clock()
    from flexmkt.cli import run_experiment

    from workloads import WARM_UP, WORKLOADS, build_configs

    configs = build_configs(WORKLOADS[workload](seed), out_dir)
    for config in build_configs([WARM_UP], out_dir):
        run_experiment(config)
    return _clock() - t0, configs


def setup_in_fresh_process(workload: str, seed: int, out_dir: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload,
         "--seed", str(seed), "--out", str(out_dir)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def run_pass(configs, tracer=None, pass_id=0):
    """One timed pass over every batch. Returns (wall seconds, calls per
    batch, results.csv text per batch)."""
    import flexmkt.cli as cli

    from tracer import Patches, Recorder

    patches = Patches()
    recorder = Recorder()
    if tracer is not None:
        tracer.pass_id = pass_id
        tracer.install(patches)
    recorder.install(patches)
    batch_calls = []
    try:
        t0 = _clock()
        for config in configs:
            start = len(recorder.calls)
            cli.run_experiment(config)  # looked up now, so a traced pass traces it
            batch_calls.append((start, len(recorder.calls)))
        wall = _clock() - t0
    finally:
        patches.undo()
    texts = [(Path(c.out_dir) / "results.csv").read_text(encoding="utf-8") for c in configs]
    return wall, [recorder.calls[a:b] for a, b in batch_calls], texts


def measure(configs, seconds: int, traced: bool, workload: str, probes: list[float]):
    """Whole passes until the next one would end after ``seconds``.

    Pass 0 is a warm-up: its operations are checked like the others but
    its times are left out, since it fills the package's caches. With
    tracing, traced and untraced passes alternate after it. Without, the
    speed probe runs after every pass and its times are appended to
    ``probes``. Returns the per-pass records and the tracer.
    """
    from checks import op_from_call
    from reference import rows_without_wall
    from speed import kernel_seconds
    from tracer import Tracer

    tracer = Tracer(workload) if traced else None
    passes = []
    first_rows = None
    start = _clock()
    while True:
        index = len(passes)
        is_traced = traced and index % 2 == 1
        counters_before = dict(tracer.counters) if is_traced else None
        wall, batch_calls, texts = run_pass(configs, tracer if is_traced else None,
                                            pass_id=index)
        ops = []
        per_family = dict.fromkeys(FAMILIES, 0.0)
        per_batch = []
        rows = [rows_without_wall(t)[1:] for t in texts]
        if first_rows is None:
            first_rows = rows
        for calls, batch_rows, ref_rows in zip(batch_calls, rows, first_rows):
            method_ops = []
            per_batch.append({})
            for call in calls:
                per_family[call.family] += call.seconds
                per_batch[-1][call.family] = per_batch[-1].get(call.family, 0.0) + call.seconds
                op = op_from_call(call)
                ops.append(op)
                if op.method != "common":
                    method_ops.append(op)
            if len(batch_rows) != len(method_ops):
                for op in method_ops:
                    op.failures.append("results.csv row count differs from the calls")
            for op, row, ref in zip(method_ops, batch_rows, ref_rows):
                if row != ref:
                    op.failures.append("results.csv row differs from the first pass")
        del batch_calls
        record = {"timed": index > 0, "traced": is_traced, "wall_s": wall,
                  "families": per_family, "batches": per_batch, "ops": ops}
        if is_traced:
            record["stages"] = tracer.stage_totals(index, wall)
            record["counters"] = {k: v - counters_before.get(k, 0)
                                  for k, v in tracer.counters.items()}
        passes.append(record)
        if not traced:
            probes.append(kernel_seconds())

        timed = [p for p in passes if p["timed"]]
        next_traced = traced and len(passes) % 2 == 1
        same_kind = [p["wall_s"] for p in timed if p["traced"] == next_traced]
        estimate = statistics.median(same_kind) if same_kind else wall
        kinds = {p["traced"] for p in timed}
        enough = len(kinds) == (2 if traced else 1)
        if enough and _clock() - start + estimate > seconds:
            break
    return passes, tracer


def _median(values):
    return float(statistics.median(values))


def end_to_end(passes, setup_samples, peak_rss_mb, probes):
    """The end-to-end metrics. Times are scaled by the speed probe to the
    reference machine speed; the measured seconds go to standard error."""
    from speed import REFERENCE_S

    passes = [p for p in passes if p["timed"]]
    walls = [p["wall_s"] for p in passes]
    metrics = {
        "setup_s": (_median(setup_samples), "s"),
        "wall_s": (_median(walls), "s"),
        "common_s": (_median([p["families"]["common"] for p in passes]), "s"),
        "three_layer_s": (_median([p["families"]["three_layer"] for p in passes]), "s"),
        "filtering_s": (_median([p["families"]["filtering"] for p in passes]), "s"),
        "sequential_s": (_median([p["families"]["sequential"] for p in passes]), "s"),
        "aggregation_primal_s": (_median([p["families"]["aggregation_primal"]
                                          for p in passes]), "s"),
        "aggregation_dual_s": (_median([p["families"]["aggregation_dual"]
                                        for p in passes]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    probe = _median(probes)
    scale = REFERENCE_S / probe
    print(f"speed probe {probe:.4f} s (median of {len(probes)}), times scaled by "
          f"{scale:.4f}; measured: " + ", ".join(
              f"{name} {value:.4f}" for name, (value, unit) in metrics.items() if unit == "s"),
          file=sys.stderr)
    return {name: (value * scale if unit == "s" else value, unit)
            for name, (value, unit) in metrics.items()}


def per_layer(passes, tracer):
    from tracer import STAGES

    traced = [p for p in passes if p["timed"] and p["traced"]]
    plain = [p for p in passes if p["timed"] and not p["traced"]]
    out: dict[str, tuple[float, str]] = {}
    keys = [k for k in traced[0]["stages"] if not k.startswith(("stage.casegen.", "stage.other."))]
    keys.append("stage.other.s")
    for key in keys:
        unit = "s" if key.endswith("_s") or key.endswith(".s") else "count"
        if key.endswith("us_per_iter"):
            unit = "us"
        out[key] = (_median([p["stages"][key] for p in traced]), unit)
    casegen = tracer.stage_totals(-1, 0.0)
    for field_name, unit in (("calls", "count"), ("s", "s"), ("solve_s", "s"),
                             ("assembly_s", "s"), ("iterations", "count")):
        key = f"stage.casegen.{field_name}"
        out[key] = (casegen[key], unit)
    for key in ("forwarding.rsf.steps", "forwarding.rsf.attempts",
                "forwarding.filter_bids.probes", "branch_bound.solve_milp.calls",
                "branch_bound.solve_milp.nodes", "model.add_range.calls",
                "netmodel.build_sensitivity.calls", "clearing.sensitivity.calls"):
        out[key] = (_median([p["counters"].get(key, 0) for p in traced]), "count")
    traced_wall = _median([p["wall_s"] for p in traced])
    plain_wall = _median([p["wall_s"] for p in plain])
    in_pass = [t for t in STAGES if t != "casegen"]
    stage_sum = _median([sum(p["stages"][f"stage.{t}.s"] for t in in_pass) / p["wall_s"]
                         for p in traced])
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (plain_wall, "s")
    out["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    out["trace.stage_share"] = (stage_sum, "ratio")
    return out


def trace_casegen(tracer, workload: str, seed: int, out_dir: Path) -> None:
    """Generate the set-up's cases again with the tracer on, as pass -1."""
    from tracer import Patches
    from workloads import WARM_UP, WORKLOADS, build_configs

    patches = Patches()
    tracer.pass_id = -1
    tracer.install(patches)
    try:
        build_configs(WORKLOADS[workload](seed) + [WARM_UP], out_dir)
    finally:
        patches.undo()


def print_batches(passes, configs) -> None:
    """Median milliseconds per case of each method family, per batch, on
    standard error: the figures to set beside the ROADMAP's size ladder."""
    timed = [p for p in passes if p["timed"]]
    for b, config in enumerate(configs):
        parts = []
        for family in FAMILIES:
            per_pass = [p["batches"][b].get(family) for p in timed]
            if per_pass[0] is not None:
                ms = 1e3 * _median(per_pass) / len(config.cases)
                parts.append(f"{family} {ms:.1f}")
        print(f"batch {Path(config.out_dir).name} ({len(config.cases)} cases), "
              f"ms per case: {', '.join(parts)}", file=sys.stderr)


def check(passes, configs, out_dir: Path):
    """Every check on every operation. Returns (attempted, failed, notes,
    whether the self-test and the reference rows passed)."""
    import reference
    from checks import Reference, check_op, check_pairs, self_test

    cases = {cid: case for config in configs for cid, _, case in config.cases}
    ref = Reference(cases)
    attempted = failed = 0
    notes: list[str] = []
    for p in passes:
        check_pairs(p["ops"], ref)
        for op in p["ops"]:
            op.failures.extend(check_op(op, ref))
            attempted += 1
            if op.failures:
                failed += 1
                if len(notes) < 20:
                    notes.append(f"{op.case_id} {op.method} {op.pricing or ''}"
                                 f"{op.delta or ''}: {'; '.join(op.failures)}")
    missed = self_test(passes[0]["ops"], ref)
    mismatches = reference.compare(out_dir / "reference")
    notes.extend(f"self-test: {m}" for m in missed)
    notes.extend(f"reference: {m}" for m in mismatches[:20])
    return attempted, failed, notes, not missed and not mismatches


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    # One thread per run, set before numpy loads: the workloads are serial,
    # and BLAS threads on these small dense products only add noise.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not (SRC / "flexmkt" / "__init__.py").is_file():
        print(f"flexmkt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        seconds, _ = setup(args.workload, args.seed, Path(args.out))
        print(json.dumps({"setup_s": seconds}))
        return 0
    from speed import kernel_seconds

    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        seconds, configs = setup(args.workload, args.seed, out_dir)
        setup_samples = [seconds]
        if not args.trace:
            setup_samples += [
                setup_in_fresh_process(args.workload, args.seed, out_dir / f"setup{k}")
                for k in range(1, SETUP_SAMPLES)]
        probes = [] if args.trace else [kernel_seconds()]
        passes, tracer = measure(configs, args.seconds, bool(args.trace), args.workload,
                                 probes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            trace_casegen(tracer, args.workload, args.seed, out_dir / "casegen")
        attempted, failed, notes, extras_ok = check(passes, configs, out_dir)
        if tracer is not None:
            metrics = per_layer(passes, tracer)
            span_file = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(span_file, {"seed": args.seed, "passes": len(passes)})
            print(f"spans written to {span_file.relative_to(HERE.parent)}", file=sys.stderr)
        else:
            metrics = end_to_end(passes, setup_samples, peak_rss_mb, probes)
            print_batches(passes, configs)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for note in notes:
        print(f"CHECK FAILED {note}", file=sys.stderr)
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in passes)
    print(f"{len(passes)} passes ({walls} s), "
          f"{attempted} operations, {failed} failed", file=sys.stderr)
    result = {
        "correct": failed == 0 and extras_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
