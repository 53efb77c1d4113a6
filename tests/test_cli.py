"""CLI subcommands: file round trips, CSV shapes, determinism, check mode."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flexmkt.cli import RESULT_COLUMNS, ExperimentConfig, main
from flexmkt.clearing import clear_common
from flexmkt.errors import ContractError
from flexmkt.market_model import parse_case


def read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_gen_case_round_trip(tmp_path):
    out = tmp_path / "a1.json"
    assert main(["gen-case", "--recipe", "A", "--seed", "1",
                 "--out", str(out)]) == 0
    case = parse_case(out.read_text(encoding="utf-8"))
    assert case.dsos and case.bids


def test_gen_case_styles_differ_only_in_documented_fields(tmp_path):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen-case", "--recipe", "A", "--seed", "1", "--out", str(pa)])
    main(["gen-case", "--recipe", "B", "--seed", "1", "--out", str(pb)])
    a = json.loads(pa.read_text())
    b = json.loads(pb.read_text())
    # Shared feeder topology and loads; only prices, downward placement and
    # interface headroom move with the style.
    for da, db in zip(a["dsos"], b["dsos"]):
        assert da["network"]["lines"] == db["network"]["lines"]
        assert da["e"] == db["e"]
    tn_up_a = [x["price"] for x in a["bids"] if x["system"] == 0 and x["dir"] == "up"]
    tn_up_b = [x["price"] for x in b["bids"] if x["system"] == 0 and x["dir"] == "up"]
    assert all(30.0 <= p <= 42.0 for p in tn_up_a)
    assert all(90.0 <= p <= 165.0 for p in tn_up_b)


def test_validate_command(tmp_path, capsys):
    out = tmp_path / "case.json"
    main(["gen-case", "--recipe", "A", "--seed", "2", "--out", str(out)])
    assert main(["validate", "--case", str(out)]) == 0
    assert "OK" in capsys.readouterr().out


def test_run_columns_and_determinism(tmp_path):
    args = ["run", "--recipe", "A", "--seed", "0,1",
            "--method", "three_layer", "--method", "fragmented",
            "--pricing", "none", "--pricing", "midpoint"]
    assert main(args + ["--out", str(tmp_path / "r1")]) == 0
    assert main(args + ["--out", str(tmp_path / "r2")]) == 0
    rows1 = read_csv(tmp_path / "r1" / "results.csv")
    rows2 = read_csv(tmp_path / "r2" / "results.csv")
    assert list(rows1[0]) == RESULT_COLUMNS
    assert len(rows1) == 2 * 2 * 2
    # Byte-identical modulo the measured wall time.
    strip = [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows1]
    strip2 = [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows2]
    assert strip == strip2
    for row in rows1:
        assert row["status"] == "ok"
        assert row["case_id"].startswith("recipeA-s")


# A line row whose reactance is text, not a number.
MALFORMED_CASE = """{"transmission": {"buses": [1, 2], "lines": [[1, 2, "x", -9, 9]],
 "root": 1, "e": [0, 0]}, "dsos": [], "bids": []}"""


def test_workers_other_than_one_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", "--recipe", "A", "--seed", "0", "--workers", "2",
              "--out", str(tmp_path)])
    case = parse_case(MALFORMED_CASE.replace('"x"', "0.1"))
    with pytest.raises(ContractError, match="workers"):
        ExperimentConfig(cases=(("c", 0, case),), methods=("three_layer",), workers=2)


@pytest.mark.parametrize("command", [["validate"], ["run", "--out", "OUT"], ["check"]])
def test_bad_case_file_is_an_error_message_not_a_traceback(tmp_path, capsys, command):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    main(["gen-case", "--recipe", "A", "--seed", "0", "--out", str(good)])
    bad.write_text(MALFORMED_CASE, encoding="utf-8")
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in command]
    assert main(argv + ["--case", str(good), "--case", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "expected a number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("seed", ["-1", "abc", "1-x", "9-0"])
def test_bad_seed_is_an_error_message_not_a_traceback(tmp_path, capsys, seed):
    for command in (["run", "--recipe", "A", "--out", str(tmp_path)], ["check"]):
        assert main(command + [f"--seed={seed}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(seed) in err
        assert "Traceback" not in err


def test_run_fails_on_a_bad_out_before_any_case_runs(tmp_path, capsys, monkeypatch):
    # results.csv is opened before the first case: an --out that cannot be
    # a directory is an error at once, not after every method has run.
    from flexmkt import cli

    cleared = []
    real = cli.clear_common
    monkeypatch.setattr(cli, "clear_common", lambda case: cleared.append(case) or real(case))
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")
    assert main(["run", "--recipe", "A", "--seed", "0", "--method", "fragmented",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert cleared == []


def test_run_with_four_dsos(tmp_path):
    assert main(["run", "--recipe", "B", "--dsos", "4", "--seed", "0",
                 "--method", "fragmented", "--out", str(tmp_path)]) == 0
    assert [r["status"] for r in read_csv(tmp_path / "results.csv")] == ["ok"]


def test_unreadable_case_file_is_an_error_message(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    for path in (binary, tmp_path / "missing.json"):
        assert main(["validate", "--case", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_run_aggregation_requires_delta(tmp_path, capsys):
    assert main(["run", "--recipe", "A", "--seed", "0", "--method",
                 "aggregation_primal", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", [
    ["run", "--method", "fragmented", "--out", "OUT"],   # no cases
    ["sweep-delta", "--recipe", "A", "--out", "OUT"],    # no step size
    ["sweep-delta", "--recipe", "A", "--delta", "nan", "--out", "OUT"],
    ["check", "--recipe", "A", "--delta", "nan"],
    ["check", "--recipe", "A", "--delta", "1", "--delta", "-1"],  # not only the first
    ["check", "--seed", ","],                           # no cases
])
def test_bad_command_input_exits_two_with_an_error_message(tmp_path, capsys, command):
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_cases_sharing_a_name_each_get_their_own_common_cost(tmp_path):
    # Both generated files are named recipeB-s1 inside; only the DSO count
    # differs, and so does the benchmark cost.
    paths, cases = [], []
    for dsos in ("2", "3"):
        path = tmp_path / f"b{dsos}.json"
        main(["gen-case", "--recipe", "B", "--seed", "1", "--dsos", dsos,
              "--out", str(path)])
        paths += ["--case", str(path)]
        cases.append(parse_case(path.read_text(encoding="utf-8")))
    assert cases[0].name == cases[1].name
    assert main(["run", *paths, "--method", "fragmented", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "results.csv")
    assert [float(r["J_com"]) for r in rows] == [clear_common(c).objective for c in cases]


def test_sweep_delta(tmp_path):
    assert main(["sweep-delta", "--recipe", "B", "--seed", "3",
                 "--delta", "2.0", "--delta", "1.0", "--delta", "0.5",
                 "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "sweep.csv")
    assert [r["delta_bar"] for r in rows] == ["2.0", "1.0", "0.5"]
    etas = [float(r["eta_pct"]) for r in rows]
    assert all(e >= -1e-6 for e in etas)


def test_check_exits_zero_on_clean_seeds():
    assert main(["check", "--recipe", "A", "--seed", "0-2"]) == 0
    assert main(["check", "--seed", "0-3"]) == 0  # mixed styles


def test_three_layer_and_filtering_agree_on_benign_recipes(tmp_path):
    # Distribution bids priced above transmission: the TSO layer leaves
    # them alone and both protective methods coincide.
    main(["run", "--recipe", "A", "--seed", "0,1,2", "--method", "three_layer",
          "--method", "filtering", "--pricing", "none",
          "--out", str(tmp_path / "cmp")])
    rows = read_csv(tmp_path / "cmp" / "results.csv")
    by_key = {}
    for row in rows:
        by_key.setdefault(row["case_id"], {})[row["method"]] = row
    for case_id, methods in by_key.items():
        eta3 = float(methods["three_layer"]["eta_pct"])
        etaf = float(methods["filtering"]["eta_pct"])
        assert eta3 == pytest.approx(etaf, abs=1e-6)


def test_run_writes_a_status_row_for_an_uncleared_aggregation(tmp_path):
    from flexmkt.market_model import serialize_case
    from test_forwarding import layer1_infeasible_case, tso_unbalanceable_case

    # Neither case has a common optimum, so "optimal" pricing cannot be
    # resolved; aggregation ignores pricing and writes the same row.
    cases = []
    for make in (layer1_infeasible_case, tso_unbalanceable_case):
        path = tmp_path / f"{make.__name__}.json"
        path.write_text(serialize_case(make()), encoding="utf-8")
        cases += ["--case", str(path)]
    args = ["run", *cases, "--method", "aggregation_primal", "--method", "aggregation_dual",
            "--pricing", "none", "--pricing", "optimal", "--delta", "0.5",
            "--out", str(tmp_path / "r")]
    assert main(args) == 0
    rows = read_csv(tmp_path / "r" / "results.csv")
    assert [r["pricing"] for r in rows] == ["none", "optimal"] * 4
    assert [(r["case_id"], r["method"], r["status"], r["lp_solves"]) for r in rows[::2]] == [
        ("layer1-infeasible", "aggregation_primal", "rsf_infeasible", "5"),
        ("layer1-infeasible", "aggregation_dual", "rsf_infeasible", "5"),
        ("tso-unbalanceable", "aggregation_primal", "layer2_infeasible", "5"),
        ("tso-unbalanceable", "aggregation_dual", "layer2_infeasible", "5"),
    ]
    assert all(r["J_tot"] == r["safe"] == r["eta_pct"] == "" for r in rows)
    for none_row, optimal_row in zip(rows[::2], rows[1::2]):
        assert ({k: v for k, v in none_row.items() if k not in ("pricing", "wall_ms")}
                == {k: v for k, v in optimal_row.items() if k not in ("pricing", "wall_ms")})
    # A two-layer method reads the rule, which stays an error row.
    assert main(["run", *cases, "--method", "sequential_raw", "--pricing", "optimal",
                 "--out", str(tmp_path / "s")]) == 1
    assert all(r["status"].startswith("error: optimal pricing requested")
               for r in read_csv(tmp_path / "s" / "results.csv"))


def test_check_reports_a_case_without_a_benchmark_and_goes_on(tmp_path, capsys):
    from flexmkt.market_model import serialize_case
    from test_forwarding import layer1_infeasible_case

    path = tmp_path / "no-benchmark.json"
    path.write_text(serialize_case(layer1_infeasible_case()), encoding="utf-8")
    assert main(["check", "--case", str(path), "--seed", "0", "--delta", "0.5"]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL layer1-infeasible: common market infeasible"]
    assert "checked 2 cases" in out and "; 1 failures" in out


def test_check_skips_the_step_size_bound_beyond_10_dsos(capsys):
    # The bound's constant samples flow corners of at most 10 DSOs; a larger
    # case still has every other property checked, and the skip is no failure.
    assert main(["check", "--recipe", "B", "--dsos", "11", "--seed", "0-1"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:2] == [
        f"SKIP recipeB-s{seed}: step-size suboptimality bound needs at most 10 DSOs"
        for seed in (0, 1)]
    assert "checked 2 cases" in out and "; 0 failures, 2 skipped" in out


def test_check_reports_an_uncleared_outcome_by_its_status(tmp_path, capsys):
    from flexmkt.market_model import serialize_case
    from test_forwarding import tso_fractional_case

    # The common market clears, but no forwarded step combination
    # balances the TSO: each such outcome is one status line, and no cost
    # comparison reads its NaN cost.
    path = tmp_path / "tso-fractional.json"
    path.write_text(serialize_case(tso_fractional_case()), encoding="utf-8")
    assert main(["check", "--case", str(path), "--seed", "0", "--delta", "2.0"]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL tso-fractional: fragmented layer2_infeasible",
        "FAIL tso-fractional: filtering layer2_infeasible",
        "FAIL tso-fractional: aggregation_primal layer2_infeasible",
        "FAIL tso-fractional: aggregation_dual layer2_infeasible",
    ]
    assert "checked 2 cases" in out and "; 4 failures" in out


def test_check_runs_aggregation_at_every_delta(tmp_path, capsys):
    from flexmkt.market_model import serialize_case
    from test_forwarding import tso_fractional_case

    # Aggregation clears this TSO at a step size of 1 MW but not at 2 or
    # 4 MW; with several step sizes, each aggregation line names its own.
    path = tmp_path / "tso-fractional.json"
    path.write_text(serialize_case(tso_fractional_case()), encoding="utf-8")
    assert main(["check", "--case", str(path), "--seed", "0",
                 "--delta", "4.0", "--delta", "1.0", "--delta", "2.0"]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL tso-fractional: fragmented layer2_infeasible",
        "FAIL tso-fractional: filtering layer2_infeasible",
        *(f"FAIL tso-fractional: aggregation_{variant} layer2_infeasible at delta {delta}"
          for delta in ("4.0", "2.0") for variant in ("primal", "dual")),
    ]
    assert "checked 2 cases" in out and "; 6 failures" in out


def test_reference_rows_unchanged():
    # The benchmark's stored results.csv rows for fixed seeds are the
    # regression oracle: a refactor must reproduce them byte for byte,
    # wall_ms aside.
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "perfbench/reference.py"], cwd=root,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "reference rows match" in proc.stdout


@pytest.mark.parametrize("given,expected", [(None, "1"), ("2", "2")])
def test_importing_flexmkt_limits_blas_threads_unless_set(given, expected):
    # The limit must be in place when numpy first loads, and a value the
    # caller set wins.
    probe = """if True:
        import os, sys
        seen = []

        class Watch:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" and not seen:
                    seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

        sys.meta_path.insert(0, Watch())
        import flexmkt
        print(seen, os.environ["OPENBLAS_NUM_THREADS"])
    """
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(root / "src")
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [f"['{expected}']", expected]


def _perfbench_tracer(monkeypatch):
    """perfbench/tracer.py, loaded as the benchmark loads it."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    return tracer


def test_names_the_benchmark_rebinds_exist(monkeypatch):
    # perfbench/tracer.py rebinds these module attributes from outside the
    # program; a refactor that renames one must fail here, not in a
    # benchmark run.
    import importlib
    import inspect

    from flexmkt.forwarding import run_bid_aggregation
    from flexmkt.mp_solver.model import LinearProgram

    tracer = _perfbench_tracer(monkeypatch)
    names = [(module, fn) for module, fn, _ in tracer.TRACED]
    names += [("flexmkt.cli", fn) for fn in tracer.ENTRY_POINTS]
    names += [("flexmkt.mp_solver.simplex", "solve_lp"),
              ("flexmkt.netmodel", "build_sensitivity"), ("flexmkt.clearing", "sensitivity")]
    for module, fn in names:
        assert inspect.isfunction(getattr(importlib.import_module(module), fn, None)), \
            f"{module}.{fn}"
    assert inspect.isfunction(LinearProgram.add_range)
    # The recorder reads the RSF variant from the fourth positional argument.
    assert list(inspect.signature(run_bid_aggregation).parameters)[:4] == \
        ["case", "delta_bar", "refine_rounds", "variant"]


def test_the_benchmark_recorder_sees_one_call_per_row(tmp_path, monkeypatch):
    # The benchmark's Recorder wraps the entry points run_experiment calls
    # and reads each call's arguments: the case first, then the pricing
    # rule of a two-layer method or aggregation's step size, refinement
    # rounds and variant.
    from flexmkt.casegen import CaseRecipe, generate_case
    from flexmkt.cli import METHODS, PRICINGS, run_experiment

    cases = [generate_case(CaseRecipe(style="B"), 1),
             generate_case(CaseRecipe(style="C", n_dsos=1), 2)]
    tracer = _perfbench_tracer(monkeypatch)
    recorder, patches = tracer.Recorder(), tracer.Patches()
    recorder.install(patches)
    try:
        path = run_experiment(ExperimentConfig(
            cases=tuple((c.name, k, c) for k, c in enumerate(cases)), methods=METHODS,
            pricings=PRICINGS, deltas=(4.0,), refine_rounds=1, out_dir=str(tmp_path)))
    finally:
        patches.undo()
    rows = read_csv(path)
    calls = recorder.calls
    starts = [k for k, call in enumerate(calls) if call.entry == "clear_common"]
    assert all(calls[k].args[0] is case for k, case in zip(starts, cases))
    assert starts == [0, 1 + len(rows) // 2]
    methods = [call for call in calls if call.entry != "clear_common"]
    assert len(methods) == len(rows)
    by_id = {c.name: c for c in cases}
    for call, row in zip(methods, rows):
        assert call.args[0] is by_id[row["case_id"]]
        assert call.result.method == row["method"]
        if row["method"].startswith("aggregation_"):
            variant = row["method"].removeprefix("aggregation_")
            assert call.args[1:4] == (float(row["delta_bar"]), 1, variant)
            assert call.family == row["method"]
        else:
            assert call.args[1].kind == row["pricing"]


def test_run_experiment_calls_run_bid_aggregation_once_per_aggregation_row(tmp_path,
                                                                            monkeypatch):
    # A repeated aggregation run is served from the case's clearings, but
    # only inside run_bid_aggregation: the benchmark's recorder wraps
    # cli.run_bid_aggregation and needs one call per results.csv row.
    import flexmkt.cli as cli
    from flexmkt.casegen import CaseRecipe, generate_case
    from flexmkt.cli import PRICINGS, run_experiment

    calls = []
    real = cli.run_bid_aggregation

    def counting(case, delta, refine, variant, **kwargs):
        calls.append((case.name, delta, variant))
        return real(case, delta, refine, variant, **kwargs)

    monkeypatch.setattr(cli, "run_bid_aggregation", counting)
    cases = [generate_case(CaseRecipe(style="B"), 1),
             generate_case(CaseRecipe(style="D", n_dsos=1), 2)]
    path = run_experiment(ExperimentConfig(
        cases=tuple((c.name, k, c) for k, c in enumerate(cases)),
        methods=("aggregation_primal", "three_layer", "aggregation_dual"),
        pricings=PRICINGS, deltas=(4.0, 2.0), refine_rounds=1, out_dir=str(tmp_path)))
    rows = [row for row in read_csv(path) if row["method"].startswith("aggregation_")]
    assert len(rows) == len(cases) * 2 * len(PRICINGS) * 2
    assert calls == [(row["case_id"], float(row["delta_bar"]),
                      row["method"].removeprefix("aggregation_")) for row in rows]
