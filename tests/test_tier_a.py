"""``tools/tier_a.py --compare`` on small synthetic tier-A files."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "tier_a.py"
HEADER = ("ladder,1,2x7,case_id,seed,method,pricing,delta_bar,J_tot,J_com,eta_pct,safe,"
          "lp_solves,milp_nodes,status")
ROWS = [
    "ladder,1,2x7,recipeB-s1000,1000,three_layer,none,,-174.20004003748454,"
    "-116.90700553631639,-49.0073578040372,false,5,0,ok",
    "ladder,1,2x7,recipeB-s1000,1000,aggregation_dual,none,2.0,-116.9,-116.90700553631639,"
    "0.5,true,9,3,ok",
    "ladder,1,2x7,recipeB-s1000,1000,filtering,none,,nan,nan,,,0,0,error: no common, optimum",
]


@pytest.fixture
def tier_a(monkeypatch):
    # The tool sets OPENBLAS_NUM_THREADS on import; monkeypatch restores it.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    spec = importlib.util.spec_from_file_location("tier_a", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def compare(tier_a, tmp_path, capsys, change_rows):
    parent, change = tmp_path / "parent.txt", tmp_path / "change.txt"
    parent.write_text("".join(f"{row}\n" for row in (HEADER, *ROWS)), encoding="utf-8")
    change.write_text("".join(f"{row}\n" for row in (HEADER, *change_rows)), encoding="utf-8")
    code = tier_a.main(["--compare", str(parent), str(change)])
    return code, capsys.readouterr().out.splitlines()


def replaced(row: str, column: str, value: str) -> str:
    fields = row.split(",")
    fields[HEADER.split(",").index(column)] = value
    return ",".join(fields)


def test_identical_files_print_identical_and_exit_0(tier_a, tmp_path, capsys):
    assert compare(tier_a, tmp_path, capsys, ROWS) == (0, ["identical"])


def test_the_first_differing_row_and_the_deviations_within_tier_b(tier_a, tmp_path, capsys):
    rows = list(ROWS)
    rows[0] = replaced(rows[0], "J_tot", "-174.20004003748457")  # one ulp off
    rows[1] = replaced(replaced(rows[1], "J_com", "-116.9070055363165"), "eta_pct", "0.5000000001")
    code, out = compare(tier_a, tmp_path, capsys, rows)
    assert code == 1
    assert out[:3] == ["first difference at line 2:", f"< {ROWS[0]}", f"> {rows[0]}"]
    report = dict(line.rsplit(": ", 1) for line in out[3:-1])
    assert report.pop("tier B: rows' keys and order equal") == "yes"
    for col in ("safe", "status", "lp_solves", "milp_nodes"):
        assert report.pop(f"tier B: {col} equal") == "yes"
    assert 0.0 < float(report.pop("tier B: largest relative deviation of J_tot")) < 1e-15
    assert 1e-16 < float(report.pop("tier B: largest relative deviation of J_com")) < 1e-9
    eta = float(report.pop("tier B: largest absolute deviation of eta_pct"))
    assert eta == pytest.approx(1e-10)
    assert not report
    assert out[-1] == "tier B holds (bounds 1e-09)"


@pytest.mark.parametrize("column,value", [("lp_solves", "10"), ("milp_nodes", "4"),
                                          ("safe", "false"), ("status", "infeasible")])
def test_a_count_or_verdict_that_moves_fails_tier_b(tier_a, tmp_path, capsys, column, value):
    rows = [ROWS[0], replaced(ROWS[1], column, value), ROWS[2]]
    code, out = compare(tier_a, tmp_path, capsys, rows)
    assert code == 1 and out[0] == "first difference at line 3:"
    assert f"tier B: {column} equal: no" in out
    assert "tier B: rows' keys and order equal: yes" in out
    assert out[-1] == "tier B fails (bounds 1e-09)"


def test_rows_out_of_order_or_missing_fail_tier_b(tier_a, tmp_path, capsys):
    for rows in ([ROWS[1], ROWS[0], ROWS[2]], ROWS[:2]):
        code, out = compare(tier_a, tmp_path, capsys, rows)
        assert code == 1
        assert "tier B: rows' keys and order equal: no" in out
        assert out[-1] == "tier B fails (bounds 1e-09)"
    # A missing last row: the first difference is the end of one file.
    assert out[:3] == ["first difference at line 4:", f"< {ROWS[2]}", "> (end of file)"]


def test_a_deviation_beyond_the_bound_fails_tier_b(tier_a, tmp_path, capsys):
    rows = [replaced(ROWS[0], "J_tot", "-174.2001"), *ROWS[1:]]
    code, out = compare(tier_a, tmp_path, capsys, rows)
    assert code == 1 and out[-1] == "tier B fails (bounds 1e-09)"
    assert float(out[-4].rsplit(": ", 1)[1]) > 1e-9  # J_tot


def test_a_status_with_commas_is_one_column(tier_a):
    [_, _, last] = tier_a.records([HEADER, *ROWS])
    assert last["status"] == "error: no common, optimum"
    assert (last["workload"], last["batch"], last["method"]) == ("ladder", "2x7", "filtering")
