"""Regenerate the tier-A oracle: the ``results.csv`` rows of the benchmark
workloads ladder, rsf-fine and sweep-mixed at seeds 1-4, ``wall_ms`` left
out, each row prefixed with its workload, seed and batch.

    python3 tools/tier_a.py OUT

writes the rows to ``OUT`` and prints their count and sha256. A refactor
keeps every row byte for byte: run this on a checkout of the parent commit
and on the change, then compare the two files. The workloads come from
``perfbench/workloads.py``, which this only reads.

    python3 tools/tier_a.py --compare PARENT CHANGE

compares two such files. Identical files print ``identical`` and exit 0.
Otherwise it prints the first differing row of each, then the tier-B
report: whether ``safe``, ``status``, ``lp_solves``, ``milp_nodes`` and
the rows' keys and order are equal, the largest relative deviation of
``J_tot`` and ``J_com``, and the largest absolute deviation of
``eta_pct``, against the tier-B bounds of 1e-9; it exits 1.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the solver runs serially.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import hashlib  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

SEEDS = (1, 2, 3, 4)
PREFIX = ("workload", "batch_seed", "batch")
# The columns that must be equal under tier B, and those whose values may
# deviate within its bounds; every other column is part of a row's key.
EQUAL = ("safe", "status", "lp_solves", "milp_nodes")
RELATIVE = ("J_tot", "J_com")
ABSOLUTE = ("eta_pct",)
TIER_B_BOUND = 1e-9


def rows() -> list[str]:
    """Every row, headers included, of the three workloads at each seed, in order."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from reference import rows_without_wall
    from workloads import WORKLOADS, build_configs

    from flexmkt.cli import run_experiment

    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("ladder", "rsf-fine", "sweep-mixed"):
            for seed in SEEDS:
                batches = WORKLOADS[name](seed)
                for batch, config in zip(batches, build_configs(batches, tmp)):
                    text = run_experiment(config).read_text(encoding="utf-8")
                    out += [f"{name},{seed},{batch.label},{row}"
                            for row in rows_without_wall(text)]
    return out


def records(lines: list[str]) -> list[dict[str, str]]:
    """Each data row of a tier-A file as a dict by column, under the
    header row before it. ``status`` is the last column and takes any
    commas left over."""
    header: list[str] = []
    out = []
    for line in lines:
        if line.split(",", len(PREFIX) + 1)[len(PREFIX):len(PREFIX) + 1] == ["case_id"]:
            header = line.split(",")[len(PREFIX):]
            continue
        fields = line.split(",", len(PREFIX) + len(header) - 1)
        out.append(dict(zip((*PREFIX, *header), fields)))
    return out


def _deviation(a: str, b: str, relative: bool) -> float:
    """How far apart two written values are: 0.0 for equal text (both
    empty included), inf when only one is a number."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if math.isnan(x) and math.isnan(y):
        return 0.0
    gap = abs(x - y)
    if gap == 0.0:  # -0.0 against 0.0
        return 0.0
    if not math.isfinite(gap):
        return math.inf
    return gap / max(abs(x), abs(y)) if relative else gap


def tier_b(parent: list[str], change: list[str]) -> list[str]:
    """The tier-B report of two tier-A files' lines."""
    old, new = records(parent), records(change)

    def key(row):
        return tuple(v for c, v in row.items() if c not in (*EQUAL, *RELATIVE, *ABSOLUTE))

    same_keys = len(old) == len(new) and all(key(a) == key(b) for a, b in zip(old, new))
    pairs = [(a, b) for a, b in zip(old, new) if key(a) == key(b)]
    report = [f"tier B: rows' keys and order equal: {'yes' if same_keys else 'no'}"]
    holds = same_keys
    for col in EQUAL:
        equal = same_keys and all(a.get(col) == b.get(col) for a, b in pairs)
        holds = holds and equal
        report.append(f"tier B: {col} equal: {'yes' if equal else 'no'}")
    for cols, relative in ((RELATIVE, True), (ABSOLUTE, False)):
        kind = "relative" if relative else "absolute"
        for col in cols:
            worst = max((_deviation(a.get(col, ""), b.get(col, ""), relative)
                         for a, b in pairs), default=0.0)
            holds = holds and worst <= TIER_B_BOUND
            report.append(f"tier B: largest {kind} deviation of {col}: {worst:.3g}")
    report.append(f"tier B {'holds' if holds else 'fails'} (bounds {TIER_B_BOUND:g})")
    return report


def compare(parent: Path, change: Path) -> int:
    """``--compare``: print what the module docstring says; the exit code."""
    a, b = parent.read_bytes(), change.read_bytes()
    if a == b:
        print("identical")
        return 0
    old, new = a.decode("utf-8").splitlines(), b.decode("utf-8").splitlines()
    line = next((i for i, (x, y) in enumerate(zip(old, new)) if x != y),
                min(len(old), len(new)))
    print(f"first difference at line {line + 1}:")
    print(f"< {old[line] if line < len(old) else '(end of file)'}")
    print(f"> {new[line] if line < len(new) else '(end of file)'}")
    for text in tier_b(old, new):
        print(text)
    return 1


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    lines = rows()
    data = "".join(row + "\n" for row in lines).encode("utf-8")
    Path(argv[0]).write_bytes(data)
    print(f"{len(lines)} rows, sha256 {hashlib.sha256(data).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
