"""Stored ``results.csv`` rows for fixed seeds: the regression oracle.

Every benchmark run regenerates these rows through
``flexmkt.cli.run_experiment`` and compares them byte for byte with the
files in ``perfbench/reference/``, apart from the ``wall_ms`` column.
A change that truly corrects a number regenerates them:

    python3 perfbench/reference.py --write

which rewrites the files and lists every row that changed.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

from workloads import ALL_METHODS, ALL_PRICINGS, Batch, CaseSpec, build_configs

HERE = Path(__file__).resolve().parent
STORED = HERE / "reference"

# Fixed seeds, independent of any workload's --seed: every style and
# pricing rule on small cases, plus a refined 4x15 aggregation.
BATCHES = [
    Batch("mixed", tuple(CaseSpec(style, 2, 7, 4, 0.9, 7001 + i)
                         for i, style in enumerate("ABCD")),
          ALL_METHODS, ALL_PRICINGS, (4.0,)),
    Batch("refined", (CaseSpec("C", 4, 15, 6, 0.9, 7101),),
          ("aggregation_primal", "aggregation_dual"), ("none",), (4.0,), 1),
]


def rows_without_wall(text: str) -> list[str]:
    """The header and each row of a results.csv text, wall_ms left out."""
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index("wall_ms")
    return [",".join(r[:col] + r[col + 1:]) for r in rows]


def _blank_wall(text: str) -> str:
    """The rows as stored: wall_ms left empty, every other field as written."""
    rows = list(csv.reader(io.StringIO(text)))
    col = rows[0].index("wall_ms")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(rows[0])
    writer.writerows(r[:col] + [""] + r[col + 1:] for r in rows[1:])
    return out.getvalue()


def generate(out_dir) -> dict[str, str]:
    """Run the reference batches; returns results.csv text per batch."""
    from flexmkt.cli import run_experiment

    texts = {}
    for batch, config in zip(BATCHES, build_configs(BATCHES, out_dir)):
        path = run_experiment(config)
        texts[batch.label] = path.read_text(encoding="utf-8")
    return texts


def compare(out_dir) -> list[str]:
    """Differences between fresh rows and the stored ones, one line each."""
    problems = []
    for label, text in generate(out_dir).items():
        stored_path = STORED / f"{label}.csv"
        if not stored_path.is_file():
            problems.append(f"missing reference file {stored_path.name}")
            continue
        fresh = rows_without_wall(text)
        stored = rows_without_wall(stored_path.read_text(encoding="utf-8"))
        if len(fresh) != len(stored):
            problems.append(f"{label}: {len(fresh) - 1} rows, reference has {len(stored) - 1}")
        for i, (a, b) in enumerate(zip(fresh, stored)):
            if a != b:
                problems.append(f"{label} row {i}: got {a!r}, reference {b!r}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the stored rows and list what changed")
    args = parser.parse_args(argv)
    import tempfile

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        if not args.write:
            problems = compare(tmp)
            for line in problems:
                print(line)
            print("reference rows match" if not problems else f"{len(problems)} differences")
            return 1 if problems else 0
        STORED.mkdir(exist_ok=True)
        changed = 0
        for label, text in generate(tmp).items():
            path = STORED / f"{label}.csv"
            old = rows_without_wall(path.read_text(encoding="utf-8")) if path.is_file() else []
            new = rows_without_wall(text)
            for i in range(max(len(old), len(new))):
                a = old[i] if i < len(old) else None
                b = new[i] if i < len(new) else None
                if a != b:
                    changed += 1
                    print(f"{label} row {i}: {a!r} -> {b!r}")
            path.write_bytes(_blank_wall(text).encode("utf-8"))
        print(f"wrote {len(BATCHES)} reference files under {STORED.name}/; "
              f"{changed} rows changed")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.exit(main())
