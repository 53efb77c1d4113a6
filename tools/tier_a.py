"""Regenerate the tier-A oracle: the ``results.csv`` rows of the benchmark
workloads ladder, rsf-fine and sweep-mixed at seeds 1-4, ``wall_ms`` left
out, each row prefixed with its workload, seed and batch.

    python3 tools/tier_a.py OUT

writes the rows to ``OUT`` and prints their count and sha256. A refactor
keeps every row byte for byte: run this on a checkout of the parent commit
and on the change, then compare the two files with ``cmp``. The workloads
come from ``perfbench/workloads.py``, which this only reads.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the solver runs serially.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from reference import rows_without_wall  # noqa: E402
from workloads import WORKLOADS, build_configs  # noqa: E402

from flexmkt.cli import run_experiment  # noqa: E402

SEEDS = (1, 2, 3, 4)


def rows() -> list[str]:
    """Every row, headers included, of the three workloads at each seed, in order."""
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


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    lines = rows()
    data = "".join(row + "\n" for row in lines).encode("utf-8")
    Path(argv[0]).write_bytes(data)
    print(f"{len(lines)} rows, sha256 {hashlib.sha256(data).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
