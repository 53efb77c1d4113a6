"""The benchmark's workloads: which cases, methods, pricing rules and step
sizes one pass runs, as batches for ``flexmkt.cli.run_experiment``.

A workload's cases come from its ``--seed``: case ``k`` of a batch uses
generator seed ``1000 * seed + k``, so one seed gives the same inputs on
every run and different seeds give different cases of the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass

ALL_METHODS = ("three_layer", "filtering", "aggregation_primal", "aggregation_dual",
               "fragmented", "idealized", "sequential_raw")
ALL_PRICINGS = ("none", "optimal", "midpoint")


@dataclass(frozen=True)
class CaseSpec:
    style: str
    n_dsos: int
    dso_buses: int
    tn_buses: int
    congestion: float
    seed: int


@dataclass(frozen=True)
class Batch:
    """One ``run_experiment`` call: cases x methods x pricing rules x step sizes."""

    label: str
    cases: tuple[CaseSpec, ...]
    methods: tuple[str, ...]
    pricings: tuple[str, ...]
    deltas: tuple[float, ...]
    refine_rounds: int = 0


def _recipe_b(n_dsos: int, dso_buses: int, seeds) -> tuple[CaseSpec, ...]:
    """Recipe B with ``tn_buses = n_dsos + 2``, the ROADMAP's size ladder."""
    return tuple(CaseSpec("B", n_dsos, dso_buses, n_dsos + 2, 0.9, s) for s in seeds)


def ladder(seed: int) -> list[Batch]:
    """Rungs 2x7 and 4x15 run all seven methods; the 8x30 rung runs the
    common clearing and three_layer only."""
    base = 1000 * seed
    return [
        Batch("2x7", _recipe_b(2, 7, range(base, base + 4)), ALL_METHODS, ("none",), (4.0,)),
        Batch("4x15", _recipe_b(4, 15, range(base + 4, base + 7)), ALL_METHODS,
              ("none",), (4.0,)),
        Batch("8x30", _recipe_b(8, 30, (base + 7,)), ("three_layer",), ("none",), ()),
    ]


def rsf_fine(seed: int) -> list[Batch]:
    """Two Recipe B and two Recipe C cases at 4x15 with a fine step size:
    every method with both variants at zero refinement rounds, then the
    primal variant again with one round on one case of each style."""
    base = 1000 * seed
    cases = tuple(CaseSpec("BC"[k % 2], 4, 15, 6, 0.9, base + k) for k in range(4))
    return [
        Batch("fine", cases, ALL_METHODS, ("none",), (2.0,), 0),
        Batch("refined", cases[:2], ("aggregation_primal",), ("none",), (2.0,), 1),
    ]


def sweep_mixed(seed: int) -> list[Batch]:
    """Twelve small cases: every pairing of style A-D with 1-3 DSOs, seven
    feeder buses, congestion 0.8, 0.9 and 1.1 in turn; every method under
    every pricing rule at a coarse step size."""
    base = 1000 * seed
    cases = tuple(CaseSpec("ABCD"[i % 4], 1 + i % 3, 7, 4, (0.8, 0.9, 1.1)[i // 4], base + i)
                  for i in range(12))
    return [Batch("mixed", cases, ALL_METHODS, ALL_PRICINGS, (4.0,))]


WORKLOADS = {"ladder": ladder, "rsf-fine": rsf_fine, "sweep-mixed": sweep_mixed}

# Run once in set-up, identical for every workload and seed: it takes the
# first-call costs out of the timed passes, and its style-A case makes
# case generation solve programs on every workload.
WARM_UP = Batch("warm-up", (CaseSpec("A", 2, 7, 4, 0.9, 1),), ALL_METHODS,
                ("none",), (4.0,))


def build_configs(batches: list[Batch], out_dir) -> list:
    """Generate the cases and wrap each batch as an ``ExperimentConfig``
    writing to its own directory under ``out_dir``."""
    from pathlib import Path

    from flexmkt.casegen import CaseRecipe, generate_case
    from flexmkt.cli import ExperimentConfig

    configs = []
    for batch in batches:
        cases = []
        for spec in batch.cases:
            recipe = CaseRecipe(style=spec.style, n_dsos=spec.n_dsos,
                                dso_buses=spec.dso_buses, tn_buses=spec.tn_buses,
                                congestion=spec.congestion)
            case = generate_case(recipe, spec.seed)
            cases.append((case.name, spec.seed, case))
        configs.append(ExperimentConfig(
            cases=tuple(cases), methods=batch.methods, pricings=batch.pricings,
            deltas=batch.deltas, refine_rounds=batch.refine_rounds,
            out_dir=str(Path(out_dir) / batch.label), workers=1))
    return configs
