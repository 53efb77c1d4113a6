"""The network blocks the package writes from each network's line terms,
against the per-coefficient builder they replace: every program kind, built
through a fresh CaseClearings per kind and through one case's shared
clearings, has the rows, bounds, costs and dense matrix of the reference
build."""

from types import SimpleNamespace

import pytest

import flexmkt.clearing as clearing
from flexmkt.casegen import CaseRecipe, generate_case
from flexmkt.clearing import (INF, CaseClearings, LinearProgram, Network, interface_price,
                              sensitivity)
from flexmkt.errors import ContractError
from flexmkt.market_model import DIR_UP
from flexmkt.mp_solver import SparseRows
from flexmkt.netmodel import Line


def reference_add_network_block(lp: LinearProgram, net: Network, rhs: list[float],
                                terms, tag: int | str,
                                flow_slack: int | None = None) -> dict[int, int]:
    """Write one system's DC block into ``lp`` and return its balance rows
    keyed by bus.

    Adds a free net-injection variable per bus, then per bus the balance
    row ``sum(terms at the bus) - p = rhs``, the consistency row
    ``sum(p) = 0``, and one row per line bounding the sensitivity-weighted
    injections by the line's limits. ``terms`` holds (bus, variable,
    coefficient) triples, summed per bus in their order. With
    ``flow_slack`` each limit becomes a pair of one-sided rows that the
    (non-negative) slack variable relaxes. ``tag`` names the rows and
    variables.
    """
    p_vars = [lp.add_variable(f"p[{tag},{bus}]", -INF, INF) for bus in net.buses]
    balance: list[dict[int, float]] = [{pv: -1.0} for pv in p_vars]
    for bus, var, coeff in terms:
        coeffs = balance[net.bus_index[bus]]
        coeffs[var] = coeffs.get(var, 0.0) + coeff
    rows = {bus: lp.add_equality(coeffs, rhs[k], name=f"bal[{tag},{bus}]")
            for k, (bus, coeffs) in enumerate(zip(net.buses, balance))}
    lp.add_equality({pv: 1.0 for pv in p_vars}, 0.0, name=f"netsum[{tag}]")

    entries = sensitivity(net)
    for li, ln in enumerate(net.lines):
        coeffs = {p_vars[k]: entries[li, k]
                  for k in range(net.n_buses) if entries[li, k] != 0.0}
        if flow_slack is None:
            lp.add_range(coeffs, ln.f_min, ln.f_max, name=f"flow[{tag},{li}]")
        else:
            lp.add_range({**coeffs, flow_slack: -1.0}, -INF, ln.f_max, name=f"fhi[{tag},{li}]")
            lp.add_range({**coeffs, flow_slack: +1.0}, ln.f_min, INF, name=f"flo[{tag},{li}]")
    return rows


def every_program(case, clearings):
    """Each kind of program the package builds for ``case`` outside the
    solver calls, by name: its LP. ``clearings`` keeps the programs of
    every kind; None gives each kind a fresh CaseClearings, on which it is
    the first program built."""
    def kept():
        return clearings or CaseClearings(case)

    rule = interface_price(case, "none")
    shared = kept()
    layer1 = shared.layer1(rule)
    layer2 = shared.layer2(rule)
    capped = {b.id: 0.0 for b in case.bids if b.system != 0 and b.direction == DIR_UP}
    out = {"common": clearing._common_program(case).lp}
    for m in case.dso_indices:
        prior, z = (layer1[m], layer2), layer2.interface_flows[m]
        out["layer1", m] = clearing._layer1_program(case, m, kept()).lp
        out["layer3", m] = clearing._layer3_program(case, m, prior, z, kept()).lp
        # The diagnostic relaxes every line limit by a flow slack.
        out["overload", m] = clearing._overload_program(case, m, prior, z)[0].lp
    for mode in ("practical", "idealized", "fragmented"):
        # Practical and fragmented aggregate the DSO balances.
        out["layer2", mode] = clearing._layer2_program(case, layer1, None, mode, kept()).lp
    out["filtering"] = clearing._layer2_program(case, layer1, capped, "practical", kept()).lp
    # The MILP's steps enter the transmission balances as step terms; a
    # step at zero flow adds none.
    rsfs = {m: SimpleNamespace(steps=[SimpleNamespace(z=z) for z in (-1.5, 0.0, 2.25)])
            for m in case.dso_indices}
    out["milp"] = clearing._tso_rsf_program(case, rsfs).mixed.lp
    return out


def batched_and_started(case, clearings):
    """The programs built inside the pins, the common program's pins and the
    flow intervals, caught where they are handed to the solver."""
    out = {}
    original = clearing.phase_one

    def batch(batches):
        for k, item in enumerate(batches):
            out["batch", len(out), k] = item
        return [[] for _ in batches]

    def phase_one(lp):
        out["interval", len(out)] = lp
        return original(lp)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(clearing, "solve_lp_batch", batch)
        patched.setattr(clearing, "phase_one", phase_one)
        clearing.clear_dso_fixed_interface(case, {m: [0.0, 1.0] for m in case.dso_indices})
        clearing.common_pin_duals(case, [{m: 0.5 for m in case.dso_indices}])
        for m in case.dso_indices:
            clearing.dso_flow_interval(case, m, clearings=clearings)
    return out


def contents(program):
    """Everything a solve reads of a program, by repr; the batch's row
    bounds by their bytes."""
    if isinstance(program, tuple):
        lp, row_lo, row_hi = program
        return contents(lp) + (row_lo.tobytes(), row_hi.tobytes())
    return (repr(program.rows), repr(program.var_lb), repr(program.var_ub),
            repr(program.var_cost), repr(program.row_lo), repr(program.row_hi),
            program.dense_matrix().tobytes())


def built(case, clearings, reference=False):
    """Every program of :func:`every_program` and :func:`batched_and_started`,
    its blocks written by the reference builder if ``reference``."""
    with pytest.MonkeyPatch.context() as patched:
        if reference:
            patched.setattr(clearing, "add_network_block", reference_add_network_block)
        return {**every_program(case, clearings), **batched_and_started(case, clearings)}


@pytest.mark.parametrize("style", "ABCD")
def test_every_program_equals_the_per_coefficient_build(style):
    case = generate_case(CaseRecipe(style=style, n_dsos=2), 30)
    reference = built(case, None, reference=True)
    # Common, per DSO Layer 1, 3 and the diagnostic, three Layer-2 modes,
    # filtering's, the MILP, one pin batch per DSO, the common pins, and
    # per DSO the flow interval.
    assert len(reference) == 1 + 3 * 2 + 3 + 1 + 1 + 2 + 1 + 2
    for clearings in (None, CaseClearings(case)):
        programs = built(case, clearings)
        assert programs.keys() == reference.keys()
        for name, program in programs.items():
            assert contents(program) == contents(reference[name]), (name, clearings)


def test_line_terms_are_built_once_per_network_object(monkeypatch):
    net = Network(buses=(1, 2, 3), root=1, lines=(Line(1, 2, 0.1, -5.0, 5.0),
                                                  Line(2, 3, 0.2, -5.0, 5.0),
                                                  Line(1, 3, 0.3, -5.0, 5.0)))
    made = []
    original = SparseRows.__init__

    def counted(self, matrix):
        made.append(matrix)
        original(self, matrix)

    monkeypatch.setattr(SparseRows, "__init__", counted)
    for tag in range(3):
        lp = LinearProgram()
        clearing.add_network_block(lp, net, [0.0] * 3, (), tag)
    assert len(made) == 1 and made[0] is sensitivity(net)
    assert net.line_terms is net.line_terms
    assert net.line_terms.rows == tuple(
        tuple((k, float(v)) for k, v in enumerate(row) if v != 0.0) for row in sensitivity(net))


def test_sparse_rows_are_checked_once_and_mapped_as_add_range_would():
    with pytest.raises(ContractError, match="finite"):
        SparseRows([[1.0, float("nan")]])
    block = SparseRows([[0.0, -1.0, 0.5], [0.0, 0.0, 0.0]])
    assert block.rows == (((1, -1.0), (2, 0.5)), ()) and block.width == 3
    lp, fresh = LinearProgram(), LinearProgram()
    for program in (lp, fresh):
        for k in range(5):
            program.add_variable(f"x{k}", -INF, INF)
    lp.add_sparse_rows(block, [4, 0, 2], [(0, -1.0, 1.0, None), (1, 0.0, INF, (3, 2.0)),
                                          (0, -INF, 2.0, (1, -1.0))])
    fresh.add_range({0: -1.0, 2: 0.5}, -1.0, 1.0)
    fresh.add_range({3: 2.0}, 0.0, INF)
    fresh.add_range({0: -1.0, 2: 0.5, 1: -1.0}, -INF, 2.0)
    assert contents(lp) == contents(fresh)
    # Each call checks its columns, rows, extra terms and bounds.
    bad = [([4, 0], [(0, 0.0, 0.0, None)]), ([4, 4, 0], [(0, 0.0, 0.0, None)]),
           ([4, 0, 5], [(0, 0.0, 0.0, None)]), ([4, 0, -1], [(0, 0.0, 0.0, None)]),
           ([4, 0, 2], [(2, 0.0, 0.0, None)]), ([4, 0, 2], [(-1, 0.0, 0.0, None)]),
           ([4, 0, 2], [(0, 1.0, 0.0, None)]), ([4, 0, 2], [(0, float("nan"), 0.0, None)]),
           ([4, 0, 2], [(0, 0.0, 0.0, (0, 1.0))]), ([4, 0, 2], [(0, 0.0, 0.0, (5, 1.0))]),
           ([4, 0, 2], [(0, 0.0, 0.0, (3, float("inf")))]),
           ([4, 0, 2], [(0, 0.0, 0.0, (3, 0.0))])]
    for cols, rows in bad:
        before = lp.n_rows
        with pytest.raises(ContractError):
            lp.add_sparse_rows(block, cols, rows)
        assert lp.n_rows == before, (cols, rows)
