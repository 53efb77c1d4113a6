"""Clearings shared within one case: every method run through one
CaseClearings object gives the outcome of a run alone, while each shared
program is solved once."""

import copy
import csv
import hashlib
import math
import sys
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

import flexmkt.cli as cli
import flexmkt.clearing as clearing
import flexmkt.forwarding as forwarding
from flexmkt.casegen import CaseRecipe, generate_case
from flexmkt.cli import METHODS, PRICINGS, ExperimentConfig, _run_method, main, run_experiment
from flexmkt.clearing import CaseClearings, clear_common, interface_price
from flexmkt.errors import ContractError
from flexmkt.forwarding import run_three_layer
from flexmkt.market_model import DIR_UP
from flexmkt.mp_solver import simplex

DELTA = 4.0


def counted(monkeypatch, original):
    """Rebind ``original`` in every flexmkt module to a wrapper; returns the
    list of argument tuples it is called with."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "flexmkt":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, wrapper)
    return calls


def plain(outcome):
    """Every field of an outcome but the measured wall time, exactly."""
    return repr(replace(outcome, wall_ms=0.0))


def all_runs(case, shared=None):
    """(method, pricing) -> outcome for every method under every pricing
    rule, one refinement round, in run_experiment's order: all through
    ``shared``, or each alone when it is None."""
    common = clear_common(case)
    return {(method, pricing): _run_method(case, method, pricing, DELTA, 1,
                                           shared or CaseClearings(case, common))
            for method in METHODS for pricing in PRICINGS}


@pytest.mark.parametrize("style,dsos", [(s, 1 + i % 3) for i, s in enumerate("ABCDABCDABCD")])
def test_shared_outcomes_equal_runs_alone(style, dsos):
    case = generate_case(CaseRecipe(style=style, n_dsos=dsos, tn_buses=max(4, dsos + 1)),
                         100 + dsos)
    together = all_runs(case, CaseClearings(case, clear_common(case)))
    alone = all_runs(case)
    assert together.keys() == alone.keys()
    for key, outcome in alone.items():
        assert plain(together[key]) == plain(outcome), key


def test_run_experiment_solves_each_shared_program_once(monkeypatch, tmp_path):
    case = generate_case(CaseRecipe(style="B", n_dsos=2), 3)
    common = clear_common(case)
    prices = {tuple(interface_price(case, kind, common).prices.values()) for kind in PRICINGS}
    assert len(prices) == len(PRICINGS)
    layer1 = counted(monkeypatch, clearing.clear_dso_layer1)
    layer2 = counted(monkeypatch, clearing.clear_tso_layer2)
    pinned = counted(monkeypatch, clearing.clear_dso_fixed_interface)
    tso = counted(monkeypatch, forwarding.clear_tso_rsf)
    run_experiment(ExperimentConfig(cases=((case.name, 3, case),), methods=METHODS,
                                    pricings=PRICINGS, deltas=(2.0,), refine_rounds=1,
                                    out_dir=str(tmp_path)))
    assert len(layer1) == 2 * len(PRICINGS)
    # One practical Layer 2 per pricing rule serves three_layer and
    # sequential_raw; filtering clears its own capped one.
    assert len(layer2) == 2 * len(PRICINGS)
    pins = Counter((m, z) for _, flows in pinned for m, zs in flows.items() for z in zs)
    assert pins and set(pins.values()) == {1}
    # One TSO MILP per variant, step size and round, whatever the pricing
    # rule: 2 variants x 1 step size x 2 rounds, not 3 rows x 2 rounds each.
    assert len(tso) == 2 * 1 * 2


AGGREGATIONS = ("aggregation_primal", "aggregation_dual")


def test_run_experiment_runs_aggregation_once_per_variant_step_and_refine(monkeypatch,
                                                                          tmp_path):
    # No interface price enters aggregation: under all three pricing rules
    # a case builds the RSFs and makes the Outcomes of one rule alone.
    cases = [generate_case(CaseRecipe(style="B", n_dsos=2), 3),
             generate_case(CaseRecipe(style="C", n_dsos=1), 4)]
    rsfs_dual = counted(monkeypatch, forwarding.build_rsf_dual)
    rsfs = counted(monkeypatch, forwarding.build_rsf)
    made = counted(monkeypatch, forwarding._outcome)

    def work(pricings):
        """Per case: RSFs built per variant and Outcomes made per method."""
        built_before, made_before = (len(rsfs), len(rsfs_dual)), len(made)
        path = run_experiment(ExperimentConfig(
            cases=tuple((c.name, k, c) for k, c in enumerate(cases)), methods=METHODS,
            pricings=pricings, deltas=(2.0, 4.0), refine_rounds=1,
            out_dir=str(tmp_path / "-".join(pricings))))
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [r for r in csv.DictReader(fh) if r["method"] in AGGREGATIONS]
        assert len(rows) == len(cases) * 2 * len(pricings) * 2
        builds = Counter((args[0].name, "primal") for args in rsfs[built_before[0]:])
        builds += Counter((args[0].name, "dual") for args in rsfs_dual[built_before[1]:])
        outcomes = Counter((args[0].case.name, args[1]) for args in made[made_before:]
                           if args[1] in AGGREGATIONS)
        return builds, outcomes

    alone = work(("none",))
    together = work(PRICINGS)
    assert together == alone
    assert together[1] == {(c.name, method): 2 for c in cases for method in AGGREGATIONS}


def test_aggregation_is_served_only_for_its_exact_variant_step_and_refine(monkeypatch):
    case = generate_case(CaseRecipe(style="B", n_dsos=2), 3)
    common = clear_common(case)
    shared = CaseClearings(case, common)
    made = counted(monkeypatch, forwarding._outcome)
    runs = [(DELTA, 0, "primal"), (math.nextafter(DELTA, math.inf), 0, "primal"),
            (DELTA, 1, "primal"), (DELTA, 0, "dual")]
    first = {}
    for args in runs:
        before = len(made)
        first[args] = forwarding.run_bid_aggregation(case, *args, clearings=shared)
        assert len(made) == before + 1, args
    for args in runs:
        before = len(made)
        again = forwarding.run_bid_aggregation(case, *args, clearings=shared)
        assert len(made) == before, args
        alone = forwarding.run_bid_aggregation(case, *args, clearings=CaseClearings(case, common))
        assert plain(again) == plain(first[args]) == plain(alone), args
    # A fresh run alone is never stored: each call without shared
    # clearings makes its Outcome.
    before = len(made)
    forwarding.run_bid_aggregation(case, DELTA, 0, "primal")
    forwarding.run_bid_aggregation(case, DELTA, 0, "primal")
    assert len(made) == before + 2


def test_an_extra_grid_run_is_never_served_from_the_store(monkeypatch):
    case = generate_case(CaseRecipe(style="B", n_dsos=2), 3)
    shared = CaseClearings(case, clear_common(case))
    made = counted(monkeypatch, forwarding._outcome)
    extra = {m: (0.5,) for m in case.dso_indices}
    # Only the first call without a grid makes an Outcome that a later
    # call is served.
    grids = (extra, extra, {}, None, None, extra, {})
    made_by_call = []
    for grid in grids:
        before = len(made)
        forwarding.run_bid_aggregation(case, DELTA, 0, "primal", clearings=shared,
                                       extra_grid=grid)
        made_by_call.append(len(made) - before)
    assert made_by_call == [1, 1, 1, 1, 0, 1, 1]


def test_a_served_aggregation_row_s_wall_ms_is_its_own_call_s_time(monkeypatch):
    case = generate_case(CaseRecipe(style="B", n_dsos=2), 3)
    shared = CaseClearings(case, clear_common(case))
    first = forwarding.run_bid_aggregation(case, DELTA, 0, "dual", clearings=shared)
    made = counted(monkeypatch, forwarding._outcome)
    clock = iter([10.0, 10.25])
    monkeypatch.setattr(forwarding, "time", SimpleNamespace(perf_counter=clock.__next__))
    served = forwarding.run_bid_aggregation(case, DELTA, 0, "dual", clearings=shared)
    assert not made and next(clock, None) is None
    assert served.wall_ms == 250.0 != first.wall_ms
    assert plain(served) == plain(first)
    assert (served.lp_solves, served.milp_nodes) == (first.lp_solves, first.milp_nodes)


def built(monkeypatch, name):
    """Rebind the program builder ``clearing.<name>`` to a wrapper; returns
    the list of programs it builds."""
    programs = []
    original = getattr(clearing, name)

    def wrapper(*args):
        programs.append(original(*args))
        return programs[-1]

    monkeypatch.setattr(clearing, name, wrapper)
    return programs


def phase_ones_of(prog, runs) -> int:
    """How many of the recorded ``phase_one`` calls ran on ``prog``'s LP:
    its rows, and bounds that no branch-and-bound node and no other bound
    set on those rows has."""
    bounds = (prog.lp.var_lb, prog.lp.var_ub, prog.lp.row_lo, prog.lp.row_hi)
    return sum(lp.rows is prog.lp.rows and (lp.var_lb, lp.var_ub, lp.row_lo, lp.row_hi) == bounds
               for lp, in runs)


def distinct(programs):
    """``programs`` without repeats, by identity, in first-seen order."""
    return list({id(prog): prog for prog in programs}.values())


def test_re_costed_programs_are_built_and_run_phase_one_once(monkeypatch, tmp_path):
    # Each DSO's Layer-1 program serves every pricing rule, and each MILP
    # program every RSF variant that forwards its flows: each is built
    # once and runs phase 1 once; every other solve resumes from there.
    # Each Layer-2 row set is built once per case, as the first bound set
    # cleared on it, and each bound set runs phase 1 once, whichever
    # pricing rule and method clears it. Every program built to be kept is
    # densified once; the Layer-1 program is its DSO's row set.
    case = generate_case(CaseRecipe(style="B", n_dsos=2), 1)
    layer1 = counted(monkeypatch, clearing.clear_dso_layer1)
    milps = counted(monkeypatch, clearing.solve_milp)
    solves = counted(monkeypatch, clearing.solve_lp)
    layer1_calls = built(monkeypatch, "_layer1_program")
    milp_programs = built(monkeypatch, "_tso_rsf_program")
    layer2_calls = built(monkeypatch, "_layer2_program")
    builds, init = [], clearing._CaseProgram.__init__
    monkeypatch.setattr(clearing._CaseProgram, "__init__",
                        lambda prog, case: builds.append(prog) or init(prog, case))
    row_sets, keep = [], clearing.LinearProgram.keep_matrix
    monkeypatch.setattr(clearing.LinearProgram, "keep_matrix",
                        lambda lp: row_sets.append(lp) or keep(lp))
    runs = counted(monkeypatch, simplex.phase_one)
    run_experiment(ExperimentConfig(cases=((case.name, 3, case),), methods=METHODS,
                                    pricings=PRICINGS, deltas=(2.0,), refine_rounds=1,
                                    out_dir=str(tmp_path)))
    # With every row set built apart from the programs on it, this case
    # builds 11 programs and runs phase 1 17 times; sharing needs no more.
    assert len(builds) <= 11 and len(runs) <= 17
    assert len(layer1) == 2 * len(PRICINGS)
    layer1_programs = distinct(layer1_calls)
    assert [list(prog.z_vars) for prog in layer1_programs] == [[m] for m in case.dso_indices]
    # Both variants forward the same flows in the first round.
    assert len(milps) == 4 and 1 <= len(milp_programs) < len(milps)
    assert all(mp.lp.start is not None for mp, in milps)
    assert [phase_ones_of(prog, runs) for prog in (*layer1_programs, *milp_programs)] == [
        1] * (len(layer1_programs) + len(milp_programs))

    # Four Layer-2 clearings per pricing rule: the practical one that
    # three_layer and sequential_raw share, filtering's, idealized and
    # fragmented. Two row sets: aggregated DSO balances and full networks.
    assert len(layer2_calls) == 4 * len(PRICINGS)
    bound_sets = distinct(layer2_calls)
    assert len(bound_sets) < len(layer2_calls)
    firsts = {}
    for prog in bound_sets:
        first = firsts.setdefault(id(prog.lp.rows), prog)
        assert prog.lp.dense_matrix() is first.lp.dense_matrix()
        # The first bound set on a row set is its build; the later ones
        # are copies of it.
        assert any(prog is b for b in builds) == (prog is first)
    assert len(firsts) == 2
    kept = (*layer1_programs, *firsts.values(), *milp_programs)
    assert Counter(map(id, row_sets)) == Counter(id(prog.lp) for prog in kept)
    assert all(any(prog is b for b in builds) for prog in kept)
    assert [phase_ones_of(prog, runs) for prog in bound_sets] == [1] * len(bound_sets)
    layer2_solves = [lp for lp, in solves if any(lp.rows is prog.lp.rows for prog in bound_sets)]
    assert len(layer2_solves) == len(layer2_calls)
    assert all(lp.start is prog.lp.start is not None
               for lp, prog in zip(layer2_solves, layer2_calls))


def test_aggregation_dual_resumes_the_primal_milp_root(monkeypatch):
    case = generate_case(CaseRecipe(style="B", n_dsos=2), 3)
    common = clear_common(case)
    shared = CaseClearings(case, common)
    milp_programs = built(monkeypatch, "_tso_rsf_program")
    assert _run_method(case, "aggregation_primal", "none", DELTA, 0, shared).status == "ok"
    [prog] = milp_programs
    milps = counted(monkeypatch, clearing.solve_milp)
    runs = counted(monkeypatch, simplex.phase_one)
    dual = _run_method(case, "aggregation_dual", "none", DELTA, 0, shared)
    assert dual.status == "ok"
    [(mp,)] = milps
    assert mp.lp.rows is prog.lp.rows and mp.lp.start is prog.lp.start is not None
    assert len(milp_programs) == 1 and phase_ones_of(prog, runs) == 0
    alone = _run_method(case, "aggregation_dual", "none", DELTA, 0, CaseClearings(case, common))
    assert plain(dual) == plain(alone)


def test_run_experiment_releases_each_case_s_programs(monkeypatch, tmp_path):
    # Every clearing stays; a released program is built again, to the
    # clearing its first build gave.
    case = generate_case(CaseRecipe(style="B", n_dsos=2), 3)
    made = []
    monkeypatch.setattr(cli, "CaseClearings",
                        lambda *args: made.append(CaseClearings(*args)) or made[-1])
    run_experiment(ExperimentConfig(cases=((case.name, 3, case),), methods=METHODS,
                                    pricings=PRICINGS, deltas=(2.0,), refine_rounds=1,
                                    out_dir=str(tmp_path)))
    [shared] = made
    assert shared._solved and not any(key[0] == "program" for key in shared._solved)
    rule = interface_price(case, "none")
    programs = built(monkeypatch, "_layer1_program")
    row_sets, keep = [], clearing.LinearProgram.keep_matrix
    monkeypatch.setattr(clearing.LinearProgram, "keep_matrix",
                        lambda lp: row_sets.append(lp) or keep(lp))
    again = {m: clearing.clear_dso_layer1(case, m, rule, clearings=shared)
             for m in case.dso_indices}
    # The Layer-1 row sets were dropped too: each is built again.
    assert len(programs) == len(row_sets) == len(case.dso_indices)
    assert all(prog.lp.rows is lp.rows for prog, lp in zip(programs, row_sets))
    assert repr(again) == repr(shared.layer1(rule))


def test_milp_programs_are_shared_by_the_exact_bits_of_their_flows(monkeypatch):
    case = generate_case(CaseRecipe(style="B", n_dsos=2), 3)
    shared = CaseClearings(case)
    grids = {dso.index: [dso.z_min, 0.0, 2.0, dso.z_max] for dso in case.dsos}
    primal = {m: forwarding.build_rsf(case, m, grid, clearings=shared) for m, grid in grids.items()}
    dual = {m: forwarding.build_rsf_dual(case, m, grid, clearings=shared)
            for m, grid in grids.items()}
    m = case.dso_indices[0]
    zero = next(k for k, step in enumerate(primal[m].steps) if step.z == 0.0)

    def moved(z):
        steps = list(primal[m].steps)
        steps[zero] = replace(steps[zero], z=z)
        return {**primal, m: replace(primal[m], steps=tuple(steps))}

    programs = built(monkeypatch, "_tso_rsf_program")
    kept = []
    for rsfs in (primal, dual, moved(-0.0), moved(math.nextafter(0.0, 1.0))):
        before = len(programs)
        got = shared.tso_rsf(rsfs)
        kept.append(programs[before:])
        assert repr(got) == repr(clearing.clear_tso_rsf(case, rsfs))
    # The dual surrogate re-costs the primal's program; a flow that differs
    # only in the sign of zero, or by one ulp, builds its own, which the
    # primal program's Start does not resume.
    assert [len(new) for new in kept] == [1, 0, 1, 1]
    [[first], _, [signed], [ulp]] = kept
    for prog in (signed, ulp):
        assert prog.lp.start is not first.lp.start
        other = copy.copy(prog.lp)
        other.start = first.lp.start
        with pytest.raises(ContractError, match="resumes only"):
            clearing.solve_lp(other)


LAYER2 = {"practical": clearing.clear_tso_layer2, "idealized": clearing.clear_idealized_layer2,
          "fragmented": clearing.clear_fragmented_layer2}


@pytest.mark.parametrize("style", "ABCD")
def test_kept_layer2_clearings_equal_fresh_ones(style):
    # Every mode under every pricing rule, filtering's capped program
    # included, through one case's clearings and each built afresh.
    case = generate_case(CaseRecipe(style=style, n_dsos=2), 3)
    shared = CaseClearings(case)
    capped = {b.id: 0.0 for b in case.bids if b.system != 0 and b.direction == DIR_UP}
    for kind in PRICINGS:
        rule = interface_price(case, kind, shared.common)
        layer1 = shared.layer1(rule)
        runs = [(name, clear, ()) for name, clear in LAYER2.items()]
        runs.append(("filtering", clearing.clear_tso_layer2, (capped,)))
        for name, clear, caps in runs:
            kept = clear(case, layer1, rule, *caps, clearings=shared)
            assert kept.status == "optimal", (kind, name)
            assert repr(kept) == repr(clear(case, layer1, rule, *caps)), (kind, name)


def test_layer2_programs_are_kept_by_the_exact_bits_of_their_bounds():
    case = generate_case(CaseRecipe(style="B", n_dsos=2), 3)
    shared = CaseClearings(case)
    rule = interface_price(case, "none")
    layer1 = shared.layer1(rule)
    m = case.dso_indices[0]
    bids = {b.id: b for b in case.bids_of(m)}
    # A bid cleared to at least half its volume, whose cap
    # quantity_max - used is then exact, and one not cleared at all.
    used = next(b for b in bids.values() if layer1[m].volume(b) >= b.quantity_max / 2 > 0.0)
    unused = next(b for b in bids.values() if layer1[m].volume(b).hex() == "0x0.0p+0")

    def moved(bid, volume):
        table = "upward" if bid.direction == DIR_UP else "downward"
        volumes = {**getattr(layer1[m], table), bid.id: volume}
        return {**layer1, m: replace(layer1[m], **{table: volumes})}

    def kept(prior, caps=None):
        prog = clearing._layer2_program(case, prior, caps, "practical", shared)
        got = clearing.clear_tso_layer2(case, prior, rule, caps, clearings=shared)
        assert repr(got) == repr(clearing.clear_tso_layer2(case, prior, rule, caps))
        return prog

    first = kept(layer1)
    assert kept(dict(layer1)) is first
    # A prior volume one ulp apart, or a cap override of -0.0 where the
    # first program's cap is 0.0, gives its own bounds on the same rows:
    # its own program, which the first program's Start refuses.
    ulp = kept(moved(used, math.nextafter(layer1[m].volume(used), 0.0)))
    signed_cap = kept(layer1, {unused.id: -0.0})
    for prog in (ulp, signed_cap):
        assert prog is not first and prog.lp.rows is first.lp.rows
        assert prog.lp.start is not first.lp.start
        other = copy.copy(prog.lp)
        other.start = first.lp.start
        with pytest.raises(ContractError, match="resumes only"):
            clearing.solve_lp(other)
    # A prior volume enters as the volume used, summed from +0.0, so one
    # flipped from 0.0 to -0.0 gives the first program's bounds bit for
    # bit, and is served that program.
    signed = moved(unused, -0.0)
    assert signed[m].volume(unused).hex() == "-0x0.0p+0"
    assert kept(signed) is first


@pytest.mark.parametrize("style", "ABCD")
def test_dso_flow_interval_equals_two_solves_from_scratch(style):
    # The parent's computation, written out: the program built for each
    # sense and solved afresh. The interval's two solves share one phase 1.
    for seed in range(3):
        case = generate_case(CaseRecipe(style=style, n_dsos=3, tn_buses=4), 60 + seed)
        for m in case.dso_indices:
            dso = case.dso(m)
            reference = []
            for sense in (1.0, -1.0):
                prog = clearing._CaseProgram(case)
                zv = prog.add_z(m, dso.z_min, dso.z_max)
                prog.add_system(m, cost_scale=0.0)
                prog.lp.var_cost[zv] = sense
                reference.append(float(clearing.solve_lp(prog.lp).x[zv]).hex())
            assert [z.hex() for z in clearing.dso_flow_interval(case, m)] == reference


def scratch_layer2(case, layer1, rule, mode, caps=None):
    """The TSO layer in ``mode``, its program written out and solved
    without a Start."""
    prog = clearing._CaseProgram(case)
    for dso in case.dsos:
        lo, hi = dso.z_min, dso.z_max
        if mode == "fragmented":
            lo = hi = layer1[dso.index].interface_flows[dso.index]
        prog.add_z(dso.index, lo, hi, -rule.price(dso.index))
    prog.add_system(0)
    for m in case.dso_indices:
        prog.add_system(m, prior=(layer1[m],), bid_caps=caps, aggregate=mode != "idealized")
    assert prog.lp.start is None
    return prog.extract(clearing.solve_lp(prog.lp))


def scratch_tso_rsf(case, rsfs):
    """The TSO MILP over ``rsfs``, written out with its step costs and
    solved without a Start: its clearing and the selected step per DSO."""
    prog = clearing._CaseProgram(case)
    groups, terms = [], []
    for dso in case.dsos:
        steps = rsfs[dso.index].steps
        ys = [prog.lp.add_variable(f"y{k}", 0.0, 1.0, step.cost) for k, step in enumerate(steps)]
        terms += [(dso.coupling_bus, y, step.z) for y, step in zip(ys, steps) if step.z != 0.0]
        groups.append(ys)
    prog.add_system(0, step_terms=terms)
    assert prog.lp.start is None
    sol = clearing.solve_milp(clearing.MixedProgram(prog.lp, groups))
    selected = {m: max(range(len(ys)), key=lambda k: sol.x[ys[k]])
                for m, ys in zip(case.dso_indices, groups)}
    flows = {m: rsfs[m].steps[k].z for m, k in selected.items()}
    return replace(prog.extract(sol), interface_flows=flows), selected


@pytest.mark.parametrize("style", "ABCD")
def test_clearings_without_shared_ones_equal_programs_solved_from_scratch(style):
    # A call without clearings keeps its program in a fresh CaseClearings
    # and resumes its solve from the phase-1 Start of its first re-cost;
    # it clears, bit for bit, what the program written out and solved
    # from scratch gives.
    case = generate_case(CaseRecipe(style=style, n_dsos=2), 5)
    common = clear_common(case)
    capped = {b.id: 0.0 for b in case.bids if b.system != 0 and b.direction == DIR_UP}
    for kind in PRICINGS:
        rule = interface_price(case, kind, common)
        layer1 = {}
        for m in case.dso_indices:
            dso = case.dso(m)
            prog = clearing._CaseProgram(case)
            prog.add_z(m, dso.z_min, dso.z_max, rule.price(m))
            prog.add_system(m)
            layer1[m] = prog.extract(clearing.solve_lp(prog.lp))
            assert repr(clearing.clear_dso_layer1(case, m, rule)) == repr(layer1[m]), (kind, m)
        assert all(r.status == "optimal" for r in layer1.values()), kind
        for mode, clear in LAYER2.items():
            got = clear(case, layer1, rule)
            caps = {b.id: 0.0 for b in case.bids if b.system != 0} if mode == "fragmented" else None
            assert repr(got) == repr(scratch_layer2(case, layer1, rule, mode, caps)), (kind, mode)
        got = clearing.clear_tso_layer2(case, layer1, rule, capped)
        assert repr(got) == repr(scratch_layer2(case, layer1, rule, "practical", capped)), kind
    shared = CaseClearings(case, common)
    grids = {dso.index: [dso.z_min, 0.5 * (dso.z_min + dso.z_max), dso.z_max] for dso in case.dsos}
    for build in (forwarding.build_rsf, forwarding.build_rsf_dual):
        rsfs = {m: build(case, m, grid, clearings=shared) for m, grid in grids.items()}
        assert repr(clearing.clear_tso_rsf(case, rsfs)) == repr(scratch_tso_rsf(case, rsfs))


def test_corrections_and_flow_intervals_copy_the_dso_s_layer1_row_set(monkeypatch):
    # A DSO's Layer-1 program is its row set: every Layer-3 correction and
    # flow-interval program of the DSO is a copy that shares its rows
    # object and kept matrix, and clears as a fresh build does.
    case = generate_case(CaseRecipe(style="B"), 0)
    shared = CaseClearings(case, clear_common(case))
    rule = interface_price(case, "none")
    layer1_programs = built(monkeypatch, "_layer1_program")
    shared.layer1(rule)
    rows = {list(prog.z_vars)[0]: prog.lp for prog in layer1_programs}
    assert list(rows) == case.dso_indices

    corrections = built(monkeypatch, "_layer3_program")
    out = run_three_layer(case, rule, clearings=shared)
    assert out.status == "ok" and len(corrections) == len(out.layer3) == len(rows)
    for prog in list(corrections):
        [m] = prog.z_vars
        assert prog.lp is not rows[m] and prog.lp.rows is rows[m].rows
        assert prog.lp.dense_matrix() is rows[m].dense_matrix()
        prior, z = (out.layer1[m], out.layer2), out.layer2.interface_flows[m]
        fresh = clearing._layer3_program(case, m, prior, z, CaseClearings(case))
        assert repr(out.layer3[m]) == repr(fresh.extract(clearing.solve_lp(fresh.lp)))

    runs = counted(monkeypatch, simplex.phase_one)
    for m, lp in rows.items():
        before = len(runs)
        interval = clearing.dso_flow_interval(case, m, clearings=shared)
        [(run,)] = runs[before:]
        assert run is not lp and run.rows is lp.rows and run.dense_matrix() is lp.dense_matrix()
        assert [z.hex() for z in interval] == [z.hex() for z in clearing.dso_flow_interval(case, m)]


def test_layer3_correction_is_keyed_by_exact_prior_volumes(monkeypatch):
    case = generate_case(CaseRecipe(style="B", n_dsos=2), 3)
    shared = CaseClearings(case)
    pricing = interface_price(case, "none")
    layer1, layer2 = shared.layer1(pricing), shared.layer2(pricing)
    m = case.dso_indices[0]
    z2 = layer2.interface_flows[m]
    solves = counted(monkeypatch, clearing.solve_lp)

    first = shared.correction(m, (layer1[m], layer2), z2)
    per_correction = len(solves)
    assert per_correction >= 1
    assert shared.correction(m, (layer1[m], layer2), z2) is first
    assert len(solves) == per_correction

    bid = max(case.bids_of(m), key=layer1[m].volume)
    assert layer1[m].volume(bid) > 0.0
    table = "upward" if bid.direction == DIR_UP else "downward"
    volumes = dict(getattr(layer1[m], table))
    volumes[bid.id] = math.nextafter(volumes[bid.id], math.inf)
    nudged = replace(layer1[m], **{table: volumes})
    shared.correction(m, (nudged, layer2), z2)
    assert len(solves) > per_correction

    # The overload diagnostic has a key of its own kind: asking for it
    # solves one more program, once, and leaves the correction's alone.
    before = len(solves)
    worst = shared.overload(m, (layer1[m], layer2), z2)
    assert len(solves) == before + 1
    assert shared.overload(m, (layer1[m], layer2), z2) == worst
    assert shared.correction(m, (layer1[m], layer2), z2) is first
    assert len(solves) == before + 1


@pytest.mark.parametrize("style,seed", [("B", 0), ("B", 1), ("C", 2), ("A", 3)])
@pytest.mark.parametrize("method", ["three_layer", "sequential_raw", "idealized", "fragmented"])
def test_a_run_alone_solves_exactly_the_programs_it_counts(monkeypatch, style, seed, method):
    # lp_solves is the count of programs a run alone solves; three_layer
    # solves no uncounted overload diagnostic (layer3_overload does).
    case = generate_case(CaseRecipe(style=style), seed)
    common = clear_common(case)
    solves = counted(monkeypatch, clearing.solve_lp)
    for pricing in PRICINGS:
        before = len(solves)
        out = _run_method(case, method, pricing, None, 0, CaseClearings(case, common))
        assert len(solves) - before == out.lp_solves, pricing
        assert out.details == {}


def test_layer3_overload_is_the_diagnostic_program_solved_once(monkeypatch):
    case = generate_case(CaseRecipe(style="B"), 0)
    shared = CaseClearings(case, clear_common(case))
    out = run_three_layer(case, interface_price(case, "none"), clearings=shared)
    assert out.status == "ok" and not out.safe
    solves = counted(monkeypatch, clearing.solve_lp)
    overload = forwarding.layer3_overload(case, out, clearings=shared)
    infeasible = [m for m, r in out.layer3.items() if r.status != "optimal"]
    assert list(overload) == infeasible and len(solves) == len(infeasible)
    for m, worst in overload.items():
        prior, z = (out.layer1[m], out.layer2), out.layer2.interface_flows[m]
        prog, slack = clearing._overload_program(case, m, prior, z)
        sol = clearing.solve_lp(prog.lp)
        assert sol.status == "optimal"
        assert worst == float(sol.x[slack])
        # No correction at all is a point of the relaxed program, so the
        # least overload is at most the overload the verdict saw.
        assert 0.0 < worst <= out.safety.max_flow_violation + 1e-9
    before = len(solves)
    assert forwarding.layer3_overload(case, out, clearings=shared) == overload
    assert len(solves) == before


def fingerprint(lp, groups=()) -> str:
    """Hash of everything a solve reads of a program: bounds, costs, rows,
    row bounds and one-hot groups, every float by its exact bits."""
    content = (lp.var_lb, lp.var_ub, lp.var_cost, lp.rows, lp.row_lo, lp.row_hi, groups)
    return hashlib.sha256(repr(content).encode()).hexdigest()


def recording_batch(monkeypatch, module, seen: Counter) -> None:
    """Rebind ``module.solve_lp_batch`` to count in ``seen`` the fingerprint
    of each item it solves, of every program in the call: the program under
    that item's row bounds."""
    original = module.solve_lp_batch

    def batch(batches):
        solved = original(batches)
        for program, row_lo, row_hi in batches:
            for lo, hi in zip(row_lo, row_hi):
                item = copy.copy(program)
                item.row_lo, item.row_hi = lo.tolist(), hi.tolist()
                seen[fingerprint(item)] += 1
        return solved

    monkeypatch.setattr(module, "solve_lp_batch", batch)


@pytest.mark.parametrize("style,dsos", [("A", 1), ("B", 2), ("C", 3), ("D", 2)])
def test_no_program_is_solved_twice_within_a_case(monkeypatch, tmp_path, style, dsos):
    case = generate_case(CaseRecipe(style=style, n_dsos=dsos, tn_buses=max(4, dsos + 1)), 20 + dsos)
    seen = Counter()

    def recording(module, name, read):
        original = getattr(module, name)

        def wrapper(program):
            seen[read(program)] += 1
            return original(program)

        monkeypatch.setattr(module, name, wrapper)

    recording(clearing, "solve_lp", fingerprint)
    recording(clearing, "solve_milp", lambda mp: fingerprint(mp.lp, mp.groups))
    recording_batch(monkeypatch, clearing, seen)
    run_experiment(ExperimentConfig(cases=((case.name, 0, case),), methods=METHODS,
                                    pricings=PRICINGS, deltas=(2.0, 4.0), refine_rounds=1,
                                    out_dir=str(tmp_path)))
    assert seen
    assert max(seen.values()) == 1, sum(n - 1 for n in seen.values())


@pytest.mark.parametrize("style,dsos", [("A", 1), ("B", 2), ("C", 1), ("D", 3)])
def test_suboptimality_constant_solves_each_sample_once(monkeypatch, style, dsos):
    case = generate_case(CaseRecipe(style=style, n_dsos=dsos, tn_buses=max(4, dsos + 1)), 7)
    shared = CaseClearings(case)
    assert shared.common.status == "optimal"
    alone, batched = Counter(), Counter()
    original = clearing.solve_lp

    def recording(program):
        alone[fingerprint(program)] += 1
        return original(program)

    monkeypatch.setattr(clearing, "solve_lp", recording)
    recording_batch(monkeypatch, clearing, batched)
    forwarding.suboptimality_constant(case, clearings=shared)
    assert alone and batched
    seen = alone + batched
    assert max(seen.values()) == 1, sum(n - 1 for n in seen.values())


def test_forwarding_builds_and_solves_no_program():
    # Every program is built and solved in flexmkt.clearing, so a recorder
    # on clearing alone sees every solve of a run; forwarding only composes.
    import flexmkt.mp_solver as mp_solver

    assert "INF" not in vars(forwarding)
    bound = list(vars(forwarding).values())
    for entry in (mp_solver.solve_lp, mp_solver.solve_lp_batch, mp_solver.solve_milp,
                  mp_solver.LinearProgram, mp_solver.MixedProgram, mp_solver.Solution,
                  clearing._CaseProgram):
        assert not any(value is entry for value in bound), entry.__name__
    private = [value for name, value in vars(clearing).items()
               if name.startswith("_") and not name.startswith("__") and callable(value)]
    assert private
    for value in private:
        assert not any(v is value for v in bound), value.__name__


def test_check_clears_the_common_market_once_per_case(monkeypatch):
    calls = counted(monkeypatch, clearing.clear_common)
    assert main(["check", "--recipe", "B", "--seed", "0-1"]) == 0
    assert len(calls) == 2


def test_shared_clearings_belong_to_one_case():
    case = generate_case(CaseRecipe(style="A"), 1)
    other = generate_case(CaseRecipe(style="A"), 2)
    with pytest.raises(ContractError, match="another case"):
        run_three_layer(case, interface_price(case, "none"), clearings=CaseClearings(other))


OTHER_CASE_CALLS = {
    "clear_dso_layer1": lambda b, m, rule, layer1, rsfs, clearings: clearing.clear_dso_layer1(
        b, m, rule, clearings=clearings),
    "clear_tso_layer2": lambda b, m, rule, layer1, rsfs, clearings: clearing.clear_tso_layer2(
        b, layer1, rule, clearings=clearings),
    "clear_idealized_layer2": lambda b, m, rule, layer1, rsfs, clearings:
        clearing.clear_idealized_layer2(b, layer1, rule, clearings=clearings),
    "clear_fragmented_layer2": lambda b, m, rule, layer1, rsfs, clearings:
        clearing.clear_fragmented_layer2(b, layer1, rule, clearings=clearings),
    "clear_tso_rsf": lambda b, m, rule, layer1, rsfs, clearings: clearing.clear_tso_rsf(
        b, rsfs, clearings=clearings),
    "dso_flow_interval": lambda b, m, rule, layer1, rsfs, clearings: clearing.dso_flow_interval(
        b, m, clearings=clearings),
}


@pytest.mark.parametrize("name", OTHER_CASE_CALLS)
def test_every_clearing_function_refuses_another_case_s_clearings(name):
    # Case a's clearings keep a's programs under keys that name no case,
    # such as a DSO's Layer-1 program under its DSO alone. Handed to a call
    # on case b, they are refused rather than serve b a program of a's.
    a, b = (generate_case(CaseRecipe(style="B"), seed) for seed in (1, 2))
    theirs = CaseClearings(a)
    theirs.layer2(interface_price(a, "none"))
    own = CaseClearings(b)
    rule = interface_price(b, "none")
    layer1 = own.layer1(rule)
    rsfs = {dso.index: forwarding.build_rsf(b, dso.index, [dso.z_min, 0.0, dso.z_max],
                                            clearings=own) for dso in b.dsos}
    call = OTHER_CASE_CALLS[name]
    args = (b, b.dso_indices[0], rule, layer1, rsfs)
    with pytest.raises(ContractError, match="another case"):
        call(*args, theirs)
    assert repr(call(*args, own)) == repr(call(*args, None))


def test_aggregation_without_clearings_runs_through_a_fresh_store(monkeypatch):
    # Only an extra grid bypasses the store: a call without clearings is
    # served through a fresh object's, and gives a shared call's Outcome.
    case = generate_case(CaseRecipe(style="B", n_dsos=2), 3)
    shared = CaseClearings(case, clear_common(case))
    stores, aggregation = [], CaseClearings.aggregation
    monkeypatch.setattr(CaseClearings, "aggregation",
                        lambda self, *args: stores.append(self) or aggregation(self, *args))
    for variant in ("primal", "dual"):
        together = forwarding.run_bid_aggregation(case, DELTA, 1, variant, clearings=shared)
        alone = forwarding.run_bid_aggregation(case, DELTA, 1, variant)
        assert plain(alone) == plain(together), variant
    assert [store is shared for store in stores] == [True, False, True, False]
    assert stores[1] is not stores[3] and stores[1].case is stores[3].case is case


def test_fresh_clearings_clear_the_common_market_on_first_use(monkeypatch):
    case = generate_case(CaseRecipe(style="C"), 5)
    calls = counted(monkeypatch, clearing.clear_common)
    shared = CaseClearings(case)
    assert not calls
    assert shared.common is shared.common
    assert len(calls) == 1
