"""Case parsing, serialization round trips, MATPOWER ingestion, recipes."""

import functools
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexmkt.casegen import CaseRecipe, generate_case
from flexmkt.errors import GenerationError, ParseError, ValidationError
from flexmkt.market_model import (parse_case, parse_matpower, serialize_case,
                                  validate_case)
from flexmkt.netmodel import is_radial

from conftest import micro_case

MINIMAL_CASE = """
{
 "transmission": {"buses": [1, 2], "lines": [[1, 2, 0.1, -100, 100]],
                  "root": 1, "e": [8, 0]},
 "dsos": [{"index": 1,
           "network": {"buses": [1, 2], "lines": [[1, 2, 0.08, -4, 4]],
                       "root": 1},
           "coupling_bus": 2, "z_min": -8, "z_max": 8, "e": [0, 6]}],
 "bids": [
  {"id": "t-u", "system": 0, "bus": 1, "dir": "up", "price": 35, "qmax": 10},
  {"id": "t-d", "system": 0, "bus": 1, "dir": "down", "price": 12, "qmax": 10},
  {"id": "d-u", "system": 1, "bus": 2, "dir": "up", "price": 40, "qmax": 5},
  {"id": "d-d", "system": 1, "bus": 1, "dir": "down", "price": 15, "qmax": 5}
 ]
}
"""


def test_parse_minimal_case():
    case = parse_case(MINIMAL_CASE)
    assert len(case.dsos) == 1
    assert len(case.bids) == 4
    assert case.dsos[0].z_max == 8.0
    assert case.transmission.n_buses == 2


def test_parse_rejects_duplicate_coupling_bus():
    doc = json.loads(MINIMAL_CASE)
    second = json.loads(json.dumps(doc["dsos"][0]))
    second["index"] = 2
    doc["dsos"].append(second)
    with pytest.raises(ValidationError, match="duplicate coupling bus"):
        parse_case(json.dumps(doc))


def test_parse_rejects_unknown_bid_bus():
    doc = json.loads(MINIMAL_CASE)
    doc["bids"][0]["bus"] = 99
    with pytest.raises(ValidationError, match="does not exist"):
        parse_case(json.dumps(doc))


def test_parse_error_carries_path():
    doc = json.loads(MINIMAL_CASE)
    del doc["dsos"][0]["z_min"]
    with pytest.raises(ParseError, match=r"\$.dsos\[0\]"):
        parse_case(json.dumps(doc))
    with pytest.raises(ParseError):
        parse_case("not json at all {")


@pytest.mark.parametrize("path,value", [
    (("transmission", "lines", 0, 2), "x"),
    (("dsos", 0, "network", "lines", 0, 0), None),
    (("transmission", "e", 1), "abc"),
    (("transmission", "e", 0), True),
    (("dsos", 0, "network", "buses", 1), 2.5),
    (("dsos", 0, "z_max"), 10 ** 400),
    (("bids", 0, "price"), float("nan")),
    (("dsos", 0, "z_max"), float("inf")),
    (("dsos", 0, "e", 1), float("-inf")),
    (("transmission", "lines", 0, 4), float("nan")),
], ids=["text-reactance", "null-from-bus", "text-injection", "bool-injection",
        "fractional-bus", "huge-integer", "nan-price", "infinite-z-max",
        "minus-infinite-injection", "nan-line-limit"])
def test_parse_rejects_bad_entries_with_parse_error(path, value):
    doc = json.loads(MINIMAL_CASE)
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    with pytest.raises(ParseError):
        parse_case(json.dumps(doc))


def test_parse_rejects_unparsable_json_with_parse_error():
    with pytest.raises(ParseError):
        parse_case("1" * 5000)  # beyond the interpreter's integer digit limit
    with pytest.raises(ParseError):
        parse_case("[" * 100_000)  # deeper than the decoder's recursion limit


def test_parse_wraps_topology_errors():
    doc = json.loads(MINIMAL_CASE)
    doc["dsos"][0]["network"]["lines"][0][1] = 1  # self-loop
    with pytest.raises(ValidationError, match="self-loop"):
        parse_case(json.dumps(doc))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)
# Small integers and plain floats come first so that many mutations still
# parse and reach the topology and invariant checks behind the parser.
FUZZ_VALUES = st.one_of(st.integers(-2, 5), st.floats(), JSON_VALUES)


def leaf_paths(node, prefix=()):
    """Key paths to every scalar of a parsed JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [prefix]
    return [p for key, child in items for p in leaf_paths(child, prefix + (key,))]


@functools.lru_cache(maxsize=1)
def fuzz_case_text() -> str:
    return serialize_case(generate_case(CaseRecipe(style="A", n_dsos=1), 2))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parse_case_fuzz_raises_only_typed_errors(data):
    doc = json.loads(fuzz_case_text())
    paths = leaf_paths(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        *head, last = data.draw(st.sampled_from(paths))
        target = doc
        for key in head:
            target = target[key]
        target[last] = data.draw(FUZZ_VALUES)
    try:
        parse_case(json.dumps(doc))
    except (ParseError, ValidationError):
        pass


def test_serialize_round_trip_bit_exact():
    case = generate_case(CaseRecipe(style="B"), 17)
    again = parse_case(serialize_case(case), name=case.name)
    assert again == case


def test_micro_case_round_trip(m1):
    assert parse_case(serialize_case(m1), name="micro") == m1


# ---------------------------------------------------------------------------
# MATPOWER
# ---------------------------------------------------------------------------

TOY_MATPOWER = """
function mpc = toy3
mpc.version = '2';
mpc.baseMVA = 100;
mpc.bus = [
 1 3 0 0 0 0 1 1 0 12.6 1 1.1 0.9;
 2 1 0.1 0.06 0 0 1 1 0 12.6 1 1.1 0.9;
 3 1 0.2 0.1 0 0 1 1 0 12.6 1 1.1 0.9;
];
mpc.branch = [
 1 2 0.01 0.05 0 6 0 0 0 0 1 -360 360;
 2 3 0.02 0.08 0 0 0 0 0 0 1 -360 360;
];
"""


def test_matpower_toy():
    with pytest.warns(UserWarning, match="rateA = 0"):
        net = parse_matpower(TOY_MATPOWER)
    assert net.buses == (1, 2, 3)
    assert net.root == 1
    assert net.n_lines == 2
    assert net.lines[0].reactance == pytest.approx(0.05)
    assert net.lines[0].f_max == pytest.approx(6.0)
    # rateA = 0 becomes the unlimited sentinel
    assert net.lines[1].f_max == pytest.approx(1e9)
    assert net.lines[1].f_min == pytest.approx(-1e9)


def test_matpower_errors():
    with pytest.raises(ParseError, match="mpc.branch"):
        parse_matpower("mpc.baseMVA = 100;\nmpc.bus = [1 3 0 0;];")
    bad = TOY_MATPOWER.replace("0.01 0.05", "0.01 -0.05")
    with pytest.raises(ValidationError, match="reactance"):
        parse_matpower(bad)
    with pytest.raises(ParseError, match="baseMVA"):
        parse_matpower("mpc.bus = [1 3;];\nmpc.branch = [1 2 0 0.1 0 1;];")


@pytest.mark.parametrize("old,new,match", [
    ("\n 2 3 0.02", "\n 3 3 0.02", "self-loop"),
    ("\n 2 3 0.02", "\n 2 9 0.02", "unknown bus"),
    ("\n 2 3 0.02 0.08 0 0 0 0 0 0 1 -360 360;", "", "disconnected"),
], ids=["self-loop", "unknown-bus", "disconnected"])
def test_matpower_topology_errors_are_validation_errors(old, new, match):
    assert TOY_MATPOWER.count(old) == 1
    with pytest.raises(ValidationError, match=match):
        parse_matpower(TOY_MATPOWER.replace(old, new))


def test_matpower_rejects_fractional_bus_numbers():
    with pytest.raises(ParseError, match="bus number"):
        parse_matpower(TOY_MATPOWER.replace("\n 2 1 0.1", "\n 2.5 1 0.1"))


_MATPOWER_NUMBER = re.compile(r"-?\d+(?:\.\d+)?")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parse_matpower_fuzz_raises_only_typed_errors(data):
    spans = [m.span() for m in _MATPOWER_NUMBER.finditer(TOY_MATPOWER)]
    picked = data.draw(st.sets(st.sampled_from(spans), min_size=1, max_size=3))
    text = TOY_MATPOWER
    for lo, hi in sorted(picked, reverse=True):
        text = text[:lo] + json.dumps(data.draw(FUZZ_VALUES)) + text[hi:]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            parse_matpower(text)
    except (ParseError, ValidationError):
        pass


def synthetic_feeder_case(n_buses: int) -> str:
    """MATPOWER text for a radial feeder with the published case dimensions
    (n buses, n-1 branches)."""
    rng = np.random.default_rng(n_buses)
    bus_rows = [f" {k} {3 if k == 1 else 1} 0.1 0.05 0 0 1 1 0 12.66 1 1.1 0.9;"
                for k in range(1, n_buses + 1)]
    branch_rows = []
    for k in range(2, n_buses + 1):
        parent = max(1, k - 1 - int(rng.integers(0, 3)))
        branch_rows.append(
            f" {parent} {k} 0.01 {rng.uniform(0.02, 0.1):.4f} 0 4 0 0 0 0 1 -360 360;")
    return ("function mpc = feeder\nmpc.baseMVA = 100;\n"
            "mpc.bus = [\n" + "\n".join(bus_rows) + "\n];\n"
            "mpc.branch = [\n" + "\n".join(branch_rows) + "\n];\n")


def test_matpower_69_bus_feeder_dimensions():
    net = parse_matpower(synthetic_feeder_case(69))
    assert net.n_buses == 69
    assert net.n_lines == 68
    assert is_radial(net)


# ---------------------------------------------------------------------------
# Recipes
# ---------------------------------------------------------------------------

def test_generate_case_deterministic():
    a = generate_case(CaseRecipe(style="A"), 7)
    b = generate_case(CaseRecipe(style="A"), 7)
    assert a == b
    assert a != generate_case(CaseRecipe(style="A"), 8)


@pytest.mark.parametrize("style", list("ABCD"))
def test_recipes_validate(style):
    case = generate_case(CaseRecipe(style=style), 3)
    report = validate_case(case)
    assert report.ok
    assert all(report.radial.values())


def test_recipe_a_satisfies_price_ordering():
    case = generate_case(CaseRecipe(style="A"), 5)
    report = validate_case(case)
    assert all(report.assumption1.values())
    # Distribution upward bids are priced above every transmission upward bid.
    dist_up = [b.price for b in case.bids if b.system > 0 and b.direction == "up"]
    tn_up = [b.price for b in case.bids if b.system == 0 and b.direction == "up"]
    assert min(dist_up) > max(tn_up)


def test_recipe_b_price_ranges():
    case = generate_case(CaseRecipe(style="B"), 5)
    tn_up = [b.price for b in case.bids if b.system == 0 and b.direction == "up"]
    dist_up = [b.price for b in case.bids if b.system > 0 and b.direction == "up"]
    assert all(90.0 <= p <= 165.0 for p in tn_up)
    # The benign ordering (distribution above transmission) no longer holds.
    assert not min(dist_up) > max(tn_up)


def test_recipe_c_adds_bids_at_critical_nodes():
    b = generate_case(CaseRecipe(style="B"), 1)
    c = generate_case(CaseRecipe(style="C"), 1)
    dn_b = [x for x in b.bids if x.system > 0]
    dn_c = [x for x in c.bids if x.system > 0]
    assert len(dn_c) > len(dn_b)
    extras = [x for x in c.bids if "-cu" in x.id]
    tn_up_max = max(x.price for x in c.bids if x.system == 0 and x.direction == "up")
    assert extras and all(x.price > tn_up_max for x in extras)


def test_recipes_share_structure_across_styles():
    a = generate_case(CaseRecipe(style="A"), 1)
    b = generate_case(CaseRecipe(style="B"), 1)
    d = generate_case(CaseRecipe(style="D"), 1)
    for x, y in zip(a.dsos, b.dsos):
        assert x.network == y.network
        assert x.base_injections == y.base_injections
    assert a.base_injections[0] == pytest.approx(-d.base_injections[0])
    # D flips the sign of the system need; distribution bids and prices stay.
    assert [(x.id, x.price, x.quantity_max) for x in a.bids if x.system > 0] == \
        [(x.id, x.price, x.quantity_max) for x in d.bids if x.system > 0]
    assert [(x.id, x.price) for x in a.bids if x.system == 0] == \
        [(x.id, x.price) for x in d.bids if x.system == 0]


def test_generation_errors():
    with pytest.raises(GenerationError):
        generate_case(CaseRecipe(style="E"), 0)
    with pytest.raises(GenerationError):
        generate_case(CaseRecipe(style="A", n_dsos=5, tn_buses=4), 0)
    with pytest.raises(GenerationError, match="seed"):
        generate_case(CaseRecipe(style="A"), -1)
    for congestion in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(GenerationError, match="congestion"):
            generate_case(CaseRecipe(style="A", congestion=congestion), 0)


# ---------------------------------------------------------------------------
# Validation findings
# ---------------------------------------------------------------------------

def test_validate_flags_price_ordering_violation():
    case = micro_case()
    # Raise the downward price above the only upward bid.
    bad = case.bids[:-1] + (case.bids[-1].__class__(
        id="d-d", system=1, bus=1, direction="down", price=45.0, quantity_max=5.0),)
    case = case.__class__(transmission=case.transmission,
                          base_injections=case.base_injections,
                          dsos=case.dsos, bids=bad)
    report = validate_case(case)
    assert report.assumption1[1] is False
    assert not report.ok


def test_validate_flags_layer1_infeasibility():
    # Need beyond local volume plus interface capacity.
    case = micro_case(leaf_e=20.0, z_max=8.0)  # 5 MW bid + 8 MW import < 20
    report = validate_case(case)
    assert report.layer1_feasible[1] is False
    ok_case = micro_case(leaf_e=6.0)
    assert validate_case(ok_case).layer1_feasible[1] is True
