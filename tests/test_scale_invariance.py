"""Scale invariance: rescaling every price, or every volume together with
the limits, bounds and step size, leaves the status, the safety verdict,
the solve count and the inefficiency of every method unchanged."""

from dataclasses import replace

import pytest

from flexmkt.casegen import CaseRecipe, generate_case
from flexmkt.cli import METHODS, PRICINGS, _run_method
from flexmkt.clearing import clear_common

DELTA = 2.0


def scale_prices(case, k):
    return replace(case, bids=tuple(replace(b, price=b.price * k) for b in case.bids))


def scale_volumes(case, k):
    """Bid volumes, line limits, base injections and interface bounds times k."""
    def network(net):
        return replace(net, lines=tuple(replace(ln, f_min=ln.f_min * k, f_max=ln.f_max * k)
                                        for ln in net.lines))

    def injections(values):
        return tuple(v * k for v in values)

    return replace(
        case, transmission=network(case.transmission),
        base_injections=injections(case.base_injections),
        dsos=tuple(replace(d, network=network(d.network), z_min=d.z_min * k,
                           z_max=d.z_max * k, base_injections=injections(d.base_injections))
                   for d in case.dsos),
        bids=tuple(replace(b, quantity_max=b.quantity_max * k) for b in case.bids))


def outcomes(case, delta, refine):
    """(status, safe, lp_solves, eta_pct) of every method and pricing rule;
    aggregation ignores pricing and runs once."""
    common = clear_common(case)
    out = {}
    for method in METHODS:
        for pricing in ("none",) if method.startswith("aggregation") else PRICINGS:
            o = _run_method(case, method, pricing, delta, refine, common)
            out[method, pricing] = (o.status, o.safe, o.lp_solves, o.eta_pct)
    return out


def assert_same(base, scaled):
    assert base.keys() == scaled.keys()
    for key, (status, safe, solves, eta) in base.items():
        assert scaled[key][:3] == (status, safe, solves), key
        if eta is None:
            assert scaled[key][3] is None, key
        else:
            assert scaled[key][3] == pytest.approx(eta, rel=0.0, abs=1e-9), key


def recipe_case(style, seed, dsos=2):
    return generate_case(CaseRecipe(style=style, n_dsos=dsos, tn_buses=max(4, dsos + 1)),
                         seed)


@pytest.mark.parametrize("style", "ABCD")
def test_price_scaling_keeps_every_outcome(style):
    case = recipe_case(style, seed=0)
    base = outcomes(case, DELTA, refine=1)
    for k in (1e3, 1e-3):
        assert_same(base, outcomes(scale_prices(case, k), DELTA, refine=1))


@pytest.mark.parametrize("style", "ABCD")
def test_volume_scaling_keeps_every_outcome(style):
    case = recipe_case(style, seed=0)
    base = outcomes(case, DELTA, refine=0)
    for k in (1e3, 1e-3):
        assert_same(base, outcomes(scale_volumes(case, k), DELTA * k, refine=0))


@pytest.mark.xfail(strict=True, reason="refinement grid depends on the volume scale; "
                   "see the FOUND line on scale invariance in CHANGES.md")
def test_volume_scaling_with_refinement():
    case = recipe_case("B", seed=1)
    assert_same(outcomes(case, DELTA, refine=1),
                outcomes(scale_volumes(case, 1e3), DELTA * 1e3, refine=1))
