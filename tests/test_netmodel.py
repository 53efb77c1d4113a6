"""Sensitivity matrices against path enumeration and direct DC solves."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexmkt.errors import ContractError, TopologyError
from flexmkt.netmodel import Line, Network, build_sensitivity, is_radial, line_flows


def chain(n, limit=10.0):
    return Network(buses=tuple(range(1, n + 1)),
                   lines=tuple(Line(k, k + 1, 0.1, -limit, limit) for k in range(1, n)),
                   root=1)


def triangle():
    return Network(buses=(1, 2, 3),
                   lines=(Line(1, 2, 0.1, -10, 10), Line(2, 3, 0.1, -10, 10),
                          Line(1, 3, 0.1, -10, 10)),
                   root=1)


def dc_flow_oracle(net: Network, injections: np.ndarray) -> np.ndarray:
    """Direct DC power flow: solve reduced susceptance system for angles,
    then read branch flows. Independent of the PTDF construction."""
    idx = net.bus_index
    n, m = net.n_buses, net.n_lines
    b = np.array([1.0 / ln.reactance for ln in net.lines])
    a = np.zeros((m, n))
    for li, ln in enumerate(net.lines):
        a[li, idx[ln.from_bus]] = 1.0
        a[li, idx[ln.to_bus]] = -1.0
    keep = [i for i in range(n) if i != idx[net.root]]
    lap = (a[:, keep].T * b) @ a[:, keep]
    theta = np.zeros(n)
    theta[keep] = np.linalg.solve(lap, injections[keep])
    return b * (a @ theta)


def test_two_bus_single_path_sign():
    sens = build_sensitivity(chain(2))
    assert sens[0, 0] == 0.0
    assert sens[0, 1] == -1.0


def test_three_bus_chain_path_membership():
    sens = build_sensitivity(chain(3))
    np.testing.assert_array_equal(sens[:, 2], [-1.0, -1.0])
    np.testing.assert_array_equal(sens[:, 1], [-1.0, 0.0])
    np.testing.assert_array_equal(sens[:, 0], [0.0, 0.0])


def test_triangle_ptdf_split():
    # Equal reactances: injecting at bus 2 returns 2/3 over the direct line
    # and 1/3 around the long way. Frozen from the hand-solved 2x2 reduced
    # Laplacian and cross-checked against the direct DC solve.
    net = triangle()
    sens = build_sensitivity(net)
    np.testing.assert_allclose(sens[:, 1], [-2.0 / 3.0, 1.0 / 3.0, -1.0 / 3.0],
                               atol=1e-12)
    inj = np.array([-1.0, 1.0, 0.0])
    np.testing.assert_allclose(line_flows(sens, inj), dc_flow_oracle(net, inj),
                               atol=1e-12)


def test_line_flows_zero_and_conservation():
    sens = build_sensitivity(chain(2))
    np.testing.assert_array_equal(line_flows(sens, np.zeros(2)), [0.0])
    # 6 MW withdrawn at the leaf arrives over the single line.
    assert line_flows(sens, np.array([0.0, -6.0]))[0] == pytest.approx(6.0)


def test_line_flows_dimension_contract():
    sens = build_sensitivity(chain(2))
    with pytest.raises(ContractError):
        line_flows(sens, np.zeros(3))


def test_is_radial():
    assert is_radial(chain(2))
    assert not is_radial(triangle())


def test_network_invariants_rejected():
    with pytest.raises(TopologyError):
        Network(buses=(1, 2), lines=(Line(1, 1, 0.1, -1, 1),), root=1)
    with pytest.raises(TopologyError):
        Network(buses=(1, 2), lines=(Line(1, 2, -0.1, -1, 1),), root=1)
    with pytest.raises(TopologyError):
        Network(buses=(1, 2), lines=(Line(1, 2, 0.1, 1.0, 2.0),), root=1)
    with pytest.raises(TopologyError):
        Network(buses=(1, 2, 3), lines=(Line(1, 2, 0.1, -1, 1),), root=1)
    with pytest.raises(TopologyError):
        Network(buses=(1, 2), lines=(Line(1, 2, 0.1, -1, 1),), root=3)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=200), st.randoms(use_true_random=False))
def test_radial_column_sums_are_negative_depths(n, rnd):
    # Random tree: each sensitivity column sums to minus the bus depth,
    # verified against explicit path enumeration.
    parents = {k: rnd.randint(1, k - 1) for k in range(2, n + 1)}
    net = Network(buses=tuple(range(1, n + 1)),
                  lines=tuple(Line(p, k, 0.1, -1, 1) for k, p in parents.items()),
                  root=1)
    sens = build_sensitivity(net)
    depth = {1: 0}

    def depth_of(k):
        if k not in depth:
            depth[k] = depth_of(parents[k]) + 1
        return depth[k]

    for j, bus in enumerate(net.buses):
        assert sens[:, j].sum() == pytest.approx(-depth_of(bus))
        assert set(np.round(sens[:, j], 12)) <= {0.0, -1.0}


def test_meshed_ptdf_matches_direct_dc_solve():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(4, 31))
        lines = [Line(k, k + 1, float(rng.uniform(0.05, 0.2)), -50, 50)
                 for k in range(1, n)]
        for _ in range(int(rng.integers(1, n // 2 + 1))):
            a, b = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False))
            lines.append(Line(int(a), int(b), float(rng.uniform(0.05, 0.2)), -50, 50))
        net = Network(buses=tuple(range(1, n + 1)), lines=tuple(lines), root=1)
        sens = build_sensitivity(net)
        inj = rng.normal(size=n)
        inj[0] -= inj.sum()  # balanced injection, slack absorbs
        np.testing.assert_allclose(line_flows(sens, inj), dc_flow_oracle(net, inj),
                                   atol=1e-8)


def test_root_column_zero_everywhere():
    for net in (chain(5), triangle()):
        sens = build_sensitivity(net)
        np.testing.assert_array_equal(sens[:, net.bus_index[net.root]], 0.0)


def test_sensitivity_cached_per_network_and_released_with_it():
    from flexmkt.clearing import sensitivity

    net = chain(4)
    first = sensitivity(net)
    assert sensitivity(net) is first
    np.testing.assert_array_equal(first, build_sensitivity(net))
    ref = weakref.ref(net)
    del net, first
    gc.collect()
    assert ref() is None
