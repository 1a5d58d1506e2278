import numpy as np
import pytest

from rsnsim.device import _PARAM_KEYS, check_params
from rsnsim.topology import Grid, NetworkTopology


def stamped_edges(t):
    """(a, b, conductance) per device of a fixed-conductance topology: the
    kernel's floored g_floor plus the assembler's parallel g_floor path."""
    g_floor = t.params[:, _PARAM_KEYS.index("g_floor")]
    return list(zip(t.a.tolist(), t.b.tolist(), (2.0 * g_floor).tolist()))


def fixed_conductance_params(g: float) -> list:
    """Parameter row of a device whose conductance is exactly ``g/2`` at
    every bias, with lambda 0.

    Both branch kernels are made negligibly small so the per-device
    conductance floor wins; the assembler adds the floor again in
    parallel, so the stamped branch conductance is exactly ``g``.
    """
    p = {"epsilon": 1e-30, "theta": 1.0, "gamma": 1e-30, "delta": 1.0,
         "lambda": 0.0, "eta": 1.0, "tau": 1.0, "th_low": 0.4, "th_high": 0.6,
         "g_floor": g / 2.0}
    row = [p[k] for k in _PARAM_KEYS]
    check_params(row)
    return row


def linear_topology(edges, input_node=0, ground_node=None, interface_dim=4,
                    subdivision=0):
    """Hand-built topology with exact, bias-independent edge conductances.

    ``edges`` is a list of (a, b, conductance) over grid node indices.
    """
    grid = Grid(interface_dim, subdivision)
    if ground_node is None:
        ground_node = grid.n_nodes - 1
    n = len(edges)
    return NetworkTopology(
        grid=grid,
        a=np.array([a for a, _, _ in edges], dtype=int),
        b=np.array([b for _, b, _ in edges], dtype=int),
        params=np.array([fixed_conductance_params(g) for _, _, g in edges]),
        w_prime=np.zeros(n), w=np.zeros(n, dtype=int),
        input_node=input_node, ground_node=ground_node, seed=0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
