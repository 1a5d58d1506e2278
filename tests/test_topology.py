import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsnsim.device import _PARAM_KEYS, default_ranges
from rsnsim.errors import DataError, ParameterError
from rsnsim.topology import (BetaShape, Grid, NetworkTopology, distance_map,
                             ensure_connected, generate_network, has_path)

from tests import oracles
from tests.conftest import linear_topology

LATTICES = ((3, 0), (4, 1), (5, 2), (8, 3))


def _iface_corners(grid):
    idx = grid.interface_indices
    return int(idx[0]), int(idx[-1])


class TestGrid:
    def test_no_subdivision_all_interface(self):
        g = Grid(4, 0)
        assert g.n_nodes == 16
        assert g.n_interface == 16

    def test_one_subdivision(self):
        g = Grid(4, 1)
        assert g.side == 7
        assert g.n_nodes == 49
        assert g.n_interface == 16

    def test_two_subdivisions(self):
        g = Grid(4, 2)
        assert g.side == 10
        assert g.n_nodes == 100
        assert g.n_interface == 16

    @given(dim=st.integers(2, 6), s=st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_node_count_formula(self, dim, s):
        g = Grid(dim, s)
        side = dim + (dim - 1) * s
        assert g.n_nodes == side * side
        assert g.n_interface == dim * dim
        # interface posts sit on every (s+1)-th lattice position
        pos = oracles.positions(g)[g.interface_indices]
        assert np.all(pos % (s + 1) == 0)
        assert g.interface_indices.size == dim * dim
        assert np.all(np.diff(g.interface_indices) > 0)

    def test_value_semantics(self):
        g = Grid(4, 1)
        assert Grid(4, 1) == g and hash(Grid(4, 1)) == hash(g)
        assert Grid(4, 1) != Grid(4, 2)
        assert Grid.from_dict(g.to_dict()) == g
        # integral sizes of other types are the same grid, and generate
        h = Grid(4.0, np.int64(1))
        assert h == g and hash(h) == hash(g) and h.to_dict() == g.to_dict()
        assert type(h.interface_dim) is int and type(h.subdivision) is int
        t = generate_network(h, BetaShape(2, 2), 1, default_ranges(), 0)
        assert t.to_json() == generate_network(g, BetaShape(2, 2), 1,
                                               default_ranges(), 0).to_json()

    def test_rejects_bad_args(self):
        with pytest.raises(ParameterError):
            Grid(1, 0)
        with pytest.raises(ParameterError):
            Grid(4, -1)
        for bad in ((4.5, 1), (True, 1), (4, 1.5), (4, False), ("4", 1)):
            with pytest.raises(ParameterError, match="must be an integer"):
                Grid(*bad)


class TestDistanceMap:
    def test_normalization_anchor(self):
        g = Grid(4, 1)
        d = distance_map(g)
        assert d[0, g.n_nodes - 1] == 1.0
        assert d.max() == 1.0

    def test_self_distance_zero(self):
        d = distance_map(Grid(4, 1))
        assert np.all(np.diag(d) == 0.0)

    def test_adjacent_interface_nodes(self):
        # interface pitch 2 on the side-7 lattice, diagonal 6*sqrt(2)
        g = Grid(4, 1)
        d = distance_map(g)
        i0, i1 = g.interface_indices[0], g.interface_indices[1]
        assert d[i0, i1] == pytest.approx(2.0 / (6.0 * math.sqrt(2)), rel=1e-12)

    @pytest.mark.parametrize("dim,s", LATTICES)
    def test_matches_pairwise_formula(self, dim, s):
        g = Grid(dim, s)
        assert np.array_equal(distance_map(g), oracles.distance_map(g))

    def test_symmetry_and_triangle_inequality(self, rng):
        d = distance_map(Grid(3, 1))
        assert np.allclose(d, d.T)
        n = d.shape[0]
        for _ in range(200):
            i, j, k = rng.integers(n, size=3)
            assert d[i, j] <= d[i, k] + d[k, j] + 1e-12


class TestBetaSampling:
    def test_shape_properties(self):
        with pytest.raises(ParameterError):
            BetaShape(0, 1)
        with pytest.raises(ParameterError):
            BetaShape(1, -2)


class TestGeneration:
    def test_edge_count_rule(self):
        t = generate_network(Grid(4, 1), BetaShape(2, 2), 4, default_ranges(),
                             20240811)
        assert t.edge_count - t.n_augmented == 49 * 4

    def test_edge_count_override(self):
        t = generate_network(Grid(4, 1), BetaShape(2, 2), 4, default_ranges(),
                             20240811, edge_count=333)
        assert t.edge_count - t.n_augmented == 333

    def test_no_self_loops_endpoints_valid(self):
        g = Grid(4, 1)
        for seed in range(5):
            t = generate_network(g, BetaShape(1, 3), 2, default_ranges(), seed)
            assert np.all(t.a != t.b)
            assert np.all((0 <= t.a) & (t.a < g.n_nodes))
            assert np.all((0 <= t.b) & (t.b < g.n_nodes))
            assert np.all(t.w_prime == 0.0) and np.all(t.w == 0)
            assert has_path(t)

    def test_short_wire_snapped_mean(self):
        # fine 10x10 lattice: snapping bias stays small
        g = Grid(4, 2)
        t = generate_network(g, BetaShape(1, 10), 4, default_ranges(), 31,
                             edge_count=1000)
        d = distance_map(g)
        n_gen = t.edge_count - t.n_augmented
        lens = d[t.a[:n_gen], t.b[:n_gen]]
        assert abs(np.mean(lens) - 1.0 / 11.0) < 0.05

    def test_long_vs_short_wire_means(self):
        g = Grid(4, 1)
        d = distance_map(g)

        def mean_len(a, b):
            t = generate_network(g, BetaShape(a, b), 4, default_ranges(), 77)
            n_gen = t.edge_count - t.n_augmented
            return np.mean(d[t.a[:n_gen], t.b[:n_gen]])

        assert mean_len(10, 1) > mean_len(1, 10)

    def test_deterministic_serialization(self):
        def gen():
            return generate_network(Grid(4, 1), BetaShape(2, 5), 4,
                                    default_ranges(), 123)

        assert gen().to_json() == gen().to_json()

    def test_json_roundtrip(self):
        t = generate_network(Grid(3, 1), BetaShape(2, 5), 3, default_ranges(),
                             20240811)
        back = NetworkTopology.from_json(t.to_json())
        assert back.to_json() == t.to_json()
        assert back.edge_count == t.edge_count
        assert back.input_node == t.input_node

    def test_rejects_bad_arguments(self):
        g = Grid(4, 1)
        args = (g, BetaShape(1, 1), 2, default_ranges(), 20240811)
        with pytest.raises(ParameterError):
            generate_network(g, BetaShape(1, 1), 0, default_ranges(), 20240811)
        with pytest.raises(ParameterError):
            generate_network(*args, ground_node=0)
        with pytest.raises(ParameterError):
            # node 1 is a supporting node on the subdivided lattice
            generate_network(*args, input_node=1)
        with pytest.raises(ParameterError):
            generate_network(*args, input_node=99)
        with pytest.raises(ParameterError):
            generate_network(*args, edge_count=0)


class TestGenerationReference:
    # short wires (alpha 1, beta 10, xi 1) strand the input often enough
    # that these seeds exercise the bridging search
    AUGMENTED = {(4, 1): {0, 1, 2, 3, 5}, (8, 3): {0, 1, 3, 5}}

    @pytest.mark.parametrize("dim,s", LATTICES)
    @pytest.mark.parametrize("alpha,beta,xi,seed",
                             [(2, 5, 1, 11), (1, 1, 2, 12), (5, 2, 3, 13), (10, 1, 4, 14)]
                             + [(1, 10, 1, seed) for seed in range(6)])
    def test_matches_reference_search(self, dim, s, alpha, beta, xi, seed):
        g = Grid(dim, s)
        inp, gnd = _iface_corners(g)
        t = generate_network(g, BetaShape(alpha, beta), xi, default_ranges(), seed)
        ref = oracles.generate_network(g, BetaShape(alpha, beta), xi, inp, gnd,
                                       default_ranges(), np.random.default_rng(seed),
                                       seed=seed)
        # the default terminals are the first and last interface posts
        assert (t.input_node, t.ground_node, t.seed) == (inp, gnd, seed)
        for name in ("a", "b", "params", "w_prime", "w"):
            assert np.array_equal(getattr(t, name), getattr(ref, name)), name
        assert t.n_augmented == ref.n_augmented
        if (alpha, beta, xi) == (1, 10, 1) and (dim, s) in self.AUGMENTED:
            assert (ref.n_augmented > 0) == (seed in self.AUGMENTED[dim, s])

    @pytest.mark.parametrize("seed,augmented", [(0, 133), (3, 1)])
    def test_memory_grows_with_nodes_not_pairs(self, seed, augmented):
        # an n x n map of the 841-node lattice alone takes 5.7 MB
        args = (Grid(8, 3), BetaShape(1, 10), 1, default_ranges(), seed)
        tracemalloc.start()
        try:
            t = generate_network(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t.n_augmented == augmented
        assert peak < 2 * 2 ** 20


class TestJson:
    def check(self, t):
        text = t.to_json()
        assert text == json.dumps(t.to_dict(), indent=1)
        back = NetworkTopology.from_json(text)
        for name in ("a", "b", "params", "w_prime", "w"):
            assert np.array_equal(getattr(back, name), getattr(t, name)), name

    @pytest.mark.parametrize("dim,s", LATTICES)
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_json_dumps(self, dim, s, seed):
        # short wires: most of these topologies carry augmented edges
        t = generate_network(Grid(dim, s), BetaShape(1, 10), 1, default_ranges(),
                             seed)
        rng = np.random.default_rng(seed)
        t.w_prime = rng.uniform(0.0, 1.0, t.edge_count)
        t.w_prime[:3] = (0.0, 1.0, 5e-324)
        t.w = rng.integers(0, 2, t.edge_count)
        self.check(t)

    def test_extreme_values(self):
        t = linear_topology([(0, 15, 1.0), (3, 7, 2e-300), (1, 2, 0.1 + 0.2)])
        t.params[:, 0] = (1e300, 1e-320, 1.0 / 3.0)
        self.check(t)

    def test_no_edges(self):
        t = linear_topology([])
        t.params = np.zeros((0, 10))
        assert '"edges": []' in t.to_json()
        self.check(t)

    def test_param_keys_in_any_order(self):
        t = linear_topology([(0, 15, 1.0), (3, 7, 2.0), (1, 2, 0.5)])
        doc = t.to_dict()
        for e in doc["edges"]:
            e["params"] = dict(reversed(list(e["params"].items())))
        assert np.array_equal(NetworkTopology.from_dict(doc).params, t.params)

    def test_first_bad_param_keys_named(self):
        # the edges' keys are checked in one pass; the first edge whose keys
        # differ is reported as an edge-by-edge check reports it
        doc = linear_topology([(0, 15, 1.0), (3, 7, 2.0), (1, 2, 0.5)]).to_dict()
        del doc["edges"][1]["params"]["theta"]
        doc["edges"][2]["params"]["zeta"] = 1.0
        with pytest.raises(ParameterError, match=r"missing \['theta'\], unknown \[\]"):
            NetworkTopology.from_dict(doc)
        doc["edges"][1]["params"]["zeta"] = 1.0
        with pytest.raises(ParameterError, match=r"missing \['theta'\], unknown \['zeta'\]"):
            NetworkTopology.from_dict(doc)
        del doc["edges"][0]["state"]
        with pytest.raises(KeyError, match="state"):
            NetworkTopology.from_dict(doc)

    @pytest.mark.parametrize("value,match", [
        (True, "^'{}' must be a number, got True$"),
        ("0.2", "^'{}' must be a number, got '0.2'$"),
        (np.bool_(False), "^'{}' must be a number"),
        (float("nan"), "^{} must"), (float("inf"), "^{} must"),
        (-float("inf"), "^{} must"), (10 ** 400, "beyond the float range")],
        ids=["bool", "str", "np.bool_", "nan", "inf", "-inf", "10**400"])
    @pytest.mark.parametrize("where", ["tau", "w_prime"])
    def test_rejects_non_numbers(self, value, match, where):
        doc = linear_topology([(0, 15, 1.0), (3, 7, 1.0)]).to_dict()
        edge = doc["edges"][1]
        (edge["params"] if where == "tau" else edge["state"])[where] = value
        with pytest.raises(ParameterError, match=match.format(where)):
            NetworkTopology.from_dict(doc)
        # a JSON NaN or Infinity reads back as a float
        if isinstance(value, float):
            with pytest.raises(ParameterError):
                NetworkTopology.from_json(json.dumps(doc))

    @pytest.mark.parametrize("field,value,error", [
        ("a", 0.7, DataError), ("b", True, DataError), ("a", None, DataError),
        ("w", 1.5, ParameterError), ("w", "1", ParameterError)])
    def test_rejects_non_integers(self, field, value, error):
        doc = linear_topology([(0, 15, 1.0), (3, 7, 1.0)]).to_dict()
        (doc["edges"][0]["state"] if field == "w" else doc["edges"][0])[field] = value
        doc["edges"][1]["a"] = 2.5  # a later bad entry is not the one named
        with pytest.raises(error, match=f"^'{field}' must be an integer, "
                                        f"got {value!r}$"):
            NetworkTopology.from_dict(doc)

    def test_integral_values_accepted(self):
        doc = linear_topology([(0, 15, 1.0), (3, 7, 1.0)]).to_dict()
        doc["edges"][0]["a"] = 0.0
        doc["edges"][1]["b"] = np.int64(7)
        doc["edges"][1]["state"]["w"] = 1.0
        back = NetworkTopology.from_dict(doc)
        assert back.a.tolist() == [0, 3] and back.b.tolist() == [15, 7]
        assert back.w.tolist() == [0, 1]

    def test_numpy_scalars_accepted(self):
        t = linear_topology([(0, 15, 1.0), (3, 7, 1.0)])
        doc = t.to_dict()
        doc["edges"][0]["params"]["tau"] = np.float32(0.5)
        doc["edges"][1]["state"]["w_prime"] = np.int64(1)
        back = NetworkTopology.from_dict(doc)
        assert back.params[0, _PARAM_KEYS.index("tau")] == 0.5
        assert back.w_prime.tolist() == [0.0, 1.0]


class TestEnsureConnected:
    def _island_topology(self):
        return linear_topology([(1, 2, 1.0)], input_node=0, ground_node=15)

    def test_connected_input_returned_unchanged(self, rng):
        t = generate_network(Grid(4, 0), BetaShape(1, 1), 4, default_ranges(),
                             20240811)
        assert ensure_connected(t, rng, default_ranges()) is t

    def test_isolated_input_gets_path(self, rng):
        t = self._island_topology()
        assert not has_path(t)
        t2 = ensure_connected(t, rng, default_ranges())
        assert has_path(t2)
        assert t2.n_augmented == t2.edge_count - 1

    def test_idempotent_after_first_call(self, rng):
        t2 = ensure_connected(self._island_topology(), rng, default_ranges())
        assert ensure_connected(t2, rng, default_ranges()) is t2

    def test_chain_edges_are_unit_lattice_steps(self, rng):
        t2 = ensure_connected(self._island_topology(), rng, default_ranges())
        pos = oracles.positions(t2.grid)
        steps = np.abs(pos[t2.a[1:]] - pos[t2.b[1:]]).sum(axis=1)
        assert np.all(steps == 1.0)
