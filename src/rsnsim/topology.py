"""Seed-post lattices and random device multigraphs.

A network lives on a square lattice of seed posts.  Interface posts (the
coarse sub-lattice) are where signals are applied and read; supporting
posts sit between them at a finer pitch and let multi-device paths form.
Wires are added one at a time: pick a start post, draw a normalized wire
length from a beta distribution, and land on the post whose normalized
distance from the start is closest to the draw.  Each wire is one
resistive switch with independently sampled parameters.  A network
stores its devices as arrays: endpoints, an (E, 10) parameter matrix and
the two state variables.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .device import (_PARAM_KEYS, ParamRanges, _ordered, check_params,
                     sample_device_params)
from .errors import DataError, ParameterError, _integral

log = logging.getLogger(__name__)

# src x dst pairs per block of the bridging search: bounds its temporaries
_BRIDGE_BLOCK = 1 << 14

# One edge of json.dumps(topology.to_dict(), indent=1), its values as %r.
_EDGE_JSON = "\n".join(json.dumps(
    {"edges": [{"a": 0, "b": 0, "params": dict.fromkeys(_PARAM_KEYS, 0),
                "state": {"w_prime": 0, "w": 0}}]},
    indent=1).replace(": 0", ": %r").splitlines()[2:-2])


@dataclass(frozen=True)
class BetaShape:
    """Shape parameters of the wire-length distribution on [0, 1]."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0.0):
            raise ParameterError(f"alpha must be > 0, got {self.alpha!r}")
        if not (np.isfinite(self.beta) and self.beta > 0.0):
            raise ParameterError(f"beta must be > 0, got {self.beta!r}")


@dataclass(frozen=True)
class Grid:
    """Square seed-post lattice with interface/supporting roles.

    ``subdivision`` supporting posts sit between adjacent interface posts,
    so the full lattice has side interface_dim + (interface_dim-1)*subdivision
    with unit spacing.  Node (x, y) has index y * side + x.
    """

    interface_dim: int
    subdivision: int

    def __post_init__(self):
        for name in ("interface_dim", "subdivision"):
            object.__setattr__(self, name, _integral(getattr(self, name), name,
                                                     ParameterError))
        if self.interface_dim < 2:
            raise ParameterError(f"interface_dim must be >= 2, got {self.interface_dim!r}")
        if self.subdivision < 0:
            raise ParameterError(f"subdivision must be >= 0, got {self.subdivision!r}")

    @property
    def side(self) -> int:
        return self.interface_dim + (self.interface_dim - 1) * self.subdivision

    @property
    def n_nodes(self) -> int:
        return self.side ** 2

    @property
    def n_interface(self) -> int:
        return self.interface_dim ** 2

    @property
    def interface_indices(self) -> np.ndarray:
        """Grid-node indices of interface posts, row-major order."""
        on = np.arange(0, self.side, self.subdivision + 1)
        return (on[:, None] * self.side + on).ravel()

    def to_dict(self) -> dict:
        return {"interface_dim": self.interface_dim, "subdivision": self.subdivision}

    @classmethod
    def from_dict(cls, d: dict) -> "Grid":
        return cls(_integral(d["interface_dim"], "interface_dim", DataError),
                   _integral(d["subdivision"], "subdivision", DataError))


def _distance_rows(side: int) -> np.ndarray:
    """Every node's row of normalized lattice distances, as windows of one
    table by offset.

    The table holds ``sqrt(dx**2 + dy**2)`` over its maximum, the lattice
    diagonal, for every offset: (2*side - 1)**2 entries.  The result is a
    (side, side, side, side) view of it: ``view[y, x]`` holds, at
    ``[y', x']``, the distance from node (x, y) to node (x', y'), so
    ravelled it is node (x, y)'s row over all nodes in index order.
    """
    r = np.arange(1 - side, side) ** 2
    d = np.sqrt(r[:, None] + r[None, :])
    return sliding_window_view(d / d.max(), (side, side))[::-1, ::-1]


def distance_map(grid: Grid) -> np.ndarray:
    """Pairwise Euclidean distances normalized by the lattice diagonal.

    The map is n x n, so it is for analysis; generation reads the rows it
    needs from the (2*side - 1)**2 offset table it is built from.
    """
    return _distance_rows(grid.side).reshape(grid.n_nodes, -1)


@dataclass(eq=False)
class NetworkTopology:
    """Random multigraph of devices over a grid, with input/ground roles.

    Device ``e`` joins nodes ``a[e]`` and ``b[e]``; row ``params[e]`` holds
    its parameters in ``device._PARAM_KEYS`` order, and ``w_prime[e]`` and
    ``w[e]`` its initial state.  ``n_augmented`` counts devices appended by
    the connectivity pass; the first ``edge_count - n_augmented`` are the
    generated population.
    """

    grid: Grid
    a: np.ndarray        # (E,) int
    b: np.ndarray        # (E,) int
    params: np.ndarray   # (E, 10) float
    w_prime: np.ndarray  # (E,) float in [0, 1]
    w: np.ndarray        # (E,) int in {0, 1}
    input_node: int
    ground_node: int
    seed: int
    n_augmented: int = 0

    @property
    def edge_count(self) -> int:
        return self.a.size

    def _edge_rows(self):
        return zip(self.a.tolist(), self.b.tolist(), self.params.tolist(),
                   self.w_prime.tolist(), self.w.tolist())

    def _head(self) -> dict:
        return {
            "grid": self.grid.to_dict(),
            "input_node": int(self.input_node),
            "ground_node": int(self.ground_node),
            "seed": int(self.seed),
            "n_augmented": int(self.n_augmented),
        }

    def to_dict(self) -> dict:
        return dict(self._head(), edges=[
            {"a": a, "b": b, "params": dict(zip(_PARAM_KEYS, p)),
             "state": {"w_prime": wp, "w": w}}
            for a, b, p, wp, w in self._edge_rows()])

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=1)`` without json's slow
        indenting encoder: ``%r`` writes ints and finite floats as json does."""
        head = json.dumps(self._head(), indent=1)[:-2]
        edges = ",\n".join(_EDGE_JSON % (a, b, *p, wp, w)
                           for a, b, p, wp, w in self._edge_rows())
        return head + (',\n "edges": [\n' + edges + "\n ]\n}" if edges
                       else ',\n "edges": []\n}')

    def check(self) -> None:
        """Raise ParameterError unless ``simulate`` can step this network:
        ``a``, ``b``, ``w_prime``, ``w`` and a ``params`` row of 10 per edge,
        integer nodes in 0..n-1, input not ground, no self-loop, parameters
        that pass ``check_params``, ``0 <= w_prime <= 1`` and ``w`` 0 or 1."""
        e, n = self.edge_count, self.grid.n_nodes
        for name, shape in (("a", (e,)), ("b", (e,)), ("w_prime", (e,)),
                            ("w", (e,)), ("params", (e, len(_PARAM_KEYS)))):
            if np.shape(getattr(self, name)) != shape:
                raise ParameterError(f"{name} must have shape {shape}")
        # a negative index would wrap, in a batch into another member's nodes
        for name in ("a", "b", "input_node", "ground_node"):
            nodes = np.asarray(getattr(self, name))
            if nodes.dtype.kind not in "iu" or np.any((nodes < 0) | (nodes >= n)):
                raise ParameterError(f"{name} holds a node index that is not an "
                                     f"integer in 0..{n - 1}")
        if self.input_node == self.ground_node:
            raise ParameterError("input and ground nodes must differ")
        if np.any(self.a == self.b):
            raise ParameterError("topology contains a self-loop")
        check_params(self.params)
        if not np.all((self.w_prime >= 0.0) & (self.w_prime <= 1.0)):
            raise ParameterError("w_prime must lie in [0, 1]")
        if not np.all((self.w == 0) | (self.w == 1)):
            raise ParameterError("w must be 0 or 1")

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkTopology":
        """Load a topology document and ``check`` it.  Only types are checked
        here: an integer field that is a boolean or not integral raises
        DataError (ParameterError for ``w``), and a device parameter or
        ``w_prime`` that is not a number raises ParameterError."""
        grid = Grid.from_dict(d["grid"])
        edges = d["edges"]
        keys = _PARAM_KEYS + ("w_prime",)
        values = [x for e in edges for x in
                  _ordered(e["params"], "device parameter") + [e["state"]["w_prime"]]]
        # numbers, not booleans, tested once per distinct type
        bad = {t for t in set(map(type, values)) if t is bool or
               not issubclass(t, (int, float, np.integer, np.floating))}
        if bad:
            i = next(i for i, x in enumerate(values) if type(x) in bad)
            raise ParameterError(f"'{keys[i % len(keys)]}' must be a number, "
                                 f"got {values[i]!r}")
        try:
            values = np.array(values, dtype=float).reshape(-1, len(keys))
        except OverflowError:
            raise ParameterError("parameter or w_prime beyond the float range") from None
        rules = (("a", DataError), ("b", DataError), ("w", ParameterError))
        ints = [x if type(x) is int else _integral(x, *rules[i % 3]) for i, x in
                enumerate(x for e in edges for x in (e["a"], e["b"], e["state"]["w"]))]
        a, b, w = np.array(ints, dtype=int).reshape(-1, 3).T
        t = cls(grid=grid, a=a, b=b, params=values[:, :-1],
                w_prime=values[:, -1], w=w,
                input_node=_integral(d["input_node"], "input_node", DataError),
                ground_node=_integral(d["ground_node"], "ground_node", DataError),
                seed=_integral(d["seed"], "seed", DataError),
                n_augmented=_integral(d.get("n_augmented", 0), "n_augmented",
                                      DataError))
        t.check()
        return t

    @classmethod
    def from_json(cls, text: str) -> "NetworkTopology":
        return cls.from_dict(json.loads(text))


def _components(n_nodes: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected-component label per node (union-find over edges a[e]-b[e])."""
    parent = list(range(n_nodes))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for u, v in zip(a.tolist(), b.tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
    return np.array([find(i) for i in range(n_nodes)], dtype=int)


def has_path(t: NetworkTopology) -> bool:
    """True if some chain of devices joins the input node to ground."""
    labels = _components(t.grid.n_nodes, t.a, t.b)
    return labels[t.input_node] == labels[t.ground_node]


def _lattice_chain(grid: Grid, u: int, v: int) -> List[Tuple[int, int]]:
    """Unit steps of an L-shaped lattice path from node u to node v: along
    x on u's row, then along y on v's column."""
    side = grid.side
    (yu, xu), (yv, xv) = divmod(u, side), divmod(v, side)
    sx, sy = (1 if xv > xu else -1), (1 if yv > yu else -1)
    return ([(yu * side + x, yu * side + x + sx) for x in range(xu, xv, sx)]
            + [(y * side + xv, (y + sy) * side + xv) for y in range(yu, yv, sy)])


def ensure_connected(t: NetworkTopology, rng: np.random.Generator,
                     ranges: ParamRanges) -> NetworkTopology:
    """Guarantee an input->ground path, appending lattice chains if needed.

    While input and ground are in different components, the closest pair
    of nodes bridging the input component to the rest of the graph is
    joined with a chain of unit-length lattice edges (fresh devices).
    Already-connected topologies are returned unchanged.  The components
    are labelled once; a chain merges the components of its nodes into the
    input's, which is the partition a fresh labelling would give.
    """
    labels = _components(t.grid.n_nodes, t.a, t.b)
    if labels[t.input_node] == labels[t.ground_node]:
        return t

    side = t.grid.side
    chains = []
    while labels[t.input_node] != labels[t.ground_node]:
        inside = labels == labels[t.input_node]
        src = np.flatnonzero(inside)
        dst = np.flatnonzero(~inside)
        sy, sx = np.divmod(src, side)
        dy, dx = np.divmod(dst, side)
        # First closest pair in (src, dst) order, over blocks of src rows;
        # squared integer lengths order pairs exactly as distances do.
        rows = max(1, _BRIDGE_BLOCK // dst.size)
        best = np.inf
        for lo in range(0, src.size, rows):
            d = (sy[lo:lo + rows, None] - dy) ** 2 + (sx[lo:lo + rows, None] - dx) ** 2
            k = int(np.argmin(d))
            if d.flat[k] < best:
                best = d.flat[k]
                i, j = divmod(k, dst.size)
                pair = int(src[lo + i]), int(dst[j])
        chain = np.array(_lattice_chain(t.grid, *pair))
        chains.append(chain)
        labels[np.isin(labels, labels[chain])] = labels[t.input_node]
    chain = np.concatenate(chains)
    added = len(chain)
    params = np.vstack([t.params, sample_device_params(ranges, rng, added)])
    log.info("connectivity augmentation added %d edge(s)", added)
    return NetworkTopology(grid=t.grid, a=np.concatenate([t.a, chain[:, 0]]),
                           b=np.concatenate([t.b, chain[:, 1]]), params=params,
                           w_prime=np.concatenate([t.w_prime, np.zeros(added)]),
                           w=np.concatenate([t.w, np.zeros(added, dtype=int)]),
                           input_node=t.input_node, ground_node=t.ground_node,
                           seed=t.seed, n_augmented=t.n_augmented + added)


def generate_network(grid: Grid, shape: BetaShape, xi: int,
                     ranges: ParamRanges, seed: int, *,
                     input_node: Optional[int] = None,
                     ground_node: Optional[int] = None,
                     edge_count: Optional[int] = None) -> NetworkTopology:
    """Generate ``grid.n_nodes * xi`` devices (or ``edge_count`` if given)
    from ``np.random.default_rng(seed)``; input and ground default to the
    first and last interface posts.

    Per edge: uniform start node, beta-distributed target length, endpoint
    snapped to the node whose normalized distance from the start is nearest
    the draw (uniform tie-break, self excluded), parameters sampled per
    device.  The result is passed through the connectivity pass.
    """
    iface = grid.interface_indices
    input_node = int(iface[0]) if input_node is None else input_node
    ground_node = int(iface[-1]) if ground_node is None else ground_node
    if xi < 1:
        raise ParameterError(f"indegree xi must be >= 1, got {xi!r}")
    if input_node == ground_node:
        raise ParameterError("input and ground nodes must differ")
    for name, node in (("input", input_node), ("ground", ground_node)):
        if not (0 <= node < grid.n_nodes):
            raise ParameterError(f"{name} node {node} outside grid")
        if node not in iface:
            raise ParameterError(f"{name} node {node} is not an interface node")

    n_edges = grid.n_nodes * xi if edge_count is None else int(edge_count)
    if n_edges < 1:
        raise ParameterError(f"requested edge count {n_edges} < 1")

    rng = np.random.default_rng(seed)
    side = grid.side
    rows = _distance_rows(side)
    n = grid.n_nodes
    a = np.empty(n_edges, dtype=int)
    b = np.empty(n_edges, dtype=int)
    diffs = np.empty(n)
    grid_diffs = diffs.reshape(side, side)
    u = np.empty((n_edges, len(_PARAM_KEYS)))  # each device's unit draws
    for e in range(n_edges):
        start = int(rng.integers(n))
        target = float(rng.beta(shape.alpha, shape.beta))
        np.subtract(rows[divmod(start, side)], target, out=grid_diffs)
        np.abs(diffs, out=diffs)
        diffs[start] = np.inf
        ties = (diffs == np.minimum.reduce(diffs)).nonzero()[0]
        a[e] = start
        b[e] = ties[rng.integers(ties.size)]
        rng.random(out=u[e])
    # sample_device_params' formula, over every device's draws at once
    lo, hi = ranges.bounds
    params = lo + (hi - lo) * u

    t = NetworkTopology(grid=grid, a=a, b=b, params=params,
                        w_prime=np.zeros(n_edges), w=np.zeros(n_edges, dtype=int),
                        input_node=input_node, ground_node=ground_node,
                        seed=int(seed), n_augmented=0)
    return ensure_connected(t, rng, ranges)
