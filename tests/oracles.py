"""Independent reference implementations used only by the tests.

These deliberately avoid the package's assembly and solve paths: the
nodal equations are built with plain Python loops, the input voltage is
substituted directly (no auxiliary current unknown), and the system is
solved by hand-rolled Gaussian elimination.  Generation is checked against
the straightforward search over the full n x n distance map.
"""

import numpy as np

from rsnsim.topology import NetworkTopology, _components, _lattice_chain


def gaussian_elimination(A, b):
    """Dense Gaussian elimination with partial pivoting."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = A.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(A[col:, col])))
        if abs(A[pivot, col]) == 0.0:
            raise ZeroDivisionError("singular system")
        if pivot != col:
            A[[col, pivot]] = A[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            f = A[row, col] / A[col, col]
            A[row, col:] -= f * A[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1:] @ x[row + 1:]) / A[row, row]
    return x


def solve_resistive_network(n_nodes, edges, input_node, ground_node, v_in):
    """Reference solve of a linear resistive network with one ideal source.

    ``edges`` is a list of (a, b, conductance).  The input voltage is
    substituted (not an unknown), ground is 0 V, and the remaining node
    voltages come from KCL.  Returns (voltages, source_current).
    """
    free = [i for i in range(n_nodes) if i not in (input_node, ground_node)]
    idx = {node: k for k, node in enumerate(free)}
    n = len(free)
    A = np.zeros((n, n))
    b = np.zeros(n)
    for a, c, g in edges:
        for u, v in ((a, c), (c, a)):
            if u in idx:
                A[idx[u], idx[u]] += g
                if v in idx:
                    A[idx[u], idx[v]] -= g
                elif v == input_node:
                    b[idx[u]] += g * v_in
    x = gaussian_elimination(A, b) if n else np.zeros(0)
    voltages = np.zeros(n_nodes)
    voltages[input_node] = v_in
    for node, k in idx.items():
        voltages[node] = x[k]
    i_src = 0.0
    for a, c, g in edges:
        if a == input_node:
            i_src += g * (v_in - voltages[c])
        if c == input_node:
            i_src += g * (v_in - voltages[a])
    return voltages, i_src


def distance_map(grid):
    """Pairwise lattice distances over the diagonal, from the n x n differences."""
    pos = grid.positions
    diff = pos[:, None, :] - pos[None, :, :]
    d = np.sqrt((diff ** 2).sum(axis=2))
    return d / d.max()


def generate_network(grid, shape, xi, input_node, ground_node, ranges, rng,
                     seed=0):
    """Reference generation: each endpoint from row ``start`` of the full
    distance map, and each bridge from the argmin over all |src| x |dst|
    distances; the draws are the package's, in the same order, with each
    device's parameters from ``rng.uniform``."""
    dmap = distance_map(grid)
    n = grid.n_nodes
    a, b, params = [], [], []
    for _ in range(n * xi):
        start = int(rng.integers(n))
        target = float(rng.beta(shape.alpha, shape.beta))
        diffs = np.abs(dmap[start] - target)
        diffs[start] = np.inf
        ties = np.flatnonzero(diffs == diffs.min())
        a.append(start)
        b.append(int(ties[rng.integers(ties.size)]))
        params.append(rng.uniform(*ranges.bounds))
    a, b, params = np.array(a), np.array(b), np.array(params)
    n_generated = a.size

    pos = grid.positions
    while True:
        labels = _components(n, a, b)
        if labels[input_node] == labels[ground_node]:
            break
        inside = labels == labels[input_node]
        src = np.flatnonzero(inside)
        dst = np.flatnonzero(~inside)
        d = np.sqrt(((pos[src][:, None, :] - pos[dst][None, :, :]) ** 2).sum(axis=2))
        i, j = np.unravel_index(int(np.argmin(d)), d.shape)
        chain = np.array(_lattice_chain(grid, int(src[i]), int(dst[j])))
        a = np.concatenate([a, chain[:, 0]])
        b = np.concatenate([b, chain[:, 1]])
        params = np.vstack([params] + [rng.uniform(*ranges.bounds)
                                       for _ in chain])
    return NetworkTopology(grid=grid, a=a, b=b, params=params,
                           w_prime=np.zeros(a.size), w=np.zeros(a.size, dtype=int),
                           input_node=input_node, ground_node=ground_node,
                           seed=seed, n_augmented=a.size - n_generated)
