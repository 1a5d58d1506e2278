"""Independent reference implementations used only by the tests.

These deliberately avoid the package's assembly and solve paths: the
nodal equations are built with plain Python loops, the input voltage is
substituted directly (no auxiliary current unknown), and the system is
solved by hand-rolled Gaussian elimination.  An exact rational
elimination gives the true solution of an assembled float system.
Generation is checked against the straightforward search over the full
n x n distance map.  The device kernels are checked against their
formulas written with np.where, and ``simulate`` against a plain lagged
stepping loop built on them.  A
damped-Newton loop on the same kernels solves each step's circuit
self-consistently, the reference for the converged step.
"""

from fractions import Fraction

import numpy as np

from rsnsim.device import _PARAM_KEYS, _SINH_ARG_CAP, V_LIMIT_SWITCH
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


def exact_solve(A, b):
    """The exact solution of ``A x = b`` as a list of Fractions.

    Every float is a binary fraction, so Gaussian elimination over
    ``fractions.Fraction`` solves the float system with no rounding at all.
    """
    n = len(b)
    M = [[Fraction(v) for v in row] + [Fraction(bv)]
         for row, bv in zip(np.asarray(A).tolist(), np.asarray(b).tolist())]
    for col in range(n):
        pivot = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[pivot] = M[pivot], M[col]
        for row in range(col + 1, n):
            f = M[row][col] / M[col][col]
            if f:
                for c in range(col, n + 1):
                    M[row][c] -= f * M[col][c]
    x = [Fraction(0)] * n
    for row in range(n - 1, -1, -1):
        x[row] = (M[row][n] - sum(M[row][c] * x[c] for c in range(row + 1, n))) / M[row][row]
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


def positions(grid):
    """(n_nodes, 2) float lattice coordinates (x, y) of every node."""
    ys, xs = np.divmod(np.arange(grid.n_nodes), grid.side)
    return np.column_stack([xs, ys]).astype(float)


def distance_map(grid):
    """Pairwise lattice distances over the diagonal, from the n x n differences."""
    pos = positions(grid)
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

    pos = positions(grid)
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


def guarded_conductance(w, V, epsilon, theta, gamma, delta, g_floor):
    """The conductance kernel with the |V| <= V_LIMIT_SWITCH guard applied
    through three np.where calls at every bias, and ON/OFF chosen by a
    fourth."""
    absV = np.abs(np.asarray(V, dtype=float))
    small = absV <= V_LIMIT_SWITCH
    safe = np.where(small, 1.0, absV)
    off = np.where(small, epsilon * theta,
                   epsilon * -np.expm1(-theta * safe) / safe)
    on = np.where(small, gamma * delta,
                  gamma * np.sinh(np.minimum(delta * safe, _SINH_ARG_CAP)) / safe)
    return np.maximum(np.where(np.asarray(w) == 1, on, off), g_floor)


def clipped_advance(w_prime, V, dt, lam, eta, tau, decay_mode):
    """The internal-state Euler step, clamped with nan_to_num and clip; the
    bias is read as float64, as in guarded_conductance."""
    absV = np.abs(np.asarray(V, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        grow = lam * np.sinh(np.minimum(eta * absV, _SINH_ARG_CAP))
        if decay_mode == "state_dependent":
            decay = (w_prime / tau) * (1.0 - w_prime)
        else:
            decay = w_prime / tau
        out = w_prime + dt * (grow - decay)
    return np.clip(np.nan_to_num(out, nan=1.0, posinf=1.0, neginf=0.0), 0.0, 1.0)


def nested_where_hysteresis(w_prime, w, th_low, th_high):
    """The hysteresis kernel as two nested np.where calls."""
    w_arr = np.asarray(w)
    return np.where(w_prime >= th_high, 1,
                    np.where(w_prime <= th_low, 0, w_arr)).astype(w_arr.dtype)


def lagged_run(t, waveform, dt, n_steps, decay_mode="state_dependent"):
    """One network stepped by the lagged scheme with the kernels above.

    Per step: conductances at the previous step's branch voltages, each
    floored device stamped with a further g_floor in parallel; the nodal
    system (ground-component nodes except ground, then the source current)
    assembled by a loop over the stamps in ``simulate``'s order (the a-a,
    b-b, a-b and b-a stamps, each over the edges in order); one
    np.linalg.solve; node voltages gathered from the solution with 0 V
    appended; then the Euler step and hysteresis.  Returns (v_in, i_src,
    node voltages) at every step and the switching count.
    """
    p = dict(zip(_PARAM_KEYS, t.params.T))
    n = t.grid.n_nodes
    labels = _components(n, t.a, t.b)
    unknowns = [i for i in range(n)
                if labels[i] == labels[t.ground_node] and i != t.ground_node]
    rows = np.full(n, -1)
    rows[unknowns] = np.arange(len(unknowns))
    dim = len(unknowns) + 1
    ra, rb = rows[t.a].tolist(), rows[t.b].tolist()
    stamps = [(r, c, s) for rs, cs, s in ((ra, ra, 1.0), (rb, rb, 1.0),
                                          (ra, rb, -1.0), (rb, ra, -1.0))
              for r, c in zip(rs, cs)]
    w_prime, w = t.w_prime.copy(), t.w.copy()
    branch_v = np.zeros(t.edge_count)
    flips = 0
    v_ins, i_srcs, voltages = [], [], []
    for k in range(n_steps):
        v_in = float(waveform(k * dt))
        g = guarded_conductance(w, branch_v, p["epsilon"], p["theta"], p["gamma"],
                                p["delta"], p["g_floor"]) + p["g_floor"]
        A = [[0.0] * dim for _ in range(dim)]
        A[rows[t.input_node]][dim - 1] = A[dim - 1][rows[t.input_node]] = 1.0
        for (r, c, s), g_e in zip(stamps, g.tolist() * 4):
            if r >= 0 and c >= 0:
                A[r][c] += s * g_e
        rhs = np.zeros(dim)
        rhs[-1] = v_in
        x = np.linalg.solve(np.array(A), rhs)
        v = np.concatenate((x, (0.0,)))[rows]
        branch_v = v[t.a] - v[t.b]
        v_ins.append(v_in)
        i_srcs.append(-float(x[-1]))
        voltages.append(v)
        w_prime = clipped_advance(w_prime, branch_v, dt, p["lambda"], p["eta"],
                                  p["tau"], decay_mode)
        new_w = nested_where_hysteresis(w_prime, w, p["th_low"], p["th_high"])
        flips += int(np.count_nonzero(new_w != w))
        w = new_w
    return np.array(v_ins), np.array(i_srcs), np.array(voltages), flips


def _currents(w, V, p):
    """Each device's current at bias V, its parallel g_floor path included,
    and the current's derivative dI/dV: gamma*delta*cosh(delta*V) for an ON
    device below the sinh cap (0 above it), epsilon*theta*exp(-theta*|V|)
    for an OFF device, g_floor where the conductance is floored, plus the
    parallel g_floor."""
    g = guarded_conductance(w, V, p["epsilon"], p["theta"], p["gamma"],
                            p["delta"], p["g_floor"])
    absV = np.abs(V)
    arg = p["delta"] * absV
    on = np.where(arg < _SINH_ARG_CAP,
                  p["gamma"] * p["delta"] * np.cosh(np.minimum(arg, _SINH_ARG_CAP)),
                  0.0)
    off = p["epsilon"] * p["theta"] * np.exp(-p["theta"] * absV)
    slope = np.where(g > p["g_floor"], np.where(w == 1, on, off), p["g_floor"])
    return (g + p["g_floor"]) * V, slope + p["g_floor"]


def newton_run(t, waveform, dt, n_steps, decay_mode="state_dependent",
               stop=1e-5, max_iter=50):
    """One network stepped by solving each step's circuit self-consistently.

    Per step, Newton's method on the KCL residual of the free nodes (the
    ground component except ground and input), with the input voltage
    substituted and ground and floating islands pinned at 0 V.  The
    Jacobian is the Laplacian of the devices' dI/dV.  The start is
    ``2 v_k - v_{k-1}`` from the last two steps' voltages (zeros before
    step 0), or ``v_k`` when its residual is no larger.  Each Newton step
    is halved until ``||f||_inf`` falls.  A step stops when ``||f||_inf <=
    stop * s``, with ``s`` the largest sum of device current magnitudes at
    a free node.  Then the Euler step and hysteresis, as in
    ``lagged_run``.  Returns (v_in, i_src, node voltages, the state ``w``
    of each step's solve, Newton iterations) at every step and the
    switching count.
    """
    p = dict(zip(_PARAM_KEYS, t.params.T))
    n = t.grid.n_nodes
    labels = _components(n, t.a, t.b)
    free = np.array([i for i in range(n) if labels[i] == labels[t.ground_node]
                     and i not in (t.ground_node, t.input_node)], dtype=int)

    def residual(v, w):
        i, slope = _currents(w, v[t.a] - v[t.b], p)
        f = np.bincount(t.a, i, n) - np.bincount(t.b, i, n)
        s = np.bincount(t.a, np.abs(i), n) + np.bincount(t.b, np.abs(i), n)
        return f, s[free].max(initial=0.0), slope

    w_prime, w = t.w_prime.copy(), t.w.copy()
    older, old = np.zeros(n), np.zeros(n)
    flips = 0
    v_ins, i_srcs, voltages, states, iterations = [], [], [], [], []
    for k in range(n_steps):
        v_in = float(waveform(k * dt))
        starts = []
        for v in (old, 2.0 * old - older):
            v = v.copy()
            v[t.input_node] = v_in
            starts.append((np.abs(residual(v, w)[0][free]).max(initial=0.0), v))
        v = starts[1][1] if starts[1][0] < starts[0][0] else starts[0][1]
        f, s, slope = residual(v, w)
        norm = np.abs(f[free]).max(initial=0.0)
        for it in range(max_iter + 1):
            if norm <= stop * s:
                break
            if it == max_iter:
                raise RuntimeError(f"no convergence at step {k}")
            J = np.zeros((n, n))
            np.add.at(J, (t.a, t.a), slope)
            np.add.at(J, (t.b, t.b), slope)
            np.add.at(J, (t.a, t.b), -slope)
            np.add.at(J, (t.b, t.a), -slope)
            dx = np.linalg.solve(J[np.ix_(free, free)], -f[free])
            step = 1.0
            while True:
                trial = v.copy()
                trial[free] += step * dx
                f_new, s_new, slope_new = residual(trial, w)
                norm_new = np.abs(f_new[free]).max(initial=0.0)
                if norm_new < norm:
                    break
                step /= 2.0
                if step < 2.0 ** -40:
                    raise RuntimeError(f"line search failed at step {k}")
            v, f, s, slope, norm = trial, f_new, s_new, slope_new, norm_new
        branch_v = v[t.a] - v[t.b]
        v_ins.append(v_in)
        i_srcs.append(float(f[t.input_node]))  # the current into the network
        voltages.append(v)
        states.append(w)
        iterations.append(it)
        older, old = old, v
        w_prime = clipped_advance(w_prime, branch_v, dt, p["lambda"], p["eta"],
                                  p["tau"], decay_mode)
        new_w = nested_where_hysteresis(w_prime, w, p["th_low"], p["th_high"])
        flips += int(np.count_nonzero(new_w != w))
        w = new_w
    return (np.array(v_ins), np.array(i_srcs), np.array(voltages),
            np.array(states), np.array(iterations), flips)
