"""Quasi-static circuit solver for device networks.

Each time step the network is treated as a stationary resistive circuit:
device conductances are evaluated at the previous step's branch voltages,
the resulting linear system (nodal equations plus one auxiliary current
unknown for the ideal voltage source) is solved, and every device's
internal state is advanced with the fresh branch voltages.  Systems below
``_CG_MIN_DIM`` rows are solved by LU, same-size lockstep ones by one
stacked LAPACK call, bit for bit; larger ones by conjugate gradients on
their sparse entries, which are their ``matrix``: no dense matrix is built
unless LU has to take over.  Those entries are stored row-interleaved,
each row's own in column order, so the sparse product sums every row in
the order of row-sorted entries, bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import device as dev
from .errors import DataError, NumericalError, ParameterError, _finite, _integral
from .topology import NetworkTopology

_EPS = float(np.finfo(float).eps)
DEFAULT_FREQUENCY = 5.0  # Hz
DEFAULT_DT = 1e-3        # s
DEFAULT_DURATION = 1.0   # s
# duration / dt must stay below this: float64 counts steps exactly below it
_MAX_STEPS = 2 ** 53
# Systems of this dim or more are solved by CG, in at most this fraction of
# their node rows' iterations, else by LU (the measured crossover with LU,
# unmoved by the matrix-free CG).
_CG_MIN_DIM = 240
_CG_BUDGET = 0.5


def sine_waveform(amplitude: float, frequency: float = DEFAULT_FREQUENCY) -> Callable[[float], float]:
    """v(t) = amplitude * sin(2*pi*frequency*t); both are finite numbers."""
    amplitude = _finite(amplitude, "amplitude", ParameterError)
    frequency = _finite(frequency, "frequency", ParameterError)
    two_pi_f = 2.0 * math.pi * frequency
    return lambda t: amplitude * math.sin(two_pi_f * t)


@dataclass
class LinearSystem:
    """One assembled time step: ``matrix @ x = rhs``.

    Unknowns are the voltages of the ground-component nodes except ground
    itself (rows given by ``node_rows``; ground and floating-island nodes
    map to -1) followed by the source branch current.  ``rhs`` is zero
    except in the last row, the source row, which holds the source voltage.
    The conductance block is symmetric up to rounding: entry (i, j) sums the
    devices stamped i->j before those stamped j->i, entry (j, i) the other
    way round, so the two can differ in the last bit where one node pair
    carries 3 or more devices in both orientations.  Each device is
    stamped with max(G, g_floor) + g_floor: the device kernel floors its
    conductance, and the assembler adds a parallel g_floor path.  With that
    positive floor on every edge the reduced system is nonsingular.
    An LU member's ``matrix`` is its view in its ``_Stack``'s matrices.
    A CG member's is its ``_Cg``: the same matrix as sparse entries, with
    a ``shape``; only ``matrix.dense()`` builds a dense array, which the LU
    fallback does.  Reading ``matrix`` never allocates.  ``_stack`` holds
    the members of its size and the rest of what ``solve_step`` reads;
    this member is its entry ``_slot``.
    """

    matrix: Union[np.ndarray, "_Cg"]
    rhs: np.ndarray
    node_rows: np.ndarray
    _stack: "_Stack" = field(repr=False)
    _slot: int = field(repr=False)


class _Stack:
    """Same-size lockstep members' solve state, in member order: their
    matrices as one ``(G, d, d)`` view (None for a CG size, whose members
    store none), their shared 1-D rhs, each one's largest diagonal entry in
    ``diag_max`` and a gather buffer longer than the unknowns whose last
    entry stays 0.  Each step the first LU member's solve_step leaves the
    first ``live`` solutions and residual norms in ``x`` and ``res``;
    below 2 live, or with None in ``x`` (a singular matrix), each solves
    alone."""

    def __init__(self, matrices, rhs, diag_max, gather):
        self.matrices, self.rhs, self.diag_max, self.gather = matrices, rhs, diag_max, gather
        self.live, self.x = len(diag_max), None


class _Cg:
    """A CG-size member's bordered ``matrix`` of ``shape`` (d, d), held as
    its node block's sparse entries (rows, columns, the step's ``vals``,
    gathered from the stamped entries at ``take``, and the diagonal's
    positions in row order) and its input row, which the source border
    joins; ``u`` is its last solution over its v_in, or e_r_in.

    The entries are stored row-interleaved, as in ELLPACK: every row's
    first entry in row order, then every row's second, and so on.  Each
    row still meets its own entries in ascending column order, so a
    ``np.bincount`` over them adds each row's terms in the same sequence
    as over the row-sorted entries, and every sum keeps its bits; but
    neighbouring entries now add into different rows, so no add waits on
    the one before it."""
    def __init__(self, stamped, offset, d, r_in):
        # each node row's span of the stamped entries, in column order
        bounds = np.searchsorted(stamped, offset + d * np.arange(d))
        starts, counts = bounds[:-1], np.diff(bounds)
        # entry k of every row that has one, for k = 0, 1, ...
        self.take = np.concatenate([starts[counts > k] + k for k in range(counts.max())])
        self.rows, self.cols = np.divmod(stamped[self.take] - offset, d)
        on = np.flatnonzero(self.rows == self.cols)
        self.diag = np.empty_like(on)
        self.diag[self.rows[on]] = on  # in row order
        self.vals = np.empty(self.take.size)
        self.r_in, self.u = r_in, np.eye(1, d - 1, r_in)[0]
        self.shape = (d, d)

    def dense(self) -> np.ndarray:
        """The bordered matrix of the step's entries, as a new array."""
        a = np.zeros(self.shape)
        a[self.rows, self.cols] = self.vals
        a[self.r_in, -1] = a[-1, self.r_in] = 1.0
        return a


def _distinct(flat: np.ndarray, size: int) -> np.ndarray:
    """The distinct entries of ``flat`` below ``size``, in order."""
    # stable: the default kind loads code that adds 0.3-1.3 MB of peak RSS
    keys = np.sort(flat, axis=None, kind="stable")
    keys = keys[:np.searchsorted(keys, size)]
    return keys[np.diff(keys, prepend=-1) != 0]  # each run's first


class _Assembler:
    """Scatter indices, parameter rows and the LU members' matrix buffer for
    topologies stepped in lockstep.

    The members' edges and parameter rows are concatenated, so one call of
    each device kernel and one ``np.bincount`` per step serve every member.
    A member's unknowns are the nodes of the ground component its
    ``check`` labels, ground excepted: floating islands are pinned at 0 V
    (exact: no source reaches them), which keeps the matrix nonsingular.
    Every edge has four stamps, in four blocks over all edges: +g at
    (a, a), +g at (b, b), -g at (a, b) and -g at (b, a), in unknown rows;
    a stamp on ground or a floating island goes to a dropped bin.  Members
    are laid out by dim in one flat index space, those of one dim next to
    each other in member order, so each dim is one ``_Stack``; no matrix
    is padded, as LAPACK's blocking depends on the size.  LU members come
    first, and their matrices are stored in one buffer, the prefix of that
    space, allocated once with the source row and column set; a CG
    member's matrix is its ``_Cg``, never stored dense.  Every rhs is zero
    but for its last entry, so each member's rhs is the tail of one shared
    buffer whose last entry ``build`` sets to the source voltage.  Each
    step ``build`` writes the four signed stamp weights into one buffer,
    the bincount sums every stamped entry's terms in stamp order, the
    order of a member assembled alone, the LU members' entries are written
    to the buffer, and each ``_Cg`` gathers its own into its ``vals``,
    row-interleaved (each row's in column order, so every row sums in the
    order of the stamped entries and keeps its bits).  Set-up finds
    the stamped entries by sorting the stamps, so its memory grows with
    the devices, not the index space.  An error in member m's set-up
    carries ``member = m``.
    """

    def __init__(self, topologies: Sequence[NetworkTopology]):
        grid = topologies[0].grid
        n = grid.n_nodes
        self.edge_slices = []  # each member's edges in the concatenated arrays
        dims, node_rows = [], []
        n_edges = 0
        for m, t in enumerate(topologies):
            try:
                if t.grid != grid:
                    raise ParameterError("lockstep members must share one grid")
                labels = t.check()
            except Exception as exc:
                exc.member = m
                raise
            unknowns = np.flatnonzero((labels == labels[t.ground_node])
                                      & (np.arange(n) != t.ground_node))
            rows = np.full(n, -1, dtype=int)
            rows[unknowns] = np.arange(unknowns.size)
            dims.append(unknowns.size + 1)
            node_rows.append(rows)
            self.edge_slices.append(slice(n_edges, n_edges + t.edge_count))
            n_edges += t.edge_count
        order = sorted(range(len(dims)), key=dims.__getitem__)  # buffer order
        offset, size = [0] * len(dims), 0
        for m in order:
            offset[m], size = size, size + dims[m] ** 2
        lu_size = sum(d * d for d in dims if d < _CG_MIN_DIM)  # the buffer
        flat = np.empty((4, n_edges), dtype=np.intp)  # stamp entries, size if dropped
        for t, rows, d, o, edges in zip(topologies, node_rows, dims, offset,
                                        self.edge_slices):
            ra, rb = rows[t.a], rows[t.b]
            for k, (r, c) in enumerate(((ra, ra), (rb, rb), (ra, rb), (rb, ra))):
                flat[k, edges] = np.where((r >= 0) & (c >= 0), o + r * d + c, size)
        # the stamped entries, each stamp's bin among them, and one more bin
        # for the stamps that are dropped; the LU members' entries come first
        self._stamped = _distinct(flat, size)
        self._lu_stamped = self._stamped[:np.searchsorted(self._stamped, lu_size)]
        self._bins = np.searchsorted(self._stamped, flat).ravel()
        self._weights = np.empty((4, n_edges))
        # Each member's first stamped entry, in buffer order; off-diagonal
        # entries are negative, so its largest is on its diagonal.
        self._firsts = np.searchsorted(self._stamped, sorted(offset))
        self._diag_max = np.empty(len(dims))  # in buffer order
        self._matrices = np.zeros(lu_size)
        self._rhs = np.zeros(max(dims))
        # one gather buffer serves every member: each solve overwrites at
        # most its first dim entries, never the last
        gather = np.zeros(self._rhs.size + 1)
        self._systems = [None] * len(dims)
        for d in sorted(set(dims)):  # members of one dim, in buffer order
            group = [m for m in order if dims[m] == d]
            p, o = order.index(group[0]), offset[group[0]]
            lu = d < _CG_MIN_DIM
            stack = _Stack(self._matrices[o:o + len(group) * d * d].reshape(-1, d, d)
                           if lu else None,
                           self._rhs[-d:], self._diag_max[p:p + len(group)], gather)
            for i, m in enumerate(group):
                r_in = node_rows[m][topologies[m].input_node]
                if lu:
                    matrix = stack.matrices[i]
                    matrix[r_in, -1] = matrix[-1, r_in] = 1.0
                else:
                    matrix = _Cg(self._stamped, offset[m], d, r_in)
                self._systems[m] = LinearSystem(matrix, stack.rhs, node_rows[m], stack, i)
        self._cgs = [s.matrix for s in self._systems if s._stack.matrices is None]
        # endpoints as indices into the members' stacked node voltages
        self.a = np.concatenate([t.a + m * n for m, t in enumerate(topologies)])
        self.b = np.concatenate([t.b + m * n for m, t in enumerate(topologies)])

        # one contiguous array per parameter, by name
        params = np.empty((len(dev._PARAM_KEYS), n_edges))
        for t, edges in zip(topologies, self.edge_slices):
            params[:, edges] = t.params.T
        self.p = dict(zip(dev._PARAM_KEYS, params))

    def build(self, w: np.ndarray, branch_voltages: np.ndarray,
              v_in: float) -> List[LinearSystem]:
        """Every member's system for one step, its conductances evaluated
        at ``w`` and ``branch_voltages``, in member order.

        Every call returns the same LinearSystem objects, whose arrays are
        views of this assembler's buffers, refilled in place: a system is
        valid until the next call.
        """
        p = self.p
        g = dev.conductance_batch(w, branch_voltages, p["epsilon"], p["theta"],
                                  p["gamma"], p["delta"], p["g_floor"])
        # g plus the parallel floor path: + in the a-a and b-b blocks, - in
        # the a-b and b-a blocks
        weights = self._weights
        weights[1] = np.add(g, p["g_floor"], out=weights[0])
        np.negative(weights[:2], out=weights[2:])
        entries = np.bincount(self._bins, weights=weights.ravel(),
                              minlength=self._stamped.size + 1)[:-1]
        self._matrices[self._lu_stamped] = entries[:self._lu_stamped.size]
        np.maximum.reduceat(entries, self._firsts, out=self._diag_max)
        for cg in self._cgs:  # a CG member has only its entries
            entries.take(cg.take, out=cg.vals)
        self._rhs[-1] = v_in
        return self._systems


def assemble(t: NetworkTopology, v_in: float) -> LinearSystem:
    """Assemble the nodal system of a step at zero bias, as on the first
    step: conductances are evaluated at 0 V and floored.  ``simulate`` does
    not call this; it is the entry point of the single-step oracle tests,
    which solve the system it returns.
    """
    asm = _Assembler([t])
    if not np.isfinite(v_in):
        raise DataError(f"source voltage must be finite, got {v_in!r}")
    return asm.build(t.w, np.zeros(t.edge_count), v_in)[0]


def _bound(sys: LinearSystem, x: np.ndarray, v_in: float) -> float:
    """The gate on x's residual, dim * eps (||A|| ||x|| + ||b||) in the inf
    norm: ||b|| = |v_in|; node voltages lie in [0, v_in], so ||x|| =
    max(|v_in|, |i_src|); a row's off-diagonal magnitudes sum to at most its
    diagonal entry, and the source adds a 1: ||A|| <= 2 diag_max + 1."""
    v_in = abs(v_in)
    return x.size * _EPS * ((2.0 * sys._stack.diag_max.item(sys._slot) + 1.0)
                            * max(v_in, abs(x.item(-1))) + v_in)


def _cg_solve(sys: LinearSystem, v_in: float) -> tuple:
    """(x, residual) for a CG-size member: x, its bordered solution with
    x[-1] = -(G v)[r_in], passes the gate, or is None past the iteration
    budget or a second missed gate.  Jacobi-preconditioned CG on the node
    block, input row pinned, starts from u * v_in and stops at a recursive
    residual of bound / 20; a missed gate restarts it from the true one.
    One node-block product G v per round gives x[-1], the gate's residual
    and the restart's."""
    cg, d = sys.matrix, sys.rhs.size
    if v_in == 0.0:  # solved exactly by zeros
        return np.zeros(d), 0.0
    rows, cols, vals, r_in = cg.rows, cg.cols, cg.vals, cg.r_in
    diag = vals[cg.diag]
    if not diag.min() > 0.0:  # not positive definite: LU decides
        return None, None
    x = np.append(cg.u * v_in, 0.0)
    v = x[:-1]  # the node voltages, a view
    budget, it = int(_CG_BUDGET * (d - 1)), 0
    stop = _bound(sys, x, v_in) / 20.0  # x[-1] = 0: the bound's least value
    gv = np.bincount(rows, vals * v.take(cols), minlength=d - 1)
    for _ in range(2):  # a start, then one restart
        r = -gv
        r[r_in] = 0.0  # the pinned row
        z = r / diag
        p, rz = z, r @ z
        while np.abs(r).max() > stop:
            if it == budget:
                return None, None
            it += 1
            ap = np.bincount(rows, vals * p.take(cols), minlength=d - 1)
            ap[r_in] = 0.0
            pap = p @ ap
            if rz == 0.0 or not pap > 0.0:
                break
            alpha = rz / pap
            v += alpha * p
            r -= alpha * ap
            z = r / diag
            rz, rz_old = r @ z, rz
            p = z + (rz / rz_old) * p
        gv = np.bincount(rows, vals * v.take(cols), minlength=d - 1)
        x[-1] = -gv.item(r_in)
        # A x - b is G v off the input row and 0 on it, where x[-1] cancels
        # G v; the source row's x[r_in] - v_in takes the input row's place
        gv[r_in] = x.item(r_in) - v_in
        residual = np.abs(gv).max().item()
        if residual <= _bound(sys, x, v_in):
            cg.u = v / v_in
            return x, residual
    return None, None


def solve_step(sys: LinearSystem, step: Optional[int] = None):
    """Solve one assembled step.

    Returns (voltages, i_src): voltages over all grid nodes with ground
    fixed at 0 V, and the current delivered by the source.  Raises
    NumericalError if the solve fails or its normwise backward error
    ||Ax - b||_inf / (||A||_inf ||x||_inf + ||b||_inf) exceeds dim * eps.
    Lockstep members call it once each per step, in member order.  At dim
    ``_CG_MIN_DIM`` or more each solves its own system by CG under the same
    gate, on its sparse residual, and if CG misses it by LU on
    ``matrix.dense()``; below, the first member of a size solves that
    size's live members by one stacked LU.
    """
    stack, i = sys._stack, sys._slot
    v_in = sys.rhs.item(-1)  # b is zero but for the source row, which holds v_in
    x = None
    if stack.matrices is None:  # a CG size
        x, residual = _cg_solve(sys, v_in)
    elif stack.live > 1:
        if i == 0:  # the first member solves the live ones
            a = stack.matrices[:stack.live]
            try:  # the same dgesv per matrix as a call each, so the same bits
                xs = np.linalg.solve(a, stack.rhs)
            except np.linalg.LinAlgError:  # each member finds its singular matrix
                stack.x = None
            else:
                r = np.matvec(a, xs)  # the same dgemv per matrix
                r[:, -1] -= v_in
                stack.x, stack.res = xs, np.abs(r, out=r).max(axis=1)
        if stack.x is not None:
            x, residual = stack.x[i], stack.res.item(i)
    if x is None:
        a = sys.matrix.dense() if stack.matrices is None else sys.matrix
        try:
            x = np.linalg.solve(a, sys.rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"linear solve failed: {exc}", step=step) from None
        r = a @ x  # max |A x - b|, or a NaN in it
        r[-1] -= v_in
        residual = r.item(np.abs(r, out=r).argmax())
    bound = _bound(sys, x, v_in)
    if not residual <= bound:
        raise NumericalError(
            f"residual {residual:.3e} exceeds bound {bound:.3e}", step=step)
    # The auxiliary unknown is the current out of the input node into the
    # source; the delivered current is its negative.
    i_src = -x.item(-1)
    # row -1 (ground, floating islands) picks the buffer's last entry, 0 V
    gather = stack.gather
    gather[:x.size] = x
    return gather[sys.node_rows], i_src


@dataclass
class SimulationTrace:
    """Recorded run: interface voltages over time plus the source series."""

    times: np.ndarray               # (T,)
    dt: float
    interface_voltages: np.ndarray  # (T, k): every post, or those asked for
    source_current: np.ndarray      # (T,)
    applied_voltage: np.ndarray     # (T,)
    switching_events: int
    # A decimated run's (step dt, v_in, i_src) at every step, not only at the
    # rows; energy() integrates these.  None when every step is a row.
    every_step: Optional[Tuple[float, np.ndarray, np.ndarray]] = None

    @property
    def n_steps(self) -> int:
        return self.times.size

    @property
    def n_interface(self) -> int:
        return self.interface_voltages.shape[1]

    def to_csv(self) -> str:
        """Trace CSV text: t, v_in, i_src, node_1 ... node_k (9 significant
        digits); the k recorded columns are named by position, not label."""
        cols = [f"node_{i + 1}" for i in range(self.n_interface)]
        lines = [",".join(["t", "v_in", "i_src"] + cols)]
        fmt = ",".join(["%.9g"] * (3 + self.n_interface))
        rows = np.column_stack((self.times, self.applied_voltage,
                                self.source_current, self.interface_voltages))
        lines.extend(fmt % tuple(row) for row in rows.tolist())
        return "\n".join(lines) + "\n"

    @classmethod
    def read_csv(cls, path) -> "SimulationTrace":
        """Read a trace CSV.  The CSV carries no switching count, so
        ``switching_events`` reads back as 0.  A ragged row or a value that
        is not a number raises DataError."""
        try:
            with open(path) as f:
                names = [n.strip() for n in f.readline().split(",")]
                with warnings.catch_warnings():  # a header-only trace is valid
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(f, delimiter=",", ndmin=2)
        except OSError:
            raise
        except Exception as exc:
            raise DataError(f"trace file {path} is not parseable: {exc}") from None
        if data.size == 0:
            data = data.reshape(0, len(names))
        if data.shape[1] != len(names):
            raise DataError(f"trace file {path} has {data.shape[1]} columns "
                            f"but {len(names)} names")
        if not {"t", "v_in", "i_src"} <= set(names):
            raise DataError(f"trace file {path} lacks t/v_in/i_src columns")
        col = {n: data[:, j] for j, n in enumerate(names)}
        times = col["t"]
        dt = float(times[1] - times[0]) if times.size > 1 else 0.0
        nodes = [j for j, n in enumerate(names) if n.startswith("node_")]
        # np.take keeps C order (data[:, nodes] would not), and entropy's
        # sums depend on the layout
        return cls(times=times, dt=dt, interface_voltages=np.take(data, nodes, 1),
                   source_current=col["i_src"], applied_voltage=col["v_in"],
                   switching_events=0)


class TraceBatch(tuple):
    """Per-member traces of a lockstep run, in the order of its topologies."""

    @property
    def switching_events(self) -> int:
        return sum(trace.switching_events for trace in self)


def check_settings(dt, duration, decimation, decay_mode) -> tuple:
    """``simulate``'s settings as (dt, duration, decimation, step count)."""
    dt = _finite(dt, "dt", ParameterError)
    duration = _finite(duration, "duration", ParameterError)
    if not dt > 0.0:
        raise ParameterError(f"dt must be finite and > 0, got {dt!r}")
    if not duration >= dt:
        raise ParameterError(f"duration must be finite and >= dt, got {duration!r}")
    decimation = _integral(decimation, "decimation", ParameterError)
    if decimation < 1:
        raise ParameterError(f"decimation must be >= 1, got {decimation!r}")
    dev.check_decay_mode(decay_mode)
    if not duration / dt < _MAX_STEPS:
        raise ParameterError(f"duration / dt must be < 2**53, got {duration / dt!r}")
    return dt, duration, decimation, int(round(duration / dt))


def simulate(topologies: Union[NetworkTopology, Sequence[NetworkTopology]],
             waveform: Callable[[float], float],
             dt: float = DEFAULT_DT, duration: float = DEFAULT_DURATION, *,
             decay_mode: str = "state_dependent", decimation: int = 1,
             interface: Optional[Sequence[int]] = None
             ) -> Union[SimulationTrace, TraceBatch]:
    """Time-step one network, or several on one grid in lockstep, under a
    single source waveform.

    Per step: assemble with the previous branch voltages, solve, compute
    fresh branch voltages, advance every device state (Euler step, then
    hysteresis).  Device state stored on a topology is never mutated, so
    repeated calls are bit-identical.

    ``interface`` names, by 1-based label (a full trace's CSV numbering),
    the posts whose voltages each trace records, in that order; None
    records every post.  Labels are integers in 1..n_interface.

    Given one topology, returns its SimulationTrace.  Given a sequence,
    returns a TraceBatch of the members' traces, each bit-identical to the
    member's own run: the members share each device-kernel call and the
    assembly bincount, which act entry by entry, and members with systems
    of one size share a stacked LAPACK solve, the same dgesv per matrix.

    A batch raises its lowest-index failing member's error, the one that
    member raises in its solo run, with ``member = m`` (and a solve
    error's ``step``).  Set-up errors raise before step 0.  When member
    m's solve fails, members m and above stop being solved and the lower
    members step on, until member 0 fails or the run ends.  An error
    raised for all members at once carries no ``member``.
    """
    single = isinstance(topologies, NetworkTopology)
    members = [topologies] if single else list(topologies)
    if not members:
        raise ParameterError("no topology to simulate")
    dt, duration, decimation, n_steps = check_settings(dt, duration, decimation, decay_mode)
    posts = members[0].grid.interface_indices
    if interface is not None:
        labels = [_integral(x, "interface", ParameterError) for x in interface]
        if not labels or not all(1 <= x <= posts.size for x in labels):
            raise ParameterError(f"interface labels must be a non-empty sequence "
                                 f"in 1..{posts.size}, got {interface!r}")
        posts = posts[np.subtract(labels, 1)]

    asm = _Assembler(members)
    p = asm.p
    n_members, n = len(members), members[0].grid.n_nodes
    # member m's node voltages are row m; flattened, the rows are stacked
    voltages = np.zeros((n_members, n))
    stacked = voltages.reshape(-1)
    iface = posts + n * np.arange(n_members)[:, None]
    w_prime = np.concatenate([t.w_prime for t in members])
    w = np.concatenate([t.w for t in members])
    branch_v = np.zeros(w.size)
    flips = np.zeros(w.size, dtype=int)

    # The source series are kept at every step (the energy needs them), the
    # interface voltages only at the recorded rows.
    n_rec = len(range(0, n_steps, decimation))
    try:
        times = np.empty(n_rec)
        iface_v = np.empty((n_members, n_rec, iface.shape[1]))
        v_in_all = np.empty(n_steps)
        i_src_all = np.empty((n_members, n_steps))
    except MemoryError:
        raise ParameterError(f"{n_steps} steps do not fit in memory") from None

    # Members 0..live-1 are solved; a failing member and those above it
    # drop out, their voltages left as they were.
    rec, live, failure = 0, n_members, None
    for k in range(n_steps):
        t_k = k * dt
        v_in = float(waveform(t_k))
        if not math.isfinite(v_in):
            raise DataError(f"waveform returned non-finite value at t={t_k!r}")

        systems = asm.build(w, branch_v, v_in)
        for m in range(live):
            try:
                voltages[m], i_src_all[m, k] = solve_step(systems[m], step=k)
            except Exception as exc:
                exc.member = m
                live, failure = m, exc
                for gone in systems[m:]:  # members m and above leave their stacks
                    gone._stack.live = min(gone._stack.live, gone._slot)
                break
        if not live:
            break
        branch_v = stacked[asm.a] - stacked[asm.b]

        v_in_all[k] = v_in
        if k % decimation == 0:
            times[rec] = t_k
            iface_v[:, rec] = stacked[iface]
            rec += 1

        w_prime = dev.advance_state_batch(w_prime, branch_v, dt, p["lambda"],
                                          p["eta"], p["tau"], decay_mode=decay_mode)
        new_w = dev.hysteresis_batch(w_prime, w, p["th_low"], p["th_high"])
        flips += new_w != w
        w = new_w
    if failure is not None:
        raise failure

    traces = TraceBatch(
        SimulationTrace(times=times, dt=dt * decimation,
                        interface_voltages=iface_v[m],
                        source_current=i_src_all[m, ::decimation],
                        applied_voltage=v_in_all[::decimation],
                        switching_events=int(flips[edges].sum()),
                        every_step=None if decimation == 1 else
                        (dt, v_in_all, i_src_all[m]))
        for m, edges in enumerate(asm.edge_slices))
    return traces[0] if single else traces
