"""Quasi-static circuit solver for device networks.

Each time step the network is treated as a stationary resistive circuit:
device conductances are evaluated at the previous step's branch voltages,
the resulting linear system (nodal equations plus one auxiliary current
unknown for the ideal voltage source) is solved, and every device's
internal state is advanced with the fresh branch voltages.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import device as dev
from .errors import DataError, NumericalError, ParameterError, _integral
from .topology import NetworkTopology, _components

_EPS = float(np.finfo(float).eps)
DEFAULT_FREQUENCY = 5.0  # Hz
DEFAULT_DT = 1e-3        # s
DEFAULT_DURATION = 1.0   # s


def sine_waveform(amplitude: float, frequency: float = DEFAULT_FREQUENCY) -> Callable[[float], float]:
    """v(t) = amplitude * sin(2*pi*frequency*t)."""
    two_pi_f = 2.0 * math.pi * frequency
    return lambda t: amplitude * math.sin(two_pi_f * t)


@dataclass
class LinearSystem:
    """One assembled time step: ``matrix @ x = rhs``.

    Unknowns are the voltages of the ground-component nodes except ground
    itself (rows given by ``node_rows``; ground and floating-island nodes
    map to -1) followed by the source branch current.  ``rhs`` is zero
    except in the last row, the source row, which holds the source voltage.
    The conductance block is symmetric.  Each device is stamped with
    max(G, g_floor) + g_floor: the device kernel floors its conductance,
    and the assembler adds a parallel g_floor path.  With that positive
    floor on every edge the reduced system is nonsingular.  ``diag_max[0]``
    is the largest diagonal entry of ``matrix``.  ``_gather`` is a buffer
    longer than the unknowns whose last entry stays 0: ``solve_step``
    copies the unknowns to its start and gathers the node voltages from it
    by ``node_rows``, so row -1 reads 0 V.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    node_rows: np.ndarray
    diag_max: np.ndarray
    _gather: np.ndarray = field(repr=False)


def _rows(t: NetworkTopology):
    """One topology's unknown rows: (node_rows, dim), the row of each grid
    node (-1 for ground and floating islands) and the system size."""
    t.check()
    n = t.grid.n_nodes

    # Only the component containing ground carries current; nodes of
    # floating islands are pinned at 0 V (exact: no source reaches
    # them), which keeps the matrix nonsingular without perturbing
    # the live circuit.
    labels = _components(n, t.a, t.b)
    active = labels == labels[t.ground_node]
    if not active[t.input_node]:
        raise ParameterError("no input->ground path; run ensure_connected first")
    unknowns = np.flatnonzero(active & (np.arange(n) != t.ground_node))
    rows = np.full(n, -1, dtype=int)
    rows[unknowns] = np.arange(unknowns.size)
    return rows, unknowns.size + 1


class _Assembler:
    """Scatter indices, parameter rows and one matrix buffer for topologies
    stepped in lockstep.

    The members' edges and parameter rows are concatenated, so one call of
    each device kernel and one ``np.bincount`` per step serve every member.
    Every edge has four stamps, in four blocks over all edges: +g at (a, a),
    +g at (b, b), -g at (a, b) and -g at (b, a), in unknown rows; a stamp
    on ground or a floating island goes to a dropped bin.  Every member's
    matrix and rhs live in one flat buffer, member m's matrix at an offset
    of the earlier members' dim**2, allocated once with the source row and
    column set.  Each step the bincount sums every stamped entry's terms in
    stamp order, the order of a member assembled alone, and writes only
    those entries.  It sums g, then negates the off-diagonal sums (their
    stamps are all -g; there are no self-loops), which is bit for bit the
    sum of the -g terms: rounding is symmetric in sign.  The stamped
    conductances and the stamp weights have a buffer each, refilled every
    step.  An error in member m's set-up carries ``member = m``.
    """

    def __init__(self, topologies: Sequence[NetworkTopology]):
        grid = topologies[0].grid.to_dict()
        n = topologies[0].grid.n_nodes
        self.edge_slices = []  # each member's edges in the concatenated arrays
        members = []  # per member: matrix offset, dim, rhs offset, node rows
        ra, rb, offset, dims, ones = [], [], [], [], []
        size = rhs_size = n_edges = 0
        for m, t in enumerate(topologies):
            try:
                if t.grid.to_dict() != grid:
                    raise ParameterError("lockstep members must share one grid")
                rows, dim = _rows(t)
            except Exception as exc:
                exc.member = m
                raise
            r_in, r_src = rows[t.input_node], dim - 1
            members.append((size, dim, rhs_size, rows))
            ra.append(rows[t.a])
            rb.append(rows[t.b])
            offset.append(np.full(t.edge_count, size))
            dims.append(np.full(t.edge_count, dim))
            self.edge_slices.append(slice(n_edges, n_edges + t.edge_count))
            ones.extend((size + r_in * dim + r_src, size + r_src * dim + r_in))
            size += dim * dim
            rhs_size += dim
            n_edges += t.edge_count
        ra, rb = np.concatenate(ra), np.concatenate(rb)
        stamp_rows, stamp_cols = np.stack((ra, rb, ra, rb)), np.stack((ra, rb, rb, ra))
        ok = (stamp_rows >= 0) & (stamp_cols >= 0)
        flat = np.concatenate(offset) + stamp_rows * np.concatenate(dims) + stamp_cols
        # the stamped entries, each stamp's bin among them, and one more bin
        # for the stamps that are dropped
        self._stamped = np.flatnonzero(np.bincount(flat[ok], minlength=size))
        self._bins = np.where(ok, np.searchsorted(self._stamped, flat),
                              self._stamped.size).ravel()
        self._weights = np.empty((4, n_edges))
        self._sign = np.full(self._stamped.size + 1, -1.0)  # a sign per bin:
        self._sign[self._bins[:2 * n_edges]] = 1.0  # + for a-a and b-b stamps
        # Each member's first stamped entry.  Off-diagonal entries are
        # negative, so a member's largest stamped entry is on its diagonal.
        self._firsts = np.searchsorted(self._stamped, [o for o, *_ in members])
        self._diag_max = np.empty(len(members))
        self._src = np.array([r + d - 1 for _, d, r, _ in members])  # source rows
        self._g = np.empty(n_edges)
        self._matrices = np.zeros(size)
        self._matrices[ones] = 1.0  # source column and row
        self._rhs = np.zeros(rhs_size)
        # one gather buffer serves every member: each solve overwrites at
        # most its first dim entries, never the last
        gather = np.zeros(max(d for _, d, _, _ in members) + 1)
        self._systems = [
            LinearSystem(matrix=self._matrices[o:o + d * d].reshape(d, d),
                         rhs=self._rhs[r:r + d], node_rows=rows,
                         diag_max=self._diag_max[m:m + 1], _gather=gather)
            for m, (o, d, r, rows) in enumerate(members)]
        # endpoints as indices into the members' stacked node voltages
        self.a = np.concatenate([t.a + m * n for m, t in enumerate(topologies)])
        self.b = np.concatenate([t.b + m * n for m, t in enumerate(topologies)])

        # one contiguous array per parameter, by name
        params = np.concatenate([t.params for t in topologies])
        self.p = dict(zip(dev._PARAM_KEYS, np.ascontiguousarray(params.T)))

    def conductances(self, w: np.ndarray, branch_voltages: np.ndarray) -> np.ndarray:
        """The stamped conductances, in a buffer that the next call refills."""
        p = self.p
        g = dev.conductance_batch(w, branch_voltages, p["epsilon"], p["theta"],
                                  p["gamma"], p["delta"], p["g_floor"])
        return np.add(g, p["g_floor"], out=self._g)  # parallel floor path per edge

    def build(self, g: np.ndarray, v_in: float) -> List[LinearSystem]:
        """Every member's system for one step, in member order.

        Every call returns the same LinearSystem objects, whose arrays are
        views of this assembler's buffers, refilled in place: a system is
        valid until the next call.
        """
        np.copyto(self._weights, g)
        entries = np.bincount(self._bins, weights=self._weights.ravel(),
                              minlength=self._sign.size)
        entries = np.multiply(entries, self._sign, out=entries)[:-1]
        self._matrices[self._stamped] = entries
        np.maximum.reduceat(entries, self._firsts, out=self._diag_max)
        self._rhs[self._src] = v_in
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
    return asm.build(asm.conductances(t.w, np.zeros(t.edge_count)), v_in)[0]


def solve_step(sys: LinearSystem, step: Optional[int] = None):
    """Solve one assembled step.

    Returns (voltages, i_src): voltages over all grid nodes with ground
    fixed at 0 V, and the current delivered by the source.  Raises
    NumericalError if the solve fails or its normwise backward error
    ||Ax - b||_inf / (||A||_inf ||x||_inf + ||b||_inf) exceeds dim * eps.
    """
    try:
        x = np.linalg.solve(sys.matrix, sys.rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"linear solve failed: {exc}", step=step) from None
    # b is zero but for the source row, which holds v_in
    v_in = sys.rhs.item(-1)
    r = sys.matrix @ x
    r[-1] -= v_in
    residual = r.item(np.abs(r, out=r).argmax())  # the max, or a NaN in r
    # The auxiliary unknown is the current out of the input node into the
    # source; the delivered current is its negative.
    i_src = -x.item(-1)
    # ||b||_inf = |v_in|; node voltages lie in [0, v_in], so ||x||_inf =
    # max(|v_in|, |i_src|); a row's off-diagonal magnitudes sum to at most
    # its diagonal entry, and the source adds a 1: ||A||_inf <= 2 diag_max + 1
    v_in = abs(v_in)
    bound = x.size * _EPS * ((2.0 * sys.diag_max.item() + 1.0)
                             * max(v_in, abs(i_src)) + v_in)
    if not residual <= bound:
        raise NumericalError(
            f"residual {residual:.3e} exceeds bound {bound:.3e}", step=step)
    # row -1 (ground, floating islands) picks the buffer's last entry, 0 V
    gather = sys._gather
    gather[:x.size] = x
    return gather[sys.node_rows], i_src


@dataclass
class SimulationTrace:
    """Recorded run: interface voltages over time plus the source series."""

    times: np.ndarray               # (T,)
    dt: float
    interface_voltages: np.ndarray  # (T, n_interface)
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
        """Trace CSV text: t, v_in, i_src, node_1 ... node_N (9 significant digits)."""
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


def simulate(topologies: Union[NetworkTopology, Sequence[NetworkTopology]],
             waveform: Callable[[float], float],
             dt: float = DEFAULT_DT, duration: float = DEFAULT_DURATION, *,
             decay_mode: str = "state_dependent",
             decimation: int = 1) -> Union[SimulationTrace, TraceBatch]:
    """Time-step one network, or several on one grid in lockstep, under a
    single source waveform.

    Per step: assemble with the previous branch voltages, solve, compute
    fresh branch voltages, advance every device state (Euler step, then
    hysteresis).  Device state stored on a topology is never mutated, so
    repeated calls are bit-identical.

    Given one topology, returns its SimulationTrace.  Given a sequence,
    returns a TraceBatch of the members' traces, each bit-identical to the
    member's own run: the members share each device-kernel call and the
    assembly bincount, which act entry by entry, but every member solves
    its own system.

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
    if not (math.isfinite(dt) and dt > 0.0):
        raise ParameterError(f"dt must be finite and > 0, got {dt!r}")
    if not (math.isfinite(duration) and duration >= dt):
        raise ParameterError(f"duration must be finite and >= dt, got {duration!r}")
    decimation = _integral(decimation, "decimation", ParameterError)
    if decimation < 1:
        raise ParameterError(f"decimation must be >= 1, got {decimation!r}")
    dev.check_decay_mode(decay_mode)
    n_steps = int(round(duration / dt))

    asm = _Assembler(members)
    p = asm.p
    n_members, n = len(members), members[0].grid.n_nodes
    # member m's node voltages are row m; flattened, the rows are stacked
    voltages = np.zeros((n_members, n))
    stacked = voltages.reshape(-1)
    iface = members[0].grid.interface_indices + n * np.arange(n_members)[:, None]
    w_prime = np.concatenate([t.w_prime for t in members])
    w = np.concatenate([t.w for t in members])
    branch_v = np.zeros(w.size)
    flips = np.zeros(w.size, dtype=int)

    # The source series are kept at every step (the energy needs them), the
    # interface voltages only at the recorded rows.
    n_rec = len(range(0, n_steps, decimation))
    times = np.empty(n_rec)
    iface_v = np.empty((n_members, n_rec, iface.shape[1]))
    v_in_all = np.empty(n_steps)
    i_src_all = np.empty((n_members, n_steps))

    # Members 0..live-1 are solved; a failing member and those above it
    # drop out, their voltages left as they were.
    rec, live, failure = 0, n_members, None
    for k in range(n_steps):
        t_k = k * dt
        v_in = float(waveform(t_k))
        if not math.isfinite(v_in):
            raise DataError(f"waveform returned non-finite value at t={t_k!r}")

        systems = asm.build(asm.conductances(w, branch_v), v_in)
        for m in range(live):
            try:
                voltages[m], i_src_all[m, k] = solve_step(systems[m], step=k)
            except Exception as exc:
                exc.member = m
                live, failure = m, exc
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
