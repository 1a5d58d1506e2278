"""Quasi-static circuit solver for device networks.

Each time step the network is treated as a stationary resistive circuit:
device conductances are evaluated at the previous step's branch voltages,
the resulting linear system (nodal equations plus one auxiliary current
unknown for the ideal voltage source) is solved, and every device's
internal state is advanced with the fresh branch voltages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import device as dev
from .errors import DataError, NumericalError, ParameterError
from .topology import NetworkTopology, _components

RESIDUAL_RTOL = 1e-9
DEFAULT_FREQUENCY = 5.0  # Hz
DEFAULT_DT = 1e-3        # s
DEFAULT_DURATION = 1.0   # s


def sine_waveform(amplitude: float, frequency: float = DEFAULT_FREQUENCY) -> Callable[[float], float]:
    """v(t) = amplitude * sin(2*pi*frequency*t)."""
    two_pi_f = 2.0 * math.pi * frequency
    return lambda t: amplitude * math.sin(two_pi_f * t)


def dc_waveform(value: float) -> Callable[[float], float]:
    return lambda t: value


@dataclass
class LinearSystem:
    """One assembled time step: ``matrix @ x = rhs``.

    Unknowns are the voltages of the ground-component nodes except ground
    itself (rows given by ``node_rows``; ground and floating-island nodes
    map to -1) followed by the source branch current.  The conductance
    block is symmetric.  Each device is stamped with max(G, g_floor) +
    g_floor: the device kernel floors its conductance, and the assembler
    adds a parallel g_floor path.  With that positive floor on every edge
    the reduced system is nonsingular.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    node_rows: np.ndarray
    source_row: int

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


class _Assembler:
    """Reusable scatter indices and parameter arrays for one topology."""

    def __init__(self, t: NetworkTopology):
        n = t.grid.n_nodes
        if t.input_node == t.ground_node:
            raise ParameterError("input and ground nodes must differ")
        self.ground = t.ground_node
        self.input = t.input_node

        a, b = t.a, t.b
        if np.any(a == b):
            raise ParameterError("topology contains a self-loop")

        # Only the component containing ground carries current; nodes of
        # floating islands are pinned at 0 V (exact: no source reaches
        # them), which keeps the matrix nonsingular without perturbing
        # the live circuit.
        labels = _components(n, a, b)
        active = labels == labels[self.ground]
        if not active[self.input]:
            raise ParameterError("no input->ground path; run ensure_connected first")
        unknowns = np.flatnonzero(active & (np.arange(n) != self.ground))
        rows = np.full(n, -1, dtype=int)
        rows[unknowns] = np.arange(unknowns.size)
        self.node_rows = rows
        self.source_row = unknowns.size
        self.dim = unknowns.size + 1
        ra, rb = rows[a], rows[b]

        # Flattened scatter targets for the four stamps of each edge.
        stamp_rows, stamp_cols, stamp_sign, stamp_edge = [], [], [], []
        for r, c, s in ((ra, ra, 1.0), (rb, rb, 1.0), (ra, rb, -1.0), (rb, ra, -1.0)):
            ok = (r >= 0) & (c >= 0)
            stamp_rows.append(r[ok])
            stamp_cols.append(c[ok])
            stamp_sign.append(np.full(ok.sum(), s))
            stamp_edge.append(np.flatnonzero(ok))
        self._flat = (np.concatenate(stamp_rows) * self.dim + np.concatenate(stamp_cols))
        self._sign = np.concatenate(stamp_sign)
        self._edge = np.concatenate(stamp_edge)

        # one contiguous row per parameter, in device._PARAM_KEYS order
        (self.eps, self.theta, self.gamma, self.delta, self.lam, self.eta,
         self.tau, self.th_low, self.th_high,
         self.g_floor) = np.ascontiguousarray(t.params.T)

    def conductances(self, w: np.ndarray, branch_voltages: np.ndarray) -> np.ndarray:
        g = dev.conductance_batch(w, branch_voltages, self.eps, self.theta,
                                  self.gamma, self.delta, self.g_floor)
        return g + self.g_floor  # parallel floor path per edge

    def build(self, g: np.ndarray, v_in: float) -> LinearSystem:
        dim = self.dim
        flat = np.bincount(self._flat, weights=self._sign * g[self._edge],
                           minlength=dim * dim)
        matrix = flat.reshape(dim, dim)
        r_in = self.node_rows[self.input]
        matrix[r_in, self.source_row] = 1.0
        matrix[self.source_row, r_in] = 1.0
        rhs = np.zeros(dim)
        rhs[self.source_row] = v_in
        return LinearSystem(matrix=matrix, rhs=rhs, node_rows=self.node_rows,
                            source_row=self.source_row)


def assemble(t: NetworkTopology, branch_voltages: np.ndarray, v_in: float) -> LinearSystem:
    """Assemble the nodal system for one step.

    ``branch_voltages`` holds the previous step's per-edge voltages (zeros
    on the first step); conductances are evaluated there and floored.
    """
    asm = _Assembler(t)
    branch_voltages = np.asarray(branch_voltages, dtype=float)
    if branch_voltages.shape != (t.edge_count,):
        raise DataError(f"expected {t.edge_count} branch voltages, "
                        f"got shape {branch_voltages.shape}")
    if not np.isfinite(v_in):
        raise DataError(f"source voltage must be finite, got {v_in!r}")
    return asm.build(asm.conductances(t.w, branch_voltages), v_in)


def solve_step(sys: LinearSystem, step: Optional[int] = None):
    """Solve one assembled step.

    Returns (voltages, i_src): voltages over all grid nodes with ground
    fixed at 0 V, and the current delivered by the source.  Raises
    NumericalError if the solve fails or the residual exceeds
    RESIDUAL_RTOL * max(1, ||rhs||_inf).
    """
    try:
        x = np.linalg.solve(sys.matrix, sys.rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"linear solve failed: {exc}", step=step) from None
    residual = np.abs(sys.matrix @ x - sys.rhs).max()
    bound = RESIDUAL_RTOL * max(1.0, np.abs(sys.rhs).max())
    if not residual < bound:
        raise NumericalError(
            f"residual {residual:.3e} exceeds bound {bound:.3e}", step=step)
    voltages = np.zeros(sys.node_rows.size)
    keep = sys.node_rows >= 0
    voltages[keep] = x[sys.node_rows[keep]]
    # The auxiliary unknown is the current out of the input node into the
    # source; the delivered current is its negative.
    i_src = -float(x[sys.source_row])
    return voltages, i_src


@dataclass
class SimulationTrace:
    """Recorded run: interface voltages over time plus the source series."""

    times: np.ndarray               # (T,)
    dt: float
    interface_voltages: np.ndarray  # (T, n_interface)
    source_current: np.ndarray      # (T,)
    applied_voltage: np.ndarray     # (T,)
    switching_events: int

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
        for k in range(self.n_steps):
            row = [self.times[k], self.applied_voltage[k], self.source_current[k]]
            row.extend(self.interface_voltages[k])
            lines.append(",".join(f"{v:.9g}" for v in row))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as f:
            f.write(self.to_csv())

    @classmethod
    def read_csv(cls, path) -> "SimulationTrace":
        """Read a trace CSV.  The CSV carries no switching count, so
        ``switching_events`` reads back as 0."""
        try:
            data = np.genfromtxt(path, delimiter=",", names=True)
        except OSError:
            raise
        except Exception as exc:
            raise DataError(f"trace file {path} is not parseable: {exc}") from None
        if data.ndim == 0:
            data = data.reshape(1)
        names = list(data.dtype.names or ())
        if not {"t", "v_in", "i_src"} <= set(names):
            raise DataError(f"trace file {path} lacks t/v_in/i_src columns")
        node_cols = [n for n in names if n.startswith("node_")]
        times = np.asarray(data["t"], dtype=float)
        dt = float(times[1] - times[0]) if times.size > 1 else 0.0
        iface = np.column_stack([data[c] for c in node_cols]) if node_cols else \
            np.zeros((times.size, 0))
        return cls(times=times, dt=dt,
                   interface_voltages=iface,
                   source_current=np.asarray(data["i_src"], dtype=float),
                   applied_voltage=np.asarray(data["v_in"], dtype=float),
                   switching_events=0)


def simulate(t: NetworkTopology, waveform: Callable[[float], float],
             dt: float = DEFAULT_DT, duration: float = DEFAULT_DURATION, *,
             decay_mode: str = "state_dependent",
             decimation: int = 1) -> SimulationTrace:
    """Time-step the network under a single source waveform.

    Per step: assemble with the previous branch voltages, solve, compute
    fresh branch voltages, advance every device state (Euler step, then
    hysteresis).  Device state stored on the topology is never mutated, so repeated
    calls are bit-identical.
    """
    if dt <= 0.0:
        raise ParameterError(f"dt must be > 0, got {dt!r}")
    if duration < dt:
        raise ParameterError(f"duration must be >= dt, got {duration!r}")
    if decimation < 1:
        raise ParameterError(f"decimation must be >= 1, got {decimation!r}")
    n_steps = int(round(duration / dt))

    asm = _Assembler(t)
    iface = t.grid.interface_indices
    w_prime = t.w_prime.copy()
    w = t.w.copy()
    branch_v = np.zeros(t.edge_count)

    rec_idx = range(0, n_steps, decimation)
    n_rec = len(rec_idx)
    times = np.empty(n_rec)
    iface_v = np.empty((n_rec, iface.size))
    i_src_rec = np.empty(n_rec)
    v_in_rec = np.empty(n_rec)
    switching = 0

    rec = 0
    for k in range(n_steps):
        t_k = k * dt
        v_in = float(waveform(t_k))
        if not np.isfinite(v_in):
            raise DataError(f"waveform returned non-finite value at t={t_k!r}")

        sys = asm.build(asm.conductances(w, branch_v), v_in)
        voltages, i_src = solve_step(sys, step=k)
        branch_v = voltages[t.a] - voltages[t.b]

        if k % decimation == 0:
            times[rec] = t_k
            v_in_rec[rec] = v_in
            i_src_rec[rec] = i_src
            iface_v[rec] = voltages[iface]
            rec += 1

        w_prime = dev.advance_state_batch(w_prime, branch_v, dt, asm.lam,
                                          asm.eta, asm.tau, decay_mode=decay_mode)
        new_w = dev.hysteresis_batch(w_prime, w, asm.th_low, asm.th_high)
        switching += int(np.count_nonzero(new_w != w))
        w = new_w

    return SimulationTrace(times=times, dt=dt * decimation,
                           interface_voltages=iface_v,
                           source_current=i_src_rec,
                           applied_voltage=v_in_rec,
                           switching_events=switching)
