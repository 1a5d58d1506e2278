"""Capacity and cost measures computed from recorded signals.

The capacity proxy is the evenness of the eigenvalue spectrum of the
signal Gram matrix: fully redundant signals concentrate all variance in
one component (entropy 0), fully uncorrelated equal-variance signals
spread it evenly (entropy log2 N).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .solver import SimulationTrace

# Eigenvalues below this fraction of the largest are numerical noise.
EIG_NOISE_FLOOR = 1e-12


@dataclass(frozen=True)
class EntropyResult:
    """Normalized eigenvalue spectrum and its entropy in bits.

    ``degenerate`` marks an all-zero (after optional centering) input,
    for which the spectrum carries no information and the entropy is 0
    by convention.
    """

    spectrum: np.ndarray
    entropy_bits: float
    n_signals: int
    degenerate: bool = False


@dataclass(frozen=True)
class EnergyResult:
    energy_joules: float
    duration: float
    mean_power: float


def entropy(X: np.ndarray, center: bool = True) -> EntropyResult:
    """Eigenvalue entropy of a (T_steps x N) signal matrix.

    With ``center`` the column means are removed first so constant
    offsets do not masquerade as principal components; without it the
    literal Gram matrix X^T X is used.  Eigenvalues are normalized to a
    probability measure and H = -sum(lambda_i * log2(lambda_i)).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataError(f"signal matrix must be 2-D, got shape {X.shape}")
    T, N = X.shape
    if T < 2 or N < 1:
        raise DataError(f"need at least 2 steps and 1 signal, got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise DataError("signal matrix contains non-finite entries")

    if center:
        X = X - X.mean(axis=0)
    C = X.T @ X
    eig = np.linalg.eigvalsh(C)
    eig = np.clip(eig, 0.0, None)
    total = eig.sum()
    if total <= 0.0:
        return EntropyResult(spectrum=np.zeros(N), entropy_bits=0.0,
                             n_signals=N, degenerate=True)
    eig[eig < EIG_NOISE_FLOOR * eig.max()] = 0.0
    lam = eig / eig.sum()
    lam = np.sort(lam)[::-1]
    nz = lam[lam > 0.0]
    h = float(-(nz * np.log2(nz)).sum())
    return EntropyResult(spectrum=lam, entropy_bits=max(h, 0.0),
                         n_signals=N, degenerate=False)


def energy(trace: SimulationTrace) -> EnergyResult:
    """Total source energy by left-Riemann sum of v_in(t) * i_src(t), over
    every simulated step even when the trace's rows are decimated."""
    dt, v, i = trace.every_step or (trace.dt, trace.applied_voltage,
                                    trace.source_current)
    v, i = np.asarray(v, dtype=float), np.asarray(i, dtype=float)
    if v.shape != i.shape:
        raise DataError(f"voltage/current length mismatch: {v.shape} vs {i.shape}")
    if dt <= 0.0:
        raise DataError(f"trace dt must be > 0, got {dt!r}")
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(i))):
        raise DataError("trace contains non-finite entries")
    e = float(np.dot(v, i) * dt)
    duration = dt * v.size
    return EnergyResult(energy_joules=e, duration=duration,
                        mean_power=e / duration)


def check_readout(n_interface: int, node_a: int, node_b: int) -> None:
    """Raise ParameterError unless the labels differ and lie in 1..n_interface."""
    if node_a == node_b:
        raise ParameterError("readout nodes must differ")
    for label in (node_a, node_b):
        if not (1 <= label <= n_interface):
            raise ParameterError(f"readout label {label} outside 1..{n_interface}")


def differential_readout(trace: SimulationTrace, node_a: int, node_b: int) -> np.ndarray:
    """Per-step voltage difference between two interface nodes.

    Nodes are 1-based interface labels matching the trace CSV header
    (node_1 ... node_N).
    """
    check_readout(trace.n_interface, node_a, node_b)
    return trace.interface_voltages[:, node_a - 1] - trace.interface_voltages[:, node_b - 1]
