"""Binary resistive-switch model with a hidden second-order state.

A device has two coupled state variables: a continuous internal state
``w_prime`` in [0, 1] (activation proxy: bridge precursor height, local
heating, ...) and a binary conductance state ``w`` obtained from
``w_prime`` through a hysteresis threshold pair.  Conductance is a
nonlinear function of the applied bias with separate OFF and ON branches.

Devices carry no polarity: conductance is evaluated at |V| and the sign
is applied to the current, so I(-V) = -I(V).  The internal-state drive
uses |V| for the same reason (randomly assembled devices have no defined
orientation).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Tuple

import numpy as np

from .errors import ParameterError

# Below this bias magnitude the analytic V->0 limits are returned exactly.
V_LIMIT_SWITCH = 1e-8

# sinh arguments are capped here: keeps the kernels finite (and 0 * sinh
# well-defined) without changing any realistic operating point.
_SINH_ARG_CAP = 700.0

DECAY_MODES = ("state_dependent", "plain")

# One order for the parameters: the draw order for sampling, the
# serialization key order, the field order of DeviceParams and the column
# order of a topology's (E, 10) parameter matrix.  "lambda" is the external
# name of the field stored as ``lam``.
_PARAM_KEYS = ("epsilon", "theta", "gamma", "delta", "lambda", "eta", "tau",
               "th_low", "th_high", "g_floor")


def _attr(key: str) -> str:
    return "lam" if key == "lambda" else key


@dataclass(frozen=True)
class DeviceParams:
    """Static parameters of one switch.

    epsilon, theta: OFF-branch conductance scale (S*V) and exponent (1/V).
    gamma, delta:   ON-branch scale (S*V) and sinh argument (1/V).
    lam, eta:       internal-state growth rate (1/s) and sinh argument (1/V).
    tau:            decay time constant (s).
    th_low/th_high: hysteresis thresholds on w_prime, 0 < low < high < 1.
    g_floor:        minimum conductance (S); keeps the nodal matrix nonsingular.
    """

    epsilon: float
    theta: float
    gamma: float
    delta: float
    lam: float
    eta: float
    tau: float
    th_low: float
    th_high: float
    g_floor: float

    def __post_init__(self):
        for name in ("epsilon", "theta", "gamma", "delta", "eta", "tau", "g_floor"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0.0:
                raise ParameterError(f"{name} must be finite and > 0, got {v!r}")
        if not np.isfinite(self.lam) or self.lam < 0.0:
            raise ParameterError(f"lambda must be finite and >= 0, got {self.lam!r}")
        if not (0.0 < self.th_low < self.th_high < 1.0):
            raise ParameterError(
                f"thresholds must satisfy 0 < th_low < th_high < 1, "
                f"got ({self.th_low!r}, {self.th_high!r})")

    def to_dict(self) -> dict:
        return {k: float(getattr(self, _attr(k))) for k in _PARAM_KEYS}

    @classmethod
    def from_dict(cls, d: dict) -> "DeviceParams":
        missing = [k for k in _PARAM_KEYS if k not in d]
        if missing:
            raise ParameterError(f"missing device parameter(s): {missing}")
        extra = [k for k in d if k not in _PARAM_KEYS]
        if extra:
            raise ParameterError(f"unknown device parameter(s): {extra}")
        return cls(**{_attr(k): float(d[k]) for k in _PARAM_KEYS})


# Default parameter set: produces switching within a few periods of a
# 5 Hz, 1-8 V sine drive on the default lattices.  All overridable.
DEFAULT_PARAMS = DeviceParams(
    epsilon=1e-4,
    theta=4.0,
    gamma=4e-4,
    delta=2.0,
    lam=1.0,
    eta=4.0,
    tau=0.2,
    th_low=0.4,
    th_high=0.6,
    g_floor=1e-9,
)


@dataclass(frozen=True)
class ParamRanges:
    """Closed sampling interval [lo, hi] per device parameter."""

    epsilon: Tuple[float, float]
    theta: Tuple[float, float]
    gamma: Tuple[float, float]
    delta: Tuple[float, float]
    lam: Tuple[float, float]
    eta: Tuple[float, float]
    tau: Tuple[float, float]
    th_low: Tuple[float, float]
    th_high: Tuple[float, float]
    g_floor: Tuple[float, float]

    def __post_init__(self):
        for f in fields(self):
            lo, hi = getattr(self, f.name)
            if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
                raise ParameterError(f"bad range for {f.name}: ({lo!r}, {hi!r})")
        # Endpoints must themselves form valid parameter sets.
        for pick in (0, 1):
            DeviceParams(**{f.name: getattr(self, f.name)[pick] for f in fields(self)})
        # Independent draws must never invert the threshold pair.
        if self.th_low[1] >= self.th_high[0]:
            raise ParameterError(
                "th_low range must lie strictly below th_high range "
                f"(got {self.th_low} vs {self.th_high})")

    @cached_property
    def bounds(self) -> np.ndarray:
        """(2, 10) array: lower then upper bounds, columns in _PARAM_KEYS order."""
        return np.array([getattr(self, _attr(k)) for k in _PARAM_KEYS]).T

    def to_dict(self) -> dict:
        return {k: [float(v) for v in getattr(self, _attr(k))] for k in _PARAM_KEYS}

    @classmethod
    def from_dict(cls, d: dict) -> "ParamRanges":
        missing = [k for k in _PARAM_KEYS if k not in d]
        if missing:
            raise ParameterError(f"missing range(s): {missing}")
        extra = [k for k in d if k not in _PARAM_KEYS]
        if extra:
            raise ParameterError(f"unknown range key(s): {extra}")
        kw = {}
        for k in _PARAM_KEYS:
            pair = d[k]
            if np.isscalar(pair):
                pair = (pair, pair)
            if len(pair) != 2:
                raise ParameterError(f"range for {k} must be [lo, hi], got {pair!r}")
            kw[_attr(k)] = (float(pair[0]), float(pair[1]))
        return cls(**kw)


def default_ranges(spread: float = 0.5) -> ParamRanges:
    """Uniform variation of +-``spread`` around the default physical
    parameters.  Hysteresis thresholds and the conductance floor are kept
    fixed so the per-device invariant th_low < th_high cannot be violated
    by independent draws."""
    p = DEFAULT_PARAMS

    def around(x):
        return (x * (1.0 - spread), x * (1.0 + spread))

    return ParamRanges(
        epsilon=around(p.epsilon),
        theta=around(p.theta),
        gamma=around(p.gamma),
        delta=around(p.delta),
        lam=around(p.lam),
        eta=around(p.eta),
        tau=around(p.tau),
        th_low=(p.th_low, p.th_low),
        th_high=(p.th_high, p.th_high),
        g_floor=(p.g_floor, p.g_floor),
    )


# ---------------------------------------------------------------------------
# Kernels.  These operate elementwise on arrays of devices and are the
# single source of the device math.
# ---------------------------------------------------------------------------

def conductance_batch(w, V, epsilon, theta, gamma, delta, g_floor):
    """Elementwise conductance for arrays of device states and biases.

    OFF branch: epsilon * (1 - exp(-theta*|V|)) / |V|   (limit epsilon*theta)
    ON branch:  gamma * sinh(delta*|V|) / |V|           (limit gamma*delta)
    The result is floored at g_floor.  The solver stamps each device with
    a further g_floor in parallel, so a branch conducts
    max(G, g_floor) + g_floor.
    """
    absV = np.abs(np.asarray(V, dtype=float))
    small = absV <= V_LIMIT_SWITCH
    safe = np.where(small, 1.0, absV)
    off = np.where(small, epsilon * theta,
                   epsilon * -np.expm1(-theta * safe) / safe)
    on = np.where(small, gamma * delta,
                  gamma * np.sinh(np.minimum(delta * safe, _SINH_ARG_CAP)) / safe)
    g = np.where(np.asarray(w) == 1, on, off)
    return np.maximum(g, g_floor)


def advance_state_batch(w_prime, V, dt, lam, eta, tau,
                        decay_mode: str = "state_dependent"):
    """One explicit-Euler step of the internal state, clamped to [0, 1].

    state_dependent: dw'/dt = lam*sinh(eta*|V|) - (w'/tau)*(1 - w')
    plain:           dw'/dt = lam*sinh(eta*|V|) - w'/tau
    """
    if decay_mode not in DECAY_MODES:
        raise ParameterError(f"decay_mode must be one of {DECAY_MODES}, got {decay_mode!r}")
    if not dt > 0.0:
        raise ParameterError(f"dt must be > 0, got {dt!r}")
    absV = np.abs(np.asarray(V, dtype=float))
    with np.errstate(over="ignore"):
        grow = lam * np.sinh(np.minimum(eta * absV, _SINH_ARG_CAP))
        if decay_mode == "state_dependent":
            decay = (w_prime / tau) * (1.0 - w_prime)
        else:
            decay = w_prime / tau
        out = w_prime + dt * (grow - decay)
    # Clamp to [0, 1]: fmin also sends NaN and +inf (overflow of dt * grow
    # under extreme bias) to 1, and fmax sends -inf to 0.
    return np.fmax(np.fmin(out, 1.0), 0.0)


def hysteresis_batch(w_prime, w, th_low, th_high):
    """Binary thresholding with a dead band: w -> 1 above th_high,
    0 below th_low, unchanged in between."""
    w_arr = np.asarray(w)
    return np.where(w_prime >= th_high, 1,
                    np.where(w_prime <= th_low, 0, w_arr)).astype(w_arr.dtype)


def sample_device_params(r: ParamRanges, rng: np.random.Generator) -> np.ndarray:
    """Draw each parameter independently and uniformly from its interval.

    Returns one (10,) parameter row in _PARAM_KEYS order, which is also the
    draw order, so a seeded stream yields a reproducible parameter sequence.
    The ranges' own checks guarantee that every draw is a valid device.
    """
    return rng.uniform(*r.bounds)
