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

from dataclasses import dataclass
from types import MappingProxyType
from typing import Optional

import numpy as np

from .errors import ParameterError, _finite

# Below this bias magnitude the analytic V->0 limits are returned exactly.
V_LIMIT_SWITCH = 1e-8

# sinh arguments are capped here: keeps the kernels finite (and 0 * sinh
# well-defined) without changing any realistic operating point.
_SINH_ARG_CAP = 700.0

DECAY_MODES = ("state_dependent", "plain")


# The kernels' constants as 0-d arrays, which ufuncs take faster than Python
# scalars; they meet only float64 buffers, and _ON only w in ==.
_LIMIT, _CAP, _ZERO, _ONE, _ON = map(np.array, (V_LIMIT_SWITCH, _SINH_ARG_CAP, 0.0, 1.0, 1))

# Default parameter set: produces switching within a few periods of a
# 5 Hz, 1-8 V sine drive on the default lattices.  All overridable.
DEFAULT_PARAMS = MappingProxyType({
    "epsilon": 1e-4,  # OFF-branch conductance scale (S*V)
    "theta": 4.0,     # OFF-branch exponent (1/V)
    "gamma": 4e-4,    # ON-branch scale (S*V)
    "delta": 2.0,     # ON-branch sinh argument (1/V)
    "lambda": 1.0,    # internal-state growth rate (1/s)
    "eta": 4.0,       # internal-state sinh argument (1/V)
    "tau": 0.2,       # decay time constant (s)
    "th_low": 0.4,    # hysteresis thresholds on w_prime,
    "th_high": 0.6,   #   0 < th_low < th_high < 1
    "g_floor": 1e-9,  # minimum conductance (S); keeps the nodal matrix nonsingular
})

# One order for the parameters, and the package's one parameter format: a
# row of ten values in this order.  It is the draw order for sampling, the
# serialization key order and the column order of a topology's (E, 10)
# parameter matrix.
_PARAM_KEYS = tuple(DEFAULT_PARAMS)


def check_params(rows) -> None:
    """Raise ParameterError unless every row of ``rows`` (one row or an
    (N, 10) matrix, columns in _PARAM_KEYS order) is a valid device: every
    entry finite, lambda >= 0, th_low and th_high with
    0 < th_low < th_high < 1, and every other parameter > 0."""
    rows = np.asarray(rows, dtype=float)
    if rows.shape[-1:] != (len(_PARAM_KEYS),):
        raise ParameterError(f"expected rows of {len(_PARAM_KEYS)} parameters, "
                             f"got shape {rows.shape}")
    p = dict(zip(_PARAM_KEYS, rows.reshape(-1, len(_PARAM_KEYS)).T))
    for key, col in p.items():
        if key in ("th_low", "th_high"):
            continue
        ok = np.isfinite(col) & ((col >= 0.0) if key == "lambda" else (col > 0.0))
        if not ok.all():
            rule = ">= 0" if key == "lambda" else "> 0"
            raise ParameterError(f"{key} must be finite and {rule}, "
                                 f"got {float(col[~ok][0])!r}")
    low, high = p["th_low"], p["th_high"]
    ok = (0.0 < low) & (low < high) & (high < 1.0)
    if not ok.all():
        i = np.flatnonzero(~ok)[0]
        raise ParameterError(f"thresholds must satisfy 0 < th_low < th_high < 1, "
                             f"got ({float(low[i])!r}, {float(high[i])!r})")


def check_decay_mode(mode) -> None:
    """Raise ParameterError unless ``mode`` is one of DECAY_MODES."""
    if not (isinstance(mode, str) and mode in DECAY_MODES):
        raise ParameterError(f"decay_mode must be one of {DECAY_MODES}, got {mode!r}")


def _ordered(d: dict, what: str) -> list:
    """The values of a {parameter: value} document in _PARAM_KEYS order; a
    missing or unknown key raises ParameterError."""
    if d.keys() != DEFAULT_PARAMS.keys():
        missing = [k for k in _PARAM_KEYS if k not in d]
        unknown = [k for k in d if k not in DEFAULT_PARAMS]
        raise ParameterError(f"{what}s: missing {missing}, unknown {unknown}")
    return [d[k] for k in _PARAM_KEYS]


@dataclass(frozen=True, eq=False)
class ParamRanges:
    """Closed sampling interval [lo, hi] per device parameter.

    ``bounds`` is a read-only (2, 10) array: lower then upper bounds,
    columns in _PARAM_KEYS order.  Both bound rows must be valid devices,
    ``lo <= hi`` in every column, and the th_low range must lie strictly
    below the th_high range, so every draw is a valid device.
    """

    bounds: np.ndarray

    def __post_init__(self):
        b = np.array(self.bounds, dtype=float)
        if b.shape != (2, len(_PARAM_KEYS)):
            raise ParameterError(f"bounds must have shape (2, {len(_PARAM_KEYS)}), "
                                 f"got {b.shape}")
        check_params(b)
        for key, (lo, hi) in zip(_PARAM_KEYS, b.T.tolist()):
            if lo > hi:
                raise ParameterError(f"bad range for {key}: ({lo!r}, {hi!r})")
        lows = b[:, _PARAM_KEYS.index("th_low")]
        highs = b[:, _PARAM_KEYS.index("th_high")]
        if lows[1] >= highs[0]:
            raise ParameterError(
                "th_low range must lie strictly below th_high range "
                f"(got {tuple(lows.tolist())} vs {tuple(highs.tolist())})")
        b.flags.writeable = False
        object.__setattr__(self, "bounds", b)

    def __eq__(self, other):
        if not isinstance(other, ParamRanges):
            return NotImplemented
        return bool(np.array_equal(self.bounds, other.bounds))

    def __hash__(self):
        return hash(tuple(self.bounds.ravel().tolist()))

    def to_dict(self) -> dict:
        return {k: [lo, hi] for k, lo, hi in zip(_PARAM_KEYS, *self.bounds.tolist())}

    @classmethod
    def from_dict(cls, d: dict) -> "ParamRanges":
        pairs = []
        for k, pair in zip(_PARAM_KEYS, _ordered(d, "range")):
            if np.isscalar(pair):
                pair = (pair, pair)
            if len(pair) != 2:
                raise ParameterError(f"range for {k} must be [lo, hi], got {pair!r}")
            pairs.append([_finite(x, k, ParameterError) for x in pair])
        return cls(np.array(pairs).T)


def default_ranges() -> ParamRanges:
    """Uniform variation of +-50% around DEFAULT_PARAMS.  Hysteresis
    thresholds and the conductance floor are kept fixed so the per-device
    invariant th_low < th_high cannot be violated by independent draws."""
    fixed = ("th_low", "th_high", "g_floor")
    return ParamRanges(
        [[x if k in fixed else x * 0.5 for k, x in DEFAULT_PARAMS.items()],
         [x if k in fixed else x * 1.5 for k, x in DEFAULT_PARAMS.items()]])


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
    # The formulas in their operation order, so the bits are the formulas'.
    # A ufunc bringing in an operand allocates (numpy broadcasts there); the
    # rest work in place, on arrays: a 0-d bias is taken as shape (1,).
    safe = np.abs(V, dtype=float)
    scalar = safe.ndim == 0
    safe = safe.reshape(1) if scalar else safe
    # The V -> 0 guard touches only the entries at the limit.
    small = np.less_equal(safe, _LIMIT)
    guarded = np.count_nonzero(small)
    if guarded:
        np.putmask(safe, small, _ONE)
    off = np.multiply(np.negative(theta), safe)
    np.negative(np.expm1(off, out=off), out=off)
    off = np.multiply(epsilon, off)
    off /= safe
    on = np.multiply(delta, safe)
    np.sinh(np.minimum(on, _CAP, out=on), out=on)
    on = np.multiply(gamma, on)
    on /= safe
    if guarded:
        np.copyto(off, np.multiply(epsilon, theta), where=small)
        np.copyto(on, np.multiply(gamma, delta), where=small)
    # ON where w == 1, then the floor; a scalar if every input is one
    out = np.maximum(np.where(np.equal(w, _ON), on, off), g_floor)
    others = (w, epsilon, theta, gamma, delta, g_floor)
    return out[0] if scalar and not any(map(np.ndim, others)) else out


@np.errstate(over="ignore")
def advance_state_batch(w_prime, V, dt, lam, eta, tau,
                        decay_mode: str = "state_dependent"):
    """One explicit-Euler step of the internal state, clamped to [0, 1].

    state_dependent: dw'/dt = lam*sinh(eta*|V|) - (w'/tau)*(1 - w')
    plain:           dw'/dt = lam*sinh(eta*|V|) - w'/tau
    """
    w_prime = np.array(w_prime) if isinstance(w_prime, list) else w_prime
    if decay_mode == "state_dependent":
        decay = np.divide(w_prime, tau)
        decay *= 1.0 - w_prime  # a float w_prime stays a Python scalar
    elif decay_mode == "plain":
        decay = np.divide(w_prime, tau)
    else:
        check_decay_mode(decay_mode)
    if not (dt > 0.0 if isinstance(dt, float) else np.all(np.greater(dt, 0.0))):
        raise ParameterError(f"dt must be > 0, got {dt!r}")
    out = np.abs(V, dtype=float)
    scalar = out.ndim == 0  # taken as shape (1,), as in conductance_batch
    out = np.multiply(eta, out.reshape(1) if scalar else out)
    np.sinh(np.minimum(out, _CAP, out=out), out=out)
    out = np.multiply(dt, np.subtract(np.multiply(lam, out), decay))
    out += w_prime  # NaN never reaches the result: the order is free
    # Clamp to [0, 1]: fmin also sends NaN and +inf (overflow of dt * grow
    # under extreme bias) to 1, and fmax sends -inf to 0.
    np.fmax(np.fmin(out, _ONE, out=out), _ZERO, out=out)
    return out[0] if scalar and not any(map(np.ndim, (w_prime, dt, lam, eta, tau))) else out


def hysteresis_batch(w_prime, w, th_low, th_high):
    """Binary thresholding with a dead band: w -> 1 above th_high,
    0 below th_low, unchanged in between.  Returns a new array like ``w``."""
    out = np.array(w)
    band = np.empty(out.shape, dtype=bool)
    np.putmask(out, np.less_equal(w_prime, th_low, out=band), 0)
    # stored last: wins where the bands overlap
    np.putmask(out, np.greater_equal(w_prime, th_high, out=band), 1)
    return out


def sample_device_params(r: ParamRanges, rng: np.random.Generator,
                         n: Optional[int] = None) -> np.ndarray:
    """Draw each parameter independently and uniformly from its interval.

    Returns one (10,) parameter row in _PARAM_KEYS order, which is also the
    draw order, so a seeded stream yields a reproducible parameter sequence;
    given ``n``, n such rows.  Values and generator state are those of
    ``rng.uniform(*r.bounds)``, whose formula this is; that bit-equality
    holds where numpy's C ``uniform`` is built without fused multiply-add
    (checked on x86-64 only; TestSamplingReference guards it elsewhere).
    The ranges' own checks guarantee that every draw is a valid device.
    """
    lo, hi = r.bounds
    return lo + (hi - lo) * rng.random(lo.shape if n is None else (n, lo.size))
