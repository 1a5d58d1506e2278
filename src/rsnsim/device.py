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


def check_decay_mode(mode, error: type = ParameterError) -> None:
    """Raise ``error`` unless ``mode`` is one of DECAY_MODES."""
    if not (isinstance(mode, str) and mode in DECAY_MODES):
        raise error(f"decay_mode must be one of {DECAY_MODES}, got {mode!r}")


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


def default_ranges(spread: float = 0.5) -> ParamRanges:
    """Uniform variation of +-``spread`` around DEFAULT_PARAMS.  Hysteresis
    thresholds and the conductance floor are kept fixed so the per-device
    invariant th_low < th_high cannot be violated by independent draws."""
    fixed = ("th_low", "th_high", "g_floor")
    return ParamRanges(
        [[x if k in fixed else x * (1.0 - spread) for k, x in DEFAULT_PARAMS.items()],
         [x if k in fixed else x * (1.0 + spread) for k, x in DEFAULT_PARAMS.items()]])


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
    # Every intermediate lives in a buffer of the result's shape and is
    # computed in place, in the operation order of the formulas above, so
    # the bits are the formulas'.
    shape = np.broadcast(w, V, epsilon, theta, gamma, delta, g_floor).shape
    safe = np.abs(np.asarray(V, dtype=float), out=np.empty(shape))
    # The V -> 0 guard runs only when some |V| needs it (NaN included),
    # and touches only the entries at the limit.
    small = None
    if not (safe.size and np.minimum.reduce(safe, axis=None) > V_LIMIT_SWITCH):
        small = safe <= V_LIMIT_SWITCH
        safe[small] = 1.0
    off = np.negative(theta, out=np.empty(shape))
    np.multiply(off, safe, out=off)
    np.expm1(off, out=off)
    np.negative(off, out=off)
    np.multiply(epsilon, off, out=off)
    np.divide(off, safe, out=off)
    on = np.multiply(delta, safe, out=np.empty(shape))
    np.minimum(on, _SINH_ARG_CAP, out=on)
    np.sinh(on, out=on)
    np.multiply(gamma, on, out=on)
    np.divide(on, safe, out=on)
    if small is not None:
        np.multiply(epsilon, theta, out=off, where=small)
        np.multiply(gamma, delta, out=on, where=small)
    # ON where w == 1, then the floor; a scalar for scalar input, as a
    # ufunc returns
    np.putmask(off, np.equal(w, 1, out=np.empty(shape, dtype=bool)), on)
    np.maximum(off, g_floor, out=off)
    return off if off.ndim else off[()]


def advance_state_batch(w_prime, V, dt, lam, eta, tau,
                        decay_mode: str = "state_dependent"):
    """One explicit-Euler step of the internal state, clamped to [0, 1].

    state_dependent: dw'/dt = lam*sinh(eta*|V|) - (w'/tau)*(1 - w')
    plain:           dw'/dt = lam*sinh(eta*|V|) - w'/tau
    """
    check_decay_mode(decay_mode)
    if not dt > 0.0:
        raise ParameterError(f"dt must be > 0, got {dt!r}")
    shape = np.broadcast(w_prime, V, dt, lam, eta, tau).shape
    out = np.abs(np.asarray(V, dtype=float), out=np.empty(shape))
    with np.errstate(over="ignore"):
        np.multiply(eta, out, out=out)
        np.minimum(out, _SINH_ARG_CAP, out=out)
        np.sinh(out, out=out)
        np.multiply(lam, out, out=out)  # growth
        if decay_mode == "state_dependent":
            decay = (w_prime / tau) * (1.0 - w_prime)
        else:
            decay = w_prime / tau
        np.subtract(out, decay, out=out)
        np.multiply(dt, out, out=out)
        np.add(w_prime, out, out=out)
    # Clamp to [0, 1]: fmin also sends NaN and +inf (overflow of dt * grow
    # under extreme bias) to 1, and fmax sends -inf to 0.
    np.fmin(out, 1.0, out=out)
    np.fmax(out, 0.0, out=out)
    return out if out.ndim else out[()]


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
